"""End-to-end acceptance suite, one test per criterion.

Run with `pytest tests/test_acceptance.py -v`; a pass/fail line per
criterion is printed in the terminal summary.
"""

import numpy as np
import pytest

from conftest import record_acceptance

from tsfem.linsolve import SolverConfig
from tsfem.mesh import generate_bent_channel_tet, generate_interval, generate_rect_tri
from tsfem.navier_stokes import (
    NSCase,
    NSState,
    assemble_ns_residual,
    assemble_ns_tangent,
    backflow_surface_matrix,
    solve_ns,
)
from tsfem.scalar import ScalarCase, coercivity_probe, resolve_scalar_dirichlet, solve_scalar
from tsfem.spectral import (
    SpectralCoeffs,
    build_omega,
    convolution_dense,
    modes_from_real,
    modes_to_real,
    n_coeffs,
)
from tsfem.verification import (
    diagnostics,
    exact_steady_advection_diffusion_1d,
    l2_error,
    oscillatory_channel_exact,
    refinement_report,
)

RNG = np.random.default_rng(515151)

TIGHT = SolverConfig(eps_nr=1e-8, eps_ls=1e-12, krylov_dim=100,
                     max_linear_iters=100_000)


# ---------------------------------------------------------------------------
# 1. steady 1D nodal behavior
# ---------------------------------------------------------------------------

def _steady_1d_solution(pe_e, n_elems=32, u=1.0, length=1.0):
    h = length / n_elems
    kappa = u * h / (2.0 * pe_e)
    mesh = generate_interval(length, n_elems)
    vel = np.full((mesh.n_nodes, 1, 1), u, dtype=complex)
    case = ScalarCase(kappa=kappa, omega=0.0, n_modes=1, velocity=vel,
                      dirichlet={"left": np.zeros(1, complex),
                                 "right": np.ones(1, complex)})
    sol = solve_scalar(case, mesh, TIGHT)
    exact = exact_steady_advection_diffusion_1d(u, kappa, length, 1.0)
    return mesh, sol[:, 0].real, exact(mesh.coords[:, 0])


def test_criterion_01_steady_1d_nodal_behavior():
    # oscillation-free at moderate to strong convection
    for pe in (1.0, 10.0, 100.0):
        _, nodal, _ = _steady_1d_solution(pe)
        diffs = np.diff(nodal)
        assert np.all(diffs >= -1e-12), f"oscillation at Pe_e={pe}"
        assert np.all(nodal >= -1e-12) and np.all(nodal <= 1 + 1e-12)

    # nodal convergence in both asymptotic limits of the stabilization
    errs = {}
    for pe in (0.01, 1e7):
        _, nodal, exact = _steady_1d_solution(pe)
        errs[pe] = np.max(np.abs(nodal - exact)) / np.max(np.abs(exact))
        assert errs[pe] <= 1e-6, f"Pe_e={pe}: nodal error {errs[pe]:.3e}"
    record_acceptance("test_criterion_01_steady_1d_nodal_behavior",
                      f"nodal err {errs[0.01]:.1e} @Pe=0.01, {errs[1e7]:.1e} @Pe=1e7")


# ---------------------------------------------------------------------------
# 2./3. manufactured-solution convergence orders
# ---------------------------------------------------------------------------

_MMS_AMPS = np.array([1.0, 0.4 - 0.2j, 0.15 + 0.1j])
_MMS_WAVE = np.array([1.0, 2.0, 3.0])  # multiples of pi / L


def _mms_fields(n_modes, length):
    m = n_coeffs(n_modes)
    k = _MMS_WAVE[:n_modes] * np.pi / length

    def modes(x, deriv=0):
        out = np.zeros((x.shape[0], m), dtype=complex)
        for n in range(n_modes):
            if deriv == 0:
                base = np.sin(k[n] * x)
            elif deriv == 1:
                base = k[n] * np.cos(k[n] * x)
            else:
                base = -k[n] ** 2 * np.sin(k[n] * x)
            out[:, n_modes - 1 + n] = _MMS_AMPS[n] * base
            if n:
                out[:, n_modes - 1 - n] = np.conj(_MMS_AMPS[n]) * base
        return out

    return modes


def _mms_study(kappa, omega, u_pos, resolutions, length=1.0, n_modes=3):
    u_pos = np.pad(np.asarray(u_pos, dtype=complex), (0, n_modes - len(u_pos)))
    u_full = SpectralCoeffs.from_positive_modes(u_pos).values
    conv = convolution_dense(u_full, n_modes)
    omega_mat = build_omega(n_modes, omega)
    modes = _mms_fields(n_modes, length)

    def source(points):
        x = points[:, 0]
        return (modes(x) @ omega_mat.T + modes(x, 1) @ conv.T
                - kappa * modes(x, 2))

    def exact(points):
        return modes(points[:, 0])

    errors, hs, alphas, betas = [], [], [], []
    m = n_coeffs(n_modes)
    for res in resolutions:
        mesh = generate_interval(length, res)
        vel = np.tile(u_full[None, None, :], (mesh.n_nodes, 1, 1))
        case = ScalarCase(kappa=kappa, omega=omega, n_modes=n_modes,
                          velocity=vel,
                          dirichlet={"left": np.zeros(m, complex),
                                     "right": np.zeros(m, complex)},
                          source=source)
        sol = solve_scalar(case, mesh, TIGHT)
        errors.append(l2_error(sol, exact, mesh))
        hs.append(length / res)
        diag = diagnostics(case, mesh)
        alphas.append(diag.alpha)
        betas.append(diag.beta)
    return refinement_report(errors, hs), max(alphas), max(betas)


def test_criterion_02_diffusive_convergence_order():
    report, alpha, beta = _mms_study(kappa=1.0, omega=2.0,
                                     u_pos=np.array([0.3, 0.1 + 0.05j]),
                                     resolutions=[8, 16, 32])
    assert alpha < 0.1 and beta < 0.5
    assert report.order >= 1.9
    record_acceptance("test_criterion_02_diffusive_convergence_order",
                      f"order {report.order:.2f} (alpha={alpha:.3f}, beta={beta:.2f})")


def test_criterion_03_convective_convergence_order():
    report, alpha, beta = _mms_study(kappa=5e-4, omega=0.5,
                                     u_pos=np.array([1.0, 0.2 + 0.1j]),
                                     resolutions=[8, 16, 32])
    assert alpha > 10
    assert report.order >= 1.4
    record_acceptance("test_criterion_03_convective_convergence_order",
                      f"order {report.order:.2f} (alpha={alpha:.1f})")


# ---------------------------------------------------------------------------
# 4. stabilization-matrix property suite
# ---------------------------------------------------------------------------

def test_criterion_04_tau_property_suite():
    from tsfem.spectral import tau_from_modes

    rng = np.random.default_rng(4242)
    worst_centro = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 4))
        m = n_coeffs(n)
        c_i = float(rng.choice([3.0, 9.0]))
        kappa = float(rng.uniform(0.01, 2.0))
        pos = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
        pos[:, 0] = pos[:, 0].real
        full = np.concatenate([np.conj(pos[:, :0:-1]), pos], axis=1)
        a = rng.standard_normal((dim, dim))
        g = a @ a.T + dim * np.eye(dim)

        tau = tau_from_modes(full[None], g[None], kappa, c_i, n)[0]
        scale = np.max(np.abs(tau))
        assert np.max(np.abs(tau - tau.conj().T)) <= 1e-12 * scale
        eigs = np.linalg.eigvalsh(tau)
        assert eigs[0] > 0.0
        centro = np.max(np.abs(tau - tau[::-1, ::-1].T)) / scale
        worst_centro = max(worst_centro, centro)
        assert centro <= 1e-12

        # steady reduction to the scalar parameter
        u0 = rng.standard_normal(dim)
        steady = np.zeros((dim, m), dtype=complex)
        steady[:, n - 1] = u0
        tau_s = tau_from_modes(steady[None], g[None], kappa, c_i, n)[0]
        scalar = (u0 @ g @ u0 + c_i * kappa**2 * np.sum(g * g)) ** -0.5
        assert np.linalg.norm(tau_s - scalar * np.eye(m)) <= 1e-12 * scalar

        # lower bound on tau: lambda_max(tau^{-1}) <= c kappa h^{-2} (1 + alpha_e)
        # with c^2 = C_I * C_gamma and C_gamma = h^4 G:G (h cancels)
        conv = convolution_dense(full, n)
        arg = np.einsum("ij,irs,jst->rt", g, conv, conv)
        gg = float(np.sum(g * g))
        alpha_e = np.sqrt(max(np.linalg.eigvalsh(arg)[-1], 0.0)
                          / (c_i * kappa**2 * gg))
        lam_max_inv = 1.0 / eigs[0]
        bound = np.sqrt(c_i * gg) * kappa * (1.0 + alpha_e)
        assert lam_max_inv <= bound * (1 + 1e-10)
    record_acceptance("test_criterion_04_tau_property_suite",
                      f"200 random draws, centrosymmetry defect <= {worst_centro:.1e}")


# ---------------------------------------------------------------------------
# 5. coercivity split
# ---------------------------------------------------------------------------

def test_criterion_05_coercivity_split():
    mesh = generate_rect_tri((1.0, 1.0), (4, 4))
    n_modes = 2
    m = n_coeffs(n_modes)
    vel = np.zeros((mesh.n_nodes, 2, m), dtype=complex)
    vel[:, 0, n_modes - 1] = 1.0
    vel[:, 0, n_modes] = 0.2
    vel[:, 0, n_modes - 2] = 0.2
    case = ScalarCase(kappa=0.4, omega=1.3, n_modes=n_modes, velocity=vel,
                      dirichlet={"xmin": np.zeros(m, complex),
                                 "ymin": np.zeros(m, complex),
                                 "ymax": np.zeros(m, complex)},
                      neumann={"xmax": np.zeros(m, complex)})
    nodes, _ = resolve_scalar_dirichlet(case, mesh)
    worst = 0.0
    for _ in range(100):
        w = RNG.standard_normal((mesh.n_nodes, m)) + 1j * RNG.standard_normal((mesh.n_nodes, m))
        w = 0.5 * (w + np.conj(w[:, ::-1]))
        w[nodes] = 0.0
        rep = coercivity_probe(case, mesh, w)
        assert rep.b_form > 0.0
        mismatch = abs(rep.total - rep.b_form) / abs(rep.b_form)
        worst = max(worst, mismatch)
        assert mismatch <= 1e-9
    record_acceptance("test_criterion_05_coercivity_split",
                      f"100 admissible fields, split mismatch <= {worst:.1e}")


# ---------------------------------------------------------------------------
# 6. oscillatory channel versus the analytic profiles
# ---------------------------------------------------------------------------

def test_criterion_06_oscillatory_channel():
    rho, mu, b = 1.0, 0.01, 1.0
    n_modes = 3
    m = n_coeffs(n_modes)
    length = 0.2
    # low driving amplitudes keep convective mode coupling (absent from the
    # fully developed oracle) well below the 1% target
    grad = np.array([-0.002, 0.00067 + 0.00033j, 0.00033 - 0.00017j])
    details = []
    for w_target in (1.0, 5.0, 10.0):
        omega = w_target**2 * mu / (rho * b**2)
        mesh = generate_rect_tri((length, 2 * b), (4, 80))
        h_in = SpectralCoeffs.from_positive_modes(length * grad).values
        case = NSCase(rho=rho, mu=mu, omega=omega, n_modes=n_modes,
                      dirichlet={}, walls=["ymin", "ymax"],
                      neumann={"xmin": h_in, "xmax": np.zeros(m, complex)})
        beta = diagnostics(case, mesh, velocity=np.zeros((mesh.n_nodes, 2, m),
                                                         dtype=complex)).beta
        assert beta < 1.0, f"W={w_target}: element Womersley {beta:.2f}"
        config = SolverConfig(eps_nr=1e-5, eps_ls=1e-4, krylov_dim=200,
                              max_linear_iters=30_000, pseudo_dt=np.inf,
                              max_steps=30)
        result = solve_ns(case, mesh, config)
        assert result.converged

        exact = oscillatory_channel_exact(grad, rho, mu, b, n_modes, omega)

        def exact_ux(points, mode):
            vals = exact(points[:, 1] - b)
            keep = np.zeros_like(vals)
            keep[:, n_modes - 1 + mode] = vals[:, n_modes - 1 + mode]
            if mode:
                keep[:, n_modes - 1 - mode] = vals[:, n_modes - 1 - mode]
            return keep

        for mode in range(n_modes):
            num = result.state.velocity[:, 0, :].copy()
            keep = np.zeros_like(num)
            keep[:, n_modes - 1 + mode] = num[:, n_modes - 1 + mode]
            if mode:
                keep[:, n_modes - 1 - mode] = num[:, n_modes - 1 - mode]
            err = l2_error(keep, lambda p, mo=mode: exact_ux(p, mo), mesh)
            ref = l2_error(np.zeros_like(num), lambda p, mo=mode: exact_ux(p, mo), mesh)
            rel = err / ref
            assert rel <= 0.01, f"W={w_target} mode {mode}: {rel:.3%}"
            details.append(rel)
    record_acceptance("test_criterion_06_oscillatory_channel",
                      f"W in (1,5,10), per-mode L2 error <= {max(details):.3%}")


# ---------------------------------------------------------------------------
# 7. spectral versus time cross-validation on the bent channel
# ---------------------------------------------------------------------------

def pulsatile_waveform(n_samples=64):
    phases = [0.0, 1.2, -0.8, 0.5, 2.0, -1.4, 0.9, 0.3, -2.2]
    amps = [0.25, 0.12, 0.07, 0.05, 0.035, 0.045, 0.012, 0.006, 0.003]
    t = np.arange(n_samples) / n_samples
    q = np.ones(n_samples)
    for n, (a, ph) in enumerate(zip(amps, phases), start=1):
        q += 2 * a * np.cos(2 * np.pi * n * t + ph)
    return q


def test_criterion_07_spectral_vs_time_bent_channel(tmp_path):
    from tsfem.cli import mode_sweep

    q = pulsatile_waveform()
    case = {
        "physics": {"kind": "ns", "rho": 1.0, "mu": 0.1, "omega": 0.3,
                    "n_modes": 7, "backflow_beta": 0.2},
        "mesh": {"generator": "bent_channel", "extents": [4.0, 1.0, 1.0],
                 "resolution": [12, 4, 4], "bend_angle": 1.0471975511965976},
        "bcs": {
            "inlet": {"group": "xmin", "kind": "parabolic_inflow",
                      "flow_samples": [float(v) for v in q]},
            "walls": {"groups": ["ymin", "ymax", "zmin", "zmax"], "kind": "noslip"},
            "outlet": {"group": "xmax", "kind": "neumann", "h_modes": [[0.0, 0.0]]},
        },
        "solver": {"eps_nr": 1e-3, "eps_ls": 0.05, "pseudo_dt": "auto",
                   "max_steps": 250},
        "output": {},
    }
    study = {"case": case, "modes": [2, 4, 7],
             "reference": {"group": "xmax", "dt_per_cycle": 128, "n_cycles": 4,
                           "ramp_steps": 10, "n_fit": 16}}
    table = mode_sweep(study, tmp_path)
    assert table["cycle_change"][-1] < 0.005  # time reference cycle-converged
    rows = {r["n_modes"]: r for r in table["rows"]}
    for n, row in rows.items():
        assert row["converged"], f"N={n} did not converge"
        # the outlet-flow error tracks the boundary truncation error
        assert row["flow_error"] <= 2.0 * row["truncation"], row
        assert row["flow_error"] >= 0.5 * row["truncation"], row
    assert rows[7]["flow_error"] <= 0.03
    record_acceptance(
        "test_criterion_07_spectral_vs_time_bent_channel",
        "err/trunc: " + ", ".join(
            f"N={n}: {rows[n]['flow_error']:.3f}/{rows[n]['truncation']:.3f}"
            for n in (2, 4, 7)))


# ---------------------------------------------------------------------------
# 8. backflow stabilization
# ---------------------------------------------------------------------------

def _pulsatile_channel_case(mode1_shape, n_modes=2, beta=0.0, mu=0.05):
    m = n_coeffs(n_modes)

    def inflow(coords):
        y = coords[:, 1]
        parab = 4 * y * (1 - y)
        vals = np.zeros((coords.shape[0], 2, m), dtype=complex)
        vals[:, 0, n_modes - 1] = parab
        amp = mode1_shape(parab)
        vals[:, 0, n_modes] = amp
        vals[:, 0, n_modes - 2] = np.conj(amp)
        return vals

    return NSCase(rho=1.0, mu=mu, omega=1.0, n_modes=n_modes,
                  dirichlet={"xmin": inflow}, walls=["ymin", "ymax"],
                  neumann={"xmax": np.zeros(m, dtype=complex)},
                  backflow_beta=beta)


def test_criterion_08_backflow_stabilization():
    mesh = generate_rect_tri((0.25, 1.0), (2, 12))
    config = SolverConfig(eps_nr=1e-3, eps_ls=0.02, pseudo_dt=0.1, max_steps=300)

    # enforced reversal near the walls: the mode-1 profile decays much more
    # slowly than the parabolic mean, so A_n loses definiteness there while
    # the core of the outlet stays outflow-only
    case = _pulsatile_channel_case(lambda p: 0.5 * np.maximum(p, 0.0) ** 0.25,
                                   beta=1.0, mu=0.02)
    result = solve_ns(case, mesh, config)
    assert result.converged
    fg = mesh.facet_groups["xmax"]
    n_zero = 0
    n_active = 0
    for idx in range(fg.nodes.shape[0]):
        u_mean = result.state.velocity[fg.nodes[idx]].mean(axis=0)
        an = convolution_dense(u_mean[0], 2)  # outlet normal is +x
        eigs = np.linalg.eigvalsh(an)
        mat = backflow_surface_matrix(case, mesh, result.state, ("xmax", idx))
        if eigs[0] >= 0:
            n_zero += 1
            assert np.all(mat == 0.0)
        else:
            n_active += 1
            assert np.linalg.eigvalsh(mat)[0] < 0.0
    assert n_zero > 0 and n_active > 0  # both populations present

    # no reversal anywhere: the term stays exactly inactive
    mild = {}
    for beta in (0.0, 1.0):
        case = _pulsatile_channel_case(lambda p: 0.2 * p, beta=beta, mu=0.02)
        res = solve_ns(case, mesh, config)
        assert res.converged
        mild[beta] = res.state
    dv = np.max(np.abs(mild[0.0].velocity - mild[1.0].velocity))
    dp = np.max(np.abs(mild[0.0].pressure - mild[1.0].pressure))
    assert dv <= 1e-10 and dp <= 1e-10
    record_acceptance("test_criterion_08_backflow_stabilization",
                      f"{n_active} reversed / {n_zero} outflow-only facets; "
                      f"inactive-term drift {max(dv, dp):.1e}")


# ---------------------------------------------------------------------------
# 9. boundedness: plain Galerkin versus GLS
# ---------------------------------------------------------------------------

def test_criterion_09_gal_vs_gls_boundedness():
    from tsfem.spectral import evaluate_field_in_time

    n_modes, omega, kappa = 3, 1.0, 0.002
    m = n_coeffs(n_modes)
    mesh = generate_interval(1.0, 40)
    u_pos = np.array([0.6, 0.15, 0.0])
    vel = np.tile(SpectralCoeffs.from_positive_modes(u_pos).values[None, None, :],
                  (mesh.n_nodes, 1, 1))
    inlet = np.zeros(m, dtype=complex)
    inlet[n_modes - 1] = 1.0
    kwargs = dict(kappa=kappa, omega=omega, n_modes=n_modes, velocity=vel,
                  dirichlet={"left": inlet, "right": np.zeros(m, complex)})
    sols = {}
    for label, flag in (("gls", False), ("gal", True)):
        case = ScalarCase(**kwargs, galerkin_only=flag)
        sols[label] = solve_scalar(case, mesh, TIGHT)

    times = 2 * np.pi / omega * np.arange(64) / 64
    ranges = {}
    for label, sol in sols.items():
        recon = np.stack([evaluate_field_in_time(sol, t, omega) for t in times])
        ranges[label] = (recon.min(), recon.max())
    lo, hi = ranges["gls"]
    assert -0.05 <= lo and hi <= 1.05, f"GLS left bounds: [{lo:.3f}, {hi:.3f}]"
    lo_g, hi_g = ranges["gal"]
    assert lo_g < -0.05 or hi_g > 1.05, f"Galerkin stayed in bounds: [{lo_g:.3f}, {hi_g:.3f}]"
    record_acceptance("test_criterion_09_gal_vs_gls_boundedness",
                      f"GLS range [{lo:.3f}, {hi:.3f}], GAL range [{lo_g:.3f}, {hi_g:.3f}]")


# ---------------------------------------------------------------------------
# 10. optimization equivalences
# ---------------------------------------------------------------------------

def test_criterion_10_optimization_equivalences():
    from test_linsolve import (
        dense_tangent_oracle,
        random_tangent,
        real_system,
        small_block_system,
    )
    from tsfem.linsolve import (
        gmres,
        layout_pins,
        level_lu_preconditioner,
        pinned_operator,
    )

    # (a) structured matvec == dense matvec on randomized fixtures
    for n_nodes, dim, n_modes in [(2, 3, 1), (3, 2, 2), (4, 3, 4), (4, 1, 3)]:
        tg = random_tangent(n_nodes, dim, n_modes, rng=RNG)
        dense = dense_tangent_oracle(tg)
        x = RNG.standard_normal(tg.n_dof)
        ref = dense @ x
        assert np.linalg.norm(tg.matvec(x) - ref) <= 1e-12 * np.linalg.norm(ref)

    # (b) real-mapped solve == complex dense solve
    sys_c, rhs = small_block_system(4, 3, rng=RNG, diag_boost=8.0)
    x_complex = np.linalg.solve(sys_c.to_dense(), rhs.ravel()).reshape(4, -1)
    real_sys, real_rhs = real_system(sys_c, rhs)
    pins = layout_pins(4, 3, np.array([], dtype=int))   # no Dirichlet node: nothing pinned
    real_rhs[pins] = 0.0
    res = gmres(pinned_operator(real_sys.matvec, pins), real_rhs,
                SolverConfig(krylov_dim=60, eps_ls=1e-13, max_linear_iters=2000),
                precond=level_lu_preconditioner(real_sys, pins))
    assert res.converged
    x_back = modes_from_real(res.x.reshape(4, -1))
    assert np.max(np.abs(x_back - x_complex)) <= 1e-10

    # (c) pseudo-time path independence of the converged state
    mesh = generate_rect_tri((1.0, 1.0), (4, 4))
    m = n_coeffs(1)

    def inflow(coords):
        vals = np.zeros((coords.shape[0], 2, m), dtype=complex)
        y = coords[:, 1]
        vals[:, 0, 0] = 4 * y * (1 - y)
        return vals

    case = NSCase(rho=1.0, mu=0.2, omega=0.0, n_modes=1,
                  dirichlet={"xmin": inflow}, walls=["ymin", "ymax"],
                  neumann={"xmax": np.zeros(m, complex)})
    eps_nr = 1e-6
    states = []
    for dt in (0.5, 5.0):
        config = SolverConfig(eps_nr=eps_nr, eps_ls=0.02, pseudo_dt=dt,
                              max_steps=300)
        result = solve_ns(case, mesh, config)
        assert result.converged
        states.append(result.state)
    diff = np.linalg.norm(states[0].velocity - states[1].velocity)
    scale = np.linalg.norm(states[0].velocity)
    assert diff <= 10 * eps_nr * scale

    # (d) frozen-coefficient tangent == finite differences
    mesh2 = generate_rect_tri((1.0, 0.8), (3, 2))
    case2 = NSCase(rho=1.1, mu=0.15, omega=1.3, n_modes=2,
                   dirichlet={"xmin": inflow2_factory(n_coeffs(2))},
                   walls=["ymin", "ymax"],
                   neumann={"xmax": np.zeros(n_coeffs(2), complex)},
                   backflow_beta=0.4)
    z0 = RNG.standard_normal((mesh2.n_nodes, 3, 3))
    base_full = modes_from_real(z0)
    base = NSState(0.4 * base_full[:, :2, :].copy(), 0.4 * base_full[:, 2, :].copy())
    tg = assemble_ns_tangent(case2, mesh2, base, exact_gd=True)
    worst = 0.0
    for _ in range(3):
        z = RNG.standard_normal(tg.n_dof)
        d = modes_from_real(z.reshape(mesh2.n_nodes, 3, -1))
        pert = base.copy()
        eps = 1e-5
        pert.velocity += eps * d[:, :2, :]
        pert.pressure += eps * d[:, 2, :]
        r0 = assemble_ns_residual(case2, mesh2, base, coeff_state=base)
        r1 = assemble_ns_residual(case2, mesh2, pert, coeff_state=base)
        fd = modes_to_real((r1 - r0) / eps).ravel()
        hv = tg.matvec(z)
        rel = np.linalg.norm(fd - hv) / np.linalg.norm(fd)
        worst = max(worst, rel)
        assert rel <= 1e-6
    record_acceptance("test_criterion_10_optimization_equivalences",
                      f"matvec/real-map/pseudo-dt/tangent checks pass "
                      f"(fd defect <= {worst:.1e})")


def inflow2_factory(m):
    def inflow(coords):
        vals = np.zeros((coords.shape[0], 2, m), dtype=complex)
        y = coords[:, 1]
        vals[:, 0, (m - 1) // 2] = 4 * y * (0.8 - y) / 0.64
        return vals

    return inflow
