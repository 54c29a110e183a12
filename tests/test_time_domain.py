import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import tsfem.linsolve as linsolve
import tsfem.time_domain as time_domain
from tsfem.boundary import DirichletNodes
from tsfem.cli import _time_reference_case
from tsfem.config import build_mesh, config_from_mapping
from tsfem.linsolve import SolverConfig, build_graph
from tsfem.mesh import (
    c_i_for,
    facet_quadrature,
    generate_bent_channel_tet,
    generate_box_tet,
    generate_rect_tri,
    quadrature_rule,
    shape_values,
)
from tsfem.navier_stokes import NSCase, solve_ns
from tsfem.spectral import tau_from_modes
from tsfem.time_domain import (
    _time_residual,
    _time_tangent,
    DivergedStepError,
    LaggedFactor,
    TimeCase,
    TimeState,
    generalized_alpha_step,
    omega_hat,
    run_time_simulation,
    time_tau,
)
from tsfem.verification import oscillatory_channel_exact

RNG = np.random.default_rng(7321)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestGenAlphaConfig:
    def test_parameters(self):
        assert time_domain.RHO_INF == 0.2
        assert time_domain.ALPHA_M == pytest.approx(0.5 * 2.8 / 1.2)
        assert time_domain.ALPHA_F == pytest.approx(1 / 1.2)
        assert time_domain.GAMMA == pytest.approx(0.5 + time_domain.ALPHA_M - time_domain.ALPHA_F)


class TestTimeTau:
    def test_steady_matches_spectral_tau(self):
        u = np.array([0.7, -0.3])
        g = np.array([[3.0, 0.4], [0.4, 2.0]])
        nu, c_i = 0.05, 3.0
        got = time_tau(u, 0.0, g, nu, c_i)
        ref = tau_from_modes(u[None, :, None], g[None], nu, c_i, 1)[0, 0, 0].real
        assert got == pytest.approx(ref, rel=1e-13)

    def test_zero_velocity_zero_frequency(self):
        g = np.array([[2.0, 0.0], [0.0, 5.0]])
        nu, c_i = 0.1, 3.0
        got = time_tau(np.zeros(2), 0.0, g, nu, c_i)
        assert got == pytest.approx(1.0 / (np.sqrt(c_i) * nu * np.sqrt(np.sum(g * g))))

    def test_random_formula(self):
        for _ in range(10):
            u = RNG.standard_normal(3)
            a = RNG.standard_normal((3, 3))
            g = a @ a.T + np.eye(3)
            what, nu, c_i = RNG.uniform(0, 2), RNG.uniform(0.01, 1), 3.0
            got = time_tau(u, what, g, nu, c_i)
            ref = (what**2 + u @ g @ u + c_i * nu**2 * np.sum(g * g)) ** -0.5
            assert got == pytest.approx(ref, rel=1e-13)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="vanished"):
            time_tau(np.zeros(2), 0.0, np.eye(2), 0.0, 3.0)

    def test_per_element_metric_matches_broadcast(self):
        # a metric (E, dim, dim) with points (E, Q, dim), with or without its G:G
        u = RNG.standard_normal((5, 4, 3))
        a = RNG.standard_normal((5, 3, 3))
        g = a @ a.transpose(0, 2, 1) + np.eye(3)
        ref = time_tau(u, 0.4, g[:, None], 0.2, 3.0)
        assert ref.shape == (5, 4)
        np.testing.assert_allclose(time_tau(u, 0.4, g, 0.2, 3.0), ref, rtol=1e-13)
        gg = np.einsum("eij,eij->e", g, g)[:, None]
        np.testing.assert_allclose(time_tau(u, 0.4, g, 0.2, 3.0, gg), ref, rtol=1e-13)


class TestOmegaHat:
    def test_steady_state_zero(self):
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        u = RNG.standard_normal((mesh.n_nodes, 2))
        assert omega_hat(u, np.zeros_like(u), mesh) == 0.0

    def test_zero_velocity_convention(self):
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        a = RNG.standard_normal((mesh.n_nodes, 2))
        assert omega_hat(np.zeros_like(a), a, mesh) == 0.0

    def test_harmonic_field_phase(self):
        # u = cos(wt) U(x): at wt = pi/4 the norm ratio equals w
        mesh = generate_rect_tri((1.0, 1.0), (4, 4))
        shape = np.column_stack([np.sin(np.pi * mesh.coords[:, 0]),
                                 mesh.coords[:, 1] ** 2])
        w = 3.7
        c = np.cos(np.pi / 4)
        s = np.sin(np.pi / 4)
        assert omega_hat(c * shape, -w * s * shape, mesh) == pytest.approx(w, rel=1e-12)

    def test_scale_invariance(self):
        mesh = generate_rect_tri((1.0, 1.0), (4, 4))
        u = RNG.standard_normal((mesh.n_nodes, 2))
        a = RNG.standard_normal((mesh.n_nodes, 2))
        w1 = omega_hat(u, a, mesh)
        w2 = omega_hat(2 * u, 2 * a, mesh)
        assert w1 == pytest.approx(w2, rel=1e-13)


    @pytest.mark.parametrize("mesh_kind", ["tri", "bent"])
    def test_matches_quadrature_point_loop(self, mesh_kind):
        mesh = (generate_rect_tri((1.0, 1.0), (4, 5)) if mesh_kind == "tri" else
                generate_bent_channel_tet(3.0, 1.0, 1.0, (6, 2, 2), bend_angle=1.0))
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = rng.standard_normal((mesh.n_nodes, mesh.dim))
            a = rng.standard_normal((mesh.n_nodes, mesh.dim)) * rng.uniform(0.1, 10.0)
            ref = omega_hat_loop_oracle(u, a, mesh)
            assert omega_hat(u, a, mesh) == pytest.approx(ref, rel=1e-12)


def omega_hat_loop_oracle(velocity, accel, mesh):
    """omega_hat as a loop over quadrature points (its earlier implementation)."""
    rule = quadrature_rule(mesh.elem_type)
    shp = shape_values(mesh.elem_type, rule.points)
    ed = mesh.element_data()
    u_el = np.asarray(velocity)[mesh.elements]
    a_el = np.asarray(accel)[mesh.elements]
    nrm_u = 0.0
    nrm_a = 0.0
    for q in range(rule.n_points):
        w = rule.weights[q] * ed.detj
        uq = np.einsum("a,eai->ei", shp[q], u_el)
        aq = np.einsum("a,eai->ei", shp[q], a_el)
        nrm_u += np.einsum("e,ei,ei->", w, uq, uq)
        nrm_a += np.einsum("e,ei,ei->", w, aq, aq)
    if nrm_u == 0.0:
        return 0.0
    return float(np.sqrt(nrm_a / nrm_u))


def channel_time_case(mesh, mu=0.2, u_max=1.0, period=1.0, n_cycles=2, dt=0.1,
                      modulation=None):
    height = 1.0

    def inflow(coords, t):
        amp = u_max if modulation is None else u_max * modulation(t)
        vals = np.zeros((coords.shape[0], 2))
        y = coords[:, 1]
        vals[:, 0] = amp * 4 * y * (height - y) / height**2
        return vals

    return TimeCase(rho=1.0, mu=mu, period=period, n_cycles=n_cycles, dt=dt,
                    dirichlet={"xmin": inflow}, walls=["ymin", "ymax"],
                    neumann={"xmax": lambda t: 0.0})


class TestGeneralizedAlphaStep:
    def test_zero_forcing_stays_zero(self):
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        case = channel_time_case(mesh, u_max=0.0)
        state = TimeState.zeros(mesh.n_nodes, 2)
        new, ok, iters, *_ = generalized_alpha_step(case, mesh, state)
        assert ok
        assert np.max(np.abs(new.velocity)) == 0.0
        assert np.max(np.abs(new.pressure)) == 0.0

    def test_temporal_order_richardson(self, monkeypatch):
        monkeypatch.setattr(time_domain, "MAX_NEWTON", 20)
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        t_end = 0.4
        probes = []
        config = SolverConfig(eps_nr=1e-11, eps_ls=1e-11, max_steps=50)
        for dt in (0.1, 0.05, 0.025):
            case = channel_time_case(mesh, mu=1.0, u_max=1.0, dt=dt,
                                     modulation=lambda t: np.sin(np.pi * t / 0.8) ** 2)
            state = TimeState.zeros(mesh.n_nodes, 2)
            for _ in range(int(round(t_end / dt))):
                state, ok, *_ = generalized_alpha_step(case, mesh, state, config)
                assert ok
            probes.append(np.linalg.norm(state.velocity))
        order = np.log2(abs(probes[0] - probes[1]) / abs(probes[1] - probes[2]))
        assert order >= 1.9

    def test_steady_inflow_reaches_steady_supg_solution(self, monkeypatch):
        monkeypatch.setattr(time_domain, "MAX_NEWTON", 20)
        mesh = generate_rect_tri((1.0, 1.0), (4, 6))
        mu = 0.3
        case = channel_time_case(mesh, mu=mu, u_max=1.0, period=10.0,
                                 n_cycles=2, dt=0.5)
        config = SolverConfig(eps_nr=1e-8, eps_ls=1e-8, max_steps=50)
        state = TimeState.zeros(mesh.n_nodes, 2)
        for step in range(40):
            scale = min(1.0, (step + 1) / 5)
            state, ok, *_ = generalized_alpha_step(case, mesh, state, config,
                                                  dirichlet_scale=scale)
            assert ok, f"step {step} unconverged"
        # spectral steady solve of the same discrete problem
        def inflow_modes(coords):
            vals = np.zeros((coords.shape[0], 2, 1), dtype=complex)
            y = coords[:, 1]
            vals[:, 0, 0] = 4 * y * (1 - y)
            return vals

        ns_case = NSCase(rho=1.0, mu=mu, omega=0.0, n_modes=1,
                         dirichlet={"xmin": inflow_modes}, walls=["ymin", "ymax"],
                         neumann={"xmax": np.zeros(1, dtype=complex)})
        ns = solve_ns(ns_case, mesh, SolverConfig(eps_nr=1e-8, eps_ls=1e-8,
                                                  pseudo_dt=np.inf, max_steps=30))
        assert ns.converged
        ref = ns.state.velocity[:, :, 0].real
        err = np.max(np.abs(state.velocity - ref)) / np.max(np.abs(ref))
        assert err < 1e-4


class TestRunTimeSimulation:
    def test_cycle_convergence_monotone(self):
        mesh = generate_rect_tri((1.0, 1.0), (4, 6))
        case = channel_time_case(
            mesh, mu=0.3, u_max=1.0, period=1.0, n_cycles=3, dt=0.05,
            modulation=lambda t: 1.0 + 0.4 * np.sin(2 * np.pi * t))
        res = run_time_simulation(case, mesh, report_groups=["xmax"])
        assert res.newton_failures == 0
        assert len(res.cycle_change) == 2
        assert res.cycle_change[1] < res.cycle_change[0]

    def test_negative_ramp_rejected(self):
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        case = channel_time_case(mesh, mu=0.5, u_max=1.0, period=1.0, n_cycles=2, dt=0.5)
        with pytest.raises(ValueError, match="ramp_steps must be >= 0"):
            run_time_simulation(case, mesh, ramp_steps=-4)

    def test_steady_trace_constant_after_transient(self):
        mesh = generate_rect_tri((1.0, 1.0), (3, 4))
        case = channel_time_case(mesh, mu=0.5, u_max=1.0, period=1.0,
                                 n_cycles=3, dt=0.1)
        res = run_time_simulation(case, mesh, report_groups=["xmax"])
        last = res.flow["xmax"][-10:]
        assert np.max(np.abs(last - last[-1])) <= 1e-3 * abs(last[-1])

    def test_step_boundary_data_matches_data_formed_in_every_residual(self, monkeypatch):
        # a step forms its Neumann traction once for its Newton loop, and a run resolves
        # its Dirichlet node set once: the states match a run that adds a nonzero,
        # time-varying traction inside every residual and resolves the nodes at every step
        mesh = generate_rect_tri((1.0, 1.0), (4, 6))
        case = channel_time_case(mesh, mu=0.3, n_cycles=2, dt=0.05,
                                 modulation=lambda t: 1.0 + 0.4 * np.sin(2 * np.pi * t))
        case.neumann = {"xmax": lambda t: 0.2 + 0.3 * np.cos(2 * np.pi * t)}
        formed_once = run_time_simulation(case, mesh, report_groups=["xmax"])

        residual, resolve = time_domain._time_residual, time_domain.DirichletNodes.of
        times, resolved = [], []

        def traction_in_every_residual(case, mesh, u_af, udot_am, pres, t_af, tractions=None):
            resid, fields = residual(case, mesh, u_af, udot_am, pres, t_af, [])
            for name, data in case.neumann.items():
                fq = facet_quadrature(mesh, name)
                resid[fq.node_ids, :mesh.dim] -= np.multiply.outer(fq.node_normals,
                                                                   float(data(t_af)))
            times.append(t_af)
            return resid, fields

        def resolve_at_every_step(*args):
            resolved.append(1)
            return resolve(*args)

        monkeypatch.setattr(time_domain, "_time_residual", traction_in_every_residual)
        monkeypatch.setattr(time_domain.DirichletNodes, "of", resolve_at_every_step)
        in_every = run_time_simulation(case, mesh, report_groups=["xmax"])
        assert len(resolved) == 1 and len(times) > len(set(times)) > 1
        steps = zip(formed_once.last_cycle_states, in_every.last_cycle_states)
        for ours, ref in steps:
            for name in ("velocity", "accel", "pressure"):
                np.testing.assert_array_equal(getattr(ours, name), getattr(ref, name))
        np.testing.assert_array_equal(formed_once.flow["xmax"], in_every.flow["xmax"])
        assert formed_once.newton_iters == in_every.newton_iters

    def test_oscillatory_channel_matches_analytic(self):
        # pressure-driven pulsatile channel versus the closed-form modes
        rho, mu, b = 1.0, 0.05, 0.5
        w_num = 2.0  # Womersley number b sqrt(rho w / mu)
        omega = w_num**2 * mu / (rho * b**2)
        period = 2 * np.pi / omega
        g0, g1 = -0.4, 0.25 - 0.15j
        length = 0.4
        mesh = generate_rect_tri((length, 2 * b), (3, 24))

        def h_in(t):
            # h = -p at the inlet; dp/dx = (p_out - p_in)/L with p_out = 0
            grad = g0 + 2 * (g1 * np.exp(1j * omega * t)).real
            return length * grad

        case = TimeCase(rho=rho, mu=mu, period=period, n_cycles=4, dt=period / 80,
                        dirichlet={}, walls=["ymin", "ymax"],
                        neumann={"xmin": h_in, "xmax": lambda t: 0.0})
        res = run_time_simulation(case, mesh, report_groups=["xmax"])
        assert res.cycle_change[-1] < 0.01

        modes = oscillatory_channel_exact([g0, g1], rho, mu, b, 2, omega)
        y = np.linspace(-b, b, 401)
        prof = modes(y)
        q_modes = np.trapezoid(prof, y, axis=0)
        t = res.last_cycle_times
        n = np.arange(-1, 2)
        q_exact = (np.exp(1j * omega * np.outer(t, n)) @ q_modes).real
        q_num = res.flow["xmax"][-len(t):]
        err = np.linalg.norm(q_num - q_exact) / np.linalg.norm(q_exact)
        assert err < 0.02


def per_point_assemble_time(case, mesh, u_af, udot_am, pres, t_af, what, alpha_m, fac):
    """Literal per-quadrature-point np.add.at assembly of a time step.

    The oracle for _time_residual and _time_tangent.  Returns the
    residual, the graph, the local tangent blocks and dR/d(omega_hat^2).
    """
    dim = mesh.dim
    rho, mu, nu = case.rho, case.mu, case.nu
    c_i = c_i_for(mesh.elem_type, case.c_i)
    ed = mesh.element_data()
    rule = quadrature_rule(mesh.elem_type)
    shp = shape_values(mesh.elem_type, rule.points)
    rows, cols, edge_of = build_graph(mesh.elements, mesh.n_nodes)
    resid = np.zeros((mesh.n_nodes, dim + 1))
    dr_dw2 = np.zeros((mesh.n_nodes, dim + 1))
    blocks = np.zeros((rows.shape[0], dim + 1, dim + 1))
    elems, grads, detj, metric = mesh.elements, ed.grads, ed.detj, ed.metric
    u_el, a_el, p_el = u_af[elems], udot_am[elems], pres[elems]
    grad_u = np.einsum("eaj,eai->eji", grads, u_el)
    grad_p = np.einsum("eaj,ea->ej", grads, p_el)
    div_u = np.einsum("eii->e", grad_u)
    gab = np.einsum("eai,ebi->eab", grads, grads)
    for q in range(rule.n_points):
        w = rule.weights[q] * detj
        uq = np.einsum("a,eai->ei", shp[q], u_el)
        aq = np.einsum("a,eai->ei", shp[q], a_el)
        pq = np.einsum("a,ea->e", shp[q], p_el)
        tau = time_tau(uq, what, metric, nu, c_i)
        adv = np.einsum("ej,eaj->ea", uq, grads)
        conv = np.einsum("ej,eji->ei", uq, grad_u)
        strong = rho * (aq + conv) + grad_p
        r_m = (rho * np.einsum("a,ei->eai", shp[q], aq + conv)
               - np.einsum("eai,e->eai", grads, pq)
               + mu * np.einsum("eaj,eji->eai", grads, grad_u)
               + np.einsum("ea,e,ei->eai", adv, tau, strong))
        r_c = (np.einsum("a,e->ea", shp[q], div_u)
               + np.einsum("eai,e,ei->ea", grads, tau, strong) / rho)
        contrib = np.concatenate([r_m, r_c[:, :, None]], axis=2) * w[:, None, None]
        np.add.at(resid, elems.ravel(), contrib.reshape(-1, dim + 1))

        # d tau / d(omega_hat^2) = -tau^3 / 2 in the least-squares terms
        dr_m = np.einsum("ea,e,ei->eai", adv, -0.5 * tau**3, strong)
        dr_c = np.einsum("eai,e,ei->ea", grads, -0.5 * tau**3, strong) / rho
        contrib = np.concatenate([dr_m, dr_c[:, :, None]], axis=2) * w[:, None, None]
        np.add.at(dr_dw2, elems.ravel(), contrib.reshape(-1, dim + 1))

        nn = np.outer(shp[q], shp[q])
        k_scal = (rho * alpha_m * nn[None]
                  + fac * (rho * np.einsum("a,eb->eab", shp[q], adv) + mu * gab)
                  + rho * np.einsum("ea,e,eb->eab", adv, tau,
                                    alpha_m * shp[q][None, :] + fac * adv))
        g_blk = (-np.einsum("eai,b->eabi", grads, shp[q])
                 + np.einsum("ea,e,ebi->eabi", adv, tau, grads))
        d_blk = (fac * np.einsum("a,ebj->eabj", shp[q], grads)
                 + np.einsum("eaj,e,eb->eabj", grads, tau,
                             alpha_m * shp[q][None, :] + fac * adv))
        # velocity-velocity coupling of directions i (row) and k (column)
        gu = np.einsum("eij,ej->ei", metric, uq)
        test = shp[q][None, :] + tau[:, None] * adv
        v_blk = fac * (rho * np.einsum("ea,b,eki->eabik", test, shp[q], grad_u)
                       + np.einsum("e,b,ei,eak->eabik", tau, shp[q], strong, grads)
                       - np.einsum("e,ek,b,ea,ei->eabik", tau**3, gu, shp[q], adv,
                                   strong))
        d_blk += fac * (np.einsum("e,b,eai,eki->eabk", tau, shp[q], grads, grad_u)
                        - np.einsum("e,ek,b,eai,ei->eabk", tau**3, gu, shp[q], grads,
                                    strong) / rho)
        blk = np.zeros(k_scal.shape + (dim + 1, dim + 1))
        blk[..., :dim, :dim] = v_blk
        for i in range(dim):
            blk[..., i, i] += k_scal
            blk[..., i, dim] = g_blk[..., i]
            blk[..., dim, i] = d_blk[..., i]
        blk[..., dim, dim] = np.einsum("eab,e->eab", gab, tau) / rho
        np.add.at(blocks, edge_of.ravel(),
                  (blk * w[:, None, None, None, None]).reshape(-1, dim + 1, dim + 1))

    for name, data in case.neumann.items():
        h_val = float(data(t_af))
        fq = facet_quadrature(mesh, name)
        for q in range(fq.shape.shape[0]):
            r_el = -h_val * np.einsum("f,a,fi->fai", fq.weights[:, q], fq.shape[q],
                                      fq.normals)
            np.add.at(resid[:, :dim], fq.nodes.ravel(), r_el.reshape(-1, dim))
    return resid, rows, cols, blocks, dr_dw2


MESHES = {
    "tri": lambda: generate_rect_tri((1.0, 1.0), (4, 5)),
    "bent": lambda: generate_bent_channel_tet(3.0, 1.0, 1.0, (6, 2, 2), bend_angle=1.0),
}


class TestAssembly:
    @staticmethod
    def _compare(mesh):
        rng = np.random.default_rng(2024)
        n, dim = mesh.n_nodes, mesh.dim
        state = (rng.standard_normal((n, dim)), rng.standard_normal((n, dim)),
                 rng.standard_normal(n))
        case = TimeCase(rho=1.3, mu=0.07, period=1.0, n_cycles=2, dt=0.05,
                        neumann={"xmax": lambda t: 0.3 + t, "xmin": lambda t: -0.8})
        resid, fields = _time_residual(case, mesh, *state, 0.2)
        assert fields.what == omega_hat(state[0], state[1], mesh)
        tangent = _time_tangent(case, mesh, fields, state[0], state[1], alpha_m=0.9, fac=0.03)
        ref_resid, rows, cols, ref_blocks, ref_dr = per_point_assemble_time(
            case, mesh, *state, 0.2, fields.what, alpha_m=0.9, fac=0.03)
        local = tangent.local
        np.testing.assert_array_equal(local.rows, rows)
        np.testing.assert_array_equal(local.cols, cols)
        assert np.max(np.abs(resid - ref_resid)) <= 1e-12 * np.max(np.abs(ref_resid))
        assert np.max(np.abs(local.blocks - ref_blocks)) <= 1e-12 * np.max(np.abs(ref_blocks))
        assert np.max(np.abs(tangent.dr_dw2 - ref_dr)) <= 1e-12 * np.max(np.abs(ref_dr))

    @pytest.mark.parametrize("kind", sorted(MESHES))
    def test_matches_per_point_reference(self, kind):
        self._compare(MESHES[kind]())


PROPERTY_MESHES = {
    "tri": generate_rect_tri((1.3, 0.7), (3, 2)),
    "tet": generate_box_tet((1.0, 0.8, 0.6), (2, 1, 1)),
}


class TestAssemblyProperty:
    """TestAssembly over random states, material and step constants and Neumann data."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(PROPERTY_MESHES)), seed=st.integers(0, 2**32 - 1),
           rho=st.floats(0.2, 5.0), mu=st.floats(1e-3, 2.0), u_scale=st.floats(0.05, 5.0),
           alpha_m=st.floats(0.5, 1.5), fac=st.floats(1e-3, 0.5),
           h_in=st.floats(-2.0, 2.0), h_out=st.floats(-2.0, 2.0), t_af=st.floats(0.0, 1.0))
    def test_matches_per_point_reference(self, kind, seed, rho, mu, u_scale, alpha_m, fac,
                                         h_in, h_out, t_af):
        mesh = PROPERTY_MESHES[kind]
        rng = np.random.default_rng(seed)
        n, dim = mesh.n_nodes, mesh.dim
        state = (u_scale * rng.standard_normal((n, dim)), rng.standard_normal((n, dim)),
                 rng.standard_normal(n))
        case = TimeCase(rho=rho, mu=mu, period=1.0, n_cycles=2, dt=0.05,
                        neumann={"xmax": lambda t: h_out * (1.0 + t), "xmin": lambda t: h_in})
        resid, fields = _time_residual(case, mesh, *state, t_af)
        tangent = _time_tangent(case, mesh, fields, state[0], state[1], alpha_m=alpha_m,
                                fac=fac)
        ref_resid, _, _, ref_blocks, ref_dr = per_point_assemble_time(
            case, mesh, *state, t_af, fields.what, alpha_m=alpha_m, fac=fac)
        for got, ref in ((resid, ref_resid), (tangent.local.blocks, ref_blocks),
                         (tangent.dr_dw2, ref_dr)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestMeshCaches:
    """Step-invariant data is kept on each mesh, so meshes built in turn with the same
    group names each get their own, also where a new mesh reuses a freed one's id."""

    @staticmethod
    def _check(resolution, rng):
        case = TimeCase(rho=1.0, mu=0.1, period=1.0, n_cycles=2, dt=0.1,
                        dirichlet={"xmin": lambda x, t: x + t}, walls=["ymin", "ymax"],
                        neumann={"xmax": lambda t: 0.7})
        mesh = generate_rect_tri((1.0, 1.0), resolution)
        groups = [mesh.facet_groups[g].nodes for g in ("xmin", "ymin", "ymax")]
        dirichlet = DirichletNodes.of(mesh, case.dirichlet, case.walls)
        nodes = dirichlet.ids
        vals = dirichlet.values(mesh, case.dirichlet, (2,), 0.2, dtype=float)
        np.testing.assert_array_equal(nodes,
                                      np.unique(np.concatenate([g.ravel() for g in groups])))
        assert vals.shape == (nodes.size, 2)

        ed = mesh.element_data()
        n_q = ed.basis.shape[0]
        assert ed.point_grad.shape == (mesh.n_elements, n_q + 2, 3)
        np.testing.assert_array_equal(ed.point_grad[:, n_q:], ed.grads.transpose(0, 2, 1))
        np.testing.assert_array_equal(ed.weight_grad[:, :, :n_q],
                                      ed.wdetj[:, None, :] * ed.basis.T)

        # the residual, with its Neumann traction, is this mesh's
        n = mesh.n_nodes
        state = (rng.standard_normal((n, 2)), rng.standard_normal((n, 2)), rng.standard_normal(n))
        resid, fields = _time_residual(case, mesh, *state, 0.3)
        ref = per_point_assemble_time(case, mesh, *state, 0.3, fields.what,
                                      alpha_m=0.9, fac=0.03)[0]
        assert np.max(np.abs(resid - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert mesh.element_data() is ed
        return [weakref.ref(ed.point_grad),
                weakref.ref(facet_quadrature(mesh, "xmin").node_ids)]

    def test_meshes_in_turn_get_their_own_data(self):
        # each mesh is freed before the next is built, so CPython may hand out its id again
        rng = np.random.default_rng(3)
        for resolution in [(2, 2), (3, 5), (5, 3), (4, 1)] * 3:
            cached = self._check(resolution, rng)
            # nothing outside the freed mesh holds its data: no id-keyed cache survives it
            gc.collect()
            assert all(ref() is None for ref in cached)


class TestNewtonOperator:
    """The step's Newton operator against central differences of its residual.

    The residual is a function of the acceleration a and the pressure p:
    u_af = u0 + fac a and udot_am = a0 + alpha_m a, with omega_hat
    recomputed from them, as generalized_alpha_step does.
    """

    @staticmethod
    def _defect(mesh, mu, u_scale):
        rng = np.random.default_rng(11)
        n, dim = mesh.n_nodes, mesh.dim
        u0 = u_scale * rng.standard_normal((n, dim))
        a0 = rng.standard_normal((n, dim))
        case = TimeCase(rho=1.3, mu=mu, period=1.0, n_cycles=2, dt=0.05,
                        neumann={"xmax": lambda t: 0.3 + t})
        alpha_m, fac = 0.9, 0.03

        def assemble(x):
            a = x[:, :dim]
            u_af, udot_am = u0 + fac * a, a0 + alpha_m * a
            resid, fields = _time_residual(case, mesh, u_af, udot_am, x[:, dim], 0.1)
            return resid, _time_tangent(case, mesh, fields, u_af, udot_am,
                                        alpha_m=alpha_m, fac=fac)

        x = rng.standard_normal((n, dim + 1))
        v = rng.standard_normal((n, dim + 1))
        h = 1e-5
        fd = (assemble(x + h * v)[0] - assemble(x - h * v)[0]) / (2 * h)
        jv = assemble(x)[1].matvec(v.ravel()).reshape(n, dim + 1)
        return np.linalg.norm(jv - fd) / np.linalg.norm(fd)

    @pytest.mark.parametrize("kind", sorted(MESHES))
    def test_matches_central_differences(self, kind):
        assert self._defect(MESHES[kind](), mu=0.07, u_scale=1.0) <= 1e-6

    def test_matches_central_differences_diffusive_tau(self):
        # tau argument dominated by C_I nu^2 G:G
        assert self._defect(MESHES["tri"](), mu=100.0, u_scale=0.01) <= 1e-8


def bent_reference_run(dt_per_cycle):
    """The bundled spectral-versus-time study's reference on the 6x2x2 bent channel."""
    study = yaml.safe_load((CONFIG_DIR / "mode_sweep_bent.yaml").read_text())["study"]
    study["case"]["mesh"]["resolution"] = [6, 2, 2]
    ref = dict(study["reference"], dt_per_cycle=dt_per_cycle)
    config = config_from_mapping(study["case"])
    mesh = build_mesh(config.mesh)
    case, _ = _time_reference_case(config, ref, mesh)
    res = run_time_simulation(case, mesh, SolverConfig(eps_nr=1e-3), report_groups=["xmax"],
                              ramp_steps=ref["ramp_steps"])
    assert res.newton_failures == 0
    assert len(res.newton_iters) == dt_per_cycle * ref["n_cycles"]
    # every iteration but a converged last one makes an update
    assert sum(res.linear_solves) == sum(res.newton_iters) - len(res.newton_iters)
    return res


class TestNewtonConvergence:
    """The bundled study's reference at half its time steps converges fast."""

    def test_bent_channel_thirty_steps_per_cycle(self, monkeypatch):
        # exact Newton steps, a tangent factored at every update
        monkeypatch.setattr(time_domain, "REFACTOR_CONTRACTION", None)
        res = bent_reference_run(30)
        assert max(res.newton_iters) <= 5
        assert np.mean(res.newton_iters) <= 3.5
        assert res.factorizations == res.linear_solves

    def test_bent_channel_chord_steps(self):
        # the default chord steps: more iterations, far fewer factors
        res = bent_reference_run(30)
        assert max(res.newton_iters) <= 8
        assert sum(res.factorizations) <= 0.15 * sum(res.linear_solves)


def random_tangent(mesh, seed=5):
    """Newton operator of a step at a random nonzero state, and random velocity pins."""
    rng = np.random.default_rng(seed)
    n, dim = mesh.n_nodes, mesh.dim
    u_af, udot_am = rng.standard_normal((n, dim)), rng.standard_normal((n, dim))
    case = TimeCase(rho=1.3, mu=0.07, period=1.0, n_cycles=2, dt=0.05)
    _, fields = _time_residual(case, mesh, u_af, udot_am, rng.standard_normal(n), 0.1)
    tangent = _time_tangent(case, mesh, fields, u_af, udot_am, alpha_m=0.9, fac=0.03)
    dir_nodes = rng.choice(n, n // 4, replace=False)
    return tangent, linsolve.layout_pins(n, 1, dir_nodes, dim + 1, dim)


class TestLaggedFactor:
    @pytest.mark.parametrize("kind", sorted(MESHES))
    def test_solve_matches_dense_solve(self, kind):
        tangent, pins = random_tangent(MESHES[kind]())
        factor = LaggedFactor(None)
        factor.factor(tangent, pins, None, "test")
        dense = tangent.local.to_dense() + np.outer(tangent.dr_dw2, tangent.dw2_dx)
        dense[pins] = 0.0
        dense[:, pins] = 0.0
        dense[pins, pins] = 1.0
        rhs = np.random.default_rng(6).standard_normal(pins.size)
        ref = np.linalg.solve(dense, rhs)
        assert np.linalg.norm(factor.solve(rhs) - ref) <= 1e-10 * np.linalg.norm(ref)
        # the rank-one omega_hat term matters: the local factor alone misses it
        local = linsolve.level_lu_preconditioner(tangent.local, pins)
        assert np.linalg.norm(local(rhs) - ref) > 1e-6 * np.linalg.norm(ref)

    def test_vanishing_denominator_drops_rank_one_term(self):
        rows, cols, _ = build_graph(np.array([[0, 1]]), 2)
        blocks = np.where(rows == cols, 2.0, 1.0)[:, None, None]
        local = linsolve.BlockMatrix(rows, cols, blocks, 2)
        # u = A e_0 and v = -e_0 give z = e_0 and 1 + v.z = 0
        u = local.matvec(np.array([1.0, 0.0]))
        v = np.array([-1.0, 0.0])
        factor = LaggedFactor(None)
        with pytest.warns(UserWarning, match=r"time step to t=0\.5: Sherman-Morrison"):
            factor.factor(time_domain.TimeTangent(local, u[:, None], v[:, None]),
                          np.zeros(2, dtype=bool), None, "time step to t=0.5")
        rhs = np.array([1.0, -2.0])
        np.testing.assert_allclose(factor.solve(rhs), np.linalg.solve(local.to_dense(), rhs))

    def test_refactors_above_contraction(self):
        tangent, pins = random_tangent(MESHES["tri"]())
        factor = LaggedFactor(0.25)
        assert factor.stale
        factor.factor(tangent, pins, None, "test")
        factor.contracted(0.25)
        assert not factor.stale and factor.factorizations == 1
        factor.contracted(0.26)
        assert factor.stale
        every = LaggedFactor(None)
        every.factor(tangent, pins, None, "test")
        every.contracted(0.0)
        assert every.stale

    def test_chord_run_tracks_exact_newton(self, monkeypatch):
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        case = channel_time_case(mesh, mu=0.05, u_max=1.0, period=1.0, n_cycles=2, dt=0.1,
                                 modulation=lambda t: 1.0 + 0.4 * np.sin(2 * np.pi * t))
        eps_nr = SolverConfig().eps_nr
        chord = run_time_simulation(case, mesh, report_groups=["xmax"])
        monkeypatch.setattr(time_domain, "REFACTOR_CONTRACTION", None)
        exact = run_time_simulation(case, mesh, report_groups=["xmax"])
        assert chord.newton_failures == exact.newton_failures == 0
        assert sum(chord.factorizations) < sum(exact.factorizations)
        assert exact.factorizations == exact.linear_solves
        for ours, ref in zip(chord.last_cycle_states, exact.last_cycle_states):
            diff = np.linalg.norm(ours.velocity - ref.velocity)
            assert diff <= eps_nr * np.linalg.norm(ref.velocity)


class TestLinearRecords:
    def test_simulation_records_linear_work(self):
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        case = channel_time_case(mesh, period=1.0, n_cycles=2, dt=0.5)
        res = run_time_simulation(case, mesh, report_groups=["xmax"])
        assert len(res.linear_solves) == len(res.step_seconds) == 4
        assert all(s >= 1 for s in res.linear_solves)
        assert all(s > 0.0 for s in res.step_seconds)
        # every step assembles and solves, within its wall time
        for asm, lin, wall in zip(res.assembly_seconds, res.linear_seconds, res.step_seconds):
            assert asm > 0.0 and lin > 0.0 and asm + lin < wall

    def test_simulation_records_factorizations(self):
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        case = channel_time_case(mesh, mu=0.3, u_max=1.0, period=1.0, n_cycles=2, dt=0.1,
                                 modulation=lambda t: 1.0 + 0.4 * np.sin(2 * np.pi * t))
        runs = [run_time_simulation(case, mesh, report_groups=["xmax"]) for _ in range(2)]
        res = runs[0]
        assert len(res.factorizations) == 20
        # the run factors at its first update and reuses the factor after that
        assert res.factorizations[0] == 1
        assert 1 <= sum(res.factorizations) < sum(res.linear_solves)
        # the lagged factor lives in the run: a second run repeats every count
        for key in ("newton_iters", "linear_solves", "factorizations"):
            assert getattr(runs[1], key) == getattr(res, key)

    def test_lone_step_factors_every_solve(self):
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        case = channel_time_case(mesh)
        step = generalized_alpha_step(case, mesh, TimeState.zeros(mesh.n_nodes, 2))
        assert step.converged and step.linear_solves >= 1
        assert step.factorizations == step.linear_solves


class TestNewtonUnconverged:
    def test_step_warns_with_residual_ratio(self, monkeypatch):
        monkeypatch.setattr(time_domain, "MAX_NEWTON", 2)
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        case = channel_time_case(mesh)
        state = TimeState.zeros(mesh.n_nodes, 2)
        with pytest.warns(UserWarning, match=r"t=0\.1: Newton loop unconverged after 2 "
                                             r"iterations, \|\|r\|\|/r0 = \S+e-\d\d$"):
            new, ok, iters, solves, *_ = generalized_alpha_step(case, mesh, state)
        assert not ok and iters == solves == 2
        assert np.max(np.abs(new.pressure)) > 0.0   # the updates were applied

    @pytest.mark.parametrize("scale, max_newton, message", [
        (-3.0, 10, r"Newton loop diverged after 10 iterations, \|\|r\|\|/r0 = \S+e\+\d\d$"),
        (np.nan, 1, "the new state is not finite$")])
    def test_diverged_step_raises_naming_t(self, monkeypatch, scale, max_newton, message):
        # updates that grow the residual (-3 Newton steps), or poison the state after
        # the last residual evaluation (nan with max_newton 1)
        solve = time_domain.LaggedFactor.solve
        monkeypatch.setattr(time_domain.LaggedFactor, "solve",
                            lambda self, rhs: scale * solve(self, rhs))
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        case = channel_time_case(mesh)
        with monkeypatch.context() as patch:
            patch.setattr(time_domain, "MAX_NEWTON", max_newton)
            with pytest.raises(DivergedStepError, match=r"t=0\.1: " + message):
                generalized_alpha_step(case, mesh, TimeState.zeros(mesh.n_nodes, 2))
        with pytest.raises(DivergedStepError, match=r"t=0\.1: "):
            run_time_simulation(case, mesh, report_groups=["xmax"])

    def test_simulation_counts_unconverged_steps(self, monkeypatch):
        # every update takes 5% of the Newton step, so no step converges in 10 iterations
        solve = time_domain.LaggedFactor.solve
        monkeypatch.setattr(time_domain.LaggedFactor, "solve",
                            lambda self, rhs: 0.05 * solve(self, rhs))
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        case = channel_time_case(mesh, period=1.0, n_cycles=2, dt=0.5)
        with pytest.warns(UserWarning, match="Newton loop unconverged"):
            res = run_time_simulation(case, mesh, report_groups=["xmax"])
        assert res.newton_failures == 4
        assert res.newton_iters == [10] * 4
