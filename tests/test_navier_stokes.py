from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import tsfem.linsolve as linsolve
import tsfem.navier_stokes as navier_stokes
from tsfem.linsolve import (
    BlockTangent,
    SolverConfig,
    assembly_context,
    build_graph,
)
from tsfem.boundary import FacetBlocks, check_groups
from tsfem.config import build_case, build_mesh, build_solver_config, config_from_mapping
from tsfem.mesh import (
    Mesh,
    c_i_for,
    facet_quadrature,
    generate_bent_channel_tet,
    generate_box_tet,
    generate_rect_tri,
    quadrature_rule,
    shape_values,
)
from tsfem.navier_stokes import (
    NSCase,
    NSState,
    assemble_ns_residual,
    assemble_ns_tangent,
    backflow_surface_matrix,
    default_pseudo_dt,
    flow_report,
    newton_step,
    parabolic_inflow,
    resolve_ns_dirichlet,
    ser_pseudo_dt,
    solve_ns,
)
from tsfem import spectral_real
from tsfem.time_domain import TimeCase, _time_residual
from tsfem.spectral import (
    SpectralCoeffs,
    modes_from_real,
    modes_to_real,
    build_omega,
    check_conjugate_symmetry,
    matrix_negative_part,
    convolution_dense,
    n_coeffs,
    negative_part_batch,
    real_basis,
    tau_from_modes,
)

RNG = np.random.default_rng(2718)
BENCH_CASES = Path(__file__).resolve().parent.parent / "benchmarks" / "cases"


def random_state(mesh, n_modes, rng=RNG, scale=1.0):
    m = n_coeffs(n_modes)
    full = modes_from_real(rng.standard_normal((mesh.n_nodes, mesh.dim + 1, m)) * scale)
    return NSState(full[:, :mesh.dim, :].copy(), full[:, mesh.dim, :].copy())


def poiseuille_case(n_modes=1, omega=0.0, u_max=1.0, rho=1.0, mu=0.1, height=1.0):
    m = n_coeffs(n_modes)

    def inflow(coords):
        vals = np.zeros((coords.shape[0], 2, m), dtype=complex)
        y = coords[:, 1]
        vals[:, 0, n_modes - 1] = u_max * 4 * y * (height - y) / height**2
        return vals

    return NSCase(rho=rho, mu=mu, omega=omega, n_modes=n_modes,
                  dirichlet={"xmin": inflow}, walls=["ymin", "ymax"],
                  neumann={"xmax": np.zeros(m, dtype=complex)})


def steady_supg_pspg_residual(mesh, rho, mu, c_i, vel, pres, neumann=None):
    """Plain-loop steady SUPG/PSPG residual oracle (real arithmetic)."""
    nu = mu / rho
    dim = mesh.dim
    rule = quadrature_rule(mesh.elem_type)
    shp = shape_values(mesh.elem_type, rule.points)
    ed = mesh.element_data()
    r = np.zeros((mesh.n_nodes, dim + 1))
    for e in range(mesh.n_elements):
        nodes = mesh.elements[e]
        grads = ed.grads[e]
        gmat = ed.metric[e]
        for q in range(rule.n_points):
            w = rule.weights[q] * ed.detj[e]
            u = shp[q] @ vel[nodes]
            p_at = shp[q] @ pres[nodes]
            gradu = np.zeros((dim, dim))
            gradp = np.zeros(dim)
            for a in range(len(nodes)):
                for i in range(dim):
                    gradp[i] += grads[a, i] * pres[nodes[a]]
                    for j in range(dim):
                        gradu[i, j] += grads[a, j] * vel[nodes[a], i]
            tau = (u @ gmat @ u + c_i * nu**2 * np.sum(gmat * gmat)) ** -0.5
            divu = np.trace(gradu)
            res = rho * gradu @ u + gradp
            for a in range(len(nodes)):
                adv = u @ grads[a]
                for i in range(dim):
                    r[nodes[a], i] += w * (rho * shp[q, a] * (gradu[i] @ u)
                                           - grads[a, i] * p_at
                                           + mu * grads[a] @ gradu[i]
                                           + adv * tau * res[i])
                r[nodes[a], dim] += w * (shp[q, a] * divu
                                         + grads[a] @ (tau * res) / rho)
    if neumann:
        from tsfem.mesh import facet_quadrature
        for name, h in neumann.items():
            fq = facet_quadrature(mesh, name)
            for q in range(fq.shape.shape[0]):
                for f in range(fq.nodes.shape[0]):
                    for a in range(fq.nodes.shape[1]):
                        for i in range(dim):
                            r[fq.nodes[f, a], i] -= (fq.weights[f, q] * fq.shape[q, a]
                                                     * h * fq.normals[f, i])
    return r


class TestResidual:
    def test_zero_state_zero_bcs(self):
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        case = poiseuille_case(u_max=0.0)
        state = NSState.zeros(mesh.n_nodes, 2, 1)
        resid = assemble_ns_residual(case, mesh, state)
        assert np.max(np.abs(resid)) == 0.0

    def test_steady_matches_hand_supg_pspg(self):
        mesh = generate_box_tet((1.0, 1.0, 1.0), (2, 2, 2))
        rho, mu, h_out = 1.2, 0.3, 0.7
        case = NSCase(rho=rho, mu=mu, omega=0.0, n_modes=1,
                      dirichlet={}, walls=["ymin"],
                      neumann={"xmax": np.array([h_out], dtype=complex)})
        vel = RNG.standard_normal((mesh.n_nodes, 3))
        pres = RNG.standard_normal(mesh.n_nodes)
        state = NSState(vel[:, :, None].astype(complex), pres[:, None].astype(complex))
        resid = assemble_ns_residual(case, mesh, state)
        oracle = steady_supg_pspg_residual(mesh, rho, mu, 3.0, vel, pres,
                                           neumann={"xmax": h_out})
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(resid[..., 0].real - oracle)) <= 1e-10 * scale
        assert np.max(np.abs(resid[..., 0].imag)) <= 1e-12 * scale

    def test_single_element_term_quadrature_oracle(self):
        # polynomial (linear) state on one tet: residual equals independent
        # per-term quadrature evaluation
        coords = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        mesh = Mesh(3, coords, np.array([[0, 1, 2, 3]]), "tet4", {})
        rho, mu = 1.3, 0.2
        case = NSCase(rho=rho, mu=mu, omega=0.0, n_modes=1)
        vel = RNG.standard_normal((4, 3))
        pres = RNG.standard_normal(4)
        state = NSState(vel[:, :, None].astype(complex), pres[:, None].astype(complex))
        resid = assemble_ns_residual(case, mesh, state)[..., 0].real
        oracle = steady_supg_pspg_residual(mesh, rho, mu, 3.0, vel, pres)
        assert np.max(np.abs(resid - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_conjugate_symmetric_rows(self):
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        case = poiseuille_case(n_modes=3, omega=2.0)
        state = random_state(mesh, 3)
        resid = assemble_ns_residual(case, mesh, state)
        defect = np.max(np.abs(resid - np.conj(resid[..., ::-1])))
        assert defect <= 1e-12 * np.max(np.abs(resid))

    def test_role_conflict_rejected(self):
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        case = poiseuille_case()
        case.walls.append("xmax")  # already a Neumann group
        state = NSState.zeros(mesh.n_nodes, 2, 1)
        with pytest.raises(ValueError, match="xmax"):
            assemble_ns_residual(case, mesh, state)

    def test_non_symmetric_neumann_data_rejected(self):
        # the real-basis assembly reads modes n >= 0 only: the rest is checked
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        case = poiseuille_case(n_modes=2, omega=1.0)
        case.neumann["xmax"] = np.array([0.3 + 0.1j, 0.0, 0.0], dtype=complex)
        state = NSState.zeros(mesh.n_nodes, 2, 2)
        with pytest.raises(ValueError, match="Neumann data of group 'xmax' violates"):
            assemble_ns_residual(case, mesh, state)

    @pytest.mark.parametrize("field", ["velocity", "pressure"])
    def test_non_symmetric_state_rejected(self, field):
        # modes_to_real reads the modes n >= 0 only, and newton_step would
        # symmetrize its output: the state is checked where it enters
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        case = poiseuille_case(n_modes=2, omega=1.0)
        state = random_state(mesh, 2)
        getattr(state, field)[..., 0] += 0.5j             # mode n = -1 only
        with pytest.raises(ValueError, match=f"state {field} violates conjugate symmetry"):
            assemble_ns_residual(case, mesh, state)
        with pytest.raises(ValueError, match=f"state {field} violates conjugate symmetry"):
            newton_step(case, mesh, state, SolverConfig())
        if field == "velocity":
            with pytest.raises(ValueError, match="coeff_state velocity violates"):
                assemble_ns_residual(case, mesh, random_state(mesh, 2), coeff_state=state)

    @pytest.mark.parametrize("elem_type", ["tri3", "tet4"])
    def test_steady_mode_matches_time_residual_at_rest(self, elem_type):
        # at N=1 and omega=0 the spectral residual is the time solver's
        # SUPG/PSPG residual at zero acceleration; the two solvers build it
        # from separate point tables
        if elem_type == "tri3":
            mesh = generate_rect_tri((1.0, 0.8), (3, 2))
        else:
            mesh = generate_bent_channel_tet(3.0, 1.0, 1.0, (3, 1, 1), bend_angle=1.0)
        rho, mu, h_out = 1.2, 0.3, 0.7
        rng = np.random.default_rng(mesh.dim)
        vel = rng.standard_normal((mesh.n_nodes, mesh.dim))
        pres = rng.standard_normal(mesh.n_nodes)
        case = NSCase(rho=rho, mu=mu, omega=0.0, n_modes=1,
                      neumann={"xmax": np.array([h_out], dtype=complex)})
        time_case = TimeCase(rho=rho, mu=mu, period=1.0, n_cycles=1, dt=0.1,
                             neumann={"xmax": lambda t: h_out})
        state = NSState(vel[:, :, None].astype(complex), pres[:, None].astype(complex))
        got = assemble_ns_residual(case, mesh, state)[..., 0]
        ref, _ = _time_residual(time_case, mesh, vel, np.zeros_like(vel), pres, 0.0)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestTangent:
    def test_zero_velocity_hermitian_part_positive(self):
        # Re(x^H K x) > 0 for velocity-only test vectors vanishing on the
        # Dirichlet boundary: viscous part plus the Omega-weighted penalty
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        case = poiseuille_case(n_modes=2, omega=1.5, u_max=0.0)
        state = NSState.zeros(mesh.n_nodes, 2, 2)
        tg = assemble_ns_tangent(case, mesh, state)
        nodes, _ = resolve_ns_dirichlet(case, mesh)
        m = tg.n_slots
        for _ in range(20):
            z = RNG.standard_normal((mesh.n_nodes, 3, m))
            z[:, 2, :] = 0.0   # velocity-only probe, K block acts alone
            z[nodes, :2, :] = 0.0
            y = tg.matvec(z.ravel()).reshape(mesh.n_nodes, 3, m)
            form = np.einsum("nci,nci->", z[:, :2], y[:, :2])   # Re(x^H K x), x the modes of z
            assert form > 0.0

    def test_frozen_coefficient_finite_difference(self):
        mesh = generate_rect_tri((1.0, 0.8), (2, 2))
        case = poiseuille_case(n_modes=2, omega=1.2, u_max=0.6)
        case.backflow_beta = 0.5
        base = random_state(mesh, 2, scale=0.5)
        tg = assemble_ns_tangent(case, mesh, base, exact_gd=True)
        for _ in range(3):
            z = RNG.standard_normal(tg.n_dof)
            d = modes_from_real(z.reshape(mesh.n_nodes, 3, -1))
            pert = base.copy()
            eps = 1e-4
            pert.velocity += eps * d[:, :2, :]
            pert.pressure += eps * d[:, 2, :]
            r0 = assemble_ns_residual(case, mesh, base, coeff_state=base)
            r1 = assemble_ns_residual(case, mesh, pert, coeff_state=base)
            fd = modes_to_real((r1 - r0) / eps).ravel()
            hv = tg.matvec(z)
            assert np.linalg.norm(fd - hv) <= 1e-6 * np.linalg.norm(fd)

    def test_infinite_pseudo_dt_is_mass_free(self):
        # the pseudo_dt terms of K are (1.5 rho / dt) sum_e detj sum_q w_q N_A N_B on the
        # mode diagonal, summed here one element and point at a time
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        case = poiseuille_case(n_modes=2, omega=1.0)
        state = random_state(mesh, 2)
        dt = 0.1
        tg_inf = assemble_ns_tangent(case, mesh, state, pseudo_dt=np.inf)
        tg_fin = assemble_ns_tangent(case, mesh, state, pseudo_dt=dt)
        rule = quadrature_rule(mesh.elem_type)
        basis = shape_values(mesh.elem_type, rule.points)
        edge = {(r, c): k for k, (r, c) in enumerate(zip(tg_inf.rows, tg_inf.cols))}
        mass = np.zeros(len(tg_inf.rows))
        for nodes, detj in zip(mesh.elements, mesh.element_data().detj):
            for w, n_q in zip(rule.weights, basis):
                for a, node_a in enumerate(nodes):
                    for b, node_b in enumerate(nodes):
                        mass[edge[node_a, node_b]] += detj * w * n_q[a] * n_q[b]
        m = tg_inf.n_slots
        ref = np.einsum("e,rc->erc", 1.5 * case.rho / dt * mass, np.eye(m))
        np.testing.assert_allclose(tg_fin.k_real - tg_inf.k_real, ref, rtol=0.0, atol=1e-13)
        assert np.min(mass) > 0.0
        tg_inf2 = assemble_ns_tangent(case, mesh, state, pseudo_dt=np.inf)
        np.testing.assert_array_equal(tg_inf.k_real, tg_inf2.k_real)

    def test_production_gd_blocks_are_mode_diagonal(self):
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        case = poiseuille_case(n_modes=3, omega=1.0, u_max=0.7)
        state = random_state(mesh, 3)
        tg = assemble_ns_tangent(case, mesh, state)
        assert tg.g_full is None and tg.d_full is None
        assert tg.g_diag.shape == tg.d_diag.shape == (len(tg.rows), 2)


def _oracle_facet_state_velocity(state: NSState, fq, q: int) -> np.ndarray:
    return np.einsum("a,faim->fim", fq.shape[q], state.velocity[fq.nodes])


def complex_assemble_oracle(case: NSCase, mesh: Mesh, state: NSState, *,
                            need_residual: bool, need_tangent: bool,
                            pseudo_dt: float = np.inf, exact_gd: bool = False,
                            coeff_state: NSState | None = None):
    """The complex-mode NS assembly, kept as the oracle for the real-basis one.

    A literal copy of the residual/tangent assembly that worked in the
    complex +-n mode layout; its blocks are mapped to the real basis by
    real_basis(N).matrix, Q A Q^H.

    coeff_state supplies the velocity entering A_i, tau and the backflow
    operator (frozen coefficients); it defaults to state.

    The integrands are summed over the quadrature points and scattered
    once through the mesh's cached plans.  The Galerkin weight N_A rides
    with the least-squares weight P_A, so both act through one product
    (N_A I + P_A) per point.  The blocks that
    depend on geometry only are formed after the point loop from
    sum_q w_q N_A N_B and sum_q w_q N_A: the pseudo-time mass, the viscous
    gab I, the pressure block gab/rho (sum_q w_q tau), and the scalar
    gradient/divergence blocks.
    """
    check_groups(mesh, dirichlet=case.dirichlet, wall=case.walls, neumann=case.neumann)
    if coeff_state is None:
        coeff_state = state
    n, m = case.n_modes, n_coeffs(case.n_modes)
    dim = mesh.dim
    rho, mu = case.rho, case.mu
    c_i = c_i_for(mesh.elem_type, case.c_i)
    ed = mesh.element_data()
    ctx = assembly_context(mesh, build_graph)
    rule = quadrature_rule(mesh.elem_type)
    shp = shape_values(mesh.elem_type, rule.points)             # (n_qp, nen)
    nn_ref = np.einsum("q,qa,qb->ab", rule.weights, shp, shp)
    n_ref = rule.weights @ shp
    omega_mat = build_omega(n, case.omega)
    eye = np.eye(m)
    diag = np.arange(m)

    n_edges = ctx.rows.shape[0]
    resid = np.zeros((mesh.n_nodes, dim + 1, m), dtype=complex) if need_residual else None
    if need_tangent:
        k_c = np.zeros((n_edges, m, m), dtype=complex)
        l_c = np.zeros((n_edges, m, m), dtype=complex)
        g_scal = np.zeros((n_edges, dim))
        d_scal = np.zeros((n_edges, dim))
        g_c = np.zeros((n_edges, dim, m, m), dtype=complex) if exact_gd else None
        d_c = np.zeros((n_edges, dim, m, m), dtype=complex) if exact_gd else None
    mass_coeff = 0.0 if not np.isfinite(pseudo_dt) else 1.5 * rho / pseudo_dt

    elems = mesh.elements
    grads = ed.grads
    detj = ed.detj
    metric = ed.metric
    n_el, nen = elems.shape
    u_el = state.velocity[elems]                      # (E, nen, dim, M)
    p_el = state.pressure[elems]                      # (E, nen, M)
    uc_el = coeff_state.velocity[elems]
    grad_u = np.einsum("eaj,eaim->ejim", grads, u_el)  # d u_i / d x_j
    grad_p = np.einsum("eaj,eam->ejm", grads, p_el)
    div_u = np.einsum("eiim->em", grad_u)
    gab = np.einsum("eai,ebi->eab", grads, grads)
    vol = detj * rule.weights.sum()
    n_int = np.outer(detj, n_ref)                      # sum_q w_q N_A
    if need_residual:
        r_m = np.zeros((n_el, nen, dim, m), dtype=complex)
        tau_strong = np.zeros((n_el, dim, m), dtype=complex)
    if need_tangent:
        k_el = np.zeros((n_el, nen, nen, m, m), dtype=complex)
        tau_sum = np.zeros((n_el, m, m), dtype=complex)
        if exact_gd:
            p_sum = np.zeros((n_el, nen, m, m), dtype=complex)
            q_sum = np.zeros((n_el, nen, m, m), dtype=complex)

    for q in range(rule.n_points):
        w = rule.weights[q] * detj
        n_q = shp[q][None, :, None, None]
        uc_q = np.einsum("a,eaim->eim", shp[q], uc_el)
        conv = convolution_dense(uc_q, n)              # (E, dim, M, M)
        tau = tau_from_modes(uc_q, metric, case.nu, c_i, n)
        a_dir = np.einsum("ead,edrc->earc", grads, conv)
        p_a = np.matmul(a_dir - n_q * omega_mat, tau[:, None])   # (E, nen, M, M)
        s_a = w[:, None, None, None] * (p_a + n_q * eye)

        if need_residual:
            u_q = np.einsum("a,eaim->eim", shp[q], u_el)
            conv_term = np.einsum("ejrc,ejic->eir", conv, grad_u)
            accel = np.einsum("rc,eic->eir", omega_mat, u_q)
            strong = rho * (accel + conv_term) + grad_p
            r_m += np.einsum("earc,eic->eair", s_a, strong)
            tau_strong += w[:, None, None] * np.einsum("erc,eic->eir", tau, strong)

        if need_tangent:
            t_b = n_q * omega_mat + a_dir
            k_el += np.matmul(s_a[:, :, None], rho * t_b[:, None, :])
            tau_sum += w[:, None, None] * tau
            if exact_gd:
                p_sum += w[:, None, None, None] * p_a
                q_sum += w[:, None, None, None] * np.matmul(tau[:, None], t_b)

    if need_residual:
        p_int = np.einsum("eb,ebm->em", n_int, p_el)
        r_m -= (n_int[:, :, None, None] * grad_p[:, None]
                + np.einsum("eai,em->eaim", grads, p_int))
        r_m += mu * vol[:, None, None, None] * np.einsum("eaj,ejim->eaim", grads, grad_u)
        r_c = (n_int[:, :, None] * div_u[:, None]
               + np.einsum("eai,eir->ear", grads, tau_strong) / rho)
        contrib = np.concatenate([r_m, r_c[:, :, None, :]], axis=2)
        ctx.nodes.add_to(resid, contrib.reshape(-1, dim + 1, m))

    if need_tangent:
        mass = detj[:, None, None] * nn_ref
        k_el[..., diag, diag] += (mu * vol[:, None, None] * gab
                                  + mass_coeff * mass)[..., None]
        ctx.edges.add_to(k_c, k_el.reshape(-1, m, m))
        l_el = np.einsum("eab,erc->eabrc", gab / rho, tau_sum)
        ctx.edges.add_to(l_c, l_el.reshape(-1, m, m))
        ctx.edges.add_to(g_scal, -np.einsum("eai,eb->eabi", grads, n_int).reshape(-1, dim))
        ctx.edges.add_to(d_scal, np.einsum("ea,ebj->eabj", n_int, grads).reshape(-1, dim))
        if exact_gd:
            ctx.edges.add_to(g_c, np.einsum("earc,ebi->eabirc", p_sum, grads)
                             .reshape(-1, dim, m, m))
            ctx.edges.add_to(d_c, np.einsum("eaj,ebrc->eabjrc", grads, q_sum)
                             .reshape(-1, dim, m, m))

    if need_residual:
        for name, data in case.neumann.items():
            h_modes = _oracle_neumann_modes(data, m)
            fq = facet_quadrature(mesh, name)
            r_el = -np.einsum("fq,qa,fi,r->fair", fq.weights, fq.shape, fq.normals, h_modes)
            np.add.at(resid[:, :dim], fq.nodes.ravel(), r_el.reshape(-1, dim, m))

    if case.backflow_beta > 0.0 and case.neumann:
        _oracle_add_ns_backflow(case, mesh, state, coeff_state, ctx,
                         resid, k_c if need_tangent else None)

    tangent = None
    if need_tangent:
        n_half = case.n_modes
        to_real = real_basis(n_half).matrix
        tangent = BlockTangent(
            ctx.rows, ctx.cols, mesh.n_nodes, dim, n_half,
            k_real=to_real(k_c), l_real=to_real(l_c),
            g_diag=g_scal, d_diag=d_scal,
            g_full=to_real(g_c) + _oracle_diag_expand(g_scal, n_half) if exact_gd else None,
            d_full=to_real(d_c) + _oracle_diag_expand(d_scal, n_half) if exact_gd else None,
        )
    return resid, tangent


def _oracle_neumann_modes(data, m: int) -> np.ndarray:
    if isinstance(data, SpectralCoeffs):
        data = data.values
    vals = np.asarray(data, dtype=complex)
    if vals.shape != (m,):
        raise ValueError(f"expected {m} Neumann modes, got shape {vals.shape}")
    return vals


def _oracle_diag_expand(scal: np.ndarray, n_half: int) -> np.ndarray:
    out = np.zeros(scal.shape + (2 * n_half - 1, 2 * n_half - 1))
    idx = np.arange(2 * n_half - 1)
    out[..., idx, idx] = scal[..., None]
    return out


def _oracle_add_ns_backflow(case, mesh, state, coeff_state, ctx, resid, k_c):
    n, m = case.n_modes, n_coeffs(case.n_modes)
    dim = mesh.dim
    factor = 0.5 * case.rho * case.backflow_beta
    for name in case.neumann:
        fq = facet_quadrature(mesh, name)
        k = fq.nodes.shape[1]
        r_el = np.zeros(fq.nodes.shape + (dim, m), dtype=complex)
        k_el = np.zeros(fq.nodes.shape + (k, m, m), dtype=complex)
        for q in range(fq.shape.shape[0]):
            uc = _oracle_facet_state_velocity(coeff_state, fq, q)
            un = np.einsum("fim,fi->fm", uc, fq.normals)
            an_neg = negative_part_batch(convolution_dense(un, n))
            if resid is not None:
                u_q = _oracle_facet_state_velocity(state, fq, q)
                term = np.einsum("frc,fic->fir", an_neg, u_q)
                r_el += np.einsum("f,a,fir->fair", fq.weights[:, q], fq.shape[q], term)
            if k_c is not None:
                k_el += np.einsum("f,a,b,frc->fabrc", fq.weights[:, q],
                                  fq.shape[q], fq.shape[q], an_neg)
        if resid is not None:
            np.add.at(resid[:, :dim], fq.nodes.ravel(), -factor * r_el.reshape(-1, dim, m))
        if k_c is not None:
            np.add.at(k_c, ctx.edge_ids(fq.nodes), -factor * k_el.reshape(-1, m, m))


def bent_oracle_setup(n_modes, beta=0.2):
    """Bent channel (18 tets) case and two random states for oracle checks."""
    mesh = generate_bent_channel_tet(3.0, 1.0, 1.0, (3, 1, 1), bend_angle=1.0)
    m = n_coeffs(n_modes)
    inflow = np.zeros((3, m), dtype=complex)
    inflow[0, n_modes - 1] = 1.0
    case = NSCase(rho=1.0, mu=0.1, omega=2.0, n_modes=n_modes,
                  dirichlet={"xmin": inflow}, walls=["ymin", "ymax", "zmin", "zmax"],
                  neumann={"xmax": np.zeros(m, dtype=complex)}, backflow_beta=beta)
    rng = np.random.default_rng(11 + n_modes)
    return mesh, case, random_state(mesh, n_modes, rng), random_state(mesh, n_modes, rng)


def assert_close(got, ref, name):
    scale = np.max(np.abs(ref))
    assert scale > 0.0, name
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale, name


class TestRealBasisAssembly:
    """The real-basis assembly against the complex-mode oracle above."""

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 7])
    def test_matches_complex_oracle(self, n_modes):
        mesh, case, state, frozen = bent_oracle_setup(n_modes)

        for coeff in (None, frozen):
            ref, _ = complex_assemble_oracle(case, mesh, state, need_residual=True,
                                             need_tangent=False, coeff_state=coeff)
            assert_close(assemble_ns_residual(case, mesh, state, coeff_state=coeff), ref,
                         "residual")

        rng = np.random.default_rng(41 + n_modes)
        for kwargs in ({"pseudo_dt": 0.2}, {"exact_gd": True},
                       {"pseudo_dt": 0.2, "exact_gd": True}):
            ref_r, ref_t = complex_assemble_oracle(case, mesh, state, need_residual=True,
                                                   need_tangent=True, **kwargs)
            got_r, _ = navier_stokes._residual_pass(case, mesh, state)
            # the pseudo-time mass is added after the assembly, from the
            # element mass matrices; the oracle adds it inside the loop
            got_t = assemble_ns_tangent(case, mesh, state, **kwargs)
            assert_close(got_r, modes_to_real(ref_r), "residual in the solve layout")
            if kwargs.get("exact_gd"):
                # the exact tangent is the Newton operator without its Newton terms,
                # applied per element; the oracle's has the mode-coupled g_full/d_full
                assert not got_t.has_edges
                for _ in range(3):
                    x = rng.standard_normal(got_t.n_dof)
                    assert_close(got_t.matvec(x), ref_t.matvec(x), f"exact tangent {kwargs}")
                continue
            pairs = [("k", got_t.k_real, ref_t.k_real), ("l", got_t.l_real, ref_t.l_real),
                     ("g_diag", got_t.g_diag, ref_t.g_diag),
                     ("d_diag", got_t.d_diag, ref_t.d_diag)]
            for name, got, ref in pairs:
                assert_close(got, ref, name)

    @pytest.mark.parametrize("n_modes", [1, 3, 7])
    def test_post_hoc_mass_matches_in_assembly_mass(self, n_modes):
        mesh, case, state, _ = bent_oracle_setup(n_modes)
        for dt in (0.2, 3.0):
            _, ref_fin = complex_assemble_oracle(case, mesh, state, need_residual=False,
                                                 need_tangent=True, pseudo_dt=dt)
            _, ref_inf = complex_assemble_oracle(case, mesh, state, need_residual=False,
                                                 need_tangent=True)
            got = assemble_ns_tangent(case, mesh, state, pseudo_dt=dt).k_real
            got_inf = assemble_ns_tangent(case, mesh, state).k_real
            assert_close(got, ref_fin.k_real, "K with mass")
            assert_close(got - got_inf, ref_fin.k_real - ref_inf.k_real, "mass")

    def test_backflow_term_is_covered(self):
        # the random state reverses the flow on the outlet, so the oracle
        # check above includes a nonzero backflow term
        mesh, case, state, _ = bent_oracle_setup(3)
        _, off = complex_assemble_oracle(replace(case, backflow_beta=0.0), mesh, state,
                                         need_residual=False, need_tangent=True)
        _, ref_t = complex_assemble_oracle(case, mesh, state, need_residual=False,
                                           need_tangent=True)
        got_t = assemble_ns_tangent(case, mesh, state)
        assert np.max(np.abs(ref_t.k_real - off.k_real)) > 1e-3 * np.max(np.abs(ref_t.k_real))
        assert_close(got_t.k_real, ref_t.k_real, "k with backflow")


def frozen_tau_residual(case, mesh, state, taus, monkeypatch):
    """The residual with tau replayed from `taus`, in the order assembly asks for it.

    A_i and everything else follow `state`; coeff_state would freeze A_i too.
    """
    replay = iter(taus)
    with monkeypatch.context() as patch:
        patch.setattr(navier_stokes, "tau_from_modes", lambda *args: next(replay))
        return assemble_ns_residual(case, mesh, state)


def recorded_taus(case, mesh, state, monkeypatch):
    taus = []
    real = navier_stokes.tau_from_modes

    def record(*args):
        taus.append(real(*args))
        return taus[-1]

    with monkeypatch.context() as patch:
        patch.setattr(navier_stokes, "tau_from_modes", record)
        assemble_ns_residual(case, mesh, state)
    return taus


def dense_newton_oracle(case, mesh, state):
    """Literal per-point matrix of the element-level Newton terms (real basis).

    Rows and columns run over (node, component, orthonormal mode
    coordinate); per element and point it adds, for the momentum row
    (A, i) and the continuity row A, the derivative terms that the edge
    blocks leave out: the least-squares gradient and divergence coupling,
    the Galerkin and least-squares convective reaction and the variation of
    P_A through A_k, with tau held fixed.
    """
    n, m, d, rho = case.n_modes, n_coeffs(case.n_modes), mesh.dim, case.rho
    ed = mesh.element_data()
    rule = quadrature_rule(mesh.elem_type)
    shp = shape_values(mesh.elem_type, rule.points)
    c_i = c_i_for(mesh.elem_type, case.c_i)
    omega = spectral_real.build_omega(n, case.omega)
    vel, pres = modes_to_real(state.velocity), modes_to_real(state.pressure)
    conv = lambda v: spectral_real.convolution_dense(v, n)   # noqa: E731
    jac = np.zeros((mesh.n_nodes, d + 1, m, mesh.n_nodes, d + 1, m))
    for e, nodes in enumerate(mesh.elements):
        g = ed.grads[e]
        du = np.einsum("aj,aim->ijm", g, vel[nodes])           # d u_i / d x_j
        gp = g.T @ pres[nodes]
        for q in range(rule.n_points):
            w, nq = rule.weights[q] * ed.detj[e], shp[q]
            uq = nq @ vel[nodes].reshape(len(nodes), -1)
            uq = uq.reshape(d, m)
            cq = [conv(uq[j]) for j in range(d)]
            tau = spectral_real.tau_from_modes(uq, ed.metric[e], case.nu, c_i, n)
            strong = [rho * (omega @ uq[i] + sum(cq[j] @ du[i, j] for j in range(d))) + gp[i]
                      for i in range(d)]
            for a, na in enumerate(nodes):
                p_a = (sum(g[a, k] * cq[k] for k in range(d)) - nq[a] * omega) @ tau
                for b, nb in enumerate(nodes):
                    t_b = nq[b] * omega + sum(g[b, k] * cq[k] for k in range(d))
                    for i in range(d):
                        jac[na, i, :, nb, d] += w * p_a * g[b, i]
                        for k in range(d):
                            react = rho * nq[b] * conv(du[i, k])
                            jac[na, i, :, nb, k] += w * ((nq[a] * np.eye(m) + p_a) @ react
                                                         + g[a, k] * nq[b] * conv(tau @ strong[i]))
                            jac[na, d, :, nb, k] += w * g[a, i] * tau @ react / rho
                    for k in range(d):
                        jac[na, d, :, nb, k] += w * g[a, k] * tau @ t_b
    size = mesh.n_nodes * (d + 1) * m
    return jac.reshape(size, size)


class TestNewtonOperator:
    """The operator newton_step solves with: the derivative with tau held fixed."""

    @staticmethod
    def _cases():
        mesh2 = generate_rect_tri((1.0, 0.8), (3, 2))
        yield mesh2, poiseuille_case(n_modes=2, omega=1.2, u_max=0.6), \
            random_state(mesh2, 2, np.random.default_rng(3), scale=0.5)
        for n_modes in (1, 3):
            mesh3, case3, state3, _ = bent_oracle_setup(n_modes, beta=0.0)
            yield mesh3, case3, state3

    def test_matches_central_differences_with_tau_fixed(self, monkeypatch):
        rng = np.random.default_rng(17)
        for mesh, case, base in self._cases():
            op = navier_stokes.assemble_ns_newton(case, mesh, base)
            taus = recorded_taus(case, mesh, base, monkeypatch)
            for _ in range(2):
                z = rng.standard_normal(op.n_dof)
                dz = modes_from_real(z.reshape(mesh.n_nodes, mesh.dim + 1, -1))
                eps = 1e-5
                sides = []
                for sign in (1.0, -1.0):
                    pert = base.copy()
                    pert.velocity += sign * eps * dz[:, :mesh.dim]
                    pert.pressure += sign * eps * dz[:, mesh.dim]
                    sides.append(frozen_tau_residual(case, mesh, pert, taus, monkeypatch))
                fd = modes_to_real((sides[0] - sides[1]) / (2 * eps)).ravel()
                hv = op.matvec(z)
                assert np.linalg.norm(fd - hv) <= 1e-6 * np.linalg.norm(fd)
                # and the Newton terms matter: the frozen-coefficient tangent misses them
                frozen = assemble_ns_tangent(case, mesh, base)
                assert np.linalg.norm(fd - frozen.matvec(z)) > 1e-2 * np.linalg.norm(fd)

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_element_terms_match_dense_point_oracle(self, n_modes, dim):
        if dim == 2:
            mesh = generate_rect_tri((1.0, 0.8), (2, 2))
            case = poiseuille_case(n_modes=n_modes, omega=1.3, u_max=0.5, rho=1.2, mu=0.07)
            state = random_state(mesh, n_modes, np.random.default_rng(n_modes), scale=0.7)
        else:
            mesh, case, state, _ = bent_oracle_setup(n_modes)
        op = navier_stokes.assemble_ns_newton(case, mesh, state)
        frozen = assemble_ns_tangent(case, mesh, state)
        assert not op.has_edges
        jac = dense_newton_oracle(case, mesh, state)
        rng = np.random.default_rng(5 + n_modes)
        for _ in range(3):
            x = rng.standard_normal((mesh.n_nodes, dim + 1, 2 * n_modes - 1))
            ref = jac @ x.ravel()
            got = op.matvec(x) - frozen.matvec(x)
            assert_close(got, ref, f"Newton terms N={n_modes} dim={dim}")

    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_operator_is_the_edge_tangent_plus_the_newton_terms(self, n_modes):
        # with backflow, inflow through the Neumann group and the pseudo mass
        mesh, case, state, _ = bent_oracle_setup(n_modes, beta=0.2)
        dt = 0.3
        op = navier_stokes.assemble_ns_newton(case, mesh, state, pseudo_dt=dt)
        frozen = assemble_ns_tangent(case, mesh, state, pseudo_dt=dt)
        no_backflow = navier_stokes.assemble_ns_newton(replace(case, backflow_beta=0.0), mesh,
                                                       state, pseudo_dt=dt)
        jac = dense_newton_oracle(case, mesh, state)
        rng = np.random.default_rng(29 + n_modes)
        for _ in range(3):
            x = rng.standard_normal(op.n_dof)
            ref = frozen.matvec(x) + jac @ x
            got = op.matvec(x)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
            diff = np.linalg.norm(got - no_backflow.matvec(x))
            assert diff > 1e-3 * np.linalg.norm(ref)        # the backflow term is on

    def test_tau_is_computed_once_per_state(self, monkeypatch):
        # the residual pass takes tau point by point; the operator reuses it
        mesh, case = TestPseudoStep._bent_case()
        dir_nodes, dir_vals = resolve_ns_dirichlet(case, mesh)
        state = NSState.zeros(mesh.n_nodes, mesh.dim, case.n_modes)
        state.velocity[dir_nodes] = dir_vals                # solve_ns's first state
        calls, in_operator = [], []
        tau, add_to = navier_stokes.tau_from_modes, navier_stokes._Linearization.add_to

        def counted_tau(u, *args):
            calls.append((u.shape[:-2], bool(in_operator)))
            return tau(u, *args)

        def flagged_add_to(*args, **kwargs):
            # the operator forms its factors at its first product and applies itself here
            in_operator.append(True)
            try:
                return add_to(*args, **kwargs)
            finally:
                in_operator.pop()

        monkeypatch.setattr(navier_stokes, "tau_from_modes", counted_tau)
        monkeypatch.setattr(navier_stokes._Linearization, "add_to", flagged_add_to)
        record = newton_step(case, mesh, state, SolverConfig()).record
        assert record.matvecs > 0
        n_qp = mesh.element_data().basis.shape[0]
        assert calls == [((mesh.n_elements,), False)] * n_qp

    def test_backflow_blocks_are_built_once_per_neumann_group(self, monkeypatch):
        # an update that builds its preconditioner: the residual, the operator and the
        # edge blocks share the residual pass's FacetBlocks
        mesh, case = TestPseudoStep._bent_case()
        m = n_coeffs(case.n_modes)
        case = replace(case, walls=["ymin", "ymax", "zmin"],
                       neumann={"xmax": np.zeros(m, dtype=complex),
                                "zmax": np.zeros(m, dtype=complex)})
        facets, of = [], FacetBlocks.of

        def counted_of(cls, fq, *args):
            facets.append(fq)
            return of(fq, *args)

        dir_nodes, dir_vals = resolve_ns_dirichlet(case, mesh)
        state = NSState.zeros(mesh.n_nodes, mesh.dim, case.n_modes)
        state.velocity[dir_nodes] = dir_vals                # solve_ns's first state
        monkeypatch.setattr(FacetBlocks, "of", classmethod(counted_of))
        record = newton_step(case, mesh, state, SolverConfig()).record
        assert record.matvecs > 0 and record.precond_s > 0.0
        assert len(facets) == 2
        assert facets[0] is facet_quadrature(mesh, "xmax")
        assert facets[1] is facet_quadrature(mesh, "zmax")

    def test_solve_builds_one_operator_per_linear_solve(self, monkeypatch):
        mesh, case = TestPseudoStep._bent_case()
        counts = {"residual": 0, "operator": 0, "factors": 0, "gmres": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(navier_stokes, "_residual_pass",
                            counting("residual", navier_stokes._residual_pass))
        lin = navier_stokes._Linearization
        monkeypatch.setattr(lin, "tangent", counting("operator", lin.tangent))
        factors = cached_property(counting("factors", lin._factors.func))
        factors.__set_name__(lin, "_factors")
        monkeypatch.setattr(lin, "_factors", factors)
        monkeypatch.setattr(navier_stokes, "gmres", counting("gmres", linsolve.gmres))
        result = solve_ns(case, mesh, SolverConfig(eps_nr=1e-3, eps_ls=0.05, max_steps=60))
        assert result.converged
        # one operator per update, its factors formed once for all of its matvecs
        assert counts["operator"] == counts["factors"] == counts["gmres"] == result.steps
        assert counts["residual"] == result.steps + 1
        assert len(result.updates) == result.steps
        assert all(u.assembly_s > 0.0 and u.linear_s > 0.0 for u in result.updates)


class TestSolve:
    def test_zero_inflow_converges_immediately(self):
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        case = poiseuille_case(u_max=0.0)
        result = solve_ns(case, mesh)
        assert result.converged and result.steps == 0
        assert np.max(np.abs(result.state.velocity)) == 0.0
        assert np.max(np.abs(result.state.pressure)) == 0.0

    def test_steady_poiseuille_profile(self):
        mesh = generate_rect_tri((1.0, 1.0), (6, 48))
        case = poiseuille_case(u_max=1.0, rho=1.0, mu=0.1)
        config = SolverConfig(eps_nr=1e-7, eps_ls=1e-5, pseudo_dt=np.inf,
                              max_steps=40)
        result = solve_ns(case, mesh, config)
        assert result.converged
        # centerline nodes along the channel
        sel = np.isclose(mesh.coords[:, 1], 0.5) & (mesh.coords[:, 0] > 0.25)
        u_center = result.state.velocity[sel, 0, 0].real
        assert np.max(np.abs(u_center - 1.0)) < 0.005

    def test_steady_solve_pins_dirichlet_velocity_only(self, monkeypatch):
        # N = 1: one real slot per component, and the Dirichlet velocity is the only pin
        mesh = generate_rect_tri((1.0, 1.0), (4, 4))
        case = poiseuille_case(u_max=0.5, mu=0.5)
        seen = []
        real = navier_stokes.pinned_operator
        monkeypatch.setattr(navier_stokes, "pinned_operator",
                            lambda matvec, pins: seen.append(pins) or real(matvec, pins))
        config = SolverConfig(eps_nr=1e-8, eps_ls=1e-6, pseudo_dt=np.inf, max_steps=30)
        result = solve_ns(case, mesh, config)
        assert result.converged and len(seen) == result.steps > 0
        nodes, _ = resolve_ns_dirichlet(case, mesh)
        expected = np.zeros((mesh.n_nodes, 3), dtype=bool)
        expected[nodes, :2] = True
        for pins in seen:
            np.testing.assert_array_equal(pins, expected.ravel())

    def test_residual_drops_monotonically_low_re(self):
        mesh = generate_rect_tri((1.0, 1.0), (4, 4))
        case = poiseuille_case(u_max=0.5, mu=0.5)
        config = SolverConfig(eps_nr=1e-8, eps_ls=1e-6, pseudo_dt=np.inf, max_steps=30)
        result = solve_ns(case, mesh, config)
        assert result.converged
        r = np.array(result.residuals)
        assert np.all(np.diff(r) < 0)
        assert r[-1] <= 1e-8 * r[0]

    def test_step_residual_is_norm_of_complex_residual(self):
        # the solve layout is orthonormal: the recorded residual is the norm of
        # the complex residual modes, every mode n weighed alike, off the
        # Dirichlet momentum rows
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        case = poiseuille_case(n_modes=3, omega=1.5, u_max=0.4, mu=0.2)
        state = random_state(mesh, 3, np.random.default_rng(8), scale=0.5)
        ref = assemble_ns_residual(case, mesh, state)
        nodes, _ = resolve_ns_dirichlet(case, mesh)
        assert nodes.size
        ref[nodes, :mesh.dim] = 0.0
        record = newton_step(case, mesh, state, SolverConfig()).record
        assert abs(record.residual - np.linalg.norm(ref)) <= 1e-12 * np.linalg.norm(ref)

    def test_converged_state_extra_step_is_noop(self):
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        case = poiseuille_case(u_max=0.2, mu=1.0)  # Stokes regime
        config = SolverConfig(eps_nr=1e-9, eps_ls=1e-8, pseudo_dt=np.inf, max_steps=40)
        result = solve_ns(case, mesh, config)
        assert result.converged
        new_state, record = newton_step(case, mesh, result.state, config)
        assert record.residual <= 1e-9 * result.residuals[0]
        delta = np.max(np.abs(new_state.velocity - result.state.velocity))
        assert delta <= 1e-8 * np.max(np.abs(result.state.velocity))

    def test_solve_resolves_dirichlet_data_once(self, monkeypatch):
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        case = poiseuille_case(n_modes=2, omega=1.5, u_max=0.4, mu=0.2)
        config = SolverConfig(eps_nr=1e-6, eps_ls=1e-8, pseudo_dt=np.inf, max_steps=20)
        reference = solve_ns(case, mesh, config)
        real = navier_stokes.resolve_ns_dirichlet
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(navier_stokes, "resolve_ns_dirichlet", counting)
        for pseudo_dt in (np.inf, None):
            calls.clear()
            result = solve_ns(case, mesh, replace(config, pseudo_dt=pseudo_dt))
            assert result.converged and len(calls) == 1
        calls.clear()
        result = solve_ns(case, mesh, config)
        assert result.residuals == reference.residuals
        # a direct newton_step call resolves the data itself
        newton_step(case, mesh, result.state, config)
        assert len(calls) == 2

    def test_update_preserves_conjugate_symmetry(self):
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        case = poiseuille_case(n_modes=3, omega=1.5, u_max=0.4, mu=0.2)
        config = SolverConfig(eps_nr=1e-4, pseudo_dt=np.inf, max_steps=20)
        result = solve_ns(case, mesh, config)
        assert result.converged
        for field in (result.state.velocity.reshape(-1, 5),
                      result.state.pressure):
            for row in field:
                assert check_conjugate_symmetry(row) <= 1e-12

    def test_dirichlet_data_exact(self):
        mesh = generate_rect_tri((1.0, 1.0), (4, 3))
        case = poiseuille_case(n_modes=2, omega=1.0, u_max=0.5, mu=0.3)
        config = SolverConfig(eps_nr=1e-4, pseudo_dt=np.inf, max_steps=20)
        result = solve_ns(case, mesh, config)
        nodes, vals = resolve_ns_dirichlet(case, mesh)
        np.testing.assert_array_equal(result.state.velocity[nodes], vals)

    def test_pseudo_path_independence(self):
        mesh = generate_rect_tri((1.0, 1.0), (4, 4))
        case = poiseuille_case(u_max=0.8, mu=0.2)
        eps = 1e-6
        dt_opt = 0.5
        sols = []
        for dt in (dt_opt, 10 * dt_opt):
            config = SolverConfig(eps_nr=eps, eps_ls=0.02, pseudo_dt=dt, max_steps=200)
            result = solve_ns(case, mesh, config)
            assert result.converged
            sols.append(result.state)
        diff = np.linalg.norm(sols[0].velocity - sols[1].velocity)
        scale = np.linalg.norm(sols[0].velocity)
        assert diff <= 10 * eps * scale


class TestPseudoStep:
    def test_ser_grows_while_residual_falls(self):
        p = navier_stokes.SER_EXPONENT
        assert ser_pseudo_dt(0.5, None, None, 3.0) == 0.5
        assert ser_pseudo_dt(0.5, 0.5, 3.0, 1.5) == 0.5 * 2.0**p
        assert ser_pseudo_dt(0.5, 2.0, 1.0, 1.0) == 2.0

    def test_ser_falls_back_on_rise(self):
        assert ser_pseudo_dt(0.5, 8.0, 1.0, 1.2) == 4.0
        assert ser_pseudo_dt(0.5, 0.6, 1.0, 1.2) == 0.5   # never below the initial step

    def test_ser_keeps_newton(self):
        for r in (0.5, 2.0):
            assert ser_pseudo_dt(np.inf, None, None, r) == np.inf
            assert ser_pseudo_dt(np.inf, np.inf, 1.0, r) == np.inf

    @settings(max_examples=100, deadline=None)
    @given(initial=st.floats(1e-3, 1e3), grow=st.floats(1.0, 1e6),
           r_previous=st.floats(1e-8, 1e3), ratio=st.floats(1e-3, 1e3))
    def test_ser_property(self, initial, grow, r_previous, ratio):
        previous = initial * grow
        r = r_previous * ratio
        dt = ser_pseudo_dt(initial, previous, r_previous, r)
        if r <= r_previous:
            assert dt >= previous
        else:
            assert dt == max(initial, previous / 2) >= initial

    @staticmethod
    def _bent_case():
        mesh = generate_bent_channel_tet(3.0, 1.0, 1.0, (4, 2, 2), bend_angle=1.0)
        inflow = np.zeros((3, n_coeffs(3)), dtype=complex)
        inflow[0, 2:] = [1.0, 0.3 - 0.2j, 0.1j]
        inflow[0, :2] = np.conj(inflow[0, :2:-1])
        case = NSCase(rho=1.0, mu=0.1, omega=2.0, n_modes=3, dirichlet={"xmin": inflow},
                      walls=["ymin", "ymax", "zmin", "zmax"],
                      neumann={"xmax": np.zeros(n_coeffs(3), dtype=complex)},
                      backflow_beta=0.2)
        return mesh, case

    def test_growing_step_takes_fewer_steps(self, monkeypatch):
        mesh, case = self._bent_case()
        config = SolverConfig(eps_nr=1e-3, eps_ls=0.05, max_steps=60)
        grown = solve_ns(case, mesh, config)
        assert grown.converged and all(u.linear_converged for u in grown.updates)
        r, dts = grown.residuals, [u.pseudo_dt for u in grown.updates]
        assert len(dts) == grown.steps == len(r) - 1
        assert dts[0] == default_pseudo_dt(case, mesh)
        for k in range(1, len(dts)):
            assert dts[k] == ser_pseudo_dt(dts[0], dts[k - 1], r[k - 1], r[k])
        assert max(dts) > 100 * dts[0]
        monkeypatch.setattr(navier_stokes, "SER_EXPONENT", 0.0)   # the step held fixed
        fixed = solve_ns(case, mesh, config)
        assert fixed.converged and {u.pseudo_dt for u in fixed.updates} == {dts[0]}
        assert grown.steps < fixed.steps

    def test_newton_operator_converges_the_bent_case_in_few_updates(self):
        # 13 updates with the frozen-coefficient (Picard) operator
        mesh, case = self._bent_case()
        result = solve_ns(case, mesh, SolverConfig(eps_nr=1e-3, eps_ls=0.05, max_steps=60))
        assert result.converged and all(u.linear_converged for u in result.updates)
        assert result.steps <= 8

    def test_mesh_with_wide_levels_converges_in_few_matvecs(self):
        # the benchmark's bent channel at 15x5x5 (576 nodes), whose widest level holds 360
        # pair-block unknowns; the harmonic level LU takes 5 updates and 21 matvecs
        raw = yaml.safe_load((BENCH_CASES / "bent_channel.yaml").read_text())
        raw["mesh"]["resolution"] = [15, 5, 5]
        raw["physics"]["n_modes"] = 2
        config = config_from_mapping(raw)
        mesh = build_mesh(config.mesh)
        case, _ = build_case(config, mesh)
        result = solve_ns(case, mesh, build_solver_config(config.solver))
        assert result.converged and all(u.linear_converged for u in result.updates)
        assert result.steps <= 6 and sum(u.matvecs for u in result.updates) <= 40

    def test_linear_residuals_record_what_gmres_reached(self, monkeypatch):
        mesh = generate_rect_tri((1.0, 1.0), (3, 6))
        case = poiseuille_case(n_modes=2, omega=1.0)
        reached = []

        def spy(op, rhs, config, precond=None):
            res = linsolve.gmres(op, rhs, config, precond=precond)
            reached.append(np.linalg.norm(op(res.x) - rhs) / np.linalg.norm(rhs))
            return res

        monkeypatch.setattr(navier_stokes, "gmres", spy)
        result = solve_ns(case, mesh, SolverConfig(eps_ls=0.05))
        assert result.converged and all(u.linear_converged for u in result.updates)
        linear_residuals = [u.linear_residual for u in result.updates]
        assert len(linear_residuals) == result.steps == len(reached) >= 1
        np.testing.assert_allclose(linear_residuals, reached, rtol=1e-12)
        assert all(0.0 < r <= 0.05 for r in linear_residuals)

    def test_solver_config_rejects_bad_step_values(self):
        for kwargs in ({"pseudo_dt": 0.0}, {"pseudo_dt": -1.0}, {"pseudo_dt": np.nan}):
            with pytest.raises(ValueError, match="pseudo_dt must be positive"):
                SolverConfig(**kwargs)
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            SolverConfig(max_steps=0)
        for budget in (0, 1):   # GMRES cannot run a cycle on fewer than two matvecs
            with pytest.raises(ValueError, match="max_linear_iters must be >= 2"):
                SolverConfig(max_linear_iters=budget)
        assert SolverConfig(max_linear_iters=2).max_linear_iters == 2
        assert SolverConfig(pseudo_dt=np.inf).pseudo_dt == np.inf


class TestLaggedPreconditioner:
    """solve_ns builds its preconditioner once and again only after a long GMRES solve."""

    @staticmethod
    def _counted_solve(monkeypatch):
        built, edges = [], []
        edge_tangent = navier_stokes._edge_tangent

        def counting(*args, **kwargs):
            built.append(1)
            return linsolve.block_jacobi_preconditioner(*args, **kwargs)

        def counted_edges(*args, **kwargs):
            edges.append(1)
            return edge_tangent(*args, **kwargs)

        monkeypatch.setattr(navier_stokes, "block_jacobi_preconditioner", counting)
        monkeypatch.setattr(navier_stokes, "_edge_tangent", counted_edges)
        mesh, case = TestPseudoStep._bent_case()
        result = solve_ns(case, mesh, SolverConfig(eps_nr=1e-3, eps_ls=0.05, max_steps=60))
        assert result.converged and all(u.linear_converged for u in result.updates)
        # the edge blocks are assembled for the preconditioner only
        assert len(edges) == len(built)
        return result, len(built)

    @staticmethod
    def _rebuilt(updates):
        """Which updates should build: the first, and each after a solve over the threshold."""
        return [k == 0 or updates[k - 1].matvecs > navier_stokes.REFACTOR_MATVECS
                for k in range(len(updates))]

    def test_short_solves_keep_the_first_factor(self, monkeypatch):
        result, built = self._counted_solve(monkeypatch)
        assert max(u.matvecs for u in result.updates) <= navier_stokes.REFACTOR_MATVECS
        assert built == 1 and result.steps > 1
        assert [u.precond_s > 0.0 for u in result.updates] == self._rebuilt(result.updates)
        assert all(u.linear_s >= u.precond_s for u in result.updates)

    def test_a_solve_over_the_threshold_refactors(self, monkeypatch):
        monkeypatch.setattr(navier_stokes, "REFACTOR_MATVECS", 3)
        result, built = self._counted_solve(monkeypatch)
        rebuilt = self._rebuilt(result.updates)
        assert built == sum(rebuilt) > 1
        assert [u.precond_s > 0.0 for u in result.updates] == rebuilt

    def test_lone_newton_step_builds_its_own(self, monkeypatch):
        mesh = generate_rect_tri((1.0, 1.0), (3, 4))
        case = poiseuille_case(n_modes=2, omega=1.0)
        built = []
        monkeypatch.setattr(navier_stokes, "block_jacobi_preconditioner",
                            lambda *a: built.append(1) or linsolve.block_jacobi_preconditioner(*a))
        state = NSState.zeros(mesh.n_nodes, 2, 2)
        dir_nodes, dir_vals = resolve_ns_dirichlet(case, mesh)
        state.velocity[dir_nodes] = dir_vals
        for _ in range(2):
            state, record = newton_step(case, mesh, state, SolverConfig())
            assert record.precond_s > 0.0
        assert len(built) == 2


class TestBackflowMatrix:
    def _channel_state(self, mesh, n_modes, inflow_amp):
        m = n_coeffs(n_modes)
        state = NSState.zeros(mesh.n_nodes, 2, n_modes)
        state.velocity[:, 0, n_modes - 1] = 1.0
        if n_modes > 1:
            state.velocity[:, 0, n_modes] = inflow_amp
            state.velocity[:, 0, n_modes - 2] = np.conj(inflow_amp)
        return state

    def test_outflow_only_is_zero(self):
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        case = poiseuille_case(n_modes=2, omega=1.0)
        case.backflow_beta = 1.0
        state = self._channel_state(mesh, 2, 0.2)  # A_n stays PSD
        for idx in range(mesh.facet_groups["xmax"].nodes.shape[0]):
            mat = backflow_surface_matrix(case, mesh, state, ("xmax", idx))
            assert np.all(mat == 0.0)

    def test_uniform_inflow_scalar(self):
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        case = poiseuille_case(n_modes=1)
        case.backflow_beta = 0.8
        state = NSState.zeros(mesh.n_nodes, 2, 1)
        state.velocity[:, 0, 0] = -2.0  # inflow through xmax (normal +x)
        mat = backflow_surface_matrix(case, mesh, state, ("xmax", 0))
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(0.5 * case.rho * 0.8 * (-2.0))

    def test_mixed_modes_match_clipping_oracle(self):
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        case = poiseuille_case(n_modes=2, omega=1.0)
        case.backflow_beta = 1.0
        state = self._channel_state(mesh, 2, 1.5)  # strong oscillation, reversal
        fg = mesh.facet_groups["xmax"]
        for idx in range(fg.nodes.shape[0]):
            mat = backflow_surface_matrix(case, mesh, state, ("xmax", idx))
            u_mean = state.velocity[fg.nodes[idx]].mean(axis=0)
            un = u_mean[0]  # normal is +x
            oracle = 0.5 * case.rho * matrix_negative_part(convolution_dense(un, 2))
            np.testing.assert_allclose(mat, oracle, atol=1e-12)
            assert np.linalg.eigvalsh(mat)[-1] <= 1e-12

    def test_beta_one_restores_boundary_coercivity(self):
        # modified boundary operator (A_n - |A_n|_-)/2 is positive
        # semi-definite even under reversal, for every probe vector
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        case = poiseuille_case(n_modes=2, omega=1.0)
        state = self._channel_state(mesh, 2, 1.5)
        fg = mesh.facet_groups["xmax"]
        reversed_seen = 0
        for idx in range(fg.nodes.shape[0]):
            u_mean = state.velocity[fg.nodes[idx]].mean(axis=0)
            an = convolution_dense(u_mean[0], 2)
            if np.linalg.eigvalsh(an)[0] < 0:
                reversed_seen += 1
            modified = 0.5 * (an - matrix_negative_part(an))
            for _ in range(20):
                w = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
                val = (np.conj(w) @ modified @ w).real
                assert val >= -1e-13 * max(np.linalg.norm(an), 1.0)
        assert reversed_seen > 0


class TestFlowReport:
    def test_uniform_unit_flux(self):
        mesh = generate_box_tet((1.0, 1.0, 1.0), (2, 2, 2))
        state = NSState.zeros(mesh.n_nodes, 3, 1)
        state.velocity[:, 0, 0] = 1.0
        rep = flow_report(state, mesh, ["xmax"])
        assert rep["xmax"].flow.mode(0) == pytest.approx(1.0)
        assert rep["xmax"].area == pytest.approx(1.0)

    def test_closed_box_zero(self):
        mesh = generate_box_tet((1.0, 1.0, 1.0), (2, 2, 2))
        state = NSState.zeros(mesh.n_nodes, 3, 2)
        rep = flow_report(state, mesh, list(mesh.facet_groups))
        for data in rep.values():
            assert np.max(np.abs(data.flow.values)) == 0.0

    def test_channel_mass_conservation(self):
        mesh = generate_rect_tri((2.0, 1.0), (10, 8))
        case = poiseuille_case(u_max=1.0, mu=0.1)
        config = SolverConfig(eps_nr=1e-6, eps_ls=1e-5, pseudo_dt=np.inf, max_steps=30)
        result = solve_ns(case, mesh, config)
        rep = flow_report(result.state, mesh, ["xmin", "xmax"])
        q_in = rep["xmin"].flow.mode(0).real   # negative: inward
        q_out = rep["xmax"].flow.mode(0).real
        assert q_out > 0 > q_in
        assert abs(q_in + q_out) <= 0.01 * abs(q_out)

    def test_steady_state_reports_as_the_time_trace(self):
        # both solvers' flows come from one facet sum: a steady spectral state
        # reports what the time-marching trace of its mean field does
        from tsfem.time_domain import TimeState, _flow_trace

        mesh = generate_bent_channel_tet(3.0, 1.0, 1.0, (3, 2, 2), bend_angle=1.0)
        n = 3
        state = NSState.zeros(mesh.n_nodes, 3, n)
        state.velocity[:, :, n - 1] = RNG.standard_normal((mesh.n_nodes, 3))
        state.pressure[:, n - 1] = RNG.standard_normal(mesh.n_nodes)
        groups = list(mesh.facet_groups)
        rep = flow_report(state, mesh, groups)
        flows, pressures = _flow_trace(
            TimeState(state.velocity[:, :, n - 1].real, np.zeros((mesh.n_nodes, 3)),
                      state.pressure[:, n - 1].real, 0.0), mesh, groups)
        for g in groups:
            assert rep[g].flow.mode(0) == pytest.approx(flows[g], rel=1e-14, abs=1e-15)
            assert rep[g].pressure.mode(0) == pytest.approx(pressures[g], rel=1e-14, abs=1e-15)
            assert np.max(np.abs(np.delete(rep[g].flow.values, n - 1))) == 0.0


def fan_disk_mesh(n_seg=64, radius=1.0, n_rings=6):
    """Disk inlet fixture: each surface triangle extruded to its own tet."""
    theta = 2 * np.pi * np.arange(n_seg) / n_seg
    base = [np.zeros((1, 3))]
    for k in range(1, n_rings + 1):
        r = radius * k / n_rings
        base.append(np.column_stack([r * np.cos(theta), r * np.sin(theta),
                                     np.zeros(n_seg)]))
    base = np.vstack(base)

    def ring_id(k, i):
        return 1 + (k - 1) * n_seg + i % n_seg

    tris = [[0, ring_id(1, i), ring_id(1, i + 1)] for i in range(n_seg)]
    for k in range(1, n_rings):
        for i in range(n_seg):
            a0, a1 = ring_id(k, i), ring_id(k, i + 1)
            b0, b1 = ring_id(k + 1, i), ring_id(k + 1, i + 1)
            tris.append([a0, b0, b1])
            tris.append([a0, b1, a1])
    tris = np.array(tris)
    apex = base[tris].mean(axis=1) + [0.0, 0.0, 0.2 * radius / n_rings]
    coords = np.vstack([base, apex])
    elements = np.column_stack([tris, base.shape[0] + np.arange(len(tris))])
    from tsfem.mesh import FacetGroup
    groups = {"inlet": FacetGroup("inlet", tris, np.arange(len(tris)))}
    mesh = Mesh(3, coords, elements, "tet4", groups)
    mesh.element_data()
    return mesh


class TestParabolicInflow:
    def test_circular_peak_velocity(self):
        mesh = fan_disk_mesh()
        flow = SpectralCoeffs(1, np.array([2.5], dtype=complex))
        data = parabolic_inflow(mesh, "inlet", flow)
        from tsfem.mesh import facet_geometry
        _, areas = facet_geometry(mesh, "inlet")
        area = areas.sum()
        speeds = np.linalg.norm(np.abs(data.values[:, :, 0]), axis=1)
        assert speeds.max() == pytest.approx(2 * 2.5 / area, rel=0.02)
        # peak sits at the centroid node
        assert data.nodes[np.argmax(speeds)] == 0

    def test_flux_recovery(self):
        mesh = fan_disk_mesh(n_seg=32)
        flow = SpectralCoeffs.from_positive_modes([1.0, 0.4 - 0.1j])
        data = parabolic_inflow(mesh, "inlet", flow)
        from tsfem.mesh import facet_quadrature
        fq = facet_quadrature(mesh, "inlet")
        vel = np.zeros((mesh.n_nodes, 3, 3), dtype=complex)
        vel[data.nodes] = data.values
        got = np.zeros(3, dtype=complex)
        for q in range(fq.shape.shape[0]):
            uq = np.einsum("a,faim->fim", fq.shape[q], vel[fq.nodes])
            got += np.einsum("f,fim,fi->m", fq.weights[:, q], uq, -fq.normals)
        np.testing.assert_allclose(got, flow.values, atol=1e-10)

    def test_zero_flow_zero_profile(self):
        mesh = fan_disk_mesh(n_seg=16)
        data = parabolic_inflow(mesh, "inlet", SpectralCoeffs.zeros(2))
        assert np.max(np.abs(data.values)) == 0.0

    def test_rim_values_vanish(self):
        n_seg, n_rings = 24, 3
        mesh = fan_disk_mesh(n_seg=n_seg, n_rings=n_rings)
        flow = SpectralCoeffs(1, np.array([1.0], dtype=complex))
        data = parabolic_inflow(mesh, "inlet", flow)
        rim = 1 + (n_rings - 1) * n_seg + np.arange(n_seg)  # outermost ring
        sel = np.isin(data.nodes, rim)
        assert np.max(np.abs(data.values[sel])) < 1e-12

    def test_square_inlet_profile(self):
        mesh = generate_box_tet((1.0, 1.0, 1.0), (4, 4, 4))
        flow = SpectralCoeffs(1, np.array([1.0], dtype=complex))
        data = parabolic_inflow(mesh, "xmin", flow)
        # zero on the rim of the face, directed into the domain (+x)
        fg = mesh.facet_groups["xmin"]
        coords = mesh.coords[data.nodes]
        on_rim = (np.isclose(coords[:, 1], 0) | np.isclose(coords[:, 1], 1)
                  | np.isclose(coords[:, 2], 0) | np.isclose(coords[:, 2], 1))
        assert np.max(np.abs(data.values[on_rim])) < 1e-12
        interior = ~on_rim
        assert np.all(data.values[interior, 0, 0].real > 0)
