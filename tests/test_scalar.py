import numpy as np
import pytest

import tsfem.scalar as scalar
from tsfem.boundary import check_groups
from tsfem.linsolve import (
    BlockMatrix,
    SolverConfig,
    assembly_context,
    block_from_orthonormal,
    block_to_real,
    build_graph,
    check_block_symmetry,
    rhs_from_orthonormal,
    rhs_to_real,
)
from tsfem.mesh import (
    c_i_for,
    facet_quadrature,
    generate_box_tet,
    generate_interval,
    generate_rect_tri,
    quadrature_rule,
    shape_values,
)
from tsfem.navier_stokes import NSCase, NSState, assemble_ns_tangent
from tsfem.scalar import (
    CoercivityReport,
    ScalarCase,
    assemble_scalar,
    coercivity_probe,
    resolve_scalar_dirichlet,
    solve_scalar,
)
from tsfem.spectral import (
    SpectralCoeffs,
    build_omega,
    check_conjugate_symmetry,
    convolution_dense,
    modes_from_real,
    modes_to_real,
    n_coeffs,
    negative_part_batch,
    tau_from_modes,
)
from tsfem.verification import exact_steady_advection_diffusion_1d

RNG = np.random.default_rng(99)


def uniform_velocity(n_nodes, dim, modes):
    """Nodal velocity field, spatially uniform (hence divergence-free)."""
    modes = np.asarray(modes, dtype=complex)
    return np.tile(modes, (n_nodes, 1, 1))


def steady_1d_case(u, kappa, n_modes=1, omega=0.0, g_right=1.0, n_elems=8, L=1.0):
    mesh = generate_interval(L, n_elems)
    m = n_coeffs(n_modes)
    vel = np.zeros((1, m), dtype=complex)
    vel[0, n_modes - 1] = u
    g = np.zeros(m, dtype=complex)
    g[n_modes - 1] = g_right
    case = ScalarCase(
        kappa=kappa, omega=omega, n_modes=n_modes,
        velocity=uniform_velocity(mesh.n_nodes, 1, vel),
        dirichlet={"left": np.zeros(m, dtype=complex), "right": g},
    )
    return case, mesh


class TestAssembleScalar:
    def test_pure_diffusion_matches_hand_laplacian(self):
        # N=1, omega=0, u=0 on two elements of size h: K = kappa/h * tridiag(-1, 2, -1)
        case, mesh = steady_1d_case(0.0, 0.7, n_elems=2)
        sys_c, rhs = assemble_scalar(case, mesh)
        h = 0.5
        expected = (0.7 / h) * np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        np.testing.assert_allclose(sys_c.to_dense().real, expected, atol=1e-13)
        np.testing.assert_allclose(sys_c.to_dense().imag, 0.0, atol=1e-15)
        np.testing.assert_allclose(rhs, 0.0, atol=1e-15)

    def test_constant_field_consistency(self):
        # spatial constant in the steady mode is annihilated for any omega
        mesh = generate_interval(1.0, 5)
        m = n_coeffs(3)
        vel = np.zeros((1, m), dtype=complex)
        const = np.zeros(m, dtype=complex)
        const[2] = 4.2
        case = ScalarCase(kappa=0.3, omega=2.0, n_modes=3,
                          velocity=uniform_velocity(mesh.n_nodes, 1, vel),
                          dirichlet={"left": const, "right": const})
        sys_r, rhs = assemble_scalar(case, mesh)
        y = modes_to_real(np.tile(const, (mesh.n_nodes, 1)))
        resid = sys_r.matvec(y.ravel()).reshape(mesh.n_nodes, m) - rhs
        assert np.max(np.abs(resid)) < 1e-13

    def test_steady_supg_stencil(self):
        # N=1, omega=0: Galerkin + u^2 tau (w', phi') with tau from the
        # doubly-asymptotic steady formula
        u, kappa, n_elems = 1.3, 0.05, 4
        case, mesh = steady_1d_case(u, kappa, n_elems=n_elems)
        sys_c, _ = assemble_scalar(case, mesh)
        h = 1.0 / n_elems
        tau = ((2 * u / h) ** 2 + (12 * kappa / h**2) ** 2) ** -0.5
        n_nodes = n_elems + 1
        expected = np.zeros((n_nodes, n_nodes))
        keff = kappa + u**2 * tau
        for e in range(n_elems):
            conv = u * np.array([[-0.5, 0.5], [-0.5, 0.5]])
            diff = keff / h * np.array([[1, -1], [-1, 1]])
            expected[e:e + 2, e:e + 2] += conv + diff
        np.testing.assert_allclose(sys_c.to_dense().real, expected, atol=1e-12)

    def test_unknown_group_rejected(self):
        case, mesh = steady_1d_case(1.0, 0.1)
        case.dirichlet["bogus"] = np.zeros(1, dtype=complex)
        with pytest.raises(ValueError, match="bogus"):
            assemble_scalar(case, mesh)

    def test_womersley_warning(self):
        mesh = generate_interval(1.0, 2)  # h = 0.5, very coarse
        m = n_coeffs(4)
        case = ScalarCase(kappa=0.01, omega=5.0, n_modes=4,
                          velocity=uniform_velocity(mesh.n_nodes, 1, np.zeros((1, m))),
                          dirichlet={"left": np.zeros(m, dtype=complex)})
        with pytest.warns(UserWarning, match="Womersley"):
            assemble_scalar(case, mesh)


class TestSolveScalar:
    def test_diffusive_limit_matches_exact(self):
        u, kappa = 0.02, 2.0  # element Peclet ~ 6e-4
        case, mesh = steady_1d_case(u, kappa, n_elems=16)
        sol = solve_scalar(case, mesh)
        exact = exact_steady_advection_diffusion_1d(u, kappa, 1.0, 1.0)
        nodal = sol[:, 0].real
        ref = exact(mesh.coords[:, 0])
        assert np.max(np.abs(nodal - ref)) / np.max(np.abs(ref)) < 1e-3

    def test_steady_solve_pins_dirichlet_nodes_only(self, monkeypatch):
        # N = 1: one real slot per node, and the Dirichlet nodes are the only pins
        case, mesh = steady_1d_case(0.4, 0.3)
        seen = []
        real = scalar.pinned_operator
        monkeypatch.setattr(scalar, "pinned_operator",
                            lambda matvec, pins: seen.append(pins) or real(matvec, pins))
        sol = solve_scalar(case, mesh)
        nodes, _ = resolve_scalar_dirichlet(case, mesh)
        assert len(seen) == 1
        np.testing.assert_array_equal(np.flatnonzero(seen[0]), nodes)
        assert seen[0].size == mesh.n_nodes
        exact = exact_steady_advection_diffusion_1d(0.4, 0.3, 1.0, 1.0)
        np.testing.assert_allclose(sol[:, 0].real, exact(mesh.coords[:, 0]), atol=1e-3)

    def test_dirichlet_exact_on_boundary(self):
        case, mesh = steady_1d_case(0.8, 0.05, n_modes=2, omega=1.0)
        sol = solve_scalar(case, mesh)
        nodes, vals = resolve_scalar_dirichlet(case, mesh)
        np.testing.assert_array_equal(sol[nodes], vals)

    def test_steady_flow_decouples_modes(self):
        # steady velocity, data only in mode 0: unsteady modes stay zero
        n_modes = 3
        m = n_coeffs(n_modes)
        mesh = generate_interval(1.0, 10)
        vel = np.zeros((1, m), dtype=complex)
        vel[0, n_modes - 1] = 0.9
        g = np.zeros(m, dtype=complex)
        g[n_modes - 1] = 1.0
        case = ScalarCase(kappa=0.2, omega=3.0, n_modes=n_modes,
                          velocity=uniform_velocity(mesh.n_nodes, 1, vel),
                          dirichlet={"left": np.zeros(m, complex), "right": g})
        sol = solve_scalar(case, mesh)
        unsteady = np.delete(sol, n_modes - 1, axis=1)
        assert np.max(np.abs(unsteady)) < 1e-10

    def test_unsteady_matches_dense_complex_oracle(self):
        n_modes = 3
        m = n_coeffs(n_modes)
        mesh = generate_interval(1.0, 12)
        pos = np.array([0.8, 0.3 + 0.2j, 0.1 - 0.1j])
        vel = np.concatenate([np.conj(pos[:0:-1]), pos])[None, :]
        g = np.concatenate([np.conj(pos[:0:-1]), pos]) * 0.5
        g[n_modes - 1] = 1.0
        case = ScalarCase(kappa=0.15, omega=2.0, n_modes=n_modes,
                          velocity=uniform_velocity(mesh.n_nodes, 1, vel),
                          dirichlet={"left": np.zeros(m, complex), "right": g})
        sol = solve_scalar(case, mesh)

        # dense direct solve in real mode coordinates with Dirichlet rows
        # replaced by identity
        sys_r, rhs = assemble_scalar(case, mesh)
        dense = sys_r.to_dense()
        b = rhs.ravel().copy()
        nodes, vals = resolve_scalar_dirichlet(case, mesh)
        for node, val in zip(nodes, modes_to_real(vals)):
            sl = slice(node * m, (node + 1) * m)
            dense[sl, :] = 0.0
            dense[sl, sl] = np.eye(m)
            b[sl] = val
        ref = modes_from_real(np.linalg.solve(dense, b).reshape(mesh.n_nodes, m))
        assert np.max(np.abs(sol - ref)) < 1e-9

    def test_solution_conjugate_symmetric(self):
        case, mesh = steady_1d_case(0.5, 0.1, n_modes=4, omega=1.5)
        sol = solve_scalar(case, mesh)
        for row in sol:
            assert check_conjugate_symmetry(row) == 0.0

    @pytest.mark.parametrize("kind", ["interval", "rect_tri"])
    def test_level_lu_factor_solves_in_a_few_matvecs(self, monkeypatch, kind):
        # every term lives in the nodal blocks: the factor is an exact solve
        if kind == "interval":
            case, mesh = steady_1d_case(0.5, 0.1, n_modes=3, omega=1.5, n_elems=40)
        else:
            mesh = generate_rect_tri((1.0, 1.0), (4, 4))
            m = n_coeffs(2)
            vel = np.zeros((1, 2, m), dtype=complex)
            vel[0, 0, 1], vel[0, 1, [0, 2]] = 1.0, 0.3     # steady x, oscillating y flow
            g = np.zeros(m, dtype=complex)
            g[1] = 1.0
            case = ScalarCase(kappa=0.5, omega=1.0, n_modes=2,
                              velocity=np.tile(vel, (mesh.n_nodes, 1, 1)),
                              dirichlet={"xmin": np.zeros(m, complex), "xmax": g},
                              neumann={"ymin": np.zeros(m, complex),
                                       "ymax": np.zeros(m, complex)},
                              backflow_beta=0.5)
        results = []
        real = scalar.gmres
        monkeypatch.setattr(scalar, "gmres",
                            lambda *a, **k: results.append(real(*a, **k)) or results[-1])
        solve_scalar(case, mesh)
        assert len(results) == 1 and results[0].converged and results[0].matvecs <= 3

    def test_2d_plain_galerkin_flag(self):
        mesh = generate_rect_tri((1.0, 1.0), (4, 4))
        m = n_coeffs(2)
        vel = np.zeros((1, 2, m), dtype=complex)
        vel[0, 0, 1] = 1.0
        g = np.zeros(m, dtype=complex)
        g[1] = 1.0
        kwargs = dict(kappa=0.5, omega=1.0, n_modes=2,
                      velocity=np.tile(vel, (mesh.n_nodes, 1, 1)),
                      dirichlet={"xmin": np.zeros(m, complex), "xmax": g},
                      neumann={"ymin": np.zeros(m, complex), "ymax": np.zeros(m, complex)})
        gls = solve_scalar(ScalarCase(**kwargs), mesh)
        gal = solve_scalar(ScalarCase(**kwargs, galerkin_only=True), mesh)
        assert np.max(np.abs(gls - gal)) > 1e-8  # penalty term active
        # at this mild Peclet both stay close to each other
        assert np.max(np.abs(gls - gal)) < 0.2 * np.max(np.abs(gls))


class TestCoercivityProbe:
    def _channel_case(self, n_modes=2, beta=0.0):
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        m = n_coeffs(n_modes)
        vel = np.zeros((mesh.n_nodes, 2, m), dtype=complex)
        vel[:, 0, n_modes - 1] = 1.0       # steady through-flow
        if n_modes > 1:
            vel[:, 0, n_modes] = 0.2       # mild oscillation, A_n stays PSD
            vel[:, 0, n_modes - 2] = 0.2
        case = ScalarCase(kappa=0.4, omega=1.3, n_modes=n_modes,
                          velocity=vel,
                          dirichlet={"xmin": np.zeros(m, complex),
                                     "ymin": np.zeros(m, complex),
                                     "ymax": np.zeros(m, complex)},
                          neumann={"xmax": np.zeros(m, complex)},
                          backflow_beta=beta)
        return case, mesh

    def _admissible(self, case, mesh):
        m = n_coeffs(case.n_modes)
        nodes, _ = resolve_scalar_dirichlet(case, mesh)
        w = RNG.standard_normal((mesh.n_nodes, m)) + 1j * RNG.standard_normal((mesh.n_nodes, m))
        w = 0.5 * (w + np.conj(w[:, ::-1]))
        w[nodes] = 0.0
        return w

    def test_zero_field(self):
        case, mesh = self._channel_case()
        rep = coercivity_probe(case, mesh, np.zeros((mesh.n_nodes, n_coeffs(2)), complex))
        assert rep.total == 0.0 and rep.b_form == 0.0

    def test_split_matches_bilinear_form(self):
        case, mesh = self._channel_case()
        for _ in range(5):
            w = self._admissible(case, mesh)
            rep = coercivity_probe(case, mesh, w)
            assert rep.b_form > 0.0
            assert abs(rep.total - rep.b_form) <= 1e-9 * abs(rep.b_form)

    def test_closed_domain_has_no_boundary_term(self):
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        m = n_coeffs(2)
        vel = np.zeros((mesh.n_nodes, 2, m), dtype=complex)
        vel[:, 0, 1] = 0.7
        case = ScalarCase(kappa=0.4, omega=1.0, n_modes=2, velocity=vel,
                          dirichlet={g: np.zeros(m, complex)
                                     for g in ("xmin", "xmax", "ymin", "ymax")})
        w = self._admissible(case, mesh)
        rep = coercivity_probe(case, mesh, w)
        assert rep.boundary == 0.0
        assert abs(rep.total - rep.b_form) <= 1e-9 * abs(rep.b_form)

    def test_diffusion_only_split(self):
        case, mesh = self._channel_case()
        case.velocity = np.zeros_like(case.velocity)
        w = self._admissible(case, mesh)
        rep = coercivity_probe(case, mesh, w)
        assert rep.boundary == 0.0
        assert rep.diffusion > 0.0
        assert abs(rep.total - rep.b_form) <= 1e-9 * abs(rep.b_form)

    def test_backflow_detected(self):
        case, mesh = self._channel_case()
        case.velocity = -case.velocity  # inflow through the Neumann outlet
        w = self._admissible(case, mesh)
        with pytest.raises(ValueError, match="backflow"):
            coercivity_probe(case, mesh, w)

    def test_backflow_term_is_nonnegative_quadratic(self):
        case0, mesh = self._channel_case(beta=0.0)
        case1, _ = self._channel_case(beta=1.0)
        case0.velocity = -case0.velocity
        case1.velocity = -case1.velocity
        k0, _ = assemble_scalar(case0, mesh)
        k1, _ = assemble_scalar(case1, mesh)
        for _ in range(5):
            r = modes_to_real(self._admissible(case0, mesh)).ravel()
            added = r @ (k1.matvec(r) - k0.matvec(r))
            assert added >= -1e-12


# ---------------------------------------------------------------------------
# the complex-mode assembly, kept as the oracle for the real-basis one
# ---------------------------------------------------------------------------

def _oracle_bc_values(data, coords, m):
    """Per-node (n, m) complex values from uniform data or a callable."""
    if isinstance(data, SpectralCoeffs):
        data = data.values
    if callable(data):
        vals = np.asarray(data(coords), dtype=complex)
        if vals.shape != (coords.shape[0], m):
            raise ValueError(f"boundary callable returned shape {vals.shape}")
        return vals
    vals = np.asarray(data, dtype=complex)
    if vals.shape != (m,):
        raise ValueError(f"expected {m} modes of boundary data, got shape {vals.shape}")
    return np.tile(vals, (coords.shape[0], 1))


def _oracle_velocity_at(case, mesh, elems, shape_q, points):
    """Velocity modes at quadrature points of the given elements, (E, dim, M)."""
    if callable(case.velocity):
        return np.asarray(case.velocity(points), dtype=complex)
    vel = np.asarray(case.velocity, dtype=complex)
    return np.einsum("a,eadm->edm", shape_q, vel[elems])


def complex_assemble_scalar_oracle(case, mesh):
    """A literal copy of the scalar assembly in the complex +-n mode layout.

    Returns (BlockMatrix with (2N-1)^2 complex blocks, rhs (n_nodes, 2N-1)).
    The integrands are summed over the quadrature points and scattered
    once through the mesh's cached plans; the
    geometry-only Galerkin terms N_A N_B Omega and kappa gab are formed
    from sum_q w_q N_A N_B and the element volume.
    """
    check_groups(mesh, dirichlet=case.dirichlet, neumann=case.neumann)
    n, m = case.n_modes, n_coeffs(case.n_modes)
    c_i = c_i_for(mesh.elem_type, case.c_i)
    ed = mesh.element_data()
    ctx = assembly_context(mesh, build_graph)
    rule = quadrature_rule(mesh.elem_type)
    shp = shape_values(mesh.elem_type, rule.points)
    nn_ref = np.einsum("q,qa,qb->ab", rule.weights, shp, shp)
    blocks = np.zeros((ctx.rows.shape[0], m, m), dtype=complex)
    rhs = np.zeros((mesh.n_nodes, m), dtype=complex)
    omega_mat = build_omega(n, case.omega)
    eye = np.eye(m)

    elems = mesh.elements
    grads = ed.grads
    detj = ed.detj
    metric = ed.metric
    xe = mesh.coords[elems]
    gab = np.einsum("eai,ebi->eab", grads, grads)
    vol = detj * rule.weights.sum()
    k_el = ((detj[:, None, None] * nn_ref)[..., None, None] * omega_mat
            + (case.kappa * vol[:, None, None] * gab)[..., None, None] * eye)
    r_el = np.zeros(elems.shape + (m,), dtype=complex)
    for q in range(rule.n_points):
        w = rule.weights[q] * detj                       # (E,)
        points = np.einsum("a,eai->ei", shp[q], xe)
        uq = _oracle_velocity_at(case, mesh, elems, shp[q], points)
        conv = convolution_dense(uq, n)                  # (E, dim, M, M)
        a_dir = np.einsum("ead,edrc->earc", grads, conv)  # (E, nen, M, M)
        k_q = np.einsum("a,ebrc->eabrc", shp[q], a_dir)
        if not case.galerkin_only:
            tau = tau_from_modes(uq, metric, case.kappa, c_i, n)
            weight = -shp[q][None, :, None, None] * omega_mat[None, None] + a_dir
            p_a = np.matmul(weight, tau[:, None])        # (E, nen, M, M)
            trial = shp[q][None, :, None, None] * omega_mat[None, None] + a_dir
            k_q = k_q + np.matmul(p_a[:, :, None], trial[:, None, :])
        k_el += w[:, None, None, None, None] * k_q
        if case.source is not None:
            s = np.asarray(case.source(points), dtype=complex)  # (E, M)
            r_q = np.einsum("a,em->eam", shp[q], s)
            if not case.galerkin_only:
                r_q = r_q + np.einsum("earc,ec->ear", p_a, s)
            r_el += w[:, None, None] * r_q
    ctx.edges.add_to(blocks, k_el.reshape(-1, m, m))
    if case.source is not None:
        ctx.nodes.add_to(rhs, r_el.reshape(-1, m))

    # Neumann flux data
    for name, data in case.neumann.items():
        fq = facet_quadrature(mesh, name)
        hvals = _oracle_bc_values(data, mesh.coords[fq.nodes.ravel()], m)
        hvals = hvals.reshape(fq.nodes.shape + (m,))
        r_el = np.einsum("fq,qa,qb,fbm->fam", fq.weights, fq.shape, fq.shape, hvals)
        np.add.at(rhs, fq.nodes.ravel(), r_el.reshape(-1, m))

    # boundary eigenvalue correction where flow enters a Neumann boundary
    if case.backflow_beta > 0.0:
        _oracle_add_scalar_backflow(case, mesh, ctx, blocks)

    return BlockMatrix(ctx.rows, ctx.cols, blocks, mesh.n_nodes), rhs


def _oracle_facet_velocity(case, mesh, fq, q):
    if callable(case.velocity):
        return np.asarray(case.velocity(fq.points[:, q]), dtype=complex)
    vel = np.asarray(case.velocity, dtype=complex)
    return np.einsum("a,fadm->fdm", fq.shape[q], vel[fq.nodes])


def _oracle_add_scalar_backflow(case, mesh, ctx, blocks):
    n, m = case.n_modes, n_coeffs(case.n_modes)
    for name in case.neumann:
        fq = facet_quadrature(mesh, name)
        k = fq.nodes.shape[1]
        k_el = np.zeros(fq.nodes.shape + (k, m, m), dtype=complex)
        for q in range(fq.shape.shape[0]):
            uq = _oracle_facet_velocity(case, mesh, fq, q)
            un = np.einsum("fdm,fd->fm", uq, fq.normals)
            an_neg = negative_part_batch(convolution_dense(un, n))
            coeff = -0.5 * case.backflow_beta * fq.weights[:, q]
            k_el += np.einsum("f,a,b,frc->fabrc", coeff, fq.shape[q], fq.shape[q], an_neg)
        np.add.at(blocks, ctx.edge_ids(fq.nodes), k_el.reshape(-1, m, m))


def linear_mode_field(rng, shape, dim):
    """Conjugate-symmetric modes affine in the coordinates: pts (P, dim) -> (P,) + shape."""
    base = rng.standard_normal(shape)
    slope = rng.standard_normal((dim,) + shape)
    return lambda pts: modes_from_real(base + np.tensordot(pts, slope, axes=1))


def oracle_case(dim, n_modes, galerkin_only, callable_velocity, beta=0.5):
    """A case with source, uniform and callable Neumann data and backflow on a small mesh."""
    rng = np.random.default_rng(100 * dim + 10 * n_modes + callable_velocity)
    m = n_coeffs(n_modes)
    if dim == 1:
        mesh = generate_interval(1.0, 5)
        dirichlet = {"left": modes_from_real(rng.standard_normal(m))}
        neumann = {"right": modes_from_real(rng.standard_normal(m))}
    else:
        mesh = generate_rect_tri((1.0, 0.8), (3, 2))
        dirichlet = {"xmin": modes_from_real(rng.standard_normal(m)),
                     "ymin": linear_mode_field(rng, (m,), dim)}
        neumann = {"xmax": SpectralCoeffs(n_modes, modes_from_real(rng.standard_normal(m))),
                   "ymax": linear_mode_field(rng, (m,), dim)}
    if callable_velocity:
        velocity = linear_mode_field(rng, (dim, m), dim)
    else:
        velocity = modes_from_real(rng.standard_normal((mesh.n_nodes, dim, m)))
    case = ScalarCase(kappa=1.0, omega=0.9, n_modes=n_modes, velocity=velocity,
                      dirichlet=dirichlet, neumann=neumann, backflow_beta=beta,
                      source=linear_mode_field(rng, (m,), dim), galerkin_only=galerkin_only)
    return case, mesh


def assert_close(got, ref, name):
    scale = np.max(np.abs(ref))
    assert scale > 0.0, name
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale, name


class TestRealBasisAssembly:
    """The real-basis assembly against the complex-mode oracle above."""

    @pytest.mark.parametrize("callable_velocity", [False, True])
    @pytest.mark.parametrize("galerkin_only", [False, True])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
    def test_matches_complex_oracle(self, n_modes, dim, galerkin_only, callable_velocity):
        case, mesh = oracle_case(dim, n_modes, galerkin_only, callable_velocity)
        ref_sys, ref_rhs = complex_assemble_scalar_oracle(case, mesh)
        assert check_block_symmetry(ref_sys.blocks) <= 1e-12
        got_sys, got_rhs = assemble_scalar(case, mesh)
        np.testing.assert_array_equal(got_sys.rows, ref_sys.rows)
        np.testing.assert_array_equal(got_sys.cols, ref_sys.cols)
        assert_close(block_from_orthonormal(got_sys.blocks), block_to_real(ref_sys.blocks),
                     "blocks")
        assert_close(rhs_from_orthonormal(got_rhs), rhs_to_real(ref_rhs), "rhs")

    @pytest.mark.parametrize("dim", [1, 2])
    def test_backflow_term_is_covered(self, dim):
        # the oracle cases have flow entering through their Neumann groups
        case, mesh = oracle_case(dim, 3, False, False)
        no_backflow, _ = oracle_case(dim, 3, False, False, beta=0.0)
        with_bf, _ = complex_assemble_scalar_oracle(case, mesh)
        without, _ = complex_assemble_scalar_oracle(no_backflow, mesh)
        assert np.max(np.abs(with_bf.blocks - without.blocks)) > 1e-3


class TestSharedOperator:
    """The scalar operator is the NS momentum block with rho = 1 and mu = kappa."""

    @pytest.mark.parametrize("n_modes", [1, 3])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_scalar_blocks_equal_ns_velocity_block(self, dim, n_modes):
        rng = np.random.default_rng(10 * dim + n_modes)
        m = n_coeffs(n_modes)
        if dim == 2:
            mesh = generate_rect_tri((1.0, 0.8), (3, 2))
        else:
            mesh = generate_box_tet((1.0, 0.8, 0.6), (2, 2, 1))
        velocity = modes_from_real(rng.standard_normal((mesh.n_nodes, dim, m)))
        case = ScalarCase(kappa=0.5, omega=0.2, n_modes=n_modes, velocity=velocity,
                          dirichlet={"xmin": np.zeros(m, dtype=complex)})
        ns_case = NSCase(rho=1.0, mu=0.5, omega=0.2, n_modes=n_modes)
        state = NSState(velocity, np.zeros((mesh.n_nodes, m), dtype=complex))
        got = block_from_orthonormal(assemble_scalar(case, mesh)[0].blocks)
        ref = assemble_ns_tangent(ns_case, mesh, state).k_real
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestSymmetryAtInput:
    """Data that enters the real-basis assembly is checked for conjugate symmetry."""

    @staticmethod
    def _broken(values):
        values = np.array(values, dtype=complex)
        values[..., 0] += 0.5   # mode -N+1 no longer conj(mode N-1)
        return values

    def test_nodal_velocity_rejected(self):
        case, _ = oracle_case(1, 2, False, False)
        with pytest.raises(ValueError, match="nodal velocity violates conjugate symmetry"):
            ScalarCase(kappa=0.3, omega=1.0, n_modes=2, velocity=self._broken(case.velocity),
                       dirichlet=case.dirichlet)

    def test_velocity_callable_rejected(self):
        case, mesh = oracle_case(2, 2, False, True)
        velocity = case.velocity
        case.velocity = lambda pts: self._broken(velocity(pts))
        with pytest.raises(ValueError, match="velocity callable output violates"):
            assemble_scalar(case, mesh)

    def test_source_callable_rejected(self):
        case, mesh = oracle_case(1, 2, False, False)
        source = case.source
        case.source = lambda pts: self._broken(source(pts))
        with pytest.raises(ValueError, match="source callable output violates"):
            assemble_scalar(case, mesh)

    @pytest.mark.parametrize("group", ["xmax", "ymax"])   # uniform and callable data
    def test_neumann_data_rejected(self, group):
        case, mesh = oracle_case(2, 3, False, False)
        data = case.neumann[group]
        case.neumann[group] = (self._broken(data.values) if group == "xmax"
                               else lambda pts: self._broken(data(pts)))
        with pytest.raises(ValueError, match=f"Neumann data of group '{group}' violates"):
            assemble_scalar(case, mesh)

    def test_probe_field_rejected(self):
        case, mesh = oracle_case(1, 2, False, False, beta=0.0)
        w = np.zeros((mesh.n_nodes, n_coeffs(2)), dtype=complex)
        w[2, 0] = 1.0
        with pytest.raises(ValueError, match="probe field violates"):
            coercivity_probe(case, mesh, w)
