import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsfem.linsolve import (
    AssemblyContext,
    BlockMatrix,
    BlockTangent,
    GmresConfig,
    Segments,
    SortedSegments,
    assembly_context,
    block_jacobi_preconditioner,
    block_to_real,
    build_graph,
    from_real,
    gmres,
    layout_pins,
    pinned_operator,
    rhs_to_real,
    to_real,
)
from tsfem.mesh import generate_box_tet

RNG = np.random.default_rng(321)


def random_symmetric_block(m, rng=RNG):
    """Random complex block with the mode-plane symmetry K[-m,-n] = conj(K[m,n])."""
    r = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return r + np.conj(r[::-1, ::-1])


def random_symmetric_vector(m, rng=RNG):
    r = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return r + np.conj(r[::-1])


def small_block_system(n_nodes, n_modes, rng=RNG, diag_boost=0.0):
    m = 2 * n_modes - 1
    elements = np.column_stack([np.arange(n_nodes - 1), np.arange(1, n_nodes)])
    rows, cols, _ = build_graph(elements, n_nodes)
    blocks = np.stack([random_symmetric_block(m, rng) for _ in rows])
    if diag_boost:
        blocks[rows == cols] += diag_boost * np.eye(m)
    rhs = np.stack([random_symmetric_vector(m, rng) for _ in range(n_nodes)])
    return BlockMatrix(rows, cols, blocks, n_nodes), rhs


def steady_imag_pins(n_nodes, ncomp, n_modes):
    pins = np.zeros((n_nodes, ncomp, 2 * n_modes), dtype=bool)
    pins[:, :, 1] = True
    return pins.ravel()


class TestRealMapping:
    def test_round_trip_is_identity(self):
        x = np.stack([random_symmetric_vector(7) for _ in range(5)])
        z = rhs_to_real(x)
        np.testing.assert_allclose(from_real(z), x, atol=1e-15)

    def test_n1_steady_problem(self):
        sys_c, rhs = small_block_system(3, 1, diag_boost=4.0)
        real_sys, real_rhs = to_real(sys_c, rhs)
        assert real_sys.block_size == 2
        dense = real_sys.to_dense()
        # steady imag rows/columns carry no coupling before pinning
        np.testing.assert_allclose(dense[1::2, 0::2], 0.0, atol=1e-14)

    def test_real_solve_matches_complex_dense(self):
        n_nodes, n_modes = 4, 3
        sys_c, rhs = small_block_system(n_nodes, n_modes, diag_boost=8.0)
        x_complex = np.linalg.solve(sys_c.to_dense(), rhs.ravel()).reshape(n_nodes, -1)

        real_sys, real_rhs = to_real(sys_c, rhs)
        pins = steady_imag_pins(n_nodes, 1, n_modes)
        real_rhs[pins] = 0.0
        op = pinned_operator(real_sys.matvec, pins)
        res = gmres(op, real_rhs, GmresConfig(restart=60, tol=1e-13, max_matvecs=500),
                    precond=block_jacobi_preconditioner(real_sys, pins))
        assert res.converged
        x_back = from_real(res.x.reshape(n_nodes, -1))
        np.testing.assert_allclose(x_back, x_complex, atol=1e-10)

    def test_symmetry_violation_rejected(self):
        sys_c, rhs = small_block_system(3, 2)
        sys_c.blocks[0, 0, 1] += 1.0  # break the mode-plane symmetry
        with pytest.raises(ValueError, match="symmetry"):
            to_real(sys_c, rhs)

    def test_block_to_real_matches_complex_action(self):
        # acting on a conjugate-symmetric vector commutes with the mapping
        for n_modes in (1, 2, 4):
            m = 2 * n_modes - 1
            k = random_symmetric_block(m)
            x = random_symmetric_vector(m)
            y = k @ x
            t = block_to_real(k)
            z = t @ rhs_to_real(x)
            np.testing.assert_allclose(z, rhs_to_real(y), atol=1e-12)


def random_tangent(n_nodes, dim, n_modes, rng=RNG):
    elements = np.column_stack([np.arange(n_nodes - 1), np.arange(1, n_nodes)])
    rows, cols, _ = build_graph(elements, n_nodes)
    e = rows.shape[0]
    n2 = 2 * n_modes
    return BlockTangent(
        rows, cols, n_nodes, dim, n_modes,
        k_real=rng.standard_normal((e, n2, n2)),
        l_real=rng.standard_normal((e, n2, n2)),
        g_diag=rng.standard_normal((e, dim)),
        d_diag=rng.standard_normal((e, dim)),
    )


def dense_tangent_oracle(tg):
    """Plain-loop dense expansion, independent of the vectorized matvec."""
    d, n = tg.dim, tg.n_modes
    n2 = 2 * n
    b = (d + 1) * n2
    dense = np.zeros((tg.n_nodes * b, tg.n_nodes * b))
    for e in range(len(tg.rows)):
        r0, c0 = tg.rows[e] * b, tg.cols[e] * b
        for i in range(d):
            dense[r0 + i * n2:r0 + i * n2 + n2, c0 + i * n2:c0 + i * n2 + n2] += tg.k_real[e]
            for slot in range(n2):
                dense[r0 + i * n2 + slot, c0 + d * n2 + slot] += tg.g_diag[e, i]
                dense[r0 + d * n2 + slot, c0 + i * n2 + slot] += tg.d_diag[e, i]
        dense[r0 + d * n2:r0 + b, c0 + d * n2:c0 + b] += tg.l_real[e]
    return dense


class TestSegments:
    def test_matches_add_at(self):
        keys = RNG.integers(0, 7, size=40)
        values = RNG.standard_normal((40, 3))
        ref = np.zeros((9, 3))
        np.add.at(ref, keys, values)
        for plan in (Segments, SortedSegments):
            out = np.zeros((9, 3))
            plan.of(keys).add_to(out, values)
            np.testing.assert_allclose(out, ref, atol=1e-14)

    @settings(max_examples=80, deadline=None)
    @given(counts=st.lists(st.integers(0, 30), min_size=1, max_size=12),
           trailing=st.lists(st.integers(1, 3), max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_property_matches_add_at(self, counts, trailing, seed):
        # key k repeats counts[k] times (segments of up to 30 entries), in a
        # random order; out starts nonzero, as it does across element chunks
        rng = np.random.default_rng(seed)
        keys = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        values = rng.standard_normal((keys.size, *trailing))
        start = rng.standard_normal((len(counts) + 1, *trailing))
        ref = start.copy()
        np.add.at(ref, keys, values)
        ref0 = np.zeros_like(start)
        np.add.at(ref0, keys, values)
        for plan in (Segments, SortedSegments):
            out = start.copy()
            seg = plan.of(keys)
            seg.add_to(out, values)
            np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-12)
            out0 = np.zeros_like(start)
            seg.add_to(out0, values)
            if plan is Segments:
                # each key's values summed in their original order: exact from zero
                np.testing.assert_array_equal(out0, ref0)
                assert len(seg.ranks) == max(counts)
            else:
                # one run per key, each in the values' original order
                assert np.array_equal(seg.ids, np.flatnonzero(np.bincount(keys)))
                runs = np.split(seg.order, seg.starts[1:])
                assert all(np.all(np.diff(run) > 0) for run in runs)
                assert all(np.all(keys[run] == k) for run, k in zip(runs, seg.ids))
                np.testing.assert_allclose(out0, ref0, rtol=0.0, atol=1e-12)

    def test_assembly_context_picks_the_plan_by_key(self):
        mesh = generate_box_tet((1.0, 1.0, 1.0), (2, 1, 1))
        ctx = assembly_context(mesh, build_graph)
        for _, node_seg, edge_seg in ctx.chunks:
            assert isinstance(node_seg, SortedSegments) and isinstance(edge_seg, Segments)


class TestBlockTangent:
    def test_zero_vector(self):
        tg = random_tangent(3, 3, 2)
        np.testing.assert_array_equal(tg.matvec(np.zeros(tg.n_dof)), np.zeros(tg.n_dof))

    def test_matvec_matches_dense_oracle(self):
        for n_nodes, dim, n_modes in [(2, 3, 2), (4, 2, 3), (3, 3, 4), (2, 1, 1)]:
            tg = random_tangent(n_nodes, dim, n_modes)
            dense = dense_tangent_oracle(tg)
            x = RNG.standard_normal(tg.n_dof)
            y = tg.matvec(x)
            ref = dense @ x
            assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)
            np.testing.assert_allclose(tg.to_dense(), dense, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(n_nodes=st.integers(2, 8), nen=st.integers(2, 4), dim=st.integers(1, 3),
           n_modes=st.integers(1, 4), full=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matvec_matches_to_dense_property(self, n_nodes, nen, dim, n_modes, full, seed):
        rng = np.random.default_rng(seed)
        elements = np.array([rng.choice(n_nodes, size=min(nen, n_nodes), replace=False)
                             for _ in range(rng.integers(1, 6))])
        rows, cols, _ = build_graph(elements, n_nodes)
        e, n2 = rows.shape[0], 2 * n_modes
        tg = BlockTangent(
            rows, cols, n_nodes, dim, n_modes,
            k_real=rng.standard_normal((e, n2, n2)),
            l_real=rng.standard_normal((e, n2, n2)),
            g_diag=rng.standard_normal((e, dim)),
            d_diag=rng.standard_normal((e, dim)),
            g_full=rng.standard_normal((e, dim, n2, n2)) if full else None,
            d_full=rng.standard_normal((e, dim, n2, n2)) if full else None,
        )
        x = rng.standard_normal(tg.n_dof)
        ref = tg.to_dense() @ x
        assert np.linalg.norm(tg.matvec(x) - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)

    def test_unsorted_rows_rejected(self):
        tg = random_tangent(3, 2, 2)
        with pytest.raises(ValueError, match="sorted"):
            BlockTangent(tg.rows[::-1], tg.cols[::-1], 3, 2, 2, tg.k_real, tg.l_real,
                         tg.g_diag, tg.d_diag)

    def test_identity_momentum_pass_through(self):
        tg = random_tangent(3, 3, 2)
        n2 = 2 * tg.n_modes
        tg.k_real[:] = 0.0
        tg.k_real[tg.rows == tg.cols] = np.eye(n2)
        tg.l_real[:] = 0.0
        tg.g_diag[:] = 0.0
        tg.d_diag[:] = 0.0
        x = RNG.standard_normal(tg.n_dof)
        y = tg.matvec(x).reshape(3, 4, n2)
        xr = x.reshape(3, 4, n2)
        np.testing.assert_allclose(y[:, :3], xr[:, :3], atol=1e-14)
        np.testing.assert_allclose(y[:, 3], 0.0, atol=1e-14)

    def test_memory_accounting(self):
        for n_modes in (1, 2, 4, 7):
            tg = random_tangent(3, 3, n_modes)
            rep = tg.size_report()
            assert rep["stored_per_edge"] <= rep["budget_per_edge"] < rep["naive_per_edge"]

    def test_diag_blocks_match_dense(self):
        tg = random_tangent(3, 2, 2)
        dense = dense_tangent_oracle(tg)
        b = (tg.dim + 1) * 2 * tg.n_modes
        diag = tg.diag_blocks()
        for node in range(3):
            np.testing.assert_allclose(
                diag[node], dense[node * b:(node + 1) * b, node * b:(node + 1) * b],
                atol=1e-13)
        # exact mode-coupled gradient/divergence blocks
        e, n2 = tg.rows.shape[0], 2 * tg.n_modes
        tg.g_full = RNG.standard_normal((e, tg.dim, n2, n2))
        tg.d_full = RNG.standard_normal((e, tg.dim, n2, n2))
        dense = tg.to_dense()
        diag = tg.diag_blocks()
        for node in range(3):
            np.testing.assert_allclose(
                diag[node], dense[node * b:(node + 1) * b, node * b:(node + 1) * b],
                atol=1e-13)


class TestBlockMatrix:
    @settings(max_examples=80, deadline=None)
    @given(n_nodes=st.integers(1, 8), idle=st.integers(0, 3), nen=st.integers(1, 4),
           b=st.integers(1, 5), complex_blocks=st.booleans(), complex_x=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matvec_matches_to_dense_property(self, n_nodes, idle, nen, b, complex_blocks,
                                              complex_x, seed):
        # the elements use the first n_nodes nodes only: the idle ones own no row
        rng = np.random.default_rng(seed)
        elements = np.array([rng.choice(n_nodes, size=min(nen, n_nodes), replace=False)
                             for _ in range(rng.integers(1, 6))])
        total = n_nodes + idle
        rows, cols, _ = build_graph(elements, total)
        blocks = rng.standard_normal((rows.shape[0], b, b))
        x = rng.standard_normal(total * b)
        if complex_blocks:
            blocks = blocks + 1j * rng.standard_normal(blocks.shape)
        if complex_x:
            x = x + 1j * rng.standard_normal(x.shape)
        sys = BlockMatrix(rows, cols, blocks, total)
        np.testing.assert_array_equal(sys.blocks, blocks)
        ref = sys.to_dense() @ x
        y = sys.matvec(x)
        assert y.shape == ref.shape and np.iscomplexobj(y) == (complex_blocks or complex_x)
        assert np.linalg.norm(y - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)
        assert not np.any(y.reshape(total, b)[n_nodes:])

    def test_matvec_follows_blocks_changed_in_place(self):
        sys, _ = small_block_system(3, 2)
        sys.blocks[0] += 1.0
        x = RNG.standard_normal(sys.n_nodes * sys.block_size)
        np.testing.assert_allclose(sys.matvec(x), sys.to_dense() @ x, rtol=1e-12, atol=1e-12)

    def test_unsorted_rows_rejected(self):
        sys, _ = small_block_system(3, 2)
        with pytest.raises(ValueError, match="sorted"):
            BlockMatrix(sys.rows[::-1], sys.cols[::-1], sys.blocks, 3)


class TestAssemblyContext:
    def test_edge_ids_match_graph(self):
        elements = np.array([[0, 3, 1], [1, 3, 4], [4, 2, 1]])
        rows, cols, edge_of = build_graph(elements, 5)
        ctx = AssemblyContext.build(elements, 5, (rows, cols, edge_of))
        np.testing.assert_array_equal(ctx.edge_ids(elements), edge_of.ravel())
        facets = elements[:, :2]
        ids = ctx.edge_ids(facets)
        pairs = [(r, c) for f in facets for r in f for c in f]
        np.testing.assert_array_equal(rows[ids], [p[0] for p in pairs])
        np.testing.assert_array_equal(cols[ids], [p[1] for p in pairs])


class TestGmres:
    def test_identity_converges_immediately(self):
        b = RNG.standard_normal(10)
        res = gmres(lambda x: x, b, GmresConfig(restart=5, tol=1e-12, max_matvecs=50))
        assert res.converged and res.matvecs <= 3
        np.testing.assert_allclose(res.x, b, atol=1e-12)

    def test_spd_matches_direct_solve(self):
        a = RNG.standard_normal((50, 50))
        a = a @ a.T + 50 * np.eye(50)
        b = RNG.standard_normal(50)
        res = gmres(lambda x: a @ x, b, GmresConfig(restart=50, tol=1e-8, max_matvecs=2000))
        assert res.converged
        np.testing.assert_allclose(res.x, np.linalg.solve(a, b), atol=1e-7)

    def test_restart_two_still_converges(self):
        a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 5.0]])
        b = np.array([1.0, 2.0, 3.0])
        res = gmres(lambda x: a @ x, b, GmresConfig(restart=2, tol=1e-10, max_matvecs=500))
        assert res.converged
        np.testing.assert_allclose(res.x, np.linalg.solve(a, b), atol=1e-8)

    def test_reported_residual_is_true_residual(self):
        a = RNG.standard_normal((30, 30)) + 10 * np.eye(30)
        b = RNG.standard_normal(30)
        tol = 1e-6
        res = gmres(lambda x: a @ x, b, GmresConfig(restart=10, tol=tol, max_matvecs=1000))
        assert res.converged
        assert np.linalg.norm(a @ res.x - b) <= tol * np.linalg.norm(b) * 1.01

    def test_history_non_increasing(self):
        a = RNG.standard_normal((40, 40)) + 8 * np.eye(40)
        b = RNG.standard_normal(40)
        res = gmres(lambda x: a @ x, b, GmresConfig(restart=7, tol=1e-9, max_matvecs=2000))
        hist = np.array(res.residuals)
        assert np.all(np.diff(hist) <= 1e-9 * hist[0])

    def test_nan_aborts_with_diagnostics(self):
        def bad(x):
            return np.full_like(x, np.nan)

        with pytest.raises(RuntimeError, match="matvec"):
            gmres(bad, np.ones(4), GmresConfig(restart=3, tol=1e-8, max_matvecs=10))

    def test_zero_rhs(self):
        res = gmres(lambda x: x, np.zeros(5))
        assert res.converged and np.all(res.x == 0.0)


class TestBlockJacobi:
    def test_diagonal_system_converges_in_one_iteration(self):
        n_nodes, m = 4, 3
        rows = cols = np.arange(n_nodes)
        blocks = np.stack([np.diag(RNG.uniform(1, 3, m)) for _ in range(n_nodes)])
        sys_r = BlockMatrix(rows, cols, blocks, n_nodes)
        b = RNG.standard_normal(n_nodes * m)
        pre = block_jacobi_preconditioner(sys_r)
        res = gmres(sys_r.matvec, b, GmresConfig(restart=20, tol=1e-12, max_matvecs=50), precond=pre)
        assert res.converged and res.matvecs <= 3

    def test_linearity(self):
        tg = random_tangent(3, 2, 2)
        tg.k_real += 5 * np.eye(2 * tg.n_modes)
        tg.l_real += 5 * np.eye(2 * tg.n_modes)
        pre = block_jacobi_preconditioner(tg)
        x = RNG.standard_normal(tg.n_dof)
        y = RNG.standard_normal(tg.n_dof)
        a, bcoef = 0.7, -1.3
        lhs = pre(a * x + bcoef * y)
        rhs = a * pre(x) + bcoef * pre(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13 * np.max(np.abs(rhs)))

    def test_singular_block_falls_back_with_warning(self):
        n_nodes, m = 2, 2
        rows = cols = np.arange(n_nodes)
        blocks = np.stack([np.eye(m), np.zeros((m, m))])
        sys_r = BlockMatrix(rows, cols, blocks, n_nodes)
        with pytest.warns(UserWarning, match="singular"):
            pre = block_jacobi_preconditioner(sys_r)
        out = pre(np.ones(n_nodes * m))
        assert np.all(np.isfinite(out))


def pinned_diag_blocks(tg, pins):
    """Dense oracle: the diag_blocks() of a tangent, pinned slot by slot."""
    blocks = tg.diag_blocks().copy()
    n, b = blocks.shape[0], blocks.shape[-1]
    for node, slot in zip(*np.nonzero(pins.reshape(n, b))):
        blocks[node, slot, :] = 0.0
        blocks[node, :, slot] = 0.0
        blocks[node, slot, slot] = 1.0
    return blocks


class TestSchurBlockJacobi:
    @settings(max_examples=60, deadline=None)
    @given(n_nodes=st.integers(2, 6), dim=st.integers(1, 3), n_modes=st.integers(1, 4),
           full=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_pinned_block_solve(self, n_nodes, dim, n_modes, full, seed):
        rng = np.random.default_rng(seed)
        tg = random_tangent(n_nodes, dim, n_modes, rng=rng)
        e, n2 = tg.rows.shape[0], 2 * n_modes
        # diagonally dominant K and L keep K and the Schur complement regular
        tg.k_real += 3 * n2 * np.eye(n2)
        tg.l_real += 3 * (dim + 1) * n2 * np.eye(n2)
        if full:
            tg.g_full = rng.standard_normal((e, dim, n2, n2))
            tg.d_full = rng.standard_normal((e, dim, n2, n2))
        dir_nodes = np.flatnonzero(rng.random(n_nodes) < 0.4)   # whole-velocity pins
        pins = layout_pins(n_nodes, n_modes, dir_nodes, dim + 1, dim)
        r = rng.standard_normal(tg.n_dof)
        blocks = pinned_diag_blocks(tg, pins)
        ref = np.linalg.solve(blocks, r.reshape(n_nodes, -1, 1)).ravel()
        got = block_jacobi_preconditioner(tg, pins)(r)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_singular_k_falls_back_with_warning(self):
        tg = random_tangent(3, 2, 2)
        n2 = 2 * tg.n_modes
        tg.k_real += 3 * n2 * np.eye(n2)
        tg.l_real += 9 * n2 * np.eye(n2)
        tg.k_real[(tg.rows == 1) & (tg.cols == 1)] = 0.0
        pins = layout_pins(3, tg.n_modes, np.array([], dtype=int), tg.dim + 1, tg.dim)
        with pytest.warns(UserWarning, match="singular"):
            pre = block_jacobi_preconditioner(tg, pins)
        r = RNG.standard_normal(tg.n_dof)
        out = pre(r)
        assert np.all(np.isfinite(out))
        blocks = pinned_diag_blocks(tg, pins)
        regular = [0, 2]
        ref = np.linalg.solve(blocks[regular], r.reshape(3, -1, 1)[regular])[..., 0]
        assert np.linalg.norm(out.reshape(3, -1)[regular] - ref) <= 1e-10 * np.linalg.norm(ref)
        # the singular node gets the identity scaled by its largest diagonal entry
        scale = np.max(np.abs(np.diag(blocks[1])))
        np.testing.assert_allclose(out.reshape(3, -1)[1], r.reshape(3, -1)[1] / scale)

    def test_unlike_velocity_pins_rejected(self):
        tg = random_tangent(3, 2, 2)
        pins = np.zeros((3, tg.dim + 1, 2 * tg.n_modes), dtype=bool)
        pins[0, 0, :] = True            # one velocity direction of node 0 only
        with pytest.raises(ValueError, match="velocity direction"):
            block_jacobi_preconditioner(tg, pins.ravel())


class TestPinnedOperator:
    def test_pins_act_as_identity(self):
        a = RNG.standard_normal((6, 6)) + 6 * np.eye(6)
        pins = np.array([False, True, False, False, True, False])
        op = pinned_operator(lambda x: a @ x, pins)
        b = RNG.standard_normal(6)
        b[pins] = 0.0
        res = gmres(op, b, GmresConfig(restart=6, tol=1e-12, max_matvecs=100))
        assert res.converged
        assert np.all(res.x[pins] == 0.0)
        reduced = a[np.ix_(~pins, ~pins)]
        np.testing.assert_allclose(res.x[~pins], np.linalg.solve(reduced, b[~pins]), atol=1e-9)
