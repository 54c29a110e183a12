import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tsfem.linsolve as linsolve
from tsfem.linsolve import (
    AssemblyContext,
    BlockMatrix,
    BlockTangent,
    GmresConfig,
    LevelPlan,
    Segments,
    SortedSegments,
    assembly_context,
    block_jacobi_preconditioner,
    build_graph,
    gmres,
    layout_pins,
    level_lu_preconditioner,
    pinned_operator,
)
from tsfem.mesh import (
    generate_bent_channel_tet,
    generate_box_tet,
    generate_interval,
    generate_rect_tri,
)
from tsfem.spectral import modes_from_real, modes_to_real, real_basis

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


def real_system(system: BlockMatrix, rhs: np.ndarray):
    """The solve layout of a complex conjugate-symmetric block system and its rhs.

    The blocks are real_basis(N).matrix of the complex ones, which rejects
    blocks without the mode-plane symmetry, and the rhs is modes_to_real of
    the complex modes, flattened.
    """
    n_modes = (system.block_size + 1) // 2
    return (BlockMatrix(system.rows, system.cols, real_basis(n_modes).matrix(system.blocks),
                        system.n_nodes),
            modes_to_real(rhs).ravel())


class TestRealMapping:
    """Complex mode-coupled systems solved in the real layout (real_basis(N).matrix)."""

    def test_n1_steady_problem(self):
        # a steady system is real: one slot per node, the real part of the complex one
        sys_c, rhs = small_block_system(3, 1, diag_boost=4.0)
        real_sys, real_rhs = real_system(sys_c, rhs)
        assert real_sys.block_size == 1
        np.testing.assert_array_equal(real_sys.to_dense(), sys_c.to_dense().real)
        np.testing.assert_array_equal(real_rhs, rhs.real.ravel())

    def test_real_solve_matches_complex_dense(self):
        n_nodes, n_modes = 4, 3
        sys_c, rhs = small_block_system(n_nodes, n_modes, diag_boost=8.0)
        x_complex = np.linalg.solve(sys_c.to_dense(), rhs.ravel()).reshape(n_nodes, -1)

        real_sys, real_rhs = real_system(sys_c, rhs)
        res = gmres(real_sys.matvec, real_rhs, GmresConfig(restart=60, tol=1e-13, max_matvecs=500),
                    precond=level_lu_preconditioner(real_sys))
        assert res.converged
        x_back = modes_from_real(res.x.reshape(n_nodes, -1))
        np.testing.assert_allclose(x_back, x_complex, atol=1e-10)

    def test_real_basis_matches_complex_action(self):
        # acting on a conjugate-symmetric vector commutes with the mapping
        for n_modes in (1, 2, 4):
            m = 2 * n_modes - 1
            k = random_symmetric_block(m)
            x = random_symmetric_vector(m)
            y = k @ x
            t = real_basis(n_modes).matrix(k)
            z = t @ modes_to_real(x)
            np.testing.assert_allclose(z, modes_to_real(y), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n_modes=st.integers(1, 7), n_nodes=st.integers(1, 4), dim=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_layout_maps_property(self, n_modes, n_nodes, dim, seed):
        # the layout holds 2N-1 reals per component, and the real forms of
        # batched complex blocks act on it as the blocks act on the modes
        rng = np.random.default_rng(seed)
        m = 2 * n_modes - 1
        big = np.stack([random_symmetric_block(m, rng) for _ in range(n_nodes)])
        z = modes_from_real(rng.standard_normal((n_nodes, m)))
        lhs = np.einsum("nij,nj->ni", real_basis(n_modes).matrix(big), modes_to_real(z))
        ref = modes_to_real(np.einsum("nij,nj->ni", big, z))
        np.testing.assert_allclose(lhs, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
        tg = random_tangent(n_nodes + 1, dim, n_modes, rng=rng)
        assert tg.n_dof == (n_nodes + 1) * (dim + 1) * m
        assert tg.matvec(np.ones(tg.n_dof)).shape == (tg.n_dof,)


def random_tangent(n_nodes, dim, n_modes, rng=RNG):
    elements = np.column_stack([np.arange(n_nodes - 1), np.arange(1, n_nodes)])
    rows, cols, _ = build_graph(elements, n_nodes)
    e = rows.shape[0]
    m = 2 * n_modes - 1
    return BlockTangent(
        rows, cols, n_nodes, dim, n_modes,
        k_real=rng.standard_normal((e, m, m)),
        l_real=rng.standard_normal((e, m, m)),
        g_diag=rng.standard_normal((e, dim)),
        d_diag=rng.standard_normal((e, dim)),
    )


def dense_tangent_oracle(tg):
    """Plain-loop dense expansion, independent of the vectorized matvec."""
    d, m = tg.dim, 2 * tg.n_modes - 1
    b = (d + 1) * m
    dense = np.zeros((tg.n_nodes * b, tg.n_nodes * b))
    for e in range(len(tg.rows)):
        r0, c0 = tg.rows[e] * b, tg.cols[e] * b
        for i in range(d):
            dense[r0 + i * m:r0 + i * m + m, c0 + i * m:c0 + i * m + m] += tg.k_real[e]
            for slot in range(m):
                dense[r0 + i * m + slot, c0 + d * m + slot] += tg.g_diag[e, i]
                dense[r0 + d * m + slot, c0 + i * m + slot] += tg.d_diag[e, i]
        dense[r0 + d * m:r0 + b, c0 + d * m:c0 + b] += tg.l_real[e]
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
        # random order; out starts nonzero, as it does when several terms add to it
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
        assert isinstance(ctx.nodes, SortedSegments) and isinstance(ctx.edges, Segments)


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
        e, m = rows.shape[0], 2 * n_modes - 1
        tg = BlockTangent(
            rows, cols, n_nodes, dim, n_modes,
            k_real=rng.standard_normal((e, m, m)),
            l_real=rng.standard_normal((e, m, m)),
            g_diag=rng.standard_normal((e, dim)),
            d_diag=rng.standard_normal((e, dim)),
            g_full=rng.standard_normal((e, dim, m, m)) if full else None,
            d_full=rng.standard_normal((e, dim, m, m)) if full else None,
        )
        x = rng.standard_normal(tg.n_dof)
        ref = tg.to_dense() @ x
        assert np.linalg.norm(tg.matvec(x) - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)

    def test_unsorted_rows_rejected(self):
        tg = random_tangent(3, 2, 2)
        with pytest.raises(ValueError, match="sorted"):
            BlockTangent(tg.rows[::-1], tg.cols[::-1], 3, 2, 2, tg.k_real, tg.l_real,
                         tg.g_diag, tg.d_diag)

    def test_element_operator_without_edge_blocks(self):
        # the NS Newton operator: no edge blocks, the elements give the whole product
        tg = random_tangent(4, 2, 3)
        dense = dense_tangent_oracle(tg)

        class Elements:
            def add_to(self, x, y):
                y += (dense @ x.ravel()).reshape(y.shape)

        op = BlockTangent(tg.rows, tg.cols, 4, 2, 3, elements=Elements())
        assert not op.has_edges and tg.has_edges
        x = RNG.standard_normal(op.n_dof)
        np.testing.assert_allclose(op.matvec(x), tg.matvec(x), rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError, match="edge blocks"):
            op.to_dense()
        with pytest.raises(ValueError, match="edge blocks"):
            block_jacobi_preconditioner(op)

    def test_identity_momentum_pass_through(self):
        tg = random_tangent(3, 3, 2)
        m = 2 * tg.n_modes - 1
        tg.k_real[:] = 0.0
        tg.k_real[tg.rows == tg.cols] = np.eye(m)
        tg.l_real[:] = 0.0
        tg.g_diag[:] = 0.0
        tg.d_diag[:] = 0.0
        x = RNG.standard_normal(tg.n_dof)
        y = tg.matvec(x).reshape(3, 4, m)
        xr = x.reshape(3, 4, m)
        np.testing.assert_allclose(y[:, :3], xr[:, :3], atol=1e-14)
        np.testing.assert_allclose(y[:, 3], 0.0, atol=1e-14)


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

    def test_last_residual_is_the_true_one_reached(self):
        # ill-conditioned: a full Krylov cycle drives the rotation estimate to rounding
        # level while the true residual of the iterate stays near eps * cond ||b||
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        a = (q * np.logspace(0, 12, 30)) @ q.T
        b = rng.standard_normal(30)
        res = gmres(lambda x: a @ x, b, GmresConfig(restart=30, tol=1e-15, max_matvecs=31))
        assert not res.converged and res.matvecs == 31
        np.testing.assert_allclose(res.residuals[-1], np.linalg.norm(b - a @ res.x), rtol=1e-12)

    def test_matvecs_counted_and_capped(self):
        # the start residual is b: one Arnoldi step and the final b - Ax
        calls = []

        def identity(x):
            calls.append(1)
            return x

        res = gmres(identity, RNG.standard_normal(10), GmresConfig(restart=5, tol=1e-12))
        assert res.converged and res.matvecs == len(calls) == 2
        a = RNG.standard_normal((40, 40)) + 2 * np.eye(40)
        b = RNG.standard_normal(40)
        for cap in (1, 2, 3, 7, 12):
            calls.clear()
            res = gmres(lambda x: calls.append(1) or a @ x, b,
                        GmresConfig(restart=5, tol=1e-14, max_matvecs=cap))
            assert not res.converged and res.matvecs == len(calls) <= cap
            # the last residual is the true one of the returned x, not a rotation estimate
            np.testing.assert_allclose(np.linalg.norm(a @ res.x - b), res.residuals[-1],
                                       rtol=1e-12)


MESH_GENERATORS = {
    "interval": lambda r: generate_interval(1.0, 1 + r[0] * 5),
    "rect_tri": lambda r: generate_rect_tri((1.0, 1.0), (r[0], r[1])),
    "bent_channel": lambda r: generate_bent_channel_tet(3.0, 1.0, 1.0, r, bend_angle=1.0),
}


class TestLevelLU:
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(sorted(MESH_GENERATORS)),
           res=st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 3)))
    def test_edges_join_same_or_adjacent_levels(self, kind, res):
        mesh = MESH_GENERATORS[kind](res)
        rows, cols, _ = build_graph(mesh.elements, mesh.n_nodes)
        plan = LevelPlan.of(rows, cols, mesh.n_nodes)
        assert np.all(np.abs(plan.level[rows] - plan.level[cols]) <= 1)
        # every node has one place: the (level, slot) pairs are distinct and dense
        counts = np.bincount(plan.level, minlength=plan.n_levels)
        places = plan.level * counts.max() + plan.slot
        assert np.unique(places).size == mesh.n_nodes
        assert counts.size == plan.n_levels and np.all(counts >= 1)
        assert np.all(plan.slot < counts[plan.level])

    def test_interval_is_rooted_at_an_end(self):
        # a path graph: a pseudo-peripheral root gives one node per level
        mesh = generate_interval(1.0, 17)
        rows, cols, _ = build_graph(mesh.elements, mesh.n_nodes)
        plan = LevelPlan.of(rows, cols, mesh.n_nodes)
        assert plan.n_levels == mesh.n_nodes and np.bincount(plan.level).max() == 1

    @settings(max_examples=60, deadline=None)
    @given(n_nodes=st.integers(1, 9), idle=st.integers(0, 2), nen=st.integers(1, 4),
           b=st.integers(1, 4), pin_share=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_apply_solves_pinned_system(self, n_nodes, idle, nen, b, pin_share, seed):
        # random graphs, idle nodes and several components included
        rng = np.random.default_rng(seed)
        elements = np.array([rng.choice(n_nodes, size=min(nen, n_nodes), replace=False)
                             for _ in range(rng.integers(1, 6))])
        total = n_nodes + idle
        rows, cols, _ = build_graph(elements, total)
        # every node, idle ones too, gets a self-edge, which keeps the system regular
        keys = np.unique(np.r_[rows * total + cols, np.arange(total) * (total + 1)])
        rows, cols = keys // total, keys % total
        blocks = rng.standard_normal((rows.size, b, b))
        blocks[rows == cols] += 4 * b * np.eye(b)
        sys_r = BlockMatrix(rows, cols, blocks, total)
        pins = rng.random(total * b) < pin_share
        dense = sys_r.to_dense()
        dense[pins, :] = 0.0
        dense[:, pins] = 0.0
        dense[pins, pins] = 1.0
        r = rng.standard_normal(total * b)
        ref = np.linalg.solve(dense, r)
        got = level_lu_preconditioner(sys_r, pins)(r)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_diagonal_system_converges_in_one_iteration(self):
        n_nodes, m = 4, 3
        rows = cols = np.arange(n_nodes)
        blocks = np.stack([np.diag(RNG.uniform(1, 3, m)) for _ in range(n_nodes)])
        sys_r = BlockMatrix(rows, cols, blocks, n_nodes)
        b = RNG.standard_normal(n_nodes * m)
        pre = level_lu_preconditioner(sys_r)
        res = gmres(sys_r.matvec, b, GmresConfig(restart=20, tol=1e-12, max_matvecs=50), precond=pre)
        assert res.converged and res.matvecs <= 3

    def test_singular_level_falls_back_with_warning(self):
        # a path 0-1-2 rooted at node 0: node 1's zero block is level 1's
        n_nodes, m = 3, 2
        rows, cols, _ = build_graph(np.array([[0, 1], [1, 2]]), n_nodes)
        blocks = np.zeros((rows.size, m, m))
        blocks[rows == cols] = np.eye(m)
        blocks[(rows == 1) & (cols == 1)] = 0.0
        sys_r = BlockMatrix(rows, cols, blocks, n_nodes)
        plan = LevelPlan.of(rows, cols, n_nodes)
        assert plan.level[1] == 1
        with pytest.warns(UserWarning, match="singular level block at level 1 "):
            pre = level_lu_preconditioner(sys_r, plan=plan)
        out = pre(np.ones(n_nodes * m))
        assert np.all(np.isfinite(out))

    def test_plan_not_fitting_the_graph_rejected(self):
        rows, cols, _ = build_graph(np.array([[0, 1], [1, 2]]), 3)
        sys_r = BlockMatrix(rows, cols, np.where(rows == cols, 3.0, 1.0)[:, None, None], 3)
        plan = LevelPlan(np.array([0, 1, 2]), np.zeros(3, dtype=int), 3)
        skipping = LevelPlan(np.array([0, 2, 1]), np.zeros(3, dtype=int), 3)
        level_lu_preconditioner(sys_r, plan=plan)
        with pytest.raises(ValueError, match="skips a level"):
            level_lu_preconditioner(sys_r, plan=skipping)

    def test_block_matrix_rejected_by_block_jacobi(self):
        sys_r, _ = small_block_system(3, 1)
        with pytest.raises(TypeError, match="level_lu_preconditioner"):
            block_jacobi_preconditioner(sys_r)


def mesh_tangent(mesh, n_modes, full, rng):
    """Random BlockTangent on a mesh graph whose harmonic blocks are diagonally dominant."""
    rows, cols, _ = build_graph(mesh.elements, mesh.n_nodes)
    e, m, dim = rows.shape[0], 2 * n_modes - 1, mesh.dim
    tg = BlockTangent(rows, cols, mesh.n_nodes, dim, n_modes,
                      k_real=rng.standard_normal((e, m, m)),
                      l_real=rng.standard_normal((e, m, m)),
                      g_diag=rng.standard_normal((e, dim)),
                      d_diag=rng.standard_normal((e, dim)),
                      g_full=rng.standard_normal((e, dim, m, m)) if full else None,
                      d_full=rng.standard_normal((e, dim, m, m)) if full else None)
    boost = 4 * (dim + 1) * np.bincount(rows).max() * np.eye(m)
    tg.k_real[rows == cols] += boost
    tg.l_real[rows == cols] += boost
    return tg


def pinned_harmonic_dense(tg, pins):
    """Dense oracle: the edge operator without the coupling between harmonics, pinned."""
    harmonic = np.tile((np.arange(tg.n_slots) + 1) // 2, tg.n_nodes * (tg.dim + 1))
    dense = tg.to_dense() * (harmonic[:, None] == harmonic[None, :])
    dense[pins, :] = 0.0
    dense[:, pins] = 0.0
    dense[pins, pins] = 1.0
    return dense


# a bent channel whose widest level holds 41 nodes, 328 pair-block unknowns: wider than
# those of the bundled and acceptance meshes (at most 248)
WIDE_CHANNEL = (6, 5, 5)


class TestBlockJacobi:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(MESH_GENERATORS)),
           res=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2)),
           n_modes=st.integers(1, 4), full=st.booleans(), pin_share=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(kind="bent_channel", res=WIDE_CHANNEL, n_modes=1, full=False, pin_share=0.3,
             seed=11)
    def test_harmonic_blocks_solve_pinned_edge_operator(self, kind, res, n_modes, full,
                                                       pin_share, seed):
        # dim 1-3 meshes, the production (g_diag) and verification (g_full) forms
        rng = np.random.default_rng(seed)
        mesh = MESH_GENERATORS[kind](res)
        tg = mesh_tangent(mesh, n_modes, full, rng)
        if res == WIDE_CHANNEL:
            plan = LevelPlan.of(tg.rows, tg.cols, tg.n_nodes)
            assert np.bincount(plan.level).max() * 2 * (mesh.dim + 1) > 256
        dir_nodes = np.flatnonzero(rng.random(mesh.n_nodes) < pin_share)  # whole-velocity pins
        pins = layout_pins(mesh.n_nodes, n_modes, dir_nodes, mesh.dim + 1, mesh.dim)
        r = rng.standard_normal(tg.n_dof)
        ref = np.linalg.solve(pinned_harmonic_dense(tg, pins), r)
        got = block_jacobi_preconditioner(tg, pins)(r)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_pins_must_cover_every_mode_slot(self):
        tg = random_tangent(3, 2, 2)
        pins = np.zeros((3, tg.dim + 1, 2 * tg.n_modes - 1), dtype=bool)
        pins[0, 0, 1] = True            # one slot of node 0's first velocity direction
        with pytest.raises(ValueError, match="every mode slot"):
            block_jacobi_preconditioner(tg, pins.ravel())

    def test_linearity(self):
        tg = random_tangent(3, 2, 2)
        tg.k_real += 5 * np.eye(2 * tg.n_modes - 1)
        tg.l_real += 5 * np.eye(2 * tg.n_modes - 1)
        pre = block_jacobi_preconditioner(tg)
        x = RNG.standard_normal(tg.n_dof)
        y = RNG.standard_normal(tg.n_dof)
        a, bcoef = 0.7, -1.3
        lhs = pre(a * x + bcoef * y)
        rhs = a * pre(x) + bcoef * pre(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13 * np.max(np.abs(rhs)))


def factor_bytes(plan, n_sys, per_node):
    """Bytes of the unpinned level LU factor: 3 level blocks per level and system."""
    w = np.bincount(plan.level).max() * per_node
    return 3 * plan.n_levels * n_sys * w * w * 8


class TestLevelLUSizeGuard:
    @staticmethod
    def _guarded(monkeypatch, build, size):
        """build() is refused at a limit just below size, naming both, and passes at size."""
        monkeypatch.setattr(linsolve, "LEVEL_LU_MAX_BYTES", size - 1)
        with pytest.raises(MemoryError) as err:
            build()
        assert f"estimated {size / 1e6:.4g} MB" in str(err.value)
        assert f"limit of {(size - 1) / 1e6:.4g} MB" in str(err.value)
        monkeypatch.setattr(linsolve, "LEVEL_LU_MAX_BYTES", size)
        return build()

    def test_block_matrix_factor(self, monkeypatch):
        mesh = generate_rect_tri((1.0, 1.0), (3, 4))
        rows, cols, _ = build_graph(mesh.elements, mesh.n_nodes)
        b = 3
        blocks = RNG.standard_normal((rows.size, b, b))
        blocks[rows == cols] += 4 * b * np.eye(b)
        sys_r = BlockMatrix(rows, cols, blocks, mesh.n_nodes)
        plan = LevelPlan.of(rows, cols, mesh.n_nodes)
        pre = self._guarded(monkeypatch, lambda: level_lu_preconditioner(sys_r, plan=plan),
                            factor_bytes(plan, 1, b))
        x = RNG.standard_normal(mesh.n_nodes * b)
        np.testing.assert_allclose(sys_r.matvec(pre(x)), x, rtol=1e-10, atol=1e-12)

    def test_tangent_factor(self, monkeypatch):
        mesh = generate_bent_channel_tet(3.0, 1.0, 1.0, (3, 2, 2), bend_angle=1.0)
        tg = mesh_tangent(mesh, 3, False, np.random.default_rng(5))
        plan = LevelPlan.of(tg.rows, tg.cols, tg.n_nodes)
        pre = self._guarded(monkeypatch, lambda: block_jacobi_preconditioner(tg, plan=plan),
                            factor_bytes(plan, tg.n_modes, 2 * (mesh.dim + 1)))
        r = RNG.standard_normal(tg.n_dof)
        ref = np.linalg.solve(pinned_harmonic_dense(tg, np.zeros(tg.n_dof, dtype=bool)), r)
        np.testing.assert_allclose(pre(r), ref, rtol=1e-10, atol=1e-12)


class TestPinnedOperator:
    def test_layout_pins_pin_dirichlet_slots_only(self):
        pins = layout_pins(5, 3, np.array([1, 4]), n_comp=3, n_dir_comp=2).reshape(5, 3, 5)
        assert pins.sum() == 2 * 2 * 5
        assert pins[[1, 4], :2].all() and not pins[:, 2].any()
        assert not pins[[0, 2, 3]].any()
        # the time-domain layout: one slot per component
        np.testing.assert_array_equal(layout_pins(3, 1, np.array([0]), 3, 2),
                                      [True, True, False] + [False] * 6)

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
