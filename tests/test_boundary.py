from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsfem.boundary import DirichletNodes, FacetBlocks, NodalValues, add_traction, check_groups
from tsfem.linsolve import assembly_context, build_graph
from tsfem.mesh import (facet_quadrature, generate_bent_channel_tet, generate_box_tet,
                        generate_rect_tri)
from tsfem.navier_stokes import NSCase, parabolic_inflow, resolve_ns_dirichlet
from tsfem.scalar import ScalarCase, resolve_scalar_dirichlet
from tsfem.spectral import SpectralCoeffs, modes_from_real, n_coeffs, symmetrize_modes
from tsfem.time_domain import TimeCase

RNG = np.random.default_rng(4242)


# ---------------------------------------------------------------------------
# the per-node resolvers, kept as the oracle for the shared merge
# ---------------------------------------------------------------------------

def oracle_resolve_ns_dirichlet(case, mesh):
    """Dirichlet node ids and (K, dim, 2N-1) values; walls override."""
    m = n_coeffs(case.n_modes)
    dim = mesh.dim
    values: Dict[int, np.ndarray] = {}

    def store(nodes, vals):
        for node, v in zip(nodes, vals):
            values[int(node)] = np.stack([symmetrize_modes(v[i]) for i in range(dim)])

    for name, data in case.dirichlet.items():
        if isinstance(data, NodalValues):
            store(data.nodes, np.asarray(data.values, dtype=complex))
            continue
        nodes = np.unique(mesh.facet_groups[name].nodes)
        if callable(data):
            vals = np.asarray(data(mesh.coords[nodes]), dtype=complex)
            if vals.shape != (nodes.size, dim, m):
                raise ValueError(f"dirichlet callable for {name!r} returned {vals.shape}")
        else:
            arr = np.asarray(data, dtype=complex)
            if arr.shape != (dim, m):
                raise ValueError(f"expected ({dim}, {m}) modes for group {name!r}")
            vals = np.tile(arr, (nodes.size, 1, 1))
        store(nodes, vals)
    for name in case.walls:
        nodes = np.unique(mesh.facet_groups[name].nodes)
        store(nodes, np.zeros((nodes.size, dim, m), dtype=complex))
    node_ids = np.array(sorted(values), dtype=int)
    vals = (np.array([values[i] for i in node_ids]) if node_ids.size
            else np.zeros((0, dim, m), dtype=complex))
    return node_ids, vals


def _oracle_bc_values(data, coords, m):
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


def oracle_resolve_scalar_dirichlet(case, mesh):
    """Dirichlet node ids and per-node mode values; later groups override."""
    m = n_coeffs(case.n_modes)
    values: Dict[int, np.ndarray] = {}
    for name, data in case.dirichlet.items():
        fg = mesh.facet_groups[name]
        nodes = np.unique(fg.nodes)
        vals = _oracle_bc_values(data, mesh.coords[nodes], m)
        for node, v in zip(nodes, vals):
            values[int(node)] = symmetrize_modes(v)
    node_ids = np.array(sorted(values), dtype=int)
    vals = np.array([values[i] for i in node_ids]) if node_ids.size else np.zeros((0, m), complex)
    return node_ids, vals


def oracle_resolve_time_dirichlet(case, mesh, t):
    values: Dict[int, np.ndarray] = {}
    for name, data in case.dirichlet.items():
        nodes = np.unique(mesh.facet_groups[name].nodes)
        vals = np.asarray(data(mesh.coords[nodes], t), dtype=float)
        if vals.shape != (nodes.size, mesh.dim):
            raise ValueError(f"dirichlet callable for {name!r} returned {vals.shape}")
        for node, v in zip(nodes, vals):
            values[int(node)] = v
    for name in case.walls:
        for node in np.unique(mesh.facet_groups[name].nodes):
            values[int(node)] = np.zeros(mesh.dim)
    node_ids = np.array(sorted(values), dtype=int)
    vals = (np.array([values[i] for i in node_ids]) if node_ids.size
            else np.zeros((0, mesh.dim)))
    return node_ids, vals


def assert_identical(got, ref):
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and g.shape == r.shape
        np.testing.assert_array_equal(g, r)


def near_symmetric(shape, rng=RNG):
    """Modes with a small conjugate-symmetry defect, so symmetrizing matters."""
    return modes_from_real(rng.standard_normal(shape)) + 1e-3 * rng.standard_normal(shape)


def near_symmetric_field(shape, dim=2):
    """A callable of the coordinates (P, dim) -> (P,) + shape, affine, near-symmetric."""
    base, slope = near_symmetric(shape), near_symmetric((dim,) + shape)
    return lambda x: base + np.tensordot(x, slope, axes=1)


class TestSharedMerge:
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_ns_bent_channel_inflow_and_walls(self, n_modes):
        # NodalValues inflow, walls overriding it on the inlet rim
        mesh = generate_bent_channel_tet(3.0, 1.0, 1.0, (6, 2, 2), bend_angle=1.0)
        flow = SpectralCoeffs(n_modes, modes_from_real(RNG.standard_normal(n_coeffs(n_modes))))
        case = NSCase(rho=1.0, mu=0.1, omega=2.0, n_modes=n_modes,
                      dirichlet={"xmin": parabolic_inflow(mesh, "xmin", flow)},
                      walls=["ymin", "ymax", "zmin", "zmax"])
        assert_identical(resolve_ns_dirichlet(case, mesh),
                         oracle_resolve_ns_dirichlet(case, mesh))

    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_ns_later_group_and_wall_override(self, n_modes):
        mesh = generate_rect_tri((1.0, 1.0), (4, 3))
        m = n_coeffs(n_modes)
        nodal = np.unique(mesh.facet_groups["xmax"].nodes)
        # ymin shares a corner with xmin and xmax; the xmax NodalValues
        # repeat a node, whose last entry wins; the ymax wall overrides
        # xmin and xmax at their upper corners
        nodes = np.r_[nodal, nodal[:1]]
        case = NSCase(rho=1.0, mu=0.1, omega=1.0, n_modes=n_modes,
                      dirichlet={"xmin": near_symmetric((2, m)),
                                 "ymin": near_symmetric_field((2, m)),
                                 "xmax": NodalValues(nodes, near_symmetric((nodes.size, 2, m)))},
                      walls=["ymax"])
        assert_identical(resolve_ns_dirichlet(case, mesh),
                         oracle_resolve_ns_dirichlet(case, mesh))

    @pytest.mark.parametrize("n_modes", [1, 2, 4])
    def test_scalar_later_group_override(self, n_modes):
        mesh = generate_rect_tri((1.0, 1.0), (3, 3))
        m = n_coeffs(n_modes)
        case = ScalarCase(kappa=0.1, omega=1.0, n_modes=n_modes,
                          velocity=np.zeros((mesh.n_nodes, 2, m)),
                          dirichlet={"xmin": near_symmetric(m),
                                     "ymin": near_symmetric_field((m,)),
                                     "xmax": SpectralCoeffs(n_modes, modes_from_real(
                                         RNG.standard_normal(m)))})
        assert_identical(resolve_scalar_dirichlet(case, mesh),
                         oracle_resolve_scalar_dirichlet(case, mesh))

    def test_time_domain_later_group_and_wall_override(self):
        mesh = generate_rect_tri((1.0, 1.0), (4, 3))
        case = TimeCase(rho=1.0, mu=0.1, period=1.0, n_cycles=2, dt=0.1,
                        dirichlet={"xmin": lambda x, t: np.cos(t) * x + 1.0,
                                   "ymin": lambda x, t: np.sin(t) * x[:, ::-1]},
                        walls=["ymax", "xmax"])
        nodes = DirichletNodes.of(mesh, case.dirichlet, case.walls)
        got = nodes.ids, nodes.values(mesh, case.dirichlet, (2,), 0.3, dtype=float)
        assert_identical(got, oracle_resolve_time_dirichlet(case, mesh, 0.3))

    def test_empty(self):
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        nodes = DirichletNodes.of(mesh, {}, [])
        vals = nodes.values(mesh, {}, (2, 3))
        assert nodes.ids.shape == (0,) and vals.shape == (0, 2, 3) and vals.dtype == complex

    def test_wrong_shape_names_the_group(self):
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        for name, data in (("xmin", np.zeros((2, 4))), ("ymin", lambda x: np.zeros((1, 2, 3)))):
            with pytest.raises(ValueError, match=f"group '{name}'"):
                DirichletNodes.of(mesh, {name: data}, []).values(mesh, {name: data}, (2, 3))


class TestCheckGroups:
    def test_unknown_group(self):
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        with pytest.raises(ValueError, match="unknown facet group 'bogus'"):
            check_groups(mesh, dirichlet=["xmin"], neumann=["bogus"])

    def test_group_in_two_roles(self):
        mesh = generate_rect_tri((1.0, 1.0), (2, 2))
        with pytest.raises(ValueError, match="'xmin' assigned to both dirichlet and wall"):
            check_groups(mesh, dirichlet=["xmin"], wall=["ymin", "xmin"])
        check_groups(mesh, dirichlet=["xmin"], wall=["ymin"], neumann=["xmax"])


class TestTraction:
    def test_scalar_and_mode_vector_data(self):
        # on the xmax side (outward normal +x, length 0.8) the traction sums to -h n |side|
        mesh = generate_rect_tri((1.0, 0.8), (3, 4))
        fq = facet_quadrature(mesh, "xmax")
        scalar = np.zeros((mesh.n_nodes, 2))
        add_traction(scalar, fq, 1.5)
        np.testing.assert_allclose(scalar.sum(axis=0), [-1.5 * 0.8, 0.0], atol=1e-14)
        assert np.all(scalar[np.setdiff1d(np.arange(mesh.n_nodes), fq.nodes)] == 0.0)
        h = np.array([1.5, -0.4, 2.0])
        modes = np.ones((mesh.n_nodes, 2, 3))
        add_traction(modes, fq, h)
        np.testing.assert_allclose(modes - 1.0, scalar[..., None] * h / 1.5, atol=1e-14)


# ---------------------------------------------------------------------------
# the backflow facet blocks against a per-facet, per-point loop
# ---------------------------------------------------------------------------

# an outlet of line2 facets and one of tri3 facets
FACET_MESHES = {"line2": generate_rect_tri((1.0, 0.8), (3, 4)),
                "tri3": generate_box_tet((1.0, 0.7, 0.9), (2, 2, 1))}


def facet_terms(fq, scale, an_neg):
    """(facet nodes, node A, node B, the term's block) at every point of every facet pair."""
    for f, nodes in enumerate(fq.nodes):
        for q in range(fq.weights.shape[1]):
            for a, node_a in enumerate(nodes):
                for b, node_b in enumerate(nodes):
                    w = scale * fq.weights[f, q] * fq.shape[q, a] * fq.shape[q, b]
                    yield node_a, node_b, w * an_neg[f, q]


def oracle_add_product(fq, scale, an_neg, x, y):
    for node_a, node_b, block in facet_terms(fq, scale, an_neg):
        for i in range(x.shape[1]):
            y[node_a, i] += block @ x[node_b, i]


def oracle_add_to_edges(fq, scale, an_neg, ctx, blocks):
    edge = {(r, c): k for k, (r, c) in enumerate(zip(ctx.rows, ctx.cols))}
    for node_a, node_b, block in facet_terms(fq, scale, an_neg):
        blocks[edge[node_a, node_b]] += block


class TestFacetBlocks:
    @settings(max_examples=30, deadline=None)
    @given(facets=st.sampled_from(sorted(FACET_MESHES)), m=st.sampled_from([1, 3, 5]),
           d=st.integers(1, 3), scale=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_property_matches_facet_loop(self, facets, m, d, scale, seed):
        # out starts nonzero, as it does when the other terms are in it
        rng = np.random.default_rng(seed)
        mesh = FACET_MESHES[facets]
        fq = facet_quadrature(mesh, "xmax")
        ctx = assembly_context(mesh, build_graph)
        an_neg = rng.standard_normal(fq.weights.shape + (m, m))
        an_neg += an_neg.swapaxes(2, 3)
        fb = FacetBlocks.of(fq, scale, an_neg)
        x = rng.standard_normal((mesh.n_nodes, d, m))
        y = rng.standard_normal((mesh.n_nodes, d, m))
        ref = y.copy()
        oracle_add_product(fq, scale, an_neg, x, ref)
        fb.add_product(x, y)
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-12)
        edges = rng.standard_normal((ctx.rows.size, m, m))
        ref = edges.copy()
        oracle_add_to_edges(fq, scale, an_neg, ctx, ref)
        fb.add_to_edges(edges, ctx)
        np.testing.assert_allclose(edges, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("facets", sorted(FACET_MESHES))
    def test_zero_operator_adds_exact_zeros(self, facets):
        mesh = FACET_MESHES[facets]
        fq = facet_quadrature(mesh, "xmax")
        ctx = assembly_context(mesh, build_graph)
        fb = FacetBlocks.of(fq, -0.5, np.zeros(fq.weights.shape + (3, 3)))
        assert not np.any(fb.blocks)
        y = RNG.standard_normal((mesh.n_nodes, 2, 3))
        before = y.copy()
        fb.add_product(RNG.standard_normal(y.shape), y)
        np.testing.assert_array_equal(y, before)
        edges = RNG.standard_normal((ctx.rows.size, 3, 3))
        before = edges.copy()
        fb.add_to_edges(edges, ctx)
        np.testing.assert_array_equal(edges, before)
