import re

import numpy as np
import pytest

from tsfem.mesh import (
    Mesh,
    FacetGroup,
    boundary_faces,
    facet_geometry,
    facet_quadrature,
    generate_bent_channel_tet,
    generate_box_tet,
    generate_interval,
    generate_rect_tri,
    load_mesh,
    MeshFormatError,
    quadrature_rule,
    save_mesh,
    shape_values,
    validate_mesh,
)

RNG = np.random.default_rng(42)


class TestGenerateInterval:
    def test_node_layout(self):
        mesh = generate_interval(1.0, 4)
        np.testing.assert_allclose(mesh.coords[:, 0], [0, 0.25, 0.5, 0.75, 1.0])
        assert mesh.n_nodes == 5 and mesh.n_elements == 4

    def test_length_conserved(self):
        mesh = generate_interval(2.7, 13)
        lengths = np.abs(np.diff(mesh.coords[mesh.elements][:, :, 0], axis=1))
        assert abs(lengths.sum() - 2.7) < 1e-14

    def test_validates(self):
        validate_mesh(generate_interval(1.0, 3))


class TestGenerateBox:
    def test_unit_cube_volume(self):
        mesh = generate_box_tet((1.0, 1.0, 1.0), (1, 1, 1))
        ed = mesh.element_data()
        assert abs(ed.detj.sum() / 6.0 - 1.0) < 1e-13
        assert np.all(ed.detj > 0)

    def test_face_areas(self):
        mesh = generate_box_tet((1.0, 1.0, 1.0), (2, 3, 2))
        for name in ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax"):
            _, areas = facet_geometry(mesh, name)
            assert abs(areas.sum() - 1.0) < 1e-13

    def test_volume_general_box(self):
        mesh = generate_box_tet((2.0, 0.5, 1.5), (3, 2, 4))
        assert abs(mesh.element_data().detj.sum() / 6.0 - 1.5) < 1e-12
        validate_mesh(mesh)


class TestGenerateRect:
    def test_area_and_groups(self):
        mesh = generate_rect_tri((2.0, 1.0), (4, 3))
        assert abs(mesh.element_data().detj.sum() / 2.0 - 2.0) < 1e-13
        _, areas = facet_geometry(mesh, "ymin")
        assert abs(areas.sum() - 2.0) < 1e-13
        validate_mesh(mesh)


class TestBentChannel:
    def test_positive_jacobians_and_volume(self):
        mesh = generate_bent_channel_tet(3.0, 1.0, 1.0, (9, 3, 3), bend_angle=np.pi / 3)
        ed = mesh.element_data()
        assert np.all(ed.detj > 0)
        # wrapped volume: integral of (R + y) dtheta dy dz over the arc
        radius = 3.0 / (np.pi / 3)
        exact = (np.pi / 3) * (radius * 1.0 + 0.5) * 1.0
        # chordal faceting of the arc slightly underestimates the volume
        assert abs(ed.detj.sum() / 6.0 - exact) / exact < 5e-3
        validate_mesh(mesh)

    def test_too_tight_bend_rejected(self):
        with pytest.raises(ValueError, match="bend"):
            generate_bent_channel_tet(1.0, 2.0, 1.0, (2, 2, 2), bend_angle=np.pi)


class TestShapeEval:
    """Shape values, and the per-element geometry of mesh.element_data()."""

    def test_1d_metric(self):
        mesh = generate_interval(1.0, 4)  # h = 0.25
        np.testing.assert_allclose(mesh.element_data().metric[2], [[(2 / 0.25) ** 2]],
                                   rtol=1e-14)

    def test_right_tet_constant_gradients(self):
        coords = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        mesh = Mesh(3, coords, np.array([[0, 1, 2, 3]]), "tet4", {})
        values = shape_values("tet4", quadrature_rule("tet4").points)
        grads = mesh.element_data().grads[0]
        np.testing.assert_allclose(values.sum(axis=1), 1.0, atol=1e-14)
        np.testing.assert_allclose(grads.sum(axis=0), 0.0, atol=1e-14)
        np.testing.assert_allclose(grads[1], [1, 0, 0], atol=1e-14)

    def test_metric_matches_jacobian_oracle(self):
        # random affine image of the reference tet: G = (J J^T)^{-1}
        ref = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        for _ in range(10):
            amat = RNG.standard_normal((3, 3))
            if np.linalg.det(amat) < 0:
                amat[0] *= -1
            shift = RNG.standard_normal(3)
            coords = ref @ amat.T + shift
            mesh = Mesh(3, coords, np.array([[0, 1, 2, 3]]), "tet4", {})
            metric = mesh.element_data().metric[0]
            oracle = np.linalg.inv(amat @ amat.T)
            np.testing.assert_allclose(metric, oracle, atol=1e-12 * np.abs(oracle).max())

    def test_degenerate_element_rejected(self):
        coords = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        mesh = Mesh(3, coords, np.array([[0, 1, 2, 3]]), "tet4", {})
        with pytest.raises(ValueError, match="elements \\[0\\]"):
            mesh.element_data()

    def test_partition_of_unity_everywhere(self):
        mesh = generate_box_tet((1.0, 2.0, 1.0), (2, 2, 2))
        rule = quadrature_rule("tet4")
        vals = shape_values("tet4", rule.points)
        np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-13)
        grads = mesh.element_data().grads
        np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-13)


class TestQuadrature:
    def test_weights_sum_to_parent_measure(self):
        assert abs(quadrature_rule("line2").weights.sum() - 2.0) < 1e-15
        assert abs(quadrature_rule("tri3").weights.sum() - 0.5) < 1e-15
        assert abs(quadrature_rule("tet4").weights.sum() - 1 / 6) < 1e-15

    def test_tet_rule_integrates_quadratics_exactly(self):
        # closed-form moments over the unit simplex: a! b! c! / (a+b+c+3)!
        from math import factorial

        rule = quadrature_rule("tet4")
        pts, w = rule.points, rule.weights
        for a in range(3):
            for b in range(3 - a):
                for c in range(3 - a - b):
                    approx = np.sum(w * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
                    exact = (factorial(a) * factorial(b) * factorial(c)
                             / factorial(a + b + c + 3))
                    assert abs(approx - exact) < 1e-15

    def test_tri_rule_integrates_quadratics_exactly(self):
        from math import factorial

        rule = quadrature_rule("tri3")
        pts, w = rule.points, rule.weights
        for a in range(3):
            for b in range(3 - a):
                approx = np.sum(w * pts[:, 0] ** a * pts[:, 1] ** b)
                exact = factorial(a) * factorial(b) / factorial(a + b + 2)
                assert abs(approx - exact) < 1e-15


class TestElementTables:
    """The quadrature tables of ElementData that every element loop reads."""

    @pytest.mark.parametrize("mesh, measure", [
        (generate_interval(2.0, 5), 2.0),
        (generate_rect_tri((1.0, 0.7), (3, 2)), 0.7),
        (generate_box_tet((1.0, 0.8, 0.6), (2, 2, 1)), 0.48),
    ], ids=["line2", "tri3", "tet4"])
    def test_invariants(self, mesh, measure):
        ed = mesh.element_data()
        rule = quadrature_rule(mesh.elem_type)
        np.testing.assert_array_equal(ed.basis, shape_values(mesh.elem_type, rule.points))
        np.testing.assert_allclose(ed.n_int.sum(axis=1), ed.vol, rtol=1e-14)
        np.testing.assert_allclose(ed.wdetj.sum(axis=1), ed.vol, rtol=1e-14)
        assert abs(ed.vol.sum() - measure) < 1e-14 * measure
        scale = np.max(np.abs(ed.gab))
        np.testing.assert_allclose(ed.gab, ed.gab.swapaxes(1, 2), rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(ed.gab.sum(axis=2), 0.0, rtol=0, atol=1e-14 * scale)

    @pytest.mark.parametrize("mesh", [generate_interval(2.0, 5),
                                      generate_rect_tri((1.0, 0.7), (3, 2)),
                                      generate_bent_channel_tet(3.0, 1.0, 1.0, (3, 2, 2),
                                                                bend_angle=1.0)],
                             ids=["line2", "tri3", "tet4"])
    def test_point_tables_equal_their_formulas(self, mesh):
        ed = mesh.element_data()
        n_el, n_q = mesh.n_elements, ed.basis.shape[0]
        np.testing.assert_array_equal(ed.points, ed.basis @ mesh.coords[mesh.elements])
        np.testing.assert_array_equal(ed.gg, np.einsum("eij,eij->e", ed.metric, ed.metric))
        np.testing.assert_array_equal(ed.point_grad[:, :n_q],
                                      np.broadcast_to(ed.basis, (n_el,) + ed.basis.shape))
        np.testing.assert_array_equal(ed.point_grad[:, n_q:], ed.grads.transpose(0, 2, 1))
        np.testing.assert_array_equal(ed.weight_grad[:, :, :n_q],
                                      ed.wdetj[:, None, :] * ed.basis.T)
        np.testing.assert_array_equal(ed.weight_grad[:, :, n_q:], ed.grads)
        # built at the first access and kept
        for name in ("gg", "n_grad", "point_grad", "weight_grad"):
            assert getattr(ed, name) is getattr(ed, name)
        assert mesh.element_data() is ed

    @pytest.mark.parametrize("mesh", [generate_interval(2.0, 5),
                                      generate_rect_tri((1.0, 0.7), (3, 2)),
                                      generate_bent_channel_tet(3.0, 1.0, 1.0, (3, 2, 2),
                                                                bend_angle=1.0)],
                             ids=["line2", "tri3", "tet4"])
    def test_galerkin_divergence_matches_a_plain_loop(self, mesh):
        # n_grad[e, A, B, i] = n_A dN_B/dx_i, with n_A = detj sum_q w_q N_A(q)
        ed = mesh.element_data()
        rule = quadrature_rule(mesh.elem_type)
        basis = shape_values(mesh.elem_type, rule.points)
        n_el, nen, dim = ed.grads.shape
        ref = np.zeros((n_el, nen, nen, dim))
        for e in range(n_el):
            for a in range(nen):
                n_a = sum(ed.detj[e] * w * n_q[a] for w, n_q in zip(rule.weights, basis))
                for b in range(nen):
                    for i in range(dim):
                        ref[e, a, b, i] = n_a * ed.grads[e, b, i]
        np.testing.assert_allclose(ed.n_grad, ref, rtol=1e-14, atol=0.0)


class TestFacets:
    def test_cube_xmax_normal(self):
        mesh = generate_box_tet((1.0, 1.0, 1.0), (2, 2, 2))
        normals, areas = facet_geometry(mesh, "xmax")
        np.testing.assert_allclose(normals, np.tile([1.0, 0, 0], (len(areas), 1)), atol=1e-14)

    def test_interval_left(self):
        mesh = generate_interval(1.0, 4)
        normals, areas = facet_geometry(mesh, "left")
        assert normals[0, 0] == -1.0 and areas[0] == 1.0

    def test_closed_surface_integral_vanishes(self):
        mesh = generate_box_tet((1.0, 2.0, 0.5), (2, 2, 2))
        total = np.zeros(3)
        for name in mesh.facet_groups:
            normals, areas = facet_geometry(mesh, name)
            total += (normals * areas[:, None]).sum(axis=0)
        assert np.linalg.norm(total) < 1e-12

    def test_facet_quadrature_cached_read_only(self):
        mesh = generate_box_tet((1.0, 1.0, 1.0), (2, 2, 2))
        fq = facet_quadrature(mesh, "xmax")
        assert facet_quadrature(mesh, "xmax") is fq
        assert facet_quadrature(mesh, "xmin") is not fq
        for arr in (fq.nodes, fq.weights, fq.normals, fq.shape, fq.points, fq.areas,
                    fq.node_ids, fq.node_weights, fq.node_normals):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
        # the facet group itself stays writable
        assert mesh.facet_groups["xmax"].nodes.flags.writeable
        np.testing.assert_allclose(fq.weights.sum(), 1.0, atol=1e-14)

    @pytest.mark.parametrize("mesh", [generate_interval(2.0, 3),
                                      generate_rect_tri((1.0, 0.8), (3, 4)),
                                      generate_bent_channel_tet(3.0, 1.0, 1.0, (3, 2, 2),
                                                                bend_angle=1.0)],
                             ids=["line", "tri", "bent"])
    def test_node_sums_match_the_facet_rule(self, mesh):
        # the per-node sums integrate a P1 field, and its normal flux, as the rule does
        rng = np.random.default_rng(8)
        u = rng.standard_normal((mesh.n_nodes, mesh.dim))
        p = rng.standard_normal(mesh.n_nodes)
        for name in mesh.facet_groups:
            fq = facet_quadrature(mesh, name)
            np.testing.assert_array_equal(fq.node_ids, np.unique(fq.nodes))
            flux = np.einsum("fq,fqi,fi->", fq.weights, fq.interpolate(u), fq.normals)
            assert np.vdot(fq.node_normals, u[fq.node_ids]) == pytest.approx(flux, rel=1e-12)
            total = np.sum(fq.weights * fq.interpolate(p))
            assert fq.node_weights @ p[fq.node_ids] == pytest.approx(total, rel=1e-12)
            assert fq.node_weights.sum() == pytest.approx(fq.areas.sum(), rel=1e-13)

    def test_outward_flow_and_mean_match_the_facet_rule(self):
        # real time fields (n, dim) and complex mode arrays (n, dim, M) alike
        mesh = generate_bent_channel_tet(3.0, 1.0, 1.0, (3, 2, 2), bend_angle=1.0)
        rng = np.random.default_rng(9)
        n, m = mesh.n_nodes, 5
        fields = [(rng.standard_normal((n, 3)), rng.standard_normal(n)),
                  (rng.standard_normal((n, 3, m)) + 1j * rng.standard_normal((n, 3, m)),
                   rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))]
        for name in mesh.facet_groups:
            fq = facet_quadrature(mesh, name)
            area = fq.areas.sum()
            for u, p in fields:
                flux = np.einsum("fq,fqi...,fi->...", fq.weights, fq.interpolate(u), fq.normals)
                mean = np.einsum("fq,fq...->...", fq.weights, fq.interpolate(p)) / area
                assert fq.outward_flow(u).shape == flux.shape == p.shape[1:]
                np.testing.assert_allclose(fq.outward_flow(u), flux, rtol=1e-12,
                                           atol=1e-12 * np.max(np.abs(flux)))
                np.testing.assert_allclose(fq.mean(p), mean, rtol=1e-12,
                                           atol=1e-12 * np.max(np.abs(mean)))
            # the mean of the coordinates is the group's centroid
            centroid = np.average(fq.points.reshape(-1, 3), axis=0, weights=fq.weights.ravel())
            np.testing.assert_allclose(fq.mean(mesh.coords), centroid, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("resolution", [(3, 2, 2), (2, 3, 4)])
    def test_boundary_faces_of_a_facet_patch_are_its_rim(self, resolution):
        mesh = generate_bent_channel_tet(3.0, 1.0, 1.0, resolution, bend_angle=1.0)
        for name, fg in mesh.facet_groups.items():
            # edges of the patch that appear exactly once
            edges = np.concatenate([fg.nodes[:, [a, b]] for a, b in ((0, 1), (0, 2), (1, 2))])
            key = np.sort(edges, axis=1)
            _, inv, counts = np.unique(key, axis=0, return_inverse=True, return_counts=True)
            rim = np.unique(edges[counts[inv] == 1])
            faces, parents = boundary_faces(fg.nodes, "tri3")
            np.testing.assert_array_equal(np.unique(faces), rim)
            # a closed loop of rim edges, each on a facet that holds it
            assert faces.shape == (rim.size, 2)
            assert all(set(f) <= set(fg.nodes[p]) for f, p in zip(faces, parents))


class TestMetricScaleBound:
    def test_h4_gg_bounded_below_under_refinement(self):
        # shape-regular structured refinements keep h^4 G:G away from zero
        floors = []
        for res in (2, 4, 8):
            mesh = generate_box_tet((1.0, 1.0, 1.0), (res, res, res))
            ed = mesh.element_data()
            gg = np.einsum("eij,eij->e", ed.metric, ed.metric)
            floors.append(np.min(ed.h**4 * gg))
        floors = np.array(floors)
        assert np.all(floors > 20.0)
        assert np.max(floors) / np.min(floors) < 1.0 + 1e-9


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        mesh = generate_box_tet((1.0, 0.5, 2.0), (2, 1, 2))
        path = tmp_path / "box.mesh"
        save_mesh(mesh, path)
        back = load_mesh(path)
        np.testing.assert_array_equal(back.coords, mesh.coords)
        np.testing.assert_array_equal(back.elements, mesh.elements)
        assert set(back.facet_groups) == set(mesh.facet_groups)
        for name in mesh.facet_groups:
            np.testing.assert_array_equal(back.facet_groups[name].nodes,
                                          mesh.facet_groups[name].nodes)
            np.testing.assert_array_equal(back.facet_groups[name].parents,
                                          mesh.facet_groups[name].parents)

    def test_missing_facet_groups_rejected(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("dimension 1\nelement_type line2\nnodes 2\n0.0\n1.0\nelements 1\n0 1\n")
        with pytest.raises(MeshFormatError, match="facet_group"):
            load_mesh(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad2.mesh"
        path.write_text("dimension 1\nelement_type line2\nnodes 2\n0.0\nbogus x\n")
        with pytest.raises(MeshFormatError, match="line 5"):
            load_mesh(path)

    @pytest.mark.parametrize("row, message", [
        ("0 -2", "line 8: node id out of range [0, 3): [0, -2]"),
        ("0 3", "line 8: node id out of range [0, 3): [0, 3]"),
        ("1 2\nfacet_group rest 1\n-1 2", "line 10: parent id out of range [0, 1): [-1]"),
        ("1 2\nfacet_group rest 1\n0 5", "line 10: node id out of range [0, 3): [5]")])
    def test_out_of_range_ids_report_the_line(self, tmp_path, row, message):
        path = tmp_path / "ids.mesh"
        path.write_text("dimension 1\nelement_type line2\nnodes 3\n0.0\n0.5\n1.0\n"
                        f"elements 1\n{row}\n")
        with pytest.raises(MeshFormatError, match=re.escape(message)):
            load_mesh(path)

    def test_hand_written_two_tets(self, tmp_path):
        text = """dimension 3
element_type tet4
nodes 5
0.0 0.0 0.0
1.0 0.0 0.0
0.0 1.0 0.0
0.0 0.0 1.0
1.0 1.0 1.0
elements 2
0 1 2 3
1 4 2 3
facet_group outer 8
0 1 2 3
0 0 3 2
0 0 1 3
0 0 2 1
1 4 2 3
1 1 4 3
1 1 2 4
1 1 3 2
"""
        path = tmp_path / "two.mesh"
        path.write_text(text)
        mesh = load_mesh(path)
        assert mesh.n_elements == 2
        np.testing.assert_array_equal(mesh.elements[1], [1, 4, 2, 3])
        assert mesh.facet_groups["outer"].nodes.shape == (8, 3)


class TestValidate:
    def test_detects_double_assignment(self):
        mesh = generate_interval(1.0, 2)
        mesh.facet_groups["extra"] = FacetGroup("extra", np.array([[0]]), np.array([0]))
        with pytest.raises(ValueError, match="both"):
            validate_mesh(mesh)

    def test_detects_missing_group(self):
        mesh = generate_interval(1.0, 2)
        del mesh.facet_groups["right"]
        with pytest.raises(ValueError, match="no group"):
            validate_mesh(mesh)
