import numpy as np
import pytest

from tsfem.mesh import (
    Mesh,
    FacetGroup,
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
            _, areas, _ = facet_geometry(mesh, name)
            assert abs(areas.sum() - 1.0) < 1e-13

    def test_volume_general_box(self):
        mesh = generate_box_tet((2.0, 0.5, 1.5), (3, 2, 4))
        assert abs(mesh.element_data().detj.sum() / 6.0 - 1.5) < 1e-12
        validate_mesh(mesh)


class TestGenerateRect:
    def test_area_and_groups(self):
        mesh = generate_rect_tri((2.0, 1.0), (4, 3))
        assert abs(mesh.element_data().detj.sum() / 2.0 - 2.0) < 1e-13
        _, areas, _ = facet_geometry(mesh, "ymin")
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


class TestFacets:
    def test_cube_xmax_normal(self):
        mesh = generate_box_tet((1.0, 1.0, 1.0), (2, 2, 2))
        normals, areas, _ = facet_geometry(mesh, "xmax")
        np.testing.assert_allclose(normals, np.tile([1.0, 0, 0], (len(areas), 1)), atol=1e-14)

    def test_interval_left(self):
        mesh = generate_interval(1.0, 4)
        normals, areas, _ = facet_geometry(mesh, "left")
        assert normals[0, 0] == -1.0 and areas[0] == 1.0

    def test_closed_surface_integral_vanishes(self):
        mesh = generate_box_tet((1.0, 2.0, 0.5), (2, 2, 2))
        total = np.zeros(3)
        for name in mesh.facet_groups:
            normals, areas, _ = facet_geometry(mesh, name)
            total += (normals * areas[:, None]).sum(axis=0)
        assert np.linalg.norm(total) < 1e-12

    def test_facet_quadrature_cached_read_only(self):
        mesh = generate_box_tet((1.0, 1.0, 1.0), (2, 2, 2))
        fq = facet_quadrature(mesh, "xmax")
        assert facet_quadrature(mesh, "xmax") is fq
        assert facet_quadrature(mesh, "xmin") is not fq
        for arr in (fq.nodes, fq.weights, fq.normals, fq.shape, fq.points, fq.areas):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
        # the facet group itself stays writable
        assert mesh.facet_groups["xmax"].nodes.flags.writeable
        np.testing.assert_allclose(fq.weights.sum(), 1.0, atol=1e-14)


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
