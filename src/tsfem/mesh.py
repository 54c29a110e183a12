"""Simplex meshes, structured generators, shape functions and quadrature.

Supported element types are line2, tri3 and tet4 with linear shape
functions.  The line parent is xi in [-1, 1]; triangles and tets use
barycentric coordinates on the unit simplex.  Element geometry is affine,
so physical shape gradients, the Jacobian determinant and the metric
tensor G_ij = (dxi_k/dx_i)(dxi_k/dx_j) are constant per element and are
precomputed once per mesh, with the volume quadrature tables, the physical
quadrature points and, at first use, G:G and the point-value tables of the
time step (ElementData); no other module evaluates the volume rule or the
shape functions itself.

Boundary facets are grouped by name; each facet stores its node ids and
the parent element, and the named groups partition the mesh boundary.
Each group's facet quadrature and its nodal facet sums (FacetQuadData),
which give the outward flow and the area average of a P1 field that both
flow solvers report, are built once per mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict

import numpy as np

__all__ = [
    "Mesh",
    "FacetGroup",
    "QuadratureRule",
    "ElementData",
    "c_i_for",
    "quadrature_rule",
    "facet_rule",
    "shape_values",
    "facet_geometry",
    "boundary_faces",
    "generate_interval",
    "generate_rect_tri",
    "generate_box_tet",
    "generate_bent_channel_tet",
    "transform_coords",
    "validate_mesh",
    "load_mesh",
    "save_mesh",
]

ELEM_NODES = {"line2": 2, "tri3": 3, "tet4": 4}
FACET_TYPE = {"tet4": "tri3", "tri3": "line2", "line2": "point"}
FACET_NODES = {"tri3": 3, "line2": 2, "point": 1}

# C_I of the diffusive limit of tau: lines use xi in [-1, 1] (parent
# size 2), simplices the unit simplex.
_C_I = {"line2": 9.0, "tri3": 3.0, "tet4": 3.0}


def c_i_for(elem_type: str, c_i: float | None = None) -> float:
    """A case's C_I: its own value c_i if set, else the element-type default."""
    return _C_I[elem_type] if c_i is None else c_i

# Reference shape gradients dN_A/dxi_k (constant for linear elements).
_REF_GRADS = {
    "line2": np.array([[-0.5], [0.5]]),
    "tri3": np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]),
    "tet4": np.array([[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
}

# Local faces of each element, opposite-node convention.
_ELEM_FACES = {
    "line2": [[0], [1]],
    "tri3": [[0, 1], [1, 2], [2, 0]],
    "tet4": [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]],
}


@dataclass(frozen=True)
class QuadratureRule:
    """Points in parent coordinates and weights summing to the parent measure."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def n_points(self) -> int:
        return self.weights.shape[0]


def quadrature_rule(elem_type: str) -> QuadratureRule:
    """Degree-2-exact volume rules: 2-pt line, 3-pt triangle, 4-pt tet."""
    if elem_type == "line2":
        g = 1.0 / np.sqrt(3.0)
        return QuadratureRule(np.array([[-g], [g]]), np.array([1.0, 1.0]))
    if elem_type == "tri3":
        pts = np.array([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]])
        return QuadratureRule(pts, np.full(3, 1 / 6))
    if elem_type == "tet4":
        a, b = 0.5854101966249685, 0.1381966011250105
        pts = np.array([[b, b, b], [a, b, b], [b, a, b], [b, b, a]])
        return QuadratureRule(pts, np.full(4, 1 / 24))
    raise ValueError(f"unknown element type {elem_type!r}")


def facet_rule(elem_type: str) -> QuadratureRule:
    """Quadrature on the facets of the given element type."""
    ft = FACET_TYPE[elem_type]
    if ft == "point":
        return QuadratureRule(np.zeros((1, 0)), np.array([1.0]))
    return quadrature_rule(ft)


def shape_values(elem_type: str, points: np.ndarray) -> np.ndarray:
    """Shape function values N_A at parent points, shape (n_pts, n_nodes)."""
    points = np.atleast_2d(points)
    if elem_type == "line2":
        xi = points[:, 0]
        return np.column_stack([(1 - xi) / 2, (1 + xi) / 2])
    if elem_type == "tri3":
        xi, eta = points[:, 0], points[:, 1]
        return np.column_stack([1 - xi - eta, xi, eta])
    if elem_type == "tet4":
        xi, eta, zeta = points[:, 0], points[:, 1], points[:, 2]
        return np.column_stack([1 - xi - eta - zeta, xi, eta, zeta])
    if elem_type == "point":
        return np.ones((points.shape[0] if points.size else 1, 1))
    raise ValueError(f"unknown element type {elem_type!r}")


@dataclass(frozen=True)
class FacetGroup:
    """Named set of boundary facets: node ids and the owning element."""

    name: str
    nodes: np.ndarray    # (n_facets, k) int
    parents: np.ndarray  # (n_facets,) int


@dataclass
class Mesh:
    dim: int
    coords: np.ndarray
    elements: np.ndarray
    elem_type: str
    facet_groups: Dict[str, FacetGroup] = field(default_factory=dict)
    _edata: "ElementData" = field(default=None, repr=False, compare=False)
    # scatter plan (linsolve.AssemblyContext), built by the first assembly
    _assembly: object = field(default=None, repr=False, compare=False)
    # read-only FacetQuadData per group, built by the first facet_quadrature
    _facet_quad: Dict[str, "FacetQuadData"] = field(default_factory=dict, repr=False,
                                                    compare=False)
    # read-only node ids per group, built by the first group_nodes
    _group_nodes: Dict[str, np.ndarray] = field(default_factory=dict, repr=False,
                                                compare=False)

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def element_data(self) -> "ElementData":
        if self._edata is None:
            self._edata = ElementData.build(self)
        return self._edata

    def group_nodes(self, name: str) -> np.ndarray:
        """The nodes of a facet group, ascending; built at the first call and kept."""
        nodes = self._group_nodes.get(name)
        if nodes is None:
            nodes = self._group_nodes[name] = _read_only(np.unique(self.facet_groups[name].nodes))
        return nodes


@dataclass(frozen=True)
class ElementData:
    """Per-element affine geometry and the volume quadrature tables.

    grads[e, A, i] = dN_A/dx_i, detj[e] > 0, metric[e] = J^{-T} J^{-1},
    h[e] = circumscribed-sphere diameter, mass[e, A, B] =
    detj sum_q w_q N_A N_B (the element mass matrix).  The tables every
    element loop reads: basis[q, A] = N_A at quadrature point q (the same
    for every element), points[e, q] = its physical point, wdetj[e, q] =
    detj w_q, n_int[e, A] = detj sum_q w_q N_A, vol[e] = detj sum_q w_q
    (the element measure) and gab[e, A, B] = grad N_A . grad N_B.  Built at
    their first use and kept: gg[e] = G:G, the Galerkin divergence
    n_grad[e, A, B, i] = n_A dN_B/dx_i (the Galerkin gradient is minus its
    transpose in A, B), and the time step's point_grad[e]
    = [N_A(q); dN_A/dx_j], which takes element nodal values to their point
    values and gradients in one product, and weight_grad[e] = [w_q detj
    N_A(q) | dN_A/dx_j], which takes per-point integrands and gradient
    fluxes to the element residual rows in one product.
    """

    grads: np.ndarray
    detj: np.ndarray
    metric: np.ndarray
    h: np.ndarray
    mass: np.ndarray
    basis: np.ndarray
    points: np.ndarray
    wdetj: np.ndarray
    n_int: np.ndarray
    vol: np.ndarray
    gab: np.ndarray

    @classmethod
    def build(cls, mesh: Mesh) -> "ElementData":
        ref = _REF_GRADS[mesh.elem_type]
        xe = mesh.coords[mesh.elements]                       # (E, nen, dim)
        jac = np.einsum("eai,ak->eik", xe, ref)               # J_ik = dx_i/dxi_k
        detj = np.linalg.det(jac)
        bad = np.where(detj <= 0.0)[0]
        if bad.size:
            raise ValueError(f"non-positive Jacobian in elements {bad[:10].tolist()}")
        jinv = np.linalg.inv(jac)                             # (E, dim, dim): dxi_k/dx_i at [k, i]
        grads = np.einsum("ak,eki->eai", ref, jinv)
        metric = np.einsum("eki,ekj->eij", jinv, jinv)
        rule = quadrature_rule(mesh.elem_type)
        basis = shape_values(mesh.elem_type, rule.points)
        mass = detj[:, None, None] * np.einsum("q,qa,qb->ab", rule.weights, basis, basis)
        return cls(grads, detj, metric, _circumsphere_diameter(mesh, xe), mass, basis,
                   basis @ xe, np.outer(detj, rule.weights),
                   np.outer(detj, rule.weights @ basis), detj * rule.weights.sum(),
                   np.matmul(grads, grads.swapaxes(1, 2)))

    @cached_property
    def gg(self) -> np.ndarray:
        """(E,) G_ij G_ij."""
        return np.einsum("eij,eij->e", self.metric, self.metric)

    @cached_property
    def n_grad(self) -> np.ndarray:
        """(E, nen, nen, dim)."""
        return self.n_int[:, :, None, None] * self.grads[:, None]

    @cached_property
    def point_grad(self) -> np.ndarray:
        """(E, Q + dim, nen)."""
        n_el = self.grads.shape[0]
        return np.concatenate([np.broadcast_to(self.basis, (n_el,) + self.basis.shape),
                               self.grads.transpose(0, 2, 1)], axis=1)

    @cached_property
    def weight_grad(self) -> np.ndarray:
        """(E, nen, Q + dim)."""
        return np.concatenate([self.wdetj[:, None, :] * self.basis.T, self.grads], axis=2)


def _circumsphere_diameter(mesh: Mesh, xe: np.ndarray) -> np.ndarray:
    if mesh.elem_type == "line2":
        return np.abs(xe[:, 1, 0] - xe[:, 0, 0])
    # Solve 2 (x_A - x_0) . c = |x_A|^2 - |x_0|^2 for the circumcenter.
    rel = xe[:, 1:, :] - xe[:, :1, :]
    rhs = 0.5 * np.einsum("eai,eai->ea", xe[:, 1:, :] + xe[:, :1, :], rel)
    center = np.linalg.solve(rel, rhs[..., None])[..., 0]
    return 2.0 * np.linalg.norm(center - xe[:, 0, :], axis=1)


def facet_geometry(mesh: Mesh, group: str):
    """Outward unit normals and measures of a facet group.

    Returns (normals (F, dim), areas (F,)).
    """
    fg = mesh.facet_groups[group]
    xf = mesh.coords[fg.nodes]                                # (F, k, dim)
    # from the parent element's centroid to the facet's
    outward = xf.mean(axis=1) - mesh.coords[mesh.elements[fg.parents]].mean(axis=1)
    if mesh.dim == 1:
        return np.sign(outward), np.ones(fg.nodes.shape[0])
    if mesh.dim == 2:
        tang = xf[:, 1, :] - xf[:, 0, :]
        normals = np.column_stack([tang[:, 1], -tang[:, 0]])
        areas = np.linalg.norm(tang, axis=1)
    else:
        cr = np.cross(xf[:, 1, :] - xf[:, 0, :], xf[:, 2, :] - xf[:, 0, :])
        areas = 0.5 * np.linalg.norm(cr, axis=1)
        normals = cr
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    flip = np.einsum("fi,fi->f", normals, outward) < 0.0
    normals[flip] *= -1.0
    return normals, areas


@dataclass(frozen=True)
class FacetQuadData:
    """Facet-group quadrature: shape values, weighted points, outward normals.

    node_ids are the group's nodes, ascending, and node_weights and
    node_normals the facet integrals of their shape functions: the
    integral of a P1 field f over the group is node_weights . f[node_ids]
    (mean divides it by the group's area), and the outward flux of a P1
    vector field u is sum(node_normals * u[node_ids]) (outward_flow).  The
    two sums are built at their first use and kept, read-only like the
    fields.
    """

    nodes: np.ndarray      # (F, k) facet node ids
    shape: np.ndarray      # (qf, k) facet shape values
    weights: np.ndarray    # (F, qf), sums to the facet measure per facet
    normals: np.ndarray    # (F, dim) unit outward
    points: np.ndarray     # (F, qf, dim) physical quadrature points
    areas: np.ndarray      # (F,)
    node_ids: np.ndarray   # (K,) the distinct entries of nodes, ascending

    @cached_property
    def _node_integrals(self) -> np.ndarray:
        """(K, 1 + dim): sum_f sum_q w_q N_A, then times n_i."""
        slot = np.searchsorted(self.node_ids, self.nodes).ravel()
        # sum_q w_q N_A of each facet node, times [1 | n_i] of its facet
        one_normal = np.c_[np.ones(len(self.normals)), self.normals]
        per_node = (self.weights @ self.shape)[..., None] * one_normal[:, None]
        sums = np.zeros((self.node_ids.size, one_normal.shape[1]))
        np.add.at(sums, slot, per_node.reshape(slot.size, -1))
        return sums

    @cached_property
    def node_weights(self) -> np.ndarray:
        """(K,) sum_f sum_q w_q N_A."""
        return _read_only(self._node_integrals[:, 0])

    @cached_property
    def node_normals(self) -> np.ndarray:
        """(K, dim) sum_f sum_q w_q N_A n_i."""
        return _read_only(self._node_integrals[:, 1:])

    def outward_flow(self, velocity: np.ndarray) -> np.ndarray:
        """Outward flux of a P1 vector field (n_nodes, dim, ...) through the group, (...)."""
        return np.tensordot(self.node_normals, velocity[self.node_ids], axes=2)

    def mean(self, nodal: np.ndarray) -> np.ndarray:
        """Area average of a P1 field (n_nodes, ...) over the group, (...)."""
        return np.tensordot(self.node_weights, nodal[self.node_ids], axes=1) / self.areas.sum()

    def interpolate(self, nodal: np.ndarray) -> np.ndarray:
        """Nodal values (n_nodes, ...) at every facet quadrature point, (F, qf, ...)."""
        return np.einsum("qa,fa...->fq...", self.shape, nodal[self.nodes])


def facet_quadrature(mesh: Mesh, group: str) -> FacetQuadData:
    """Quadrature data for all facets of a named boundary group.

    Built once per mesh and group and cached on the mesh; the arrays are
    read-only views, so editing one in place raises.
    """
    cached = mesh._facet_quad.get(group)
    if cached is not None:
        return cached
    fg = mesh.facet_groups[group]
    rule = facet_rule(mesh.elem_type)
    ft = FACET_TYPE[mesh.elem_type]
    vals = shape_values(ft, rule.points)
    normals, areas = facet_geometry(mesh, group)
    scale = areas / rule.weights.sum()
    weights = rule.weights[None, :] * scale[:, None]
    points = np.einsum("qk,fki->fqi", vals, mesh.coords[fg.nodes])
    arrays = [_read_only(arr) for arr in (fg.nodes, vals, weights, normals, points, areas)]
    mesh._facet_quad[group] = FacetQuadData(*arrays, mesh.group_nodes(group))
    return mesh._facet_quad[group]


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of arr."""
    view = arr.view()
    view.setflags(write=False)
    return view


# ---------------------------------------------------------------------------
# structured generators
# ---------------------------------------------------------------------------

def generate_interval(length: float, n_elems: int) -> Mesh:
    """Uniform line2 mesh on [0, length] with facet groups left/right."""
    if n_elems < 1:
        raise ValueError("n_elems must be >= 1")
    coords = np.linspace(0.0, length, n_elems + 1)[:, None]
    elements = np.column_stack([np.arange(n_elems), np.arange(1, n_elems + 1)])
    groups = {
        "left": FacetGroup("left", np.array([[0]]), np.array([0])),
        "right": FacetGroup("right", np.array([[n_elems]]), np.array([n_elems - 1])),
    }
    return Mesh(1, coords, elements, "line2", groups)


def boundary_faces(elements: np.ndarray, elem_type: str):
    """Faces appearing in exactly one element, with their parents.

    Of a tri3 facet patch, boundary_faces(patch, "tri3") gives its rim edges.
    """
    local = np.array(_ELEM_FACES[elem_type])
    faces = elements[:, local]                                # (E, n_faces, k)
    n_el, n_f, k = faces.shape
    flat = faces.reshape(-1, k)
    parents = np.repeat(np.arange(n_el), n_f)
    key = np.sort(flat, axis=1)
    _, inv, counts = np.unique(key, axis=0, return_inverse=True, return_counts=True)
    on_boundary = counts[inv] == 1
    return flat[on_boundary], parents[on_boundary]


def _group_by_plane(coords, faces, parents, planes, tol):
    groups = {}
    centroids = coords[faces].mean(axis=1)
    taken = np.zeros(faces.shape[0], dtype=bool)
    for name, (axis, value) in planes.items():
        sel = np.abs(centroids[:, axis] - value) < tol
        groups[name] = FacetGroup(name, faces[sel], parents[sel])
        taken |= sel
    if not taken.all():
        raise RuntimeError("boundary faces left unassigned to a facet group")
    return groups


def generate_rect_tri(extents, resolution) -> Mesh:
    """Structured tri3 mesh of a rectangle, groups xmin/xmax/ymin/ymax."""
    lx, ly = extents
    nx, ny = resolution
    if nx < 1 or ny < 1:
        raise ValueError("resolution must be >= 1 per axis")
    x = np.linspace(0.0, lx, nx + 1)
    y = np.linspace(0.0, ly, ny + 1)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    coords = np.column_stack([xx.ravel(), yy.ravel()])
    nid = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    c00 = nid[:-1, :-1].ravel()
    c10 = nid[1:, :-1].ravel()
    c01 = nid[:-1, 1:].ravel()
    c11 = nid[1:, 1:].ravel()
    tri1 = np.column_stack([c00, c10, c11])
    tri2 = np.column_stack([c00, c11, c01])
    elements = np.vstack([tri1, tri2])
    faces, parents = boundary_faces(elements, "tri3")
    tol = 1e-12 * max(lx, ly)
    planes = {"xmin": (0, 0.0), "xmax": (0, lx), "ymin": (1, 0.0), "ymax": (1, ly)}
    groups = _group_by_plane(coords, faces, parents, planes, tol)
    return Mesh(2, coords, elements, "tri3", groups)


_KUHN_TETS = [(0, 1, 3, 7), (0, 3, 2, 7), (0, 2, 6, 7),
              (0, 6, 4, 7), (0, 4, 5, 7), (0, 5, 1, 7)]


def generate_box_tet(extents, resolution) -> Mesh:
    """Structured tet4 mesh of a box (6 tets per hex cell), groups per face."""
    lx, ly, lz = extents
    nx, ny, nz = resolution
    if min(nx, ny, nz) < 1:
        raise ValueError("resolution must be >= 1 per axis")
    x = np.linspace(0.0, lx, nx + 1)
    y = np.linspace(0.0, ly, ny + 1)
    z = np.linspace(0.0, lz, nz + 1)
    xx, yy, zz = np.meshgrid(x, y, z, indexing="ij")
    coords = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    nid = np.arange(coords.shape[0]).reshape(nx + 1, ny + 1, nz + 1)
    # hex corner c_{i + 2j + 4k} convention over local offsets (dx, dy, dz)
    corners = [nid[dx:nx + dx, dy:ny + dy, dz:nz + dz].ravel()
               for dz in (0, 1) for dy in (0, 1) for dx in (0, 1)]
    corners = np.stack(corners, axis=1)                       # (cells, 8)
    elements = np.vstack([corners[:, list(t)] for t in _KUHN_TETS])
    faces, parents = boundary_faces(elements, "tet4")
    tol = 1e-12 * max(lx, ly, lz)
    planes = {"xmin": (0, 0.0), "xmax": (0, lx), "ymin": (1, 0.0),
              "ymax": (1, ly), "zmin": (2, 0.0), "zmax": (2, lz)}
    groups = _group_by_plane(coords, faces, parents, planes, tol)
    return Mesh(3, coords, elements, "tet4", groups)


def transform_coords(mesh: Mesh, fn: Callable[[np.ndarray], np.ndarray]) -> Mesh:
    """New mesh with mapped node coordinates; Jacobians are revalidated."""
    coords = np.asarray(fn(mesh.coords), dtype=float)
    out = Mesh(mesh.dim, coords, mesh.elements.copy(), mesh.elem_type,
               dict(mesh.facet_groups))
    out.element_data()  # raises on inverted elements
    return out


def generate_bent_channel_tet(length, height, width, resolution,
                              bend_angle: float = np.pi / 2) -> Mesh:
    """Tet mesh of a channel bent along a circular arc.

    A [0,L]x[0,H]x[0,W] box is wrapped so its x axis follows an arc of
    the given angle; the bend radius L/angle must exceed H for positive
    Jacobians.  Facet groups keep box names (xmin = inlet, xmax = outlet).
    """
    box = generate_box_tet((length, height, width), resolution)
    radius = length / bend_angle
    if radius <= height:
        raise ValueError("bend too tight: length/bend_angle must exceed height")

    def wrap(c):
        theta = c[:, 0] / radius
        r = radius + c[:, 1]
        return np.column_stack([r * np.sin(theta), r * np.cos(theta) - radius, c[:, 2]])

    return transform_coords(box, wrap)


def validate_mesh(mesh: Mesh) -> None:
    """Check facet/element consistency and the boundary partition."""
    mesh.element_data()
    all_faces, all_parents = boundary_faces(mesh.elements, mesh.elem_type)
    boundary = {tuple(sorted(f)) for f in all_faces.tolist()}
    seen = {}
    for name, fg in mesh.facet_groups.items():
        for f, p in zip(fg.nodes, fg.parents):
            key = tuple(sorted(f.tolist()))
            if not set(f) <= set(mesh.elements[p]):
                raise ValueError(f"facet {key} not contained in its parent element {p}")
            if key in seen:
                raise ValueError(f"facet {key} assigned to both {seen[key]} and {name}")
            seen[key] = name
            if key not in boundary:
                raise ValueError(f"facet {key} in group {name} is not on the boundary")
    missing = boundary - set(seen)
    if missing:
        raise ValueError(f"{len(missing)} boundary facets belong to no group")


# ---------------------------------------------------------------------------
# plain-text mesh files
# ---------------------------------------------------------------------------

class MeshFormatError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def save_mesh(mesh: Mesh, path) -> None:
    """Write the whitespace-delimited text format (diff-friendly)."""
    with open(path, "w") as fh:
        fh.write(f"dimension {mesh.dim}\n")
        fh.write(f"element_type {mesh.elem_type}\n")
        fh.write(f"nodes {mesh.n_nodes}\n")
        for row in mesh.coords:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        fh.write(f"elements {mesh.n_elements}\n")
        for row in mesh.elements:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")
        for name, fg in mesh.facet_groups.items():
            fh.write(f"facet_group {name} {fg.nodes.shape[0]}\n")
            for f, p in zip(fg.nodes, fg.parents):
                fh.write(str(int(p)) + " " + " ".join(str(int(v)) for v in f) + "\n")


def load_mesh(path) -> Mesh:
    """Parse the text format; malformed input or an id out of range raises with the line."""
    with open(path) as fh:
        lines = fh.readlines()
    pos = 0

    def next_tokens(expected: str | None = None):
        nonlocal pos
        while pos < len(lines):
            tok = lines[pos].split()
            pos += 1
            if not tok or tok[0].startswith("#"):
                continue
            if expected is not None and tok[0] != expected:
                raise MeshFormatError(pos, f"expected {expected!r}, got {tok[0]!r}")
            return tok
        raise MeshFormatError(len(lines), f"unexpected end of file (wanted {expected!r})")

    def ids(tokens, count: int, what: str) -> list:
        values = [int(v) for v in tokens]
        if not all(0 <= v < count for v in values):
            raise MeshFormatError(pos, f"{what} out of range [0, {count}): {values}")
        return values

    try:
        dim = int(next_tokens("dimension")[1])
        elem_type = next_tokens("element_type")[1]
        if elem_type not in ELEM_NODES:
            raise MeshFormatError(pos, f"unknown element type {elem_type!r}")
        n_nodes = int(next_tokens("nodes")[1])
        coords = np.empty((n_nodes, dim))
        for i in range(n_nodes):
            tok = next_tokens()
            if len(tok) != dim:
                raise MeshFormatError(pos, f"expected {dim} coordinates, got {len(tok)}")
            coords[i] = [float(v) for v in tok]
        n_el = int(next_tokens("elements")[1])
        nen = ELEM_NODES[elem_type]
        elements = np.empty((n_el, nen), dtype=int)
        for i in range(n_el):
            tok = next_tokens()
            if len(tok) != nen:
                raise MeshFormatError(pos, f"expected {nen} node ids, got {len(tok)}")
            elements[i] = ids(tok, n_nodes, "node id")
        groups = {}
        k = FACET_NODES[FACET_TYPE[elem_type]]
        while pos < len(lines):
            if not lines[pos].split() or lines[pos].split()[0].startswith("#"):
                pos += 1
                continue
            tok = next_tokens("facet_group")
            name, count = tok[1], int(tok[2])
            nodes = np.empty((count, k), dtype=int)
            parents = np.empty(count, dtype=int)
            for i in range(count):
                row = next_tokens()
                if len(row) != k + 1:
                    raise MeshFormatError(pos, f"expected parent + {k} node ids")
                parents[i] = ids(row[:1], n_el, "parent id")[0]
                nodes[i] = ids(row[1:], n_nodes, "node id")
            groups[name] = FacetGroup(name, nodes, parents)
        if not groups:
            raise MeshFormatError(pos, "missing facet_group section")
    except (ValueError, IndexError) as err:
        if isinstance(err, MeshFormatError):
            raise
        raise MeshFormatError(pos, str(err)) from err
    return Mesh(dim, coords, elements, elem_type, groups)
