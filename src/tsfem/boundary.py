"""Boundary data shared by the solvers: facet-group roles, Dirichlet values,
the Neumann traction term and the backflow facet and edge blocks.

Boundary data of a facet group is uniform (an array of the per-node
shape, or SpectralCoeffs), a callable of the node coordinates, or, for
Dirichlet data, NodalValues.  resolve_dirichlet merges the groups in
order, walls last, and where groups share nodes the later one wins; the
merge (DirichletNodes) depends on the groups only, so a time run resolves
it once and evaluates the values at each step.
The data of a group that no step changes, its node set (Mesh.group_nodes)
and the facet integrals of its shape functions (its FacetQuadData), is
built at the first use and kept on the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

import numpy as np

from .mesh import Mesh
from .spectral import SpectralCoeffs

__all__ = ["DirichletNodes", "NodalValues", "add_backflow", "add_traction", "backflow_facets",
           "check_groups", "boundary_values", "resolve_dirichlet"]


@dataclass(frozen=True)
class NodalValues:
    """Per-node boundary values, e.g. a scaled inflow profile."""

    nodes: np.ndarray   # (K,) node ids
    values: np.ndarray  # (K, dim, 2N-1) complex


def check_groups(mesh: Mesh, **roles: Iterable[str]) -> None:
    """Every group named under a role (a keyword) exists and has that role only."""
    seen: Dict[str, str] = {}
    for role, names in roles.items():
        for name in names:
            if name not in mesh.facet_groups:
                raise ValueError(f"unknown facet group {name!r}")
            if name in seen:
                raise ValueError(f"facet group {name!r} assigned to both "
                                 f"{seen[name]} and {role}")
            seen[name] = role


def boundary_values(data, shape: tuple, what: str, coords: np.ndarray | None = None,
                    *args, dtype=complex) -> np.ndarray:
    """Boundary data as an array: shape for uniform data, (P,) + shape for a callable.

    A callable is evaluated as data(coords, *args) at the points coords
    (P, dim); `what` names the data in the ValueError a wrong shape raises.
    """
    if isinstance(data, SpectralCoeffs):
        data = data.values
    if callable(data):
        vals = np.asarray(data(coords, *args), dtype=dtype)
        shape = (coords.shape[0],) + shape
    else:
        vals = np.asarray(data, dtype=dtype)
    if vals.shape != shape:
        raise ValueError(f"{what}: expected shape {shape}, got {vals.shape}")
    return vals


@dataclass(frozen=True)
class DirichletNodes:
    """The node set of some Dirichlet groups and the group whose value each node takes.

    ids are the nodes, ascending.  Stacking the values of the groups in
    order, then n_wall zero rows of the walls, ids[k] takes row rows[k]:
    that of the last group that holds it.  These depend on the groups only,
    so a run resolves them once and evaluates the values at each step.
    """

    ids: np.ndarray    # (K,)
    rows: np.ndarray   # (K,)
    n_wall: int

    @classmethod
    def of(cls, mesh: Mesh, dirichlet: Dict[str, object],
           walls: Iterable[str]) -> "DirichletNodes":
        parts = [np.asarray(data.nodes) if isinstance(data, NodalValues)
                 else mesh.group_nodes(name) for name, data in dirichlet.items()]
        walls = [mesh.group_nodes(name) for name in walls]
        # the first occurrence in the reversed concatenation is the last group's
        nodes = np.concatenate(parts + walls + [np.zeros(0, dtype=int)])[::-1]
        ids, last = np.unique(nodes, return_index=True)
        return cls(ids, nodes.size - 1 - last, sum(w.size for w in walls))

    def values(self, mesh: Mesh, dirichlet: Dict[str, object], shape: tuple, *args,
               dtype=complex) -> np.ndarray:
        """The values (K,) + shape at ids of the groups this set was resolved from.

        dirichlet maps facet groups to NodalValues or to boundary_values
        data (callables take the node coordinates and *args); the walls get
        zeros.
        """
        parts = []
        for name, data in dirichlet.items():
            if isinstance(data, NodalValues):
                parts.append(np.asarray(data.values, dtype=dtype))
                continue
            nodes = mesh.group_nodes(name)
            vals = boundary_values(data, shape, f"dirichlet data of group {name!r}",
                                   mesh.coords[nodes], *args, dtype=dtype)
            parts.append(np.broadcast_to(vals, (nodes.size,) + shape))
        parts.append(np.zeros((self.n_wall,) + shape, dtype=dtype))
        return np.concatenate(parts)[self.rows]


def resolve_dirichlet(mesh: Mesh, dirichlet: Dict[str, object], walls: Iterable[str],
                      shape: tuple, *args, dtype=complex):
    """Dirichlet node ids (ascending) and their values (K,) + shape.

    dirichlet maps facet groups to NodalValues or to boundary_values data
    (callables take the node coordinates and *args); the walls get zeros.
    A node in several groups takes the value of the last one, walls last
    (DirichletNodes).
    """
    nodes = DirichletNodes.of(mesh, dirichlet, walls)
    return nodes.ids, nodes.values(mesh, dirichlet, shape, *args, dtype=dtype)


def add_traction(out: np.ndarray, fq, h) -> None:
    """Add the traction term -sum_q w_q N_A h n_i of a facet group to out in place.

    fq is the group's FacetQuadData and out the momentum rows of a residual,
    (n_nodes, dim) for a scalar h or (n_nodes, dim, M) for a vector h (M,),
    such as the real mode coordinates of the spectral solver.  The facet
    sums are fq.node_normals, so the term is one product.
    """
    out[fq.node_ids] -= np.multiply.outer(fq.node_normals, h)


def backflow_facets(fq, scale: float, an_neg: np.ndarray) -> np.ndarray:
    """scale sum_q w_q N_A N_B |A_n|_- on each facet of a group, (F, k, k, M, M).

    an_neg is |A_n|_- at every facet quadrature point of fq, (F, Q, M, M);
    the result holds facet f's block of nodes (a, b) at [f, a, b].
    """
    return np.einsum("fq,qa,qb,fqrc->fabrc", scale * fq.weights, fq.shape, fq.shape, an_neg)


def add_backflow(blocks: np.ndarray, ctx, fq, scale: float, an_neg: np.ndarray) -> None:
    """Add the backflow_facets blocks of a facet group to the edge blocks in place.

    blocks are the (n_edges, M, M) blocks on the edges of ctx, the mesh's
    AssemblyContext, whose edge_ids locate each facet node pair.
    """
    k_el = backflow_facets(fq, scale, an_neg)
    np.add.at(blocks, ctx.edge_ids(fq.nodes), k_el.reshape((-1,) + blocks.shape[1:]))
