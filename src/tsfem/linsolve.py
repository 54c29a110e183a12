"""Real nodal-block systems, their exact level LU factors, and restarted GMRES.

The spectral solvers solve in real unknowns: per node and component, the
layout holds the 2N-1 orthonormal real coordinates of spectral's real
basis (spectral.modes_to_real), the steady mode and then the cos/sin pair
of each harmonic.  Both spectral solvers assemble in these coordinates, so
their blocks and residuals are solved as assembled, and the Euclidean
norm of a layout vector is the Parseval norm of its complex modes.  A
complex mode-coupled operator A has the blocks Q A Q^H here, which
spectral.real_basis(N).matrix gives.  The only pinned slots are the
Dirichlet ones (layout_pins).

The Navier-Stokes tangent is stored block-structured: the 6 identically
zero component blocks are never stored, the velocity diagonal block K is
stored once per node pair and reused for every direction, and the
gradient/divergence blocks are one real scalar per node pair and direction,
the Galerkin coefficient that multiplies every mode slot.  Its Newton
operator is a BlockTangent without these edge blocks, applied per element;
the edge blocks are formed for the preconditioner.

Nodal-block systems are solved by their exact factor; GMRES iterates on
the per-element Navier-Stokes Newton operator alone.  Every factor is
built on one kernel, _level_lu: the exact block LU of a stack of
independent pinned systems on the mesh graph, over its breadth-first
levels (LevelPlan, kept per mesh by AssemblyContext.level_plan), over
which each system is block tridiagonal.  A BlockMatrix is one system
(level_lu_preconditioner).  The Navier-Stokes tangent is preconditioned
block-Jacobi over harmonics (block_jacobi_preconditioner): one system per
mode, its cos/sin pair over all nodes and components, with the coupling
between harmonics dropped.  A factor above LEVEL_LU_MAX_BYTES is refused.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "GmresResult",
    "SolverConfig",
    "BlockMatrix",
    "BlockTangent",
    "AssemblyContext",
    "Segments",
    "SortedSegments",
    "assembly_context",
    "build_graph",
    "LinearSolveError",
    "gmres",
    "block_jacobi_preconditioner",
    "LEVEL_LU_MAX_BYTES",
    "LevelPlan",
    "level_lu_preconditioner",
    "layout_pins",
    "pinned_operator",
]


@dataclass
class SolverConfig:
    """Nonlinear and linear solver parameters.

    gmres reads krylov_dim (restart), max_linear_iters (matvec cap) and
    eps_ls (relative tolerance, also the scalar factor solve's bound).
    pseudo_dt is the initial pseudo-time step of the spectral solver, which
    grows it as the residual falls; pseudo_dt = inf disables pseudo-time
    stepping (plain Newton), and pseudo_dt = None selects the initial step
    from the case time scales.  Each ValueError message starts with the
    name of the field it rejects.
    """

    eps_nr: float = 1e-3
    eps_ls: float = 0.05
    krylov_dim: int = 100
    max_linear_iters: int = 10_000
    pseudo_dt: Optional[float] = None
    max_steps: int = 200

    def __post_init__(self):
        for name in ("eps_nr", "eps_ls"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {getattr(self, name)!r}")
        if self.krylov_dim < 2:
            raise ValueError("krylov_dim must be >= 2")
        if self.max_linear_iters < 2:   # a GMRES cycle of one Arnoldi step takes two matvecs
            raise ValueError(f"max_linear_iters must be >= 2, got {self.max_linear_iters!r}")
        if self.pseudo_dt is not None and not self.pseudo_dt > 0.0:
            raise ValueError("pseudo_dt must be positive (inf for plain Newton), "
                             f"got {self.pseudo_dt!r}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps!r}")


def build_graph(elements: np.ndarray, n_nodes: int):
    """Directed nodal edge list of a mesh connectivity.

    Returns (rows, cols, edge_of) where edge_of[e, a, b] is the edge index
    of the (row, col) = (elements[e, a], elements[e, b]) pair.
    """
    elements = np.asarray(elements)
    nen = elements.shape[1]
    rows_el = np.repeat(elements, nen, axis=1).ravel()
    cols_el = np.tile(elements, (1, nen)).ravel()
    key = rows_el.astype(np.int64) * n_nodes + cols_el
    uniq, inv = np.unique(key, return_inverse=True)
    rows = (uniq // n_nodes).astype(int)
    cols = (uniq % n_nodes).astype(int)
    edge_of = inv.reshape(elements.shape[0], nen, nen)
    return rows, cols, edge_of


def segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """First position of each run of equal keys in a sorted key array."""
    return np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])


@dataclass(frozen=True)
class Segments:
    """Scatter plan for adding values onto repeated keys.

    add_to(out, values) does np.add.at(out, keys, values) with one gather
    per segment rank.  The distinct keys are ordered by their number of
    values, most first, so the keys with more than k values are a prefix
    of them; rank k gathers the k-th value (in key order) of each and adds
    it to that prefix of an accumulator, which is added to out once.  Each
    key's values are summed in their original order.
    """

    ids: np.ndarray  # distinct keys, by number of values, most first
    ranks: tuple     # of (number of keys with more than k values, their k-th rows)

    @classmethod
    def of(cls, keys: np.ndarray) -> "Segments":
        keys = np.asarray(keys).ravel()
        order = np.argsort(keys, kind="stable")
        starts = segment_starts(keys[order])[:keys.size]   # no segment for no keys
        counts = np.diff(np.r_[starts, keys.size])
        by_count = np.argsort(-counts, kind="stable")
        starts, counts = starts[by_count], counts[by_count]
        ranks = []
        for k in range(int(counts.max(initial=0))):
            n_k = int(np.count_nonzero(counts > k))
            ranks.append((n_k, order[starts[:n_k] + k]))
        return cls(keys[order][starts], tuple(ranks))

    def add_to(self, out: np.ndarray, values: np.ndarray) -> None:
        if not self.ranks:
            return
        acc = values[self.ranks[0][1]]
        for n_k, rows in self.ranks[1:]:
            acc[:n_k] += values[rows]
        out[self.ids] += acc


@dataclass(frozen=True)
class SortedSegments:
    """Scatter plan that adds values onto repeated keys by one sorted reduceat.

    add_to(out, values) does np.add.at(out, keys, values): the values are
    gathered in stable key order, so each key's values stay in their
    original order, and np.add.reduceat sums each run.  numpy vectorizes
    that sum, so the result equals np.add.at to rounding, not bit for bit
    as Segments does.  It pays one gather and one reduction whatever the
    number of values per key, where Segments pays one gather per rank: it
    is the faster plan for keys with long runs, such as the nodes of the
    elements.
    """

    order: np.ndarray   # value rows in stable key order
    starts: np.ndarray  # first row of each key's run in that order
    ids: np.ndarray     # the distinct keys, ascending

    @classmethod
    def of(cls, keys: np.ndarray) -> "SortedSegments":
        keys = np.asarray(keys).ravel()
        order = np.argsort(keys, kind="stable")
        starts = segment_starts(keys[order])[:keys.size]   # no segment for no keys
        return cls(order, starts, keys[order][starts])

    def add_to(self, out: np.ndarray, values: np.ndarray) -> None:
        if self.starts.size:
            out[self.ids] += np.add.reduceat(np.take(values, self.order, axis=0), self.starts,
                                             axis=0)


def _neighbours(indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Every entry of the CSR rows of the given nodes, in one gather."""
    starts, counts = indptr[nodes], indptr[nodes + 1] - indptr[nodes]
    first = np.cumsum(counts) - counts
    return indices[np.repeat(starts - first, counts) + np.arange(counts.sum())]


def _bfs_levels(indptr: np.ndarray, indices: np.ndarray, root: int) -> list:
    """Breadth-first level sets of the component of root, each sorted."""
    seen = np.zeros(indptr.size - 1, dtype=bool)
    seen[root] = True
    levels = [np.array([root])]
    while True:
        reached = np.unique(_neighbours(indptr, indices, levels[-1]))
        reached = reached[~seen[reached]]
        if not reached.size:
            return levels
        seen[reached] = True
        levels.append(reached)


@dataclass(frozen=True)
class LevelPlan:
    """Breadth-first level sets of a nodal graph, the block rows of level_lu_preconditioner.

    Node i lies in level level[i], at position slot[i] of it.  Every edge
    of the symmetrised graph joins nodes of the same or of adjacent levels,
    so a BlockMatrix on the graph is block tridiagonal over the levels.
    Each connected component is rooted at a pseudo-peripheral node
    (George & Liu, ACM TOMS 5(3), 1979): the root of a longest level
    structure found by re-rooting at a least-degree node of the last level,
    which keeps the levels narrow (Cuthill & McKee, 1969).  The levels of
    the components follow one another.
    """

    level: np.ndarray     # (n_nodes,)
    slot: np.ndarray      # (n_nodes,)
    n_levels: int

    @classmethod
    def of(cls, rows: np.ndarray, cols: np.ndarray, n_nodes: int) -> "LevelPlan":
        keys = np.r_[rows, cols]
        order = np.argsort(keys, kind="stable")
        indices = np.r_[cols, rows][order]
        indptr = np.searchsorted(keys[order], np.arange(n_nodes + 1))
        degree = np.diff(indptr)
        level = np.full(n_nodes, -1)
        slot = np.zeros(n_nodes, dtype=int)
        n_levels = 0
        while np.any(level < 0):
            left = np.flatnonzero(level < 0)
            levels = _bfs_levels(indptr, indices, left[np.argmin(degree[left])])
            while True:
                last = levels[-1]
                rerooted = _bfs_levels(indptr, indices, last[np.argmin(degree[last])])
                if len(rerooted) <= len(levels):
                    break
                levels = rerooted
            for k, nodes in enumerate(levels):
                level[nodes] = n_levels + k
                slot[nodes] = np.arange(nodes.size)
            n_levels += len(levels)
        return cls(level, slot, n_levels)


@dataclass(frozen=True)
class AssemblyContext:
    """Per-mesh scatter plan: the nodal graph and its sorted reductions.

    nodes is the SortedSegments of the element-node keys (residual and
    element-operator scatter: few keys, long runs) and edges the Segments
    of the build_graph edge_of keys (tangent scatter: many keys, short
    runs).  The graph's LevelPlan is built by the first level_plan call and
    kept here.
    """

    rows: np.ndarray
    cols: np.ndarray
    n_nodes: int
    nodes: SortedSegments
    edges: Segments
    _levels: Optional[LevelPlan] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, elements: np.ndarray, n_nodes: int, graph) -> "AssemblyContext":
        """Plan for a connectivity and its build_graph output."""
        rows, cols, edge_of = graph
        return cls(rows, cols, n_nodes, SortedSegments.of(elements), Segments.of(edge_of))

    def edge_ids(self, nodes: np.ndarray) -> np.ndarray:
        """Edge index of every (nodes[f, a], nodes[f, b]) pair, in (f, a, b) order.

        Every pair must be an edge of the graph, e.g. the nodes of a facet.
        """
        k = nodes.shape[1]
        keys = self.rows.astype(np.int64) * self.n_nodes + self.cols
        r = np.repeat(nodes, k, axis=1).ravel().astype(np.int64)
        c = np.tile(nodes, (1, k)).ravel()
        return np.searchsorted(keys, r * self.n_nodes + c)

    def level_plan(self) -> LevelPlan:
        """The graph's LevelPlan, built at the first call and kept."""
        if self._levels is None:
            object.__setattr__(self, "_levels", LevelPlan.of(self.rows, self.cols, self.n_nodes))
        return self._levels


def assembly_context(mesh, graph_builder: Callable) -> AssemblyContext:
    """The mesh's scatter plan, built at its first assembly and cached on it.

    graph_builder is the build_graph the calling solver imported; going
    through the caller's name lets a wrapper installed there see the one
    graph build per mesh.
    """
    if mesh._assembly is None:
        mesh._assembly = AssemblyContext.build(
            mesh.elements, mesh.n_nodes, graph_builder(mesh.elements, mesh.n_nodes))
    return mesh._assembly


@dataclass
class BlockMatrix:
    """Sparse matrix of dense nodal blocks on a directed edge list.

    The rows must be sorted, as build_graph returns them; row_starts, the
    starts of their runs, are worked out here.  A matvec is one batched
    product of the blocks with the gathered column values and one reduceat
    of the edge products over row_starts.
    """

    rows: np.ndarray
    cols: np.ndarray
    blocks: np.ndarray  # (n_edges, b, b), real or complex
    n_nodes: int
    row_starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if np.any(self.rows[1:] < self.rows[:-1]):
            raise ValueError("BlockMatrix rows must be sorted")
        self.row_starts = segment_starts(self.rows)[:self.rows.size]   # no run for no edges

    @property
    def block_size(self) -> int:
        return self.blocks.shape[-1]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        prod = np.matmul(self.blocks, np.asarray(x).reshape(self.n_nodes, -1)[self.cols, :, None])
        y = np.zeros((self.n_nodes, self.block_size), dtype=prod.dtype)
        y[self.rows[self.row_starts]] = np.add.reduceat(prod[..., 0], self.row_starts, axis=0)
        return y.ravel()

    def to_dense(self) -> np.ndarray:
        b = self.block_size
        dense = np.zeros((self.n_nodes * b, self.n_nodes * b), dtype=self.blocks.dtype)
        for r, c, blk in zip(self.rows, self.cols, self.blocks):
            dense[r * b:(r + 1) * b, c * b:(c + 1) * b] += blk
        return dense


def layout_pins(n_nodes: int, n_modes: int, dir_nodes: np.ndarray,
                n_comp: int = 1, n_dir_comp: int = 1) -> np.ndarray:
    """Pinned slots of a flattened layout with n_comp components per node.

    Every slot of the first n_dir_comp components at the Dirichlet nodes
    dir_nodes is pinned, and no other.  A spectral layout has 2N-1 slots
    per component; the time-domain one, a single slot, is n_modes = 1.
    """
    pins = np.zeros((n_nodes, n_comp, 2 * n_modes - 1), dtype=bool)
    pins[dir_nodes, :n_dir_comp, :] = True
    return pins.ravel()


def pinned_operator(matvec: Callable, pins: np.ndarray) -> Callable:
    """Wrap a matvec so pinned slots act as identity rows/columns."""

    def apply(x):
        x0 = np.array(x, copy=True)
        x0[pins] = 0.0
        y = matvec(x0)
        y[pins] = np.asarray(x)[pins]
        return y

    return apply


# ---------------------------------------------------------------------------
# Navier-Stokes block tangent
# ---------------------------------------------------------------------------

@dataclass
class BlockTangent:
    """Real tangent with the zero component blocks never stored.

    Per directed node pair: k_real is the shared velocity diagonal block,
    l_real the pressure block, and g_diag/d_diag the real gradient and
    divergence coefficients of each direction, each multiplying every mode
    slot (the (2N-1)x(2N-1) block g I).  g_full/d_full optionally hold
    mode-coupled blocks, which replace g_diag/d_diag where set; no solver
    sets them (the exact NS tangent is applied per element).  The matvec
    applies K to row vectors as x K^T, which BLAS reads contiguously when
    the K blocks are stored column-major, as the NS assembly stores them.
    The rows must be sorted, as build_graph returns them; row_starts, the
    starts of their runs, are worked out here once per tangent and the
    matvec reduces the edge products over them.

    elements optionally adds an operator that is kept per element rather
    than per edge: an object whose add_to(x, y) adds its product with the
    (n_nodes, dim+1, 2N-1) array x to y.  The edge blocks are optional too:
    the NS Newton operator is applied by its elements alone, with k_real,
    l_real, g_diag and d_diag None, and its edge blocks are assembled only
    for the preconditioner.  The preconditioner and to_dense read the edge
    blocks only, and need them.
    """

    rows: np.ndarray
    cols: np.ndarray
    n_nodes: int
    dim: int
    n_modes: int
    k_real: Optional[np.ndarray] = None   # (E, 2N-1, 2N-1)
    l_real: Optional[np.ndarray] = None   # (E, 2N-1, 2N-1)
    g_diag: Optional[np.ndarray] = None   # (E, dim)
    d_diag: Optional[np.ndarray] = None   # (E, dim)
    g_full: Optional[np.ndarray] = field(default=None, repr=False)
    d_full: Optional[np.ndarray] = field(default=None, repr=False)
    elements: Optional[object] = field(default=None, repr=False)
    row_starts: np.ndarray = field(init=False, repr=False)
    _edge_out: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if np.any(self.rows[1:] < self.rows[:-1]):
            raise ValueError("BlockTangent rows must be sorted")
        self.row_starts = segment_starts(self.rows)
        self._edge_out = np.empty((self.rows.shape[0], self.dim + 1, self.n_slots)) \
            if self.has_edges else None

    @property
    def has_edges(self) -> bool:
        """Whether the edge blocks are stored (the element operator alone otherwise)."""
        return self.k_real is not None

    @property
    def n_slots(self) -> int:
        """Real slots per node and component, 2N-1."""
        return 2 * self.n_modes - 1

    @property
    def n_dof(self) -> int:
        return self.n_nodes * (self.dim + 1) * self.n_slots

    def matvec(self, x: np.ndarray) -> np.ndarray:
        d, m = self.dim, self.n_slots
        xn = np.asarray(x).reshape(self.n_nodes, d + 1, m)
        y = np.zeros((self.n_nodes, d + 1, m))
        if self.has_edges:
            xc = xn[self.cols]
            xv, xp = xc[:, :d], xc[:, d]
            out = self._edge_out                 # (E, d+1, 2N-1) edge products
            np.matmul(xv, self.k_real.swapaxes(1, 2), out=out[:, :d])
            np.matmul(self.l_real, xp[..., None], out=out[:, d, :, None])
            if self.g_full is not None:
                out[:, :d] += np.matmul(self.g_full, xp[:, None, :, None])[..., 0]
            else:
                out[:, :d] += self.g_diag[:, :, None] * xp[:, None, :]
            if self.d_full is not None:
                out[:, d] += np.einsum("edij,edj->ei", self.d_full, xv)
            else:
                out[:, d] += np.einsum("ed,edj->ej", self.d_diag, xv)
            y[self.rows[self.row_starts]] = np.add.reduceat(out, self.row_starts, axis=0)
        if self.elements is not None:
            self.elements.add_to(xn, y)
        return y.ravel()

    def _coupling(self, full, scalar) -> np.ndarray:
        """Gradient or divergence blocks of every edge, (E, dim, 2N-1, 2N-1)."""
        if full is not None:
            return full
        return scalar[:, :, None, None] * np.eye(self.n_slots)

    def to_dense(self) -> np.ndarray:
        """The edge blocks as a dense matrix; the element operator is left out."""
        if not self.has_edges:
            raise ValueError("BlockTangent.to_dense needs the edge blocks")
        d, m = self.dim, self.n_slots
        b = (d + 1) * m
        dense = np.zeros((self.n_nodes * b, self.n_nodes * b))
        g_real = self._coupling(self.g_full, self.g_diag)
        d_real = self._coupling(self.d_full, self.d_diag)
        for e in range(self.rows.shape[0]):
            r0, c0 = self.rows[e] * b, self.cols[e] * b
            for i in range(d):
                dense[r0 + i * m:r0 + (i + 1) * m, c0 + i * m:c0 + (i + 1) * m] += self.k_real[e]
                dense[r0 + i * m:r0 + (i + 1) * m, c0 + d * m:c0 + b] += g_real[e, i]
                dense[r0 + d * m:r0 + b, c0 + i * m:c0 + (i + 1) * m] += d_real[e, i]
            dense[r0 + d * m:r0 + b, c0 + d * m:c0 + b] += self.l_real[e]
        return dense


# ---------------------------------------------------------------------------
# GMRES
# ---------------------------------------------------------------------------

class LinearSolveError(RuntimeError):
    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(f"{message} (matvecs {iterations}, residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class GmresResult(NamedTuple):
    x: np.ndarray
    matvecs: int
    residuals: list
    converged: bool


def gmres(matvec: Callable, b: np.ndarray, config: SolverConfig,
          precond: Callable | None = None) -> GmresResult:
    """Right-preconditioned restarted GMRES from x = 0.

    Classical Gram-Schmidt with one reorthogonalization pass builds the
    Arnoldi basis; the Hessenberg least-squares problem is solved with
    Givens rotations, which give the residual norm of the unpreconditioned
    system after each Arnoldi step.  The first residual is b itself; every
    restart, and the end, takes the true residual b - Ax, so a cycle of k
    Arnoldi steps costs k + 1 matvecs, and its norm replaces the last
    rotation estimate of the cycle: the last recorded residual is the
    ||b - Ax|| the solve reached.  A cycle takes config.krylov_dim Arnoldi
    steps at most.  Terminates when ||Ax - b|| <= eps_ls*||b||, on
    stagnation, or when the budget of max_linear_iters matvecs cannot pay
    for another cycle (flagged in the result), which is never exceeded.
    """
    b = np.asarray(b, dtype=float).ravel()
    if not np.all(np.isfinite(b)):
        raise ValueError("gmres: right-hand side contains NaN/Inf")
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return GmresResult(np.zeros_like(b), 0, [0.0], True)
    x = np.zeros_like(b)
    r, beta = b, norm_b
    target = config.eps_ls * norm_b
    matvecs = 0
    history = [float(beta)]
    prev_beta = np.inf

    while True:
        if beta <= target:
            return GmresResult(x, matvecs, history, True)
        if matvecs + 2 > config.max_linear_iters or beta >= prev_beta * (1.0 - 1e-14):
            return GmresResult(x, matvecs, history, False)
        prev_beta = beta

        k_max = min(config.krylov_dim, config.max_linear_iters - matvecs - 1)   # one for b - Ax
        v = np.empty((k_max + 1, b.size))
        v[0] = r / beta
        # the rotated Hessenberg columns, the Givens rotations and the
        # rotated right-hand side are small: kept as Python floats
        cols: list[list[float]] = []
        cs: list[float] = []
        sn: list[float] = []
        g = [float(beta)]
        for j in range(k_max):
            z = precond(v[j]) if precond is not None else v[j]
            w = matvec(z)
            matvecs += 1
            hj = v[:j + 1] @ w
            w = w - v[:j + 1].T @ hj
            corr = v[:j + 1] @ w
            w = w - v[:j + 1].T @ corr
            col = (hj + corr).tolist()
            h_low = float(np.linalg.norm(w))
            if not math.isfinite(h_low):
                raise RuntimeError(f"gmres: Arnoldi breakdown with NaN/Inf after {matvecs} matvecs")
            if h_low > 0.0:
                v[j + 1] = w / h_low
            # rotate the new column and update the residual estimate
            for i in range(j):
                t = cs[i] * col[i] + sn[i] * col[i + 1]
                col[i + 1] = -sn[i] * col[i] + cs[i] * col[i + 1]
                col[i] = t
            denom = math.hypot(col[j], h_low)
            c, s = (1.0, 0.0) if denom == 0.0 else (col[j] / denom, h_low / denom)
            cs.append(c)
            sn.append(s)
            col[j] = denom
            cols.append(col)
            g.append(-s * g[j])
            g[j] = c * g[j]
            history.append(abs(g[j + 1]))
            if abs(g[j + 1]) <= target or h_low == 0.0:
                break
        k_used = len(cols)
        y = [0.0] * k_used
        for i in range(k_used - 1, -1, -1):
            acc = 0.0
            for m in range(i + 1, k_used):
                acc += cols[m][i] * y[m]
            y[i] = (g[i] - acc) / cols[i][i]
        dz = v[:k_used].T @ np.array(y)
        x = x + (precond(dz) if precond is not None else dz)
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"gmres: non-finite iterate after {matvecs} matvecs")
        r = b - matvec(x)
        matvecs += 1
        beta = np.linalg.norm(r)
        if not np.isfinite(beta):
            raise RuntimeError(f"gmres: non-finite residual after {matvecs} matvecs")
        history[-1] = float(beta)


def _invert_blocks(blocks: np.ndarray):
    """Inverses of a stack of square blocks and the mask of the singular ones.

    The inverse of a singular block is left zero.
    """
    try:
        return np.linalg.inv(blocks), np.zeros(blocks.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        inv = np.zeros_like(blocks)
        singular = np.zeros(blocks.shape[0], dtype=bool)
        for i, block in enumerate(blocks):
            try:
                inv[i] = np.linalg.inv(block)
            except np.linalg.LinAlgError:
                singular[i] = True
        return inv, singular


# _level_lu raises MemoryError rather than allocate a factor larger than this, in bytes.
# It covers every mesh solved so far.  On the bent channel of benchmarks/cases at N=7
# the Navier-Stokes factor holds 153 MB at 15x5x5 (576 nodes) and 398 MB at 18x6x6
# (931 nodes; that solve took 11.0 s on a 2-vCPU host and peaked at 803 MB RSS); at
# 24x8x8 (2,025 nodes) it would hold 1.79 GB, a size never solved with this factor.
LEVEL_LU_MAX_BYTES = 2_000_000_000


def block_jacobi_preconditioner(op: BlockTangent, pins: np.ndarray | None = None,
                                plan: LevelPlan | None = None) -> Callable:
    """Block-Jacobi preconditioner of a BlockTangent's edge blocks over harmonics.

    A harmonic block is mode 0, or the cos/sin pair of mode n, taken over
    all nodes and components: the edge blocks with the coupling between
    harmonics dropped (Sicot, Puigt & Montagnac, AIAA J. 46, 2008).  The
    skew frequency coupling n omega rho M between the cos and sin of a mode
    stays inside its block.  Each block is inverted exactly by the level LU
    of _level_lu over plan, the LevelPlan of the tangent's graph
    (AssemblyContext.level_plan keeps one per mesh; built here when None),
    which raises MemoryError when the factor would exceed
    LEVEL_LU_MAX_BYTES.  The pins must pin every slot of a component alike
    (ValueError otherwise), as layout_pins does; pinned slots act as
    identity rows and columns.  A BlockMatrix is solved by
    level_lu_preconditioner.

    System h of _level_lu holds harmonic h in 2 slots per component: its
    cos/sin pair, or for mode 0 its one slot and a padding slot, an
    identity slot of its own.  Its edge blocks are the pair-diagonal parts
    of K (on every velocity direction), of L, and of the gradient and
    divergence blocks (g_full/d_full where set, else g_diag/d_diag times I).
    """
    if not isinstance(op, BlockTangent):
        raise TypeError("block_jacobi_preconditioner takes a BlockTangent; "
                        "precondition a BlockMatrix with level_lu_preconditioner")
    if not op.has_edges:
        raise ValueError("block_jacobi_preconditioner needs the tangent's edge blocks")
    if plan is None:
        plan = LevelPlan.of(op.rows, op.cols, op.n_nodes)
    n, d, n_h, m = op.n_nodes, op.dim, op.n_modes, op.n_slots
    b = 2 * (d + 1)
    free = np.ones((n, d + 1, m), dtype=bool) if pins is None \
        else ~np.asarray(pins).reshape(n, d + 1, m)
    if np.any(free != free[..., :1]):
        raise ValueError("block_jacobi_preconditioner: the pins must pin every mode slot "
                         "of a component alike")
    pair = np.r_[0, 0, np.arange(1, m)].reshape(n_h, 2)    # layout slot of each member
    real = np.ones((n_h, 2), dtype=bool)
    real[0, 1] = False                                      # mode 0's padding slot
    within = real[:, :, None] & real[:, None, :]            # (N, 2, 2) entries of the layout
    eye = np.eye(2) * within

    def pairs(blocks):
        """Pair-diagonal parts of (E, ..., m, m) blocks, (N, E, ..., 2, 2)."""
        return np.moveaxis(blocks[..., pair[:, :, None], pair[:, None, :]] * within, -3, 0)

    def coupling(full, scalar):
        return pairs(full) if full is not None \
            else scalar[None, :, :, None, None] * eye[:, None, None]

    blocks = np.zeros((n_h, op.rows.shape[0], d + 1, 2, d + 1, 2))
    k = pairs(op.k_real)
    for i in range(d):
        blocks[:, :, i, :, i, :] = k
    blocks[:, :, :d, :, d, :] = coupling(op.g_full, op.g_diag)
    blocks[:, :, d, :, :d, :] = coupling(op.d_full, op.d_diag).transpose(0, 1, 3, 2, 4)
    blocks[:, :, d, :, d, :] = pairs(op.l_real)
    blocks[0, op.rows == op.cols, :, 1, :, 1] = np.eye(d + 1)
    lu = _level_lu(blocks.reshape(n_h, -1, b, b), op.rows, op.cols,
                   np.repeat(free[..., :1], 2, axis=2).reshape(n, b), plan)

    # solve-layout index of each (harmonic, node, component, member); the padding reads a zero
    src = (((np.arange(n)[:, None] * (d + 1) + np.arange(d + 1)) * m)[None, :, :, None]
           + pair[:, None, None, :])
    src[0, ..., 1] = n * (d + 1) * m
    src = src.reshape(n_h, n * b)
    keep = np.broadcast_to(real[:, None, None, :], (n_h, n, d + 1, 2)).reshape(n_h, n * b)
    dst = src[keep]

    def apply(x):
        yh = lu(np.append(np.asarray(x, dtype=float).ravel(), 0.0)[src])
        y = np.empty(n * (d + 1) * m)
        y[dst] = yh[keep]
        return y

    return apply


def level_lu_preconditioner(op: BlockMatrix, pins: np.ndarray | None = None,
                            plan: LevelPlan | None = None) -> Callable:
    """Exact inverse of a real pinned BlockMatrix by the block LU of _level_lu.

    plan is the LevelPlan of the matrix's graph (AssemblyContext.level_plan
    keeps one per mesh), built here when None.  Pinned slots act as
    identity rows and columns.
    """
    n, b = op.n_nodes, op.block_size
    if plan is None:
        plan = LevelPlan.of(op.rows, op.cols, n)
    free = np.ones((n, b), dtype=bool) if pins is None else ~np.asarray(pins).reshape(n, b)
    return _level_lu(np.asarray(op.blocks, dtype=float)[None], op.rows, op.cols, free, plan)


def _level_lu(blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray, free: np.ndarray,
              plan: LevelPlan) -> Callable:
    """Exact inverses of independent pinned systems on one graph, by block LU over BFS levels.

    blocks (n_sys, n_edges, b, b) holds the edge blocks of n_sys systems
    that share the graph (rows, cols), whose edges must be distinct as
    build_graph returns them, and the mask free (n_nodes, b) of the slots
    that are not pinned.  Over the levels of plan each system is block
    tridiagonal, with lower blocks L_l, diagonal blocks D_l and upper blocks
    U_l.  A level block holds the free slots of the level's nodes only, by
    the nodes' LevelPlan slots and then by component, padded with identity
    slots to the most free slots of any level; the free entries of the edge
    blocks are scattered into them by one fancy-index assignment.  The
    factorization is D'_0 = D_0, D'_l = D_l - L_l D'_{l-1}^-1 U_{l-1}; it
    keeps D'_l^-1, D'_l^-1 L_l and D'_l^-1 U_l in place of D_l, L_l and U_l,
    so the apply is one batched product, one forward and one backward sweep
    over the levels, each step batched over the systems.  A singular D'_l
    falls back to a scaled identity with a warning that names the level.
    Each factorization is logged at DEBUG with its level count, the unknowns
    of its level blocks and the MB it holds.  The factor holds
    3 * n_levels * n_sys * w * w doubles, w the unknowns of the widest
    level block; above LEVEL_LU_MAX_BYTES it raises MemoryError, naming
    them, before it allocates anything of that size.

    apply(x) takes the n_sys systems' right-hand sides, n_sys * n_nodes * b
    values in system-major order, and returns the solutions in the shape
    of x; pinned slots are returned unchanged, as identity rows and columns
    would.
    """
    n_sys, _, b, _ = blocks.shape
    n_lev = plan.n_levels
    lev_r, lev_c = plan.level[rows], plan.level[cols]
    if np.any(np.abs(lev_c - lev_r) > 1):
        raise ValueError("level_lu_preconditioner: an edge skips a level of the plan")
    # the free slots in (level, slot, component) order, and the place of each in its level
    node, comp = np.nonzero(free)
    order = np.lexsort((comp, plan.slot[node], plan.level[node]))
    node, comp = node[order], comp[order]
    lev = plan.level[node]
    counts = np.bincount(lev, minlength=n_lev)
    w = int(counts.max(initial=0))
    size = 3 * n_lev * n_sys * w * w * 8
    if size > LEVEL_LU_MAX_BYTES:
        raise MemoryError(f"level LU of {n_sys} system(s) over {n_lev} levels, the widest "
                          f"of {w} unknowns, needs an estimated {size / 1e6:.4g} MB, over "
                          f"the LEVEL_LU_MAX_BYTES limit of {LEVEL_LU_MAX_BYTES / 1e6:.4g} MB")
    place = np.arange(node.size) - (np.cumsum(counts) - counts)[lev]
    place_of = np.full(free.shape, -1)
    place_of[node, comp] = place

    e, i, j = np.nonzero(free[rows][:, :, None] & free[cols][:, None, :])
    tri = np.zeros((3, n_lev, n_sys, w, w))          # lower, diagonal and upper blocks
    tri[lev_c[e] - lev_r[e] + 1, lev_r[e], :, place_of[rows[e], i], place_of[cols[e], j]] = \
        blocks[:, e, i, j].T
    low, d_inv, up = tri                              # factored in place
    pad_lev, pad = np.nonzero(np.arange(w) >= counts[:, None])
    d_inv[pad_lev, :, pad, pad] = 1.0
    for k in range(n_lev):
        if k:
            d_inv[k] -= low[k] @ up[k - 1]
        inv, singular = _invert_blocks(d_inv[k])
        for s in np.flatnonzero(singular):
            scale = np.max(np.abs(np.diagonal(d_inv[k, s])))
            inv[s] = np.eye(w) / (scale if scale > 0 else 1.0)
            warnings.warn(f"singular level block at level {k} of {n_lev}"
                          + (f", system {s}" if n_sys > 1 else "") + "; using scaled identity")
        d_inv[k] = inv
        np.matmul(inv, up[k], out=up[k])
    np.matmul(d_inv, low, out=low)
    logger.debug("level LU of %d system(s): %d levels of %d unknowns, %.2f MB",
                 n_sys, n_lev, w, tri.nbytes / 1e6)

    gather = node * b + comp                          # x column of each free slot
    at = ((lev * n_sys)[None, :] + np.arange(n_sys)[:, None]) * w + place   # its z entry

    def apply(x):
        x = np.asarray(x, dtype=float)
        xs = x.reshape(n_sys, -1)
        z = np.zeros(n_lev * n_sys * w)
        z[at] = xs[:, gather]
        z = np.matmul(d_inv, z.reshape(n_lev, n_sys, w, 1))
        for k in range(1, n_lev):
            z[k] -= low[k] @ z[k - 1]
        for k in range(n_lev - 2, -1, -1):
            z[k] -= up[k] @ z[k + 1]
        out = xs.copy()
        out[:, gather] = z.ravel()[at]
        return out.reshape(x.shape)

    return apply
