"""Real-mapped nodal-block sparse systems and a restarted GMRES solver.

The spectral solvers solve in real unknowns: per node and component, the
layout is mode 0..N-1 with (real, imag) interleaved, so a node carries
2N real slots per component.  The imaginary slot of the steady mode is
retained and pinned to zero (layout_pins), which keeps the layout
uniform.  Both spectral solvers assemble in the orthonormal real
coordinates of spectral (z_0, sqrt2 Re z_n, sqrt2 Im z_n), which enter
this layout by a fixed map (block_from_orthonormal, rhs_from_orthonormal).

The maps from complex mode-coupled systems (to_real, block_to_real,
rhs_to_real, check_block_symmetry) are no longer called by the solvers:
they stay as the reference that the real-basis assemblies and the
criterion-10 real-map check are tested against.

The Navier-Stokes tangent is stored block-structured: the 6 identically
zero component blocks are never stored, the velocity diagonal block K is
stored once per node pair and reused for every direction, and the
gradient/divergence blocks are one real scalar per node pair and direction,
the Galerkin coefficient that multiplies every mode slot.  Its block-Jacobi
preconditioner eliminates the velocity of each nodal block through the
pressure Schur complement.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = [
    "GmresConfig",
    "GmresResult",
    "SolverConfig",
    "BlockMatrix",
    "BlockTangent",
    "AssemblyContext",
    "Segments",
    "SortedSegments",
    "assembly_context",
    "build_graph",
    "block_to_real",
    "rhs_to_real",
    "from_real",
    "to_real",
    "block_from_orthonormal",
    "rhs_from_orthonormal",
    "check_block_symmetry",
    "LinearSolveError",
    "gmres",
    "block_jacobi_preconditioner",
    "layout_pins",
    "pinned_operator",
]


@dataclass
class GmresConfig:
    """Restarted GMRES knobs: Krylov dimension, relative tolerance, matvec cap."""

    restart: int = 100
    tol: float = 1e-8
    max_matvecs: int = 10_000

    def __post_init__(self):
        if self.restart < 2:
            raise ValueError("restart dimension must be >= 2")


@dataclass
class SolverConfig:
    """Nonlinear/linear solver parameters for the flow solvers.

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
        if self.pseudo_dt is not None and not self.pseudo_dt > 0.0:
            raise ValueError("pseudo_dt must be positive (inf for plain Newton), "
                             f"got {self.pseudo_dt!r}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps!r}")

    def gmres_config(self) -> GmresConfig:
        return GmresConfig(self.krylov_dim, self.eps_ls, self.max_linear_iters)


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
            out[self.ids] += np.add.reduceat(values[self.order], self.starts, axis=0)


_CHUNK = 2048  # elements per assembly chunk, bounds transient memory


@dataclass(frozen=True)
class AssemblyContext:
    """Per-mesh scatter plan: the nodal graph and its sorted reductions.

    The elements are processed in chunks of at most _CHUNK; for each chunk
    the plan holds the SortedSegments of its element-node keys (residual
    and element-operator scatter: few keys, long runs) and the Segments of
    its build_graph edge_of keys (tangent scatter: many keys, short runs).
    edge_mass, when the plan is built with the element mass matrices, is
    their sum onto the edges: sum_e detj sum_q w_q N_A N_B per node pair.
    """

    rows: np.ndarray
    cols: np.ndarray
    n_nodes: int
    chunks: tuple  # of (slice, node SortedSegments, edge Segments)
    edge_mass: Optional[np.ndarray] = None

    @classmethod
    def build(cls, elements: np.ndarray, n_nodes: int, graph,
              element_mass: np.ndarray | None = None) -> "AssemblyContext":
        """Plan for a connectivity, its build_graph output and optionally its mass."""
        rows, cols, edge_of = graph
        n_el = elements.shape[0]
        chunks = []
        for start in range(0, n_el, _CHUNK):
            sl = slice(start, min(start + _CHUNK, n_el))
            chunks.append((sl, SortedSegments.of(elements[sl]), Segments.of(edge_of[sl])))
        edge_mass = None
        if element_mass is not None:
            edge_mass = np.zeros(rows.shape[0])
            for sl, _, edge_seg in chunks:
                edge_seg.add_to(edge_mass, element_mass[sl].ravel())
        return cls(rows, cols, n_nodes, tuple(chunks), edge_mass)

    def edge_ids(self, nodes: np.ndarray) -> np.ndarray:
        """Edge index of every (nodes[f, a], nodes[f, b]) pair, in (f, a, b) order.

        Every pair must be an edge of the graph, e.g. the nodes of a facet.
        """
        k = nodes.shape[1]
        keys = self.rows.astype(np.int64) * self.n_nodes + self.cols
        r = np.repeat(nodes, k, axis=1).ravel().astype(np.int64)
        c = np.tile(nodes, (1, k)).ravel()
        return np.searchsorted(keys, r * self.n_nodes + c)


def assembly_context(mesh, graph_builder: Callable) -> AssemblyContext:
    """The mesh's scatter plan, built at its first assembly and cached on it.

    graph_builder is the build_graph the calling solver imported; going
    through the caller's name lets a wrapper installed there see the one
    graph build per mesh.
    """
    if mesh._assembly is None:
        mesh._assembly = AssemblyContext.build(
            mesh.elements, mesh.n_nodes, graph_builder(mesh.elements, mesh.n_nodes),
            mesh.element_data().mass)
    return mesh._assembly


@dataclass
class BlockMatrix:
    """Sparse matrix of dense nodal blocks on a directed edge list.

    The rows must be sorted, as build_graph returns them; row_starts, the
    starts of their runs, are worked out here.  blocks becomes a view of one
    (b, n_edges, b) array, so the entries of scalar row (node r, component
    i), blocks[e, i, :] over r's run of edges, are contiguous: a matvec is
    one gather of x, one multiply and one reduceat over the scalar rows.
    """

    rows: np.ndarray
    cols: np.ndarray
    blocks: np.ndarray  # (n_edges, b, b), real or complex
    n_nodes: int
    row_starts: np.ndarray = field(init=False, repr=False)
    _entries: np.ndarray = field(init=False, repr=False)  # (b, n_edges, b)
    _x_slots: np.ndarray = field(init=False, repr=False)  # (n_edges * b,) x slot of a column
    _starts: np.ndarray = field(init=False, repr=False)   # first entry of each scalar row
    _y_slots: np.ndarray = field(init=False, repr=False)  # y slot of each scalar row

    def __post_init__(self):
        if np.any(self.rows[1:] < self.rows[:-1]):
            raise ValueError("BlockMatrix rows must be sorted")
        n_edges, b = self.blocks.shape[:2]
        self.row_starts = segment_starts(self.rows)[:n_edges]   # no run for no edges
        comp = np.arange(b)
        self._entries = np.ascontiguousarray(np.asarray(self.blocks).transpose(1, 0, 2))
        self.blocks = self._entries.transpose(1, 0, 2)
        self._x_slots = (b * self.cols[:, None] + comp).ravel()
        self._starts = (n_edges * b * comp[:, None] + b * self.row_starts).ravel()
        self._y_slots = (b * self.rows[self.row_starts] + comp[:, None]).ravel()

    @property
    def block_size(self) -> int:
        return self.blocks.shape[-1]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        b = self.block_size
        prod = self._entries.reshape(b, -1) * np.asarray(x).ravel()[self._x_slots]
        y = np.zeros(self.n_nodes * b, dtype=prod.dtype)
        y[self._y_slots] = np.add.reduceat(prod.ravel(), self._starts)
        return y

    def diag_blocks(self) -> np.ndarray:
        b = self.block_size
        diag = np.zeros((self.n_nodes, b, b), dtype=self.blocks.dtype)
        sel = self.rows == self.cols
        np.add.at(diag, self.rows[sel], self.blocks[sel])
        return diag

    def to_dense(self) -> np.ndarray:
        b = self.block_size
        dense = np.zeros((self.n_nodes * b, self.n_nodes * b), dtype=self.blocks.dtype)
        for r, c, blk in zip(self.rows, self.cols, self.blocks):
            dense[r * b:(r + 1) * b, c * b:(c + 1) * b] += blk
        return dense


# ---------------------------------------------------------------------------
# complex <-> real mapping
# ---------------------------------------------------------------------------

def check_block_symmetry(blocks: np.ndarray) -> float:
    """Relative defect of the mode-plane symmetry K[-m,-n] = conj(K[m,n])."""
    blocks = np.asarray(blocks)
    scale = np.max(np.abs(blocks)) if blocks.size else 0.0
    if scale == 0.0:
        return 0.0
    defect = np.max(np.abs(blocks - np.conj(blocks[..., ::-1, ::-1])))
    return float(defect / scale)


def block_to_real(blocks: np.ndarray) -> np.ndarray:
    """Map complex (2N-1)x(2N-1) mode blocks to real 2Nx2N blocks.

    Rows/columns pair (real, imag) per mode 0..N-1; the steady imaginary
    row and column are left for pinning by the solver.
    """
    blocks = np.asarray(blocks, dtype=complex)
    m = blocks.shape[-1]
    n = (m + 1) // 2
    kp = blocks[..., n - 1:, n - 1:]
    km = blocks[..., n - 1:, n - 1::-1].copy()
    km[..., :, 0] = 0.0
    out = np.zeros(blocks.shape[:-2] + (2 * n, 2 * n))
    out[..., 0::2, 0::2] = kp.real + km.real
    out[..., 0::2, 1::2] = -kp.imag + km.imag
    out[..., 1::2, 0::2] = kp.imag + km.imag
    out[..., 1::2, 1::2] = kp.real - km.real
    return out


def rhs_to_real(rhs: np.ndarray) -> np.ndarray:
    """Interleave Re/Im of the nonnegative modes of a complex rhs.

    rhs has shape (..., 2N-1); the result has shape (..., 2N).
    """
    rhs = np.asarray(rhs, dtype=complex)
    m = rhs.shape[-1]
    n = (m + 1) // 2
    pos = rhs[..., n - 1:]
    out = np.zeros(rhs.shape[:-1] + (2 * n,))
    out[..., 0::2] = pos.real
    out[..., 1::2] = pos.imag
    return out


def from_real(x: np.ndarray) -> np.ndarray:
    """Rebuild conjugate-symmetric complex modes from interleaved reals.

    x has shape (..., 2N); the result has shape (..., 2N-1) with exact
    conjugate symmetry (the steady imaginary slot is dropped).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] // 2
    pos = x[..., 0::2] + 1j * x[..., 1::2]
    pos[..., 0] = pos[..., 0].real
    out = np.concatenate([np.conj(pos[..., :0:-1]), pos], axis=-1)
    return out


_SQRT2 = np.sqrt(2.0)


def rhs_from_orthonormal(r: np.ndarray) -> np.ndarray:
    """Layout (..., 2N) of orthonormal real mode coordinates (..., 2N-1).

    Coordinate i goes to slot t(i) scaled by s_i, where t skips the
    steady imaginary slot 1 (left zero) and s is 1 for the steady mode and
    1/sqrt2 otherwise: the result equals rhs_to_real of the complex modes.
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape[:-1] + (r.shape[-1] + 1,))
    out[..., 0] = r[..., 0]
    out[..., 2:] = r[..., 1:] / _SQRT2
    return out


def block_from_orthonormal(blocks: np.ndarray, pinned: float,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Layout (..., 2N, 2N) of real-basis operators (..., 2N-1, 2N-1).

    K_L[t(i), t(j)] = K_O[i, j] s_i / s_j with t and s as in
    rhs_from_orthonormal.  The steady imaginary slot gets a zero row and
    column and `pinned` on its diagonal (1 for the diagonal component
    blocks, so a pinned unknown is an identity row, 0 for the coupling
    blocks).  On the unpinned slots this is block_to_real of the complex
    operator.  out, a zero array, receives the result in its own memory
    layout when given.
    """
    blocks = np.asarray(blocks, dtype=float)
    m = blocks.shape[-1]
    if out is None:
        out = np.zeros(blocks.shape[:-2] + (m + 1, m + 1))
    out[..., 0, 0] = blocks[..., 0, 0]
    out[..., 0, 2:] = blocks[..., 0, 1:] * _SQRT2
    out[..., 2:, 0] = blocks[..., 1:, 0] / _SQRT2
    out[..., 2:, 2:] = blocks[..., 1:, 1:]
    out[..., 1, 1] = pinned
    return out


def to_real(system: BlockMatrix, rhs: np.ndarray, tol: float = 1e-10):
    """Real-mapped copy of a complex conjugate-symmetric block system.

    rhs has shape (n_nodes, 2N-1).  Systems violating the mode-plane
    symmetry beyond tol are rejected.
    """
    defect = check_block_symmetry(system.blocks)
    if defect > tol:
        raise ValueError(f"block system violates conjugate symmetry (defect {defect:.3e})")
    rdef = check_block_symmetry(np.asarray(rhs)[:, None, :])  # same flip rule
    if rdef > tol:
        raise ValueError(f"rhs violates conjugate symmetry (defect {rdef:.3e})")
    real_blocks = block_to_real(system.blocks)
    real_rhs = rhs_to_real(rhs)
    return BlockMatrix(system.rows, system.cols, real_blocks, system.n_nodes), real_rhs.ravel()


def layout_pins(n_nodes: int, n_modes: int, dir_nodes: np.ndarray,
                n_comp: int = 1, n_dir_comp: int = 1) -> np.ndarray:
    """Pinned slots of the flattened 2N layout with n_comp components per node.

    Every steady imaginary slot is pinned, and every slot of the first
    n_dir_comp components at the Dirichlet nodes dir_nodes.
    """
    pins = np.zeros((n_nodes, n_comp, 2 * n_modes), dtype=bool)
    pins[:, :, 1] = True
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
    """Real-mapped tangent with the zero component blocks never stored.

    Per directed node pair: k_real is the shared velocity diagonal block,
    l_real the pressure block, and g_diag/d_diag the real gradient and
    divergence coefficients of each direction, each multiplying every mode
    slot (the 2Nx2N block g I).  g_full/d_full optionally hold the exact
    mode-coupled 2Nx2N blocks for verification runs, and replace g_diag/d_diag
    where set.  The matvec applies K to row vectors as x K^T, which BLAS
    reads contiguously when the K blocks are stored column-major, as the
    NS assembly stores them.  The rows must be sorted, as build_graph
    returns them; row_starts, the starts of their runs, are worked out here
    once per tangent and the matvec reduces the edge products over them.

    elements optionally adds an operator that is kept per element rather
    than per edge (the Newton terms of the NS operator): an object whose
    add_to(x, y) adds its product with the (n_nodes, dim+1, 2N) array x to
    y, and whose reals_per_element and n_elements give its storage.  The
    preconditioner, diag_blocks and to_dense see the edge blocks only.
    """

    rows: np.ndarray
    cols: np.ndarray
    n_nodes: int
    dim: int
    n_modes: int
    k_real: np.ndarray                    # (E, 2N, 2N)
    l_real: np.ndarray                    # (E, 2N, 2N)
    g_diag: np.ndarray                    # (E, dim)
    d_diag: np.ndarray                    # (E, dim)
    g_full: Optional[np.ndarray] = field(default=None, repr=False)
    d_full: Optional[np.ndarray] = field(default=None, repr=False)
    elements: Optional[object] = field(default=None, repr=False)
    row_starts: np.ndarray = field(init=False, repr=False)
    _edge_out: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if np.any(self.rows[1:] < self.rows[:-1]):
            raise ValueError("BlockTangent rows must be sorted")
        self.row_starts = segment_starts(self.rows)
        self._edge_out = np.empty((self.rows.shape[0], self.dim + 1, 2 * self.n_modes))

    @property
    def n_dof(self) -> int:
        return self.n_nodes * (self.dim + 1) * 2 * self.n_modes

    def matvec(self, x: np.ndarray) -> np.ndarray:
        d, n2 = self.dim, 2 * self.n_modes
        xn = np.asarray(x).reshape(self.n_nodes, d + 1, n2)
        xc = xn[self.cols]
        xv, xp = xc[:, :d], xc[:, d]
        out = self._edge_out                 # (E, d+1, 2N) edge products
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
        y = np.zeros((self.n_nodes, d + 1, n2))
        y[self.rows[self.row_starts]] = np.add.reduceat(out, self.row_starts, axis=0)
        if self.elements is not None:
            self.elements.add_to(xn, y)
        return y.ravel()

    def _coupling(self, full, scalar, edges) -> np.ndarray:
        """Gradient or divergence 2Nx2N blocks of the given edges, (E', dim, 2N, 2N)."""
        if full is not None:
            return full[edges]
        return scalar[edges, :, None, None] * np.eye(2 * self.n_modes)

    def diag_blocks(self) -> np.ndarray:
        d, n2 = self.dim, 2 * self.n_modes
        diag = np.zeros((self.n_nodes, d + 1, n2, d + 1, n2))
        # build_graph pairs are unique: one self-edge per node
        sel = np.flatnonzero(self.rows == self.cols)
        nodes = self.rows[sel]
        g_real = self._coupling(self.g_full, self.g_diag, sel)
        d_real = self._coupling(self.d_full, self.d_diag, sel)
        for i in range(d):
            diag[nodes, i, :, i, :] = self.k_real[sel]
            diag[nodes, i, :, d, :] = g_real[:, i]
            diag[nodes, d, :, i, :] = d_real[:, i]
        diag[nodes, d, :, d, :] = self.l_real[sel]
        return diag.reshape(self.n_nodes, (d + 1) * n2, (d + 1) * n2)

    def to_dense(self) -> np.ndarray:
        d, n2 = self.dim, 2 * self.n_modes
        b = (d + 1) * n2
        dense = np.zeros((self.n_nodes * b, self.n_nodes * b))
        g_real = self._coupling(self.g_full, self.g_diag, slice(None))
        d_real = self._coupling(self.d_full, self.d_diag, slice(None))
        for e in range(self.rows.shape[0]):
            r0, c0 = self.rows[e] * b, self.cols[e] * b
            for i in range(d):
                dense[r0 + i * n2:r0 + (i + 1) * n2, c0 + i * n2:c0 + (i + 1) * n2] += self.k_real[e]
                dense[r0 + i * n2:r0 + (i + 1) * n2, c0 + d * n2:c0 + b] += g_real[e, i]
                dense[r0 + d * n2:r0 + b, c0 + i * n2:c0 + (i + 1) * n2] += d_real[e, i]
            dense[r0 + d * n2:r0 + b, c0 + d * n2:c0 + b] += self.l_real[e]
        return dense

    def size_report(self) -> dict:
        """Stored real scalars per edge versus the naive dense-block layout,
        and per element for the element-level operator (0 without one)."""
        n, m = self.n_modes, 2 * self.n_modes - 1
        stored = self.k_real.shape[-1] ** 2 + self.l_real.shape[-1] ** 2 + 2 * self.dim
        budget = 2 * m * m + 12 * 2 * n + 2 * m * m
        naive = 16 * m * m * 2
        el = self.elements
        return {"stored_per_edge": stored, "budget_per_edge": budget,
                "naive_per_edge": naive, "n_edges": int(self.rows.shape[0]),
                "stored_per_element": el.reals_per_element if el is not None else 0,
                "n_elements": el.n_elements if el is not None else 0}


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


def gmres(matvec: Callable, b: np.ndarray, config: GmresConfig | None = None,
          precond: Callable | None = None, x0: np.ndarray | None = None) -> GmresResult:
    """Right-preconditioned restarted GMRES.

    Classical Gram-Schmidt with one reorthogonalization pass builds the
    Arnoldi basis; the Hessenberg least-squares problem is solved with
    Givens rotations, so the recorded residuals are true residual norms of
    the unpreconditioned system.  Terminates when ||Ax - b|| <= tol*||b||
    or the matvec budget is exhausted (flagged in the result).
    """
    if config is None:
        config = GmresConfig()
    b = np.asarray(b, dtype=float).ravel()
    if not np.all(np.isfinite(b)):
        raise ValueError("gmres: right-hand side contains NaN/Inf")
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return GmresResult(np.zeros_like(b), 0, [0.0], True)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    target = config.tol * norm_b
    matvecs = 0
    history: list[float] = []
    prev_beta = np.inf

    while True:
        r = b - matvec(x)
        matvecs += 1
        beta = np.linalg.norm(r)
        if not np.isfinite(beta):
            raise RuntimeError(f"gmres: non-finite residual after {matvecs} matvecs")
        if not history:
            history.append(float(beta))
        if beta <= target:
            return GmresResult(x, matvecs, history, True)
        if matvecs >= config.max_matvecs or beta >= prev_beta * (1.0 - 1e-14):
            return GmresResult(x, matvecs, history, False)
        prev_beta = beta

        k_max = max(1, min(config.restart, config.max_matvecs - matvecs))
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
                raise RuntimeError(f"gmres: Arnoldi breakdown with NaN/Inf at step {matvecs}")
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
            if abs(g[j + 1]) <= target or matvecs >= config.max_matvecs or h_low == 0.0:
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


def _identity_scale(diagonal: np.ndarray) -> float:
    """Scale of the identity that stands in for a singular nodal block."""
    scale = np.max(np.abs(diagonal))
    return scale if scale > 0 else 1.0


def _pin_block(blocks: np.ndarray, free_rows: np.ndarray, free_cols: np.ndarray,
               diagonal: bool = False) -> np.ndarray:
    """Copy of blocks (..., r, c) with the rows and columns of pinned slots zeroed.

    free_rows (..., r) and free_cols (..., c) mark the unpinned slots; a
    diagonal block also gets 1 on the diagonal of each pinned slot.
    """
    out = blocks * (free_rows[..., :, None] & free_cols[..., None, :])
    if diagonal:
        idx = np.nonzero(~free_rows)
        out[idx + (idx[-1],)] = 1.0
    return out


def block_jacobi_preconditioner(op, pins: np.ndarray | None = None) -> Callable:
    """Inverse of the per-node diagonal blocks (all components and modes).

    Pinned slots are forced to identity rows/columns before inversion.
    Singular nodal blocks fall back to a scaled identity with a warning.

    A BlockTangent's nodal block [[I_d (x) K, G], [D, L]], with G the column
    of the gradient blocks G_i and D the row of the divergence blocks D_i,
    is inverted through its pressure Schur complement
    S = L - sum_i D_i K^-1 G_i (Elman, Silvester & Wathen, ch. 9): K is
    inverted once per node for all d velocity directions, and the apply is
    p = S^-1 (r_p - sum_i D_i K^-1 r_i), v_i = K^-1 (r_i - G_i p).  The pins
    must then pin every velocity direction of a node alike (ValueError
    otherwise), and a node whose K or S is singular falls back.
    """
    if isinstance(op, BlockTangent):
        return _schur_jacobi(op, pins)
    blocks = np.asarray(op.diag_blocks(), dtype=float)
    n, b = blocks.shape[0], blocks.shape[-1]
    if pins is not None:
        free = ~pins.reshape(n, b)
        blocks = _pin_block(blocks, free, free, diagonal=True)
    inv, singular = _invert_blocks(blocks)
    for i in np.flatnonzero(singular):
        inv[i] = np.eye(b) / _identity_scale(np.diag(blocks[i]))
        warnings.warn(f"singular nodal block at node {i}; using scaled identity")

    def apply(x):
        xr = np.asarray(x).reshape(n, b)
        return np.einsum("nij,nj->ni", inv, xr).ravel()

    return apply


def _schur_jacobi(op: BlockTangent, pins: np.ndarray | None) -> Callable:
    """Block-Jacobi apply of a BlockTangent by the pressure Schur complement."""
    n, d, n2 = op.n_nodes, op.dim, 2 * op.n_modes
    nv = d * n2                                             # velocity slots per node
    free = np.ones((n, d + 1, n2), dtype=bool) if pins is None \
        else ~pins.reshape(n, d + 1, n2)
    if np.any(free[:, :d] != free[:, :1]):
        raise ValueError("block_jacobi_preconditioner: the pins must pin every "
                         "velocity direction of a node alike")
    fv, fp = free[:, 0], free[:, d]
    # build_graph pairs are unique: one self-edge per node
    sel = np.flatnonzero(op.rows == op.cols)

    def at_nodes(edge_blocks):
        out = np.zeros((n,) + edge_blocks.shape[1:])
        out[op.rows[sel]] = edge_blocks
        return out

    k = _pin_block(at_nodes(op.k_real[sel]), fv, fv, diagonal=True)
    l_p = _pin_block(at_nodes(op.l_real[sel]), fp, fp, diagonal=True)
    g = _pin_block(at_nodes(op._coupling(op.g_full, op.g_diag, sel)), fv[:, None], fp[:, None])
    dv = _pin_block(at_nodes(op._coupling(op.d_full, op.d_diag, sel)), fp[:, None], fv[:, None])
    d_row = dv.transpose(0, 2, 1, 3).reshape(n, n2, nv)     # [D_1 ... D_d]
    k_inv, k_singular = _invert_blocks(k)
    kg = np.matmul(k_inv[:, None], g).reshape(n, nv, n2)    # K^-1 G_i, stacked
    s_inv, s_singular = _invert_blocks(l_p - np.matmul(d_row, kg))
    for i in np.flatnonzero(k_singular | s_singular):
        eye = np.eye(n2) / _identity_scale(np.r_[np.diag(k[i]), np.diag(l_p[i])])
        k_inv[i], s_inv[i], kg[i], d_row[i] = eye, eye, 0.0, 0.0
        warnings.warn(f"singular nodal block at node {i}; using scaled identity")
    k_inv_t = k_inv.swapaxes(1, 2)

    def apply(x):
        xr = np.asarray(x).reshape(n, d + 1, n2)
        w = np.matmul(xr[:, :d], k_inv_t).reshape(n, nv)   # K^-1 r_i
        p = np.einsum("nij,nj->ni", s_inv, xr[:, d] - np.einsum("nij,nj->ni", d_row, w))
        out = np.empty((n, d + 1, n2))
        out[:, :d] = (w - np.einsum("nij,nj->ni", kg, p)).reshape(n, d, n2)
        out[:, d] = p
        return out.ravel()

    return apply
