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
gradient/divergence blocks keep only their mode diagonal.
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
    "assembly_context",
    "build_graph",
    "block_to_real",
    "diag_to_real",
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


_CHUNK = 2048  # elements per assembly chunk, bounds transient memory


@dataclass(frozen=True)
class AssemblyContext:
    """Per-mesh scatter plan: the nodal graph and its sorted reductions.

    The elements are processed in chunks of at most _CHUNK; for each chunk
    the plan holds the Segments of its element-node keys (residual scatter)
    and of its build_graph edge_of keys (tangent scatter).  edge_mass, when
    the plan is built with the element mass matrices, is their sum onto the
    edges: sum_e detj sum_q w_q N_A N_B per node pair.
    """

    rows: np.ndarray
    cols: np.ndarray
    n_nodes: int
    chunks: tuple  # of (slice, node Segments, edge Segments)
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
            chunks.append((sl, Segments.of(elements[sl]), Segments.of(edge_of[sl])))
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
    starts of their runs, are worked out here and the matvec reduces the
    edge products over them.
    """

    rows: np.ndarray
    cols: np.ndarray
    blocks: np.ndarray  # (n_edges, b, b), real or complex
    n_nodes: int
    row_starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if np.any(self.rows[1:] < self.rows[:-1]):
            raise ValueError("BlockMatrix rows must be sorted")
        self.row_starts = segment_starts(self.rows)

    @property
    def block_size(self) -> int:
        return self.blocks.shape[-1]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        b = self.block_size
        xr = np.asarray(x).reshape(self.n_nodes, b)
        contrib = np.einsum("eij,ej->ei", self.blocks, xr[self.cols])
        y = np.zeros_like(contrib, shape=(self.n_nodes, b))
        y[self.rows[self.row_starts]] = np.add.reduceat(contrib, self.row_starts, axis=0)
        return y.ravel()

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


def diag_to_real(diag: np.ndarray) -> np.ndarray:
    """Real 2Nx2N form of a mode-diagonal complex block (modes 0..N-1)."""
    diag = np.asarray(diag, dtype=complex)
    n = diag.shape[-1]
    out = np.zeros(diag.shape[:-1] + (2 * n, 2 * n))
    m = np.arange(n)
    out[..., 2 * m, 2 * m] = diag.real
    out[..., 2 * m, 2 * m + 1] = -diag.imag
    out[..., 2 * m + 1, 2 * m] = diag.imag
    out[..., 2 * m + 1, 2 * m + 1] = diag.real
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


def block_from_orthonormal(blocks: np.ndarray, pinned: float) -> np.ndarray:
    """Layout (..., 2N, 2N) of real-basis operators (..., 2N-1, 2N-1).

    K_L[t(i), t(j)] = K_O[i, j] s_i / s_j with t and s as in
    rhs_from_orthonormal.  The steady imaginary slot gets a zero row and
    column and `pinned` on its diagonal (1 for the diagonal component
    blocks, so a pinned unknown is an identity row, 0 for the coupling
    blocks).  On the unpinned slots this is block_to_real of the complex
    operator.
    """
    blocks = np.asarray(blocks, dtype=float)
    m = blocks.shape[-1]
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
    l_real the pressure block, g_diag/d_diag the mode-diagonal gradient
    and divergence blocks (modes 0..N-1).  g_full/d_full optionally hold
    the exact mode-coupled blocks for verification runs.  The rows must be
    sorted, as build_graph returns them; row_starts, the starts of their
    runs, are worked out here once per tangent and the matvec reduces the
    edge products over them.
    """

    rows: np.ndarray
    cols: np.ndarray
    n_nodes: int
    dim: int
    n_modes: int
    k_real: np.ndarray                    # (E, 2N, 2N)
    l_real: np.ndarray                    # (E, 2N, 2N)
    g_diag: np.ndarray                    # (E, dim, N) complex
    d_diag: np.ndarray                    # (E, dim, N) complex
    g_full: Optional[np.ndarray] = field(default=None, repr=False)
    d_full: Optional[np.ndarray] = field(default=None, repr=False)
    row_starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if np.any(self.rows[1:] < self.rows[:-1]):
            raise ValueError("BlockTangent rows must be sorted")
        self.row_starts = segment_starts(self.rows)

    @property
    def n_dof(self) -> int:
        return self.n_nodes * (self.dim + 1) * 2 * self.n_modes

    def matvec(self, x: np.ndarray) -> np.ndarray:
        d, n2 = self.dim, 2 * self.n_modes
        xr = np.asarray(x).reshape(self.n_nodes, d + 1, n2)
        xc = xr[self.cols]
        xp = xc[:, d, :]
        # K fetched once, applied to all velocity directions
        yv = np.einsum("eij,edj->edi", self.k_real, xc[:, :d, :])
        yp = np.einsum("eij,ej->ei", self.l_real, xp)
        if self.g_full is not None:
            yv += np.einsum("edij,ej->edi", self.g_full, xp)
        else:
            xpc = xp[:, 0::2] + 1j * xp[:, 1::2]
            gv = self.g_diag * xpc[:, None, :]
            yv[:, :, 0::2] += gv.real
            yv[:, :, 1::2] += gv.imag
        if self.d_full is not None:
            yp += np.einsum("edij,edj->ei", self.d_full, xc[:, :d, :])
        else:
            xvc = xc[:, :d, 0::2] + 1j * xc[:, :d, 1::2]
            dv = np.sum(self.d_diag * xvc, axis=1)
            yp[:, 0::2] += dv.real
            yp[:, 1::2] += dv.imag
        contrib = np.concatenate([yv, yp[:, None, :]], axis=1)
        y = np.zeros((self.n_nodes, d + 1, n2))
        y[self.rows[self.row_starts]] = np.add.reduceat(contrib, self.row_starts, axis=0)
        return y.ravel()

    def diag_blocks(self) -> np.ndarray:
        d, n2 = self.dim, 2 * self.n_modes
        diag = np.zeros((self.n_nodes, d + 1, n2, d + 1, n2))
        # build_graph pairs are unique: one self-edge per node
        sel = np.flatnonzero(self.rows == self.cols)
        nodes = self.rows[sel]
        g_real = (self.g_full[sel] if self.g_full is not None
                  else diag_to_real(self.g_diag[sel]))
        d_real = (self.d_full[sel] if self.d_full is not None
                  else diag_to_real(self.d_diag[sel]))
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
        g_real = self.g_full if self.g_full is not None else diag_to_real(self.g_diag)
        d_real = self.d_full if self.d_full is not None else diag_to_real(self.d_diag)
        for e in range(self.rows.shape[0]):
            r0, c0 = self.rows[e] * b, self.cols[e] * b
            for i in range(d):
                dense[r0 + i * n2:r0 + (i + 1) * n2, c0 + i * n2:c0 + (i + 1) * n2] += self.k_real[e]
                dense[r0 + i * n2:r0 + (i + 1) * n2, c0 + d * n2:c0 + b] += g_real[e, i]
                dense[r0 + d * n2:r0 + b, c0 + i * n2:c0 + (i + 1) * n2] += d_real[e, i]
            dense[r0 + d * n2:r0 + b, c0 + d * n2:c0 + b] += self.l_real[e]
        return dense

    def size_report(self) -> dict:
        """Stored real scalars per edge versus the naive dense-block layout."""
        n, m = self.n_modes, 2 * self.n_modes - 1
        stored = self.k_real.shape[-1] ** 2 + self.l_real.shape[-1] ** 2 \
            + 2 * 2 * self.dim * n
        budget = 2 * m * m + 12 * 2 * n + 2 * m * m
        naive = 16 * m * m * 2
        return {"stored_per_edge": stored, "budget_per_edge": budget,
                "naive_per_edge": naive, "n_edges": int(self.rows.shape[0])}


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


def block_jacobi_preconditioner(op, pins: np.ndarray | None = None) -> Callable:
    """Inverse of the per-node diagonal blocks (all components and modes).

    Pinned slots are forced to identity rows/columns before inversion.
    Singular nodal blocks fall back to a scaled identity with a warning.
    """
    blocks = op.diag_blocks()
    n, b = blocks.shape[0], blocks.shape[-1]
    blocks = np.array(blocks, dtype=float)
    if pins is not None:
        pm = pins.reshape(n, b)
        blocks[np.broadcast_to(pm[:, :, None], blocks.shape)] = 0.0
        blocks[np.broadcast_to(pm[:, None, :], blocks.shape)] = 0.0
        node, slot = np.nonzero(pm)
        blocks[node, slot, slot] = 1.0
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        inv = np.empty_like(blocks)
        for i in range(n):
            try:
                inv[i] = np.linalg.inv(blocks[i])
            except np.linalg.LinAlgError:
                scale = np.max(np.abs(np.diag(blocks[i])))
                inv[i] = np.eye(b) / (scale if scale > 0 else 1.0)
                warnings.warn(f"singular nodal block at node {i}; using scaled identity")

    def apply(x):
        xr = np.asarray(x).reshape(n, b)
        return np.einsum("nij,nj->ni", inv, xr).ravel()

    return apply
