"""Time-spectral GLS solver for incompressible Navier-Stokes.

Unknowns per node are the velocity mode vectors u_i in C^(2N-1) per
direction and the pressure mode vector p.  The discrete residual contains
the Galerkin terms, Neumann boundary data, the least-squares penalty with
the momentum weight (-Omega N_A + A_j dN_A/dx_j) tau and the continuity
weight (1/rho) dN_A/dx_i tau, and the backflow boundary correction.

Each update solves with the Newton operator: the derivative of the
residual with only tau held fixed (and the backflow operator, whose
variation is left out).  Its edge blocks are the frozen-coefficient
tangent of assemble_ns_tangent: the velocity block K, the pressure block
L and the Galerkin gradient/divergence scalars, which the block-Jacobi
preconditioner inverts.  The rest is kept per element (_NewtonElements):
the least-squares gradient/divergence coupling, the Galerkin and
least-squares convective reaction, and the variation of the least-squares
test function through the convection matrices.  assemble_ns_tangent stays
the frozen-coefficient tangent, with the exact mode-coupled
least-squares gradient/divergence blocks on request (exact_gd), taken from
the same element arrays.  Pseudo-time stepping adds the mass term
(1.5 rho / pseudo_dt) sum_e detj sum_q w_q N_A N_B to the velocity
diagonal block and performs one Newton update per step.  The mass is
geometry only: it is scattered once per mesh (AssemblyContext.edge_mass)
and added after the assembly, so each step's pseudo_dt is chosen once
the same assembly has given the step's residual.  The residual is
assembled first and the operator only when a linear solve follows, from
the residual pass's tau at every point.  solve_ns grows the step by
switched-evolution relaxation (SER) as the residual falls, from the
configured initial step towards plain Newton; the converged solution is
independent of the pseudo steps taken.

Assembly runs in the real orthonormal mode basis of spectral: the states
are converted once per call to their coordinates (z_0, sqrt2 Re z_n,
sqrt2 Im z_n), and the kernels come from spectral_real, so every
per-point product is a real matmul (real symmetric convolution matrices
and tau, real skew Omega).  The assembled blocks and residual are emitted
directly in linsolve's 2N layout by the fixed map
K_L[t(i), t(j)] = K_O[i, j] s_i / s_j, with s = 1 for the steady mode and
1/sqrt2 otherwise, and t skipping the pinned steady imaginary slot (zero
row and column, identity on the diagonal blocks).  States and
assemble_ns_residual stay complex.

Assembly sums each element integrand over the quadrature points before
scattering it once per element chunk, through the plans cached on the
mesh at its first assembly.  Blocks that depend on geometry only
(viscous and pressure stiffness, gradient/divergence) are formed once
per chunk instead of once per quadrature point.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Union

import numpy as np

from . import spectral
from .boundary import NodalValues, boundary_values, check_groups, resolve_dirichlet
from .linsolve import (
    BlockTangent,
    LinearSolveError,
    SolverConfig,
    assembly_context,
    block_from_orthonormal,
    block_jacobi_preconditioner,
    build_graph,
    from_real,
    gmres,
    layout_pins,
    pinned_operator,
    rhs_from_orthonormal,
)
from .mesh import Mesh, c_i_for, facet_quadrature, quadrature_rule, shape_values
from .spectral import (
    SpectralCoeffs,
    modes_to_real,
    n_coeffs,
    real_basis,
    require_conjugate_symmetry,
    symmetrize_modes,
)
from .spectral_real import (
    build_omega,
    convolution_dense,
    negative_part_batch,
    tau_from_modes,
)

__all__ = [
    "NSCase",
    "NSState",
    "NSResult",
    "NewtonUpdate",
    "NodalValues",
    "FlowReport",
    "FlowData",
    "SolverConfig",
    "assemble_ns_residual",
    "assemble_ns_tangent",
    "assemble_ns_newton",
    "newton_step",
    "solve_ns",
    "residual_norm",
    "backflow_surface_matrix",
    "flow_report",
    "parabolic_inflow",
    "resolve_ns_dirichlet",
    "default_pseudo_dt",
    "ser_pseudo_dt",
    "SER_EXPONENT",
]


DirichletSpec = Union[np.ndarray, Callable, NodalValues]
_SQRT2 = np.sqrt(2.0)


@dataclass
class NSCase:
    """Spectral Navier-Stokes problem definition.

    dirichlet maps facet groups to velocity data: a uniform (dim, 2N-1)
    mode array, a callable of node coordinates returning (n, dim, 2N-1),
    or precomputed NodalValues.  walls lists no-slip groups.  neumann maps
    groups to scalar mode vectors h (2N-1,) imposed as h n_i; they must be
    conjugate-symmetric (ValueError if not).
    """

    rho: float
    mu: float
    omega: float
    n_modes: int
    dirichlet: Dict[str, DirichletSpec] = field(default_factory=dict)
    walls: List[str] = field(default_factory=list)
    neumann: Dict[str, Union[np.ndarray, SpectralCoeffs]] = field(default_factory=dict)
    c_i: Optional[float] = None
    backflow_beta: float = 0.0

    def __post_init__(self):
        if self.rho <= 0.0 or self.mu <= 0.0:
            raise ValueError("rho and mu must be positive")
        if not 0.0 <= self.backflow_beta <= 1.0:
            raise ValueError("backflow_beta must lie in [0, 1]")

    @property
    def nu(self) -> float:
        return self.mu / self.rho


@dataclass
class NSState:
    """Nodal spectral velocity and pressure fields."""

    velocity: np.ndarray  # (n_nodes, dim, 2N-1) complex
    pressure: np.ndarray  # (n_nodes, 2N-1) complex

    @classmethod
    def zeros(cls, n_nodes: int, dim: int, n_modes: int) -> "NSState":
        m = n_coeffs(n_modes)
        return cls(np.zeros((n_nodes, dim, m), dtype=complex),
                   np.zeros((n_nodes, m), dtype=complex))

    def copy(self) -> "NSState":
        return NSState(self.velocity.copy(), self.pressure.copy())

    def symmetrize(self) -> None:
        self.velocity[:] = symmetrize_modes(self.velocity)
        self.pressure[:] = symmetrize_modes(self.pressure)


@dataclass
class NSResult:
    """Outcome of solve_ns, with one record per step that updated the state.

    residuals holds the residual norm before every step, including the
    final converged one; linear_iters, linear_residuals and pseudo_dts hold
    the GMRES matvecs, the relative linear residual GMRES reached and the
    pseudo step of each update, and assembly_s and linear_s its seconds in
    the residual and operator assembly and in the linear solve
    (preconditioner set-up and GMRES).  linear_unconverged counts the
    updates applied while GMRES was still above eps_ls without stagnating.
    """

    state: NSState
    converged: bool
    residuals: List[float]
    steps: int
    linear_iters: List[int]
    pseudo_dts: List[float]
    linear_unconverged: int
    linear_residuals: List[float]
    assembly_s: List[float]
    linear_s: List[float]


def resolve_ns_dirichlet(case: NSCase, mesh: Mesh):
    """Dirichlet node ids and (K, dim, 2N-1) values; walls override."""
    nodes, vals = resolve_dirichlet(mesh, case.dirichlet, case.walls,
                                    (mesh.dim, n_coeffs(case.n_modes)))
    return nodes, symmetrize_modes(vals)


def _facet_values(values: np.ndarray, fq, q: int) -> np.ndarray:
    """Nodal (n_nodes, dim, M) values at facet quadrature point q, (F, dim, M)."""
    return np.einsum("a,faim->fim", fq.shape[q], values[fq.nodes])


class _Linearization(NamedTuple):
    """What the residual pass keeps for the tangent pass of the same state."""

    vel: np.ndarray      # (n_nodes, dim, M) real coordinates of the velocity
    vel_c: np.ndarray    # the velocity entering A_i, tau and the backflow operator
    taus: list           # per chunk, (n_qp, E, M, M) tau at each quadrature point
    z: list              # per chunk, (E, nen, dim, M) sum_q w_q N_B tau strong_i
    backflow: dict       # per Neumann group, |A_n|_- at each facet quadrature point


def _residual_pass(case: NSCase, mesh: Mesh, state: NSState,
                   coeff_state: NSState | None = None):
    """Residual in the 2N layout, (n_nodes, dim+1, 2N), and its _Linearization.

    Per point, with v_i = tau strong_i, the momentum row of node A is
    w [N_A (strong_i - Omega v_i) + sum_j dN_A/dx_j C_j v_i], which is
    (N_A I + P_A) strong_i with P_A = (A_j dN_A/dx_j - N_A Omega) tau; the
    N_A part is summed over the points first and the C_j v_i part is summed
    over the points before the gradients act on it.
    """
    check_groups(mesh, dirichlet=case.dirichlet, wall=case.walls, neumann=case.neumann)
    n, m = case.n_modes, n_coeffs(case.n_modes)
    dim = mesh.dim
    rho, mu = case.rho, case.mu
    c_i = c_i_for(mesh.elem_type, case.c_i)
    ed = mesh.element_data()
    ctx = assembly_context(mesh, build_graph)
    rule = quadrature_rule(mesh.elem_type)
    shp = shape_values(mesh.elem_type, rule.points)             # (n_qp, nen)
    n_ref = rule.weights @ shp
    omega_t = build_omega(n, case.omega).T                      # row vectors: x Omega^T
    vel = modes_to_real(state.velocity)                          # (n_nodes, dim, M)
    pres = modes_to_real(state.pressure)                         # (n_nodes, M)
    vel_c = vel if coeff_state is None else modes_to_real(coeff_state.velocity)

    resid = np.zeros((mesh.n_nodes, dim + 1, m))
    taus, zs = [], []
    for sl, node_seg, _ in ctx.chunks:
        elems = mesh.elements[sl]
        grads = ed.grads[sl]
        detj = ed.detj[sl]
        metric = ed.metric[sl]
        n_el, nen = elems.shape
        u_el = vel[elems].reshape(n_el, nen, dim * m)
        uc_el = vel_c[elems].reshape(n_el, nen, dim * m)
        p_el = pres[elems]                                 # (E, nen, M)
        # d u_i / d x_j at [e, j, i]
        grad_u = np.matmul(grads.swapaxes(1, 2), u_el).reshape(n_el, dim, dim, m)
        grad_p = np.matmul(grads.swapaxes(1, 2), p_el)     # (E, dim, M)
        tau_q = np.empty((rule.n_points, n_el, m, m))
        gal = np.empty((rule.n_points, n_el, dim, m))      # w (strong - Omega v)
        wv = np.empty((rule.n_points, n_el, dim, m))       # w v
        cv = np.zeros((n_el, dim, dim, m))                 # sum_q w C_j v_i at [e, j, i]
        for q in range(rule.n_points):
            w = (rule.weights[q] * detj)[:, None, None]
            uc_q = (shp[q] @ uc_el).reshape(n_el, dim, m)
            conv = convolution_dense(uc_q, n)              # (E, dim, M, M), symmetric
            tau_q[q] = tau_from_modes(uc_q, metric, case.nu, c_i, n)
            strong = rho * ((shp[q] @ u_el).reshape(n_el, dim, m) @ omega_t
                            + np.matmul(grad_u, conv).sum(axis=1)) + grad_p
            v = np.matmul(strong, tau_q[q])
            gal[q] = w * (strong - v @ omega_t)
            wv[q] = w * v
            cv += np.matmul(wv[q][:, None], conv)
        r_m = np.tensordot(shp, gal, axes=(0, 0)).transpose(1, 0, 2, 3)   # (E, nen, dim, M)
        r_m += np.matmul(grads, cv.reshape(n_el, dim, dim * m)).reshape(n_el, nen, dim, m)
        n_int = np.outer(detj, n_ref)                      # sum_q w_q N_A
        vol = detj * rule.weights.sum()
        p_int = np.einsum("eb,ebm->em", n_int, p_el)
        r_m -= n_int[:, :, None, None] * grad_p[:, None] + grads[..., None] * p_int[:, None, None]
        r_m += (mu * vol[:, None, None] * np.matmul(grads, grad_u.reshape(n_el, dim, dim * m))
                ).reshape(n_el, nen, dim, m)
        div_u = np.einsum("eiim->em", grad_u)
        r_c = n_int[:, :, None] * div_u[:, None] + np.matmul(grads, wv.sum(axis=0)) / rho
        node_seg.add_to(resid, np.concatenate([r_m, r_c[:, :, None]], axis=2)
                        .reshape(-1, dim + 1, m))
        taus.append(tau_q)
        zs.append(np.tensordot(shp, wv, axes=(0, 0)).swapaxes(0, 1))   # (E, nen, dim, M)

    for name, data in case.neumann.items():
        what = f"Neumann data of group {name!r}"
        h_modes = modes_to_real(require_conjugate_symmetry(
            boundary_values(data, (m,), what), what))
        fq = facet_quadrature(mesh, name)
        r_el = -np.einsum("fq,qa,fi,r->fair", fq.weights, fq.shape, fq.normals, h_modes)
        np.add.at(resid[:, :dim], fq.nodes.ravel(), r_el.reshape(-1, dim, m))
    backflow = _backflow_operators(case, mesh, vel_c)
    _add_ns_backflow(case, mesh, vel, backflow, ctx, resid, None)
    return rhs_from_orthonormal(resid), _Linearization(vel, vel_c, taus, zs, backflow)


def _tangent_pass(case: NSCase, mesh: Mesh, lin: _Linearization, *,
                  exact_gd: bool = False, newton: bool = False) -> BlockTangent:
    """BlockTangent at the state of lin, without pseudo-time mass; tau from lin.

    The edge blocks hold the frozen-coefficient tangent: K, L and the
    Galerkin gradient/divergence scalars.  With t_B(q) = N_B Omega +
    A_j dN_B/dx_j the linearized strong residual of node B at point q,
    and tau and the A_j symmetric and Omega skew, the least-squares weight
    P_A(q) = (A_j dN_A/dx_j - N_A Omega) tau is the transpose of tau t_A(q).
    So one array per point, the transposed test weight
    S_A(q) = w (N_A I + P_A(q))^T = w (N_A I + tau t_A(q)), gives
    K = rho sum_q S_A^T t_B plus the viscous term, and the least-squares
    coupling: P_A = sum_q w P_A(q) in the momentum rows and
    Q_B = sum_q w tau t_B(q) = P_B^T in the continuity rows.  exact_gd
    scatters these edge-wise as g_full/d_full; newton (which needs
    coeff_state None in the residual pass) keeps them per element in a
    _NewtonElements operator, the rest of the derivative with tau held
    fixed.
    """
    n, m = case.n_modes, n_coeffs(case.n_modes)
    dim = mesh.dim
    rho, mu = case.rho, case.mu
    ed = mesh.element_data()
    ctx = assembly_context(mesh, build_graph)
    rule = quadrature_rule(mesh.elem_type)
    shp = shape_values(mesh.elem_type, rule.points)             # (n_qp, nen)
    n_qp = rule.n_points
    n_ref = rule.weights @ shp
    omega_mat = build_omega(n, case.omega)
    diag = np.arange(m)

    n_edges = ctx.rows.shape[0]
    k_c = np.zeros((n_edges, m, m))
    l_c = np.zeros((n_edges, m, m))
    g_scal = np.zeros((n_edges, dim))
    d_scal = np.zeros((n_edges, dim))
    g_c = np.zeros((n_edges, dim, m, m)) if exact_gd else None
    d_c = np.zeros((n_edges, dim, m, m)) if exact_gd else None
    parts = []

    for (sl, node_seg, edge_seg), tau_q, z in zip(ctx.chunks, lin.taus, lin.z):
        elems = mesh.elements[sl]
        grads = ed.grads[sl]
        detj = ed.detj[sl]
        n_el, nen = elems.shape
        uc_el = lin.vel_c[elems].reshape(n_el, nen, dim * m)
        w_q = np.outer(rule.weights, detj)                  # (n_qp, E)
        t_st = np.empty((n_el, n_qp, m, nen, m))            # t_B(q)[s, c] at [e, q, s, B, c]
        for q in range(n_qp):
            conv = convolution_dense((shp[q] @ uc_el).reshape(n_el, dim, m), n)
            a_dir = np.matmul(grads, conv.reshape(n_el, dim, m * m)).reshape(n_el, nen, m, m)
            t_st[:, q] = a_dir.swapaxes(1, 2)
            t_st[:, q] += shp[q][:, None] * omega_mat[:, None, :]
        del conv, a_dir
        w_tau = (w_q[:, :, None, None] * tau_q).swapaxes(0, 1)    # (E, n_qp, M, M)
        # S_A(q)[r, c] at [e, (q, r), (A, c)]
        s_w = np.matmul(w_tau, t_st.reshape(n_el, n_qp, m, nen * m)).reshape(n_el, -1, nen * m)
        wn = w_q[:, :, None] * shp[:, None, :]             # w N_A(q) at [q, e, A]
        s_w.reshape(n_el, n_qp, m, nen, m)[:, :, diag, :, diag] += wn.transpose(1, 0, 2)[None]
        k_el = np.matmul(s_w.swapaxes(1, 2), t_st.reshape(n_el, n_qp * m, nen * m))
        del t_st
        k_el *= rho
        gab = np.matmul(grads, grads.swapaxes(1, 2))
        vol = detj * rule.weights.sum()
        k_el = k_el.reshape(n_el, nen, m, nen, m)
        k_el[:, :, diag, :, diag] += (mu * vol[:, None, None] * gab)[None]
        edge_seg.add_to(k_c, k_el.transpose(0, 1, 3, 2, 4).reshape(-1, m, m))
        del k_el
        tau_sum = np.einsum("qe,qerc->erc", w_q, tau_q)
        edge_seg.add_to(l_c, ((gab / rho)[..., None, None] * tau_sum[:, None, None])
                        .reshape(-1, m, m))
        n_int = np.outer(detj, n_ref)                      # sum_q w_q N_A
        edge_seg.add_to(g_scal, -np.einsum("eai,eb->eabi", grads, n_int).reshape(-1, dim))
        edge_seg.add_to(d_scal, np.einsum("ea,ebj->eabj", n_int, grads).reshape(-1, dim))
        # Q_B[r, c] = P_B[c, r] at [e, r, B, c]
        u_sum = s_w.reshape(n_el, n_qp, m, nen, m).sum(axis=1)
        u_sum[:, diag, :, diag] -= n_int[None]
        if exact_gd:
            edge_seg.add_to(g_c, np.einsum("ecar,ebi->eabirc", u_sum, grads)
                            .reshape(-1, dim, m, m))
            edge_seg.add_to(d_c, np.einsum("eaj,ebrc->eabjrc", grads, u_sum.swapaxes(1, 2))
                            .reshape(-1, dim, m, m))
        if newton:
            # T_B / rho = sum_q w N_B tau / rho, symmetric
            t_rho = np.matmul(wn.transpose(1, 2, 0) / rho,
                              tau_q.swapaxes(0, 1).reshape(n_el, n_qp, m * m))
            qt = np.concatenate([u_sum.transpose(0, 2, 3, 1), t_rho.reshape(n_el, nen, m, m)],
                                axis=1).reshape(n_el, 2 * nen * m, m)
            parts.append(_newton_chunk(case, lin, elems, sl, ed, n_int, s_w, qt, z, node_seg))

    _add_ns_backflow(case, mesh, lin.vel, lin.backflow, ctx, None, k_c)
    if exact_gd:
        g_c[..., diag, diag] += g_scal[..., None]
        d_c[..., diag, diag] += d_scal[..., None]
    return BlockTangent(
        ctx.rows, ctx.cols, mesh.n_nodes, dim, n,
        k_real=block_from_orthonormal(     # column-major blocks, see BlockTangent
            k_c, 1.0, out=np.zeros((n_edges, m + 1, m + 1)).swapaxes(1, 2)),
        l_real=block_from_orthonormal(l_c, 1.0),
        g_diag=g_scal, d_diag=d_scal,
        g_full=block_from_orthonormal(g_c, 0.0) if exact_gd else None,
        d_full=block_from_orthonormal(d_c, 0.0) if exact_gd else None,
        elements=_NewtonElements(mesh.n_nodes, dim, n, shp, parts) if newton else None,
    )


class _NewtonChunk(NamedTuple):
    """The element arrays of _NewtonElements for one element chunk.

    Every matrix is stored as the right factor of a row-vector product, in
    the layout matmul reads contiguously; the factors of the products *
    are stored time-sampled, with the elements last.
    """

    elements: np.ndarray   # (E, nen)
    node_seg: object       # the chunk's node scatter plan
    grads: np.ndarray      # (E, nen, dim) dN_A / dx_j
    n_int: np.ndarray      # (E, 1, nen, 1) sum_q w N_A
    s_w: np.ndarray        # (E, n_qp M, nen M): S_A(q) = w (N_A I + P_A(q))^T at [(q, r), (A, c)]
    qt: np.ndarray         # (E, 2 nen M, M): Q_B[c, s] and T_B[c, s] / rho at [(0|1, B, s), c]
    du_t: np.ndarray       # (dim, dim, P, E): rho d u_i / d x_k at [i, k]
    z_t: np.ndarray        # (dim, P, nen, E): Z_B,i at [i, t, B]


def _newton_chunk(case: NSCase, lin: _Linearization, elems: np.ndarray, sl: slice, ed,
                  n_int: np.ndarray, s_w: np.ndarray, qt: np.ndarray, z: np.ndarray,
                  node_seg) -> _NewtonChunk:
    """The _NewtonChunk of one element chunk; z is its Z_B,i (E, nen, dim, M)."""
    n_el, nen, dim, m = z.shape
    samples = real_basis(case.n_modes).samples
    grads = ed.grads[sl]
    grad_u = np.einsum("eak,eaim->ikme", grads, lin.vel[elems])      # d u_i / d x_k
    z_t = samples @ z.transpose(2, 3, 1, 0).reshape(dim, m, nen * n_el)
    return _NewtonChunk(elems, node_seg, grads, n_int[:, None, :, None], s_w, qt,
                        samples @ (case.rho * grad_u), z_t.reshape(dim, -1, nen, n_el))


class _NewtonElements:
    """The Newton terms of the NS operator that the edge blocks leave out.

    With tau held fixed, the derivative of the residual adds to the
    frozen-coefficient edge blocks, per element and in the real
    orthonormal basis (x the increment, g_i = sum_B dN_B/dx_i x_B,p its
    pressure gradient, y_B,i = rho sum_k (d u_i/d x_k) * x_B,k its
    convective reaction, * the band-restricted product, and
    y_i(q) = sum_B N_B(q) y_B,i):
      momentum (A, i): sum_q w (N_A I + P_A(q)) y_i(q) + P_A g_i
                       + sum_j dN_A/dx_j sum_B Z_B,i * x_B,j,
      continuity A:    sum_j dN_A/dx_j sum_B (Q_B x_B,j + T_B y_B,j / rho),
    with T_B = sum_q w N_B tau, Z_B,i = sum_q w N_B tau strong_i, and P
    and Q as in _tangent_pass.  The first two momentum terms are one
    product with the test weight S: sum_q S_A(q)^T (y_i(q) + g_i) less
    the Galerkin sum_q w N_A g_i.  These are the
    least-squares gradient/divergence coupling, the Galerkin and
    least-squares convective reaction, and the variation of the test
    function P_A through the convection matrices.  The backflow variation
    is left out.

    The terms with S, Q and T are batched row-vector matmuls with stored
    element matrices.  The products * run pointwise on the P = 3N-2
    time samples of real_basis(N), on arrays with the elements last, which
    stores a vector where C(d u_i/d x_k) and C(Z_B,i) would take a matrix.
    The element results go onto the nodes through the chunk's node plan.
    """

    def __init__(self, n_nodes: int, dim: int, n_modes: int, shp: np.ndarray,
                 chunks: List[_NewtonChunk]):
        self.n_nodes, self.dim, self.n_modes = n_nodes, dim, n_modes
        self.shp = shp                                     # (n_qp, nen)
        self.chunks = chunks

    @property
    def n_elements(self) -> int:
        return sum(c.elements.shape[0] for c in self.chunks)

    @property
    def reals_per_element(self) -> int:
        """Reals stored per element beyond the mesh's element data."""
        if not self.chunks:
            return 0
        c = self.chunks[0]
        return sum(a.size for a in (c.s_w, c.qt, c.du_t, c.z_t)) // c.elements.shape[0]

    def add_to(self, x: np.ndarray, y: np.ndarray) -> None:
        """y += this operator times x, both (n_nodes, dim+1, 2N) in the 2N layout."""
        d, m, shp = self.dim, 2 * self.n_modes - 1, self.shp
        n_qp, nen = shp.shape
        samples = real_basis(self.n_modes).samples
        back = samples.T / samples.shape[0]                # time samples to modes
        xo = np.empty((d + 1, self.n_nodes, m))            # orthonormal coordinates
        xo[..., 0] = x[..., 0].T
        xo[..., 1:] = x[..., 2:].transpose(1, 0, 2) * _SQRT2
        xo_t = (xo[:d].reshape(-1, m) @ samples.T).reshape(d, self.n_nodes, -1)
        xo_t = np.ascontiguousarray(xo_t.transpose(0, 2, 1))          # (dim, P, n_nodes)
        out = np.zeros((self.n_nodes, d + 1, m))
        for c in self.chunks:
            n_el = c.elements.shape[0]
            x_t = np.take(xo_t, c.elements.T, axis=2)                # (dim, P, nen, E)
            y_t = np.einsum("ikte,ktbe->itbe", c.du_t, x_t)
            h_t = np.einsum("itbe,jtbe->ijte", c.z_t, x_t)
            react = (back @ y_t.reshape(d, -1, nen * n_el)).reshape(d, m, nen, n_el)
            react = np.ascontiguousarray(react.transpose(3, 0, 2, 1))  # y_B,i at [e, i, B, r]
            h = (back @ h_t.reshape(d * d, -1, n_el)).reshape(d, d, m, n_el)
            x_el = xo[:, c.elements]                                 # (dim+1, E, nen, M)
            x_r = x_el[:d].swapaxes(0, 1).reshape(n_el, d, nen * m)
            gp = np.matmul(c.grads.swapaxes(1, 2), x_el[d])         # (E, dim, M)
            sig = np.matmul(shp, react)
            sig += gp[:, :, None]                                    # y_i(q) + g_i at [e, i, q, c]
            mom = np.matmul(sig.reshape(n_el, d, n_qp * m), c.s_w).reshape(n_el, d, nen, m)
            mom -= c.n_int * gp[:, :, None]
            mom += np.matmul(c.grads[:, None], h.transpose(3, 0, 1, 2))     # [e, i, A, r]
            cont = np.matmul(np.concatenate([x_r, react.reshape(n_el, d, -1)], axis=2), c.qt)
            res = np.empty((n_el, nen, d + 1, m))
            res[:, :, :d] = mom.swapaxes(1, 2)
            res[:, :, d] = np.matmul(c.grads, cont)
            c.node_seg.add_to(out, res.reshape(n_el * nen, d + 1, m))
        y[..., 0] += out[..., 0]
        y[..., 2:] += out[..., 1:] / _SQRT2


def _assemble(case: NSCase, mesh: Mesh, state: NSState, *,
              need_residual: bool, need_tangent: bool, exact_gd: bool = False,
              coeff_state: NSState | None = None, newton: bool = False):
    """Shared residual/tangent assembly in the real orthonormal mode basis.

    Returns the residual in linsolve's 2N layout, shape
    (n_nodes, dim+1, 2N), and the BlockTangent without pseudo-time mass
    (see _add_pseudo_mass).  coeff_state supplies the
    velocity entering A_i, tau and the backflow operator (frozen
    coefficients); it defaults to state.  The residual pass always runs,
    since the tangent pass takes tau from it.

    The states are converted once to their real coordinates, so every
    per-point product is a real matmul: the convolution matrices and tau
    are real symmetric, Omega real skew-symmetric.  Per element chunk, the
    integrands are summed over the quadrature points and scattered once
    through the mesh's cached plans.  The blocks that depend on geometry
    only are formed after the point loop from sum_q w_q N_A: the viscous
    gab I, the pressure block gab/rho (sum_q w_q tau), and the scalar
    gradient/divergence blocks.
    The assembled real-basis blocks and residual enter the 2N layout by
    linsolve's fixed map (block_from_orthonormal, rhs_from_orthonormal).
    """
    resid, lin = _residual_pass(case, mesh, state, coeff_state)
    tangent = _tangent_pass(case, mesh, lin, exact_gd=exact_gd, newton=newton) \
        if need_tangent else None
    return (resid if need_residual else None), tangent


def _backflow_operators(case, mesh, vel_c) -> dict:
    """|A_n|_- of the velocity vel_c at each facet quadrature point, per Neumann group.

    Empty when the backflow term is off (backflow_beta 0 or no Neumann group).
    """
    if not (case.backflow_beta > 0.0 and case.neumann):
        return {}
    ops = {}
    for name in case.neumann:
        fq = facet_quadrature(mesh, name)
        ops[name] = [negative_part_batch(convolution_dense(
            np.einsum("fim,fi->fm", _facet_values(vel_c, fq, q), fq.normals), case.n_modes))
            for q in range(fq.shape.shape[0])]
    return ops


def _add_ns_backflow(case, mesh, vel, backflow, ctx, resid, k_c):
    """Backflow term of the _backflow_operators, added to the real-basis resid/k_c."""
    m = n_coeffs(case.n_modes)
    dim = mesh.dim
    factor = 0.5 * case.rho * case.backflow_beta
    for name, an_negs in backflow.items():
        fq = facet_quadrature(mesh, name)
        k = fq.nodes.shape[1]
        r_el = np.zeros(fq.nodes.shape + (dim, m))
        k_el = np.zeros(fq.nodes.shape + (k, m, m))
        for q, an_neg in enumerate(an_negs):
            if resid is not None:
                u_q = _facet_values(vel, fq, q)
                term = np.einsum("frc,fic->fir", an_neg, u_q)
                r_el += np.einsum("f,a,fir->fair", fq.weights[:, q], fq.shape[q], term)
            if k_c is not None:
                k_el += np.einsum("f,a,b,frc->fabrc", fq.weights[:, q],
                                  fq.shape[q], fq.shape[q], an_neg)
        if resid is not None:
            np.add.at(resid[:, :dim], fq.nodes.ravel(), -factor * r_el.reshape(-1, dim, m))
        if k_c is not None:
            np.add.at(k_c, ctx.edge_ids(fq.nodes), -factor * k_el.reshape(-1, m, m))


def assemble_ns_residual(case: NSCase, mesh: Mesh, state: NSState,
                         coeff_state: NSState | None = None) -> np.ndarray:
    """Momentum and continuity residuals, shape (n_nodes, dim+1, 2N-1).

    coeff_state optionally freezes A_i and tau at a different state (used
    to verify the frozen-coefficient tangent against finite differences).
    """
    resid, _ = _assemble(case, mesh, state, need_residual=True,
                         need_tangent=False, coeff_state=coeff_state)
    return from_real(resid)


def assemble_ns_tangent(case: NSCase, mesh: Mesh, state: NSState,
                        pseudo_dt: float = np.inf,
                        exact_gd: bool = False) -> BlockTangent:
    """Frozen-coefficient tangent of the residual (A_i and tau held fixed).

    With exact_gd=False only the edge blocks of the Newton operator are
    kept: the least-squares contributions to the gradient/divergence
    blocks are dropped, leaving them diagonal in the mode index;
    exact_gd=True keeps them, making the tangent the exact derivative of
    the frozen-coefficient residual.  A finite pseudo_dt adds the mass term
    (N_A, 1.5 rho / pseudo_dt N_B) to the K block.
    """
    _, tangent = _assemble(case, mesh, state, need_residual=False,
                           need_tangent=True, exact_gd=exact_gd)
    _add_pseudo_mass(tangent, mesh, case.rho, pseudo_dt)
    return tangent


def assemble_ns_newton(case: NSCase, mesh: Mesh, state: NSState,
                       pseudo_dt: float = np.inf) -> BlockTangent:
    """The operator newton_step solves with: the derivative with tau held fixed.

    The frozen-coefficient edge blocks of assemble_ns_tangent plus the
    element-level Newton terms (_NewtonElements); the backflow operator
    stays frozen.  A finite pseudo_dt adds the pseudo-time mass.
    """
    _, tangent = _assemble(case, mesh, state, need_residual=False,
                           need_tangent=True, newton=True)
    _add_pseudo_mass(tangent, mesh, case.rho, pseudo_dt)
    return tangent


def _add_pseudo_mass(tangent: BlockTangent, mesh: Mesh, rho: float,
                     pseudo_dt: float) -> None:
    """Add the pseudo-time mass (N_A, 1.5 rho / pseudo_dt N_B) to K in place.

    The mass is the mesh's cached edge mass times the identity on every
    mode slot but the pinned steady imaginary one, which stays an identity
    row; pseudo_dt = inf adds nothing.
    """
    if np.isfinite(pseudo_dt):
        free = np.r_[0, 2:2 * tangent.n_modes]
        edge_mass = assembly_context(mesh, build_graph).edge_mass
        tangent.k_real[:, free, free] += (1.5 * rho / pseudo_dt) * edge_mass[:, None]


def residual_norm(residual: np.ndarray, dir_nodes: np.ndarray, dim: int) -> float:
    """Norm of the free residual, given in the 2N layout (Dirichlet momentum rows off)."""
    rr = residual.copy()
    rr[dir_nodes, :dim, :] = 0.0
    return float(np.linalg.norm(rr))


def default_pseudo_dt(case: NSCase, mesh: Mesh,
                      dir_vals: np.ndarray | None = None) -> float:
    """Initial pseudo step heuristic: the smallest of the case time scales.

    Roughly an order of magnitude above a physical-integration step, and
    small enough that the mass term still conditions the tangent.
    dir_vals, the Dirichlet values of resolve_ns_dirichlet, is resolved
    here when not given.
    """
    ed = mesh.element_data()
    h_min = float(np.min(ed.h))
    scales = [h_min**2 * case.rho / case.mu]
    if case.omega > 0.0:
        scales.append(1.0 / case.omega)
    if dir_vals is None:
        _, dir_vals = resolve_ns_dirichlet(case, mesh)
    if dir_vals.size:
        amp = np.abs(dir_vals).sum(axis=2)        # per node, per direction
        u_max = float(np.max(np.linalg.norm(amp, axis=1)))
        if u_max > 0.0:
            scales.append(h_min / u_max)
    return min(scales)


# p of the SER rule dt_k = dt_{k-1} (r_{k-1} / r_k)^p.  bent_n7 (seeds 0, 5) takes 7 updates
# from default_pseudo_dt at p = 3 and p = 2, in 152-154 and 163-168 GMRES matvecs.
SER_EXPONENT = 3.0


def ser_pseudo_dt(initial: float, previous: float | None,
                  r_previous: float | None, r: float) -> float:
    """Pseudo step by switched-evolution relaxation (Mulder & van Leer 1985).

    The first step (previous is None) is `initial`.  While the residual
    norm falls, the step grows as previous (r_previous / r)^SER_EXPONENT,
    towards plain Newton; when it rises, the step falls back to
    max(initial, previous / 2).  An infinite initial step stays infinite.
    """
    if previous is None:
        return initial
    if r > r_previous:
        return max(initial, previous / 2)
    return previous * (r_previous / r) ** SER_EXPONENT


class NewtonUpdate(NamedTuple):
    """The state after one newton_step and the record of that step."""

    state: NSState
    residual: float          # residual norm before the update
    matvecs: int
    pseudo_dt: float         # nan when no solve was run
    linear_converged: bool   # GMRES reached eps_ls
    linear_residual: float   # GMRES's final ||A x - b|| / ||b||; nan when no solve was run
    assembly_s: float        # seconds in the residual and operator assembly
    linear_s: float          # seconds in preconditioner set-up and GMRES; 0 when no solve was run


def newton_step(case: NSCase, mesh: Mesh, state: NSState, config: SolverConfig,
                pseudo_dt: float | Callable[[float], float] | None = None,
                skip_below: float = 0.0,
                dir_nodes: np.ndarray | None = None) -> NewtonUpdate:
    """One linearized update y <- y - H^{-1} r at the current state.

    H is the Newton operator with tau held fixed (assemble_ns_newton) plus
    the pseudo-time mass of the step.  The residual is assembled first; the
    operator is built only when a linear solve follows, from the residual
    pass's per-point tau.  pseudo_dt is the step, or a callable that maps
    this step's residual norm to it (solve_ns passes its SER rule); None
    takes config.pseudo_dt, or default_pseudo_dt when that is None.  The
    mass is added once the residual has chosen the step.  The linear solve
    runs to eps_ls relative tolerance with GMRES, preconditioned by
    block-Jacobi on the nodal edge blocks, which it inverts through their
    pressure Schur complement; Dirichlet increments are pinned to zero.
    The update records the relative linear residual GMRES reached and the
    seconds spent in assembly and in the linear solve.  An update that
    GMRES left above eps_ls without stagnating is applied and flagged
    (linear_converged False); stagnation raises LinearSolveError and leaves
    the state untouched.  If the residual norm is already at or below
    skip_below, no solve (and no operator assembly) is run.  dir_nodes, the
    Dirichlet node ids of resolve_ns_dirichlet, is resolved here when not
    given.
    """
    if pseudo_dt is None:
        pseudo_dt = config.pseudo_dt if config.pseudo_dt is not None \
            else default_pseudo_dt(case, mesh)
    if dir_nodes is None:
        dir_nodes, _ = resolve_ns_dirichlet(case, mesh)
    start = time.perf_counter()
    resid, lin = _residual_pass(case, mesh, state)
    rnorm = residual_norm(resid, dir_nodes, mesh.dim)
    if rnorm <= skip_below:
        return NewtonUpdate(state.copy(), rnorm, 0, np.nan, True, np.nan,
                            time.perf_counter() - start, 0.0)
    if callable(pseudo_dt):
        pseudo_dt = pseudo_dt(rnorm)
    tangent = _tangent_pass(case, mesh, lin, newton=True)
    del lin
    _add_pseudo_mass(tangent, mesh, case.rho, pseudo_dt)

    pins = layout_pins(mesh.n_nodes, case.n_modes, dir_nodes, mesh.dim + 1, mesh.dim)
    rhs = -resid.ravel()
    rhs[pins] = 0.0
    op = pinned_operator(tangent.matvec, pins)
    assembled = time.perf_counter()
    precond = block_jacobi_preconditioner(tangent, pins)
    res = gmres(op, rhs, config.gmres_config(), precond=precond)
    solved = time.perf_counter()
    if not res.converged and res.residuals[-1] >= res.residuals[0]:
        raise LinearSolveError("linear solver stagnated; step rejected",
                               res.matvecs, res.residuals[-1])
    delta = from_real(res.x.reshape(mesh.n_nodes, mesh.dim + 1, 2 * case.n_modes))
    new = state.copy()
    new.velocity += delta[:, :mesh.dim, :]
    new.pressure += delta[:, mesh.dim, :]
    new.velocity[dir_nodes] = state.velocity[dir_nodes]
    new.symmetrize()
    linear_residual = res.residuals[-1] / res.residuals[0] if res.residuals[0] > 0 else 0.0
    return NewtonUpdate(new, rnorm, res.matvecs, pseudo_dt, res.converged, linear_residual,
                        assembled - start, solved - assembled)


def solve_ns(case: NSCase, mesh: Mesh, config: SolverConfig | None = None) -> NSResult:
    """Drive the spectral system to ||r|| <= eps_nr ||r0||.

    The state is initialized with the Dirichlet data on the boundary and
    zero elsewhere.  Exactly one Newton update is performed per pseudo-time
    step.  The first step is config.pseudo_dt (default_pseudo_dt when it
    is None); each later step follows ser_pseudo_dt from the previous step
    and the residual norms before it and before this step, so the steps
    grow towards plain Newton as the residual falls.  pseudo_dt=inf is
    plain Newton-Raphson throughout.  If max_steps is exhausted, or a
    linear solve stagnates (warned about), the partial state is returned
    flagged as non-converged.
    """
    if config is None:
        config = SolverConfig()
    check_groups(mesh, dirichlet=case.dirichlet, wall=case.walls, neumann=case.neumann)
    dir_nodes, dir_vals = resolve_ns_dirichlet(case, mesh)
    state = NSState.zeros(mesh.n_nodes, mesh.dim, case.n_modes)
    state.velocity[dir_nodes] = dir_vals
    initial_dt = config.pseudo_dt if config.pseudo_dt is not None \
        else default_pseudo_dt(case, mesh, dir_vals)

    residuals: List[float] = []
    lin_iters: List[int] = []
    pseudo_dts: List[float] = []
    linear_residuals: List[float] = []
    assembly_s: List[float] = []
    linear_s: List[float] = []
    unconverged = 0

    def result(converged: bool, steps: int) -> NSResult:
        return NSResult(state, converged, residuals, steps, lin_iters, pseudo_dts,
                        unconverged, linear_residuals, assembly_s, linear_s)

    for step in range(config.max_steps):
        skip = config.eps_nr * residuals[0] if residuals else 0.0
        rule = partial(ser_pseudo_dt, initial_dt, pseudo_dts[-1] if pseudo_dts else None,
                       residuals[-1] if residuals else None)
        try:
            update = newton_step(case, mesh, state, config, rule,
                                 skip_below=skip, dir_nodes=dir_nodes)
        except LinearSolveError as err:
            warnings.warn(str(err))
            return result(False, step)
        residuals.append(update.residual)
        if update.residual <= config.eps_nr * residuals[0]:
            return result(True, step)
        state = update.state
        lin_iters.append(update.matvecs)
        pseudo_dts.append(update.pseudo_dt)
        linear_residuals.append(update.linear_residual)
        assembly_s.append(update.assembly_s)
        linear_s.append(update.linear_s)
        unconverged += not update.linear_converged
    return result(False, config.max_steps)


def backflow_surface_matrix(case: NSCase, mesh: Mesh, state: NSState,
                            facet) -> np.ndarray:
    """Per-facet boundary operator (rho beta / 2) |A_n|_- at the centroid.

    Zero whenever the normal convolution matrix is positive semi-definite
    (pure outflow); otherwise negative semi-definite.
    """
    group, idx = facet
    if group not in case.neumann:
        raise ValueError(f"facet group {group!r} carries no Neumann condition")
    fq = facet_quadrature(mesh, group)
    u_mean = state.velocity[fq.nodes[idx]].mean(axis=0)   # (dim, M)
    un = np.einsum("im,i->m", u_mean, fq.normals[idx])
    an_neg = negative_part_batch(spectral.convolution_dense(un[None], case.n_modes))[0]
    return 0.5 * case.rho * case.backflow_beta * an_neg


@dataclass(frozen=True)
class FlowData:
    flow: SpectralCoeffs          # volumetric rate through the group, outward
    pressure: SpectralCoeffs      # area-averaged pressure
    area: float


FlowReport = Dict[str, FlowData]


def flow_report(state: NSState, mesh: Mesh, groups) -> FlowReport:
    """Outward volumetric flow and mean pressure modes per facet group."""
    n = (state.pressure.shape[-1] + 1) // 2
    out: FlowReport = {}
    for name in groups:
        fq = facet_quadrature(mesh, name)
        q_modes = np.einsum("fq,fqim,fi->m", fq.weights, fq.interpolate(state.velocity),
                            fq.normals)
        p_modes = np.einsum("fq,fqm->m", fq.weights, fq.interpolate(state.pressure))
        area = float(fq.areas.sum())
        out[name] = FlowData(SpectralCoeffs(n, symmetrize_modes(q_modes)),
                             SpectralCoeffs(n, symmetrize_modes(p_modes / area)),
                             area)
    return out


def parabolic_inflow(mesh: Mesh, group: str, flow: SpectralCoeffs,
                     planar_tol: float = 1e-6) -> NodalValues:
    """Dirichlet data with a parabolic profile carrying the given flow.

    The profile vanishes on the rim of the facet group and is scaled per
    mode so the integrated flux into the domain equals the flow modes.
    Works for convex planar inlets; a warning is issued if the group
    deviates from planarity.
    """
    fq = facet_quadrature(mesh, group)
    n_mean = fq.normals.mean(axis=0)
    n_mean /= np.linalg.norm(n_mean)
    if np.max(np.linalg.norm(fq.normals - n_mean, axis=1)) > planar_tol:
        warnings.warn(f"facet group {group!r} is not planar; "
                      "parabolic profile is approximate")
    nodes = np.unique(fq.nodes)
    coords = mesh.coords[nodes]
    centroid = np.average(fq.points.reshape(-1, mesh.dim), axis=0,
                          weights=fq.weights.ravel())
    k = fq.nodes.shape[1]
    if k == 1:
        raise ValueError("parabolic profile needs a 2D or 3D inlet")

    def in_plane(x):
        rel = x - centroid
        rel = rel - np.outer(rel @ n_mean, n_mean)
        return rel

    rel_nodes = in_plane(coords)
    if mesh.dim == 2:
        # line-segment inlet: parabola over the half-length
        rmax = np.max(np.linalg.norm(rel_nodes, axis=1))
        profile = np.maximum(0.0, 1.0 - (np.linalg.norm(rel_nodes, axis=1) / rmax) ** 2)
    else:
        # rim = edges of the facet patch that appear exactly once
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
        edges = np.concatenate([fq.nodes[:, list(p)] for p in pairs])
        key = np.sort(edges, axis=1)
        _, inv, counts = np.unique(key, axis=0, return_inverse=True, return_counts=True)
        rim_nodes = np.unique(edges[counts[inv] == 1])
        # rim radius as a function of angle around the centroid
        e1 = rel_nodes[np.argmax(np.linalg.norm(rel_nodes, axis=1))]
        e1 = e1 / np.linalg.norm(e1)
        e2 = np.cross(n_mean, e1)
        rim_rel = in_plane(mesh.coords[rim_nodes])
        rim_theta = np.arctan2(rim_rel @ e2, rim_rel @ e1)
        rim_r = np.linalg.norm(rim_rel, axis=1)
        order = np.argsort(rim_theta)
        rim_theta = rim_theta[order]
        rim_r = rim_r[order]
        theta_ext = np.concatenate([rim_theta - 2 * np.pi, rim_theta,
                                    rim_theta + 2 * np.pi])
        r_ext = np.tile(rim_r, 3)
        theta = np.arctan2(rel_nodes @ e2, rel_nodes @ e1)
        r_rim = np.interp(theta, theta_ext, r_ext)
        r = np.linalg.norm(rel_nodes, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(r_rim > 0, r / r_rim, 0.0)
        profile = np.maximum(0.0, 1.0 - ratio**2)

    # flux of the raw profile through the group (inward direction -n)
    nodal = np.zeros(mesh.n_nodes)
    nodal[nodes] = profile
    raw_flux = float(np.sum(fq.weights * fq.interpolate(nodal)))
    if raw_flux <= 0.0:
        raise ValueError(f"degenerate inflow profile on group {group!r}")

    values = np.einsum("k,i,m->kim", profile / raw_flux, -n_mean, flow.values)
    return NodalValues(nodes, values.astype(complex))
