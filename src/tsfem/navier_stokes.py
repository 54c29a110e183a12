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
sqrt2 Im z_n), and the kernels come from spectral_real: the velocity
block K and its test weight from gls_operator, the element operator the
scalar solver assembles too.  So every per-point product is a real
matmul (real symmetric convolution matrices and tau, real skew Omega).
The assembled blocks and residual enter linsolve's layout of 2N-1 real
slots per node and component by the diagonal scaling
K_L[i, j] = K_O[i, j] s_i / s_j, with s = 1 for the steady mode and
1/sqrt2 otherwise.  The linear solve pins the Dirichlet velocity slots
only.  States and assemble_ns_residual stay complex.

Assembly runs over all elements of the mesh at once: it sums each
element integrand over the quadrature points before scattering it once,
through the plans cached on the mesh at its first assembly.  Blocks that
depend on geometry only (viscous and pressure stiffness,
gradient/divergence) are formed once per element instead of once per
quadrature point.  The backflow term is formed on every facet
quadrature point of a group at once.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Union

import numpy as np

from . import spectral
from .boundary import (
    NodalValues,
    add_backflow,
    add_traction,
    boundary_values,
    check_groups,
    resolve_dirichlet,
)
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
from .mesh import Mesh, c_i_for, facet_quadrature
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
    gls_operator,
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
        for name in ("rho", "mu"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
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


class _Linearization(NamedTuple):
    """What the residual pass keeps for the tangent pass of the same state."""

    vel: np.ndarray      # (n_nodes, dim, M) real coordinates of the velocity
    u_q: np.ndarray      # (n_qp, E, dim, M) the velocity entering A_i and tau, at each point
    taus: np.ndarray     # (n_qp, E, M, M) tau at each quadrature point
    z: np.ndarray        # (E, nen, dim, M) Z_B,i = sum_q w_q N_B tau strong_i
    backflow: dict       # per Neumann group, |A_n|_- at each facet quadrature point


def _residual_pass(case: NSCase, mesh: Mesh, state: NSState,
                   coeff_state: NSState | None = None):
    """Residual in the solve layout, (n_nodes, dim+1, 2N-1), and its _Linearization.

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
    shp = ed.basis                                               # (n_qp, nen)
    n_qp = shp.shape[0]
    omega_t = build_omega(n, case.omega).T                      # row vectors: x Omega^T
    vel = modes_to_real(state.velocity)                          # (n_nodes, dim, M)
    pres = modes_to_real(state.pressure)                         # (n_nodes, M)
    vel_c = vel if coeff_state is None else modes_to_real(coeff_state.velocity)

    elems, grads, n_int = mesh.elements, ed.grads, ed.n_int
    n_el, nen = elems.shape
    u_el = vel[elems].reshape(n_el, nen, dim * m)
    uc_el = vel_c[elems].reshape(n_el, nen, dim * m)
    p_el = pres[elems]                                     # (E, nen, M)
    # d u_i / d x_j at [e, j, i]
    grad_u = np.matmul(grads.swapaxes(1, 2), u_el).reshape(n_el, dim, dim, m)
    grad_p = np.matmul(grads.swapaxes(1, 2), p_el)         # (E, dim, M)
    uc_q = np.empty((n_qp, n_el, dim, m))
    tau_q = np.empty((n_qp, n_el, m, m))
    gal = np.empty((n_qp, n_el, dim, m))                   # w (strong - Omega v)
    wv = np.empty((n_qp, n_el, dim, m))                    # w v
    cv = np.zeros((n_el, dim, dim, m))                     # sum_q w C_j v_i at [e, j, i]
    for q in range(n_qp):
        w = ed.wdetj[:, q, None, None]
        uc_q[q] = (shp[q] @ uc_el).reshape(n_el, dim, m)
        conv = convolution_dense(uc_q[q], n)               # (E, dim, M, M), symmetric
        tau_q[q] = tau_from_modes(uc_q[q], ed.metric, case.nu, c_i, n)
        strong = rho * ((shp[q] @ u_el).reshape(n_el, dim, m) @ omega_t
                        + np.matmul(grad_u, conv).sum(axis=1)) + grad_p
        v = np.matmul(strong, tau_q[q])
        gal[q] = w * (strong - v @ omega_t)
        wv[q] = w * v
        cv += np.matmul(wv[q][:, None], conv)
    r_m = np.tensordot(shp, gal, axes=(0, 0)).transpose(1, 0, 2, 3)   # (E, nen, dim, M)
    r_m += np.matmul(grads, cv.reshape(n_el, dim, dim * m)).reshape(n_el, nen, dim, m)
    p_int = np.einsum("eb,ebm->em", n_int, p_el)
    r_m -= n_int[:, :, None, None] * grad_p[:, None] + grads[..., None] * p_int[:, None, None]
    r_m += (mu * ed.vol[:, None, None] * np.matmul(grads, grad_u.reshape(n_el, dim, dim * m))
            ).reshape(n_el, nen, dim, m)
    div_u = np.einsum("eiim->em", grad_u)
    r_c = n_int[:, :, None] * div_u[:, None] + np.matmul(grads, wv.sum(axis=0)) / rho
    resid = np.zeros((mesh.n_nodes, dim + 1, m))
    ctx.nodes.add_to(resid, np.concatenate([r_m, r_c[:, :, None]], axis=2)
                     .reshape(-1, dim + 1, m))
    z = np.tensordot(shp, wv, axes=(0, 0)).swapaxes(0, 1)   # (E, nen, dim, M)

    for name, data in case.neumann.items():
        what = f"Neumann data of group {name!r}"
        h_modes = modes_to_real(require_conjugate_symmetry(
            boundary_values(data, (m,), what), what))
        add_traction(resid[:, :dim], facet_quadrature(mesh, name), h_modes)
    backflow = _backflow_operators(case, mesh, vel_c)
    _add_ns_backflow(case, mesh, vel, backflow, ctx, resid, None)
    return rhs_from_orthonormal(resid), _Linearization(vel, uc_q, tau_q, z, backflow)


def _tangent_pass(case: NSCase, mesh: Mesh, lin: _Linearization, *,
                  exact_gd: bool = False, newton: bool = False) -> BlockTangent:
    """BlockTangent at the state of lin, without pseudo-time mass; tau from lin.

    The edge blocks hold the frozen-coefficient tangent: K, L and the
    Galerkin gradient/divergence scalars.  K and the transposed test weight
    S_A(q) = w (N_A I + P_A(q))^T come from spectral_real.gls_operator,
    and S gives the least-squares coupling: P_A = sum_q w P_A(q) in the
    momentum rows and Q_B = sum_q w tau t_B(q) = P_B^T in the continuity
    rows.  exact_gd scatters these edge-wise as g_full/d_full; newton (which
    needs coeff_state None in the residual pass) keeps them per element in
    a _NewtonElements operator, the rest of the derivative with tau held
    fixed.
    """
    n, m = case.n_modes, n_coeffs(case.n_modes)
    dim = mesh.dim
    rho = case.rho
    ed = mesh.element_data()
    ctx = assembly_context(mesh, build_graph)
    diag = np.arange(m)

    n_edges = ctx.rows.shape[0]
    k_c = np.zeros((n_edges, m, m))
    l_c = np.zeros((n_edges, m, m))
    g_scal = np.zeros((n_edges, dim))
    d_scal = np.zeros((n_edges, dim))
    g_c = np.zeros((n_edges, dim, m, m)) if exact_gd else None
    d_c = np.zeros((n_edges, dim, m, m)) if exact_gd else None

    elems, grads, tau_q, n_int = mesh.elements, ed.grads, lin.taus, ed.n_int
    n_el, nen = elems.shape
    k_el, s_w = gls_operator(lin.u_q, tau_q, ed, case.omega, rho, case.mu)
    ctx.edges.add_to(k_c, k_el.transpose(0, 1, 3, 2, 4).reshape(-1, m, m))
    del k_el
    tau_sum = np.einsum("eq,qerc->erc", ed.wdetj, tau_q)
    ctx.edges.add_to(l_c, ((ed.gab / rho)[..., None, None] * tau_sum[:, None, None])
                     .reshape(-1, m, m))
    ctx.edges.add_to(g_scal, -np.einsum("eai,eb->eabi", grads, n_int).reshape(-1, dim))
    ctx.edges.add_to(d_scal, np.einsum("ea,ebj->eabj", n_int, grads).reshape(-1, dim))
    # Q_B[r, c] = P_B[c, r] at [e, r, B, c]
    u_sum = s_w.reshape(n_el, -1, m, nen, m).sum(axis=1)
    u_sum[:, diag, :, diag] -= n_int[None]
    if exact_gd:
        ctx.edges.add_to(g_c, np.einsum("ecar,ebi->eabirc", u_sum, grads)
                         .reshape(-1, dim, m, m))
        ctx.edges.add_to(d_c, np.einsum("eaj,ebrc->eabjrc", grads, u_sum.swapaxes(1, 2))
                         .reshape(-1, dim, m, m))
    elements = None
    if newton:
        # T_B / rho = sum_q w N_B tau / rho, symmetric
        wn = ed.wdetj[:, None, :] * ed.basis.T                # w N_B(q) at [e, B, q]
        t_rho = np.matmul(wn / rho, tau_q.swapaxes(0, 1).reshape(n_el, -1, m * m))
        qt = np.concatenate([u_sum.transpose(0, 2, 3, 1), t_rho.reshape(n_el, nen, m, m)],
                            axis=1).reshape(n_el, 2 * nen * m, m)
        samples = real_basis(n).samples
        grad_u = np.einsum("eak,eaim->ikme", grads, lin.vel[elems])      # d u_i / d x_k
        z_t = samples @ lin.z.transpose(2, 3, 1, 0).reshape(dim, m, nen * n_el)
        elements = _NewtonElements(mesh.n_nodes, n, ed.basis, elems, ctx.nodes, grads,
                                   n_int[:, None, :, None], s_w, qt, samples @ (rho * grad_u),
                                   z_t.reshape(dim, -1, nen, n_el))

    _add_ns_backflow(case, mesh, lin.vel, lin.backflow, ctx, None, k_c)
    if exact_gd:
        g_c[..., diag, diag] += g_scal[..., None]
        d_c[..., diag, diag] += d_scal[..., None]
    return BlockTangent(
        ctx.rows, ctx.cols, mesh.n_nodes, dim, n,
        k_real=block_from_orthonormal(     # column-major blocks, see BlockTangent
            k_c, out=np.empty((n_edges, m, m)).swapaxes(1, 2)),
        l_real=block_from_orthonormal(l_c),
        g_diag=g_scal, d_diag=d_scal,
        g_full=block_from_orthonormal(g_c) if exact_gd else None,
        d_full=block_from_orthonormal(d_c) if exact_gd else None,
        elements=elements,
    )


class _NewtonElements(NamedTuple):
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
    The element results go onto the nodes through the mesh's node plan.
    Every matrix is stored as the right factor of a row-vector product, in
    the layout matmul reads contiguously; the factors of the products *
    are stored time-sampled, with the elements last.
    """

    n_nodes: int
    n_modes: int
    shp: np.ndarray        # (n_qp, nen)
    elements: np.ndarray   # (E, nen)
    node_seg: object       # the mesh's node scatter plan
    grads: np.ndarray      # (E, nen, dim) dN_A / dx_j
    n_int: np.ndarray      # (E, 1, nen, 1) sum_q w N_A
    s_w: np.ndarray        # (E, n_qp M, nen M): S_A(q) = w (N_A I + P_A(q))^T at [(q, r), (A, c)]
    qt: np.ndarray         # (E, 2 nen M, M): Q_B[c, s] and T_B[c, s] / rho at [(0|1, B, s), c]
    du_t: np.ndarray       # (dim, dim, P, E): rho d u_i / d x_k at [i, k]
    z_t: np.ndarray        # (dim, P, nen, E): Z_B,i at [i, t, B]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def reals_per_element(self) -> int:
        """Reals stored per element beyond the mesh's element data."""
        if not self.n_elements:
            return 0
        return sum(a.size for a in (self.s_w, self.qt, self.du_t, self.z_t)) // self.n_elements

    def add_to(self, x: np.ndarray, y: np.ndarray) -> None:
        """y += this operator times x, both (n_nodes, dim+1, 2N-1) in the solve layout."""
        n_el, nen, d = self.grads.shape
        m, shp = 2 * self.n_modes - 1, self.shp
        n_qp = shp.shape[0]
        samples = real_basis(self.n_modes).samples
        back = samples.T / samples.shape[0]                # time samples to modes
        xo = np.empty((d + 1, self.n_nodes, m))            # orthonormal coordinates
        xo[..., 0] = x[..., 0].T
        xo[..., 1:] = x[..., 1:].transpose(1, 0, 2) * _SQRT2
        xo_t = (xo[:d].reshape(-1, m) @ samples.T).reshape(d, self.n_nodes, -1)
        xo_t = np.ascontiguousarray(xo_t.transpose(0, 2, 1))          # (dim, P, n_nodes)
        x_t = np.take(xo_t, self.elements.T, axis=2)                 # (dim, P, nen, E)
        y_t = np.einsum("ikte,ktbe->itbe", self.du_t, x_t)
        h_t = np.einsum("itbe,jtbe->ijte", self.z_t, x_t)
        react = (back @ y_t.reshape(d, -1, nen * n_el)).reshape(d, m, nen, n_el)
        react = np.ascontiguousarray(react.transpose(3, 0, 2, 1))  # y_B,i at [e, i, B, r]
        h = (back @ h_t.reshape(d * d, -1, n_el)).reshape(d, d, m, n_el)
        x_el = xo[:, self.elements]                                  # (dim+1, E, nen, M)
        x_r = x_el[:d].swapaxes(0, 1).reshape(n_el, d, nen * m)
        gp = np.matmul(self.grads.swapaxes(1, 2), x_el[d])          # (E, dim, M)
        sig = np.matmul(shp, react)
        sig += gp[:, :, None]                                        # y_i(q) + g_i at [e, i, q, c]
        mom = np.matmul(sig.reshape(n_el, d, n_qp * m), self.s_w).reshape(n_el, d, nen, m)
        mom -= self.n_int * gp[:, :, None]
        mom += np.matmul(self.grads[:, None], h.transpose(3, 0, 1, 2))     # [e, i, A, r]
        cont = np.matmul(np.concatenate([x_r, react.reshape(n_el, d, -1)], axis=2), self.qt)
        res = np.empty((n_el, nen, d + 1, m))
        res[:, :, :d] = mom.swapaxes(1, 2)
        res[:, :, d] = np.matmul(self.grads, cont)
        out = np.zeros((self.n_nodes, d + 1, m))
        self.node_seg.add_to(out, res.reshape(n_el * nen, d + 1, m))
        y[..., 0] += out[..., 0]
        y[..., 1:] += out[..., 1:] / _SQRT2


def _backflow_operators(case, mesh, vel_c) -> dict:
    """|A_n|_- of the velocity vel_c at each facet quadrature point, (F, Q, M, M) per group.

    Empty when the backflow term is off (backflow_beta 0 or no Neumann group).
    """
    if not (case.backflow_beta > 0.0 and case.neumann):
        return {}
    ops = {}
    for name in case.neumann:
        fq = facet_quadrature(mesh, name)
        un = np.einsum("fqim,fi->fqm", fq.interpolate(vel_c), fq.normals)
        ops[name] = negative_part_batch(convolution_dense(un, case.n_modes))
    return ops


def _add_ns_backflow(case, mesh, vel, backflow, ctx, resid, k_c):
    """Backflow term of the _backflow_operators, added to the real-basis resid/k_c."""
    scale = -0.5 * case.rho * case.backflow_beta
    for name, an_neg in backflow.items():
        fq = facet_quadrature(mesh, name)
        if resid is not None:
            mom = resid[:, :mesh.dim]
            r_el = np.einsum("fq,qa,fqrc,fqic->fair", scale * fq.weights, fq.shape, an_neg,
                             fq.interpolate(vel))
            np.add.at(mom, fq.nodes.ravel(), r_el.reshape((-1,) + mom.shape[1:]))
        if k_c is not None:
            add_backflow(k_c, ctx, fq, scale, an_neg)


def assemble_ns_residual(case: NSCase, mesh: Mesh, state: NSState,
                         coeff_state: NSState | None = None) -> np.ndarray:
    """Momentum and continuity residuals, shape (n_nodes, dim+1, 2N-1).

    coeff_state optionally freezes A_i and tau at a different state (used
    to verify the frozen-coefficient tangent against finite differences).
    """
    return from_real(_residual_pass(case, mesh, state, coeff_state)[0])


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
    tangent = _tangent_pass(case, mesh, _residual_pass(case, mesh, state)[1],
                            exact_gd=exact_gd)
    _add_pseudo_mass(tangent, mesh, case.rho, pseudo_dt)
    return tangent


def assemble_ns_newton(case: NSCase, mesh: Mesh, state: NSState,
                       pseudo_dt: float = np.inf) -> BlockTangent:
    """The operator newton_step solves with: the derivative with tau held fixed.

    The frozen-coefficient edge blocks of assemble_ns_tangent plus the
    element-level Newton terms (_NewtonElements); the backflow operator
    stays frozen.  A finite pseudo_dt adds the pseudo-time mass.
    """
    tangent = _tangent_pass(case, mesh, _residual_pass(case, mesh, state)[1], newton=True)
    _add_pseudo_mass(tangent, mesh, case.rho, pseudo_dt)
    return tangent


def _add_pseudo_mass(tangent: BlockTangent, mesh: Mesh, rho: float,
                     pseudo_dt: float) -> None:
    """Add the pseudo-time mass (N_A, 1.5 rho / pseudo_dt N_B) to K in place.

    The mass is the mesh's cached edge mass times the identity on the mode
    slots; pseudo_dt = inf adds nothing.
    """
    if np.isfinite(pseudo_dt):
        slots = np.arange(tangent.n_slots)
        edge_mass = assembly_context(mesh, build_graph).edge_mass
        tangent.k_real[:, slots, slots] += (1.5 * rho / pseudo_dt) * edge_mass[:, None]


def residual_norm(residual: np.ndarray, dir_nodes: np.ndarray, dim: int) -> float:
    """Norm of the free residual, given in the solve layout (Dirichlet momentum rows off)."""
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
    delta = from_real(res.x.reshape(mesh.n_nodes, mesh.dim + 1, -1))
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
