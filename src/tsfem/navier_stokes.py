"""Time-spectral GLS solver for incompressible Navier-Stokes.

Unknowns per node are the velocity mode vectors u_i in C^(2N-1) per
direction and the pressure mode vector p.  The discrete residual contains
the Galerkin terms, Neumann boundary data, the least-squares penalty with
the momentum weight (-Omega N_A + A_j dN_A/dx_j) tau and the continuity
weight (1/rho) dN_A/dx_i tau, and the backflow boundary correction.

Each update solves with the Newton operator: the derivative of the
residual with only tau held fixed (and the backflow operator, whose
variation is left out).  GMRES applies it per element (_NewtonElements),
on the element tables that the residual pass keeps: the derivative of the
strong momentum residual at the points, weighted by the test function S
in the momentum rows and by w tau / rho in the continuity rows, as the
residual weights the strong residual itself, plus the viscous, Galerkin
pressure/divergence, pseudo-mass and backflow terms and the variation of
S through the convection matrices.  Nothing of it is scattered onto the
mesh edges.  Its preconditioner (linsolve's block_jacobi_preconditioner:
a level LU per harmonic, without the coupling between harmonics) factors
edge blocks instead: the frozen-coefficient tangent of
assemble_ns_tangent, the velocity block K, the pressure block L and the
Galerkin gradient/divergence scalars, with the step's pseudo mass.  These
are assembled only at an update that builds the preconditioner.
assemble_ns_tangent stays the frozen-coefficient tangent, with the exact
mode-coupled least-squares gradient/divergence blocks on request
(exact_gd).  Pseudo-time stepping adds the mass term
(1.5 rho / pseudo_dt) sum_e detj sum_q w_q N_A N_B to the velocity
diagonal block and performs one Newton update per step.  The mass is
geometry only: the operator takes the element mass matrices, the edge
blocks the mass scattered once per mesh (AssemblyContext.edge_mass), and
both add it after the assembly, so each step's pseudo_dt is chosen once
the same assembly has given the step's residual.  The residual is
assembled first and the operator only when a linear solve follows, from
the residual pass's tau and point tables.  solve_ns grows the step by
switched-evolution relaxation (SER) as the residual falls, from the
configured initial step towards plain Newton; the converged solution is
independent of the pseudo steps taken.  A solve lags its preconditioner
(LaggedPreconditioner): it is factored at the first update, with that
step's pseudo mass, and again only after a GMRES solve that took more
than REFACTOR_MATVECS matvecs, since the harmonic factor of one state
keeps the solves of the next states short.

Assembly and the linear solve run in the real orthonormal mode basis of
spectral: the states are converted once per call to their coordinates
(modes_to_real), and the kernels come from spectral_real.  Its gls_tables
give, once per state, the linearized strong residual t and the stabilized
test function S = w (N_A I + tau t_A) at every point: the residual pass
weights the strong momentum residual rho t u + grad p with S, the Newton
operator applies rho S^T t to the increment through the same two tables,
and the edge blocks form K from them (gls_operator, the element operator
the scalar solver assembles too).  So every per-point product is a real
matmul (real symmetric convolution matrices and tau, real skew Omega).
The assembled blocks and residual are linsolve's layout as they stand, so
the residual norm is the Parseval norm of the complex modes, and the
update is mapped back by modes_from_real.  The linear solve pins the
Dirichlet velocity slots only.  States and assemble_ns_residual stay
complex.

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
    backflow_facets,
    boundary_values,
    check_groups,
    resolve_dirichlet,
)
from .linsolve import (
    BlockTangent,
    LinearSolveError,
    SolverConfig,
    assembly_context,
    block_jacobi_preconditioner,
    build_graph,
    gmres,
    layout_pins,
    pinned_operator,
)
from .mesh import Mesh, boundary_faces, c_i_for, facet_quadrature
from .spectral import (
    SpectralCoeffs,
    modes_from_real,
    modes_to_real,
    n_coeffs,
    real_basis,
    require_conjugate_symmetry,
    symmetrize_modes,
)
from .spectral_real import (
    convolution_dense,
    gls_operator,
    gls_tables,
    negative_part_batch,
    tau_from_modes,
)

__all__ = [
    "NSCase",
    "NSState",
    "NSResult",
    "NewtonUpdate",
    "UpdateRecord",
    "LaggedPreconditioner",
    "REFACTOR_MATVECS",
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


class UpdateRecord(NamedTuple):
    """What one newton_step recorded of its update."""

    residual: float          # residual norm before the update: residual_norm, the Parseval
                             # norm of the complex residual modes off the Dirichlet rows
    matvecs: int
    pseudo_dt: float         # nan when no solve was run
    linear_converged: bool   # GMRES reached eps_ls
    linear_residual: float   # GMRES's final ||A x - b|| / ||b||; nan when no solve was run
    assembly_s: float        # seconds in the residual and operator assembly
    tau_s: float             # seconds of assembly_s in tau_from_modes
    linear_s: float          # seconds in preconditioner set-up and GMRES; 0 when no solve was run
    precond_s: float         # seconds of linear_s building the preconditioner; 0 when reused


# A solve keeps its preconditioner while each GMRES solve takes at most this many matvecs,
# and builds a new one at the update after one that takes more.  The harmonic factor of the
# first update keeps every solve at 3-6 matvecs on bent_n7 (seeds 0, 5, 21 and 33) and at
# criterion-07 scale (N=7), and a factorization costs about 3 matvecs there (3.9 against
# 1.4 ms) and 8 at criterion-07 scale (0.18 s): a solve of more than 12 has lost more to
# the lag than a new factor would cost.
REFACTOR_MATVECS = 12


@dataclass
class LaggedPreconditioner:
    """The preconditioner of a solve's Newton updates, kept across them.

    apply is the block_jacobi_preconditioner that newton_step built at an
    earlier update, or None when the next update must build one: at the
    first, and after a GMRES solve that took more than REFACTOR_MATVECS
    matvecs.
    """

    apply: Optional[Callable] = None


class NewtonUpdate(NamedTuple):
    """The state after one newton_step and the record of that step."""

    state: NSState
    record: UpdateRecord


@dataclass
class NSResult:
    """Outcome of solve_ns.

    residuals holds the residual norm before every step, including the
    final converged one; updates holds the UpdateRecord of each step that
    updated the state, and steps is their number.
    """

    state: NSState
    converged: bool
    residuals: List[float]
    updates: List[UpdateRecord]

    @property
    def steps(self) -> int:
        return len(self.updates)


def resolve_ns_dirichlet(case: NSCase, mesh: Mesh):
    """Dirichlet node ids and (K, dim, 2N-1) values; walls override."""
    nodes, vals = resolve_dirichlet(mesh, case.dirichlet, case.walls,
                                    (mesh.dim, n_coeffs(case.n_modes)))
    return nodes, symmetrize_modes(vals)


@dataclass
class _Linearization:
    """What the residual pass keeps for the operator and edge blocks of the same state."""

    grad_u: np.ndarray   # (E, dim, dim, M) d u_i / d x_j at [e, j, i]
    t: np.ndarray        # (E, n_qp M, nen M) the gls_tables t
    s_w: np.ndarray      # (E, n_qp M, nen M) the gls_tables test function S
    taus: np.ndarray     # (n_qp, E, M, M) tau at each quadrature point
    z: np.ndarray        # (E, nen, dim, M) Z_B,i = sum_q w_q N_B tau strong_i
    backflow: dict       # per Neumann group, |A_n|_- at each facet quadrature point
    tau_s: float         # seconds of the pass spent in tau_from_modes


def _residual_pass(case: NSCase, mesh: Mesh, state: NSState,
                   coeff_state: NSState | None = None):
    """Real-basis residual, (n_nodes, dim+1, 2N-1), and its _Linearization.

    tau is taken one quadrature point at a time, and the point tables t
    and S of spectral_real.gls_tables from it, with A_j and tau at the
    velocity of coeff_state when given.  With strong_i = rho t u_i + dp/dx_i
    at each point, the momentum row of node A is sum_q S_A(q)^T strong_i,
    the Galerkin and least-squares weights in one product, plus the
    viscous and pressure terms; the continuity row adds
    dN_A/dx_i sum_q w tau strong_i / rho to the Galerkin divergence.  The
    states must be conjugate-symmetric (ValueError naming the field if
    not).
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
    vel = _checked_real(state.velocity, "state velocity")        # (n_nodes, dim, M)
    pres = _checked_real(state.pressure, "state pressure")       # (n_nodes, M)
    vel_c = vel if coeff_state is None else _checked_real(coeff_state.velocity,
                                                          "coeff_state velocity")

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
    tau_s = 0.0
    for q in range(n_qp):
        uc_q[q] = (shp[q] @ uc_el).reshape(n_el, dim, m)
        start = time.perf_counter()
        tau_q[q] = tau_from_modes(uc_q[q], ed.metric, case.nu, c_i, n)
        tau_s += time.perf_counter() - start
    t, s_w = gls_tables(uc_q, tau_q, ed, case.omega)
    del uc_q
    u_rows = u_el.reshape(n_el, nen, dim, m).transpose(0, 2, 1, 3).reshape(n_el, dim, -1)
    strong = np.matmul(u_rows, t.swapaxes(1, 2))          # strong_i(q)[r] at [e, i, (q, r)]
    strong *= rho
    strong.reshape(n_el, dim, n_qp, m)[...] += grad_p[:, :, None]
    r_m = np.matmul(strong, s_w).reshape(n_el, dim, nen, m).swapaxes(1, 2)   # (E, nen, dim, M)
    p_int = np.einsum("eb,ebm->em", n_int, p_el)
    r_m -= n_int[:, :, None, None] * grad_p[:, None] + grads[..., None] * p_int[:, None, None]
    r_m += (mu * ed.vol[:, None, None] * np.matmul(grads, grad_u.reshape(n_el, dim, dim * m))
            ).reshape(n_el, nen, dim, m)
    # w tau strong_i(q) at [e, q, i]
    wv = np.matmul(strong.reshape(n_el, dim, n_qp, m).swapaxes(1, 2),
                   ed.wdetj[:, :, None, None] * tau_q.swapaxes(0, 1))
    div_u = np.einsum("eiim->em", grad_u)
    r_c = n_int[:, :, None] * div_u[:, None] + np.matmul(grads, wv.sum(axis=1)) / rho
    resid = np.zeros((mesh.n_nodes, dim + 1, m))
    ctx.nodes.add_to(resid, np.concatenate([r_m, r_c[:, :, None]], axis=2)
                     .reshape(-1, dim + 1, m))
    z = np.matmul(shp.T, wv.reshape(n_el, n_qp, dim * m)).reshape(n_el, nen, dim, m)

    for name, data in case.neumann.items():
        what = f"Neumann data of group {name!r}"
        h_modes = _checked_real(boundary_values(data, (m,), what), what)
        add_traction(resid[:, :dim], facet_quadrature(mesh, name), h_modes)
    backflow = _add_backflow_residual(case, mesh, vel, vel_c, resid)
    lin = _Linearization(grad_u, t, s_w, tau_q, z, backflow, tau_s)
    return resid, lin


def _checked_real(modes: np.ndarray, what: str) -> np.ndarray:
    """modes_to_real of complex modes checked for conjugate symmetry (ValueError names what)."""
    return modes_to_real(require_conjugate_symmetry(modes, what))


def _edge_tangent(case: NSCase, mesh: Mesh, lin: _Linearization, *,
                  exact_gd: bool = False) -> BlockTangent:
    """Edge blocks of the frozen-coefficient tangent at the state of lin, without pseudo mass.

    K is spectral_real.gls_operator of the residual pass's point tables t
    and S, plus the backflow blocks of each Neumann group; L =
    grad N_A . grad N_B sum_q w tau / rho, and the Galerkin gradient and
    divergence are the scalars -dN_A/dx_i n_B and n_A dN_B/dx_j (n_A =
    sum_q w N_A).  exact_gd adds the least-squares coupling, P_A in the
    momentum rows and Q_B = sum_q w tau t_B(q) = P_B^T in the continuity
    rows, edge-wise as g_full/d_full.  newton_step assembles these blocks
    only to factor its preconditioner; assemble_ns_tangent returns them.
    No tau is computed here.
    """
    m = n_coeffs(case.n_modes)
    dim = mesh.dim
    rho = case.rho
    ed = mesh.element_data()
    ctx = assembly_context(mesh, build_graph)
    diag = np.arange(m)

    n_edges = ctx.rows.shape[0]
    k_c = np.zeros((n_edges, m, m)).swapaxes(1, 2)   # column-major blocks, see BlockTangent
    l_c = np.zeros((n_edges, m, m))
    g_scal = np.zeros((n_edges, dim))
    d_scal = np.zeros((n_edges, dim))
    g_c = np.zeros((n_edges, dim, m, m)) if exact_gd else None
    d_c = np.zeros((n_edges, dim, m, m)) if exact_gd else None

    elems, grads, tau_q, n_int, s_w = mesh.elements, ed.grads, lin.taus, ed.n_int, lin.s_w
    n_el, nen = elems.shape
    k_el = gls_operator(lin.t, s_w, ed, rho, case.mu)
    ctx.edges.add_to(k_c, k_el.reshape(-1, m, m))
    del k_el
    tau_sum = np.einsum("eq,qerc->erc", ed.wdetj, tau_q)
    ctx.edges.add_to(l_c, ((ed.gab / rho)[..., None, None] * tau_sum[:, None, None])
                     .reshape(-1, m, m))
    ctx.edges.add_to(g_scal, -np.einsum("eai,eb->eabi", grads, n_int).reshape(-1, dim))
    ctx.edges.add_to(d_scal, np.einsum("ea,ebj->eabj", n_int, grads).reshape(-1, dim))
    if exact_gd:
        # Q_B[r, c] = P_B[c, r] at [e, r, B, c]
        u_sum = s_w.reshape(n_el, -1, m, nen, m).sum(axis=1)
        u_sum[:, diag, :, diag] -= n_int[None]
        ctx.edges.add_to(g_c, np.einsum("ecar,ebi->eabirc", u_sum, grads)
                         .reshape(-1, dim, m, m))
        ctx.edges.add_to(d_c, np.einsum("eaj,ebrc->eabjrc", grads, u_sum.swapaxes(1, 2))
                         .reshape(-1, dim, m, m))
    for name, an_neg in lin.backflow.items():
        add_backflow(k_c, ctx, facet_quadrature(mesh, name), -0.5 * rho * case.backflow_beta,
                     an_neg)
    if exact_gd:
        g_c[..., diag, diag] += g_scal[..., None]
        d_c[..., diag, diag] += d_scal[..., None]
    return BlockTangent(
        ctx.rows, ctx.cols, mesh.n_nodes, dim, case.n_modes,
        k_real=k_c, l_real=l_c, g_diag=g_scal, d_diag=d_scal, g_full=g_c, d_full=d_c,
    )


def _tangent_pass(case: NSCase, mesh: Mesh, lin: _Linearization,
                  pseudo_dt: float) -> BlockTangent:
    """The Newton operator at the state of lin, applied per element; tau from lin.

    A BlockTangent without edge blocks, whose elements (_NewtonElements)
    apply the whole derivative of the residual with tau held fixed, plus
    the pseudo-time mass of a finite pseudo_dt: the frozen-coefficient
    tangent of _edge_tangent and the Newton terms that it leaves out.  It
    keeps the residual pass's point tables t and S and adds only element
    matrices of geometry and tau; the residual pass needs coeff_state None.
    No tau is computed and nothing is scattered onto the edges here.
    """
    n, m = case.n_modes, n_coeffs(case.n_modes)
    dim = mesh.dim
    rho = case.rho
    ed = mesh.element_data()
    ctx = assembly_context(mesh, build_graph)
    elems, grads, n_int = mesh.elements, ed.grads, ed.n_int
    n_el, nen = elems.shape

    w_tau = (ed.wdetj.T[:, :, None, None] / rho * lin.taus).swapaxes(0, 1)
    vg = case.mu * ed.vol[:, None, None] * ed.gab
    if np.isfinite(pseudo_dt):
        vg = vg + (1.5 * rho / pseudo_dt) * ed.mass
    g_n = np.einsum("eai,eb->eiab", grads, n_int)
    c_p = -(g_n + g_n.swapaxes(2, 3))                 # C_i,AB at [e, i, A, B]
    samples = real_basis(n).samples
    du_t = samples @ (rho * lin.grad_u.transpose(2, 1, 3, 0))    # rho d u_i / d x_k at [i, k]
    z_t = samples @ lin.z.transpose(2, 3, 1, 0).reshape(dim, m, nen * n_el)
    backflow = []
    for name, an_neg in lin.backflow.items():
        fq = facet_quadrature(mesh, name)
        blocks = backflow_facets(fq, -0.5 * rho * case.backflow_beta, an_neg)
        backflow.append((fq.nodes, np.ascontiguousarray(blocks.transpose(0, 2, 4, 1, 3))
                         .reshape(len(fq.nodes), fq.nodes.shape[1] * m, -1)))
    elements = _NewtonElements(mesh.n_nodes, n, rho, ed.basis, elems, ctx.nodes, grads,
                               np.concatenate([grads, n_int[..., None]], axis=2), lin.t,
                               lin.s_w, w_tau.reshape(n_el, -1, m), vg, c_p, du_t,
                               z_t.reshape(dim, -1, nen, n_el), backflow)
    return BlockTangent(ctx.rows, ctx.cols, mesh.n_nodes, dim, n, elements=elements)


class _NewtonElements(NamedTuple):
    """The NS Newton operator, applied per element.

    With tau held fixed, the derivative of the residual is, per element
    and in the real orthonormal basis (x the increment, x_B,i its velocity
    and x_B,p its pressure, g_i = sum_B dN_B/dx_i x_B,p its pressure
    gradient, y_B,i = rho sum_k (d u_i/d x_k) * x_B,k its convective
    reaction, * the band-restricted product, and y_i(q) = sum_B N_B(q)
    y_B,i):
      momentum (A, i): sum_q S_A(q)^T s_i(q) + sum_B (V_AB x_B,i + C_i,AB x_B,p)
                       + sum_j dN_A/dx_j sum_B Z_B,i * x_B,j,
      continuity A:    sum_j dN_A/dx_j sum_q w tau s_j(q) / rho
                       + n_A sum_B sum_j dN_B/dx_j x_B,j,
    with s_i(q) = rho sum_B t_B(q) x_B,i + y_i(q) + g_i the derivative of
    the strong momentum residual, t and S the gls_tables of the state, n_A
    = sum_q w N_A, V_AB = mu vol grad N_A . grad N_B + (1.5 rho /
    pseudo_dt) M_AB (M the element mass), C_i,AB = -(dN_A/dx_i n_B + n_A
    dN_B/dx_i) and Z_B,i = sum_q w N_B tau strong_i.  This is the
    residual pass's form: S^T s_i holds the Galerkin n_A g_i, which C
    replaces by the Galerkin gradient -dN_A/dx_i sum_B n_B x_B,p, and Z is
    the variation of S through the convection matrices.  The facets of
    each Neumann group add their backflow blocks (boundary.backflow_facets)
    to the momentum rows of their nodes; the backflow variation is left
    out.  The edge blocks of _edge_tangent are these terms less y, Z, the
    least-squares gradient coupling (S^T g beyond its Galerkin n_A g_i)
    and the least-squares divergence coupling sum_q w tau t x / rho.

    The terms with t, S and tau are batched row-vector matmuls with stored
    element matrices.  The products * run pointwise on the P = 3N-2 time
    samples of real_basis(N), on arrays with the elements last, which
    stores a vector where C(d u_i/d x_k) and C(Z_B,i) would take a matrix.
    The element results go onto the nodes through the mesh's node plan.
    Every matrix is stored as the right factor of a row-vector product, in
    the layout matmul reads contiguously, except t, which is the residual
    pass's table and is read transposed; the factors of the products * are
    stored time-sampled, with the elements last.
    """

    n_nodes: int
    n_modes: int
    rho: float
    shp: np.ndarray        # (n_qp, nen)
    elements: np.ndarray   # (E, nen)
    node_seg: object       # the mesh's node scatter plan
    grads: np.ndarray      # (E, nen, dim) dN_A / dx_j
    grads_n: np.ndarray    # (E, nen, dim+1): dN_A / dx_j, then n_A
    t: np.ndarray          # (E, n_qp M, nen M): t_B(q)[s, c] at [(q, s), (B, c)]
    s_w: np.ndarray        # (E, n_qp M, nen M): S_A(q) = w (N_A I + P_A(q))^T at [(q, r), (A, c)]
    w_tau: np.ndarray      # (E, n_qp M, M): w tau(q)[c, s] / rho at [(q, s), c]
    vg: np.ndarray         # (E, nen, nen) V_AB
    c_p: np.ndarray        # (E, dim, nen, nen) C_i,AB
    du_t: np.ndarray       # (dim, dim, P, E): rho d u_i / d x_k at [i, k]
    z_t: np.ndarray        # (dim, P, nen, E): Z_B,i at [i, t, B]
    backflow: list         # per Neumann group: facet nodes (F, k), and the backflow
                           # blocks at [f, (b, c), (a, r)], (F, k M, k M)

    def add_to(self, x: np.ndarray, y: np.ndarray) -> None:
        """y += this operator times x, both (n_nodes, dim+1, 2N-1) real coordinates."""
        n_el, nen, d = self.grads.shape
        m, shp = 2 * self.n_modes - 1, self.shp
        n_qp = shp.shape[0]
        samples = real_basis(self.n_modes).samples
        back = samples.T / samples.shape[0]                # time samples to modes
        xo = np.ascontiguousarray(x.transpose(1, 0, 2))   # (dim+1, n_nodes, M)
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
        sig = np.matmul(self.rho * x_r, self.t.swapaxes(1, 2)).reshape(n_el, d, n_qp, m)
        sig += np.matmul(shp, react)
        sig += np.matmul(self.grads.swapaxes(1, 2), x_el[d])[:, :, None]
        sig = sig.reshape(n_el, d, n_qp * m)                         # s_i(q) at [e, i, (q, c)]
        mom = np.matmul(sig, self.s_w).reshape(n_el, d, nen, m)
        mom += np.matmul(self.vg[:, None], x_r.reshape(n_el, d, nen, m))
        mom += np.matmul(self.c_p, x_el[d][:, None])
        mom += np.matmul(self.grads[:, None], h.transpose(3, 0, 1, 2))     # [e, i, A, r]
        cont = np.empty((n_el, d + 1, m))       # [sum_q w tau s_j / rho | div x] per element
        np.matmul(sig, self.w_tau, out=cont[:, :d])
        np.matmul(self.grads.swapaxes(1, 2).reshape(n_el, 1, -1), x_r.reshape(n_el, -1, m),
                  out=cont[:, d:])
        res = np.empty((n_el, nen, d + 1, m))
        res[:, :, :d] = mom.swapaxes(1, 2)
        np.matmul(self.grads_n, cont, out=res[:, :, d])
        self.node_seg.add_to(y, res.reshape(n_el * nen, d + 1, m))
        for nodes, blocks in self.backflow:
            n_f, k = nodes.shape
            x_f = x[nodes, :d].transpose(0, 2, 1, 3).reshape(n_f, d, k * m)
            y_f = np.matmul(x_f, blocks).reshape(n_f, d, k, m).transpose(0, 2, 1, 3)
            np.add.at(y[:, :d], nodes.ravel(), y_f.reshape(-1, d, m))


def _add_backflow_residual(case, mesh, vel, vel_c, resid) -> dict:
    """Add the backflow term to the real-basis resid in place; return its operators.

    The term is -(rho beta / 2) sum_q w N_A |A_n|_- u, with |A_n|_- of the
    velocity vel_c and u of vel at each facet quadrature point; the
    operators |A_n|_- are (F, Q, M, M) per Neumann group, and none when the
    term is off (backflow_beta 0 or no Neumann group).
    """
    if not (case.backflow_beta > 0.0 and case.neumann):
        return {}
    scale = -0.5 * case.rho * case.backflow_beta
    mom = resid[:, :mesh.dim]
    ops = {}
    for name in case.neumann:
        fq = facet_quadrature(mesh, name)
        un = np.einsum("fqim,fi->fqm", fq.interpolate(vel_c), fq.normals)
        ops[name] = an_neg = negative_part_batch(convolution_dense(un, case.n_modes))
        r_el = np.einsum("fq,qa,fqrc,fqic->fair", scale * fq.weights, fq.shape, an_neg,
                         fq.interpolate(vel))
        np.add.at(mom, fq.nodes.ravel(), r_el.reshape((-1,) + mom.shape[1:]))
    return ops


def assemble_ns_residual(case: NSCase, mesh: Mesh, state: NSState,
                         coeff_state: NSState | None = None) -> np.ndarray:
    """Momentum and continuity residuals, shape (n_nodes, dim+1, 2N-1).

    coeff_state optionally freezes A_i and tau at a different state (used
    to verify the frozen-coefficient tangent against finite differences).
    """
    return modes_from_real(_residual_pass(case, mesh, state, coeff_state)[0])


def assemble_ns_tangent(case: NSCase, mesh: Mesh, state: NSState,
                        pseudo_dt: float = np.inf,
                        exact_gd: bool = False) -> BlockTangent:
    """Frozen-coefficient tangent of the residual (A_i and tau held fixed), as edge blocks.

    With exact_gd=False these are the edge blocks that newton_step factors
    its preconditioner from: the least-squares contributions to the
    gradient/divergence blocks are dropped, leaving them diagonal in the
    mode index; exact_gd=True keeps them, making the tangent the exact
    derivative of the frozen-coefficient residual.  A finite pseudo_dt adds
    the mass term (N_A, 1.5 rho / pseudo_dt N_B) to the K block.
    """
    tangent = _edge_tangent(case, mesh, _residual_pass(case, mesh, state)[1],
                            exact_gd=exact_gd)
    _add_pseudo_mass(tangent, mesh, case.rho, pseudo_dt)
    return tangent


def assemble_ns_newton(case: NSCase, mesh: Mesh, state: NSState,
                       pseudo_dt: float = np.inf) -> BlockTangent:
    """The operator newton_step solves with: the derivative with tau held fixed.

    The frozen-coefficient tangent of assemble_ns_tangent plus the Newton
    terms it leaves out, and the pseudo-time mass of a finite pseudo_dt,
    all applied per element (_NewtonElements): the BlockTangent holds no
    edge blocks.  The backflow operator stays frozen.
    """
    return _tangent_pass(case, mesh, _residual_pass(case, mesh, state)[1], pseudo_dt)


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
    """Norm of the free real-basis residual (Dirichlet momentum rows off).

    The real basis is orthonormal, so this is the Euclidean norm of the
    complex residual modes with those rows off.
    """
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


def newton_step(case: NSCase, mesh: Mesh, state: NSState, config: SolverConfig,
                pseudo_dt: float | Callable[[float], float] | None = None,
                skip_below: float = 0.0,
                dir_nodes: np.ndarray | None = None,
                lagged: LaggedPreconditioner | None = None) -> NewtonUpdate:
    """One linearized update y <- y - H^{-1} r at the current state.

    H is the Newton operator with tau held fixed plus the pseudo-time mass
    of the step (assemble_ns_newton), applied per element.  The residual
    is assembled first; the operator is built only when a linear solve
    follows, from the residual pass's per-point tau and point tables.
    pseudo_dt is the step, or a callable that maps this step's residual
    norm to it (solve_ns passes its SER rule); None takes config.pseudo_dt,
    or default_pseudo_dt when that is None.  The mass enters once the
    residual has chosen the step.  The linear solve runs to eps_ls relative
    tolerance with GMRES, right-preconditioned by block_jacobi_preconditioner
    of the frozen-coefficient edge blocks with this step's pseudo mass (as
    assemble_ns_tangent): the level LU of their harmonic blocks, over the
    mesh's level plan.  Dirichlet increments are pinned to zero.  lagged
    carries the preconditioner across the updates of a solve: it is built
    when lagged has none, and dropped after a GMRES solve that takes more
    than REFACTOR_MATVECS matvecs.  The edge blocks are assembled only at
    an update that builds the preconditioner, and dropped once it is
    factored.  A lone call (lagged None) builds its own.
    The update records the relative linear residual GMRES reached and the
    seconds spent in assembly and, of those, in tau, in the linear solve
    and, of those, in building the preconditioner.  An update that GMRES
    left above eps_ls without stagnating is applied and flagged
    (linear_converged False); stagnation raises LinearSolveError and
    leaves the state untouched.  If the residual norm is already at or
    below skip_below, no solve (and no operator assembly) is run.
    dir_nodes, the Dirichlet node ids of resolve_ns_dirichlet, is resolved
    here when not given.
    """
    if pseudo_dt is None:
        pseudo_dt = config.pseudo_dt if config.pseudo_dt is not None \
            else default_pseudo_dt(case, mesh)
    if dir_nodes is None:
        dir_nodes, _ = resolve_ns_dirichlet(case, mesh)
    if lagged is None:
        lagged = LaggedPreconditioner()
    start = time.perf_counter()
    resid, lin = _residual_pass(case, mesh, state)
    rnorm = residual_norm(resid, dir_nodes, mesh.dim)
    if rnorm <= skip_below:
        return NewtonUpdate(state.copy(), UpdateRecord(rnorm, 0, np.nan, True, np.nan,
                                                       time.perf_counter() - start, lin.tau_s,
                                                       0.0, 0.0))
    if callable(pseudo_dt):
        pseudo_dt = pseudo_dt(rnorm)
    pins = layout_pins(mesh.n_nodes, case.n_modes, dir_nodes, mesh.dim + 1, mesh.dim)
    precond_s = 0.0
    if lagged.apply is None:
        # factored before the operator is built, so the two never hold memory at once
        edges = _edge_tangent(case, mesh, lin)
        _add_pseudo_mass(edges, mesh, case.rho, pseudo_dt)
        factoring = time.perf_counter()
        lagged.apply = block_jacobi_preconditioner(
            edges, pins, assembly_context(mesh, build_graph).level_plan())
        precond_s = time.perf_counter() - factoring
        del edges
    tangent = _tangent_pass(case, mesh, lin, pseudo_dt)
    tau_s = lin.tau_s
    del lin

    rhs = -resid.ravel()
    rhs[pins] = 0.0
    op = pinned_operator(tangent.matvec, pins)
    assembled = time.perf_counter()
    res = gmres(op, rhs, config.gmres_config(), precond=lagged.apply)
    solved = time.perf_counter()
    if res.matvecs > REFACTOR_MATVECS:
        lagged.apply = None
    if not res.converged and res.residuals[-1] >= res.residuals[0]:
        raise LinearSolveError("linear solver stagnated; step rejected",
                               res.matvecs, res.residuals[-1])
    delta = modes_from_real(res.x.reshape(mesh.n_nodes, mesh.dim + 1, -1))
    new = state.copy()
    new.velocity += delta[:, :mesh.dim, :]
    new.pressure += delta[:, mesh.dim, :]
    new.velocity[dir_nodes] = state.velocity[dir_nodes]
    new.symmetrize()
    linear_residual = res.residuals[-1] / res.residuals[0] if res.residuals[0] > 0 else 0.0
    return NewtonUpdate(new, UpdateRecord(rnorm, res.matvecs, pseudo_dt, res.converged,
                                          linear_residual, assembled - start - precond_s, tau_s,
                                          solved - assembled + precond_s, precond_s))


def solve_ns(case: NSCase, mesh: Mesh, config: SolverConfig | None = None) -> NSResult:
    """Drive the spectral system to ||r|| <= eps_nr ||r0||.

    The state is initialized with the Dirichlet data on the boundary and
    zero elsewhere.  Exactly one Newton update is performed per pseudo-time
    step.  The first step is config.pseudo_dt (default_pseudo_dt when it
    is None); each later step follows ser_pseudo_dt from the previous step
    and the residual norms before it and before this step, so the steps
    grow towards plain Newton as the residual falls.  pseudo_dt=inf is
    plain Newton-Raphson throughout.  The updates share one
    LaggedPreconditioner: the preconditioner is built at the first update,
    with its pseudo mass, and again only after a GMRES solve that takes
    more than REFACTOR_MATVECS matvecs.  If max_steps is exhausted, or a
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
    updates: List[UpdateRecord] = []
    lagged = LaggedPreconditioner()
    for _ in range(config.max_steps):
        skip = config.eps_nr * residuals[0] if residuals else 0.0
        rule = partial(ser_pseudo_dt, initial_dt, updates[-1].pseudo_dt if updates else None,
                       residuals[-1] if residuals else None)
        try:
            state_new, record = newton_step(case, mesh, state, config, rule,
                                            skip_below=skip, dir_nodes=dir_nodes, lagged=lagged)
        except LinearSolveError as err:
            warnings.warn(str(err))
            return NSResult(state, False, residuals, updates)
        residuals.append(record.residual)
        if record.residual <= config.eps_nr * residuals[0]:
            return NSResult(state, True, residuals, updates)
        state = state_new
        updates.append(record)
    return NSResult(state, False, residuals, updates)


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
        out[name] = FlowData(SpectralCoeffs(n, symmetrize_modes(fq.outward_flow(state.velocity))),
                             SpectralCoeffs(n, symmetrize_modes(fq.mean(state.pressure))),
                             float(fq.areas.sum()))
    return out


def parabolic_inflow(mesh: Mesh, group: str, flow: SpectralCoeffs) -> NodalValues:
    """Dirichlet data with a parabolic profile carrying the given flow.

    The profile vanishes on the rim of the facet group and is scaled per
    mode so the integrated flux into the domain equals the flow modes.
    Works for convex planar inlets; a warning is issued if a facet normal
    of the group deviates from their mean by more than 1e-6.
    """
    fq = facet_quadrature(mesh, group)
    n_mean = fq.normals.mean(axis=0)
    n_mean /= np.linalg.norm(n_mean)
    if np.max(np.linalg.norm(fq.normals - n_mean, axis=1)) > 1e-6:
        warnings.warn(f"facet group {group!r} is not planar; "
                      "parabolic profile is approximate")
    if mesh.dim == 1:
        raise ValueError("parabolic profile needs a 2D or 3D inlet")
    nodes = fq.node_ids
    centroid = fq.mean(mesh.coords)

    def in_plane(x):
        rel = x - centroid
        rel = rel - np.outer(rel @ n_mean, n_mean)
        return rel

    rel_nodes = in_plane(mesh.coords[nodes])
    if mesh.dim == 2:
        # line-segment inlet: parabola over the half-length
        rmax = np.max(np.linalg.norm(rel_nodes, axis=1))
        profile = np.maximum(0.0, 1.0 - (np.linalg.norm(rel_nodes, axis=1) / rmax) ** 2)
    else:
        rim_nodes = np.unique(boundary_faces(fq.nodes, "tri3")[0])
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
    raw_flux = float(fq.node_weights @ profile)
    if raw_flux <= 0.0:
        raise ValueError(f"degenerate inflow profile on group {group!r}")

    values = np.einsum("k,i,m->kim", profile / raw_flux, -n_mean, flow.values)
    return NodalValues(nodes, values.astype(complex))
