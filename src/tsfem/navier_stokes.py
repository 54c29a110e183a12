"""Time-spectral GLS solver for incompressible Navier-Stokes.

Unknowns per node are the velocity mode vectors u_i in C^(2N-1) per
direction and the pressure mode vector p.  The discrete residual contains
the Galerkin terms, Neumann boundary data, the least-squares penalty with
the momentum weight (-Omega N_A + A_j dN_A/dx_j) tau and the continuity
weight (1/rho) dN_A/dx_i tau, and the backflow boundary correction.

The tangent freezes the convolution matrices and tau at the current
state.  In production form the least-squares contributions to the
gradient/divergence blocks are dropped, which leaves them diagonal in the
mode index; the exact mode-coupled blocks can be requested for
verification.  Pseudo-time stepping adds the mass term
(1.5 rho / pseudo_dt) sum_e detj sum_q w_q N_A N_B to the velocity
diagonal block and performs one Newton update per step.  The mass is
geometry only: it is scattered once per mesh (AssemblyContext.edge_mass)
and added after the assembly, so each step's pseudo_dt is chosen once
the same assembly has given the step's residual.  solve_ns grows the
step by switched-evolution relaxation (SER) as the residual falls, from
the configured initial step towards plain Newton; the converged solution
is independent of the pseudo steps taken.

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
scattering it once per element chunk, through a sorted plan cached on
the mesh at its first assembly.  Blocks that depend on geometry only
(viscous and pressure stiffness, gradient/divergence) are formed once
per chunk instead of once per quadrature point.
"""

from __future__ import annotations

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
    final converged one; linear_iters and pseudo_dts hold the GMRES matvecs
    and the pseudo step of each update.  linear_unconverged counts the
    updates applied while GMRES was still above eps_ls without stagnating.
    """

    state: NSState
    converged: bool
    residuals: List[float]
    steps: int
    linear_iters: List[int]
    pseudo_dts: List[float]
    linear_unconverged: int


def resolve_ns_dirichlet(case: NSCase, mesh: Mesh):
    """Dirichlet node ids and (K, dim, 2N-1) values; walls override."""
    nodes, vals = resolve_dirichlet(mesh, case.dirichlet, case.walls,
                                    (mesh.dim, n_coeffs(case.n_modes)))
    return nodes, symmetrize_modes(vals)


def _facet_values(values: np.ndarray, fq, q: int) -> np.ndarray:
    """Nodal (n_nodes, dim, M) values at facet quadrature point q, (F, dim, M)."""
    return np.einsum("a,faim->fim", fq.shape[q], values[fq.nodes])


def _assemble(case: NSCase, mesh: Mesh, state: NSState, *,
              need_residual: bool, need_tangent: bool, exact_gd: bool = False,
              coeff_state: NSState | None = None):
    """Shared residual/tangent assembly in the real orthonormal mode basis.

    Returns the residual in linsolve's 2N layout, shape
    (n_nodes, dim+1, 2N), and the BlockTangent without pseudo-time mass
    (see _add_pseudo_mass).  coeff_state supplies the
    velocity entering A_i, tau and the backflow operator (frozen
    coefficients); it defaults to state.

    The states are converted once to their real coordinates, so every
    per-point product is a real matmul: the convolution matrices and tau
    are real symmetric, Omega real skew-symmetric.  Per element chunk, the
    integrands are summed over the quadrature points and scattered once
    through the mesh's cached sorted plan.  The Galerkin weight N_A rides
    with the least-squares weight P_A, so both act through one product
    (N_A I + P_A) per point.  The blocks that depend on geometry only are
    formed after the point loop from sum_q w_q N_A: the viscous gab I,
    the pressure block gab/rho (sum_q w_q tau), and the scalar
    gradient/divergence blocks.
    The assembled real-basis blocks and residual enter the 2N layout by
    linsolve's fixed map (block_from_orthonormal, rhs_from_orthonormal).
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
    omega_mat = build_omega(n, case.omega)
    eye = np.eye(m)
    diag = np.arange(m)
    vel = modes_to_real(state.velocity)                          # (n_nodes, dim, M)
    pres = modes_to_real(state.pressure)                         # (n_nodes, M)
    vel_c = vel if coeff_state is None else modes_to_real(coeff_state.velocity)

    n_edges = ctx.rows.shape[0]
    resid = np.zeros((mesh.n_nodes, dim + 1, m)) if need_residual else None
    if need_tangent:
        k_c = np.zeros((n_edges, m, m))
        l_c = np.zeros((n_edges, m, m))
        g_scal = np.zeros((n_edges, dim))
        d_scal = np.zeros((n_edges, dim))
        g_c = np.zeros((n_edges, dim, m, m)) if exact_gd else None
        d_c = np.zeros((n_edges, dim, m, m)) if exact_gd else None

    for sl, node_seg, edge_seg in ctx.chunks:
        elems = mesh.elements[sl]
        grads = ed.grads[sl]
        detj = ed.detj[sl]
        metric = ed.metric[sl]
        n_el, nen = elems.shape
        u_el = vel[elems]                                  # (E, nen, dim, M)
        p_el = pres[elems]                                 # (E, nen, M)
        uc_el = vel_c[elems]
        grad_u = np.einsum("eaj,eaim->ejim", grads, u_el)  # d u_i / d x_j
        grad_p = np.einsum("eaj,eam->ejm", grads, p_el)
        div_u = np.einsum("eiim->em", grad_u)
        gab = np.einsum("eai,ebi->eab", grads, grads)
        vol = detj * rule.weights.sum()
        n_int = np.outer(detj, n_ref)                      # sum_q w_q N_A
        if need_residual:
            r_m = np.zeros((n_el, nen, dim, m))
            tau_strong = np.zeros((n_el, dim, m))
        if need_tangent:
            k_el = np.zeros((n_el, nen, nen, m, m))
            tau_sum = np.zeros((n_el, m, m))
            if exact_gd:
                p_sum = np.zeros((n_el, nen, m, m))
                q_sum = np.zeros((n_el, nen, m, m))

        for q in range(rule.n_points):
            w = rule.weights[q] * detj
            n_q = shp[q][None, :, None, None]
            uc_q = np.einsum("a,eaim->eim", shp[q], uc_el)
            conv = convolution_dense(uc_q, n)              # (E, dim, M, M)
            tau = tau_from_modes(uc_q, metric, case.nu, c_i, n)
            a_dir = np.einsum("ead,edrc->earc", grads, conv)
            p_a = np.matmul(a_dir - n_q * omega_mat, tau[:, None])   # (E, nen, M, M)
            s_a = w[:, None, None, None] * (p_a + n_q * eye)

            if need_residual:
                u_q = np.einsum("a,eaim->eim", shp[q], u_el)
                conv_term = np.einsum("ejrc,ejic->eir", conv, grad_u)
                accel = np.einsum("rc,eic->eir", omega_mat, u_q)
                strong = rho * (accel + conv_term) + grad_p
                r_m += np.einsum("earc,eic->eair", s_a, strong)
                tau_strong += w[:, None, None] * np.einsum("erc,eic->eir", tau, strong)

            if need_tangent:
                t_b = n_q * omega_mat + a_dir
                k_el += np.matmul(s_a[:, :, None], rho * t_b[:, None, :])
                tau_sum += w[:, None, None] * tau
                if exact_gd:
                    p_sum += w[:, None, None, None] * p_a
                    q_sum += w[:, None, None, None] * np.matmul(tau[:, None], t_b)

        if need_residual:
            p_int = np.einsum("eb,ebm->em", n_int, p_el)
            r_m -= (n_int[:, :, None, None] * grad_p[:, None]
                    + np.einsum("eai,em->eaim", grads, p_int))
            r_m += mu * vol[:, None, None, None] * np.einsum("eaj,ejim->eaim", grads, grad_u)
            r_c = (n_int[:, :, None] * div_u[:, None]
                   + np.einsum("eai,eir->ear", grads, tau_strong) / rho)
            contrib = np.concatenate([r_m, r_c[:, :, None, :]], axis=2)
            node_seg.add_to(resid, contrib.reshape(-1, dim + 1, m))

        if need_tangent:
            k_el[..., diag, diag] += (mu * vol[:, None, None] * gab)[..., None]
            edge_seg.add_to(k_c, k_el.reshape(-1, m, m))
            l_el = np.einsum("eab,erc->eabrc", gab / rho, tau_sum)
            edge_seg.add_to(l_c, l_el.reshape(-1, m, m))
            edge_seg.add_to(g_scal, -np.einsum("eai,eb->eabi", grads, n_int).reshape(-1, dim))
            edge_seg.add_to(d_scal, np.einsum("ea,ebj->eabj", n_int, grads).reshape(-1, dim))
            if exact_gd:
                edge_seg.add_to(g_c, np.einsum("earc,ebi->eabirc", p_sum, grads)
                                .reshape(-1, dim, m, m))
                edge_seg.add_to(d_c, np.einsum("eaj,ebrc->eabjrc", grads, q_sum)
                                .reshape(-1, dim, m, m))

    if need_residual:
        for name, data in case.neumann.items():
            what = f"Neumann data of group {name!r}"
            h_modes = modes_to_real(require_conjugate_symmetry(
                boundary_values(data, (m,), what), what))
            fq = facet_quadrature(mesh, name)
            r_el = -np.einsum("fq,qa,fi,r->fair", fq.weights, fq.shape, fq.normals, h_modes)
            np.add.at(resid[:, :dim], fq.nodes.ravel(), r_el.reshape(-1, dim, m))

    if case.backflow_beta > 0.0 and case.neumann:
        _add_ns_backflow(case, mesh, vel, vel_c, ctx,
                         resid, k_c if need_tangent else None)

    tangent = None
    if need_tangent:
        g_diag = np.repeat(g_scal[:, :, None], n, axis=2).astype(complex)
        d_diag = np.repeat(d_scal[:, :, None], n, axis=2).astype(complex)
        if exact_gd:
            g_c[..., diag, diag] += g_scal[..., None]
            d_c[..., diag, diag] += d_scal[..., None]
        tangent = BlockTangent(
            ctx.rows, ctx.cols, mesh.n_nodes, dim, n,
            k_real=block_from_orthonormal(k_c, 1.0),
            l_real=block_from_orthonormal(l_c, 1.0),
            g_diag=g_diag, d_diag=d_diag,
            g_full=block_from_orthonormal(g_c, 0.0) if exact_gd else None,
            d_full=block_from_orthonormal(d_c, 0.0) if exact_gd else None,
        )
    return (rhs_from_orthonormal(resid) if need_residual else None), tangent


def _add_ns_backflow(case, mesh, vel, vel_c, ctx, resid, k_c):
    """Backflow term from real velocity coordinates, added to the real-basis resid/k_c."""
    n, m = case.n_modes, n_coeffs(case.n_modes)
    dim = mesh.dim
    factor = 0.5 * case.rho * case.backflow_beta
    for name in case.neumann:
        fq = facet_quadrature(mesh, name)
        k = fq.nodes.shape[1]
        r_el = np.zeros(fq.nodes.shape + (dim, m))
        k_el = np.zeros(fq.nodes.shape + (k, m, m))
        for q in range(fq.shape.shape[0]):
            uc = _facet_values(vel_c, fq, q)
            un = np.einsum("fim,fi->fm", uc, fq.normals)
            an_neg = negative_part_batch(convolution_dense(un, n))
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
    """Frozen-coefficient tangent of the residual.

    With exact_gd=False (production) the least-squares contributions to
    the gradient/divergence blocks are dropped, leaving them diagonal in
    the mode index; exact_gd=True keeps them, making the tangent the exact
    derivative of the frozen-coefficient residual.  A finite pseudo_dt
    adds the mass term (N_A, 1.5 rho / pseudo_dt N_B) to the K block.
    """
    _, tangent = _assemble(case, mesh, state, need_residual=False,
                           need_tangent=True, exact_gd=exact_gd)
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


# p of the SER rule dt_k = dt_{k-1} (r_{k-1} / r_k)^p.  On the bent_n7
# benchmark case p = 3 takes 16 steps from default_pseudo_dt, p = 2 one more.
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


def newton_step(case: NSCase, mesh: Mesh, state: NSState, config: SolverConfig,
                pseudo_dt: float | Callable[[float], float] | None = None,
                skip_below: float = 0.0,
                dir_nodes: np.ndarray | None = None) -> NewtonUpdate:
    """One linearized update y <- y - H^{-1} r at the current state.

    H is the production tangent plus the pseudo-time mass of the step.
    pseudo_dt is the step, or a callable that maps this step's residual
    norm to it (solve_ns passes its SER rule); None takes config.pseudo_dt,
    or default_pseudo_dt when that is None.  The tangent is assembled
    without the mass, which is added once the residual has chosen the step.
    The linear solve runs to eps_ls relative tolerance with block-Jacobi
    GMRES; Dirichlet increments are pinned to zero.  An update that GMRES
    left above eps_ls without stagnating is applied and flagged
    (linear_converged False); stagnation raises LinearSolveError and
    leaves the state untouched.  If the residual norm is already at or
    below skip_below, no solve is run.  dir_nodes, the Dirichlet node ids
    of resolve_ns_dirichlet, is resolved here when not given.
    """
    if pseudo_dt is None:
        pseudo_dt = config.pseudo_dt if config.pseudo_dt is not None \
            else default_pseudo_dt(case, mesh)
    if dir_nodes is None:
        dir_nodes, _ = resolve_ns_dirichlet(case, mesh)
    resid, tangent = _assemble(case, mesh, state, need_residual=True, need_tangent=True)
    rnorm = residual_norm(resid, dir_nodes, mesh.dim)
    if rnorm <= skip_below:
        return NewtonUpdate(state.copy(), rnorm, 0, np.nan, True)
    if callable(pseudo_dt):
        pseudo_dt = pseudo_dt(rnorm)
    _add_pseudo_mass(tangent, mesh, case.rho, pseudo_dt)

    pins = layout_pins(mesh.n_nodes, case.n_modes, dir_nodes, mesh.dim + 1, mesh.dim)
    rhs = -resid.ravel()
    rhs[pins] = 0.0
    op = pinned_operator(tangent.matvec, pins)
    precond = block_jacobi_preconditioner(tangent, pins)
    res = gmres(op, rhs, config.gmres_config(), precond=precond)
    if not res.converged and res.residuals[-1] >= res.residuals[0]:
        raise LinearSolveError("linear solver stagnated; step rejected",
                               res.matvecs, res.residuals[-1])
    delta = from_real(res.x.reshape(mesh.n_nodes, mesh.dim + 1, 2 * case.n_modes))
    new = state.copy()
    new.velocity += delta[:, :mesh.dim, :]
    new.pressure += delta[:, mesh.dim, :]
    new.velocity[dir_nodes] = state.velocity[dir_nodes]
    new.symmetrize()
    return NewtonUpdate(new, rnorm, res.matvecs, pseudo_dt, res.converged)


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
    unconverged = 0

    def result(converged: bool, steps: int) -> NSResult:
        return NSResult(state, converged, residuals, steps, lin_iters, pseudo_dts,
                        unconverged)

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
