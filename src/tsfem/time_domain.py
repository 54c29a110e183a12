"""Conventional time-domain SUPG/PSPG Navier-Stokes reference solver.

Marches the incompressible equations with the second-order implicit
generalized-alpha method (spectral radius RHO_INF) and serves as the
cross-validation reference for the spectral solver.  The stabilization
parameter is the scalar

    tau = [w_hat^2 + u_i G_ij u_j + C_I nu^2 G_ij G_ij]^(-1/2)

per quadrature point, where w_hat = ||du/dt|| / ||u|| is a global
acceleration frequency; this keeps the method consistent in dt while
controlling the pressure-stabilization term at small time steps.
The convective velocity u_af, w_hat and tau are re-evaluated at every
Newton iterate of a time step, in one point-value pass: one product of
the [N(q); grad N] table of the mesh's ElementData (point_grad) with the
gathered [u_af | du/dt | p] gives their values at the quadrature points
and their element gradients, w_hat and tau come from those, and one
product of its [w N | grad N] table (weight_grad) gives both residual
rows.  These tables and G:G belong to the mesh's ElementData, and each
group's Dirichlet node set and its nodal facet sums, which give the
Neumann traction and the reported flow, to the mesh; none is built by
this module.  A run merges its Dirichlet groups once (DirichletNodes),
and a step evaluates its Neumann tractions h(t_af) once for its Newton
loop, leaving out groups whose h is 0.  The Newton operator is the exact
linearization: the local element blocks carry the convective reaction,
the variation of the SUPG/PSPG test functions and of tau through u, and
the dependence of tau on the global w_hat is a rank-one term.  The Newton
updates are chord (modified-Newton) steps (Kelley, Iterative Methods for
Linear and Nonlinear Equations, SIAM 1995, sec. 5.4): a run keeps one
direct solve of a lagged Newton operator (LaggedFactor), the level LU
factor of its local blocks (linsolve.level_lu_preconditioner) with the
rank-one term added by the Sherman-Morrison formula, across Newton
iterations and steps.  The tangent is built and factored only when there
is no factor yet or the last update left the residual above
REFACTOR_CONTRACTION times its value before it.  A step whose Newton loop
ends unconverged warns, and one that diverges raises DivergedStepError.
Each step records its seconds in assembly (residuals and tangents) and
in linear work (factorizations and solves).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from .boundary import DirichletNodes, add_traction, check_groups
from .linsolve import (
    BlockMatrix,
    SolverConfig,
    assembly_context,
    build_graph,
    layout_pins,
    level_lu_preconditioner,
)
# not called here: benchmarks/tracing.py wraps this module's names of them
from .linsolve import block_jacobi_preconditioner, gmres  # noqa: F401
from .mesh import ElementData, Mesh, c_i_for, facet_quadrature

__all__ = [
    "TimeCase",
    "TimeState",
    "RHO_INF", "ALPHA_M", "ALPHA_F", "GAMMA",
    "TimeResult",
    "StepResult",
    "DivergedStepError",
    "REFACTOR_CONTRACTION",
    "ROUNDING_FLOOR",
    "LaggedFactor",
    "time_tau",
    "omega_hat",
    "generalized_alpha_step",
    "run_time_simulation",
]


# Generalized-alpha parameters of the spectral radius RHO_INF at infinite
# step, in the parameterization of Jansen, Whiting & Hulbert, CMAME 190 (2000).
RHO_INF = 0.2
ALPHA_M = 0.5 * (3.0 - RHO_INF) / (1.0 + RHO_INF)
ALPHA_F = 1.0 / (1.0 + RHO_INF)
GAMMA = 0.5 + ALPHA_M - ALPHA_F


@dataclass
class TimeCase:
    """Time-domain problem with T-periodic boundary data.

    dirichlet maps facet groups to callables (coords, t) -> (n, dim)
    velocities; neumann maps groups to callables t -> scalar h imposed as
    h n_i.  The boundary data must be periodic with the given period.
    """

    rho: float
    mu: float
    period: float
    n_cycles: int
    dt: float
    dirichlet: Dict[str, Callable] = field(default_factory=dict)
    walls: List[str] = field(default_factory=list)
    neumann: Dict[str, Callable] = field(default_factory=dict)
    c_i: Optional[float] = None

    def __post_init__(self):
        if self.rho <= 0 or self.mu <= 0:
            raise ValueError("rho and mu must be positive")
        if self.dt <= 0 or self.period <= 0:
            raise ValueError("dt and period must be positive")

    @property
    def nu(self) -> float:
        return self.mu / self.rho


@dataclass
class TimeState:
    velocity: np.ndarray  # (n_nodes, dim)
    accel: np.ndarray     # (n_nodes, dim)
    pressure: np.ndarray  # (n_nodes,)
    t: float

    @classmethod
    def zeros(cls, n_nodes: int, dim: int, t: float = 0.0) -> "TimeState":
        return cls(np.zeros((n_nodes, dim)), np.zeros((n_nodes, dim)),
                   np.zeros(n_nodes), t)

    def copy(self) -> "TimeState":
        return TimeState(self.velocity.copy(), self.accel.copy(),
                         self.pressure.copy(), self.t)


def time_tau(u_gauss: np.ndarray, omega_hat_val: float, metric: np.ndarray,
             nu: float, c_i: float, gg: np.ndarray | None = None) -> np.ndarray:
    """Scalar stabilization parameter per quadrature point (batched).

    u_gauss (..., dim) and metric (..., dim, dim) broadcast together; a
    metric with as many axes as u_gauss, (E, dim, dim) for u_gauss
    (E, Q, dim), is one metric per element for all its points.  gg is
    G:G of the metric, broadcastable against the points, if the caller
    keeps it; it is worked out from metric otherwise.
    """
    u_gauss = np.asarray(u_gauss, dtype=float)
    metric = np.asarray(metric, dtype=float)
    per_element = metric.ndim == u_gauss.ndim
    if per_element:
        arg = np.einsum("...i,...i->...", u_gauss @ metric, u_gauss)
    else:
        arg = np.einsum("...i,...ij,...j->...", u_gauss, metric, u_gauss)
    if gg is None:
        gg = np.einsum("...ij,...ij->...", metric, metric)
        if per_element:
            gg = gg[..., None]
    arg += omega_hat_val**2 + c_i * nu**2 * gg
    if arg.min() <= 0.0:
        raise ValueError("stabilization argument vanished (zero velocity, "
                         "frequency and diffusivity)")
    return arg**-0.5


def _point_values(ed: ElementData, elements, velocity, accel, pressure) -> np.ndarray:
    """[u | du/dt | p] at the quadrature points, then their gradients.

    Returns (E, Q + dim, 2 dim + 1): rows q < Q hold the point values and
    rows Q + j the derivatives d/dx_j, constant per element.
    """
    x = np.concatenate([velocity, accel, pressure[:, None]], axis=1)
    return ed.point_grad @ np.take(x, elements, axis=0)


def _omega_hat(ua_q: np.ndarray, wdetj: np.ndarray) -> float:
    """omega_hat of [u | du/dt] at the quadrature points, (E, Q, 2 dim).

    For P1 fields the volume rule integrates |u|^2 exactly, so the sums
    are the mass-matrix quadratic forms u^T M u and a^T M a.
    """
    dim = ua_q.shape[-1] // 2
    sums = wdetj.reshape(-1) @ (ua_q**2).reshape(-1, 2 * dim)
    nrm_u, nrm_a = sums.reshape(2, dim).sum(axis=1)
    if nrm_u == 0.0:
        return 0.0
    return float(np.sqrt(nrm_a / nrm_u))


def omega_hat(velocity: np.ndarray, accel: np.ndarray, mesh: Mesh) -> float:
    """Global frequency estimate ||du/dt||_Omega / ||u||_Omega (0 if u = 0).

    Computed as the time step computes it, from the point values.
    """
    ed = mesh.element_data()
    vals = _point_values(ed, mesh.elements, np.asarray(velocity, dtype=float),
                         np.asarray(accel, dtype=float), np.zeros(mesh.n_nodes))
    return _omega_hat(vals[:, :ed.basis.shape[0], :2 * mesh.dim], ed.wdetj)


class _PointFields(NamedTuple):
    """Point fields of every element, kept from the residual for the tangent."""

    uq: np.ndarray        # (E, Q, dim) velocity u_af
    tau: np.ndarray       # (E, Q)
    strong: np.ndarray    # (E, Q, dim) strong momentum residual S_i
    grad_u: np.ndarray    # (E, dim, dim) d u_i / d x_j at [e, j, i]
    what: float           # omega_hat of the state, which tau holds


@dataclass
class TimeTangent:
    """Newton operator of a time step: the local blocks and the omega_hat term.

    omega_hat is a global functional of the state, so its part of the
    Jacobian is the rank-one dR/d(omega_hat^2) (x) d(omega_hat^2)/dx, which
    matvec applies and LaggedFactor adds to the level LU factor of the
    local blocks.
    """

    local: BlockMatrix
    dr_dw2: np.ndarray    # (n_nodes, dim + 1)
    dw2_dx: np.ndarray    # (n_nodes, dim + 1); zero in the pressure column

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return (self.local.matvec(x)
                + self.dr_dw2.ravel() * float(self.dw2_dx.ravel() @ x))


def _tractions(case: TimeCase, mesh: Mesh, t: float) -> list:
    """(FacetQuadData, h(t)) of each Neumann group whose traction h is nonzero at t."""
    tractions = []
    for name, data in case.neumann.items():
        h = float(data(t))
        if h != 0.0:
            tractions.append((facet_quadrature(mesh, name), h))
    return tractions


def _time_residual(case: TimeCase, mesh: Mesh, u_af, udot_am, pres, t_af,
                   tractions: list | None = None):
    """SUPG/PSPG residual at the alpha state, and its _PointFields.

    One point-value pass: the point values and gradients of [u_af | udot_am
    | p] come from one product with the ElementData's point_grad, omega_hat
    and tau from those, and both residual rows from one product of its
    weight_grad table with the per-point integrands and the element fluxes
    (the gradients are constant per element):

        r_A = sum_q w N_A rho (a + u.grad u)
              + dN_A/dx_j (sum_q w tau u_j S_i + mu vol du_i/dx_j - p_int delta_ij)
        r_c = sum_q w N_A div u + dN_A/dx_j sum_q w tau S_j / rho

    with S the strong momentum residual and p_int = sum_q w p.  The rows
    are scattered once through the mesh's cached node plan, and each
    Neumann group adds its traction h(t_af) as one product.  tractions, the
    _tractions of t_af, which a time step forms once for its Newton loop,
    are formed here when not given.
    """
    dim, n_el = mesh.dim, mesh.n_elements
    rho = case.rho
    ed = mesh.element_data()
    n_q = ed.basis.shape[0]
    vals = _point_values(ed, mesh.elements, u_af, udot_am, pres)
    uq, aq, pq = vals[:, :n_q, :dim], vals[:, :n_q, dim:2 * dim], vals[:, :n_q, 2 * dim]
    grad_u, grad_p = vals[:, n_q:, :dim], vals[:, n_q:, 2 * dim]
    what = _omega_hat(vals[:, :n_q, :2 * dim], ed.wdetj)
    tau = time_tau(uq, what, ed.metric, case.nu, c_i_for(mesh.elem_type, case.c_i),
                   ed.gg[:, None])

    # the point values are strided views of vals: each product below
    # writes a contiguous array, which the elementwise steps then update
    inertia = uq @ grad_u
    inertia += aq
    inertia *= rho
    strong = inertia + grad_p[:, None, :]
    wts = (ed.wdetj * tau)[..., None] * strong
    grad_flux = uq.transpose(0, 2, 1) @ wts
    grad_flux += (case.mu * ed.vol)[:, None, None] * grad_u
    diag = np.arange(dim)
    grad_flux[:, diag, diag] -= np.einsum("eq,eq->e", ed.wdetj, pq)[:, None]
    flux = np.empty((n_el, n_q + dim, dim + 1))
    flux[:, :n_q, :dim] = inertia
    flux[:, :n_q, dim] = np.einsum("eii->e", grad_u)[:, None]
    flux[:, n_q:, :dim] = grad_flux
    flux[:, n_q:, dim] = np.einsum("eqi->ei", wts) / rho

    resid = np.zeros((mesh.n_nodes, dim + 1))
    ctx = assembly_context(mesh, build_graph)
    ctx.nodes.add_to(resid, (ed.weight_grad @ flux).reshape(-1, dim + 1))
    if tractions is None:
        tractions = _tractions(case, mesh, t_af)
    for fq, h in tractions:
        add_traction(resid[:, :dim], fq, h)
    return resid, _PointFields(uq, tau, strong, grad_u, what)


def _time_tangent(case: TimeCase, mesh: Mesh, f: _PointFields, u_af, udot_am,
                  *, alpha_m: float, fac: float) -> TimeTangent:
    """Exact Jacobian of _time_residual with respect to (acceleration, pressure).

    The acceleration a enters udot_am with weight alpha_m and u_af with
    weight fac = alpha_f gamma dt.  Beyond the mass, viscous, convective and
    gradient/divergence terms, the local blocks carry the convective
    reaction fac rho (N_A + tau u.grad N_A) N_B du_i/dx_k, its PSPG
    counterpart fac tau N_B dN_A/dx_i du_i/dx_k, the variation of the SUPG
    test function fac tau N_B S_i dN_A/dx_k, and the variation of tau with
    u through u.G.u, -fac w tau^3 (G u)_k N_B times the least-squares
    integrand.  The dependence of tau on omega_hat is the rank-one term of
    TimeTangent: dR/d(omega_hat^2) is the least-squares residual with tau
    replaced by -tau^3/2, and d(omega_hat^2)/da comes from the mass-matrix
    quadratic forms omega_hat is made of.  Point-level products that pair
    two node indices with two direction indices are formed as per-element
    matmuls over the quadrature points.
    """
    dim = mesh.dim
    rho, mu = case.rho, case.mu
    ed = mesh.element_data()
    ctx = assembly_context(mesh, build_graph)
    shp = ed.basis
    diag = np.arange(dim)
    blocks = np.zeros((ctx.rows.shape[0], dim + 1, dim + 1))
    dr_dw2 = np.zeros((mesh.n_nodes, dim + 1))
    dw2_dx = np.zeros((mesh.n_nodes, dim + 1))

    m_el = ed.mass
    u_el = u_af[mesh.elements]
    mu_el = m_el @ u_el
    nrm_u = np.einsum("eai,eai->", u_el, mu_el)
    g_el = None
    if nrm_u > 0.0:
        g_el = (2.0 / nrm_u) * (alpha_m * (m_el @ udot_am[mesh.elements])
                                - f.what**2 * fac * mu_el)

    grads = ed.grads
    n_el, nen = grads.shape[:2]
    w, n_q = ed.wdetj, shp.shape[0]
    grads_t = grads.transpose(0, 2, 1)
    grad_u_t = f.grad_u.transpose(0, 2, 1)        # d u_i / d x_k at [e, i, k]
    wt = w * f.tau
    adv = f.uq @ grads_t                          # u . grad N_A
    # the momentum test weight w (N_A + tau u . grad N_A)
    test_t = (w[..., None] * shp + wt[..., None] * adv).transpose(0, 2, 1)
    trial = alpha_m * shp + fac * adv
    gu = f.uq @ ed.metric                         # (G u)_k
    # w tau^3 times the SUPG and PSPG weights: d(w tau)/d(u.G.u) = -w tau^3 / 2
    w3 = (w * f.tau**3)[..., None]
    w3_adv = w3 * adv
    w3_gs = w3 * (f.strong @ grads_t) / rho
    tau_s = (wt[..., None] * f.strong).transpose(0, 2, 1) @ shp   # sum_q w tau S_i N_B

    # velocity rows (A, i) and columns (B, k): the convective reaction
    # sum_q test_A N_B rho du_i/dx_k and the tau variation
    # -sum_q w tau^3 u.grad N_A N_B S_i (G u)_k, as one product of
    # (A, B) and (i, k) factors; then the SUPG test-function variation
    ab = np.concatenate([(test_t @ shp)[:, None], w3_adv[..., None] * shp[:, None, :]],
                        axis=1).reshape(n_el, n_q + 1, -1)
    ik = np.concatenate([rho * grad_u_t[:, None], -f.strong[..., None] * gu[:, :, None, :]],
                        axis=1).reshape(n_el, n_q + 1, -1)
    vv = (ab.transpose(0, 2, 1) @ ik).reshape(n_el, nen, nen, dim, dim)
    vv += grads[:, :, None, None, :] * tau_s.transpose(0, 2, 1)[:, None, :, :, None]

    blk = np.empty((n_el, nen, nen, dim + 1, dim + 1))
    blk[..., :dim, :dim] = fac * vv
    blk[..., diag, diag] += (rho * (test_t @ trial)
                             + fac * mu * ed.vol[:, None, None] * ed.gab)[..., None]
    blk[..., :dim, dim] = ((wt[:, None] @ adv)[:, 0, :, None, None] * grads[:, None]
                           - grads[:, :, None] * ed.n_int[:, None, :, None])
    # continuity rows: Galerkin divergence, PSPG, the PSPG reaction and
    # the tau variation
    n_gu = (shp[:, :, None] * gu[:, :, None, :]).reshape(n_el, n_q, -1)
    blk[..., dim, :dim] = (
        fac * ed.n_int[:, :, None, None] * grads[:, None]
        + grads[:, :, None] * (wt[:, None] @ trial)[:, 0, None, :, None]
        + fac * (grads @ grad_u_t)[:, :, None] * (wt @ shp)[:, None, :, None]
        - fac * (w3_gs.transpose(0, 2, 1) @ n_gu).reshape(n_el, nen, nen, dim))
    blk[..., dim, dim] = ed.gab * (np.sum(wt, axis=1) / rho)[:, None, None]
    ctx.edges.add_to(blocks, blk.reshape(-1, dim + 1, dim + 1))

    dr = np.concatenate([w3_adv.transpose(0, 2, 1) @ f.strong,
                         np.sum(w3_gs, axis=1)[..., None]], axis=2)
    ctx.nodes.add_to(dr_dw2, -0.5 * dr.reshape(-1, dim + 1))
    if g_el is not None:
        ctx.nodes.add_to(dw2_dx[:, :dim], g_el.reshape(-1, dim))

    return TimeTangent(BlockMatrix(ctx.rows, ctx.cols, blocks, mesh.n_nodes),
                       dr_dw2, dw2_dx)


# A step converges once its free residual is at most this many rounding errors of the
# full residual (with its Dirichlet rows), however small eps_nr r0: a steady state
# starts each step at rounding level, where the free residual bottoms out at 1-2 eps
# times the full one.
ROUNDING_FLOOR = 16.0

# A run keeps its lagged factor while each Newton update cuts the residual to
# at most this fraction of its value before the update, and refactors after one
# that does not.  On sweep_bent seed 0 the time reference makes 22 factors in
# 830 Newton iterations at 0.25, 74 in 712 at 0.1, and 7 in 1,066 at 0.5, where
# one step needs 9 of its 10 iterations; 0.25 is the fastest of the three.
REFACTOR_CONTRACTION = 0.25


class LaggedFactor:
    """Direct solve of a lagged time-step Newton operator, kept across updates.

    factor(tangent, pins, plan, where) factors the pinned tangent.local by
    level LU (plan is its LevelPlan) and caches, for the rank-one term
    u v^T with u = dr_dw2 and v = dw2_dx, pinned slots of both zeroed,
    z = L^-1 u and 1 + v.z; solve(rhs) then applies the exact inverse of
    the pinned tangent by the Sherman-Morrison formula.  If that
    denominator vanishes the rank-one term is dropped, with a warning that
    names where.  contracted(ratio) takes ||r_k+1|| / ||r_k|| after an
    update and marks the factor stale above contraction, or always when
    contraction is None (exact Newton steps).  factorizations counts the
    factors made.
    """

    def __init__(self, contraction: Optional[float]):
        self.contraction = contraction
        self.factorizations = 0
        self._lu: Optional[Callable] = None
        self._v = self._z_scaled = None

    @property
    def stale(self) -> bool:
        return self._lu is None

    def factor(self, tangent: TimeTangent, pins: np.ndarray, plan, where: str) -> None:
        self._lu = level_lu_preconditioner(tangent.local, pins, plan)
        self.factorizations += 1
        u, v = tangent.dr_dw2.ravel().copy(), tangent.dw2_dx.ravel().copy()
        u[pins] = v[pins] = 0.0
        z = self._lu(u)
        vz = float(v @ z)
        if abs(1.0 + vz) > np.finfo(float).eps * (1.0 + abs(vz)):
            self._v, self._z_scaled = v, z / (1.0 + vz)
        else:
            self._v = self._z_scaled = None
            warnings.warn(f"{where}: Sherman-Morrison denominator 1 + v.z = {1.0 + vz:.3e} "
                          "vanished; omega_hat term left out of the factor")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = self._lu(rhs)
        if self._v is not None:
            x -= self._z_scaled * (self._v @ x)
        return x

    def contracted(self, ratio: float) -> None:
        if self.contraction is None or ratio > self.contraction:
            self._lu = None


class DivergedStepError(RuntimeError):
    """A time step diverged: its message names the step's end time t."""


class StepResult(NamedTuple):
    """One generalized-alpha step: the new state, its Newton work and its seconds."""

    state: TimeState
    converged: bool
    newton_iters: int         # residual evaluations
    linear_solves: int        # Newton updates, each a LaggedFactor solve
    factorizations: int       # tangents built and factored
    assembly_s: float         # in the residuals and tangents
    linear_s: float           # in the factorizations and solves


def generalized_alpha_step(case: TimeCase, mesh: Mesh, state: TimeState,
                           config: SolverConfig | None = None,
                           max_newton: int = 10,
                           dirichlet_scale: float = 1.0,
                           factor: LaggedFactor | None = None,
                           dirichlet: DirichletNodes | None = None) -> StepResult:
    """Advance one implicit step.

    Newton iterations (at most max_newton residual evaluations) reduce the
    free residual to eps_nr relative to its value r0 at the start of the
    step, or to ROUNDING_FLOOR rounding errors of the full residual,
    whichever is larger.
    Each update solves with factor, which a run keeps across its steps:
    the exact tangent is built, from the residual's point fields, and
    factored only when factor has none: at the first update, or after an
    update that left the residual above its contraction times its value
    before the update.
    Without a factor, each update factors anew (LaggedFactor(None)), an
    exact Newton step.  A step that ends unconverged warns with its
    residual ratio ||r||/r0; a ratio above 1 or not finite, or a new state
    that is not finite, raises DivergedStepError.  The Dirichlet velocity
    is imposed strongly at t_{n+1} with a rate-consistent boundary
    acceleration; dirichlet_scale ramps the data during start-up.
    dirichlet, the DirichletNodes of the case's groups, is resolved here
    when not given; only the values are evaluated at each step.  The
    Neumann tractions h(t_af) are evaluated once per step.
    """
    if max_newton < 1:
        raise ValueError(f"max_newton must be at least 1, got {max_newton}")
    if config is None:
        config = SolverConfig()
    if factor is None:
        factor = LaggedFactor(None)
    factored = factor.factorizations
    dt = case.dt
    t_new = state.t + dt
    t_af = state.t + ALPHA_F * dt
    dim = mesh.dim

    if dirichlet is None:
        dirichlet = DirichletNodes.of(mesh, case.dirichlet, case.walls)
    dir_nodes = dirichlet.ids
    dir_vals = dirichlet_scale * dirichlet.values(mesh, case.dirichlet, (dim,), t_new,
                                                  dtype=float)
    tractions = _tractions(case, mesh, t_af)

    # predictor: constant velocity, consistent boundary acceleration
    accel = (GAMMA - 1.0) / GAMMA * state.accel
    vel_new = state.velocity + dt * ((1 - GAMMA) * state.accel + GAMMA * accel)
    pres = state.pressure.copy()
    if dir_nodes.size:
        accel[dir_nodes] = (state.accel[dir_nodes]
                            + (dir_vals - state.velocity[dir_nodes]
                               - dt * state.accel[dir_nodes]) / (GAMMA * dt))
        vel_new[dir_nodes] = dir_vals

    r0 = rprev = None
    converged = False
    iters = solves = 0
    assembly_s = linear_s = 0.0
    for it in range(max_newton):
        iters = it + 1
        u_af = state.velocity + ALPHA_F * (vel_new - state.velocity)
        udot_am = state.accel + ALPHA_M * (accel - state.accel)
        start = time.perf_counter()
        resid, fields = _time_residual(case, mesh, u_af, udot_am, pres, t_af, tractions)
        assembly_s += time.perf_counter() - start
        dir_rows = resid[dir_nodes, :dim]
        dir_norm2 = float(np.vdot(dir_rows, dir_rows))
        resid[dir_nodes, :dim] = 0.0                             # the free residual
        rnorm = float(np.linalg.norm(resid))
        if r0 is None:
            r0 = rnorm
        else:
            factor.contracted(rnorm / rprev)
        floor = ROUNDING_FLOOR * np.finfo(float).eps * np.sqrt(rnorm**2 + dir_norm2)
        if rnorm <= max(config.eps_nr * r0, floor):
            converged = True
            break
        if factor.stale:
            start = time.perf_counter()
            tangent = _time_tangent(case, mesh, fields, u_af, udot_am,
                                    alpha_m=ALPHA_M, fac=ALPHA_F * GAMMA * dt)
            mid = time.perf_counter()
            assembly_s += mid - start
            factor.factor(tangent, layout_pins(mesh.n_nodes, 1, dir_nodes, dim + 1, dim),
                          assembly_context(mesh, build_graph).level_plan(),
                          f"time step to t={t_new:.6g}")
            linear_s += time.perf_counter() - mid
        start = time.perf_counter()
        delta = factor.solve(-resid.ravel()).reshape(mesh.n_nodes, dim + 1)
        linear_s += time.perf_counter() - start
        solves += 1
        rprev = rnorm
        accel = accel + delta[:, :dim]
        pres = pres + delta[:, dim]
        vel_new = state.velocity + dt * ((1 - GAMMA) * state.accel + GAMMA * accel)
        if dir_nodes.size:
            vel_new[dir_nodes] = dir_vals
    if not all(np.all(np.isfinite(a)) for a in (vel_new, accel, pres)):
        raise DivergedStepError(f"time step to t={t_new:.6g}: the new state is not finite")
    if not converged:
        outcome = "unconverged" if rnorm <= r0 else "diverged"    # NaN fails <=
        message = (f"time step to t={t_new:.6g}: Newton loop {outcome} after {iters} "
                   f"iterations, ||r||/r0 = {rnorm / r0:.3e}")
        if outcome == "diverged":
            raise DivergedStepError(message)
        warnings.warn(message)

    return StepResult(TimeState(vel_new, accel, pres, t_new), converged, iters,
                      solves, factor.factorizations - factored, assembly_s, linear_s)


@dataclass
class TimeResult:
    times: np.ndarray
    flow: Dict[str, np.ndarray]       # outward flow trace per group
    pressure: Dict[str, np.ndarray]   # area-averaged pressure trace
    cycle_change: List[float]         # L2 change of flow traces between cycles
    last_cycle_times: np.ndarray
    last_cycle_states: List[TimeState]
    newton_failures: int
    newton_iters: List[int]           # Newton iterations of each step
    linear_solves: List[int]          # Newton updates of each step
    factorizations: List[int]         # tangents built and factored in each step
    assembly_seconds: List[float]     # residual and tangent time of each step
    linear_seconds: List[float]       # factor and solve time of each step
    step_seconds: List[float]         # wall time of each step


def _flow_trace(state: TimeState, mesh: Mesh, groups):
    """Outward flow and area-averaged pressure of each group, from its node sums."""
    out_q = {}
    out_p = {}
    for name in groups:
        fq = facet_quadrature(mesh, name)
        out_q[name] = float(fq.outward_flow(state.velocity))
        out_p[name] = float(fq.mean(state.pressure))
    return out_q, out_p


def run_time_simulation(case: TimeCase, mesh: Mesh,
                        config: SolverConfig | None = None,
                        report_groups=None, ramp_steps: int = 10) -> TimeResult:
    """March n_cycles periods and report cycle-resolved outlet traces.

    The state starts from rest with the Dirichlet data ramped over the
    first ramp_steps steps to avoid an impulsive start; the transient is
    discarded through cycle-to-cycle convergence, reported as the relative
    L2 change of the flow traces between consecutive cycles, and the
    states and times of the last cycle are kept.  Each step uses the
    generalized-alpha constants ALPHA_M, ALPHA_F and GAMMA.  The run's
    Newton updates share one LaggedFactor, with the REFACTOR_CONTRACTION
    of the call's time, and its steps one DirichletNodes.  A step's
    DivergedStepError stops the run.
    """
    if case.n_cycles < 2:
        raise ValueError("need at least two cycles to assess convergence")
    check_groups(mesh, dirichlet=case.dirichlet, wall=case.walls, neumann=case.neumann)
    if config is None:
        config = SolverConfig()
    steps_per_cycle = int(round(case.period / case.dt))
    if abs(steps_per_cycle * case.dt - case.period) > 1e-10 * case.period:
        raise ValueError("dt must divide the period")
    if report_groups is None:
        report_groups = list(case.neumann)

    state = TimeState.zeros(mesh.n_nodes, mesh.dim)
    times = []
    traces_q = {g: [] for g in report_groups}
    traces_p = {g: [] for g in report_groups}
    # per step: the StepResult fields after the state, then the step's seconds
    records = []
    factor = LaggedFactor(REFACTOR_CONTRACTION)
    dirichlet = DirichletNodes.of(mesh, case.dirichlet, case.walls)
    last_states: List[TimeState] = []
    total = case.n_cycles * steps_per_cycle
    for step in range(total):
        scale = min(1.0, (step + 1) / ramp_steps) if ramp_steps else 1.0
        start = time.perf_counter()
        state, *record = generalized_alpha_step(case, mesh, state, config,
                                                dirichlet_scale=scale, factor=factor,
                                                dirichlet=dirichlet)
        records.append(record + [time.perf_counter() - start])
        qs, ps = _flow_trace(state, mesh, report_groups)
        times.append(state.t)
        for g in report_groups:
            traces_q[g].append(qs[g])
            traces_p[g].append(ps[g])
        if step >= total - steps_per_cycle:
            last_states.append(state.copy())

    cycle_change = []
    for c in range(1, case.n_cycles):
        num = 0.0
        den = 0.0
        for g in report_groups:
            arr = np.asarray(traces_q[g])
            prev = arr[(c - 1) * steps_per_cycle:c * steps_per_cycle]
            curr = arr[c * steps_per_cycle:(c + 1) * steps_per_cycle]
            num += np.sum((curr - prev) ** 2)
            den += np.sum(curr**2)
        cycle_change.append(float(np.sqrt(num / den)) if den > 0 else 0.0)

    (converged, newton_iters, linear_solves, factorizations, assembly_s, linear_s,
     seconds) = map(list, zip(*records))
    return TimeResult(np.asarray(times),
                      {g: np.asarray(v) for g, v in traces_q.items()},
                      {g: np.asarray(v) for g, v in traces_p.items()},
                      cycle_change, np.asarray(times[-steps_per_cycle:]), last_states,
                      converged.count(False), newton_iters, linear_solves, factorizations,
                      assembly_s, linear_s, seconds)
