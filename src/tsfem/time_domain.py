"""Conventional time-domain SUPG/PSPG Navier-Stokes reference solver.

Marches the incompressible equations with the second-order implicit
generalized-alpha method and serves as the cross-validation reference for
the spectral solver.  The stabilization parameter is the scalar

    tau = [w_hat^2 + u_i G_ij u_j + C_I nu^2 G_ij G_ij]^(-1/2)

per quadrature point, where w_hat = ||du/dt|| / ||u|| is a global
acceleration frequency; this keeps the method consistent in dt while
controlling the pressure-stabilization term at small time steps.
The convective velocity u_af, w_hat and tau are re-evaluated at every
Newton iterate of a time step, and the Newton operator is their exact
linearization: the local element blocks carry the convective reaction,
the variation of the SUPG/PSPG test functions and of tau through u, and
the dependence of tau on the global w_hat is a rank-one term applied in
the matvec (the block-Jacobi preconditioner uses the local blocks only).
Each iteration assembles the residual first and builds the tangent from
the same point fields only when a linear solve follows.  Each linear solve
aims at the step's stopping test (forcing_tolerance).  A linear solve that
stagnates ends the step's Newton loop unconverged, with a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from .boundary import check_groups, resolve_dirichlet
from .linsolve import (
    BlockMatrix,
    GmresConfig,
    Segments,
    SolverConfig,
    SortedSegments,
    assembly_context,
    block_jacobi_preconditioner,
    build_graph,
    gmres,
    pinned_operator,
)
from .mesh import Mesh, c_i_for, facet_quadrature, quadrature_rule, shape_values

__all__ = [
    "TimeCase",
    "TimeState",
    "GenAlphaConfig",
    "TimeResult",
    "StepResult",
    "FORCING_FACTOR",
    "forcing_tolerance",
    "time_tau",
    "omega_hat",
    "generalized_alpha_step",
    "run_time_simulation",
]


@dataclass(frozen=True)
class GenAlphaConfig:
    """Generalized-alpha parameters from the spectral radius rho_inf."""

    rho_inf: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.rho_inf <= 1.0:
            raise ValueError("rho_inf must lie in [0, 1]")

    @property
    def alpha_m(self) -> float:
        return 0.5 * (3.0 - self.rho_inf) / (1.0 + self.rho_inf)

    @property
    def alpha_f(self) -> float:
        return 1.0 / (1.0 + self.rho_inf)

    @property
    def gamma(self) -> float:
        return 0.5 + self.alpha_m - self.alpha_f


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
             nu: float, c_i: float) -> np.ndarray:
    """Scalar stabilization parameter per quadrature point (batched)."""
    u_gauss = np.asarray(u_gauss, dtype=float)
    metric = np.asarray(metric, dtype=float)
    ugu = np.einsum("...i,...ij,...j->...", u_gauss, metric, u_gauss)
    gg = np.einsum("...ij,...ij->...", metric, metric)
    arg = omega_hat_val**2 + ugu + c_i * nu**2 * gg
    if np.any(arg <= 0.0):
        raise ValueError("stabilization argument vanished (zero velocity, "
                         "frequency and diffusivity)")
    return arg**-0.5


def omega_hat(velocity: np.ndarray, accel: np.ndarray, mesh: Mesh) -> float:
    """Global frequency estimate ||du/dt||_Omega / ||u||_Omega (0 if u = 0).

    Both squared norms are quadratic forms of the element mass matrices.
    """
    m_el = mesh.element_data().mass

    def norm2(values):
        v_el = np.asarray(values)[mesh.elements]           # (E, nen, dim)
        return np.einsum("eai,eai->", v_el, m_el @ v_el)

    nrm_u = norm2(velocity)
    if nrm_u == 0.0:
        return 0.0
    return float(np.sqrt(norm2(accel) / nrm_u))


class _ChunkFields(NamedTuple):
    """Point fields of one element chunk, kept from the residual for the tangent."""

    sl: slice
    node_seg: SortedSegments
    edge_seg: Segments
    uq: np.ndarray        # (E, Q, dim) velocity u_af
    w: np.ndarray         # (E, Q) quadrature weight times detj
    tau: np.ndarray       # (E, Q)
    adv: np.ndarray       # (E, Q, nen) u . grad N_A
    strong: np.ndarray    # (E, Q, dim) strong momentum residual S_i
    test: np.ndarray      # (E, Q, nen) momentum test weight w (N_A + tau u . grad N_A)
    grad_u: np.ndarray    # (E, dim, dim) d u_i / d x_j at [e, j, i]
    n_int: np.ndarray     # (E, nen) sum_q w_q N_A


@dataclass
class TimeTangent:
    """Newton operator of a time step: the local blocks and the omega_hat term.

    omega_hat is a global functional of the state, so its part of the
    Jacobian is the rank-one dR/d(omega_hat^2) (x) d(omega_hat^2)/dx, applied
    in the matvec and left out of the block-Jacobi preconditioner.
    """

    local: BlockMatrix
    dr_dw2: np.ndarray    # (n_nodes, dim + 1)
    dw2_dx: np.ndarray    # (n_nodes, dim + 1); zero in the pressure column

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return (self.local.matvec(x)
                + self.dr_dw2.ravel() * float(self.dw2_dx.ravel() @ x))


def _time_residual(case: TimeCase, mesh: Mesh, u_af, udot_am, pres, t_af,
                   what: float):
    """SUPG/PSPG residual at the alpha state, and the point fields of each chunk.

    The point fields of a chunk are evaluated for all its quadrature points
    at once; the integrands are summed over the points and scattered once
    per chunk through the mesh's cached sorted plan, shared with the
    spectral solvers.  The viscous, pressure and continuity terms use
    sum_q w_q N_A, since the gradients are constant per element.
    """
    dim = mesh.dim
    rho, mu, nu = case.rho, case.mu, case.nu
    c_i = c_i_for(mesh.elem_type, case.c_i)
    ed = mesh.element_data()
    ctx = assembly_context(mesh, build_graph)
    rule = quadrature_rule(mesh.elem_type)
    shp = shape_values(mesh.elem_type, rule.points)
    resid = np.zeros((mesh.n_nodes, dim + 1))
    fields = []

    for sl, node_seg, edge_seg in ctx.chunks:
        elems = mesh.elements[sl]
        grads = ed.grads[sl]
        detj = ed.detj[sl]
        u_el = u_af[elems]
        p_el = pres[elems]
        grad_u = np.einsum("eaj,eai->eji", grads, u_el)   # d u_i / d x_j
        grad_p = np.einsum("eaj,ea->ej", grads, p_el)
        uq = shp @ u_el
        tau = time_tau(uq, what, ed.metric[sl, None], nu, c_i)
        w = np.outer(detj, rule.weights)
        adv = uq @ grads.transpose(0, 2, 1)
        inertia = rho * (shp @ udot_am[elems] + uq @ grad_u)
        strong = inertia + grad_p[:, None, :]
        wt = (w * tau)[..., None]
        test = w[..., None] * shp + wt * adv
        n_int = np.outer(detj, rule.weights @ shp)        # sum_q w_q N_A

        p_int = np.einsum("ea,ea->e", n_int, p_el)        # sum_q w_q p
        vol = detj * rule.weights.sum()
        r_m = (test.transpose(0, 2, 1) @ inertia
               + np.einsum("ea,ej->eaj", np.sum(wt * adv, axis=1), grad_p)
               + mu * vol[:, None, None] * grads @ grad_u
               - grads * p_int[:, None, None])
        r_c = ((n_int * np.einsum("eii->e", grad_u)[:, None])[..., None]
               + grads @ np.sum(wt * strong, axis=1)[:, :, None] / rho)
        node_seg.add_to(resid, np.concatenate([r_m, r_c], axis=2).reshape(-1, dim + 1))
        fields.append(_ChunkFields(sl, node_seg, edge_seg, uq, w, tau, adv, strong,
                                   test, grad_u, n_int))

    for name, data in case.neumann.items():
        fq = facet_quadrature(mesh, name)
        r_el = -float(data(t_af)) * np.einsum("fq,qa,fi->fai", fq.weights, fq.shape,
                                              fq.normals)
        np.add.at(resid[:, :dim], fq.nodes.ravel(), r_el.reshape(-1, dim))

    return resid, fields


def _time_tangent(case: TimeCase, mesh: Mesh, fields, u_af, udot_am, what: float,
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
    rule = quadrature_rule(mesh.elem_type)
    shp = shape_values(mesh.elem_type, rule.points)
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
                                - what**2 * fac * mu_el)

    for f in fields:
        grads = ed.grads[f.sl]
        n_el, nen = grads.shape[:2]
        n_q = f.w.shape[1]
        grads_t = grads.transpose(0, 2, 1)
        test_t = f.test.transpose(0, 2, 1)
        grad_u_t = f.grad_u.transpose(0, 2, 1)            # d u_i / d x_k at [e, i, k]
        wt = f.w * f.tau
        trial = alpha_m * shp + fac * f.adv
        gab = grads @ grads_t
        vol = ed.detj[f.sl] * rule.weights.sum()
        gu = f.uq @ ed.metric[f.sl]                       # (G u)_k
        # w tau^3 times the SUPG and PSPG weights: d(w tau)/d(u.G.u) = -w tau^3 / 2
        w3 = (f.w * f.tau**3)[..., None]
        w3_adv = w3 * f.adv
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
                                 + fac * mu * vol[:, None, None] * gab)[..., None]
        blk[..., :dim, dim] = ((wt[:, None] @ f.adv)[:, 0, :, None, None] * grads[:, None]
                               - grads[:, :, None] * f.n_int[:, None, :, None])
        # continuity rows: Galerkin divergence, PSPG, the PSPG reaction and
        # the tau variation
        n_gu = (shp[:, :, None] * gu[:, :, None, :]).reshape(n_el, n_q, -1)
        blk[..., dim, :dim] = (
            fac * f.n_int[:, :, None, None] * grads[:, None]
            + grads[:, :, None] * (wt[:, None] @ trial)[:, 0, None, :, None]
            + fac * (grads @ grad_u_t)[:, :, None] * (wt @ shp)[:, None, :, None]
            - fac * (w3_gs.transpose(0, 2, 1) @ n_gu).reshape(n_el, nen, nen, dim))
        blk[..., dim, dim] = gab * (np.sum(wt, axis=1) / rho)[:, None, None]
        f.edge_seg.add_to(blocks, blk.reshape(-1, dim + 1, dim + 1))

        dr = np.concatenate([w3_adv.transpose(0, 2, 1) @ f.strong,
                             np.sum(w3_gs, axis=1)[..., None]], axis=2)
        f.node_seg.add_to(dr_dw2, -0.5 * dr.reshape(-1, dim + 1))
        if g_el is not None:
            f.node_seg.add_to(dw2_dx[:, :dim], g_el[f.sl].reshape(-1, dim))

    return TimeTangent(BlockMatrix(ctx.rows, ctx.cols, blocks, mesh.n_nodes),
                       dr_dw2, dw2_dx)


def _assemble_time(case: TimeCase, mesh: Mesh, u_af, udot_am, pres, t_af,
                   what: float, *, alpha_m: float, fac: float):
    """Residual and exact Newton operator at the alpha state (see _time_tangent)."""
    resid, fields = _time_residual(case, mesh, u_af, udot_am, pres, t_af, what)
    return resid, _time_tangent(case, mesh, fields, u_af, udot_am, what,
                                alpha_m=alpha_m, fac=fac)


# The fraction of a time step's stopping threshold eps_nr * r0 that its Newton
# systems are solved to.  sweep_bent's reference takes 583 Newton iterations on
# seed 0 at 0.5, 587 at 0.9, 760 at eps_ls alone; 0.5 is faster at criterion 07.
FORCING_FACTOR = 0.5


def forcing_tolerance(config: SolverConfig, r0: float, rnorm: float) -> float:
    """GMRES relative tolerance of a time-step Newton system with residual rnorm.

    min(eps_ls, FORCING_FACTOR eps_nr r0 / rnorm), an inexact-Newton forcing
    term (Eisenstat & Walker 1996) aimed at the step's stopping test; eps_ls
    is the loosest tolerance allowed.
    """
    return min(config.eps_ls, FORCING_FACTOR * config.eps_nr * r0 / rnorm)


class StepResult(NamedTuple):
    """One generalized-alpha step: the new state and its Newton and linear work."""

    state: TimeState
    converged: bool
    newton_iters: int         # residual evaluations
    linear_solves: int
    matvecs: int
    linear_unconverged: int   # updates applied while GMRES was above its tolerance


def generalized_alpha_step(case: TimeCase, mesh: Mesh, state: TimeState,
                           config: SolverConfig | None = None,
                           gen_alpha: GenAlphaConfig | None = None,
                           max_newton: int = 10,
                           dirichlet_scale: float = 1.0) -> StepResult:
    """Advance one implicit step.

    Newton iterations (at most max_newton residual evaluations) reduce the
    residual to eps_nr relative to its value r0 at the start of the step.
    Each iteration assembles the residual first and builds the exact
    tangent from the same point fields only when a linear solve follows,
    so the converged last iteration costs a residual only.  GMRES solves
    each system to forcing_tolerance.  A linear solve that stagnates
    (unconverged, with no residual reduction) is not applied: it ends the
    Newton loop unconverged and warns.  One that stops above its tolerance
    without stagnating (at the matvec cap) is applied, counted in
    linear_unconverged and warned about.  The Dirichlet velocity is imposed
    strongly at t_{n+1} with a rate-consistent boundary acceleration;
    dirichlet_scale ramps the data during start-up.
    """
    if config is None:
        config = SolverConfig(eps_ls=0.05)
    if gen_alpha is None:
        gen_alpha = GenAlphaConfig()
    am, af, gamma = gen_alpha.alpha_m, gen_alpha.alpha_f, gen_alpha.gamma
    dt = case.dt
    t_new = state.t + dt
    t_af = state.t + af * dt
    dim = mesh.dim

    dir_nodes, dir_vals = resolve_dirichlet(mesh, case.dirichlet, case.walls, (dim,), t_new,
                                            dtype=float)
    dir_vals = dirichlet_scale * dir_vals
    pins = np.zeros(mesh.n_nodes * (dim + 1), dtype=bool)
    pins.reshape(mesh.n_nodes, dim + 1)[dir_nodes, :dim] = True

    # predictor: constant velocity, consistent boundary acceleration
    accel = (gamma - 1.0) / gamma * state.accel
    vel_new = state.velocity + dt * ((1 - gamma) * state.accel + gamma * accel)
    pres = state.pressure.copy()
    if dir_nodes.size:
        accel[dir_nodes] = (state.accel[dir_nodes]
                            + (dir_vals - state.velocity[dir_nodes]
                               - dt * state.accel[dir_nodes]) / (gamma * dt))
        vel_new[dir_nodes] = dir_vals

    r0 = None
    converged = False
    iters = solves = matvecs = unconverged = 0
    for it in range(max_newton):
        iters = it + 1
        u_af = state.velocity + af * (vel_new - state.velocity)
        udot_am = state.accel + am * (accel - state.accel)
        what = omega_hat(u_af, udot_am, mesh)
        resid, fields = _time_residual(case, mesh, u_af, udot_am, pres, t_af, what)
        rr = resid.copy()
        rr[dir_nodes, :dim] = 0.0
        rnorm = float(np.linalg.norm(rr))
        if r0 is None:
            r0 = rnorm
        if rnorm <= config.eps_nr * r0 or r0 == 0.0:
            converged = True
            break
        tangent = _time_tangent(case, mesh, fields, u_af, udot_am, what,
                                alpha_m=am, fac=af * gamma * dt)
        rhs = -rr.ravel()
        rhs[pins] = 0.0
        op = pinned_operator(tangent.matvec, pins)
        precond = block_jacobi_preconditioner(tangent.local, pins)
        tol = forcing_tolerance(config, r0, rnorm)
        res = gmres(op, rhs, GmresConfig(config.krylov_dim, tol, config.max_linear_iters),
                    precond=precond)
        solves, matvecs = solves + 1, matvecs + res.matvecs
        if not res.converged and res.residuals[-1] >= res.residuals[0]:
            warnings.warn(f"time step to t={t_new:.6g}: linear solver stagnated at "
                          f"Newton iteration {iters} (matvecs {res.matvecs}, residual "
                          f"{res.residuals[-1]:.3e}); update rejected, step unconverged")
            break
        if not res.converged:
            unconverged += 1
            warnings.warn(f"time step to t={t_new:.6g}: linear solver stopped above tolerance "
                          f"{tol:.3e} at Newton iteration {iters} (matvecs {res.matvecs}, "
                          f"residual {res.residuals[-1]:.3e}); update applied")
        delta = res.x.reshape(mesh.n_nodes, dim + 1)
        accel = accel + delta[:, :dim]
        pres = pres + delta[:, dim]
        vel_new = state.velocity + dt * ((1 - gamma) * state.accel + gamma * accel)
        if dir_nodes.size:
            vel_new[dir_nodes] = dir_vals

    return StepResult(TimeState(vel_new, accel, pres, t_new), converged, iters,
                      solves, matvecs, unconverged)


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
    linear_solves: List[int]          # GMRES solves of each step
    matvecs: List[int]                # GMRES matvecs of each step
    linear_unconverged: int           # updates applied above their GMRES tolerance


def _flow_trace(state: TimeState, mesh: Mesh, groups):
    out_q = {}
    out_p = {}
    for name in groups:
        fq = facet_quadrature(mesh, name)
        out_q[name] = np.einsum("fq,fqi,fi->", fq.weights, fq.interpolate(state.velocity),
                                fq.normals)
        out_p[name] = np.sum(fq.weights * fq.interpolate(state.pressure)) / fq.areas.sum()
    return out_q, out_p


def run_time_simulation(case: TimeCase, mesh: Mesh,
                        config: SolverConfig | None = None,
                        gen_alpha: GenAlphaConfig | None = None,
                        report_groups=None, ramp_steps: int = 10,
                        keep_last_cycle: bool = True) -> TimeResult:
    """March n_cycles periods and report cycle-resolved outlet traces.

    The state starts from rest with the Dirichlet data ramped over the
    first ramp_steps steps to avoid an impulsive start; the transient is
    discarded through cycle-to-cycle convergence, reported as the relative
    L2 change of the flow traces between consecutive cycles.
    """
    if case.n_cycles < 2:
        raise ValueError("need at least two cycles to assess convergence")
    check_groups(mesh, dirichlet=case.dirichlet, wall=case.walls, neumann=case.neumann)
    if config is None:
        config = SolverConfig(eps_ls=0.05)
    steps_per_cycle = int(round(case.period / case.dt))
    if abs(steps_per_cycle * case.dt - case.period) > 1e-10 * case.period:
        raise ValueError("dt must divide the period")
    if report_groups is None:
        report_groups = list(case.neumann)

    state = TimeState.zeros(mesh.n_nodes, mesh.dim)
    times = []
    traces_q = {g: [] for g in report_groups}
    traces_p = {g: [] for g in report_groups}
    records = []  # per step: converged, newton_iters, linear_solves, matvecs, linear_unconverged
    last_states: List[TimeState] = []
    last_times: List[float] = []
    total = case.n_cycles * steps_per_cycle
    for step in range(total):
        scale = min(1.0, (step + 1) / ramp_steps) if ramp_steps else 1.0
        state, *record = generalized_alpha_step(case, mesh, state, config, gen_alpha,
                                                dirichlet_scale=scale)
        records.append(record)
        qs, ps = _flow_trace(state, mesh, report_groups)
        times.append(state.t)
        for g in report_groups:
            traces_q[g].append(qs[g])
            traces_p[g].append(ps[g])
        if keep_last_cycle and step >= total - steps_per_cycle:
            last_states.append(state.copy())
            last_times.append(state.t)

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

    converged, newton_iters, linear_solves, matvecs, unconverged = map(list, zip(*records))
    return TimeResult(np.asarray(times),
                      {g: np.asarray(v) for g, v in traces_q.items()},
                      {g: np.asarray(v) for g, v in traces_p.items()},
                      cycle_change, np.asarray(last_times), last_states,
                      converged.count(False), newton_iters, linear_solves, matvecs,
                      sum(unconverged))
