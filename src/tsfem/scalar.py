"""Time-spectral GLS solver for the convection-diffusion equation.

Per mesh node the unknown is a vector phi of 2N-1 conjugate-symmetric
Fourier modes; the weak form couples modes through the velocity
convolution matrices A_i.  The assembled operator contains the Galerkin
convection/diffusion terms, the least-squares penalty weighted by the
stabilization matrix tau per quadrature point, Neumann boundary data, and
the boundary eigenvalue correction that restores coercivity where flow
enters through a Neumann boundary.  Dirichlet data is imposed at the
linear-solver level.

Assembly runs in the real orthonormal mode basis, as for Navier-Stokes:
velocity, source and Neumann modes are checked for conjugate symmetry
where they enter and converted by modes_to_real.  The element operator is
the one the Navier-Stokes momentum block is built from: spectral_real's
gls_tables, evaluated on the quadrature tables of the mesh's ElementData,
and gls_operator of them with rho = 1 and mu = kappa.  The assembled
system is linsolve's layout of 2N-1 real slots per node as it stands:
the solver solves it directly, pins the Dirichlet nodes only, and maps
the solution back by modes_from_real.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

import numpy as np

from . import spectral
from .boundary import add_backflow, boundary_values, check_groups, resolve_dirichlet
from .linsolve import (
    BlockMatrix,
    LinearSolveError,
    SolverConfig,
    assembly_context,
    build_graph,
    gmres,
    layout_pins,
    level_lu_preconditioner,
    pinned_operator,
)
from .mesh import Mesh, c_i_for, facet_quadrature
from .spectral import (
    SpectralCoeffs,
    modes_from_real,
    modes_to_real,
    n_coeffs,
    require_conjugate_symmetry,
    symmetrize_modes,
)
from .spectral_real import (convolution_dense, gls_operator, gls_tables, negative_part_batch,
                            tau_from_modes)

__all__ = [
    "ScalarCase",
    "assemble_scalar",
    "solve_scalar",
    "coercivity_probe",
    "resolve_scalar_dirichlet",
    "CoercivityReport",
]

BCData = Union[np.ndarray, SpectralCoeffs, Callable]


@dataclass
class ScalarCase:
    """Spectral convection-diffusion problem on a velocity field.

    velocity is either a nodal array (n_nodes, dim, 2N-1) of complex mode
    coefficients or a callable mapping points (P, dim) to (P, dim, 2N-1);
    the field is assumed divergence-free.  dirichlet/neumann map facet
    group names to uniform mode vectors (2N-1,), SpectralCoeffs, or
    callables of the node coordinates.  source, if given, maps points to
    per-mode volumetric source values (P, 2N-1) and enters the Galerkin
    term, the strong residual and the right-hand side consistently.
    The nodal velocity, the output of the velocity and source callables
    and the Neumann data must be conjugate-symmetric (ValueError if not).
    """

    kappa: float
    omega: float
    n_modes: int
    velocity: Union[np.ndarray, Callable]
    dirichlet: Dict[str, BCData]
    neumann: Dict[str, BCData] = field(default_factory=dict)
    c_i: Optional[float] = None
    backflow_beta: float = 0.0
    source: Optional[Callable] = None
    galerkin_only: bool = False

    def __post_init__(self):
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if not self.dirichlet:
            raise ValueError("at least one Dirichlet facet group is required")
        if not 0.0 <= self.backflow_beta <= 1.0:
            raise ValueError("backflow_beta must lie in [0, 1]")
        if not callable(self.velocity):
            require_conjugate_symmetry(self.velocity, "nodal velocity")


def _at_points(fn: Callable, points: np.ndarray, what: str) -> np.ndarray:
    """fn, which maps (P, dim) to (P, ..., M), at points (C, Q, dim) in one call: (C, Q, ..., M).

    The output is checked for conjugate symmetry (ValueError names what).
    """
    out = require_conjugate_symmetry(fn(points.reshape(-1, points.shape[-1])), what)
    return out.reshape(points.shape[:-1] + out.shape[1:])


def _velocity(case: ScalarCase, points: np.ndarray, basis: np.ndarray,
              nodes: np.ndarray) -> np.ndarray:
    """Complex velocity modes at every quadrature point of some cells, (C, Q, dim, M).

    points (C, Q, dim) are the physical points, basis (Q, k) the shape
    values there and nodes (C, k) the node ids of the cells (elements or
    facets).
    """
    if callable(case.velocity):
        return _at_points(case.velocity, points, "velocity callable output")
    return np.einsum("qa,ea...->eq...", basis, np.asarray(case.velocity, dtype=complex)[nodes])


def _womersley_warning(case: ScalarCase, mesh: Mesh) -> None:
    if case.omega <= 0.0 or case.n_modes < 2:
        return
    h = float(np.max(mesh.element_data().h))
    beta = h * np.sqrt((case.n_modes - 1) * case.omega / case.kappa)
    if beta >= 1.0:
        warnings.warn(
            f"element Womersley number {beta:.2f} >= 1; expect dispersive error "
            "(refine the mesh or reduce the mode count)")


def assemble_scalar(case: ScalarCase, mesh: Mesh):
    """Assemble the nodal-block system and right-hand side in the real basis.

    Returns (BlockMatrix with (2N-1)^2 real blocks, rhs (n_nodes, 2N-1))
    in the orthonormal real mode coordinates: each block is the real form
    R(K) = Q K Q^H of the complex mode block K, and the rhs is
    modes_to_real of the complex one.  Dirichlet rows are left untouched;
    they are pinned at the solver level.  The element operator is the
    Navier-Stokes momentum block's: the point tables of
    spectral_real.gls_tables (zero tau for galerkin_only), from the
    velocity, source and tau at all quadrature points at once, and
    gls_operator of them with rho = 1 and mu = kappa; the source enters as
    s S with the tables' test function S.  The element arrays are scattered
    once through the mesh's cached plans.
    """
    check_groups(mesh, dirichlet=case.dirichlet, neumann=case.neumann)
    _womersley_warning(case, mesh)
    n, m = case.n_modes, n_coeffs(case.n_modes)
    ed = mesh.element_data()
    ctx = assembly_context(mesh, build_graph)
    blocks = np.zeros((ctx.rows.shape[0], m, m))
    rhs = np.zeros((mesh.n_nodes, m))

    u_q = modes_to_real(_velocity(case, ed.points, ed.basis, mesh.elements)).swapaxes(0, 1)
    if case.galerkin_only:
        taus = np.zeros(u_q.shape[:2] + (m, m))
    else:
        taus = tau_from_modes(u_q, ed.metric, case.kappa, c_i_for(mesh.elem_type, case.c_i), n)
    t, s_w = gls_tables(u_q, taus, ed, case.omega)
    k_el = gls_operator(t, s_w, ed, 1.0, case.kappa)
    del t
    ctx.edges.add_to(blocks, k_el.reshape(-1, m, m))
    if case.source is not None:
        s = modes_to_real(_at_points(case.source, ed.points, "source callable output"))
        ctx.nodes.add_to(rhs, np.matmul(s.reshape(mesh.n_elements, 1, -1), s_w).reshape(-1, m))

    # Neumann flux data
    for name, data in case.neumann.items():
        fq = facet_quadrature(mesh, name)
        what = f"Neumann data of group {name!r}"
        hvals = boundary_values(data, (m,), what, mesh.coords[fq.nodes.ravel()])
        hvals = modes_to_real(require_conjugate_symmetry(hvals, what))
        hvals = np.broadcast_to(hvals, (fq.nodes.size, m)).reshape(fq.nodes.shape + (m,))
        r_el = np.einsum("fq,qa,qb,fbm->fam", fq.weights, fq.shape, fq.shape, hvals)
        np.add.at(rhs, fq.nodes.ravel(), r_el.reshape(-1, m))

    # boundary eigenvalue correction where flow enters a Neumann boundary
    if case.backflow_beta > 0.0:
        for name in case.neumann:
            fq = facet_quadrature(mesh, name)
            un = np.einsum("fqdm,fd->fqm", _velocity(case, fq.points, fq.shape, fq.nodes),
                           fq.normals)
            an_neg = negative_part_batch(convolution_dense(modes_to_real(un), n))
            add_backflow(blocks, ctx, fq, -0.5 * case.backflow_beta, an_neg)

    return BlockMatrix(ctx.rows, ctx.cols, blocks, mesh.n_nodes), rhs


def resolve_scalar_dirichlet(case: ScalarCase, mesh: Mesh):
    """Dirichlet node ids and per-node mode values; later groups override."""
    nodes, vals = resolve_dirichlet(mesh, case.dirichlet, (), (n_coeffs(case.n_modes),))
    return nodes, symmetrize_modes(vals)


def solve_scalar(case: ScalarCase, mesh: Mesh,
                 solver_config: SolverConfig | None = None) -> np.ndarray:
    """Solve for the nodal spectral field, shape (n_nodes, 2N-1) complex.

    The Dirichlet nodes of the real-basis system are pinned, and the
    system is solved by GMRES preconditioned with its level LU factor
    (linsolve.level_lu_preconditioner), factored once.  Every term of the
    system lives in its nodal blocks, so the factor is an exact solve and
    GMRES only checks it.  The returned
    field carries the Dirichlet data exactly and is conjugate-symmetric at
    every node.
    """
    if solver_config is None:
        solver_config = SolverConfig(eps_ls=1e-10, max_linear_iters=50_000)
    system, rhs = assemble_scalar(case, mesh)
    dir_nodes, dir_vals = resolve_scalar_dirichlet(case, mesh)
    y0 = np.zeros((mesh.n_nodes, n_coeffs(case.n_modes)), dtype=complex)
    y0[dir_nodes] = dir_vals
    resid = rhs.ravel() - system.matvec(modes_to_real(y0).ravel())
    pins = layout_pins(mesh.n_nodes, case.n_modes, dir_nodes)
    resid[pins] = 0.0
    op = pinned_operator(system.matvec, pins)
    plan = assembly_context(mesh, build_graph).level_plan()
    precond = level_lu_preconditioner(system, pins, plan)
    res = gmres(op, resid, solver_config.gmres_config(), precond=precond)
    if not res.converged:
        raise LinearSolveError("scalar linear solve did not converge",
                               res.matvecs, res.residuals[-1])
    out = y0 + modes_from_real(res.x.reshape(mesh.n_nodes, -1))
    out[dir_nodes] = dir_vals
    return out


@dataclass(frozen=True)
class CoercivityReport:
    """Energy-norm components of b(w, w) for an admissible test field."""

    boundary: float        # (1/2) |w|^2 over Neumann boundary, A_n metric
    diffusion: float       # kappa * ||grad w||^2
    least_squares: float   # ||Omega w + A_i dw/dx_i||^2 in the tau metric
    b_form: float          # b(w, w) from the assembled operator

    @property
    def total(self) -> float:
        return self.boundary + self.diffusion + self.least_squares


def coercivity_probe(case: ScalarCase, mesh: Mesh, w: np.ndarray) -> CoercivityReport:
    """Split b(w, w) into its boundary, diffusive and penalty parts.

    w must be conjugate-symmetric and satisfy homogeneous Dirichlet data;
    the identity holds when no backflow crosses the Neumann boundary
    (checked, violation raises).  The split is evaluated in complex mode
    arithmetic (spectral's kernels), independently of the real-basis
    assembly; b_form is r^T K r of the assembled operator with
    r = modes_to_real(w), which equals Re w^H K_c w.
    """
    n, m = case.n_modes, n_coeffs(case.n_modes)
    w = require_conjugate_symmetry(np.reshape(w, (mesh.n_nodes, m)), "probe field")
    dir_nodes, _ = resolve_scalar_dirichlet(case, mesh)
    if dir_nodes.size and np.max(np.abs(w[dir_nodes])) > 1e-12 * max(np.max(np.abs(w)), 1.0):
        raise ValueError("probe field must vanish on the Dirichlet boundary")

    boundary = 0.0
    for name in case.neumann:
        fq = facet_quadrature(mesh, name)
        un = np.einsum("fqdm,fd->fqm", _velocity(case, fq.points, fq.shape, fq.nodes),
                       fq.normals)
        an = spectral.convolution_dense(un, n)
        eigs = np.linalg.eigvalsh(an)
        scale = max(np.max(np.abs(eigs)), 1.0)
        if np.min(eigs) < -1e-12 * scale:
            raise ValueError(
                f"backflow on Neumann group {name!r} (min eigenvalue "
                f"{np.min(eigs):.3e}); stability split does not apply")
        wq = fq.interpolate(w)
        boundary += 0.5 * np.einsum("fq,fqm,fqmr,fqr->", fq.weights,
                                    np.conj(wq), an, wq).real

    ed = mesh.element_data()
    we = w[mesh.elements]                                      # (E, nen, M)
    grad_w = np.einsum("ead,eam->edm", ed.grads, we)           # (E, dim, M)
    diffusion = case.kappa * np.einsum("e,edm,edm->", ed.vol, np.conj(grad_w), grad_w).real
    least_squares = 0.0
    if not case.galerkin_only:
        uq = _velocity(case, ed.points, ed.basis, mesh.elements)
        resid = np.einsum("rc,eqc->eqr", spectral.build_omega(n, case.omega), ed.basis @ we) \
            + np.einsum("eqdrc,edc->eqr", spectral.convolution_dense(uq, n), grad_w)
        tau = spectral.tau_from_modes(uq, ed.metric[:, None], case.kappa,
                                      c_i_for(mesh.elem_type, case.c_i), n)
        least_squares = np.einsum("eq,eqr,eqrc,eqc->", ed.wdetj, np.conj(resid), tau,
                                  resid).real

    system, _ = assemble_scalar(case, mesh)
    r = modes_to_real(w).ravel()
    return CoercivityReport(boundary, diffusion, least_squares, float(r @ system.matvec(r)))
