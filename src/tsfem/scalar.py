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
where they enter and converted by modes_to_real, and the kernels come
from spectral_real.  The solver maps the system to linsolve's layout of
2N-1 real slots per node, (Re phi_0, Re phi_1, Im phi_1, ...), through
block_from_orthonormal and rhs_from_orthonormal, and pins the Dirichlet
nodes only.
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
    block_from_orthonormal,
    build_graph,
    from_real,
    gmres,
    layout_pins,
    level_lu_preconditioner,
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
from .spectral_real import build_omega, convolution_dense, negative_part_batch, tau_from_modes

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


def _velocity_at(case: ScalarCase, elems: np.ndarray, shape_q: np.ndarray,
                 points: np.ndarray) -> np.ndarray:
    """Complex velocity modes at one quadrature point of the given elements, (E, dim, M)."""
    if callable(case.velocity):
        return require_conjugate_symmetry(case.velocity(points), "velocity callable output")
    return np.einsum("a,eadm->edm", shape_q, np.asarray(case.velocity, dtype=complex)[elems])


def _facet_velocity(case: ScalarCase, fq) -> np.ndarray:
    """Complex velocity modes at every facet quadrature point, (F, Q, dim, M)."""
    if callable(case.velocity):
        u = case.velocity(fq.points.reshape(-1, fq.points.shape[-1]))
        u = require_conjugate_symmetry(u, "velocity callable output")
        return u.reshape(fq.points.shape[:2] + u.shape[1:])
    return fq.interpolate(np.asarray(case.velocity, dtype=complex))


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
    they are pinned at the solver level.  The integrands are summed over
    the quadrature points and scattered once through the mesh's cached
    plans; the geometry-only Galerkin terms N_A N_B Omega and kappa gab
    are formed from the element mass matrices of mesh.element_data() and
    the element volume.
    """
    check_groups(mesh, dirichlet=case.dirichlet, neumann=case.neumann)
    _womersley_warning(case, mesh)
    n, m = case.n_modes, n_coeffs(case.n_modes)
    c_i = c_i_for(mesh.elem_type, case.c_i)
    ed = mesh.element_data()
    ctx = assembly_context(mesh, build_graph)
    rule = quadrature_rule(mesh.elem_type)
    shp = shape_values(mesh.elem_type, rule.points)
    blocks = np.zeros((ctx.rows.shape[0], m, m))
    rhs = np.zeros((mesh.n_nodes, m))
    omega_mat = build_omega(n, case.omega)
    eye = np.eye(m)

    elems, grads, detj = mesh.elements, ed.grads, ed.detj
    xe = mesh.coords[elems]
    gab = np.einsum("eai,ebi->eab", grads, grads)
    vol = detj * rule.weights.sum()
    k_el = (ed.mass[..., None, None] * omega_mat
            + (case.kappa * vol[:, None, None] * gab)[..., None, None] * eye)
    r_el = np.zeros(elems.shape + (m,))
    for q in range(rule.n_points):
        w = rule.weights[q] * detj                           # (E,)
        points = np.einsum("a,eai->ei", shp[q], xe)
        uq = modes_to_real(_velocity_at(case, elems, shp[q], points))
        conv = convolution_dense(uq, n)                      # (E, dim, M, M)
        a_dir = np.einsum("ead,edrc->earc", grads, conv)     # (E, nen, M, M)
        k_q = np.einsum("a,ebrc->eabrc", shp[q], a_dir)
        if not case.galerkin_only:
            tau = tau_from_modes(uq, ed.metric, case.kappa, c_i, n)
            weight = -shp[q][None, :, None, None] * omega_mat[None, None] + a_dir
            p_a = np.matmul(weight, tau[:, None])            # (E, nen, M, M)
            trial = shp[q][None, :, None, None] * omega_mat[None, None] + a_dir
            k_q = k_q + np.matmul(p_a[:, :, None], trial[:, None, :])
        k_el += w[:, None, None, None, None] * k_q
        if case.source is not None:
            s = modes_to_real(require_conjugate_symmetry(case.source(points),
                                                         "source callable output"))
            r_q = np.einsum("a,em->eam", shp[q], s)
            if not case.galerkin_only:
                r_q = r_q + np.einsum("earc,ec->ear", p_a, s)
            r_el += w[:, None, None] * r_q
    ctx.edges.add_to(blocks, k_el.reshape(-1, m, m))
    if case.source is not None:
        ctx.nodes.add_to(rhs, r_el.reshape(-1, m))

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
            un = np.einsum("fqdm,fd->fqm", _facet_velocity(case, fq), fq.normals)
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

    The real-basis system is mapped to the solve layout (Re phi_0,
    Re phi_1, Im phi_1, ...), the Dirichlet nodes are pinned, and the
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
    resid = rhs - system.matvec(modes_to_real(y0).ravel()).reshape(rhs.shape)

    layout = BlockMatrix(system.rows, system.cols, block_from_orthonormal(system.blocks),
                         mesh.n_nodes)
    layout_rhs = rhs_from_orthonormal(resid).ravel()
    pins = layout_pins(mesh.n_nodes, case.n_modes, dir_nodes)
    layout_rhs[pins] = 0.0
    op = pinned_operator(layout.matvec, pins)
    plan = assembly_context(mesh, build_graph).level_plan(layout.block_size)
    precond = level_lu_preconditioner(layout, pins, plan)
    res = gmres(op, layout_rhs, solver_config.gmres_config(), precond=precond)
    if not res.converged:
        raise LinearSolveError("scalar linear solve did not converge",
                               res.matvecs, res.residuals[-1])
    out = y0 + from_real(res.x.reshape(mesh.n_nodes, -1))
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
        un = np.einsum("fqdm,fd->fqm", _facet_velocity(case, fq), fq.normals)
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
    rule = quadrature_rule(mesh.elem_type)
    shp = shape_values(mesh.elem_type, rule.points)
    omega_mat = spectral.build_omega(n, case.omega)
    c_i = c_i_for(mesh.elem_type, case.c_i)
    diffusion = 0.0
    least_squares = 0.0
    we = w[mesh.elements]                                      # (E, nen, M)
    grad_w = np.einsum("ead,eam->edm", ed.grads, we)           # (E, dim, M)
    for q in range(rule.n_points):
        wq = rule.weights[q] * ed.detj
        points = np.einsum("a,eai->ei", shp[q], mesh.coords[mesh.elements])
        uq = _velocity_at(case, mesh.elements, shp[q], points)
        conv = spectral.convolution_dense(uq, n)
        w_at = np.einsum("a,eam->em", shp[q], we)
        diffusion += case.kappa * np.einsum("e,edm,edm->", wq, np.conj(grad_w), grad_w).real
        resid = np.einsum("rc,ec->er", omega_mat, w_at) \
            + np.einsum("edrc,edc->er", conv, grad_w)
        if not case.galerkin_only:
            tau = spectral.tau_from_modes(uq, ed.metric, case.kappa, c_i, n)
            least_squares += np.einsum("e,er,erc,ec->", wq, np.conj(resid), tau, resid).real

    system, _ = assemble_scalar(case, mesh)
    r = modes_to_real(w).ravel()
    return CoercivityReport(boundary, diffusion, least_squares, float(r @ system.matvec(r)))
