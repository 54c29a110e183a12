"""Time-spectral GLS solver for the convection-diffusion equation.

Per mesh node the unknown is a dense mode vector phi in C^(2N-1); the
weak form couples modes through the velocity convolution matrices A_i.
The assembled operator contains the Galerkin convection/diffusion terms,
the least-squares penalty weighted by the stabilization matrix tau per
quadrature point, Neumann boundary data, and the boundary eigenvalue
correction that restores coercivity where flow enters through a Neumann
boundary.  Dirichlet data is imposed at the linear-solver level.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

import numpy as np

from .linsolve import (
    BlockMatrix,
    SolverConfig,
    assembly_context,
    block_jacobi_preconditioner,
    build_graph,
    from_real,
    gmres,
    pinned_operator,
    to_real,
)
from .mesh import Mesh, facet_quadrature, quadrature_rule, shape_values
from .spectral import (
    SpectralCoeffs,
    build_omega,
    convolution_dense,
    n_coeffs,
    negative_part_batch,
    symmetrize_modes,
    tau_from_modes,
)

__all__ = [
    "ScalarCase",
    "LinearSolveError",
    "default_c_i",
    "assemble_scalar",
    "solve_scalar",
    "coercivity_probe",
    "resolve_scalar_dirichlet",
    "CoercivityReport",
]

BCData = Union[np.ndarray, SpectralCoeffs, Callable]

# Parent-convention constants for the diffusive limit of tau:
# lines use xi in [-1, 1] (parent size 2), simplices the unit simplex.
_C_I = {"line2": 9.0, "tri3": 3.0, "tet4": 3.0}


def default_c_i(elem_type: str) -> float:
    return _C_I[elem_type]


class LinearSolveError(RuntimeError):
    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(f"{message} (matvecs {iterations}, residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


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

    def c_i_for(self, mesh: Mesh) -> float:
        return self.c_i if self.c_i is not None else default_c_i(mesh.elem_type)


def _bc_values(data: BCData, coords: np.ndarray, m: int) -> np.ndarray:
    """Per-node (n, m) complex values from uniform data or a callable."""
    if isinstance(data, SpectralCoeffs):
        data = data.values
    if callable(data):
        vals = np.asarray(data(coords), dtype=complex)
        if vals.shape != (coords.shape[0], m):
            raise ValueError(f"boundary callable returned shape {vals.shape}")
        return vals
    vals = np.asarray(data, dtype=complex)
    if vals.shape != (m,):
        raise ValueError(f"expected {m} modes of boundary data, got shape {vals.shape}")
    return np.tile(vals, (coords.shape[0], 1))


def _velocity_at(case: ScalarCase, mesh: Mesh, elems: np.ndarray,
                 shape_q: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Velocity modes at quadrature points of the given elements, (E, dim, M)."""
    if callable(case.velocity):
        return np.asarray(case.velocity(points), dtype=complex)
    vel = np.asarray(case.velocity, dtype=complex)
    return np.einsum("a,eadm->edm", shape_q, vel[elems])


def _check_groups(case: ScalarCase, mesh: Mesh) -> None:
    for name in list(case.dirichlet) + list(case.neumann):
        if name not in mesh.facet_groups:
            raise ValueError(f"unknown facet group {name!r}")


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
    """Assemble the complex nodal-block system and right-hand side.

    Returns (BlockMatrix with (2N-1)^2 complex blocks, rhs (n_nodes, 2N-1)).
    Dirichlet rows are left untouched; they are pinned at the solver level.
    Per element chunk, the integrands are summed over the quadrature
    points and scattered once through the mesh's cached sorted plan; the
    geometry-only Galerkin terms N_A N_B Omega and kappa gab are formed
    from sum_q w_q N_A N_B and the element volume.
    """
    _check_groups(case, mesh)
    _womersley_warning(case, mesh)
    n, m = case.n_modes, n_coeffs(case.n_modes)
    c_i = case.c_i_for(mesh)
    ed = mesh.element_data()
    ctx = assembly_context(mesh, build_graph)
    rule = quadrature_rule(mesh.elem_type)
    shp = shape_values(mesh.elem_type, rule.points)
    nn_ref = np.einsum("q,qa,qb->ab", rule.weights, shp, shp)
    blocks = np.zeros((ctx.rows.shape[0], m, m), dtype=complex)
    rhs = np.zeros((mesh.n_nodes, m), dtype=complex)
    omega_mat = build_omega(n, case.omega)
    eye = np.eye(m)

    for sl, node_seg, edge_seg in ctx.chunks:
        elems = mesh.elements[sl]
        grads = ed.grads[sl]
        detj = ed.detj[sl]
        metric = ed.metric[sl]
        xe = mesh.coords[elems]
        gab = np.einsum("eai,ebi->eab", grads, grads)
        vol = detj * rule.weights.sum()
        k_el = ((detj[:, None, None] * nn_ref)[..., None, None] * omega_mat
                + (case.kappa * vol[:, None, None] * gab)[..., None, None] * eye)
        r_el = np.zeros(elems.shape + (m,), dtype=complex)
        for q in range(rule.n_points):
            w = rule.weights[q] * detj                       # (E,)
            points = np.einsum("a,eai->ei", shp[q], xe)
            uq = _velocity_at(case, mesh, elems, shp[q], points)
            conv = convolution_dense(uq, n)                  # (E, dim, M, M)
            a_dir = np.einsum("ead,edrc->earc", grads, conv)  # (E, nen, M, M)
            k_q = np.einsum("a,ebrc->eabrc", shp[q], a_dir)
            if not case.galerkin_only:
                tau = tau_from_modes(uq, metric, case.kappa, c_i, n)
                weight = -shp[q][None, :, None, None] * omega_mat[None, None] + a_dir
                p_a = np.matmul(weight, tau[:, None])        # (E, nen, M, M)
                trial = shp[q][None, :, None, None] * omega_mat[None, None] + a_dir
                k_q = k_q + np.matmul(p_a[:, :, None], trial[:, None, :])
            k_el += w[:, None, None, None, None] * k_q
            if case.source is not None:
                s = np.asarray(case.source(points), dtype=complex)  # (E, M)
                r_q = np.einsum("a,em->eam", shp[q], s)
                if not case.galerkin_only:
                    r_q = r_q + np.einsum("earc,ec->ear", p_a, s)
                r_el += w[:, None, None] * r_q
        edge_seg.add_to(blocks, k_el.reshape(-1, m, m))
        if case.source is not None:
            node_seg.add_to(rhs, r_el.reshape(-1, m))

    # Neumann flux data
    for name, data in case.neumann.items():
        fq = facet_quadrature(mesh, name)
        hvals = _bc_values(data, mesh.coords[fq.nodes.ravel()], m)
        hvals = hvals.reshape(fq.nodes.shape + (m,))
        r_el = np.einsum("fq,qa,qb,fbm->fam", fq.weights, fq.shape, fq.shape, hvals)
        np.add.at(rhs, fq.nodes.ravel(), r_el.reshape(-1, m))

    # boundary eigenvalue correction where flow enters a Neumann boundary
    if case.backflow_beta > 0.0:
        _add_scalar_backflow(case, mesh, ctx, blocks)

    return BlockMatrix(ctx.rows, ctx.cols, blocks, mesh.n_nodes), rhs


def _facet_velocity(case: ScalarCase, mesh: Mesh, fq, q: int) -> np.ndarray:
    if callable(case.velocity):
        return np.asarray(case.velocity(fq.points[:, q]), dtype=complex)
    vel = np.asarray(case.velocity, dtype=complex)
    return np.einsum("a,fadm->fdm", fq.shape[q], vel[fq.nodes])


def _add_scalar_backflow(case, mesh, ctx, blocks):
    n, m = case.n_modes, n_coeffs(case.n_modes)
    for name in case.neumann:
        fq = facet_quadrature(mesh, name)
        k = fq.nodes.shape[1]
        k_el = np.zeros(fq.nodes.shape + (k, m, m), dtype=complex)
        for q in range(fq.shape.shape[0]):
            uq = _facet_velocity(case, mesh, fq, q)
            un = np.einsum("fdm,fd->fm", uq, fq.normals)
            an_neg = negative_part_batch(convolution_dense(un, n))
            coeff = -0.5 * case.backflow_beta * fq.weights[:, q]
            k_el += np.einsum("f,a,b,frc->fabrc", coeff, fq.shape[q], fq.shape[q], an_neg)
        np.add.at(blocks, ctx.edge_ids(fq.nodes), k_el.reshape(-1, m, m))


def resolve_scalar_dirichlet(case: ScalarCase, mesh: Mesh):
    """Dirichlet node ids and per-node mode values; later groups override."""
    m = n_coeffs(case.n_modes)
    values: Dict[int, np.ndarray] = {}
    for name, data in case.dirichlet.items():
        fg = mesh.facet_groups[name]
        nodes = np.unique(fg.nodes)
        vals = _bc_values(data, mesh.coords[nodes], m)
        for node, v in zip(nodes, vals):
            values[int(node)] = symmetrize_modes(v)
    node_ids = np.array(sorted(values), dtype=int)
    vals = np.array([values[i] for i in node_ids]) if node_ids.size else np.zeros((0, m), complex)
    return node_ids, vals


def _pins_for(mesh: Mesh, n_modes: int, dirichlet_nodes: np.ndarray) -> np.ndarray:
    pins = np.zeros((mesh.n_nodes, 2 * n_modes), dtype=bool)
    pins[:, 1] = True  # steady imaginary slot
    pins[dirichlet_nodes, :] = True
    return pins.ravel()


def solve_scalar(case: ScalarCase, mesh: Mesh,
                 solver_config: SolverConfig | None = None) -> np.ndarray:
    """Solve for the nodal spectral field, shape (n_nodes, 2N-1) complex.

    The complex system is mapped to real unknowns (modes 0..N-1, real and
    imaginary interleaved), Dirichlet nodes and steady-imaginary slots are
    pinned, and the system is solved with block-Jacobi preconditioned
    GMRES.  The returned field carries the Dirichlet data exactly and is
    conjugate-symmetric at every node.
    """
    if solver_config is None:
        solver_config = SolverConfig(eps_ls=1e-10, max_linear_iters=50_000)
    sys_c, rhs = assemble_scalar(case, mesh)
    dir_nodes, dir_vals = resolve_scalar_dirichlet(case, mesh)
    y0 = np.zeros((mesh.n_nodes, n_coeffs(case.n_modes)), dtype=complex)
    y0[dir_nodes] = dir_vals
    resid = rhs - sys_c.matvec(y0.ravel()).reshape(y0.shape)

    real_sys, real_rhs = to_real(sys_c, resid)
    pins = _pins_for(mesh, case.n_modes, dir_nodes)
    real_rhs[pins] = 0.0
    op = pinned_operator(real_sys.matvec, pins)
    precond = block_jacobi_preconditioner(real_sys, pins)
    res = gmres(op, real_rhs, solver_config.gmres_config(), precond=precond)
    if not res.converged:
        raise LinearSolveError("scalar linear solve did not converge",
                               res.matvecs, res.residuals[-1])
    delta = from_real(res.x.reshape(mesh.n_nodes, -1))
    out = y0 + delta
    out[dir_nodes] = dir_vals
    return out


@dataclass(frozen=True)
class CoercivityReport:
    """Energy-norm components of b(w, w) for an admissible test field."""

    boundary: float        # (1/2) |w|^2 over Neumann boundary, A_n metric
    diffusion: float       # kappa * ||grad w||^2
    least_squares: float   # ||Omega w + A_i dw/dx_i||^2 in the tau metric
    b_form: float          # Re b(w, w) from the assembled operator

    @property
    def total(self) -> float:
        return self.boundary + self.diffusion + self.least_squares


def coercivity_probe(case: ScalarCase, mesh: Mesh, w: np.ndarray) -> CoercivityReport:
    """Split Re b(w, w) into its boundary, diffusive and penalty parts.

    w must satisfy homogeneous Dirichlet data; the identity holds when no
    backflow crosses the Neumann boundary (checked, violation raises).
    """
    n, m = case.n_modes, n_coeffs(case.n_modes)
    w = np.asarray(w, dtype=complex).reshape(mesh.n_nodes, m)
    dir_nodes, _ = resolve_scalar_dirichlet(case, mesh)
    if dir_nodes.size and np.max(np.abs(w[dir_nodes])) > 1e-12 * max(np.max(np.abs(w)), 1.0):
        raise ValueError("probe field must vanish on the Dirichlet boundary")

    boundary = 0.0
    for name in case.neumann:
        fq = facet_quadrature(mesh, name)
        for q in range(fq.shape.shape[0]):
            uq = _facet_velocity(case, mesh, fq, q)
            un = np.einsum("fdm,fd->fm", uq, fq.normals)
            an = convolution_dense(un, n)
            eigs = np.linalg.eigvalsh(an)
            scale = max(np.max(np.abs(eigs)), 1.0)
            if np.min(eigs) < -1e-12 * scale:
                raise ValueError(
                    f"backflow on Neumann group {name!r} (min eigenvalue "
                    f"{np.min(eigs):.3e}); stability split does not apply")
            wq = np.einsum("a,fam->fm", fq.shape[q], w[fq.nodes])
            boundary += 0.5 * np.einsum("f,fm,fmr,fr->", fq.weights[:, q],
                                        np.conj(wq), an, wq).real

    ed = mesh.element_data()
    rule = quadrature_rule(mesh.elem_type)
    shp = shape_values(mesh.elem_type, rule.points)
    omega_mat = build_omega(n, case.omega)
    c_i = case.c_i_for(mesh)
    diffusion = 0.0
    least_squares = 0.0
    we = w[mesh.elements]                                      # (E, nen, M)
    grad_w = np.einsum("ead,eam->edm", ed.grads, we)           # (E, dim, M)
    for q in range(rule.n_points):
        wq = rule.weights[q] * ed.detj
        points = np.einsum("a,eai->ei", shp[q], mesh.coords[mesh.elements])
        uq = _velocity_at(case, mesh, mesh.elements, shp[q], points)
        conv = convolution_dense(uq, n)
        w_at = np.einsum("a,eam->em", shp[q], we)
        diffusion += case.kappa * np.einsum("e,edm,edm->", wq, np.conj(grad_w), grad_w).real
        resid = np.einsum("rc,ec->er", omega_mat, w_at) \
            + np.einsum("edrc,edc->er", conv, grad_w)
        if not case.galerkin_only:
            tau = tau_from_modes(uq, ed.metric, case.kappa, c_i, n)
            least_squares += np.einsum("e,er,erc,ec->", wq, np.conj(resid), tau, resid).real

    sys_c, _ = assemble_scalar(case, mesh)
    b_form = np.vdot(w.ravel(), sys_c.matvec(w.ravel())).real
    return CoercivityReport(boundary, diffusion, least_squares, b_form)
