"""Analytic oracles, error norms and regime diagnostics.

The closed-form solutions here are deliberately independent of the solver
code paths: the steady advection-diffusion profile and the oscillatory
channel modes are evaluated from their analytic expressions, and serve as
references in the acceptance studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .mesh import Mesh, c_i_for
from .spectral import convolution_dense, n_coeffs

__all__ = [
    "exact_steady_advection_diffusion_1d",
    "oscillatory_channel_exact",
    "l2_error",
    "observed_order",
    "ErrorReport",
    "refinement_report",
    "DiagnosticNumbers",
    "diagnostics",
]


def exact_steady_advection_diffusion_1d(u: float, kappa: float, L: float,
                                        g: float) -> Callable:
    """phi(x) = g (exp(u x / kappa) - 1) / (exp(u L / kappa) - 1).

    For u = 0 this degenerates to the linear ramp g x / L.  Large Peclet
    numbers are evaluated through shifted exponentials so the profile is
    well defined up to Pe ~ 1e300.
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")

    b = u * L / kappa

    def phi(x):
        x = np.asarray(x, dtype=float)
        if u == 0.0:
            return g * x / L
        a = u * x / kappa
        if abs(b) < 500.0:
            return g * np.expm1(a) / np.expm1(b)
        if b > 0:
            # exp(a-b) * (1 - e^{-a}) / (1 - e^{-b}), all factors bounded
            return g * np.exp(a - b) * (-np.expm1(-a)) / (-np.expm1(-b))
        return g * (-np.expm1(a))  # e^b -> 0

    return phi


def oscillatory_channel_exact(grad_modes: Sequence[complex], rho: float, mu: float,
                              half_width: float, n_modes: int, omega: float) -> Callable:
    """Velocity modes of plane channel flow driven by pressure-gradient modes.

    grad_modes holds (dp/dx)_n for n = 0..N-1.  Mode 0 is the parabolic
    profile; each oscillatory mode solves i rho n w u = -G_n + mu u'' with
    no-slip walls at y = +-half_width:

        u_n(y) = (i G_n / (rho n w)) (1 - cosh(g y)/cosh(g b)),
        g = sqrt(i rho n w / mu).

    The returned callable maps y (P,) to the dense mode array (P, 2N-1).
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    grad = np.asarray(grad_modes, dtype=complex)
    if grad.shape != (n_modes,):
        raise ValueError(f"expected {n_modes} gradient modes, got {grad.shape}")
    b = half_width

    def modes(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape + (n_coeffs(n_modes),), dtype=complex)
        out[..., n_modes - 1] = grad[0] / (2 * mu) * (y**2 - b**2)
        for n in range(1, n_modes):
            gam = np.sqrt(1j * rho * n * omega / mu)
            un = (1j * grad[n] / (rho * n * omega)) * (1 - np.cosh(gam * y) / np.cosh(gam * b))
            out[..., n_modes - 1 + n] = un
            out[..., n_modes - 1 - n] = np.conj(un)
        return out

    return modes


def l2_error(field: np.ndarray, exact: Callable, mesh: Mesh) -> float:
    """Quadrature L2 norm of (field - exact), summed over all modes.

    field holds nodal mode vectors (n_nodes, 2N-1); exact maps physical
    points (P, dim) to the same mode layout.
    """
    field = np.asarray(field, dtype=complex)
    ed = mesh.element_data()
    points = (ed.basis @ mesh.coords[mesh.elements]).reshape(-1, mesh.dim)   # (E Q, dim)
    fh = (ed.basis @ field[mesh.elements]).reshape(points.shape[0], -1)     # (E Q, M)
    fx = np.asarray(exact(points), dtype=complex)
    if fx.shape != fh.shape:
        raise ValueError(f"exact field has shape {fx.shape}, expected {fh.shape}")
    diff = fh - fx
    return float(np.sqrt(np.einsum("p,pm,pm->", ed.wdetj.ravel(), np.conj(diff), diff).real))


def observed_order(errors: Sequence[float], hs: Sequence[float]) -> float:
    """Log-log slope of error versus mesh size (least-squares over levels)."""
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.shape != hs.shape or errors.size < 2:
        raise ValueError("need matching error/h lists with at least two levels")
    if np.any(np.diff(hs) >= 0):
        raise ValueError("mesh sizes must be strictly decreasing")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive to estimate an order")
    slope, _ = np.polyfit(np.log(hs), np.log(errors), 1)
    return float(slope)


@dataclass(frozen=True)
class ErrorReport:
    """Refinement study table: h, L2 error and per-pair observed orders."""

    hs: np.ndarray
    errors: np.ndarray
    pair_orders: np.ndarray
    order: float

    def rows(self):
        out = []
        for i, (h, e) in enumerate(zip(self.hs, self.errors)):
            order = self.pair_orders[i - 1] if i else float("nan")
            out.append((float(h), float(e), float(order)))
        return out


def refinement_report(errors: Sequence[float], hs: Sequence[float]) -> ErrorReport:
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    pair = np.log(errors[:-1] / errors[1:]) / np.log(hs[:-1] / hs[1:])
    return ErrorReport(hs, errors, pair, observed_order(errors, hs))


@dataclass(frozen=True)
class DiagnosticNumbers:
    """Element Peclet numbers and the element Womersley number.

    alpha_e[e] = max over quadrature points of
        sqrt(lambda_max(A_i G_ij A_j) / (C_I kappa^2 G_ij G_ij)),
    alpha is its mesh maximum, and beta = h_max sqrt((N-1) w / kappa).
    """

    alpha_e: np.ndarray
    alpha: float
    beta: float


def diagnostics(case, mesh: Mesh, velocity=None) -> DiagnosticNumbers:
    """Convection/diffusion and oscillation diagnostics for a case.

    case provides kappa (or mu and rho), omega, n_modes and c_i; velocity
    overrides the case velocity field (nodal array or callable).
    """
    kappa = getattr(case, "kappa", None)
    if kappa is None:
        kappa = case.mu / case.rho
    c_i = c_i_for(mesh.elem_type, case.c_i)
    n = case.n_modes
    if velocity is None:
        velocity = case.velocity
    ed = mesh.element_data()
    points = ed.basis @ mesh.coords[mesh.elements]        # (E, Q, dim)
    gg = np.einsum("eij,eij->e", ed.metric, ed.metric)
    alpha_e = np.zeros(mesh.n_elements)
    for q, shp_q in enumerate(ed.basis):
        if callable(velocity):
            uq = np.asarray(velocity(points[:, q]), dtype=complex)
        else:
            uq = np.einsum("a,eadm->edm", shp_q,
                           np.asarray(velocity, dtype=complex)[mesh.elements])
        conv = convolution_dense(uq, n)
        arg = np.einsum("eij,eirs,ejst->ert", ed.metric, conv, conv)
        lam_max = np.linalg.eigvalsh(arg)[:, -1]
        alpha_q = np.sqrt(np.maximum(lam_max, 0.0) / (c_i * kappa**2 * gg))
        alpha_e = np.maximum(alpha_e, alpha_q)
    beta = 0.0
    if case.omega > 0.0 and n > 1:
        beta = float(np.max(ed.h) * np.sqrt((n - 1) * case.omega / kappa))
    return DiagnosticNumbers(alpha_e, float(np.max(alpha_e)), beta)
