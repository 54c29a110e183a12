"""The spectral kernels in the real orthonormal mode basis.

convolution_dense, build_omega and tau_from_modes mirror the functions of
the same name in spectral (as cmath mirrors math), with the same arguments
and shapes, but mode vectors are the real coordinates r = modes_to_real(z)
of length 2N-1 and every matrix is the real form R(A) = Q A Q^H of its
complex counterpart: convolution matrices and tau are real symmetric,
Omega is real skew-symmetric.  gls_tables builds on them the point tables
of the element Galerkin/least-squares form of the convective-diffusive
system, the linearized strong residual t and the stabilized test function
S, and gls_operator the element stiffness from them.  The scalar assembly
and the Navier-Stokes momentum block share both, and the Navier-Stokes
residual is weighted by the same S.  Both spectral solvers import their
kernels from here.
"""

from __future__ import annotations

import numpy as np

from .spectral import negative_part_batch, real_basis, tau_from_conv

__all__ = ["build_omega", "convolution_dense", "gls_operator", "gls_tables",
           "negative_part_batch", "tau_from_modes"]


def convolution_dense(values: np.ndarray, n_modes: int) -> np.ndarray:
    """Real convolution matrices R(A) of real mode coordinates (..., 2N-1).

    The result appends (2N-1, 2N-1); it is the band-restricted Toeplitz
    matrix of spectral.convolution_dense in the real basis.
    """
    values = np.asarray(values, dtype=float)
    m = values.shape[-1]
    return (values.reshape(-1, m) @ real_basis(n_modes).conv).reshape(values.shape + (m,))


def build_omega(n_modes: int, omega: float) -> np.ndarray:
    """Real skew-symmetric frequency matrix, R(i m omega delta_mn)."""
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    return omega * real_basis(n_modes).omega


def tau_from_modes(u_modes: np.ndarray, metric: np.ndarray, kappa: float,
                   c_i: float, n_modes: int) -> np.ndarray:
    """Real symmetric positive-definite tau from real velocity coordinates.

    u_modes has shape (..., dim, 2N-1) and metric (..., dim, dim); the
    result (..., 2N-1, 2N-1) is R(spectral.tau_from_modes(z, ...)).
    """
    return tau_from_conv(convolution_dense, np.asarray(u_modes, dtype=float), metric, kappa,
                         c_i, n_modes)


def gls_tables(u_q: np.ndarray, w_tau: np.ndarray, ed, omega: float):
    """Point tables of the Galerkin/least-squares form of rho (Omega + A_j d/dx_j) - mu laplace.

    u_q holds the real velocity coordinates entering the A_j at the
    quadrature points, (n_qp, E, dim, 2N-1), w_tau the tau there weighted
    by the point's w detj, (E, n_qp, 2N-1, 2N-1) (zero for plain
    Galerkin), and ed is the mesh's ElementData.  t_B(q) = N_B Omega +
    A_j dN_B/dx_j is the linearized strong residual of node B at point q.
    With tau and the A_j symmetric and Omega skew, the least-squares weight
    (A_j dN_A/dx_j - N_A Omega) tau is (tau t_A(q))^T, so the transposed
    stabilized test function S_A(q) = w (N_A I + tau t_A(q)) weights a
    strong residual f at the points into the rows of node A as
    sum_q S_A(q)^T f(q).  Returns t with t_B(q)[s, c] at
    [e, (q, s), (B, c)] and S with S_A(q)[r, c] at [e, (q, r), (A, c)],
    both (E, n_qp M, nen M).
    """
    n_qp, n_el, dim, m = u_q.shape
    nen = ed.grads.shape[1]
    n = (m + 1) // 2
    omega_mat = build_omega(n, omega)
    diag = np.arange(m)
    t = np.empty((n_el, n_qp, m, nen, m))                   # t_B(q)[s, c] at [e, q, s, B, c]
    for q in range(n_qp):
        conv = convolution_dense(u_q[q], n)                 # (E, dim, M, M), symmetric
        a_dir = np.matmul(ed.grads, conv.reshape(n_el, dim, m * m)).reshape(n_el, nen, m, m)
        t[:, q] = a_dir.swapaxes(1, 2)
        t[:, q] += ed.basis[q][:, None] * omega_mat[:, None, :]
    del conv, a_dir
    s_w = np.matmul(w_tau, t.reshape(n_el, n_qp, m, nen * m)).reshape(n_el, -1, nen * m)
    # w N_A(q) I, with w N_A(q) at [e, q, A]
    s_w.reshape(n_el, n_qp, m, nen, m)[:, :, diag, :, diag] += ed.wdetj[:, :, None] * ed.basis
    return t.reshape(n_el, n_qp * m, nen * m), s_w


def gls_operator(t: np.ndarray, s_w: np.ndarray, ed, rho: float, mu: float) -> np.ndarray:
    """Element stiffness K = rho sum_q S_A^T t_B + mu vol gab I of the gls_tables t and S.

    Returns the block of each node pair, K_AB[r, c] at [e, A, B, r, c],
    (E, nen, nen, M, M), as the edge scatter reads it; it is formed one row
    node A at a time, so no second element-sized copy is made.
    """
    n_el, nen = ed.grads.shape[:2]
    m = t.shape[-1] // nen
    s_nodes = s_w.reshape(n_el, -1, nen, m)
    k_el = np.empty((n_el, nen, nen, m, m))
    for a in range(nen):
        k_a = np.matmul(s_nodes[:, :, a].swapaxes(1, 2), t)       # K_AB[r, c] at [e, r, (B, c)]
        k_el[:, a] = k_a.reshape(n_el, m, nen, m).swapaxes(1, 2)
    k_el *= rho
    diag = np.arange(m)
    k_el[..., diag, diag] += (mu * ed.vol[:, None, None] * ed.gab)[..., None]
    return k_el
