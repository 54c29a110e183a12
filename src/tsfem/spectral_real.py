"""The spectral kernels in the real orthonormal mode basis.

convolution_dense, build_omega and tau_from_modes mirror the functions of
the same name in spectral (as cmath mirrors math), with the same arguments
and shapes, but mode vectors are the real coordinates r = modes_to_real(z)
of length 2N-1 and every matrix is the real form R(A) = Q A Q^H of its
complex counterpart: convolution matrices and tau are real symmetric,
Omega is real skew-symmetric.  gls_operator builds on them the element
Galerkin/least-squares operator of the convective-diffusive system, which
the scalar assembly and the Navier-Stokes momentum block share.  Both
spectral solvers import their kernels from here.
"""

from __future__ import annotations

import numpy as np

from .spectral import negative_part_batch, real_basis, tau_from_conv

__all__ = ["build_omega", "convolution_dense", "gls_operator", "negative_part_batch",
           "tau_from_modes"]


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
    conv = convolution_dense(u_modes, n_modes)
    return tau_from_conv(conv, metric, kappa, c_i)


def gls_operator(u_q: np.ndarray, taus: np.ndarray, ed, omega: float, rho: float,
                 mu: float):
    """Element Galerkin/least-squares operator of rho (Omega + A_j d/dx_j) - mu laplace.

    u_q holds the real velocity coordinates at the quadrature points,
    (n_qp, E, dim, 2N-1), taus the tau there, (n_qp, E, 2N-1, 2N-1) (zero
    for plain Galerkin), and ed is the mesh's ElementData.  With
    t_B(q) = N_B Omega + A_j dN_B/dx_j the linearized strong residual of
    node B at point q, and tau and the A_j symmetric and Omega skew, the
    least-squares weight P_A(q) = (A_j dN_A/dx_j - N_A Omega) tau is the
    transpose of tau t_A(q).  So one array per point, the transposed test
    weight S_A(q) = w (N_A I + tau t_A(q)), gives
    K = rho sum_q S_A^T t_B + mu vol gab I, and a right-hand side f at the
    points enters as sum_q S_A^T f.  Returns K at [e, A, r, B, c],
    (E, nen, M, nen, M), and S with S_A(q)[r, c] at [e, (q, r), (A, c)],
    (E, n_qp M, nen M).
    """
    n_qp, n_el, dim, m = u_q.shape
    nen = ed.grads.shape[1]
    n = (m + 1) // 2
    omega_mat = build_omega(n, omega)
    diag = np.arange(m)
    t_st = np.empty((n_el, n_qp, m, nen, m))                # t_B(q)[s, c] at [e, q, s, B, c]
    for q in range(n_qp):
        conv = convolution_dense(u_q[q], n)                 # (E, dim, M, M), symmetric
        a_dir = np.matmul(ed.grads, conv.reshape(n_el, dim, m * m)).reshape(n_el, nen, m, m)
        t_st[:, q] = a_dir.swapaxes(1, 2)
        t_st[:, q] += ed.basis[q][:, None] * omega_mat[:, None, :]
    del conv, a_dir
    w_tau = (ed.wdetj.T[:, :, None, None] * taus).swapaxes(0, 1)   # (E, n_qp, M, M)
    s_w = np.matmul(w_tau, t_st.reshape(n_el, n_qp, m, nen * m)).reshape(n_el, -1, nen * m)
    # w N_A(q) I, with w N_A(q) at [e, q, A]
    s_w.reshape(n_el, n_qp, m, nen, m)[:, :, diag, :, diag] += ed.wdetj[:, :, None] * ed.basis
    k_el = np.matmul(s_w.swapaxes(1, 2), t_st.reshape(n_el, n_qp * m, nen * m))
    del t_st
    k_el *= rho
    k_el = k_el.reshape(n_el, nen, m, nen, m)
    k_el[:, :, diag, :, diag] += (mu * ed.vol[:, None, None] * ed.gab)[None]
    return k_el, s_w
