"""The spectral kernels in the real orthonormal mode basis.

Each function here mirrors the one of the same name in spectral (as
cmath mirrors math), with the same arguments and shapes, but mode vectors
are the real coordinates r = modes_to_real(z) of length 2N-1 and every
matrix is the real form R(A) = Q A Q^H of its complex counterpart:
convolution matrices and tau are real symmetric, Omega is real
skew-symmetric.  The Navier-Stokes assembly imports its kernels from
here.
"""

from __future__ import annotations

import numpy as np

from .spectral import negative_part_batch, real_basis, tau_from_conv

__all__ = ["build_omega", "convolution_dense", "negative_part_batch", "tau_from_modes"]


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
