"""Mode arithmetic on periodic signals.

A real periodic signal is carried as 2N-1 complex Fourier coefficients
with conjugate symmetry.  Multiplying two signals maps to a Hermitian
Toeplitz convolution matrix, band-limited so no energy aliases back into
the resolved spectrum, and the stabilization matrix of the transport
solvers is an inverse square root built on its eigenvalues.
"""

import numpy as np

from tsfem.spectral import (
    convolution_dense,
    evaluate_field_in_time,
    fourier_coefficients,
    tau_from_modes,
)

period = 0.8
omega = 2 * np.pi / period
t = period * np.arange(64) / 64
signal = 1.0 + 0.6 * np.cos(omega * t) - 0.25 * np.sin(3 * omega * t)

coeffs = fourier_coefficients(signal, n_modes=5)
print("modes 0..4:")
for n in range(5):
    print(f"  n={n}: {coeffs.mode(n):+.4f}")

recon = evaluate_field_in_time(coeffs.values, t, omega)
print(f"round-trip max error: {np.max(np.abs(recon - signal)):.2e}")

# convolution matrix of an unsteady velocity u(t) = 1 + 0.8 cos(w t)
u = fourier_coefficients(1.0 + 0.8 * np.cos(omega * t), n_modes=3)
conv = convolution_dense(u.values, 3)
print("\nconvolution matrix (N=3):")
print(np.array2string(conv, precision=3, suppress_small=True))

eigs = np.linalg.eigvalsh(conv)
print("eigenvalues (real, may be negative when the flow reverses):", np.round(eigs, 3))

# stabilization matrix on a 1D element of size h: tau_from_modes works on
# stacks of points, here one point with one velocity direction
h, kappa = 0.1, 0.05
metric = np.array([[(2.0 / h) ** 2]])
tau = tau_from_modes(u.values[None, None], metric[None], kappa, c_i=9.0, n_modes=3)[0]
tau_eigs = np.linalg.eigvalsh(tau)
print(f"\ntau eigenvalues on h={h}: {np.round(tau_eigs, 5)} (all positive)")
steady = ((2 * 1.0 / h) ** 2 + (12 * kappa / h**2) ** 2) ** -0.5
print(f"steady-flow scalar value for comparison: {steady:.5f}")
