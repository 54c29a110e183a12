"""Fourier-mode arithmetic for time-periodic fields.

A real T-periodic signal f(t) is represented by the truncated series

    f(t) = sum_{|n| < N} f_n exp(i n w t),        w = 2*pi/T,

with conjugate symmetry f_{-n} = conj(f_n), so only the N modes
n = 0..N-1 are independent.  Coefficient vectors are stored densely with
length M = 2N-1 and index order n = -N+1, ..., 0, ..., N-1.

Multiplication of two such series maps to a Hermitian Toeplitz
convolution matrix that is band-restricted to |m - n| < N, which keeps
products inside the resolved spectrum (no aliasing).  The stabilization
matrix for the solvers is an inverse matrix square root of a Hermitian
positive-definite combination of convolution matrices and the element
metric tensor; it is evaluated by a coupled Newton-Schulz iteration of
batched matrix products, which stops once err = ||ZY - I||_F has
err^2 <= 4 eps at every point or no longer falls, and where the argument
may be ill-conditioned an exact Newton step whose correction comes from a
sign iteration of the same products (tau_from_conv, _newton_correction).
The eigensolver functions here (hermitian_eig, matrix_inv_sqrt,
matrix_negative_part) are the references the tests compare against.

Real basis.  A conjugate-symmetric vector z has the orthonormal real
coordinates

    r = (z_0, sqrt2 Re z_1, sqrt2 Im z_1, ..., sqrt2 Re z_{N-1}, sqrt2 Im z_{N-1}),

r = Q z with Q unitary, so |r| = |z| and an operator A on modes maps to
the real matrix R(A) = Q A Q^H, with R(AB) = R(A) R(B).  Convolution
matrices and tau become real symmetric and Omega real skew-symmetric
(the Fourier pair of each mode becomes its cos/sin pair, as in
harmonic-balance solvers).  modes_to_real and modes_from_real convert
vectors in O(M); real_basis(N) holds the per-N tables, built once and
cached: Q, the convolution as a linear map of r, and Omega.  The
kernels that act on real coordinates live in spectral_real under the
names of their complex counterparts here; tau_from_conv is the one tau
implementation both share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "SpectralCoeffs",
    "EigenDecomposition",
    "fourier_coefficients",
    "evaluate_field_in_time",
    "build_omega",
    "hermitian_eig",
    "matrix_inv_sqrt",
    "matrix_negative_part",
    "convolution_dense",
    "tau_from_modes",
    "tau_from_conv",
    "RealBasis",
    "real_basis",
    "modes_to_real",
    "modes_from_real",
    "symmetrize_modes",
    "check_conjugate_symmetry",
    "require_conjugate_symmetry",
]

_SYM_TOL = 1e-10
_SQRT2 = np.sqrt(2.0)


def n_coeffs(n_modes: int) -> int:
    """Length of the dense coefficient vector, M = 2N - 1."""
    return 2 * n_modes - 1


def mode_index(n: int, n_modes: int) -> int:
    """Array index of mode n in the dense ordering n = -N+1..N-1."""
    return n + n_modes - 1


def check_conjugate_symmetry(values: np.ndarray) -> float:
    """Return the relative conjugate-symmetry defect of coefficient vectors.

    values[..., -n] must equal conj(values[..., n]); leading axes are
    batch axes.  The defect is measured in the max norm relative to the
    largest coefficient magnitude of the whole array (0 for zeros).
    """
    values = np.asarray(values)
    scale = np.max(np.abs(values)) if values.size else 0.0
    if scale == 0.0:
        return 0.0
    defect = np.max(np.abs(values - np.conj(values[..., ::-1])))
    return float(defect / scale)


def require_conjugate_symmetry(values: np.ndarray, what: str) -> np.ndarray:
    """Complex mode values (..., 2N-1), checked for conjugate symmetry.

    A check_conjugate_symmetry defect over 1e-10 raises a ValueError
    naming the input `what`; modes_to_real would drop it silently, as it
    reads the modes n >= 0 only.
    """
    values = np.asarray(values, dtype=complex)
    defect = check_conjugate_symmetry(values)
    if defect > _SYM_TOL:
        raise ValueError(f"{what} violates conjugate symmetry (defect {defect:.3e})")
    return values


def symmetrize_modes(values: np.ndarray) -> np.ndarray:
    """Project coefficient vectors (..., 2N-1) onto exact conjugate symmetry."""
    values = np.asarray(values, dtype=complex)
    return 0.5 * (values + np.conj(values[..., ::-1]))


@dataclass(frozen=True)
class SpectralCoeffs:
    """Dense Fourier coefficient vector of a real periodic quantity.

    values has length 2*n_modes - 1 ordered n = -N+1..N-1 and satisfies
    values[-n] = conj(values[n]) exactly (enforced at construction).
    """

    n_modes: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (n_coeffs(self.n_modes),):
            raise ValueError(
                f"expected {n_coeffs(self.n_modes)} coefficients, got shape {vals.shape}"
            )
        vals = require_conjugate_symmetry(vals, "coefficient vector")
        object.__setattr__(self, "values", symmetrize_modes(vals))

    @classmethod
    def zeros(cls, n_modes: int) -> "SpectralCoeffs":
        return cls(n_modes, np.zeros(n_coeffs(n_modes), dtype=complex))

    @classmethod
    def from_positive_modes(cls, pos: Sequence[complex]) -> "SpectralCoeffs":
        """Build from the independent modes n = 0..N-1 (mode 0 imag discarded)."""
        pos = np.asarray(pos, dtype=complex)
        n_modes = pos.shape[0]
        vals = np.concatenate([np.conj(pos[:0:-1]), [pos[0].real], pos[1:]])
        return cls(n_modes, vals)

    def mode(self, n: int) -> complex:
        return complex(self.values[mode_index(n, self.n_modes)])

    def __len__(self) -> int:
        return self.values.shape[0]


def fourier_coefficients(samples: np.ndarray, n_modes: int) -> SpectralCoeffs:
    """Fourier coefficients of uniform real samples over one period.

    The samples must cover exactly one period without repeating the end
    point; the coefficients are the discrete sums

        f_n = (1/S) sum_k samples[k] exp(-2*pi*i*n*k/S),

    which is the rectangle rule for (1/T) int f(t) exp(-i n w t) dt and
    is spectrally accurate on a periodic grid.  Conjugate symmetry is
    exact by computing n >= 0 only and mirroring.

    Parameters
    ----------
    samples : (S,) real array, S >= 2*(2*n_modes - 1)
    n_modes : number of independent modes N
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    n_samp = samples.shape[0]
    if n_samp < 2 * n_coeffs(n_modes):
        raise ValueError(
            f"need at least {2 * n_coeffs(n_modes)} samples for N={n_modes}, got {n_samp}"
        )
    k = np.arange(n_samp)
    n = np.arange(n_modes)
    phase = np.exp(-2j * np.pi * np.outer(n, k) / n_samp)
    pos = phase @ samples / n_samp
    return SpectralCoeffs.from_positive_modes(pos)


def evaluate_field_in_time(values: np.ndarray, t, omega: float) -> np.ndarray:
    """Real signal sum_n values[..., n] exp(i n w t) of modes with trailing axis 2N-1.

    t is a time or an array of times; the result has shape
    t.shape + values.shape[:-1] (a numpy scalar for a scalar t and a
    single mode vector).  The imaginary residue of the complex sum
    vanishes by conjugate symmetry; only the real part is returned.
    """
    values = np.asarray(values, dtype=complex)
    t = np.asarray(t, dtype=float)
    m = values.shape[-1]
    n = np.arange(-(m // 2), m // 2 + 1)
    phase = np.exp(np.multiply.outer(t, 1j * omega * n)).reshape(-1, m)   # (T, M)
    out = np.moveaxis((values @ phase.T).real, -1, 0)                     # (T, ...)
    return out.reshape(t.shape + values.shape[:-1])[()]


def _band_indices(n_modes: int):
    """Index matrix r-c+N-1 and the band mask |r-c| < N for dense fills."""
    m = n_coeffs(n_modes)
    diff = np.subtract.outer(np.arange(m), np.arange(m))
    mask = np.abs(diff) < n_modes
    idx = np.clip(diff + n_modes - 1, 0, m - 1)  # out-of-band entries zeroed below
    return idx, mask


def convolution_dense(values: np.ndarray, n_modes: int) -> np.ndarray:
    """Dense band-restricted Toeplitz matrix A_mn = u_{m-n}, |m-n| < N.

    values may carry leading batch dimensions; the result appends (M, M).
    """
    values = np.asarray(values, dtype=complex)
    idx, mask = _band_indices(n_modes)
    dense = values[..., idx]
    dense[..., ~mask] = 0.0
    return dense


def build_omega(n_modes: int, omega: float) -> np.ndarray:
    """Diagonal frequency matrix Omega_mm = i*m*omega (skew-Hermitian)."""
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    n = np.arange(-n_modes + 1, n_modes)
    return np.diag(1j * n * omega)


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(matrix: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition H = V diag(L) V^H of a Hermitian matrix.

    Eigenvalues are real and ascending, V is unitary.  Input that is not
    Hermitian within 1e-10 relative is rejected.
    """
    matrix = np.asarray(matrix, dtype=complex)
    scale = np.linalg.norm(matrix)
    defect = np.linalg.norm(matrix - matrix.conj().T)
    if scale > 0 and defect > 1e-10 * scale:
        raise ValueError(f"matrix is not Hermitian (defect {defect / scale:.3e})")
    w, v = np.linalg.eigh(matrix)
    return EigenDecomposition(w, v)


def matrix_inv_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Inverse matrix square root of a Hermitian positive-definite matrix."""
    w, v = hermitian_eig(matrix)
    if w[0] <= 0.0:
        raise ValueError(f"matrix is not positive definite (min eigenvalue {w[0]:.6e})")
    out = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def matrix_negative_part(matrix: np.ndarray) -> np.ndarray:
    """Negative part |H|_- = (H - |H|)/2, clipping eigenvalues at zero.

    The clip threshold is exactly zero so the result vanishes identically
    for positive semi-definite input.
    """
    w, v = hermitian_eig(matrix)
    w_neg = np.minimum(w, 0.0)
    if not np.any(w_neg < 0.0):
        return np.zeros_like(np.asarray(matrix, dtype=complex))
    out = (v * w_neg) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes (a view for real input)."""
    return np.swapaxes(a, -1, -2).conj()


def negative_part_batch(matrices: np.ndarray) -> np.ndarray:
    """Batched matrix_negative_part over stacked Hermitian or real symmetric matrices."""
    w, v = np.linalg.eigh(matrices)
    out = (v * np.minimum(w, 0.0)[..., None, :]) @ _adjoint(v)
    return 0.5 * (out + _adjoint(out))


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a stack of square matrices (B, M, M)."""
    return a.reshape(a.shape[0], -1)[:, ::a.shape[-1] + 1]


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norms of a stack of matrices (B, M, M), shape (B,)."""
    flat = a.reshape(a.shape[0], -1)
    return np.sqrt(np.einsum("bi,bi->b", flat.conj(), flat).real)


def _row_sum_norm(a: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Row-sum norms ||a||_inf of a stack of matrices (B, M, M), shape (B,).

    work is a scratch array of a's shape and dtype.
    """
    m = a.shape[-1]
    sums = (np.abs(a, out=work).reshape(-1, m) @ np.ones(m)).real
    return sums.reshape(-1, m).max(axis=-1, initial=0.0)


def _newton_correction(fac: np.ndarray, shift: np.ndarray, root_c: np.ndarray,
                       x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Correction D of one Newton step on X arg X = I, for tau_from_conv.

    fac holds the C_k, (B, dim, M, M), of arg = sum_k C_k C_k + sI, shift
    is s and root_c sqrt(c), (B, 1, 1); y and z are the converged pair
    Y = (arg/c)^{1/2}, Z = Y^{-1}, and x = Z/sqrt(c).  The residual
    E = X (F^H (F X) + sX) - I is formed with the factor F = [C_1; ...],
    not with arg, and D solves S D + D S = -E for S = arg^{1/2} = sqrt(c) Y,
    so D = D'/sqrt(c) with Y D' + D' Y = -E.  D' comes from the sign
    iteration of M = [[P, W], [0, -P]], which from P = Y, W = E tends to
    [[I, -2D'], [0, -I]].  Its first step is the Newton step
    M <- (M + M^{-1})/2, with Z for Y^{-1}; it leaves P >= I, and P^2 below
    (1 + r) I for r = ||P^2 - I||_F, so P is scaled into (0, sqrt2] for the
    Newton-Schulz steps M <- M (3I - M^2)/2 that follow.  W is within
    r ||W||_F / sqrt(1 - r) of its limit once r < 1, so they stop when that
    is at most 2 eps ||Z||_F at every point (D within eps ||X||_F), or when
    r no longer falls.
    """
    u = x * shift[:, None, None]                             # F^H (F X) + sX
    for k in range(fac.shape[1]):
        u += fac[:, k] @ (fac[:, k] @ x)
    e = x @ u
    _diagonal(e)[:] -= 1.0
    p = 0.5 * (y + z)
    w = 0.5 * (e + z @ e @ z)
    r = p @ p
    _diagonal(r)[:] -= 1.0
    nu = np.sqrt(np.maximum(0.5 * (1.0 + _frobenius(r)), 1.0))[:, None, None]
    p /= nu
    w /= nu
    target = 2.0 * np.finfo(float).eps * _frobenius(z)
    previous = np.inf
    while True:
        r = p @ p
        _diagonal(r)[:] -= 1.0
        r_norm = _frobenius(r)
        worst = float(np.max(r_norm, initial=0.0))
        if (np.all(r_norm * _frobenius(w) <= target * np.sqrt(np.maximum(1.0 - r_norm, 0.0)))
                or not worst < previous):
            return w / (-2.0 * root_c)
        previous = worst
        wr = w @ r
        w = 0.5 * (w - wr - _adjoint(wr) + p @ w @ p)
        p -= 0.5 * (p @ r)


def tau_from_conv(conv: Callable, u_modes: np.ndarray, metric: np.ndarray, kappa: float,
                  c_i: float, n_modes: int) -> np.ndarray:
    """tau = [A_i G_ij A_j + C_I k^2 G_ij G_ij I]^{-1/2}, A_i = conv(u_i, n_modes).

    conv is the convolution_dense of a mode basis: complex Hermitian
    matrices of complex modes, or real symmetric ones of real coordinates;
    u_modes is (..., dim, M) in that basis and metric (..., dim, dim),
    symmetric positive definite.  With G = L L^T, A_i G_ij A_j = F^H F for
    the stacked factor F = [C_1; ...; C_dim] of the Hermitian
    C_k = sum_i L_ik A_i, which is conv(sum_i L_ik u_i) as conv is linear,
    and s = C_I k^2 G_ij G_ij, so the argument is
    arg = sum_k C_k C_k + sI.  Its inverse square root comes
    from matrix products alone, by the coupled Newton-Schulz iteration
    (Higham, Functions of Matrices, 2008, ch. 6): each point is scaled by
    c = (||arg||_inf + s)/2, which puts the spectrum of Y = arg/c in
    (0, 2), and from Z = I the steps T = (3I - ZY)/2, Y <- YT, Z <- TZ
    take Y to (arg/c)^{1/2} and Z to (arg/c)^{-1/2}.  The iteration stops
    once the largest err = ||ZY - I||_F of the batch has err^2 <= 4 eps, or
    when err no longer falls; one more step on Z alone then leaves
    X = Z/sqrt(c) with the rounding of the formed arg only, about
    eps * cond(arg) relative.  As cond(arg) <= 2 ||Z||_inf^2, where that
    bound is at most 16 the rounding is within 4 eps sqrt(cond(arg)) and
    tau = X, symmetrized; at the other points one Newton step on
    X arg X = I, with its residual formed from F (_newton_correction),
    brings tau to about eps * sqrt(cond(arg))
    relative plus the step's quadratic term in eps * cond(arg), the
    accuracy of an eigendecomposition followed by the same Newton step.
    The result has the dtype of conv's matrices.  A non-finite argument
    raises a ValueError, and so does a singular one (the iteration stalls
    with ||ZY - I||_F >= 1/2).
    """
    metric = np.asarray(metric, dtype=float)
    lower_t = np.swapaxes(np.linalg.cholesky(metric), -1, -2)
    fac = conv(np.matmul(lower_t, u_modes), n_modes)
    batch, dim, m = fac.shape[:-3], fac.shape[-3], fac.shape[-1]
    fac = fac.reshape((-1, dim, m, m))                       # C_k at [b, k]
    shift = np.broadcast_to(c_i * kappa**2 * np.einsum("...ij,...ij->...", metric, metric),
                            batch).ravel()
    y, p, z, work = (np.empty(fac.shape[:1] + (m, m), dtype=fac.dtype) for _ in range(4))
    np.matmul(fac[:, 0], fac[:, 0], out=y)
    for k in range(1, dim):
        y += np.matmul(fac[:, k], fac[:, k], out=p)
    _diagonal(y)[:] += shift[:, None]
    # ||arg||_inf >= lambda_max and s <= lambda_min; a zero argument keeps Y = 0
    scale = 0.5 * (_row_sum_norm(y, p) + shift)
    if not np.isfinite(scale).all():
        raise ValueError("non-finite stabilization argument (velocity or metric not finite)")
    scale = np.maximum(scale, np.finfo(float).tiny)
    y /= scale[:, None, None]
    # the first step, from Z = I: Z = T = (3I - Y)/2
    np.multiply(y, -0.5, out=z)
    _diagonal(z)[:] += 1.5
    np.matmul(y, z, out=work)
    y, work = work, y
    p_diag = _diagonal(p)
    previous = np.inf
    while True:
        np.matmul(z, y, out=p)
        p_diag -= 1.0
        err = float(np.max(_frobenius(p), initial=0.0))
        if err**2 <= 4.0 * np.finfo(float).eps or not err < previous:
            break
        previous = err
        p *= -0.5                                            # T = I - (ZY - I)/2
        p_diag += 1.0
        np.matmul(y, p, out=work)
        y, work = work, y
        np.matmul(p, z, out=work)
        z, work = work, z
    if err >= 0.5:
        raise ValueError(
            "singular stabilization argument (zero velocity with kappa = 0?); "
            f"||ZY - I||_F = {err:.3e} where the iteration stalled"
        )
    p *= -0.5                                                # one more step, on Z alone
    p_diag += 1.0
    np.matmul(p, z, out=work)
    z, work = work, z
    root_c = np.sqrt(scale)[:, None, None]
    x = np.divide(z, root_c, out=work)
    # cond(arg) <= 2 ||Z||_inf^2; the Newton step where it may exceed 16
    ill = np.flatnonzero(2.0 * _row_sum_norm(z, p) ** 2 > 16.0)
    if ill.size:
        x[ill] += _newton_correction(fac[ill], shift[ill], root_c[ill], x[ill], y[ill], z[ill])
    tau = np.add(x, _adjoint(x), out=p)
    tau *= 0.5
    return tau.reshape(batch + (m, m))


def tau_from_modes(u_modes: np.ndarray, metric: np.ndarray, kappa: float,
                   c_i: float, n_modes: int) -> np.ndarray:
    """Stabilization matrices tau = [A_i G_ij A_j + C_I k^2 G_ij G_ij I]^{-1/2}.

    Batched over quadrature points: u_modes has shape (..., dim, 2N-1) and
    metric (..., dim, dim); the result is (..., 2N-1, 2N-1) Hermitian
    positive definite (see tau_from_conv).
    """
    return tau_from_conv(convolution_dense, np.asarray(u_modes, dtype=complex), metric,
                         kappa, c_i, n_modes)


# ---------------------------------------------------------------------------
# real orthonormal basis
# ---------------------------------------------------------------------------

def modes_to_real(values: np.ndarray) -> np.ndarray:
    """Orthonormal real coordinates of conjugate-symmetric modes (..., 2N-1).

    The result (..., 2N-1) is (z_0, sqrt2 Re z_1, sqrt2 Im z_1, ...); only
    the modes n >= 0 are read, and the imaginary part of z_0 is dropped.
    """
    values = np.asarray(values)
    n = (values.shape[-1] + 1) // 2
    pos = values[..., n - 1:]
    out = np.empty(values.shape, dtype=float)
    out[..., 0] = pos[..., 0].real
    out[..., 1::2] = _SQRT2 * pos[..., 1:].real
    out[..., 2::2] = _SQRT2 * pos[..., 1:].imag
    return out


def modes_from_real(real: np.ndarray) -> np.ndarray:
    """Conjugate-symmetric modes (..., 2N-1) of orthonormal real coordinates."""
    real = np.asarray(real, dtype=float)
    n = (real.shape[-1] + 1) // 2
    pos = np.empty(real.shape[:-1] + (n,), dtype=complex)
    pos[..., 0] = real[..., 0]
    pos[..., 1:] = (real[..., 1::2] + 1j * real[..., 2::2]) / _SQRT2
    return np.concatenate([np.conj(pos[..., :0:-1]), pos], axis=-1)


@dataclass(frozen=True)
class RealBasis:
    """Per-N tables of the real orthonormal basis (read-only arrays).

    unitary is Q with r = Q z; conv maps real coordinates to convolution
    matrices, R(A(z)) = (r @ conv).reshape(M, M), built from
    convolution_dense so the band limit is the same; omega is
    R(build_omega(N, 1)), real skew-symmetric with the 2x2 block
    [[0, -n], [n, 0]] on the cos/sin pair of mode n.  samples (P, M) gives
    the values of a series at the P = 3N-2 equispaced phases 2 pi k / P:
    with P >= 2N-1, samples^T samples = P I, and since the product of two
    series has modes up to 2N-2, none of which aliases onto |n| < N at
    3N-2 samples, samples^T (samples a * samples b) / P = R(A(a)) b, the
    band-restricted product.
    """

    n_modes: int
    unitary: np.ndarray = field(repr=False)   # (M, M) complex
    conv: np.ndarray = field(repr=False)      # (M, M*M) real
    omega: np.ndarray = field(repr=False)     # (M, M) real
    samples: np.ndarray = field(repr=False)   # (3N-2, M) real

    def matrix(self, a: np.ndarray) -> np.ndarray:
        """R(A) = Q A Q^H of mode operators (..., M, M); see _real_form.

        This is the real block that linsolve's solve layout, these
        coordinates, holds for a complex mode-coupled operator: the
        reference the real-basis assemblies are tested against.
        """
        return _real_form(self.unitary, a)



def _real_form(q: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Q A Q^H, real for operators that keep conjugate symmetry.

    Operators with A[-m, -n] != conj(A[m, n]) beyond 1e-10 relative have
    no real form and are rejected.
    """
    out = q @ np.asarray(a, dtype=complex) @ q.conj().T
    scale = np.max(np.abs(out)) if out.size else 0.0
    if scale > 0 and np.max(np.abs(out.imag)) > 1e-10 * scale:
        raise ValueError("operator does not preserve conjugate symmetry")
    return out.real


@lru_cache(maxsize=None)
def real_basis(n_modes: int) -> RealBasis:
    """The real-basis tables for N modes, built at first use and cached."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    m = n_coeffs(n_modes)
    cols = modes_from_real(np.eye(m))     # cols[k] = Q^H e_k
    q = cols.conj()
    conv = _real_form(q, convolution_dense(cols, n_modes)).reshape(m, m * m)
    omega = _real_form(q, build_omega(n_modes, 1.0))
    phases = 2 * np.pi * np.arange(3 * n_modes - 2) / (3 * n_modes - 2)
    samples = np.exp(1j * np.outer(phases, np.arange(-n_modes + 1, n_modes))) @ cols.T
    samples = samples.real
    for a in (q, conv, omega, samples):
        a.setflags(write=False)
    return RealBasis(n_modes, q, conv, omega, samples)
