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
metric tensor; it is evaluated through a dense Hermitian eigensolve.

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
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "SpectralCoeffs",
    "ConvolutionMatrix",
    "EigenDecomposition",
    "fourier_coefficients",
    "evaluate_in_time",
    "build_convolution",
    "build_omega",
    "hermitian_eig",
    "matrix_inv_sqrt",
    "matrix_negative_part",
    "compute_tau",
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

    @property
    def positive_modes(self) -> np.ndarray:
        return self.values[self.n_modes - 1:].copy()

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


def evaluate_in_time(coeffs: SpectralCoeffs, t, omega: float):
    """Reconstruct the real signal sum_n values[n] exp(i n w t) at time(s) t.

    The imaginary residue of the complex sum vanishes by conjugate
    symmetry; only the real part is returned.
    """
    t = np.asarray(t, dtype=float)
    n = np.arange(-coeffs.n_modes + 1, coeffs.n_modes)
    phase = np.exp(1j * omega * np.multiply.outer(t, n))
    out = (phase @ coeffs.values).real
    return float(out) if out.ndim == 0 else out


def evaluate_field_in_time(values: np.ndarray, t: float, omega: float) -> np.ndarray:
    """Real time reconstruction of a mode array with trailing axis 2N-1."""
    values = np.asarray(values, dtype=complex)
    n_modes = (values.shape[-1] + 1) // 2
    n = np.arange(-n_modes + 1, n_modes)
    return (values @ np.exp(1j * omega * n * t)).real


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


@dataclass(frozen=True)
class ConvolutionMatrix:
    """Hermitian Toeplitz multiplication operator built from velocity modes.

    Only the 2N-1 generating entries u_{-N+1}..u_{N-1} are stored; the
    dense form is A_mn = u_{m-n} inside the band |m-n| < N and zero
    outside, which makes the operator alias-free and Hermitian.
    """

    n_modes: int
    entries: np.ndarray = field(repr=False)

    def dense(self) -> np.ndarray:
        return convolution_dense(self.entries, self.n_modes)


def build_convolution(u_modes: SpectralCoeffs) -> ConvolutionMatrix:
    """Convolution matrix of a spectral velocity component."""
    return ConvolutionMatrix(u_modes.n_modes, u_modes.values.copy())


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


def tau_from_conv(conv: np.ndarray, metric: np.ndarray, kappa: float,
                  c_i: float) -> np.ndarray:
    """tau = [A_i G_ij A_j + C_I k^2 G_ij G_ij I]^{-1/2} from the A_i themselves.

    conv holds the convolution matrices, shape (..., dim, M, M), either
    complex Hermitian (complex modes) or real symmetric (real basis);
    metric is (..., dim, dim), symmetric positive definite.  With G = L L^T,
    A_i G_ij A_j = F^H F for the stacked factor F = [C_1; ...; C_dim],
    C_k = sum_i L_ik A_i, and s = C_I k^2 G_ij G_ij.  tau comes from the
    eigenpairs (w, V) of arg = F^H F + sI, followed by one Newton step on
    X arg X = I whose residual is formed from F V w^{-1/2}.  Forming F^H F
    rounds tau in its small-eigenvalue directions by about eps * cond(arg)
    relative; the step brings that down to about eps * sqrt(cond(arg)).
    The result has the dtype of conv.
    """
    metric = np.asarray(metric, dtype=float)
    m = conv.shape[-1]
    fac = np.einsum("...ik,...ist->...kst", np.linalg.cholesky(metric), conv)
    fac = fac.reshape(fac.shape[:-3] + (-1, m))
    shift = c_i * kappa**2 * np.einsum("...ij,...ij->...", metric, metric)
    diag = np.arange(m)
    arg = _adjoint(fac) @ fac
    arg[..., diag, diag] += shift[..., None]
    w, v = np.linalg.eigh(arg)
    if np.any(w[..., 0] <= 0.0):
        raise ValueError(
            "singular stabilization argument (zero velocity with kappa = 0?); "
            f"min eigenvalue {np.min(w):.6e}"
        )
    inv_sqrt = w**-0.5
    v_scaled = v * inv_sqrt[..., None, :]
    # residual V^H (X0 arg X0 - I) V of X0 = V w^{-1/2} V^H, then the
    # correction D is D_ab (w_a^{1/2} + w_b^{1/2}) = -residual_ab
    fv = fac @ v_scaled
    resid = _adjoint(fv) @ fv
    resid[..., diag, diag] += shift[..., None] * inv_sqrt**2 - 1.0
    sqrt_w = w**0.5
    resid /= sqrt_w[..., :, None] + sqrt_w[..., None, :]
    tau = (v_scaled - v @ resid) @ _adjoint(v)
    return 0.5 * (tau + _adjoint(tau))


def tau_from_modes(u_modes: np.ndarray, metric: np.ndarray, kappa: float,
                   c_i: float, n_modes: int) -> np.ndarray:
    """Stabilization matrices tau = [A_i G_ij A_j + C_I k^2 G_ij G_ij I]^{-1/2}.

    Batched over quadrature points: u_modes has shape (..., dim, 2N-1) and
    metric (..., dim, dim); the result is (..., 2N-1, 2N-1) Hermitian
    positive definite (see tau_from_conv).
    """
    conv = convolution_dense(np.asarray(u_modes, dtype=complex), n_modes)
    return tau_from_conv(conv, metric, kappa, c_i)


def compute_tau(conv, metric: np.ndarray, kappa: float, c_i: float) -> np.ndarray:
    """Stabilization matrix at a single quadrature point.

    Parameters
    ----------
    conv : sequence of ConvolutionMatrix (or dense generating vectors),
        one per spatial direction
    metric : (dim, dim) symmetric positive-definite metric tensor
    kappa : diffusivity, >= 0
    c_i : element-type constant weighting the diffusive limit
    """
    mats = list(conv)
    n_modes = mats[0].n_modes if isinstance(mats[0], ConvolutionMatrix) else None
    if n_modes is None:
        raise TypeError("conv must contain ConvolutionMatrix instances")
    metric = np.asarray(metric, dtype=float)
    dim = len(mats)
    if metric.shape != (dim, dim):
        raise ValueError(f"metric shape {metric.shape} does not match {dim} directions")
    if np.linalg.norm(metric - metric.T) > 1e-12 * np.linalg.norm(metric):
        raise ValueError("metric tensor must be symmetric")
    if np.linalg.eigvalsh(metric)[0] <= 0.0:
        raise ValueError("metric tensor must be positive definite")
    u = np.stack([m.entries for m in mats])
    return tau_from_modes(u[None], metric[None], kappa, c_i, n_modes)[0]


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
    [[0, -n], [n, 0]] on the cos/sin pair of mode n.
    """

    n_modes: int
    unitary: np.ndarray = field(repr=False)   # (M, M) complex
    conv: np.ndarray = field(repr=False)      # (M, M*M) real
    omega: np.ndarray = field(repr=False)     # (M, M) real

    def matrix(self, a: np.ndarray) -> np.ndarray:
        """R(A) = Q A Q^H of mode operators (..., M, M); see _real_form."""
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
    for a in (q, conv, omega):
        a.setflags(write=False)
    return RealBasis(n_modes, q, conv, omega)
