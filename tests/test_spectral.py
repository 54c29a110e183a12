import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tsfem.spectral import (
    SpectralCoeffs,
    build_omega,
    check_conjugate_symmetry,
    convolution_dense,
    evaluate_field_in_time,
    fourier_coefficients,
    hermitian_eig,
    matrix_inv_sqrt,
    matrix_negative_part,
    modes_from_real,
    modes_to_real,
    negative_part_batch,
    real_basis,
    require_conjugate_symmetry,
    symmetrize_modes,
    tau_from_modes,
)
import tsfem.spectral as spectral
import tsfem.spectral_real as spectral_real

RNG = np.random.default_rng(20240811)


def random_modes(n_modes, rng=RNG, scale=1.0):
    pos = scale * (rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes))
    return SpectralCoeffs.from_positive_modes(pos)


def brute_force_dft(samples, n_modes):
    """Independent DFT oracle: direct scalar summation loop."""
    s = len(samples)
    out = []
    for n in range(-n_modes + 1, n_modes):
        acc = 0.0 + 0.0j
        for k in range(s):
            acc += samples[k] * np.exp(-2j * np.pi * n * k / s)
        out.append(acc / s)
    return np.array(out)


class TestFourierCoefficients:
    def test_constant_signal(self):
        samples = np.full(16, 5.0)
        c = fourier_coefficients(samples, 3)
        np.testing.assert_allclose(c.values, [0, 0, 5, 0, 0], atol=1e-14)

    def test_cosine(self):
        t = np.arange(32) / 32
        c = fourier_coefficients(np.cos(2 * np.pi * t), 2)
        np.testing.assert_allclose(c.values, [0.5, 0, 0.5], atol=1e-14)

    def test_matches_brute_force_dft(self):
        t = np.arange(64) / 64
        samples = 1.0 + 2.0 * np.sin(2 * (2 * np.pi * t))
        c = fourier_coefficients(samples, 4)
        np.testing.assert_allclose(c.values, brute_force_dft(samples, 4), atol=1e-12)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            fourier_coefficients(np.ones(13), 4)

    def test_bad_mode_count_rejected(self):
        with pytest.raises(ValueError, match="n_modes"):
            fourier_coefficients(np.ones(8), 0)

    def test_symmetry_exact(self):
        samples = RNG.standard_normal(40)
        c = fourier_coefficients(samples, 5)
        assert check_conjugate_symmetry(c.values) == 0.0


class TestBatchedSymmetry:
    """Leading axes of symmetrize_modes and check_conjugate_symmetry are batch axes."""

    def test_symmetric_rows_have_no_defect(self):
        rows = np.array([[1 - 2j, 3.0, 1 + 2j], [0.5j, -1.0, -0.5j]])
        assert check_conjugate_symmetry(rows) == 0.0
        np.testing.assert_array_equal(symmetrize_modes(rows), rows)

    @settings(max_examples=60, deadline=None)
    @given(n_modes=st.integers(1, 5), batch=st.lists(st.integers(1, 3), max_size=2),
           symmetric=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_row_loop(self, n_modes, batch, symmetric, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(batch) + (2 * n_modes - 1,)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if symmetric:
            values = modes_from_real(modes_to_real(values))
        rows = values.reshape(-1, shape[-1])
        loop_sym = np.array([symmetrize_modes(row) for row in rows]).reshape(shape)
        np.testing.assert_array_equal(symmetrize_modes(values), loop_sym)
        # the batched defect is relative to the largest coefficient of the array
        abs_defects = [check_conjugate_symmetry(row) * np.max(np.abs(row)) for row in rows]
        ref = max(abs_defects) / np.max(np.abs(values))
        assert check_conjugate_symmetry(values) == pytest.approx(ref, rel=1e-12, abs=1e-300)
        if symmetric:
            assert check_conjugate_symmetry(values) == 0.0

    def test_require_names_the_input(self):
        values = np.array([[1.0, 2.0, 1.0], [1.0, 0.0, 0.5]])
        with pytest.raises(ValueError, match="my data violates conjugate symmetry"):
            require_conjugate_symmetry(values, "my data")
        out = require_conjugate_symmetry(values[:1], "my data")
        assert out.dtype == complex


class TestEvaluateInTime:
    def test_steady_mode(self):
        c = SpectralCoeffs(3, np.array([0, 0, 1, 0, 0], dtype=complex))
        for t in (0.0, 0.3, 1.7):
            assert evaluate_field_in_time(c.values, t, 2 * np.pi) == pytest.approx(1.0)

    def test_cosine_values(self):
        c = SpectralCoeffs(2, np.array([0.5, 0, 0.5], dtype=complex))
        omega = 2 * np.pi  # T = 1
        assert evaluate_field_in_time(c.values, 0.0, omega) == pytest.approx(1.0)
        assert evaluate_field_in_time(c.values, 0.5, omega) == pytest.approx(-1.0)

    def test_round_trip(self):
        omega = 2 * np.pi / 0.8
        t = 0.8 * np.arange(40) / 40
        signal = 0.7 + np.cos(omega * t) - 0.4 * np.sin(3 * omega * t)
        c = fourier_coefficients(signal, 5)
        np.testing.assert_allclose(evaluate_field_in_time(c.values, t, omega), signal,
                                   atol=1e-10)

    def test_imaginary_residue_property(self):
        # complex-sum residue stays at rounding level for 100 random times
        for _ in range(5):
            c = random_modes(4)
            t = RNG.uniform(0, 10, size=100)
            n = np.arange(-3, 4)
            vals = np.exp(1j * 1.3 * np.outer(t, n)) @ c.values
            assert np.max(np.abs(vals.imag)) <= 1e-13 * np.linalg.norm(c.values)
            np.testing.assert_allclose(evaluate_field_in_time(c.values, t, 1.3), vals.real,
                                       atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(n_modes=st.integers(1, 6), batch=st.lists(st.integers(1, 3), max_size=2),
           t_shape=st.lists(st.integers(1, 4), max_size=2), seed=st.integers(0, 2**32 - 1))
    def test_array_times_stack_scalar_calls(self, n_modes, batch, t_shape, seed):
        rng = np.random.default_rng(seed)
        values, _ = random_point_states(rng, 1, 1, n_modes)
        values = values[0, 0] * rng.standard_normal(tuple(batch) + (1,))
        t = rng.uniform(-5.0, 5.0, size=tuple(t_shape))
        got = evaluate_field_in_time(values, t, 1.7)
        assert got.shape == t.shape + values.shape[:-1]
        stack = np.array([evaluate_field_in_time(values, ti, 1.7) for ti in t.ravel()])
        np.testing.assert_allclose(got, stack.reshape(got.shape), rtol=0,
                                   atol=1e-13 * np.abs(values).sum(axis=-1).max())

    @settings(max_examples=60, deadline=None)
    @given(n_modes=st.integers(1, 6), extra=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))
    def test_samples_round_trip_band_limited_signals(self, n_modes, extra, seed):
        # f(t) = a_0 + sum_{0<n<N} a_n cos(n w t) + b_n sin(n w t), sampled over one period
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, n_modes))
        omega = rng.uniform(0.1, 10.0)
        n = np.arange(1, n_modes)

        def signal(t):
            wt = omega * np.multiply.outer(t, n)
            return a[0] + np.cos(wt) @ a[1:] + np.sin(wt) @ b[1:]

        n_samp = 2 * (2 * n_modes - 1) + extra
        coeffs = fourier_coefficients(signal(2 * np.pi / omega * np.arange(n_samp) / n_samp),
                                      n_modes)
        t = rng.uniform(-10.0, 10.0, size=20)
        scale = np.abs(a).sum() + np.abs(b).sum()
        np.testing.assert_allclose(evaluate_field_in_time(coeffs.values, t, omega), signal(t),
                                   rtol=0, atol=1e-12 * scale)


class TestConvolution:
    def test_steady_flow_is_scaled_identity(self):
        c = SpectralCoeffs(3, np.array([0, 0, 2.5, 0, 0], dtype=complex))
        np.testing.assert_array_equal(convolution_dense(c.values, 3), 2.5 * np.eye(5))

    def test_n2_band_layout(self):
        u0, u1 = 1.2, 0.3 - 0.7j
        c = SpectralCoeffs.from_positive_modes([u0, u1])
        expected = np.array([
            [u0, np.conj(u1), 0],
            [u1, u0, np.conj(u1)],
            [0, u1, u0],
        ])
        np.testing.assert_array_equal(convolution_dense(c.values, 2), expected)

    def test_matches_index_fill_oracle(self):
        n = 3
        c = random_modes(n)
        dense = convolution_dense(c.values, n)
        m = 2 * n - 1
        for r in range(m):
            for col in range(m):
                if abs(r - col) < n:
                    assert dense[r, col] == c.values[r - col + n - 1]
                else:
                    assert dense[r, col] == 0.0

    def test_hermitian_and_banded_property(self):
        for n in (1, 2, 4, 6):
            dense = convolution_dense(random_modes(n).values, n)
            np.testing.assert_allclose(dense, dense.conj().T, atol=0)
            m = 2 * n - 1
            for r in range(m):
                for col in range(m):
                    if abs(r - col) >= n:
                        assert dense[r, col] == 0.0


class TestOmega:
    def test_single_mode(self):
        np.testing.assert_array_equal(build_omega(1, 3.0), np.zeros((1, 1)))

    def test_n2(self):
        w = 2 * np.pi
        np.testing.assert_allclose(build_omega(2, w), np.diag([-1j * w, 0, 1j * w]))

    def test_skew_hermitian(self):
        for n, w in [(1, 0.0), (3, 1.7), (5, 12.0)]:
            om = build_omega(n, w)
            np.testing.assert_array_equal(om + om.conj().T, np.zeros_like(om))


def charpoly_coefficients(matrix):
    """Faddeev-LeVerrier characteristic polynomial (independent of eigh)."""
    m = matrix.shape[0]
    coeffs = [1.0 + 0j]
    mk = np.zeros_like(matrix)
    for k in range(1, m + 1):
        mk = matrix @ mk + coeffs[-1] * np.eye(m)
        coeffs.append(-np.trace(matrix @ mk) / k)
    return np.array(coeffs)


class TestHermitianEig:
    def test_identity(self):
        w, v = hermitian_eig(np.eye(3))
        np.testing.assert_allclose(w, [1, 1, 1])
        np.testing.assert_allclose(v @ v.conj().T, np.eye(3), atol=1e-12)

    def test_pauli_x(self):
        w, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=float))
        np.testing.assert_allclose(w, [-1, 1], atol=1e-14)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=float))

    def test_toeplitz_vs_charpoly_roots(self):
        h = convolution_dense(random_modes(3).values, 3)
        w, _ = hermitian_eig(h)
        roots = np.roots(charpoly_coefficients(h))
        np.testing.assert_allclose(np.sort(roots.real), w, atol=1e-9)
        assert np.max(np.abs(roots.imag)) < 1e-9

    def test_ordering_and_unitarity_property(self):
        for n in (2, 3, 5):
            for _ in range(20):
                h = convolution_dense(random_modes(n).values, n)
                w, v = hermitian_eig(h)
                assert np.all(np.diff(w) >= -1e-14)
                m = 2 * n - 1
                assert np.linalg.norm(v @ v.conj().T - np.eye(m)) <= 1e-12 * np.sqrt(m)
                recon = (v * w) @ v.conj().T
                assert np.linalg.norm(recon - h) <= 1e-12 * max(np.linalg.norm(h), 1.0)


class TestMatrixInvSqrt:
    def test_scaled_identity(self):
        np.testing.assert_allclose(matrix_inv_sqrt(4.0 * np.eye(3)), 0.5 * np.eye(3), atol=1e-14)

    def test_diagonal(self):
        out = matrix_inv_sqrt(np.diag([1.0, 4.0, 9.0]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.5, 1 / 3]), atol=1e-14)

    def test_algebraic_identity(self):
        a = RNG.standard_normal((5, 5)) + 1j * RNG.standard_normal((5, 5))
        h = a @ a.conj().T + 0.5 * np.eye(5)
        m = matrix_inv_sqrt(h)
        np.testing.assert_allclose(m @ m @ h, np.eye(5), atol=1e-9)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)

    def test_reports_offending_eigenvalue(self):
        with pytest.raises(ValueError, match="-1"):
            matrix_inv_sqrt(np.diag([-1.0, 2.0]))


class TestMatrixNegativePart:
    def test_positive_definite_gives_exact_zero(self):
        a = RNG.standard_normal((4, 4))
        h = a @ a.T + 0.1 * np.eye(4)
        assert np.all(matrix_negative_part(h) == 0.0)

    def test_negative_identity(self):
        np.testing.assert_allclose(matrix_negative_part(-np.eye(3)), -np.eye(3), atol=1e-14)

    def test_clipping_oracle(self):
        out = matrix_negative_part(np.diag([2.0, -3.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([0.0, -3.0, 0.0]), atol=1e-14)

    def test_random_clipping(self):
        h = convolution_dense(random_modes(3).values, 3)
        w, v = np.linalg.eigh(h)
        expected = (v * np.minimum(w, 0.0)) @ v.conj().T
        np.testing.assert_allclose(matrix_negative_part(h), expected, atol=1e-12)


def centrosymmetry_defect(tau):
    return np.max(np.abs(tau - tau[::-1, ::-1].T))


class TestComputeTau:
    """tau at single points, through the batched tau_from_modes."""

    def test_1d_steady_nodally_exact_form(self):
        # linear element of size h: G = (2/h)^2, C_I = 9
        h, u, kappa = 0.35, 1.4, 0.02
        g = np.array([[(2.0 / h) ** 2]])
        tau = tau_from_modes(np.array([[[0, u, 0]]]), g[None], kappa, 9.0, 2)[0]
        expected = ((2 * u / h) ** 2 + (12 * kappa / h**2) ** 2) ** -0.5
        np.testing.assert_allclose(tau, expected * np.eye(3), atol=1e-14)

    def test_zero_velocity(self):
        n = 3
        g = np.array([[2.0, 0.3], [0.3, 1.0]])
        kappa, c_i = 0.7, 3.0
        tau = tau_from_modes(np.zeros((1, 2, 2 * n - 1)), g[None], kappa, c_i, n)[0]
        expected = 1.0 / (np.sqrt(c_i) * kappa * np.sqrt(np.sum(g * g)))
        np.testing.assert_allclose(tau, expected * np.eye(2 * n - 1), atol=1e-13)

    def test_unsteady_1d_matches_eigenbasis_oracle(self):
        # tau = V diag([(2*lam/h)^2 + (12 kappa/h^2)^2]^(-1/2)) V^H
        n, h, kappa = 3, 0.25, 0.05
        u = random_modes(n, scale=0.8)
        g = np.array([[(2.0 / h) ** 2]])
        tau = tau_from_modes(u.values[None, None], g[None], kappa, 9.0, n)[0]
        lam, vec = scipy.linalg.eigh(convolution_dense(u.values, n))
        tilde = ((2 * lam / h) ** 2 + (12 * kappa / h**2) ** 2) ** -0.5
        np.testing.assert_allclose(tau, (vec * tilde) @ vec.conj().T, atol=1e-12)

    def test_singular_argument_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            tau_from_modes(np.zeros((1, 1, 3)), np.array([[[4.0]]]), 0.0, 9.0, 2)

    @pytest.mark.parametrize("basis", ["complex", "real"])
    def test_stalled_iteration_rejected(self, basis):
        # u(t) = cos(w t) at N=2: A has the null vector (1, 0, -1), so with
        # kappa = 0 the argument 4 A^2 is singular but not zero
        u = np.array([[[0.5, 0.0, 0.5]]])
        with pytest.raises(ValueError, match="singular"):
            if basis == "complex":
                tau_from_modes(u, np.array([[[4.0]]]), 0.0, 9.0, 2)
            else:
                spectral_real.tau_from_modes(modes_to_real(u), np.array([[[4.0]]]), 0.0, 9.0, 2)

    @pytest.mark.parametrize("basis", ["complex", "real"])
    def test_non_finite_velocity_rejected(self, basis):
        u, metric = random_point_states(np.random.default_rng(3), 4, 2, 3)
        u[2, 1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite stabilization argument"):
            if basis == "complex":
                tau_from_modes(u, metric, 0.1, 4.0, 3)
            else:
                spectral_real.tau_from_modes(modes_to_real(u), metric, 0.1, 4.0, 3)

    def test_property_suite(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(1, 5)
            dim = rng.integers(1, 4)
            u = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
            u[:, 0] = u[:, 0].real
            full = np.concatenate([np.conj(u[:, :0:-1]), u], axis=1)
            a = rng.standard_normal((dim, dim))
            g = a @ a.T + dim * np.eye(dim)
            kappa = rng.uniform(0.01, 2.0)
            tau = tau_from_modes(full[None], g[None], kappa, 3.0, n)[0]
            np.testing.assert_allclose(tau, tau.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(tau)[0] > 0.0
            assert centrosymmetry_defect(tau) <= 1e-12 * np.max(np.abs(tau))

    def test_steady_limit_scalar(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, dim = 4, 3
            u0 = rng.standard_normal(dim)
            modes = np.zeros((dim, 2 * n - 1), dtype=complex)
            modes[:, n - 1] = u0
            a = rng.standard_normal((dim, dim))
            g = a @ a.T + dim * np.eye(dim)
            kappa = rng.uniform(0.05, 1.0)
            tau = tau_from_modes(modes[None], g[None], kappa, 3.0, n)[0]
            scalar = (u0 @ g @ u0 + 3.0 * kappa**2 * np.sum(g * g)) ** -0.5
            assert np.linalg.norm(tau - scalar * np.eye(2 * n - 1)) <= 1e-12 * scalar


def tau_einsum_oracle(u_modes, metric, kappa, c_i, n_modes):
    """tau by the three-operand einsum for A_i G_ij A_j and eigh."""
    conv = convolution_dense(u_modes, n_modes)
    arg = np.einsum("...ij,...irs,...jst->...rt", metric, conv, conv)
    gg = np.einsum("...ij,...ij->...", metric, metric)
    arg = arg + (c_i * kappa**2 * gg)[..., None, None] * np.eye(2 * n_modes - 1)
    w, v = np.linalg.eigh(0.5 * (arg + np.conj(np.swapaxes(arg, -1, -2))))
    return np.einsum("...rk,...k,...ck->...rc", v, w**-0.5, np.conj(v))


def random_point_states(rng, n_pts, dim, n_modes):
    """Conjugate-symmetric velocity modes (n_pts, dim, 2N-1) and SPD metrics."""
    pos = rng.standard_normal((n_pts, dim, n_modes)) + 1j * rng.standard_normal((n_pts, dim, n_modes))
    pos[..., 0] = pos[..., 0].real
    u = np.concatenate([np.conj(pos[..., :0:-1]), pos], axis=-1)
    a = rng.standard_normal((n_pts, dim, dim))
    metric = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(dim)
    return u, metric


class TestTauProperties:
    @settings(max_examples=60, deadline=None)
    @given(n_modes=st.integers(1, 8), dim=st.integers(1, 3), n_pts=st.integers(1, 4),
           kappa=st.sampled_from([0.05, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_matches_einsum_oracle_and_is_hpd_centrosymmetric(self, n_modes, dim, n_pts,
                                                             kappa, seed):
        u, metric = random_point_states(np.random.default_rng(seed), n_pts, dim, n_modes)
        tau = tau_from_modes(u, metric, kappa, 4.0, n_modes)
        scale = np.linalg.norm(tau, axis=(-2, -1))[..., None, None]
        oracle = tau_einsum_oracle(u, metric, kappa, 4.0, n_modes)
        assert np.all(np.abs(tau - oracle) <= 1e-10 * scale)
        assert np.all(np.abs(tau - np.conj(np.swapaxes(tau, -1, -2))) <= 1e-13 * scale)
        assert np.all(np.linalg.eigvalsh(tau) > 0.0)
        # tau[-r, -c] = conj(tau[r, c])
        assert np.all(np.abs(tau[..., ::-1, ::-1] - np.conj(tau)) <= 1e-10 * scale)

    @settings(max_examples=40, deadline=None)
    @given(n_modes=st.integers(1, 6), n_pts=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_negative_part_batch_matches_single(self, n_modes, n_pts, seed):
        u, _ = random_point_states(np.random.default_rng(seed), n_pts, 1, n_modes)
        mats = convolution_dense(u[:, 0], n_modes)
        batch = negative_part_batch(mats)
        for mat, neg in zip(mats, batch):
            ref = matrix_negative_part(mat)
            assert np.linalg.norm(neg - ref) <= 1e-12 * max(np.linalg.norm(mat), 1.0)


def mp_tau_reference(conv, metric, kappa, c_i):
    """tau of one point from its A_i, (dim, M, M), formed and factored at 32 digits.

    Forming A_i G_ij A_j in double rounds its small eigenvalues by about
    eps ||arg||, so matrix_inv_sqrt of a double argument is itself off by
    about eps * cond(arg) relative (2.6e-5 at cond 2e12); the reference
    forms the argument from the same double A_i and G in mpmath and takes
    its eigenpairs there.  Returns tau and cond(arg).
    """
    dim, m = conv.shape[0], conv.shape[-1]
    with mpmath.workdps(32):
        a = [mpmath.matrix(conv[i].tolist()) for i in range(dim)]
        shift = c_i * mpmath.mpf(kappa) ** 2 * mpmath.fsum(mpmath.mpf(g) ** 2
                                                           for g in metric.ravel())
        arg = shift * mpmath.eye(m)
        for i in range(dim):
            for j in range(dim):
                arg += mpmath.mpf(metric[i, j]) * (a[i] * a[j])
        w, v = mpmath.eighe(arg) if np.iscomplexobj(conv) else mpmath.eigsy(arg)
        tau = v * mpmath.diag([1 / mpmath.sqrt(x) for x in w]) * v.transpose_conj()
        return np.array(tau.tolist(), dtype=conv.dtype), float(max(w) / min(w))


def near_stagnation_points(rng, n_pts, dim, n_modes):
    """Velocities u_i(t) = d_i phi(t) whose convolution matrix has an eigenvalue near 0.

    The eigenvalues of A(phi) follow the time samples of phi, so shifting
    its mean by one of them makes the flow nearly stop at some phase; with
    a small kappa the argument is then ill-conditioned.  The argument is
    (d^T G d) A(phi)^2 + sI, and the shift leaves A(phi) an eigenvalue of
    at least 10^-6.5 times the width of its spectrum, so cond(arg) stays
    below about 1e13.
    """
    m = 2 * n_modes - 1
    u = np.empty((n_pts, dim, m), dtype=complex)
    for k in range(n_pts):
        pos = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        pos[0] = pos[0].real
        phi = np.concatenate([np.conj(pos[:0:-1]), pos])
        lam = np.linalg.eigvalsh(convolution_dense(phi, n_modes))
        width = np.ptp(lam) + np.abs(lam).max()
        offset = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-6.5, -3) * width
        phi[n_modes - 1] -= rng.choice(lam) + offset
        u[k] = rng.standard_normal(dim)[:, None] * phi
    a = rng.standard_normal((n_pts, dim, dim))
    return u, a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(dim)


class TestTauKernel:
    """tau_from_conv's Newton-Schulz iteration, in both bases."""

    @settings(max_examples=20, deadline=None)
    @given(n_modes=st.integers(1, 5), dim=st.integers(1, 3), n_ill=st.integers(0, 3),
           n_well=st.integers(1, 2), kappa_exp=st.floats(-6.0, -1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_ill_conditioned_batches_match_reference(self, n_modes, dim, n_ill, n_well,
                                                     kappa_exp, seed):
        # tau is accurate to a few eps sqrt(cond) plus the Newton step's
        # quadratic term: on such points, against the 32-digit reference, an
        # eigendecomposition with the same Newton step reached 1.5 eps
        # sqrt(cond) and 0.6 (eps cond)^2, this kernel 3.2 eps sqrt(cond)
        # (at cond 1, where it skips the Newton step) and 0.07 (eps cond)^2.
        rng = np.random.default_rng(seed)
        u_ill, g_ill = near_stagnation_points(rng, n_ill, dim, n_modes)
        u_well, g_well = random_point_states(rng, n_well, dim, n_modes)
        order = rng.permutation(n_ill + n_well)
        u = np.concatenate([u_ill, u_well])[order]
        metric = np.concatenate([g_ill, g_well])[order]
        kappa = 10.0 ** kappa_exp
        for tau, conv in [
            (tau_from_modes(u, metric, kappa, 4.0, n_modes), convolution_dense(u, n_modes)),
            (spectral_real.tau_from_modes(modes_to_real(u), metric, kappa, 4.0, n_modes),
             spectral_real.convolution_dense(modes_to_real(u), n_modes)),
        ]:
            for k in range(u.shape[0]):
                ref, cond = mp_tau_reference(conv[k], metric[k], kappa, 4.0)
                eps_cond = np.finfo(float).eps * cond
                tol = 8.0 * eps_cond / np.sqrt(cond) + 0.1 * eps_cond**2
                assert np.max(np.abs(tau[k] - ref)) <= tol * np.linalg.norm(ref)

    def test_newton_step_only_where_rounding_needs_it(self, monkeypatch):
        # cond(arg) <= 2 ||Z||_inf^2, and where that bound is at most 16 the
        # rounding of the formed argument is within 4 eps sqrt(cond), so
        # the kernel skips the Newton step there; an ill-conditioned point
        # takes it alone
        batches = []
        newton = spectral._newton_correction

        def record(*args):
            batches.append(args[3].shape[0])
            return newton(*args)

        monkeypatch.setattr(spectral, "_newton_correction", record)
        rng = np.random.default_rng(11)
        u, metric = random_point_states(rng, 4, 2, 3)
        tau_from_modes(u, metric, 3.0, 4.0, 3)
        assert batches == []
        u_ill, g_ill = near_stagnation_points(rng, 1, 2, 3)
        tau_from_modes(np.concatenate([u, 1e3 * u_ill]), np.concatenate([metric, g_ill]), 3.0,
                       4.0, 3)
        assert batches == [1]

    def test_no_eigendecomposition(self, monkeypatch):
        u, metric = random_point_states(np.random.default_rng(5), 6, 3, 7)
        expected = tau_einsum_oracle(u, metric, 0.3, 4.0, 7)

        def refuse(*args, **kwargs):
            raise AssertionError("tau called an eigensolver")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        tau_c = tau_from_modes(u, metric, 0.3, 4.0, 7)
        tau_r = spectral_real.tau_from_modes(modes_to_real(u), metric, 0.3, 4.0, 7)
        q = real_basis(7).unitary
        scale = np.linalg.norm(expected, axis=(-2, -1))[..., None, None]
        assert np.all(np.abs(tau_c - expected) <= 1e-10 * scale)
        assert np.all(np.abs(q.conj().T @ tau_r @ q - expected) <= 1e-10 * scale)


def random_symmetric_operators(rng, n_ops, n_modes):
    """Mode operators (n_ops, M, M) with A[-m, -n] = conj(A[m, n])."""
    m = 2 * n_modes - 1
    x = rng.standard_normal((n_ops, m, m)) + 1j * rng.standard_normal((n_ops, m, m))
    return 0.5 * (x + np.conj(x[:, ::-1, ::-1]))


class TestRealBasis:
    @settings(max_examples=40, deadline=None)
    @given(n_modes=st.integers(1, 8), n_pts=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_round_trip(self, n_modes, n_pts, seed):
        rng = np.random.default_rng(seed)
        z, _ = random_point_states(rng, n_pts, 2, n_modes)
        r = modes_to_real(z)
        assert r.dtype == float and r.shape == z.shape
        np.testing.assert_allclose(modes_from_real(r), z, rtol=0, atol=1e-14 * np.abs(z).max())
        # orthonormal: the coordinates keep the norm, and equal Q z
        np.testing.assert_allclose(np.linalg.norm(r, axis=-1), np.linalg.norm(z, axis=-1),
                                   rtol=1e-13)
        np.testing.assert_allclose(r, (z @ real_basis(n_modes).unitary.T).real,
                                   atol=1e-13 * np.abs(z).max())
        x = rng.standard_normal((n_pts, 2 * n_modes - 1))
        np.testing.assert_allclose(modes_to_real(modes_from_real(x)), x, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(n_modes=st.integers(1, 8), n_pts=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_convolution_is_mapped_complex_and_symmetric(self, n_modes, n_pts, seed):
        u, _ = random_point_states(np.random.default_rng(seed), n_pts, 1, n_modes)
        real = spectral_real.convolution_dense(modes_to_real(u[:, 0]), n_modes)
        mapped = real_basis(n_modes).matrix(convolution_dense(u[:, 0], n_modes))
        scale = np.abs(u).max()
        np.testing.assert_allclose(real, mapped, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(real, np.swapaxes(real, -1, -2), rtol=0, atol=1e-13 * scale)

    @settings(max_examples=40, deadline=None)
    @given(n_modes=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_samples_give_the_band_restricted_product(self, n_modes, seed):
        # 3N-2 phases: the pointwise product projected back is C(a) b exactly
        rng = np.random.default_rng(seed)
        m = 2 * n_modes - 1
        samples = real_basis(n_modes).samples
        assert samples.shape == (3 * n_modes - 2, m)
        np.testing.assert_allclose(samples.T @ samples, samples.shape[0] * np.eye(m),
                                   rtol=0, atol=1e-12)
        a, b = rng.standard_normal((2, m))
        ref = spectral_real.convolution_dense(a, n_modes) @ b
        got = samples.T @ ((samples @ a) * (samples @ b)) / samples.shape[0]
        scale = np.abs(a).max() * np.abs(b).max() * m
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * scale)

    @settings(max_examples=40, deadline=None)
    @given(n_modes=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_map_is_multiplicative(self, n_modes, seed):
        a, b = random_symmetric_operators(np.random.default_rng(seed), 2, n_modes)
        basis = real_basis(n_modes)
        lhs = basis.matrix(a @ b)
        np.testing.assert_allclose(lhs, basis.matrix(a) @ basis.matrix(b),
                                   rtol=0, atol=1e-12 * np.abs(lhs).max())

    def test_operator_without_conjugate_symmetry_rejected(self):
        a = np.zeros((3, 3), dtype=complex)
        a[2, 0] = 1.0
        with pytest.raises(ValueError, match="conjugate symmetry"):
            real_basis(2).matrix(a)

    @pytest.mark.parametrize("n_modes", range(1, 9))
    def test_omega_is_skew_and_mapped(self, n_modes):
        omega = spectral_real.build_omega(n_modes, 1.7)
        np.testing.assert_array_equal(omega, -omega.T)
        np.testing.assert_allclose(omega, real_basis(n_modes).matrix(build_omega(n_modes, 1.7)),
                                   atol=1e-14)
        with pytest.raises(ValueError):
            spectral_real.build_omega(n_modes, -1.0)

    @settings(max_examples=40, deadline=None)
    @given(n_modes=st.integers(1, 8), dim=st.integers(1, 3), n_pts=st.integers(1, 4),
           kappa=st.sampled_from([0.05, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_real_tau_maps_back_to_complex_tau(self, n_modes, dim, n_pts, kappa, seed):
        u, metric = random_point_states(np.random.default_rng(seed), n_pts, dim, n_modes)
        tau_r = spectral_real.tau_from_modes(modes_to_real(u), metric, kappa, 4.0, n_modes)
        tau_c = tau_from_modes(u, metric, kappa, 4.0, n_modes)
        q = real_basis(n_modes).unitary
        back = q.conj().T @ tau_r @ q
        scale = np.linalg.norm(tau_c, axis=(-2, -1))[..., None, None]
        assert tau_r.dtype == float
        assert np.all(np.abs(back - tau_c) <= 1e-12 * scale)
        assert np.all(np.abs(tau_r - np.swapaxes(tau_r, -1, -2)) <= 1e-13 * scale)

    @settings(max_examples=40, deadline=None)
    @given(n_modes=st.integers(1, 8), extra=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_convolution_matches_sampled_product(self, n_modes, extra, seed):
        # modes |m| < N of u(t) x(t), sampled without aliasing (>= 4N-3 samples)
        u, _ = random_point_states(np.random.default_rng(seed), 2, 1, n_modes)
        u, x = u[0, 0], u[1, 0]
        n_samp = 4 * n_modes - 3 + extra
        n = np.arange(-n_modes + 1, n_modes)
        phase = np.exp(2j * np.pi * np.outer(np.arange(n_samp), n) / n_samp)
        product = (phase @ u) * (phase @ x)
        modes = np.conj(phase).T @ product / n_samp
        got = convolution_dense(u, n_modes) @ x
        np.testing.assert_allclose(got, modes, rtol=0, atol=1e-12 * np.abs(u).max() * np.abs(x).max())
