import numpy as np
import pytest

from tsfem.mesh import generate_interval
from tsfem.scalar import ScalarCase
from tsfem.spectral import n_coeffs
from tsfem.verification import (
    diagnostics,
    exact_steady_advection_diffusion_1d,
    l2_error,
    observed_order,
    oscillatory_channel_exact,
    refinement_report,
)


class TestSteadyAdvectionDiffusion1D:
    def test_zero_velocity_linear_ramp(self):
        phi = exact_steady_advection_diffusion_1d(0.0, 1.0, 2.0, 3.0)
        x = np.linspace(0, 2, 7)
        np.testing.assert_allclose(phi(x), 1.5 * x, atol=1e-14)

    def test_boundary_values(self):
        for u in (-5.0, 0.0, 0.3, 40.0):
            phi = exact_steady_advection_diffusion_1d(u, 0.1, 1.0, 2.5)
            assert phi(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)
            assert phi(np.array([1.0]))[0] == pytest.approx(2.5, rel=1e-12)

    def test_huge_peclet_stable(self):
        phi = exact_steady_advection_diffusion_1d(1.0, 1e-6, 1.0, 1.0)
        vals = phi(np.linspace(0, 1, 11))
        assert np.all(np.isfinite(vals))
        assert vals[5] < 1e-100  # boundary layer at the outlet

    def test_midpoint_matches_fd_oracle(self):
        # Pe = uL/kappa = 10, second-order central differences on a fine grid
        u, kappa, L, g = 1.0, 0.1, 1.0, 1.0
        n = 4000
        x = np.linspace(0, L, n + 1)
        h = L / n
        main = np.full(n - 1, 2 * kappa / h**2)
        upper = np.full(n - 2, u / (2 * h) - kappa / h**2)
        lower = np.full(n - 2, -u / (2 * h) - kappa / h**2)
        a = np.diag(main) + np.diag(upper, 1) + np.diag(lower, -1)
        b = np.zeros(n - 1)
        b[-1] = g * (kappa / h**2 - u / (2 * h))
        fd = np.linalg.solve(a, b)
        phi = exact_steady_advection_diffusion_1d(u, kappa, L, g)
        mid = n // 2 - 1
        assert abs(fd[mid] - phi(x[1:-1])[mid]) < 1e-6


class TestOscillatoryChannel:
    def test_mode0_is_poiseuille(self):
        modes = oscillatory_channel_exact([-2.0], rho=1.0, mu=0.5, half_width=1.0,
                                          n_modes=1, omega=1.0)
        y = np.linspace(-1, 1, 9)
        np.testing.assert_allclose(modes(y)[:, 0].real, 2.0 * (1 - y**2), atol=1e-13)

    def test_low_frequency_limit_is_quasi_steady(self):
        g1 = 1.5 - 0.5j
        modes = oscillatory_channel_exact([0.0, g1], rho=1.0, mu=1.0, half_width=1.0,
                                          n_modes=2, omega=1e-6)
        y = np.linspace(-1, 1, 21)
        got = modes(y)[:, 2]
        quasi = g1 / 2.0 * (y**2 - 1.0)
        np.testing.assert_allclose(got, quasi, atol=1e-5 * np.abs(quasi).max())

    def test_no_slip_at_walls(self):
        modes = oscillatory_channel_exact([1.0, 2.0, 0.5j], rho=1.2, mu=0.03,
                                          half_width=0.7, n_modes=3, omega=2.0)
        vals = modes(np.array([-0.7, 0.7]))
        assert np.max(np.abs(vals)) < 1e-12

    def test_w10_profile_matches_fd_ode_oracle(self):
        # i rho n w u = -G + mu u'' with no-slip walls, W = b sqrt(rho w / mu) = 10
        rho, mu, b = 1.0, 0.01, 1.0
        omega = 100 * mu / (rho * b**2)
        g1 = 1.0 + 0.3j
        modes = oscillatory_channel_exact([0.0, g1], rho, mu, b, 2, omega)
        n = 4000
        y = np.linspace(-b, b, n + 1)
        h = 2 * b / n
        main = np.full(n - 1, 1j * rho * omega + 2 * mu / h**2, dtype=complex)
        off = np.full(n - 2, -mu / h**2, dtype=complex)
        a = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        fd = np.linalg.solve(a, np.full(n - 1, -g1))
        exact = modes(y[1:-1])[:, 2]
        assert np.max(np.abs(fd - exact)) / np.max(np.abs(exact)) < 1e-6


class TestErrorNorms:
    def test_exact_field_zero_error(self):
        mesh = generate_interval(1.0, 8)

        def exact(points):
            return np.stack([points[:, 0], 0 * points[:, 0], points[:, 0]], axis=1) \
                .astype(complex) * [0.5, 0, 0.5]

        field = np.stack([0.5 * mesh.coords[:, 0], 0 * mesh.coords[:, 0],
                          0.5 * mesh.coords[:, 0]], axis=1).astype(complex)
        assert l2_error(field, exact, mesh) < 1e-15

    def test_mode_count_mismatch_rejected(self):
        mesh = generate_interval(1.0, 4)
        field = np.zeros((mesh.n_nodes, 3), dtype=complex)

        def exact(points):
            return np.zeros((points.shape[0], 5), dtype=complex)

        with pytest.raises(ValueError, match="shape"):
            l2_error(field, exact, mesh)

    def test_observed_order_first_order_data(self):
        hs = [0.4, 0.2, 0.1]
        errors = [0.4, 0.2, 0.1]
        assert observed_order(errors, hs) == pytest.approx(1.0, abs=1e-12)

    def test_refinement_report_orders(self):
        hs = [0.4, 0.2, 0.1]
        errors = [0.16, 0.04, 0.01]
        rep = refinement_report(errors, hs)
        np.testing.assert_allclose(rep.pair_orders, [2.0, 2.0], atol=1e-12)
        assert rep.order == pytest.approx(2.0, abs=1e-12)

    def test_requires_decreasing_h(self):
        with pytest.raises(ValueError, match="decreasing"):
            observed_order([0.1, 0.2], [0.1, 0.2])


class TestOscillatoryErrorTrend:
    def test_energy_error_grows_with_element_womersley(self):
        # fixed mesh, increasing frequency: the energy-norm error of the
        # manufactured solution grows monotonically with beta (trend only)
        from tsfem.linsolve import SolverConfig
        from tsfem.scalar import ScalarCase, coercivity_probe, solve_scalar
        from tsfem.spectral import SpectralCoeffs, build_omega, convolution_dense

        n_modes, kappa, length = 2, 0.05, 1.0
        m = n_coeffs(n_modes)
        mesh = generate_interval(length, 16)
        u_full = SpectralCoeffs.from_positive_modes([0.4, 0.1]).values
        conv = convolution_dense(u_full, n_modes)
        amps = np.array([1.0, 0.5 - 0.3j])
        wave = np.array([1.0, 2.0]) * np.pi

        def modes(x, deriv=0):
            out = np.zeros((x.shape[0], m), dtype=complex)
            for n in range(n_modes):
                base = {0: np.sin(wave[n] * x), 1: wave[n] * np.cos(wave[n] * x),
                        2: -wave[n] ** 2 * np.sin(wave[n] * x)}[deriv]
                out[:, n_modes - 1 + n] = amps[n] * base
                if n:
                    out[:, n_modes - 1 - n] = np.conj(amps[n]) * base
            return out

        energies = []
        betas = []
        for omega in (8.0, 32.0, 128.0):
            omega_mat = build_omega(n_modes, omega)

            def source(points, om=omega_mat):
                x = points[:, 0]
                return modes(x) @ om.T + modes(x, 1) @ conv.T - kappa * modes(x, 2)

            case = ScalarCase(kappa=kappa, omega=omega, n_modes=n_modes,
                              velocity=np.tile(u_full[None, None, :],
                                               (mesh.n_nodes, 1, 1)),
                              dirichlet={"left": np.zeros(m, complex),
                                         "right": np.zeros(m, complex)},
                              source=source)
            import warnings as _w
            with _w.catch_warnings():
                _w.simplefilter("ignore")  # beta >= 1 is the point here
                sol = solve_scalar(case, mesh, SolverConfig(eps_ls=1e-11))
                err_field = sol - modes(mesh.coords[:, 0])
                rep = coercivity_probe(case, mesh, err_field)
            energies.append(rep.total)
            betas.append(diagnostics(case, mesh).beta)
        assert betas == sorted(betas)
        assert energies == sorted(energies), (betas, energies)


class TestDiagnostics:
    def _case(self, mesh, u, kappa, omega=0.0, n_modes=1):
        m = n_coeffs(n_modes)
        vel = np.zeros((mesh.n_nodes, 1, m), dtype=complex)
        vel[:, 0, n_modes - 1] = u
        return ScalarCase(kappa=kappa, omega=omega, n_modes=n_modes, velocity=vel,
                          dirichlet={"left": np.zeros(m, complex)})

    def test_zero_velocity(self):
        mesh = generate_interval(1.0, 4)
        d = diagnostics(self._case(mesh, 0.0, 0.5), mesh)
        assert d.alpha == 0.0

    def test_beta_zero_for_steady(self):
        mesh = generate_interval(1.0, 4)
        assert diagnostics(self._case(mesh, 1.0, 0.5, omega=0.0, n_modes=3), mesh).beta == 0.0
        assert diagnostics(self._case(mesh, 1.0, 0.5, omega=2.0, n_modes=1), mesh).beta == 0.0

    def test_steady_uniform_1d_value(self):
        # alpha_e = 2|u|h/(12 kappa) with the line-element constant C_I = 9
        mesh = generate_interval(1.0, 5)
        u, kappa, h = 1.7, 0.2, 0.2
        d = diagnostics(self._case(mesh, u, kappa), mesh)
        np.testing.assert_allclose(d.alpha_e, 2 * u * h / (12 * kappa), rtol=1e-12)

    def test_beta_formula(self):
        mesh = generate_interval(1.0, 5)
        d = diagnostics(self._case(mesh, 1.0, 0.3, omega=2.5, n_modes=4), mesh)
        assert d.beta == pytest.approx(0.2 * np.sqrt(3 * 2.5 / 0.3), rel=1e-12)
