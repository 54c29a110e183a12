"""Convergence orders of the spectral transport solver.

A manufactured three-mode solution with a volumetric source drives the
solver on a sequence of uniform refinements.  In the diffusive regime the
L2 error falls at second order; under strong convection the theory only
guarantees order 1.5, realized here as a superconvergent slope on the
smooth 1D profile.
"""

import numpy as np

from tsfem.linsolve import SolverConfig
from tsfem.mesh import generate_interval
from tsfem.scalar import ScalarCase, solve_scalar
from tsfem.spectral import SpectralCoeffs, build_omega, convolution_dense, n_coeffs
from tsfem.verification import diagnostics, l2_error, refinement_report

AMPS = np.array([1.0, 0.4 - 0.2j, 0.15 + 0.1j])
WAVE = np.array([1.0, 2.0, 3.0]) * np.pi


def run_study(kappa, omega, u_pos, label):
    n_modes = 3
    m = n_coeffs(n_modes)
    u_full = SpectralCoeffs.from_positive_modes(u_pos).values
    conv = convolution_dense(u_full, n_modes)
    omega_mat = build_omega(n_modes, omega)

    def modes(x, deriv=0):
        out = np.zeros((x.shape[0], m), dtype=complex)
        for n in range(n_modes):
            base = {0: np.sin(WAVE[n] * x),
                    1: WAVE[n] * np.cos(WAVE[n] * x),
                    2: -WAVE[n] ** 2 * np.sin(WAVE[n] * x)}[deriv]
            out[:, n_modes - 1 + n] = AMPS[n] * base
            if n:
                out[:, n_modes - 1 - n] = np.conj(AMPS[n]) * base
        return out

    def source(points):
        x = points[:, 0]
        return modes(x) @ omega_mat.T + modes(x, 1) @ conv.T - kappa * modes(x, 2)

    errors, hs = [], []
    for res in (8, 16, 32):
        mesh = generate_interval(1.0, res)
        vel = np.tile(u_full[None, None, :], (mesh.n_nodes, 1, 1))
        case = ScalarCase(kappa=kappa, omega=omega, n_modes=n_modes, velocity=vel,
                          dirichlet={"left": np.zeros(m, complex),
                                     "right": np.zeros(m, complex)},
                          source=source)
        sol = solve_scalar(case, mesh, SolverConfig(eps_ls=1e-11))
        errors.append(l2_error(sol, lambda p: modes(p[:, 0]), mesh))
        hs.append(1.0 / res)
        diag = diagnostics(case, mesh)
    report = refinement_report(errors, hs)
    print(f"\n{label} (element Peclet {diag.alpha:.3g}, "
          f"element Womersley {diag.beta:.2f}):")
    print("     h        L2 error    order")
    for h, e, order in report.rows():
        print(f"  {h:.5f}   {e:.3e}   " + ("  -  " if np.isnan(order)
                                           else f"{order:.2f}"))
    print(f"  fitted slope: {report.order:.2f}")


run_study(kappa=1.0, omega=2.0,
          u_pos=np.array([0.3, 0.1 + 0.05j, 0.0]), label="diffusive regime")
run_study(kappa=5e-4, omega=0.5,
          u_pos=np.array([1.0, 0.2 + 0.1j, 0.0]), label="convective regime")
