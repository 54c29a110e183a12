"""Why the least-squares penalty matters: bounded tracer transport.

A tracer enters a 1D domain at concentration 1 and is forced to zero at
the outlet, creating a sharp layer in a convection-dominated oscillating
flow.  The plain Galerkin discretization produces overshoots well outside
the physical range [0, 1] when reconstructed in time; the penalized
scheme stays bounded.
"""

import numpy as np

from tsfem.linsolve import SolverConfig
from tsfem.mesh import generate_interval
from tsfem.scalar import ScalarCase, solve_scalar
from tsfem.spectral import SpectralCoeffs, evaluate_field_in_time, n_coeffs

n_modes, omega, kappa = 3, 1.0, 0.002
m = n_coeffs(n_modes)
mesh = generate_interval(1.0, 40)
u_modes = SpectralCoeffs.from_positive_modes([0.6, 0.15, 0.0]).values
velocity = np.tile(u_modes[None, None, :], (mesh.n_nodes, 1, 1))
inlet = np.zeros(m, dtype=complex)
inlet[n_modes - 1] = 1.0

config = SolverConfig(eps_ls=1e-10)
solutions = {}
for label, galerkin_only in (("GLS", False), ("Galerkin", True)):
    case = ScalarCase(kappa=kappa, omega=omega, n_modes=n_modes,
                      velocity=velocity,
                      dirichlet={"left": inlet, "right": np.zeros(m, complex)},
                      galerkin_only=galerkin_only)
    solutions[label] = solve_scalar(case, mesh, config)

times = 2 * np.pi / omega * np.arange(64) / 64
print("time-reconstructed concentration range over one period:")
for label, sol in solutions.items():
    recon = evaluate_field_in_time(sol, times, omega)
    print(f"  {label:9s}: [{recon.min():+.3f}, {recon.max():+.3f}]"
          + ("   <- overshoot/undershoot" if recon.min() < -0.05
             or recon.max() > 1.05 else "   (bounded)"))

# show the steady-mode profile near the outlet layer
x = mesh.coords[:, 0]
print("\n  x      GLS phi0   Galerkin phi0")
for i in range(28, 41):
    print(f"  {x[i]:.3f}  {solutions['GLS'][i, n_modes - 1].real:+.4f}"
          f"    {solutions['Galerkin'][i, n_modes - 1].real:+.4f}")
