"""Time-spectral Galerkin/least-squares finite elements for periodic flow.

Subpackages:
  spectral      Fourier-mode arithmetic, convolution and stabilization matrices
  mesh          simplex meshes, generators, shape functions, quadrature
  boundary      facet-group checks, Dirichlet data and facet terms shared by the solvers
  linsolve      real block systems, their level LU factors, GMRES
  scalar        spectral convection-diffusion solver
  navier_stokes spectral incompressible Navier-Stokes solver
  time_domain   conventional time-domain reference solver
  verification  analytic oracles, error norms, diagnostics
  config, cli   case configuration and the batch runner
"""

from .spectral import (
    SpectralCoeffs,
    fourier_coefficients,
    evaluate_field_in_time,
    build_omega,
    hermitian_eig,
    matrix_inv_sqrt,
    matrix_negative_part,
)
from .mesh import (
    Mesh,
    generate_interval,
    generate_rect_tri,
    generate_box_tet,
    generate_bent_channel_tet,
    load_mesh,
    save_mesh,
)
from .linsolve import (
    SolverConfig,
    gmres,
    block_jacobi_preconditioner,
    level_lu_preconditioner,
)

__version__ = "0.1.0"
