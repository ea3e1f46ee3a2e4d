"""Mass lumping and spectral deflation for isogeometric explicit dynamics.

Spline spaces and patch geometries feed tensor-product Galerkin assembly;
the lumping module turns consistent mass matrices into banded or diagonal
variants that stay symmetric positive definite, and the spectral module
estimates extreme eigenvalues, deflates outliers, and sizes stable time
steps. The experiments module and the igalump command line drive the
studies end to end.
"""

from .splines import KnotVector, SplineSpace, make_open_uniform
from .geometry import (Patch, TrimMask, MultipatchTopology, catalog,
                       classify_elements, rotated_square_region)
from .assembly import (AssembledPair, QuadratureGrid, assemble_single_patch,
                       assemble_multipatch, assemble_trimmed, jacobi_rescale,
                       quadrature_grid)
from .lumping import (HierBandedMatrix, lump_rowsum, block_lumped_family,
                      hierarchical_lump, lump_pieces)
from .linalg import (FactorizedOperator, banded_cholesky, woodbury_solve,
                     dense_generalized_eig)
from .spectral import (LanczosResult, ScaledPencil, lanczos, deflate,
                       scaled_mass_solve, critical_timestep, cfl_gain)
from .dynamics import (Trajectory, WaveProblem, central_difference,
                       manufactured_wave_problem, l2_error, l2_norm,
                       step_count)
from .experiments import ConfigError, ExperimentConfig, parse_config

__all__ = [
    'KnotVector', 'SplineSpace', 'make_open_uniform',
    'Patch', 'TrimMask', 'MultipatchTopology', 'catalog',
    'classify_elements', 'rotated_square_region',
    'AssembledPair', 'QuadratureGrid', 'assemble_single_patch',
    'assemble_multipatch', 'assemble_trimmed', 'jacobi_rescale',
    'quadrature_grid',
    'HierBandedMatrix', 'lump_rowsum', 'block_lumped_family',
    'hierarchical_lump', 'lump_pieces',
    'FactorizedOperator', 'banded_cholesky', 'woodbury_solve',
    'dense_generalized_eig',
    'LanczosResult', 'ScaledPencil', 'lanczos', 'deflate',
    'scaled_mass_solve', 'critical_timestep', 'cfl_gain',
    'Trajectory', 'WaveProblem', 'central_difference',
    'manufactured_wave_problem', 'l2_error', 'l2_norm', 'step_count',
    'ConfigError', 'ExperimentConfig', 'parse_config',
]
