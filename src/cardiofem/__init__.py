"""2D finite-element estimation of myocardial deformation and strain.

The pipeline: ingest inner/outer wall contours per time frame, extract
boundary displacement vectors by uniform-angle correspondence, mesh the
frame-0 wall, solve the plane elasticity equations with linear triangles
under Dirichlet boundary displacements, and map per-element strain and
effective strain into angular sectors to localize stiff (infarct-like)
regions. A pressurized-ring phantom with an analytic oracle verifies the
solver end to end.
"""

from .errors import (ConfigurationError, GeometryError, MeshError, SolverError,
                     StarShapeError, UsageError)
from .phantom import RingSpec, verify_ring
from .study import CycleParams, cycle_strain_analysis, infarct_localization, normalized_volume_curve
from .synth import healthy_study, mi_wedge_study

__version__ = "0.1.0"

# README's library API and the error types; every other name comes from its module.
__all__ = [
    "ConfigurationError", "CycleParams", "GeometryError", "MeshError", "RingSpec", "SolverError",
    "StarShapeError", "UsageError", "cycle_strain_analysis", "healthy_study",
    "infarct_localization", "mi_wedge_study", "normalized_volume_curve", "verify_ring",
]
