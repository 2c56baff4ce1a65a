"""2D finite-element estimation of myocardial deformation and strain.

The pipeline: ingest inner/outer wall contours per time frame, extract
boundary displacement vectors by uniform-angle correspondence, mesh the
frame-0 wall, solve the plane elasticity equations with linear triangles
under Dirichlet boundary displacements, and map per-element strain and
effective strain into angular sectors to localize stiff (infarct-like)
regions. A pressurized-ring phantom with an analytic oracle verifies the
solver end to end.
"""

from .contours import (
    BoundaryDisplacements,
    Contour,
    FrameContours,
    Point2,
    angular_permutation,
    boundary_displacements,
    centroid,
    is_star_shaped,
    order_by_angle,
    polygon_area,
    resample_uniform_angle,
    rotate_about,
    uniform_angle_walls,
)
from .errors import (
    ConfigurationError,
    GeometryError,
    MeshError,
    SolverError,
    StarShapeError,
    UsageError,
)
from .fem import (
    DisplacementField,
    LinearSystem,
    apply_dirichlet,
    apply_traction,
    assemble,
    boundary_conditions_from_displacements,
    boundary_dof_map,
    internal_pressure_tractions,
    remove_rigid_motion,
    rigid_body_modes,
    solve,
    strain_displacement_matrices,
)
from .materials import (
    AngularRegion,
    Material,
    MaterialField,
    constitutive_matrix,
    region_material_field,
)
from .meshing import Mesh, ValidationReport, triangulate_annulus, validate
from .phantom import (
    RingSpec,
    circle_contour,
    lame_displacement,
    lame_strain_polar,
    make_ring,
    pressure_load_cycle,
    solve_ring_traction,
    verify_ring,
)
from .strain import (
    SectorSummary,
    StrainField,
    effective_strain,
    sector_average,
    strain_field,
)
from .study import (
    CycleParams,
    FrameResult,
    LocalizationResult,
    Slice,
    Study,
    VolumeCurve,
    average_sector_summaries,
    cycle_strain_analysis,
    infarct_localization,
    normalized_volume_curve,
    ventricle_volume,
)
from .synth import healthy_study, mi_wedge_study, phantom_cycle_study

__version__ = "0.1.0"

__all__ = [
    "AngularRegion",
    "BoundaryDisplacements",
    "ConfigurationError",
    "Contour",
    "CycleParams",
    "DisplacementField",
    "FrameContours",
    "FrameResult",
    "GeometryError",
    "LinearSystem",
    "LocalizationResult",
    "Material",
    "MaterialField",
    "Mesh",
    "MeshError",
    "Point2",
    "RingSpec",
    "SectorSummary",
    "Slice",
    "SolverError",
    "StarShapeError",
    "StrainField",
    "Study",
    "UsageError",
    "ValidationReport",
    "VolumeCurve",
    "angular_permutation",
    "apply_dirichlet",
    "apply_traction",
    "assemble",
    "average_sector_summaries",
    "boundary_conditions_from_displacements",
    "boundary_dof_map",
    "boundary_displacements",
    "centroid",
    "circle_contour",
    "constitutive_matrix",
    "cycle_strain_analysis",
    "effective_strain",
    "healthy_study",
    "infarct_localization",
    "internal_pressure_tractions",
    "is_star_shaped",
    "lame_displacement",
    "lame_strain_polar",
    "make_ring",
    "mi_wedge_study",
    "normalized_volume_curve",
    "order_by_angle",
    "phantom_cycle_study",
    "polygon_area",
    "pressure_load_cycle",
    "region_material_field",
    "remove_rigid_motion",
    "resample_uniform_angle",
    "rigid_body_modes",
    "rotate_about",
    "sector_average",
    "solve",
    "solve_ring_traction",
    "strain_displacement_matrices",
    "strain_field",
    "triangulate_annulus",
    "uniform_angle_walls",
    "validate",
    "ventricle_volume",
    "verify_ring",
]
