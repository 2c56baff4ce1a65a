"""Elastic constants, constitutive matrices, and inhomogeneous fields.

Two constitutive modes are available for isotropic 2D elasticity:

``as-printed``
    E/(1-nu^2) * [[1, nu, 0], [nu, 1, 0], [0, 0, (1-nu)/2]], i.e. the
    plane-stress matrix; the default.
``plane-strain``
    E/((1+nu)(1-2nu)) * [[1-nu, nu, 0], [nu, 1-nu, 0], [0, 0, (1-2nu)/2]],
    the standard plane-strain matrix; consistent with the thick-walled
    cylinder oracle used for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contours import _as_point
from .errors import ConfigurationError
from .meshing import Mesh

MODES = ("as-printed", "plane-strain")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class Material:
    """Isotropic linear elastic material (Young's modulus, Poisson's ratio)."""

    E: float
    nu: float

    def __post_init__(self):
        if not (math.isfinite(self.E) and self.E > 0.0):
            raise ConfigurationError(f"Young's modulus must be positive, got {self.E}")
        if not (math.isfinite(self.nu) and 0.0 <= self.nu < 0.5):
            raise ConfigurationError(f"Poisson's ratio must be in [0, 0.5), got {self.nu}")


@dataclass(frozen=True)
class AngularRegion:
    """Angular wedge [start_deg, end_deg) with its own material.

    ``end_deg`` equal to ``start_deg`` modulo 360 denotes the full circle.
    """

    start_deg: float
    end_deg: float
    material: Material


@dataclass(frozen=True)
class MaterialField:
    """Per-element material assignment over a mesh."""

    E: np.ndarray    # (F,)
    nu: np.ndarray   # (F,)

    def __post_init__(self):
        e = np.array(self.E, dtype=float)
        nu = np.array(self.nu, dtype=float)
        if e.shape != nu.shape or e.ndim != 1:
            raise ConfigurationError("E and nu must be matching 1D arrays")
        if np.any(~np.isfinite(e)) or np.any(e <= 0.0):
            raise ConfigurationError("all element E values must be finite and positive")
        if np.any(~np.isfinite(nu)) or np.any(nu < 0.0) or np.any(nu >= 0.5):
            raise ConfigurationError("all element nu values must be in [0, 0.5)")
        e.setflags(write=False)
        nu.setflags(write=False)
        object.__setattr__(self, "E", e)
        object.__setattr__(self, "nu", nu)

    @property
    def n_elements(self) -> int:
        return len(self.E)

    @classmethod
    def uniform(cls, mesh: Mesh, material: Material) -> "MaterialField":
        n = mesh.n_triangles
        return cls(np.full(n, material.E), np.full(n, material.nu))


def constitutive_matrices(field: MaterialField, mode: str = "as-printed") -> np.ndarray:
    """(F, 3, 3) stack of per-element constitutive matrices."""
    _check_mode(mode)
    e = field.E
    nu = field.nu
    out = np.zeros((len(e), 3, 3))
    if mode == "as-printed":
        f = e / (1.0 - nu * nu)
        out[:, 0, 0] = f
        out[:, 1, 1] = f
        out[:, 0, 1] = f * nu
        out[:, 1, 0] = f * nu
        out[:, 2, 2] = f * (1.0 - nu) / 2.0
    else:
        f = e / ((1.0 + nu) * (1.0 - 2.0 * nu))
        out[:, 0, 0] = f * (1.0 - nu)
        out[:, 1, 1] = f * (1.0 - nu)
        out[:, 0, 1] = f * nu
        out[:, 1, 0] = f * nu
        out[:, 2, 2] = f * (1.0 - 2.0 * nu) / 2.0
    return out


def constitutive_matrix(material: Material, mode: str = "as-printed") -> np.ndarray:
    """3x3 symmetric matrix relating (eps_x, eps_y, gamma_xy) to stress: the
    one row of :func:`constitutive_matrices` for a single material."""
    return constitutive_matrices(MaterialField([material.E], [material.nu]), mode)[0]


def _region_intervals(region: AngularRegion) -> list[tuple[float, float]]:
    s = region.start_deg % 360.0
    e = region.end_deg % 360.0
    span = (region.end_deg - region.start_deg) % 360.0
    if span == 0.0:
        return [(0.0, 360.0)]
    if s < e:
        return [(s, e)]
    return [(s, 360.0), (0.0, e)]


def _angles_in_region(angles_deg: np.ndarray, region: AngularRegion) -> np.ndarray:
    mask = np.zeros(len(angles_deg), dtype=bool)
    for s, e in _region_intervals(region):
        mask |= (angles_deg >= s) & (angles_deg < e)
    return mask


def _check_non_overlapping(regions) -> None:
    intervals = []
    for r in regions:
        intervals.extend((s, e, r) for s, e in _region_intervals(r))
    for i in range(len(intervals)):
        for j in range(i + 1, len(intervals)):
            s1, e1, r1 = intervals[i]
            s2, e2, r2 = intervals[j]
            if r1 is r2:
                continue
            if min(e1, e2) - max(s1, s2) > 1e-9:
                raise ConfigurationError(
                    f"angular regions overlap: [{r1.start_deg}, {r1.end_deg}) and "
                    f"[{r2.start_deg}, {r2.end_deg})"
                )


def region_material_field(
    mesh: Mesh,
    base: Material,
    regions,
    center,
) -> MaterialField:
    """Assign materials by the angle of each element centroid about center.

    Elements whose centroid angle falls in no region get the base material.
    Regions must be non-overlapping modulo 2*pi.
    """
    regions = tuple(regions)
    _check_non_overlapping(regions)
    c = _as_point(center)
    cen = mesh.triangle_centroids() - c
    angles_deg = np.degrees(np.mod(np.arctan2(cen[:, 1], cen[:, 0]), 2.0 * math.pi))
    e = np.full(mesh.n_triangles, base.E)
    nu = np.full(mesh.n_triangles, base.nu)
    for region in regions:
        mask = _angles_in_region(angles_deg, region)
        e[mask] = region.material.E
        nu[mask] = region.material.nu
    return MaterialField(e, nu)
