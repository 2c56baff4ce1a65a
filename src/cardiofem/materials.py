"""Elastic constants, constitutive matrices, and per-element material fields:
uniform, or a base material with one angular stiff region
(:func:`region_material_field`).

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

from .contours import _as_point, _polar_angles, _read_only
from .errors import ConfigurationError
from .meshing import Mesh

MODES = ("as-printed", "plane-strain")


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

    def contains(self, angles_deg) -> np.ndarray:
        """Whether each angle (degrees) lies in the wedge, by its offset from the start."""
        # the full circle's span is inf, since np.mod rounds an offset of -1 ulp up to 360
        span = (self.end_deg - self.start_deg) % 360.0 or math.inf
        return np.mod(np.asarray(angles_deg, dtype=float) - self.start_deg, 360.0) < span


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
        _read_only(self, E=e, nu=nu)

    @property
    def n_elements(self) -> int:
        return len(self.E)

    @classmethod
    def uniform(cls, mesh: Mesh, material: Material) -> "MaterialField":
        n = mesh.n_triangles
        return cls(np.full(n, material.E), np.full(n, material.nu))


def constitutive_matrices(field: MaterialField, mode: str = "as-printed") -> np.ndarray:
    """(F, 3, 3) stack of per-element constitutive matrices."""
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    e, nu = field.E, field.nu
    if mode == "as-printed":
        f = e / (1.0 - nu * nu)
        diagonal, shear = f, f * (1.0 - nu) / 2.0
    else:
        f = e / ((1.0 + nu) * (1.0 - 2.0 * nu))
        diagonal, shear = f * (1.0 - nu), f * (1.0 - 2.0 * nu) / 2.0
    out = np.zeros((len(e), 3, 3))
    out[:, 0, 0] = out[:, 1, 1] = diagonal
    out[:, 0, 1] = out[:, 1, 0] = f * nu
    out[:, 2, 2] = shear
    return out


def constitutive_matrix(material: Material, mode: str = "as-printed") -> np.ndarray:
    """3x3 symmetric matrix relating (eps_x, eps_y, gamma_xy) to stress: the
    one row of :func:`constitutive_matrices` for a single material."""
    return constitutive_matrices(MaterialField([material.E], [material.nu]), mode)[0]


def region_material_field(mesh: Mesh, base: Material, region: AngularRegion,
                          center) -> MaterialField:
    """``region``'s material on the elements whose centroid angle about
    ``center`` falls in the region, ``base`` on all others."""
    cen = mesh.triangle_centroids() - _as_point(center)
    inside = region.contains(np.degrees(_polar_angles(cen)))
    return MaterialField(np.where(inside, region.material.E, base.E),
                         np.where(inside, region.material.nu, base.nu))
