"""Per-element strain extraction, effective strain, and sector aggregates.

A strain field is computed for all elements at once as B . d, with the
strain-displacement matrices that assembly uses. The per-element formula of
the method (strain in a local frame with node 1 at the origin and node 2 on
the positive x axis, tensor-rotated back to the global frame) lives in the
test suite as the oracle the field is checked against.

The effective strain scalar condenses the 2D strain state (with zero
out-of-plane components) into one non-negative deformation intensity:

    sqrt((ex - ey)^2 + ex^2 + ey^2 + 1.5 * gxy^2) / ((1 + nu) * sqrt(2))
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .contours import TWO_PI, _as_point, _polar_angles, _read_only
from .errors import GeometryError
from .fem import DisplacementField, _element_matrices
from .meshing import Mesh


@dataclass(frozen=True)
class StrainField:
    """Per-element strain components plus the effective-strain scalar."""

    eps_x: np.ndarray
    eps_y: np.ndarray
    gamma_xy: np.ndarray
    effective: np.ndarray

    def __post_init__(self):
        arrays = {f.name: np.array(getattr(self, f.name), dtype=float) for f in fields(self)}
        for name, arr in arrays.items():
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise GeometryError(f"{name} must be a finite 1D array")
        _read_only(self, **arrays)

    @property
    def n_elements(self) -> int:
        return len(self.eps_x)


@dataclass(frozen=True)
class SectorSummary:
    """Per-sector means of displacement magnitude and effective strain, and element counts."""

    mean_displacement: np.ndarray
    mean_effective: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        _read_only(self, mean_displacement=np.array(self.mean_displacement, dtype=float),
                   mean_effective=np.array(self.mean_effective, dtype=float),
                   counts=np.array(self.counts, dtype=np.int64))

    @property
    def n_sectors(self) -> int:
        return len(self.counts)


def effective_strain(eps_x, eps_y, gamma_xy, nu):
    """Scalar effective strain; vectorized over array inputs.

    Out-of-plane strain components are taken as zero in both constitutive
    modes, so the value does not depend on the mode.
    """
    eps_x = np.asarray(eps_x, dtype=float)
    eps_y = np.asarray(eps_y, dtype=float)
    gamma_xy = np.asarray(gamma_xy, dtype=float)
    # plain multiplications only: unlike pow(), they round correctly, which
    # keeps the exchange symmetry and power-of-two homogeneity bit-exact
    diff = eps_x - eps_y
    num = np.sqrt(diff * diff + (eps_x * eps_x + eps_y * eps_y) + 1.5 * (gamma_xy * gamma_xy))
    out = num / ((1.0 + np.asarray(nu, dtype=float)) * math.sqrt(2.0))
    return out if out.ndim else float(out)


def strain_field(mesh: Mesh, disp: DisplacementField, nu) -> StrainField:
    """Element-wise strain of a displacement field plus effective strain.

    ``nu`` is the per-element Poisson's ratio (pass ``material_field.nu``);
    a scalar is broadcast to all elements.
    """
    if len(disp.values) != mesh.n_nodes:
        raise GeometryError(
            f"displacement field has {len(disp.values)} nodes, mesh has {mesh.n_nodes}"
        )
    nf = mesh.n_triangles
    nu_arr = np.broadcast_to(np.asarray(nu, dtype=float), (nf,))
    bmat, _ = _element_matrices(mesh)
    comps = np.einsum("fij,fj->fi", bmat, disp.values[mesh.triangles].reshape(nf, 6))
    eff = effective_strain(comps[:, 0], comps[:, 1], comps[:, 2], nu_arr)
    return StrainField(comps[:, 0], comps[:, 1], comps[:, 2], eff)


def sector_index(angles_rad, n_sectors: int) -> np.ndarray:
    """Sector of each angle; exact sector boundaries, 2*pi included, go to the lower sector."""
    angles = np.asarray(angles_rad, dtype=float)
    angles = np.where(angles == TWO_PI, angles, np.mod(angles, TWO_PI))
    q = angles / (TWO_PI / n_sectors)
    s = np.floor(q).astype(np.int64)
    on_boundary = (q == s) & (s > 0)
    s[on_boundary] -= 1
    s[s >= n_sectors] = n_sectors - 1
    return s


def _element_sectors(mesh: Mesh, center, n_sectors: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sector of each element centroid about the center and the
    element count per sector, computed once per mesh, center and sector count."""
    c = _as_point(center)

    def compute():
        sectors = sector_index(_polar_angles(mesh.triangle_centroids() - c), n_sectors)
        return sectors, np.bincount(sectors, minlength=n_sectors)

    return mesh.cached(("sectors", c.tobytes(), n_sectors), compute)


def sector_average(
    mesh: Mesh,
    strain: StrainField,
    disp: DisplacementField,
    center,
    n_sectors: int = 16,
) -> SectorSummary:
    """Average displacement magnitude and effective strain per angular sector.

    Elements are binned by centroid angle about the center; the displacement
    at each element is interpolated to its centroid (mean of the three nodal
    vectors) before taking magnitudes.
    """
    if n_sectors < 1:
        raise GeometryError("n_sectors must be >= 1")
    if strain.n_elements != mesh.n_triangles:
        raise GeometryError("strain field does not match mesh")
    sectors, counts = _element_sectors(mesh, center, n_sectors)

    u = mesh.at_centroids(disp.values)
    disp_mag = np.sqrt(u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1])

    sum_disp = np.bincount(sectors, weights=disp_mag, minlength=n_sectors)
    sum_eff = np.bincount(sectors, weights=strain.effective, minlength=n_sectors)
    denom = np.maximum(counts, 1)
    return SectorSummary(sum_disp / denom, sum_eff / denom, counts)
