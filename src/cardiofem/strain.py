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
from dataclasses import dataclass

import numpy as np

from .contours import _as_point
from .errors import GeometryError
from .fem import DisplacementField, _element_matrices
from .meshing import Mesh

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class StrainField:
    """Per-element strain components plus the effective-strain scalar."""

    eps_x: np.ndarray
    eps_y: np.ndarray
    gamma_xy: np.ndarray
    effective: np.ndarray

    def __post_init__(self):
        for name in ("eps_x", "eps_y", "gamma_xy", "effective"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise GeometryError(f"{name} must be a finite 1D array")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_elements(self) -> int:
        return len(self.eps_x)


@dataclass(frozen=True)
class SectorSummary:
    """Per-sector means of displacement magnitude and effective strain."""

    n_sectors: int
    mean_displacement: np.ndarray
    mean_effective: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        md = np.array(self.mean_displacement, dtype=float)
        me = np.array(self.mean_effective, dtype=float)
        ct = np.array(self.counts, dtype=np.int64)
        if not (len(md) == len(me) == len(ct) == self.n_sectors):
            raise GeometryError("sector summary arrays must all have n_sectors entries")
        for arr, name in ((md, "mean_displacement"), (me, "mean_effective"), (ct, "counts")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


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
    """Sector of each angle; exact sector boundaries go to the lower sector."""
    angles = np.mod(np.asarray(angles_rad, dtype=float), TWO_PI)
    width = TWO_PI / n_sectors
    q = angles / width
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
        cen = mesh.triangle_centroids() - c
        sectors = sector_index(np.arctan2(cen[:, 1], cen[:, 0]), n_sectors)
        counts = np.bincount(sectors, minlength=n_sectors)
        sectors.setflags(write=False)
        counts.setflags(write=False)
        return sectors, counts

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

    disp_at_centroid = disp.values[mesh.triangles].mean(axis=1)
    disp_mag = np.linalg.norm(disp_at_centroid, axis=1)

    sum_disp = np.bincount(sectors, weights=disp_mag, minlength=n_sectors)
    sum_eff = np.bincount(sectors, weights=strain.effective, minlength=n_sectors)
    denom = np.maximum(counts, 1)
    return SectorSummary(
        n_sectors=n_sectors,
        mean_displacement=sum_disp / denom,
        mean_effective=sum_eff / denom,
        counts=counts,
    )
