"""Per-element strain extraction, effective strain, and sector aggregates.

A strain field is computed for all elements at once as B . d, with the
strain-displacement matrices that assembly uses. The per-element formula of
the method (strain in a local frame with node 1 at the origin and node 2 on
the positive x axis, tensor-rotated back to the global frame) is kept as
``element_strain`` and ``element_strain_local``; the tests check the field
against it. The local-frame values can be kept as debug output.

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
from .fem import DisplacementField, strain_displacement_matrices
from .materials import _check_mode
from .meshing import Mesh

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class StrainField:
    """Per-element strain components plus the effective-strain scalar."""

    eps_x: np.ndarray
    eps_y: np.ndarray
    gamma_xy: np.ndarray
    effective: np.ndarray
    local: np.ndarray | None = None  # (F, 3) strain in the element-local frame

    def __post_init__(self):
        for name in ("eps_x", "eps_y", "gamma_xy", "effective"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise GeometryError(f"{name} must be a finite 1D array")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.local is not None:
            loc = np.array(self.local, dtype=float)
            loc.setflags(write=False)
            object.__setattr__(self, "local", loc)

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


def _local_frame_strain(coords, disp) -> tuple[np.ndarray, np.ndarray]:
    """Strain in the node-1-origin, edge-1-2-aligned frame plus the rotation."""
    p = np.asarray(coords, dtype=float).reshape(3, 2)
    d = np.asarray(disp, dtype=float).reshape(3, 2)
    e21 = p[1] - p[0]
    x2p = float(np.hypot(e21[0], e21[1]))
    if x2p <= 0.0:
        raise GeometryError("degenerate element: nodes 1 and 2 coincide")
    cph = e21[0] / x2p
    sph = e21[1] / x2p
    rot = np.array([[cph, sph], [-sph, cph]])  # global -> local
    q3 = rot @ (p[2] - p[0])
    x3p, y3p = float(q3[0]), float(q3[1])
    if y3p <= 0.0:
        raise GeometryError("degenerate element: non-positive area after transform")

    el = d @ rot.T
    u1, v1 = el[0]
    u2, v2 = el[1]
    u3, v3 = el[2]
    denom = x2p * y3p
    eps_x = (u2 - u1) / x2p
    eps_y = ((x3p - x2p) * v1 - x3p * v2) / denom + v3 / y3p
    gamma = ((x3p - x2p) * u1 - x3p * u2) / denom - v1 / x2p + v2 / x2p + u3 / y3p
    return np.array([eps_x, eps_y, gamma]), rot


def element_strain_local(coords, disp) -> np.ndarray:
    """(eps_x, eps_y, gamma_xy) in the element-local rotated frame."""
    strain, _ = _local_frame_strain(coords, disp)
    return strain


def element_strain(coords, disp) -> np.ndarray:
    """(eps_x, eps_y, gamma_xy) of one triangle in the global frame.

    Computed in the local edge-aligned frame and rotated back; identical
    (to rounding) to B @ d with the element's strain-displacement matrix.
    """
    (ex, ey, g), rot = _local_frame_strain(coords, disp)
    tensor = np.array([[ex, 0.5 * g], [0.5 * g, ey]])
    glob = rot.T @ tensor @ rot
    return np.array([glob[0, 0], glob[1, 1], 2.0 * glob[0, 1]])


def effective_strain(eps_x, eps_y, gamma_xy, nu, mode: str = "as-printed"):
    """Scalar effective strain; vectorized over array inputs.

    Out-of-plane strain components are taken as zero in both constitutive
    modes, so ``mode`` does not alter the value; it is accepted for interface
    symmetry with the field pipeline.
    """
    _check_mode(mode)
    eps_x = np.asarray(eps_x, dtype=float)
    eps_y = np.asarray(eps_y, dtype=float)
    gamma_xy = np.asarray(gamma_xy, dtype=float)
    # plain multiplications only: unlike pow(), they round correctly, which
    # keeps the exchange symmetry and power-of-two homogeneity bit-exact
    diff = eps_x - eps_y
    num = np.sqrt(diff * diff + (eps_x * eps_x + eps_y * eps_y) + 1.5 * (gamma_xy * gamma_xy))
    out = num / ((1.0 + np.asarray(nu, dtype=float)) * math.sqrt(2.0))
    return out if out.ndim else float(out)


def _edge_frame(mesh: Mesh, comps: np.ndarray) -> np.ndarray:
    """Global (F, 3) strains rotated into each element's edge-1-2 frame."""
    p = mesh.nodes[mesh.triangles]
    e21 = p[:, 1] - p[:, 0]
    length = np.hypot(e21[:, 0], e21[:, 1])
    c, s = e21[:, 0] / length, e21[:, 1] / length
    cc, ss, cs = c * c, s * s, c * s
    ex, ey, g = comps.T
    return np.column_stack([
        cc * ex + ss * ey + cs * g,
        ss * ex + cc * ey - cs * g,
        2.0 * cs * (ey - ex) + (cc - ss) * g,
    ])


def strain_field(
    mesh: Mesh,
    disp: DisplacementField,
    nu,
    mode: str = "as-printed",
    keep_local: bool = False,
) -> StrainField:
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
    bmat, _ = strain_displacement_matrices(mesh.nodes, mesh.triangles)
    comps = np.einsum("fij,fj->fi", bmat, disp.values[mesh.triangles].reshape(nf, 6))
    local = _edge_frame(mesh, comps) if keep_local else None
    eff = effective_strain(comps[:, 0], comps[:, 1], comps[:, 2], nu_arr, mode)
    return StrainField(comps[:, 0], comps[:, 1], comps[:, 2], eff, local)


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
    c = _as_point(center)
    cen = mesh.triangle_centroids() - c
    sectors = sector_index(np.arctan2(cen[:, 1], cen[:, 0]), n_sectors)

    disp_at_centroid = disp.values[mesh.triangles].mean(axis=1)
    disp_mag = np.linalg.norm(disp_at_centroid, axis=1)

    counts = np.bincount(sectors, minlength=n_sectors)
    sum_disp = np.bincount(sectors, weights=disp_mag, minlength=n_sectors)
    sum_eff = np.bincount(sectors, weights=strain.effective, minlength=n_sectors)
    denom = np.maximum(counts, 1)
    return SectorSummary(
        n_sectors=n_sectors,
        mean_displacement=sum_disp / denom,
        mean_effective=sum_eff / denom,
        counts=counts,
    )
