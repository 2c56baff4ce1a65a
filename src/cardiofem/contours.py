"""Wall-contour geometry: validation, angular ordering, resampling, and
frame-to-frame boundary displacement extraction.

A contour is a closed polygon stored as an (n, 2) vertex array without a
repeated end vertex. Point correspondence between two time frames is defined
by resampling both frames onto a shared uniform angular grid about a fixed
reference center (the vertex centroid of the frame-0 inner contour) and
matching samples by angle. An optional rigid-rotation compensation removes a
known clockwise rotation of the later frame before matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GeometryError, StarShapeError

TWO_PI = 2.0 * math.pi

#: Two vertices closer than this in angle (radians) count as one angular sample.
ANGLE_TIE_TOL = 1e-10

#: Relative radius difference above which same-angle vertices are treated as
#: distinct boundary crossings rather than duplicated points.
RADIUS_TIE_RTOL = 1e-9


def _read_only(record, **arrays) -> None:
    """Store each of ``arrays`` on the frozen ``record`` under its name, read-only."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)


def _as_point(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float).reshape(2)
    if not np.all(np.isfinite(arr)):
        raise GeometryError("point coordinates must be finite")
    return arr


@dataclass(frozen=True)
class Contour:
    """Closed polygon; the ``FrameContours`` slot that holds it names its wall.

    The vertex array is copied and frozen at construction; instances are
    immutable and safe to share between threads.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise GeometryError(f"contour points must be (n, 2), got {pts.shape}")
        if len(pts) < 3:
            raise GeometryError("contour needs at least 3 points")
        if not np.isfinite(pts).all():
            raise GeometryError("contour contains non-finite coordinates")
        if (pts[0] == pts[-1]).all():
            raise GeometryError("closed contours must not repeat the first vertex")
        _read_only(self, points=pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class FrameContours:
    """Inner and outer wall contours of one time frame."""

    frame_index: int
    inner: Contour
    outer: Contour

    def __post_init__(self):
        if self.frame_index < 0:
            raise GeometryError("frame_index must be >= 0")
        if not np.all(points_in_polygon(self.inner.points, self.outer.points)):
            raise GeometryError("inner contour must lie strictly inside the outer contour")


@dataclass(frozen=True)
class BoundaryDisplacements:
    """Displacement vectors at matched angular samples of both walls.

    Positions are the frame-0 resampled boundary points; vectors are the
    per-sample displacement to the (de-rotated) later frame.
    """

    inner_positions: np.ndarray
    inner_vectors: np.ndarray
    outer_positions: np.ndarray
    outer_vectors: np.ndarray
    reference_center: tuple[float, float]

    def __post_init__(self):
        names = ("inner_positions", "inner_vectors", "outer_positions", "outer_vectors")
        arrays = {name: np.array(getattr(self, name), dtype=float) for name in names}
        for name, arr in arrays.items():
            if arr.ndim != 2 or arr.shape[1] != 2 or not np.all(np.isfinite(arr)):
                raise GeometryError(f"{name} must be a finite (n, 2) array")
        _read_only(self, **arrays)
        if len(self.inner_positions) != len(self.inner_vectors):
            raise GeometryError("inner positions/vectors length mismatch")
        if len(self.outer_positions) != len(self.outer_vectors):
            raise GeometryError("outer positions/vectors length mismatch")


# ---------------------------------------------------------------------------
# polygon primitives


def polygon_area(points) -> float:
    """Signed shoelace area (positive for counter-clockwise traversal)."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def points_in_polygon(query, polygon) -> np.ndarray:
    """Even-odd (ray casting) interior test, vectorized over query points."""
    q = np.atleast_2d(np.asarray(query, dtype=float))
    poly = np.asarray(polygon, dtype=float)
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    qx = q[:, 0][:, None]
    qy = q[:, 1][:, None]
    straddles = (y1 > qy) != (y2 > qy)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = x1 + (qy - y1) * (x2 - x1) / (y2 - y1)
    hits = straddles & (qx < x_cross)
    return np.count_nonzero(hits, axis=1) % 2 == 1


def _next(a: np.ndarray) -> np.ndarray:
    """Each row's cyclic successor, as ``np.roll(a, -1, axis=0)`` (and cheaper)."""
    return np.concatenate([a[1:], a[:1]])


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _within_bbox(p, a, b):
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return np.all((p >= lo) & (p <= hi), axis=-1)


def _segments_intersect(p1, p2, q1, q2) -> np.ndarray:
    d1 = _cross(q2 - q1, p1 - q1)
    d2 = _cross(q2 - q1, p2 - q1)
    d3 = _cross(p2 - p1, q1 - p1)
    d4 = _cross(p2 - p1, q2 - p1)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    touch = (
        ((d1 == 0) & _within_bbox(p1, q1, q2))
        | ((d2 == 0) & _within_bbox(p2, q1, q2))
        | ((d3 == 0) & _within_bbox(q1, p1, p2))
        | ((d4 == 0) & _within_bbox(q2, p1, p2))
    )
    return proper | touch


def _is_simple_exact(pts: np.ndarray) -> bool:
    """Exact O(n^2) test: no two non-adjacent edges intersect or touch."""
    n = len(pts)
    a = pts
    b = np.roll(pts, -1, axis=0)
    i_idx, j_idx = np.triu_indices(n, k=2)
    keep = ~((i_idx == 0) & (j_idx == n - 1))  # wrap-around pair is adjacent
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    if len(i_idx) == 0:
        return True
    return not bool(np.any(_segments_intersect(a[i_idx], b[i_idx], a[j_idx], b[j_idx])))


def _is_star_about_centroid(pts: np.ndarray) -> bool:
    """O(n) certificate of simplicity: the polygon winds once, strictly
    monotonically, about its vertex centroid.

    Every step between consecutive centroid-relative vertices must turn the
    same way by less than pi, and the turns must add up to one full turn;
    such a polygon is star-shaped about the centroid and hence simple
    (Preparata & Shamos, *Computational Geometry*, 1985). Each turn's cross
    product must clear a relative margin of 1e-9 |d_i| |d_i+1|, so rounding
    cannot fake a turn; the radii carry 1e-6 of the largest coordinate, which
    covers the rounding of ``d`` on contours far from the origin.
    """
    d = pts - pts.mean(axis=0)
    d_next = _next(d)
    cross = _cross(d, d_next)
    r = np.hypot(d[:, 0], d[:, 1]) + 1e-6 * float(np.abs(pts).max())
    margin = 1e-9 * r * _next(r)
    if not ((cross > margin).all() or (cross < -margin).all()):
        return False
    turn = float(np.arctan2(cross, np.einsum("ij,ij->i", d, d_next)).sum())
    return math.isclose(abs(turn), TWO_PI, rel_tol=0, abs_tol=1e-6)


def is_simple_polygon(points) -> bool:
    """True if no two non-adjacent edges of the closed polygon intersect or touch.

    Runs in O(n) for a polygon that winds strictly monotonically once about
    its vertex centroid (:func:`_is_star_about_centroid`); any other polygon,
    including one inside that certificate's margin, gets the exact O(n^2)
    test of all edge pairs.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        return False
    return _is_star_about_centroid(pts) or _is_simple_exact(pts)


def _distance_to_edges(rel: np.ndarray) -> float:
    """Distance from a point to a closed polygon, given the polygon's
    vertices relative to that point."""
    ab = _next(rel) - rel
    denom = np.einsum("ij,ij->i", ab, ab)
    proj = -np.einsum("ij,ij->i", rel, ab)
    # a zero-length edge projects onto its first endpoint (t = 0)
    t = np.clip(np.divide(proj, denom, out=np.zeros_like(proj), where=denom > 0), 0.0, 1.0)
    gap = rel + t[:, None] * ab
    return math.sqrt(float(np.einsum("ij,ij->i", gap, gap).min()))


def _polar_angles(rel: np.ndarray) -> np.ndarray:
    """Polar angle of each point of ``rel`` (relative to a center) in [0, 2*pi];
    2*pi only for an angle that rounds up from just below the +x axis."""
    return np.mod(np.arctan2(rel[:, 1], rel[:, 0]), TWO_PI)


class _AngularPass(NamedTuple):
    """A contour's vertices about one center, computed once and shared by the
    star, center and tie checks and the uniform-angle resampling."""

    perm: np.ndarray  # stable sort of the vertices by angle
    angles: np.ndarray  # in [0, 2*pi] (see _polar_angles), sorted
    radii: np.ndarray  # in angle order
    gaps: np.ndarray  # from each sorted angle to the next, the last one wrapping
    star: bool  # the polygon winds monotonically once about the center, off its edges


def _winds_once_monotonically(th: np.ndarray) -> bool:
    diffs = np.mod(_next(th) - th + math.pi, TWO_PI) - math.pi
    if not math.isclose(abs(float(diffs.sum())), TWO_PI, rel_tol=0, abs_tol=1e-9):
        return False
    return bool(diffs.min() >= -ANGLE_TIE_TOL or diffs.max() <= ANGLE_TIE_TOL)


def _angular_pass(contour: Contour, c: np.ndarray) -> _AngularPass:
    """The contour's angular pass about ``c``; ``star`` holds if the polygon,
    in vertex order, winds monotonically once about ``c`` (up to tied
    duplicates, in either direction) and ``c`` lies off its edges."""
    d = contour.points - c
    angles = _polar_angles(d)
    radii = np.linalg.norm(d, axis=1)
    perm = np.argsort(angles, kind="stable")
    th = angles[perm]
    gaps = np.concatenate([th[1:], [th[0] + TWO_PI]]) - th
    scale = float(np.abs(d).max()) or 1.0
    star = _distance_to_edges(d) > 1e-12 * scale and _winds_once_monotonically(angles)
    perm.setflags(write=False)
    return _AngularPass(perm, th, radii[perm], gaps, star)


def rotate_about(points, center, angle_rad: float) -> np.ndarray:
    """Rotate points about a center, counter-clockwise for positive angles."""
    c = _as_point(center)
    pts = np.asarray(points, dtype=float)
    ca, sa = math.cos(angle_rad), math.sin(angle_rad)
    rel = pts - c
    out = np.empty_like(rel)
    out[:, 0] = ca * rel[:, 0] - sa * rel[:, 1]
    out[:, 1] = sa * rel[:, 0] + ca * rel[:, 1]
    return out + c


# ---------------------------------------------------------------------------
# operations


def centroid(contour: Contour) -> tuple[float, float]:
    """Vertex centroid (arithmetic mean of the contour points) as an (x, y) pair."""
    return tuple(contour.points.mean(axis=0).tolist())


def _check_center_inside(points_sorted: np.ndarray, center: np.ndarray) -> None:
    rel = points_sorted - center
    scale = float(np.max(np.abs(rel))) or 1.0
    if _distance_to_edges(rel) <= 1e-12 * scale:
        raise GeometryError("center lies on the contour boundary")
    if not points_in_polygon(center, points_sorted)[0]:
        raise GeometryError("center lies outside the contour")


def _checked_pass(contour: Contour, c: np.ndarray, ap: _AngularPass) -> _AngularPass:
    """The contour's angular pass ``ap`` about ``c`` once the center and tie
    checks of :func:`angular_permutation` hold."""
    # the star check found the center off the edges and wound once about it
    if not ap.star:
        _check_center_inside(contour.points[ap.perm], c)

    radii = ap.radii
    tied = ap.gaps <= ANGLE_TIE_TOL
    if np.any(tied):
        r_scale = max(float(np.max(radii)), 1e-300)
        mismatched = tied & (np.abs(_next(radii) - radii) > RADIUS_TIE_RTOL * r_scale)
        if np.any(mismatched):
            raise StarShapeError(
                "multiple boundary points share an angle at different radii; "
                "contour is not star-shaped about the center"
            )
    return ap


def angular_permutation(contour: Contour, center) -> np.ndarray:
    """Indices that sort the contour vertices by angle about the center.

    The sort is stable, so vertices sharing an angle keep their input order.
    Vertices at the same angle (within ``ANGLE_TIE_TOL``) but at different
    radii mean a ray from the center crosses the boundary more than once,
    which violates the star-shape requirement. The returned array is
    read-only.
    """
    c = _as_point(center)
    return _checked_pass(contour, c, _angular_pass(contour, c)).perm


def _resample(contour: Contour, c: np.ndarray, ap: _AngularPass, n: int) -> Contour:
    """:func:`resample_uniform_angle` on the contour's angular pass about ``c``."""
    if n < 3:
        raise GeometryError("resampling needs n >= 3")
    _checked_pass(contour, c, ap)
    perm, gaps = ap.perm, ap.gaps

    # Duplicate angular samples: keep the first in input order (stable sort
    # puts it first within a tie run; resolve a wrap-around tie explicitly).
    keep = np.concatenate([[True], gaps[:-1] > ANGLE_TIE_TOL])
    if gaps[-1] <= ANGLE_TIE_TOL and keep[-1] and perm[-1] > perm[0]:
        keep[-1] = False
    th, radii = ap.angles[keep], ap.radii[keep]
    if len(th) < 3:
        raise GeometryError("contour collapses to fewer than 3 angular samples")

    grid = TWO_PI * np.arange(n) / n
    r = np.interp(grid, th, radii, period=TWO_PI)
    out = c + r[:, None] * np.column_stack([np.cos(grid), np.sin(grid)])
    return Contour(out)


def resample_uniform_angle(contour: Contour, center, n: int) -> Contour:
    """Resample onto n uniform angles about the center.

    Radii are linearly interpolated against angle between the (angle-ordered)
    input vertices, with periodic wrap-around. Output point k sits exactly at
    angle 2*pi*k/n.
    """
    c = _as_point(center)
    return _resample(contour, c, _angular_pass(contour, c), n)


def uniform_angle_walls(
    frame: FrameContours,
    center,
    n: int,
    rotation_deg: float | None = None,
) -> tuple[Contour, Contour]:
    """Both walls of one frame resampled onto n uniform angles about center.

    Each wall must be star-shaped about the center, checked for both before
    either is resampled; a failure names the wall and ``frame.frame_index``.
    With ``rotation_deg`` given, the walls are first rotated counter-clockwise
    by that angle about the center (the removal of a known clockwise
    rotation), even for 0, whose rotation can still round.
    """
    c = _as_point(center)
    walls = (frame.inner, frame.outer)
    if rotation_deg is not None:
        derot = math.radians(rotation_deg)
        walls = tuple(Contour(rotate_about(w.points, c, derot)) for w in walls)
    # Checked on the walls that are resampled, so that the check and the
    # resampling share one angular pass; a rotation about the center keeps
    # a wall star-shaped.
    passes = [_angular_pass(w, c) for w in walls]
    for label, ap in zip(("inner", "outer"), passes):
        if not ap.star:
            raise StarShapeError("contour is not star-shaped about the reference center "
                                 f"(frame {frame.frame_index} {label})")
    return tuple(_resample(w, c, ap, n) for w, ap in zip(walls, passes))


def boundary_displacements(
    frame0: FrameContours,
    frame1: FrameContours,
    n: int,
    rotation_deg: float = 0.0,
) -> BoundaryDisplacements:
    """Displacement vectors between matched boundary points of two frames.

    The reference center is the vertex centroid of the frame-0 inner contour
    and is held fixed for both frames. ``rotation_deg`` is the known clockwise
    rigid rotation of frame-1 relative to frame-0; it is removed (frame-1 is
    rotated counter-clockwise by that amount about the reference center)
    before the uniform-angle matching, so that a purely rotated frame yields
    zero displacement.
    """
    center = centroid(frame0.inner)
    i0, o0 = uniform_angle_walls(frame0, center, n)
    i1, o1 = uniform_angle_walls(frame1, center, n, rotation_deg)
    return BoundaryDisplacements(
        inner_positions=i0.points,
        inner_vectors=i1.points - i0.points,
        outer_positions=o0.points,
        outer_vectors=o1.points - o0.points,
        reference_center=center,
    )
