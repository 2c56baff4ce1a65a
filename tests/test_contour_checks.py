"""The linear-time contour checks against the exact code they replace.

``is_simple_polygon`` must give the verdict of the exact O(n^2) edge-pair
test (``contours._is_simple_exact``, its fallback) on every kind of polygon,
and ``uniform_angle_walls``, which shares one angular pass per wall between
its checks and the resampling, must give the bytes (or the error) of the
separate star check, angular sort and resampling it replaced, kept below;
``resample_uniform_angle`` must admit exactly the walls it admits.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cardiofem import GeometryError, StarShapeError
from cardiofem.contours import (
    ANGLE_TIE_TOL,
    Contour,
    FrameContours,
    RADIUS_TIE_RTOL,
    _angular_pass,
    _is_simple_exact,
    is_simple_polygon,
    rotate_about,
    uniform_angle_walls,
)
from cardiofem import contours

from conftest import star_contour

TWO_PI = 2.0 * math.pi


@pytest.fixture
def exact_calls(monkeypatch):
    calls = []

    def counting(pts):
        calls.append(len(pts))
        return _is_simple_exact(pts)

    monkeypatch.setattr(contours, "_is_simple_exact", counting)
    return calls


def _same_verdict(points):
    pts = np.asarray(points, dtype=float)
    assert is_simple_polygon(pts) == _is_simple_exact(pts)


# ---------------------------------------------------------------------------
# is_simple_polygon against the exact test


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=10))
def test_grid_polygons(vertices):
    # small integer grids give crossing, touching, collinear and repeated
    # vertices, with the exact test's arithmetic exact
    _same_verdict(vertices)


@st.composite
def star_polygons(draw):
    n = draw(st.integers(3, 60))
    angles = np.sort(draw(st.lists(
        st.floats(0.0, TWO_PI, exclude_max=True), min_size=n, max_size=n, unique=True,
    )))
    radii = np.array(draw(st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n)))
    center = np.array(draw(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))))
    pts = center + radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    pts = np.roll(pts, draw(st.integers(0, n - 1)), axis=0)
    return pts[::-1] if draw(st.booleans()) else pts


@given(star_polygons())
def test_star_shaped_and_clockwise_polygons(pts):
    _same_verdict(pts)


@given(star_polygons(), st.integers(0, 59), st.booleans())
def test_polygons_with_a_repeated_vertex(pts, k, consecutive):
    k %= len(pts)
    # next to itself it makes a zero-length edge; elsewhere the polygon touches itself
    at = k + 1 if consecutive else (k + len(pts) // 2) % len(pts)
    _same_verdict(np.insert(pts, at, pts[k], axis=0))


@given(st.integers(3, 12), st.lists(st.sampled_from([1, 2, 4]), min_size=12, max_size=12))
def test_polygons_with_collinear_runs(n, pieces):
    # a convex polygon on a coarse grid with its edges cut into exact pieces
    theta = TWO_PI * np.arange(n) / n
    corners = 64.0 * np.round(8 * np.column_stack([np.cos(theta), np.sin(theta)]))
    pts = [
        corners[i] + (corners[(i + 1) % n] - corners[i]) * j / pieces[i]
        for i in range(n)
        for j in range(pieces[i])
    ]
    _same_verdict(pts)


def _spiked(delta, n=24):
    """A point-symmetric polygon (centroid at the origin) with two radial
    spikes: vertex 1 at radius 2 sits delta radians past vertex 0 at radius 1."""
    theta = TWO_PI * np.arange(n // 2) / n
    radii = np.ones(n // 2)
    theta[1], radii[1] = delta, 2.0
    half = radii[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    return np.vstack([half, -half])


@pytest.mark.parametrize("delta, fast", [
    (1e-10, False), (5e-10, False),   # inside the 1e-9 margin
    (2e-9, True), (5e-9, True), (1e-7, True),   # just outside it
    (-1e-9, False), (-1e-4, False),   # a small backward notch: simple, not star
])
def test_near_degenerate_spikes(delta, fast, exact_calls):
    pts = _spiked(delta)
    assert is_simple_polygon(pts) == _is_simple_exact(pts)
    assert is_simple_polygon(pts)
    assert bool(exact_calls) != fast


@pytest.mark.parametrize("points, simple", [
    # pentagram: strictly monotone about its centroid, but it winds twice
    ([(math.cos(a), math.sin(a)) for a in TWO_PI * np.arange(0, 10, 2) / 5], False),
    # an L whose centroid is outside its kernel: simple, certified only by the fallback
    ([(0, 0), (6, 0), (6, 1), (1, 1), (1, 6), (0, 6)], True),
    # a crescent
    ([(0, 0), (4, -2), (8, 0), (4, -1)], True),
    # the centroid on a vertex
    ([(0, 0), (2, -1), (1, 1), (-1, 1), (-2, -1)], True),
    # a triangle collapsed onto a line
    ([(0, 0), (1, 0), (2, 0)], True),
])
def test_polygons_off_the_certificate(points, simple, exact_calls):
    pts = np.asarray(points, dtype=float)
    assert is_simple_polygon(pts) is simple
    assert _is_simple_exact(pts) is simple
    assert len(exact_calls) == 1


def test_dense_star_contour_takes_the_linear_path(exact_calls):
    contour = star_contour(2048, radius=25.0, center=(80.0, 60.0), seed=4)
    assert is_simple_polygon(contour.points)
    assert is_simple_polygon(contour.points[::-1])
    assert exact_calls == []


# ---------------------------------------------------------------------------
# uniform_angle_walls against the separate star check, sort and resampling


def _old_distance_to_edges(p, poly):
    a = poly
    b = np.roll(poly, -1, axis=0)
    ab = b - a
    ap = p[None, :] - a
    denom = np.einsum("ij,ij->i", ab, ab)
    proj = np.einsum("ij,ij->i", ap, ab)
    t = np.clip(np.divide(proj, denom, out=np.zeros_like(proj), where=denom > 0), 0.0, 1.0)
    closest = a + t[:, None] * ab
    return float(np.min(np.linalg.norm(p[None, :] - closest, axis=1)))


def _old_angles(points, c):
    d = points - c
    return np.mod(np.arctan2(d[:, 1], d[:, 0]), TWO_PI)


def _old_is_star_shaped(contour, c):
    pts = contour.points
    scale = float(np.max(np.abs(pts - c))) or 1.0
    if _old_distance_to_edges(c, pts) <= 1e-12 * scale:
        return False
    th = _old_angles(pts, c)
    diffs = np.diff(np.concatenate([th, th[:1]]))
    diffs = np.mod(diffs + math.pi, TWO_PI) - math.pi
    if not math.isclose(abs(float(np.sum(diffs))), TWO_PI, rel_tol=0, abs_tol=1e-9):
        return False
    return bool(np.all(diffs >= -ANGLE_TIE_TOL) or np.all(diffs <= ANGLE_TIE_TOL))


def _old_angular_permutation(contour, c):
    angles = _old_angles(contour.points, c)
    perm = np.argsort(angles, kind="stable")
    sorted_pts = contour.points[perm]
    scale = float(np.max(np.abs(sorted_pts - c))) or 1.0
    if _old_distance_to_edges(c, sorted_pts) <= 1e-12 * scale:
        raise GeometryError("center lies on the contour boundary")
    if not contours.points_in_polygon(c, sorted_pts)[0]:
        raise GeometryError("center lies outside the contour")
    th = angles[perm]
    radii = np.linalg.norm(sorted_pts - c, axis=1)
    gaps = np.diff(th)
    wrap_gap = (th[0] + TWO_PI) - th[-1]
    tied = np.concatenate([gaps <= ANGLE_TIE_TOL, [wrap_gap <= ANGLE_TIE_TOL]])
    if np.any(tied):
        r_scale = max(float(np.max(radii)), 1e-300)
        if np.any(tied & (np.abs(np.roll(radii, -1) - radii) > RADIUS_TIE_RTOL * r_scale)):
            raise StarShapeError(
                "multiple boundary points share an angle at different radii; "
                "contour is not star-shaped about the center"
            )
    return perm


def _old_resample(contour, c, n):
    perm = _old_angular_permutation(contour, c)
    pts = contour.points[perm]
    th = _old_angles(pts, c)
    radii = np.linalg.norm(pts - c, axis=1)
    keep = np.concatenate([[True], np.diff(th) > ANGLE_TIE_TOL])
    if len(th) > 1 and (th[0] + TWO_PI) - th[-1] <= ANGLE_TIE_TOL and keep[-1]:
        if perm[-1] > perm[0]:
            keep[-1] = False
    th, radii = th[keep], radii[keep]
    if len(th) < 3:
        raise GeometryError("contour collapses to fewer than 3 angular samples")
    grid = TWO_PI * np.arange(n) / n
    r = np.interp(grid, th, radii, period=TWO_PI)
    return c + r[:, None] * np.column_stack([np.cos(grid), np.sin(grid)])


def _old_walls(frame, c, n, rotation_deg, context):
    for label, wall in (("inner", frame.inner), ("outer", frame.outer)):
        if not _old_is_star_shaped(wall, c):
            raise StarShapeError(
                f"contour is not star-shaped about the reference center ({context} {label})"
            )
    walls = (frame.inner.points, frame.outer.points)
    if rotation_deg is not None:
        walls = [rotate_about(w, c, math.radians(rotation_deg)) for w in walls]
    return tuple(_old_resample(Contour(w), c, n) for w in walls)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (GeometryError, StarShapeError) as exc:
        return type(exc), str(exc)


@st.composite
def frames(draw):
    n = draw(st.integers(8, 96))
    seed = draw(st.integers(0, 2**16))
    amplitude = draw(st.floats(0.0, 0.1))
    center = (draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)))
    inner = star_contour(n, 10.0, center, seed, amplitude).points
    outer = star_contour(n + 3, 20.0, center, seed + 1, amplitude).points
    if draw(st.booleans()):
        inner = inner[::-1]
    if draw(st.booleans()):
        # a repeated vertex ties at its own angle and radius
        k = draw(st.integers(1, n - 1))
        inner = np.insert(inner, k, inner[k], axis=0)
    if draw(st.booleans()):
        # a vertex moved back past its predecessor breaks the star shape
        k = draw(st.integers(2, n - 1))
        inner = inner.copy()
        inner[k] = inner[k - 2] + 0.2 * (inner[k - 2] - np.asarray(center))
    return FrameContours(0, Contour(inner), Contour(outer))


@settings(max_examples=200, deadline=None)
@given(frames(), st.sampled_from([None, 0.0, 3.0, -7.5]), st.integers(3, 130),
       st.floats(-2.0, 2.0))
def test_walls_match_the_separate_passes(frame, rotation_deg, n, offset):
    c = contours.centroid(frame.inner)
    c = np.array([c[0] + offset, c[1]])
    expected = _outcome(_old_walls, frame, c, n, rotation_deg, f"frame {frame.frame_index}")
    got = _outcome(uniform_angle_walls, frame, c, n, rotation_deg)
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert got == expected
    else:
        assert np.array_equal(got[0].points, expected[0])
        assert np.array_equal(got[1].points, expected[1])


@settings(max_examples=200, deadline=None)
@given(frames(), st.integers(3, 130), st.floats(-2.0, 2.0))
def test_both_entry_points_admit_the_same_walls(frame, n, offset):
    # one rule for every angular use of a wall: resampling the inner wall
    # alone fails exactly when the frame's resampling rejects it, and with
    # the same error less the frame's suffix
    c = contours.centroid(frame.inner)
    c = np.array([c[0] + offset, c[1]])
    walls = _outcome(uniform_angle_walls, frame, c, n)
    alone = _outcome(contours.resample_uniform_angle, frame.inner, c, n)
    if isinstance(walls[0], type):
        kind, text = walls
        assume(not text.endswith(" outer)"))
        assert alone == (kind, text.removesuffix(" (frame 0 inner)"))
    else:
        assert isinstance(alone, Contour)
        assert np.array_equal(alone.points, walls[0].points)


def _check_center_inside(points_sorted, center):
    """GeometryError unless ``center`` lies inside the polygon of
    ``points_sorted`` and off its edges."""
    rel = points_sorted - center
    scale = float(np.max(np.abs(rel))) or 1.0
    if contours._distance_to_edges(rel) <= 1e-12 * scale:
        raise GeometryError("center lies on the contour boundary")
    if not contours.points_in_polygon(center, points_sorted)[0]:
        raise GeometryError("center lies outside the contour")


@settings(max_examples=200, deadline=None)
@given(n=st.integers(8, 96), seed=st.integers(0, 2**16), amplitude=st.floats(0.0, 0.1),
       kind=st.sampled_from(["clockwise", "repeated vertex", "both"]), k=st.integers(0, 95),
       offset=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
def test_star_pass_puts_the_center_inside_its_sorted_polygon(n, seed, amplitude, kind, k,
                                                             offset):
    # why the star check alone admits a wall, with no separate center check:
    # a star pass, whatever the vertex order and its ties, has the center off
    # the sorted polygon's edges and inside it
    center = np.array([40.0, -25.0])
    pts = star_contour(n, 10.0, center, seed, amplitude).points
    if kind != "repeated vertex":
        pts = pts[::-1]
    if kind != "clockwise":
        pts = np.insert(pts, k % n, pts[k % n], axis=0)
    c = center + np.asarray(offset)
    ap = _angular_pass(Contour(pts), c)
    assume(ap.star)
    _check_center_inside(pts[ap.perm], c)


@pytest.mark.parametrize("center, error", [
    ((1.0, 0.0), "center lies on the contour boundary"),
    ((5.0, 0.0), "center lies outside the contour"),
])
def test_resample_center_errors_unchanged(center, error):
    # the old path's center error is now the one star-shape error
    contour = star_contour(16, radius=1.0)
    with pytest.raises(StarShapeError) as err:
        contours.resample_uniform_angle(contour, center, 8)
    assert str(err.value) == "contour is not star-shaped about the reference center"
    assert _outcome(_old_resample, contour, np.array(center), 8) == (GeometryError, error)


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-12, 1.1])
def test_tied_vertices_unchanged(scale):
    # a vertex repeated at its own angle: the same point is tolerated, one at
    # another radius is a second crossing of the ray
    inner = star_contour(16, 1.0, seed=3).points
    inner = np.insert(inner, 4, scale * inner[3], axis=0)
    frame = FrameContours(0, Contour(inner), star_contour(16, 2.0))
    c = np.zeros(2)
    expected = _outcome(_old_walls, frame, c, 24, 0.0, f"frame {frame.frame_index}")
    got = _outcome(uniform_angle_walls, frame, c, 24, 0.0)
    if scale == 1.1:
        assert got == expected == (StarShapeError, (
            "multiple boundary points share an angle at different radii; "
            "contour is not star-shaped about the center"
        ))
    else:
        assert np.array_equal(got[0].points, expected[0])


def test_one_angular_pass_per_wall(monkeypatch):
    calls = []
    distance = contours._distance_to_edges
    monkeypatch.setattr(
        contours, "_distance_to_edges", lambda rel: calls.append(len(rel)) or distance(rel)
    )
    frame = FrameContours(
        3, star_contour(64, 10.0, seed=1), star_contour(64, 20.0, seed=2)
    )
    inner, outer = uniform_angle_walls(frame, (0.0, 0.0), 128, rotation_deg=2.0)
    # the star check measures each wall's distance to the center once, and
    # no other check measures it again
    assert calls == [64, 64]
    assert len(inner) == len(outer) == 128


@pytest.mark.parametrize("tied_inner, n", [(True, 24), (False, 2)])
def test_outer_star_check_comes_before_any_resampling(tied_inner, n):
    # the inner wall would fail its own resampling (a second ray crossing, or
    # n < 3); the outer wall's star check must still be the error raised
    inner = star_contour(16, 1.0, seed=3).points
    if tied_inner:
        inner = np.insert(inner, 4, 1.1 * inner[3], axis=0)
    outer = star_contour(16, 2.0, seed=4).points.copy()
    outer[5] = 1.2 * outer[3]  # moved back past its predecessor
    frame = FrameContours(7, Contour(inner), Contour(outer))
    with pytest.raises(StarShapeError) as err:
        uniform_angle_walls(frame, (0.0, 0.0), n)
    assert str(err.value) == (
        "contour is not star-shaped about the reference center (frame 7 outer)")
