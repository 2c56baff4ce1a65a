import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from cardiofem import GeometryError, StarShapeError
from cardiofem.contours import (
    Contour,
    FrameContours,
    _angular_pass,
    _polar_angles,
    boundary_displacements,
    centroid,
    is_simple_polygon,
    points_in_polygon,
    polygon_area,
    resample_uniform_angle,
    rotate_about,
    uniform_angle_walls,
)

from cardiofem.strain import sector_index
from conftest import circle_frame, star_contour
from oracles import mod_sector_index, site_polar_angles

TWO_PI = 2.0 * math.pi


def test_contour_validation():
    with pytest.raises(GeometryError):
        Contour(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(GeometryError):
        Contour(np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]]))
    with pytest.raises(GeometryError):
        # repeated closing vertex
        Contour(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))


def test_contour_points_immutable():
    c = star_contour(16)
    with pytest.raises(ValueError):
        c.points[0, 0] = 99.0


# ---------------------------------------------------------------------------
# centroid


def test_centroid_unit_square():
    c = Contour(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert centroid(c) == (0.5, 0.5)


def test_centroid_circle_samples():
    c = star_contour(32, radius=5.0, center=(3.0, 4.0))
    assert_allclose(np.asarray(centroid(c)), [3.0, 4.0], atol=1e-12)


@given(
    dx=st.floats(-100, 100, allow_nan=False),
    dy=st.floats(-100, 100, allow_nan=False),
)
def test_centroid_translation_equivariant(dx, dy):
    base = star_contour(20, seed=1)
    moved = Contour(base.points + np.array([dx, dy]))
    c0 = np.asarray(centroid(base))
    c1 = np.asarray(centroid(moved))
    assert_allclose(c1, c0 + np.array([dx, dy]), atol=1e-9)


def test_centroid_permutation_invariant():
    base = star_contour(24, seed=3, center=(7.0, -3.0))
    rng = np.random.default_rng(0)
    shuffled = Contour(base.points[rng.permutation(len(base))])
    assert_allclose(np.asarray(centroid(shuffled)), np.asarray(centroid(base)), atol=1e-12)


# ---------------------------------------------------------------------------
# ordering: the stable angular sort of every resampling, on any point set


def _perm(contour, center):
    return _angular_pass(contour, np.asarray(center, dtype=float)).perm


def _ordered(contour, center):
    return Contour(contour.points[_perm(contour, center)])


def test_order_by_angle_cardinal_points():
    c = Contour(np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]))
    assert _perm(c, (0.0, 0.0)).tolist() == [1, 0, 2, 3]


def test_order_by_angle_idempotent():
    once = _ordered(star_contour(32, seed=5), (0.0, 0.0))
    assert _perm(once, (0.0, 0.0)).tolist() == list(range(32))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_order_by_angle_shuffle_invariant(seed):
    base = star_contour(32, seed=7)
    rng = np.random.default_rng(seed)
    shuffled = Contour(base.points[rng.permutation(len(base))])
    assert_allclose(
        _ordered(shuffled, (0.0, 0.0)).points, _ordered(base, (0.0, 0.0)).points
    )


def test_order_by_angle_is_permutation():
    base = star_contour(25, seed=11)
    perm = _perm(base, (0.0, 0.0))
    assert sorted(perm.tolist()) == list(range(25))


def test_order_by_angle_center_outside():
    c = star_contour(16, radius=1.0)
    with pytest.raises(StarShapeError):
        resample_uniform_angle(c, (5.0, 0.0), 8)


def test_order_by_angle_center_on_boundary():
    c = star_contour(16, radius=1.0)
    with pytest.raises(StarShapeError):
        resample_uniform_angle(c, (1.0, 0.0), 8)


def test_order_by_angle_duplicate_angle_distinct_radius():
    pts = star_contour(16, radius=1.0).points
    bad = Contour(np.vstack([pts, [2.0, 0.0]]))  # second point at angle 0
    with pytest.raises(StarShapeError, match="share an angle at different radii"):
        resample_uniform_angle(bad, (0.0, 0.0), 8)


def test_duplicate_point_tolerated():
    # a vertex repeated next to itself ties at its own angle and radius
    pts = star_contour(16, radius=1.0).points
    dup = Contour(np.insert(pts, 4, pts[3], axis=0))
    assert np.array_equal(resample_uniform_angle(dup, (0.0, 0.0), 24).points,
                          resample_uniform_angle(Contour(pts), (0.0, 0.0), 24).points)


# ---------------------------------------------------------------------------
# star-shape test


def _star(contour, center):
    return _angular_pass(contour, np.asarray(center, dtype=float)).star


def test_is_star_shaped_circle():
    assert _star(star_contour(32, seed=2), (0.0, 0.0))


def test_is_star_shaped_rejects_backtracking():
    theta = np.array([0.0, 0.8, 0.4, 1.6, 2.4, 3.2, 4.0, 4.8, 5.6])
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    assert not _star(Contour(pts), (0.0, 0.0))
    frame = FrameContours(4, Contour(pts), star_contour(16, 2.0))
    with pytest.raises(StarShapeError, match=r"reference center \(frame 4 inner\)$"):
        uniform_angle_walls(frame, (0.0, 0.0), 16)


def test_resample_rejects_the_backtracking_wall():
    # the wall uniform_angle_walls rejects above, by the same rule and text
    theta = np.array([0.0, 0.8, 0.4, 1.6, 2.4, 3.2, 4.0, 4.8, 5.6])
    wall = Contour(np.column_stack([np.cos(theta), np.sin(theta)]))
    with pytest.raises(StarShapeError) as err:
        resample_uniform_angle(wall, (0.0, 0.0), 16)
    assert str(err.value) == "contour is not star-shaped about the reference center"


def test_is_star_shaped_clockwise_ok():
    c = star_contour(16)
    reversed_pts = Contour(c.points[::-1])
    assert _star(reversed_pts, (0.0, 0.0))


# ---------------------------------------------------------------------------
# resampling


def test_resample_circle_constant_radius():
    c = star_contour(40, radius=3.5, center=(1.0, -2.0))
    for n in (8, 32, 100):
        out = resample_uniform_angle(c, (1.0, -2.0), n)
        radii = np.linalg.norm(out.points - np.array([1.0, -2.0]), axis=1)
        assert_allclose(radii, 3.5, atol=1e-9)


def test_resample_identity_on_grid():
    c = star_contour(32, radius=2.0)
    out = resample_uniform_angle(c, (0.0, 0.0), 32)
    assert_allclose(out.points, c.points, atol=1e-12)


def test_resample_output_angles_exact():
    c = star_contour(32, seed=9)
    out = resample_uniform_angle(c, (0.0, 0.0), 24)
    angles = np.mod(np.arctan2(out.points[:, 1], out.points[:, 0]), TWO_PI)
    assert_allclose(angles, TWO_PI * np.arange(24) / 24, atol=1e-12)


def test_resample_ellipse_against_polar_formula():
    a, b, n_in, n_out = 2.0, 1.0, 512, 64
    theta = TWO_PI * np.arange(n_in) / n_in
    pts = np.column_stack([a * np.cos(theta), b * np.sin(theta)])
    out = resample_uniform_angle(Contour(pts), (0.0, 0.0), n_out)
    phi = TWO_PI * np.arange(n_out) / n_out
    analytic = a * b / np.sqrt((b * np.cos(phi)) ** 2 + (a * np.sin(phi)) ** 2)
    radii = np.linalg.norm(out.points, axis=1)
    assert np.max(np.abs(radii - analytic)) < 1e-3


def test_resample_needs_three_points():
    c = star_contour(16)
    with pytest.raises(GeometryError):
        resample_uniform_angle(c, (0.0, 0.0), 2)


# ---------------------------------------------------------------------------
# boundary displacements


def test_boundary_displacements_identity():
    f0 = circle_frame(0)
    f1 = circle_frame(1)
    bd = boundary_displacements(f0, f1, 32)
    assert_allclose(bd.inner_vectors, 0.0, atol=1e-12)
    assert_allclose(bd.outer_vectors, 0.0, atol=1e-12)


def test_boundary_displacements_uniform_contraction():
    inner = star_contour(32, 1.0, seed=4)
    outer = star_contour(32, 2.0, seed=5)
    f0 = FrameContours(0, inner, outer)
    c = np.asarray(centroid(inner))
    f1 = FrameContours(
        1,
        Contour(c + 0.9 * (inner.points - c)),
        Contour(c + 0.9 * (outer.points - c)),
    )
    bd = boundary_displacements(f0, f1, 64)
    for pos, vec in ((bd.inner_positions, bd.inner_vectors),
                     (bd.outer_positions, bd.outer_vectors)):
        radii = np.linalg.norm(pos - c, axis=1)
        assert_allclose(np.linalg.norm(vec, axis=1), 0.1 * radii, atol=1e-9)
        # inward: vector anti-parallel to the radial direction
        assert np.all(np.einsum("ij,ij->i", vec, pos - c) < 0.0)


def test_boundary_displacements_rotation_compensation():
    f0 = circle_frame(0)
    c = np.asarray(centroid(f0.inner))
    rot = -math.radians(7.0)  # 7 degrees clockwise
    f1 = FrameContours(
        1,
        Contour(rotate_about(f0.inner.points, c, rot)),
        Contour(rotate_about(f0.outer.points, c, rot)),
    )
    bd = boundary_displacements(f0, f1, 32, rotation_deg=7.0)
    assert np.max(np.abs(bd.inner_vectors)) < 1e-9
    assert np.max(np.abs(bd.outer_vectors)) < 1e-9


@pytest.mark.parametrize("theta_deg", [3.0, 7.0, 15.0])
def test_boundary_displacements_rotation_invariance(theta_deg):
    inner = star_contour(32, 1.0, seed=6)
    outer = star_contour(32, 2.0, seed=8)
    f0 = FrameContours(0, inner, outer)
    c = np.asarray(centroid(inner))
    deformed = FrameContours(
        1,
        Contour(c + 0.93 * (inner.points - c)),
        Contour(c + 0.96 * (outer.points - c)),
    )
    rot = -math.radians(theta_deg)
    rotated = FrameContours(
        1,
        Contour(rotate_about(deformed.inner.points, c, rot)),
        Contour(rotate_about(deformed.outer.points, c, rot)),
    )
    plain = boundary_displacements(f0, deformed, 32, rotation_deg=0.0)
    comp = boundary_displacements(f0, rotated, 32, rotation_deg=theta_deg)
    assert_allclose(comp.inner_vectors, plain.inner_vectors, atol=1e-9)
    assert_allclose(comp.outer_vectors, plain.outer_vectors, atol=1e-9)


def test_boundary_displacements_star_violation():
    theta = np.array([0.0, 0.8, 0.4, 1.6, 2.4, 3.2, 4.0, 4.8, 5.6])
    bad_pts = 1.2 * np.column_stack([np.cos(theta), np.sin(theta)])
    f0 = circle_frame(0, inner_r=1.0, outer_r=2.0, n=9)
    bad = FrameContours(1, Contour(bad_pts), f0.outer)
    with pytest.raises(StarShapeError):
        boundary_displacements(f0, bad, 16)


def test_frame_contours_containment():
    inner = star_contour(16, 2.0)
    outer = star_contour(16, 1.0)
    with pytest.raises(GeometryError):
        FrameContours(0, inner, outer)


# ---------------------------------------------------------------------------
# polygon utilities


def test_polygon_area_square():
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    assert polygon_area(square) == pytest.approx(4.0)
    assert polygon_area(square[::-1]) == pytest.approx(-4.0)


def test_is_simple_polygon():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert is_simple_polygon(square)
    assert not is_simple_polygon(bowtie)


def test_points_in_polygon():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    inside = points_in_polygon([[0.5, 0.5], [2.0, 0.5], [0.9, 0.1]], square)
    assert inside.tolist() == [True, False, True]


@pytest.mark.parametrize("center", [(0.0, 0.0), (128.0, 128.0), (-0.3, 2.5)])
def test_polar_angles_equal_each_former_site_expression(center):
    # random points, and points a few ulps either side of the +x axis, where
    # np.mod rounds an angle just below it up to exactly 2*pi
    c = np.asarray(center)
    k = np.arange(-8, 9)[:, None]
    dx = np.array([1e-3, 1.0, 37.5, 1e3, 1e5])
    near = [np.stack(np.broadcast_arrays(c[0] + dx, c[1] + dy), axis=-1).reshape(-1, 2)
            for dy in (k * np.spacing(c[1]), k * 2.0**-53 * dx)]
    rng = np.random.default_rng(11)
    points = np.vstack([c + 10.0 * rng.normal(size=(2000, 2)), *near])
    angles = _polar_angles(points - c)
    assert (angles == TWO_PI).any() and (angles == 0.0).any()
    for site, former in site_polar_angles(points, c).items():
        new = np.degrees(angles) if site.startswith("materials") else angles
        assert new.tobytes() == former.tobytes(), site
    theta = site_polar_angles(points, c)["fem._fold_order"]
    assert np.array_equal(np.minimum(theta, TWO_PI - theta), np.minimum(theta, 2.0 * np.pi - theta))
    # _element_sectors gave the former sector_index the bare arctan2
    rel = points - c
    for n_sectors in (1, 2, 3, 7, 16, 1024):
        assert np.array_equal(sector_index(angles, n_sectors),
                              mod_sector_index(np.arctan2(rel[:, 1], rel[:, 0]), n_sectors))
