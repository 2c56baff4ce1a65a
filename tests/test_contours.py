import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from cardiofem import GeometryError, StarShapeError
from cardiofem.contours import (
    Contour,
    FrameContours,
    angular_permutation,
    boundary_displacements,
    centroid,
    is_simple_polygon,
    is_star_shaped,
    points_in_polygon,
    polygon_area,
    resample_uniform_angle,
    rotate_about,
)

from conftest import circle_frame, star_contour

TWO_PI = 2.0 * math.pi


def test_contour_validation():
    with pytest.raises(GeometryError):
        Contour(np.array([[0.0, 0.0], [1.0, 0.0]]), "inner")
    with pytest.raises(GeometryError):
        Contour(np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]]), "inner")
    with pytest.raises(GeometryError):
        Contour(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), "wall")
    with pytest.raises(GeometryError):
        # repeated closing vertex
        Contour(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), "inner")


def test_contour_points_immutable():
    c = star_contour(16)
    with pytest.raises(ValueError):
        c.points[0, 0] = 99.0


# ---------------------------------------------------------------------------
# centroid


def test_centroid_unit_square():
    c = Contour(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), "inner")
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
    moved = Contour(base.points + np.array([dx, dy]), "inner")
    c0 = np.asarray(centroid(base))
    c1 = np.asarray(centroid(moved))
    assert_allclose(c1, c0 + np.array([dx, dy]), atol=1e-9)


def test_centroid_permutation_invariant():
    base = star_contour(24, seed=3, center=(7.0, -3.0))
    rng = np.random.default_rng(0)
    shuffled = Contour(base.points[rng.permutation(len(base))], "inner")
    assert_allclose(np.asarray(centroid(shuffled)), np.asarray(centroid(base)), atol=1e-12)


# ---------------------------------------------------------------------------
# ordering


def _ordered(contour, center):
    return Contour(contour.points[angular_permutation(contour, center)], contour.label)


def test_order_by_angle_cardinal_points():
    c = Contour(np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]), "inner")
    assert angular_permutation(c, (0.0, 0.0)).tolist() == [1, 0, 2, 3]


def test_order_by_angle_idempotent():
    once = _ordered(star_contour(32, seed=5), (0.0, 0.0))
    assert angular_permutation(once, (0.0, 0.0)).tolist() == list(range(32))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_order_by_angle_shuffle_invariant(seed):
    base = star_contour(32, seed=7)
    rng = np.random.default_rng(seed)
    shuffled = Contour(base.points[rng.permutation(len(base))], "inner")
    assert_allclose(
        _ordered(shuffled, (0.0, 0.0)).points, _ordered(base, (0.0, 0.0)).points
    )


def test_order_by_angle_is_permutation():
    base = star_contour(25, seed=11)
    perm = angular_permutation(base, (0.0, 0.0))
    assert sorted(perm.tolist()) == list(range(25))
    assert not perm.flags.writeable


def test_order_by_angle_center_outside():
    c = star_contour(16, radius=1.0)
    with pytest.raises(GeometryError):
        angular_permutation(c, (5.0, 0.0))


def test_order_by_angle_center_on_boundary():
    c = star_contour(16, radius=1.0)
    with pytest.raises(GeometryError):
        angular_permutation(c, (1.0, 0.0))


def test_order_by_angle_duplicate_angle_distinct_radius():
    pts = star_contour(16, radius=1.0).points
    bad = Contour(np.vstack([pts, [2.0, 0.0]]), "inner")  # second point at angle 0
    with pytest.raises(StarShapeError):
        angular_permutation(bad, (0.0, 0.0))


def test_duplicate_point_tolerated():
    pts = star_contour(16, radius=1.0).points
    dup = Contour(np.vstack([pts, pts[3]]), "inner")
    assert len(angular_permutation(dup, (0.0, 0.0))) == 17


# ---------------------------------------------------------------------------
# star-shape test


def test_is_star_shaped_circle():
    assert is_star_shaped(star_contour(32, seed=2), (0.0, 0.0))


def test_is_star_shaped_rejects_backtracking():
    theta = np.array([0.0, 0.8, 0.4, 1.6, 2.4, 3.2, 4.0, 4.8, 5.6])
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    assert not is_star_shaped(Contour(pts, "inner"), (0.0, 0.0))


def test_is_star_shaped_clockwise_ok():
    c = star_contour(16)
    reversed_pts = Contour(c.points[::-1], "inner")
    assert is_star_shaped(reversed_pts, (0.0, 0.0))


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
    out = resample_uniform_angle(Contour(pts, "inner"), (0.0, 0.0), n_out)
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
    inner = star_contour(32, 1.0, seed=4, label="inner")
    outer = star_contour(32, 2.0, seed=5, label="outer")
    f0 = FrameContours(0, inner, outer)
    c = np.asarray(centroid(inner))
    f1 = FrameContours(
        1,
        Contour(c + 0.9 * (inner.points - c), "inner"),
        Contour(c + 0.9 * (outer.points - c), "outer"),
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
        Contour(rotate_about(f0.inner.points, c, rot), "inner"),
        Contour(rotate_about(f0.outer.points, c, rot), "outer"),
    )
    bd = boundary_displacements(f0, f1, 32, rotation_deg=7.0)
    assert np.max(np.abs(bd.inner_vectors)) < 1e-9
    assert np.max(np.abs(bd.outer_vectors)) < 1e-9


@pytest.mark.parametrize("theta_deg", [3.0, 7.0, 15.0])
def test_boundary_displacements_rotation_invariance(theta_deg):
    inner = star_contour(32, 1.0, seed=6, label="inner")
    outer = star_contour(32, 2.0, seed=8, label="outer")
    f0 = FrameContours(0, inner, outer)
    c = np.asarray(centroid(inner))
    deformed = FrameContours(
        1,
        Contour(c + 0.93 * (inner.points - c), "inner"),
        Contour(c + 0.96 * (outer.points - c), "outer"),
    )
    rot = -math.radians(theta_deg)
    rotated = FrameContours(
        1,
        Contour(rotate_about(deformed.inner.points, c, rot), "inner"),
        Contour(rotate_about(deformed.outer.points, c, rot), "outer"),
    )
    plain = boundary_displacements(f0, deformed, 32, rotation_deg=0.0)
    comp = boundary_displacements(f0, rotated, 32, rotation_deg=theta_deg)
    assert_allclose(comp.inner_vectors, plain.inner_vectors, atol=1e-9)
    assert_allclose(comp.outer_vectors, plain.outer_vectors, atol=1e-9)


def test_boundary_displacements_star_violation():
    theta = np.array([0.0, 0.8, 0.4, 1.6, 2.4, 3.2, 4.0, 4.8, 5.6])
    bad_pts = 1.2 * np.column_stack([np.cos(theta), np.sin(theta)])
    f0 = circle_frame(0, inner_r=1.0, outer_r=2.0, n=9)
    bad = FrameContours(1, Contour(bad_pts, "inner"), f0.outer)
    with pytest.raises(StarShapeError):
        boundary_displacements(f0, bad, 16)


def test_frame_contours_containment():
    inner = star_contour(16, 2.0, label="inner")
    outer = star_contour(16, 1.0, label="outer")
    with pytest.raises(GeometryError):
        FrameContours(0, inner, outer)


def test_frame_contours_label_mismatch():
    a = star_contour(16, 1.0, label="outer")
    b = star_contour(16, 2.0, label="outer")
    with pytest.raises(GeometryError):
        FrameContours(0, a, b)


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
