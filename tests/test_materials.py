import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from cardiofem import ConfigurationError, RingSpec
from cardiofem.materials import (
    AngularRegion,
    Material,
    MaterialField,
    constitutive_matrices,
    constitutive_matrix,
    region_material_field,
)
from cardiofem.phantom import make_ring

from oracles import interval_region_material_field, midpoint_stiff_sectors


def test_material_invariants():
    Material(1.0, 0.0)
    Material(2e5, 0.499)
    for bad in [(0.0, 0.3), (-1.0, 0.3), (1.0, 0.5), (1.0, -0.01), (np.nan, 0.3)]:
        with pytest.raises(ConfigurationError):
            Material(*bad)


def test_nu_zero_collapses_modes():
    for mode in ("as-printed", "plane-strain"):
        d = constitutive_matrix(Material(1.0, 0.0), mode)
        assert_allclose(d, np.diag([1.0, 1.0, 0.5]))


def test_as_printed_matrix_values():
    d = constitutive_matrix(Material(1e4, 0.3), "as-printed")
    factor = 1e4 / (1.0 - 0.09)
    expected = factor * np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 0.35]])
    assert_allclose(d, expected, rtol=1e-6)
    assert factor == pytest.approx(10989.010989, rel=1e-9)


def test_plane_strain_matrix_values():
    e, nu = 1e4, 0.3
    d = constitutive_matrix(Material(e, nu), "plane-strain")
    f = e / ((1 + nu) * (1 - 2 * nu))
    expected = f * np.array(
        [[1 - nu, nu, 0.0], [nu, 1 - nu, 0.0], [0.0, 0.0, (1 - 2 * nu) / 2]]
    )
    assert_allclose(d, expected, rtol=1e-12)


@pytest.mark.parametrize("mode", ["as-printed", "plane-strain"])
def test_symmetric_positive_definite(mode):
    rng = np.random.default_rng(4)
    for _ in range(25):
        m = Material(float(rng.uniform(1.0, 1e6)), float(rng.uniform(0.0, 0.49)))
        d = constitutive_matrix(m, mode)
        assert_allclose(d, d.T, atol=0.0)
        assert np.all(np.linalg.eigvalsh(d) > 0.0)


def test_linear_in_young_modulus():
    base = constitutive_matrix(Material(1.0, 0.27), "as-printed")
    scaled = constitutive_matrix(Material(8.0, 0.27), "as-printed")
    assert np.array_equal(scaled, 8.0 * base)


def test_unknown_mode():
    with pytest.raises(ConfigurationError):
        constitutive_matrix(Material(1.0, 0.3), "axisymmetric")


# ---------------------------------------------------------------------------
# material fields


def test_uniform_field(ring_mesh):
    mesh, _ = ring_mesh
    field = MaterialField.uniform(mesh, Material(5.0, 0.25))
    assert field.n_elements == mesh.n_triangles
    assert np.all(field.E == 5.0)
    assert np.all(field.nu == 0.25)


def test_region_field_full_cover(ring_mesh):
    mesh, _ = ring_mesh
    region = AngularRegion(0.0, 360.0, Material(9.0, 0.1))
    field = region_material_field(mesh, Material(3.0, 0.2), region, (0.0, 0.0))
    assert np.all(field.E == 9.0)
    assert np.all(field.nu == 0.1)


def test_region_field_quarter_brute_force():
    mesh, _ = make_ring(RingSpec(1.0, 2.0), 64, 8)
    region = AngularRegion(0.0, 90.0, Material(7.0, 0.4))
    field = region_material_field(mesh, Material(1.0, 0.3), region, (0.0, 0.0))
    centroids = mesh.triangle_centroids()
    angles = np.degrees(np.mod(np.arctan2(centroids[:, 1], centroids[:, 0]), 2 * np.pi))
    inside = (angles >= 0.0) & (angles < 90.0)
    assert np.array_equal(field.E, np.where(inside, 7.0, 1.0))
    assert np.array_equal(field.nu, np.where(inside, 0.4, 0.3))


def test_region_field_wraparound():
    mesh, _ = make_ring(RingSpec(1.0, 2.0), 64, 4)
    region = AngularRegion(350.0, 10.0, Material(7.0, 0.3))
    field = region_material_field(mesh, Material(1.0, 0.3), region, (0.0, 0.0))
    centroids = mesh.triangle_centroids()
    angles = np.degrees(np.mod(np.arctan2(centroids[:, 1], centroids[:, 0]), 2 * np.pi))
    expected = np.where((angles >= 350.0) | (angles < 10.0), 7.0, 1.0)
    assert np.array_equal(field.E, expected)


@functools.lru_cache(maxsize=None)
def _ring(n_angular, n_radial):
    return make_ring(RingSpec(1.0, 2.0), n_angular, n_radial)[0]


@st.composite
def _regions(draw):
    """A ring mesh from 8x1 to 128x16 and a region on it whose ends lie within
    +-720 degrees: anywhere, on a multiple of the mesh's angular step, or one
    whole number of turns past the start (the full circle)."""
    n_angular, n_radial = draw(st.integers(8, 128)), draw(st.integers(1, 16))
    step = 360.0 / n_angular
    ends = st.one_of(st.floats(-720.0, 720.0),
                     st.integers(-2 * n_angular, 2 * n_angular).map(lambda k: k * step))
    start = draw(ends)
    end = draw(st.one_of(ends, st.integers(-1, 1).map(lambda turns: start + 360.0 * turns)))
    return n_angular, n_radial, start, end


def _centroid_degrees(mesh, center):
    cen = mesh.triangle_centroids() - np.asarray(center)
    return np.degrees(np.mod(np.arctan2(cen[:, 1], cen[:, 0]), 2 * np.pi))


@settings(max_examples=300, deadline=None)
@given(_regions(), st.sampled_from([(0.0, 0.0), (0.3, -0.2)]))
def test_region_field_matches_the_interval_oracle(case, center):
    n_angular, n_radial, start, end = case
    mesh = _ring(n_angular, n_radial)
    base, region = Material(1.0, 0.3), AngularRegion(start, end, Material(7.0, 0.2))
    field = region_material_field(mesh, base, region, center)
    expected = interval_region_material_field(mesh, base, region, center)
    if start < end and start % 360.0 == end % 360.0 == 360.0:
        # both ends lie within rounding below 0, which the oracle's modulo
        # turns into 360 and so into the full circle
        expected = MaterialField.uniform(mesh, base)
    # Compared on every element but those whose centroid angle lies within
    # rounding of an end: the oracle compares the angle with each end, the
    # library its offset from the start with the span, and the two round
    # differently there (a centroid at 224.99999999999997 degrees is inside
    # the region from -32 to -135 for the oracle, outside for the library).
    # An angle within rounding below 0 reads 360.0, which none of the
    # oracle's intervals holds (test_region_seam_and_full_circle_cover_every_element).
    angles = _centroid_degrees(mesh, center)
    near = [np.minimum(d, 360.0 - d) < 1e-9 for d in (np.mod(angles - start, 360.0),
                                                     np.mod(angles - end, 360.0))]
    clear = ~(near[0] | near[1] | (angles == 360.0))
    assert np.array_equal(field.E[clear], expected.E[clear])
    assert np.array_equal(field.nu[clear], expected.nu[clear])


def test_region_just_below_zero_is_not_the_full_circle(ring_mesh):
    # -1e-14 % 360 rounds to 360.0; the former interval list then read this
    # region, narrower than any element, as the whole ring
    mesh, _ = ring_mesh
    region = AngularRegion(-2e-14, -1e-14, Material(9.0, 0.1))
    field = region_material_field(mesh, Material(3.0, 0.2), region, (0.0, 0.0))
    assert np.all(field.E == 3.0)
    former = interval_region_material_field(mesh, Material(3.0, 0.2), region, (0.0, 0.0))
    assert np.all(former.E == 9.0)


def test_region_seam_and_full_circle_cover_every_element():
    # this ring has one element centroid 1.7e-16 below the x axis through the
    # center, whose angle reads 360.0; a full circle starting one ulp above
    # an element's angle puts that angle's offset at -1 ulp, which np.mod
    # rounds to 360.0
    mesh, center = _ring(12, 5), (0.3, -0.2)
    angles = _centroid_degrees(mesh, center)
    seam = np.flatnonzero(angles == 360.0)
    assert len(seam) == 1
    base, stiff = Material(1.0, 0.3), Material(7.0, 0.2)
    for start in (0.0, 45.0, float(np.nextafter(angles[0], 360.0))):
        field = region_material_field(mesh, base, AngularRegion(start, start, stiff), center)
        assert np.all(field.E == 7.0)
    across = region_material_field(mesh, base, AngularRegion(350.0, 10.0, stiff), center)
    assert across.E[seam] == 7.0
    # the former interval list left the seam element out of the full circle
    former = interval_region_material_field(mesh, base, AngularRegion(0.0, 0.0, stiff), center)
    assert former.E[seam] == 1.0


def test_batch_matrices_match_single(ring_mesh):
    mesh, _ = ring_mesh
    field = region_material_field(
        mesh, Material(2.0, 0.2),
        AngularRegion(10.0, 200.0, Material(11.0, 0.4)), (0.0, 0.0),
    )
    for mode in ("as-printed", "plane-strain"):
        batch = constitutive_matrices(field, mode)
        for i in range(field.n_elements):
            single = constitutive_matrix(Material(field.E[i], field.nu[i]), mode)
            assert_allclose(batch[i], single, rtol=1e-15)


def test_contains_on_sector_midpoints_matches_the_former_midpoint_rule():
    # verify_ring's stiff sectors: the wedge's own test, as region_material_field
    # applies it, on the sector midpoints, for every sector count
    stiff = AngularRegion(225.0, 315.0, Material(7.0, 0.3))
    for n_sectors in range(2, 4097):
        mids = (np.arange(n_sectors) + 0.5) * (360.0 / n_sectors)
        assert np.array_equal(stiff.contains(mids), midpoint_stiff_sectors(n_sectors)), n_sectors
