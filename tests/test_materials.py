import numpy as np
import pytest
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
