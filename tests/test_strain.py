import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from cardiofem import CycleParams, GeometryError, RingSpec, cycle_strain_analysis, mi_wedge_study
from cardiofem.fem import DisplacementField, assemble
from cardiofem.materials import Material
from cardiofem.meshing import Mesh
from cardiofem.phantom import lame_displacement, lame_displacement_at, lame_strain_polar, make_ring
from cardiofem.strain import effective_strain, sector_average, sector_index, strain_field
from cardiofem import fem
from cardiofem import strain as strain_module
from cardiofem.study import frame_mesh

from conftest import boundary_dirichlet, solve_one
from oracles import (element_strain, element_strain_local, gather_centroids,
                     gather_sector_average, strain_displacement_matrix)

TWO_PI = 2.0 * math.pi


def _random_triangle(rng):
    while True:
        p = rng.uniform(-3, 3, (3, 2))
        u, v = p[1] - p[0], p[2] - p[0]
        if 0.5 * (u[0] * v[1] - u[1] * v[0]) > 0.05:
            return p


# ---------------------------------------------------------------------------
# element strain


def test_rigid_translation_zero_strain():
    coords = np.array([[0.0, 0.0], [2.0, 0.5], [0.7, 1.9]])
    disp = np.tile([0.3, -0.8], (3, 1))
    assert_allclose(element_strain(coords, disp), 0.0, atol=1e-15)


def test_uniaxial_stretch():
    coords = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    disp = np.column_stack([0.1 * coords[:, 0], np.zeros(3)])
    assert_allclose(element_strain(coords, disp), [0.1, 0.0, 0.0], atol=1e-15)


def test_infinitesimal_rotation_zero_strain():
    rng = np.random.default_rng(2)
    theta = 1e-3
    for _ in range(10):
        coords = _random_triangle(rng)
        disp = theta * np.column_stack([-coords[:, 1], coords[:, 0]])
        assert np.max(np.abs(element_strain(coords, disp))) < 1e-12


def test_element_strain_matches_b_matrix():
    rng = np.random.default_rng(5)
    for _ in range(50):
        coords = _random_triangle(rng)
        disp = rng.normal(scale=0.1, size=(3, 2))
        b, _ = strain_displacement_matrix(coords)
        expected = b @ disp.ravel()
        got = element_strain(coords, disp)
        assert np.max(np.abs(got - expected)) < 1e-10 * max(np.max(np.abs(expected)), 1.0)


def test_element_strain_local_frame():
    # triangle already aligned with the axes: local equals global
    coords = np.array([[1.0, 1.0], [3.0, 1.0], [1.5, 2.5]])
    rng = np.random.default_rng(8)
    disp = rng.normal(scale=0.05, size=(3, 2))
    assert_allclose(
        element_strain_local(coords, disp), element_strain(coords, disp), atol=1e-12
    )


def test_element_strain_degenerate():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(GeometryError):
        element_strain(coords, np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# strain fields


def test_zero_displacement_zero_field(ring_mesh):
    mesh, mats = ring_mesh
    disp = DisplacementField(np.zeros((mesh.n_nodes, 2)))
    sf = strain_field(mesh, disp, mats.nu)
    assert np.all(sf.eps_x == 0.0)
    assert np.all(sf.effective == 0.0)


def test_affine_displacement_constant_strain(ring_mesh):
    mesh, mats = ring_mesh
    a = (0.01, 0.03, -0.02)
    b = (0.0, 0.015, 0.04)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    disp = DisplacementField(
        np.column_stack([a[0] + a[1] * x + a[2] * y, b[0] + b[1] * x + b[2] * y])
    )
    sf = strain_field(mesh, disp, mats.nu)
    assert_allclose(sf.eps_x, a[1], rtol=1e-9)
    assert_allclose(sf.eps_y, b[2], rtol=1e-9)
    assert_allclose(sf.gamma_xy, a[2] + b[1], rtol=1e-9)


def _analytic_cartesian_strain(points, a_r, b_r, p, e_mod, nu):
    rn = np.linalg.norm(points, axis=1)
    eps_r, eps_t = lame_strain_polar(a_r, b_r, p, e_mod, nu, np.clip(rn, a_r, b_r))
    cos_t = points[:, 0] / rn
    sin_t = points[:, 1] / rn
    return (
        eps_r * cos_t**2 + eps_t * sin_t**2,
        eps_r * sin_t**2 + eps_t * cos_t**2,
        2.0 * (eps_r - eps_t) * sin_t * cos_t,
    )


def test_strain_field_against_ring_analytics():
    a_r, b_r, p, e_mod, nu = 1.0, 2.0, 1.0, 1e4, 0.3
    mesh, mats = make_ring(RingSpec(a_r, b_r, material=Material(e_mod, nu)), 64, 8)
    radii = np.linalg.norm(mesh.nodes, axis=1)
    exact = (lame_displacement(a_r, b_r, p, e_mod, nu, radii) / radii)[:, None] * mesh.nodes
    sf = strain_field(mesh, DisplacementField(exact), mats.nu)

    centroids = mesh.triangle_centroids()
    exact_x, exact_y, exact_g = _analytic_cartesian_strain(
        centroids, a_r, b_r, p, e_mod, nu
    )
    scale = np.linalg.norm(np.concatenate([exact_x, exact_y, exact_g]))
    raw_err = np.linalg.norm(
        np.concatenate([sf.eps_x - exact_x, sf.eps_y - exact_y, sf.gamma_xy - exact_g])
    )
    # raw constant-strain values carry the O(h) split-diagonal asymmetry
    assert raw_err < 0.05 * scale

    # averaging the two triangles of each structured quad cancels that
    # asymmetry; the recovered values match the analytic field to O(h^2)
    pair = lambda arr: 0.5 * (arr[0::2] + arr[1::2])
    pair_centroids = pair(centroids)
    px, py, pg = _analytic_cartesian_strain(pair_centroids, a_r, b_r, p, e_mod, nu)
    pair_scale = np.linalg.norm(np.concatenate([px, py, pg]))
    pair_err = np.linalg.norm(
        np.concatenate(
            [pair(sf.eps_x) - px, pair(sf.eps_y) - py, pair(sf.gamma_xy) - pg]
        )
    )
    assert pair_err < 0.02 * pair_scale


def test_fem_solution_strain_against_ring_analytics():
    a_r, b_r, p, e_mod, nu = 1.0, 2.0, 1.0, 1e4, 0.3
    mesh, mats = make_ring(RingSpec(a_r, b_r, material=Material(e_mod, nu)), 64, 8)
    system = assemble(mesh, mats, "plane-strain")
    radii = np.linalg.norm(mesh.nodes, axis=1)
    exact = (lame_displacement(a_r, b_r, p, e_mod, nu, radii) / radii)[:, None] * mesh.nodes
    disp = solve_one(system, *boundary_dirichlet(mesh, exact))
    sf = strain_field(mesh, disp, mats.nu)
    pair = lambda arr: 0.5 * (arr[0::2] + arr[1::2])
    pair_centroids = pair(mesh.triangle_centroids())
    px, py, pg = _analytic_cartesian_strain(pair_centroids, a_r, b_r, p, e_mod, nu)
    scale = np.linalg.norm(np.concatenate([px, py, pg]))
    err = np.linalg.norm(
        np.concatenate(
            [pair(sf.eps_x) - px, pair(sf.eps_y) - py, pair(sf.gamma_xy) - pg]
        )
    )
    assert err < 0.02 * scale


def _perturbed_annulus(seed):
    """Ring mesh with every node moved at random by up to 15 % of the
    smallest element's inscribed size, which keeps all elements
    counter-clockwise."""
    mesh, _ = make_ring(RingSpec(1.0, 2.0), 24, 4)
    rng = np.random.default_rng(seed)
    p = mesh.nodes[mesh.triangles]
    perimeter = sum(np.linalg.norm(p[:, i] - p[:, (i + 1) % 3], axis=1) for i in range(3))
    step = 0.15 * np.min(2.0 * mesh.triangle_areas() / perimeter)
    nodes = mesh.nodes + rng.uniform(-step, step, mesh.nodes.shape)
    moved = Mesh(nodes, mesh.triangles, mesh.inner_edges, mesh.outer_edges)
    assert np.all(moved.triangle_areas() > 0.0)
    return moved


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_strain_field_matches_element_loop(seed):
    mesh = _perturbed_annulus(seed)
    rng = np.random.default_rng(100 + seed)
    disp = DisplacementField(rng.normal(scale=0.05, size=(mesh.n_nodes, 2)))
    sf = strain_field(mesh, disp, 0.3)
    glob = np.array([element_strain(mesh.nodes[t], disp.values[t]) for t in mesh.triangles])
    got = np.column_stack([sf.eps_x, sf.eps_y, sf.gamma_xy])
    assert np.max(np.abs(got - glob)) <= 1e-12 * np.max(np.abs(glob))


def test_strain_field_rejects_clockwise_element():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(nodes, [[0, 2, 1]], [[0, 1]], np.zeros((0, 2)))
    disp = DisplacementField(np.zeros((3, 2)))
    with pytest.raises(GeometryError):
        strain_field(mesh, disp, 0.3)


def test_strain_field_node_count_mismatch(ring_mesh):
    mesh, mats = ring_mesh
    with pytest.raises(GeometryError):
        strain_field(mesh, DisplacementField(np.zeros((5, 2))), mats.nu)


# ---------------------------------------------------------------------------
# effective strain


def test_effective_strain_zero():
    assert effective_strain(0.0, 0.0, 0.0, 0.3) == 0.0


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.45])
def test_effective_strain_uniaxial(nu):
    e = 0.02
    assert effective_strain(e, 0.0, 0.0, nu) == pytest.approx(e / (1.0 + nu), rel=1e-14)


def _scratch_effective(ex, ey, gxy, nu):
    # independent literal transcription, with the out-of-plane terms written out
    ez = gxz = gyz = 0.0
    num = math.sqrt(
        (ex - ey) ** 2
        + (ey - ez) ** 2
        + (ex - ez) ** 2
        + 1.5 * (gxy**2 + gxz**2 + gyz**2)
    )
    return num / ((1.0 + nu) * math.sqrt(2.0))


def test_effective_strain_against_scratch_implementation():
    rng = np.random.default_rng(17)
    for _ in range(100):
        ex, ey, gxy = rng.normal(scale=0.05, size=3)
        nu = rng.uniform(0.0, 0.49)
        got = effective_strain(ex, ey, gxy, nu)
        want = _scratch_effective(ex, ey, gxy, nu)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-30)


def test_effective_strain_spec_point():
    got = effective_strain(0.02, -0.01, 0.015, 0.3)
    assert got == pytest.approx(_scratch_effective(0.02, -0.01, 0.015, 0.3), rel=1e-14)


def test_effective_strain_swap_symmetry_exact():
    rng = np.random.default_rng(23)
    for _ in range(100):
        ex, ey, gxy = rng.normal(scale=0.05, size=3)
        nu = rng.uniform(0.0, 0.49)
        assert effective_strain(ex, ey, gxy, nu) == effective_strain(ey, ex, gxy, nu)


def test_effective_strain_power_of_two_homogeneity_exact():
    rng = np.random.default_rng(29)
    for k in (-3, -1, 1, 4, 10):
        s = 2.0**k
        ex, ey, gxy = rng.normal(scale=0.05, size=3)
        nu = 0.3
        assert effective_strain(s * ex, s * ey, s * gxy, nu) == s * effective_strain(
            ex, ey, gxy, nu
        )


_strain_values = st.one_of(
    st.just(0.0),
    st.floats(1e-6, 0.5),
    st.floats(-0.5, -1e-6),
)


@given(ex=_strain_values, ey=_strain_values, gxy=_strain_values,
       s=st.one_of(st.just(0.0), st.floats(1e-6, 100.0)))
def test_effective_strain_homogeneous_degree_one(ex, ey, gxy, s):
    # magnitudes small enough to underflow the squared terms are out of scope
    nu = 0.3
    lhs = effective_strain(s * ex, s * ey, s * gxy, nu)
    rhs = s * effective_strain(ex, ey, gxy, nu)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


def test_effective_strain_vectorized():
    ex = np.array([0.01, 0.02])
    out = effective_strain(ex, np.zeros(2), np.zeros(2), 0.3)
    assert out.shape == (2,)
    assert_allclose(out, ex / 1.3)


def test_effective_strain_nonnegative_and_zero_iff_zero():
    rng = np.random.default_rng(31)
    trip = rng.normal(scale=0.1, size=(200, 3))
    vals = effective_strain(trip[:, 0], trip[:, 1], trip[:, 2], 0.3)
    assert np.all(vals >= 0.0)
    assert np.all(vals[np.any(trip != 0.0, axis=1)] > 0.0)


# ---------------------------------------------------------------------------
# sector averaging


def test_sector_index_boundaries():
    width = TWO_PI / 16
    # 2*pi, a polar angle just below the +x axis, is the last sector's upper boundary
    angles = np.array([0.0, 0.5 * width, width, width + 1e-9, 15.5 * width, TWO_PI])
    assert sector_index(angles, 16).tolist() == [0, 0, 0, 1, 15, 15]


def test_sector_single_covers_global_mean(ring_mesh):
    mesh, mats = ring_mesh
    rng = np.random.default_rng(3)
    disp = DisplacementField(rng.normal(scale=0.02, size=(mesh.n_nodes, 2)))
    sf = strain_field(mesh, disp, mats.nu)
    summary = sector_average(mesh, sf, disp, (0.0, 0.0), 1)
    assert summary.counts[0] == mesh.n_triangles
    assert summary.mean_effective[0] == pytest.approx(float(np.mean(sf.effective)))


def test_sector_symmetry(ring_mesh):
    mesh, mats = ring_mesh
    radii = np.linalg.norm(mesh.nodes, axis=1)
    disp = DisplacementField(0.01 * mesh.nodes / radii[:, None] * radii[:, None] ** 2)
    sf = strain_field(mesh, disp, mats.nu)
    summary = sector_average(mesh, sf, disp, (0.0, 0.0), 16)
    assert np.ptp(summary.mean_effective) < 1e-6 * np.max(summary.mean_effective)
    assert np.ptp(summary.mean_displacement) < 1e-6 * np.max(summary.mean_displacement)
    assert np.all(summary.counts == mesh.n_triangles // 16)


def test_sector_indicator_field():
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 64, 8)
    centroids = mesh.triangle_centroids()
    sectors = sector_index(np.arctan2(centroids[:, 1], centroids[:, 0]), 16)
    # synthetic strain field: effective strain 1 in sector 0 elements
    from cardiofem.strain import StrainField

    eff = (sectors == 0).astype(float)
    sf = StrainField(np.zeros_like(eff), np.zeros_like(eff), np.zeros_like(eff), eff)
    disp = DisplacementField(np.zeros((mesh.n_nodes, 2)))
    summary = sector_average(mesh, sf, disp, (0.0, 0.0), 16)
    assert summary.mean_effective[0] == pytest.approx(1.0)
    assert np.all(summary.mean_effective[1:] == 0.0)
    assert summary.counts.sum() == mesh.n_triangles


def _assert_gather_oracle(mesh, sf, disp, center, summary):
    assert np.array_equal(mesh.triangle_centroids(), gather_centroids(mesh, mesh.nodes))
    assert np.array_equal(mesh.at_centroids(disp.values), gather_centroids(mesh, disp.values))
    want = gather_sector_average(mesh, sf, disp, center, summary.n_sectors)
    for name in ("mean_displacement", "mean_effective", "counts"):
        assert np.array_equal(getattr(summary, name), getattr(want, name)), name


@pytest.mark.parametrize("n_angular, n_radial", [(64, 8), (128, 16), (256, 32)])
def test_centroid_means_are_bitwise_the_gather_oracle_on_rings(n_angular, n_radial):
    # the three node rows are summed in the order mean() reduces them, and the
    # magnitude takes the two squares in the order norm() sums them
    spec = RingSpec(1.0, 2.0, (0.3, -0.2))
    mesh, mats = make_ring(spec, n_angular, n_radial)
    disp = DisplacementField(lame_displacement_at(spec, 1.0, mesh.nodes))
    sf = strain_field(mesh, disp, mats.nu)
    _assert_gather_oracle(mesh, sf, disp, spec.center,
                          sector_average(mesh, sf, disp, spec.center, 16))


def test_centroid_means_are_bitwise_the_gather_oracle_on_a_study_mesh():
    study = mi_wedge_study(seed=5, n_frames=4)
    center = frame_mesh(study.slices[0].frames[0], 128, 16)[0]
    for result in cycle_strain_analysis(study, CycleParams(n_points=128, n_radial=16)):
        _assert_gather_oracle(result.model.mesh, result.strain, result.displacement, center,
                              result.sectors)


def test_mesh_geometry_computed_once_per_mesh(monkeypatch):
    # assembly and every frame's strain share one B computation per mesh, and
    # the sector bins are computed once per mesh, center and sector count
    b_calls, bin_calls = [], []
    real_b, real_bin = fem.strain_displacement_matrices, strain_module.sector_index

    def counting_b(*args):
        b_calls.append(1)
        return real_b(*args)

    def counting_bin(*args):
        bin_calls.append(1)
        return real_bin(*args)

    monkeypatch.setattr(fem, "strain_displacement_matrices", counting_b)
    monkeypatch.setattr(strain_module, "sector_index", counting_bin)
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 32, 4)
    b_calls.clear()
    rng = np.random.default_rng(4)
    assemble(mesh, mats)
    for _ in range(3):
        disp = DisplacementField(rng.normal(scale=0.02, size=(mesh.n_nodes, 2)))
        sf = strain_field(mesh, disp, mats.nu)
        sector_average(mesh, sf, disp, (0.0, 0.0), 16)
    sector_average(mesh, sf, disp, (0.0, 0.0), 8)
    sector_average(mesh, sf, disp, (0.1, 0.0), 8)
    assert (len(b_calls), len(bin_calls)) == (1, 3)
    other, _ = make_ring(RingSpec(1.0, 2.0), 32, 4)
    strain_field(other, disp, mats.nu)
    assert len(b_calls) == 2
