import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cardiofem import ConfigurationError, GeometryError, RingSpec, verify_ring
from cardiofem.contours import Contour, FrameContours, boundary_displacements
from cardiofem.fem import boundary_conditions_from_displacements, assemble
from cardiofem.materials import AngularRegion, Material
from cardiofem.meshing import triangulate_annulus
from cardiofem.phantom import (
    lame_displacement,
    lame_displacement_at,
    lame_strain_polar,
    make_ring,
    pressure_load_cycle,
    solve_ring_traction,
)
from cardiofem.strain import effective_strain, sector_average, strain_field

from conftest import assert_no_child_left, boundary_dirichlet, cpus, region_ring, solve_one


def test_ring_spec_validation():
    with pytest.raises(ConfigurationError):
        RingSpec(2.0, 1.0)
    with pytest.raises(ConfigurationError):
        RingSpec(0.0, 1.0)


# ---------------------------------------------------------------------------
# analytic oracle


def test_lame_zero_pressure():
    r = np.linspace(1.0, 2.0, 7)
    assert np.all(lame_displacement(1.0, 2.0, 0.0, 1e4, 0.3, r) == 0.0)


def test_lame_linearity_in_pressure():
    r = np.linspace(1.0, 2.0, 7)
    u1 = lame_displacement(1.0, 2.0, 1.0, 1e4, 0.3, r)
    u2 = lame_displacement(1.0, 2.0, 2.0, 1e4, 0.3, r)
    assert_allclose(u2, 2.0 * u1, rtol=1e-14)


def test_lame_positive_outward():
    r = np.linspace(1.0, 2.0, 7)
    assert np.all(lame_displacement(1.0, 2.0, 1.0, 1e4, 0.3, r) > 0.0)


def test_lame_outside_wall():
    with pytest.raises(GeometryError):
        lame_displacement(1.0, 2.0, 1.0, 1e4, 0.3, 0.5)
    with pytest.raises(GeometryError):
        lame_displacement(1.0, 2.0, 1.0, 1e4, 0.3, 2.5)


def test_a_ring_centred_far_from_the_origin_verifies():
    # wall radii |p - c| carry rounding of about eps * max|p|, 5.8e-11 at 1e6,
    # far beyond 1e-12 * b: these centres used to fail with "radius outside
    # the ring wall [a, b]"
    origin = verify_ring(RingSpec(1.0, 2.0))
    for center in [(1e5, 1e5), (1e6, -1e6)]:
        spec = RingSpec(1.0, 2.0, center)
        far = verify_ring(spec)
        assert far.failures == []
        assert_allclose(far.l2_errors, origin.l2_errors, rtol=0.0, atol=2e-12)
        # a point genuinely outside the wall still raises
        with pytest.raises(GeometryError, match="outside the ring wall"):
            lame_displacement_at(spec, 1.0, [[center[0] + 1.1 * 2.0, center[1]]])


def test_lame_strain_consistent_with_displacement():
    # eps_theta = u / r and eps_r = du/dr (central difference oracle)
    a, b, p, e_mod, nu = 1.0, 2.0, 1.0, 1e4, 0.3
    r = np.linspace(1.05, 1.95, 11)
    eps_r, eps_t = lame_strain_polar(a, b, p, e_mod, nu, r)
    u = lame_displacement(a, b, p, e_mod, nu, r)
    assert_allclose(eps_t, u / r, rtol=1e-12)
    h = 1e-6
    du = (
        lame_displacement(a, b, p, e_mod, nu, r + h)
        - lame_displacement(a, b, p, e_mod, nu, r - h)
    ) / (2 * h)
    assert_allclose(eps_r, du, rtol=1e-7)


def test_lame_cross_validated_by_traction_fem():
    # the closed form must agree with the independent Neumann solve before
    # it may be used as the oracle elsewhere
    spec = RingSpec(1.0, 2.0, material=Material(1e4, 0.3))
    mesh, mats = make_ring(spec, 128, 16)
    disp = solve_ring_traction(mesh, assemble(mesh, mats, "plane-strain"), 1.0)
    radii = np.linalg.norm(mesh.nodes, axis=1)
    for r_test in (1.0, 1.5, 2.0):
        sel = np.abs(radii - r_test) < 1e-9
        assert np.any(sel)
        radial = np.einsum(
            "ij,ij->i", disp.values[sel], mesh.nodes[sel] / radii[sel, None]
        )
        expected = lame_displacement(1.0, 2.0, 1.0, 1e4, 0.3, r_test)
        assert np.max(np.abs(radial - expected)) < 0.01 * expected


# ---------------------------------------------------------------------------
# ring construction


def test_make_ring_homogeneous():
    mesh, mats = make_ring(RingSpec(1.0, 2.0, material=Material(5.0, 0.2)), 64, 8)
    assert np.all(mats.E == 5.0)
    assert np.all(mats.nu == 0.2)
    area = float(mesh.triangle_areas().sum())
    assert abs(area - 3.0 * math.pi) / (3.0 * math.pi) < 0.005


def test_make_ring_stiff_region_partition():
    stiff = AngularRegion(0.0, 90.0, Material(10.0, 0.3))
    mesh, mats = region_ring(RingSpec(1.0, 2.0, material=Material(1.0, 0.3)), 64, 8, stiff)
    centroids = mesh.triangle_centroids()
    angles = np.degrees(np.mod(np.arctan2(centroids[:, 1], centroids[:, 0]), 2 * np.pi))
    expected = np.where((angles >= 0.0) & (angles < 90.0), 10.0, 1.0)
    assert np.array_equal(mats.E, expected)


# ---------------------------------------------------------------------------
# pressure cycle


def test_cycle_zero_pressure_frame_identical():
    frames = pressure_load_cycle(RingSpec(1.0, 2.0), (0.0, 0.5), n_points=32)
    base_inner = np.linalg.norm(frames[0].inner.points, axis=1)
    assert_allclose(base_inner, 1.0, atol=1e-12)


def test_cycle_monotone_inner_radius():
    frames = pressure_load_cycle(RingSpec(1.0, 2.0), [k / 5 for k in range(6)], n_points=32)
    radii = [float(np.linalg.norm(f.inner.points, axis=1).mean()) for f in frames]
    assert all(r1 < r2 for r1, r2 in zip(radii, radii[1:]))


def test_cycle_superposition():
    frames = pressure_load_cycle(RingSpec(1.0, 2.0), [k / 10 for k in range(11)], n_points=32)
    u_full = frames[10].inner.points - frames[0].inner.points
    for k in range(11):
        u_k = frames[k].inner.points - frames[0].inner.points
        assert_allclose(u_k, (k / 10.0) * u_full, atol=1e-9)


def test_cycle_fem_matches_analytic_for_homogeneous():
    # the closed-form cycle's inner wall against the traction solve's
    spec = RingSpec(1.0, 2.0)
    analytic = pressure_load_cycle(spec, (0.0, 1.0), n_points=64)
    mesh, mats = make_ring(spec, 64, 8)
    disp = solve_ring_traction(mesh, assemble(mesh, mats, "plane-strain"), 1.0)
    inner = mesh.boundary_nodes("inner")
    fem = mesh.nodes[inner] + disp.values[inner]
    diff = np.abs(fem - analytic[1].inner.points)
    scale = np.max(np.abs(analytic[1].inner.points - analytic[0].inner.points))
    assert np.max(diff) < 0.02 * scale


# ---------------------------------------------------------------------------
# end-to-end verification loop


def _pipeline_solve(spec, n_angular, n_radial, pressure=1.0):
    """(mesh, displacement) of the contour pipeline on the ring: the cycle's
    frames, their boundary displacements, the Dirichlet conditions they give
    on the frame-0 mesh and one solve."""
    frames = pressure_load_cycle(spec, (0.0, pressure), n_points=n_angular)
    bd = boundary_displacements(frames[0], frames[1], n_angular)
    mesh = triangulate_annulus(frames[0].inner, frames[0].outer, n_radial)
    _, mats = make_ring(spec, n_angular, n_radial)
    disp = solve_one(
        assemble(mesh, mats, "plane-strain"), *boundary_conditions_from_displacements(mesh, bd)
    )
    return mesh, disp


def _pipeline_error(spec, n_angular, n_radial, pressure=1.0):
    """Contour pipeline (cycle frames -> boundary displacements -> Dirichlet
    solve) versus the analytic interior field; area-weighted L2."""
    mesh, disp = _pipeline_solve(spec, n_angular, n_radial, pressure)

    centroids = mesh.triangle_centroids()
    rn = np.linalg.norm(centroids, axis=1)
    u_num = disp.values[mesh.triangles].mean(axis=1)
    u_exact = (
        lame_displacement(
            spec.inner_radius, spec.outer_radius, pressure, spec.material.E,
            spec.material.nu, np.clip(rn, spec.inner_radius, spec.outer_radius),
        )
        / rn
    )[:, None] * centroids
    areas = mesh.triangle_areas()
    err = np.sqrt(np.sum(areas * np.sum((u_num - u_exact) ** 2, axis=1)))
    ref = np.sqrt(np.sum(areas * np.sum(u_exact**2, axis=1)))
    return err / ref


def test_end_to_end_pipeline_matches_oracle():
    spec = RingSpec(1.0, 2.0, material=Material(1e4, 0.3))
    errors = [_pipeline_error(spec, na, nr) for na, nr in [(32, 4), (64, 8), (128, 16)]]
    assert errors[1] < 0.01
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 1.7


def _strain_errors(spec, n_angular, n_radial):
    """The Lame-valued Dirichlet solve of the plane-strain ring against the
    closed-form strain: :func:`_lame_strain_errors`."""
    mesh, mats = make_ring(spec, n_angular, n_radial)
    system = assemble(mesh, mats, "plane-strain")
    disp = solve_one(system, *boundary_dirichlet(mesh, lame_displacement_at(spec, 1.0, mesh.nodes)))
    return _lame_strain_errors(spec, mesh, disp)


def _pipeline_strain_errors(spec, n_angular, n_radial):
    """The contour pipeline's route to the strain map against the closed-form
    strain: :func:`_lame_strain_errors`."""
    return _lame_strain_errors(spec, *_pipeline_solve(spec, n_angular, n_radial))


def _lame_strain_errors(spec, mesh, disp):
    """The strain of ``disp`` against the closed-form strain at element
    centroids: area-weighted relative L2 errors of the strain tensor and of the
    effective strain, and the largest error of the 16 sector means of
    effective strain relative to the analytic sector mean. The analytic
    effective strain depends on the radius alone and every sector holds the
    same radial layers, so each analytic sector mean is the element mean of
    the analytic effective strain."""
    sf = strain_field(mesh, disp, spec.material.nu)

    centroids = mesh.triangle_centroids()
    r = np.linalg.norm(centroids, axis=1)
    cos, sin = centroids[:, 0] / r, centroids[:, 1] / r
    a, b, m = spec.inner_radius, spec.outer_radius, spec.material
    eps_r, eps_t = lame_strain_polar(a, b, 1.0, m.E, m.nu, np.clip(r, a, b))
    exact = (eps_r * cos * cos + eps_t * sin * sin, eps_r * sin * sin + eps_t * cos * cos,
             2.0 * (eps_r - eps_t) * sin * cos)
    exact_eff = effective_strain(*exact, m.nu)

    areas = mesh.triangle_areas()
    # the tensor norm: a shear strain gamma_xy is two tensor entries of gamma_xy / 2
    weights = (1.0, 1.0, 0.5)
    diff2 = sum(w * (got - want) ** 2
                for w, got, want in zip(weights, (sf.eps_x, sf.eps_y, sf.gamma_xy), exact))
    ref2 = sum(w * want ** 2 for w, want in zip(weights, exact))
    tensor = math.sqrt(np.sum(areas * diff2) / np.sum(areas * ref2))
    eff = math.sqrt(np.sum(areas * (sf.effective - exact_eff) ** 2)
                    / np.sum(areas * exact_eff ** 2))
    sectors = sector_average(mesh, sf, disp, spec.center, 16).mean_effective
    sector = float(np.max(np.abs(sectors - exact_eff.mean())) / exact_eff.mean())
    return tensor, eff, sector


# b/a 2 measured at 32x4, 64x8, 128x16: tensor 1.07e-1, 5.35e-2, 2.68e-2
# (orders 1.00, 1.00); effective 4.03e-2, 1.92e-2, 9.50e-3 (1.07, 1.02);
# sector means 1.31e-2, 3.33e-3, 8.36e-4 (1.98, 1.99). The thin walls, b/a
# 1.1 and 1.02, at 64x2, 128x4, 256x8: tensor 2.82e-2, 1.41e-2, 7.06e-3 and
# 1.60e-2, 7.99e-3, 4.00e-3; lowest orders (tensor, effective, sector)
# 0.999, 1.00, 1.99 and 1.00, 1.02, 2.00. Bounds: mid-resolution errors at
# 1.1x the measured value, orders at 0.9x the smaller measured order. The
# Dirichlet and the contour-pipeline routes give these numbers alike, the
# sector errors within 1.3e-7 of each other relatively
LAME_STRAIN_RINGS = [
    (2.0, [(32, 4), (64, 8), (128, 16)], [0.059, 0.0212, 0.0037], [0.9, 0.9, 1.78]),
    (1.1, [(64, 2), (128, 4), (256, 8)], [0.0156, 0.0058, 3.01e-5], [0.89, 0.9, 1.79]),
    (1.02, [(64, 2), (128, 4), (256, 8)], [0.0088, 0.00123, 2.34e-4], [0.89, 0.91, 1.79]),
]


def _check_strain_converges(route):
    for outer, resolutions, error_bounds, order_bounds in LAME_STRAIN_RINGS:
        spec = RingSpec(1.0, outer, material=Material(1e4, 0.3))
        errors = np.array([route(spec, na, nr) for na, nr in resolutions])
        orders = np.log2(errors[:-1] / errors[1:]).min(axis=0)
        assert np.all(errors[1] <= error_bounds), (outer, errors)
        assert np.all(orders >= order_bounds), (outer, orders)


def test_strain_converges_to_lame():
    _check_strain_converges(_strain_errors)


def test_pipeline_strain_converges_to_lame():
    # the strain map on the contour pipeline's route, not only its displacements
    _check_strain_converges(_pipeline_strain_errors)


def test_inhomogeneous_low_mobility_sectors():
    stiff = AngularRegion(225.0, 315.0, Material(1e5, 0.3))
    spec = RingSpec(1.0, 2.0, material=Material(1e4, 0.3))
    mesh, mats = region_ring(spec, 64, 8, stiff)
    disp = solve_ring_traction(mesh, assemble(mesh, mats, "plane-strain"), 1.0, anchor_deg=270.0)
    sf = strain_field(mesh, disp, mats.nu)
    summary = sector_average(mesh, sf, disp, spec.center, 16)
    stiff_idx = np.array([10, 11, 12, 13])
    normal_idx = np.array([i for i in range(16) if i not in stiff_idx])
    md = summary.mean_displacement
    # stiff-wedge mobility strictly below the normal-sector aggregate
    assert md[stiff_idx].mean() < md[normal_idx].mean()
    assert md[stiff_idx].max() < md[normal_idx].min()


def test_anchor_requires_axis_aligned_angle():
    spec = RingSpec(1.0, 2.0)
    mesh, mats = make_ring(spec, 64, 8)
    with pytest.raises(ConfigurationError, match="anchor_deg must be a multiple of 90 degrees"):
        solve_ring_traction(mesh, assemble(mesh, mats, "plane-strain"), 1.0, anchor_deg=45.0)
    mesh, mats = make_ring(spec, 30, 8)  # not divisible by 4
    with pytest.raises(ConfigurationError, match="n_angular must be divisible by 4"):
        solve_ring_traction(mesh, assemble(mesh, mats, "plane-strain"), 1.0)


# ---------------------------------------------------------------------------
# the verification suite against the route it replaced


def _old_sector_summary(mesh, mats, disp, spec, n_sectors):
    sf = strain_field(mesh, disp, mats.nu)
    return sector_average(mesh, sf, disp, spec.center, n_sectors)


def _old_pipeline_resolve(mesh, mats, disp, n_points):
    """Re-derive boundary conditions from deformed contours and solve again,
    on a system assembled afresh and eliminated."""
    inner_nodes = mesh.boundary_nodes("inner")
    outer_nodes = mesh.boundary_nodes("outer")
    frame0 = FrameContours(
        0,
        Contour(mesh.nodes[inner_nodes]),
        Contour(mesh.nodes[outer_nodes]),
    )
    frame1 = FrameContours(
        1,
        Contour(mesh.nodes[inner_nodes] + disp.values[inner_nodes]),
        Contour(mesh.nodes[outer_nodes] + disp.values[outer_nodes]),
    )
    bd = boundary_displacements(frame0, frame1, n_points)
    system = assemble(mesh, mats, "plane-strain")
    return solve_one(system, *boundary_conditions_from_displacements(mesh, bd))


def _old_lame_dirichlet_error(spec, n_angular, n_radial):
    """Centroid-sampled relative L2 error of a freshly meshed ring whose
    boundary nodes are eliminated to the oracle values."""
    mesh, mats = make_ring(spec, n_angular, n_radial)
    system = assemble(mesh, mats, "plane-strain")
    exact_nodes = lame_displacement_at(spec, 1.0, mesh.nodes)
    disp = solve_one(system, *boundary_dirichlet(mesh, exact_nodes))

    areas = mesh.triangle_areas()
    num_at_centroids = disp.values[mesh.triangles].mean(axis=1)
    rel = mesh.triangle_centroids() - np.asarray(spec.center, dtype=float)
    radii = np.clip(np.linalg.norm(rel, axis=1), spec.inner_radius, spec.outer_radius)
    exact_at_centroids = (
        lame_displacement(
            spec.inner_radius, spec.outer_radius, 1.0, spec.material.E,
            spec.material.nu, radii,
        )
        / np.linalg.norm(rel, axis=1)
    )[:, None] * rel
    diff2 = np.einsum("ij,ij->i", num_at_centroids - exact_at_centroids,
                      num_at_centroids - exact_at_centroids)
    ref2 = np.einsum("ij,ij->i", exact_at_centroids, exact_at_centroids)
    return float(np.sqrt(np.sum(areas * diff2) / np.sum(areas * ref2)))


def _old_verification(spec, n_points, n_radial, n_sectors):
    """L2 errors, orders and the stiff ring's (traction, pipeline) summaries
    as the command line computed them: every ring meshed and assembled per
    solve, every solve eliminated."""
    resolutions = [
        (n_points // 2, max(n_radial // 2, 1)), (n_points, n_radial),
        (n_points * 2, n_radial * 2),
    ]
    errors = [_old_lame_dirichlet_error(spec, na, nr) for na, nr in resolutions]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    stiff = AngularRegion(225.0, 315.0, Material(spec.material.E * 10.0, spec.material.nu))
    mesh, mats = region_ring(spec, n_points, n_radial, stiff)
    disp = solve_ring_traction(mesh, assemble(mesh, mats, "plane-strain"), 1.0, anchor_deg=270.0)
    traction = _old_sector_summary(mesh, mats, disp, spec, n_sectors)
    disp2 = _old_pipeline_resolve(mesh, mats, disp, n_points)
    pipeline = _old_sector_summary(mesh, mats, disp2, spec, n_sectors)
    return errors, orders, traction, pipeline


@pytest.mark.parametrize("spec, n_points, n_radial", [
    (RingSpec(1.0, 2.0, material=Material(1e4, 0.3)), 32, 4),
    (RingSpec(1.0, 2.0, material=Material(1e4, 0.3)), 64, 8),
    (RingSpec(1.0, 2.0, material=Material(5e4, 0.25)), 64, 8),
])
def test_verify_ring_matches_eliminated_route(spec, n_points, n_radial):
    report = verify_ring(spec, n_points, n_radial, 16)
    errors, orders, traction, pipeline = _old_verification(spec, n_points, n_radial, 16)
    assert np.array_equal(report.l2_errors, errors)
    assert np.array_equal(report.orders, orders)
    for got, want in ((report.traction, traction), (report.pipeline, pipeline)):
        for name in ("mean_displacement", "mean_effective", "counts"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    assert report.failures == []
    assert len(report.checks) == 6


def _count_ring_work(monkeypatch):
    """Counts of this process's triangulations, assemblies and factorizations."""
    import cardiofem.fem as fem_module
    import cardiofem.phantom as phantom_module

    calls = {"triangulate": 0, "assemble": 0, "factor": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(phantom_module, "triangulate_annulus",
                        counted("triangulate", phantom_module.triangulate_annulus))
    monkeypatch.setattr(phantom_module, "assemble", counted("assemble", phantom_module.assemble))
    monkeypatch.setattr(fem_module, "_factor", counted("factor", fem_module._factor))
    return calls


def test_verify_ring_builds_each_ring_once(monkeypatch):
    forks = cpus(monkeypatch, 1)
    calls = _count_ring_work(monkeypatch)
    verify_ring(RingSpec(1.0, 2.0), 64, 8, 16)
    # three homogeneous rings plus the stiff wedge on the base mesh; the base
    # oracle solve and the pipeline re-solve share one factor
    assert calls == {"triangulate": 3, "assemble": 4, "factor": 7}
    assert forks == []


def test_verify_ring_verifies_the_fine_ring_in_one_child(monkeypatch):
    forks = cpus(monkeypatch, 2)
    calls = _count_ring_work(monkeypatch)
    verify_ring(RingSpec(1.0, 2.0), 64, 8, 16)
    # the child meshes, assembles and factors the fine ring twice; this
    # process does the coarse and base rings and the stiff wedge
    assert calls == {"triangulate": 2, "assemble": 3, "factor": 5}
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("n_points", [30, 254])
def test_verify_ring_checks_n_points_before_meshing(monkeypatch, n_points):
    import cardiofem.phantom as phantom_module

    calls = []
    make = phantom_module.make_ring
    monkeypatch.setattr(phantom_module, "make_ring",
                        lambda *args: calls.append(args) or make(*args))
    with pytest.raises(ConfigurationError,
                       match=f"n_points must be divisible by 4.*got {n_points}"):
        verify_ring(RingSpec(1.0, 2.0), n_points, 4, 16)
    assert calls == []


@pytest.mark.parametrize("n_points, n_radial, needle", [
    (4, 4, "n_points must be at least 8 for the half-resolution ring, got 4"),
    (0, 4, "n_points must be at least 8 for the half-resolution ring, got 0"),
    (-8, 4, "n_points must be at least 8 for the half-resolution ring, got -8"),
    (32, 0, "n_radial must be >= 1"),
])
def test_verify_ring_checks_ring_size_before_meshing(monkeypatch, n_points, n_radial, needle):
    import cardiofem.phantom as phantom_module

    calls = []
    make = phantom_module.make_ring
    monkeypatch.setattr(phantom_module, "make_ring",
                        lambda *args: calls.append(args) or make(*args))
    with pytest.raises(ConfigurationError) as info:
        verify_ring(RingSpec(1.0, 2.0), n_points, n_radial, 16)
    assert str(info.value) == needle
    assert calls == []


def test_verify_ring_takes_no_more_sectors_than_base_elements(monkeypatch):
    import cardiofem.phantom as phantom_module

    calls = []
    monkeypatch.setattr(phantom_module, "make_ring", lambda *args: calls.append(args))
    with pytest.raises(ConfigurationError) as info:
        verify_ring(RingSpec(1.0, 2.0), 16, 2, 65)
    assert str(info.value) == "n_sectors must be at most the mesh's element count 64, got 65"
    assert calls == []


def _count_traction_solves(monkeypatch):
    """The ``anchor_deg`` of each traction solve this process makes."""
    import cardiofem.phantom as phantom_module

    calls = []
    solve_traction = phantom_module.solve_ring_traction

    def counted(*args, **kwargs):
        calls.append(kwargs.get("anchor_deg"))
        return solve_traction(*args, **kwargs)

    monkeypatch.setattr(phantom_module, "solve_ring_traction", counted)
    return calls


def test_verify_ring_uses_the_public_traction_solve(monkeypatch):
    cpus(monkeypatch, 1)
    calls = _count_traction_solves(monkeypatch)
    verify_ring(RingSpec(1.0, 2.0), 32, 4, 16)
    # the base and fine homogeneous rings, then the stiff wedge anchored at 270 degrees
    assert calls == [None, None, 270.0]


def test_verify_ring_leaves_the_fine_traction_solve_to_the_child(monkeypatch):
    forks = cpus(monkeypatch, 2)
    calls = _count_traction_solves(monkeypatch)
    verify_ring(RingSpec(1.0, 2.0), 32, 4, 16)
    # this process: the base ring, then the stiff wedge anchored at 270 degrees
    assert calls == [None, 270.0]
    assert len(forks) == 1
    assert_no_child_left()


def test_verify_ring_coarse_base_fails_named_checks():
    report = verify_ring(RingSpec(1.0, 2.0), 8, 1, 16)
    assert report.failures == ["L2 error", "traction cross-check"]
    assert [c.passed for c in report.checks] == [False, True, False, True, True, True]
    assert report.stiff_sectors.tolist() == [10 <= s <= 13 for s in range(16)]


def test_verify_ring_locks_near_incompressibility():
    # a record, not a goal: linear triangles in the two-per-quad layout lock
    # near nu 0.5, so at nu 0.49 the convergence order and the traction
    # cross-check fail and the other four checks pass
    report = verify_ring(RingSpec(1.0, 2.0, material=Material(1e4, 0.49)), 64, 8, 16)
    assert report.failures == ["convergence order", "traction cross-check"]
    assert [c.passed for c in report.checks] == [True, False, False, True, True, True]
    assert [c.detail for c in report.checks if not c.passed] == [
        "min observed order 1.312 >= 1.7", "traction cross-check L2 3.135e-02 <= 2e-2"]
