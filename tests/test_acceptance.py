"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values (run with -s to see them)."""

import math
import time

import numpy as np

from cardiofem import (
    CycleParams,
    RingSpec,
    cycle_strain_analysis,
    healthy_study,
    infarct_localization,
    mi_wedge_study,
    normalized_volume_curve,
)
from cardiofem.fem import assemble
from cardiofem.materials import AngularRegion, Material
from cardiofem.phantom import circle_contour, lame_displacement, make_ring, solve_ring_traction
from cardiofem.strain import effective_strain, sector_average, strain_field
from cardiofem.study import Slice, Study
from cardiofem.contours import FrameContours

from conftest import boundary_dirichlet, region_ring, solve_one


def _report(criterion, ok, detail):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


def _lame_exact(mesh, spec, p=1.0):
    rel = mesh.nodes - np.asarray(spec.center, dtype=float)
    radii = np.linalg.norm(rel, axis=1)
    u = lame_displacement(
        spec.inner_radius, spec.outer_radius, p, spec.material.E, spec.material.nu, radii
    )
    return (u / radii)[:, None] * rel


def _weighted_l2_error(mesh, disp, spec, p=1.0):
    """Relative L2 of the displacement error, area-weighted at centroids."""
    c = np.asarray(spec.center, dtype=float)
    centroids = mesh.triangle_centroids()
    rel = centroids - c
    rn = np.linalg.norm(rel, axis=1)
    u = lame_displacement(
        spec.inner_radius, spec.outer_radius, p, spec.material.E, spec.material.nu,
        np.clip(rn, spec.inner_radius, spec.outer_radius),
    )
    exact = (u / rn)[:, None] * rel
    num = disp.values[mesh.triangles].mean(axis=1)
    areas = mesh.triangle_areas()
    err = np.sqrt(np.sum(areas * np.sum((num - exact) ** 2, axis=1)))
    ref = np.sqrt(np.sum(areas * np.sum(exact**2, axis=1)))
    return float(err / ref)


def test_ac1_patch_test():
    start = time.perf_counter()
    mesh, mats = make_ring(RingSpec(1.0, 2.0, material=Material(1e4, 0.3)), 64, 8)
    a = (0.003, 0.1, -0.04)
    b = (-0.002, 0.05, 0.07)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    exact = np.column_stack([a[0] + a[1] * x + a[2] * y, b[0] + b[1] * x + b[2] * y])
    system = assemble(mesh, mats, "plane-strain")
    disp = solve_one(system, *boundary_dirichlet(mesh, exact))
    field_err = np.max(np.abs(disp.values - exact)) / np.max(np.abs(exact))

    sf = strain_field(mesh, disp, mats.nu)
    expected = np.array([a[1], b[2], a[2] + b[1]])
    strain_err = max(
        np.max(np.abs(sf.eps_x - expected[0])),
        np.max(np.abs(sf.eps_y - expected[1])),
        np.max(np.abs(sf.gamma_xy - expected[2])),
    ) / np.max(np.abs(expected))
    elapsed = time.perf_counter() - start
    ok = field_err <= 1e-9 and strain_err <= 1e-9 and elapsed < 1.0
    _report(
        "AC1",
        ok,
        f"patch test at 64x8: field err {field_err:.2e} <= 1e-9, "
        f"strain err {strain_err:.2e} <= 1e-9, runtime {elapsed:.2f}s < 1s",
    )


def test_ac2_lame_convergence():
    start = time.perf_counter()
    spec = RingSpec(1.0, 2.0, material=Material(1e4, 0.3))
    errors = []
    for na, nr in [(32, 4), (64, 8), (128, 16)]:
        mesh, mats = make_ring(spec, na, nr)
        system = assemble(mesh, mats, "plane-strain")
        exact = _lame_exact(mesh, spec)
        disp = solve_one(system, *boundary_dirichlet(mesh, exact))
        errors.append(_weighted_l2_error(mesh, disp, spec))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    elapsed = time.perf_counter() - start
    ok = errors[1] <= 0.01 and min(orders) >= 1.7 and elapsed < 30.0
    _report(
        "AC2",
        ok,
        f"Lame Dirichlet: L2 {errors[1]:.2e} <= 1e-2 at 64x8, orders "
        f"{orders[0]:.2f}/{orders[1]:.2f} >= 1.7, runtime {elapsed:.1f}s < 30s",
    )


def test_ac3_double_oracle_consistency():
    spec = RingSpec(1.0, 2.0, material=Material(1e4, 0.3))
    mesh, mats = make_ring(spec, 128, 16)
    disp = solve_ring_traction(mesh, assemble(mesh, mats, "plane-strain"), 1.0)
    exact = _lame_exact(mesh, spec)
    err = float(np.linalg.norm(disp.values - exact) / np.linalg.norm(exact))
    ok = err <= 0.02
    _report("AC3", ok, f"traction (Neumann) vs closed form: L2 {err:.2e} <= 2e-2 at 128x16")


def test_ac4_rigid_motion_nullity():
    mesh, mats = make_ring(RingSpec(1.0, 2.0, material=Material(1e4, 0.3)), 64, 8)
    theta = 1e-3
    shift = np.array([0.37, -0.21])
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    rigid = np.column_stack([shift[0] - theta * y, shift[1] + theta * x])
    system = assemble(mesh, mats, "plane-strain")
    disp = solve_one(system, *boundary_dirichlet(mesh, rigid))
    sf = strain_field(mesh, disp, mats.nu)
    peak = float(np.max(sf.effective))
    ok = peak <= 1e-8
    _report("AC4", ok, f"translation + 1e-3 rad rotation: max effective strain {peak:.2e} <= 1e-8")


def test_ac5_stiffness_structure():
    mesh, mats = make_ring(RingSpec(1.0, 2.0, material=Material(1e4, 0.3)), 16, 2)
    system = assemble(mesh, mats, "plane-strain")
    k = system.stiffness.tocsr().toarray()
    asym = np.max(np.abs(k - k.T)) / np.max(np.abs(k))
    eigvals = np.sort(np.abs(np.linalg.eigvalsh(k)))
    null_gap_low = eigvals[2] / eigvals[-1]
    null_gap_high = eigvals[3] / eigvals[-1]
    ok = asym <= 1e-12 and null_gap_low < 1e-9 and null_gap_high > 1e-6
    _report(
        "AC5",
        ok,
        f"16x2 stiffness: asymmetry {asym:.2e} <= 1e-12, |lam3|/|lam_max| "
        f"{null_gap_low:.2e} < 1e-9 and |lam4|/|lam_max| {null_gap_high:.2e} > 1e-6 "
        "(3-dim nullspace)",
    )


def test_ac6_effective_strain_unit_suite():
    def scratch(ex, ey, gxy, nu):
        ez = gxz = gyz = 0.0
        return math.sqrt(
            (ex - ey) ** 2 + (ey - ez) ** 2 + (ex - ez) ** 2
            + 1.5 * (gxy**2 + gxz**2 + gyz**2)
        ) / ((1.0 + nu) * math.sqrt(2.0))

    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        ex, ey, gxy = rng.normal(scale=0.05, size=3)
        nu = float(rng.uniform(0.0, 0.49))
        got = effective_strain(ex, ey, gxy, nu)
        want = scratch(ex, ey, gxy, nu)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    match_ok = worst <= 1e-12

    symmetric = all(
        effective_strain(a, b, g, 0.3) == effective_strain(b, a, g, 0.3)
        for a, b, g in rng.normal(scale=0.05, size=(100, 3))
    )
    homogeneous = all(
        effective_strain(s * a, s * b, s * g, 0.3) == s * effective_strain(a, b, g, 0.3)
        for s in (0.25, 2.0, 8.0, 64.0)
        for a, b, g in rng.normal(scale=0.05, size=(25, 3))
    )
    ok = match_ok and symmetric and homogeneous
    _report(
        "AC6",
        ok,
        f"effective strain: scratch-oracle mismatch {worst:.2e} <= 1e-12 on 100 triples, "
        f"exchange symmetry exact: {symmetric}, degree-1 homogeneity exact: {homogeneous}",
    )


def test_ac7_inhomogeneous_direction_check():
    base = Material(1e4, 0.3)
    stiff = AngularRegion(225.0, 315.0, Material(base.E * 10.0, base.nu))
    spec = RingSpec(1.0, 2.0, material=base)
    mesh, mats = region_ring(spec, 64, 8, stiff)
    # support the ring at the stiff wedge (the infarct-like region anchors
    # the wall); rigid modes pinned at its mid angle
    disp = solve_ring_traction(mesh, assemble(mesh, mats, "plane-strain"), 1.0, anchor_deg=270.0)
    sf = strain_field(mesh, disp, mats.nu)
    summary = sector_average(mesh, sf, disp, spec.center, 16)
    mids = (np.arange(16) + 0.5) * 22.5
    stiff_mask = (mids >= 225.0) & (mids < 315.0)
    md, me = summary.mean_displacement, summary.mean_effective
    disp_ok = md[stiff_mask].max() < md[~stiff_mask].min()
    eff_ok = me[stiff_mask].max() < me[~stiff_mask].min()
    ok = bool(disp_ok and eff_ok)
    _report(
        "AC7",
        ok,
        "stiff 90-deg sector at Ex10: displacement strict minimum "
        f"({md[stiff_mask].max():.2e} < {md[~stiff_mask].min():.2e}): {disp_ok}; "
        f"effective-strain strict minimum "
        f"({me[stiff_mask].max():.2e} < {me[~stiff_mask].min():.2e}): {eff_ok}",
    )


def test_ac8_volume_analytics():
    frames = []
    for k in range(11):
        factor = 1.0 - 0.05 * k
        frames.append(
            FrameContours(
                k,
                circle_contour(10.0 * factor, (0.0, 0.0), 64, "inner"),
                circle_contour(30.0, (0.0, 0.0), 64, "outer"),
            )
        )
    study = Study("shrink", (Slice(index=0, frames=tuple(frames)),), spacing=7.0)
    curve = normalized_volume_curve(study)
    expected = (1.0 - 0.05 * np.arange(11)) ** 2
    worst = float(np.max(np.abs(curve.normalized - expected)))
    first_exact = curve.normalized[0] == 1.0
    ok = worst <= 1e-6 and first_exact
    _report(
        "AC8",
        ok,
        f"shrinking circle: max |normalized - (1-0.05k)^2| = {worst:.2e} <= 1e-6, "
        f"normalized[0] == 1 exactly: {first_exact}",
    )


def test_ac9_localization_ground_truth():
    params = CycleParams(n_points=64, n_radial=8, n_sectors=16)
    healthy = healthy_study(seed=7, n_frames=8)
    mi = mi_wedge_study(seed=7, n_frames=8)  # wedge [90, 180) = sectors 4..7
    reference = [r.sectors for r in cycle_strain_analysis(healthy, params)]
    subject = [r.sectors for r in cycle_strain_analysis(mi, params)]
    loc = infarct_localization(subject, reference, tau=0.5)
    exact_flags = loc.suspected_sectors == (4, 5, 6, 7)
    flags_by_tau = [
        set(infarct_localization(subject, reference, tau).suspected_sectors)
        for tau in (0.05, 0.2, 0.5, 0.9)
    ]
    monotone = all(a <= b for a, b in zip(flags_by_tau, flags_by_tau[1:]))
    ok = exact_flags and monotone
    _report(
        "AC9",
        ok,
        f"MI wedge vs healthy twin at tau=0.5: flagged {loc.suspected_sectors} == "
        f"(4, 5, 6, 7) (precision = recall = 1): {exact_flags}; "
        f"flags monotone in tau: {monotone}",
    )


def test_ac10_rotation_compensation():
    study = healthy_study(
        seed=3, n_frames=6, contraction=0.0, rotation_deg_total=7.0,
    )
    params = CycleParams(n_points=64, n_radial=8, rotation_deg_total=7.0)
    results = cycle_strain_analysis(study, params)
    peak = max(float(np.max(np.abs(r.displacement.values))) for r in results)
    ok = peak <= 1e-9
    _report(
        "AC10",
        ok,
        f"pure 7-deg cumulative rotation with rotation-deg 7: max |displacement| "
        f"{peak:.2e} <= 1e-9",
    )
