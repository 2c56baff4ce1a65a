import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cardiofem import (
    ConfigurationError,
    Contour,
    CycleParams,
    FrameContours,
    GeometryError,
    MaterialField,
    SectorSummary,
    Slice,
    SolverError,
    Study,
    apply_dirichlet,
    assemble,
    average_sector_summaries,
    boundary_conditions_from_displacements,
    boundary_displacements,
    centroid,
    circle_contour,
    cycle_strain_analysis,
    effective_strain,
    element_strain,
    healthy_study,
    infarct_localization,
    mi_wedge_study,
    normalized_volume_curve,
    phantom_cycle_study,
    resample_uniform_angle,
    solve,
    triangulate_annulus,
    ventricle_volume,
)
from cardiofem import fem

from conftest import circle_frame, star_contour


def _single_slice_study(frames, spacing=8.0, subject="s"):
    return Study(subject, (Slice(index=0, spacing=spacing, frames=tuple(frames)),))


def _repeat_frame(fc, n):
    return [FrameContours(k, fc.inner, fc.outer) for k in range(n)]


def _shrinking_circle_study(n_frames=11, shrink=0.05, r=10.0, n=64, spacing=7.0):
    frames = []
    for k in range(n_frames):
        f = 1.0 - shrink * k
        frames.append(
            FrameContours(
                k,
                circle_contour(r * f, (0.0, 0.0), n, "inner"),
                circle_contour(3 * r, (0.0, 0.0), n, "outer"),
            )
        )
    return _single_slice_study(frames, spacing=spacing)


# ---------------------------------------------------------------------------
# study validation


def test_study_requires_contiguous_frames():
    frames = [circle_frame(0), circle_frame(2)]
    with pytest.raises(ConfigurationError):
        _single_slice_study(frames)


def test_study_requires_consistent_counts():
    s1 = Slice(index=0, spacing=8.0, frames=(circle_frame(0), circle_frame(1)))
    s2 = Slice(index=1, spacing=8.0, frames=(circle_frame(0),))
    with pytest.raises(ConfigurationError):
        Study("x", (s1, s2))


# ---------------------------------------------------------------------------
# volumes


def test_volume_circle():
    study = _shrinking_circle_study(n_frames=2, shrink=0.0, r=4.0, n=64, spacing=3.0)
    vol = ventricle_volume(study, 0)
    exact = math.pi * 16.0 * 3.0
    assert abs(vol - exact) / exact < 0.005


def test_volume_two_slices_additive():
    frames = tuple(circle_frame(k) for k in range(2))
    one = Study("x", (Slice(0, 5.0, frames),))
    two = Study("x", (Slice(0, 5.0, frames), Slice(1, 5.0, frames)))
    assert ventricle_volume(two, 0) == pytest.approx(2.0 * ventricle_volume(one, 0))


def test_volume_orientation_invariant():
    inner = circle_contour(3.0, (0.0, 0.0), 32, "inner")
    outer = circle_contour(6.0, (0.0, 0.0), 32, "outer")
    fwd = FrameContours(0, inner, outer)
    rev = FrameContours(0, Contour(inner.points[::-1], "inner"), outer)
    a = _single_slice_study(_repeat_frame(fwd, 2))
    b = _single_slice_study(_repeat_frame(rev, 2))
    assert ventricle_volume(a, 0) == pytest.approx(ventricle_volume(b, 0))


def test_volume_cyclic_shift_invariant():
    inner = star_contour(32, 3.0, seed=1, label="inner")
    outer = star_contour(32, 6.0, seed=2, label="outer")
    shifted = Contour(np.roll(inner.points, 7, axis=0), "inner")
    a = _single_slice_study(_repeat_frame(FrameContours(0, inner, outer), 2))
    b = _single_slice_study(_repeat_frame(FrameContours(0, shifted, outer), 2))
    assert ventricle_volume(a, 0) == pytest.approx(ventricle_volume(b, 0))


def test_volume_rejects_self_intersection():
    bow = Contour(
        np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]]) + 5.0, "inner"
    )
    outer = circle_contour(20.0, (6.0, 6.0), 32, "outer")
    study = _single_slice_study(_repeat_frame(FrameContours(0, bow, outer), 2))
    with pytest.raises(GeometryError):
        ventricle_volume(study, 0)


def test_normalized_curve_constant_study():
    study = _shrinking_circle_study(n_frames=5, shrink=0.0)
    curve = normalized_volume_curve(study)
    assert np.all(curve.normalized == 1.0)


def test_normalized_curve_shrinking_circle():
    study = _shrinking_circle_study(n_frames=11, shrink=0.05)
    curve = normalized_volume_curve(study)
    expected = (1.0 - 0.05 * np.arange(11)) ** 2
    assert curve.normalized[0] == 1.0
    assert np.max(np.abs(curve.normalized - expected)) < 1e-6


def test_normalized_curve_min_over_max_report():
    # a cycle whose minimum volume is 42% of the maximum
    f = np.sqrt(0.42)
    frames = []
    scales = [1.0, 0.8, f, 0.8, 1.0]
    for k, s in enumerate(scales):
        frames.append(
            FrameContours(
                k,
                circle_contour(10.0 * s, (0.0, 0.0), 64, "inner"),
                circle_contour(30.0, (0.0, 0.0), 64, "outer"),
            )
        )
    curve = normalized_volume_curve(_single_slice_study(frames))
    assert curve.min_over_max == pytest.approx(0.42, rel=1e-9)
    assert float(np.min(curve.normalized)) == pytest.approx(0.42, rel=1e-9)


def test_normalized_curve_needs_two_frames():
    study = _shrinking_circle_study(n_frames=2)
    normalized_volume_curve(study)
    with pytest.raises(ConfigurationError):
        normalized_volume_curve(_shrinking_circle_study(n_frames=1))


def test_degenerate_zero_volume_study():
    line = Contour(np.array([[4.0, 5.0], [5.0, 5.0], [6.0, 5.0]]), "inner")
    outer = circle_contour(20.0, (5.0, 5.0), 32, "outer")
    study = _single_slice_study(_repeat_frame(FrameContours(0, line, outer), 2))
    with pytest.raises(GeometryError):
        normalized_volume_curve(study)


# ---------------------------------------------------------------------------
# cycle analysis


def test_static_study_zero_fields():
    study = _single_slice_study([circle_frame(k) for k in range(4)])
    results = cycle_strain_analysis(study, CycleParams(n_points=32, n_radial=3))
    assert len(results) == 3
    for res in results:
        assert np.max(np.abs(res.displacement.values)) < 1e-12
        assert np.max(res.strain.effective) < 1e-12


def test_translation_invariant_strain():
    base = healthy_study(seed=11, n_frames=5)
    shift = np.array([40.0, -25.0])
    moved_slices = []
    for sl in base.slices:
        frames = tuple(
            FrameContours(
                fc.frame_index,
                Contour(fc.inner.points + shift, "inner"),
                Contour(fc.outer.points + shift, "outer"),
            )
            for fc in sl.frames
        )
        moved_slices.append(Slice(sl.index, sl.spacing, frames))
    moved = Study(base.subject_id, tuple(moved_slices))
    params = CycleParams(n_points=32, n_radial=4)
    res_a = cycle_strain_analysis(base, params)
    res_b = cycle_strain_analysis(moved, params)
    for ra, rb in zip(res_a, res_b):
        assert_allclose(rb.strain.effective, ra.strain.effective, atol=1e-9)
        assert_allclose(rb.displacement.values, ra.displacement.values, atol=1e-9)


def test_incremental_mode_runs():
    study = healthy_study(seed=2, n_frames=5)
    params = CycleParams(n_points=32, n_radial=4, reference="incremental")
    results = cycle_strain_analysis(study, params)
    assert len(results) == 4
    assert all(np.max(r.strain.effective) > 0.0 for r in results)


def test_phantom_cycle_study_through_pipeline():
    study = phantom_cycle_study(n_points=32, n_steps=3)
    params = CycleParams(n_points=32, n_radial=4, mode="plane-strain")
    results = cycle_strain_analysis(study, params)
    # linear elasticity: displacement grows linearly along the pressure ramp
    m1 = results[0].displacement.magnitude().max()
    m3 = results[-1].displacement.magnitude().max()
    assert m3 == pytest.approx(3.0 * m1, rel=1e-6)


def test_cycle_params_validation():
    with pytest.raises(ConfigurationError):
        CycleParams(n_points=2)
    with pytest.raises(ConfigurationError):
        CycleParams(reference="backward")


def test_cycle_error_carries_frame_index():
    frames = [circle_frame(0), circle_frame(1)]
    theta = np.array([0.0, 0.8, 0.4, 1.6, 2.4, 3.2, 4.0, 4.8, 5.6])
    bad_inner = Contour(np.column_stack([np.cos(theta), np.sin(theta)]), "inner")
    frames[1] = FrameContours(1, bad_inner, frames[1].outer)
    study = _single_slice_study(frames)
    with pytest.raises(GeometryError, match="frame 1"):
        cycle_strain_analysis(study, CycleParams(n_points=16, n_radial=2))


def _per_frame_cycle(study, params):
    """The per-frame path: one eliminated system and one factorization per
    frame pair, and strain from the per-element local-frame formula."""
    frames = study.slices[0].frames
    n = len(frames)
    center = centroid(frames[0].inner)
    inner0 = resample_uniform_angle(frames[0].inner, center, params.n_points)
    outer0 = resample_uniform_angle(frames[0].outer, center, params.n_points)
    mesh = triangulate_annulus(inner0, outer0, params.n_points, params.n_radial)
    materials = MaterialField.uniform(mesh, params.material)
    system = assemble(mesh, materials, params.mode)
    step_rot = params.rotation_deg_total / (n - 1)
    out = []
    for k in range(1, n):
        if params.reference == "cumulative":
            bd = boundary_displacements(frames[0], frames[k], params.n_points, step_rot * k)
            bcs = boundary_conditions_from_displacements(mesh, bd, match="position")
        else:
            bd = boundary_displacements(frames[k - 1], frames[k], params.n_points, step_rot)
            bcs = boundary_conditions_from_displacements(mesh, bd, match="index")
        disp = solve(apply_dirichlet(system, bcs, mesh))
        comps = np.array(
            [element_strain(mesh.nodes[tri], disp.values[tri]) for tri in mesh.triangles]
        )
        out.append((disp.values, comps))
    return out


@pytest.mark.parametrize("reference", ["cumulative", "incremental"])
def test_cycle_matches_per_frame_path(reference):
    study = mi_wedge_study(seed=3, n_frames=6, n_points=48, rotation_deg_total=5.0)
    params = CycleParams(
        n_points=32, n_radial=4, rotation_deg_total=5.0, reference=reference,
        mode="plane-strain",
    )
    results = cycle_strain_analysis(study, params)
    expected = _per_frame_cycle(study, params)
    assert len(results) == study.n_frames - 1
    for k, (res, (disp, comps)) in enumerate(zip(results, expected), start=1):
        assert res.frame_index == k
        got_disp = res.displacement.values
        assert np.max(np.abs(got_disp - disp)) <= 1e-12 * np.max(np.abs(disp))
        got = np.column_stack([res.strain.eps_x, res.strain.eps_y, res.strain.gamma_xy])
        assert np.max(np.abs(got - comps)) <= 1e-12 * np.max(np.abs(comps))
        eff = effective_strain(comps[:, 0], comps[:, 1], comps[:, 2], params.material.nu)
        assert np.max(np.abs(res.strain.effective - eff)) <= 1e-12 * np.max(eff)


def test_cycle_solver_error_names_frame(monkeypatch):
    real_factor = fem._factor

    class CorruptColumnTwo:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            u = self.lu.solve(rhs)
            u[:, 2] *= 1.0 + 1e-6
            return u

    monkeypatch.setattr(fem, "_factor", lambda k: CorruptColumnTwo(real_factor(k)))
    study = healthy_study(seed=2, n_frames=5)
    with pytest.raises(SolverError, match=r"^frame 3: residual contract"):
        cycle_strain_analysis(study, CycleParams(n_points=32, n_radial=4))


# ---------------------------------------------------------------------------
# localization


def _summaries(matrix):
    return [
        SectorSummary(
            n_sectors=len(row),
            mean_displacement=np.zeros(len(row)),
            mean_effective=np.asarray(row, dtype=float),
            counts=np.ones(len(row), dtype=int),
        )
        for row in matrix
    ]


def test_localization_self_reference_no_flags():
    subj = _summaries([[1.0, 2.0, 3.0], [2.0, 2.0, 2.0]])
    for tau in (0.1, 0.5, 0.99):
        loc = infarct_localization(subj, subj, tau)
        assert loc.suspected_sectors == ()


def test_localization_zero_sector_flagged():
    subj = _summaries([[0.0, 2.0], [0.0, 2.0]])
    ref = _summaries([[1.0, 2.0], [1.0, 2.0]])
    loc = infarct_localization(subj, ref, tau=0.01)
    assert loc.suspected_sectors == (0,)


def test_localization_monotone_in_tau():
    rng = np.random.default_rng(5)
    ref_matrix = rng.uniform(1.0, 2.0, (4, 16))
    subj_matrix = ref_matrix * rng.uniform(0.1, 1.2, (4, 16))
    subj = _summaries(subj_matrix)
    ref = _summaries(ref_matrix)
    flags = [
        set(infarct_localization(subj, ref, tau).suspected_sectors)
        for tau in (0.2, 0.5, 0.8)
    ]
    assert flags[0] <= flags[1] <= flags[2]


def test_localization_shape_mismatch():
    subj = _summaries([[1.0, 2.0]])
    ref = _summaries([[1.0, 2.0, 3.0]])
    with pytest.raises(ConfigurationError):
        infarct_localization(subj, ref)


def test_localization_mi_wedge_ground_truth():
    params = CycleParams(n_points=64, n_radial=8)
    healthy = healthy_study(seed=7, n_frames=6)
    mi = mi_wedge_study(seed=7, n_frames=6)
    ref = [r.sectors for r in cycle_strain_analysis(healthy, params)]
    subj = [r.sectors for r in cycle_strain_analysis(mi, params)]
    loc = infarct_localization(subj, ref, tau=0.5)
    assert loc.suspected_sectors == (4, 5, 6, 7)


def test_inert_wedge_minimum_every_frame():
    # wedge [90, 180) covers sectors 4..7; the per-frame minimum of the
    # sector-mean effective strain must fall inside it for every pair
    params = CycleParams(n_points=64, n_radial=8)
    mi = mi_wedge_study(seed=13, n_frames=6)
    for res in cycle_strain_analysis(mi, params):
        assert int(np.argmin(res.sectors.mean_effective)) in (4, 5, 6, 7)


def test_average_sector_summaries():
    a = _summaries([[1.0, 3.0], [2.0, 4.0]])
    b = _summaries([[3.0, 5.0], [4.0, 6.0]])
    avg = average_sector_summaries([a, b])
    assert_allclose(avg[0].mean_effective, [2.0, 4.0])
    assert_allclose(avg[1].mean_effective, [3.0, 5.0])
    with pytest.raises(ConfigurationError):
        average_sector_summaries([a, _summaries([[1.0, 2.0]])])
