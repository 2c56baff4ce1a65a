import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import cho_solve_banded

from cardiofem import (
    ConfigurationError,
    CycleParams,
    GeometryError,
    SolverError,
    cycle_strain_analysis,
    healthy_study,
    infarct_localization,
    mi_wedge_study,
    normalized_volume_curve,
)
from cardiofem.contours import (
    TWO_PI,
    Contour,
    FrameContours,
    boundary_displacements,
    centroid,
    resample_uniform_angle,
)
from cardiofem.fem import DisplacementField, assemble, boundary_conditions_from_displacements
from cardiofem.materials import MODES, MaterialField
from cardiofem.meshing import triangulate_annulus
from cardiofem.phantom import circle_contour
from cardiofem.strain import SectorSummary, effective_strain, sector_average, strain_field
from cardiofem.study import (REFERENCE_MODES, Slice, Study, average_sector_summaries,
                             ventricle_volume)
from cardiofem.synth import (CENTER, HEALTHY_ID, MI_ID, WEDGE, _modulated_study,
                            _wedge_motion_factor, phantom_cycle_study)
from cardiofem import contours, fem, io
from cardiofem import study as study_module

from conftest import assert_no_child_left, circle_frame, cpus, solve_one, star_contour
from oracles import (cli_reference_localization, constraint_values, element_strain,
                     fold_free_block_solve, nodal_dirichlet, position_conditions,
                     two_branch_wedge_factor)


def _single_slice_study(frames, spacing=8.0, subject="s"):
    return Study(subject, (Slice(index=0, frames=tuple(frames)),), spacing)


def _repeat_frame(fc, n):
    return [FrameContours(k, fc.inner, fc.outer) for k in range(n)]


def _shrinking_circle_study(n_frames=11, shrink=0.05, r=10.0, n=64, spacing=7.0):
    frames = []
    for k in range(n_frames):
        f = 1.0 - shrink * k
        frames.append(
            FrameContours(
                k,
                circle_contour(r * f, (0.0, 0.0), n),
                circle_contour(3 * r, (0.0, 0.0), n),
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
    s1 = Slice(index=0, frames=(circle_frame(0), circle_frame(1)))
    s2 = Slice(index=1, frames=(circle_frame(0),))
    with pytest.raises(ConfigurationError):
        Study("x", (s1, s2), 8.0)


@pytest.mark.parametrize("spacing", [math.nan, math.inf, -math.inf, 0.0, -8.0])
def test_study_requires_finite_positive_spacing(spacing):
    with pytest.raises(ConfigurationError, match="slice spacing must be finite and positive"):
        _single_slice_study([circle_frame(0)], spacing=spacing)


# ---------------------------------------------------------------------------
# volumes


def test_volume_circle():
    study = _shrinking_circle_study(n_frames=2, shrink=0.0, r=4.0, n=64, spacing=3.0)
    vol = ventricle_volume(study, 0)
    exact = math.pi * 16.0 * 3.0
    assert abs(vol - exact) / exact < 0.005


def test_volume_two_slices_additive():
    frames = tuple(circle_frame(k) for k in range(2))
    one = Study("x", (Slice(0, frames),), 5.0)
    two = Study("x", (Slice(0, frames), Slice(1, frames)), 5.0)
    assert ventricle_volume(two, 0) == pytest.approx(2.0 * ventricle_volume(one, 0))


def test_volume_orientation_invariant():
    inner = circle_contour(3.0, (0.0, 0.0), 32)
    outer = circle_contour(6.0, (0.0, 0.0), 32)
    fwd = FrameContours(0, inner, outer)
    rev = FrameContours(0, Contour(inner.points[::-1]), outer)
    a = _single_slice_study(_repeat_frame(fwd, 2))
    b = _single_slice_study(_repeat_frame(rev, 2))
    assert ventricle_volume(a, 0) == pytest.approx(ventricle_volume(b, 0))


def test_volume_cyclic_shift_invariant():
    inner = star_contour(32, 3.0, seed=1)
    outer = star_contour(32, 6.0, seed=2)
    shifted = Contour(np.roll(inner.points, 7, axis=0))
    a = _single_slice_study(_repeat_frame(FrameContours(0, inner, outer), 2))
    b = _single_slice_study(_repeat_frame(FrameContours(0, shifted, outer), 2))
    assert ventricle_volume(a, 0) == pytest.approx(ventricle_volume(b, 0))


def test_volume_rejects_self_intersection():
    bow = Contour(
        np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]]) + 5.0)
    outer = circle_contour(20.0, (6.0, 6.0), 32)
    study = _single_slice_study(_repeat_frame(FrameContours(0, bow, outer), 2))
    with pytest.raises(GeometryError):
        ventricle_volume(study, 0)


def _count_simplicity_checks(monkeypatch):
    """Record the size of every simplicity check, wherever the package binds it."""
    calls = []
    real = contours.is_simple_polygon

    def counting(points):
        calls.append(len(points))
        return real(points)

    for module in (contours, io, study_module):
        if hasattr(module, "is_simple_polygon"):
            monkeypatch.setattr(module, "is_simple_polygon", counting)
    return calls


def test_ingest_and_each_volume_curve_certify_their_walls(monkeypatch, tmp_path):
    # a contour keeps no verdict: ingest certifies both walls of each frame,
    # and each volume curve certifies each inner wall again (linear time)
    calls = _count_simplicity_checks(monkeypatch)
    study = healthy_study(seed=3, n_frames=4)
    normalized_volume_curve(study)
    normalized_volume_curve(study)
    assert calls == [64] * 8
    io.write_study_json(tmp_path / "study.json", study)
    calls.clear()
    read = io.read_study(tmp_path / "study.json")
    assert calls == [64] * 8
    calls.clear()
    normalized_volume_curve(read)
    assert calls == [64] * 4


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
                circle_contour(10.0 * s, (0.0, 0.0), 64),
                circle_contour(30.0, (0.0, 0.0), 64),
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


def test_overflowing_volume_names_its_frame():
    # every frame's volume overflows to inf; normalized by frame 0 it was nan
    study = _single_slice_study([circle_frame(k) for k in range(3)], spacing=1e308)
    with pytest.raises(GeometryError, match=r"^frame 0: volume inf is not finite"):
        normalized_volume_curve(study)
    with pytest.raises(GeometryError, match=r"^frame 2: volume inf is not finite"):
        ventricle_volume(study, 2)


def test_cycle_params_rejects_non_finite_rotation():
    for rotation in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigurationError, match="rotation_deg_total must be finite"):
            CycleParams(rotation_deg_total=rotation)


def test_degenerate_zero_volume_study():
    line = Contour(np.array([[4.0, 5.0], [5.0, 5.0], [6.0, 5.0]]))
    outer = circle_contour(20.0, (5.0, 5.0), 32)
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
                Contour(fc.inner.points + shift),
                Contour(fc.outer.points + shift),
            )
            for fc in sl.frames
        )
        moved_slices.append(Slice(sl.index, frames))
    moved = Study(base.subject_id, tuple(moved_slices), base.spacing)
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
    m1 = np.linalg.norm(results[0].displacement.values, axis=1).max()
    m3 = np.linalg.norm(results[-1].displacement.values, axis=1).max()
    assert m3 == pytest.approx(3.0 * m1, rel=1e-6)


def test_cycle_params_validation():
    with pytest.raises(ConfigurationError):
        CycleParams(n_points=2)
    with pytest.raises(ConfigurationError):
        CycleParams(reference="backward")
    CycleParams(n_points=8, n_radial=2, n_sectors=32)  # one sector per element
    with pytest.raises(ConfigurationError, match="^n_sectors must be at most the mesh's "
                                                 "element count 32, got 33$"):
        CycleParams(n_points=8, n_radial=2, n_sectors=33)


@pytest.mark.parametrize("n_points", [1, 2])
def test_synth_reports_a_too_short_wall_as_the_contours_error(n_points):
    # the contraction message is for walls that cross, not for walls too short to build
    with pytest.raises(GeometryError, match="^contour needs at least 3 points$"):
        healthy_study(n_frames=3, n_points=n_points)


def test_cycle_error_carries_frame_index():
    frames = [circle_frame(0), circle_frame(1)]
    theta = np.array([0.0, 0.8, 0.4, 1.6, 2.4, 3.2, 4.0, 4.8, 5.6])
    bad_inner = Contour(np.column_stack([np.cos(theta), np.sin(theta)]))
    frames[1] = FrameContours(1, bad_inner, frames[1].outer)
    study = _single_slice_study(frames)
    with pytest.raises(GeometryError, match="frame 1"):
        cycle_strain_analysis(study, CycleParams(n_points=16, n_radial=2))


def _per_frame_cycle(study, params):
    """The per-frame path: one eliminated system and one factorization per
    frame pair, cumulative samples paired with the mesh by position, and
    strain from the per-element local-frame formula."""
    frames = study.slices[0].frames
    n = len(frames)
    center = centroid(frames[0].inner)
    inner0 = resample_uniform_angle(frames[0].inner, center, params.n_points)
    outer0 = resample_uniform_angle(frames[0].outer, center, params.n_points)
    mesh = triangulate_annulus(inner0, outer0, params.n_radial)
    materials = MaterialField.uniform(mesh, params.material)
    system = assemble(mesh, materials, params.mode)
    step_rot = params.rotation_deg_total / (n - 1)
    out = []
    for k in range(1, n):
        if params.reference == "cumulative":
            bd = boundary_displacements(frames[0], frames[k], params.n_points, step_rot * k)
            dirichlet = position_conditions(mesh, bd)
        else:
            bd = boundary_displacements(frames[k - 1], frames[k], params.n_points, step_rot)
            dirichlet = boundary_conditions_from_displacements(mesh, bd)
        disp = solve_one(system, *dirichlet)
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


def _dict_condensed_solve(system, bcs_sets):
    """The condensed solve as it was before it took arrays: each set's
    per-node Dirichlet dict is merged into a dof -> value dict and read back
    in dof order."""
    constraints = [constraint_values(bcs) for bcs in bcs_sets]
    fixed = np.array(sorted(constraints[0]), dtype=np.int64)
    assert all(c.keys() == constraints[0].keys() for c in constraints)
    u_b = np.array([[c[int(dof)] for dof in fixed] for c in constraints]).T
    u = np.zeros((system.n_dofs, len(constraints)))
    u[fixed] = u_b
    # the free dofs in the system's node order, as the library factors them
    band_dofs = np.array([dof for node in system.node_order for dof in (2 * node, 2 * node + 1)
                          if dof not in constraints[0]])
    rhs = (system.load[:, None] - system.stiffness @ u)[band_dofs]
    u[band_dofs] = cho_solve_banded((fem._factor(system.stiffness, band_dofs), True), rhs)
    return [DisplacementField(u[:, j].reshape(-1, 2)) for j in range(u.shape[1])]


def _per_pair_cycle(study, params):
    """The per-pair path: boundary displacements and a Dirichlet dict per
    frame pair (cumulative samples paired with the mesh by position), the
    dict-based condensed solve, and per-frame strain and sectors on a mesh
    object of its own."""
    frames = study.slices[0].frames
    n = len(frames)
    center = centroid(frames[0].inner)
    inner0 = resample_uniform_angle(frames[0].inner, center, params.n_points)
    outer0 = resample_uniform_angle(frames[0].outer, center, params.n_points)
    mesh = triangulate_annulus(inner0, outer0, params.n_radial)
    materials = MaterialField.uniform(mesh, params.material)
    system = assemble(mesh, materials, params.mode)
    step_rot = params.rotation_deg_total / (n - 1)
    bcs_sets = []
    for k in range(1, n):
        if params.reference == "cumulative":
            bd = boundary_displacements(frames[0], frames[k], params.n_points, step_rot * k)
            dirichlet = position_conditions(mesh, bd)
        else:
            bd = boundary_displacements(frames[k - 1], frames[k], params.n_points, step_rot)
            dirichlet = boundary_conditions_from_displacements(mesh, bd)
        bcs_sets.append(nodal_dirichlet(*dirichlet))
    out = []
    for disp in _dict_condensed_solve(system, bcs_sets):
        sf = strain_field(mesh, disp, materials.nu)
        out.append((disp, sf, sector_average(mesh, sf, disp, center, params.n_sectors)))
    return out


@pytest.mark.parametrize("n_points, n_radial", [(64, 8), (128, 16), (256, 32)])
@pytest.mark.parametrize("reference, rotation", [
    ("cumulative", 0.0), ("cumulative", 6.0), ("incremental", 0.0), ("incremental", 6.0),
])
def test_cycle_equals_per_pair_path(n_points, n_radial, reference, rotation):
    study = mi_wedge_study(seed=8, n_frames=5, n_points=80, rotation_deg_total=rotation)
    params = CycleParams(
        n_points=n_points, n_radial=n_radial, rotation_deg_total=rotation, reference=reference,
    )
    results = cycle_strain_analysis(study, params)
    expected = _per_pair_cycle(study, params)
    assert len(results) == len(expected) == study.n_frames - 1
    for res, (disp, sf, sectors) in zip(results, expected):
        assert np.array_equal(res.displacement.values, disp.values)
        for name in ("eps_x", "eps_y", "gamma_xy", "effective"):
            assert np.array_equal(getattr(res.strain, name), getattr(sf, name))
        for name in ("mean_displacement", "mean_effective", "counts"):
            assert np.array_equal(getattr(res.sectors, name), getattr(sectors, name))


@pytest.mark.parametrize("reference", ["cumulative", "incremental"])
def test_cycle_solve_equals_the_free_block_oracle(reference, monkeypatch):
    # the 19-column solve of a 20-frame slice at 128x16, read from K in place,
    # equals bit for bit the former solve on copies of the free-dof block with
    # scipy's LAPACK, and agrees with it to rounding with numpy's OpenBLAS
    solved = []

    def checked_solve(system, fixed, values):
        disps = fem.solve(system, fixed, values)
        got = np.column_stack([d.values.ravel() for d in disps])
        expected = fold_free_block_solve(system, fixed, values)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        with monkeypatch.context() as m:
            m.setattr(fem, "_LAPACK", None)
            got = np.column_stack([d.values.ravel() for d in fem.solve(system, fixed, values)])
        assert np.array_equal(got, expected)
        solved.append(values.shape[1])
        return disps

    monkeypatch.setattr(study_module, "solve", checked_solve)
    cycle_strain_analysis(mi_wedge_study(seed=4, rotation_deg_total=6.0),
                          CycleParams(n_points=128, n_radial=16, reference=reference,
                                      rotation_deg_total=6.0))
    assert solved == [19]


@pytest.mark.parametrize("reference", ["cumulative", "incremental"])
def test_cycle_non_star_frame0_names_frame_1(reference):
    frames = [circle_frame(k) for k in range(3)]
    theta = np.array([0.0, 0.8, 0.4, 1.6, 2.4, 3.2, 4.0, 4.8, 5.6])
    bad_inner = Contour(np.column_stack([np.cos(theta), np.sin(theta)]))
    frames[0] = FrameContours(0, bad_inner, frames[0].outer)
    study = _single_slice_study(frames)
    with pytest.raises(GeometryError, match=r"^frame 1: .*\(frame 0 inner\)$"):
        cycle_strain_analysis(study, CycleParams(n_points=16, n_radial=2, reference=reference))


def _non_star_inner():
    theta = np.array([0.0, 0.8, 0.4, 1.6, 2.4, 3.2, 4.0, 4.8, 5.6])
    return Contour(np.column_stack([np.cos(theta), np.sin(theta)]))


@pytest.mark.parametrize("reference", ["cumulative", "incremental"])
def test_cycle_non_star_later_frame_names_its_frame(reference):
    # the wall is named by its own frame in both modes, not by the pair's slot
    frames = [circle_frame(k) for k in range(4)]
    frames[2] = FrameContours(2, _non_star_inner(), frames[2].outer)
    study = _single_slice_study(frames)
    with pytest.raises(GeometryError, match=r"^frame 2: .*\(frame 2 inner\)$"):
        cycle_strain_analysis(study, CycleParams(n_points=16, n_radial=2, reference=reference))


def test_boundary_displacements_name_the_reference_frame():
    # an incremental pair's reference frame k-1 is named as frame k-1
    reference = FrameContours(3, _non_star_inner(), circle_frame(3).outer)
    with pytest.raises(GeometryError, match=r"\(frame 3 inner\)$"):
        boundary_displacements(reference, circle_frame(4), 16)


def test_cycle_results_share_frame0_mesh():
    study = mi_wedge_study(seed=4, n_frames=5, n_points=40)
    params = CycleParams(n_points=24, n_radial=3)
    results = cycle_strain_analysis(study, params)
    model = results[0].model
    assert all(res.model is model for res in results)
    mesh = model.mesh
    nodes = np.union1d(mesh.boundary_nodes("inner"), mesh.boundary_nodes("outer"))
    assert np.array_equal(model.fixed, (2 * nodes[:, None] + np.arange(2)).ravel())
    system = assemble(mesh, MaterialField.uniform(mesh, params.material), params.mode)
    assert np.array_equal(model.system.stiffness.cols, system.stiffness.cols)
    assert np.array_equal(model.system.stiffness.vals, system.stiffness.vals)
    assert np.array_equal(model.system.load, system.load)
    frame0 = study.slices[0].frames[0]
    center = centroid(frame0.inner)
    expected = triangulate_annulus(
        resample_uniform_angle(frame0.inner, center, params.n_points),
        resample_uniform_angle(frame0.outer, center, params.n_points),
        params.n_radial,
    )
    assert np.array_equal(mesh.nodes, expected.nodes)
    assert np.array_equal(mesh.triangles, expected.triangles)
    assert all(res.displacement.values.shape == (mesh.n_nodes, 2) for res in results)
    assert all(res.strain.n_elements == mesh.n_triangles for res in results)


def test_cycle_solver_error_names_frame(monkeypatch):
    real_solve = fem._band_solve

    def corrupt_column_two(band, b):
        u = real_solve(band, b)
        if u.ndim == 2:
            u[:, 2] *= 1.0 + 1e-6
        return u

    monkeypatch.setattr(fem, "_band_solve", corrupt_column_two)
    study = healthy_study(seed=2, n_frames=5)
    with pytest.raises(SolverError, match=r"^frame 3: residual contract"):
        cycle_strain_analysis(study, CycleParams(n_points=32, n_radial=4))


# ---------------------------------------------------------------------------
# localization


def _summaries(matrix):
    return [
        SectorSummary(
            mean_displacement=np.zeros(len(row)),
            mean_effective=np.asarray(row, dtype=float),
            counts=np.ones(len(row), dtype=int),
        )
        for row in matrix
    ]


# synth's wedge keeps its inert motion for WEDGE[4] degrees past each edge and
# ramps back to full motion over the next WEDGE[3] degrees
_WEDGE_REACH = WEDGE[3] + WEDGE[4]


@st.composite
def _wedges(draw):
    """(n_sectors, wedge start and width in degrees): a wedge of at least two
    sectors anywhere on the circle, across the 0/360 degree seam or not."""
    n_sectors = draw(st.sampled_from([8, 16]))
    width = 360.0 / n_sectors * draw(st.floats(2.0, 0.8 * n_sectors))
    return n_sectors, draw(st.floats(0.0, 360.0, exclude_max=True)), width


@settings(max_examples=60, deadline=None)
@given(wedge=_wedges(), mode=st.sampled_from(MODES), reference=st.sampled_from(REFERENCE_MODES),
       mesh=st.sampled_from([(32, 4), (48, 6), (64, 8)]), seed=st.integers(0, 50))
@example(wedge=(8, 315.0, 90.0), mode="as-printed", reference="cumulative", mesh=(64, 8), seed=7)
@example(wedge=(16, 330.0, 60.0), mode="plane-strain", reference="incremental", mesh=(32, 4),
         seed=7)
def test_localization_flags_the_wedge_wherever_it_lies(wedge, mode, reference, mesh, seed):
    # AC9's verdict for any wedge: every sector inside the wedge is flagged,
    # and none clear of the wedge's inert margin and transition
    n_sectors, start, width = wedge
    args = (seed, 6, 64, 1, 0.3, 0.0)  # seed, frames, vertices, slices, contraction, rotation
    mi = _modulated_study(MI_ID, (start, (start + width) % 360.0, *WEDGE[2:]), *args)
    params = CycleParams(n_points=mesh[0], n_radial=mesh[1], n_sectors=n_sectors, mode=mode,
                         reference=reference)
    flagged = set(infarct_localization(
        [r.sectors for r in cycle_strain_analysis(mi, params)],
        [r.sectors for r in cycle_strain_analysis(_modulated_study(HEALTHY_ID, None, *args),
                                                  params)],
    ).suspected_sectors)
    sector_width = 360.0 / n_sectors
    lower_edges = sector_width * np.arange(n_sectors)
    inside = np.flatnonzero(np.mod(lower_edges - start, 360.0) + sector_width <= width)
    past = np.mod(lower_edges - start + _WEDGE_REACH, 360.0)
    clear = np.flatnonzero((past >= width + 2 * _WEDGE_REACH) & (past + sector_width <= 360.0))
    assert set(inside.tolist()) <= flagged
    assert not set(clear.tolist()) & flagged


@settings(max_examples=200, deadline=None)
@given(start=st.floats(-1e4, 1e4), span=st.floats(0.0, 326.0), inert=st.floats(0.0, 1.0),
       n_points=st.integers(8, 4096))
@example(start=WEDGE[0], span=WEDGE[1] - WEDGE[0], inert=WEDGE[2], n_points=64)
def test_wedge_factor_matches_the_two_branch_oracle(start, span, inert, n_points):
    # up to 326 = 360 - 2 * (transition + margin) degrees the former rise and
    # fall ramps never overlap
    end = start + span
    assume(0.0 < (end - start) % 360.0 <= 326.0)
    theta = np.degrees(TWO_PI * np.arange(n_points) / n_points)
    wedge = (start, end, inert, *WEDGE[3:])
    assert np.array_equal(_wedge_motion_factor(theta, *wedge),
                          two_branch_wedge_factor(theta, *wedge))


@pytest.mark.parametrize("span", [340.0, 350.0])
@pytest.mark.parametrize("start", [0.0, 30.0, 271.5])
def test_wide_wedge_keeps_its_whole_plateau_inert(start, span):
    # the inert plateau is the wedge and WEDGE[4] degrees on each side; the
    # former fall ramp, written last, reached into it from 343 degrees past
    # the start (into the margin for 340, into the wedge itself for 350)
    inert, transition, margin = WEDGE[2:]
    theta = np.degrees(TWO_PI * np.arange(4096) / 4096)
    factor = _wedge_motion_factor(theta, start, start + span, inert, transition, margin)
    plateau = np.mod(theta - start + margin, 360.0) < span + 2 * margin
    assert plateau.sum() > 3800
    assert np.all(factor[plateau] == inert)
    assert np.all((factor[~plateau] > inert) & (factor[~plateau] < 1.0))


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


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_localized_cycles_is_the_former_cli_loop(monkeypatch, n_cpus):
    # two references of two slices each, as analyze localized them inline,
    # with the references' cycles forked on two CPUs
    kw = dict(n_frames=4, n_points=24, n_slices=2)
    subject = mi_wedge_study(seed=5, **kw)
    references = [healthy_study(seed=seed, **kw) for seed in (5, 6)]
    params = CycleParams(n_points=24, n_radial=3, n_sectors=8)
    forks = cpus(monkeypatch, n_cpus)
    per_slice, locs = study_module.localized_cycles(subject, references, params, 0.5)
    assert len(forks) == n_cpus - 1
    assert_no_child_left()
    for slice_index, (results, loc) in enumerate(zip(per_slice, locs, strict=True)):
        old_results = cycle_strain_analysis(subject, params, slice_index)
        for new, old_result in zip(results, old_results, strict=True):
            assert np.array_equal(new.displacement.values, old_result.displacement.values)
        old = cli_reference_localization(old_results, references, params, slice_index, 0.5)
        assert loc.flags == old.flags
        assert np.array_equal(loc.subject_strain, old.subject_strain)
        assert np.array_equal(loc.reference_strain, old.reference_strain)
    # without references nothing forks and nothing is localized
    assert study_module.localized_cycles(subject, [], params, 0.5)[1] == [None, None]
    assert len(forks) == n_cpus - 1


@pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -0.5])
def test_localization_rejects_bad_tau(tau):
    # compared with NaN every sector reads "normal", which would hide an infarct
    subj = _summaries([[0.0, 2.0], [0.0, 2.0]])
    ref = _summaries([[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(ConfigurationError, match="tau must be finite and positive"):
        infarct_localization(subj, ref, tau)


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


def _radially_jittered(study, sigma, rng):
    """``study`` with Gaussian noise of ``sigma`` px added to each boundary
    point's distance from ``synth.CENTER``, frame by frame, inner wall first."""
    c = np.asarray(CENTER)

    def jitter(contour):
        rel = contour.points - c
        r = np.linalg.norm(rel, axis=1, keepdims=True)
        return Contour(c + rel * (1.0 + sigma * rng.standard_normal(r.shape) / r))

    slices = [Slice(s.index, tuple(FrameContours(f.frame_index, jitter(f.inner), jitter(f.outer))
                                   for f in s.frames)) for s in study.slices]
    return Study(study.subject_id, tuple(slices), study.spacing)


def test_localization_under_contour_noise_is_recorded():
    # how many of 8 seeds keep the exact verdict {4, 5, 6, 7} under radial
    # contour noise of sigma px: subject mi_wedge_study(seed), reference
    # healthy_study(seed + 100), 20 frames, 64x8, tau 0.5; each study's noise
    # comes from default_rng([its seed, 1]), the same draws at every sigma.
    # Noise raises the effective strain of subject and reference alike, so
    # their ratio tends to 1 and the wedge's flags go. A change that makes the
    # verdict more robust updates this record on purpose
    params = CycleParams(n_points=64, n_radial=8)
    pairs = [(mi_wedge_study(seed=seed), healthy_study(seed=seed + 100)) for seed in range(8)]

    def sectors(study, sigma, seed):
        noisy = _radially_jittered(study, sigma, np.random.default_rng([seed, 1]))
        return [r.sectors for r in cycle_strain_analysis(noisy, params)]

    exact = {}
    for sigma in (0.1, 0.25, 0.5, 1.0):
        verdicts = [infarct_localization(sectors(mi, sigma, seed),
                                         sectors(healthy, sigma, seed + 100), 0.5)
                    .suspected_sectors for seed, (mi, healthy) in enumerate(pairs)]
        exact[sigma] = sum(flags == (4, 5, 6, 7) for flags in verdicts)
    assert exact == {0.1: 8, 0.25: 7, 0.5: 0, 1.0: 0}


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


@pytest.mark.parametrize("n_points", [64, 128])
def test_incremental_frames_add_up_to_cumulative(n_points):
    # the phantom's walls keep their centroid and its boundary data is linear in
    # the load, so the incremental solves telescope to the cumulative ones
    study = phantom_cycle_study(n_points=n_points, n_steps=5)
    cumulative = cycle_strain_analysis(study, CycleParams(n_points=n_points, n_radial=8))
    incremental = cycle_strain_analysis(
        study, CycleParams(n_points=n_points, n_radial=8, reference="incremental")
    )
    total = np.zeros_like(cumulative[0].displacement.values)
    for cum, inc in zip(cumulative, incremental):
        total += inc.displacement.values
        expected = cum.displacement.values
        assert np.max(np.abs(total - expected)) <= 1e-10 * np.max(np.abs(expected))


def _arrays(obj, path="result"):
    """(path, array) of every ndarray field reachable through the dataclass
    records, tuples and lists in ``obj``."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, (tuple, list)):
        for i, item in enumerate(obj):
            yield from _arrays(item, f"{path}[{i}]")
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, field.name), f"{path}.{field.name}")


def test_every_record_array_is_read_only():
    # the records store their arrays read-only, so that no caller can change a
    # result that another result shares (one mesh and one stiffness per slice)
    from cardiofem import RingSpec, verify_ring

    params = CycleParams(n_points=16, n_radial=2)
    subject, reference = mi_wedge_study(seed=5, n_frames=4), healthy_study(seed=5, n_frames=4)
    results = cycle_strain_analysis(subject, params)
    localization = infarct_localization(
        [r.sectors for r in results],
        [r.sectors for r in cycle_strain_analysis(reference, params)])
    frames = subject.slices[0].frames
    records = (subject, results, localization, normalized_volume_curve(subject),
               verify_ring(RingSpec(1.0, 2.0), 16, 2), boundary_displacements(*frames[:2], 16),
               MaterialField.uniform(results[0].model.mesh, params.material))
    found = dict(_arrays(records))
    # one array of each of the nine records that copy theirs and of the three
    # (SliceModel, LinearSystem, Stiffness) that freeze theirs in place
    for name in ("result[0].slices[0].frames[0].inner.points", "result[1][0].model.mesh.nodes",
                 "result[1][2].displacement.values", "result[1][2].strain.effective",
                 "result[1][2].sectors.counts", "result[2].reference_strain", "result[3].raw",
                 "result[5].outer_vectors", "result[6].nu", "result[1][2].model.fixed",
                 "result[1][2].model.system.load", "result[1][2].model.system.node_order",
                 "result[1][2].model.system.stiffness.cols",
                 "result[1][2].model.system.stiffness.vals"):
        assert name in found
    assert [path for path, arr in found.items() if arr.flags.writeable] == []
