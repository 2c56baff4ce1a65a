import ast
import csv
import importlib
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cardiofem.io as cfio
from cardiofem import CycleParams, SolverError, cycle_strain_analysis
from cardiofem import cli, fem, phantom
from cardiofem import study as study_module
from cardiofem.cli import main
from cardiofem.materials import Material

from conftest import assert_no_child_left, cpus
from oracles import cli_constrained_system, cli_frame_mesh


def run(*argv):
    return main(list(argv))


@pytest.fixture
def synth_pair(tmp_path):
    healthy = tmp_path / "healthy"
    mi = tmp_path / "mi"
    assert run("synth", "--kind", "healthy", "--n-frames", "6", "--seed", "5",
               "--out", str(healthy)) == 0
    assert run("synth", "--kind", "mi-wedge", "--n-frames", "6", "--seed", "5",
               "--out", str(mi)) == 0
    return healthy, mi


def test_no_command_usage():
    assert run() == 2


def test_synth_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run("synth", "--kind", "healthy", "--n-frames", "4", "--seed", "42",
                   "--out", str(out)) == 0
    assert (a / "contours.csv").read_bytes() == (b / "contours.csv").read_bytes()
    assert (a / "study.json").read_bytes() == (b / "study.json").read_bytes()


def test_synth_expanding_walls(tmp_path):
    # a negative contraction expands both walls, the outer one by half as
    # much; at -3 the inner wall stays inside the outer one in every frame
    out = tmp_path / "expanding"
    assert run("synth", "--contraction", "-3", "--out", str(out)) == 0
    study = cfio.read_study(out / "study.json")
    assert study.n_frames == 20
    first, last = study.slices[0].frames[0], study.slices[0].frames[-1]
    assert_allclose(last.inner.points - (128.0, 128.0), 4.0 * (first.inner.points - 128.0))


def test_synth_phantom_cycle(tmp_path):
    out = tmp_path / "ph"
    assert run("synth", "--kind", "phantom-cycle", "--n-frames", "4",
               "--out", str(out)) == 0
    import cardiofem.io as cfio

    study = cfio.read_study(out / "study.json")
    radii = [
        float(np.linalg.norm(fc.inner.points, axis=1).mean())
        for fc in study.slices[0].frames
    ]
    assert all(r1 < r2 for r1, r2 in zip(radii, radii[1:]))


def test_synth_mi_wedge_inert_points(synth_pair):
    import cardiofem.io as cfio

    healthy_dir, mi_dir = synth_pair
    healthy = cfio.read_study(healthy_dir / "study.json")
    mi = cfio.read_study(mi_dir / "study.json")
    h0 = healthy.slices[0].frames[0].inner.points
    h5 = healthy.slices[0].frames[5].inner.points
    m0 = mi.slices[0].frames[0].inner.points
    m5 = mi.slices[0].frames[5].inner.points
    assert np.array_equal(h0, m0)  # same base geometry (twin studies)
    center = h0.mean(axis=0)
    angles = np.degrees(np.mod(np.arctan2(*(h0 - center).T[::-1]), 2 * np.pi))
    wedge = (angles >= 90.0) & (angles < 180.0)
    healthy_disp = np.linalg.norm(h5 - h0, axis=1)
    mi_disp = np.linalg.norm(m5 - m0, axis=1)
    assert np.all(mi_disp[wedge] < 0.1 * healthy_disp[wedge])


def test_analyze_healthy_self_reference(tmp_path, synth_pair):
    healthy_dir, _ = synth_pair
    out = tmp_path / "res"
    code = run(
        "analyze",
        "--study", str(healthy_dir / "contours.csv"),
        "--manifest", str(healthy_dir / "manifest.json"),
        "--reference", str(healthy_dir / "contours.csv"),
        "--reference-manifest", str(healthy_dir / "manifest.json"),
        "--out", str(out),
    )
    assert code == 0
    assert (out / "volume_curve.csv").exists()
    assert (out / "sector_timeseries_slice0.csv").exists()
    assert (out / "fields_slice0_frame5.vtk").exists()
    loc = json.loads((out / "localization_slice0.json").read_text())
    assert loc["suspected_sectors"] == []


def test_analyze_mi_flags_wedge(tmp_path, synth_pair):
    healthy_dir, mi_dir = synth_pair
    out = tmp_path / "res"
    code = run(
        "analyze",
        "--study", str(mi_dir / "study.json"),
        "--reference", str(healthy_dir / "study.json"),
        "--out", str(out),
    )
    assert code == 0
    loc = json.loads((out / "localization_slice0.json").read_text())
    assert loc["suspected_sectors"] == [4, 5, 6, 7]


def test_analyze_exports_the_cycle_mesh(tmp_path, synth_pair, monkeypatch):
    # on one CPU the reference's cycle runs in this process, where it is counted
    cpus(monkeypatch, 1)
    meshes = []
    for module in (cli, study_module):
        if hasattr(module, "triangulate_annulus"):
            def counted(*args, _triangulate=module.triangulate_annulus, **kwargs):
                meshes.append(1)
                return _triangulate(*args, **kwargs)
            monkeypatch.setattr(module, "triangulate_annulus", counted)
    healthy_dir, mi_dir = synth_pair
    out = tmp_path / "res"
    assert run("analyze", "--study", str(mi_dir / "study.json"),
               "--reference", str(healthy_dir / "study.json"), "--out", str(out)) == 0
    # one frame-0 mesh per cycle analysis (subject and reference), none for export
    assert len(meshes) == 2
    assert len(list(out.glob("fields_slice0_frame*.vtk"))) == 5


def _analyze_mi(healthy_dir, mi_dir, out, *flags, reference=None):
    return run("analyze", "--study", str(mi_dir / "contours.csv"),
               "--manifest", str(mi_dir / "manifest.json"),
               "--reference", str(reference or healthy_dir / "contours.csv"),
               "--reference-manifest", str(healthy_dir / "manifest.json"), "--out", str(out),
               *flags)


def test_missing_reference_after_the_fork(tmp_path, synth_pair, capsys):
    # the references are read right after the subject, before any write
    healthy_dir, mi_dir = synth_pair
    capsys.readouterr()
    out = tmp_path / "res"
    assert _analyze_mi(healthy_dir, mi_dir, out, reference=tmp_path / "nope.csv") == 2
    assert "nope.csv" in _single_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command, flags, needle", [
    ("analyze", ["--tau", "nan"], "tau must be finite and positive, got nan"),
    ("analyze", ["--tau", "0"], "tau must be finite and positive, got 0.0"),
    ("phantom-verify", ["--poisson", "0.5"], "Poisson's ratio must be in [0, 0.5), got 0.5"),
    ("volume", [], "declares 99 frames per cycle, contour file has 6"),
    ("synth", ["--kind", "phantom-cycle", "--n-frames", "1"], "n_steps must be >= 1"),
    ("phantom-verify", ["--n-points", "4"], "n_points must be at least 8"),
    ("phantom-verify", ["--n-points", "0"], "n_points must be at least 8"),
    ("phantom-verify", ["--n-points", "-8"], "n_points must be at least 8"),
    ("phantom-verify", ["--n-radial", "0"], "n_radial must be >= 1"),
    ("analyze", ["--reference-manifest", "nonexistent.json"],
     "more --reference-manifest files (2) than --reference studies (1)"),
    ("analyze", ["--sectors", "0"], "n_sectors must be >= 1"),
    ("analyze", ["--poisson", "0.7"], "Poisson's ratio must be in [0, 0.5), got 0.7"),
    ("analyze", ["--rotation-deg", "nan"], "rotation_deg_total must be finite, got nan"),
    ("synth", ["--contraction", "1"], "contraction must be finite and below 1, got 1.0"),
    ("synth", ["--contraction", "1.5"], "contraction must be finite and below 1, got 1.5"),
    ("synth", ["--contraction", "nan"], "contraction must be finite and below 1, got nan"),
    ("synth", ["--kind", "mi-wedge", "--rotation-deg", "nan"],
     "rotation_deg_total must be finite, got nan"),
    ("synth", ["--seed", "-1"], "seed must be a non-negative integer, got -1"),
    ("synth", ["--contraction", "-5"],
     "contraction -5.0 moves the inner wall out of the outer wall at frame 14"),
    ("synth", ["--n-points", "2"], "contour needs at least 3 points"),
    ("synth", ["--n-points", "1"], "contour needs at least 3 points"),
    # one more sector than the 64x8 mesh has elements
    ("analyze", ["--sectors", "1025"], "n_sectors must be at most the mesh's element count 1024"),
    ("phantom-verify", ["--sectors", "0"], "sectors must be at least 2 for the stiff-wedge check"),
    # fails in the solve, after the input is checked
    ("analyze", ["--young", "1e308"], "input out of floating-point range"),
])
def test_rejected_run_leaves_no_output(tmp_path, synth_pair, monkeypatch, capsys,
                                       command, flags, needle):
    # the input is read and checked, and analyze computes every result, before
    # --out is made; a rejected input never forks, and a solve that fails after
    # analyze forked its references leaves no child; a surplus reference
    # manifest is a usage error, the rest fail validation
    healthy_dir, mi_dir = synth_pair
    forks = cpus(monkeypatch, 2)
    capsys.readouterr()
    out = tmp_path / "res"
    if command == "analyze":
        code = _analyze_mi(healthy_dir, mi_dir, out, *flags)
    elif command == "volume":
        data = json.loads((healthy_dir / "study.json").read_text())
        data["frames_per_cycle"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = run("volume", "--study", str(bad), "--out", str(out))
    else:
        code = run(command, *flags, "--out", str(out))
    assert code == (2 if needle.startswith("more") else 1)
    assert needle in _single_error_line(capsys)
    if "--young" in flags:
        assert len(forks) == 1
        assert_no_child_left()
    else:
        assert forks == []
    assert not out.exists()


def test_failed_export_child_is_one_error_line(tmp_path, synth_pair, capsys):
    # a VTK that cannot be written is one error line, exit code 2
    healthy_dir, mi_dir = synth_pair
    out = tmp_path / "res"
    (out / "fields_slice0_frame1.vtk").mkdir(parents=True)
    capsys.readouterr()
    assert _analyze_mi(healthy_dir, mi_dir, out) == 2
    line = _single_error_line(capsys)
    assert "Is a directory" in line and "fields_slice0_frame1.vtk" in line, line


def test_forked_and_in_process_phantom_verify_are_identical(tmp_path, monkeypatch, capsys):
    runs = []
    for n_cpus in (1, 2):
        forks = cpus(monkeypatch, n_cpus)
        out = tmp_path / f"cpus{n_cpus}"
        capsys.readouterr()
        assert run("phantom-verify", "--n-points", "32", "--n-radial", "4", "--out", str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("wrote ") for line in lines) == 1
        runs.append(([line for line in lines if not line.startswith("wrote ")],
                     {p.name: p.read_bytes() for p in out.iterdir()}))
        assert len(forks) == n_cpus - 1
        assert_no_child_left()
    assert sorted(runs[0][1]) == ["convergence.csv", "sector_comparison.csv"]
    assert runs[0] == runs[1]


def test_forked_and_in_process_analyze_are_identical(tmp_path, monkeypatch, capsys):
    # the references' cycles run in one forked task on two CPUs and inline on one
    from cardiofem.synth import healthy_study, mi_wedge_study

    kw = dict(n_frames=5, n_points=48, n_slices=2)
    cfio.write_study_json(tmp_path / "mi.json", mi_wedge_study(seed=5, **kw))
    argv = ["analyze", "--study", str(tmp_path / "mi.json"), "--n-points", "32", "--n-radial", "4"]
    for seed in (5, 6):
        cfio.write_study_json(tmp_path / f"healthy{seed}.json", healthy_study(seed=seed, **kw))
        argv += ["--reference", str(tmp_path / f"healthy{seed}.json")]
    runs = []
    for n_cpus in (1, 2):
        forks = cpus(monkeypatch, n_cpus)
        out = tmp_path / f"cpus{n_cpus}"
        capsys.readouterr()
        assert run(*argv, "--out", str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"artifacts written to {out}"
        runs.append((lines[:-1], {p.name: p.read_bytes() for p in out.iterdir()}))
        assert len(forks) == n_cpus - 1
        assert_no_child_left()
    assert runs[0][0] == ["slice 0: suspected sectors [4, 5, 6, 7]",
                          "slice 1: suspected sectors [4, 5, 6, 7]"]
    assert len(runs[0][1]) == 1 + 2 * (4 + 3)
    assert runs[0] == runs[1]


def _hooked_study(tmp_path, source, frame, name):
    """A copy of the study JSON ``source`` whose slice-0 inner wall at
    ``frame`` is not star-shaped."""
    data = json.loads(source.read_text())
    data["slices"][0]["frames"][frame]["inner"] = _hooked_inner((128.0, 128.0))
    bad = tmp_path / name
    bad.write_text(json.dumps(data))
    return bad


@pytest.mark.parametrize("failure", ["star-shape", "solver"])
def test_a_failing_reference_is_one_error_line_on_any_cpus(tmp_path, synth_pair, monkeypatch,
                                                           capsys, failure):
    # the reference's error crosses the fork with its type and column, so the
    # line and the exit code do not depend on where its cycle ran
    healthy_dir, mi_dir = synth_pair
    reference = healthy_dir / "study.json"
    argv = ["analyze", "--study", str(mi_dir / "study.json"), "--n-points", "32",
            "--n-radial", "4"]
    if failure == "star-shape":
        reference = _hooked_study(tmp_path, reference, 2, "hooked.json")
        expected = "error: frame 2: contour is not star-shaped"
    else:
        # one CPU runs the reference's cycle first, so its solve is the first one
        seen, real = [], study_module.solve
        monkeypatch.setattr(study_module, "solve", lambda *args: seen.append(args[2]) or real(*args))
        cpus(monkeypatch, 1)
        assert run(*argv, "--reference", str(reference), "--out", str(tmp_path / "spy")) == 0

        def failing(system, fixed, values):
            if np.array_equal(values, seen[0]):
                raise SolverError("residual contract violated", 2)
            return real(system, fixed, values)

        monkeypatch.setattr(study_module, "solve", failing)
        expected = "error: frame 3: residual contract violated"
    for n_cpus in (1, 2):
        forks = cpus(monkeypatch, n_cpus)
        capsys.readouterr()
        out = tmp_path / f"cpus{n_cpus}"
        assert run(*argv, "--reference", str(reference), "--out", str(out)) == 1
        assert _single_error_line(capsys).startswith(expected)
        assert len(forks) == n_cpus - 1
        assert_no_child_left()
        assert not out.exists()


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_the_subjects_error_wins_over_the_references(tmp_path, synth_pair, monkeypatch, capsys,
                                                     n_cpus):
    # the reference's cycle fails too, in the child or inline before the subject's
    healthy_dir, mi_dir = synth_pair
    subject = _hooked_study(tmp_path, mi_dir / "study.json", 4, "subject.json")
    reference = _hooked_study(tmp_path, healthy_dir / "study.json", 2, "reference.json")
    forks = cpus(monkeypatch, n_cpus)
    capsys.readouterr()
    out = tmp_path / "res"
    assert run("analyze", "--study", str(subject), "--reference", str(reference),
               "--n-points", "32", "--n-radial", "4", "--out", str(out)) == 1
    assert _single_error_line(capsys).startswith("error: frame 4: contour is not star-shaped")
    assert len(forks) == n_cpus - 1
    assert_no_child_left()
    assert not out.exists()


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_fine_ring_solver_error_is_one_error_line(tmp_path, monkeypatch, capsys, n_cpus):
    def singular(*args):
        raise SolverError("fine ring is singular", 0)

    monkeypatch.setattr(phantom, "_fine_ring", singular)
    forks = cpus(monkeypatch, n_cpus)
    capsys.readouterr()
    out = tmp_path / "res"
    assert run("phantom-verify", "--n-points", "32", "--n-radial", "4", "--out", str(out)) == 1
    assert _single_error_line(capsys) == "error: fine ring is singular"
    assert len(forks) == n_cpus - 1
    assert_no_child_left()
    assert not out.exists()


def test_unwritable_output_path(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    capsys.readouterr()
    assert run("synth", "--kind", "healthy", "--out", str(blocker / "x")) == 2
    assert "Not a directory" in _single_error_line(capsys)
    assert_no_child_left()


def _single_error_line(capsys):
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.out + captured.err
    return lines[0]


def _short_row(lines):
    lines.insert(3, "s,0,0")


def _bad_x_after_blank_lines(lines):
    lines[1:1] = ["", ""]
    fields = lines[7].split(",")
    fields[5] = "abc"
    lines[7] = ",".join(fields)


@pytest.mark.parametrize("edit, text", [
    (_short_row, ":4: malformed row (3 of 7 fields)"),
    (_bad_x_after_blank_lines, ":8: malformed row (could not convert string to float: 'abc')"),
], ids=["row-without-boundary", "line-after-blank-lines"])
def test_malformed_csv_row_is_one_error_line_naming_its_line(tmp_path, synth_pair, capsys,
                                                             edit, text):
    # the line is the row's physical line in the file, blank lines counted
    healthy_dir, mi_dir = synth_pair
    path = mi_dir / "contours.csv"
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_bytes("".join(line + "\r\n" for line in lines).encode())
    capsys.readouterr()
    out = tmp_path / "res"
    assert _analyze_mi(healthy_dir, mi_dir, out) == 1
    assert _single_error_line(capsys) == f"error: {path}{text}"
    assert not out.exists()


def _rows_of_another_subject(healthy_dir, lines):
    for i in range(1, len(lines)):
        lines[i] = "synthetic-healthy" + lines[i][len("synthetic-mi"):]
    return 2


def _second_subject_appended_as_slice_1(healthy_dir, lines):
    # each of its rows a well-formed slice 1 row, which was read as the
    # manifest subject's second slice
    appended = (healthy_dir / "contours.csv").read_text().splitlines()[1:]
    first = len(lines) + 1
    lines += [row.replace(",0,", ",1,", 1) for row in appended]
    return first


@pytest.mark.parametrize("edit", [_rows_of_another_subject, _second_subject_appended_as_slice_1],
                         ids=["every-row", "appended-slice"])
def test_csv_row_of_another_subject_is_one_error_line(tmp_path, synth_pair, capsys, edit):
    healthy_dir, mi_dir = synth_pair
    path = mi_dir / "contours.csv"
    lines = path.read_text().splitlines()
    line = edit(healthy_dir, lines)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "res"
    assert run("volume", "--study", str(path), "--manifest", str(mi_dir / "manifest.json"),
               "--out", str(out)) == 1
    assert _single_error_line(capsys) == (
        f"error: {path}:{line}: subject_id 'synthetic-healthy' is not the manifest's "
        "'synthetic-mi'")
    assert not out.exists()


def test_csv_reference_without_a_manifest_borrows_the_subjects(tmp_path, synth_pair, capsys):
    # a borrowed manifest names the subject, not the reference, so the
    # reference's rows need only agree with its first row
    healthy_dir, mi_dir = synth_pair
    reference = healthy_dir / "contours.csv"
    argv = ["analyze", "--study", str(mi_dir / "contours.csv"),
            "--manifest", str(mi_dir / "manifest.json"), "--reference", str(reference)]
    assert run(*argv, "--out", str(tmp_path / "res")) == 0
    loc = json.loads((tmp_path / "res" / "localization_slice0.json").read_text())
    assert loc["suspected_sectors"] == [4, 5, 6, 7]

    lines = reference.read_text().splitlines()
    lines[7] = "synthetic-mi" + lines[7][len("synthetic-healthy"):]
    reference.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "stray"
    assert run(*argv, "--out", str(out)) == 1
    assert _single_error_line(capsys) == (
        f"error: {reference}:8: subject_id 'synthetic-mi' is not the first row's "
        "'synthetic-healthy'")
    assert not out.exists()


@pytest.mark.parametrize("command, flags, needle", [
    ("mesh", ["--slice", "3"], "--slice must be in 0..0, got 3"),
    ("mesh", ["--slice", "-1"], "--slice must be in 0..0, got -1"),
    ("mesh", ["--frame", "99"], "--frame must be in 0..5, got 99"),
    ("mesh", ["--frame", "-1"], "--frame must be in 0..5, got -1"),
    ("solve", ["--slice", "2"], "--slice must be in 0..0, got 2"),
    ("solve", ["--frame", "0"], "--frame must be in 1..5, got 0"),
    ("strain", ["--slice", "2"], "--slice must be in 0..0, got 2"),
    ("strain", ["--frame", "6"], "--frame must be in 1..5, got 6"),
])
def test_out_of_range_slice_or_frame(tmp_path, synth_pair, capsys, command, flags, needle):
    healthy_dir, _ = synth_pair
    capsys.readouterr()
    out = tmp_path / "res"
    code = run(command, "--study", str(healthy_dir / "study.json"), *flags, "--out", str(out))
    assert code == 2
    assert needle in _single_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("missing", ["inner", "outer"])
def test_study_json_frame_without_contour(tmp_path, synth_pair, capsys, missing):
    healthy_dir, _ = synth_pair
    data = json.loads((healthy_dir / "study.json").read_text())
    del data["slices"][0]["frames"][3][missing]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    code = run("mesh", "--study", str(bad), "--out", str(tmp_path / "res"))
    assert code == 1
    assert "frame 3: needs both inner and outer contours" in _single_error_line(capsys)


def _ragged_inner(data):
    data["slices"][0]["frames"][2]["inner"][5].append(0.0)


@pytest.mark.parametrize("edit, needle", [
    (lambda d: d.update(slices=5), "'slices' must be list, got 5"),
    (_ragged_inner, "slice 0 frame 2 inner: points must be [x, y] pairs"),
    (lambda d: d["slices"][0]["frames"][4].update(frame="a"),
     "slice 0: 'frame' must be int, got 'a'"),
], ids=["slices-not-a-list", "ragged-points", "frame-not-an-int"])
def test_study_json_wrong_types(tmp_path, synth_pair, capsys, edit, needle):
    healthy_dir, _ = synth_pair
    data = json.loads((healthy_dir / "study.json").read_text())
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    code = run("volume", "--study", str(bad), "--out", str(tmp_path / "res"))
    assert code == 1
    line = _single_error_line(capsys)
    assert str(bad) in line and needle in line


@pytest.mark.parametrize("command, text, needle", [
    ("phantom-verify", "[1, 2]", "expected a JSON object, got [1, 2]"),
    ("phantom-verify", '{"inner_radius": 1}', "missing 'outer_radius'"),
    ("phantom-verify", '{"inner_radius": "a", "outer_radius": 2}',
     "'inner_radius' must be a number, got 'a'"),
    ("phantom-verify", '{"inner_radius": 1, "outer_radius": 2, "center": [0]}',
     "'center' must be 2 numbers, got [0]"),
    ("phantom-verify", '{"inner_radius": 1, "outer_radius": 2, "regions": [{"start_deg": 0}]}',
     "unknown key 'regions'"),
    ("phantom-verify", '{"inner_radius": 1, "outer_radius": 2, "pressures": [0, 1]}',
     "unknown key 'pressures'"),
    ("phantom-verify", '{"inner_radius": 1, "outer_radius": 2, "material": {"E": 1e4, "Nu": 0.45}}',
     "material: unknown key 'Nu'"),
    ("analyze", "5", "expected a JSON object, got 5"),
], ids=["spec-not-an-object", "spec-missing-key", "spec-string-radius", "spec-short-center",
        "spec-regions-key", "spec-pressures-key", "spec-material-key", "manifest-not-an-object"])
def test_malformed_spec_or_manifest_json(tmp_path, capsys, command, text, needle):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if command == "phantom-verify":
        argv = ["phantom-verify", "--phantom-spec", str(bad)]
    else:
        (tmp_path / "contours.csv").write_text("")  # the manifest is read first
        argv = ["analyze", "--study", str(tmp_path / "contours.csv"), "--manifest", str(bad)]
    capsys.readouterr()
    assert run(*argv, "--out", str(tmp_path / "res")) == 1
    line = _single_error_line(capsys)
    assert str(bad) in line and needle in line


@pytest.mark.parametrize("subject_id", [None, 7, {"a": 1}], ids=["null", "number", "object"])
@pytest.mark.parametrize("name", ["manifest.json", "study.json"])
def test_subject_id_must_be_a_json_string(tmp_path, synth_pair, capsys, name, subject_id):
    healthy_dir, _ = synth_pair
    data = json.loads((healthy_dir / name).read_text())
    data["subject_id"] = subject_id
    bad = tmp_path / name
    bad.write_text(json.dumps(data))
    if name == "manifest.json":
        argv = ["--study", str(healthy_dir / "contours.csv"), "--manifest", str(bad)]
    else:
        argv = ["--study", str(bad)]
    capsys.readouterr()
    out = tmp_path / "res"
    assert run("volume", *argv, "--out", str(out)) == 1
    line = _single_error_line(capsys)
    assert str(bad) in line and f"'subject_id' must be str, got {subject_id!r}" in line
    assert not out.exists()


@pytest.mark.parametrize("case, needle", [
    ("verify-young", "input out of floating-point range (overflow encountered in "),
    ("analyze-young", "input out of floating-point range (overflow encountered in "),
    ("spec-1e200", "input out of floating-point range (overflow encountered in "),
    ("spec-infinity", "need 0 < inner radius < outer radius < inf, got 1.0, inf"),
])
def test_input_out_of_float_range_is_one_error_line(tmp_path, synth_pair, capsys, case,
                                                    needle):
    healthy_dir, mi_dir = synth_pair
    radius = {"spec-1e200": "1e200", "spec-infinity": "Infinity"}.get(case)
    if radius:
        spec = tmp_path / "spec.json"
        spec.write_text(f'{{"inner_radius": 1.0, "outer_radius": {radius}}}')
        argv = ["phantom-verify", "--phantom-spec", str(spec)]
    elif case == "verify-young":
        argv = ["phantom-verify", "--young", "1e308"]
    else:
        argv = ["analyze", "--study", str(mi_dir / "study.json"),
                "--reference", str(healthy_dir / "study.json"), "--young", "1e308"]
    capsys.readouterr()
    assert run(*argv, "--out", str(tmp_path / "res")) == 1
    assert needle in _single_error_line(capsys)
    assert_no_child_left()


def test_config_values_converted_like_flags(tmp_path, synth_pair):
    healthy_dir, _ = synth_pair
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_points": "32", "n_radial": 2}))
    out = tmp_path / "res"
    assert run("mesh", "--study", str(healthy_dir / "study.json"),
               "--config", str(config), "--out", str(out)) == 0
    with (out / "nodes.csv").open() as fh:
        assert len(list(csv.DictReader(fh))) == 32 * 3


@pytest.mark.parametrize("values, needle", [
    ({"sectors": "x"}, "argument --sectors: invalid int value: 'x'"),
    ({"n_points": 64.5}, "argument --n-points: invalid int value: '64.5'"),
    ({"poisson": [0.5]}, "argument --poisson: invalid float value: '[0.5]'"),
    # the key names the --slice flag
    ({"slice": 7}, "--slice must be in 0..0, got 7"),
    ({"n_point": 32, "n_radial": 2}, "'n_point' names no flag of strain"),
    # the flag's former dest is no key
    ({"slice_index": 0}, "'slice_index' names no flag of strain"),
])
def test_bad_config_value(tmp_path, synth_pair, capsys, values, needle):
    healthy_dir, _ = synth_pair
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    capsys.readouterr()
    code = run("strain", "--study", str(healthy_dir / "study.json"),
               "--config", str(config), "--out", str(tmp_path / "res"))
    assert code == 2
    assert needle in _single_error_line(capsys)


@pytest.mark.parametrize("values, needle", [
    ({"mode": "plane-stress"}, "argument --mode: invalid choice: 'plane-stress'"),
    ({"out": 5}, "out must be a string, got 5"),
    ({"manifest": None}, "manifest must be a string, got None"),
    ({"dump_system": "no"}, "dump_system must be true or false, got 'no'"),
])
def test_config_value_checked_like_its_flag(tmp_path, synth_pair, capsys, values, needle):
    healthy_dir, _ = synth_pair
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    capsys.readouterr()
    code = run("solve", "--study", str(healthy_dir / "study.json"),
               "--config", str(config), "--out", str(tmp_path / "res"))
    assert code == 2
    assert needle in _single_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["phantom-verify", "--mode", "as-printed"],
    ["volume", "--study", "study.json", "--slice", "1"],
    ["mesh", "--study", "study.json", "--young", "2e4"],
])
def test_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "res"
    with pytest.raises(SystemExit) as info:
        run(*argv, "--out", str(out))
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, values", [
    ("phantom-verify", {"mode": "as-printed"}),
    ("volume", {"slice": 1}),
    ("volume", {"help": "x"}),
    ("strain", {"config": "nonexistent.json"}),
])
def test_config_key_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command,
                                                              values):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    capsys.readouterr()
    assert run(command, "--config", str(config), "--out", str(tmp_path / "res")) == 2
    (key,) = values
    assert f"{key!r} names no flag of {command}" in _single_error_line(capsys)


def test_config_reference_may_be_one_string(tmp_path, synth_pair):
    healthy_dir, mi_dir = synth_pair
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"reference": str(healthy_dir / "study.json")}))
    out = tmp_path / "res"
    assert run("analyze", "--study", str(mi_dir / "study.json"), "--config", str(config),
               "--out", str(out)) == 0
    loc = json.loads((out / "localization_slice0.json").read_text())
    assert loc["suspected_sectors"] == [4, 5, 6, 7]


def test_analyze_missing_manifest(tmp_path, synth_pair):
    healthy_dir, _ = synth_pair
    code = run(
        "analyze",
        "--study", str(healthy_dir / "contours.csv"),
        "--manifest", str(tmp_path / "missing.json"),
        "--out", str(tmp_path / "res"),
    )
    assert code == 2


def test_analyze_missing_study(tmp_path):
    assert run("analyze", "--out", str(tmp_path / "x")) == 2


def test_rotation_compensated_study(tmp_path):
    rot = tmp_path / "rot"
    assert run("synth", "--kind", "healthy", "--n-frames", "5", "--contraction", "0",
               "--rotation-deg", "7", "--out", str(rot)) == 0
    out = tmp_path / "res"
    assert run("analyze", "--study", str(rot / "study.json"),
               "--rotation-deg", "7", "--out", str(out)) == 0
    with (out / "strain_aggregates_slice0.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert max(float(r["max_effective"]) for r in rows) < 1e-9


def test_config_file_with_flag_override(tmp_path, synth_pair):
    healthy_dir, mi_dir = synth_pair
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "study": str(mi_dir / "study.json"),
        "reference": [str(healthy_dir / "study.json")],
        "out": str(tmp_path / "from-config"),
        "tau": 0.0001,
    }))
    # config tau would flag nothing
    assert run("analyze", "--config", str(config)) == 0
    loc = json.loads((tmp_path / "from-config" / "localization_slice0.json").read_text())
    assert loc["tau"] == 0.0001
    assert loc["suspected_sectors"] == []
    # explicit flag overrides the config value
    assert run("analyze", "--config", str(config), "--tau", "0.5",
               "--out", str(tmp_path / "override")) == 0
    loc = json.loads((tmp_path / "override" / "localization_slice0.json").read_text())
    assert loc["tau"] == 0.5
    assert loc["suspected_sectors"] == [4, 5, 6, 7]


def test_mesh_solve_strain_volume_commands(tmp_path, synth_pair):
    healthy_dir, _ = synth_pair
    study = str(healthy_dir / "study.json")

    out = tmp_path / "mesh"
    assert run("mesh", "--study", study, "--out", str(out), "--n-points", "32") == 0
    assert (out / "mesh.vtk").exists()
    assert (out / "nodes.csv").exists()

    out = tmp_path / "solve"
    assert run("solve", "--study", study, "--frame", "3", "--out", str(out),
               "--dump-system") == 0
    assert (out / "displacement_frame3.vtk").exists()
    assert (out / "displacement_frame3.csv").exists()
    assert (out / "system_frame3_K.mtx").exists()

    out = tmp_path / "strain"
    assert run("strain", "--study", study, "--out", str(out)) == 0
    assert (out / "strain_frame5.csv").exists()
    assert (out / "sectors_frame5.csv").exists()

    out = tmp_path / "volume"
    assert run("volume", "--study", study, "--out", str(out)) == 0
    assert (out / "volume_curve.csv").exists()


@pytest.mark.parametrize("frame", [0, 5])
def test_mesh_frame_is_the_former_cli_mesh(tmp_path, synth_pair, frame):
    healthy_dir, _ = synth_pair
    out, expected = tmp_path / "mesh", tmp_path / "expected"
    assert run("mesh", "--study", str(healthy_dir / "study.json"), "--frame", str(frame),
               "--n-points", "32", "--n-radial", "3", "--out", str(out)) == 0
    fc = cfio.read_study(healthy_dir / "study.json").slices[0].frames[frame]
    mesh = cli_frame_mesh(fc, 32, 3)
    expected.mkdir()
    cfio.write_mesh_vtk(expected / "mesh.vtk", mesh)
    cfio.write_mesh_csv(expected / "nodes.csv", expected / "elements.csv", mesh)
    for name in ("mesh.vtk", "nodes.csv", "elements.csv"):
        assert (out / name).read_bytes() == (expected / name).read_bytes()


def test_dump_system_is_the_former_cli_system_and_assembles_once(tmp_path, synth_pair,
                                                                  monkeypatch):
    _, mi_dir = synth_pair
    assemblies = []
    for module in (fem, study_module, cli):
        if hasattr(module, "assemble"):
            def counted(*args, _assemble=module.assemble, **kwargs):
                assemblies.append(1)
                return _assemble(*args, **kwargs)
            monkeypatch.setattr(module, "assemble", counted)
    csv_path, manifest = str(mi_dir / "contours.csv"), str(mi_dir / "manifest.json")
    out = tmp_path / "solve"
    assert run("solve", "--study", csv_path, "--manifest", manifest, "--frame", "3",
               "--mode", "plane-strain", "--young", "3e4", "--poisson", "0.45",
               "--dump-system", "--out", str(out)) == 0
    assert len(assemblies) == 1
    monkeypatch.undo()

    material = Material(3e4, 0.45)
    loaded = cfio.read_study(csv_path, manifest)
    res = cycle_strain_analysis(loaded, CycleParams(material=material, mode="plane-strain"))[2]
    system = cli_constrained_system(res.model.mesh, res.displacement, material, "plane-strain")
    cfio.dump_system(tmp_path / "expected", system)
    for part in ("K", "F"):
        expected = (tmp_path / f"expected_{part}.mtx").read_bytes()
        assert (out / f"system_frame3_{part}.mtx").read_bytes() == expected


def test_phantom_verify_default(tmp_path):
    out = tmp_path / "pv"
    assert run("phantom-verify", "--out", str(out)) == 0
    assert (out / "convergence.csv").exists()
    assert (out / "sector_comparison.csv").exists()
    with (out / "convergence.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert float(rows[1]["l2_error"]) <= 0.01
    assert float(rows[-1]["observed_order"]) >= 1.7


def test_phantom_verify_at_a_large_modulus(tmp_path, capsys):
    # the pinned traction solves pivot on the free-dof block alone, whose
    # pivots all scale with E, so E = 1e13 passes like the default
    capsys.readouterr()
    assert run("phantom-verify", "--young", "1e13", "--out", str(tmp_path / "pv")) == 0
    assert capsys.readouterr().out.count("[PASS]") == 6


def test_phantom_verify_coarse_fails(tmp_path):
    out = tmp_path / "pv"
    assert run("phantom-verify", "--out", str(out), "--n-points", "8",
               "--n-radial", "1") == 1


def test_phantom_verify_custom_spec(tmp_path):
    spec_path = tmp_path / "ring.json"
    spec_path.write_text(json.dumps({
        "inner_radius": 1.0,
        "outer_radius": 2.0,
        "material": {"E": 5e4, "nu": 0.25},
    }))
    out = tmp_path / "pv"
    assert run("phantom-verify", "--phantom-spec", str(spec_path),
               "--out", str(out)) == 0


def _ring_spec(tmp_path):
    spec_path = tmp_path / "ring.json"
    spec_path.write_text(json.dumps({"inner_radius": 1.0, "outer_radius": 2.0}))
    return spec_path


@pytest.mark.parametrize("flags, name", [
    (["--young", "5e6"], "young"),
    (["--poisson", "0.25"], "poisson"),
    (["--young", "5e6", "--poisson", "0.25"], "young"),
])
def test_phantom_spec_excludes_modulus_flags(tmp_path, capsys, flags, name):
    # the spec's material sets E and nu, so the flags would be ignored
    out = tmp_path / "pv"
    capsys.readouterr()
    assert run("phantom-verify", "--phantom-spec", str(_ring_spec(tmp_path)), *flags,
               "--out", str(out)) == 2
    assert _single_error_line(capsys) == (
        f"error: --phantom-spec excludes --{name}: the spec sets the material")
    assert not out.exists()


@pytest.mark.parametrize("values, flags, name", [
    ({"young": 5e6}, ["--phantom-spec", "SPEC"], "young"),
    ({"phantom_spec": "SPEC", "poisson": 0.25}, [], "poisson"),
    ({"phantom-spec": "SPEC"}, ["--young", "5e6"], "young"),
])
def test_phantom_spec_excludes_modulus_config_keys(tmp_path, capsys, values, flags, name):
    # a config key counts as its flag, whether it gives the spec or the modulus
    spec = str(_ring_spec(tmp_path))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({k: spec if v == "SPEC" else v for k, v in values.items()}))
    flags = [spec if flag == "SPEC" else flag for flag in flags]
    out = tmp_path / "pv"
    capsys.readouterr()
    assert run("phantom-verify", "--config", str(config), *flags, "--out", str(out)) == 2
    assert _single_error_line(capsys) == (
        f"error: --phantom-spec excludes --{name}: the spec sets the material")
    assert not out.exists()


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("name, value", [
    ("seed", "9"), ("contraction", "0.7"), ("rotation-deg", "30"),
])
def test_phantom_cycle_excludes_motion_flags(tmp_path, capsys, route, name, value):
    # the phantom cycle is the unit ring under pressure: it has no seed and
    # no motion, so the flags would be ignored
    config = tmp_path / "config.json"
    config.write_text(json.dumps({name.replace("-", "_"): value} if route == "config" else {}))
    flags = [f"--{name}", value] if route == "flag" else []
    out = tmp_path / "ph"
    capsys.readouterr()
    assert run("synth", "--kind", "phantom-cycle", "--config", str(config), *flags,
               "--out", str(out)) == 2
    assert _single_error_line(capsys) == (
        f"error: --kind phantom-cycle excludes --{name}: "
        "the phantom cycle is the unit ring under pressure")
    assert not out.exists()


@pytest.mark.parametrize("n_slices, n_frames", [(1, 6), (2, 5)])
def test_mismatched_reference_fails_before_any_work(tmp_path, monkeypatch, capsys,
                                                    n_slices, n_frames):
    # each subject slice is localized against the reference slice at its
    # position, over the same frames, so the counts are checked on reading
    from cardiofem.synth import healthy_study, mi_wedge_study

    cfio.write_study_json(tmp_path / "mi.json", mi_wedge_study(seed=5, n_frames=6, n_slices=2))
    reference = tmp_path / "reference.json"
    cfio.write_study_json(reference, healthy_study(seed=5, n_frames=n_frames, n_slices=n_slices))
    forks = cpus(monkeypatch, 2)
    capsys.readouterr()
    out = tmp_path / "res"
    assert run("analyze", "--study", str(tmp_path / "mi.json"), "--reference", str(reference),
               "--n-points", "32", "--n-radial", "4", "--out", str(out)) == 1
    assert _single_error_line(capsys) == (
        f"error: reference {reference} has {n_slices} slice(s) of {n_frames} frames, "
        "the subject 2 of 6")
    assert forks == []
    assert not out.exists()


@pytest.mark.parametrize("spacing, shown", [
    ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("0", "0.0"), ("-8.0", "-8.0"),
])
@pytest.mark.parametrize("command, fmt", [
    ("volume", "manifest"), ("volume", "study JSON"),
    ("analyze", "manifest"), ("analyze", "study JSON"),
])
def test_bad_slice_spacing_fails_before_any_work(tmp_path, synth_pair, monkeypatch, capsys,
                                                spacing, shown, command, fmt):
    # Python's json reads NaN and Infinity; a study's one spacing must be
    # finite and positive, whichever format carries it
    healthy_dir, mi_dir = synth_pair
    name = "manifest.json" if fmt == "manifest" else "study.json"
    text = (mi_dir / name).read_text()
    bad = tmp_path / name
    bad.write_text(text.replace('"slice_spacing_mm": 8.0', f'"slice_spacing_mm": {spacing}', 1))
    argv = ["--study", str(mi_dir / "contours.csv"), "--manifest", str(bad)]
    if fmt == "study JSON":
        argv = ["--study", str(bad)]
    if command == "analyze":
        argv += ["--reference", str(healthy_dir / "study.json")]
    forks = cpus(monkeypatch, 2)
    capsys.readouterr()
    out = tmp_path / "res"
    assert run(command, *argv, "--out", str(out)) == 1
    assert _single_error_line(capsys) == (
        f"error: slice spacing must be finite and positive, got {shown}")
    assert forks == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["volume", "analyze"])
def test_repeated_slice_index_fails_before_any_work(tmp_path, synth_pair, monkeypatch, capsys,
                                                    command):
    # a slice listed twice would count twice in the volume curve, and its
    # field exports would overwrite each other
    healthy_dir, mi_dir = synth_pair
    data = json.loads((mi_dir / "study.json").read_text())
    data["slices"].append(data["slices"][0])
    bad = tmp_path / "study.json"
    bad.write_text(json.dumps(data))
    argv = ["--study", str(bad)]
    if command == "analyze":
        argv += ["--reference", str(healthy_dir / "study.json")]
    forks = cpus(monkeypatch, 2)
    capsys.readouterr()
    out = tmp_path / "res"
    assert run(command, *argv, "--out", str(out)) == 1
    assert _single_error_line(capsys) == f"error: {bad}: slice indices must be distinct, got [0, 0]"
    assert forks == []
    assert not out.exists()


def test_unequal_frame_counts_fail_naming_the_file(tmp_path, synth_pair, capsys):
    healthy_dir, _ = synth_pair
    data = json.loads((healthy_dir / "study.json").read_text())
    data["slices"].append({**data["slices"][0], "slice": 1,
                           "frames": data["slices"][0]["frames"][:-1]})
    bad = tmp_path / "study.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("volume", "--study", str(bad), "--out", str(tmp_path / "res")) == 1
    n = len(data["slices"][0]["frames"])
    assert _single_error_line(capsys) == (
        f"error: {bad}: inconsistent frame counts across slices: {set((n - 1, n))}")
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("command", ["volume", "analyze"])
def test_overflowing_volume_fails_before_any_work(tmp_path, synth_pair, monkeypatch, capsys,
                                                  command):
    # a finite spacing whose volumes overflow would give an inf/nan curve
    healthy_dir, mi_dir = synth_pair
    bad = tmp_path / "study.json"
    bad.write_text((mi_dir / "study.json").read_text().replace(
        '"slice_spacing_mm": 8.0', '"slice_spacing_mm": 1e307', 1))
    argv = ["--study", str(bad)]
    if command == "analyze":
        argv += ["--reference", str(healthy_dir / "study.json")]
    forks = cpus(monkeypatch, 2)
    capsys.readouterr()
    out = tmp_path / "res"
    assert run(command, *argv, "--out", str(out)) == 1
    assert _single_error_line(capsys) == (
        "error: frame 0: volume inf is not finite (slice spacing 1e+307)")
    assert forks == []
    assert not out.exists()


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("name", ["out", "sectors", "reference"])
def test_end_of_options_is_no_flag_value(tmp_path, capsys, route, name):
    # argparse reads "--" as the end of the options, so no flag takes it as
    # its value, from the command line or from a config
    config = tmp_path / "config.json"
    config.write_text(json.dumps({name: "--"} if route == "config" else {}))
    flags = [f"--{name}=--"] if route == "flag" else []
    capsys.readouterr()
    assert run("analyze", "--config", str(config), *flags) == 2
    assert _single_error_line(capsys) == f"error: argument --{name}: expected one argument"


def test_phantom_verify_needs_two_sectors(tmp_path, capsys):
    capsys.readouterr()
    assert run("phantom-verify", "--sectors", "1", "--n-points", "16", "--n-radial", "2",
               "--out", str(tmp_path / "pv")) == 1
    assert "sectors must be at least 2" in _single_error_line(capsys)


def test_phantom_verify_takes_no_more_sectors_than_base_elements(tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "pv"
    assert run("phantom-verify", "--sectors", "65", "--n-points", "16", "--n-radial", "2",
               "--out", str(out)) == 1
    assert _single_error_line(capsys) == (
        "error: n_sectors must be at most the mesh's element count 64, got 65")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--n-radial", "0"], ["--n-radial", "2", "--sectors", "65"]])
def test_strain_and_phantom_verify_reject_a_mesh_size_alike(tmp_path, synth_pair, capsys, flags):
    # CycleParams bounds the ring size and sector count of both commands
    healthy_dir, _ = synth_pair
    capsys.readouterr()
    lines = []
    for command in (["strain", "--study", str(healthy_dir / "study.json")], ["phantom-verify"]):
        assert run(*command, "--n-points", "16", *flags, "--out", str(tmp_path / command[0])) == 1
        lines.append(_single_error_line(capsys))
    assert lines[0] == lines[1]


def test_phantom_verify_needs_n_points_divisible_by_4(tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "pv"
    assert run("phantom-verify", "--n-points", "30", "--n-radial", "4", "--out", str(out)) == 1
    assert "n_points must be divisible by 4" in _single_error_line(capsys)
    assert not out.exists()


def test_phantom_csvs_are_numbers_of_the_report(tmp_path):
    from cardiofem import RingSpec, verify_ring
    from cardiofem.materials import Material

    out = tmp_path / "pv"
    assert run("phantom-verify", "--n-points", "32", "--n-radial", "4",
               "--out", str(out)) == 0
    report = verify_ring(RingSpec(1.0, 2.0, material=Material(1e4, 0.3)), 32, 4, 16)
    with (out / "convergence.csv").open() as fh:
        rows = list(csv.reader(fh))[1:]
    assert [[float(v) for v in row[:4]] for row in rows] == [
        [na, nr, 1.0 / nr, err] for (na, nr), err in zip(report.resolutions, report.l2_errors)
    ]
    assert [row[4] for row in rows] == ["", *(repr(o) for o in report.orders)]
    with (out / "sector_comparison.csv").open() as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    t, p = report.traction, report.pipeline
    assert rows == [
        [s, t.mean_displacement[s], p.mean_displacement[s], t.mean_effective[s],
         p.mean_effective[s], float(report.stiff_sectors[s])]
        for s in range(16)
    ]


def test_every_table_ends_lines_with_crlf(tmp_path, synth_pair):
    # every CSV goes through io's one writer, the analyze and phantom-verify
    # tables included
    healthy_dir, mi_dir = synth_pair
    assert _analyze_mi(healthy_dir, mi_dir, tmp_path / "analysis") == 0
    assert run("phantom-verify", "--n-points", "32", "--n-radial", "4",
               "--out", str(tmp_path / "pv")) == 0
    tables = sorted(tmp_path.glob("analysis/*.csv")) + sorted(tmp_path.glob("pv/*.csv"))
    assert [p.name for p in tables] == [
        "sector_timeseries_slice0.csv", "strain_aggregates_slice0.csv", "volume_curve.csv",
        "convergence.csv", "sector_comparison.csv",
    ]
    for path in tables:
        data = path.read_bytes()
        assert data.count(b"\n") == data.count(b"\r\n") > 0, path.name


def test_cli_computes_and_writes_nothing_itself():
    # the CLI parses, dispatches and prints: it imports no numpy, opens or
    # writes no file (io does), and leaves localization to study
    tree = ast.parse(Path(cli.__file__).read_text())
    nodes = list(ast.walk(tree))
    modules = {alias.name for node in nodes if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.module}
    assert "numpy" not in {name.split(".")[0] for name in modules}
    called = {getattr(node.func, "attr", getattr(node.func, "id", ""))
              for node in nodes if isinstance(node, ast.Call)}
    assert not called & {"open", "write", "write_text", "write_bytes", "writelines"}
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not names & {"average_sector_summaries", "infarct_localization"}


def test_console_scripts_import_and_are_callable():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts
    for target in scripts.values():
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr)), target


def _hooked_inner(center, n=60):
    """A simple inner wall with a hook over angles -0.2..0.5 rad: the ray at
    angle 0 from the center crosses it three times, so it is not star-shaped."""
    path = [(22.0, t) for t in np.linspace(-0.2, 0.3, 6)]
    path += [(28.0, t) for t in np.linspace(0.3, -0.2, 6)]
    path += [(32.0, t) for t in np.linspace(-0.2, 0.5, 8)]
    path += [(22.0, t) for t in np.linspace(0.5, 2.0 * np.pi - 0.2, n)[:-1]]
    return [[center[0] + r * np.cos(t), center[1] + r * np.sin(t)] for r, t in path]


@pytest.mark.parametrize("command, flags", [
    ("solve", ["--frame", "2"]),
    ("strain", ["--frame", "1"]),
    ("analyze", []),
])
def test_every_frame_of_the_slice_is_checked(tmp_path, synth_pair, capsys, command, flags):
    # solve and strain run the slice's cycle analysis like analyze does, so a
    # later frame that is not star-shaped stops them too
    healthy_dir, _ = synth_pair
    data = json.loads((healthy_dir / "study.json").read_text())
    data["slices"][0]["frames"][4]["inner"] = _hooked_inner((128.0, 128.0))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(command, "--study", str(bad), *flags, "--out", str(tmp_path / "res")) == 1
    line = _single_error_line(capsys)
    assert line.startswith("error: frame 4: contour is not star-shaped"), line


def test_mesh_checks_star_shape(tmp_path, synth_pair, capsys):
    # mesh resamples the walls the way the cycle analysis does, star-shape check included
    healthy_dir, _ = synth_pair
    data = json.loads((healthy_dir / "study.json").read_text())
    data["slices"][0]["frames"][4]["inner"] = _hooked_inner((128.0, 128.0))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    out = tmp_path / "res"
    assert run("mesh", "--study", str(bad), "--frame", "4", "--out", str(out)) == 1
    line = _single_error_line(capsys)
    assert "contour is not star-shaped" in line and "(frame 4 inner)" in line, line
    assert not out.exists()
    assert run("mesh", "--study", str(bad), "--frame", "3", "--out", str(out)) == 0


def test_analyze_dense_contours(tmp_path, monkeypatch):
    # 2048-vertex walls through ingest, volumes, meshing, solves and export,
    # with every contour certified simple by the linear-time check
    import cardiofem.contours as contours
    import cardiofem.io as cfio
    from cardiofem.synth import mi_wedge_study

    exact_calls = []
    exact = contours._is_simple_exact
    monkeypatch.setattr(
        contours, "_is_simple_exact", lambda pts: exact_calls.append(len(pts)) or exact(pts)
    )
    study = mi_wedge_study(seed=5, n_points=2048, n_frames=6)
    cfio.write_study_csv(tmp_path / "dense.csv", study)
    cfio.write_manifest(tmp_path / "dense.json", study)
    out = tmp_path / "res"
    assert run("analyze", "--study", str(tmp_path / "dense.csv"),
               "--manifest", str(tmp_path / "dense.json"), "--out", str(out)) == 0
    assert len(list(out.glob("fields_slice0_frame*.vtk"))) == 5
    assert exact_calls == []
