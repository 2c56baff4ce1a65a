import ast
import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.io import mmread, mmwrite

import cardiofem.io as cfio
from cardiofem import (
    ConfigurationError, CycleParams, GeometryError, RingSpec, cycle_strain_analysis,
    healthy_study, normalized_volume_curve, verify_ring,
)
from cardiofem.fem import DisplacementField, LinearSystem, apply_dirichlet, assemble
from cardiofem.materials import Material
from cardiofem.meshing import Mesh
from cardiofem.phantom import RingVerification, make_ring
from cardiofem.strain import strain_field, sector_average
from cardiofem.study import FrameResult, Study

from conftest import boundary_dirichlet
from oracles import (cli_ring_tables, cli_strain_aggregates, csr_stiffness,
                     dictreader_read_study_csv, identity_row_system, nodal_dirichlet)


@pytest.fixture
def study():
    return healthy_study(seed=3, n_frames=4, n_points=24)


def test_csv_round_trip(tmp_path, study):
    csv_path = tmp_path / "contours.csv"
    manifest = tmp_path / "manifest.json"
    cfio.write_study_csv(csv_path, study)
    cfio.write_manifest(manifest, study)
    back = cfio.read_study_csv(csv_path, manifest)
    assert back.subject_id == study.subject_id
    assert back.n_frames == study.n_frames
    assert back.spacing == study.spacing
    for sl_a, sl_b in zip(study.slices, back.slices):
        for fa, fb in zip(sl_a.frames, sl_b.frames):
            # repr round trip preserves the exact float values
            assert np.array_equal(fa.inner.points, fb.inner.points)
            assert np.array_equal(fa.outer.points, fb.outer.points)


def test_csv_round_trip_keeps_a_padded_subject_id(tmp_path, study):
    # the rows and the manifest spell the id alike, whitespace and all
    padded = Study(" padded id ", study.slices, study.spacing)
    csv_path, manifest = tmp_path / "contours.csv", tmp_path / "manifest.json"
    cfio.write_study_csv(csv_path, padded)
    cfio.write_manifest(manifest, padded)
    assert cfio.read_study_csv(csv_path, manifest).subject_id == " padded id "


def test_two_slice_study_round_trips_in_both_formats(tmp_path):
    # a study's one spacing is written once, in both formats, and scales
    # every slice's volume
    made = healthy_study(seed=4, n_frames=5, n_points=20, n_slices=2)
    made = Study(made.subject_id, made.slices, 4.5)
    cfio.write_study_csv(tmp_path / "contours.csv", made)
    cfio.write_manifest(tmp_path / "manifest.json", made)
    cfio.write_study_json(tmp_path / "study.json", made)
    curve = normalized_volume_curve(made)
    for back in (cfio.read_study(tmp_path / "contours.csv", tmp_path / "manifest.json"),
                 cfio.read_study(tmp_path / "study.json")):
        assert back.spacing == 4.5
        assert len(back.slices) == 2
        back_curve = normalized_volume_curve(back)
        assert np.array_equal(back_curve.raw, curve.raw)
        assert np.array_equal(back_curve.normalized, curve.normalized)


def test_csv_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cfio.write_study_csv(a, healthy_study(seed=42, n_frames=3, n_points=16))
    cfio.write_study_csv(b, healthy_study(seed=42, n_frames=3, n_points=16))
    assert a.read_bytes() == b.read_bytes()


def test_csv_accepts_shuffled_rows(tmp_path, study):
    csv_path = tmp_path / "contours.csv"
    manifest = tmp_path / "manifest.json"
    cfio.write_study_csv(csv_path, study)
    cfio.write_manifest(manifest, study)
    with csv_path.open() as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    rng = np.random.default_rng(1)
    body = [body[i] for i in rng.permutation(len(body))]
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(body)
    back = cfio.read_study_csv(csv_path, manifest)
    assert np.array_equal(
        back.slices[0].frames[1].inner.points, study.slices[0].frames[1].inner.points
    )


def _rewrite_csv(path, edit, lineterminator="\r\n"):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator=lineterminator).writerows(edit(rows))


def _contents(study):
    return (study.subject_id, study.spacing, [
        (sl.index, fc.frame_index, fc.inner.points.tolist(), fc.outer.points.tolist())
        for sl in study.slices for fc in sl.frames])


def _shuffle_columns(rows):
    order = [3, 6, 0, 5, 1, 4, 2]
    return [[row[i] for i in order] for row in rows]


def _extra_column(rows):
    return [[*row[:2], "note" if k == 0 else f"n{k}", *row[2:]] for k, row in enumerate(rows)]


def _blank_lines(rows):
    return [rows[0], [], [], *(r for row in rows[1:] for r in (row, []))]


@pytest.mark.parametrize("edit, lineterminator", [
    (list, "\r\n"), (list, "\n"), (_shuffle_columns, "\r\n"), (_extra_column, "\n"),
    (_blank_lines, "\r\n"), (_blank_lines, "\n"),
], ids=["crlf", "lf", "shuffled-columns", "extra-column", "blank-lines-crlf", "blank-lines-lf"])
def test_csv_reader_gives_the_dictreader_study(tmp_path, study, edit, lineterminator):
    csv_path, manifest = tmp_path / "contours.csv", tmp_path / "manifest.json"
    cfio.write_study_csv(csv_path, study)
    cfio.write_manifest(manifest, study)
    _rewrite_csv(csv_path, edit, lineterminator)
    back, want = cfio.read_study_csv(csv_path, manifest), dictreader_read_study_csv(csv_path,
                                                                                    manifest)
    assert _contents(back) == _contents(want) == _contents(study)


def test_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("subject_id,slice,frame,x,y\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"subject_id": "x", "slice_spacing_mm": 8.0, "frames_per_cycle": 1})
    )
    with pytest.raises(ConfigurationError):
        cfio.read_study_csv(path, manifest)


def test_csv_bad_boundary_label(tmp_path, study):
    csv_path = tmp_path / "contours.csv"
    manifest = tmp_path / "manifest.json"
    cfio.write_study_csv(csv_path, study)
    cfio.write_manifest(manifest, study)
    text = csv_path.read_text().replace("inner", "endo")
    csv_path.write_text(text)
    with pytest.raises(ConfigurationError):
        cfio.read_study_csv(csv_path, manifest)


def test_manifest_frame_count_mismatch(tmp_path, study):
    csv_path = tmp_path / "contours.csv"
    manifest = tmp_path / "manifest.json"
    cfio.write_study_csv(csv_path, study)
    payload = {"subject_id": study.subject_id, "slice_spacing_mm": 8.0,
               "frames_per_cycle": 99}
    manifest.write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError):
        cfio.read_study_csv(csv_path, manifest)


@pytest.mark.parametrize("value, needle", [
    (99, "declares 99 frames per cycle, contour file has"),
    (None, "missing 'frames_per_cycle'"),
    ("6", "'frames_per_cycle' must be int"),
    (6.0, "'frames_per_cycle' must be int"),
    (True, "'frames_per_cycle' must be int"),
])
def test_study_json_frame_count_checked(tmp_path, study, value, needle):
    # frames_per_cycle is a required int equal to the frames read, as in a manifest
    path = tmp_path / "study.json"
    cfio.write_study_json(path, study)
    data = json.loads(path.read_text())
    assert data["frames_per_cycle"] == study.n_frames
    if value is None:
        del data["frames_per_cycle"]
    else:
        data["frames_per_cycle"] = value
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigurationError, match=needle):
        cfio.read_study_json(path)


def _write_twins(tmp_path, data):
    """``data``, a study in JSON shape, written as a study JSON and as a
    contour CSV with its manifest: (csv, manifest, json) paths."""
    json_path, csv_path, manifest = (tmp_path / n for n in ("twin.json", "twin.csv", "man.json"))
    json_path.write_text(json.dumps(data))
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cfio.CONTOUR_CSV_COLUMNS)
        for sl in data["slices"]:
            for fr in sl["frames"]:
                for boundary in ("inner", "outer"):
                    writer.writerows(
                        [data["subject_id"], sl["slice"], fr["frame"], boundary, i, x, y]
                        for i, (x, y) in enumerate(fr.get(boundary, []))
                    )
    manifest.write_text(json.dumps(
        {k: data[k] for k in ("subject_id", "slice_spacing_mm", "frames_per_cycle")}
    ))
    return csv_path, manifest, json_path


def _frame(data, k):
    return data["slices"][0]["frames"][k]


@pytest.mark.parametrize("edit, needle", [
    (lambda d: _frame(d, 2).pop("outer"), "frame 2: needs both inner and outer contours"),
    (lambda d: _frame(d, 1).update(inner=[[0, 0], [1, 1], [1, 0], [0, 1]]),
     "frame 1 inner: contour is self-intersecting"),
    (lambda d: _frame(d, 3).update(outer=[[50, 0], [0, 50]]), "contour needs at least 3 points"),
    (lambda d: d.update(frames_per_cycle=99), "declares 99 frames per cycle, contour file has 4"),
], ids=["missing-wall", "self-intersecting-wall", "two-point-wall", "frame-count"])
def test_csv_and_json_readers_share_their_checks(tmp_path, study, edit, needle):
    # both readers build the study through one path, so a defect reads the same
    cfio.write_study_json(tmp_path / "study.json", study)
    data = json.loads((tmp_path / "study.json").read_text())
    edit(data)
    csv_path, manifest, json_path = _write_twins(tmp_path, data)
    errors = []
    for read, path in ((lambda: cfio.read_study_csv(csv_path, manifest), csv_path),
                       (lambda: cfio.read_study_json(json_path), json_path)):
        with pytest.raises((ConfigurationError, GeometryError), match=needle) as info:
            read()
        errors.append((type(info.value), str(info.value).replace(str(path), "<path>")))
    (csv_type, csv_text), (json_type, json_text) = errors
    assert csv_type is json_type
    # the frame count is declared by the manifest or by the study JSON itself
    assert csv_text.replace("manifest declares", "study JSON <path> declares") == json_text


def _scale_inner(data, k, factor):
    fr = _frame(data, k)
    fr["inner"] = [[factor * x, factor * y] for x, y in fr["inner"]]


@pytest.mark.parametrize("edit, error, text", [
    (lambda d: _scale_inner(d, 1, 10.0), GeometryError,
     "slice 0 frame 1: inner contour must lie strictly inside the outer contour"),
    (lambda d: _frame(d, 2).update(frame=7), ConfigurationError,
     "slice 0: frame indices must be contiguous from 0, found 3 at position 2"),
], ids=["inner-outside-outer", "frame-gap"])
def test_frame_and_slice_errors_name_their_file(tmp_path, study, edit, error, text):
    cfio.write_study_json(tmp_path / "study.json", study)
    data = json.loads((tmp_path / "study.json").read_text())
    edit(data)
    csv_path, manifest, json_path = _write_twins(tmp_path, data)
    for read, path in ((lambda: cfio.read_study_csv(csv_path, manifest), csv_path),
                       (lambda: cfio.read_study_json(json_path), json_path)):
        with pytest.raises(error) as info:
            read()
        assert str(info.value) == f"{path} {text}"


def test_json_and_csv_forms_read_slices_in_index_order(tmp_path):
    # analyze pairs subject and reference slices by position, so both forms
    # of one study must list its slices in one order
    study = healthy_study(seed=3, n_frames=3, n_points=24, n_slices=2)
    cfio.write_study_json(tmp_path / "study.json", study)
    data = json.loads((tmp_path / "study.json").read_text())
    data["slices"].reverse()
    csv_path, manifest, json_path = _write_twins(tmp_path, data)
    for back in (cfio.read_study_csv(csv_path, manifest), cfio.read_study_json(json_path)):
        assert [sl.index for sl in back.slices] == [0, 1]
        for sl, expected in zip(back.slices, study.slices):
            for fc, fe in zip(sl.frames, expected.frames):
                assert np.array_equal(fc.inner.points, fe.inner.points)
                assert np.array_equal(fc.outer.points, fe.outer.points)


def test_repeated_slice_index_is_rejected(tmp_path, study):
    path = tmp_path / "study.json"
    cfio.write_study_json(path, study)
    data = json.loads(path.read_text())
    data["slices"].append(data["slices"][0])
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigurationError) as info:
        cfio.read_study_json(path)
    assert str(info.value) == f"{path}: slice indices must be distinct, got [0, 0]"


@pytest.mark.parametrize("fmt", ["study JSON", "CSV"])
def test_unequal_frame_counts_name_the_file(tmp_path, fmt):
    # slice 1 one frame short of slice 0: the error names the contour file
    two = healthy_study(seed=3, n_frames=4, n_points=24, n_slices=2)
    if fmt == "study JSON":
        path = tmp_path / "study.json"
        cfio.write_study_json(path, two)
        data = json.loads(path.read_text())
        data["slices"][1]["frames"].pop()
        path.write_text(json.dumps(data))
        args = (path,)
    else:
        path, manifest = tmp_path / "contours.csv", tmp_path / "manifest.json"
        cfio.write_study_csv(path, two)
        cfio.write_manifest(manifest, two)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines if ",1,3," not in line))
        args = (path, manifest)
    with pytest.raises(ConfigurationError) as info:
        cfio.read_study(*args)
    assert str(info.value) == f"{path}: inconsistent frame counts across slices: {{3, 4}}"


def test_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        cfio.read_study_csv(tmp_path / "none.csv", tmp_path / "none.json")
    with pytest.raises(FileNotFoundError):
        cfio.read_manifest(tmp_path / "none.json")
    with pytest.raises(FileNotFoundError):
        cfio.read_study(tmp_path / "x.csv", None)


@pytest.mark.parametrize("missing", ["inner", "outer"])
def test_json_frame_without_contour(tmp_path, study, missing):
    path = tmp_path / "study.json"
    cfio.write_study_json(path, study)
    data = json.loads(path.read_text())
    del data["slices"][0]["frames"][2][missing]
    path.write_text(json.dumps(data))
    with pytest.raises(
        ConfigurationError, match=r"slice 0 frame 2: needs both inner and outer contours"
    ):
        cfio.read_study_json(path)


def test_json_round_trip(tmp_path, study):
    path = tmp_path / "study.json"
    cfio.write_study_json(path, study)
    back = cfio.read_study_json(path)
    assert back.subject_id == study.subject_id
    assert_allclose(
        back.slices[0].frames[2].outer.points, study.slices[0].frames[2].outer.points
    )
    dispatched = cfio.read_study(path)
    assert dispatched.n_frames == study.n_frames


def test_vtk_export_structure(tmp_path):
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 8, 1)
    disp = DisplacementField(np.zeros((mesh.n_nodes, 2)))
    sf = strain_field(mesh, disp, mats.nu)
    path = tmp_path / "out.vtk"
    cfio.write_mesh_vtk(
        path, mesh,
        point_vectors={"displacement": disp.values},
        cell_scalars={"effective": sf.effective},
    )
    data = path.read_bytes()
    assert data.startswith(b"# vtk DataFile Version 3.0\ncardiofem output\nBINARY\n"
                           b"DATASET UNSTRUCTURED_GRID\n")
    fmt, sections = _vtk_sections(data)
    assert fmt == "BINARY"
    assert [keywords for keywords, _ in sections] == [
        "# vtk DataFile Version 3.0", "cardiofem output", "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_nodes} double",
        f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}",
        f"CELL_TYPES {mesh.n_triangles}",
        f"POINT_DATA {mesh.n_nodes}", "VECTORS displacement double",
        f"CELL_DATA {mesh.n_triangles}", "SCALARS effective double 1\nLOOKUP_TABLE default",
    ]
    arrays = dict(sections)
    points = np.frombuffer(arrays[f"POINTS {mesh.n_nodes} double"], ">f8").reshape(-1, 3)
    assert np.array_equal(points[:, :2], mesh.nodes) and not points[:, 2].any()
    cells = np.frombuffer(arrays[f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}"], ">i4")
    expected = np.column_stack([np.full(mesh.n_triangles, 3), mesh.triangles])
    assert np.array_equal(cells.reshape(-1, 4), expected)
    assert np.all(np.frombuffer(arrays[f"CELL_TYPES {mesh.n_triangles}"], ">i4") == 5)


# each keyword that data follow: the data type, the values per item and the
# argument that counts the items (None: the POINT_DATA or CELL_DATA count)
_VTK_DATA = {"POINTS": (">f8", 3, 0), "CELLS": (">i4", 1, 1), "CELL_TYPES": (">i4", 1, 0),
             "VECTORS": (">f8", 3, None), "SCALARS": (">f8", 1, None)}


def _vtk_sections(data: bytes):
    """The format line (ASCII or BINARY) of a legacy VTK file and its other
    keyword lines in file order, each with the bytes of the ``>f8`` or
    ``>i4`` array that follows it (None for a line no data follow). Binary
    data are read with ``np.frombuffer``, ASCII text value by value; the whole
    file must be read."""
    pos = 0

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        text, pos = data[pos:end].decode(), end + 1
        return text

    header = [line() for _ in range(4)]
    fmt = header.pop(2)
    sections, n_data = [(text, None) for text in header], 0
    while pos < len(data):
        keywords = line()
        key, *args = keywords.split()
        if key in ("POINT_DATA", "CELL_DATA"):
            n_data = int(args[0])
            sections.append((keywords, None))
            continue
        dtype, width, at = _VTK_DATA[key]
        n = width * (n_data if at is None else int(args[at]))
        if key == "SCALARS":
            keywords += "\n" + line()  # its LOOKUP_TABLE line
        if fmt == "BINARY":
            nbytes = n * np.dtype(dtype).itemsize
            values = np.frombuffer(data[pos:pos + nbytes], dtype)
            assert len(values) == n and data[pos + nbytes:pos + nbytes + 1] == b"\n", keywords
            pos += nbytes + 1
        else:
            text = []
            while len(text) < n:
                text += line().split()
            assert len(text) == n, keywords
            parse = float if dtype == ">f8" else int
            values = np.array([parse(t) for t in text], dtype)
        sections.append((keywords, values.tobytes()))
    return fmt, sections


def _oracle_vtk_text(mesh, point_vectors=None, cell_scalars=None):
    """The former ASCII VTK writer as a per-value line builder: every number
    through repr(float(x)) while iterating numpy rows."""

    def fmt(x):
        return repr(float(x))

    lines = [
        "# vtk DataFile Version 3.0",
        "cardiofem output",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_nodes} double",
    ]
    lines += [f"{fmt(x)} {fmt(y)} 0.0" for x, y in mesh.nodes]
    lines.append(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    lines.append(f"CELL_TYPES {mesh.n_triangles}")
    lines += ["5"] * mesh.n_triangles
    if point_vectors:
        lines.append(f"POINT_DATA {mesh.n_nodes}")
        for name, vec in point_vectors.items():
            lines.append(f"VECTORS {name} double")
            lines += [f"{fmt(u)} {fmt(v)} 0.0" for u, v in np.asarray(vec)]
    if cell_scalars:
        lines.append(f"CELL_DATA {mesh.n_triangles}")
        for name, arr in cell_scalars.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines += [fmt(v) for v in np.asarray(arr)]
    return ("\n".join(lines) + "\n").encode()


def _perturbed_ring(seed, n_angular, n_radial):
    """A ring mesh whose node coordinates use all 17 significant digits."""
    mesh, mats = make_ring(RingSpec(1.0, 2.0), n_angular, n_radial)
    rng = np.random.default_rng(seed)
    nodes = mesh.nodes * (1.0 + rng.uniform(-1e-3, 1e-3, mesh.nodes.shape))
    return Mesh(nodes, mesh.triangles, mesh.inner_edges, mesh.outer_edges), mats


def _fields(mesh, seed):
    rng = np.random.default_rng(seed)
    disp = rng.normal(size=(mesh.n_nodes, 2)) * 10.0 ** rng.integers(-8, 8, (mesh.n_nodes, 2))
    disp[0] = (-0.0, 0.0)
    disp[1] = (1e-300, -1e300)
    eff = np.abs(rng.normal(size=mesh.n_triangles))
    return (
        {"displacement": disp, "integer_valued": np.arange(2 * mesh.n_nodes).reshape(-1, 2)},
        {"eps_x": rng.normal(size=mesh.n_triangles), "effective": eff,
         "region": np.arange(mesh.n_triangles)},
    )


def test_vtk_matches_per_value_oracle(tmp_path):
    mesh_a, _ = _perturbed_ring(1, 12, 2)
    mesh_b, _ = _perturbed_ring(2, 16, 3)
    vec_a, sca_a = _fields(mesh_a, 3)
    vec_b, sca_b = _fields(mesh_b, 4)
    cases = [
        ("fields_a", mesh_a, {"point_vectors": vec_a, "cell_scalars": sca_a}),
        ("geometry_a", mesh_a, {}),
        ("points_only_a", mesh_a, {"point_vectors": vec_a}),
        ("cells_only_a", mesh_a, {"cell_scalars": sca_a}),
        ("fields_b", mesh_b, {"point_vectors": vec_b, "cell_scalars": sca_b}),
        ("fields_a_again", mesh_a, {"point_vectors": vec_a, "cell_scalars": sca_a}),
        ("geometry_b", mesh_b, {}),
    ]
    for name, mesh, kwargs in cases:
        # every keyword line and every array of the binary file is the
        # ASCII oracle's, each double and integer bitwise
        path = tmp_path / f"{name}.vtk"
        cfio.write_mesh_vtk(path, mesh, **kwargs)
        fmt, sections = _vtk_sections(path.read_bytes())
        oracle_fmt, oracle_sections = _vtk_sections(_oracle_vtk_text(mesh, **kwargs))
        assert (fmt, oracle_fmt) == ("BINARY", "ASCII")
        assert sections == oracle_sections, name


def _csv_oracle(header, rows) -> bytes:
    """A CSV table formatted value by value: ints and text as ``str``, floats
    as ``repr``, comma separated, every line ended by CRLF."""
    lines = [",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
             for row in [header, *rows]]
    return "".join(line + "\r\n" for line in lines).encode()


def test_mesh_and_field_csv(tmp_path, study):
    # every CSV writer of io against the value-by-value oracle
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 8, 1)
    rng = np.random.default_rng(0)
    disp = DisplacementField(rng.normal(size=(mesh.n_nodes, 2)))
    sf = strain_field(mesh, disp, mats.nu)
    summaries = [sector_average(mesh, sf, disp, (0.0, 0.0), 4),
                 sector_average(mesh, sf, disp, (0.1, -0.2), 4)]
    curve = normalized_volume_curve(study)
    nodes, tris = mesh.nodes, mesh.triangles
    results = cycle_strain_analysis(study, CycleParams(n_points=16, n_radial=2))
    spec = RingSpec(1.0, 2.5)
    report = RingVerification(((8, 1), (16, 2), (32, 4)), (0.03, 0.008, 0.0), (1.9, math.inf),
                              summaries[0], summaries[1], np.array([False, True, True, False]),
                              ())

    cfio.write_study_csv(tmp_path / "study.csv", study)
    cfio.write_mesh_csv(tmp_path / "nodes.csv", tmp_path / "elements.csv", mesh)
    cfio.write_displacement_csv(tmp_path / "disp.csv", mesh, disp)
    cfio.write_strain_csv(tmp_path / "strain.csv", sf)
    cfio.write_sector_csv(tmp_path / "sector.csv", [
        FrameResult(frame, disp, sf, sm, results[0].model) for frame, sm in zip([1, 3], summaries)])
    cfio.write_volume_csv(tmp_path / "volume.csv", curve)
    cfio.write_strain_aggregates_csv(tmp_path / "aggregates.csv", results)
    assert cfio.write_ring_verification(tmp_path, spec, report) == (
        tmp_path / "convergence.csv", tmp_path / "sector_comparison.csv")
    t, p = report.traction, report.pipeline
    expected = {
        "study.csv": _csv_oracle(cfio.CONTOUR_CSV_COLUMNS, [
            [study.subject_id, sl.index, fc.frame_index, label, i,
             float(wall.points[i, 0]), float(wall.points[i, 1])]
            for sl in study.slices for fc in sl.frames
            for label, wall in (("inner", fc.inner), ("outer", fc.outer))
            for i in range(len(wall))
        ]),
        "nodes.csv": _csv_oracle(["node_id", "x", "y"], [
            [i, float(nodes[i, 0]), float(nodes[i, 1])] for i in range(mesh.n_nodes)
        ]),
        "elements.csv": _csv_oracle(["element_id", "n0", "n1", "n2"], [
            [i, *(int(n) for n in tris[i])] for i in range(mesh.n_triangles)
        ]),
        "disp.csv": _csv_oracle(["node_id", "x", "y", "u", "v"], [
            [i, float(nodes[i, 0]), float(nodes[i, 1]),
             float(disp.values[i, 0]), float(disp.values[i, 1])] for i in range(mesh.n_nodes)
        ]),
        "strain.csv": _csv_oracle(["element_id", "eps_x", "eps_y", "gamma_xy", "effective"], [
            [i, float(sf.eps_x[i]), float(sf.eps_y[i]), float(sf.gamma_xy[i]),
             float(sf.effective[i])] for i in range(mesh.n_triangles)
        ]),
        "sector.csv": _csv_oracle(
            ["frame", "sector", "mean_displacement", "mean_effective", "count"], [
                [frame, k, float(sm.mean_displacement[k]), float(sm.mean_effective[k]),
                 int(sm.counts[k])]
                for frame, sm in zip([1, 3], summaries) for k in range(4)
            ]),
        "volume.csv": _csv_oracle(["frame", "volume", "normalized"], [
            [k, float(curve.raw[k]), float(curve.normalized[k])] for k in range(study.n_frames)
        ]),
        "aggregates.csv": _csv_oracle(["frame", "mean_effective", "max_effective"], [
            [r.frame_index, float(np.mean(r.strain.effective)), float(np.max(r.strain.effective))]
            for r in results
        ]),
        # h = (2.5 - 1.0) / n_radial; the first row has no observed order
        "convergence.csv": _csv_oracle(
            ["n_angular", "n_radial", "h", "l2_error", "observed_order"],
            [[8, 1, 1.5, 0.03, ""], [16, 2, 0.75, 0.008, 1.9], [32, 4, 0.375, 0.0, math.inf]]),
        "sector_comparison.csv": _csv_oracle(
            ["sector", "mean_disp_traction", "mean_disp_pipeline", "mean_effective_traction",
             "mean_effective_pipeline", "stiff"],
            [[k, float(t.mean_displacement[k]), float(p.mean_displacement[k]),
              float(t.mean_effective[k]), float(p.mean_effective[k]), int(k in (1, 2))]
             for k in range(4)]),
    }
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text, name


def _cells(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def test_tables_are_the_former_cli_tables(tmp_path, study):
    # the former CLI writers ended lines with LF; io's end them with CRLF
    # and hold the same cells
    spec = RingSpec(1.0, 2.5, material=Material(2e4, 0.25))
    report = verify_ring(spec, 16, 2, 4)
    results = cycle_strain_analysis(study, CycleParams(n_points=16, n_radial=2))
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir()
    old.mkdir()
    cfio.write_ring_verification(new, spec, report)
    cfio.write_strain_aggregates_csv(new / "aggregates.csv", results)
    cli_ring_tables(old, spec, report)
    cli_strain_aggregates(old / "aggregates.csv", results)
    for name in ("convergence.csv", "sector_comparison.csv", "aggregates.csv"):
        assert _cells(new / name) == _cells(old / name), name
        assert b"\r" not in (old / name).read_bytes()
        assert (new / name).read_bytes().replace(b"\r\n", b"\n") == (old / name).read_bytes()


def test_dump_system_matrix_market(tmp_path):
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 8, 1)
    system = assemble(mesh, mats)
    constrained = apply_dirichlet(system, [0, 1], [0.01, 0.0])
    cfio.dump_system(tmp_path / "sys", constrained)
    k = mmread(tmp_path / "sys_K.mtx").toarray()
    f = np.asarray(mmread(tmp_path / "sys_F.mtx")).ravel()
    assert_allclose(k, constrained.stiffness.tocsr().toarray(), rtol=1e-15)
    assert_allclose(f, constrained.load, rtol=1e-15)


def test_dump_system_matches_the_scipy_path(tmp_path):
    # K and F as dumped when scipy assembled K and eliminated the fixed dofs:
    # the same entries in the same order, with values equal up to the order
    # in which scipy summed each entry's element contributions
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 32, 4)
    system = assemble(mesh, mats, "plane-strain")
    rng = np.random.default_rng(0)
    fixed, values = boundary_dirichlet(mesh, rng.normal(scale=0.01, size=(mesh.n_nodes, 2)))
    cfio.dump_system(tmp_path / "got", apply_dirichlet(system, fixed, values))
    parent = LinearSystem(csr_stiffness(mesh, mats, "plane-strain"), system.load, system.node_order)
    expected = identity_row_system(parent, nodal_dirichlet(fixed, values))[0]
    mmwrite(tmp_path / "want_K.mtx", expected.stiffness)
    mmwrite(tmp_path / "want_F.mtx", expected.load.reshape(-1, 1))
    got, want = mmread(tmp_path / "got_K.mtx"), mmread(tmp_path / "want_K.mtx")
    assert np.array_equal(got.row, want.row) and np.array_equal(got.col, want.col)
    assert np.max(np.abs(got.data - want.data)) <= 1e-15 * np.max(np.abs(want.data))
    got, want = (np.asarray(mmread(tmp_path / f"{name}_F.mtx")) for name in ("got", "want"))
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_phantom_spec_round_trip(tmp_path):
    spec = RingSpec(1.0, 2.0, center=(0.5, -1.5), material=Material(2e4, 0.25))
    path = tmp_path / "phantom.json"
    cfio.write_phantom_spec(path, spec)
    assert list(json.loads(path.read_text())) == [
        "inner_radius", "outer_radius", "center", "material",
    ]
    back = cfio.read_phantom_spec(path)
    assert back.inner_radius == spec.inner_radius
    assert back.center == spec.center
    assert back.material == spec.material


@pytest.mark.parametrize("material", [{"E": 1e4, "Nu": 0.45}, {"e": 2e4}])
def test_phantom_spec_rejects_unknown_material_keys(tmp_path, material):
    # a misspelt key would otherwise fall back to the default silently
    path = tmp_path / "phantom.json"
    path.write_text(json.dumps({"inner_radius": 1, "outer_radius": 2, "material": material}))
    name = next(key for key in material if key not in ("E", "nu"))
    with pytest.raises(ConfigurationError, match=rf"material: unknown key '{name}'$"):
        cfio.read_phantom_spec(path)


def test_localization_json(tmp_path):
    from cardiofem.study import LocalizationResult

    result = LocalizationResult(
        subject_strain=np.array([[1.0, 0.1]]),
        reference_strain=np.array([[1.0, 1.0]]),
        tau=0.5,
    )
    path = tmp_path / "loc.json"
    cfio.write_localization_json(path, result)
    data = json.loads(path.read_text())
    assert data["flags"] == ["normal", "suspected-infarct"]
    assert data["suspected_sectors"] == [1]
    assert data["tau"] == 0.5


def _binary_mode(value) -> bool:
    return (isinstance(value, ast.Constant) and isinstance(value.value, str)
            and "b" in value.value and set(value.value) <= set("rwxabt+"))


def test_every_text_file_is_opened_as_utf8():
    # a file the package writes reads back on any locale: every open,
    # read_text and write_text call in src/ names an encoding or opens binary
    unnamed = []
    for path in sorted(Path(cfio.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            keywords = {k.arg: k.value for k in node.keywords}
            binary = name == "open" and any(map(_binary_mode, [*node.args, *keywords.values()]))
            unnamed_text = name in ("open", "read_text", "write_text") and "encoding" not in keywords
            if unnamed_text and not binary:
                unnamed.append(f"{path.name}:{node.lineno}")
    assert unnamed == [], f"text opened in the locale's encoding: {unnamed}"
