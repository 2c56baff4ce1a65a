import csv
import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.io import mmread

import cardiofem.io as cfio
from cardiofem import ConfigurationError, RingSpec, healthy_study
from cardiofem.fem import DisplacementField, apply_dirichlet, assemble
from cardiofem.materials import Material, AngularRegion
from cardiofem.meshing import Mesh
from cardiofem.phantom import make_ring
from cardiofem.strain import strain_field, sector_average


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
    for sl_a, sl_b in zip(study.slices, back.slices):
        assert sl_a.spacing == sl_b.spacing
        for fa, fb in zip(sl_a.frames, sl_b.frames):
            # repr round trip preserves the exact float values
            assert np.array_equal(fa.inner.points, fb.inner.points)
            assert np.array_equal(fa.outer.points, fb.outer.points)


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
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in lines
    assert f"POINTS {mesh.n_nodes} double" in lines
    assert f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}" in lines
    assert f"CELL_TYPES {mesh.n_triangles}" in lines
    assert lines.count("5") >= mesh.n_triangles
    assert f"POINT_DATA {mesh.n_nodes}" in lines
    assert "VECTORS displacement double" in lines
    assert f"CELL_DATA {mesh.n_triangles}" in lines
    assert "SCALARS effective double 1" in lines


def _oracle_vtk_text(mesh, point_vectors=None, cell_scalars=None, title="cardiofem output"):
    """The writer's former per-value line builder: every number through
    repr(float(x)) while iterating numpy rows, the whole file rebuilt per call."""

    def fmt(x):
        return repr(float(x))

    lines = [
        "# vtk DataFile Version 3.0",
        title,
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
    return Mesh(nodes, mesh.triangles, mesh.boundary_edges, mesh.boundary_labels), mats


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
        # alternate meshes, so a memo that outlives its mesh shows
        ("fields_b", mesh_b, {"point_vectors": vec_b, "cell_scalars": sca_b}),
        ("fields_a_again", mesh_a, {"point_vectors": vec_a, "cell_scalars": sca_a}),
        ("geometry_b", mesh_b, {}),
        # same mesh, other titles: the title is part of the memoised block
        ("titled_a", mesh_a, {"point_vectors": vec_a, "title": "frame 7 of slice 2"}),
        ("untitled_a", mesh_a, {"point_vectors": vec_a}),
        ("empty_title_a", mesh_a, {"cell_scalars": sca_a, "title": ""}),
    ]
    for name, mesh, kwargs in cases:
        path = tmp_path / f"{name}.vtk"
        cfio.write_mesh_vtk(path, mesh, **kwargs)
        assert path.read_bytes() == _oracle_vtk_text(mesh, **kwargs), name


def test_vtk_geometry_follows_an_equal_but_distinct_mesh(tmp_path):
    mesh, _ = _perturbed_ring(5, 8, 1)
    moved = Mesh(mesh.nodes + 1.0, mesh.triangles, mesh.boundary_edges, mesh.boundary_labels)
    cfio.write_mesh_vtk(tmp_path / "a.vtk", mesh)
    cfio.write_mesh_vtk(tmp_path / "b.vtk", moved)
    assert (tmp_path / "b.vtk").read_bytes() == _oracle_vtk_text(moved)


def _export_jobs(tmp_path, n):
    mesh, _ = _perturbed_ring(6, 8, 1)
    return [(tmp_path / f"f{i}.vtk", mesh, *_fields(mesh, i)) for i in range(n)]


def test_field_vtk_export_when_fork_fails(tmp_path, monkeypatch):
    # a failing fork leaves its share to this process: every job is written once
    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(os, "fork", no_fork)
    jobs = _export_jobs(tmp_path, 5)
    with cfio.field_vtk_export(jobs):
        pass
    for path, mesh, vectors, scalars in jobs:
        assert path.read_bytes() == _oracle_vtk_text(mesh, vectors, scalars), path.name
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"f{i}.vtk" for i in range(5)]


def test_field_vtk_export_parent_writes_the_smallest_share(tmp_path, monkeypatch):
    # on two CPUs the child writes jobs 0, 2, 4 and this process jobs 1, 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    written = []
    write = cfio.write_mesh_vtk
    monkeypatch.setattr(
        cfio, "write_mesh_vtk", lambda path, *rest: written.append(path.name) or write(path, *rest)
    )
    jobs = _export_jobs(tmp_path, 5)
    with cfio.field_vtk_export(jobs):
        pass
    assert written == ["f1.vtk", "f3.vtk"]
    for path, mesh, vectors, scalars in jobs:
        assert path.read_bytes() == _oracle_vtk_text(mesh, vectors, scalars), path.name


def test_field_vtk_export_body_error_wins(tmp_path, monkeypatch):
    # a failed child does not hide the error of the block it ran beside
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    jobs = _export_jobs(tmp_path, 2)
    jobs[0][0].mkdir()  # the child's share on two CPUs
    with pytest.raises(KeyError, match="body"):
        with cfio.field_vtk_export(jobs):
            raise KeyError("body")
    with pytest.raises(OSError, match="Is a directory"):
        with cfio.field_vtk_export(jobs):
            pass
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_mesh_and_field_csv(tmp_path):
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 8, 1)
    cfio.write_mesh_csv(tmp_path / "nodes.csv", tmp_path / "elements.csv", mesh)
    nodes = (tmp_path / "nodes.csv").read_text().splitlines()
    elements = (tmp_path / "elements.csv").read_text().splitlines()
    assert len(nodes) == mesh.n_nodes + 1
    assert len(elements) == mesh.n_triangles + 1

    rng = np.random.default_rng(0)
    disp = DisplacementField(rng.normal(size=(mesh.n_nodes, 2)))
    cfio.write_displacement_csv(tmp_path / "disp.csv", mesh, disp)
    assert len((tmp_path / "disp.csv").read_text().splitlines()) == mesh.n_nodes + 1

    sf = strain_field(mesh, disp, mats.nu)
    cfio.write_strain_csv(tmp_path / "strain.csv", sf)
    assert len((tmp_path / "strain.csv").read_text().splitlines()) == mesh.n_triangles + 1

    summary = sector_average(mesh, sf, disp, (0.0, 0.0), 4)
    cfio.write_sector_csv(tmp_path / "sector.csv", [summary], [1])
    assert len((tmp_path / "sector.csv").read_text().splitlines()) == 5


def test_dump_system_matrix_market(tmp_path):
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 8, 1)
    system = assemble(mesh, mats)
    constrained = apply_dirichlet(system, [0, 1], [0.01, 0.0])
    cfio.dump_system(tmp_path / "sys", constrained)
    k = mmread(tmp_path / "sys_K.mtx").toarray()
    f = np.asarray(mmread(tmp_path / "sys_F.mtx")).ravel()
    assert_allclose(k, constrained.stiffness.toarray(), rtol=1e-15)
    assert_allclose(f, constrained.load, rtol=1e-15)


def test_phantom_spec_round_trip(tmp_path):
    spec = RingSpec(
        1.0, 2.0, material=Material(2e4, 0.25),
        regions=(AngularRegion(45.0, 135.0, Material(2e5, 0.25)),),
        pressures=(0.0, 0.5, 1.0),
    )
    path = tmp_path / "phantom.json"
    cfio.write_phantom_spec(path, spec)
    back = cfio.read_phantom_spec(path)
    assert back.inner_radius == spec.inner_radius
    assert back.material == spec.material
    assert back.regions == spec.regions
    assert back.pressures == spec.pressures


def test_localization_json(tmp_path):
    from cardiofem.study import LocalizationResult

    result = LocalizationResult(
        flags=("normal", "suspected-infarct"),
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
