"""File formats: contour CSV/JSON studies, manifests, VTK and CSV exports.

Contour CSV schema (header required, rows may be unordered):

    subject_id,slice,frame,boundary,point_index,x,y

with boundary in {inner, outer}. A study additionally needs a manifest JSON
carrying subject_id, slice_spacing_mm (the study's one slice spacing, finite
and > 0) and frames_per_cycle; a self-contained JSON study nests the same
fields. :func:`read_json` reads each JSON input; every non-VTK file is UTF-8.

Field exports use legacy binary VTK (unstructured grid, triangle cells,
:func:`write_mesh_vtk`) plus plain CSV tables. The VTK data are big-endian
``>f8`` doubles and ``>i4`` integers, so every double reads back bitwise.
Every CSV table goes through one writer, :func:`_write_csv`, with CRLF line
ends, and writes a float as its ``repr``, the shortest text that reads back.
"""

from __future__ import annotations

import csv
import json
import operator
from pathlib import Path

import numpy as np

from .contours import Contour, FrameContours, is_simple_polygon
from .errors import ConfigurationError, GeometryError, UsageError
from .fem import DisplacementField, LinearSystem
from .materials import Material
from .meshing import Mesh
from .phantom import RingSpec, RingVerification
from .strain import StrainField
from .study import (FrameResult, LocalizationResult, Slice, Study, VolumeCurve,
                    check_finite_positive)

CONTOUR_CSV_COLUMNS = ("subject_id", "slice", "frame", "boundary", "point_index", "x", "y")


# ---------------------------------------------------------------------------
# study ingest / emit


def _write_csv(path, header, rows) -> None:
    """A CSV table of the ``header`` row and then ``rows``; the ``csv`` module
    ends lines with CRLF and writes a float as its ``repr``."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_study_csv(path, study: Study) -> None:
    _write_csv(path, CONTOUR_CSV_COLUMNS, (
        [study.subject_id, sl.index, fc.frame_index, boundary, i, x, y]
        for sl in study.slices for fc in sl.frames
        for boundary, contour in (("inner", fc.inner), ("outer", fc.outer))
        for i, (x, y) in enumerate(contour.points.tolist())
    ))


def _study_header(study: Study) -> dict:
    """The keys a manifest and a study JSON share, in their file order."""
    return {"subject_id": study.subject_id, "slice_spacing_mm": study.spacing,
            "frames_per_cycle": study.n_frames}


def write_manifest(path, study: Study) -> None:
    Path(path).write_text(json.dumps(_study_header(study), indent=2) + "\n", encoding="utf-8")


def read_json(path, what: str):
    """The JSON value in the UTF-8 file ``path``, a ``what``: FileNotFoundError if it is
    missing, UsageError naming it if it is not UTF-8, not JSON or nested too deep."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{what} {path}: {exc}") from None


def read_manifest(path) -> dict:
    """A manifest JSON object with ``subject_id``, a number
    ``slice_spacing_mm`` and an integer ``frames_per_cycle``."""
    data = read_json(path, "manifest")
    where = f"manifest {Path(path)}"
    _json_field(data, "subject_id", str, where)
    _json_field(data, "slice_spacing_mm", _NUMBER, where)
    _json_field(data, "frames_per_cycle", int, where)
    return data


def read_study_csv(csv_path, manifest_path, borrowed_manifest=False) -> Study:
    """Ingest and validate a study from the CSV + manifest pair.

    The rows are grouped into the study-JSON shape and built by the same
    checks as :func:`read_study_json`. The header, the row fields (each within
    ``csv``'s size limit), boundary labels, ``point_index`` runs and subjects
    (the manifest's, or with a ``borrowed_manifest`` the first row's) are
    checked here, a row's error naming its line; non-UTF-8 text is a UsageError.
    """
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise FileNotFoundError(f"contour file not found: {csv_path}")
    manifest = read_manifest(manifest_path)
    subject_id = None if borrowed_manifest else manifest["subject_id"].strip()
    owner = "the first row's" if borrowed_manifest else "the manifest's"

    grouped: dict[tuple[int, int], dict[str, list]] = {}
    try:
        with csv_path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if not set(CONTOUR_CSV_COLUMNS) <= set(header):
                raise ConfigurationError(
                    f"{csv_path}: header must contain columns {CONTOUR_CSV_COLUMNS}")
            fields = operator.itemgetter(*map(header.index, CONTOUR_CSV_COLUMNS))
            for row in filter(None, reader):  # a blank line is an empty row
                try:
                    subject, sl, frame, boundary, index, x, y = fields(row)
                    sl, frame, point = int(sl), int(frame), (int(index), float(x), float(y))
                    subject, boundary = subject.strip(), boundary.strip()
                except (IndexError, ValueError) as exc:  # IndexError: a row short of a column
                    why = (exc if isinstance(exc, ValueError)
                           else f"{len(row)} of {len(header)} fields")
                    raise ConfigurationError(
                        f"{csv_path}:{reader.line_num}: malformed row ({why})") from exc
                subject_id = subject if subject_id is None else subject_id
                if subject != subject_id:
                    raise ConfigurationError(f"{csv_path}:{reader.line_num}: subject_id "
                                             f"{subject!r} is not {owner} {subject_id!r}")
                if boundary not in ("inner", "outer"):
                    raise ConfigurationError(f"{csv_path}:{reader.line_num}: "
                                             f"boundary must be inner or outer, got {boundary!r}")
                grouped.setdefault((sl, frame), {}).setdefault(boundary, []).append(point)
    except UnicodeDecodeError as exc:
        raise UsageError(f"contour file {csv_path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # a field longer than the csv module's limit
        raise ConfigurationError(f"{csv_path}:{reader.line_num}: malformed row ({exc})") from None
    if not grouped:
        raise ConfigurationError(f"{csv_path}: no contour rows found")

    by_slice: dict[int, list] = {}
    for (sl_idx, frame_idx), walls in sorted(grouped.items()):
        for boundary, rows in walls.items():
            rows.sort(key=lambda r: r[0])
            if [r[0] for r in rows] != list(range(len(rows))):
                raise ConfigurationError(
                    f"{csv_path} slice {sl_idx} frame {frame_idx} {boundary}: "
                    "point_index values must be 0..n-1"
                )
            walls[boundary] = [r[1:] for r in rows]
        by_slice.setdefault(sl_idx, []).append({"frame": frame_idx, **walls})
    slices = [{"slice": sl_idx, "frames": frames} for sl_idx, frames in by_slice.items()]
    return _build_study({**manifest, "slices": slices}, str(csv_path), "manifest")


def write_study_json(path, study: Study) -> None:
    payload = {
        **_study_header(study),
        "slices": [
            {
                "slice": sl.index,
                "frames": [
                    {
                        "frame": fc.frame_index,
                        "inner": fc.inner.points.tolist(),
                        "outer": fc.outer.points.tolist(),
                    }
                    for fc in sl.frames
                ],
            }
            for sl in study.slices
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


_NUMBER = (int, float)
_REQUIRED = object()


def _json_field(obj, key: str, kind: type, where: str, default=_REQUIRED):
    """``obj[key]`` checked to be a JSON value of ``kind`` (``default`` when
    given and the key is absent); ConfigurationError otherwise."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where}: expected a JSON object, got {obj!r}")
    if key not in obj:
        if default is not _REQUIRED:
            return default
        raise ConfigurationError(f"{where}: missing {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        name = getattr(kind, "__name__", "a number")
        raise ConfigurationError(f"{where}: {key!r} must be {name}, got {value!r}")
    return value


def _build_study(data, where: str, declared_by: str) -> Study:
    """The Study of study-JSON-shaped ``data`` read from ``where``.

    Slices are kept in index order, frames in frame order. A missing key, a
    value of the wrong JSON type (``subject_id`` must be a string,
    ``frames_per_cycle``, ``slice`` and ``frame`` integers, ``slices`` and
    ``frames`` lists, contours lists of [x, y] pairs), a frame without both
    walls, a slice whose frames are not 0..n-1, repeated slice indices or
    unequal frame counts raise ConfigurationError naming ``where``, a
    degenerate or self-intersecting wall or an inner wall not inside the
    outer one GeometryError naming it; a spacing that is not finite and
    positive raises one naming no file, and a ``frames_per_cycle`` other
    than the frames read one naming ``declared_by``, its source.
    """
    subject_id = _json_field(data, "subject_id", str, where)
    spacing = float(_json_field(data, "slice_spacing_mm", _NUMBER, where))
    # checked first and named by no file: a manifest may declare it
    check_finite_positive("slice spacing", spacing)
    frames_per_cycle = _json_field(data, "frames_per_cycle", int, where)
    slices = []
    for sl in _json_field(data, "slices", list, where):
        sl_idx = _json_field(sl, "slice", int, f"{where} slice")
        raw_frames = _json_field(sl, "frames", list, f"{where} slice {sl_idx}")
        indexed = [(_json_field(fr, "frame", int, f"{where} slice {sl_idx}"), fr)
                   for fr in raw_frames]
        frames = []
        for frame_idx, fr in sorted(indexed, key=lambda item: item[0]):
            at = f"{where} slice {sl_idx} frame {frame_idx}"
            if "inner" not in fr or "outer" not in fr:
                raise ConfigurationError(f"{at}: needs both inner and outer contours")
            walls = []
            for label in ("inner", "outer"):
                try:
                    walls.append(Contour(np.asarray(fr[label], dtype=float)))
                except GeometryError as exc:
                    raise GeometryError(f"{at} {label}: {exc}") from None
                except (TypeError, ValueError) as exc:
                    msg = f"{at} {label}: points must be [x, y] pairs ({exc})"
                    raise ConfigurationError(msg) from None
                if not is_simple_polygon(walls[-1].points):
                    raise GeometryError(f"{at} {label}: contour is self-intersecting")
            try:
                frames.append(FrameContours(frame_idx, *walls))
            except GeometryError as exc:
                raise GeometryError(f"{at}: {exc}") from None
        try:
            slices.append(Slice(index=sl_idx, frames=tuple(frames)))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{where} {exc}") from None
    slices.sort(key=lambda s: s.index)
    try:
        study = Study(subject_id, tuple(slices), spacing)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None
    if study.n_frames != frames_per_cycle:
        raise ConfigurationError(
            f"{declared_by} declares {frames_per_cycle} frames per cycle, "
            f"contour file has {study.n_frames}"
        )
    return study


def read_study_json(path) -> Study:
    """Ingest and validate a self-contained JSON study (checks as in
    :func:`_build_study`, the frame count against the file's own
    ``frames_per_cycle``)."""
    path = Path(path)
    return _build_study(read_json(path, "study file"), str(path), f"study JSON {path}")


def read_study(path, manifest_path=None, borrowed_manifest=False) -> Study:
    """Dispatch on suffix: .json studies are self-contained, .csv needs a manifest."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        return read_study_json(path)
    if manifest_path is None:
        raise FileNotFoundError(f"CSV study {path} requires a manifest file")
    return read_study_csv(path, manifest_path, borrowed_manifest)


# ---------------------------------------------------------------------------
# mesh / field exports


def write_mesh_vtk(
    path,
    mesh: Mesh,
    point_vectors: dict[str, np.ndarray] | None = None,
    cell_scalars: dict[str, np.ndarray] | None = None,
) -> None:
    """Legacy binary VTK unstructured grid with triangle cells (type 5).

    Points and point vectors are written as big-endian ``>f8`` triples with
    z = 0, cell scalars as ``>f8``, CELLS and CELL_TYPES as ``>i4``; each
    array follows its keyword line and ends with a newline.
    """
    def xyz(values):
        out = np.zeros((len(values), 3), ">f8")
        out[:, :2] = values
        return out

    cells = np.empty((mesh.n_triangles, 4), ">i4")
    cells[:, 0], cells[:, 1:] = 3, mesh.triangles
    sections = [
        ("# vtk DataFile Version 3.0\ncardiofem output\nBINARY\nDATASET UNSTRUCTURED_GRID", None),
        (f"POINTS {mesh.n_nodes} double", xyz(mesh.nodes)),
        (f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}", cells),
        (f"CELL_TYPES {mesh.n_triangles}", np.full(mesh.n_triangles, 5, ">i4")),
    ]
    if point_vectors:
        sections.append((f"POINT_DATA {mesh.n_nodes}", None))
        sections += [(f"VECTORS {name} double", xyz(vec)) for name, vec in point_vectors.items()]
    if cell_scalars:
        sections.append((f"CELL_DATA {mesh.n_triangles}", None))
        sections += [(f"SCALARS {name} double 1\nLOOKUP_TABLE default", np.asarray(arr, ">f8"))
                     for name, arr in cell_scalars.items()]
    with Path(path).open("wb") as fh:
        for keywords, data in sections:
            fh.write(keywords.encode() + b"\n")
            if data is not None:
                fh.write(data.tobytes() + b"\n")


def write_fields_vtk(path, result: FrameResult) -> None:
    """One frame result's displacement and strain fields on its mesh."""
    sf = result.strain
    write_mesh_vtk(path, result.model.mesh, {"displacement": result.displacement.values},
                   {"eps_x": sf.eps_x, "eps_y": sf.eps_y, "gamma_xy": sf.gamma_xy,
                    "effective": sf.effective})


def write_mesh_csv(nodes_path, elements_path, mesh: Mesh) -> None:
    _write_csv(nodes_path, ["node_id", "x", "y"],
               ([i, *xy] for i, xy in enumerate(mesh.nodes.tolist())))
    _write_csv(elements_path, ["element_id", "n0", "n1", "n2"],
               ([i, *tri] for i, tri in enumerate(mesh.triangles.tolist())))


def write_displacement_csv(path, mesh: Mesh, disp: DisplacementField) -> None:
    _write_csv(path, ["node_id", "x", "y", "u", "v"], (
        [i, *xy, *uv] for i, (xy, uv) in enumerate(zip(mesh.nodes.tolist(), disp.values.tolist()))
    ))


def write_strain_csv(path, strain: StrainField) -> None:
    columns = (strain.eps_x, strain.eps_y, strain.gamma_xy, strain.effective)
    _write_csv(path, ["element_id", "eps_x", "eps_y", "gamma_xy", "effective"],
               ([i, *row] for i, row in enumerate(zip(*(c.tolist() for c in columns)))))


def write_sector_csv(path, results: list[FrameResult]) -> None:
    """Sector time series: one row per (frame, sector) of each frame result's sectors."""
    _write_csv(path, ["frame", "sector", "mean_displacement", "mean_effective", "count"], (
        [r.frame_index, s, *row]
        for r in results
        for s, row in enumerate(zip(r.sectors.mean_displacement.tolist(),
                                    r.sectors.mean_effective.tolist(), r.sectors.counts.tolist()))
    ))


def write_strain_aggregates_csv(path, results: list[FrameResult]) -> None:
    """Each frame result's mean and maximum effective strain, one row per frame."""
    _write_csv(path, ["frame", "mean_effective", "max_effective"], (
        [r.frame_index, float(np.mean(r.strain.effective)), float(np.max(r.strain.effective))]
        for r in results
    ))


def write_volume_csv(path, curve: VolumeCurve) -> None:
    _write_csv(path, ["frame", "volume", "normalized"],
               ([k, *row] for k, row in enumerate(zip(curve.raw.tolist(),
                                                      curve.normalized.tolist()))))


def write_localization_json(path, result: LocalizationResult) -> None:
    payload = {
        "tau": result.tau,
        "flags": list(result.flags),
        "suspected_sectors": list(result.suspected_sectors),
        "subject_sector_strain": result.subject_strain.tolist(),
        "reference_sector_strain": result.reference_strain.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def dump_system(prefix, system: LinearSystem) -> None:
    """Matrix-market dump of K and F for debugging."""
    from scipy.io import mmwrite  # only ``solve --dump-system`` needs scipy

    prefix = Path(prefix)
    mmwrite(str(prefix) + "_K.mtx", system.stiffness.tocsr())
    mmwrite(str(prefix) + "_F.mtx", system.load.reshape(-1, 1))


# ---------------------------------------------------------------------------
# phantom / material configuration


_SPEC_KEYS = ("inner_radius", "outer_radius", "center", "material")


def read_phantom_spec(path) -> RingSpec:
    """A ring spec JSON object: numbers ``inner_radius`` and ``outer_radius``;
    optional ``center`` [x, y] and ``material`` {"E", "nu"}. A missing key,
    any other key or a value of the wrong JSON type raises
    ConfigurationError."""
    data = read_json(path, "phantom spec")
    where = f"phantom spec {Path(path)}"
    inner = float(_json_field(data, "inner_radius", _NUMBER, where))
    outer = float(_json_field(data, "outer_radius", _NUMBER, where))
    center = _json_field(data, "center", list, where, [0.0, 0.0])
    if len(center) != 2 or not all(
        isinstance(v, _NUMBER) and not isinstance(v, bool) for v in center
    ):
        raise ConfigurationError(f"{where}: 'center' must be 2 numbers, got {center!r}")
    base = _json_field(data, "material", dict, where, {})
    for obj, keys, name in ((data, _SPEC_KEYS, where), (base, ("E", "nu"), f"{where} material")):
        unknown = [key for key in obj if key not in keys]
        if unknown:
            raise ConfigurationError(f"{name}: unknown key {unknown[0]!r}")
    material = Material(float(_json_field(base, "E", _NUMBER, f"{where} material", 1e4)),
                        float(_json_field(base, "nu", _NUMBER, f"{where} material", 0.3)))
    return RingSpec(inner, outer, center, material)


def write_ring_verification(out, spec: RingSpec, report: RingVerification) -> tuple[Path, Path]:
    """``convergence.csv`` (each homogeneous ring's size, h = wall thickness
    / n_radial, L2 error and observed order, empty on the first row) and
    ``sector_comparison.csv`` (the stiff-wedge ring's sector means on both
    routes) of ``report`` in directory ``out``; returns both paths."""
    paths = Path(out, "convergence.csv"), Path(out, "sector_comparison.csv")
    thickness = spec.outer_radius - spec.inner_radius
    _write_csv(paths[0], ["n_angular", "n_radial", "h", "l2_error", "observed_order"], (
        [na, nr, thickness / nr, err, order] for (na, nr), err, order
        in zip(report.resolutions, report.l2_errors, ("", *report.orders))
    ))
    t, p = report.traction, report.pipeline
    columns = (t.mean_displacement, p.mean_displacement, t.mean_effective, p.mean_effective,
               report.stiff_sectors.astype(int))
    _write_csv(paths[1], ["sector", "mean_disp_traction", "mean_disp_pipeline",
                          "mean_effective_traction", "mean_effective_pipeline", "stiff"],
               ([s, *row] for s, row in enumerate(zip(*(c.tolist() for c in columns)))))
    return paths


def write_phantom_spec(path, spec: RingSpec) -> None:
    payload = {
        "inner_radius": spec.inner_radius,
        "outer_radius": spec.outer_radius,
        "center": list(spec.center),
        "material": {"E": spec.material.E, "nu": spec.material.nu},
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
