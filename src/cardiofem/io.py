"""File formats: contour CSV/JSON studies, manifests, VTK and CSV exports.

Contour CSV schema (header required, rows may be unordered):

    subject_id,slice,frame,boundary,point_index,x,y

with boundary in {inner, outer}. A study additionally needs a manifest JSON
carrying subject_id, slice_spacing_mm, and frames_per_cycle. The JSON study
format mirrors the same fields in nested form and is self-contained.

Field exports use legacy ASCII VTK (unstructured grid, triangle cells) plus
plain CSV tables, so results can be inspected without extra dependencies.
Every float is written as ``repr`` of the Python float, the shortest text that
reads back to the same value. A cycle writes one VTK per frame on the same
frame-0 mesh, so the header and the POINTS/CELLS/CELL_TYPES block are
formatted once per mesh and reused; each file is byte-identical to one
formatted from scratch.

Formatting those floats is the cost of an export, so
:func:`field_vtk_export` spreads a batch of VTK files over the CPUs the
process may use: it forks one writer process per extra CPU and writes its
own share while the caller goes on with other work, then reaps the writers.
The bytes of every file are the same as when written in-process, which is
what happens on one CPU or where ``os.fork`` is missing.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from pathlib import Path

import numpy as np
from scipy.io import mmwrite

from .contours import Contour, FrameContours
from .errors import ConfigurationError, GeometryError
from .fem import DisplacementField, LinearSystem
from .materials import AngularRegion, Material
from .meshing import Mesh
from .phantom import RingSpec
from .strain import SectorSummary, StrainField
from .study import LocalizationResult, Slice, Study, VolumeCurve

CONTOUR_CSV_COLUMNS = ("subject_id", "slice", "frame", "boundary", "point_index", "x", "y")


# ---------------------------------------------------------------------------
# study ingest / emit


def write_study_csv(path, study: Study) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CONTOUR_CSV_COLUMNS)
        for sl in study.slices:
            for fc in sl.frames:
                for boundary, contour in (("inner", fc.inner), ("outer", fc.outer)):
                    writer.writerows(
                        [study.subject_id, sl.index, fc.frame_index, boundary,
                         i, repr(x), repr(y)]
                        for i, (x, y) in enumerate(contour.points.tolist())
                    )


def write_manifest(path, study: Study) -> None:
    payload = {
        "subject_id": study.subject_id,
        "slice_spacing_mm": study.slices[0].spacing,
        "frames_per_cycle": study.n_frames,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_manifest(path) -> dict:
    """A manifest JSON object with ``subject_id``, a number
    ``slice_spacing_mm`` and an integer ``frames_per_cycle``."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    data = json.loads(path.read_text())
    where = f"manifest {path}"
    _json_field(data, "subject_id", object, where)
    _json_field(data, "slice_spacing_mm", _NUMBER, where)
    _json_field(data, "frames_per_cycle", int, where)
    return data


def _rows_to_contour(rows, where: str) -> Contour:
    rows = sorted(rows, key=lambda r: r[0])
    indices = [r[0] for r in rows]
    if indices != list(range(len(rows))):
        raise ConfigurationError(f"{where}: point_index values must be 0..n-1")
    pts = np.array([(r[1], r[2]) for r in rows], dtype=float)
    label = rows[0][3]
    contour = Contour(pts, label)
    if not contour.is_simple():
        raise GeometryError(f"{where}: contour is self-intersecting")
    return contour


def read_study_csv(csv_path, manifest_path) -> Study:
    """Ingest and validate a study from the CSV + manifest pair."""
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise FileNotFoundError(f"contour file not found: {csv_path}")
    manifest = read_manifest(manifest_path)

    grouped: dict[int, dict[int, dict[str, list]]] = {}
    with csv_path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(CONTOUR_CSV_COLUMNS) <= set(reader.fieldnames):
            raise ConfigurationError(
                f"{csv_path}: header must contain columns {CONTOUR_CSV_COLUMNS}"
            )
        for lineno, row in enumerate(reader, start=2):
            try:
                sl = int(row["slice"])
                frame = int(row["frame"])
                boundary = row["boundary"].strip()
                idx = int(row["point_index"])
                x = float(row["x"])
                y = float(row["y"])
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"{csv_path}:{lineno}: malformed row ({exc})") from exc
            if boundary not in ("inner", "outer"):
                raise ConfigurationError(
                    f"{csv_path}:{lineno}: boundary must be inner or outer, got {boundary!r}"
                )
            grouped.setdefault(sl, {}).setdefault(frame, {}).setdefault(boundary, []).append(
                (idx, x, y, boundary)
            )
    if not grouped:
        raise ConfigurationError(f"{csv_path}: no contour rows found")

    slices = []
    for sl_idx in sorted(grouped):
        frames = []
        for frame_idx in sorted(grouped[sl_idx]):
            pair = grouped[sl_idx][frame_idx]
            where = f"{csv_path} slice {sl_idx} frame {frame_idx}"
            if set(pair) != {"inner", "outer"}:
                raise ConfigurationError(f"{where}: needs both inner and outer contours")
            frames.append(
                FrameContours(
                    frame_idx,
                    _rows_to_contour(pair["inner"], where + " inner"),
                    _rows_to_contour(pair["outer"], where + " outer"),
                )
            )
        slices.append(
            Slice(index=sl_idx, spacing=float(manifest["slice_spacing_mm"]), frames=tuple(frames))
        )
    study = Study(str(manifest["subject_id"]), tuple(slices))
    return _check_frame_count(study, manifest["frames_per_cycle"], "manifest")


def _check_frame_count(study: Study, frames_per_cycle: int, where: str) -> Study:
    """``study`` if it has the ``frames_per_cycle`` ``where`` declares, else ConfigurationError."""
    if study.n_frames != frames_per_cycle:
        raise ConfigurationError(
            f"{where} declares {frames_per_cycle} frames per cycle, "
            f"contour file has {study.n_frames}"
        )
    return study


def write_study_json(path, study: Study) -> None:
    payload = {
        "subject_id": study.subject_id,
        "slice_spacing_mm": study.slices[0].spacing,
        "frames_per_cycle": study.n_frames,
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
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


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


def _json_contour(points, label: str, where: str) -> Contour:
    try:
        pts = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where} {label}: points must be [x, y] pairs ({exc})") from None
    contour = Contour(pts, label)
    if not contour.is_simple():
        raise GeometryError(f"{where} {label}: contour is self-intersecting")
    return contour


def read_study_json(path) -> Study:
    """Ingest and validate a self-contained JSON study.

    A missing key, a value of the wrong JSON type (``frames_per_cycle``,
    ``slice`` and ``frame`` must be integers, ``slices`` and ``frames`` lists,
    contours lists of [x, y] pairs) or a ``frames_per_cycle`` other than the
    number of frames read raises ConfigurationError naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"study file not found: {path}")
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or "subject_id" not in data:
        raise ConfigurationError(f"{path}: study JSON must be an object with 'subject_id'")
    spacing = float(_json_field(data, "slice_spacing_mm", _NUMBER, str(path)))
    frames_per_cycle = _json_field(data, "frames_per_cycle", int, str(path))
    slices = []
    for sl in _json_field(data, "slices", list, str(path)):
        sl_idx = _json_field(sl, "slice", int, f"{path} slice")
        raw_frames = _json_field(sl, "frames", list, f"{path} slice {sl_idx}")
        indexed = [(_json_field(fr, "frame", int, f"{path} slice {sl_idx}"), fr)
                   for fr in raw_frames]
        frames = []
        for frame_idx, fr in sorted(indexed, key=lambda item: item[0]):
            where = f"{path} slice {sl_idx} frame {frame_idx}"
            if "inner" not in fr or "outer" not in fr:
                raise ConfigurationError(f"{where}: needs both inner and outer contours")
            frames.append(
                FrameContours(
                    frame_idx,
                    _json_contour(fr["inner"], "inner", where),
                    _json_contour(fr["outer"], "outer", where),
                )
            )
        slices.append(Slice(index=sl_idx, spacing=spacing, frames=tuple(frames)))
    study = Study(str(data["subject_id"]), tuple(slices))
    return _check_frame_count(study, frames_per_cycle, f"study JSON {path}")


def read_study(path, manifest_path=None) -> Study:
    """Dispatch on suffix: .json studies are self-contained, .csv needs a manifest."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        return read_study_json(path)
    if manifest_path is None:
        raise FileNotFoundError(f"CSV study {path} requires a manifest file")
    return read_study_csv(path, manifest_path)


# ---------------------------------------------------------------------------
# mesh / field exports


def _vtk_geometry(mesh: Mesh, title: str) -> str:
    """Header and POINTS/CELLS/CELL_TYPES block of a legacy VTK file,
    formatted once per mesh and title and kept on the mesh."""

    def compute() -> str:
        lines = [
            "# vtk DataFile Version 3.0",
            title,
            "ASCII",
            "DATASET UNSTRUCTURED_GRID",
            f"POINTS {mesh.n_nodes} double",
        ]
        lines += [f"{x!r} {y!r} 0.0" for x, y in mesh.nodes.tolist()]
        lines.append(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
        lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles.tolist()]
        lines.append(f"CELL_TYPES {mesh.n_triangles}")
        lines += ["5"] * mesh.n_triangles
        return "\n".join(lines) + "\n"

    return mesh.cached(("vtk_geometry", title), compute)


def write_mesh_vtk(
    path,
    mesh: Mesh,
    point_vectors: dict[str, np.ndarray] | None = None,
    cell_scalars: dict[str, np.ndarray] | None = None,
    title: str = "cardiofem output",
) -> None:
    """Legacy ASCII VTK unstructured grid with triangle cells (type 5)."""
    lines = []
    if point_vectors:
        lines.append(f"POINT_DATA {mesh.n_nodes}")
        for name, vec in point_vectors.items():
            lines.append(f"VECTORS {name} double")
            lines += [f"{u!r} {v!r} 0.0" for u, v in np.asarray(vec, dtype=float).tolist()]
    if cell_scalars:
        lines.append(f"CELL_DATA {mesh.n_triangles}")
        for name, arr in cell_scalars.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines += map(repr, np.asarray(arr, dtype=float).tolist())
    with Path(path).open("w") as fh:
        fh.write(_vtk_geometry(mesh, title))
        if lines:
            fh.write("\n".join(lines) + "\n")


def _reap(pid: int, fd: int) -> str | None:
    """Wait for one writer process; its error text, or None if it succeeded."""
    chunks = []
    while chunk := os.read(fd, 4096):
        chunks.append(chunk)
    os.close(fd)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0:
        return None
    return b"".join(chunks).decode(errors="replace") or f"VTK writer {pid} exited with {code}"


@contextlib.contextmanager
def field_vtk_export(jobs):
    """Write ``write_mesh_vtk(*job)`` for every job, spread over the CPUs.

    With k = min(usable CPUs, len(jobs)), k - 1 forked children write
    ``jobs[i::k]`` (i = 0..k-2) and this process writes the last share, the
    smallest, before the body runs. Leaving the block waits for every child,
    also when the body raised; if it did not, the first failed child's error
    text is raised as an OSError. On one CPU, without ``os.fork``, or when a
    fork fails, the unassigned shares are written here, so every job is
    written once.
    """
    jobs = list(jobs)
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    k = max(1, min(len(os.sched_getaffinity(0)) if can_fork else 1, len(jobs)))
    children = []  # (pid, read end of the error pipe), child i owns jobs[i::k]
    for i in range(k - 1):
        try:
            r, w = os.pipe()
        except OSError:
            break
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            break
        if pid == 0:
            code = 1
            try:
                os.close(r)
                for job in jobs[i::k]:
                    write_mesh_vtk(*job)
                code = 0
            except Exception as exc:
                os.write(w, (str(exc) or type(exc).__name__).encode(errors="replace"))
            finally:
                os._exit(code)
        os.close(w)
        children.append((pid, r))
    owned = len(children)
    try:
        for j, job in enumerate(jobs):
            if j % k >= owned:
                write_mesh_vtk(*job)
        yield
    finally:
        errors = [_reap(pid, fd) for pid, fd in children]
    failed = [e for e in errors if e is not None]
    if failed:
        raise OSError(failed[0])


def write_mesh_csv(nodes_path, elements_path, mesh: Mesh) -> None:
    with Path(nodes_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "x", "y"])
        writer.writerows([i, repr(x), repr(y)] for i, (x, y) in enumerate(mesh.nodes.tolist()))
    with Path(elements_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element_id", "n0", "n1", "n2"])
        writer.writerows([i, a, b, c] for i, (a, b, c) in enumerate(mesh.triangles.tolist()))


def write_displacement_csv(path, mesh: Mesh, disp: DisplacementField) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "x", "y", "u", "v"])
        writer.writerows(
            [i, repr(x), repr(y), repr(u), repr(v)]
            for i, ((x, y), (u, v)) in enumerate(zip(mesh.nodes.tolist(), disp.values.tolist()))
        )


def write_strain_csv(path, strain: StrainField) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element_id", "eps_x", "eps_y", "gamma_xy", "effective"])
        rows = zip(strain.eps_x.tolist(), strain.eps_y.tolist(),
                   strain.gamma_xy.tolist(), strain.effective.tolist())
        writer.writerows(
            [i, repr(ex), repr(ey), repr(g), repr(e)] for i, (ex, ey, g, e) in enumerate(rows)
        )


def write_sector_csv(path, summaries: list[SectorSummary], frame_indices) -> None:
    """Sector time series: one row per (frame, sector), summaries[i] in frame_indices[i]."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "sector", "mean_displacement", "mean_effective", "count"])
        for frame, summary in zip(frame_indices, summaries):
            rows = zip(summary.mean_displacement.tolist(), summary.mean_effective.tolist(),
                       summary.counts.tolist())
            writer.writerows(
                [frame, s, repr(md), repr(me), count] for s, (md, me, count) in enumerate(rows)
            )


def write_volume_csv(path, curve: VolumeCurve) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "volume", "normalized"])
        writer.writerows(
            [k, repr(raw), repr(norm)]
            for k, (raw, norm) in enumerate(zip(curve.raw.tolist(), curve.normalized.tolist()))
        )


def write_localization_json(path, result: LocalizationResult) -> None:
    payload = {
        "tau": result.tau,
        "flags": list(result.flags),
        "suspected_sectors": list(result.suspected_sectors),
        "subject_sector_strain": result.subject_strain.tolist(),
        "reference_sector_strain": result.reference_strain.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def dump_system(prefix, system: LinearSystem) -> None:
    """Matrix-market dump of K and F for debugging."""
    prefix = Path(prefix)
    mmwrite(str(prefix) + "_K.mtx", system.stiffness)
    mmwrite(str(prefix) + "_F.mtx", system.load.reshape(-1, 1))


# ---------------------------------------------------------------------------
# phantom / material configuration


def _json_numbers(obj, key: str, where: str, default, length: int | None = None) -> tuple:
    """``obj[key]`` (``default`` when absent) checked to be a list of JSON
    numbers, ``length`` of them when given, as floats."""
    values = _json_field(obj, key, list, where, default)
    if (length is not None and len(values) != length) or not all(
        isinstance(v, _NUMBER) and not isinstance(v, bool) for v in values
    ):
        what = f"{length} numbers" if length is not None else "a list of numbers"
        raise ConfigurationError(f"{where}: {key!r} must be {what}, got {values!r}")
    return tuple(float(v) for v in values)


def read_phantom_spec(path) -> RingSpec:
    """A ring spec JSON object: numbers ``inner_radius`` and ``outer_radius``;
    optional ``center`` [x, y], ``material`` {"E", "nu"}, ``regions`` (objects
    with ``start_deg``, ``end_deg`` and optional ``E``, ``nu``) and a
    ``pressures`` list. A missing key or a value of the wrong JSON type raises
    ConfigurationError."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"phantom spec not found: {path}")
    data = json.loads(path.read_text())
    where = f"phantom spec {path}"
    inner = float(_json_field(data, "inner_radius", _NUMBER, where))
    outer = float(_json_field(data, "outer_radius", _NUMBER, where))
    base = _json_field(data, "material", dict, where, {})
    material = Material(float(_json_field(base, "E", _NUMBER, f"{where} material", 1e4)),
                        float(_json_field(base, "nu", _NUMBER, f"{where} material", 0.3)))
    regions = []
    for k, r in enumerate(_json_field(data, "regions", list, where, [])):
        at = f"{where} region {k}"
        regions.append(AngularRegion(
            float(_json_field(r, "start_deg", _NUMBER, at)),
            float(_json_field(r, "end_deg", _NUMBER, at)),
            Material(float(_json_field(r, "E", _NUMBER, at, material.E)),
                     float(_json_field(r, "nu", _NUMBER, at, material.nu))),
        ))
    return RingSpec(
        inner_radius=inner,
        outer_radius=outer,
        center=_json_numbers(data, "center", where, [0.0, 0.0], 2),
        material=material,
        regions=tuple(regions),
        pressures=_json_numbers(data, "pressures", where, []),
    )


def write_phantom_spec(path, spec: RingSpec) -> None:
    payload = {
        "inner_radius": spec.inner_radius,
        "outer_radius": spec.outer_radius,
        "center": [spec.center.x, spec.center.y],
        "material": {"E": spec.material.E, "nu": spec.material.nu},
        "regions": [
            {"start_deg": r.start_deg, "end_deg": r.end_deg,
             "E": r.material.E, "nu": r.material.nu}
            for r in spec.regions
        ],
        "pressures": list(spec.pressures),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
