"""Layer tracing for the benchmark's traced run.

Every public module-level function of each layer module of ``cardiofem``
(plus ``cardiofem.fem.splu``) is wrapped wherever the package binds it: in
its defining module, in the modules that import it, in the package namespace
and in module-level dispatch tables such as ``cli.COMMANDS``. The wrappers
are installed for one traced op and removed afterwards, so untraced ops run
the unmodified functions and nothing in ``src/`` is edited.

A span is recorded where a call crosses a layer boundary: the caller is the
benchmark itself or a function of another layer. Calls inside one layer are
counted and timed but not kept as spans, which keeps per-element calls (one
per triangle per frame in the strain loop) cheap. A layer's self time is the
duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("contours", "meshing", "materials", "fem", "strain", "phantom", "study", "io", "cli")

# Timed groups: metric -> functions whose outermost calls it adds up.
TIMERS = {
    "contours.simple_check_s": ("contours.is_simple_polygon",),
    "contours.resample_s": ("contours.resample_uniform_angle",),
    "contours.boundary_disp_s": ("contours.boundary_displacements",),
    "meshing.triangulate_s": ("meshing.triangulate_annulus",),
    "materials.field_s": (
        "materials.region_material_field",
        "materials.constitutive_matrices",
        "materials.constitutive_matrix",
    ),
    "fem.assemble_s": ("fem.assemble",),
    "fem.bc_map_s": ("fem.boundary_conditions_from_displacements",),
    "fem.dirichlet_s": ("fem.apply_dirichlet",),
    "fem.traction_s": ("fem.apply_traction", "fem.internal_pressure_tractions"),
    "fem.solve_s": ("fem.solve",),
    "fem.factor_s": ("fem.splu",),
    "strain.field_s": ("strain.strain_field",),
    "strain.sector_s": ("strain.sector_average",),
    "study.cycle_s": ("study.cycle_strain_analysis",),
    "study.volume_s": ("study.normalized_volume_curve", "study.ventricle_volume"),
    "study.localize_s": ("study.infarct_localization", "study.average_sector_summaries"),
    "phantom.ring_solve_s": ("phantom.solve_ring_traction",),
    "phantom.make_ring_s": ("phantom.make_ring",),
    "phantom.oracle_s": (
        "phantom.lame_displacement",
        "phantom.lame_displacement_at",
        "phantom.lame_strain_polar",
    ),
    "io.read_s": (
        "io.read_study",
        "io.read_study_csv",
        "io.read_study_json",
        "io.read_manifest",
        "io.read_phantom_spec",
    ),
    "io.write_s": (
        "io.write_study_csv",
        "io.write_manifest",
        "io.write_study_json",
        "io.write_mesh_vtk",
        "io.write_mesh_csv",
        "io.write_displacement_csv",
        "io.write_strain_csv",
        "io.write_sector_csv",
        "io.write_volume_csv",
        "io.write_localization_json",
        "io.dump_system",
        "io.write_phantom_spec",
    ),
    "cli.cmd_s": ("cli.main",),
}

# Call counts: metric -> function.
CALL_COUNTS = {
    "contours.simple_checks": "contours.is_simple_polygon",
    "contours.boundary_disp_calls": "contours.boundary_displacements",
    "meshing.meshes_built": "meshing.triangulate_annulus",
    "fem.assemblies": "fem.assemble",
    "fem.solve_calls": "fem.solve",
    "fem.factorizations": "fem.splu",
    "study.cycle_calls": "study.cycle_strain_analysis",
}

# The io functions that open a file for reading, as opposed to dispatching.
_READERS = ("io.read_study_csv", "io.read_manifest", "io.read_study_json", "io.read_phantom_spec")

UNITS = {
    **{name: "s" for name in TIMERS},
    **{name: "count" for name in CALL_COUNTS},
    "contours.vertices_checked": "count",
    "contours.warnings": "count",
    "fem.rhs_columns": "count",
    "fem.rhs_per_factorization": "ratio",
    "fem.n_dofs": "count",
    "fem.nnz": "count",
    "fem.factor_nnz": "count",
    "fem.fill_ratio": "ratio",
    "strain.elements": "count",
    "strain.elements_per_s": "1/s",
    "study.cycle_self_s": "s",
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "io.files_written": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "trace.coverage": "ratio",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class OpTrace:
    """Spans, counters and timers of one traced op."""

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.calls: Counter = Counter()
        self.timer_total: defaultdict = defaultdict(float)
        self.timer_depth: Counter = Counter()
        self.timer_open: dict[str, float] = {}
        self.values: defaultdict = defaultdict(float)
        self.warnings = 0
        self.wall = 0.0

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this op (``wall`` must be set)."""
        m = {name: self.timer_total[name] for name in TIMERS}
        m.update({name: float(self.calls[qual]) for name, qual in CALL_COUNTS.items()})
        v = self.values
        m["contours.vertices_checked"] = v["vertices_checked"]
        m["contours.warnings"] = float(self.warnings)
        m["fem.rhs_columns"] = v["rhs_columns"]
        factorizations = m["fem.factorizations"]
        m["fem.rhs_per_factorization"] = v["rhs_columns"] / factorizations if factorizations else 0.0
        m["fem.n_dofs"] = v["n_dofs"]
        m["fem.nnz"] = v["nnz"]
        m["fem.factor_nnz"] = v["factor_nnz"]
        m["fem.fill_ratio"] = v["fill_ratio"]
        m["strain.elements"] = v["elements"]
        field_s = m["strain.field_s"]
        m["strain.elements_per_s"] = v["elements"] / field_s if field_s else 0.0
        m["io.bytes_read"] = v["bytes_read"]
        m["io.bytes_written"] = v["bytes_written"]
        m["io.files_written"] = v["files_written"]

        child_time: defaultdict = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        layer_self: defaultdict = defaultdict(float)
        cycle_self = 0.0
        covered = 0.0
        for span_id, parent, name, start, end in self.spans:
            own = (end - start) - child_time[span_id]
            layer_self[name.split(".", 1)[0]] += own
            if name == "study.cycle_strain_analysis":
                cycle_self += own
            if parent is None:
                covered += end - start
        m["study.cycle_self_s"] = cycle_self
        layer_calls: Counter = Counter()
        for qual, n in self.calls.items():
            layer_calls[qual.split(".", 1)[0]] += n
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
            m[f"{layer}.calls"] = float(layer_calls[layer])
        m["trace.coverage"] = covered / self.wall if self.wall > 0 else 0.0
        m["trace.spans"] = float(len(self.spans))
        return m


class _CountingFactor:
    """Proxy of a SuperLU factor that counts the right-hand-side columns solved."""

    def __init__(self, lu, op: OpTrace):
        self._lu = lu
        self._op = op

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, rhs, *args, **kwargs):
        self._op.values["rhs_columns"] += 1 if np.ndim(rhs) == 1 else np.shape(rhs)[1]
        return self._lu.solve(rhs, *args, **kwargs)


def _path_args(fn):
    """Function returning the path-like arguments of a call to ``fn``."""
    signature = inspect.signature(fn)

    def paths(args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments.values()
        return [a for a in bound if isinstance(a, (str, os.PathLike))]

    return paths


def _hook(qual: str, fn):
    """Post-call hook that reads a counter off a call's arguments or result."""
    if qual == "contours.is_simple_polygon":
        def hook(op, args, kwargs, result):
            op.values["vertices_checked"] += len(args[0] if args else kwargs["points"])
            return result
    elif qual == "strain.strain_field":
        def hook(op, args, kwargs, result):
            op.values["elements"] += result.n_elements
            return result
    elif qual == "fem.assemble":
        def hook(op, args, kwargs, result):
            op.values["n_dofs"] = max(op.values["n_dofs"], result.n_dofs)
            op.values["nnz"] = max(op.values["nnz"], result.stiffness.nnz)
            return result
    elif qual == "fem.splu":
        def hook(op, args, kwargs, result):
            factor_nnz = result.L.nnz + result.U.nnz
            if factor_nnz > op.values["factor_nnz"]:
                op.values["factor_nnz"] = factor_nnz
                op.values["fill_ratio"] = factor_nnz / (args[0] if args else kwargs["A"]).nnz
            return _CountingFactor(result, op)
    elif qual in _READERS:
        paths = _path_args(fn)

        def hook(op, args, kwargs, result):
            op.values["bytes_read"] += os.path.getsize(paths(args, kwargs)[0])
            return result
    elif qual in TIMERS["io.write_s"]:
        paths = _path_args(fn)

        def hook(op, args, kwargs, result):
            for path in paths(args, kwargs):
                if os.path.isfile(path):
                    op.values["files_written"] += 1
                    op.values["bytes_written"] += os.path.getsize(path)
            return result
    else:
        hook = None
    return hook


class Tracer:
    """Installs the layer wrappers around traced ops and keeps their spans."""

    def __init__(self, package):
        self.package = package
        self.ops: list[OpTrace] = []
        self._current: OpTrace | None = None
        self._stack: list[tuple[str, int | None]] = []
        self._next_span = 0
        self._wrappers = self._build_wrappers()

    def _layer_functions(self):
        for layer in LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    yield f"{layer}.{name}", obj
        fem = sys.modules[f"{self.package.__name__}.fem"]
        yield "fem.splu", fem.splu

    def _build_wrappers(self) -> dict[int, tuple[object, object]]:
        wrappers = {}
        for qual, fn in self._layer_functions():
            timers = tuple(m for m, quals in TIMERS.items() if qual in quals)
            wrappers[id(fn)] = (fn, self._wrap(qual, fn, timers, _hook(qual, fn)))
        named = {qual for qual, _ in self._layer_functions()}
        needed = {q for quals in TIMERS.values() for q in quals} | set(CALL_COUNTS.values())
        missing = sorted(needed - named)
        if missing:
            raise RuntimeError(
                f"per-layer metrics name functions the package no longer has: {missing}"
            )
        return wrappers

    def _wrap(self, qual, fn, timers, hook):
        layer = qual.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer._current
            stack = tracer._stack
            parent_layer, parent_span = stack[-1] if stack else (None, None)
            span_id = parent_span
            if layer != parent_layer:
                tracer._next_span += 1
                span_id = tracer._next_span
            start = perf_counter()
            for timer in timers:
                op.timer_depth[timer] += 1
                if op.timer_depth[timer] == 1:
                    op.timer_open[timer] = start
            stack.append((layer, span_id))
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                op.calls[qual] += 1
                for timer in timers:
                    op.timer_depth[timer] -= 1
                    if op.timer_depth[timer] == 0:
                        op.timer_total[timer] += end - op.timer_open[timer]
                if span_id != parent_span:
                    op.spans.append((span_id, parent_span, qual, start, end))
            return hook(op, args, kwargs, result) if hook else result

        return traced

    def _namespaces(self):
        """Module namespaces of the package and their module-level dicts."""
        prefix = self.package.__name__
        for name, module in list(sys.modules.items()):
            if name == prefix or name.startswith(prefix + "."):
                ns = vars(module)
                yield ns
                yield from (
                    v for k, v in ns.items() if isinstance(v, dict) and not k.startswith("__")
                )

    def _swap(self, to_wrapper: bool) -> None:
        pairs = self._wrappers.values()
        if to_wrapper:
            table = {id(fn): wrapper for fn, wrapper in pairs}
        else:
            table = {id(wrapper): fn for fn, wrapper in pairs}
        for ns in self._namespaces():
            for key, value in list(ns.items()):
                replacement = table.get(id(value))
                if replacement is not None and replacement is not value:
                    ns[key] = replacement

    @contextmanager
    def op(self):
        """Trace one op: yields its :class:`OpTrace`; set ``wall`` inside."""
        op = OpTrace(len(self.ops) + 1)
        contours_file = Path(sys.modules[f"{self.package.__name__}.contours"].__file__).resolve()
        self._current = op
        self._swap(to_wrapper=True)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield op
        finally:
            self._swap(to_wrapper=False)
            self._current = None
            self._stack.clear()
        op.warnings = sum(Path(w.filename).resolve() == contours_file for w in caught)
        self.ops.append(op)

    def write_spans(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for op in self.ops:
                for span_id, parent, name, start, end in op.spans:
                    fh.write(json.dumps({
                        "trace": op.trace_id, "span": span_id, "parent": parent,
                        "name": name, "start": start, "end": end,
                    }) + "\n")
