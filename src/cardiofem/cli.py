"""Command-line interface.

Subcommands:

    phantom-verify   pressurized-ring verification suite (oracle + sectors)
    analyze          full study analysis: volumes, fields, sectors, flags
    synth            deterministic synthetic study generator
    mesh             mesh one frame and export it
    solve            solve one frame pair and export the displacement field
    strain           solve one frame pair and export strain + sector tables
    volume           volume curve of a study

Each subcommand accepts only the flags it reads (``SUBCOMMANDS``). Exit
codes: 0 success, 1 tolerance or validation failure, 2 usage or input error,
including a file that cannot be read or written, or a flag the command does
not take. A JSON config file (--config) may supply any long flag of the
command but --config by name (any other key is a usage error); explicit flags
override config values. Input is read and checked before --out is made.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import io as cfio
from .errors import (ConfigurationError, GeometryError, MeshError, SolverError,
                     StarShapeError, UsageError)
from .fem import apply_dirichlet
from .materials import Material
from .meshing import validate
from .phantom import RingSpec, verify_ring
from .study import (CycleParams, average_sector_summaries, check_tau, cycle_strain_analysis,
                    frame_mesh, infarct_localization, normalized_volume_curve)
from .synth import SYNTH_KINDS, healthy_study, mi_wedge_study, phantom_cycle_study


VALIDATION_ERRORS = (GeometryError, StarShapeError, MeshError, SolverError, ConfigurationError)

DEFAULTS = {
    "out": "cardiofem-out",
    "mode": "as-printed",
    "sectors": 16,
    "tau": 0.5,
    "n_points": 64,
    "n_radial": 8,
    "rotation_deg": 0.0,
    "seed": 0,
    "young": 1e4,
    "poisson": 0.3,
    "kind": "healthy",
    "n_frames": 20,
    "contraction": 0.3,
}

# every flag by its long name, with its argparse keywords
FLAGS = {
    "config": {"help": "JSON file supplying any long flag of the command by name"},
    "out": {"help": "output directory"},
    "study": {"help": "study contour CSV or JSON"},
    "manifest": {"help": "manifest JSON (for CSV studies)"},
    "reference": {"action": "append", "help": "reference study (repeatable); enables localization"},
    "reference-manifest": {"action": "append", "help": "manifest for the matching --reference CSV"},
    "phantom-spec": {"help": "ring spec JSON (default: unit ring a=1 b=2)"},
    "kind": {"choices": SYNTH_KINDS},
    "n-frames": {"type": int},
    "contraction": {"type": float, "help": "inner-wall radial contraction fraction over the cycle"},
    "slice": {"dest": "slice_index", "type": int, "help": "slice index"},
    "frame": {"type": int, "help": "target frame (reference is frame 0)"},
    "dump-system": {"action": "store_true",
                    "help": "also dump K and F in matrix-market format"},
    "mode": {"choices": ("as-printed", "plane-strain")},
    "sectors": {"type": int, "help": "number of angular sectors"},
    "tau": {"type": float, "help": "localization threshold fraction"},
    "n-points": {"type": int, "help": "boundary resampling count / mesh angular resolution"},
    "n-radial": {"type": int, "help": "mesh radial resolution"},
    "rotation-deg": {"type": float,
                     "help": "total clockwise rotation over the cycle to compensate"},
    "seed": {"type": int, "help": "seed for synthetic generation"},
    "young": {"type": float, "help": "Young's modulus"},
    "poisson": {"type": float, "help": "Poisson's ratio"},
}

# the flags _cycle_params reads
_MODEL = ("mode", "sectors", "n-points", "n-radial", "rotation-deg", "young", "poisson")
_STUDY = ("study", "manifest")

# each subcommand's help and the flags it reads, besides --config and --out
SUBCOMMANDS = {
    "phantom-verify": ("run the ring verification suite",
                       ("phantom-spec", "sectors", "n-points", "n-radial", "young", "poisson")),
    "analyze": ("analyze a study end to end",
                (*_STUDY, "reference", "reference-manifest", "tau", *_MODEL)),
    "synth": ("generate a synthetic study",
              ("kind", "n-frames", "contraction", "seed", "n-points", "rotation-deg")),
    "mesh": ("mesh one frame and export it", (*_STUDY, "slice", "frame", "n-points", "n-radial")),
    "solve": ("solve one frame pair and export displacements",
              (*_STUDY, "slice", "frame", *_MODEL, "dump-system")),
    "strain": ("solve one frame pair and export strain", (*_STUDY, "slice", "frame", *_MODEL)),
    "volume": ("volume curve of a study", _STUDY),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardiofem",
        description="2D finite-element myocardial deformation and strain analysis",
    )
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")
    for command, (help_text, names) in SUBCOMMANDS.items():
        # unset flags stay out of the namespace, so config values and defaults
        # can be layered underneath explicit flags
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        for name in ("config", "out", *names):
            p.add_argument(f"--{name}", **FLAGS[name])
    return parser


def _config_value(spec: dict, value, where: str):
    """A --config value taken as the flag with ``FLAGS`` entry ``spec`` would
    take it from the command line.

    A typed flag converts the value's text (``"64"`` and ``64`` both give
    64); a text flag needs a string, a repeatable flag a string or a list of
    strings, an on/off flag true or false, and a flag with choices one of
    them. Anything else raises UsageError.
    """
    action, kind, choices = spec.get("action"), spec.get("type"), spec.get("choices")
    if action == "store_true":
        if not isinstance(value, bool):
            raise UsageError(f"{where} must be true or false, got {value!r}")
        return value
    if action == "append":
        items = [value] if isinstance(value, str) else value
        if not (isinstance(items, list) and all(isinstance(v, str) for v in items)):
            raise UsageError(f"{where} must be a string or a list of strings, got {value!r}")
        return items
    if kind is None:
        if not isinstance(value, str):
            raise UsageError(f"{where} must be a string, got {value!r}")
    else:
        try:
            value = kind(str(value))
        except ValueError:
            raise UsageError(f"{where} must be {kind.__name__}, got {value!r}") from None
    if choices is not None and value not in choices:
        raise UsageError(f"{where} must be one of {list(choices)}, got {value!r}")
    return value


def _merged_config(args: argparse.Namespace) -> SimpleNamespace:
    """Defaults, then --config values, then explicit flags.

    A config key names a long flag of the command other than ``--config``,
    with ``_`` for ``-`` (``n_points`` sets what ``--n-points`` sets), and its
    value is checked by :func:`_config_value`; any other key raises UsageError.
    """
    names = ("out", *SUBCOMMANDS[args.command][1])
    dests = {name: FLAGS[name].get("dest", name.replace("-", "_")) for name in names}
    merged = {dest: DEFAULTS[dest] for dest in dests.values() if dest in DEFAULTS}
    explicit = {k: v for k, v in vars(args).items() if k != "command"}
    config_path = explicit.pop("config", None)
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        loaded = json.loads(path.read_text())
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"config {path} must be a JSON object")
        for key, value in loaded.items():
            key, name = key.replace("-", "_"), key.replace("_", "-")
            if name not in dests:
                raise UsageError(f"config {path}: {key!r} names no flag of {args.command}")
            merged[dests[name]] = _config_value(FLAGS[name], value, f"config {path}: {key}")
    merged.update(explicit)
    return SimpleNamespace(**merged)


def _outdir(cfg) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_study(cfg):
    if getattr(cfg, "study", None) is None:
        raise FileNotFoundError("--study is required")
    return cfio.read_study(cfg.study, getattr(cfg, "manifest", None))


def _cycle_params(cfg) -> CycleParams:
    return CycleParams(
        n_points=cfg.n_points,
        n_radial=cfg.n_radial,
        rotation_deg_total=cfg.rotation_deg,
        material=Material(cfg.young, cfg.poisson),
        mode=cfg.mode,
        n_sectors=cfg.sectors,
    )


# ---------------------------------------------------------------------------
# phantom-verify


def cmd_phantom_verify(cfg) -> int:
    if getattr(cfg, "phantom_spec", None):
        spec = cfio.read_phantom_spec(cfg.phantom_spec)
    else:
        spec = RingSpec(1.0, 2.0, material=Material(cfg.young, cfg.poisson))
    report = verify_ring(spec, cfg.n_points, cfg.n_radial, cfg.sectors)
    out = _outdir(cfg)

    with (out / "convergence.csv").open("w") as fh:
        fh.write("n_angular,n_radial,h,l2_error,observed_order\n")
        for i, ((na, nr), err) in enumerate(zip(report.resolutions, report.l2_errors)):
            h = (spec.outer_radius - spec.inner_radius) / nr
            order = "" if i == 0 else repr(report.orders[i - 1])
            fh.write(f"{na},{nr},{h!r},{err!r},{order}\n")
    print(f"[convergence] L2 errors: {['%.3e' % e for e in report.l2_errors]}")
    print(f"[convergence] observed orders: {['%.3f' % o for o in report.orders]}")
    for check in report.checks:
        print(check.line)

    t, p = report.traction, report.pipeline
    columns = zip(t.mean_displacement.tolist(), p.mean_displacement.tolist(),
                  t.mean_effective.tolist(), p.mean_effective.tolist(),
                  report.stiff_sectors.tolist())
    with (out / "sector_comparison.csv").open("w") as fh:
        fh.write("sector,mean_disp_traction,mean_disp_pipeline,"
                 "mean_effective_traction,mean_effective_pipeline,stiff\n")
        for s, (md_t, md_p, me_t, me_p, stiff) in enumerate(columns):
            fh.write(f"{s},{md_t!r},{md_p!r},{me_t!r},{me_p!r},{int(stiff)}\n")

    print(f"wrote {out / 'convergence.csv'} and {out / 'sector_comparison.csv'}")
    if report.failures:
        print(f"FAILED checks: {', '.join(report.failures)}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# analyze and the small single-step commands


def _fields_vtk_job(path, res) -> tuple:
    """``write_mesh_vtk`` arguments of one frame result's displacement and
    strain fields on its mesh."""
    sf = res.strain
    return (
        path, res.model.mesh, {"displacement": res.displacement.values},
        {"eps_x": sf.eps_x, "eps_y": sf.eps_y, "gamma_xy": sf.gamma_xy,
         "effective": sf.effective},
    )


def cmd_analyze(cfg) -> int:
    check_tau(cfg.tau)
    ref_paths = getattr(cfg, "reference", None) or []
    ref_manifests = list(getattr(cfg, "reference_manifest", None) or [])
    if len(ref_manifests) > len(ref_paths):
        raise UsageError(f"more --reference-manifest files ({len(ref_manifests)}) "
                         f"than --reference studies ({len(ref_paths)})")
    study = _load_study(cfg)
    # a reference without its own manifest takes the subject's
    ref_manifests += [getattr(cfg, "manifest", None)] * (len(ref_paths) - len(ref_manifests))
    references = [cfio.read_study(path, m) for path, m in zip(ref_paths, ref_manifests)]
    out = _outdir(cfg)
    params = _cycle_params(cfg)

    curve = normalized_volume_curve(study)
    cfio.write_volume_csv(out / "volume_curve.csv", curve)

    per_slice = [cycle_strain_analysis(study, params, i) for i in range(len(study.slices))]
    jobs = [_fields_vtk_job(out / f"fields_slice{sl.index}_frame{res.frame_index}.vtk", res)
            for sl, results in zip(study.slices, per_slice) for res in results]
    # the VTK writers run while the tables are written and the reference analysed
    with cfio.field_vtk_export(jobs):
        for sl, results in zip(study.slices, per_slice):
            cfio.write_sector_csv(
                out / f"sector_timeseries_slice{sl.index}.csv",
                [r.sectors for r in results],
                [r.frame_index for r in results],
            )
            with (out / f"strain_aggregates_slice{sl.index}.csv").open("w") as fh:
                fh.write("frame,mean_effective,max_effective\n")
                for r in results:
                    fh.write(
                        f"{r.frame_index},{float(np.mean(r.strain.effective))!r},"
                        f"{float(np.max(r.strain.effective))!r}\n"
                    )

        if references:
            for sl_pos, (sl, results) in enumerate(zip(study.slices, per_slice)):
                ref_runs = []
                for ref_study in references:
                    ref_results = cycle_strain_analysis(ref_study, params, slice_index=sl_pos)
                    ref_runs.append([r.sectors for r in ref_results])
                reference = average_sector_summaries(ref_runs)
                loc = infarct_localization([r.sectors for r in results], reference, cfg.tau)
                cfio.write_localization_json(out / f"localization_slice{sl.index}.json", loc)
                flagged = loc.suspected_sectors
                print(f"slice {sl.index}: " + (f"suspected sectors {list(flagged)}"
                                               if flagged else "no suspected sectors"))
    print(f"artifacts written to {out}")
    return 0


def cmd_synth(cfg) -> int:
    if cfg.kind == "phantom-cycle":
        study = phantom_cycle_study(n_points=cfg.n_points, n_steps=cfg.n_frames - 1)
    else:
        generator = healthy_study if cfg.kind == "healthy" else mi_wedge_study
        study = generator(
            seed=cfg.seed, n_frames=cfg.n_frames, n_points=cfg.n_points,
            contraction_inner=cfg.contraction, contraction_outer=cfg.contraction / 2.0,
            rotation_deg_total=cfg.rotation_deg,
        )
    out = _outdir(cfg)
    cfio.write_study_csv(out / "contours.csv", study)
    cfio.write_manifest(out / "manifest.json", study)
    cfio.write_study_json(out / "study.json", study)
    print(f"wrote {out / 'contours.csv'}, {out / 'manifest.json'}, {out / 'study.json'}")
    return 0


def _selected_frame(cfg, study, first: int, default: int) -> tuple[int, int]:
    """The slice position chosen by --slice (default 0) and the frame chosen by
    --frame, in first..n_frames-1 (default ``default``, negative from the end)."""
    position = getattr(cfg, "slice_index", 0)
    if not isinstance(position, int) or not 0 <= position < len(study.slices):
        raise UsageError(f"--slice must be in 0..{len(study.slices) - 1}, got {position!r}")
    n = study.slices[position].n_frames
    frame = getattr(cfg, "frame", default % n)
    if not isinstance(frame, int) or not first <= frame < n:
        raise UsageError(f"--frame must be in {first}..{n - 1}, got {frame!r}")
    return position, frame


def _frame_result(cfg, study):
    """The --frame result of the --slice cycle analysis, the frame-0 model
    that ``analyze`` solves on; every frame of the slice is checked."""
    position, frame = _selected_frame(cfg, study, first=1, default=-1)
    return cycle_strain_analysis(study, _cycle_params(cfg), position)[frame - 1]


def cmd_mesh(cfg) -> int:
    study = _load_study(cfg)
    position, frame = _selected_frame(cfg, study, first=0, default=0)
    fc = study.slices[position].frames[frame]
    *_, mesh = frame_mesh(fc, cfg.n_points, cfg.n_radial, f"frame {frame}")
    report = validate(mesh)
    out = _outdir(cfg)
    print(report)
    cfio.write_mesh_vtk(out / "mesh.vtk", mesh)
    cfio.write_mesh_csv(out / "nodes.csv", out / "elements.csv", mesh)
    print(f"wrote {out / 'mesh.vtk'}, {out / 'nodes.csv'}, {out / 'elements.csv'}")
    return 0 if report.passed else 1


def cmd_solve(cfg) -> int:
    res = _frame_result(cfg, _load_study(cfg))
    out = _outdir(cfg)
    frame, m = res.frame_index, res.model
    cfio.write_mesh_vtk(out / f"displacement_frame{frame}.vtk", m.mesh,
                        point_vectors={"displacement": res.displacement.values})
    cfio.write_displacement_csv(out / f"displacement_frame{frame}.csv", m.mesh, res.displacement)
    if getattr(cfg, "dump_system", False):
        # the frame's boundary values eliminated from the model's stiffness
        values = res.displacement.values.ravel()[m.fixed]
        cfio.dump_system(out / f"system_frame{frame}", apply_dirichlet(m.system, m.fixed, values))
    print(f"artifacts written to {out}")
    return 0


def cmd_strain(cfg) -> int:
    res = _frame_result(cfg, _load_study(cfg))
    out = _outdir(cfg)
    frame = res.frame_index
    cfio.write_mesh_vtk(*_fields_vtk_job(out / f"strain_frame{frame}.vtk", res))
    cfio.write_strain_csv(out / f"strain_frame{frame}.csv", res.strain)
    cfio.write_sector_csv(out / f"sectors_frame{frame}.csv", [res.sectors], [frame])
    print(f"artifacts written to {out}")
    return 0


def cmd_volume(cfg) -> int:
    curve = normalized_volume_curve(_load_study(cfg))
    out = _outdir(cfg)
    cfio.write_volume_csv(out / "volume_curve.csv", curve)
    print(f"volume curve written to {out / 'volume_curve.csv'}; "
          f"min/max ratio {curve.min_over_max:.4f}")
    return 0


COMMANDS = {
    "phantom-verify": cmd_phantom_verify,
    "analyze": cmd_analyze,
    "synth": cmd_synth,
    "mesh": cmd_mesh,
    "solve": cmd_solve,
    "strain": cmd_strain,
    "volume": cmd_volume,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        cfg = _merged_config(args)
        return COMMANDS[args.command](cfg)
    except (OSError, json.JSONDecodeError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
