"""Command-line interface.

Subcommands:

    phantom-verify   pressurized-ring verification suite (oracle + sectors)
    analyze          full study analysis: volumes, fields, sectors, flags
    synth            deterministic synthetic study generator
    mesh             mesh one frame and export it
    solve            solve one frame pair and export the displacement field
    strain           solve one frame pair and export strain + sector tables
    volume           volume curve of a study

Each subcommand accepts only the flags its ``COMMANDS`` entry names. Exit
codes: 0 success, 1 tolerance or validation failure, 2 usage or input error,
including a file that cannot be read, decoded or written, or a flag the
command does not take. A JSON config file (--config) may supply any long flag
of the command but --config by name (any other key is a usage error); argparse
parses each value as that flag's command-line text, and explicit flags
override config values. Input is read and checked before --out is made, and
analyze computes every result first, so a rejected run leaves no output
directory. The commands parse, dispatch and print: the library computes and
checks, and ``io`` reads and writes every file, --config included.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from types import SimpleNamespace

from . import io as cfio
from .errors import (ConfigurationError, GeometryError, MeshError, SolverError,
                     StarShapeError, UsageError)
from .fem import apply_dirichlet
from .materials import MODES, Material
from .meshing import validate
from .phantom import RingSpec, verify_ring
from .study import (CycleParams, cycle_strain_analysis, float_range_checked, frame_mesh,
                    localized_cycles, normalized_volume_curve)
from .synth import SYNTH_KINDS, healthy_study, mi_wedge_study, phantom_cycle_study


VALIDATION_ERRORS = (GeometryError, StarShapeError, MeshError, SolverError, ConfigurationError)

# every flag by its long name: its argparse keywords, with the default a run
# takes when neither the command line nor --config gives the flag
FLAGS = {
    "config": {"help": "JSON file supplying any long flag of the command by name"},
    "out": {"default": "cardiofem-out", "help": "output directory"},
    "study": {"default": None, "help": "study contour CSV or JSON"},
    "manifest": {"default": None, "help": "manifest JSON (for CSV studies)"},
    "reference": {"action": "append", "default": (),
                  "help": "reference study (repeatable); enables localization"},
    "reference-manifest": {"action": "append", "default": (),
                           "help": "manifest for the matching --reference CSV"},
    "phantom-spec": {"default": None, "help": "ring spec JSON (default: unit ring a=1 b=2)"},
    "kind": {"choices": SYNTH_KINDS, "default": "healthy"},
    "n-frames": {"type": int, "default": 20},
    "contraction": {"type": float, "default": 0.3,
                    "help": "inner-wall radial contraction fraction over the cycle"},
    "slice": {"type": int, "default": 0, "metavar": "SLICE_INDEX", "help": "slice index"},
    # None: the command's own default frame
    "frame": {"type": int, "default": None, "help": "target frame (reference is frame 0)"},
    "dump-system": {"action": "store_true", "default": False,
                    "help": "also dump K and F in matrix-market format"},
    "mode": {"choices": MODES, "default": "as-printed"},
    "sectors": {"type": int, "default": 16, "help": "number of angular sectors"},
    "tau": {"type": float, "default": 0.5, "help": "localization threshold fraction"},
    "n-points": {"type": int, "default": 64,
                 "help": "boundary resampling count / mesh angular resolution"},
    "n-radial": {"type": int, "default": 8, "help": "mesh radial resolution"},
    "rotation-deg": {"type": float, "default": 0.0,
                     "help": "total clockwise rotation over the cycle to compensate"},
    "seed": {"type": int, "default": 0, "help": "seed for synthetic generation"},
    "young": {"type": float, "default": 1e4, "help": "Young's modulus"},
    "poisson": {"type": float, "default": 0.3, "help": "Poisson's ratio"},
}

# the flags _cycle_params reads
_MODEL = ("mode", "sectors", "n-points", "n-radial", "rotation-deg", "young", "poisson")
_STUDY = ("study", "manifest")


def _outdir(cfg) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_study(cfg):
    if cfg.study is None:
        raise FileNotFoundError("--study is required")
    return cfio.read_study(cfg.study, cfg.manifest)


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
    if cfg.phantom_spec:
        spec = cfio.read_phantom_spec(cfg.phantom_spec)
    else:
        spec = RingSpec(1.0, 2.0, material=Material(cfg.young, cfg.poisson))
    report = verify_ring(spec, cfg.n_points, cfg.n_radial, cfg.sectors)
    convergence, sectors = cfio.write_ring_verification(_outdir(cfg), spec, report)
    print(f"[convergence] L2 errors: {['%.3e' % e for e in report.l2_errors]}")
    print(f"[convergence] observed orders: {['%.3f' % o for o in report.orders]}")
    for check in report.checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {check.detail}")
    print(f"wrote {convergence} and {sectors}")
    if report.failures:
        print(f"FAILED checks: {', '.join(report.failures)}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# analyze and the small single-step commands


def cmd_analyze(cfg) -> int:
    ref_paths, ref_manifests = cfg.reference, list(cfg.reference_manifest)
    if len(ref_manifests) > len(ref_paths):
        raise UsageError(f"more --reference-manifest files ({len(ref_manifests)}) "
                         f"than --reference studies ({len(ref_paths)})")
    study = _load_study(cfg)
    # a reference without its own manifest borrows the subject's
    own = len(ref_manifests)
    ref_manifests += [cfg.manifest] * (len(ref_paths) - own)
    references = [cfio.read_study(path, m, borrowed_manifest=i >= own)
                  for i, (path, m) in enumerate(zip(ref_paths, ref_manifests))]
    params = _cycle_params(cfg)
    # every result is computed before --out is made, so a failed run writes nothing
    curve = normalized_volume_curve(study)
    per_slice, localizations = localized_cycles(study, references, params, cfg.tau)
    out = _outdir(cfg)
    cfio.write_volume_csv(out / "volume_curve.csv", curve)
    for sl, results, loc in zip(study.slices, per_slice, localizations):
        for res in results:
            cfio.write_fields_vtk(out / f"fields_slice{sl.index}_frame{res.frame_index}.vtk", res)
        cfio.write_sector_csv(out / f"sector_timeseries_slice{sl.index}.csv", results)
        cfio.write_strain_aggregates_csv(out / f"strain_aggregates_slice{sl.index}.csv", results)
        if loc is not None:
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
            contraction=cfg.contraction, rotation_deg_total=cfg.rotation_deg,
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
    position = cfg.slice
    if not 0 <= position < len(study.slices):
        raise UsageError(f"--slice must be in 0..{len(study.slices) - 1}, got {position!r}")
    n = study.slices[position].n_frames
    frame = default % n if cfg.frame is None else cfg.frame
    if not first <= frame < n:
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
    *_, mesh = frame_mesh(fc, cfg.n_points, cfg.n_radial)
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
    if cfg.dump_system:
        # the frame's boundary values eliminated from the model's stiffness
        values = res.displacement.values.ravel()[m.fixed]
        cfio.dump_system(out / f"system_frame{frame}", apply_dirichlet(m.system, m.fixed, values))
    print(f"artifacts written to {out}")
    return 0


def cmd_strain(cfg) -> int:
    res = _frame_result(cfg, _load_study(cfg))
    out = _outdir(cfg)
    frame = res.frame_index
    cfio.write_fields_vtk(out / f"strain_frame{frame}.vtk", res)
    cfio.write_strain_csv(out / f"strain_frame{frame}.csv", res.strain)
    cfio.write_sector_csv(out / f"sectors_frame{frame}.csv", [res])
    print(f"artifacts written to {out}")
    return 0


def cmd_volume(cfg) -> int:
    curve = normalized_volume_curve(_load_study(cfg))
    out = _outdir(cfg)
    cfio.write_volume_csv(out / "volume_curve.csv", curve)
    print(f"volume curve written to {out / 'volume_curve.csv'}; "
          f"min/max ratio {curve.min_over_max:.4f}")
    return 0


# each subcommand's function, help and the flags it reads besides --config and --out
COMMANDS = {
    "phantom-verify": (cmd_phantom_verify, "run the ring verification suite",
                       ("phantom-spec", "sectors", "n-points", "n-radial", "young", "poisson")),
    "analyze": (cmd_analyze, "analyze a study end to end",
                (*_STUDY, "reference", "reference-manifest", "tau", *_MODEL)),
    "synth": (cmd_synth, "generate a synthetic study",
              ("kind", "n-frames", "contraction", "seed", "n-points", "rotation-deg")),
    "mesh": (cmd_mesh, "mesh one frame and export it",
             (*_STUDY, "slice", "frame", "n-points", "n-radial")),
    "solve": (cmd_solve, "solve one frame pair and export displacements",
              (*_STUDY, "slice", "frame", *_MODEL, "dump-system")),
    "strain": (cmd_strain, "solve one frame pair and export strain",
               (*_STUDY, "slice", "frame", *_MODEL)),
    "volume": (cmd_volume, "volume curve of a study", _STUDY),
}


def _command_parser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    """``parser`` with the flags of ``command``. Unset flags stay out of the
    namespace, so config values and defaults can be layered underneath."""
    for name in ("config", "out", *COMMANDS[command][2]):
        parser.add_argument(f"--{name}", **{**FLAGS[name], "default": argparse.SUPPRESS})
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardiofem",
        description="2D finite-element myocardial deformation and strain analysis",
    )
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")
    for command, (_, help_text, _) in COMMANDS.items():
        _command_parser(sub.add_parser(command, help=help_text), command)
    return parser


def _config_values(path: Path, command: str) -> dict:
    """The flag values the --config file ``path`` gives ``command``.

    A key names a long flag of the command other than ``--config``, with
    ``_`` for ``-`` (``n_points`` sets what ``--n-points`` sets); any other
    key raises UsageError. Each value becomes the flag's command-line text,
    ``--name=value``: one per string of a list given to a repeatable flag,
    and the bare flag for ``true``. argparse parses that text as it parses
    the command line, so only what text cannot carry is checked first: an
    on/off flag takes true or false, and a flag without a ``type`` strings.
    """
    loaded = cfio.read_json(path, "config file")
    if not isinstance(loaded, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    argv = []
    for name, value in {key.replace("_", "-"): value for key, value in loaded.items()}.items():
        key = name.replace("-", "_")
        if name not in ("out", *COMMANDS[command][2]):
            raise UsageError(f"config {path}: {key!r} names no flag of {command}")
        where, action = f"config {path}: {key}", FLAGS[name].get("action")
        if action == "store_true":
            if not isinstance(value, bool):
                raise UsageError(f"{where} must be true or false, got {value!r}")
            argv += [f"--{name}"] if value else []
            continue
        items = value if action == "append" and isinstance(value, list) else [value]
        if "type" not in FLAGS[name] and not all(isinstance(item, str) for item in items):
            kind = "a string or a list of strings" if action == "append" else "a string"
            raise UsageError(f"{where} must be {kind}, got {value!r}")
        argv += [f"--{name}={item}" for item in items]
    parser = _command_parser(argparse.ArgumentParser(exit_on_error=False), command)
    try:
        return vars(parser.parse_args(argv))
    except argparse.ArgumentError as exc:
        raise UsageError(f"config {path}: {exc}") from None


def _excluded(given, cause: str, names, reason: str) -> None:
    for name in names:
        if name.replace("-", "_") in given:
            raise UsageError(f"{cause} excludes --{name}: {reason}")


def _merged_config(args: argparse.Namespace) -> SimpleNamespace:
    """Defaults, then --config values (:func:`_config_values`), then explicit
    flags. A flag that another choice of the run would make it ignore raises
    UsageError, whether a flag or a config key gives either."""
    given = {k: v for k, v in vars(args).items() if k != "command"}
    config = given.pop("config", None)
    if config:
        given = {**_config_values(Path(config), args.command), **given}
    for dest, value in given.items():
        # argparse takes a "--" value for the end of the options, leaving a list
        if value == [] or isinstance(value, list) and [] in value:
            raise UsageError(f"argument --{dest.replace('_', '-')}: expected one argument")
    names = ("out", *COMMANDS[args.command][2])
    cfg = SimpleNamespace(**{**{n.replace("-", "_"): FLAGS[n]["default"] for n in names}, **given})
    if "phantom_spec" in given:
        _excluded(given, "--phantom-spec", ("young", "poisson"), "the spec sets the material")
    if given.get("kind") == "phantom-cycle":
        _excluded(given, "--kind phantom-cycle", ("seed", "contraction", "rotation-deg"),
                  "the phantom cycle is the unit ring under pressure")
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        cfg = _merged_config(args)
        with float_range_checked():
            return COMMANDS[args.command][0](cfg)
    except (OSError, UsageError, *VALIDATION_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, VALIDATION_ERRORS) else 2


if __name__ == "__main__":
    raise SystemExit(main())
