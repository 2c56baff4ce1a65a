"""The benchmark's four workloads.

Each workload builds its inputs from the seed with ``cardiofem.synth`` and
writes them with the ``cardiofem.io`` writers when it is constructed, before
any timing. ``op(outdir)`` is the timed operation; ``check(result, outdir)``
verifies its outputs and returns the problems found plus observed values.
Functions are looked up on their modules at call time so that the traced
run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

from cardiofem import cli, study, synth
from cardiofem import io as cfio

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Sectors 4-7 span 90-180 degrees, the wedge that mi_wedge_study holds inert.
WEDGE_SECTORS = (4, 5, 6, 7)

# Full sizes are the benchmark; tiny sizes run the same code paths in
# seconds for the self-test.
SIZES = {
    "analyze-mi": {
        "full": {"n_frames": 20, "n_vertices": 64, "n_points": 128, "n_radial": 16},
        "tiny": {"n_frames": 4, "n_vertices": 64, "n_points": 32, "n_radial": 2},
    },
    "cycle-fine": {
        "full": {"n_frames": 20, "n_vertices": 64, "n_points": 256, "n_radial": 32},
        "tiny": {"n_frames": 4, "n_vertices": 64, "n_points": 32, "n_radial": 2},
    },
    "ingest-dense": {
        "full": {"n_frames": 20, "n_vertices": 512, "n_slices": 2, "n_points": 64, "n_radial": 8},
        "tiny": {"n_frames": 4, "n_vertices": 64, "n_slices": 2, "n_points": 16, "n_radial": 2},
    },
    "phantom-verify": {
        "full": {"n_points": 128, "n_radial": 16},
        "tiny": {"n_points": 32, "n_radial": 4},
    },
}


def _run_cli(argv):
    """``cardiofem.cli.main`` with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _write_csv_study(made, stem: Path):
    csv_path, manifest = stem.with_suffix(".csv"), stem.with_suffix(".json")
    cfio.write_study_csv(csv_path, made)
    cfio.write_manifest(manifest, made)
    return csv_path, manifest


class AnalyzeMI:
    """``cardiofem analyze`` on an MI-wedge study against one healthy reference."""

    def __init__(self, seed: int, workdir: Path, size: dict):
        n = size["n_frames"]
        kw = {"seed": seed, "n_frames": n, "n_points": size["n_vertices"]}
        mi_csv, mi_manifest = _write_csv_study(synth.mi_wedge_study(**kw), workdir / "mi")
        ref_csv, ref_manifest = _write_csv_study(synth.healthy_study(**kw), workdir / "healthy")
        self.argv = [
            "analyze", "--study", str(mi_csv), "--manifest", str(mi_manifest),
            "--reference", str(ref_csv), "--reference-manifest", str(ref_manifest),
            "--n-points", str(size["n_points"]), "--n-radial", str(size["n_radial"]),
        ]
        self.n_vtk = n - 1
        self.frames_per_op = 2 * (n - 1)  # the subject's frame pairs plus the reference's

    def op(self, outdir: Path):
        return _run_cli(self.argv + ["--out", str(outdir)])

    def check(self, result, outdir: Path):
        code, _, err = result
        problems = [] if code == 0 else [f"exit code {code}: {err.strip()}"]
        n_vtk = len(list(outdir.glob("fields_slice0_frame*.vtk")))
        if n_vtk != self.n_vtk:
            problems.append(f"{n_vtk} VTK files, expected {self.n_vtk}")
        if not (outdir / "sector_timeseries_slice0.csv").is_file():
            problems.append("sector CSV missing")
        loc = outdir / "localization_slice0.json"
        if not loc.is_file():
            problems.append("localization JSON missing")
        else:
            flagged = tuple(json.loads(loc.read_text())["suspected_sectors"])
            if flagged != WEDGE_SECTORS:
                problems.append(f"flagged sectors {flagged}, expected {WEDGE_SECTORS}")
        return problems, {}


class CycleFine:
    """``cycle_strain_analysis`` of an in-memory rotating MI-wedge study."""

    def __init__(self, seed: int, workdir: Path, size: dict):
        n = size["n_frames"]
        self.study = synth.mi_wedge_study(
            seed=seed, n_frames=n, n_points=size["n_vertices"], rotation_deg_total=6.0
        )
        self.params = study.CycleParams(
            n_points=size["n_points"], n_radial=size["n_radial"], rotation_deg_total=6.0
        )
        self.n_results = n - 1
        self.frames_per_op = n - 1
        reference = REFERENCE_DIR / f"cycle-fine-seed{seed}.json"
        self.reference = None
        if reference.is_file():
            stored = json.loads(reference.read_text())
            if stored["size"] == size:
                self.reference = np.array(stored["sector_effective"])

    def op(self, outdir: Path):
        return study.cycle_strain_analysis(self.study, self.params)

    def check(self, results, outdir: Path):
        problems = []
        if len(results) != self.n_results:
            problems.append(f"{len(results)} frame results, expected {self.n_results}")
        matrix = np.vstack([r.sectors.mean_effective for r in results])
        lowest = tuple(sorted(int(s) for s in np.argsort(matrix.mean(axis=0))[:4]))
        if lowest != WEDGE_SECTORS:
            problems.append(f"lowest-strain sectors {lowest}, expected {WEDGE_SECTORS}")
        if self.reference is not None and not (
            matrix.shape == self.reference.shape
            and np.allclose(matrix, self.reference, rtol=1e-9, atol=0.0)
        ):
            problems.append("sector strain matrix differs from the stored reference")
        return problems, {}


class IngestDense:
    """Read a dense two-slice study, then volume curve and incremental cycles."""

    def __init__(self, seed: int, workdir: Path, size: dict):
        made = synth.healthy_study(
            seed=seed, n_frames=size["n_frames"], n_points=size["n_vertices"],
            n_slices=size["n_slices"],
        )
        self.csv, self.manifest = _write_csv_study(made, workdir / "dense")
        self.params = study.CycleParams(
            n_points=size["n_points"], n_radial=size["n_radial"], reference="incremental"
        )
        self.n_slices = size["n_slices"]
        self.n_results = size["n_frames"] - 1
        self.frames_per_op = self.n_slices * self.n_results

    def op(self, outdir: Path):
        loaded = cfio.read_study(self.csv, self.manifest)
        curve = study.normalized_volume_curve(loaded)
        results = [
            study.cycle_strain_analysis(loaded, self.params, slice_index=i)
            for i in range(len(loaded.slices))
        ]
        return curve, results

    def check(self, result, outdir: Path):
        curve, per_slice = result
        problems = []
        # healthy_study contracts the inner wall radially by 0.3 at end systole
        es = float(np.min(curve.normalized))
        if abs(es - 0.49) > 1e-9:
            problems.append(f"normalized end-systolic volume {es!r}, expected 0.49")
        counts = [len(r) for r in per_slice]
        if counts != [self.n_results] * self.n_slices:
            problems.append(f"results per slice {counts}, expected {self.n_results}")
        return problems, {}


class PhantomVerify:
    """``cardiofem phantom-verify`` on the default ring at three resolutions.

    The ring is fixed, so this workload's inputs do not depend on the seed.
    """

    N_CHECKS = 6
    frames_per_op = None

    def __init__(self, seed: int, workdir: Path, size: dict):
        self.argv = [
            "phantom-verify", "--n-points", str(size["n_points"]),
            "--n-radial", str(size["n_radial"]),
        ]

    def op(self, outdir: Path):
        return _run_cli(self.argv + ["--out", str(outdir)])

    def check(self, result, outdir: Path):
        code, out, err = result
        problems = [] if code == 0 else [f"exit code {code}: {err.strip()}"]
        verdicts = [line.split("]", 1)[0] + "]" for line in out.splitlines()
                    if line.startswith(("[PASS]", "[FAIL]"))]
        if verdicts != ["[PASS]"] * self.N_CHECKS:
            problems.append(f"verdicts {verdicts}, expected {self.N_CHECKS} x [PASS]")
        observed = {}
        table = outdir / "convergence.csv"
        if table.is_file():
            with table.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            observed["ring_l2_error"] = float(rows[1]["l2_error"])
        else:
            problems.append("convergence.csv missing")
        return problems, observed


WORKLOADS = {
    "analyze-mi": AnalyzeMI,
    "cycle-fine": CycleFine,
    "ingest-dense": IngestDense,
    "phantom-verify": PhantomVerify,
}


def make(name: str, seed: int, workdir: Path, size: str = "full"):
    """Build workload ``name`` with its inputs written under ``workdir``."""
    return WORKLOADS[name](seed, workdir, SIZES[name][size])
