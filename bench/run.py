"""Closed-loop benchmark of the cardiofem pipeline.

    python3 bench/run.py --workload analyze-mi --seed 5 --seconds 20 --trace 0

Runs one workload (see ``workloads.py`` and ``BENCHMARK.json``) from the
root of a source checkout: one client in one process, each op starting when
the previous one ends, until ``--seconds`` have passed (at least two ops).
Every op's outputs are checked; an exception, a non-zero exit or a failed
check counts the op as failed.

``--trace 0`` reports the end-to-end metrics. ``setup_s`` and ``study_s``
are rescaled to a nominal host speed by calibration passes run between
samples (see ``calibration.py``); the wall-time median is printed beside
them. ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics of the traced ones
(medians over ops), the share of op wall time covered by layer spans, and
the tracing overhead (traced minus untraced median op time). Spans are
written to ``.bench_out/`` in the checkout when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without the
package sources under ``src/`` the run exits with a non-zero status and
prints no result.
"""

from __future__ import annotations

import os

# Set before numpy loads; inherited by the set-up subprocesses.
# numpy and scipy each bundle an OpenBLAS whose default pool would give the
# process more threads than cores; the workloads do no large dense algebra.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# numpy asks for transparent huge pages on large arrays; whether the kernel
# grants them varies from run to run and so would peak RSS.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import ctypes

# glibc adapts its mmap and trim thresholds to the order of earlier frees,
# which made peak RSS differ by up to 20 % between identical runs and slowed
# ops that churn large temporaries. Pin both at the ceiling the adaptation
# climbs to (32 MiB, twice that for trimming), as in a warmed-up process.
MALLOC_THRESHOLDS = {"mmap": 32 * 1024 * 1024, "trim": 64 * 1024 * 1024}
_libc = ctypes.CDLL(None)  # the C library the interpreter runs on
if hasattr(_libc, "mallopt"):
    _libc.mallopt(-3, MALLOC_THRESHOLDS["mmap"])  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, MALLOC_THRESHOLDS["trim"])  # M_TRIM_THRESHOLD
else:
    MALLOC_THRESHOLDS = None

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9
SETUP_CODE = (
    "import time; t = time.perf_counter(); import cardiofem; "
    "print(time.perf_counter() - t)"
)
END_TO_END_UNITS = {"setup_s": "s", "study_s": "s", "peak_rss_mb": "MB"}
# BENCHMARK.json gates the first and the last; the other two are kept for
# manual runs (see README.md).
WORKLOADS = ("analyze-mi", "cycle-fine", "ingest-dense", "phantom-verify")


def load_package():
    """Import cardiofem from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "cardiofem" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cardiofem

    if SRC.resolve() not in Path(cardiofem.__file__).resolve().parents:
        raise SystemExit(f"error: cardiofem imported from {cardiofem.__file__}, not {SRC}")
    return cardiofem


def measure_setup(calibrate) -> list[float]:
    """Times to ``import cardiofem`` in fresh interpreters, at nominal host speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples, passes = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
        passes.append(calibrate())
    return calibration.scaled(samples, passes)


def _read(path: Path, default: str = "unknown") -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return default


def os_threads() -> int:
    for line in _read(Path("/proc/self/status"), "").splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return 1


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports."""
    libs = sorted({
        line.split()[-1] for line in _read(Path("/proc/self/maps"), "").splitlines()
        if "openblas" in line.lower() and ".so" in line
    })
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "openblas_get_num_threads", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(lib).name] = int(getter())
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = next(
        (line.split(":", 1)[1].strip()
         for line in _read(Path("/proc/cpuinfo"), "").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") != "Instruction":
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_cache": caches.get("L2", "unknown"),
        "l3_cache": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "process_threads": os_threads(),
        "malloc_thresholds": MALLOC_THRESHOLDS,
    }


def high_percentile(samples: list[float]):
    """Highest of p50..p99.9 with at least ten samples beyond it, or None."""
    for permille in (999, 990, 950, 900, 750, 500):
        if len(samples) * (1000 - permille) >= 10 * 1000:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return permille / 10, cuts[permille - 1]
    return None


MIN_OPS = 2


def run_ops(workload, seconds: float, calibrate, tracer=None):
    """Closed loop: ops back to back until ``seconds`` have passed.

    A run makes at least ``MIN_OPS`` ops, so that an op longer than the run
    still yields a median of two and every run's peak RSS covers a repeated
    op. A calibration pass runs before the first op and after every op.
    With a tracer, ops alternate untraced and traced and the loop ends
    after a traced op. Returns (untraced op times, traced op times, failed
    ops, observed values of the last op, calibration pass times).
    """
    tmp_root = OUT / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    plain, traced, failed, observed = [], [], 0, {}
    passes = [calibrate()]
    start = perf_counter()
    while True:
        trace_this = tracer is not None and len(plain) > len(traced)
        outdir = Path(tempfile.mkdtemp(dir=tmp_root))
        t0 = perf_counter()
        try:
            if trace_this:
                with tracer.op() as op_trace:
                    t0 = perf_counter()
                    result = workload.op(outdir)
                    op_trace.wall = perf_counter() - t0
                elapsed = op_trace.wall
            else:
                t0 = perf_counter()
                result = workload.op(outdir)
                elapsed = perf_counter() - t0
            problems, observed = workload.check(result, outdir)
        except Exception:  # a failing op is counted and the loop goes on
            elapsed = perf_counter() - t0
            problems = [traceback.format_exc(limit=3)]
        finally:
            result = None  # so the next op's peak memory holds only its own outputs
            shutil.rmtree(outdir, ignore_errors=True)
        passes.append(calibrate())
        (traced if trace_this else plain).append(elapsed)
        if problems:
            failed += 1
            print(f"op {len(plain) + len(traced)} failed: {'; '.join(problems)}", file=sys.stderr)
        done = perf_counter() - start >= seconds and len(plain) + len(traced) >= MIN_OPS
        if done and (tracer is None or len(traced) == len(plain)):
            return plain, traced, failed, observed, passes


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload, print a readable report and return the result object."""
    cardiofem = load_package()
    import tracer as layer_tracer
    import workloads

    calibrate = calibration.Calibration()
    setup = None if trace else measure_setup(calibrate)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = workloads.make(name, seed, workdir, size)
        tracer = layer_tracer.Tracer(cardiofem) if trace else None
        plain, traced, failed, observed, passes = run_ops(workload, seconds, calibrate, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    env["host_factor"] = calibration.host_factor(passes)
    if env["process_threads"] > env["nproc"]:
        raise SystemExit(
            f"error: load ran with {env['process_threads']} threads on {env['nproc']} cpus"
        )

    attempted = len(plain) + len(traced)
    study_wall_s = statistics.median(plain)
    print(f"workload {name} seed {seed}: {attempted} ops, {failed} failed")
    if not trace:
        frames = workload.frames_per_op
        study = calibration.scaled(plain, passes)
        setup_s, study_s = statistics.median(setup), statistics.median(study)
        tail = high_percentile(study)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": setup_s, "study_s": study_s, "peak_rss_mb": rss_mb}
        print(f"  host_factor    {env['host_factor']:.4f}  (median calibration pass / "
              f"{calibration.NOMINAL_S} s; setup_s and study_s are rescaled by it)")
        print(f"  setup_s        {setup_s:.4f} s  (median of {SETUP_REPEATS} fresh imports)")
        print(f"  study_s        {study_s:.4f} s  (median of {len(plain)} ops: "
              + " ".join(f"{t:.3f}" for t in study) + ")")
        print(f"  study_wall_s   {study_wall_s:.4f} s  (median of the same ops' wall times)")
        print("  study_s tail   " + (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else
                                    "n/a (needs >= 20 ops)"))
        print("  frames_per_s   " + (f"{frames * len(plain) / sum(plain):.4f} 1/s" if frames else
                                    "n/a (no frame pairs in this workload)"))
        print(f"  peak_rss_mb    {rss_mb:.1f} MB")
        print(f"  failed_ratio   {failed / attempted:.4f} ratio  ({failed}/{attempted})")
        print("  ring_l2_error  " + (f"{observed['ring_l2_error']:.6e} ratio"
                                    if "ring_l2_error" in observed else "n/a"))
        units = END_TO_END_UNITS
    else:
        per_op = [op.metrics() for op in tracer.ops]
        metrics = {m: statistics.median(op[m] for op in per_op) for m in per_op[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - study_wall_s
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_spans(spans_path)
        units = layer_tracer.UNITS
        for metric, unit in units.items():
            print(f"  {metric:32s} {metrics[metric]:.6g} {unit}")
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    print("env " + json.dumps(env, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
