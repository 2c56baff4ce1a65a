"""Self-test of the benchmark at tiny sizes; runs in well under a minute.

    python3 bench/selftest.py

Runs every workload in ``run.WORKLOADS`` (the ones ``BENCHMARK.json``
gates and the ones kept for manual runs) untraced and twice traced at the
tiny sizes in ``workloads.SIZES`` and checks that:

- every op passes its output checks;
- the end-to-end and per-layer metrics emitted are exactly the ones
  ``BENCHMARK.json`` names, each with the unit it declares, so a renamed
  layer function cannot silently drop a per-layer metric;
- the traced counts repeat exactly and layer spans cover >= 90 % of op time;
- in a directory holding only ``BENCHMARK.json`` and the benchmark's files,
  the benchmark exits non-zero without printing a result.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

REPEATED_COUNTS = (
    "fem.factorizations",
    "study.cycle_calls",
    "meshing.meshes_built",
    "strain.elements",
    "contours.simple_checks",
)


def _declared(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def _emitted(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()
            if isinstance(m["value"], (int, float))}


def check_workload(name: str, spec: dict) -> list[str]:
    problems = []
    with contextlib.redirect_stdout(io.StringIO()):
        plain = run.measure(name, seed=5, seconds=0.0, trace=False, size="tiny")
        traced = [run.measure(name, seed=5, seconds=0.0, trace=True, size="tiny")
                  for _ in range(2)]
    for label, result in (("untraced", plain), ("traced", traced[0]), ("traced", traced[1])):
        if not result["correct"] or result["failed"]:
            problems.append(f"{name}: {label} run had failed ops")
    for key, result in (("end_to_end", plain), ("per_layer", traced[0])):
        declared, emitted = _declared(spec, key), _emitted(result)
        if emitted != declared:
            diff = sorted(set(declared.items()) ^ set(emitted.items()))
            problems.append(f"{name}: {key} metrics differ from BENCHMARK.json: {diff}")
    first, second = (r["metrics"] for r in traced)
    for count in REPEATED_COUNTS:
        if first[count]["value"] != second[count]["value"]:
            problems.append(f"{name}: {count} did not repeat")
    coverage = first["trace.coverage"]["value"]
    if coverage < 0.9:
        problems.append(f"{name}: layer spans cover {coverage:.3f} of op time")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """The benchmark must fail cleanly where the package sources are absent."""
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "5",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in run.WORKLOADS:
        found = check_workload(name, spec)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += found
    found = check_bare_directory(spec)
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
