from pathlib import Path

import cardiofem
import cardiofem.cli  # noqa: F401  the tracer wraps every layer module
import cardiofem.io  # noqa: F401

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_finds_every_function_it_names(monkeypatch):
    # the benchmark's traced run times and counts functions by name; one that
    # the package no longer has makes building the tracer raise
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    tracer.Tracer(cardiofem)
