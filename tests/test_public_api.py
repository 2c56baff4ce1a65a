"""Every public name of the package has a reason to be public."""

import ast
from pathlib import Path

import cardiofem

SRC = Path(cardiofem.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# Public without a caller in src/: PAPER.md's first step orders "the
# endocardial and epicardial contour points ... with respect to the center of
# gravity of the endocardial contour", which this function does on its own.
ALLOWED = {"contours.angular_permutation"}


def _public_definitions():
    """``module.name`` of each public module-level function and class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def _names_used_in_src() -> set[str]:
    """Every name that code in src/ reads, bare or as an attribute; names in
    docstrings, comments and import lists do not count."""
    used = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_package_namespace_is_the_readme_api():
    assert sorted(cardiofem.__all__) == [
        "ConfigurationError", "CycleParams", "GeometryError", "MeshError", "RingSpec",
        "SolverError", "StarShapeError", "UsageError", "cycle_strain_analysis",
        "healthy_study", "infarct_localization", "mi_wedge_study",
        "normalized_volume_curve", "verify_ring",
    ]


def test_every_public_name_has_a_caller(monkeypatch):
    # a name the benchmark times or counts is public for the bench's sake
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    traced = {q for quals in tracer.TIMERS.values() for q in quals}
    traced |= set(tracer.CALL_COUNTS.values())
    used = _names_used_in_src()
    uncalled = sorted(
        qual for qual, name in _public_definitions()
        if name not in used and name not in cardiofem.__all__
        and qual not in traced and qual not in ALLOWED
    )
    assert uncalled == [], f"public names with no caller in src/: {uncalled}"
    for qual in ALLOWED:
        assert qual.split(".")[1] not in used, f"{qual} has a caller; drop its allowance"
