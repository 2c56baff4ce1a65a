"""Every public name of the package has a reason to be public."""

import ast
from pathlib import Path

import cardiofem

SRC = Path(cardiofem.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _public_definitions():
    """``module.name`` of each public module-level function and class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def _public_members():
    """``module.Class.name`` of each public method and property of a public
    class, and its name."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _names_used_in_src(attributes_only: bool = False) -> set[str]:
    """Every name that code in src/ reads, bare or as an attribute (only as
    an attribute with ``attributes_only``); names in docstrings, comments and
    import lists do not count."""
    used = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not attributes_only:
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
        and qual not in traced
    )
    assert uncalled == [], f"public names with no caller in src/: {uncalled}"


def test_every_public_member_has_a_reader():
    # a method or property is reached through its object, so src/ must read
    # it as an attribute somewhere
    used = _names_used_in_src(attributes_only=True)
    unread = sorted(qual for qual, name in _public_members() if name not in used)
    assert unread == [], f"public methods and properties never read in src/: {unread}"


def test_only_contours_spells_the_polar_angle_and_pi():
    # contours owns the polar angle (_polar_angles) and 2*pi (TWO_PI); every
    # other module calls them, so the angular convention has one owner
    def spelled(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy", "math")
                    and node.attr in ("arctan2", "pi")):
                yield f"{path.stem}:{node.lineno} {node.value.id}.{node.attr}"
            elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "math"):
                yield from (f"{path.stem}:{node.lineno} from {node.module} import {a.name}"
                            for a in node.names if a.name in ("arctan2", "pi"))

    assert list(spelled(SRC / "contours.py")), "the scan finds contours' own uses"
    others = [hit for path in sorted(SRC.glob("*.py")) if path.stem != "contours"
              for hit in spelled(path)]
    assert others == [], f"polar angle or pi outside contours: {others}"
