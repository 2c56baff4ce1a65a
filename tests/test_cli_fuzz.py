"""Fuzzed command lines: every bad input ends in one ``error:`` line.

A run either succeeds or exits 1 (validation) or 2 (usage or input) after
printing exactly one line that starts with ``error:``; an exception that
escapes ``cli.main`` fails the test with its traceback.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cardiofem import cli, synth
from cardiofem import io as cfio
from cardiofem.cli import main
from cardiofem.errors import UsageError

from oracles import cli_config_value

FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# any text a file can hold (surrogates have no encoding)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def study_files(tmp_path_factory):
    """A small two-slice, four-frame study as CSV (header and rows) and JSON."""
    root = tmp_path_factory.mktemp("fuzz-study")
    made = synth.healthy_study(seed=5, n_frames=4, n_points=12, n_slices=2)
    cfio.write_study_csv(root / "study.csv", made)
    cfio.write_manifest(root / "manifest.json", made)
    cfio.write_study_json(root / "study.json", made)
    with (root / "study.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    return root, rows[0], rows[1:]


def _run(argv):
    """Exit code and stderr of one command run in a fresh output directory."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([a.replace("{out}", out) for a in argv])
    return code, err.getvalue()


def _assert_one_error(code, err):
    lines = err.strip().splitlines()
    assert code in (1, 2), (code, err)
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def _write_csv(header, rows):
    fd, name = tempfile.mkstemp(suffix=".csv")
    with open(fd, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return Path(name)


def _run_csv(study_files, header, rows):
    root, _, _ = study_files
    path = _write_csv(header, rows)
    try:
        return _run(["volume", "--study", str(path), "--manifest", str(root / "manifest.json"),
                     "--out", "{out}"])
    finally:
        path.unlink()


def _parses(text, kind):
    try:
        kind(text)
    except ValueError:
        return False
    return True


NUMERIC_COLUMNS = {"slice": int, "frame": int, "point_index": int, "x": float, "y": float}

# each input file kind: the command line that reads the fuzzed file {bad},
# with the other inputs from the fuzz study's directory {root}
INPUT_KINDS = {
    "study JSON": ["volume", "--study", "{bad}.json"],
    "study CSV": ["volume", "--study", "{bad}.csv", "--manifest", "{root}/manifest.json"],
    "manifest": ["volume", "--study", "{root}/study.csv", "--manifest", "{bad}.json"],
    "config": ["volume", "--config", "{bad}.json"],
    "phantom spec": ["phantom-verify", "--phantom-spec", "{bad}.json"],
}


@pytest.mark.parametrize("kind", sorted(INPUT_KINDS))
@FUZZ
@given(content=st.binary())
@example(content=b"\xff\xfe{}")  # not UTF-8
@example(content=b"[" * 100_000)  # JSON nested deeper than the parser's recursion limit
@example(content=b"1" * 200_000)  # a CSV field over the csv module's size limit
def test_any_bytes_are_one_error_line(study_files, kind, content):
    # a CSV keeps a valid header and first row before the fuzzed bytes, so
    # that they reach the rows; any other input is the fuzzed bytes alone
    root, header, rows = study_files
    prefix = "".join(",".join(r) + "\r\n" for r in (header, rows[0])) if kind == "study CSV" else ""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.format(bad=Path(tmp, "bad"), root=root) for a in INPUT_KINDS[kind]]
        path = next(Path(a) for a in argv if a.startswith(tmp))
        path.write_bytes(prefix.encode() + content)
        _assert_one_error(*_run([*argv, "--out", "{out}"]))


@FUZZ
@given(st.data())
def test_non_numeric_field(study_files, data):
    _, header, rows = study_files
    column = data.draw(st.sampled_from(sorted(NUMERIC_COLUMNS)))
    kind = NUMERIC_COLUMNS[column]
    text = data.draw(TEXT.filter(lambda t: not _parses(t, kind)))
    row = data.draw(st.integers(0, len(rows) - 1))
    rows = [list(r) for r in rows]
    rows[row][header.index(column)] = text
    _assert_one_error(*_run_csv(study_files, header, rows))


@FUZZ
@given(st.data())
def test_missing_column(study_files, data):
    _, header, rows = study_files
    drop = header.index(data.draw(st.sampled_from(header)))
    keep = [i for i in range(len(header)) if i != drop]
    # with the column gone from the rows too, or only from the header
    short_rows = data.draw(st.booleans())
    rows = [[r[i] for i in keep] if short_rows else r for r in rows]
    _assert_one_error(*_run_csv(study_files, [header[i] for i in keep], rows))


@FUZZ
@given(st.data())
def test_bad_boundary_value(study_files, data):
    _, header, rows = study_files
    text = data.draw(TEXT.filter(lambda t: t.strip() not in ("inner", "outer")))
    row = data.draw(st.integers(0, len(rows) - 1))
    rows = [list(r) for r in rows]
    rows[row][header.index("boundary")] = text
    _assert_one_error(*_run_csv(study_files, header, rows))


@FUZZ
@given(st.data())
def test_gap_in_point_index(study_files, data):
    _, header, rows = study_files
    index = header.index("point_index")
    # drop a row that is not the last point of its contour
    candidates = [i for i, r in enumerate(rows) if int(r[index]) < 11]
    rows = list(rows)
    del rows[data.draw(st.sampled_from(candidates))]
    _assert_one_error(*_run_csv(study_files, header, rows))


def _bad_manifest_value(key, value):
    """Whether ``value`` is no valid ``key`` of a manifest: a frame count is an
    integer, a slice spacing a finite number > 0."""
    if isinstance(value, bool) or not isinstance(
        value, int if key == "frames_per_cycle" else (int, float)
    ):
        return True
    return key == "slice_spacing_mm" and not (math.isfinite(value) and value > 0)


@FUZZ
@given(st.sampled_from(["slice_spacing_mm", "frames_per_cycle"]), JSON_VALUES)
def test_badly_typed_manifest_value(study_files, key, value):
    root, header, rows = study_files
    manifest = json.loads((root / "manifest.json").read_text())
    if _bad_manifest_value(key, value):
        manifest[key] = value
    else:
        del manifest[key]
    csv_path = _write_csv(header, rows)
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "manifest.json"
        path.write_text(json.dumps(manifest))
        try:
            _assert_one_error(*_run(["volume", "--study", str(csv_path), "--manifest", str(path),
                                     "--out", out]))
        finally:
            csv_path.unlink()


@FUZZ
@given(
    st.sampled_from(["mesh", "solve", "strain"]),
    st.one_of(
        st.tuples(st.just("--slice"), st.integers(-10**9, 10**9).filter(lambda v: v not in (0, 1))),
        st.tuples(st.just("--frame"), st.integers(-10**9, 10**9).filter(lambda v: v not in range(4))),
    ),
)
def test_out_of_range_slice_or_frame(study_files, command, flag):
    root, _, _ = study_files
    name, value = flag
    code, err = _run([command, "--study", str(root / "study.json"), name, str(value),
                      "--out", "{out}"])
    _assert_one_error(code, err)
    assert code == 2


# flag name in a config file -> the type its command-line text is read as
CONFIG_FLAGS = {
    "sectors": int, "n_points": int, "n_radial": int, "rotation_deg": float,
    "young": float, "poisson": float, "slice": int, "frame": int,
    "mode": ("as-printed", "plane-strain"), "out": str, "study": str, "manifest": str,
}


def _badly_typed(kind, value):
    if kind is str:
        return not isinstance(value, str)
    if isinstance(kind, tuple):
        return value not in kind
    return isinstance(value, (bool, list, dict)) or value is None or not _parses(str(value), kind)


@FUZZ
@given(st.data())
def test_badly_typed_config_value(study_files, data):
    root, _, _ = study_files
    key = data.draw(st.sampled_from(sorted(CONFIG_FLAGS)))
    value = data.draw(JSON_VALUES.filter(lambda v: _badly_typed(CONFIG_FLAGS[key], v)))
    with tempfile.TemporaryDirectory() as out:
        # study and output directory come from the config too, so that no
        # flag overrides the fuzzed key
        config = Path(out) / "config.json"
        config.write_text(json.dumps({"study": str(root / "study.json"), "out": out, key: value}))
        _assert_one_error(*_run(["strain", "--config", str(config)]))


# every config key of every command: --out and the flags the command reads
CONFIG_KEYS = sorted((command, name) for command, (_, _, names) in cli.COMMANDS.items()
                     for name in ("out", *names))


def _flag_values(spec):
    """JSON values of every kind, with numbers, numeric text, the flag's
    choices and lists of text common enough that many are accepted."""
    choices = st.sampled_from(spec["choices"]) if "choices" in spec else st.nothing()
    numbers = st.integers(-10**6, 10**6) | st.floats()
    return st.one_of(JSON_VALUES, numbers, numbers.map(str), choices, st.booleans(),
                     st.lists(TEXT | choices, max_size=3), st.just("--"), st.just(["a", "--"]))


def _same(got, expected):
    if isinstance(expected, list):
        return list(got) == expected
    nan = isinstance(got, float) and got != got
    return type(got) is type(expected) and (got == expected or nan and expected != expected)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_config_value_parsed_as_the_former_check_took_it(data):
    # argparse parses a config value as its flag's command-line text: a value
    # the former check accepted gives the same value, one it rejected exits 2
    command, name = data.draw(st.sampled_from(CONFIG_KEYS))
    spec = cli.FLAGS[name]
    key = data.draw(st.sampled_from([name, name.replace("-", "_")]))
    value = data.draw(_flag_values(spec))
    try:
        expected = cli_config_value(spec, value, key)
    except UsageError:
        expected = UsageError
    runs = []
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setitem(cli.COMMANDS, command,
                   (lambda cfg: runs.append(cfg) or 0, *cli.COMMANDS[command][1:]))
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({key: value}))
        code, err = _run([command, "--config", str(config)])
    # argparse reads "--" as the end of the options, so no flag takes it as
    # its value, on the command line or in a config
    if expected is UsageError or value == "--" or isinstance(value, list) and "--" in value:
        _assert_one_error(code, err)
        assert code == 2 and runs == []
    else:
        assert (code, err) == (0, "")
        got = getattr(runs[0], name.replace("-", "_"))
        assert _same(got, expected), (got, expected)
