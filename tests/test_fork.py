import ast
import os
import time
from pathlib import Path

import pytest

from cardiofem import SolverError, _fork, fem
from cardiofem._fork import forked

from conftest import assert_no_child_left, cpus


def test_the_result_comes_back_from_the_child(monkeypatch):
    forks = cpus(monkeypatch, 2)
    with forked(lambda: ("a", os.getpid(), [1.5, 2])) as result:
        assert result == []
    ((text, pid, floats),) = result
    assert (text, floats) == ("a", [1.5, 2])
    assert forks == [pid] and pid != os.getpid()
    assert_no_child_left()


@pytest.mark.skipif(fem._LAPACK is None, reason="numpy without its bundled OpenBLAS")
@pytest.mark.parametrize("n_cpus", [1, 2])
def test_forked_leaves_the_openblas_thread_count_as_it_found_it(monkeypatch, n_cpus):
    # fem pins its own LAPACK calls, so the block and its children keep the
    # caller's count
    lapack, before = fem._LAPACK, fem._LAPACK.get_threads()
    lapack.set_threads(2)
    try:
        cpus(monkeypatch, n_cpus)
        with forked(lapack.get_threads) as result:
            assert lapack.get_threads() == 2
        assert result == [2]
        assert lapack.get_threads() == 2
        with pytest.raises(SolverError):
            with forked(lapack.get_threads):
                raise SolverError("the block failed")
        assert lapack.get_threads() == 2
    finally:
        lapack.set_threads(before)
    assert_no_child_left()


def test_fork_helper_imports_nothing_from_the_package():
    # a process utility only: nothing of the package's numerics reaches it
    nodes = list(ast.walk(ast.parse(Path(_fork.__file__).read_text())))
    modules = {alias.name for node in nodes if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {"." * node.level + (node.module or "") for node in nodes
                if isinstance(node, ast.ImportFrom)}
    assert not [m for m in modules if m.startswith(".") or m.split(".")[0] == "cardiofem"]


def test_one_cpu_runs_the_task_inline_on_entry(monkeypatch):
    forks = cpus(monkeypatch, 1)
    ran = []

    def task():
        ran.append(os.getpid())
        return "done"

    with forked(task) as result:
        assert ran == [os.getpid()] and result == []
    assert result == ["done"]
    assert forks == []


def test_a_failing_fork_runs_the_task_inline(monkeypatch):
    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    with forked(os.getpid) as result:
        pass
    assert result == [os.getpid()]


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_a_task_error_keeps_its_type_and_attributes(monkeypatch, n_cpus):
    def fail():
        raise SolverError("residual contract violated", 3)

    cpus(monkeypatch, n_cpus)
    with pytest.raises(SolverError, match="residual contract violated") as info:
        with forked(fail):
            pass
    assert info.value.column == 3
    assert_no_child_left()


def test_the_block_error_wins_and_the_child_is_reaped(monkeypatch, tmp_path):
    done = tmp_path / "done"

    def slow():
        time.sleep(0.2)
        done.write_text("ok")
        raise SolverError("task failed too")

    cpus(monkeypatch, 2)
    with pytest.raises(KeyError, match="block"):
        with forked(slow):
            raise KeyError("block")
    # the child finished before the error left the block
    assert done.read_text() == "ok"
    assert_no_child_left()


def test_an_outcome_that_cannot_be_pickled_ends_the_child_with_status_1(monkeypatch):
    # the child exits without a payload, so the parent names it like any dead child
    class LocalError(Exception):
        pass

    def fail():
        raise LocalError("defined inside a function")

    for task in (fail, lambda: (lambda: None)):
        forks = cpus(monkeypatch, 2)
        with pytest.raises(ChildProcessError) as info:
            with forked(task):
                pass
        assert str(info.value) == f"worker {forks[0]} exited with status 1"
    assert_no_child_left()


def test_a_child_that_dies_without_a_payload_is_named(monkeypatch):
    forks = cpus(monkeypatch, 2)
    with pytest.raises(ChildProcessError) as info:
        with forked(lambda: os._exit(3)):
            pass
    assert str(info.value) == f"worker {forks[0]} exited with status 3"
    assert_no_child_left()
