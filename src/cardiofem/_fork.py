"""The package's one fork helper: zero-argument tasks run in forked children
beside the caller, as ``io.field_vtk_export`` writes its VTK shares and
``phantom.verify_ring`` verifies its fine ring."""

import contextlib
import os
import pickle

from .fem import _one_blas_thread


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if can_fork else 1


def _run(task):
    try:
        return True, task()
    except Exception as exc:
        return False, exc


def _start(task):
    """(pid, read end of its pipe) of a child that pickles ``_run(task)``
    down the pipe and leaves by ``os._exit``; None if the fork failed."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            ok, value = _run(task)
            try:
                payload = pickle.dumps((ok, value))
                pickle.loads(payload)
            except Exception as exc:  # sent as the text of what could not be pickled
                failure = exc if ok else value
                payload = pickle.dumps((False, str(failure) or type(failure).__name__))
            with open(w, "wb") as fh:
                fh.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _reap(pid: int, fd: int):
    """The child's ``(ok, result or exception)``, its pipe read to EOF and
    closed before it is waited for."""
    try:
        with open(fd, "rb") as fh:
            payload = fh.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        return False, ChildProcessError(f"worker {pid} exited with status {code}")
    ok, value = pickle.loads(payload)
    return ok, ChildProcessError(value) if isinstance(value, str) and not ok else value


@contextlib.contextmanager
def forked(tasks):
    """Run each task in its own forked child while the block runs.

    Yields a list that receives the tasks' results, in task order, when the
    block is left without an error. On one usable CPU, or when a fork fails,
    a task runs inline on entry instead. Leaving the block reaps every
    child, also when the block raised, and the block's error wins; otherwise
    the first failed task's exception is raised again with its own type and
    message. An exception that cannot be pickled arrives as a
    ChildProcessError of its text, as does a child that dies without a
    payload, naming its pid and exit status. numpy's OpenBLAS keeps to one
    thread meanwhile, so that its pool does not contend with the children.
    """
    parallel = usable_cpus() > 1
    outcomes, children, results = [None] * len(tasks), [], []
    with _one_blas_thread():
        try:
            for i, task in enumerate(tasks):
                child = _start(task) if parallel else None
                if child is None:
                    outcomes[i] = _run(task)
                else:
                    children.append((i, *child))
            yield results
        finally:
            for i, pid, fd in children:
                outcomes[i] = _reap(pid, fd)
    for ok, value in outcomes:
        if not ok:
            raise value
    results.extend(value for _, value in outcomes)
