"""The package's one fork helper: a zero-argument task runs in a forked child
beside the caller, as ``phantom.verify_ring`` verifies its fine ring. It
leaves BLAS threads alone: ``fem`` pins its two LAPACK calls to one OpenBLAS
thread itself."""

import contextlib
import os
import pickle


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if can_fork else 1


def _run(task):
    try:
        return True, task()
    except Exception as exc:
        return False, exc


@contextlib.contextmanager
def forked(task):
    """Run ``task`` in a forked child while the block runs; on one usable
    CPU, or when the fork fails, inline on entry. Yields a list that
    receives the task's result when the block is left without an error.
    Leaving the block reaps the child, also when the block raised, and the
    block's error wins; otherwise the task's exception is raised again with
    its own type and attributes. A child that exits without a payload, as
    when its outcome cannot be pickled, raises ChildProcessError naming its
    pid and exit status."""
    pid, result = None, []
    if usable_cpus() > 1:
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
        if pid == 0:  # the child pickles (ok, value) down the pipe and leaves by os._exit
            try:
                with open(w, "wb") as fh:
                    pickle.dump(_run(task), fh)
                os._exit(0)
            finally:
                os._exit(1)
        os.close(w)
    outcome = _run(task) if pid is None else None
    try:
        yield result
    finally:
        if pid is not None:  # the pipe is read to EOF and closed before the wait
            try:
                with open(r, "rb") as fh:
                    payload = fh.read()
            finally:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if pid is not None:
        if code != 0:
            raise ChildProcessError(f"worker {pid} exited with status {code}")
        outcome = pickle.loads(payload)
    ok, value = outcome
    if not ok:
        raise value
    result.append(value)
