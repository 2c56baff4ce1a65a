import math
import os
import warnings

import numpy as np
import pytest

# hypothesis writes a failing example's patch through libcst, whose import
# warns through the deprecated mypy_extensions.TypedDict; under the suite's
# filterwarnings = error that warning would abort the run with an
# INTERNALERROR, so the patch writer is imported once here with it ignored
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from cardiofem.contours import Contour, FrameContours
from cardiofem.fem import solve

TWO_PI = 2.0 * math.pi


def star_contour(n=32, radius=10.0, center=(0.0, 0.0), seed=None, amplitude=0.05):
    """Star-shaped test contour; modes 2..5 keep the vertex centroid at center."""
    theta = TWO_PI * np.arange(n) / n
    r = np.full(n, radius)
    if seed is not None:
        rng = np.random.default_rng(seed)
        for mode in (2, 3, 4, 5):
            r += amplitude * radius * rng.uniform(0.1, 0.5) * np.cos(
                mode * theta + rng.uniform(0, TWO_PI)
            )
    pts = np.asarray(center, dtype=float) + r[:, None] * np.column_stack(
        [np.cos(theta), np.sin(theta)]
    )
    return Contour(pts)


def circle_frame(frame_index=0, inner_r=1.0, outer_r=2.0, n=32, center=(0.0, 0.0)):
    return FrameContours(
        frame_index,
        star_contour(n, inner_r, center),
        star_contour(n, outer_r, center),
    )


@pytest.fixture
def ring_mesh():
    from cardiofem import RingSpec
    from cardiofem.phantom import make_ring

    return make_ring(RingSpec(1.0, 2.0), 16, 2)


def region_ring(spec, n_angular, n_radial, region):
    """``make_ring``'s mesh of ``spec`` with ``region`` assigned over its base
    material by ``region_material_field``: (mesh, materials)."""
    from cardiofem.materials import region_material_field
    from cardiofem.phantom import make_ring

    mesh, _ = make_ring(spec, n_angular, n_radial)
    return mesh, region_material_field(mesh, spec.material, region, spec.center)


def boundary_dirichlet(mesh, values):
    """Sorted dofs of every boundary node and their values in the (V, 2) ``values``."""
    nodes = np.union1d(mesh.boundary_nodes("inner"), mesh.boundary_nodes("outer"))
    fixed = (2 * nodes[:, None] + np.arange(2)).ravel()
    return fixed, np.asarray(values, dtype=float).ravel()[fixed]


def bits(a) -> tuple:
    """dtype, shape and bytes of ``a``: equal for arrays with the same bits,
    signed zeros included, where ``np.array_equal`` takes -0.0 for 0.0."""
    a = np.ascontiguousarray(a)
    return a.dtype, a.shape, a.tobytes()


def solve_one(system, fixed, values):
    """The solution of ``system`` with the one set ``values`` on the dofs ``fixed``."""
    (disp,) = solve(system, fixed, np.asarray(values, dtype=float)[:, None])
    return disp


def cpus(monkeypatch, n):
    """Pretend the process may run on ``n`` CPUs; returns the list of fork pids."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
