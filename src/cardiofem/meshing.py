"""Structured triangular meshing of the annular wall region.

The mesh interpolates ``n_radial + 1`` node layers between angularly matched
inner and outer contour samples and splits each quad into two triangles along
the diagonal anchored at the node with the lower (angular, radial) indices.
The construction is deterministic, all triangles are counter-clockwise, and
the inner and outer boundary loops are the edges of the first and last layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contours import Contour, _read_only
from .errors import GeometryError, MeshError

#: Minimum interior angle (degrees) below which validate() warns.
QUALITY_ANGLE_DEG = 15.0


@dataclass(frozen=True)
class Mesh:
    """Immutable triangle mesh of an annulus with its two boundary loops."""

    nodes: np.ndarray          # (V, 2) float
    triangles: np.ndarray      # (F, 3) int, counter-clockwise
    inner_edges: np.ndarray    # (B, 2) int node pairs of the inner loop, traversal order
    outer_edges: np.ndarray    # (B, 2) int node pairs of the outer loop, traversal order

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        tris = np.array(self.triangles, dtype=np.int64)
        loops = {name: np.array(getattr(self, name), dtype=np.int64)
                 for name in ("inner_edges", "outer_edges")}
        if nodes.ndim != 2 or nodes.shape[1] != 2 or not np.all(np.isfinite(nodes)):
            raise MeshError("nodes must be a finite (V, 2) array")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise MeshError("triangles must be (F, 3)")
        if len(tris) and (tris.min() < 0 or tris.max() >= len(nodes)):
            raise MeshError("triangle node index out of range")
        for name, edges in loops.items():
            if edges.ndim != 2 or edges.shape[1] != 2:
                raise MeshError(f"{name} must be (B, 2)")
            if len(edges) and (edges.min() < 0 or edges.max() >= len(nodes)):
                raise MeshError(f"{name} node index out of range")
        _read_only(self, nodes=nodes, triangles=tris, **loops)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def cached(self, key, compute):
        """``compute()``, evaluated once per ``key`` and kept on this mesh.

        The mesh is read-only, so values derived from its geometry stay
        valid for its lifetime; an array, or each array of a tuple, is kept
        read-only.
        """
        memo = self.__dict__.setdefault("_memo", {})
        if key not in memo:
            memo[key] = value = compute()
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
        return memo[key]

    def triangle_areas(self) -> np.ndarray:
        """Signed areas; positive for counter-clockwise triangles."""
        p = self.nodes[self.triangles]
        v1 = p[:, 1] - p[:, 0]
        v2 = p[:, 2] - p[:, 0]
        return 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])

    def at_centroids(self, values: np.ndarray) -> np.ndarray:
        """The mean of nodal ``values`` (one row per node) over each triangle's three nodes."""
        t = self.triangles
        return (values[t[:, 0]] + values[t[:, 1]] + values[t[:, 2]]) / 3

    def triangle_centroids(self) -> np.ndarray:
        return self.at_centroids(self.nodes)

    def unique_edges(self) -> np.ndarray:
        """All undirected edges of the triangulation, one row per edge."""
        t = self.triangles
        pairs = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        pairs.sort(axis=1)
        return np.unique(pairs, axis=0)

    def boundary_nodes(self, label: str) -> np.ndarray:
        """Sorted unique node indices on the "inner" or "outer" boundary loop."""
        return np.unique({"inner": self.inner_edges, "outer": self.outer_edges}[label])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]
    warnings: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in self.checks]
        lines += [f"[WARN] {w}" for w in self.warnings]
        return "\n".join(lines)


def triangulate_annulus(inner: Contour, outer: Contour, n_angular: int, n_radial: int) -> Mesh:
    """Mesh the region between two angularly matched contours.

    Both contours must already be resampled to the same ``n_angular`` uniform
    angles about a common center, so that points with equal index correspond.
    Node layers are linear interpolations between matched point pairs.
    """
    if n_angular < 3:
        raise MeshError("n_angular must be >= 3")
    if n_radial < 1:
        raise MeshError("n_radial must be >= 1")
    if len(inner) != n_angular or len(outer) != n_angular:
        raise MeshError(
            f"contours must have exactly n_angular={n_angular} points "
            f"(got {len(inner)} inner, {len(outer)} outer)"
        )
    pi = inner.points
    po = outer.points
    thickness = np.linalg.norm(po - pi, axis=1)
    scale = float(np.max(np.abs(np.vstack([pi, po])))) or 1.0
    if np.any(thickness <= 1e-12 * scale):
        raise MeshError("degenerate zero-thickness sector between contours")

    fractions = np.arange(n_radial + 1)[:, None, None] / n_radial
    layers = pi[None, :, :] * (1.0 - fractions) + po[None, :, :] * fractions
    nodes = layers.reshape(-1, 2)

    # a: lowest (angle, radial) corner and diagonal anchor of each quad,
    # b/cc/d: its angular, diagonal and radial neighbours
    j = np.arange(n_angular, dtype=np.int64)
    jp = (j + 1) % n_angular
    layer = np.arange(n_radial, dtype=np.int64)[:, None] * n_angular
    a = (layer + j).ravel()
    b = (layer + jp).ravel()
    cc = b + n_angular
    d = a + n_angular
    triangles = np.stack([a, d, cc, a, cc, b], axis=1).reshape(-1, 3)

    inner_edges = np.column_stack([j, jp])
    mesh = Mesh(nodes, triangles, inner_edges, inner_edges + n_radial * n_angular)
    if np.any(mesh.triangle_areas() <= 0.0):
        raise GeometryError(
            "non-positive triangle area: contours cross or are inconsistently ordered"
        )
    return mesh


def _boundary_loop_closed(edges: np.ndarray) -> bool:
    """At least three edges form exactly one closed loop visiting each node twice."""
    flat = edges.ravel()
    _, counts = np.unique(flat, return_counts=True)
    if len(edges) < 3 or not np.all(counts == 2):
        return False
    # end 2*i + s is side s of edge i and other[e] the other end at its node;
    # the walk crosses an edge, moves on at its node and stops back at end 0
    pairs = np.argsort(flat, kind="stable").reshape(-1, 2)
    other = np.empty_like(flat)
    other[pairs[:, 0]], other[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    end, crossed = other[1], 1
    while end != 0:
        end, crossed = other[end ^ 1], crossed + 1
    return crossed == len(edges)


def min_interior_angle_deg(mesh: Mesh) -> float:
    p = mesh.nodes[mesh.triangles]
    u, v = np.roll(p, -1, axis=1) - p, np.roll(p, -2, axis=1) - p
    norms = np.linalg.norm(u, axis=2) * np.linalg.norm(v, axis=2)
    cosang = np.einsum("fij,fij->fi", u, v) / norms
    return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))).min())


def validate(mesh: Mesh) -> ValidationReport:
    """Run consistency checks and return a pass/fail report.

    A minimum interior angle below :data:`QUALITY_ANGLE_DEG` is reported as a
    warning rather than a failure, since thin-walled frames can legitimately
    produce slivers.
    """
    checks = []
    areas = mesh.triangle_areas()
    n_bad = int(np.count_nonzero(areas <= 0.0))
    checks.append(CheckResult("positive_areas", n_bad == 0,
                              f"{n_bad} of {mesh.n_triangles} triangles non-positive"))

    loops_ok = True
    details = []
    for lab, edges in (("inner", mesh.inner_edges), ("outer", mesh.outer_edges)):
        closed = _boundary_loop_closed(edges)
        loops_ok &= closed
        details.append(f"{lab}: {'closed' if closed else 'broken'} ({len(edges)} edges)")
    checks.append(CheckResult("boundary_loops", loops_ok, "; ".join(details)))

    n_edges = len(mesh.unique_edges())
    euler = mesh.n_nodes - n_edges + mesh.n_triangles
    checks.append(CheckResult(
        "euler_characteristic", euler == 0,
        f"V - E + F = {mesh.n_nodes} - {n_edges} + {mesh.n_triangles} = {euler}"))

    # imported here: only the mesh command validates, and `import cardiofem`
    # does not load scipy.spatial (~0.1 s)
    from scipy.spatial import cKDTree

    dup_pairs = cKDTree(mesh.nodes).query_pairs(r=1e-12)
    checks.append(
        CheckResult("distinct_nodes", len(dup_pairs) == 0, f"{len(dup_pairs)} duplicate pairs")
    )

    warnings = []
    min_angle = min_interior_angle_deg(mesh)
    if min_angle < QUALITY_ANGLE_DEG:
        warnings.append(
            f"minimum interior angle {min_angle:.2f} deg below quality "
            f"threshold {QUALITY_ANGLE_DEG:.2f} deg"
        )
    return ValidationReport(tuple(checks), tuple(warnings))

