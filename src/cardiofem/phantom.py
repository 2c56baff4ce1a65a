"""Pressurized-ring verification experiment and its analytic oracle.

The phantom is a thick-walled ring under uniform internal pressure with a
traction-free outer wall. Two mutually independent reference solutions are
available: the closed-form plane-strain radial displacement of the
homogeneous ring, and a traction-loaded finite-element solve that works for
inhomogeneous (stiff-sector) rings as well. A pressure cycle turns either
into a sequence of displaced wall contours, feeding the contour pipeline
exactly like cardiac data. :func:`verify_ring` runs the verification suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contours import Contour, FrameContours, Point2, boundary_displacements
from .errors import ConfigurationError, GeometryError, UsageError
from .fem import (
    apply_traction,
    assemble,
    boundary_conditions_from_displacements,
    boundary_dof_map,
    internal_pressure_tractions,
    remove_rigid_motion,
    solve,
)
from .materials import AngularRegion, Material, region_material_field
from .meshing import triangulate_annulus
from .strain import SectorSummary, sector_average, strain_field

TWO_PI = 2.0 * math.pi


def circle_contour(radius: float, center, n: int, label: str) -> Contour:
    if radius <= 0.0:
        raise GeometryError(f"circle radius must be positive, got {radius}")
    c = np.asarray(center, dtype=float).reshape(2)
    theta = TWO_PI * np.arange(n) / n
    pts = c + radius * np.column_stack([np.cos(theta), np.sin(theta)])
    return Contour(pts, label)


@dataclass(frozen=True)
class RingSpec:
    """Geometry, material, and load schedule of the verification ring."""

    inner_radius: float
    outer_radius: float
    center: Point2 = Point2(0.0, 0.0)
    material: Material = Material(1e4, 0.3)
    regions: tuple[AngularRegion, ...] = ()
    pressures: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not (0.0 < self.inner_radius < self.outer_radius):
            raise ConfigurationError(
                f"need 0 < inner radius < outer radius, got "
                f"{self.inner_radius}, {self.outer_radius}"
            )
        pressures = tuple(float(p) for p in self.pressures)
        if any(not math.isfinite(p) for p in pressures):
            raise ConfigurationError("pressures must be finite")
        object.__setattr__(self, "pressures", pressures)
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(
            self, "center", Point2(float(self.center[0]), float(self.center[1]))
        )

    @property
    def homogeneous(self) -> bool:
        return len(self.regions) == 0

    def with_pressure_ramp(self, p_max: float, n_steps: int) -> "RingSpec":
        """Replace the load schedule with n_steps equal increments from zero."""
        if n_steps < 1:
            raise ConfigurationError("n_steps must be >= 1")
        ramp = tuple(p_max * k / n_steps for k in range(n_steps + 1))
        return RingSpec(
            self.inner_radius, self.outer_radius, self.center, self.material,
            self.regions, ramp,
        )


def make_ring(spec: RingSpec, n_angular: int = 64, n_radial: int = 8):
    """Mesh the ring and assign its (possibly inhomogeneous) materials."""
    inner = circle_contour(spec.inner_radius, spec.center, n_angular, "inner")
    outer = circle_contour(spec.outer_radius, spec.center, n_angular, "outer")
    mesh = triangulate_annulus(inner, outer, n_angular, n_radial)
    materials = region_material_field(mesh, spec.material, spec.regions, spec.center)
    return mesh, materials


def lame_displacement(a: float, b: float, p: float, e_mod: float, nu: float, r):
    """Plane-strain radial displacement of the pressurized homogeneous ring.

    Internal pressure p at radius a, traction-free outer wall at radius b:

        u(r) = (1 + nu) * p * a^2 / (E * (b^2 - a^2)) * ((1 - 2 nu) r + b^2 / r)

    Vectorized over r; r must lie within [a, b].
    """
    if not (0.0 < a < b):
        raise ConfigurationError("need 0 < a < b")
    r_arr = np.asarray(r, dtype=float)
    tol = 1e-12 * b
    if np.any(r_arr < a - tol) or np.any(r_arr > b + tol):
        raise GeometryError("radius outside the ring wall [a, b]")
    factor = (1.0 + nu) * p * a * a / (e_mod * (b * b - a * a))
    out = factor * ((1.0 - 2.0 * nu) * r_arr + b * b / r_arr)
    return out if out.ndim else float(out)


def lame_strain_polar(a: float, b: float, p: float, e_mod: float, nu: float, r):
    """Analytic (radial, hoop) strain of the same solution, plane strain."""
    if not (0.0 < a < b):
        raise ConfigurationError("need 0 < a < b")
    r_arr = np.asarray(r, dtype=float)
    factor = (1.0 + nu) * p * a * a / (e_mod * (b * b - a * a))
    eps_r = factor * ((1.0 - 2.0 * nu) - b * b / (r_arr * r_arr))
    eps_t = factor * ((1.0 - 2.0 * nu) + b * b / (r_arr * r_arr))
    return eps_r, eps_t


def lame_displacement_at(spec: RingSpec, pressure: float, points) -> np.ndarray:
    """Analytic displacement vectors at arbitrary wall points."""
    pts = np.asarray(points, dtype=float)
    c = np.asarray(spec.center, dtype=float)
    rel = pts - c
    r = np.linalg.norm(rel, axis=1)
    u = lame_displacement(
        spec.inner_radius, spec.outer_radius, pressure, spec.material.E,
        spec.material.nu, r,
    )
    return (u / r)[:, None] * rel


def solve_ring_traction(
    spec: RingSpec,
    pressure: float,
    n_angular: int = 64,
    n_radial: int = 8,
    anchor_deg: float | None = None,
):
    """Neumann-loaded plane-strain solve of the ring under internal pressure.

    By default rigid modes are removed by pinning three symmetry dofs on the
    inner boundary (v at angles 0 and pi, u at angle pi/2) and the
    least-squares rigid motion is subtracted afterwards (strains are
    unaffected).

    ``anchor_deg`` instead supports the ring at one wall angle, mimicking a
    stiff (infarct-like) region that holds the wall in place: the inner node
    at that angle is fixed and the tangential dof of the matching outer node
    removes the remaining rotation, leaving radial straining free. The angle
    must be a multiple of 90 degrees so the tangential direction is a
    coordinate axis; no rigid detrending is applied in this mode.

    Requires n_angular divisible by 4. Returns (mesh, materials,
    displacement).
    """
    mesh, materials = make_ring(spec, n_angular, n_radial)
    system = assemble(mesh, materials, "plane-strain")
    disp = _traction_solve(mesh, system, pressure, n_angular, n_radial, anchor_deg)
    return mesh, materials, disp


def _traction_solve(mesh, system, pressure, n_angular, n_radial, anchor_deg=None):
    """The pinned solve of :func:`solve_ring_traction` on an assembled ring."""
    if n_angular % 4 != 0:
        raise ConfigurationError("n_angular must be divisible by 4 for the pin layout")
    if anchor_deg is not None and anchor_deg % 90.0 != 0.0:
        raise ConfigurationError("anchor_deg must be a multiple of 90 degrees")
    system = apply_traction(system, internal_pressure_tractions(mesh, pressure), mesh)
    if anchor_deg is None:
        quarter = n_angular // 4  # v at 0 (node 0), u at pi/2 (node quarter), v at pi
        pins = [1, 2 * quarter, 4 * quarter + 1]
    else:
        j = int(round(anchor_deg % 360.0 / 360.0 * n_angular)) % n_angular
        outer_node = n_radial * n_angular + j
        tangential_is_x = anchor_deg % 180.0 != 0.0  # at 90/270 deg tangent is +-x
        pins = [2 * j, 2 * j + 1, 2 * outer_node + (0 if tangential_is_x else 1)]
    (disp,) = solve(system, pins, np.zeros((len(pins), 1)))
    if anchor_deg is None:
        disp = remove_rigid_motion(mesh, disp)
    return disp


def pressure_load_cycle(
    spec: RingSpec,
    n_points: int = 64,
    n_radial: int = 8,
    method: str = "analytic",
) -> list[FrameContours]:
    """Wall contours of the ring at every pressure step of the schedule.

    ``method="analytic"`` displaces the circles by the closed-form solution
    (homogeneous rings only); ``method="fem"`` uses one traction-loaded unit
    solve, scaled per step by linearity, and supports stiff regions. Frame 0
    corresponds to the first scheduled pressure.
    """
    if not spec.pressures:
        raise ConfigurationError("ring spec has no pressure schedule")
    if method not in ("analytic", "fem"):
        raise ConfigurationError(f"method must be 'analytic' or 'fem', got {method!r}")
    if method == "analytic" and not spec.homogeneous:
        raise ConfigurationError("analytic cycle requires a homogeneous ring; use method='fem'")

    inner0 = circle_contour(spec.inner_radius, spec.center, n_points, "inner")
    outer0 = circle_contour(spec.outer_radius, spec.center, n_points, "outer")

    if method == "analytic":
        unit_inner = lame_displacement_at(spec, 1.0, inner0.points)
        unit_outer = lame_displacement_at(spec, 1.0, outer0.points)
    else:
        mesh, _, disp = solve_ring_traction(spec, 1.0, n_points, n_radial)
        unit_inner = disp.values[mesh.boundary_nodes("inner")]
        unit_outer = disp.values[mesh.boundary_nodes("outer")]
        # layer ordering of the structured mesh matches the contour samples
        if not np.allclose(mesh.nodes[mesh.boundary_nodes("inner")], inner0.points):
            raise GeometryError("mesh boundary does not match the reference contours")

    frames = []
    for k, p in enumerate(spec.pressures):
        inner = Contour(inner0.points + p * unit_inner, "inner")
        outer = Contour(outer0.points + p * unit_outer, "outer")
        frames.append(FrameContours(k, inner, outer))
    return frames


# ---------------------------------------------------------------------------
# verification suite


@dataclass(frozen=True)
class RingCheck:
    """One named pass/fail check of :func:`verify_ring` and its report line."""

    name: str
    passed: bool
    line: str


def _check(name: str, passed, text: str) -> RingCheck:
    return RingCheck(name, bool(passed), f"[{'PASS' if passed else 'FAIL'}] {text}")


@dataclass(frozen=True)
class RingVerification:
    """L2 errors and orders of the homogeneous rings at ``resolutions``, the
    stiff-wedge ring's sector summaries on both routes, and the checks."""

    resolutions: tuple[tuple[int, int], ...]
    l2_errors: tuple[float, ...]
    orders: tuple[float, ...]
    traction: SectorSummary
    pipeline: SectorSummary
    stiff_sectors: np.ndarray
    checks: tuple[RingCheck, ...]

    @property
    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def _walls(mesh, values):
    return values[mesh.boundary_nodes("inner")], values[mesh.boundary_nodes("outer")]


def _oracle_values(spec: RingSpec, mesh):
    """All boundary dofs of a ring mesh and their unit-pressure oracle values."""
    inner, outer = _walls(mesh, mesh.nodes)
    fixed, take = boundary_dof_map(mesh, inner, outer, spec.center)
    return fixed, lame_displacement_at(spec, 1.0, np.concatenate([inner, outer])).ravel()[take]


def _pipeline_values(mesh, disp, n_points: int) -> np.ndarray:
    """The values the contour pipeline reads off the walls deformed by ``disp``."""
    (inner, outer), (du_inner, du_outer) = _walls(mesh, mesh.nodes), _walls(mesh, disp.values)
    bd = boundary_displacements(
        FrameContours(0, Contour(inner, "inner"), Contour(outer, "outer")),
        FrameContours(1, Contour(inner + du_inner, "inner"), Contour(outer + du_outer, "outer")),
        n_points,
    )
    return boundary_conditions_from_displacements(mesh, bd, match="index")[1]


def _centroid_l2_error(spec: RingSpec, mesh, disp) -> float:
    """Area-weighted relative L2 displacement error sampled at centroids.

    Centroid sampling keeps the metric honest even when a coarse mesh has no
    interior nodes (all nodal values then equal the imposed boundary data).
    """
    areas = mesh.triangle_areas()
    num_at_centroids = disp.values[mesh.triangles].mean(axis=1)
    rel = mesh.triangle_centroids() - np.asarray(spec.center, dtype=float)
    dist = np.linalg.norm(rel, axis=1)
    a, b = spec.inner_radius, spec.outer_radius
    # clamp centroid radii into the wall: the polygonal mesh lies slightly
    # inside the true circles
    u = lame_displacement(a, b, 1.0, spec.material.E, spec.material.nu, np.clip(dist, a, b))
    exact_at_centroids = (u / dist)[:, None] * rel
    diff = num_at_centroids - exact_at_centroids
    diff2 = np.einsum("ij,ij->i", diff, diff)
    ref2 = np.einsum("ij,ij->i", exact_at_centroids, exact_at_centroids)
    return float(np.sqrt(np.sum(areas * diff2) / np.sum(areas * ref2)))


def verify_ring(
    spec: RingSpec, n_points: int = 64, n_radial: int = 8, n_sectors: int = 16
) -> RingVerification:
    """Verify the solver and the contour pipeline on the pressurized ring.

    Convergence against the oracle at half, base (n_points x n_radial) and
    double resolution, the traction solve against the oracle, the contour
    pipeline against the traction route, and a 10x stiffer 225-315 degree
    wedge as the strict sector minima on both routes. Each ring is meshed and
    assembled once (the wedge ring on the base mesh), and every solve that
    fixes all boundary dofs is condensed: on the base ring the oracle solve
    and the pipeline re-solve are two columns of one factor. ``n_sectors``
    must be at least 2, so that the wedge and the rest of the ring both hold
    a sector midpoint.
    """
    if n_sectors < 2:
        raise UsageError(f"sectors must be at least 2 for the stiff-wedge check, got {n_sectors}")
    resolutions = ((n_points // 2, max(n_radial // 2, 1)), (n_points, n_radial),
                   (n_points * 2, n_radial * 2))
    rings = [make_ring(spec, na, nr) for na, nr in resolutions]
    systems = [assemble(mesh, mats, "plane-strain") for mesh, mats in rings]
    oracle = [_oracle_values(spec, mesh) for mesh, _ in rings]
    (mesh, mats), fixed = rings[1], oracle[1][0]

    disp = _traction_solve(mesh, systems[1], 1.0, n_points, n_radial)
    columns = [[values] for _, values in oracle]
    columns[1].append(_pipeline_values(mesh, disp, n_points))
    solved = [solve(system, dofs, np.column_stack(cols))
              for system, (dofs, _), cols in zip(systems, oracle, columns)]
    errors = [_centroid_l2_error(spec, m, d[0]) for (m, _), d in zip(rings, solved)]
    orders = [math.log2(errors[i] / errors[i + 1]) if errors[i + 1] > 0.0 else math.inf
              for i in range(len(errors) - 1)]

    # independent traction-loaded cross-check of the oracle
    fine_mesh = rings[2][0]
    fine = _traction_solve(fine_mesh, systems[2], 1.0, *resolutions[2])
    exact = lame_displacement_at(spec, 1.0, fine_mesh.nodes)
    traction_err = float(np.linalg.norm(fine.values - exact) / np.linalg.norm(exact))

    def summary(materials, u):
        sf = strain_field(mesh, u, materials.nu)
        return sector_average(mesh, sf, u, spec.center, n_sectors)

    # the homogeneous field is purely radial, so the angular matching of the
    # deformed contours is exact up to interpolation
    md, md2 = summary(mats, disp).mean_displacement, summary(mats, solved[1][1]).mean_displacement
    route_gap = float(np.max(np.abs(md2 - md)) / np.max(md))

    # stiff wedge anchored at its mid angle
    stiff = AngularRegion(225.0, 315.0, Material(spec.material.E * 10.0, spec.material.nu))
    stiff_mats = region_material_field(mesh, spec.material, (stiff,), spec.center)
    stiff_system = assemble(mesh, stiff_mats, "plane-strain")
    stiff_disp = _traction_solve(mesh, stiff_system, 1.0, n_points, n_radial, anchor_deg=270.0)
    values = _pipeline_values(mesh, stiff_disp, n_points)[:, None]
    (stiff_disp2,) = solve(stiff_system, fixed, values)
    traction, pipeline = summary(stiff_mats, stiff_disp), summary(stiff_mats, stiff_disp2)
    mids = (np.arange(n_sectors) + 0.5) * (360.0 / n_sectors)
    stiff_sectors = (mids >= 225.0) & (mids < 315.0)
    stiff_sectors.setflags(write=False)

    checks = [
        _check("L2 error", errors[1] <= 0.01, f"mid-resolution L2 error {errors[1]:.3e} <= 1e-2"),
        _check("convergence order", min(orders) >= 1.7,
               f"min observed order {min(orders):.3f} >= 1.7"),
        _check("traction cross-check", traction_err <= 0.02,
               f"traction cross-check L2 {traction_err:.3e} <= 2e-2"),
        _check("route agreement", route_gap <= 0.05,
               f"pipeline/traction sector agreement {route_gap:.3e} <= 5e-2"),
    ]
    for route, summ in (("traction", traction), ("pipeline", pipeline)):
        md, me = summ.mean_displacement, summ.mean_effective
        checks.append(_check(
            f"stiff-sector minima ({route})",
            md[stiff_sectors].max() < md[~stiff_sectors].min()
            and me[stiff_sectors].max() < me[~stiff_sectors].min(),
            f"stiff-sector displacement and strain strict minima ({route} route)",
        ))
    return RingVerification(resolutions, tuple(errors), tuple(orders), traction, pipeline,
                            stiff_sectors, tuple(checks))
