"""Pressurized-ring verification experiment and its analytic oracle.

The phantom is a thick-walled ring under uniform internal pressure with a
traction-free outer wall. Two mutually independent reference solutions are
available: the closed-form plane-strain radial displacement of the
homogeneous ring, and a traction-loaded finite-element solve of an assembled
ring, which works as well when a stiff-sector material field replaces the
ring's uniform one. A pressure cycle displaces the circles by the closed form
into a sequence of wall contours, feeding the contour pipeline exactly like
cardiac data. :func:`verify_ring` runs the verification suite, its fine ring
in a forked child when the process may use more than one CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fork import forked
from .contours import TWO_PI, Contour, FrameContours, boundary_displacements
from .errors import ConfigurationError, GeometryError
from .fem import (apply_traction, assemble, boundary_conditions_from_displacements,
                  boundary_dof_map, internal_pressure_tractions, remove_rigid_motion, solve)
from .materials import AngularRegion, Material, MaterialField, region_material_field
from .meshing import CheckResult, triangulate_annulus
from .strain import SectorSummary, sector_average, strain_field
from .study import CycleParams


def circle_contour(radius: float, center, n: int) -> Contour:
    if radius <= 0.0:
        raise GeometryError(f"circle radius must be positive, got {radius}")
    c = np.asarray(center, dtype=float).reshape(2)
    theta = TWO_PI * np.arange(n) / n
    pts = c + radius * np.column_stack([np.cos(theta), np.sin(theta)])
    return Contour(pts)


@dataclass(frozen=True)
class RingSpec:
    """Geometry and material of the verification ring."""

    inner_radius: float
    outer_radius: float
    center: tuple[float, float] = (0.0, 0.0)
    material: Material = Material(1e4, 0.3)

    def __post_init__(self):
        if not (0.0 < self.inner_radius < self.outer_radius < math.inf):
            raise ConfigurationError(
                f"need 0 < inner radius < outer radius < inf, got "
                f"{self.inner_radius}, {self.outer_radius}"
            )
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))


def make_ring(spec: RingSpec, n_angular: int = 64, n_radial: int = 8):
    """Mesh the ring and give every element the spec's material."""
    inner = circle_contour(spec.inner_radius, spec.center, n_angular)
    outer = circle_contour(spec.outer_radius, spec.center, n_angular)
    mesh = triangulate_annulus(inner, outer, n_radial)
    return mesh, MaterialField.uniform(mesh, spec.material)


def lame_displacement(a: float, b: float, p: float, e_mod: float, nu: float, r,
                      slack: float = 0.0):
    """Plane-strain radial displacement of the pressurized homogeneous ring.

    Internal pressure p at radius a, traction-free outer wall at radius b:

        u(r) = (1 + nu) * p * a^2 / (E * (b^2 - a^2)) * ((1 - 2 nu) r + b^2 / r)

    Vectorized over r; r must lie within [a, b], give or take 1e-12 * b plus
    ``slack``, the rounding the caller's radii carry.
    """
    if not (0.0 < a < b):
        raise ConfigurationError("need 0 < a < b")
    r_arr = np.asarray(r, dtype=float)
    tol = 1e-12 * b + slack
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
    """Analytic displacement vectors at arbitrary wall points, whose radii
    |p - c| may miss the wall by their rounding, up to 4 eps * max|p|."""
    pts = np.asarray(points, dtype=float)
    c = np.asarray(spec.center, dtype=float)
    rel = pts - c
    r = np.linalg.norm(rel, axis=1)
    slack = 4.0 * np.finfo(float).eps * np.max(np.abs(pts), initial=0.0)
    u = lame_displacement(spec.inner_radius, spec.outer_radius, pressure, spec.material.E,
                          spec.material.nu, r, slack)
    return (u / r)[:, None] * rel


def solve_ring_traction(mesh, system, pressure: float, anchor_deg: float | None = None):
    """Neumann-loaded solve of a ring under internal pressure.

    ``mesh`` is a ring from :func:`make_ring` and ``system`` its assembled
    stiffness (plane strain for the closed form to apply; any material
    field). By default rigid modes are removed by pinning three symmetry
    dofs on the inner boundary (v at angles 0 and pi, u at angle pi/2) and
    the least-squares rigid motion is subtracted afterwards (strains are
    unaffected).

    ``anchor_deg`` instead supports the ring at one wall angle, mimicking a
    stiff (infarct-like) region that holds the wall in place: the inner node
    at that angle is fixed and the tangential dof of the matching outer node
    removes the remaining rotation, leaving radial straining free. The angle
    must be a multiple of 90 degrees so the tangential direction is a
    coordinate axis; no rigid detrending is applied in this mode.

    Requires a number of nodes per wall divisible by 4. Returns the
    displacement.
    """
    inner, outer = mesh.boundary_nodes("inner"), mesh.boundary_nodes("outer")
    n_angular = len(inner)
    if n_angular % 4 != 0:
        raise ConfigurationError("n_angular must be divisible by 4 for the pin layout")
    if anchor_deg is not None and anchor_deg % 90.0 != 0.0:
        raise ConfigurationError("anchor_deg must be a multiple of 90 degrees")
    system = apply_traction(system, internal_pressure_tractions(mesh, pressure))
    if anchor_deg is None:
        quarter = n_angular // 4  # v at 0, u at pi/2, v at pi
        pins = [2 * inner[0] + 1, 2 * inner[quarter], 2 * inner[2 * quarter] + 1]
    else:
        j = int(round(anchor_deg % 360.0 / 360.0 * n_angular)) % n_angular
        tangential_is_x = anchor_deg % 180.0 != 0.0  # at 90/270 deg tangent is +-x
        pins = [2 * inner[j], 2 * inner[j] + 1, 2 * outer[j] + (0 if tangential_is_x else 1)]
    (disp,) = solve(system, pins, np.zeros((len(pins), 1)))
    if anchor_deg is None:
        disp = remove_rigid_motion(mesh, disp)
    return disp


def pressure_load_cycle(spec: RingSpec, pressures, n_points: int = 64) -> list[FrameContours]:
    """Wall contours of the homogeneous ring under each of ``pressures``
    (frame k under ``pressures[k]``), the circles displaced by the closed-form
    solution."""
    inner0 = circle_contour(spec.inner_radius, spec.center, n_points)
    outer0 = circle_contour(spec.outer_radius, spec.center, n_points)
    unit_inner = lame_displacement_at(spec, 1.0, inner0.points)
    unit_outer = lame_displacement_at(spec, 1.0, outer0.points)
    return [
        FrameContours(k, Contour(inner0.points + p * unit_inner),
                      Contour(outer0.points + p * unit_outer))
        for k, p in enumerate(pressures)
    ]


# ---------------------------------------------------------------------------
# verification suite


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
    checks: tuple[CheckResult, ...]

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
        FrameContours(0, Contour(inner), Contour(outer)),
        FrameContours(1, Contour(inner + du_inner), Contour(outer + du_outer)),
        n_points,
    )
    return boundary_conditions_from_displacements(mesh, bd)[1]


def _centroid_l2_error(spec: RingSpec, mesh, disp) -> float:
    """Area-weighted relative L2 displacement error sampled at centroids.

    Centroid sampling keeps the metric honest even when a coarse mesh has no
    interior nodes (all nodal values then equal the imposed boundary data).
    """
    areas = mesh.triangle_areas()
    num_at_centroids = mesh.at_centroids(disp.values)
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


def _fine_ring(spec: RingSpec, n_angular: int, n_radial: int) -> tuple[float, float]:
    """The centroid L2 error of the condensed oracle solve and the relative
    error of the traction solve against the oracle (an independent
    cross-check) on the homogeneous ring at ``n_angular`` x ``n_radial``."""
    mesh, mats = make_ring(spec, n_angular, n_radial)
    system = assemble(mesh, mats, "plane-strain")
    fixed, values = _oracle_values(spec, mesh)
    (disp,) = solve(system, fixed, values[:, None])
    traction = solve_ring_traction(mesh, system, 1.0)
    exact = lame_displacement_at(spec, 1.0, mesh.nodes)
    return (_centroid_l2_error(spec, mesh, disp),
            float(np.linalg.norm(traction.values - exact) / np.linalg.norm(exact)))


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
    must be at least 2, so that the wedge and the rest of the ring both hold a
    sector midpoint, ``n_points`` at least 8, so that the half-resolution ring
    is a contour, and divisible by 4 for the traction solve's pin layout, and
    :class:`CycleParams` bounds ``n_radial`` and the sector count; all raise
    ``ConfigurationError`` before any ring is built. The fine ring, the
    costliest, is one task that ``_fork.forked`` verifies in a child while
    this process verifies the rest, so a library caller forks when it may use
    more than one CPU; on one CPU, or when the fork fails, it is verified
    inline first, with the same results.
    """
    if n_sectors < 2:
        raise ConfigurationError(
            f"sectors must be at least 2 for the stiff-wedge check, got {n_sectors}")
    if n_points < 8:
        raise ConfigurationError(
            f"n_points must be at least 8 for the half-resolution ring, got {n_points}")
    if n_points % 4 != 0:
        raise ConfigurationError("n_points must be divisible by 4 for the traction solve's "
                                 f"pin layout, got {n_points}")
    CycleParams(n_points=n_points, n_radial=n_radial, n_sectors=n_sectors)
    resolutions = ((n_points // 2, max(n_radial // 2, 1)), (n_points, n_radial),
                   (n_points * 2, n_radial * 2))
    with forked(lambda: _fine_ring(spec, *resolutions[2])) as fine:
        rings = [make_ring(spec, na, nr) for na, nr in resolutions[:2]]
        systems = [assemble(mesh, mats, "plane-strain") for mesh, mats in rings]
        oracle = [_oracle_values(spec, mesh) for mesh, _ in rings]
        (mesh, mats), fixed = rings[1], oracle[1][0]

        disp = solve_ring_traction(mesh, systems[1], 1.0)
        columns = [[values] for _, values in oracle]
        columns[1].append(_pipeline_values(mesh, disp, n_points))
        solved = [solve(system, dofs, np.column_stack(cols))
                  for system, (dofs, _), cols in zip(systems, oracle, columns)]
        errors = [_centroid_l2_error(spec, m, d[0]) for (m, _), d in zip(rings, solved)]

        def summary(materials, u):
            sf = strain_field(mesh, u, materials.nu)
            return sector_average(mesh, sf, u, spec.center, n_sectors)

        # the homogeneous field is purely radial, so the angular matching of the
        # deformed contours is exact up to interpolation
        md = summary(mats, disp).mean_displacement
        md2 = summary(mats, solved[1][1]).mean_displacement
        route_gap = float(np.max(np.abs(md2 - md)) / np.max(md))

        # stiff wedge anchored at its mid angle
        stiff = AngularRegion(225.0, 315.0, Material(spec.material.E * 10.0, spec.material.nu))
        stiff_mats = region_material_field(mesh, spec.material, stiff, spec.center)
        stiff_system = assemble(mesh, stiff_mats, "plane-strain")
        stiff_disp = solve_ring_traction(mesh, stiff_system, 1.0, anchor_deg=270.0)
        values = _pipeline_values(mesh, stiff_disp, n_points)[:, None]
        (stiff_disp2,) = solve(stiff_system, fixed, values)
        traction, pipeline = summary(stiff_mats, stiff_disp), summary(stiff_mats, stiff_disp2)
    ((fine_error, traction_err),) = fine
    errors.append(fine_error)
    orders = [math.log2(errors[i] / errors[i + 1]) if errors[i + 1] > 0.0 else math.inf
              for i in range(len(errors) - 1)]
    stiff_sectors = stiff.contains((np.arange(n_sectors) + 0.5) * (360.0 / n_sectors))
    stiff_sectors.setflags(write=False)

    checks = [
        CheckResult("L2 error", errors[1] <= 0.01,
                    f"mid-resolution L2 error {errors[1]:.3e} <= 1e-2"),
        CheckResult("convergence order", min(orders) >= 1.7,
                    f"min observed order {min(orders):.3f} >= 1.7"),
        CheckResult("traction cross-check", traction_err <= 0.02,
                    f"traction cross-check L2 {traction_err:.3e} <= 2e-2"),
        CheckResult("route agreement", route_gap <= 0.05,
                    f"pipeline/traction sector agreement {route_gap:.3e} <= 5e-2"),
    ]
    for route, summ in (("traction", traction), ("pipeline", pipeline)):
        md, me = summ.mean_displacement, summ.mean_effective
        checks.append(CheckResult(
            f"stiff-sector minima ({route})",
            bool(md[stiff_sectors].max() < md[~stiff_sectors].min()
                 and me[stiff_sectors].max() < me[~stiff_sectors].min()),
            f"stiff-sector displacement and strain strict minima ({route} route)",
        ))
    return RingVerification(resolutions, tuple(errors), tuple(orders), traction, pipeline,
                            stiff_sectors, tuple(checks))
