"""Deterministic synthetic studies for testing and demonstration.

Generators build near-circular wall contours with seeded low-order radial
perturbation (angular modes 2..5 only, so the vertex centroid stays at the
generation center) and deform them over the cycle by radial contraction,
optional rigid rotation, and, for the infarct variant, an angular wedge
whose boundary points barely move. A caller sets the seed, the sizes and the
motion; the geometry, the subject ids and the wedge are the module constants
below. :func:`phantom_cycle_study` packages the unit ring's pressure ramp as
a study.
"""

from __future__ import annotations

import math

import numpy as np

from .contours import TWO_PI, Contour, FrameContours, rotate_about
from .errors import ConfigurationError, GeometryError
from .phantom import RingSpec, pressure_load_cycle
from .study import Slice, Study

SYNTH_KINDS = ("healthy", "mi-wedge", "phantom-cycle")

INNER_RADIUS, OUTER_RADIUS = 30.0, 50.0
CENTER = (128.0, 128.0)
PERTURBATION = 0.02  # radial perturbation amplitude, a fraction of the radius
SLICE_SPACING = 8.0
HEALTHY_ID, MI_ID = "synthetic-healthy", "synthetic-mi"
# mi_wedge_study's wedge: start and end angle (degrees), the fraction of the
# healthy motion its points keep, and the transition and margin widths (degrees)
WEDGE = (90.0, 180.0, 0.03, 12.0, 5.0)


def _perturbed_radii(rng: np.random.Generator, base_radius: float, theta):
    radii = np.full(len(theta), float(base_radius))
    for mode in (2, 3, 4, 5):
        amp = PERTURBATION * base_radius * rng.uniform(0.2, 1.0) / 4.0
        phase = rng.uniform(0.0, TWO_PI)
        radii += amp * np.cos(mode * theta + phase)
    return radii


def _base_walls(rng, n_points, center):
    theta = TWO_PI * np.arange(n_points) / n_points
    r_in = _perturbed_radii(rng, INNER_RADIUS, theta)
    r_out = _perturbed_radii(rng, OUTER_RADIUS, theta)
    unit = np.column_stack([np.cos(theta), np.sin(theta)])
    return theta, center + r_in[:, None] * unit, center + r_out[:, None] * unit


def _wedge_motion_factor(theta_deg, start_deg, end_deg, inert, transition_deg, margin_deg):
    """Motion scale: `inert` inside [start, end), ramping to 1 outside.

    The inert plateau extends ``margin_deg`` past the wedge on both sides and
    the smooth transitions sit entirely outside that, so every wedge point
    moves by exactly the inert fraction and the steep strain gradient stays
    clear of the wedge sectors.
    """
    a = np.mod(theta_deg - start_deg, 360.0)
    span = (end_deg - start_deg) % 360.0 or 360.0
    # each point's distance past the nearer end of the inert plateau
    past = np.minimum(a - span - margin_deg, 360.0 - margin_deg - a)
    t = np.clip(past / transition_deg, 0.0, 1.0)
    return inert + (1.0 - inert) * (t * t * (3.0 - 2.0 * t))  # a smoothstep ramp


def healthy_study(
    seed: int = 0,
    n_frames: int = 20,
    n_points: int = 64,
    n_slices: int = 1,
    contraction: float = 0.3,
    rotation_deg_total: float = 0.0,
) -> Study:
    """Contracting (and optionally rotating) synthetic left-ventricle study.

    Frame k scales inner-wall points radially about the center by
    1 - contraction * k / (n_frames - 1), outer-wall points by half that
    contraction, and rotates them clockwise by
    rotation_deg_total * k / (n_frames - 1). The contraction must be finite
    and below 1 (at 1 the inner wall shrinks to its center), the rotation finite.
    """
    return _modulated_study(HEALTHY_ID, None, seed, n_frames, n_points, n_slices,
                            contraction, rotation_deg_total)


def mi_wedge_study(
    seed: int = 0,
    n_frames: int = 20,
    n_points: int = 64,
    n_slices: int = 1,
    contraction: float = 0.3,
    rotation_deg_total: float = 0.0,
) -> Study:
    """Same study as :func:`healthy_study` for the same seed, except boundary
    points inside the 90-180 degree wedge move by only 3 % of their healthy
    displacement."""
    return _modulated_study(MI_ID, WEDGE, seed, n_frames, n_points, n_slices,
                            contraction, rotation_deg_total)


def _modulated_study(subject_id, wedge, seed, n_frames, n_points, n_slices,
                     contraction, rotation_deg_total) -> Study:
    if n_frames < 2:
        raise ConfigurationError("need at least 2 frames")
    if not (math.isfinite(contraction) and contraction < 1.0):
        raise ConfigurationError(f"contraction must be finite and below 1, got {contraction!r}")
    if not math.isfinite(rotation_deg_total):
        raise ConfigurationError(f"rotation_deg_total must be finite, got {rotation_deg_total!r}")
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    c = np.asarray(CENTER, dtype=float)
    slices = []
    for s in range(n_slices):
        theta, inner0, outer0 = _base_walls(rng, n_points, c)
        factor = np.ones(n_points)
        if wedge is not None:
            factor = _wedge_motion_factor(np.degrees(theta), *wedge)

        frames = []
        for k in range(n_frames):
            t = k / (n_frames - 1)
            healthy_in = c + (1.0 - contraction * t) * (inner0 - c)
            healthy_out = c + (1.0 - contraction / 2.0 * t) * (outer0 - c)
            if rotation_deg_total != 0.0:
                rot = -math.radians(rotation_deg_total * t)  # clockwise
                healthy_in = rotate_about(healthy_in, c, rot)
                healthy_out = rotate_about(healthy_out, c, rot)
            pts_in = inner0 + factor[:, None] * (healthy_in - inner0)
            pts_out = outer0 + factor[:, None] * (healthy_out - outer0)
            walls = Contour(pts_in), Contour(pts_out)
            try:
                frames.append(FrameContours(k, *walls))
            except GeometryError:
                raise ConfigurationError(f"contraction {contraction!r} moves the inner wall out "
                                         f"of the outer wall at frame {k}") from None
        slices.append(Slice(index=s, frames=tuple(frames)))
    return Study(subject_id, tuple(slices), SLICE_SPACING)


def phantom_cycle_study(n_points: int = 64, n_steps: int = 10) -> Study:
    """The unit ring (radii 1 and 2) under the pressures k / n_steps,
    k = 0..n_steps, as a single-slice study."""
    if n_steps < 1:
        raise ConfigurationError("n_steps must be >= 1")
    pressures = [k / n_steps for k in range(n_steps + 1)]
    frames = pressure_load_cycle(RingSpec(inner_radius=1.0, outer_radius=2.0), pressures, n_points)
    return Study("phantom-cycle", (Slice(index=0, frames=tuple(frames)),), spacing=1.0)
