"""Study-level analysis: volume curves, per-frame deformation solves across
the cycle, and infarct localization from sector strain comparisons.

A study holds one or more slices, each an ordered sequence of frame contours
with frame 0 at begin systole, and one slice spacing (mm) that all its slices
share. Each slice builds one frame-0 reference model, a ``SliceModel``:
:func:`frame_mesh` resamples both walls about the centroid of the inner wall
and meshes the wall between them, and the model holds that mesh, its stiffness
and the dofs every frame pair fixes (both components of all boundary nodes).
The CLI's ``mesh`` meshes a frame by :func:`frame_mesh`, and ``solve`` and
``strain`` read the model from their frame's result. Frame pairs are (0 -> k)
in the default cumulative mode or (k-1 -> k) in incremental mode, all solved
on the frame-0 model (small-strain assumption); rotation compensation per pair
follows a linear ramp that totals the configured systolic rotation.

Samples meet boundary nodes by one rule, angular order about the reference
center (``fem.boundary_dof_map``). In cumulative mode each later frame is
resampled once and its boundary values are the differences to the frame-0
walls, whose samples are the nodes themselves; in incremental mode each pair
has its own reference frame, whose samples meet the mesh's nodes by angle
(``fem.boundary_conditions_from_displacements``). The values of all pairs form
one (fixed dofs, pairs) array, the stiffness is condensed onto its free dofs
and factorized once per slice, and all pairs are solved as one multi-column
right-hand side (``fem.solve``). Strain is one vectorised B . d per frame,
with the B matrices and sector bins of the mesh computed once and kept on it.
:func:`localized_cycles` (``analyze``) checks ``tau`` and the references, then
runs the references' cycle analyses in a forked child beside the subject's.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._fork import forked
from .contours import (FrameContours, _read_only, boundary_displacements, centroid,
                       is_simple_polygon, polygon_area, uniform_angle_walls)
from .errors import ConfigurationError, GeometryError, SolverError
from .fem import (DisplacementField, LinearSystem, assemble, boundary_conditions_from_displacements,
                  boundary_dof_map, one_blas_thread, solve)
from .materials import Material, MaterialField
from .meshing import Mesh, triangulate_annulus
from .strain import SectorSummary, StrainField, sector_average, strain_field

REFERENCE_MODES = ("cumulative", "incremental")


@dataclass(frozen=True)
class Slice:
    """One short-axis slice: the frames of one cycle."""

    index: int
    frames: tuple[FrameContours, ...]

    def __post_init__(self):
        frames = tuple(self.frames)
        if not frames:
            raise ConfigurationError(f"slice {self.index} has no frames")
        for k, fc in enumerate(frames):
            if fc.frame_index != k:
                raise ConfigurationError(
                    f"slice {self.index}: frame indices must be contiguous from 0, "
                    f"found {fc.frame_index} at position {k}"
                )
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class Study:
    """A subject's slices (distinct indices) and the one slice spacing (mm) they share."""

    subject_id: str
    slices: tuple[Slice, ...]
    spacing: float

    def __post_init__(self):
        check_finite_positive("slice spacing", self.spacing)
        slices = tuple(self.slices)
        if not slices:
            raise ConfigurationError("study has no slices")
        indices = [s.index for s in slices]
        if len(set(indices)) != len(indices):
            raise ConfigurationError(f"slice indices must be distinct, got {indices}")
        counts = {s.n_frames for s in slices}
        if len(counts) != 1:
            raise ConfigurationError(f"inconsistent frame counts across slices: {counts}")
        object.__setattr__(self, "slices", slices)

    @property
    def n_frames(self) -> int:
        return self.slices[0].n_frames


@dataclass(frozen=True)
class VolumeCurve:
    """Cavity volumes over the cycle, raw and normalized by frame 0's."""

    raw: np.ndarray

    def __post_init__(self):
        _read_only(self, raw=np.array(self.raw, dtype=float))

    @property
    def normalized(self) -> np.ndarray:
        return self.raw / self.raw[0]

    @property
    def min_over_max(self) -> float:
        return float(np.min(self.raw) / np.max(self.raw))


@dataclass(frozen=True)
class CycleParams:
    """Configuration of the per-frame deformation analysis."""

    n_points: int = 64
    n_radial: int = 8
    rotation_deg_total: float = 0.0
    material: Material = Material(1e4, 0.3)
    mode: str = "as-printed"
    n_sectors: int = 16
    reference: str = "cumulative"

    def __post_init__(self):
        if self.n_points < 3:
            raise ConfigurationError("n_points must be >= 3")
        if self.n_radial < 1:
            raise ConfigurationError("n_radial must be >= 1")
        if self.n_sectors < 1:
            raise ConfigurationError("n_sectors must be >= 1")
        if self.n_sectors > 2 * self.n_points * self.n_radial:
            raise ConfigurationError(f"n_sectors must be at most the mesh's element count "
                                     f"{2 * self.n_points * self.n_radial}, got {self.n_sectors}")
        if not np.isfinite(self.rotation_deg_total):
            raise ConfigurationError(
                f"rotation_deg_total must be finite, got {self.rotation_deg_total!r}")
        if self.reference not in REFERENCE_MODES:
            raise ConfigurationError(
                f"reference must be one of {REFERENCE_MODES}, got {self.reference!r}"
            )


@dataclass(frozen=True)
class SliceModel:
    """A slice's frame-0 reference model: its mesh, the assembled stiffness
    system and the strictly increasing dofs that every frame pair fixes."""

    mesh: Mesh
    system: LinearSystem
    fixed: np.ndarray

    def __post_init__(self):
        _read_only(self, fixed=self.fixed)


@dataclass(frozen=True)
class FrameResult:
    """One frame pair's fields, on the frame-0 model shared by the whole slice."""

    frame_index: int
    displacement: DisplacementField
    strain: StrainField
    sectors: SectorSummary
    model: SliceModel


@dataclass(frozen=True)
class LocalizationResult:
    """A localization's strain matrices and threshold, and the sector flags they give."""

    subject_strain: np.ndarray    # (frames, sectors) sector-mean effective strain
    reference_strain: np.ndarray
    tau: float

    def __post_init__(self):
        _read_only(self, subject_strain=np.array(self.subject_strain, dtype=float),
                   reference_strain=np.array(self.reference_strain, dtype=float))

    @property
    def flags(self) -> tuple[str, ...]:
        """Per sector "suspected-infarct" if its mean strain is below tau times the reference's."""
        subj, ref = self.subject_strain.mean(axis=0), self.reference_strain.mean(axis=0)
        return tuple("suspected-infarct" if s < self.tau * r else "normal"
                     for s, r in zip(subj, ref))

    @property
    def suspected_sectors(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.flags) if f == "suspected-infarct")


# ---------------------------------------------------------------------------
# volume analytics


def ventricle_volume(study: Study, frame: int) -> float:
    """Slab-summed cavity volume of one frame: sum of |inner area| * spacing.
    A volume that overflows to infinity raises GeometryError."""
    total = 0.0
    for sl in study.slices:
        if frame < 0 or frame >= sl.n_frames:
            raise ConfigurationError(f"frame {frame} outside study range")
        inner = sl.frames[frame].inner
        if not is_simple_polygon(inner.points):
            raise GeometryError(f"slice {sl.index} frame {frame}: inner contour self-intersects")
        total += abs(polygon_area(inner.points)) * study.spacing
    if not np.isfinite(total):
        raise GeometryError(f"frame {frame}: volume {total} is not finite "
                            f"(slice spacing {study.spacing!r})")
    return total


def normalized_volume_curve(study: Study) -> VolumeCurve:
    """Per-frame volume normalized by the frame-0 (begin systole) volume."""
    if study.n_frames < 2:
        raise ConfigurationError("volume curve needs at least 2 frames")
    raw = np.array([ventricle_volume(study, k) for k in range(study.n_frames)])
    if raw[0] == 0.0:
        raise GeometryError("degenerate study: zero volume at frame 0")
    return VolumeCurve(raw)


# ---------------------------------------------------------------------------
# deformation analysis


@contextmanager
def _frame_errors(k: int):
    """Prefix geometry and configuration errors with the frame they belong to."""
    try:
        yield
    except (GeometryError, ConfigurationError) as exc:
        raise type(exc)(f"frame {k}: {exc}") from exc


def frame_mesh(fc: FrameContours, n_points: int, n_radial: int):
    """(center, inner, outer, mesh) of one frame: the centroid of its inner
    wall, both walls resampled onto ``n_points`` uniform angles about it (a
    failure names the frame) and the annular mesh between them."""
    center = centroid(fc.inner)
    inner, outer = uniform_angle_walls(fc, center, n_points)
    return center, inner, outer, triangulate_annulus(inner, outer, n_radial)


def cycle_strain_analysis(
    study: Study,
    params: CycleParams = CycleParams(),
    slice_index: int = 0,
) -> list[FrameResult]:
    """Solve the deformation of one slice for every frame pair of the cycle.

    Returns one result per target frame 1..n-1. All solves reuse the
    ``SliceModel`` built on frame-0 geometry and its one factorization, and
    every result carries that one model; in incremental mode the boundary
    samples of later reference frames are mapped onto its mesh by angle.
    Errors name the frame they belong to.
    """
    if slice_index < 0 or slice_index >= len(study.slices):
        raise ConfigurationError(f"slice index {slice_index} outside study")
    sl = study.slices[slice_index]
    frames = sl.frames
    n = len(frames)

    with _frame_errors(1):
        center, inner0, outer0, mesh = frame_mesh(frames[0], params.n_points, params.n_radial)
    materials = MaterialField.uniform(mesh, params.material)
    fixed, take = boundary_dof_map(mesh, inner0.points, outer0.points, center)
    model = SliceModel(mesh, assemble(mesh, materials, params.mode), fixed)

    step_rot = params.rotation_deg_total / (n - 1) if n > 1 else 0.0
    walls0 = np.concatenate([inner0.points, outer0.points])
    values = np.empty((len(fixed), n - 1))
    for k in range(1, n):
        with _frame_errors(k):
            if params.reference == "cumulative":
                inner, outer = uniform_angle_walls(frames[k], center, params.n_points, step_rot * k)
                vectors = np.concatenate([inner.points, outer.points]) - walls0
                values[:, k - 1] = vectors.ravel()[take]
            else:
                bd = boundary_displacements(frames[k - 1], frames[k], params.n_points, step_rot)
                values[:, k - 1] = boundary_conditions_from_displacements(mesh, bd)[1]
    try:
        disps = solve(model.system, fixed, values)
    except SolverError as exc:
        where = f"frame {exc.column + 1}" if exc.column is not None else f"frames 1-{n - 1}"
        raise SolverError(f"{where}: {exc}", exc.column) from exc

    results: list[FrameResult] = []
    for k, disp in enumerate(disps, start=1):
        sf = strain_field(mesh, disp, materials.nu)
        sectors = sector_average(mesh, sf, disp, center, params.n_sectors)
        results.append(FrameResult(k, disp, sf, sectors, model))
    return results


def _stack_sector_strain(summaries: Sequence[SectorSummary]) -> np.ndarray:
    if not summaries:
        raise ConfigurationError("empty sector summary sequence")
    widths = {s.n_sectors for s in summaries}
    if len(widths) != 1:
        raise ConfigurationError(f"inconsistent sector counts: {widths}")
    return np.vstack([s.mean_effective for s in summaries])


def average_sector_summaries(
    sequences: Sequence[Sequence[SectorSummary]],
) -> list[SectorSummary]:
    """Per-sector, per-frame mean over several subjects' summary sequences."""
    if not sequences:
        raise ConfigurationError("no summary sequences to average")
    lengths = {len(seq) for seq in sequences}
    if len(lengths) != 1:
        raise ConfigurationError(f"inconsistent frame counts: {lengths}")
    out = []
    for per_frame in zip(*sequences):
        widths = {s.n_sectors for s in per_frame}
        if len(widths) != 1:
            raise ConfigurationError(f"inconsistent sector counts: {widths}")
        out.append(SectorSummary(
            mean_displacement=np.mean([s.mean_displacement for s in per_frame], axis=0),
            mean_effective=np.mean([s.mean_effective for s in per_frame], axis=0),
            counts=per_frame[0].counts))
    return out


def check_finite_positive(name: str, value: float) -> None:
    """Raise ConfigurationError unless ``value`` is finite and positive."""
    if not (np.isfinite(value) and value > 0.0):
        raise ConfigurationError(f"{name} must be finite and positive, got {value!r}")


@contextmanager
def float_range_checked():
    """Run the block with numpy's overflow, division by zero and invalid
    operations raised as ConfigurationError: an input too large for float64."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigurationError(f"input out of floating-point range ({exc})") from None


def infarct_localization(
    subject: Sequence[SectorSummary],
    reference: Sequence[SectorSummary],
    tau: float = 0.5,
) -> LocalizationResult:
    """Flag sectors whose time-averaged effective strain falls below
    tau times the reference value for the same sector; ``tau`` must be finite
    and positive, as a NaN threshold would flag no sector."""
    check_finite_positive("tau", tau)
    subj = _stack_sector_strain(subject)
    ref = _stack_sector_strain(reference)
    if subj.shape != ref.shape:
        raise ConfigurationError(
            f"subject {subj.shape} and reference {ref.shape} summaries do not match"
        )
    return LocalizationResult(subj, ref, tau)


def localized_cycles(study: Study, references: Sequence[Study], params: CycleParams,
                     tau: float) -> tuple[list[list[FrameResult]], list[LocalizationResult | None]]:
    """Every slice's cycle analysis and, given ``references``, its
    localization against the mean sector summaries of the references' cycle
    analyses of the slice at the same position, all with ``params``. ``tau``
    and each reference's slice and frame counts are checked before any work.

    The references' analyses, slice position first, are one ``_fork.forked``
    task returning only the per-position means: in a forked child beside the
    subject's, numpy's OpenBLAS on one thread in both (``fem.one_blas_thread``),
    or inline first on one CPU. A subject's error is raised before a reference's."""
    check_finite_positive("tau", tau)
    for i, ref in enumerate(references, start=1):
        if len(ref.slices) < len(study.slices) or ref.n_frames != study.n_frames:
            raise ConfigurationError(
                f"reference {i} has {len(ref.slices)} slice(s) of {ref.n_frames} frames, "
                f"the subject {len(study.slices)} of {study.n_frames}")
    positions = range(len(study.slices))

    def reference_means() -> list[list[SectorSummary]]:
        return [average_sector_summaries([[r.sectors for r in cycle_strain_analysis(ref, params, i)]
                                          for ref in references]) for i in positions]

    if not references:
        return [cycle_strain_analysis(study, params, i) for i in positions], [None] * len(positions)
    with one_blas_thread(), forked(reference_means) as means:
        per_slice = [cycle_strain_analysis(study, params, i) for i in positions]
    return per_slice, [infarct_localization([r.sectors for r in results], reference, tau)
                       for results, reference in zip(per_slice, means[0])]
