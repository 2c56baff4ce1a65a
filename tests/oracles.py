"""Oracles kept for the tests. Per element: the one-triangle strain-
displacement matrix and stiffness, and the method's strain formula in the
element's local edge-aligned frame, rotated back to global axes; the library
computes the matrices, stiffnesses and global strains for whole meshes at
once, and the tests check them against these scalar forms. Per system:
Dirichlet values as a per-node dict merged into a dof -> value map, the
identity-row system built from it, and the solve of that whole system; the
library takes the values as (fixed dofs, values) arrays and solves only the
free-dof block. Per factor: the free-dof block solved by SuperLU LU, the
library's direct factor before its banded Cholesky, the banded Cholesky
in reverse Cuthill-McKee order with the band built through COO, as the
library factored before it took the fold order, and the fold-order banded
Cholesky of a copied free-dof block by scipy's LAPACK, as the library solved
before it read the band and the right-hand sides from the assembled
stiffness in place and took LAPACK from numpy. Per stiffness: the scipy CSR
assembly the library's padded-row form replaced, and any matrix turned into
that form (``padded_rows``) for the solves. The identity-row solve
also runs by Jacobi-preconditioned conjugate gradients, the library's former
iterative option. Per boundary: the former position pairing of nodes
with displacement samples (node k of a loop on sample k), which the library's
angular pairing reproduces on samples taken at the nodes. Per CLI command:
the former ``mesh --frame`` mesh and ``solve --dump-system`` system, each
built by the CLI itself; the CLI now takes both from ``study``'s frame-0
model. Per CLI table: the former hand-written ``phantom-verify`` and
``analyze`` tables, with LF line ends, and the former inline reference
localization of ``analyze``; ``io`` now writes the tables (CRLF) and
``study.reference_localization`` localizes. Per CLI config value: the former
checker and converter of a ``--config`` value by its flag's argparse
keywords; argparse now parses each value as the flag's command-line text.
Per angular rule: the former interval list of a material region (one [s, e)
interval, two across 0 degrees, or the full circle) and the former synthetic
wedge motion factor with separate rise and fall branches; the library now
tests each angle's offset from the start modulo 360 and each point's distance
past the nearer end of the inert plateau. Per centroid: the mean of nodal
values over each triangle by a ``(F, 3, 2)`` gather and ``mean``, and the
sector average that took its displacement magnitudes by ``np.linalg.norm``
of those means; ``Mesh.at_centroids`` now sums the three node rows and the
magnitude is written out. Per ingest: the contour CSV read by
``csv.DictReader``, its line numbers counted over the rows it yields; the
library now reads rows by ``csv.reader`` and takes each column at its index
in the header. Per polar angle: each site's own angle expression, the
former ``sector_index`` that wrapped 2*pi to 0 and the former midpoint rule of
the phantom's stiff sectors; ``contours._polar_angles`` now computes every
angle and ``AngularRegion.contains`` decides wedge membership. Per pressure
load: the former map from each inner edge to its traction and the sorted loop
that lumped length * traction / 2 onto both ends of each edge; the library now
scatters 0.5 * pressure * (e_y, -e_x) of each inner edge e to its ends."""

import csv
import math
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import cg, splu

from cardiofem.contours import centroid, uniform_angle_walls
from cardiofem.errors import ConfigurationError, GeometryError, SolverError, UsageError
from cardiofem.fem import (LinearSystem, Stiffness, _check_columns, apply_dirichlet, assemble,
                           strain_displacement_matrices)
from cardiofem.materials import AngularRegion, Material, MaterialField, constitutive_matrices
from cardiofem.io import CONTOUR_CSV_COLUMNS, _build_study, read_manifest
from cardiofem.meshing import triangulate_annulus
from cardiofem.strain import SectorSummary, sector_index
from cardiofem.study import (average_sector_summaries, cycle_strain_analysis,
                             infarct_localization)


def strain_displacement_matrix(coords) -> tuple[np.ndarray, float]:
    """Constant B matrix (3x6) of one linear triangle and its area."""
    bmat, area = strain_displacement_matrices(
        np.asarray(coords, dtype=float).reshape(3, 2), [[0, 1, 2]]
    )
    return bmat[0], float(area[0])


def element_stiffness(coords, constitutive: np.ndarray) -> np.ndarray:
    """6x6 stiffness area * B^T D B of one linear triangle."""
    bmat, area = strain_displacement_matrix(coords)
    d = np.asarray(constitutive, dtype=float).reshape(3, 3)
    return area * bmat.T @ d @ bmat


def _local_frame_strain(coords, disp) -> tuple[np.ndarray, np.ndarray]:
    """Strain in the node-1-origin, edge-1-2-aligned frame plus the rotation."""
    p = np.asarray(coords, dtype=float).reshape(3, 2)
    d = np.asarray(disp, dtype=float).reshape(3, 2)
    e21 = p[1] - p[0]
    x2p = float(np.hypot(e21[0], e21[1]))
    if x2p <= 0.0:
        raise GeometryError("degenerate element: nodes 1 and 2 coincide")
    cph = e21[0] / x2p
    sph = e21[1] / x2p
    rot = np.array([[cph, sph], [-sph, cph]])  # global -> local
    q3 = rot @ (p[2] - p[0])
    x3p, y3p = float(q3[0]), float(q3[1])
    if y3p <= 0.0:
        raise GeometryError("degenerate element: non-positive area after transform")

    el = d @ rot.T
    u1, v1 = el[0]
    u2, v2 = el[1]
    u3, v3 = el[2]
    denom = x2p * y3p
    eps_x = (u2 - u1) / x2p
    eps_y = ((x3p - x2p) * v1 - x3p * v2) / denom + v3 / y3p
    gamma = ((x3p - x2p) * u1 - x3p * u2) / denom - v1 / x2p + v2 / x2p + u3 / y3p
    return np.array([eps_x, eps_y, gamma]), rot


def element_strain_local(coords, disp) -> np.ndarray:
    """(eps_x, eps_y, gamma_xy) in the element-local rotated frame."""
    strain, _ = _local_frame_strain(coords, disp)
    return strain


def element_strain(coords, disp) -> np.ndarray:
    """(eps_x, eps_y, gamma_xy) of one triangle in the global frame.

    Computed in the local edge-aligned frame and rotated back; identical
    (to rounding) to B @ d with the element's strain-displacement matrix.
    """
    (ex, ey, g), rot = _local_frame_strain(coords, disp)
    tensor = np.array([[ex, 0.5 * g], [0.5 * g, ey]])
    glob = rot.T @ tensor @ rot
    return np.array([glob[0, 0], glob[1, 1], 2.0 * glob[0, 1]])


def nodal_dirichlet(dofs, values) -> dict[int, tuple[float, float]]:
    """Per-node (u, v) dict of Dirichlet values given on both dofs of each node."""
    nodes = (np.asarray(dofs)[0::2] // 2).tolist()
    return {n: (u, v) for n, (u, v) in zip(nodes, np.reshape(values, (-1, 2)).tolist())}


def csr_stiffness(mesh, materials, mode="as-printed"):
    """``fem.assemble``'s stiffness as the library built it before it held K
    in numpy arrays: every element entry through scipy's COO to CSR, which
    sums the duplicates in its own order and keeps the pattern's zeros."""
    bmat, area = strain_displacement_matrices(mesh.nodes, mesh.triangles)
    ke = np.matmul(bmat.transpose(0, 2, 1), constitutive_matrices(materials, mode) @ bmat)
    ke *= area[:, None, None]
    dofs = np.empty((mesh.n_triangles, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.triangles
    dofs[:, 1::2] = 2 * mesh.triangles + 1
    rows, cols = np.repeat(dofs, 6, axis=1).ravel(), np.tile(dofs, (1, 6)).ravel()
    n = 2 * mesh.n_nodes
    return sparse.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def padded_rows(k) -> Stiffness:
    """The dense or scipy sparse square matrix ``k`` in ``fem``'s padded-row
    form, its stored entries (duplicates summed) kept as they are."""
    k = sparse.csr_matrix(k)
    k.sum_duplicates()
    n, counts = k.shape[0], np.diff(k.indptr)
    rows = np.repeat(np.arange(n), counts)
    slots = np.arange(k.nnz) - k.indptr[rows]
    cols = np.tile(np.arange(n), (max(int(counts.max(initial=0)), 1), 1))
    vals = np.zeros(cols.shape)
    cols[slots, rows] = k.indices
    vals[slots, rows] = k.data
    return Stiffness(cols, vals, k.nnz)


def constraint_values(dirichlet) -> dict[int, float]:
    """dof -> value map of a per-node (u, v) dict."""
    return {2 * int(node) + comp: float(val)
            for node, uv in dirichlet.items() for comp, val in enumerate(uv)}


def identity_row_system(system, dirichlet):
    """(eliminated system, fixed dofs, values) of a per-node dict: fixed rows
    and columns replaced by identity, the load corrected so interior
    equations see the fixed values."""
    constraints = constraint_values(dirichlet)
    ndof = system.n_dofs
    fixed = np.fromiter(sorted(constraints), dtype=np.int64, count=len(constraints))
    values = np.array([constraints[int(i)] for i in fixed])
    z = np.zeros(ndof)
    z[fixed] = values
    free_mask = np.ones(ndof)
    free_mask[fixed] = 0.0
    k = system.stiffness.tocsr()
    proj = sparse.diags(free_mask)
    k_new = (proj @ k @ proj + sparse.diags(1.0 - free_mask)).tocsr()
    f_new = free_mask * (system.load - k @ z) + z
    return LinearSystem(k_new, f_new, system.node_order), fixed, values


def identity_row_solve(system, fixed, values, method="direct") -> np.ndarray:
    """(V, 2) solution of an eliminated system's whole n_dofs x n_dofs matrix,
    its unit rows included, by SuperLU LU (minimum degree on the pattern of
    K^T + K) or Jacobi-preconditioned CG, with the fixed values written back."""
    k = system.stiffness.tocsr().tocsc()
    if method == "direct":
        u = splu(k, permc_spec="MMD_AT_PLUS_A").solve(system.load)
    else:
        precond = sparse.diags(1.0 / k.diagonal())
        u, info = cg(k, system.load, rtol=1e-12, atol=0.0, maxiter=20 * k.shape[0], M=precond)
        assert info == 0, info
    u[fixed] = values
    return u.reshape(-1, 2)


def _free_block(system, fixed, values):
    """(free dofs, K_ff in CSC, right-hand sides F_f - K_fb U_b, solutions with
    their fixed rows set) of K U = F with U fixed to the columns of the
    (n_fixed, n_sets) ``values`` on the strictly increasing ``fixed`` dofs."""
    fixed = np.asarray(fixed, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    free = np.setdiff1d(np.arange(system.n_dofs), fixed)
    k_free = system.stiffness.tocsr()[free]
    u = np.empty((system.n_dofs, values.shape[1]))
    u[fixed] = values
    return free, k_free[:, free].tocsc(), system.load[free, None] - k_free[:, fixed] @ values, u


def fold_free_block_solve(system, fixed, values) -> np.ndarray:
    """``fem.solve``'s (n_dofs, n_sets) solutions as it computed them before it
    read everything from K in place: K_ff and K_fb copied out of K, the lower
    band of K_ff in the system's fold order scattered from K_ff's CSC arrays
    through the inverse permutation and factored by scipy's
    ``cholesky_banded`` (LAPACK ``dpbtrf``), and the right-hand sides and
    residuals on the copies. It raises the same SolverErrors, from the same
    pivot and inverse-iteration checks (its random start indexed in sorted
    free-dof order) and residual contract."""
    values = np.asarray(values, dtype=float)
    free, k_ff, rhs, u = _free_block(system, fixed, values)
    perm = np.argsort(2 * np.argsort(system.node_order)[free // 2] + free % 2)
    rank = np.argsort(perm)
    row, col = rank[k_ff.indices], np.repeat(rank, np.diff(k_ff.indptr))
    lower = row >= col
    row, col = row[lower], col[lower]
    band = np.zeros((int(np.max(row - col, initial=0)) + 1, k_ff.shape[0]), order="F")
    band[row - col, col] = k_ff.data[lower]

    def band_solve(b):
        x = np.empty_like(b)
        x[perm] = cho_solve_banded((band, True), b[perm], overwrite_b=True, check_finite=False)
        return x

    if len(free):
        try:
            band = cholesky_banded(band, lower=True, overwrite_ab=True, check_finite=False)
        except LinAlgError as exc:
            raise SolverError(
                f"direct factorization failed: the stiffness is not positive definite ({exc})"
            ) from exc
        pivots = band[0] * band[0]
        probe = band_solve(np.random.default_rng(0).standard_normal(len(free)))
        if (pivots.min() <= 1e-12 * pivots.max()
                or probe @ (k_ff @ probe) <= 1e-14 * k_ff.diagonal().max() * (probe @ probe)):
            raise SolverError(
                "numerically singular system: rigid modes are unconstrained "
                "(pin at least 3 dofs)"
            )
        u[free] = band_solve(rhs)
    residual = np.linalg.norm(k_ff @ u[free] - rhs, axis=0)
    f_norm = np.sqrt(np.sum(rhs * rhs, axis=0) + np.sum(values * values, axis=0))
    _check_columns(u, residual, f_norm)
    return u


def superlu_free_solve(system, fixed, values) -> np.ndarray:
    """(n_dofs, n_sets) solutions of K U = F with U fixed to the columns of the
    (n_fixed, n_sets) ``values`` on the strictly increasing ``fixed`` dofs: the
    free-dof block K_ff factored by SuperLU LU with partial pivoting and
    minimum degree on the pattern of K^T + K."""
    free, k_ff, rhs, u = _free_block(system, fixed, values)
    u[free] = splu(k_ff, permc_spec="MMD_AT_PLUS_A").solve(rhs)
    return u


def rcm_banded_solve(system, fixed, values) -> tuple[np.ndarray, int]:
    """``superlu_free_solve``'s solutions and the number of band rows, with
    K_ff factored by banded Cholesky in reverse Cuthill-McKee order (Cuthill
    & McKee 1969): the lower band is scattered from K_ff's COO form with its
    duplicates summed and factored by LAPACK ``dpbtrf``."""
    free, k_ff, rhs, u = _free_block(system, fixed, values)
    perm = reverse_cuthill_mckee(k_ff, symmetric_mode=True)
    rank = np.empty_like(perm)
    rank[perm] = np.arange(len(perm))
    coo = k_ff.tocoo()
    coo.sum_duplicates()
    row, col = rank[coo.row], rank[coo.col]
    lower = row >= col
    row, col = row[lower], col[lower]
    band = np.zeros((int(np.max(row - col, initial=0)) + 1, k_ff.shape[0]))
    band[row - col, col] = coo.data[lower]
    band = cholesky_banded(band, lower=True)
    u[free[perm]] = cho_solve_banded((band, True), rhs[perm])
    return u, band.shape[0]


def position_dof_map(mesh, inner_positions, outer_positions, center):
    """``fem.boundary_dof_map``'s (dofs, take) by position: node k of each
    boundary loop pairs with sample k, and a node farther than 1e-9 of the
    loop's extent about ``center`` from its sample raises GeometryError."""
    c = np.asarray(center, dtype=float)
    nodes, samples = [], []
    offset = 0
    for label, positions in (("inner", inner_positions), ("outer", outer_positions)):
        node_ids = mesh.boundary_nodes(label)
        coords = mesh.nodes[node_ids]
        dist = np.linalg.norm(coords - np.asarray(positions, dtype=float), axis=1)
        if not np.all(dist <= 1e-9 * (float(np.max(np.abs(coords - c))) or 1.0)):
            raise GeometryError(f"{label} boundary nodes do not coincide with displacement samples")
        nodes.append(node_ids)
        samples.append(offset + np.arange(len(node_ids)))
        offset += len(node_ids)
    node_ids = np.concatenate(nodes)
    order = np.argsort(node_ids, kind="stable")
    dofs = (2 * node_ids[order, None] + np.arange(2)).ravel()
    take = (2 * np.concatenate(samples)[order, None] + np.arange(2)).ravel()
    return dofs, take


def position_conditions(mesh, bd):
    """(dofs, values) of ``BoundaryDisplacements`` on the mesh, paired by
    :func:`position_dof_map`."""
    dofs, take = position_dof_map(mesh, bd.inner_positions, bd.outer_positions,
                                  bd.reference_center)
    return dofs, np.concatenate([bd.inner_vectors, bd.outer_vectors]).ravel()[take]


def edge_pressure_tractions(mesh, pressure) -> dict:
    """The former pressure load: a map from each inner edge (a, b) to its
    constant traction, the pressure times the unit normal into the wall."""
    tractions = {}
    for a, b in mesh.inner_edges.tolist():
        e = mesh.nodes[b] - mesh.nodes[a]
        length = float(np.linalg.norm(e))
        if length == 0.0:
            raise GeometryError(f"zero-length boundary edge ({a}, {b})")
        # inward normal of the cavity = -90 deg rotation of the CCW tangent
        tractions[(a, b)] = (pressure * e[1] / length, -pressure * e[0] / length)
    return tractions


def edge_traction_load(mesh, tractions, load) -> np.ndarray:
    """The former ``apply_traction``'s load: ``load`` plus, for each boundary
    edge of ``tractions`` in sorted order, length * traction / 2 at both ends."""
    boundary = {frozenset(e) for e in np.concatenate([mesh.inner_edges, mesh.outer_edges]).tolist()}
    f = np.array(load, dtype=float)
    for (a, b), (tx, ty) in sorted(tractions.items()):
        if frozenset((a, b)) not in boundary:
            raise ConfigurationError(f"traction on non-boundary edge ({a}, {b})")
        half = 0.5 * float(np.linalg.norm(mesh.nodes[b] - mesh.nodes[a]))
        f[2 * a] += half * tx
        f[2 * a + 1] += half * ty
        f[2 * b] += half * tx
        f[2 * b + 1] += half * ty
    return f


def cli_frame_mesh(fc, n_points, n_radial):
    """The former ``mesh --frame`` mesh: the frame's walls resampled about the
    centroid of its inner wall and triangulated between."""
    walls = uniform_angle_walls(fc, centroid(fc.inner), n_points)
    return triangulate_annulus(*walls, n_radial)


def cli_constrained_system(mesh, disp, material, mode):
    """The former ``solve --dump-system`` system: a second assembly on the
    frame's mesh with every boundary node's dofs fixed to ``disp``."""
    nodes = np.union1d(mesh.boundary_nodes("inner"), mesh.boundary_nodes("outer"))
    fixed = (2 * nodes[:, None] + np.arange(2)).ravel()
    materials = MaterialField.uniform(mesh, material)
    return apply_dirichlet(assemble(mesh, materials, mode), fixed, disp.values.ravel()[fixed])


def cli_ring_tables(out, spec, report) -> None:
    """The former ``phantom-verify`` tables, written line by line with LF."""
    with (out / "convergence.csv").open("w") as fh:
        fh.write("n_angular,n_radial,h,l2_error,observed_order\n")
        for i, ((na, nr), err) in enumerate(zip(report.resolutions, report.l2_errors)):
            h = (spec.outer_radius - spec.inner_radius) / nr
            order = "" if i == 0 else repr(report.orders[i - 1])
            fh.write(f"{na},{nr},{h!r},{err!r},{order}\n")
    t, p = report.traction, report.pipeline
    columns = zip(t.mean_displacement.tolist(), p.mean_displacement.tolist(),
                  t.mean_effective.tolist(), p.mean_effective.tolist(),
                  report.stiff_sectors.tolist())
    with (out / "sector_comparison.csv").open("w") as fh:
        fh.write("sector,mean_disp_traction,mean_disp_pipeline,"
                 "mean_effective_traction,mean_effective_pipeline,stiff\n")
        for s, (md_t, md_p, me_t, me_p, stiff) in enumerate(columns):
            fh.write(f"{s},{md_t!r},{md_p!r},{me_t!r},{me_p!r},{int(stiff)}\n")


def cli_strain_aggregates(path, results) -> None:
    """The former ``analyze`` strain aggregates table, written with LF."""
    with path.open("w") as fh:
        fh.write("frame,mean_effective,max_effective\n")
        for r in results:
            fh.write(
                f"{r.frame_index},{float(np.mean(r.strain.effective))!r},"
                f"{float(np.max(r.strain.effective))!r}\n"
            )


def cli_reference_localization(results, references, params, slice_index, tau):
    """The former inline localization of ``analyze``: each reference's cycle
    analysis of the slice, their average, and the subject against it."""
    ref_runs = []
    for ref_study in references:
        ref_results = cycle_strain_analysis(ref_study, params, slice_index=slice_index)
        ref_runs.append([r.sectors for r in ref_results])
    reference = average_sector_summaries(ref_runs)
    return infarct_localization([r.sectors for r in results], reference, tau)


def cli_config_value(spec: dict, value, where: str):
    """The former ``--config`` value check: ``value`` taken as the flag with
    argparse keywords ``spec`` would take it from the command line.

    A typed flag converts the value's text (``"64"`` and ``64`` both give
    64); a text flag needs a string, a repeatable flag a string or a list of
    strings, an on/off flag true or false, and a flag with choices one of
    them. Anything else raises UsageError.
    """
    action, kind, choices = spec.get("action"), spec.get("type"), spec.get("choices")
    if action == "store_true":
        if not isinstance(value, bool):
            raise UsageError(f"{where} must be true or false, got {value!r}")
        return value
    if action == "append":
        items = [value] if isinstance(value, str) else value
        if not (isinstance(items, list) and all(isinstance(v, str) for v in items)):
            raise UsageError(f"{where} must be a string or a list of strings, got {value!r}")
        return items
    if kind is None:
        if not isinstance(value, str):
            raise UsageError(f"{where} must be a string, got {value!r}")
    else:
        try:
            value = kind(str(value))
        except ValueError:
            raise UsageError(f"{where} must be {kind.__name__}, got {value!r}") from None
    if choices is not None and value not in choices:
        raise UsageError(f"{where} must be one of {list(choices)}, got {value!r}")
    return value


def _region_intervals(region: AngularRegion) -> list[tuple[float, float]]:
    s = region.start_deg % 360.0
    e = region.end_deg % 360.0
    span = (region.end_deg - region.start_deg) % 360.0
    if span == 0.0:
        return [(0.0, 360.0)]
    if s < e:
        return [(s, e)]
    return [(s, 360.0), (0.0, e)]


def interval_region_material_field(mesh, base: Material, region: AngularRegion,
                                   center) -> MaterialField:
    """The former ``region_material_field``: ``region``'s material on the
    elements whose centroid angle falls in one of the region's intervals."""
    cen = mesh.triangle_centroids() - np.asarray(center, dtype=float)
    angles_deg = np.degrees(np.mod(np.arctan2(cen[:, 1], cen[:, 0]), 2.0 * np.pi))
    inside = np.zeros(mesh.n_triangles, dtype=bool)
    for s, e in _region_intervals(region):
        inside |= (angles_deg >= s) & (angles_deg < e)
    return MaterialField(np.where(inside, region.material.E, base.E),
                         np.where(inside, region.material.nu, base.nu))


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def two_branch_wedge_factor(theta_deg, start_deg, end_deg, inert, transition_deg, margin_deg):
    """The former ``synth._wedge_motion_factor``: ``inert`` on the wedge and
    its margins, a rise after the wedge and a fall before it, each written
    into the factor in turn (the fall last), 1 elsewhere."""
    a = np.mod(theta_deg - start_deg, 360.0)
    span = (end_deg - start_deg) % 360.0 or 360.0
    factor = np.ones(len(a))
    factor[a < span + margin_deg] = inert
    rise = (a >= span + margin_deg) & (a < span + margin_deg + transition_deg)
    factor[rise] = inert + (1.0 - inert) * _smoothstep(
        (a[rise] - span - margin_deg) / transition_deg
    )
    factor[a >= 360.0 - margin_deg] = inert
    fall = (a >= 360.0 - margin_deg - transition_deg) & (a < 360.0 - margin_deg)
    factor[fall] = inert + (1.0 - inert) * _smoothstep(
        (360.0 - margin_deg - a[fall]) / transition_deg
    )
    return factor


def gather_centroids(mesh, values) -> np.ndarray:
    """The former centroid mean: ``values`` gathered per triangle and averaged."""
    return values[mesh.triangles].mean(axis=1)


def gather_sector_average(mesh, strain, disp, center, n_sectors) -> SectorSummary:
    """The former ``sector_average``: elements binned by the angle of their
    gathered centroid, displacement magnitudes by ``np.linalg.norm`` of the
    gathered centroid displacements."""
    cen = gather_centroids(mesh, mesh.nodes) - np.asarray(center, dtype=float)
    sectors = sector_index(np.arctan2(cen[:, 1], cen[:, 0]), n_sectors)
    counts = np.bincount(sectors, minlength=n_sectors)
    disp_mag = np.linalg.norm(gather_centroids(mesh, disp.values), axis=1)
    denom = np.maximum(counts, 1)
    return SectorSummary(np.bincount(sectors, weights=disp_mag, minlength=n_sectors) / denom,
                         np.bincount(sectors, weights=strain.effective, minlength=n_sectors)
                         / denom, counts)


def site_polar_angles(points, center) -> dict[str, np.ndarray]:
    """Each former site's angle of ``points`` about ``center``, by the
    expression the site spelled out itself (the materials site's in degrees)."""
    c = np.asarray(center, dtype=float)
    rel = points - c
    return {
        "contours._angular_pass": np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2.0 * math.pi),
        "fem._fold_order": np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2.0 * np.pi),
        "fem.boundary_dof_map": np.mod(
            np.arctan2(points[:, 1] - c[1], points[:, 0] - c[0]), 2.0 * np.pi),
        "materials.region_material_field": np.degrees(
            np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2.0 * math.pi)),
    }


def mod_sector_index(angles_rad, n_sectors: int) -> np.ndarray:
    """The former ``sector_index``, which wrapped every angle by ``np.mod``
    (2*pi to 0); ``_element_sectors`` passed it the bare ``np.arctan2``."""
    angles = np.mod(np.asarray(angles_rad, dtype=float), 2.0 * math.pi)
    width = 2.0 * math.pi / n_sectors
    q = angles / width
    s = np.floor(q).astype(np.int64)
    on_boundary = (q == s) & (s > 0)
    s[on_boundary] -= 1
    s[s >= n_sectors] = n_sectors - 1
    return s


def midpoint_stiff_sectors(n_sectors: int) -> np.ndarray:
    """The former stiff sectors of ``verify_ring``: midpoints in [225, 315) degrees."""
    mids = (np.arange(n_sectors) + 0.5) * (360.0 / n_sectors)
    return (mids >= 225.0) & (mids < 315.0)


def dictreader_read_study_csv(csv_path, manifest_path):
    """The former ``io.read_study_csv``, which read rows by ``csv.DictReader``."""
    csv_path = Path(csv_path)
    manifest = read_manifest(manifest_path)
    grouped = {}
    with csv_path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(CONTOUR_CSV_COLUMNS) <= set(reader.fieldnames):
            raise ConfigurationError(
                f"{csv_path}: header must contain columns {CONTOUR_CSV_COLUMNS}"
            )
        for lineno, row in enumerate(reader, start=2):
            try:
                sl = int(row["slice"])
                frame = int(row["frame"])
                boundary = row["boundary"].strip()
                point = (int(row["point_index"]), float(row["x"]), float(row["y"]))
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"{csv_path}:{lineno}: malformed row ({exc})") from exc
            if boundary not in ("inner", "outer"):
                raise ConfigurationError(
                    f"{csv_path}:{lineno}: boundary must be inner or outer, got {boundary!r}"
                )
            grouped.setdefault(sl, {}).setdefault(frame, {}).setdefault(boundary, []).append(point)
    if not grouped:
        raise ConfigurationError(f"{csv_path}: no contour rows found")
    slices = []
    for sl_idx, frames in sorted(grouped.items()):
        json_frames = []
        for frame_idx, walls in sorted(frames.items()):
            frame = {"frame": frame_idx}
            for boundary, rows in walls.items():
                rows.sort(key=lambda r: r[0])
                if [r[0] for r in rows] != list(range(len(rows))):
                    raise ConfigurationError(
                        f"{csv_path} slice {sl_idx} frame {frame_idx} {boundary}: "
                        "point_index values must be 0..n-1"
                    )
                frame[boundary] = [r[1:] for r in rows]
            json_frames.append(frame)
        slices.append({"slice": sl_idx, "frames": json_frames})
    return _build_study({**manifest, "slices": slices}, str(csv_path), "manifest")
