"""Linear triangular finite elements for 2D elasticity.

Assembles the sparse symmetric stiffness system K U = F over a mesh with
per-element constitutive matrices, applies Dirichlet boundary conditions by
symmetric row/column elimination (the matrix stays symmetric positive
definite) and Neumann tractions by consistent edge lumping, and solves with
a direct sparse factorization or optionally conjugate gradients.

Unknown ordering is interleaved: (u_0, v_0, u_1, v_1, ...), so dof 2*i is
the x-displacement of node i and dof 2*i + 1 its y-displacement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import cg as sparse_cg
from scipy.sparse.linalg import splu

from .contours import BoundaryDisplacements
from .errors import (
    ConfigurationError,
    ConstraintConflictError,
    GeometryError,
    MeshError,
    SolverError,
)
from .materials import MaterialField, constitutive_matrices
from .meshing import Mesh

#: Dirichlet values on the same dof may differ by at most this much.
CONSTRAINT_TOL = 1e-9

BC_MODES = ("nodal", "edge-average")


@dataclass(frozen=True)
class BoundaryConditionSet:
    """Dirichlet values per node and/or tractions per boundary edge.

    ``dirichlet`` maps node index to an (u, v) pair; either component may be
    None to leave that direction free (useful for pinning single dofs).
    ``tractions`` maps a boundary edge (node pair, traversal order) to a
    constant force per unit length acting on that edge.

    In ``edge-average`` mode the value imposed at a boundary node is the mean
    over its two incident boundary edges of the per-edge averages
    (value_i + value_j) / 2, instead of the nodal value itself.
    """

    dirichlet: Mapping[int, tuple[float | None, float | None]] = field(default_factory=dict)
    tractions: Mapping[tuple[int, int], tuple[float, float]] = field(default_factory=dict)
    mode: str = "nodal"

    def __post_init__(self):
        if self.mode not in BC_MODES:
            raise ConfigurationError(f"bc mode must be one of {BC_MODES}, got {self.mode!r}")
        object.__setattr__(self, "dirichlet", dict(self.dirichlet))
        object.__setattr__(self, "tractions", dict(self.tractions))


@dataclass(frozen=True)
class LinearSystem:
    """Sparse stiffness matrix, load vector, and accumulated constraints."""

    stiffness: sparse.csr_matrix
    load: np.ndarray
    constraints: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.stiffness.shape[0] != self.stiffness.shape[1]:
            raise MeshError("stiffness matrix must be square")
        if self.stiffness.shape[0] != len(self.load):
            raise MeshError("stiffness/load size mismatch")
        object.__setattr__(self, "constraints", dict(self.constraints))

    @property
    def n_dofs(self) -> int:
        return self.stiffness.shape[0]


@dataclass(frozen=True)
class DisplacementField:
    """Nodal (u, v) displacements, shape (V, 2)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != 2:
            raise SolverError("displacement values must be (V, 2)")
        if not np.all(np.isfinite(vals)):
            raise SolverError("displacement field contains non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def u(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def v(self) -> np.ndarray:
        return self.values[:, 1]

    def magnitude(self) -> np.ndarray:
        return np.linalg.norm(self.values, axis=1)


# ---------------------------------------------------------------------------
# element level


def strain_displacement_matrices(nodes, triangles) -> tuple[np.ndarray, np.ndarray]:
    """Constant B matrices (F, 3, 6) of linear triangles and their areas (F,).

    Rows map each element's interleaved nodal displacements to
    (eps_x, eps_y, gamma_xy). A degenerate or clockwise element raises
    GeometryError.
    """
    p = np.asarray(nodes, dtype=float)[np.asarray(triangles, dtype=np.int64)]
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    two_a = np.einsum("fi,fi->f", x, b)
    bad = np.flatnonzero(~(two_a > 0.0))
    if bad.size:
        raise GeometryError(
            f"degenerate element {bad[0]}: signed area {0.5 * two_a[bad[0]]} is not positive"
        )
    bmat = np.zeros((len(p), 3, 6))
    bmat[:, 0, 0::2] = b
    bmat[:, 1, 1::2] = c
    bmat[:, 2, 0::2] = c
    bmat[:, 2, 1::2] = b
    bmat /= two_a[:, None, None]
    return bmat, 0.5 * two_a


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


def rigid_body_modes(nodes) -> np.ndarray:
    """(3, 2V) rows: x-translation, y-translation, infinitesimal rotation."""
    pts = np.asarray(nodes, dtype=float)
    n = len(pts)
    modes = np.zeros((3, 2 * n))
    modes[0, 0::2] = 1.0
    modes[1, 1::2] = 1.0
    modes[2, 0::2] = -pts[:, 1]
    modes[2, 1::2] = pts[:, 0]
    return modes


# ---------------------------------------------------------------------------
# assembly


def assemble(mesh: Mesh, materials: MaterialField, mode: str = "as-printed") -> LinearSystem:
    """Scatter-add all element stiffnesses into the global sparse system.

    The load vector starts at zero (no body forces in the static model).
    """
    if materials.n_elements != mesh.n_triangles:
        raise MeshError(
            f"material field covers {materials.n_elements} elements, "
            f"mesh has {mesh.n_triangles}"
        )
    tri = mesh.triangles
    if len(tri) and tri.max() >= mesh.n_nodes:
        raise MeshError("triangle node index out of range")
    try:
        bmat, area = strain_displacement_matrices(mesh.nodes, tri)
    except GeometryError as exc:
        raise MeshError(f"mesh contains non-positive-area triangles: {exc}") from exc

    d = constitutive_matrices(materials, mode)
    ke = np.einsum("fki,fkl,flj,f->fij", bmat, d, bmat, area)

    nf = len(tri)
    dofs = np.empty((nf, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * tri
    dofs[:, 1::2] = 2 * tri + 1
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    ndof = 2 * mesh.n_nodes
    k = sparse.coo_matrix((ke.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
    return LinearSystem(k, np.zeros(ndof))


# ---------------------------------------------------------------------------
# boundary conditions


def _edge_average_values(mesh: Mesh, dirichlet) -> dict[int, tuple[float, float]]:
    edge_vals = {}
    incident: dict[int, list] = {}
    for a, b in mesh.boundary_edges:
        a, b = int(a), int(b)
        if a in dirichlet and b in dirichlet:
            ua, va = dirichlet[a]
            ub, vb = dirichlet[b]
            if None in (ua, va, ub, vb):
                raise ConfigurationError(
                    "edge-average mode needs both components at both edge endpoints"
                )
            val = (0.5 * (ua + ub), 0.5 * (va + vb))
            incident.setdefault(a, []).append(val)
            incident.setdefault(b, []).append(val)
    for node in dirichlet:
        if node not in incident:
            raise ConfigurationError(
                f"node {node} has no boundary edge with both endpoints constrained"
            )
        vals = np.asarray(incident[node], dtype=float)
        edge_vals[node] = (float(vals[:, 0].mean()), float(vals[:, 1].mean()))
    return edge_vals


def _constraint_values(
    system: LinearSystem, bcs: BoundaryConditionSet, mesh: Mesh | None
) -> dict[int, float]:
    """The system's constraints merged with the Dirichlet values of ``bcs``."""
    n_nodes = system.n_dofs // 2
    if bcs.mode == "edge-average":
        if mesh is None:
            raise ConfigurationError("edge-average mode requires the mesh")
        nodal = _edge_average_values(mesh, bcs.dirichlet)
    else:
        nodal = bcs.dirichlet

    new_constraints = dict(system.constraints)
    for node, (u, v) in nodal.items():
        node = int(node)
        if node < 0 or node >= n_nodes:
            raise ConfigurationError(f"constrained node {node} outside mesh")
        for comp, val in ((0, u), (1, v)):
            if val is None:
                continue
            dof = 2 * node + comp
            val = float(val)
            if dof in new_constraints and abs(new_constraints[dof] - val) > CONSTRAINT_TOL:
                raise ConstraintConflictError(
                    f"dof {dof} constrained to both {new_constraints[dof]} and {val}"
                )
            new_constraints[dof] = val
    return new_constraints


def apply_dirichlet(
    system: LinearSystem, bcs: BoundaryConditionSet, mesh: Mesh | None = None
) -> LinearSystem:
    """Impose Dirichlet values by symmetric row/column elimination.

    Returns a new system; the input is left untouched. Eliminated rows and
    columns are replaced by identity, with the load corrected so interior
    equations see the constrained values. ``edge-average`` mode requires the
    mesh for boundary-edge incidence.
    """
    new_constraints = _constraint_values(system, bcs, mesh)
    ndof = system.n_dofs
    fixed = np.fromiter(sorted(new_constraints), dtype=np.int64, count=len(new_constraints))
    values = np.array([new_constraints[int(i)] for i in fixed])

    z = np.zeros(ndof)
    z[fixed] = values
    free_mask = np.ones(ndof)
    free_mask[fixed] = 0.0
    k = system.stiffness
    proj = sparse.diags(free_mask)
    k_new = (proj @ k @ proj + sparse.diags(1.0 - free_mask)).tocsr()
    f_new = free_mask * (system.load - k @ z) + z
    return LinearSystem(k_new, f_new, new_constraints)


def apply_traction(system: LinearSystem, bcs: BoundaryConditionSet, mesh: Mesh) -> LinearSystem:
    """Add consistent loads for constant per-edge tractions.

    Each loaded edge contributes length * traction / 2 to both endpoints.
    Apply tractions before Dirichlet elimination so the load correction sees
    them.
    """
    boundary = {frozenset(map(int, e)) for e in mesh.boundary_edges}
    f = system.load.copy()
    for (a, b), (tx, ty) in sorted(bcs.tractions.items()):
        a, b = int(a), int(b)
        if frozenset((a, b)) not in boundary:
            raise ConfigurationError(f"traction on non-boundary edge ({a}, {b})")
        length = float(np.linalg.norm(mesh.nodes[b] - mesh.nodes[a]))
        half = 0.5 * length
        f[2 * a] += half * tx
        f[2 * a + 1] += half * ty
        f[2 * b] += half * tx
        f[2 * b + 1] += half * ty
    return LinearSystem(system.stiffness, f, system.constraints)


def internal_pressure_tractions(mesh: Mesh, pressure: float) -> dict:
    """Uniform radial pressure on the inner boundary as per-edge tractions.

    The traction on each inner edge is the pressure times the unit normal
    pointing into the wall (away from the cavity).
    """
    labels = np.array(mesh.boundary_labels)
    tractions = {}
    for (a, b), lab in zip(mesh.boundary_edges, labels):
        if lab != "inner":
            continue
        a, b = int(a), int(b)
        e = mesh.nodes[b] - mesh.nodes[a]
        length = float(np.linalg.norm(e))
        if length == 0.0:
            raise GeometryError(f"zero-length boundary edge ({a}, {b})")
        # inward normal of the cavity = -90 deg rotation of the CCW tangent
        tractions[(a, b)] = (pressure * e[1] / length, -pressure * e[0] / length)
    return tractions


def boundary_conditions_from_displacements(
    mesh: Mesh,
    bd: BoundaryDisplacements,
    mode: str = "nodal",
    match: str = "position",
) -> BoundaryConditionSet:
    """Map boundary displacement samples onto mesh boundary nodes.

    ``match="position"`` pairs each boundary node with the sample at the same
    location (the usual case: the mesh was built from the same resampled
    contours). ``match="index"`` pairs by angular order about the reference
    center, for reusing a reference mesh with samples taken on a slightly
    different geometry (small-strain approximation).
    """
    if match not in ("position", "index"):
        raise ConfigurationError(f"match must be 'position' or 'index', got {match!r}")
    c = np.asarray(bd.reference_center, dtype=float)
    dirichlet: dict[int, tuple[float, float]] = {}
    for label, positions, vectors in (
        ("inner", bd.inner_positions, bd.inner_vectors),
        ("outer", bd.outer_positions, bd.outer_vectors),
    ):
        node_ids = mesh.boundary_nodes(label)
        if len(node_ids) != len(positions):
            raise GeometryError(
                f"{label} boundary has {len(node_ids)} nodes but "
                f"{len(positions)} displacement samples"
            )
        coords = mesh.nodes[node_ids]
        if match == "position":
            diff = coords[:, None, :] - positions[None, :, :]
            dist = np.linalg.norm(diff, axis=2)
            nearest = np.argmin(dist, axis=1)
            scale = float(np.max(np.abs(coords - c))) or 1.0
            if np.max(dist[np.arange(len(node_ids)), nearest]) > 1e-9 * scale:
                raise GeometryError(
                    f"{label} boundary nodes do not coincide with displacement samples"
                )
        else:
            node_angles = np.mod(
                np.arctan2(coords[:, 1] - c[1], coords[:, 0] - c[0]), 2.0 * np.pi
            )
            sample_angles = np.mod(
                np.arctan2(positions[:, 1] - c[1], positions[:, 0] - c[0]), 2.0 * np.pi
            )
            node_order = np.argsort(node_angles, kind="stable")
            sample_order = np.argsort(sample_angles, kind="stable")
            nearest = np.empty(len(node_ids), dtype=np.int64)
            nearest[node_order] = sample_order
        for node, j in zip(node_ids, nearest):
            dirichlet[int(node)] = (float(vectors[j, 0]), float(vectors[j, 1]))
    return BoundaryConditionSet(dirichlet=dirichlet, mode=mode)


# ---------------------------------------------------------------------------
# solve


def _factor(k: sparse.csc_matrix):
    """Sparse LU factor of ``k``; a singular or near-singular ``k`` raises SolverError."""
    try:
        lu = splu(k)
    except RuntimeError as exc:
        raise SolverError(f"direct factorization failed: {exc}") from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() <= 1e-12 * pivots.max():
        raise SolverError(
            "numerically singular system: rigid modes are unconstrained "
            "(pin at least 3 dofs)"
        )
    return lu


def _check_columns(u: np.ndarray, residual: np.ndarray, f_norm: np.ndarray) -> None:
    """Per right-hand-side column j of ``u`` (n, r): finite values and the
    residual contract residual[j] <= 1e-10 * f_norm[j] (1e-12 absolute for a
    zero load). A failing column raises SolverError with ``column=j``."""
    for j in range(u.shape[1]):
        if not np.all(np.isfinite(u[:, j])):
            raise SolverError("solution contains non-finite values; system is singular", j)
        ok = residual[j] <= 1e-10 * f_norm[j] if f_norm[j] > 0.0 else residual[j] <= 1e-12
        if not ok:
            raise SolverError(
                f"residual contract violated: |KU - F| = {residual[j]:.3e} with "
                f"|F| = {f_norm[j]:.3e}; check that at least 3 dofs are pinned against "
                "rigid motion",
                j,
            )


def solve(system: LinearSystem, method: str = "direct") -> DisplacementField:
    """Solve K U = F and check the residual contract.

    The relative residual must not exceed 1e-10 (absolute 1e-12 for a zero
    load); otherwise the system is reported as singular or ill-conditioned,
    typically because rigid modes were left unconstrained.
    """
    k = system.stiffness.tocsc()
    f = system.load
    if method == "direct":
        u = _factor(k).solve(f)
    elif method == "cg":
        diag = k.diagonal()
        if np.any(diag <= 0.0):
            raise SolverError("non-positive diagonal; system is not positive definite")
        precond = sparse.diags(1.0 / diag)
        u, info = sparse_cg(k, f, rtol=1e-12, atol=0.0, maxiter=20 * k.shape[0], M=precond)
        if info != 0:
            raise SolverError(f"conjugate gradients did not converge (info={info})")
    else:
        raise ConfigurationError(f"unknown solve method {method!r}")

    if system.constraints:
        fixed = np.fromiter(sorted(system.constraints), dtype=np.int64)
        u[fixed] = [system.constraints[int(i)] for i in fixed]

    f_norm = np.linalg.norm(f)
    residual = np.linalg.norm(k @ u - f)
    _check_columns(u[:, None], [residual], [f_norm])
    return DisplacementField(u.reshape(-1, 2))


def solve_condensed(
    system: LinearSystem, bcs_sets: Sequence[BoundaryConditionSet]
) -> list[DisplacementField]:
    """Solve K U = F once per Dirichlet set, for sets that all fix the same dofs.

    Static condensation: with free dofs f and fixed dofs b, each set leaves
    K_ff u_f = F_f - K_fb u_b with the same K_ff, so K_ff is factorized once
    and all sets are solved as one multi-column right-hand side. Result j
    equals ``solve(apply_dirichlet(system, bcs_sets[j]))`` to rounding
    and passes the same checks: the pivot ratio of the factor and, per
    column, the residual contract of the eliminated system,
    |K_ff u_f + K_fb u_b - F_f| <= 1e-10 * sqrt(|F_f - K_fb u_b|^2 + |u_b|^2).
    A failing column j raises SolverError with ``column=j``.
    """
    constraints = [_constraint_values(system, bcs, None) for bcs in bcs_sets]
    if not constraints:
        return []
    fixed = np.array(sorted(constraints[0]), dtype=np.int64)
    for j, c in enumerate(constraints):
        if c.keys() != constraints[0].keys():
            raise ConfigurationError(f"boundary condition set {j} fixes other dofs than set 0")
    u_b = np.array([[c[int(dof)] for dof in fixed] for c in constraints]).T
    free = np.setdiff1d(np.arange(system.n_dofs), fixed)
    k_free = system.stiffness.tocsr()[free]
    k_ff = k_free[:, free].tocsc()
    rhs = system.load[free, None] - k_free[:, fixed] @ u_b

    u = np.empty((system.n_dofs, len(constraints)))
    u[fixed] = u_b
    # a mesh whose nodes are all constrained leaves nothing to factorize
    u[free] = _factor(k_ff).solve(rhs) if len(free) else rhs
    residual = np.linalg.norm(k_ff @ u[free] - rhs, axis=0)
    f_norm = np.sqrt(np.sum(rhs * rhs, axis=0) + np.sum(u_b * u_b, axis=0))
    _check_columns(u, residual, f_norm)
    return [DisplacementField(u[:, j].reshape(-1, 2)) for j in range(u.shape[1])]


def remove_rigid_motion(mesh: Mesh, disp: DisplacementField) -> DisplacementField:
    """Subtract the least-squares rigid motion (translation + rotation).

    Useful to canonicalize pure-traction solutions, whose displacement is
    only determined up to a rigid motion by the pinning choice. Strains are
    unaffected.
    """
    modes = rigid_body_modes(mesh.nodes)
    flat = disp.values.ravel()
    coeffs, *_ = np.linalg.lstsq(modes.T, flat, rcond=None)
    return DisplacementField((flat - modes.T @ coeffs).reshape(-1, 2))
