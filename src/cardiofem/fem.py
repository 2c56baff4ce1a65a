"""Linear triangular finite elements for 2D elasticity.

Assembles the symmetric stiffness system K U = F over a mesh with per-element
constitutive matrices, K in the padded-row form of :class:`Stiffness`. Neumann
data is one nodal load vector added to F, such as the consistent loads of a
uniform inner-wall pressure. Dirichlet data has one format: an array of
strictly increasing fixed dofs and an array of their values. :func:`solve`
takes an (n_fixed, n_sets) value array and solves for the free dofs of every
column with one banded Cholesky factorization in the system's fold order, its
band read from the assembled K through each free dof's band position. LAPACK
comes from the OpenBLAS that numpy's wheel bundles, through ``ctypes``, each
of its two calls pinned to one OpenBLAS thread by :func:`one_blas_thread`,
which makes no thread-count call when the count is 1 already, as in a pinned
fork; scipy.linalg serves a numpy without it. :func:`apply_dirichlet` builds
the equivalent system with the fixed rows and columns eliminated (replaced by
identity), for export.
:func:`boundary_dof_map` pairs the boundary nodes with displacement samples by
one rule, angular order about the reference center.

The fold order, a band order for a periodic ring (George & Liu, *Computer
Solution of Large Sparse Positive Definite Systems*, 1981), takes the nodes
by angle about their centroid folded about angle 0, then by radius, so that
angular columns j and n - j sit side by side. A three-pin (all-boundary)
ring's band has 140 (132) rows at 256x32, 76 (68) at 128x16 and 44 (36) at
64x8, where reverse Cuthill-McKee's has 200 (188), 104 (92) and 56 (44).

Unknown ordering is interleaved: (u_0, v_0, u_1, v_1, ...), so dof 2*i is
the x-displacement of node i and dof 2*i + 1 its y-displacement.
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .contours import TWO_PI, BoundaryDisplacements, _polar_angles, _read_only
from .errors import ConfigurationError, GeometryError, MeshError, SolverError
from .materials import MaterialField, constitutive_matrices
from .meshing import Mesh


@dataclass(frozen=True)
class Stiffness:
    """A sparse n x n matrix in padded-row form: ``vals[s, i]`` sits in row i,
    column ``cols[s, i]``. A row's columns increase with the slot s, then pad
    with zeros in the row's own column; ``nnz`` does not count the padding."""

    cols: np.ndarray
    vals: np.ndarray
    nnz: int

    def __post_init__(self):
        n = self.cols.shape[-1]
        if (self.cols.ndim != 2 or self.vals.shape != self.cols.shape
                or n and not 0 <= self.cols.min() <= self.cols.max() < n):
            raise MeshError("stiffness needs (w, n) columns in 0..n-1 and values of their shape")
        _read_only(self, cols=self.cols, vals=self.vals)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.cols.shape[1],) * 2

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        # summed slot by slot, so each row in column order, as a CSR product
        # sums it; every column is in range, so "clip" only spares a copy
        out, term = np.zeros(u.shape), np.empty(u.shape)
        for cols, vals in zip(self.cols, self.vals.reshape(self.vals.shape + (1,) * (u.ndim - 1))):
            out += np.multiply(vals, np.take(u, cols, axis=0, out=term, mode="clip"), out=term)
        return out

    def tocsr(self):
        """The matrix as a scipy CSR matrix without stored zeros."""
        from scipy import sparse  # only the matrix-market export needs scipy's matrix

        n, w = self.shape[0], len(self.cols)
        k = sparse.csr_matrix((self.vals.T.ravel(), self.cols.T.ravel(),
                               np.arange(0, n * w + 1, w)), shape=self.shape)
        k.eliminate_zeros()
        return k


@dataclass(frozen=True)
class LinearSystem:
    """Stiffness matrix, load vector and the node order in which
    :func:`solve` factors the stiffness; :func:`assemble` gives the fold order."""

    stiffness: Stiffness
    load: np.ndarray
    node_order: np.ndarray

    def __post_init__(self):
        if np.shape(self.load) != (self.stiffness.shape[0],):
            raise MeshError(f"load must be ({self.stiffness.shape[0]},), got {np.shape(self.load)}")
        order = np.sort(self.node_order)
        if 2 * len(order) != len(self.load) or np.any(order != np.arange(len(order))):
            raise MeshError("node order must list every node once")
        _read_only(self, load=self.load, node_order=self.node_order)

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
        _read_only(self, values=vals)


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


def _element_matrices(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Read-only B matrices and areas of a mesh's elements, computed once per
    mesh so that assembly and every frame's strain of a cycle share them."""
    return mesh.cached("element_matrices",
                       lambda: strain_displacement_matrices(mesh.nodes, mesh.triangles))


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


def _fold_order(nodes: np.ndarray) -> np.ndarray:
    """The fold order of ``nodes`` (see the module docstring)."""
    rel = nodes - nodes.mean(axis=0)
    theta = _polar_angles(rel)
    fold = np.minimum(theta, TWO_PI - theta)
    # a fold angle within 1e-9 of the next smaller one ties with it, so that
    # a column's nodes, equal in angle up to rounding, go by radius
    by_fold = np.argsort(fold)
    tier = np.empty_like(by_fold)
    tier[by_fold] = np.cumsum(np.diff(fold[by_fold], prepend=0.0) > 1e-9)
    return np.lexsort((np.hypot(rel[:, 0], rel[:, 1]), tier))


def assemble(mesh: Mesh, materials: MaterialField, mode: str = "as-printed") -> LinearSystem:
    """Scatter-add all element stiffnesses into the global sparse system,
    summing each entry's element contributions in element order.

    The load vector starts at zero (no body forces in the static model).
    """
    if materials.n_elements != mesh.n_triangles:
        raise MeshError(
            f"material field covers {materials.n_elements} elements, "
            f"mesh has {mesh.n_triangles}"
        )
    tri = mesh.triangles
    try:
        bmat, area = _element_matrices(mesh)
    except GeometryError as exc:
        raise MeshError(f"mesh contains non-positive-area triangles: {exc}") from exc

    d = constitutive_matrices(materials, mode)
    ke = np.matmul(bmat.transpose(0, 2, 1), d @ bmat) * area[:, None, None]

    # each distinct node pair (a, b) of an element is one 2 x 2 block of K, in
    # slot p of node a's blocks (b ascending, then a's own index as padding);
    # its entry (2a + i, 2b + j) sits in slot 2p + j of dof row 2a + i
    nn = mesh.n_nodes
    pairs, pair = np.unique((tri[:, :, None] * nn + tri[:, None, :]).ravel(), return_inverse=True)
    a, b = np.divmod(pairs, nn)
    counts = np.bincount(a, minlength=nn)
    p = np.arange(len(pairs)) - (np.cumsum(counts) - counts)[a]
    blocks = np.tile(np.arange(nn), (max(counts.max(initial=0), 1), 1))
    blocks[p, a] = b
    cols = np.repeat(2 * blocks[:, None] + np.arange(2)[:, None], 2, axis=2).reshape(-1, 2 * nn)
    vals = np.zeros(cols.shape)
    for i in range(2):
        for j in range(2):
            vals[2 * p + j, 2 * a + i] = np.bincount(pair, ke[:, i::2, j::2].ravel(), len(pairs))
    order = mesh.cached("fold_order", lambda: _fold_order(mesh.nodes))
    return LinearSystem(Stiffness(cols, vals, 4 * len(pairs)), np.zeros(2 * nn), order)


# ---------------------------------------------------------------------------
# boundary conditions


def _fixed_dofs(system: LinearSystem, fixed_dofs) -> np.ndarray:
    """``fixed_dofs`` as an int64 array, checked to be strictly increasing
    dofs of ``system``."""
    fixed = np.asarray(fixed_dofs, dtype=np.int64)
    if fixed.ndim != 1 or np.any(np.diff(fixed) <= 0):
        raise ConfigurationError("fixed dofs must be strictly increasing")
    if len(fixed) and (fixed[0] < 0 or fixed[-1] >= system.n_dofs):
        raise ConfigurationError(f"fixed dofs must lie in 0..{system.n_dofs - 1}")
    return fixed


def apply_dirichlet(system: LinearSystem, fixed_dofs, values) -> LinearSystem:
    """The system with ``values`` imposed on the strictly increasing
    ``fixed_dofs`` by symmetric row/column elimination.

    Returns a new system; the input is left untouched. Eliminated rows and
    columns are replaced by identity, with the load corrected so interior
    equations see the fixed values. :func:`solve` does not need this system:
    it solves the free-dof block directly.
    """
    fixed = _fixed_dofs(system, fixed_dofs)
    values = np.asarray(values, dtype=float)
    if values.shape != fixed.shape:
        raise ConfigurationError(
            f"values must be ({len(fixed)},) for {len(fixed)} fixed dofs, got {values.shape}"
        )
    k = system.stiffness
    z = np.zeros(system.n_dofs)
    z[fixed] = values
    free = np.ones(system.n_dofs, dtype=bool)
    free[fixed] = False
    vals = np.where(free & free[k.cols], k.vals, 0.0)
    diagonal = k.cols[:, fixed] == fixed
    if not diagonal.any(axis=0).all():
        raise MeshError("every fixed row of the stiffness must store its diagonal")
    vals[np.argmax(diagonal, axis=0), fixed] = 1.0
    load = np.where(free, system.load - k @ z, z)
    return LinearSystem(Stiffness(k.cols, vals, k.nnz), load, system.node_order)


def apply_traction(system: LinearSystem, loads) -> LinearSystem:
    """The system with the nodal ``loads`` (2V,) added to its load vector,
    such as :func:`internal_pressure_tractions` returns. Apply them before
    :func:`apply_dirichlet` so its load correction sees them."""
    return LinearSystem(system.stiffness, system.load + loads, system.node_order)


def internal_pressure_tractions(mesh: Mesh, pressure: float) -> np.ndarray:
    """Consistent nodal loads (2V,) of a uniform pressure on the inner wall.

    An inner edge e = x_b - x_a carries the pressure times the unit normal
    into the wall, (e_y, -e_x) / |e|, and each end takes |e| / 2 of it, in
    which |e| cancels: 0.5 * pressure * (e_y, -e_x).
    """
    a, b = mesh.inner_edges.T
    e = mesh.nodes[b] - mesh.nodes[a]
    half = 0.5 * pressure * np.column_stack([e[:, 1], -e[:, 0]])
    loads = np.zeros((mesh.n_nodes, 2))
    np.add.at(loads, a, half)
    np.add.at(loads, b, half)
    return loads.ravel()


def boundary_dof_map(
    mesh: Mesh, inner_positions, outer_positions, center
) -> tuple[np.ndarray, np.ndarray]:
    """Pair the dofs of both boundary loops with displacement samples.

    Returns the sorted dofs of all inner and outer boundary nodes and, per
    dof, the index of its value in the flattened sample vectors
    ``concatenate([inner_vectors, outer_vectors]).ravel()``.

    Nodes and samples of each loop are paired in angular order about
    ``center``, so a reference mesh can take samples from a slightly
    different geometry (small-strain approximation); on samples at the nodes
    themselves node k pairs with sample k. The two angular orders are cyclic
    and are aligned at the sample nearest to the first node, so the seam at
    angle 0 does not shift the pairing by one.
    """
    c = np.asarray(center, dtype=float)
    nodes, samples = [], []
    offset = 0
    for label, positions in (("inner", inner_positions), ("outer", outer_positions)):
        node_ids = mesh.boundary_nodes(label)
        if len(node_ids) != len(positions):
            raise GeometryError(
                f"{label} boundary has {len(node_ids)} nodes but "
                f"{len(positions)} displacement samples"
            )
        node_angles = _polar_angles(mesh.nodes[node_ids] - c)
        sample_angles = _polar_angles(positions - c)
        node_order = np.argsort(node_angles, kind="stable")
        sample_order = np.argsort(sample_angles, kind="stable")
        # Both orders are cyclic: align them at the sample nearest (in
        # circular distance) to the first node, so that a node whose angle
        # rounds to just below 2*pi meets the sample at 0.
        gap = np.abs(sample_angles[sample_order] - node_angles[node_order[0]])
        shift = int(np.argmin(np.minimum(gap, TWO_PI - gap)))
        nearest = np.empty(len(node_ids), dtype=np.int64)
        nearest[node_order] = np.roll(sample_order, -shift)
        nodes.append(node_ids)
        samples.append(offset + nearest)
        offset += len(positions)
    node_ids = np.concatenate(nodes)
    order = np.argsort(node_ids, kind="stable")
    dofs = (2 * node_ids[order, None] + np.arange(2)).ravel()
    take = (2 * np.concatenate(samples)[order, None] + np.arange(2)).ravel()
    return dofs, take


def boundary_conditions_from_displacements(
    mesh: Mesh, bd: BoundaryDisplacements
) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet data of boundary displacement samples on the mesh.

    Returns the sorted dofs of all inner and outer boundary nodes and their
    sampled values, paired with the samples by :func:`boundary_dof_map`.
    """
    dofs, take = boundary_dof_map(mesh, bd.inner_positions, bd.outer_positions, bd.reference_center)
    return dofs, np.concatenate([bd.inner_vectors, bd.outer_vectors]).ravel()[take]


# ---------------------------------------------------------------------------
# solve


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore the
    caller's count; make no thread-count call when the count is 1 already.
    ``dpbtrf`` and ``dpbtrs`` run under it, since the thread pool slows a lone
    banded factorization. The fork sites enter it around the fork and the
    reap: a fork shuts the pool down, and the next thread-count call, one
    that sets 1 included, starts a pool thread that busy-waits on the CPU the
    other process needs."""
    before = 1 if _LAPACK is None else _LAPACK.get_threads()
    if before != 1:
        _LAPACK.set_threads(1)
    try:
        yield
    finally:
        if before != 1:
            _LAPACK.set_threads(before)


def _openblas():
    """numpy's OpenBLAS, found by its symbols among the libraries numpy's
    LAPACK module links: ILP64 ``dpbtrf``/``dpbtrs`` (LAPACKE's work forms, with
    no NaN scan, as scipy calls them) and the thread count; None without them."""
    lib, i64 = ctypes.CDLL(_umath_linalg.__file__), ctypes.c_int64
    try:
        lib.trf, lib.trs = lib.scipy_LAPACKE_dpbtrf_work64_, lib.scipy_LAPACKE_dpbtrs_work64_
        lib.get_threads = lib.scipy_openblas_get_num_threads64_
        lib.set_threads = lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return None
    band = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS")
    lib.trf.argtypes = [ctypes.c_int, ctypes.c_char, i64, i64, band, i64]
    lib.trs.argtypes = [ctypes.c_int, ctypes.c_char, i64, i64, i64, band, i64, band, i64]
    lib.trf.restype = lib.trs.restype = i64
    lib.get_threads.argtypes, lib.get_threads.restype = [], ctypes.c_int
    lib.set_threads.argtypes, lib.set_threads.restype = [ctypes.c_int], None
    return lib


_LAPACK = _openblas()


def _band_solve(band: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``dpbtrs``'s solutions for the (n,) or (n, r) right-hand sides ``b``
    (overwritten) of the system whose factor is ``band``."""
    if _LAPACK is None:
        from scipy.linalg.lapack import dpbtrs

        return dpbtrs(band, b, lower=1, overwrite_b=1)[0]
    x, n = np.asfortranarray(b), band.shape[1]
    with one_blas_thread():
        _LAPACK.trs(102, b"L", n, len(band) - 1, x.size // n, band, len(band), x, n)
    return x


def _factor(k: Stiffness, band_dofs: np.ndarray) -> np.ndarray:
    """Lower band Cholesky factor, in LAPACK form, of the symmetric ``k`` on
    the free dofs ``band_dofs`` in that row order, the system's fold order
    (George & Liu 1981); a block that is not positive definite, or nearly
    singular, raises SolverError.

    The band is summed straight from the arrays of ``k`` through each free
    dof's band position (-1 for a fixed dof), with no copy of the block, and
    factored in place by LAPACK ``dpbtrf``: numpy's bundled OpenBLAS, or
    scipy.linalg's where numpy has none. A Cholesky breakdown means the
    block is not positive definite. It is numerically singular, with rigid
    modes left unconstrained, when a squared Cholesky diagonal entry (a pivot
    of the symmetric elimination) is at or below 1e-12 of the largest, or when
    one inverse iteration ends on a vector whose Rayleigh quotient is at or
    below 1e-14 of the block's largest diagonal entry."""
    n = len(band_dofs)
    position = np.full(k.shape[0], -1)
    position[band_dofs] = np.arange(n)
    row, col = np.broadcast_to(position, k.cols.shape), position[k.cols]
    lower = (col >= 0) & (row >= col)
    depth, col = row[lower] - col[lower], col[lower]
    rows = int(np.max(depth, initial=0)) + 1
    # Fortran order, so that dpbtrf factors the band in place instead of a copy
    band = np.bincount(depth + rows * col, k.vals[lower], rows * n).reshape((rows, n), order="F")
    diagonal = band[0].max()
    if _LAPACK is None:
        from scipy.linalg.lapack import dpbtrf

        band, info = dpbtrf(band, lower=1, overwrite_ab=1)
    else:
        with one_blas_thread():
            info = _LAPACK.trf(102, b"L", n, rows - 1, band, rows)
    if info:
        raise SolverError("direct factorization failed: the stiffness is not positive "
                          f"definite ({info}-th leading minor not positive definite)")
    pivots = band[0] * band[0]
    # A free rigid mode can leave every pivot far above rounding (up to 1e-8 of
    # the largest with one node of a ring pinned), so one inverse iteration
    # from a fixed random start looks for it too: it lands on the mode, whose
    # Rayleigh quotient is at rounding level (~1e-17 of the largest diagonal
    # entry; a three-pin thin ring's is 5.6e-11).
    probe = np.zeros(k.shape[0])
    probe[band_dofs] = _band_solve(band, np.random.default_rng(0).standard_normal(n))
    if (pivots.min() <= 1e-12 * pivots.max()
            or probe @ (k @ probe) <= 1e-14 * diagonal * (probe @ probe)):
        raise SolverError(
            "numerically singular system: rigid modes are unconstrained "
            "(pin at least 3 dofs)"
        )
    return band


def _check_columns(u: np.ndarray, residual: np.ndarray, f_norm: np.ndarray) -> None:
    """Per right-hand-side column j of ``u`` (n, r): finite values and the
    residual contract residual[j] <= 1e-10 * f_norm[j] (1e-12 absolute for a
    zero load). A failing column raises SolverError with ``column=j``."""
    for j in range(u.shape[1]):
        if not np.all(np.isfinite(u[:, j])):
            raise SolverError("solution contains non-finite values; system is singular", j)
        if f_norm[j] > 0.0:
            ok = residual[j] <= 1e-10 * f_norm[j]
            miss = f"relative residual {residual[j] / f_norm[j]:.2e} > 1e-10"
        else:
            ok = residual[j] <= 1e-12
            miss = "absolute residual > 1e-12 for a zero load"
        if not ok:
            raise SolverError(
                f"residual contract violated: |KU - F| = {residual[j]:.3e} with "
                f"|F| = {f_norm[j]:.3e} ({miss}); the system is singular or "
                "ill-conditioned: fewer than 3 dofs pinned against rigid motion, "
                "or a large stiffness contrast or a Poisson's ratio near 0.5",
                j,
            )


def solve(system: LinearSystem, fixed_dofs, values) -> list[DisplacementField]:
    """Solutions of K U = F with U fixed on ``fixed_dofs``, one per set of values.

    ``fixed_dofs`` are strictly increasing dof indices and ``values`` is an
    (n_fixed, n_sets) array whose column j holds set j's values on them.
    With free dofs f and fixed dofs b, each column leaves
    K_ff u_f = F_f - K_fb u_b with the same symmetric positive definite K_ff,
    which is factorized once by banded Cholesky for all columns. All of it
    is read from the assembled K in place, with no copy of K_ff: the
    right-hand sides are (F - K u_0) on the free dofs in the system's fold
    order, u_0 holding the fixed values and zeros elsewhere, and
    :func:`_factor` reads the band from K's arrays; it raises SolverError
    for a K_ff that is not positive definite or is numerically singular.
    Column j must meet the residual contract of the eliminated system,
    |K_ff u_f + K_fb u_b - F_f| <= 1e-10 * sqrt(|F_f - K_fb u_b|^2 + |u_b|^2)
    (absolute 1e-12 for a zero right-hand side); otherwise SolverError with
    ``column=j`` reports the system as singular or ill-conditioned: rigid
    modes left unconstrained, or float64 rounding of a stiffness with a large
    contrast or near-incompressible material.
    """
    fixed = _fixed_dofs(system, fixed_dofs)
    u_b = np.asarray(values, dtype=float)
    if u_b.ndim != 2 or len(u_b) != len(fixed):
        raise ConfigurationError(
            f"values must be ({len(fixed)}, n_sets) for {len(fixed)} fixed dofs, "
            f"got {u_b.shape}"
        )
    if not u_b.shape[1]:
        return []
    k, load = system.stiffness, system.load[:, None]
    band_dofs = np.setdiff1d(2 * system.node_order[:, None] + np.arange(2), fixed, True)
    u = np.zeros((system.n_dofs, u_b.shape[1]))
    u[fixed] = u_b
    rhs = (load - k @ u)[band_dofs]
    f_norm = np.sqrt(np.sum(rhs * rhs, axis=0) + np.sum(u_b * u_b, axis=0))
    # a mesh whose nodes are all constrained leaves nothing to solve
    if len(band_dofs):
        u[band_dofs] = _band_solve(_factor(k, band_dofs), rhs)
    residual = np.linalg.norm((k @ u - load)[band_dofs], axis=0)
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


def __getattr__(name: str):
    # bench/tracer.py wraps ``fem.splu``, which nothing here calls; it loads
    # scipy only when read
    if name != "splu":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.sparse.linalg import splu

    return splu
