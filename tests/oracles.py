"""Oracles kept for the tests. Per element: the one-triangle strain-
displacement matrix and stiffness, and the method's strain formula in the
element's local edge-aligned frame, rotated back to global axes; the library
computes the matrices, stiffnesses and global strains for whole meshes at
once, and the tests check them against these scalar forms. Per system:
Dirichlet values as a per-node dict merged into a dof -> value map, the
identity-row system built from it, and the solve of that whole system; the
library takes the values as (fixed dofs, values) arrays and solves only the
free-dof block."""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import cg, splu

from cardiofem.errors import GeometryError
from cardiofem.fem import LinearSystem, strain_displacement_matrices


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
    k = system.stiffness
    proj = sparse.diags(free_mask)
    k_new = (proj @ k @ proj + sparse.diags(1.0 - free_mask)).tocsr()
    f_new = free_mask * (system.load - k @ z) + z
    return LinearSystem(k_new, f_new), fixed, values


def identity_row_solve(system, fixed, values, method="direct") -> np.ndarray:
    """(V, 2) solution of an eliminated system's whole n_dofs x n_dofs matrix,
    its unit rows included, by sparse LU (same ordering as the library) or
    Jacobi-preconditioned CG, with the fixed values written back."""
    k = system.stiffness.tocsc()
    if method == "direct":
        u = splu(k, permc_spec="MMD_AT_PLUS_A").solve(system.load)
    else:
        precond = sparse.diags(1.0 / k.diagonal())
        u, info = cg(k, system.load, rtol=1e-12, atol=0.0, maxiter=20 * k.shape[0], M=precond)
        assert info == 0, info
    u[fixed] = values
    return u.reshape(-1, 2)
