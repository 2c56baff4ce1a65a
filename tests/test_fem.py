import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.sparse.linalg import splu

from cardiofem import (
    ConfigurationError, CycleParams, GeometryError, RingSpec, SolverError, cycle_strain_analysis,
)
from cardiofem.errors import MeshError
from cardiofem.contours import (
    BoundaryDisplacements,
    Contour,
    FrameContours,
    boundary_displacements,
    centroid,
    uniform_angle_walls,
)
from cardiofem.fem import (
    apply_dirichlet,
    apply_traction,
    assemble,
    boundary_conditions_from_displacements,
    internal_pressure_tractions,
    rigid_body_modes,
    solve,
)
from cardiofem.materials import AngularRegion, Material, MaterialField
from cardiofem.meshing import Mesh, triangulate_annulus
from cardiofem.phantom import lame_displacement_at, make_ring, solve_ring_traction
from cardiofem.synth import mi_wedge_study
from cardiofem import fem

from conftest import boundary_dirichlet, circle_frame, region_ring, solve_one, star_contour
from oracles import (
    csr_stiffness,
    element_stiffness,
    fold_free_block_solve,
    identity_row_solve,
    identity_row_system,
    nodal_dirichlet,
    padded_rows,
    position_conditions,
    position_dof_map,
    rcm_banded_solve,
    strain_displacement_matrix,
    superlu_free_solve,
)


def _random_triangle(rng):
    while True:
        p = rng.uniform(-5, 5, (3, 2))
        u, v = p[1] - p[0], p[2] - p[0]
        area = 0.5 * (u[0] * v[1] - u[1] * v[0])
        if area > 0.1:
            return p


def _affine_field(points, a=(0.003, 0.1, -0.04), b=(-0.002, 0.05, 0.07)):
    x, y = points[:, 0], points[:, 1]
    return np.column_stack([a[0] + a[1] * x + a[2] * y, b[0] + b[1] * x + b[2] * y])


# ---------------------------------------------------------------------------
# element level


def test_element_stiffness_symmetry_and_rigid_modes():
    rng = np.random.default_rng(1)
    d = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 0.0], [0.0, 0.0, 1.5]])
    for _ in range(20):
        coords = _random_triangle(rng)
        ke = element_stiffness(coords, d)
        assert np.max(np.abs(ke - ke.T)) < 1e-12 * np.max(np.abs(ke))
        tx = np.array([1.0, 0.0] * 3)
        ty = np.array([0.0, 1.0] * 3)
        rot = np.column_stack([-coords[:, 1], coords[:, 0]]).ravel()
        scale = np.max(np.abs(ke))
        for mode in (tx, ty, rot):
            assert np.max(np.abs(ke @ mode)) < 1e-10 * scale * max(np.max(np.abs(mode)), 1.0)


def test_element_stiffness_unit_right_triangle():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # barycentric gradients of the unit right triangle, assembled by hand
    b_hand = np.array(
        [
            [-1.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0, 0.0, 1.0],
            [-1.0, -1.0, 0.0, 1.0, 1.0, 0.0],
        ]
    )
    expected = 0.5 * b_hand.T @ b_hand
    ke = element_stiffness(coords, np.eye(3))
    assert_allclose(ke, expected, atol=1e-14)
    b, area = strain_displacement_matrix(coords)
    assert area == pytest.approx(0.5)
    assert_allclose(b, b_hand, atol=1e-14)


def test_element_stiffness_scale_invariant():
    rng = np.random.default_rng(7)
    d = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 0.75]])
    coords = _random_triangle(rng)
    ke1 = element_stiffness(coords, d)
    ke2 = element_stiffness(2.0 * coords, d)
    assert_allclose(ke2, ke1, rtol=1e-12)


def test_element_stiffness_degenerate():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(GeometryError):
        element_stiffness(coords, np.eye(3))
    with pytest.raises(GeometryError):
        element_stiffness(coords[::-1], np.eye(3))  # negative area


# ---------------------------------------------------------------------------
# assembly


def _single_triangle_mesh():
    nodes = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    return Mesh(nodes, [[0, 1, 2]], [[0, 1]], np.zeros((0, 2)))


def test_assemble_single_element_equals_element_stiffness():
    mesh = _single_triangle_mesh()
    mats = MaterialField.uniform(mesh, Material(1e4, 0.3))
    system = assemble(mesh, mats, "as-printed")
    from cardiofem.materials import constitutive_matrix

    ke = element_stiffness(mesh.nodes, constitutive_matrix(Material(1e4, 0.3)))
    assert_allclose(system.stiffness.tocsr().toarray(), ke, rtol=1e-12)
    assert np.all(system.load == 0.0)


def test_assemble_two_elements_scatter_add():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = Mesh(nodes, [[0, 1, 2], [0, 2, 3]], [[0, 1]], np.zeros((0, 2)))
    mats = MaterialField.uniform(mesh, Material(2.0, 0.25))
    from cardiofem.materials import constitutive_matrix

    d = constitutive_matrix(Material(2.0, 0.25))
    k = np.zeros((8, 8))
    for tri in mesh.triangles:
        ke = element_stiffness(mesh.nodes[tri], d)
        dofs = np.empty(6, dtype=int)
        dofs[0::2] = 2 * tri
        dofs[1::2] = 2 * tri + 1
        k[np.ix_(dofs, dofs)] += ke
    system = assemble(mesh, mats)
    assert_allclose(system.stiffness.tocsr().toarray(), k, rtol=1e-12)


def test_assemble_matches_element_loop_on_annulus():
    mesh, mats = make_ring(RingSpec(1.0, 2.0, material=Material(1e4, 0.3)), 8, 2)
    from cardiofem.materials import constitutive_matrix

    d = constitutive_matrix(Material(1e4, 0.3), "plane-strain")
    n = 2 * mesh.n_nodes
    k = np.zeros((n, n))
    for tri in mesh.triangles:
        ke = element_stiffness(mesh.nodes[tri], d)
        dofs = np.empty(6, dtype=int)
        dofs[0::2] = 2 * tri
        dofs[1::2] = 2 * tri + 1
        k[np.ix_(dofs, dofs)] += ke
    system = assemble(mesh, mats, "plane-strain")
    assert_allclose(system.stiffness.tocsr().toarray(), k, rtol=1e-10, atol=1e-10)


def test_assemble_material_count_mismatch(ring_mesh):
    mesh, _ = ring_mesh
    bad = MaterialField(np.ones(3), np.full(3, 0.3))
    with pytest.raises(Exception):
        assemble(mesh, bad)


@pytest.mark.parametrize("n_angular, n_radial", [(64, 8), (128, 16), (256, 32)])
def test_assemble_matches_the_csr_oracle(n_angular, n_radial):
    # the padded-row form holds the CSR assembly's pattern and its values up
    # to the order in which duplicates are summed; its products are summed
    # row by row in column order, as a CSR product sums them
    spec = RingSpec(1.0, 2.0)
    wedge = AngularRegion(200.0, 290.0, Material(1e6, 0.3))
    for mesh, mats in (make_ring(spec, n_angular, n_radial),
                       region_ring(spec, n_angular, n_radial, wedge)):
        k = assemble(mesh, mats, "plane-strain").stiffness
        expected = csr_stiffness(mesh, mats, "plane-strain")
        got = k.tocsr()
        assert k.nnz == got.nnz == expected.nnz
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.indices, expected.indices)
        assert np.max(np.abs(got.data - expected.data)) <= 1e-15 * np.max(np.abs(expected.data))
        u = np.random.default_rng(2).standard_normal((k.shape[0], 3))
        assert np.array_equal(k @ u, got @ u)
        assert np.array_equal(k @ u[:, 0], got @ u[:, 0])


def test_stiffness_symmetry_and_nullspace_4x1():
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 4, 1)
    system = assemble(mesh, mats)
    k = system.stiffness.tocsr().toarray()
    assert np.max(np.abs(k - k.T)) < 1e-12 * np.max(np.abs(k))
    eigvals = np.sort(np.abs(np.linalg.eigvalsh(k)))
    assert eigvals[2] < 1e-9 * eigvals[-1]
    assert eigvals[3] > 1e-6 * eigvals[-1]


def test_rigid_modes_annihilated():
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 32, 4)
    system = assemble(mesh, mats)
    k = system.stiffness
    k_scale = np.max(np.abs(k.vals))
    for mode in rigid_body_modes(mesh.nodes):
        residual = np.max(np.abs(k @ mode))
        assert residual < 1e-8 * k_scale * max(np.max(np.abs(mode)), 1.0)


# ---------------------------------------------------------------------------
# Dirichlet conditions


def test_zero_boundary_gives_zero_solution(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    disp = solve_one(system, *boundary_dirichlet(mesh, np.zeros((mesh.n_nodes, 2))))
    assert np.max(np.abs(disp.values)) < 1e-14


def test_patch_test_affine_exact():
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 24, 3)
    system = assemble(mesh, mats, "plane-strain")
    exact = _affine_field(mesh.nodes)
    disp = solve_one(system, *boundary_dirichlet(mesh, exact))
    err = np.max(np.abs(disp.values - exact)) / np.max(np.abs(exact))
    assert err < 1e-9


def test_rigid_translation_reproduced(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    c = 0.37
    values = np.full((mesh.n_nodes, 2), 0.0)
    values[:, 0] = c
    disp = solve_one(system, *boundary_dirichlet(mesh, values))
    assert np.max(np.abs(disp.values[:, 0] - c)) < 1e-10
    assert np.max(np.abs(disp.values[:, 1])) < 1e-10


def test_solution_linear_in_boundary_data(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    rng = np.random.default_rng(3)
    g1 = rng.normal(size=(mesh.n_nodes, 2))
    g2 = rng.normal(size=(mesh.n_nodes, 2))
    alpha, beta = 1.7, -0.6
    u1 = solve_one(system, *boundary_dirichlet(mesh, g1)).values
    u2 = solve_one(system, *boundary_dirichlet(mesh, g2)).values
    u12 = solve_one(system, *boundary_dirichlet(mesh, alpha * g1 + beta * g2)).values
    ref = alpha * u1 + beta * u2
    assert np.max(np.abs(u12 - ref)) / np.max(np.abs(ref)) < 1e-9


def test_dirichlet_values_exact_at_constrained_nodes(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    fixed, values = boundary_dirichlet(mesh, _affine_field(mesh.nodes))
    disp = solve_one(system, fixed, values)
    assert np.array_equal(disp.values.ravel()[fixed], values)


def test_apply_dirichlet_matches_dict_oracle():
    # the per-node dict merged into a dof -> value map, then eliminated, is
    # the path the (fixed dofs, values) arrays replaced
    mesh, bd = _mesh_and_samples()
    system = assemble(mesh, MaterialField.uniform(mesh, Material(1e4, 0.3)))
    load = np.random.default_rng(4).normal(size=system.n_dofs)
    system = fem.LinearSystem(system.stiffness, load, system.node_order)
    nodal = nodal_dirichlet(*boundary_conditions_from_displacements(mesh, bd))
    expected, fixed, values = identity_row_system(system, nodal)
    dofs, got_values = boundary_conditions_from_displacements(mesh, bd)
    got = apply_dirichlet(system, dofs, got_values)
    assert np.array_equal(dofs, fixed)
    assert np.array_equal(got_values, values)
    assert np.array_equal(got.stiffness.tocsr().toarray(), expected.stiffness.toarray())
    assert np.array_equal(got.load, expected.load)


def test_dirichlet_node_out_of_range(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    for fixed in ([1998, 1999], [-1, 0]):
        with pytest.raises(ConfigurationError, match="must lie in"):
            apply_dirichlet(system, fixed, [0.0, 0.0])
        with pytest.raises(ConfigurationError, match="must lie in"):
            solve(system, fixed, np.zeros((2, 1)))


@pytest.mark.parametrize("fixed", [[3, 2], [2, 2], [[0, 1]]])
def test_fixed_dofs_strictly_increasing(ring_mesh, fixed):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        apply_dirichlet(system, fixed, [0.0, 0.0])
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        solve(system, fixed, np.zeros((2, 1)))


def test_apply_dirichlet_checks_values_shape(ring_mesh):
    mesh, mats = ring_mesh
    with pytest.raises(ConfigurationError, match="values must be"):
        apply_dirichlet(assemble(mesh, mats), [0, 1], np.zeros((2, 1)))


def test_apply_dirichlet_preserves_input(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    before = system.stiffness.tocsr().toarray().copy()
    apply_dirichlet(system, *boundary_dirichlet(mesh, np.ones((mesh.n_nodes, 2))))
    assert np.array_equal(system.stiffness.tocsr().toarray(), before)
    assert np.all(system.load == 0.0)


# ---------------------------------------------------------------------------
# tractions


def test_zero_traction_keeps_load(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    edges = {tuple(map(int, e)): (0.0, 0.0) for e in mesh.inner_edges[:4]}
    out = apply_traction(system, edges, mesh)
    assert np.all(out.load == 0.0)


def test_single_edge_traction_lumping():
    nodes = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    mesh = Mesh(nodes, [[0, 1, 2]], [[0, 1]], np.zeros((0, 2)))
    system = assemble(mesh, MaterialField.uniform(mesh, Material(1.0, 0.0)))
    f = apply_traction(system, {(0, 1): (1.0, 0.0)}, mesh).load
    assert f[0] == pytest.approx(1.0)
    assert f[2] == pytest.approx(1.0)
    assert np.all(f[[1, 3, 4, 5]] == 0.0)


def test_radial_pressure_net_force_zero():
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 64, 4)
    system = assemble(mesh, mats)
    out = apply_traction(system, internal_pressure_tractions(mesh, 2.5), mesh)
    net = np.array([out.load[0::2].sum(), out.load[1::2].sum()])
    assert np.max(np.abs(net)) < 1e-9 * 2.5 * 2 * np.pi


def test_traction_on_non_boundary_edge(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    with pytest.raises(ConfigurationError):
        apply_traction(system, {(0, 17): (1.0, 0.0)}, mesh)


# ---------------------------------------------------------------------------
# solve


def test_unpinned_traction_system_is_singular():
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 16, 2)
    system = assemble(mesh, mats)
    loaded = apply_traction(system, internal_pressure_tractions(mesh, 1.0), mesh)
    with pytest.raises(SolverError):
        solve(loaded, [], np.zeros((0, 1)))


def test_cg_matches_direct(ring_mesh):
    # the Jacobi-preconditioned CG oracle against the direct solve
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    fixed, values = boundary_dirichlet(mesh, _affine_field(mesh.nodes))
    direct = solve_one(system, fixed, values).values
    iterative = identity_row_solve(
        *identity_row_system(system, nodal_dirichlet(fixed, values)), method="cg"
    )
    assert np.max(np.abs(direct - iterative)) < 1e-8 * np.max(np.abs(direct))


@pytest.mark.parametrize("method", ["direct", "cg"])
@pytest.mark.parametrize("field", ["affine", "random", "random with load"])
def test_solve_matches_identity_row_oracle(ring_mesh, method, field):
    # solve factors only the free-dof block; the whole identity-row solve, by
    # SuperLU or by CG (``method``), is the oracle
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    if field == "affine":
        fixed, values = boundary_dirichlet(mesh, _affine_field(mesh.nodes))
    else:
        fixed, values = _random_boundary_sets(mesh, 1)
        values = values[:, 0]
    if field == "random with load":
        load = np.random.default_rng(2).normal(size=system.n_dofs)
        system = fem.LinearSystem(system.stiffness, load, system.node_order)
    expected = identity_row_solve(*identity_row_system(system, nodal_dirichlet(fixed, values)),
                                  method)
    got = solve_one(system, fixed, values).values
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_residual_contract(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    fixed, values = boundary_dirichlet(mesh, _affine_field(mesh.nodes))
    constrained = apply_dirichlet(system, fixed, values)
    disp = solve_one(system, fixed, values)
    residual = np.linalg.norm(constrained.stiffness @ disp.values.ravel() - constrained.load)
    assert residual <= 1e-10 * np.linalg.norm(constrained.load)


# ---------------------------------------------------------------------------
# multi-right-hand-side solve


def _random_boundary_sets(mesh, n_sets, seed=0):
    """All boundary dofs and (n_fixed, n_sets) random values on them."""
    rng = np.random.default_rng(seed)
    sets = [
        boundary_dirichlet(mesh, rng.normal(scale=0.05, size=(mesh.n_nodes, 2)))
        for _ in range(n_sets)
    ]
    return sets[0][0], np.column_stack([values for _, values in sets])


def test_solve_condensed_matches_per_set_solve(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    # a load on the free dofs exercises the F_f term of the condensed right-hand side
    system = fem.LinearSystem(
        system.stiffness, np.random.default_rng(1).normal(size=system.n_dofs), system.node_order
    )
    fixed, values = _random_boundary_sets(mesh, 4)
    batched = solve(system, fixed, values)
    assert len(batched) == 4
    for column, disp in zip(values.T, batched):
        expected = identity_row_solve(*identity_row_system(system, nodal_dirichlet(fixed, column)))
        assert np.max(np.abs(disp.values - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_solve_condensed_all_nodes_constrained():
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 16, 1)  # every node is a boundary node
    values = _affine_field(mesh.nodes)
    disp = solve_one(assemble(mesh, mats), *boundary_dirichlet(mesh, values))
    assert_allclose(disp.values, values, rtol=0, atol=0)


def test_solve_condensed_empty_sequence(ring_mesh):
    mesh, mats = ring_mesh
    fixed, _ = _random_boundary_sets(mesh, 1)
    assert solve(assemble(mesh, mats), fixed, np.empty((len(fixed), 0))) == []


def test_solve_condensed_checks_values_shape(ring_mesh):
    mesh, mats = ring_mesh
    fixed, values = _random_boundary_sets(mesh, 2)
    with pytest.raises(ConfigurationError):
        solve(assemble(mesh, mats), fixed, values[1:])


def test_solve_condensed_singular_free_block(ring_mesh):
    # an extra node that belongs to no element leaves zero rows in K_ff
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    padded = fem.LinearSystem(
        padded_rows(sparse.block_diag([system.stiffness.tocsr(), sparse.csr_matrix((2, 2))])),
        np.zeros(system.n_dofs + 2),
        np.append(system.node_order, mesh.n_nodes),
    )
    fixed, values = _random_boundary_sets(mesh, 3)
    with pytest.raises(SolverError) as info:
        solve(padded, fixed, values)
    with pytest.raises(SolverError) as expected:
        fold_free_block_solve(padded, fixed, values)
    assert str(info.value) == str(expected.value)


def test_solve_condensed_names_failing_column(ring_mesh, monkeypatch):
    mesh, mats = ring_mesh
    real_solve = fem._band_solve

    def corrupt_column_one(band, b):
        u = real_solve(band, b)
        if u.ndim == 2:
            u[:, 1] *= 1.0 + 1e-6
        return u

    monkeypatch.setattr(fem, "_band_solve", corrupt_column_one)
    with pytest.raises(SolverError, match="residual contract") as info:
        solve(assemble(mesh, mats), *_random_boundary_sets(mesh, 3))
    assert info.value.column == 1


# ---------------------------------------------------------------------------
# boundary-condition construction from displacement samples


def test_bcs_from_displacements_position_match():
    frame0 = circle_frame(0)
    frame1 = circle_frame(1)
    bd = boundary_displacements(frame0, frame1, 16)
    from cardiofem.contours import resample_uniform_angle

    center = centroid(frame0.inner)
    inner = resample_uniform_angle(frame0.inner, center, 16)
    outer = resample_uniform_angle(frame0.outer, center, 16)
    mesh = triangulate_annulus(inner, outer, 16, 2)
    dofs, values = boundary_conditions_from_displacements(mesh, bd)
    assert len(dofs) == 64
    assert np.all(values == 0.0)


def test_bcs_from_displacements_count_mismatch():
    frame0 = circle_frame(0)
    frame1 = circle_frame(1)
    bd = boundary_displacements(frame0, frame1, 24)
    from cardiofem.contours import resample_uniform_angle

    center = centroid(frame0.inner)
    inner = resample_uniform_angle(frame0.inner, center, 16)
    outer = resample_uniform_angle(frame0.outer, center, 16)
    mesh = triangulate_annulus(inner, outer, 16, 2)
    with pytest.raises(GeometryError):
        boundary_conditions_from_displacements(mesh, bd)


def _mesh_and_samples(n=24):
    """A frame-0 mesh and the displacement samples of a deformed frame on it."""
    frame0 = circle_frame(0)
    frame1 = FrameContours(
        1, star_contour(32, 0.9, seed=1), star_contour(32, 1.9, seed=2)
    )
    bd = boundary_displacements(frame0, frame1, n)
    mesh = triangulate_annulus(
        Contour(bd.inner_positions), Contour(bd.outer_positions), n, 2
    )
    return mesh, bd


def test_bcs_position_match_rejects_rolled_samples():
    # the position oracle pairs node k of a loop with sample k only, so samples
    # in another order are off its nodes; the angular rule pairs each node with
    # the sample at its angle, so rolled samples give the same Dirichlet data
    mesh, bd = _mesh_and_samples()
    expected = boundary_conditions_from_displacements(mesh, bd)
    for label, inner_shift, outer_shift in (("inner", 5, 0), ("outer", 0, -3)):
        rolled = BoundaryDisplacements(
            np.roll(bd.inner_positions, inner_shift, axis=0),
            np.roll(bd.inner_vectors, inner_shift, axis=0),
            np.roll(bd.outer_positions, outer_shift, axis=0),
            np.roll(bd.outer_vectors, outer_shift, axis=0),
            bd.reference_center,
        )
        with pytest.raises(GeometryError, match=f"{label} boundary nodes do not coincide"):
            position_conditions(mesh, rolled)
        for got, want in zip(boundary_conditions_from_displacements(mesh, rolled), expected):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("offset, coincide", [(1e-12, True), (1e-6, False)])
def test_bcs_position_match_tolerance(offset, coincide):
    # the position oracle takes samples within 1e-9 (of the loop's extent) of
    # their nodes and rejects samples farther off; neither offset changes the
    # angular pairing
    mesh, bd = _mesh_and_samples()
    shifted = BoundaryDisplacements(
        bd.inner_positions + offset, bd.inner_vectors,
        bd.outer_positions, bd.outer_vectors, bd.reference_center,
    )
    expected = boundary_conditions_from_displacements(mesh, bd)
    for got, want in zip(boundary_conditions_from_displacements(mesh, shifted), expected):
        assert np.array_equal(got, want)
    if coincide:
        for got, want in zip(position_conditions(mesh, shifted), expected):
            assert np.array_equal(got, want)
    else:
        with pytest.raises(GeometryError, match="inner boundary nodes do not coincide"):
            position_conditions(mesh, shifted)


@pytest.mark.parametrize("n_points, n_radial", [(64, 8), (128, 16), (256, 32)])
def test_boundary_dof_map_equals_position_oracle_on_mesh_samples(n_points, n_radial):
    # samples at the mesh's own boundary nodes, as the study's frame-0 map and
    # the phantom's oracle values take them: node k pairs with sample k
    frame0 = mi_wedge_study(seed=3, n_frames=2, n_points=80).slices[0].frames[0]
    center = centroid(frame0.inner)
    inner, outer = uniform_angle_walls(frame0, center, n_points)
    ring, _ = make_ring(RingSpec(1.0, 2.0), n_points, n_radial)
    cases = [
        (triangulate_annulus(inner, outer, n_points, n_radial), inner.points, outer.points,
         center),
        (ring, *(ring.nodes[ring.boundary_nodes(label)] for label in ("inner", "outer")),
         (0.0, 0.0)),
    ]
    for mesh, *samples in cases:
        got = fem.boundary_dof_map(mesh, *samples)
        expected = position_dof_map(mesh, *samples)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])


def test_boundary_dof_map_pairs_sorted_dofs_with_samples():
    mesh, bd = _mesh_and_samples()
    dofs, take = fem.boundary_dof_map(
        mesh, bd.inner_positions, bd.outer_positions, bd.reference_center
    )
    boundary = np.concatenate([mesh.boundary_nodes("inner"), mesh.boundary_nodes("outer")])
    assert np.array_equal(dofs, np.sort(np.concatenate([2 * boundary, 2 * boundary + 1])))
    assert np.array_equal(take, np.arange(len(dofs)))  # node k of a loop sits on sample k


# ---------------------------------------------------------------------------
# factor ordering: the solves against a default-ordered (COLAMD) reference on
# high stiffness contrast, near-incompressible plane strain and a thin wall


def _wedge_ring(contrast, nu, n_angular, n_radial, outer_radius=2.0):
    """The ring spec and its mesh and materials with a 200-290 degree wedge
    ``contrast`` times stiffer than the rest."""
    spec = RingSpec(1.0, outer_radius, material=Material(1e4, nu))
    wedge = AngularRegion(200.0, 290.0, Material(1e4 * contrast, nu))
    return (spec, *region_ring(spec, n_angular, n_radial, wedge))


@pytest.mark.parametrize("n_angular, n_radial", [(128, 16), (256, 32)])
@pytest.mark.parametrize("contrast, nu, outer_radius", [
    (10.0, 0.3, 2.0),
    (10.0, 0.49, 2.0),
    (1000.0, 0.3, 2.0),
    (1000.0, 0.49, 2.0),
    (1.0, 0.3, 1.02),
])
def test_solves_match_colamd_reference(n_angular, n_radial, contrast, nu, outer_radius):
    spec, mesh, mats = _wedge_ring(contrast, nu, n_angular, n_radial, outer_radius)
    system = assemble(mesh, mats, "plane-strain")
    fixed, values = boundary_dirichlet(mesh, lame_displacement_at(spec, 1.0, mesh.nodes))
    constrained = apply_dirichlet(system, fixed, values)
    reference = splu(constrained.stiffness.tocsr().tocsc(), permc_spec="COLAMD").solve(
        constrained.load
    ).reshape(-1, 2)
    scale = np.linalg.norm(reference)
    direct = solve_one(system, fixed, values).values
    assert np.linalg.norm(direct - reference) <= 1e-12 * scale
    oracle = identity_row_solve(constrained, fixed, values)
    assert np.linalg.norm(direct - oracle) <= 1e-12 * np.linalg.norm(oracle)


@pytest.mark.parametrize("young", [1e-13, 1e13])
def test_solves_are_scale_invariant(young):
    # E * u does not depend on E: the pivot check sees only K_ff, whose pivots
    # all scale with E, never unit pivots of eliminated rows beside them
    def scaled_solutions(e_mod):
        spec = RingSpec(1.0, 2.0, material=Material(e_mod, 0.3))
        mesh, mats = make_ring(spec, 64, 8)
        fixed, values = boundary_dirichlet(mesh, lame_displacement_at(spec, 1.0, mesh.nodes))
        system = assemble(mesh, mats, "plane-strain")
        dirichlet = solve_one(system, fixed, values)
        traction = solve_ring_traction(mesh, system, 1.0)
        return e_mod * dirichlet.values, e_mod * traction.values

    for got, expected in zip(scaled_solutions(young), scaled_solutions(1e4)):
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_each_solve_factorizes_the_free_block_once(ring_mesh, monkeypatch):
    calls = []
    real_factor = fem._factor

    def counting_factor(k, band_dofs):
        calls.append((k is system.stiffness, len(band_dofs)))
        return real_factor(k, band_dofs)

    monkeypatch.setattr(fem, "_factor", counting_factor)
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    fixed, values = _random_boundary_sets(mesh, 3)
    solve(system, fixed, values[:, :1])
    # solve factors the free-dof block, read from the assembled stiffness in
    # place, not the whole eliminated matrix
    assert calls == [(True, system.n_dofs - len(fixed))]
    solve(system, fixed, values)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# banded Cholesky against the SuperLU oracle


def _ring_supports(spec, mesh, system, support, inner, outer):
    """(system, fixed dofs, (n_fixed, 1) values) of the ring under unit
    pressure; ``inner`` and ``outer`` are the wall nodes in angular order.

    "all-boundary" fixes every boundary dof to the closed form. "three-pin"
    (v at 0 and 180 degrees, u at 90, on the inner wall) and "anchored" (the
    inner node at 270 degrees and the tangential u of the outer one) load the
    inner wall by the pressure and pin their dofs at zero, as
    ``solve_ring_traction`` does.
    """
    if support == "all-boundary":
        fixed, values = boundary_dirichlet(mesh, lame_displacement_at(spec, 1.0, mesh.nodes))
        return system, fixed, values[:, None]
    n = len(inner)
    if support == "three-pin":
        pins = [2 * inner[0] + 1, 2 * inner[n // 4], 2 * inner[n // 2] + 1]
    else:
        j = 3 * n // 4
        pins = [2 * inner[j], 2 * inner[j] + 1, 2 * outer[j]]
    loaded = apply_traction(system, internal_pressure_tractions(mesh, 1.0), mesh)
    return loaded, np.sort(pins), np.zeros((3, 1))


SUPPORTS = ["three-pin", "anchored", "all-boundary"]


@pytest.mark.parametrize("support", SUPPORTS)
@pytest.mark.parametrize("n_angular, n_radial", [(64, 8), (128, 16), (256, 32)])
def test_banded_cholesky_matches_superlu(n_angular, n_radial, support, monkeypatch):
    spec = RingSpec(1.0, 2.0)
    mesh, mats = make_ring(spec, n_angular, n_radial)
    system, fixed, values = _ring_supports(
        spec, mesh, assemble(mesh, mats, "plane-strain"), support,
        mesh.boundary_nodes("inner"), mesh.boundary_nodes("outer"),
    )
    expected = superlu_free_solve(system, fixed, values)[:, 0]
    (got,) = solve(system, fixed, values)
    assert np.linalg.norm(got.values.ravel() - expected) <= 1e-12 * np.linalg.norm(expected)
    oracle = fold_free_block_solve(system, fixed, values)[:, 0]
    assert np.linalg.norm(got.values.ravel() - oracle) <= 1e-12 * np.linalg.norm(oracle)
    # on the same LAPACK, scipy's, reading K in place changes no bit of the
    # former free-block copies' solution
    monkeypatch.setattr(fem, "_LAPACK", None)
    (got,) = solve(system, fixed, values)
    assert np.array_equal(got.values.ravel(), oracle)


def _band_rows(monkeypatch) -> list[int]:
    """The band row counts of every factor ``solve`` makes from here on."""
    rows, real_factor = [], fem._factor

    def recording_factor(k, band_dofs):
        band = real_factor(k, band_dofs)
        rows.append(band.shape[0])
        return band

    monkeypatch.setattr(fem, "_factor", recording_factor)
    return rows


def _assert_fold_matches_rcm(monkeypatch, system, fixed, values, rigid_mesh=None):
    """Solutions within 1e-12 of the RCM oracle, and a band no wider; with
    ``rigid_mesh``, the differences are compared without their least-squares
    rigid motion on that mesh."""
    rows = _band_rows(monkeypatch)
    got = solve(system, fixed, values)
    expected, rcm_rows = rcm_banded_solve(system, fixed, values)
    for disp, column in zip(got, expected.T):
        diff = disp.values - column.reshape(-1, 2)
        if rigid_mesh is not None:
            diff = fem.remove_rigid_motion(rigid_mesh, fem.DisplacementField(diff)).values
        assert np.linalg.norm(diff) <= 1e-12 * np.linalg.norm(column)
    assert rows[0] <= rcm_rows


@pytest.mark.parametrize("support", SUPPORTS)
@pytest.mark.parametrize("n_angular, n_radial", [(64, 8), (128, 16), (256, 32)])
def test_fold_order_matches_rcm_oracle(n_angular, n_radial, support, monkeypatch):
    spec = RingSpec(1.0, 2.0)
    mesh, mats = make_ring(spec, n_angular, n_radial)
    # One anchor node holds the ring's rotation only weakly, so rounding turns
    # the anchored ring by up to ~1e-12 of its displacement in either order:
    # at 128x16 the two solutions are 1.19e-12 apart, and 92 % of that is a
    # rigid motion. Their deformations agree to 9.4e-14.
    _assert_fold_matches_rcm(monkeypatch, *_ring_supports(
        spec, mesh, assemble(mesh, mats, "plane-strain"), support,
        mesh.boundary_nodes("inner"), mesh.boundary_nodes("outer"),
    ), rigid_mesh=mesh if support == "anchored" else None)


def test_fold_order_matches_rcm_oracle_on_a_study_mesh(monkeypatch):
    # a frame-0 model of a non-circular study, every boundary dof fixed to
    # each frame's samples
    study = mi_wedge_study(seed=5, n_frames=4)
    results = cycle_strain_analysis(study, CycleParams(n_points=128, n_radial=16))
    model = results[0].model
    values = np.column_stack([r.displacement.values.ravel()[model.fixed] for r in results])
    _assert_fold_matches_rcm(monkeypatch, model.system, model.fixed, values)


def test_banded_cholesky_does_not_depend_on_node_numbering(monkeypatch):
    # the same ring with its nodes numbered at random: the fold order comes
    # from the node coordinates, so the band and the solutions agree
    spec = RingSpec(1.0, 2.0)
    mesh, mats = make_ring(spec, 128, 16)
    perm = np.random.default_rng(11).permutation(mesh.n_nodes)  # node i was node perm[i]
    rank = np.argsort(perm)
    shuffled = Mesh(mesh.nodes[perm], rank[mesh.triangles], rank[mesh.inner_edges],
                    rank[mesh.outer_edges])
    walls = [mesh.boundary_nodes(label) for label in ("inner", "outer")]
    rows = _band_rows(monkeypatch)
    for support in SUPPORTS:
        ordered = _ring_supports(spec, mesh, assemble(mesh, mats, "plane-strain"),
                                 support, *walls)
        system, fixed, values = _ring_supports(
            spec, shuffled,
            assemble(shuffled, MaterialField.uniform(shuffled, spec.material), "plane-strain"),
            support, *(rank[w] for w in walls),
        )
        (got,) = solve(system, fixed, values)
        expected = superlu_free_solve(system, fixed, values)[:, 0]
        assert np.linalg.norm(got.values.ravel() - expected) <= 1e-12 * np.linalg.norm(expected)
        (reference,) = solve(*ordered)
        assert np.linalg.norm(got.values - reference.values[perm]) <= (
            1e-12 * np.linalg.norm(reference.values)
        )
        assert rows[-2] == rows[-1]


@pytest.mark.parametrize("n_angular, n_radial", [(64, 8), (128, 16), (256, 32)])
@pytest.mark.parametrize("pins", [
    lambda inner, outer, n: [],
    lambda inner, outer, n: [2 * inner[0] + 1],
    lambda inner, outer, n: [2 * inner[0] + 1, 2 * inner[n // 2] + 1],
    # one node pinned leaves the rotation about it free; with the banded
    # Cholesky these keep every pivot above 1e-12 of the largest at some sizes
    lambda inner, outer, n: [2 * inner[0], 2 * inner[0] + 1],
    lambda inner, outer, n: [2 * inner[n // 4], 2 * inner[n // 4] + 1],
    lambda inner, outer, n: [2 * outer[0], 2 * outer[0] + 1],
], ids=["no pin", "one pin", "two pins on one axis", "inner node at 0 degrees",
        "inner node at 90 degrees", "outer node at 0 degrees"])
def test_under_pinned_ring_raises(n_angular, n_radial, pins, monkeypatch):
    mesh, mats = make_ring(RingSpec(1.0, 2.0), n_angular, n_radial)
    system = assemble(mesh, mats, "plane-strain")
    loaded = apply_traction(system, internal_pressure_tractions(mesh, 1.0), mesh)
    fixed = np.sort(pins(mesh.boundary_nodes("inner"), mesh.boundary_nodes("outer"), n_angular))
    # the sign of a rounding-level pivot, and so which of the two errors a
    # free rigid mode raises, differs between OpenBLAS builds: the message is
    # compared on the oracle's LAPACK, scipy's
    with pytest.raises(SolverError):
        solve(loaded, fixed, np.zeros((len(fixed), 1)))
    monkeypatch.setattr(fem, "_LAPACK", None)
    with pytest.raises(SolverError) as info:
        solve(loaded, fixed, np.zeros((len(fixed), 1)))
    with pytest.raises(SolverError) as expected:
        fold_free_block_solve(loaded, fixed, np.zeros((len(fixed), 1)))
    assert str(info.value) == str(expected.value)


def test_factor_rejects_an_indefinite_matrix():
    k = padded_rows(np.array([[2.0, 1.0, 0.0], [1.0, -3.0, 1.0], [0.0, 1.0, 2.0]]))
    with pytest.raises(SolverError, match="not positive definite"):
        fem._factor(k, np.arange(3))


@pytest.mark.parametrize("order, n_dofs", [([0, 1], 5), ([1, 1], 4), ([0, 2], 4), ([0], 4)],
                         ids=["odd dof count", "repeated node", "no such node", "short"])
def test_linear_system_node_order_lists_every_node_once(order, n_dofs):
    # solve reads the free dofs' band positions from the node order, so a
    # repeated node would leave an empty band column
    with pytest.raises(MeshError, match="node order must list every node once"):
        fem.LinearSystem(sparse.identity(n_dofs, format="csr"), np.zeros(n_dofs), np.array(order))


@pytest.mark.parametrize("cols, vals", [
    (np.array([[0, 1, 2], [1, 2, 3]]), np.ones((2, 3))),
    (np.array([[0, 1, -1]]), np.ones((1, 3))),
    (np.array([[0, 1, 2]]), np.ones((2, 3))),
    (np.array([0, 1, 2]), np.ones(3)),
], ids=["column past the last row", "negative column", "values of another shape", "one row"])
def test_stiffness_rejects_malformed_arrays(cols, vals):
    with pytest.raises(MeshError, match="columns in 0..n-1"):
        fem.Stiffness(cols, vals, cols.size)


def test_apply_dirichlet_needs_the_fixed_rows_diagonals():
    # row 1 stores columns 0 and 2 only: there is no slot for its unit entry
    k = fem.Stiffness(np.array([[0, 0, 2, 2], [1, 2, 3, 3]]), np.ones((2, 4)), 8)
    system = fem.LinearSystem(k, np.zeros(4), np.array([0, 1]))
    with pytest.raises(MeshError, match="store its diagonal"):
        apply_dirichlet(system, [1], [0.0])
    assert apply_dirichlet(system, [0], [0.0]).stiffness.vals[0, 0] == 1.0


def test_indefinite_system_raises_the_free_block_oracles_error(monkeypatch):
    # a clearly negative pivot breaks the Cholesky down at the same minor on
    # either LAPACK, numpy's OpenBLAS or the oracle's, scipy's
    k = np.array([[2.0, 1.0, 0.0, 0.0], [1.0, -3.0, 1.0, 0.0],
                  [0.0, 1.0, 2.0, 1.0], [0.0, 0.0, 1.0, 2.0]])
    system = fem.LinearSystem(padded_rows(k), np.ones(4), np.array([1, 0]))
    for lapack in (fem._LAPACK, None):
        monkeypatch.setattr(fem, "_LAPACK", lapack)
        for fixed in ([], [3]):
            values = np.ones((len(fixed), 1))
            with pytest.raises(SolverError, match="not positive definite") as info:
                solve(system, fixed, values)
            with pytest.raises(SolverError) as expected:
                fold_free_block_solve(system, fixed, values)
            assert str(info.value) == str(expected.value)


@pytest.mark.skipif(fem._LAPACK is None, reason="numpy without its bundled OpenBLAS")
def test_numpy_openblas_runs_each_lapack_call_on_one_thread():
    # OpenBLAS's pool slows a lone banded factorization, so each dpbtrf and
    # dpbtrs runs on one thread, and the caller's count is back after the
    # solve, also when the factorization raises
    lapack, before = fem._LAPACK, fem._LAPACK.get_threads()
    routines = lapack.scipy_LAPACKE_dpbtrf_work64_, lapack.scipy_LAPACKE_dpbtrs_work64_
    seen = []

    def record(result, routine, args):  # ctypes calls it as the routine returns
        seen.append((routine.__name__.split("_")[2], lapack.get_threads()))
        return result

    spec = RingSpec(1.0, 2.0)
    mesh, mats = make_ring(spec, 16, 2)
    system = assemble(mesh, mats, "plane-strain")
    fixed, values = boundary_dirichlet(mesh, lame_displacement_at(spec, 1.0, mesh.nodes))
    loaded = apply_traction(system, internal_pressure_tractions(mesh, 1.0), mesh)
    pin = 2 * mesh.boundary_nodes("inner")[:1]
    lapack.set_threads(2)
    try:
        for routine in routines:
            routine.errcheck = record
        solve(system, fixed, values[:, None])
        # the factor, then the inverse-iteration probe and the load
        assert seen == [("dpbtrf", 1), ("dpbtrs", 1), ("dpbtrs", 1)]
        assert lapack.get_threads() == 2
        seen.clear()
        with pytest.raises(SolverError):
            solve(loaded, pin, np.zeros((1, 1)))
        assert seen[0] == ("dpbtrf", 1) and {n for _, n in seen} == {1}
        assert lapack.get_threads() == 2
    finally:
        for routine in routines:
            del routine.errcheck
        lapack.set_threads(before)


@pytest.mark.skipif(fem._LAPACK is None, reason="numpy without its bundled OpenBLAS")
def test_import_cli_cycle_and_ring_solves_load_no_scipy():
    # K is held in numpy arrays and LAPACK comes from numpy's OpenBLAS, so the
    # package, the command line, a cycle analysis and a ring verification (its
    # fine ring inline) load no scipy module; only mesh's validate, solve
    # --dump-system and a numpy without that OpenBLAS import one. fem.splu,
    # which the benchmark's tracer wraps, loads scipy's SuperLU when read.
    src = str(Path(fem.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cardiofem\n"
         "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
         "print(scipy())\n"
         "import cardiofem.cli, cardiofem._fork\n"
         "print(scipy())\n"
         "cardiofem.cycle_strain_analysis(cardiofem.mi_wedge_study(seed=1, n_frames=3),\n"
         "                                cardiofem.CycleParams(n_points=32, n_radial=4))\n"
         "print(scipy())\n"
         "cardiofem._fork.usable_cpus = lambda: 1\n"
         "cardiofem.verify_ring(cardiofem.RingSpec(1.0, 2.0), 16, 2, 4)\n"
         "print(scipy())\n"
         "print(cardiofem.fem.splu.__module__)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.split("\n") == ["[]"] * 4 + ["scipy.sparse.linalg._dsolve.linsolve", ""]


@pytest.mark.parametrize("n_angular, n_radial", [(64, 8), (128, 16), (256, 32)])
def test_scipy_lapack_fallback_matches_numpy_openblas(n_angular, n_radial, monkeypatch):
    # a numpy without its bundled OpenBLAS factors by scipy.linalg's LAPACK:
    # the same solutions to rounding, and the same cases fail, with the free-
    # block oracle's messages (on numpy's OpenBLAS a rigid mode's rounding-
    # level pivot may take the other sign, and so the other message)
    spec = RingSpec(1.0, 2.0)
    mesh, mats = make_ring(spec, n_angular, n_radial)
    system = assemble(mesh, mats, "plane-strain")
    walls = mesh.boundary_nodes("inner"), mesh.boundary_nodes("outer")
    cases = [_ring_supports(spec, mesh, system, support, *walls) for support in SUPPORTS]
    loaded = cases[0][0]
    inner = walls[0]
    for pins in ([], [2 * inner[0] + 1], [2 * inner[0], 2 * inner[0] + 1],
                 [2 * walls[1][0], 2 * walls[1][0] + 1]):
        cases.append((loaded, np.array(pins, dtype=np.int64), np.zeros((len(pins), 1))))
    indefinite = np.array([[2.0, 1.0, 0.0, 0.0], [1.0, -3.0, 1.0, 0.0],
                           [0.0, 1.0, 2.0, 1.0], [0.0, 0.0, 1.0, 2.0]])
    cases.append((fem.LinearSystem(padded_rows(indefinite), np.ones(4), np.array([1, 0])),
                  np.array([3]), np.ones((1, 1))))

    def library_solve(*case):
        return np.column_stack([d.values.ravel() for d in solve(*case)])

    def outcomes(solver):
        for case in cases:
            try:
                yield solver(*case)
            except SolverError as exc:
                yield str(exc)

    expected = list(outcomes(library_solve))
    assert [isinstance(e, str) for e in expected] == [False] * 3 + [True] * 5
    oracle = list(outcomes(fold_free_block_solve))
    monkeypatch.setattr(fem, "_LAPACK", None)
    for got, want, message in zip(outcomes(library_solve), expected, oracle):
        if isinstance(want, str):
            assert got == message
        else:
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_ring_traction_residual_error_names_ill_conditioning():
    # three pins hold the ring and pass the pivot check, yet float64 rounding of
    # an E x 1000 wedge at nu 0.49 misses the 1e-10 residual contract
    _, mesh, mats = _wedge_ring(1000.0, 0.49, 128, 16)
    system = assemble(mesh, mats, "plane-strain")
    with pytest.raises(SolverError, match=r"relative residual \d\.\d\de-\d\d > 1e-10") as info:
        solve_ring_traction(mesh, system, 1.0)
    message = str(info.value)
    assert "ill-conditioned" in message
    assert "stiffness contrast" in message
    assert "Poisson's ratio near 0.5" in message


def test_boundary_dof_map_index_match_across_the_seam(ring_mesh):
    # about a center 1e-9 above the ring's, node 0 of each loop sits at angle
    # 2*pi - 1e-9 while sample 0 sits at angle 0; they must still pair
    mesh, _ = ring_mesh
    center = np.array([0.0, 1e-9])
    nodes, samples = [], []
    for label in ("inner", "outer"):
        rel = mesh.nodes[mesh.boundary_nodes(label)] - center
        theta = 2.0 * np.pi * np.arange(len(rel)) / len(rel)
        radii = np.linalg.norm(rel, axis=1)
        nodes.append(center + rel)
        samples.append(center + radii[:, None] * np.column_stack([np.cos(theta), np.sin(theta)]))
        assert np.mod(np.arctan2(rel[0, 1], rel[0, 0]), 2.0 * np.pi) > 2.0 * np.pi - 2e-9
    dofs, take = fem.boundary_dof_map(mesh, *samples, center)
    expected_dofs, expected_take = fem.boundary_dof_map(mesh, *nodes, center)
    assert np.array_equal(dofs, expected_dofs)
    assert np.array_equal(take, expected_take)
