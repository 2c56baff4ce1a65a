import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.sparse.linalg import splu

from cardiofem import ConfigurationError, GeometryError, RingSpec, SolverError
from cardiofem.contours import (
    BoundaryDisplacements,
    Contour,
    FrameContours,
    boundary_displacements,
    centroid,
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
from cardiofem.phantom import circle_contour, lame_displacement_at, make_ring, solve_ring_traction
from cardiofem import fem

from conftest import boundary_dirichlet, circle_frame, solve_one, star_contour
from oracles import (
    element_stiffness,
    identity_row_solve,
    identity_row_system,
    nodal_dirichlet,
    strain_displacement_matrix,
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
    return Mesh(nodes, [[0, 1, 2]], [[0, 1]], ("inner",))


def test_assemble_single_element_equals_element_stiffness():
    mesh = _single_triangle_mesh()
    mats = MaterialField.uniform(mesh, Material(1e4, 0.3))
    system = assemble(mesh, mats, "as-printed")
    from cardiofem.materials import constitutive_matrix

    ke = element_stiffness(mesh.nodes, constitutive_matrix(Material(1e4, 0.3)))
    assert_allclose(system.stiffness.toarray(), ke, rtol=1e-12)
    assert np.all(system.load == 0.0)


def test_assemble_two_elements_scatter_add():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = Mesh(nodes, [[0, 1, 2], [0, 2, 3]], [[0, 1]], ("inner",))
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
    assert_allclose(system.stiffness.toarray(), k, rtol=1e-12)


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
    assert_allclose(system.stiffness.toarray(), k, rtol=1e-10, atol=1e-10)


def test_assemble_material_count_mismatch(ring_mesh):
    mesh, _ = ring_mesh
    bad = MaterialField(np.ones(3), np.full(3, 0.3))
    with pytest.raises(Exception):
        assemble(mesh, bad)


def test_stiffness_symmetry_and_nullspace_4x1():
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 4, 1)
    system = assemble(mesh, mats)
    k = system.stiffness.toarray()
    assert np.max(np.abs(k - k.T)) < 1e-12 * np.max(np.abs(k))
    eigvals = np.sort(np.abs(np.linalg.eigvalsh(k)))
    assert eigvals[2] < 1e-9 * eigvals[-1]
    assert eigvals[3] > 1e-6 * eigvals[-1]


def test_rigid_modes_annihilated():
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 32, 4)
    system = assemble(mesh, mats)
    k = system.stiffness
    k_scale = np.max(np.abs(k.data))
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
    assert np.max(np.abs(disp.u - c)) < 1e-10
    assert np.max(np.abs(disp.v)) < 1e-10


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
    system = fem.LinearSystem(system.stiffness, load)
    nodal = nodal_dirichlet(*boundary_conditions_from_displacements(mesh, bd))
    expected, fixed, values = identity_row_system(system, nodal)
    dofs, got_values = boundary_conditions_from_displacements(mesh, bd)
    got = apply_dirichlet(system, dofs, got_values)
    assert np.array_equal(dofs, fixed)
    assert np.array_equal(got_values, values)
    assert np.array_equal(got.stiffness.toarray(), expected.stiffness.toarray())
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
    before = system.stiffness.toarray().copy()
    apply_dirichlet(system, *boundary_dirichlet(mesh, np.ones((mesh.n_nodes, 2))))
    assert np.array_equal(system.stiffness.toarray(), before)
    assert np.all(system.load == 0.0)


# ---------------------------------------------------------------------------
# tractions


def test_zero_traction_keeps_load(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    edges = {tuple(map(int, e)): (0.0, 0.0) for e in mesh.boundary_edges[:4]}
    out = apply_traction(system, edges, mesh)
    assert np.all(out.load == 0.0)


def test_single_edge_traction_lumping():
    nodes = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    mesh = Mesh(nodes, [[0, 1, 2]], [[0, 1]], ("inner",))
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
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    fixed, values = boundary_dirichlet(mesh, _affine_field(mesh.nodes))
    direct = solve_one(system, fixed, values, method="direct")
    iterative = solve_one(system, fixed, values, method="cg")
    assert np.max(np.abs(direct.values - iterative.values)) < 1e-8 * np.max(
        np.abs(direct.values)
    )


@pytest.mark.parametrize("method", ["direct", "cg"])
@pytest.mark.parametrize("field", ["affine", "random", "random with load"])
def test_solve_matches_identity_row_oracle(ring_mesh, method, field):
    # solve factors only the free-dof block; the whole identity-row solve is the oracle
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    if field == "affine":
        fixed, values = boundary_dirichlet(mesh, _affine_field(mesh.nodes))
    else:
        fixed, values = _random_boundary_sets(mesh, 1)
        values = values[:, 0]
    if field == "random with load":
        load = np.random.default_rng(2).normal(size=system.n_dofs)
        system = fem.LinearSystem(system.stiffness, load)
    expected = identity_row_solve(*identity_row_system(system, nodal_dirichlet(fixed, values)),
                                  method)
    got = solve_one(system, fixed, values, method).values
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_solve_unknown_method(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    with pytest.raises(ConfigurationError):
        solve(system, [], np.zeros((0, 1)), method="multigrid")


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
        system.stiffness, np.random.default_rng(1).normal(size=system.n_dofs)
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
        sparse.block_diag([system.stiffness, sparse.csr_matrix((2, 2))]).tocsr(),
        np.zeros(system.n_dofs + 2),
    )
    with pytest.raises(SolverError):
        solve(padded, *_random_boundary_sets(mesh, 3))


def test_solve_condensed_names_failing_column(ring_mesh, monkeypatch):
    mesh, mats = ring_mesh
    real_factor = fem._factor

    class CorruptColumnOne:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            u = self.lu.solve(rhs)
            u[:, 1] *= 1.0 + 1e-6
            return u

    monkeypatch.setattr(fem, "_factor", lambda k: CorruptColumnOne(real_factor(k)))
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


def test_bcs_from_displacements_mismatched_mesh():
    frame0 = circle_frame(0)
    frame1 = circle_frame(1)
    bd = boundary_displacements(frame0, frame1, 16)
    inner = circle_contour(5.0, (0.0, 0.0), 16, "inner")
    outer = circle_contour(9.0, (0.0, 0.0), 16, "outer")
    mesh = triangulate_annulus(inner, outer, 16, 2)
    with pytest.raises(GeometryError):
        boundary_conditions_from_displacements(mesh, bd, match="position")


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
        1, star_contour(32, 0.9, seed=1), star_contour(32, 1.9, seed=2, label="outer")
    )
    bd = boundary_displacements(frame0, frame1, n)
    mesh = triangulate_annulus(
        Contour(bd.inner_positions, "inner"), Contour(bd.outer_positions, "outer"), n, 2
    )
    return mesh, bd


def test_bcs_position_match_rejects_rolled_samples():
    # node k of a loop pairs with sample k only; samples in another order are
    # off the nodes
    mesh, bd = _mesh_and_samples()
    for label, inner_shift, outer_shift in (("inner", 5, 0), ("outer", 0, -3)):
        rolled = BoundaryDisplacements(
            np.roll(bd.inner_positions, inner_shift, axis=0),
            np.roll(bd.inner_vectors, inner_shift, axis=0),
            np.roll(bd.outer_positions, outer_shift, axis=0),
            np.roll(bd.outer_vectors, outer_shift, axis=0),
            bd.reference_center,
        )
        with pytest.raises(GeometryError, match=f"{label} boundary nodes do not coincide"):
            boundary_conditions_from_displacements(mesh, rolled)


@pytest.mark.parametrize("offset, coincide", [(1e-12, True), (1e-6, False)])
def test_bcs_position_match_tolerance(offset, coincide):
    mesh, bd = _mesh_and_samples()
    shifted = BoundaryDisplacements(
        bd.inner_positions + offset, bd.inner_vectors,
        bd.outer_positions, bd.outer_vectors, bd.reference_center,
    )
    if coincide:
        for got, expected in zip(
            boundary_conditions_from_displacements(mesh, shifted),
            boundary_conditions_from_displacements(mesh, bd),
        ):
            assert np.array_equal(got, expected)
    else:
        with pytest.raises(GeometryError, match="inner boundary nodes do not coincide"):
            boundary_conditions_from_displacements(mesh, shifted)


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


def _wedge_spec(contrast, nu, outer_radius=2.0):
    wedge = AngularRegion(200.0, 290.0, Material(1e4 * contrast, nu))
    return RingSpec(1.0, outer_radius, material=Material(1e4, nu), regions=(wedge,))


@pytest.mark.parametrize("n_angular, n_radial", [(128, 16), (256, 32)])
@pytest.mark.parametrize("contrast, nu, outer_radius", [
    (10.0, 0.3, 2.0),
    (10.0, 0.49, 2.0),
    (1000.0, 0.3, 2.0),
    (1000.0, 0.49, 2.0),
    (1.0, 0.3, 1.02),
])
def test_solves_match_colamd_reference(n_angular, n_radial, contrast, nu, outer_radius):
    spec = _wedge_spec(contrast, nu, outer_radius)
    mesh, mats = make_ring(spec, n_angular, n_radial)
    system = assemble(mesh, mats, "plane-strain")
    fixed, values = boundary_dirichlet(mesh, lame_displacement_at(spec, 1.0, mesh.nodes))
    constrained = apply_dirichlet(system, fixed, values)
    reference = splu(constrained.stiffness.tocsc(), permc_spec="COLAMD").solve(
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
        dirichlet = solve_one(assemble(mesh, mats, "plane-strain"), fixed, values)
        _, _, traction = solve_ring_traction(spec, 1.0, 64, 8)
        return e_mod * dirichlet.values, e_mod * traction.values

    for got, expected in zip(scaled_solutions(young), scaled_solutions(1e4)):
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_each_solve_factorizes_once_through_module_splu(ring_mesh, monkeypatch):
    # the benchmark's tracer counts factorizations and their fill by wrapping fem.splu
    calls = []

    def counting_splu(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(fem, "splu", counting_splu)
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    fixed, values = _random_boundary_sets(mesh, 3)
    solve(system, fixed, values[:, :1])
    # solve factors the free-dof block, not the whole eliminated matrix
    assert calls == [(system.n_dofs - len(fixed),) * 2]
    solve(system, fixed, values)
    assert len(calls) == 2


def test_ring_traction_residual_error_names_ill_conditioning():
    # three pins hold the ring and pass the pivot check, yet float64 rounding of
    # an E x 1000 wedge at nu 0.49 misses the 1e-10 residual contract
    with pytest.raises(SolverError, match=r"relative residual \d\.\d\de-\d\d > 1e-10") as info:
        solve_ring_traction(_wedge_spec(1000.0, 0.49), 1.0, 128, 16)
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
    dofs, take = fem.boundary_dof_map(mesh, *samples, center, "index")
    expected_dofs, expected_take = fem.boundary_dof_map(mesh, *nodes, center)
    assert np.array_equal(dofs, expected_dofs)
    assert np.array_equal(take, expected_take)
