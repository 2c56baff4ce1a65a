import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from cardiofem import (
    BoundaryConditionSet,
    ConfigurationError,
    ConstraintConflictError,
    GeometryError,
    Material,
    MaterialField,
    Mesh,
    RingSpec,
    SolverError,
    apply_dirichlet,
    apply_traction,
    assemble,
    boundary_conditions_from_displacements,
    boundary_displacements,
    centroid,
    circle_contour,
    element_stiffness,
    internal_pressure_tractions,
    make_ring,
    rigid_body_modes,
    solve,
    solve_condensed,
    strain_displacement_matrix,
    triangulate_annulus,
)
from cardiofem import fem

from conftest import circle_frame


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


def _dirichlet_all_boundary(mesh, values):
    nodes = np.concatenate([mesh.boundary_nodes("inner"), mesh.boundary_nodes("outer")])
    return BoundaryConditionSet(
        dirichlet={int(n): (float(values[n, 0]), float(values[n, 1])) for n in nodes}
    )


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
    from cardiofem import constitutive_matrix

    ke = element_stiffness(mesh.nodes, constitutive_matrix(Material(1e4, 0.3)))
    assert_allclose(system.stiffness.toarray(), ke, rtol=1e-12)
    assert np.all(system.load == 0.0)


def test_assemble_two_elements_scatter_add():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = Mesh(nodes, [[0, 1, 2], [0, 2, 3]], [[0, 1]], ("inner",))
    mats = MaterialField.uniform(mesh, Material(2.0, 0.25))
    from cardiofem import constitutive_matrix

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
    from cardiofem import constitutive_matrix

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
    bcs = _dirichlet_all_boundary(mesh, np.zeros((mesh.n_nodes, 2)))
    disp = solve(apply_dirichlet(system, bcs, mesh))
    assert np.max(np.abs(disp.values)) < 1e-14


def test_patch_test_affine_exact():
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 24, 3)
    system = assemble(mesh, mats, "plane-strain")
    exact = _affine_field(mesh.nodes)
    disp = solve(apply_dirichlet(system, _dirichlet_all_boundary(mesh, exact), mesh))
    err = np.max(np.abs(disp.values - exact)) / np.max(np.abs(exact))
    assert err < 1e-9


def test_rigid_translation_reproduced(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    c = 0.37
    values = np.full((mesh.n_nodes, 2), 0.0)
    values[:, 0] = c
    disp = solve(apply_dirichlet(system, _dirichlet_all_boundary(mesh, values), mesh))
    assert np.max(np.abs(disp.u - c)) < 1e-10
    assert np.max(np.abs(disp.v)) < 1e-10


def test_solution_linear_in_boundary_data(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    rng = np.random.default_rng(3)
    g1 = rng.normal(size=(mesh.n_nodes, 2))
    g2 = rng.normal(size=(mesh.n_nodes, 2))
    alpha, beta = 1.7, -0.6
    u1 = solve(apply_dirichlet(system, _dirichlet_all_boundary(mesh, g1), mesh)).values
    u2 = solve(apply_dirichlet(system, _dirichlet_all_boundary(mesh, g2), mesh)).values
    u12 = solve(
        apply_dirichlet(
            system, _dirichlet_all_boundary(mesh, alpha * g1 + beta * g2), mesh
        )
    ).values
    ref = alpha * u1 + beta * u2
    assert np.max(np.abs(u12 - ref)) / np.max(np.abs(ref)) < 1e-9


def test_dirichlet_values_exact_at_constrained_nodes(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    values = _affine_field(mesh.nodes)
    bcs = _dirichlet_all_boundary(mesh, values)
    disp = solve(apply_dirichlet(system, bcs, mesh))
    for node in bcs.dirichlet:
        assert disp.values[node, 0] == bcs.dirichlet[node][0]
        assert disp.values[node, 1] == bcs.dirichlet[node][1]


def test_edge_average_equals_nodal_for_equal_values(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    values = np.tile([0.01, -0.02], (mesh.n_nodes, 1))
    nodal = solve(
        apply_dirichlet(
            system,
            _dirichlet_all_boundary(mesh, values),
            mesh,
        )
    )
    bcs = _dirichlet_all_boundary(mesh, values)
    averaged = solve(
        apply_dirichlet(
            system,
            BoundaryConditionSet(dirichlet=bcs.dirichlet, mode="edge-average"),
            mesh,
        )
    )
    assert_allclose(averaged.values, nodal.values, atol=1e-12)


def test_edge_average_smooths_nodal_values(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    values = _affine_field(mesh.nodes)
    bcs = _dirichlet_all_boundary(mesh, values)
    averaged = apply_dirichlet(
        system, BoundaryConditionSet(dirichlet=bcs.dirichlet, mode="edge-average"), mesh
    )
    node = int(mesh.boundary_nodes("inner")[0])
    # expected: mean of the two incident edge averages (u_i + u_j) / 2
    incident = [
        e for e in mesh.boundary_edges if node in e[:2] and
        all(int(x) in bcs.dirichlet for x in e)
    ]
    expected = np.mean(
        [0.5 * (values[int(a)] + values[int(b)]) for a, b in incident], axis=0
    )
    assert_allclose(averaged.load[2 * node: 2 * node + 2], expected, rtol=1e-12)
    assert averaged.constraints[2 * node] != values[node, 0]


def test_bc_modes_converge_under_refinement():
    spec = RingSpec(1.0, 2.0, material=Material(1e4, 0.3))
    from cardiofem import lame_displacement

    gaps = []
    for na, nr in [(16, 2), (32, 4), (64, 8)]:
        mesh, mats = make_ring(spec, na, nr)
        system = assemble(mesh, mats, "plane-strain")
        radii = np.linalg.norm(mesh.nodes, axis=1)
        exact = (lame_displacement(1.0, 2.0, 1.0, 1e4, 0.3, radii) / radii)[
            :, None
        ] * mesh.nodes
        bcs = _dirichlet_all_boundary(mesh, exact)
        u_nodal = solve(apply_dirichlet(system, bcs, mesh)).values
        u_edge = solve(
            apply_dirichlet(
                system,
                BoundaryConditionSet(dirichlet=bcs.dirichlet, mode="edge-average"),
                mesh,
            )
        ).values
        gaps.append(np.linalg.norm(u_edge - u_nodal) / np.linalg.norm(u_nodal))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.5 * gaps[1] < 0.25 * gaps[0]


def test_edge_average_requires_mesh(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    bcs = BoundaryConditionSet(dirichlet={0: (0.0, 0.0)}, mode="edge-average")
    with pytest.raises(ConfigurationError):
        apply_dirichlet(system, bcs)


def test_constraint_conflict(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    first = apply_dirichlet(system, BoundaryConditionSet(dirichlet={0: (0.1, 0.0)}), mesh)
    # same value again is fine
    apply_dirichlet(first, BoundaryConditionSet(dirichlet={0: (0.1, 0.0)}), mesh)
    with pytest.raises(ConstraintConflictError):
        apply_dirichlet(first, BoundaryConditionSet(dirichlet={0: (0.2, 0.0)}), mesh)


def test_dirichlet_node_out_of_range(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    with pytest.raises(ConfigurationError):
        apply_dirichlet(system, BoundaryConditionSet(dirichlet={999: (0.0, 0.0)}), mesh)


def test_apply_dirichlet_preserves_input(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    before = system.stiffness.toarray().copy()
    apply_dirichlet(system, _dirichlet_all_boundary(mesh, np.ones((mesh.n_nodes, 2))), mesh)
    assert np.array_equal(system.stiffness.toarray(), before)
    assert not system.constraints


# ---------------------------------------------------------------------------
# tractions


def test_zero_traction_keeps_load(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    edges = {tuple(map(int, e)): (0.0, 0.0) for e in mesh.boundary_edges[:4]}
    out = apply_traction(system, BoundaryConditionSet(tractions=edges), mesh)
    assert np.all(out.load == 0.0)


def test_single_edge_traction_lumping():
    nodes = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    mesh = Mesh(nodes, [[0, 1, 2]], [[0, 1]], ("inner",))
    system = assemble(mesh, MaterialField.uniform(mesh, Material(1.0, 0.0)))
    out = apply_traction(
        system, BoundaryConditionSet(tractions={(0, 1): (1.0, 0.0)}), mesh
    )
    f = out.load
    assert f[0] == pytest.approx(1.0)
    assert f[2] == pytest.approx(1.0)
    assert np.all(f[[1, 3, 4, 5]] == 0.0)


def test_radial_pressure_net_force_zero():
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 64, 4)
    system = assemble(mesh, mats)
    tractions = internal_pressure_tractions(mesh, 2.5)
    out = apply_traction(system, BoundaryConditionSet(tractions=tractions), mesh)
    net = np.array([out.load[0::2].sum(), out.load[1::2].sum()])
    assert np.max(np.abs(net)) < 1e-9 * 2.5 * 2 * np.pi


def test_traction_on_non_boundary_edge(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    with pytest.raises(ConfigurationError):
        apply_traction(
            system, BoundaryConditionSet(tractions={(0, 17): (1.0, 0.0)}), mesh
        )


# ---------------------------------------------------------------------------
# solve


def test_unpinned_traction_system_is_singular():
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 16, 2)
    system = assemble(mesh, mats)
    tractions = internal_pressure_tractions(mesh, 1.0)
    loaded = apply_traction(system, BoundaryConditionSet(tractions=tractions), mesh)
    with pytest.raises(SolverError):
        solve(loaded)


def test_cg_matches_direct(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    values = _affine_field(mesh.nodes)
    constrained = apply_dirichlet(system, _dirichlet_all_boundary(mesh, values), mesh)
    direct = solve(constrained, method="direct")
    iterative = solve(constrained, method="cg")
    assert np.max(np.abs(direct.values - iterative.values)) < 1e-8 * np.max(
        np.abs(direct.values)
    )


def test_solve_unknown_method(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    with pytest.raises(ConfigurationError):
        solve(system, method="multigrid")


def test_residual_contract(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    values = _affine_field(mesh.nodes)
    constrained = apply_dirichlet(system, _dirichlet_all_boundary(mesh, values), mesh)
    disp = solve(constrained)
    residual = np.linalg.norm(constrained.stiffness @ disp.values.ravel() - constrained.load)
    assert residual <= 1e-10 * np.linalg.norm(constrained.load)


# ---------------------------------------------------------------------------
# condensed multi-right-hand-side solve


def _random_boundary_sets(mesh, n_sets, seed=0):
    rng = np.random.default_rng(seed)
    return [
        _dirichlet_all_boundary(mesh, rng.normal(scale=0.05, size=(mesh.n_nodes, 2)))
        for _ in range(n_sets)
    ]


def test_solve_condensed_matches_per_set_solve(ring_mesh):
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    # a load on the free dofs exercises the F_f term of the condensed right-hand side
    system = fem.LinearSystem(
        system.stiffness, np.random.default_rng(1).normal(size=system.n_dofs)
    )
    bcs_sets = _random_boundary_sets(mesh, 4)
    batched = solve_condensed(system, bcs_sets)
    assert len(batched) == 4
    for bcs, disp in zip(bcs_sets, batched):
        expected = solve(apply_dirichlet(system, bcs, mesh)).values
        assert np.max(np.abs(disp.values - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_solve_condensed_all_nodes_constrained():
    mesh, mats = make_ring(RingSpec(1.0, 2.0), 16, 1)  # every node is a boundary node
    values = _affine_field(mesh.nodes)
    (disp,) = solve_condensed(assemble(mesh, mats), [_dirichlet_all_boundary(mesh, values)])
    assert_allclose(disp.values, values, rtol=0, atol=0)


def test_solve_condensed_empty_sequence(ring_mesh):
    mesh, mats = ring_mesh
    assert solve_condensed(assemble(mesh, mats), []) == []


def test_solve_condensed_requires_same_fixed_dofs(ring_mesh):
    mesh, mats = ring_mesh
    full, _ = _random_boundary_sets(mesh, 2)
    partial = BoundaryConditionSet(dirichlet=dict(list(full.dirichlet.items())[1:]))
    with pytest.raises(ConfigurationError):
        solve_condensed(assemble(mesh, mats), [full, partial])


def test_solve_condensed_singular_free_block(ring_mesh):
    # an extra node that belongs to no element leaves zero rows in K_ff
    mesh, mats = ring_mesh
    system = assemble(mesh, mats)
    padded = fem.LinearSystem(
        sparse.block_diag([system.stiffness, sparse.csr_matrix((2, 2))]).tocsr(),
        np.zeros(system.n_dofs + 2),
    )
    with pytest.raises(SolverError):
        solve_condensed(padded, _random_boundary_sets(mesh, 3))


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
        solve_condensed(assemble(mesh, mats), _random_boundary_sets(mesh, 3))
    assert info.value.column == 1


# ---------------------------------------------------------------------------
# boundary-condition construction from displacement samples


def test_bcs_from_displacements_position_match():
    frame0 = circle_frame(0)
    frame1 = circle_frame(1)
    bd = boundary_displacements(frame0, frame1, 16)
    from cardiofem import resample_uniform_angle

    center = centroid(frame0.inner)
    inner = resample_uniform_angle(frame0.inner, center, 16)
    outer = resample_uniform_angle(frame0.outer, center, 16)
    mesh = triangulate_annulus(inner, outer, 16, 2)
    bcs = boundary_conditions_from_displacements(mesh, bd)
    assert len(bcs.dirichlet) == 32
    assert all(v == (0.0, 0.0) for v in bcs.dirichlet.values())


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
    from cardiofem import resample_uniform_angle

    center = centroid(frame0.inner)
    inner = resample_uniform_angle(frame0.inner, center, 16)
    outer = resample_uniform_angle(frame0.outer, center, 16)
    mesh = triangulate_annulus(inner, outer, 16, 2)
    with pytest.raises(GeometryError):
        boundary_conditions_from_displacements(mesh, bd)
