import numpy as np
import pytest
from numpy.testing import assert_allclose

from cardiofem import GeometryError, MeshError
from cardiofem.contours import polygon_area
from cardiofem.meshing import Mesh, triangulate_annulus, validate
from cardiofem.phantom import circle_contour

from conftest import star_contour


def _circles(n, r_in=1.0, r_out=2.0):
    return (
        circle_contour(r_in, (0.0, 0.0), n),
        circle_contour(r_out, (0.0, 0.0), n),
    )


def test_structured_counts_4x1():
    inner, outer = _circles(4)
    mesh = triangulate_annulus(inner, outer, 4, 1)
    assert mesh.n_nodes == 8
    assert mesh.n_triangles == 8
    n_edges = len(mesh.unique_edges())
    assert mesh.n_nodes - n_edges + mesh.n_triangles == 0
    assert n_edges == 16


def test_all_areas_positive_for_perturbed_contours():
    for seed in range(4):
        inner = star_contour(24, 1.0, seed=seed)
        outer = star_contour(24, 2.0, seed=seed + 50)
        mesh = triangulate_annulus(inner, outer, 24, 3)
        assert np.all(mesh.triangle_areas() > 0.0)


def test_annulus_area_64x8():
    inner, outer = _circles(64)
    mesh = triangulate_annulus(inner, outer, 64, 8)
    total = float(mesh.triangle_areas().sum())
    assert abs(total - 3.0 * np.pi) / (3.0 * np.pi) < 0.005


def test_triangle_areas_sum_to_polygon_area():
    inner = star_contour(32, 1.0, seed=2)
    outer = star_contour(32, 2.0, seed=3)
    mesh = triangulate_annulus(inner, outer, 32, 4)
    poly = abs(polygon_area(outer.points)) - abs(polygon_area(inner.points))
    assert_allclose(mesh.triangle_areas().sum(), poly, rtol=1e-9)


def test_crossing_contours_rejected():
    inner = circle_contour(2.0, (0.0, 0.0), 16)
    outer = circle_contour(1.0, (0.0, 0.0), 16)
    with pytest.raises(GeometryError):
        triangulate_annulus(inner, outer, 16, 2)


def test_degenerate_sector_rejected():
    inner, outer = _circles(16)
    pts = outer.points.copy()
    pts[3] = inner.points[3]  # zero thickness at one angle
    from cardiofem.contours import Contour

    with pytest.raises(MeshError):
        triangulate_annulus(inner, Contour(pts), 16, 2)


def test_point_count_mismatch_rejected():
    inner, _ = _circles(16)
    _, outer = _circles(32)
    with pytest.raises(MeshError):
        triangulate_annulus(inner, outer, 16, 2)


# ---------------------------------------------------------------------------
# validate


def test_validate_passes_on_construction(ring_mesh):
    mesh, _ = ring_mesh
    report = validate(mesh)
    assert report.passed
    assert not report.warnings


def test_validate_flags_flipped_triangle(ring_mesh):
    mesh, _ = ring_mesh
    tris = np.array(mesh.triangles)
    tris[0] = tris[0][::-1]
    flipped = Mesh(mesh.nodes, tris, mesh.inner_edges, mesh.outer_edges)
    report = validate(flipped)
    failed = {c.name for c in report.checks if not c.passed}
    assert "positive_areas" in failed


def test_validate_flags_deleted_triangle():
    inner, outer = _circles(16)
    mesh = triangulate_annulus(inner, outer, 16, 3)
    # drop an interior (middle layer) triangle: all its edges are shared, so
    # only the Euler count breaks
    areas_mid = 16 * 2  # first layer has 32 triangles
    keep = np.ones(mesh.n_triangles, dtype=bool)
    keep[areas_mid + 3] = False
    broken = Mesh(mesh.nodes, mesh.triangles[keep], mesh.inner_edges, mesh.outer_edges)
    report = validate(broken)
    failed = {c.name for c in report.checks if not c.passed}
    assert "euler_characteristic" in failed


def test_validate_flags_broken_boundary_loop(ring_mesh):
    mesh, _ = ring_mesh
    broken = Mesh(mesh.nodes, mesh.triangles, mesh.inner_edges[1:], mesh.outer_edges)
    report = validate(broken)
    failed = {c.name for c in report.checks if not c.passed}
    assert "boundary_loops" in failed


def test_validate_warns_on_slivers():
    inner = circle_contour(1.0, (0.0, 0.0), 16)
    outer = circle_contour(1.01, (0.0, 0.0), 16)
    mesh = triangulate_annulus(inner, outer, 16, 1)
    report = validate(mesh)
    assert report.passed
    assert report.warnings


def test_boundary_nodes(ring_mesh):
    mesh, _ = ring_mesh
    assert mesh.boundary_nodes("inner").tolist() == list(range(16))
    assert mesh.boundary_nodes("outer").tolist() == list(range(32, 48))


# ---------------------------------------------------------------------------
# index-arithmetic triangulation against the per-quad loop it replaced


def _triangulate_loop_oracle(inner, outer, n_angular, n_radial):
    """Nodes, triangles and inner and outer boundary edges built quad by quad."""
    fractions = np.arange(n_radial + 1)[:, None, None] / n_radial
    layers = inner.points[None, :, :] * (1.0 - fractions) + outer.points[None, :, :] * fractions
    nodes = layers.reshape(-1, 2)

    def idx(k, j):
        return k * n_angular + j

    tris = []
    for k in range(n_radial):
        for j in range(n_angular):
            jp = (j + 1) % n_angular
            a = idx(k, j)
            b = idx(k, jp)
            cc = idx(k + 1, jp)
            d = idx(k + 1, j)
            tris.append((a, d, cc))
            tris.append((a, cc, b))
    loops = [[(idx(k, j), idx(k, (j + 1) % n_angular)) for j in range(n_angular)]
             for k in (0, n_radial)]
    return (
        nodes,
        np.asarray(tris, dtype=np.int64),
        *(np.asarray(edges, dtype=np.int64) for edges in loops),
    )


def _perturbed(n, seed):
    return (
        star_contour(n, 1.0, seed=seed),
        star_contour(n, 2.0, seed=seed + 50),
    )


@pytest.mark.parametrize("contours, n_angular, n_radial", [
    (_circles(3), 3, 1),
    (_circles(4), 4, 1),
    (_circles(64), 64, 8),
    (_circles(256), 256, 32),
    (_perturbed(24, 1), 24, 3),
    (_perturbed(64, 2), 64, 8),
    (_perturbed(37, 3), 37, 5),
])
def test_triangulation_matches_loop_oracle(contours, n_angular, n_radial):
    inner, outer = contours
    mesh = triangulate_annulus(inner, outer, n_angular, n_radial)
    nodes, tris, inner_edges, outer_edges = _triangulate_loop_oracle(inner, outer, n_angular,
                                                                     n_radial)
    for got, expected in ((mesh.nodes, nodes), (mesh.triangles, tris),
                          (mesh.inner_edges, inner_edges), (mesh.outer_edges, outer_edges)):
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
