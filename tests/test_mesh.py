import numpy as np
import pytest
import scipy.sparse as sp

import laplgm.mesh as mm
from laplgm.errors import (
    DegenerateTriangle,
    InvalidRectangle,
    NonConformingMesh,
    ParseError,
    PointOutsideMesh,
)


def unit_square(nx=1, ny=1):
    return mm.structured_mesh(0.0, 1.0, 0.0, 1.0, nx, ny)


class TestStructuredMesh:
    def test_unit_square_counts(self):
        m = unit_square()
        assert m.n_vertices == 4
        assert m.n_triangles == 2

    def test_grid_counts(self):
        m = mm.structured_mesh(0, 3, 0, 2, 3, 2)
        assert m.n_vertices == 12
        assert m.n_triangles == 12

    def test_total_area(self):
        m = mm.structured_mesh(-1.0, 2.5, 0.5, 2.0, 4, 3)
        assert m.areas().sum() == pytest.approx(3.5 * 1.5, abs=1e-12)

    def test_invalid_rectangle(self):
        with pytest.raises(InvalidRectangle):
            mm.structured_mesh(0, 1, 0, 1, 0, 3)
        with pytest.raises(InvalidRectangle):
            mm.structured_mesh(1, 1, 0, 1, 2, 2)


class TestLoadSave:
    def test_round_trip(self, tmp_path):
        m = mm.structured_mesh(0, 2, 0, 1, 3, 2)
        vf, tf = tmp_path / "v.csv", tmp_path / "t.csv"
        mm.save_mesh(m, vf, tf)
        back = mm.load_mesh(vf, tf)
        assert np.array_equal(back.vertices, m.vertices)
        assert np.array_equal(back.triangles, m.triangles)

    def test_zero_area_triangle(self, tmp_path):
        vf, tf = tmp_path / "v.csv", tmp_path / "t.csv"
        vf.write_text("x,y\n0.0,0.0\n1.0,0.0\n2.0,0.0\n")
        tf.write_text("i,j,k\n0,1,2\n")
        with pytest.raises(DegenerateTriangle):
            mm.load_mesh(vf, tf)

    def test_clockwise_triangle_canonicalized(self, tmp_path):
        vf, tf = tmp_path / "v.csv", tmp_path / "t.csv"
        vf.write_text("x,y\n0.0,0.0\n1.0,0.0\n0.0,1.0\n")
        tf.write_text("i,j,k\n0,2,1\n")  # clockwise
        m = mm.load_mesh(vf, tf)
        assert m.areas()[0] > 0

    def test_nonconforming(self, tmp_path):
        vf, tf = tmp_path / "v.csv", tmp_path / "t.csv"
        vf.write_text("x,y\n0.0,0.0\n1.0,0.0\n0.0,1.0\n1.0,1.0\n0.5,-1.0\n")
        tf.write_text("i,j,k\n0,1,2\n1,3,2\n0,1,4\n2,1,0\n")
        with pytest.raises(NonConformingMesh):
            mm.load_mesh(vf, tf)

    def test_parse_errors(self, tmp_path):
        vf, tf = tmp_path / "v.csv", tmp_path / "t.csv"
        vf.write_text("a,b\n0,0\n")
        tf.write_text("i,j,k\n")
        with pytest.raises(ParseError):
            mm.load_mesh(vf, tf)
        vf.write_text("x,y\n0.0,0.0\n1.0,0.0\n0.0,1.0\n")
        tf.write_text("i,j,k\n0,1,9\n")
        with pytest.raises(ParseError):
            mm.load_mesh(vf, tf)
        # an unreadable file is a parse error naming it, not an OSError
        with pytest.raises(ParseError, match="missing.csv"):
            mm.load_mesh(vf, tmp_path / "missing.csv")
        with pytest.raises(ParseError):
            mm.load_mesh(tmp_path, tf)


class TestAssemble:
    def test_single_right_triangle_mass(self):
        tri = mm.TriMesh(np.array([[0, 0], [1, 0], [0, 1]], float), np.array([[0, 1, 2]]))
        fem = mm.assemble(tri)
        assert np.allclose(fem.mass_diag, 1.0 / 6.0)

    def test_stiffness_constants(self):
        tri = mm.TriMesh(np.array([[0, 0], [1, 0], [0, 1]], float), np.array([[0, 1, 2]]))
        G = mm.assemble(tri).stiffness.to_dense()
        assert np.abs(G.sum(axis=1)).max() <= 1e-10
        assert np.linalg.eigvalsh(G).min() >= -1e-12

    def test_partition_of_unity(self):
        fem = mm.assemble(unit_square())
        assert fem.mass_diag.sum() == pytest.approx(1.0, abs=1e-10)

    def test_mesh_order_invariance(self):
        m = mm.structured_mesh(0, 1, 0, 1, 3, 3)
        fem1 = mm.assemble(m)
        shuffled = mm.TriMesh(m.vertices, m.triangles[::-1])
        fem2 = mm.assemble(shuffled)
        assert np.allclose(fem1.mass_diag, fem2.mass_diag)
        assert np.allclose(fem1.stiffness.to_dense(), fem2.stiffness.to_dense())

    def test_ones_quadratic_form(self):
        fem = mm.assemble(mm.structured_mesh(0, 1, 0, 1, 4, 4))
        ones = np.ones(fem.n)
        assert fem.stiffness.quad(ones) == pytest.approx(0.0, abs=1e-10)


class TestProjector:
    def test_vertex_hit(self):
        m = unit_square(3, 3)
        P = mm.projector(m, [m.vertices[5]])
        assert P.nnz == 1
        assert P[0, 5] == pytest.approx(1.0)

    def test_centroid_thirds(self):
        m = unit_square(2, 2)
        cen = m.vertices[m.triangles[3]].mean(axis=0)
        P = mm.projector(m, [cen])
        assert np.allclose(sorted(P.data), [1 / 3, 1 / 3, 1 / 3])

    def test_linear_reproduction(self):
        m = unit_square(5, 5)
        rng = np.random.default_rng(1)
        pts = rng.random((20, 2))
        P = mm.projector(m, pts)
        f = m.vertices[:, 0] + 2.0 * m.vertices[:, 1]
        exact = pts[:, 0] + 2.0 * pts[:, 1]
        assert np.abs(P @ f - exact).max() <= 1e-12
        assert np.abs(np.asarray(P.sum(axis=1)).ravel() - 1.0).max() <= 1e-12

    def test_affine_reproduction_property(self):
        m = mm.structured_mesh(-1, 2, 0, 1, 4, 3)
        rng = np.random.default_rng(9)
        pts = np.column_stack([rng.uniform(-1, 2, 15), rng.uniform(0, 1, 15)])
        P = mm.projector(m, pts)
        for a, b, c in [(1.0, 0.0, 0.0), (0.3, -1.2, 2.0), (0.0, 5.0, -1.0)]:
            f = a + b * m.vertices[:, 0] + c * m.vertices[:, 1]
            assert np.abs(P @ f - (a + b * pts[:, 0] + c * pts[:, 1])).max() <= 1e-12

    def test_outside_point(self):
        with pytest.raises(PointOutsideMesh):
            mm.projector(unit_square(2, 2), [[1.5, 0.5]])


def weights_in_every_triangle(mesh, point):
    """Barycentric weights (n_triangles, 3) of one point, by a 2x2 solve per triangle."""
    p = mesh.vertices[mesh.triangles]
    T = np.stack([p[:, 0] - p[:, 2], p[:, 1] - p[:, 2]], axis=2)
    l01 = np.linalg.solve(T, (point - p[:, 2])[:, :, None])[:, :, 0]
    return np.column_stack([l01, 1.0 - l01[:, 0] - l01[:, 1]])


def nearest_vertices(mesh, points):
    return np.argmin(((points[:, None, :] - mesh.vertices) ** 2).sum(axis=2), axis=1)


def oracle_projector(mesh, points):
    """Reference projector by brute force.

    Each point's weights are solved in every triangle.  Among the triangles
    whose weights are all >= -INSIDE_TOL, the lowest-index one around the
    point's nearest vertex carries the point, or else the lowest-index one
    overall.  The preference matters for points on an edge: the two triangles
    that share it give the point different weights (one of them a third
    weight of about 1e-16), and `projector` has always taken the one around
    the nearest vertex.
    """
    rows, cols, vals = [], [], []
    for r, (pt, v) in enumerate(zip(points, nearest_vertices(mesh, points))):
        lam = weights_in_every_triangle(mesh, pt)
        inside = lam.min(axis=1) >= -mm.INSIDE_TOL
        around = inside & (mesh.triangles == v).any(axis=1)
        tri = np.flatnonzero(around if around.any() else inside)[0]
        w = np.clip(lam[tri], 0.0, None)
        w = w / w.sum()
        for local in np.flatnonzero(w > 0.0):
            rows.append(r)
            cols.append(mesh.triangles[tri, local])
            vals.append(w[local])
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(points), mesh.n_vertices))


def nearest_vertex_misses(mesh, points):
    """Number of points that no triangle incident to their nearest vertex contains."""
    missed = 0
    for pt, v in zip(points, nearest_vertices(mesh, points)):
        inside = weights_in_every_triangle(mesh, pt).min(axis=1) >= -mm.INSIDE_TOL
        missed += not np.any(inside & (mesh.triangles == v).any(axis=1))
    return missed


def assert_same_csr(P, Q):
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(P, field), getattr(Q, field))


def perturbed_mesh(seed=0, n=12):
    # jittered interior vertices: some points lie in no triangle around their
    # nearest vertex, so the scan of all triangles runs too
    m = mm.structured_mesh(0.0, 1.0, 0.0, 1.0, n, n)
    v = m.vertices.copy()
    inner = (v > 1e-9).all(axis=1) & (v < 1.0 - 1e-9).all(axis=1)
    v[inner] += np.random.default_rng(seed).uniform(-0.3, 0.3, (inner.sum(), 2)) / n
    return mm.TriMesh(v, m.triangles)


class TestVectorizedProjector:
    @pytest.mark.parametrize("mesh", [unit_square(9, 7), perturbed_mesh(),
                                      perturbed_mesh(seed=3, n=16)],
                             ids=["structured", "perturbed", "perturbed16"])
    def test_matches_oracle(self, mesh):
        rng = np.random.default_rng(4)
        random_pts = rng.random((500, 2))
        tri = mesh.triangles[rng.integers(0, mesh.n_triangles, 100)]
        a = rng.random((100, 1))
        edge_pts = a * mesh.vertices[tri[:, 0]] + (1.0 - a) * mesh.vertices[tri[:, 1]]
        vertex_pts = mesh.vertices[rng.integers(0, mesh.n_vertices, 50)]
        for pts in (random_pts, edge_pts, vertex_pts):
            assert_same_csr(mm.projector(mesh, pts), oracle_projector(mesh, pts))

    def test_scan_lowest_index_and_padding(self):
        # triangles 0 and 1 overlap; the small triangles 2 and 3 hold the
        # nearest vertex of each point but not the point, so only the scan of
        # every triangle finds it.  The second point lies 1e-12 below the
        # bounding box of the triangle that contains it.
        v = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0],
                      [0.1, 0.1], [1.5, 0.1], [0.1, 1.5],
                      [0.32, 0.3], [0.34, 0.3], [0.33, 0.32],
                      [0.9, -0.5], [1.1, -0.5], [1.0, -0.3]])
        pts = np.array([[0.3, 0.3], [1.0, -1e-12]])
        for order in ([0, 1, 2, 3], [1, 0, 2, 3]):
            mesh = mm.TriMesh(v, np.arange(12).reshape(4, 3)[order])
            assert nearest_vertex_misses(mesh, pts) == 2
            assert_same_csr(mm.projector(mesh, pts), oracle_projector(mesh, pts))

    def test_fallback_reached(self):
        pts = np.random.default_rng(4).random((500, 2))
        assert 0 < nearest_vertex_misses(perturbed_mesh(), pts) < pts.shape[0]

    def test_outside_points_raise(self):
        mesh = perturbed_mesh()
        inside = np.random.default_rng(2).random((20, 2))
        for outside in ([1.0 + 1e-6, 0.5], [-0.2, -0.2], [0.5, 3.0]):
            with pytest.raises(PointOutsideMesh, match="gap"):
                mm.projector(mesh, np.vstack([inside, outside]))

    def test_boundary_tolerance(self):
        mesh = perturbed_mesh()
        P = mm.projector(mesh, [[1.0 + 1e-12, 0.5], [0.5, -1e-12]])
        assert np.allclose(P.sum(axis=1), 1.0)
        with pytest.raises(PointOutsideMesh):
            mm.projector(mesh, [[0.5, -1e-6]])

    def test_no_triangles(self):
        mesh = mm.TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                          np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(PointOutsideMesh):
            mm.projector(mesh, [[0.2, 0.2]])


class TestTopology:
    def test_structured_split_order(self):
        # cells row by row, each split lower-left -> upper-right into
        # (ll, lr, ur) and (ll, ur, ul)
        m = mm.structured_mesh(0, 2, 0, 1, 2, 1)
        assert m.triangles.tolist() == [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4]]

    def test_edge_shared_by_three_triangles(self):
        v = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
        with pytest.raises(NonConformingMesh):
            mm.TriMesh(v, np.array([[0, 1, 2], [0, 3, 1], [0, 1, 4]]))


def unit_square_with(*extra):
    """The two triangles of the unit square and unused vertices `extra` after its four."""
    v = np.vstack([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], extra])
    return v, np.array([[0, 1, 2], [1, 3, 2]])


class TestVertexGrid:
    def test_exact_duplicate_raises(self):
        with pytest.raises(ValueError, match="vertices 1 and 4 coincide"):
            mm.TriMesh(*unit_square_with([1.0, 0.0]))

    def test_close_pair_apart_in_x_order_raises(self):
        # vertex 5 lies between 4 and 6 in x, far from both in y
        v, tri = unit_square_with([0.5, 0.5], [0.5 + 5e-14, 0.9], [0.5 + 1e-13, 0.5])
        assert np.array_equal(np.argsort(v[4:, 0]), [0, 1, 2])
        with pytest.raises(ValueError, match="vertices 4 and 6 coincide"):
            mm.TriMesh(v, tri)

    def test_pair_beyond_tolerance_passes(self):
        mesh = mm.TriMesh(*unit_square_with([0.5, 0.5], [0.5 + 2e-12, 0.5]))
        assert mesh.n_vertices == 6

    def test_nearest_tie_goes_to_lowest_index(self):
        # cell centres of a 4 x 4 mesh lie exactly as far from four vertices;
        # reversing the vertex order puts the lowest index at the top right
        m = unit_square(4, 4)
        n = m.n_vertices
        mesh = mm.TriMesh(m.vertices[::-1], n - 1 - m.triangles)
        centres = (np.mgrid[0:4, 0:4].reshape(2, -1).T + 0.5) / 4.0
        d = ((centres[:, None, :] - mesh.vertices) ** 2).sum(axis=2)
        assert ((d == d.min(axis=1, keepdims=True)).sum(axis=1) == 4).all()
        got = mesh._grid.nearest(centres)
        assert np.array_equal(got, nearest_vertices(mesh, centres))
        assert np.array_equal(got, [np.flatnonzero(row == row.min()).min() for row in d])
        assert_same_csr(mm.projector(mesh, centres), oracle_projector(mesh, centres))

    def test_clustered_mesh_matches_oracle(self):
        # a dense 30 x 30 patch in one corner of a 3 x 3 grid of coarse cells
        fine, coarse = np.linspace(0.0, 0.1, 31), np.linspace(0.1, 1.0, 4)[1:]
        xs = np.concatenate([fine, coarse])
        m = unit_square(xs.size - 1, xs.size - 1)
        X, Y = np.meshgrid(xs, xs)
        mesh = mm.TriMesh(np.column_stack([X.ravel(), Y.ravel()]), m.triangles)
        rng = np.random.default_rng(5)
        pts = np.vstack([rng.random((300, 2)), 0.1 * rng.random((100, 2))])
        # many points have their nearest vertex several grid cells away
        cell = np.sqrt(1.0 / (mm.CELLS_PER_VERTEX * mesh.n_vertices))
        gap = np.sqrt(((pts - mesh.vertices[nearest_vertices(mesh, pts)]) ** 2).sum(axis=1))
        assert (gap > 3.0 * cell).sum() >= 50
        assert_same_csr(mm.projector(mesh, pts), oracle_projector(mesh, pts))

    @pytest.mark.parametrize("kind", ["uniform", "clustered", "lattice"])
    def test_grid_matches_brute_force(self, kind):
        # the grid alone, on vertex sets no triangulation needs to cover; the
        # lattice has exact ties and duplicates, the clusters empty cells
        rng = np.random.default_rng(7)
        for n in (2, 50, 300):
            if kind == "uniform":
                v = rng.random((n, 2))
            elif kind == "clustered":
                v = np.vstack([0.01 * rng.random((n // 2, 2)), 10.0 * rng.random((n - n // 2, 2))])
            else:
                v = rng.integers(0, 6, (n, 2)) + 0.5 * rng.integers(0, 2, (n, 1))
            v = v.astype(float)[rng.permutation(n)]
            grid = mm._VertexGrid(v)
            lo, hi = v.min(axis=0), v.max(axis=0)
            pts = np.vstack([lo + (hi - lo) * rng.uniform(-0.3, 1.3, (200, 2)),
                             0.5 * (v[rng.integers(0, n, 50)] + v[rng.integers(0, n, 50)])])
            assert np.array_equal(grid.nearest(pts),
                                  np.argmin(((pts[:, None, :] - v) ** 2).sum(axis=2), axis=1))
            tol = grid.side
            i, j = np.nonzero(np.triu(((v[:, None, :] - v) ** 2).sum(axis=2) <= tol * tol, 1))
            assert np.array_equal(grid.pairs_within(tol), np.column_stack([i, j]))
