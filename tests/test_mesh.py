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
        assert fem.total_area() == pytest.approx(1.0, abs=1e-10)

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


def walk_projector(mesh, points):
    """Reference projector: one `_locate` walk per point."""
    rows, cols, vals = [], [], []
    for r, pt in enumerate(points):
        tri, lam = mm._locate(mesh, pt, max(mesh.n_triangles, 8))
        lam = np.clip(lam, 0.0, None)
        lam = lam / lam.sum()
        for local, w in enumerate(lam):
            rows.append(r)
            cols.append(int(mesh.triangles[tri][local]))
            vals.append(float(w))
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(points), mesh.n_vertices))


def perturbed_mesh(seed=0, n=12):
    # jittered interior vertices: some points lie in no triangle around their
    # nearest vertex, so the walk fallback runs too
    m = mm.structured_mesh(0.0, 1.0, 0.0, 1.0, n, n)
    v = m.vertices.copy()
    inner = (v > 1e-9).all(axis=1) & (v < 1.0 - 1e-9).all(axis=1)
    v[inner] += np.random.default_rng(seed).uniform(-0.3, 0.3, (inner.sum(), 2)) / n
    return mm.TriMesh(v, m.triangles)


class TestVectorizedProjector:
    @pytest.mark.parametrize("mesh", [unit_square(9, 7), perturbed_mesh()],
                             ids=["structured", "perturbed"])
    def test_matches_walk(self, mesh):
        rng = np.random.default_rng(4)
        random_pts = rng.random((500, 2))
        tri = mesh.triangles[rng.integers(0, mesh.n_triangles, 100)]
        a = rng.random((100, 1))
        edge_pts = a * mesh.vertices[tri[:, 0]] + (1.0 - a) * mesh.vertices[tri[:, 1]]
        vertex_pts = mesh.vertices[rng.integers(0, mesh.n_vertices, 50)]
        for pts in (random_pts, edge_pts, vertex_pts):
            P = mm.projector(mesh, pts)
            assert abs(P - walk_projector(mesh, pts)).max() <= 1e-14

    def test_fallback_reached(self):
        mesh = perturbed_mesh()
        pts = np.random.default_rng(4).random((500, 2))
        tri_of, _ = mm._locate_near(mesh, pts)
        assert 0 < np.sum(tri_of < 0) < pts.shape[0]

    def test_outside_points_raise(self):
        mesh = perturbed_mesh()
        inside = np.random.default_rng(2).random((20, 2))
        for outside in ([1.0 + 1e-6, 0.5], [-0.2, -0.2], [0.5, 3.0]):
            with pytest.raises(PointOutsideMesh):
                mm.projector(mesh, np.vstack([inside, outside]))
