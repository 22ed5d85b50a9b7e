"""2D triangulations and linear finite elements.

Structured rectangle meshes, CSV import/export, lumped mass and stiffness
assembly, and barycentric point-to-mesh projection.  These are the substrate
for the Matern-like random fields built in `latent`.
"""
from __future__ import annotations

import csv

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .errors import (
    DegenerateTriangle,
    InvalidRectangle,
    NonConformingMesh,
    ParseError,
    PointOutsideMesh,
)
from .sparse import SparseSymmetric

AREA_TOL = 1e-14
DUPLICATE_TOL = 1e-12
INSIDE_TOL = 1e-10


class TriMesh:
    """Conforming 2D triangulation with counter-clockwise triangles."""

    __slots__ = ("vertices", "triangles", "_edge_map", "_vertex_tri", "_tree")

    def __init__(self, vertices, triangles):
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be an (m, 3) array")
        nv = vertices.shape[0]
        if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
            raise ValueError("triangle vertex index out of range")

        # canonicalize orientation; reject degenerate triangles
        p0 = vertices[triangles[:, 0]]
        p1 = vertices[triangles[:, 1]]
        p2 = vertices[triangles[:, 2]]
        cross = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0])
        if np.any(np.abs(cross) / 2.0 <= AREA_TOL):
            bad = int(np.argmin(np.abs(cross)))
            raise DegenerateTriangle(f"triangle {bad} has area below {AREA_TOL}")
        flip = cross < 0
        triangles = triangles.copy()
        triangles[flip] = triangles[flip][:, [0, 2, 1]]

        if nv > 1:
            tree = cKDTree(vertices)
            pairs = tree.query_pairs(DUPLICATE_TOL)
            if pairs:
                i, j = sorted(next(iter(pairs)))
                raise ValueError(f"vertices {i} and {j} coincide within {DUPLICATE_TOL}")
            self._tree = tree
        else:
            self._tree = None

        edge_map = {}
        for t, (i, j, k) in enumerate(triangles):
            for a, b in ((i, j), (j, k), (k, i)):
                key = (min(a, b), max(a, b))
                holders = edge_map.setdefault(key, [])
                holders.append(t)
                if len(holders) > 2:
                    raise NonConformingMesh(f"edge {key} shared by more than two triangles")

        self.vertices = vertices
        self.triangles = triangles
        self._edge_map = edge_map
        self._vertex_tri = None

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    def areas(self):
        p0 = self.vertices[self.triangles[:, 0]]
        p1 = self.vertices[self.triangles[:, 1]]
        p2 = self.vertices[self.triangles[:, 2]]
        return 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                      - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0]))

    def neighbor(self, tri, a, b):
        """Triangle across edge (a, b), or -1 at the boundary."""
        holders = self._edge_map.get((min(a, b), max(a, b)), [])
        for t in holders:
            if t != tri:
                return t
        return -1

    def _first_triangle_of(self, vertex):
        if self._vertex_tri is None:
            vt = np.full(self.n_vertices, -1, dtype=np.int64)
            for t in range(self.n_triangles - 1, -1, -1):
                vt[self.triangles[t]] = t
            self._vertex_tri = vt
        return int(self._vertex_tri[vertex])


def structured_mesh(x_min, x_max, y_min, y_max, nx, ny):
    """Regular triangulation of a rectangle.

    Each of the nx*ny grid cells is split along its lower-left to
    upper-right diagonal, giving (nx+1)(ny+1) vertices and 2*nx*ny
    triangles.
    """
    if nx < 1 or ny < 1:
        raise InvalidRectangle("nx and ny must be >= 1")
    if not (x_max > x_min and y_max > y_min):
        raise InvalidRectangle("empty rectangle")
    xs = np.linspace(x_min, x_max, nx + 1)
    ys = np.linspace(y_min, y_max, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(ix, iy):
        return iy * (nx + 1) + ix

    tris = []
    for iy in range(ny):
        for ix in range(nx):
            ll = vid(ix, iy)
            lr = vid(ix + 1, iy)
            ul = vid(ix, iy + 1)
            ur = vid(ix + 1, iy + 1)
            tris.append((ll, lr, ur))
            tris.append((ll, ur, ul))
    return TriMesh(vertices, np.array(tris))


def save_mesh(mesh, vertex_file, triangle_file):
    """Write vertex CSV (`x,y`) and triangle CSV (`i,j,k`, 0-based)."""
    with open(vertex_file, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y"])
        for x, y in mesh.vertices:
            w.writerow([repr(float(x)), repr(float(y))])
    with open(triangle_file, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "k"])
        for i, j, k in mesh.triangles:
            w.writerow([int(i), int(j), int(k)])


def load_mesh(vertex_file, triangle_file):
    """Read and validate a mesh from CSV files.

    Clockwise triangles are accepted and reoriented; zero-area triangles
    raise DegenerateTriangle and non-conforming edges NonConformingMesh.
    """
    try:
        with open(vertex_file, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["x", "y"]:
                raise ParseError(f"{vertex_file}: expected header 'x,y'")
            vertices = [(float(r[0]), float(r[1])) for r in reader if r]
        with open(triangle_file, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:3]] != ["i", "j", "k"]:
                raise ParseError(f"{triangle_file}: expected header 'i,j,k'")
            triangles = [(int(r[0]), int(r[1]), int(r[2])) for r in reader if r]
    except (ValueError, IndexError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"could not parse mesh files: {exc}") from exc
    try:
        return TriMesh(np.array(vertices, dtype=float).reshape(-1, 2),
                       np.array(triangles, dtype=np.int64).reshape(-1, 3))
    except (DegenerateTriangle, NonConformingMesh):
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


class FemMatrices:
    """Lumped mass diagonal C and stiffness matrix G of a triangulation."""

    __slots__ = ("mass_diag", "stiffness")

    def __init__(self, mass_diag, stiffness):
        self.mass_diag = np.asarray(mass_diag, dtype=float)
        self.stiffness = stiffness

    @property
    def n(self):
        return self.mass_diag.size

    def total_area(self):
        return float(self.mass_diag.sum())


def assemble(mesh):
    """Assemble lumped mass and stiffness matrices from linear elements.

    C_ii is one third of the total area of triangles touching vertex i;
    G comes from the gradients of the piecewise-linear basis functions,
    so each row sums to zero and G is positive semi-definite.
    """
    nv = mesh.n_vertices
    tri = mesh.triangles
    areas = mesh.areas()

    c = np.zeros(nv)
    np.add.at(c, tri.ravel(), np.repeat(areas / 3.0, 3))

    p = mesh.vertices[tri]  # (m, 3, 2)
    # edge vectors opposite each vertex: b_i = y_j - y_k, c_i = x_k - x_j
    ys = p[:, :, 1]
    xs = p[:, :, 0]
    b = ys[:, [1, 2, 0]] - ys[:, [2, 0, 1]]
    cc = xs[:, [2, 0, 1]] - xs[:, [1, 2, 0]]
    scale = 1.0 / (4.0 * areas)
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(i + 1):
            gij = (b[:, i] * b[:, j] + cc[:, i] * cc[:, j]) * scale
            vi, vj = tri[:, i], tri[:, j]
            rows.append(np.maximum(vi, vj))
            cols.append(np.minimum(vi, vj))
            vals.append(gij)
    lower = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nv, nv),
    )
    lower.sum_duplicates()
    return FemMatrices(c, SparseSymmetric(nv, lower, validate=False))


def _barycentric(mesh, tri, point):
    i, j, k = mesh.triangles[tri]
    p0, p1, p2 = mesh.vertices[i], mesh.vertices[j], mesh.vertices[k]
    T = np.array([[p0[0] - p2[0], p1[0] - p2[0]],
                  [p0[1] - p2[1], p1[1] - p2[1]]])
    rhs = np.array([point[0] - p2[0], point[1] - p2[1]])
    l01 = np.linalg.solve(T, rhs)
    return np.array([l01[0], l01[1], 1.0 - l01[0] - l01[1]])


def _locate(mesh, point, max_steps):
    """Walk toward `point` from the nearest vertex; exhaustive fallback."""
    tri = mesh._first_triangle_of(int(mesh._tree.query(point)[1])) if mesh._tree is not None else 0
    visited = set()
    for _ in range(max_steps):
        if tri < 0 or tri in visited:
            break
        visited.add(tri)
        lam = _barycentric(mesh, tri, point)
        worst = int(np.argmin(lam))
        if lam[worst] >= -INSIDE_TOL:
            return tri, lam
        i, j, k = mesh.triangles[tri]
        opposite_edge = {0: (j, k), 1: (k, i), 2: (i, j)}[worst]
        tri = mesh.neighbor(tri, *opposite_edge)
    # exhaustive scan
    best_tri, best_lam, best_min = -1, None, -np.inf
    for t in range(mesh.n_triangles):
        lam = _barycentric(mesh, t, point)
        m = lam.min()
        if m > best_min:
            best_tri, best_lam, best_min = t, lam, m
        if m >= -INSIDE_TOL:
            return t, lam
    if best_min >= -INSIDE_TOL:
        return best_tri, best_lam
    raise PointOutsideMesh(f"point {tuple(point)} lies outside the mesh (gap {-best_min:.2e})")


def _locate_near(mesh, points):
    """Containing triangle and barycentric weights of each point, found among
    the triangles incident to its nearest vertex.

    Candidates are tried in increasing triangle order, the order in which the
    walk of `_locate` starts.  Returns (triangle, weights); triangle is -1
    for a point no incident triangle contains.
    """
    npts = points.shape[0]
    tri_of = np.full(npts, -1, dtype=np.int64)
    lam_of = np.zeros((npts, 3))
    if mesh._tree is None or npts == 0:
        return tri_of, lam_of
    nearest = mesh._tree.query(points)[1]
    # triangles incident to each vertex, in increasing order (CSR)
    order = np.argsort(mesh.triangles.ravel(), kind="stable")
    inc_tri = order // 3
    inc_ptr = np.concatenate([[0], np.cumsum(np.bincount(mesh.triangles.ravel(),
                                                         minlength=mesh.n_vertices))])
    counts = inc_ptr[nearest + 1] - inc_ptr[nearest]
    point = np.repeat(np.arange(npts), counts)
    offset = np.arange(point.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cand = inc_tri[inc_ptr[nearest][point] + offset]
    p = mesh.vertices[mesh.triangles[cand]]                  # (k, 3, 2)
    T = np.stack([p[:, 0] - p[:, 2], p[:, 1] - p[:, 2]], axis=2)
    l01 = np.linalg.solve(T, (points[point] - p[:, 2])[:, :, None])[:, :, 0]
    lam = np.column_stack([l01, 1.0 - l01[:, 0] - l01[:, 1]])
    inside = np.flatnonzero(lam.min(axis=1) >= -INSIDE_TOL)
    found, first = np.unique(point[inside], return_index=True)
    tri_of[found] = cand[inside[first]]
    lam_of[found] = lam[inside[first]]
    return tri_of, lam_of


def projector(mesh, points):
    """Sparse barycentric interpolation matrix of shape (len(points), n_vertices).

    Each row carries the weights of the containing triangle; weights are
    clipped at zero and renormalized so they sum to one.  Points are looked
    up among the triangles around their nearest vertex all at once; the walk
    of `_locate` handles the few that none of those contains.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    tri_of, lam_of = _locate_near(mesh, points)
    max_steps = max(mesh.n_triangles, 8)
    for r in np.flatnonzero(tri_of < 0):
        tri_of[r], lam_of[r] = _locate(mesh, points[r], max_steps)
    lam = np.clip(lam_of, 0.0, None)
    lam = lam / lam.sum(axis=1, keepdims=True)
    rows, local = np.nonzero(lam > 0.0)
    cols = mesh.triangles[tri_of[rows], local]
    return sp.csr_matrix((lam[rows, local], (rows, cols)),
                         shape=(points.shape[0], mesh.n_vertices))
