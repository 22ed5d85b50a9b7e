"""2D triangulations and linear finite elements.

Structured rectangle meshes, CSV import/export, lumped mass and stiffness
assembly, and barycentric point-to-mesh projection.  These are the substrate
for the Matern-like random fields built in `latent`.

A point lies in a triangle when all three of its barycentric weights are at
least -INSIDE_TOL.  Point location runs in two array passes: the triangles
around each point's nearest vertex, then, for the points that pass misses, a
scan of every triangle in increasing index order, in chunks of at most
SCAN_CHUNK points.
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
SCAN_CHUNK = 256


class TriMesh:
    """Conforming 2D triangulation with counter-clockwise triangles."""

    __slots__ = ("vertices", "triangles", "_tree")

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

        edges = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        edges, holders = np.unique(edges, axis=0, return_counts=True)
        shared = np.flatnonzero(holders > 2)
        if shared.size:
            a, b = edges[shared[0]]
            raise NonConformingMesh(f"edge {(int(a), int(b))} shared by more than two triangles")

        self.vertices = vertices
        self.triangles = triangles

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

    # lower-left vertex of each cell, row by row; cell triangles
    # (ll, lr, ur) then (ll, ur, ul)
    ll = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    ur = ll + nx + 2
    tris = np.column_stack([ll, ll + 1, ur, ll, ur, ur - 1]).reshape(-1, 3)
    return TriMesh(vertices, tris)


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


def _barycentric(mesh, tri, points):
    """Barycentric weights (k, 3) of points[k] in triangle tri[k]."""
    p = mesh.vertices[mesh.triangles[tri]]                  # (k, 3, 2)
    T = np.stack([p[:, 0] - p[:, 2], p[:, 1] - p[:, 2]], axis=2)
    l01 = np.linalg.solve(T, (points - p[:, 2])[:, :, None])[:, :, 0]
    return np.column_stack([l01, 1.0 - l01[:, 0] - l01[:, 1]])


def _keep_first_inside(mesh, points, row, cand, tri_of, lam_of):
    """Record, for each row, the first candidate triangle that contains it.

    `row` and `cand` pair rows of `points` with candidate triangles, each
    row's candidates in increasing triangle order.
    """
    lam = _barycentric(mesh, cand, points[row])
    inside = np.flatnonzero(lam.min(axis=1) >= -INSIDE_TOL)
    found, first = np.unique(row[inside], return_index=True)
    tri_of[found] = cand[inside[first]]
    lam_of[found] = lam[inside[first]]


def _locate(mesh, points):
    """Containing triangle and barycentric weights of each point.

    Candidates are first the triangles incident to the point's nearest
    vertex, then every triangle whose bounding box, padded by the factor
    1 + 3*INSIDE_TOL about its centroid, holds the point: a point whose
    weights are all >= -INSIDE_TOL lies in the triangle scaled by that
    factor.  Either way the lowest-index containing candidate wins.
    """
    npts = points.shape[0]
    tri_of = np.full(npts, -1, dtype=np.int64)
    lam_of = np.zeros((npts, 3))
    if mesh._tree is not None:
        nearest = mesh._tree.query(points)[1]
        # triangles incident to each vertex, in increasing order (CSR)
        order = np.argsort(mesh.triangles.ravel(), kind="stable")
        inc_tri = order // 3
        inc_ptr = np.concatenate([[0], np.cumsum(np.bincount(mesh.triangles.ravel(),
                                                             minlength=mesh.n_vertices))])
        counts = inc_ptr[nearest + 1] - inc_ptr[nearest]
        row = np.repeat(np.arange(npts), counts)
        offset = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
        cand = inc_tri[inc_ptr[nearest][row] + offset]
        _keep_first_inside(mesh, points, row, cand, tri_of, lam_of)

    missed = np.flatnonzero(tri_of < 0)
    if missed.size:
        p = mesh.vertices[mesh.triangles]                   # (m, 3, 2)
        centroid = p.mean(axis=1)
        pad = 1.0 + 3.0 * INSIDE_TOL
        lo = centroid + pad * (p.min(axis=1) - centroid)
        hi = centroid + pad * (p.max(axis=1) - centroid)
        for start in range(0, missed.size, SCAN_CHUNK):
            rows = missed[start:start + SCAN_CHUNK]
            q = points[rows][:, None, :]
            row, cand = np.nonzero(((q >= lo) & (q <= hi)).all(axis=2))
            _keep_first_inside(mesh, points, rows[row], cand, tri_of, lam_of)
        lost = np.flatnonzero(tri_of < 0)
        if lost.size:
            point = points[lost[0]]
            lam = _barycentric(mesh, np.arange(mesh.n_triangles),
                               np.broadcast_to(point, (mesh.n_triangles, 2)))
            gap = -np.max(lam.min(axis=1), initial=-np.inf)
            raise PointOutsideMesh(f"point {tuple(point)} lies outside the mesh (gap {gap:.2e})")
    return tri_of, lam_of


def projector(mesh, points):
    """Sparse barycentric interpolation matrix of shape (len(points), n_vertices).

    Each row carries the weights of the containing triangle; weights are
    clipped at zero and renormalized so they sum to one.  A point counts as
    inside a triangle when none of its weights is below -INSIDE_TOL.  The
    containing triangle is the lowest-index one around the point's nearest
    vertex; for the few points none of those contains, all triangles are
    scanned and the lowest-index containing one is used.  A point that no
    triangle contains raises PointOutsideMesh.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    tri_of, lam_of = _locate(mesh, points)
    lam = np.clip(lam_of, 0.0, None)
    lam = lam / lam.sum(axis=1, keepdims=True)
    rows, local = np.nonzero(lam > 0.0)
    cols = mesh.triangles[tri_of[rows], local]
    return sp.csr_matrix((lam[rows, local], (rows, cols)),
                         shape=(points.shape[0], mesh.n_vertices))
