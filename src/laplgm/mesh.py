"""2D triangulations and linear finite elements.

Structured rectangle meshes, CSV import/export, lumped mass and stiffness
assembly, and barycentric point-to-mesh projection.  These are the substrate
for the Matern-like random fields built in `latent`.

A mesh keeps a uniform grid of square cells over its vertices' bounding box,
CELLS_PER_VERTEX cells per vertex.  The grid answers two questions with numpy alone:
which vertices coincide within DUPLICATE_TOL (such pairs share a cell or sit
in neighbouring cells), and which vertex lies nearest a point (rings of cells
searched outward from the point's cell).

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

from .errors import (
    DegenerateTriangle,
    InvalidRectangle,
    NonConformingMesh,
    ParseError,
    PointOutsideMesh,
)
from .sparse import SparseSymmetric

AREA_TOL = 1e-14
CELLS_PER_VERTEX = 4
DUPLICATE_TOL = 1e-12
INSIDE_TOL = 1e-10
SCAN_CHUNK = 256


class TriMesh:
    """Conforming 2D triangulation with counter-clockwise triangles."""

    __slots__ = ("vertices", "triangles", "_grid")

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

        if not np.isfinite(vertices).all():
            raise ValueError("vertex coordinates must be finite")
        if nv > 1:
            grid = _VertexGrid(vertices)
            close = grid.pairs_within(DUPLICATE_TOL)
            if close.size:
                i, j = close[0]
                raise ValueError(f"vertices {i} and {j} coincide within {DUPLICATE_TOL}")
            self._grid = grid
        else:
            self._grid = None

        edges = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        keys, holders = np.unique(edges[:, 0] * nv + edges[:, 1], return_counts=True)
        shared = np.flatnonzero(holders > 2)
        if shared.size:
            a, b = divmod(int(keys[shared[0]]), nv)
            raise NonConformingMesh(f"edge {(a, b)} shared by more than two triangles")

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


def _spans(first, count):
    """Every position first[k] + 0, ..., first[k] + count[k] - 1, with its k.

    Returns (owner, position), ordered by k and then by position.
    """
    owner = np.repeat(np.arange(first.size), count)
    shift = np.repeat(first - (np.cumsum(count) - count), count)
    return owner, np.arange(owner.size) + shift


def _offsets(r_min, r):
    """Cell offsets (dx, dy) with r_min <= max(|dx|, |dy|) <= r."""
    dx, dy = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1))
    keep = np.maximum(np.abs(dx), np.abs(dy)) >= r_min
    return dx[keep], dy[keep]


class _VertexGrid:
    """Uniform grid of square cells over the bounding box of n vertices.

    With c = CELLS_PER_VERTEX, the cell side is the larger of
    sqrt(box area / (c n)) and the box's longer side / (c n) (and at least
    4 * DUPLICATE_TOL), so the grid has about c n cells and never more than
    3 c n + 1.  A border of empty cells surrounds them.  Cells are numbered
    row by row; cell k holds the vertices members[start[k]:start[k] +
    count[k]], in increasing index order.
    """

    __slots__ = ("x", "y", "lo", "side", "shape", "start", "count", "members", "slack")

    def __init__(self, vertices):
        n = vertices.shape[0]
        self.x, self.y = vertices[:, 0].copy(), vertices[:, 1].copy()
        self.lo = vertices.min(axis=0)
        extent = vertices.max(axis=0) - self.lo
        cells = CELLS_PER_VERTEX * n
        self.side = max(np.sqrt(extent[0] * extent[1] / cells), extent.max() / cells,
                        4.0 * DUPLICATE_TOL)
        ij = np.floor((vertices - self.lo) / self.side).astype(np.int64) + 1
        self.shape = ij.max(axis=0) + 2
        cell = ij[:, 1] * self.shape[0] + ij[:, 0]
        self.members = np.argsort(cell, kind="stable")
        self.count = np.bincount(cell, minlength=self.shape.prod())
        self.start = np.cumsum(self.count) - self.count
        # cells and distances are rounded: a vertex may sit this far on the
        # wrong side of its cell's edge
        self.slack = 1e-12 * (np.abs(self.lo).max() + extent.max() + self.side)

    def _cells(self, points):
        """Column and row of each point's cell, clipped to the inner cells."""
        ij = np.floor((points - self.lo) / self.side) + 1
        ij = np.clip(ij, 1, self.shape - 2).astype(np.int64)
        return ij[:, 0], ij[:, 1]

    def _members_near(self, cx, cy, dx, dy):
        """Vertices in the cells (cx[k] + dx, cy[k] + dy).

        Returns (k, vertex) pairs ordered by k.  A cell off the grid is read
        as the empty border cell beside it.
        """
        nx, ny = self.shape
        x = np.clip(cx[:, None] + dx, 0, nx - 1)
        y = np.clip(cy[:, None] + dy, 0, ny - 1)
        cell = (y * nx + x).ravel()
        owner, pos = _spans(self.start[cell], self.count[cell])
        return owner // dx.size, self.members[pos]

    def _dist2(self, px, py, v):
        dx, dy = px - self.x[v], py - self.y[v]
        return dx * dx + dy * dy

    def pairs_within(self, tol):
        """Vertex pairs (i, j), i < j, at most tol apart, in increasing order.

        tol must not exceed the cell side: such a pair then shares a cell or
        sits in neighbouring cells.  Each vertex is paired with the later
        members of its own cell and with every member of four of its eight
        neighbours, so each pair of cells is visited once.
        """
        cx, cy = self._cells(np.column_stack([self.x, self.y]))
        cell = cy * self.shape[0] + cx
        at = np.empty_like(self.members)
        at[self.members] = np.arange(at.size)
        i, pos = _spans(at + 1, self.start[cell] + self.count[cell] - at - 1)
        ni, nj = self._members_near(cx, cy, np.array([1, -1, 0, 1]), np.array([0, 1, 1, 1]))
        i, j = np.concatenate([i, ni]), np.concatenate([self.members[pos], nj])
        close = self._dist2(self.x[i], self.y[i], j) <= tol * tol
        pairs = np.sort(np.column_stack([i[close], j[close]]), axis=1)
        return pairs[np.lexsort(pairs.T[::-1])]

    def nearest(self, points):
        """Index of each point's nearest vertex; among equals, the lowest.

        Cells are searched outward from each point's cell: first the 3 x 3
        block around it, then one ring of cells at a time.  Once the rings
        up to r are searched, every vertex left is at least r cell sides
        away, so a point stops when it has a vertex closer than that, or
        when its rings cover the grid.
        """
        n = self.x.size
        px, py = points[:, 0].copy(), points[:, 1].copy()
        cx, cy = self._cells(points)
        last = np.max([cx - 1, self.shape[0] - 2 - cx, cy - 1, self.shape[1] - 2 - cy], axis=0)
        best = np.full(px.size, np.inf)
        best_v = np.full(px.size, n)
        todo = np.arange(px.size)
        r, dx, dy = 1, *_offsets(0, 1)
        while todo.size:
            k, v = self._members_near(cx[todo], cy[todo], dx, dy)
            if v.size:
                d = self._dist2(px[todo[k]], py[todo[k]], v)
                seg = np.flatnonzero(np.diff(k, prepend=-1))    # each point's first pair
                d_min = np.minimum.reduceat(d, seg)
                tied = d == np.repeat(d_min, np.diff(seg, append=d.size))
                v_min = np.minimum.reduceat(np.where(tied, v, n), seg)
                at = todo[k[seg]]
                better = (d_min < best[at]) | ((d_min == best[at]) & (v_min < best_v[at]))
                best[at[better]] = d_min[better]
                best_v[at[better]] = v_min[better]
            reach = r * self.side - self.slack
            done = (last[todo] <= r) | ((reach > 0) & (best[todo] < reach * reach))
            todo = todo[~done]
            r += 1
            dx, dy = _offsets(r, r)
        return best_v


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
    except (OSError, ValueError, IndexError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"cannot read mesh files: {exc}") from exc
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
    # column by column: numpy reduces rows of three several times slower
    low = np.minimum(np.minimum(lam[:, 0], lam[:, 1]), lam[:, 2])
    inside = np.flatnonzero(low >= -INSIDE_TOL)
    found, first = np.unique(row[inside], return_index=True)
    tri_of[found] = cand[inside[first]]
    lam_of[found] = lam[inside[first]]


def _locate(mesh, points):
    """Containing triangle and barycentric weights of each point.

    Candidates are first the triangles incident to the point's nearest
    vertex, which the mesh's vertex grid finds, then every triangle whose
    bounding box, padded by the factor 1 + 3*INSIDE_TOL about its centroid,
    holds the point: a point whose weights are all >= -INSIDE_TOL lies in
    the triangle scaled by that factor.  Either way the lowest-index
    containing candidate wins.
    """
    npts = points.shape[0]
    tri_of = np.full(npts, -1, dtype=np.int64)
    lam_of = np.zeros((npts, 3))
    if mesh._grid is not None:
        nearest = mesh._grid.nearest(points)
        # triangles incident to each vertex, in increasing order (CSR)
        order = np.argsort(mesh.triangles.ravel(), kind="stable")
        inc_tri = order // 3
        inc_ptr = np.concatenate([[0], np.cumsum(np.bincount(mesh.triangles.ravel(),
                                                             minlength=mesh.n_vertices))])
        row, pos = _spans(inc_ptr[nearest], inc_ptr[nearest + 1] - inc_ptr[nearest])
        _keep_first_inside(mesh, points, row, inc_tri[pos], tri_of, lam_of)

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
    vertex (the lowest-index vertex among equally near ones, searched on the
    mesh's vertex grid); for the few points none of those contains, all
    triangles are scanned and the lowest-index containing one is used.  A
    point that no triangle contains raises PointOutsideMesh.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.isfinite(points).all():
        raise ValueError("point coordinates must be finite")
    tri_of, lam_of = _locate(mesh, points)
    lam = np.clip(lam_of, 0.0, None)
    lam = lam / lam.sum(axis=1, keepdims=True)
    rows, local = np.nonzero(lam > 0.0)
    cols = mesh.triangles[tri_of[rows], local]
    return sp.csr_matrix((lam[rows, local], (rows, cols)),
                         shape=(points.shape[0], mesh.n_vertices))
