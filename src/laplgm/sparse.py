"""Sparse symmetric positive-definite linear algebra for Gauss-Markov models.

Lower-triangle storage, minimum-degree and reverse Cuthill-McKee orderings,
Cholesky factorization, log-determinants, selected inversion (a blocked
Takahashi recursion) and seeded GMRF sampling with exact linear constraints.
The permuted matrix is factorized through LAPACK band storage: its pattern
is read as a band plus a small dense trailing border, as every model the
package builds is under a band ordering with its dense columns last (Rue &
Held 2005, sec. 2.4.3).  The caller's permutation sets the band width; a
band too large to store raises ProblemTooLarge.
"""
from __future__ import annotations

import heapq

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph

from .errors import DimensionMismatch, NotPositiveDefinite, ProblemTooLarge, SingularConstraint

PIVOT_TOL = 1e-12

# A permuted pattern that is a band of width w plus nb trailing border rows
# is stored in n (w + nb + 1) floats; beyond this many (160 MB) the analysis
# raises ProblemTooLarge.
_BAND_ENTRY_CAP = 2 * 10**7
# widest trailing border the band backend tracks
MAX_BORDER = 24
# The blocked selected inversion over the band runs on column blocks of this
# many columns, whatever the bandwidth: a narrow band still makes a few large
# BLAS-3 calls, and a wide one pays about w^2 + 2 w b flops per column, not
# the 4 w^2 of blocks as wide as the band.
_SELINV_BLOCK = 64


class SparseSymmetric:
    """Symmetric sparse matrix stored as its lower triangle.

    Only entries with row >= col are kept, in CSC layout with sorted
    indices.  Duplicate coordinates are rejected at construction.
    """

    __slots__ = ("n", "lower", "_full")

    def __init__(self, n, lower, validate=True):
        lower = sp.csc_matrix(lower)
        if lower.shape != (n, n):
            raise DimensionMismatch(f"lower triangle must be {n}x{n}, got {lower.shape}")
        lower.sort_indices()
        if validate:
            r, c = lower.nonzero()
            if np.any(r < c):
                raise ValueError("entries above the diagonal are not allowed")
        self.n = n
        self.lower = lower
        self._full = None

    @classmethod
    def from_triplets(cls, n, rows, cols, values):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        if not (rows.shape == cols.shape == values.shape):
            raise DimensionMismatch("rows, cols and values must have equal length")
        if np.any(rows < cols):
            raise ValueError("only lower-triangle entries (row >= col) may be given")
        if np.any((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)):
            raise ValueError("index out of range")
        keys = cols * n + rows
        if np.unique(keys).size != keys.size:
            raise ValueError("duplicate (row, col) pairs are forbidden")
        lower = sp.csc_matrix((values, (rows, cols)), shape=(n, n))
        return cls(n, lower, validate=False)

    @classmethod
    def from_full(cls, matrix, validate=False):
        """Wrap a full symmetric matrix (dense or scipy sparse)."""
        m = sp.csc_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch("matrix must be square")
        if validate:
            asym = abs(m - m.T)
            scale = max(abs(m).max(), 1.0)
            if asym.nnz and asym.max() > 1e-10 * scale:
                raise ValueError("matrix is not symmetric")
        return cls(m.shape[0], sp.tril(m, format="csc"), validate=False)

    @property
    def nnz_lower(self):
        return self.lower.nnz

    def full(self):
        """Full symmetric matrix in CSC format (cached)."""
        if self._full is None:
            strict = sp.tril(self.lower, k=-1)
            self._full = (self.lower + strict.T).tocsc()
            self._full.sort_indices()
        return self._full

    def diagonal(self):
        return self.lower.diagonal()

    def quad(self, x):
        """x' Q x."""
        return float(x @ (self.full() @ x))

    def to_dense(self):
        return self.full().toarray()

    def save_triplets(self, path):
        """Plain-text triplet file: header `n nnz`, then `row col value`."""
        coo = self.lower.tocoo()
        order = np.lexsort((coo.row, coo.col))
        with open(path, "w") as fh:
            fh.write(f"{self.n} {coo.nnz}\n")
            for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
                fh.write(f"{int(i)} {int(j)} {float(v)!r}\n")

    @classmethod
    def load_triplets(cls, path):
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise ValueError(f"{path}: expected header 'n nnz'")
            n, nnz = int(header[0]), int(header[1])
            rows = np.empty(nnz, dtype=np.int64)
            cols = np.empty(nnz, dtype=np.int64)
            vals = np.empty(nnz, dtype=float)
            for k in range(nnz):
                parts = fh.readline().split()
                if len(parts) != 3:
                    raise ValueError(f"{path}: truncated triplet file")
                rows[k], cols[k], vals[k] = int(parts[0]), int(parts[1]), float(parts[2])
        return cls.from_triplets(n, rows, cols, vals)


class Permutation:
    """Bijective index map; `order[i]` is the original index placed at i."""

    __slots__ = ("order",)

    def __init__(self, order):
        order = np.asarray(order, dtype=np.int64)
        n = order.size
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("order is not a permutation")
        self.order = order

    @classmethod
    def identity(cls, n):
        return cls(np.arange(n))

    @property
    def n(self):
        return self.order.size

    def inverse(self):
        return Permutation(np.argsort(self.order))

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(self.order, other.order)


def reorder(Q):
    """Fill-reducing permutation via approximate-minimum-degree elimination.

    Quotient-graph bookkeeping: eliminated vertices become elements whose
    boundaries stand in for the cliques they induce, and degrees are
    updated with the usual external-degree bound rather than exact set
    unions.  Ties break toward the smallest vertex index, so the result is
    deterministic; a matrix with no off-diagonal structure maps to the
    identity.
    """
    n = Q.n
    coo = sp.tril(Q.lower, k=-1).tocoo()
    adj = [set() for _ in range(n)]
    for i, j in zip(coo.row, coo.col):
        adj[i].add(j)
        adj[j].add(i)

    elems_of = [set() for _ in range(n)]   # element ids adjacent to each variable
    elem_vars = {}                         # element id -> boundary variable set
    degree = [len(a) for a in adj]
    alive = np.ones(n, dtype=bool)
    heap = [(degree[i], i) for i in range(n)]
    heapq.heapify(heap)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    next_elem = 0

    while heap:
        d, v = heapq.heappop(heap)
        if not alive[v] or d != degree[v]:
            continue
        alive[v] = False
        order[pos] = v
        pos += 1

        absorbed = elems_of[v]
        boundary = set(adj[v])
        for e in absorbed:
            boundary |= elem_vars.pop(e)
        boundary.discard(v)
        boundary = {u for u in boundary if alive[u]}
        elems_of[v] = set()
        adj[v] = set()
        if not boundary:
            continue

        e = next_elem
        next_elem += 1
        elem_vars[e] = boundary
        lp_size = len(boundary)
        # |Le \ Lp| for every element touching the boundary
        ext = {}
        for u in boundary:
            eo = elems_of[u]
            eo -= absorbed
            for e2 in eo:
                if e2 not in ext:
                    ext[e2] = len(elem_vars[e2])
                ext[e2] -= 1
        remaining = n - pos
        for u in boundary:
            adj[u].discard(v)
            adj[u] -= boundary
            eo = elems_of[u]
            eo.add(e)
            bound = len(adj[u]) + (lp_size - 1) + sum(ext.get(e2, 0) for e2 in eo if e2 != e)
            degree[u] = min(remaining - 1, degree[u] + lp_size - 1, bound)
            heapq.heappush(heap, (degree[u], u))

    return Permutation(order)


def rcm(full):
    """Reverse Cuthill-McKee order of a full symmetric sparse pattern.

    A band ordering: the band width it leaves is what the band factorization
    pays for, while a minimum-degree order (`reorder`) of a mesh precision
    leaves a nearly dense band.
    """
    return scipy.sparse.csgraph.reverse_cuthill_mckee(sp.csr_matrix(full), symmetric_mode=True)


class _BandedBackend:
    """LAPACK band Cholesky of the core block plus a dense trailing border.

    The permuted matrix is [[A11, B'], [B, A22]] with A11 banded of width w
    and B the nb border rows; L = [[L1, 0], [M, LF]] with L1 the band
    factor, M = B L1^-T and LF the Cholesky of the border Schur complement.
    Triangular band sweeps go through LAPACK tbtrs.
    """

    __slots__ = ("n", "cut", "w", "nb", "lband", "M", "LF")

    def __init__(self, ab, Bt, F, pivot_tol):
        """Factorize from LAPACK lower band storage `ab` ((w+1) x cut, column
        major), the border rows transposed `Bt` (cut x nb) and the lower
        triangle of the border corner `F` (nb x nb)."""
        w, cut = ab.shape[0] - 1, ab.shape[1]
        nb = F.shape[0]
        lband, info = scipy.linalg.lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
        if info != 0:
            raise NotPositiveDefinite(f"band factorization failed (info={info})")
        if not np.all(np.isfinite(lband[0])) or np.min(lband[0]) ** 2 <= pivot_tol:
            raise NotPositiveDefinite("pivot at or below tolerance")
        if nb:
            M = self._tbtrs(lband, Bt, b"N").T
            F = F + np.tril(F, -1).T
            S = F - M @ M.T
            try:
                LF = np.linalg.cholesky(0.5 * (S + S.T))
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefinite(f"border factorization failed: {exc}") from exc
            if np.min(np.diag(LF)) ** 2 <= pivot_tol:
                raise NotPositiveDefinite("pivot at or below tolerance")
        else:
            M = np.zeros((0, cut))
            LF = np.zeros((0, 0))
        self.n, self.cut, self.w, self.nb = cut + nb, cut, w, nb
        self.lband, self.M, self.LF = lband, M, LF

    @staticmethod
    def _tbtrs(lband, b, trans):
        one_d = b.ndim == 1
        x, info = scipy.linalg.lapack.dtbtrs(lband, b.reshape(lband.shape[1], -1),
                                             uplo=b"L", trans=trans)
        if info != 0:
            raise NotPositiveDefinite(f"triangular band solve failed (info={info})")
        return x.ravel() if one_d else x

    def logdet(self):
        out = 2.0 * float(np.sum(np.log(self.lband[0])))
        if self.nb:
            out += 2.0 * float(np.sum(np.log(np.diag(self.LF))))
        return out

    def solve(self, bp):
        cut, nb = self.cut, self.nb
        b1, b2 = bp[:cut], bp[cut:]
        u1 = self._tbtrs(self.lband, b1, b"N")
        if nb:
            u2 = scipy.linalg.solve_triangular(self.LF, b2 - self.M @ u1,
                                               lower=True, check_finite=False)
            x2 = scipy.linalg.solve_triangular(self.LF.T, u2,
                                               lower=False, check_finite=False)
            x1 = self._tbtrs(self.lband, u1 - self.M.T @ x2, b"T")
            return np.concatenate([x1, x2]) if bp.ndim == 1 else np.vstack([x1, x2])
        return self._tbtrs(self.lband, u1, b"T")

    def solve_Lt(self, z):
        cut, nb = self.cut, self.nb
        z1, z2 = z[:cut], z[cut:]
        if nb:
            x2 = scipy.linalg.solve_triangular(self.LF.T, z2, lower=False,
                                               check_finite=False)
            x1 = self._tbtrs(self.lband, z1 - self.M.T @ x2, b"T")
            return np.concatenate([x1, x2]) if z.ndim == 1 else np.vstack([x1, x2])
        return self._tbtrs(self.lband, z1, b"T")

    def build_L(self):
        w, cut, nb = self.w, self.cut, self.nb
        rows, cols, vals = [], [], []
        for d in range(w + 1):
            m = cut - d
            v = self.lband[d, :m]
            nz = v != 0.0
            cols.append(np.flatnonzero(nz))
            rows.append(cols[-1] + d)
            vals.append(v[nz])
        if nb:
            for r in range(nb):
                v = self.M[r]
                nz = v != 0.0
                cols.append(np.flatnonzero(nz))
                rows.append(np.full(int(nz.sum()), cut + r))
                vals.append(v[nz])
            br, bc = np.tril_indices(nb)
            keep = self.LF[br, bc] != 0.0
            rows.append(cut + br[keep])
            cols.append(cut + bc[keep])
            vals.append(self.LF[br, bc][keep])
        L = sp.csc_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(self.n, self.n))
        L.sort_indices()
        return L


class CholeskyFactor:
    """Permuted sparse Cholesky factorization P Q P' = L L'.

    `symbolic` is the SymbolicFactor the factor was computed from.
    """

    __slots__ = ("n", "perm", "symbolic", "logdet", "_backend", "_L")

    def __init__(self, symbolic, backend):
        self.n = symbolic.n
        self.perm = symbolic.perm
        self.symbolic = symbolic
        self.logdet = backend.logdet()
        self._backend = backend
        self._L = None

    @property
    def L(self):
        if self._L is None:
            self._L = self._backend.build_L()
        return self._L


def _csc_from_keys(keys, n):
    """n x n CSC pattern (unit values) on the sorted entry keys `col * n + row`."""
    cols, rows = np.divmod(keys, n)
    indptr = np.searchsorted(cols, np.arange(n + 1))
    return sp.csc_matrix((np.ones(keys.size), rows, indptr), shape=(n, n))


class SymbolicFactor:
    """Analysis of one lower-triangle pattern under a fixed permutation.

    The permuted pattern is read as a band of width w plus nb dense trailing
    border rows, and every stored entry gets its destination in the numeric
    storage: the LAPACK band array, the border rows or the border corner.
    `numeric` then factorizes any matrix on the pattern with one scatter and
    one band factorization, and `selected_inverse_slots` says where the
    selected inverse of any such factor holds each entry.  A band that would
    take more than `_BAND_ENTRY_CAP` entries raises ProblemTooLarge.
    """

    __slots__ = ("n", "perm", "indptr", "indices", "w", "nb", "_maps")

    def __init__(self, Q, perm):
        n = Q.n
        lower = Q.lower
        inv = np.empty(n, dtype=np.int64)
        inv[perm.order] = np.arange(n)
        pr = inv[lower.indices]
        pc = inv[np.repeat(np.arange(n), np.diff(lower.indptr))]
        r, c = np.maximum(pr, pc), np.minimum(pr, pc)
        w, nb = _detect_bordered_band(r, c, n)
        if n * (w + nb + 1) > _BAND_ENTRY_CAP:
            raise ProblemTooLarge(
                f"the factor of n = {n} with band width w = {w} and border nb = {nb} "
                f"needs {n * (w + nb + 1)} entries, over the cap of {_BAND_ENTRY_CAP}")
        cut = n - nb
        core = r < cut
        corner = c >= cut
        border = ~core & ~corner
        self.n, self.perm, self.w, self.nb = n, perm, w, nb
        self.indptr, self.indices = lower.indptr, lower.indices
        self._maps = tuple(
            (np.flatnonzero(sel), dst) for sel, dst in (
                (core, (r - c + c * (w + 1))[core]),
                (border, (c * nb + r - cut)[border]),
                (corner, ((r - cut) * nb + c - cut)[corner])))

    def layout(self):
        """Shape of the factor: {"n", "w", "nb"}, the band width and border rows."""
        return {"n": int(self.n), "w": self.w, "nb": self.nb}

    def numeric(self, Q, pivot_tol=PIVOT_TOL):
        """Cholesky factor of Q, whose lower triangle lies on the analyzed pattern."""
        lower = Q.lower
        if Q.n != self.n or not (np.array_equal(lower.indptr, self.indptr)
                                 and np.array_equal(lower.indices, self.indices)):
            raise DimensionMismatch("matrix pattern differs from the analyzed pattern")
        data = lower.data
        if not np.all(np.isfinite(data)):
            raise NotPositiveDefinite("matrix contains non-finite entries")
        cut, w, nb = self.n - self.nb, self.w, self.nb
        parts = []
        for (src, dst), size in zip(self._maps, ((w + 1) * cut, cut * nb, nb * nb)):
            buf = np.zeros(size)
            buf[dst] = data[src]
            parts.append(buf)
        ab = parts[0].reshape((w + 1, cut), order="F")
        backend = _BandedBackend(ab, parts[1].reshape(cut, nb),
                                 parts[2].reshape(nb, nb), pivot_tol)
        return CholeskyFactor(self, backend)

    def selected_inverse_slots(self, rows, cols):
        """Where `selected_inverse` stores Sigma[i, j] for the original pairs (rows, cols).

        Returns (slots, inside): the index of each pair in the flat output of
        the recursion (see `_takahashi_bordered`), for either order of i and
        j, and whether the pair lies in the stored band, border strip or
        corner.  Pairs outside get slot -1.  Computed by arithmetic through
        the permutation, w and nb, with no array the size of the output.
        """
        n, cut, w, nb = self.n, self.n - self.nb, self.w, self.nb
        inv = np.empty(n, dtype=np.int64)
        inv[self.perm.order] = np.arange(n)
        a, b = inv[rows], inv[cols]
        r, c = np.maximum(a, b), np.minimum(a, b)
        size = (w + 1) * cut
        slots = np.where(r < cut, r - c + c * (w + 1),
                         np.where(c < cut, size + (r - cut) * cut + c,
                                  size + nb * cut + (r - cut) * nb + c - cut))
        inside = (r >= cut) | (r - c <= w)
        slots[~inside] = -1
        return slots, inside


def analyze(Q, perm=None):
    """Symbolic stage of the Cholesky factorization of Q's pattern.

    The result factorizes every matrix on the same pattern through
    `numeric`.
    """
    if perm is None:
        perm = Permutation.identity(Q.n)
    if perm.n != Q.n:
        raise DimensionMismatch("permutation size does not match matrix")
    return SymbolicFactor(Q, perm)


def factorize(Q, perm=None, pivot_tol=PIVOT_TOL):
    """Sparse Cholesky factorization of an SPD matrix.

    The permuted matrix is factorized by a LAPACK band routine, its
    pattern read as a band plus a small trailing border, so L L' reproduces
    P Q P' exactly.  A pivot at or below `pivot_tol` raises
    NotPositiveDefinite, and a band over `_BAND_ENTRY_CAP` entries raises
    ProblemTooLarge: the permutation should be a band ordering (`rcm`) with
    dense columns last.  `perm` is a Permutation (None: identity), or a
    SymbolicFactor from `analyze` when many matrices share one pattern;
    then only the numeric stage runs.
    """
    symbolic = perm if isinstance(perm, SymbolicFactor) else analyze(Q, perm)
    return symbolic.numeric(Q, pivot_tol)


def solve(factor, b):
    """Solve Q x = b through the factorization; b may be a vector or matrix."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != factor.n:
        raise DimensionMismatch(f"right-hand side has length {b.shape[0]}, expected {factor.n}")
    order = factor.perm.order
    x_perm = factor._backend.solve(b[order])
    out = np.empty_like(x_perm)
    out[order] = x_perm
    return out


def _detect_bordered_band(rows, cols, n, max_border=MAX_BORDER):
    """Core bandwidth and trailing border width minimizing the window cost.

    `rows >= cols` index the lower-triangle entries of the permuted matrix.
    Dense trailing rows (an arrowhead of fixed effects, say) would blow up
    the plain bandwidth; tracking them as a border keeps the window small.
    """
    best = None
    for nb in range(0, min(max_border, n - 1) + 1):
        cut = n - nb
        mask = rows < cut
        w = int(np.max(rows[mask] - cols[mask])) if np.any(mask) else 0
        cost = n * (w + nb + 1) ** 2
        if best is None or cost < best[2]:
            best = (w, nb, cost)
    return best[0], best[1]


def _band_window(flat, w, start, lo, rows, cols, masks):
    """Strided rows x cols window onto a band matrix in LAPACK layout, and its mask.

    `flat` is the column-major (w+1) x cut band array raveled, where entry
    (i, j) of the matrix sits at flat index i + j w.  Window entry (r, c) is
    matrix entry (start + lo + r, start + c); the mask marks the entries
    inside the band (0 <= i - j <= w), the only ones that may be read or
    written through the window.  `masks` caches the mask per window shape.
    """
    view = np.lib.stride_tricks.as_strided(
        flat[start * (w + 1) + lo:], shape=(rows, cols),
        strides=(flat.itemsize, flat.itemsize * w), writeable=True)
    mask = masks.get((lo, rows, cols))
    if mask is None:
        off = lo + np.arange(rows)[:, None] - np.arange(cols)
        mask = masks[(lo, rows, cols)] = (off >= 0) & (off <= w)
    return view, mask


def _triangular_inverse(L):
    """L^-1 of a dense lower-triangular L (zero above the diagonal)."""
    Linv, info = scipy.linalg.lapack.dtrtri(L, lower=1)
    if info != 0:
        raise NotPositiveDefinite(f"singular triangular factor (info={info})")
    return Linv


def _takahashi_bordered(backend):
    """Blocked selected inverse over a band plus trailing border rows.

    The band core is cut into column blocks of b = _SELINV_BLOCK columns.
    Block k (columns s .. s + b - 1) couples only to the h = min(w, .) band
    rows after it, which may reach over several later blocks, and to the
    border.  From the last block back, with C stacking those rows of L
    (L_{H,k}) and the border rows M_k, and Sigma_H the inverse already known
    on them:

        Z = C L_kk^-1,  Sigma_{H,k} = -Sigma_H Z,
        Sigma_kk = L_kk^-T L_kk^-1 - Z' Sigma_{H,k},

    all dense level-3 calls.  The rows after block k - 1 are this block's
    first rows and then the first rows of H, so the next Sigma_H is the
    current one shifted by b: [[Sigma_kk, Sigma_{H,k}[:m]'], [Sigma_{H,k}[:m],
    Sigma_H[:m, :m]]] plus the border rows.  Every entry of Sigma_H lies
    inside the band (its rows span fewer than w + 1), and the entries of
    Sigma_{H,k} outside the band are computed but not stored.  When w <= b
    the shift is empty and H lies within the next block.

    Returns one flat array: the band of the inverse in the layout of `lband`
    ((w+1) x cut, column major, diagonal in row 0), then the border strip
    Sigma[cut:, :cut] (nb x cut, row major), then the border corner
    Sigma[cut:, cut:] (nb x nb, row major).
    """
    cut, w, nb = backend.cut, backend.w, backend.nb
    lflat = backend.lband.ravel(order="F")
    M = backend.M
    size = (w + 1) * cut
    out = np.empty(size + nb * cut + nb * nb)
    band = out[:size]
    strip = out[size:size + nb * cut].reshape(nb, cut)
    corner = out[size + nb * cut:].reshape(nb, nb)
    if nb:
        LFinv = _triangular_inverse(backend.LF)
        corner[...] = LFinv.T @ LFinv
    # inverse on the h band rows after the block (H) and on the border
    head, h = corner.copy(), 0
    masks = {}
    b = _SELINV_BLOCK
    for s in range((cut - 1) // b * b, -1, -b):
        bk = min(b, cut - s)
        view, mask = _band_window(lflat, w, s, 0, bk, bk, masks)
        Linv = _triangular_inverse(np.where(mask, view, 0.0))
        Skk = Linv.T @ Linv
        if h + nb:
            C = np.empty((h + nb, bk))
            if h:
                view, mask = _band_window(lflat, w, s, bk, h, bk, masks)
                C[:h] = np.where(mask, view, 0.0)
            C[h:] = M[:, s:s + bk]
            Z = C @ Linv
            Shk = -(head @ Z)
            Skk -= Z.T @ Shk
            if h:
                view, mask = _band_window(band, w, s, bk, h, bk, masks)
                np.copyto(view, Shk[:h], where=mask)
            strip[:, s:s + bk] = Shk[h:]
        view, mask = _band_window(band, w, s, 0, bk, bk, masks)
        np.copyto(view, Skk, where=mask)
        # H of the block before: k rows of this block, then the first m of H
        hn = min(w, cut - s)
        k = min(hn, bk)
        m = hn - k
        new = np.empty((hn + nb, hn + nb))
        new[:k, :k] = Skk[:k, :k]
        if m:
            new[k:hn, :k] = Shk[:m]
            new[:k, k:hn] = Shk[:m].T
            new[k:hn, k:hn] = head[:m, :m]
        if nb:
            new[hn:, :k] = Shk[h:, :k]
            new[:k, hn:] = Shk[h:, :k].T
            if m:
                new[hn:, k:hn] = head[h:, :m]
                new[k:hn, hn:] = head[:m, h:]
            new[hn:, hn:] = corner
        head, h = new, hn
    return out


class SelectedInverse:
    """Q^-1 on the band, border strip and corner of a factor, in the recursion's layout.

    `data` is the flat output of `_takahashi_bordered` and `symbolic` the
    analysis of the factor; `symbolic.selected_inverse_slots` locates any
    original pair (i, j) in `data`.  `lower` gives the same values as a
    lower-triangle CSC matrix in original indexing, built on first use.
    """

    __slots__ = ("symbolic", "data", "_lower")

    def __init__(self, symbolic, data):
        self.symbolic = symbolic
        self.data = data
        self._lower = None

    def diagonal(self):
        """Sigma[i, i] in original indexing: the marginal variances."""
        sym = self.symbolic
        cut, w, nb = sym.n - sym.nb, sym.w, sym.nb
        size = (w + 1) * cut
        out = np.empty(sym.n)
        out[sym.perm.order[:cut]] = self.data[:size:w + 1]
        out[sym.perm.order[cut:]] = self.data[size + nb * cut::nb + 1]
        return out

    @property
    def lower(self):
        """Every stored entry as a lower-triangle CSC matrix in original indexing."""
        if self._lower is None:
            sym = self.symbolic
            n, cut, w, nb = sym.n, sym.n - sym.nb, sym.w, sym.nb
            size = (w + 1) * cut
            j, d = np.divmod(np.arange(size), w + 1)
            band = np.flatnonzero(j + d < cut)
            br, bc = np.tril_indices(nb)
            slots = np.concatenate([band, size + np.arange(nb * cut),
                                    size + nb * cut + br * nb + bc])
            # the permuted (row, col) of each slot, then original indexing
            prow = np.concatenate([(j + d)[band], np.repeat(np.arange(cut, n), cut), cut + br])
            pcol = np.concatenate([j[band], np.tile(np.arange(cut), nb), cut + bc])
            a, b = sym.perm.order[prow], sym.perm.order[pcol]
            lower = sp.csc_matrix((self.data[slots], (np.maximum(a, b), np.minimum(a, b))),
                                  shape=(n, n))
            lower.sort_indices()
            self._lower = lower
        return self._lower


def selected_inverse(factor):
    """Values of Q^-1 on (at least) the sparsity pattern of L + L'.

    Diagonal entries are the exact marginal variances of the GMRF with
    precision Q.  The blocked recursion's output is kept as it is written:
    the band of the permuted inverse in LAPACK layout, then the border strip
    and corner.  The returned SelectedInverse reads it in place, at the
    positions `SymbolicFactor.selected_inverse_slots` gives, and builds no
    sparse matrix unless its `lower` is asked for.
    """
    return SelectedInverse(factor.symbolic, _takahashi_bordered(factor._backend))


def sample(factor, count, seed):
    """Draw zero-mean GMRF samples with covariance Q^-1.

    Column j of the output is generated from the Philox stream
    `Philox(key=seed).jumped(j)`, so identical (factor, count, seed) give
    bit-identical output and columns may be regenerated independently.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = factor.n
    Z = np.empty((n, count))
    for j in range(count):
        gen = np.random.Generator(np.random.Philox(key=seed).jumped(j))
        Z[:, j] = gen.standard_normal(n)
    Y = factor._backend.solve_Lt(Z)
    out = np.empty_like(Y)
    out[factor.perm.order] = Y
    return out


def constraint_cholesky(S):
    """Cholesky factor of the constraint system S = M Q^-1 M' and log det S.

    Raises SingularConstraint when the factorization fails or a pivot is
    numerically zero (linearly dependent constraint rows).
    """
    S = 0.5 * (S + S.T)
    try:
        cho = scipy.linalg.cho_factor(S)
    except scipy.linalg.LinAlgError as exc:
        raise SingularConstraint(f"M Q^-1 M' is singular: {exc}") from exc
    d = np.abs(np.diag(cho[0]))
    if np.min(d) <= 1e-12 * max(1.0, np.max(np.abs(S))):
        raise SingularConstraint("M Q^-1 M' is numerically singular")
    return cho, 2.0 * float(np.sum(np.log(d)))


def constrain(mean, samples, factor, M, e):
    """Condition mean and samples on M x = e by kriging correction.

    Every output column x satisfies M x = e; the correction is
    x - Q^-1 M' (M Q^-1 M')^-1 (M x - e).
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    e = np.atleast_1d(np.asarray(e, dtype=float))
    k, n = M.shape
    if n != factor.n or e.size != k:
        raise DimensionMismatch("constraint dimensions do not match the factor")
    W = solve(factor, M.T)
    cho, _ = constraint_cholesky(M @ W)

    def correct(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return x - W @ scipy.linalg.cho_solve(cho, M @ x - e)
        return x - W @ scipy.linalg.cho_solve(cho, M @ x - e[:, None])

    mean_c = correct(mean) if mean is not None else None
    samples_c = correct(samples) if samples is not None else None
    return mean_c, samples_c
