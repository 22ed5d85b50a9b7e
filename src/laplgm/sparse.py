"""Sparse symmetric positive-definite linear algebra for Gauss-Markov models.

Lower-triangle storage, minimum-degree and band orderings, Cholesky
factorization, log-determinants, selected inversion (a blocked Takahashi
recursion), seeded GMRF sampling and the factor of a linear constraint
system.
The permuted matrix is factorized through LAPACK band storage: its pattern
is read as a band plus a small dense trailing border, as every model the
package builds is under a band ordering with its dense columns last (Rue &
Held 2005, sec. 2.4.3).  The caller's permutation, `band_order` for every
fit, sets the band width; a band too large to store raises ProblemTooLarge.
The band core may fall apart into independent chains (replicates of a
field, say), coupled only through the border.  `analyze` finds them once
per pattern; the border rows of the factor are solved over the chains they
touch.  The selected inversion works on column blocks 64 wide, or 32 on a
band narrower than 64.  It runs consecutive chains shorter than a block as
one sequence and each group of equal-length sequences in lockstep.  It
stores Sigma on the band within each sequence, the border strip and the
corner; the band slots that join two sequences lie outside L's pattern and
are not stored.  A caller that reads a factor for the last time has its
selected inverse written over the factor's own memory.
"""
from __future__ import annotations

import heapq

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph

from .errors import (
    DimensionMismatch,
    FactorConsumed,
    NotPositiveDefinite,
    ProblemTooLarge,
    SingularConstraint,
)

PIVOT_TOL = 1e-12

# A permuted pattern that is a band of width w plus nb trailing border rows
# is stored in n (w + nb + 1) floats; beyond this many (160 MB) the analysis
# raises ProblemTooLarge.
_BAND_ENTRY_CAP = 2 * 10**7
# widest trailing border the band factorization tracks
MAX_BORDER = 24
# The blocked selected inversion over the band runs on column blocks of this
# many columns, or half as many on a band narrower than that: a narrow band
# still makes a few large BLAS-3 calls, and a wide one pays about
# w^2 + 2 w b flops per column, not the 4 w^2 of blocks as wide as the band.
_SELINV_BLOCK = 64


def _selinv_block(w):
    """Column block width of the selected inversion over a band of width w."""
    return _SELINV_BLOCK if w >= _SELINV_BLOCK else _SELINV_BLOCK // 2


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


def _band_candidates(full, last):
    """The orders `band_order` scores, the columns `last` at the end of each.

    The natural order, then reverse Cuthill-McKee with the k highest-degree
    other columns (hubs) moved before `last`, for k = 0 and for each k up to
    the border cap less `last` where the degree drops after the k-th (a
    prefix that split columns of equal degree would be picked by index
    alone).  A hub, such as an rw1 trend column that every observation of
    its time level touches, widens any band it sits in, and costs one row of
    the border (Rue & Held 2005, sec. 2.4).
    """
    free = np.setdiff1d(np.arange(full.shape[0]), last)
    yield np.concatenate([free, last])
    if not free.size:
        return
    sub = full[free, :][:, free]
    degree = np.diff(sub.indptr)
    rank = np.argsort(-degree, kind="stable")
    ranked = degree[rank]
    room = max(0, min(MAX_BORDER - last.size, free.size - 1))
    for k in [0, *np.flatnonzero(ranked[:room] > ranked[1:room + 1]) + 1]:
        rest = np.sort(rank[k:])
        # at k = 0 rest is every free column, and sub is already their pattern
        part = sub if k == 0 else sub[rest, :][:, rest]
        yield np.concatenate([free[rest[rcm(part)]], free[rank[:k]], last])


def band_order(full, last=()):
    """The band ordering of a full symmetric CSC pattern that factorizes cheapest.

    The pattern stores every diagonal entry.  `last` (dense fixed-effect
    columns, say) goes at the end in the order given.  Each of
    `_band_candidates` is scored by the layout `analyze` detects for it
    (`_detect_bordered_band`), and ties go to the earlier candidate.
    """
    candidates = list(_band_candidates(full, np.asarray(last, dtype=np.int64)))
    costs = [_detect_bordered_band(_row_widths(full, order))[2] for order in candidates]
    return Permutation(candidates[int(np.argmin(costs))])


class CholeskyFactor:
    """Permuted sparse Cholesky factorization P Q P' = L L'.

    The permuted matrix is [[A11, B'], [B, A22]] with A11 banded of width w
    and B the nb border rows; L = [[L1, 0], [M, LF]] with L1 the LAPACK band
    factor `lband`, M = B L1^-T (each row solved over the chains it
    touches) and LF the Cholesky of the border Schur complement.  Triangular
    band sweeps go through LAPACK tbtrs.  `symbolic` is the SymbolicFactor
    the factor was computed from.
    """

    __slots__ = ("n", "perm", "symbolic", "logdet", "cut", "w", "nb", "M", "LF", "_lband",
                 "_buf", "_L")

    def __init__(self, symbolic, buf, Bt, F):
        """Factorize from the flat buffer `buf`, whose first (w+1) cut entries
        hold the band in LAPACK lower band storage ((w+1) x cut, column
        major) and whose last nb (cut + nb) are room for the border of a
        selected inverse written over the factor; `Bt` is the border rows
        transposed (cut x nb) and `F` the lower triangle of the border
        corner (nb x nb).  The band factor overwrites the band in `buf`."""
        w, nb = symbolic.w, symbolic.nb
        cut = symbolic.n - nb
        ab = buf[:(w + 1) * cut].reshape((w + 1, cut), order="F")
        lband, info = scipy.linalg.lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
        if info != 0:
            raise NotPositiveDefinite(f"band factorization failed (info={info})")
        if not np.all(np.isfinite(lband[0])) or np.min(lband[0]) ** 2 <= PIVOT_TOL:
            raise NotPositiveDefinite("pivot at or below tolerance")
        logdet = 2.0 * float(np.sum(np.log(lband[0])))
        if nb:
            # each row of M is zero outside the chains its border row touches
            M = np.zeros((nb, cut))
            for rows, lo, hi in symbolic._spans:
                M[rows, lo:hi] = self._tbtrs(lband[:, lo:hi], Bt[lo:hi, rows], b"N").T
            F = F + np.tril(F, -1).T
            S = F - M @ M.T
            try:
                LF = np.linalg.cholesky(0.5 * (S + S.T))
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefinite(f"border factorization failed: {exc}") from exc
            if np.min(np.diag(LF)) ** 2 <= PIVOT_TOL:
                raise NotPositiveDefinite("pivot at or below tolerance")
            logdet += 2.0 * float(np.sum(np.log(np.diag(LF))))
        else:
            M = np.zeros((0, cut))
            LF = np.zeros((0, 0))
        self.n, self.perm, self.symbolic, self.logdet = symbolic.n, symbolic.perm, symbolic, logdet
        self.cut, self.w, self.nb = cut, w, nb
        self.M, self.LF = M, LF
        self._lband, self._buf = lband, buf
        self._L = None

    @property
    def lband(self):
        """L1 in LAPACK band storage.  Raises FactorConsumed once a selected
        inverse has been written over it (`selected_inverse(overwrite=True)`)."""
        if self._lband is None:
            raise FactorConsumed("this factor's band holds its selected inverse "
                                 "(selected_inverse with overwrite=True): factorize again")
        return self._lband

    @staticmethod
    def _tbtrs(lband, b, trans):
        one_d = b.ndim == 1
        x, info = scipy.linalg.lapack.dtbtrs(lband, b.reshape(lband.shape[1], -1),
                                             uplo=b"L", trans=trans)
        if info != 0:
            raise NotPositiveDefinite(f"triangular band solve failed (info={info})")
        return x.ravel() if one_d else x

    def _solve_permuted(self, bp):
        """x with L L' x = bp."""
        u = self._tbtrs(self.lband, bp[:self.cut], b"N")
        if self.nb:
            u2 = scipy.linalg.solve_triangular(self.LF, bp[self.cut:] - self.M @ u,
                                               lower=True, check_finite=False)
            u = np.concatenate([u, u2])
        return self._solve_Lt(u)

    def _solve_Lt(self, z):
        """x with L' x = z."""
        cut, nb = self.cut, self.nb
        z1, z2 = z[:cut], z[cut:]
        if nb:
            x2 = scipy.linalg.solve_triangular(self.LF.T, z2, lower=False,
                                               check_finite=False)
            x1 = self._tbtrs(self.lband, z1 - self.M.T @ x2, b"T")
            return np.concatenate([x1, x2])
        return self._tbtrs(self.lband, z1, b"T")

    @property
    def L(self):
        """L as a sorted CSC matrix, built on first use."""
        if self._L is None:
            w, cut, nb = self.w, self.cut, self.nb
            lband = self.lband
            rows, cols, vals = [], [], []
            for d in range(w + 1):
                v = lband[d, :cut - d]
                nz = v != 0.0
                cols.append(np.flatnonzero(nz))
                rows.append(cols[-1] + d)
                vals.append(v[nz])
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
            self._L = L
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

    The band core splits into `chains`: a gap at g means that no core entry
    (r, c) has c < g <= r, so the core, its factor L1 and the recursion of
    the selected inverse fall apart into independent diagonal blocks, coupled
    only through the border (replicates of one field, say).  The recursion
    runs consecutive chains shorter than its column block (isolated nodes,
    short AR(1) groups) as one sequence, so a sequence shorter than a block
    lies between two that are not.  `groups` holds (start, length, count) for each run
    of `count` consecutive sequences of equal `length`; the selected inverse
    runs each group in lockstep and stores no band slot that joins two
    sequences.  The first column of each sequence (`_starts`) and the span
    of the core that each border row's solve touches (`_spans`) are fixed
    here as well.
    """

    __slots__ = ("n", "perm", "indptr", "indices", "w", "nb", "chains", "groups", "_starts",
                 "_maps", "_spans")

    def __init__(self, Q, perm):
        n = Q.n
        lower = Q.lower
        inv = np.empty(n, dtype=np.int64)
        inv[perm.order] = np.arange(n)
        pr = inv[lower.indices]
        pc = inv[np.repeat(np.arange(n), np.diff(lower.indptr))]
        r, c = np.maximum(pr, pc), np.minimum(pr, pc)
        width = np.zeros(n, dtype=np.int64)
        np.maximum.at(width, r, r - c)
        w, nb, _ = _detect_bordered_band(width)
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
        # g starts a chain when every core row from g on reaches back to g at most
        at = np.arange(cut)
        reach = np.minimum.accumulate((at - width[:cut])[::-1])[::-1]
        starts = np.flatnonzero(reach == at)
        lengths = np.diff(np.append(starts, cut))
        self.chains = int(starts.size)
        chain_end = np.repeat(starts + lengths, lengths)
        # a chain shorter than a block joins the sequence of the one before
        # when that is short too
        short = lengths < _selinv_block(w)
        starts = self._starts = starts[np.append(True, ~(short[1:] & short[:-1]))]
        lengths = np.diff(np.append(starts, cut))
        runs = np.flatnonzero(np.diff(lengths, prepend=-1))
        self.groups = tuple((int(starts[i]), int(lengths[i]), int(k))
                            for i, k in zip(runs, np.diff(np.append(runs, lengths.size))))
        # border row k's solve runs from its first core column to the end of
        # the chain of its last; rows of equal span share one solve
        lo = np.full(nb, cut)
        hi = np.zeros(nb, dtype=np.int64)
        np.minimum.at(lo, r[border] - cut, c[border])
        np.maximum.at(hi, r[border] - cut, chain_end[c[border]])
        spans = {}
        for k in np.flatnonzero(lo < cut):
            spans.setdefault((int(lo[k]), int(hi[k])), []).append(k)
        self._spans = tuple((np.array(ks), a, b) for (a, b), ks in spans.items())

    def layout(self):
        """Shape of the factor: {"n", "w", "nb", "chains"}, the band width, the
        border rows and the number of independent chains of the band core."""
        return {"n": int(self.n), "w": self.w, "nb": self.nb, "chains": self.chains}

    def numeric(self, Q):
        """Cholesky factor of Q, whose lower triangle lies on the analyzed pattern."""
        lower = Q.lower
        if Q.n != self.n or not (np.array_equal(lower.indptr, self.indptr)
                                 and np.array_equal(lower.indices, self.indices)):
            raise DimensionMismatch("matrix pattern differs from the analyzed pattern")
        data = lower.data
        if not np.all(np.isfinite(data)):
            raise NotPositiveDefinite("matrix contains non-finite entries")
        cut, w, nb = self.n - self.nb, self.w, self.nb
        size = (w + 1) * cut
        # the band, then room (left unset) for the border strip and corner of
        # a selected inverse written over the factor
        buf = np.empty(size + nb * (cut + nb))
        band, Bt, F = buf[:size], np.zeros(cut * nb), np.zeros(nb * nb)
        band[:] = 0.0
        for (src, dst), part in zip(self._maps, (band, Bt, F)):
            part[dst] = data[src]
        return CholeskyFactor(self, buf, Bt.reshape(cut, nb), F.reshape(nb, nb))

    def selected_inverse_slots(self, rows, cols):
        """Where `selected_inverse` stores Sigma[i, j] for the original pairs (rows, cols).

        Returns (slots, inside): the index of each pair in the flat output of
        the recursion (see `_takahashi_bordered`), for either order of i and
        j, and whether the pair lies in the stored band, border strip or
        corner.  A band pair is stored when both its ends lie in one sequence
        of the core.  Pairs outside get slot -1.  Computed by arithmetic
        through the permutation, w, nb and the sequence starts, with no array
        the size of the output.
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
        seq = self._starts
        inside = (r >= cut) | ((r - c <= w) & (np.searchsorted(seq, r, "right")
                                                == np.searchsorted(seq, c, "right")))
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


def factorize(Q, perm=None):
    """Sparse Cholesky factorization of an SPD matrix.

    The permuted matrix is factorized by a LAPACK band routine, its
    pattern read as a band plus a small trailing border, so L L' reproduces
    P Q P' exactly.  A pivot whose square is at or below PIVOT_TOL raises
    NotPositiveDefinite, and a band over `_BAND_ENTRY_CAP` entries raises
    ProblemTooLarge: the permutation should be a band ordering
    (`band_order`) with dense columns last.  `perm` is a Permutation (None:
    identity), or a SymbolicFactor from `analyze` when many matrices share
    one pattern; then only the numeric stage runs.
    """
    symbolic = perm if isinstance(perm, SymbolicFactor) else analyze(Q, perm)
    return symbolic.numeric(Q)


def solve(factor, b):
    """Solve Q x = b through the factorization; b may be a vector or matrix."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != factor.n:
        raise DimensionMismatch(f"right-hand side has length {b.shape[0]}, expected {factor.n}")
    order = factor.perm.order
    x_perm = factor._solve_permuted(b[order])
    out = np.empty_like(x_perm)
    out[order] = x_perm
    return out


def _row_widths(full, order):
    """Width r - c of the widest entry in each row r of the pattern permuted by `order`.

    `full` is a full symmetric CSC pattern with every diagonal entry stored:
    original column i becomes row inv[i], which reaches back to the least
    inv of its entries.
    """
    n = full.shape[0]
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.arange(n)
    width = np.empty(n, dtype=np.int64)
    width[inv] = inv - np.minimum.reduceat(inv[full.indices], full.indptr[:-1])
    return width


def _detect_bordered_band(width):
    """Core bandwidth w and trailing border width nb of least factorization cost.

    `width[r]` is the widest r - c in row r of the permuted lower triangle.
    Dense trailing rows (an arrowhead of fixed effects, say) would blow up
    the plain bandwidth; tracking them as a border keeps the window small.
    The cost is n (w + nb + 1)^2, the flops of the band factorization; the
    smallest nb of least cost wins.  Returns (w, nb, cost).
    """
    # w of a cut is the widest row before it: the running maximum of the
    # widths gives every cut at once
    n = width.size
    nb = np.arange(min(MAX_BORDER, n - 1) + 1)
    w = np.maximum.accumulate(width)[n - 1 - nb]
    cost = float(n) * (w + nb + 1) ** 2
    best = int(np.argmin(cost))
    return int(w[best]), best, float(cost[best])


def _band_window(flat, w, start, lo, chains, rows, cols, masks):
    """Strided window onto `chains` consecutive chains of a band matrix, and its mask.

    `flat` is the column-major (w+1) x cut band array raveled, where entry
    (i, j) of the matrix sits at flat index i + j w.  `chains` is (count,
    length): window entry (k, r, c) is matrix entry (start + k length + lo +
    r, start + k length + c), so one chain lies length (w + 1) entries after
    the one before.  The mask marks the entries inside the band (0 <= i - j
    <= w), the only ones that may be read or written through the window; it
    is shared by every chain, and `masks` caches it per window shape.
    """
    count, length = chains
    item = flat.itemsize
    view = np.ndarray((count, rows, cols), flat.dtype, buffer=flat,
                      offset=(start * (w + 1) + lo) * item,
                      strides=(length * (w + 1) * item, item, item * w))
    mask = masks.get((lo, rows, cols))
    if mask is None:
        off = lo + np.arange(rows)[:, None] - np.arange(cols)
        mask = masks[(lo, rows, cols)] = (off >= 0) & (off <= w)
    return view, mask


def _triangular_inverse(L, overwrite=False):
    """L^-1 of a dense lower-triangular L (zero above the diagonal); in L's
    own memory when `overwrite` and L is in Fortran order."""
    Linv, info = scipy.linalg.lapack.dtrtri(L, lower=1, overwrite_c=overwrite)
    if info != 0:
        raise NotPositiveDefinite(f"singular triangular factor (info={info})")
    return Linv


def _takahashi_bordered(factor, overwrite=False):
    """Blocked selected inverse over a band plus trailing border rows.

    Given the border, the chains of the band core (`SymbolicFactor`) are
    independent: each runs its own recursion, started from the border corner
    Sigma_BB = LF^-T LF^-1.  Consecutive chains shorter than a block run as
    one sequence, which the recursion treats as a single chain.  The
    sequences of a group (consecutive, of equal length) run it in lockstep,
    every step batched over a leading sequence axis (dtrtri runs per
    sequence); a single chain is a group of one.

    Each sequence is cut into column blocks of b = 64 columns, or 32 when
    w < 64, where 64 would spend most of a block's b^3 work outside the band.
    Block k (columns s .. s + b - 1 of its sequence) couples only to the
    h = min(w, .) band rows after it in the sequence, which may reach over
    several later blocks, and to the border.  From the last block back, with
    C stacking those rows of L (L_{H,k}) and the border rows M_k, and
    Sigma_H the inverse already known on them:

        Z = C L_kk^-1,  Sigma_{H,k} = -Sigma_H Z,
        Sigma_kk = L_kk^-T L_kk^-1 - Z' Sigma_{H,k},

    all dense level-3 calls.  The rows after block k - 1 are this block's
    first rows and then the first rows of H, so the next Sigma_H is the
    current one shifted by b: [[Sigma_kk, Sigma_{H,k}[:m]'], [Sigma_{H,k}[:m],
    Sigma_H[:m, :m]]] plus the border rows.  Every entry of Sigma_H lies
    inside the band (its rows span fewer than w + 1), and the entries of
    Sigma_{H,k} outside the band are computed but not stored.  When w <= b
    the shift is empty and H lies within the next block.

    The band slots that join two sequences lie outside L's pattern and are
    left unwritten.

    Returns one flat array: the band of the inverse in the layout of `lband`
    ((w+1) x cut, column major, diagonal in row 0), then the border strip
    Sigma[cut:, :cut] (nb x cut, row major), then the border corner
    Sigma[cut:, cut:] (nb x nb, row major).  With `overwrite` that array is
    the factor's own buffer: Sigma's band goes over L's, and the strip and
    corner into the room after it.  Block k reads L's columns s .. s + b - 1
    of its sequences (its diagonal block and the rows of C) before it writes
    Sigma's over them, and no other block reads them; the head, M and LF are
    other arrays.
    """
    sym = factor.symbolic
    cut, w, nb = factor.cut, factor.w, factor.nb
    lflat = factor.lband.ravel(order="F")
    size = (w + 1) * cut
    out = factor._buf if overwrite else np.empty(size + nb * cut + nb * nb)
    band = out[:size]
    strip = out[size:size + nb * cut].reshape(nb, cut)
    corner = out[size + nb * cut:].reshape(nb, nb)
    if nb:
        LFinv = _triangular_inverse(factor.LF)
        corner[...] = LFinv.T @ LFinv
    b = _selinv_block(w)
    masks = {}
    for start, length, count in sym.groups:
        chains = (count, length)
        span = slice(start, start + count * length)
        Mc = factor.M[:, span].reshape(nb, count, length)
        Sc = strip[:, span].reshape(nb, count, length)
        # inverse on the h band rows after the block (H) and on the border
        head, h = np.broadcast_to(corner, (count, nb, nb)), 0
        for s in range((length - 1) // b * b, -1, -b):
            bk = min(b, length - s)
            # each chain's diagonal block in Fortran order, inverted in place
            view, mask = _band_window(lflat, w, start + s, 0, chains, bk, bk, masks)
            Linv = np.zeros((count, bk, bk)).transpose(0, 2, 1)
            np.copyto(Linv, view, where=mask)
            for L in Linv:
                L[...] = _triangular_inverse(L, overwrite=True)
            Skk = Linv.transpose(0, 2, 1) @ Linv
            if h + nb:
                C = np.empty((count, h + nb, bk))
                if h:
                    view, mask = _band_window(lflat, w, start + s, bk, chains, h, bk, masks)
                    C[:, :h] = np.where(mask, view, 0.0)
                C[:, h:] = Mc[:, :, s:s + bk].transpose(1, 0, 2)
                Z = C @ Linv
                Shk = -(head @ Z)
                Skk -= Z.transpose(0, 2, 1) @ Shk
                if h:
                    view, mask = _band_window(band, w, start + s, bk, chains, h, bk, masks)
                    np.copyto(view, Shk[:, :h], where=mask)
                Sc[:, :, s:s + bk] = Shk[:, h:].transpose(1, 0, 2)
            view, mask = _band_window(band, w, start + s, 0, chains, bk, bk, masks)
            np.copyto(view, Skk, where=mask)
            # H of the block before: k rows of this block, then the first m of H
            hn = min(w, length - s)
            k = min(hn, bk)
            m = hn - k
            new = np.empty((count, hn + nb, hn + nb))
            new[:, :k, :k] = Skk[:, :k, :k]
            if m:
                new[:, k:hn, :k] = Shk[:, :m]
                new[:, :k, k:hn] = Shk[:, :m].transpose(0, 2, 1)
                new[:, k:hn, k:hn] = head[:, :m, :m]
            if nb:
                new[:, hn:, :k] = Shk[:, h:, :k]
                new[:, :k, hn:] = Shk[:, h:, :k].transpose(0, 2, 1)
                if m:
                    new[:, hn:, k:hn] = head[:, h:, :m]
                    new[:, k:hn, hn:] = head[:, :m, h:]
                new[:, hn:, hn:] = corner
            head, h = new, hn
    return out


class SelectedInverse:
    """Q^-1 on the band within each sequence, the border strip and the corner
    of a factor, in the recursion's layout.

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
            # the band slots whose row lies in the sequence of their column
            ends = np.append(sym._starts[1:], cut)
            band = np.flatnonzero(j + d < ends[np.searchsorted(sym._starts, j, "right") - 1])
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


def selected_inverse(factor, overwrite=False):
    """Values of Q^-1 on (at least) the sparsity pattern of L + L'.

    Diagonal entries are the exact marginal variances of the GMRF with
    precision Q.  The blocked recursion (`_takahashi_bordered`) runs the
    chains of the band core group by group, each group in lockstep, on
    column blocks of 64 (32 when w < 64), with consecutive chains shorter
    than a block as one sequence.  The band slots that join two sequences
    lie outside L's pattern and are not stored.  The output is kept as it
    is written: the band of the permuted inverse in LAPACK layout, then the
    border strip and corner.  The returned SelectedInverse reads it in
    place, at the positions `SymbolicFactor.selected_inverse_slots` gives,
    and builds no sparse matrix unless its `lower` is asked for.

    With `overwrite`, Sigma is written over the factor's own memory, and no
    array of the factor's size is allocated.  The factor is then consumed:
    `solve`, `sample`, another `selected_inverse` or its `L` raise
    FactorConsumed.  Its `logdet` stays readable.
    """
    try:
        return SelectedInverse(factor.symbolic, _takahashi_bordered(factor, overwrite))
    finally:
        if overwrite:
            factor._lband = factor._buf = factor._L = None


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
    Y = factor._solve_Lt(Z)
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
