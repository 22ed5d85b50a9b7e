import itertools
import time

import numpy as np
import pytest
import scipy.sparse as sp

import laplgm as lg
import laplgm.sparse as sps
from laplgm.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    ProblemTooLarge,
)


def random_spd(n, rng, density=0.15):
    B = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    return B @ B.T + n * np.eye(n)


def symbolic_fill(Qd, order):
    """Independent fill-count oracle: simulate elimination on sets."""
    n = Qd.shape[0]
    inv = np.argsort(order)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i):
            if Qd[order[i], order[j]] != 0:
                adj[i].add(j)
                adj[j].add(i)
    fill = 0
    alive = [set(a) for a in adj]
    for v in range(n):
        nbrs = {u for u in alive[v] if u > v}
        for a in nbrs:
            for b in nbrs:
                if a < b and b not in alive[a]:
                    alive[a].add(b)
                    alive[b].add(a)
                    fill += 1
    return fill


def arrow_matrix(n):
    rows = list(range(n)) + list(range(1, n))
    cols = list(range(n)) + [0] * (n - 1)
    vals = [4.0] * n + [0.5] * (n - 1)
    return lg.SparseSymmetric.from_triplets(n, rows, cols, vals)


def ar1_dense_precision(n, a):
    cov = np.array([[a ** abs(i - j) for j in range(n)] for i in range(n)])
    return np.linalg.inv(cov)


class TestSparseSymmetric:
    def test_rejects_upper_entries(self):
        with pytest.raises(ValueError):
            lg.SparseSymmetric.from_triplets(2, [0], [1], [1.0])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            lg.SparseSymmetric.from_triplets(2, [1, 1], [0, 0], [1.0, 2.0])

    def test_full_symmetry(self):
        Q = lg.SparseSymmetric.from_triplets(2, [0, 1, 1], [0, 0, 1], [2.0, -1.0, 2.0])
        assert np.allclose(Q.to_dense(), [[2, -1], [-1, 2]])


class TestReorder:
    def test_identity_matrix_gives_identity(self):
        Q = lg.SparseSymmetric.from_full(np.eye(8))
        assert np.array_equal(lg.reorder(Q).order, np.arange(8))

    def test_arrow_matrix_zero_fill(self):
        Q = arrow_matrix(20)
        perm = lg.reorder(Q)
        assert symbolic_fill(Q.to_dense(), perm.order) == 0
        # identity ordering eliminates the hub first and fills everything
        assert symbolic_fill(Q.to_dense(), np.arange(20)) == 19 * 18 // 2

    def test_tridiagonal_zero_fill(self):
        n = 50
        rows = list(range(n)) + list(range(1, n))
        cols = list(range(n)) + list(range(n - 1))
        vals = [2.0] * n + [-0.9] * (n - 1)
        Q = lg.SparseSymmetric.from_triplets(n, rows, cols, vals)
        perm = lg.reorder(Q)
        assert symbolic_fill(Q.to_dense(), perm.order) == 0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        Q = lg.SparseSymmetric.from_full(random_spd(30, rng))
        assert lg.reorder(Q) == lg.reorder(Q)

    def test_permutation_roundtrip(self):
        rng = np.random.default_rng(5)
        Q = lg.SparseSymmetric.from_full(random_spd(12, rng))
        p = lg.reorder(Q)
        assert np.array_equal(p.order[p.inverse().order], np.arange(12))


def detect_by_border_loop(rows, cols, n):
    """(w, nb, cost) of the band-plus-border layout, one border width at a time."""
    best = None
    for nb in range(0, min(sps.MAX_BORDER, n - 1) + 1):
        cut = n - nb
        mask = rows < cut
        w = int(np.max(rows[mask] - cols[mask])) if np.any(mask) else 0
        cost = n * (w + nb + 1) ** 2
        if best is None or cost < best[2]:
            best = (w, nb, cost)
    return best


def unit_pattern(n, pairs):
    """Full symmetric unit pattern with a diagonal and the (i, j) pairs given."""
    i, j = (np.asarray(a, dtype=np.int64) for a in zip(*pairs)) if pairs else ([], [])
    rows = np.concatenate([np.arange(n), i, j])
    cols = np.concatenate([np.arange(n), j, i])
    M = sp.csc_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    M.data[:] = 1.0
    return M


class TestBandOrder:
    @pytest.mark.parametrize("n, kind", [
        (1, "identity"), (5, "random"), (24, "random"), (25, "structured"),
        (60, "identity"), (80, "random"), (150, "structured"), (300, "random"),
    ])
    def test_one_pass_detection_matches_border_loop(self, n, kind):
        rng = np.random.default_rng(n)
        if kind == "structured":
            # a band of width 7 with 3 dense border rows, the core reversed
            Q = lg.SparseSymmetric.from_full(bordered_band_spd(n, 7, 3, rng))
            order = np.concatenate([np.arange(n - 3)[::-1], np.arange(n - 3, n)])
        else:
            pairs = [(i, j) for i in range(n) for j in range(i) if rng.random() < 3.0 / n]
            Q = lg.SparseSymmetric.from_full(unit_pattern(n, pairs))
            order = np.arange(n) if kind == "identity" else rng.permutation(n)
        inv = np.argsort(order)
        coo = Q.lower.tocoo()
        a, b = inv[coo.row], inv[coo.col]
        want = detect_by_border_loop(np.maximum(a, b), np.minimum(a, b), n)
        # the widths band_order reads off the full pattern, and analyze's own
        assert sps._detect_bordered_band(sps._row_widths(Q.full(), order)) == want
        sym = lg.analyze(Q, lg.Permutation(order))
        assert (sym.w, sym.nb) == want[:2]

    @staticmethod
    def pattern(case):
        """(full pattern, last columns, index of the candidate that should win)."""
        rng = np.random.default_rng(4)
        n = 90
        path = [(i + 1, i) for i in range(n - 1)]
        if case == "natural":
            # a path: natural and RCM give w = 1, and the tie goes to natural
            return unit_pattern(n, path), [], 0
        relabel = rng.permutation(n)
        band = [(relabel[i], relabel[j]) for i in range(n) for j in range(max(0, i - 2), i)]
        if case == "rcm":
            return unit_pattern(n, band), [], 1
        # three hubs of unequal degree and a dense last column
        hubs = [(h, j) for h, k in zip(relabel[[10, 40, 70]], (60, 45, 30))
                for j in rng.choice(n, k, replace=False) if j != h]
        dense = [(relabel[0], j) for j in range(n) if j != relabel[0]]
        return unit_pattern(n, band + hubs + dense), [relabel[0]], None

    @pytest.mark.parametrize("case", ["natural", "rcm", "hubs"])
    def test_cheapest_candidate_as_analyze_measures_it(self, case):
        full, last, want = self.pattern(case)
        n = full.shape[0]
        candidates = list(sps._band_candidates(full, np.asarray(last, dtype=np.int64)))
        Q = lg.SparseSymmetric.from_full(full)
        costs = []
        for order in candidates:
            sym = lg.analyze(Q, lg.Permutation(order))
            costs.append(n * (sym.w + sym.nb + 1) ** 2)
        best = costs.index(min(costs))
        assert best == want if want is not None else best >= 2
        assert np.array_equal(sps.band_order(full, last).order, candidates[best])


class TestFactorize:
    def test_identity(self):
        Q = lg.SparseSymmetric.from_full(np.eye(3))
        f = lg.factorize(Q)
        assert np.allclose(f.L.toarray(), np.eye(3))
        assert f.logdet == pytest.approx(0.0, abs=1e-14)

    def test_two_by_two_logdet(self):
        Q = lg.SparseSymmetric.from_full(np.array([[2.0, 1.0], [1.0, 2.0]]))
        f = lg.factorize(Q)
        assert f.logdet == pytest.approx(np.log(3.0), abs=1e-12)

    def test_ar1_logdet(self):
        Qd = ar1_dense_precision(3, 0.5)
        f = lg.factorize(lg.SparseSymmetric.from_full(Qd))
        assert f.logdet == pytest.approx(-2.0 * np.log(1 - 0.25), abs=1e-10)

    def test_not_positive_definite(self):
        Q = lg.SparseSymmetric.from_full(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            lg.factorize(Q)

    def test_analyzed_pattern_reused_and_checked(self):
        rng = np.random.default_rng(8)
        Qd = random_spd(12, rng)
        Q = lg.SparseSymmetric.from_full(Qd)
        symbolic = lg.analyze(Q, lg.reorder(Q))
        Q2 = lg.SparseSymmetric(12, Q.lower.multiply(2.0).tocsc())
        f = lg.factorize(Q2, symbolic)
        assert f.logdet == pytest.approx(np.linalg.slogdet(2.0 * Qd)[1], abs=1e-10)
        with pytest.raises(DimensionMismatch):
            lg.factorize(lg.SparseSymmetric.from_full(np.eye(12) + Qd[0, 0]), symbolic)

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            Qd = random_spd(25, rng)
            Q = lg.SparseSymmetric.from_full(Qd)
            f = lg.factorize(Q, lg.reorder(Q))
            P = np.eye(25)[f.perm.order]
            resid = np.abs(P @ Qd @ P.T - (f.L @ f.L.T).toarray()).max()
            assert resid <= 1e-10 * np.abs(Qd).max()
            assert np.all(f.L.diagonal() > 0)

    def test_band_over_the_entry_cap(self, monkeypatch):
        import laplgm.sparse as sps
        Q = lg.SparseSymmetric.from_full(ar1_dense_precision(50, 0.5))
        # a tridiagonal band takes n (w + 1) = 100 entries
        monkeypatch.setattr(sps, "_BAND_ENTRY_CAP", 100)
        assert lg.factorize(Q).logdet == pytest.approx(
            np.linalg.slogdet(Q.to_dense())[1], abs=1e-10)
        monkeypatch.setattr(sps, "_BAND_ENTRY_CAP", 99)
        with pytest.raises(ProblemTooLarge, match=r"n = 50 .*w = 1 .*nb = 0"):
            lg.factorize(Q)


class TestSolve:
    def test_identity(self):
        Q = lg.SparseSymmetric.from_full(np.eye(4))
        f = lg.factorize(Q)
        b = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.allclose(lg.solve(f, b), b)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        Qd = random_spd(30, rng)
        f = lg.factorize(lg.SparseSymmetric.from_full(Qd), None)
        b = rng.standard_normal(30)
        x = lg.solve(f, b)
        assert np.linalg.norm(Qd @ x - b) <= 1e-9 * np.linalg.norm(b)
        assert np.allclose(x, np.linalg.solve(Qd, b), rtol=1e-9, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        Qd = random_spd(20, rng)
        Q = lg.SparseSymmetric.from_full(Qd)
        b = rng.standard_normal(20)
        x1 = lg.solve(lg.factorize(Q), b)
        x2 = lg.solve(lg.factorize(Q, lg.reorder(Q)), b)
        assert np.abs(x1 - x2).max() <= 1e-10

    def test_dimension_mismatch(self):
        f = lg.factorize(lg.SparseSymmetric.from_full(np.eye(3)))
        with pytest.raises(DimensionMismatch):
            lg.solve(f, np.ones(4))


class TestSelectedInverse:
    def test_diagonal_matrix(self):
        Q = lg.SparseSymmetric.from_full(np.diag([2.0, 4.0]))
        S = lg.selected_inverse(lg.factorize(Q))
        assert np.allclose(S.diagonal(), [0.5, 0.25])

    def test_ar1_unit_marginals(self):
        Qd = ar1_dense_precision(3, 0.5)
        S = lg.selected_inverse(lg.factorize(lg.SparseSymmetric.from_full(Qd)))
        assert np.allclose(S.diagonal(), 1.0, atol=1e-10)

    def test_random_spd_diagonal(self):
        rng = np.random.default_rng(7)
        Qd = random_spd(40, rng)
        Q = lg.SparseSymmetric.from_full(Qd)
        S = lg.selected_inverse(lg.factorize(Q, lg.reorder(Q)))
        assert np.abs(S.diagonal() - np.diag(np.linalg.inv(Qd))).max() <= 1e-8

    def test_off_diagonal_entries(self):
        rng = np.random.default_rng(8)
        Qd = random_spd(25, rng)
        Q = lg.SparseSymmetric.from_full(Qd)
        S = lg.selected_inverse(lg.factorize(Q, lg.reorder(Q)))
        Sinv = np.linalg.inv(Qd)
        coo = S.lower.tocoo()
        for i, j, v in zip(coo.row, coo.col, coo.data):
            assert abs(v - Sinv[i, j]) <= 1e-9


def bordered_band_spd(n, w, nb, rng):
    """SPD L0 L0' whose leading n - nb rows form a band of width exactly w
    and whose last nb rows are dense."""
    cut = n - nb
    i, j = np.tril_indices(n)
    keep = (i >= cut) | (i - j <= w)
    L0 = np.zeros((n, n))
    L0[i[keep], j[keep]] = rng.uniform(-0.5, 0.5, int(keep.sum())) / np.sqrt(w + nb + 1)
    L0[np.arange(n), np.arange(n)] = rng.uniform(1.0, 2.0, n)
    return L0 @ L0.T


class TestBlockedSelectedInverse:
    """The band-plus-border recursion against np.linalg.inv on its whole pattern."""

    @pytest.mark.parametrize("n, w, nb", [
        (70, 0, 0), (70, 0, 3), (70, 1, 0), (70, 1, 2),
        (100, 5, 2),              # blocks wider than w + 1
        (205, 40, 0),             # last block shorter than w
        (243, 40, 3),             # cut a multiple of w
        (131, 40, 3),             # cut a multiple of the 64-column block
        (211, 45, 4),             # cut not a multiple of the block
        (36, 35, 0), (60, 59, 0),  # w >= cut - 1: one dense core
        (200, 64, 0), (200, 64, 2),     # w equal to the block
        (230, 65, 0), (231, 65, 4),     # one row of H beyond the next block
        (300, 100, 0), (300, 100, 3),   # H over two later blocks
        (259, 100, 3),                  # ... with cut a multiple of the block
        (400, 150, 0), (403, 150, 5),   # H over three later blocks
        (140, 128, 3),                  # w >= 2 blocks, cut - w < a block
    ])
    def test_dense_oracle(self, n, w, nb):
        rng = np.random.default_rng(n + 7 * w + nb)
        Qd = bordered_band_spd(n, w, nb, rng)
        Q = lg.SparseSymmetric.from_full(Qd)
        cut = n - nb
        order = np.concatenate([np.arange(cut)[::-1], np.arange(cut, n)])
        f = lg.factorize(Q, lg.Permutation(order))
        assert (f.w, f.nb) == (w, nb)
        S = lg.selected_inverse(f)
        dense = np.linalg.inv(Qd)
        coo = S.lower.tocoo()
        # every entry of the band, the border strip and the corner comes back
        assert coo.nnz == n + sum(cut - d for d in range(1, w + 1)) + nb * cut \
            + nb * (nb - 1) // 2
        assert np.all(coo.row >= coo.col)
        err = np.abs(coo.data - dense[coo.row, coo.col]).max()
        assert err <= 1e-10 * np.abs(dense).max()

    def test_one_layout_per_analysis(self):
        rng = np.random.default_rng(31)
        n, w, nb = 150, 12, 3
        Q1 = bordered_band_spd(n, w, nb, rng)
        Q2 = Q1 + np.diag(rng.uniform(0.5, 1.5, n))
        Q2[Q1 != 0] *= 1.0 + 0.1 * rng.random(int(np.count_nonzero(Q1)))
        Q2 = 0.5 * (Q2 + Q2.T) + n * np.eye(n)
        cut = n - nb
        perm = lg.Permutation(np.concatenate([np.arange(cut)[::-1], np.arange(cut, n)]))
        sym = lg.analyze(lg.SparseSymmetric.from_full(Q1), perm)
        outs = []
        for Qd in (Q1, Q2):
            Q = lg.SparseSymmetric.from_full(Qd)
            f = lg.factorize(Q, sym)
            outs.append(lg.selected_inverse(f).lower)
            fresh = lg.selected_inverse(lg.factorize(Q, perm)).lower
            assert np.array_equal(fresh.indptr, outs[-1].indptr)
            assert np.array_equal(fresh.indices, outs[-1].indices)
            assert np.abs(fresh.data - outs[-1].data).max() <= 1e-14 * np.abs(fresh.data).max()
            dense = np.linalg.inv(Qd)
            coo = outs[-1].tocoo()
            assert np.abs(coo.data - dense[coo.row, coo.col]).max() <= 1e-10 * np.abs(dense).max()
        assert np.array_equal(outs[0].indptr, outs[1].indptr)
        assert np.array_equal(outs[0].indices, outs[1].indices)
        # the one analysis locates every entry of the output in the flat data
        S = lg.selected_inverse(f)
        coo = outs[1].tocoo()
        slots, inside = sym.selected_inverse_slots(coo.row, coo.col)
        assert S.symbolic is sym and inside.all()
        assert np.array_equal(S.data[slots], coo.data)

    def test_peak_memory_near_the_flat_output(self):
        # the inverse is read where the recursion writes it: no gather map,
        # no CSC copy of the values, no n (w + 1) index array
        import tracemalloc
        rng = np.random.default_rng(5)
        n, w, nb = 2000, 60, 3
        cut = n - nb
        d = np.concatenate([np.full(cut - k, k) for k in range(1, w + 1)])
        cols = np.concatenate([np.arange(cut - k) for k in range(1, w + 1)])
        br, bc = np.tril_indices(n, -1)
        keep = br >= cut
        rows = np.concatenate([cols + d, br[keep]])
        cols = np.concatenate([cols, bc[keep]])
        vals = rng.uniform(-0.5, 0.5, rows.size)
        diag = 1.0 + np.bincount(rows, np.abs(vals), n) + np.bincount(cols, np.abs(vals), n)
        Q = lg.SparseSymmetric.from_triplets(
            n, np.concatenate([rows, np.arange(n)]), np.concatenate([cols, np.arange(n)]),
            np.concatenate([vals, diag]))
        f = lg.factorize(Q)
        assert (f.symbolic.w, f.symbolic.nb) == (w, nb)
        flat_bytes = 8 * ((w + 1) * cut + nb * cut + nb * nb)
        tracemalloc.start()
        try:
            S = lg.selected_inverse(f)
            var = S.diagonal()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert S.data.nbytes == flat_bytes
        assert peak < 1.5 * flat_bytes
        dense = np.linalg.inv(Q.to_dense())
        assert np.abs(var - np.diag(dense)).max() <= 1e-10 * np.abs(dense).max()


def chained_spd(lengths, w, nb, rng):
    """SPD L0 L0' whose core is block diagonal, one band of width at most w
    per chain of the given lengths in order, and whose last nb rows are dense."""
    cut = sum(lengths)
    n = cut + nb
    chain = np.repeat(np.arange(len(lengths) + 1), list(lengths) + [nb])
    i, j = np.tril_indices(n)
    keep = (i >= cut) | ((i - j <= w) & (chain[i] == chain[j]))
    L0 = np.zeros((n, n))
    L0[i[keep], j[keep]] = rng.uniform(-0.5, 0.5, int(keep.sum())) / np.sqrt(w + nb + 1)
    L0[np.arange(n), np.arange(n)] = rng.uniform(1.0, 2.0, n)
    return L0 @ L0.T


class TestChains:
    """Independent chains of the band core: detection and the lockstep recursion."""

    @pytest.mark.parametrize("lengths, w, nb", [
        ([40] * 6, 7, 3),                      # equal chains with a border
        ([60] + [40] * 4, 50, 2),              # chains shorter than the band
        ([40] * 4 + [70], 45, 2),              # chains that start less than w in
        ([30, 30, 50, 70, 70, 70, 9], 12, 4),  # unequal lengths, runs of equal ones
        ([3] * 20 + [90], 45, 2),              # many short chains, then a long one
        ([60] + [20] * 5 + [40, 5, 40], 40, 2),  # short chains between long ones
        ([1] * 60, 0, 3),                      # isolated nodes (w = 0)
        ([40] * 6, 6, 0),                      # equal chains, no border
        ([1] * 40 + [50], 5, 0),
        ([260], 70, 3),                        # one chain, 64-column blocks
        ([150], 20, 0),                        # one chain, narrow band
    ])
    def test_selected_inverse_dense_oracle(self, lengths, w, nb):
        rng = np.random.default_rng(sum(lengths) + 11 * w + nb)
        Qd = chained_spd(lengths, w, nb, rng)
        n, cut = Qd.shape[0], sum(lengths)
        f = lg.factorize(lg.SparseSymmetric.from_full(Qd))
        sym = f.symbolic
        assert (sym.w, sym.nb) == (w, nb)
        assert sym.layout()["chains"] == len(lengths)
        # consecutive chains shorter than a block run as one sequence
        b = 64 if w >= 64 else 32
        sequences = []
        for length in lengths:
            if sequences and length < b and sequences[-1][1]:
                sequences[-1][0] += length
            else:
                sequences.append([length, length < b])
        # one group per run of equal lengths: (start, length, count)
        groups, start = [], 0
        for length, run in itertools.groupby(length for length, _ in sequences):
            groups.append((start, length, len(list(run))))
            start += length * groups[-1][2]
        assert sym.groups == tuple(groups)
        # M is exact outside the span of each border row: L L' is P Q P'
        assert np.abs((f.L @ f.L.T).toarray() - Qd).max() <= 1e-12 * np.abs(Qd).max()
        S = lg.selected_inverse(f)
        dense = np.linalg.inv(Qd)
        # the band pairs within one sequence are stored, those that join two
        # sequences are not
        seq = np.repeat(np.arange(len(sequences)), [length for length, _ in sequences])
        i, j = np.tril_indices(cut)
        band = i - j <= w
        same = band & (seq[i] == seq[j])
        coo = S.lower.tocoo()
        assert coo.nnz == int(same.sum()) + nb * cut + nb * (nb + 1) // 2
        tol = 1e-10 * np.abs(dense).max()
        assert np.abs(coo.data - dense[coo.row, coo.col]).max() <= tol
        slots, inside = sym.selected_inverse_slots(i[same], j[same])
        assert inside.all()
        assert np.all(np.abs(S.data[slots] - dense[i[same], j[same]]) <= tol)
        cross = band & ~same
        slots, inside = sym.selected_inverse_slots(i[cross], j[cross])
        assert not inside.any() and np.all(slots == -1)

    def test_detected_on_a_permuted_block_diagonal_pattern(self):
        # replicates of one mesh field, a covariate joined to every node, under
        # a random relabelling: band_order puts each replicate in a chain
        import laplgm.latent as lm
        import laplgm.mesh as mm
        K = lm.spde_precision(mm.assemble(mm.structured_mesh(0, 1, 0, 1, 6, 6)), 2, 4.0, 1.0)
        m, reps = K.n, 5
        blocks = sp.block_diag([K.full()] * reps + [sp.identity(1)], format="csr")
        n = m * reps + 1
        blocks = blocks.tolil()
        blocks[n - 1, :] = 0.1
        blocks[:, n - 1] = 0.1
        blocks[n - 1, n - 1] = 10.0 * n
        rng = np.random.default_rng(9)
        relabel = rng.permutation(n)
        inv = np.argsort(relabel)
        Q = lg.SparseSymmetric.from_full(sp.csc_matrix(blocks)[inv][:, inv])
        last = [int(relabel[n - 1])]
        sym = lg.analyze(Q, sps.band_order(Q.full(), last))
        assert sym.nb == 1 and sym.layout()["chains"] == reps
        assert sym.groups == ((0, m, reps),)
        # each chain holds the nodes of one replicate
        replicate = inv // m
        for c in range(reps):
            assert np.unique(replicate[sym.perm.order[c * m:(c + 1) * m]]).size == 1


    def test_short_chains_beside_a_wide_band(self):
        # an iid block beside a wide band: its isolated nodes run as one
        # sequence, and neither the analysis nor the inverse keeps an array
        # per band slot that joins two chains
        import tracemalloc
        rng = np.random.default_rng(6)
        m, w, iid, nb = 600, 70, 1500, 2
        cut = m + iid
        n = cut + nb
        d = np.concatenate([np.full(m - k, k) for k in range(1, w + 1)])
        cols = np.concatenate([np.arange(m - k) for k in range(1, w + 1)])
        br, bc = np.tril_indices(n, -1)
        keep = br >= cut
        rows = np.concatenate([cols + d, br[keep]])
        cols = np.concatenate([cols, bc[keep]])
        vals = rng.uniform(-0.5, 0.5, rows.size)
        diag = 1.0 + np.bincount(rows, np.abs(vals), n) + np.bincount(cols, np.abs(vals), n)
        Q = lg.SparseSymmetric.from_triplets(
            n, np.concatenate([rows, np.arange(n)]), np.concatenate([cols, np.arange(n)]),
            np.concatenate([vals, diag]))
        perm = lg.Permutation.identity(n)
        tracemalloc.start()
        try:
            sym = lg.analyze(Q, perm)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (sym.w, sym.nb, sym.chains) == (w, nb, 1 + iid)
        assert sym.groups == ((0, m, 1), (m, iid, 1))
        # besides the scatter maps, one entry per stored entry, O(n) at most
        maps = sum(src.nbytes + dst.nbytes for src, dst in sym._maps)
        assert kept < maps + 16 * n
        f = sym.numeric(Q)
        flat_bytes = 8 * ((w + 1) * cut + nb * cut + nb * nb)
        tracemalloc.start()
        try:
            S = lg.selected_inverse(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * flat_bytes
        dense = np.linalg.inv(Q.to_dense())
        coo = S.lower.tocoo()
        assert np.abs(coo.data - dense[coo.row, coo.col]).max() <= 1e-10 * np.abs(dense).max()


class TestSample:
    def test_deterministic(self):
        Q = lg.SparseSymmetric.from_full(np.eye(5))
        f = lg.factorize(Q)
        X1 = lg.sample(f, 7, seed=123)
        X2 = lg.sample(f, 7, seed=123)
        assert np.array_equal(X1, X2)
        assert X1.shape == (5, 7)

    def test_identity_component_variance(self):
        Q = lg.SparseSymmetric.from_full(np.eye(5))
        f = lg.factorize(Q)
        X = lg.sample(f, 10_000, seed=7)
        tol = 3.0 * np.sqrt(2.0 / 10_000)
        assert np.all(np.abs(X.var(axis=1, ddof=1) - 1.0) <= tol)

    def test_two_dim_covariance(self):
        Qd = np.array([[4.0 / 3.0, -2.0 / 3.0], [-2.0 / 3.0, 4.0 / 3.0]])
        f = lg.factorize(lg.SparseSymmetric.from_full(Qd))
        X = lg.sample(f, 100_000, seed=21)
        emp = np.cov(X)
        assert np.abs(emp - np.array([[1.0, 0.5], [0.5, 1.0]])).max() <= 0.02

    def test_count_validation(self):
        f = lg.factorize(lg.SparseSymmetric.from_full(np.eye(2)))
        with pytest.raises(ValueError):
            lg.sample(f, 0, seed=1)


def coordinate_sort_layout(sym):
    """Where the recursion's flat output holds each stored pair, by sorting
    coordinate arrays over all of its slots: the lower-triangle CSC pattern
    (indptr, indices) in original indexing and the slot of each entry."""
    n, order = sym.n, sym.perm.order
    cut, w, nb = n - sym.nb, sym.w, sym.nb
    src = np.arange((w + 1) * cut)
    j, d = np.divmod(src, w + 1)
    live = j + d < cut
    br, bc = np.tril_indices(nb)
    prow = np.concatenate([(j + d)[live], cut + np.repeat(np.arange(nb), cut), cut + br])
    pcol = np.concatenate([j[live], np.tile(np.arange(cut), nb), cut + bc])
    src = np.concatenate([src[live], (w + 1) * cut + np.arange(nb * cut),
                          (w + 1 + nb) * cut + br * nb + bc])
    orow, ocol = order[prow], order[pcol]
    keys = np.minimum(orow, ocol) * n + np.maximum(orow, ocol)
    perm = np.argsort(keys)
    cols, rows = np.divmod(keys[perm], n)
    pattern = sp.csc_matrix((np.ones(rows.size), rows, np.searchsorted(cols, np.arange(n + 1))),
                            shape=(n, n))
    return pattern.indptr, pattern.indices, src[perm]


@pytest.mark.parametrize("n, w, nb, shuffle", [
    (70, 0, 0, False), (70, 1, 2, False), (131, 40, 3, False),
    (60, 59, 0, False), (90, 7, 4, True), (120, 30, 0, True),
])
def test_selected_inverse_layout_matches_coordinate_sort(n, w, nb, shuffle):
    rng = np.random.default_rng(n + w + nb)
    Q = lg.SparseSymmetric.from_full(bordered_band_spd(n, w, nb, rng))
    cut = n - nb
    order = np.concatenate([np.arange(cut)[::-1], np.arange(cut, n)])
    if shuffle:
        # the same band read under a random relabelling of the variables
        relabel = rng.permutation(n)
        inv = np.argsort(relabel)
        Q = lg.SparseSymmetric.from_full(Q.full()[inv][:, inv])
        order = relabel[order]
    sym = lg.analyze(Q, lg.Permutation(order))
    assert (sym.w, sym.nb) == (w, nb)
    indptr, indices, src = coordinate_sort_layout(sym)
    cols = np.repeat(np.arange(n), np.diff(indptr))
    # every slot of the oracle is found at its flat index, from either order
    for rows_, cols_ in ((indices, cols), (cols, indices)):
        slots, inside = sym.selected_inverse_slots(rows_, cols_)
        assert inside.all()
        assert np.array_equal(slots, src)
    # and every other lower-triangle pair is reported outside
    i, j = np.tril_indices(n)
    slots, inside = sym.selected_inverse_slots(i, j)
    stored = np.zeros((n, n), dtype=bool)
    stored[indices, cols] = True
    assert np.array_equal(inside, stored[i, j])
    assert np.all(slots[~inside] == -1)


def test_sample_on_minimum_degree_order_matches_dense_cholesky():
    import laplgm.latent as lm
    import laplgm.mesh as mm
    fem = mm.assemble(mm.structured_mesh(0, 1, 0, 1, 8, 8))
    Q = lm.spde_precision(fem, 2, 6.0, 0.3)
    perm = lg.reorder(Q)
    X = lg.sample(lg.factorize(Q, perm), 3, seed=11)
    order = perm.order
    L = np.linalg.cholesky(Q.to_dense()[np.ix_(order, order)])
    Z = np.column_stack([
        np.random.Generator(np.random.Philox(key=11).jumped(j)).standard_normal(Q.n)
        for j in range(3)])
    want = np.empty_like(Z)
    want[order] = np.linalg.solve(L.T, Z)
    assert np.abs(X - want).max() <= 1e-10


class TestProperties:
    def test_factorize_solve_cycle_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(5, 61))
            Qd = random_spd(n, rng)
            Q = lg.SparseSymmetric.from_full(Qd)
            f = lg.factorize(Q, lg.reorder(Q))
            b = rng.standard_normal(n)
            x = lg.solve(f, b)
            assert np.linalg.norm(Qd @ x - b) <= 1e-9 * max(np.linalg.norm(b), 1.0)
            assert abs(f.logdet - np.linalg.slogdet(Qd)[1]) <= 1e-8
            S = lg.selected_inverse(f)
            assert np.abs(S.diagonal() - np.diag(np.linalg.inv(Qd))).max() <= 1e-8

    def test_banded_scaling_smoke(self):
        def tridiag(n):
            rows = list(range(n)) + list(range(1, n))
            cols = list(range(n)) + list(range(n - 1))
            vals = [2.1] * n + [-1.0] * (n - 1)
            return lg.SparseSymmetric.from_triplets(n, rows, cols, vals)

        def best_time(n):
            Q = tridiag(n)
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                lg.factorize(Q)
                times.append(time.perf_counter() - t0)
            return min(times)

        t1 = best_time(2000)
        t2 = best_time(4000)
        assert t2 < 4.0 * max(t1, 1e-4)
