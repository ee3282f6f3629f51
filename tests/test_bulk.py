"""Batch kernels: decoding, connectivity, split enumeration rows and the
moment upper bounds."""

import numpy as np
import pytest

from qpow import _bulk
from qpow.graphs import Graph, from_code

from conftest import (
    all_graphs,
    connected_population,
    induced_connected_bfs,
    q_matrix_oracle,
    q_moments_oracle,
    split_chunks_reference,
    split_relabelings_reference,
    split_weights_reference,
)

ALPHAS = [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
EXACT = [ALPHAS.index(a) for a in (1.0, 2.0, 3.0)]


def assert_bounds_hold(rows, n, bipartite=False):
    eigs = _bulk.q_eigs(rows, n)
    sums = np.stack([_bulk.power_sums(eigs, a) for a in ALPHAS], axis=1)
    bounds = _bulk.moment_upper_bounds(rows, n, ALPHAS, bipartite)
    assert bounds.shape == sums.shape
    # float eigenvalues carry ~1e-15 relative error; the bound is exact math
    assert np.all(bounds >= sums * (1 - 1e-12)), n
    np.testing.assert_allclose(bounds[:, EXACT], sums[:, EXACT], rtol=1e-9, atol=0)


class TestMomentUpperBounds:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_connected_graph(self, n):
        assert_bounds_hold(_bulk.decode_rows(connected_population(n)[0], n), n)

    def test_random_graphs_to_n12(self, rng):
        for n in range(7, 13):
            graphs = [Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p])
                      for p in (0.2, 0.4, 0.6, 0.8, 0.95) for _ in range(20)]
            assert_bounds_hold(np.array([g.rows for g in graphs], dtype=np.int64), n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_connected_bipartite(self, n):
        # no triangles and one zero eigenvalue: S_0 = n-1 tightens 0 < a < 1
        below_one = [i for i, a in enumerate(ALPHAS) if a < 1]
        for amask in _bulk.bipartite_splits(n):
            for codes, rows, _, _ in _bulk.split_connected_codes(n, amask):
                assert_bounds_hold(rows, n, bipartite=True)
                tight = _bulk.moment_upper_bounds(rows, n, ALPHAS, bipartite=True)
                loose = _bulk.moment_upper_bounds(rows, n, ALPHAS)
                assert np.all(tight[:, below_one] < loose[:, below_one])
                np.testing.assert_array_equal(np.delete(tight, below_one, axis=1),
                                              np.delete(loose, below_one, axis=1))

    def test_star_moments(self):
        # K_{1,3}: Q spectrum 4, 1, 1, 0; S_0 = 3, S_3 = 27 + 3 + 3 * 12 = 66
        # and every edge has d_i + d_j = 4, so the bound above 3 is 66 * 4^(a-3)
        rows = np.array([[0b1110, 1, 1, 1]], dtype=np.int32)
        bounds = _bulk.moment_upper_bounds(rows, 4, [0.5, 1.0, 2.0, 3.0, 4.0, 5.0], bipartite=True)
        np.testing.assert_allclose(bounds[0], [3 ** 0.5 * 6 ** 0.5, 6, 18, 66, 264, 1056], rtol=1e-12)


def assert_exact_moments(rows, n, bipartite=False):
    # at a = 1, 2, 3 and 4 the bounds are S_1, S_2, S_3 and S_3 lambda with
    # exponents 0 and 1, so they equal the integer moments exactly
    got = _bulk.moment_upper_bounds(rows, n, [1.0, 2.0, 3.0, 4.0], bipartite)
    want = [(s1, s2, s3, s3 * lam) for s1, s2, s3, lam in map(q_moments_oracle, rows.tolist())]
    assert got.tolist() == [list(map(float, w)) for w in want], n


class TestExactMoments:
    """The int32 column sums give the trace moments of Q exactly."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_connected_graph(self, n):
        assert_exact_moments(_bulk.decode_rows(connected_population(n)[0], n), n)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_bipartite_split(self, n):
        for amask in _bulk.bipartite_splits(n):
            for chunk in _bulk.split_connected_codes(n, amask):
                assert_exact_moments(chunk.rows, n, bipartite=True)

    @pytest.mark.parametrize("n", [9, 17, 33, 62])
    def test_stream_batch_up_to_k62(self, rng, n):
        # int64 rows as a graph6 stream gives them; K_n has the largest moments
        graphs = [Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])]
        graphs += [Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
                   for p in (0.1, 0.5, 0.9, 0.99)]
        rows = np.array([g.rows for g in graphs], dtype=np.int64)
        assert_exact_moments(rows, n)
        # Q(K_n) has spectrum 2n-2 once and n-2 n-1 times
        s = [(2 * n - 2) ** p + (n - 1) * (n - 2) ** p for p in (1, 2, 3)]
        got = _bulk.moment_upper_bounds(rows[:1], n, [1.0, 2.0, 3.0, 4.0])
        assert got[0].tolist() == [*s, s[2] * (2 * n - 2)]


class TestSplitChunks:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_rows_match_decode(self, n):
        total = 0
        for amask in _bulk.bipartite_splits(n):
            for chunk in _bulk.split_connected_codes(n, amask):
                codes, rows, _, _ = chunk
                assert chunk.size == codes.size == rows.shape[0]
                assert rows.dtype == np.int32
                np.testing.assert_array_equal(rows, _bulk.decode_rows(codes, n))
                total += chunk.size
        assert total == [1, 1, 3, 19, 195, 3031][n - 1]

    @staticmethod
    def assert_matches_reference(n, amask):
        got = list(_bulk.split_connected_codes(n, amask))
        want = list(split_chunks_reference(n, amask))
        assert [c.size for c in got] == [c.size for c in want], (n, amask)
        for chunk, ref in zip(got, want):
            assert chunk.codes.dtype == np.int64
            np.testing.assert_array_equal(chunk.codes, ref.codes)
            assert chunk.rows.dtype == np.int32 and chunk.rows.flags.f_contiguous
            np.testing.assert_array_equal(chunk.rows, ref.rows)
            assert chunk.kappas is None and chunk.r == ref.r == amask.bit_count()
        return len(got)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_split_matches_reference(self, n):
        for amask in _bulk.bipartite_splits(n):
            self.assert_matches_reference(n, amask)

    @pytest.mark.parametrize("amask", [0b000001111, 0b101010101, 0b110000011, 0b1, 0b011111111])
    def test_n9_splits_match_reference(self, amask):
        # |A| = 4 or 5 has 20 cross edges, four CHUNKs whose high tables
        # carry the fixed bits of the chunk's first subset
        chunks = self.assert_matches_reference(9, amask)
        assert chunks == (4 if amask.bit_count() in (4, 5) else 1)

    @staticmethod
    def assert_relabelings_match(n, amask):
        # every connected canonical graph, relabeled onto the split, is the
        # split's own enumeration: the same codes, rows and r, in its order
        r = amask.bit_count()
        chunks = list(_bulk.split_connected_codes(n, amask))
        canonical = np.concatenate([c.codes for c in _bulk.split_connected_codes(n, (1 << r) - 1)])
        codes, rows = _bulk.split_relabelings(n, [amask], {r: canonical})
        assert codes.dtype == np.int64 and rows.dtype == np.int32
        assert rows.shape == (codes.size, n)
        np.testing.assert_array_equal(codes, np.concatenate([c.codes for c in chunks]))
        np.testing.assert_array_equal(rows, np.concatenate([c.rows for c in chunks]))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_split_relabels_the_canonical_split(self, n):
        for amask in _bulk.bipartite_splits(n):
            self.assert_relabelings_match(n, amask)

    @pytest.mark.parametrize("amask", [0b000001111, 0b101010101, 0b110000011, 0b1, 0b011111111])
    def test_n9_splits_relabel_the_canonical_split(self, amask):
        self.assert_relabelings_match(9, amask)

    def test_relabelings_of_a_subset(self):
        # a few canonical codes, unsorted: the chunk holds the graphs of the
        # split that relabel (A onto 0..r-1, B after it, each part in order)
        # to exactly those canonical graphs, in the split's enumeration order
        n, amask = 6, 0b010101
        label = {v: k for k, v in enumerate([0, 2, 4, 1, 3, 5])}
        picks = [40, 3, 17, 0]
        canonical = np.concatenate([c.codes for c in _bulk.split_connected_codes(n, 0b111)])
        codes, rows = _bulk.split_relabelings(n, [amask], {3: canonical[picks]})
        assert codes.size == len(picks)
        relabeled = [Graph(n, [(label[i], label[j]) for i, j in from_code(n, int(c)).edges()])
                     .to_code() for c in codes]
        assert sorted(relabeled) == sorted(canonical[picks].tolist())
        own = np.concatenate([c.codes for c in _bulk.split_connected_codes(n, amask)]).tolist()
        positions = [own.index(int(c)) for c in codes]
        assert positions == sorted(positions)
        np.testing.assert_array_equal(rows, _bulk.decode_rows(codes, n))

    @staticmethod
    def assert_group_matches_reference(n, amasks, survivors):
        # one call over a group of splits gives each split's relabelings, as
        # the per-split reference builds them, concatenated in split order
        codes, rows = _bulk.split_relabelings(n, amasks, survivors)
        refs = [split_relabelings_reference(n, amask, survivors[amask.bit_count()])
                for amask in amasks]
        assert codes.dtype == np.int64 and rows.dtype == np.int32
        assert rows.shape == (codes.size, n)
        np.testing.assert_array_equal(codes, np.concatenate([ref.codes for ref in refs]))
        np.testing.assert_array_equal(rows, np.concatenate([ref.rows for ref in refs]))

    @staticmethod
    def canonical_codes(n):
        return {r: np.concatenate([c.codes for c in _bulk.split_connected_codes(n, (1 << r) - 1)])
                for r in range(1, n)}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_group_of_every_split_matches_reference(self, n):
        # every split of n in one group, so every shape of n is mixed in it
        self.assert_group_matches_reference(n, _bulk.bipartite_splits(n), self.canonical_codes(n))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_groups_of_subsets_match_reference(self, n):
        # groups of 1 to 5 consecutive splits over a random subset of each
        # shape's canonical codes, unsorted, and one shape with no survivors
        rng = np.random.default_rng(n)
        picks = {r: rng.permutation(codes)[:rng.integers(1, 41)]
                 for r, codes in self.canonical_codes(n).items()}
        picks[int(rng.integers(1, n))] = np.zeros(0, dtype=np.int64)
        splits = _bulk.bipartite_splits(n)
        lo = 0
        while lo < len(splits):
            size = int(rng.integers(1, 6))
            self.assert_group_matches_reference(n, splits[lo:lo + size], picks)
            lo += size

    def test_n9_group_matches_reference(self):
        # 20 cross edges on the shapes (4, 5) and (5, 4), next to the
        # shapes (1, 8) and (8, 1) with 8
        rng = np.random.default_rng(9)
        picks = {r: rng.permutation(codes)[:300] for r, codes in self.canonical_codes(9).items()}
        splits = [0b1, 0b000001111, 0b110000011, 0b011111111, 0b101010101]
        self.assert_group_matches_reference(9, splits, picks)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_split_weights_match_dict_reference(self, n):
        # every split of n at once, shapes mixed: the splits with fewer cross
        # edges than the most have zero rows after their own
        splits = _bulk.bipartite_splits(n)
        got = _bulk._split_weights(n, splits)
        want = split_weights_reference(n, splits)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)


class TestDecodeRows:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_graph_rows(self, rng, n):
        bits = n * (n - 1) // 2
        codes = rng.integers(0, 1 << bits, size=200, dtype=np.int64) if bits else np.zeros(1, np.int64)
        rows = _bulk.decode_rows(codes, n)
        assert rows.shape == (codes.size, n) and rows.dtype == np.int32
        assert rows.tolist() == [list(from_code(n, int(c)).rows) for c in codes]


class TestQMatrices:
    # the batched Jacobi re-verification needs these exact matrices, so the
    # match is bit for bit, not within a tolerance
    @staticmethod
    def assert_matches_oracle(graphs, rows, n):
        mats = _bulk.q_matrices(rows, n)
        assert mats.shape == (len(graphs), n, n) and mats.dtype == np.float64
        for g, mat in zip(graphs, mats):
            assert np.array_equal(mat, q_matrix_oracle(g))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_graph(self, n):
        graphs = all_graphs(n)
        rows = _bulk.decode_rows(np.array([g.to_code() for g in graphs], dtype=np.int64), n)
        self.assert_matches_oracle(graphs, rows, n)

    def test_random_graphs_to_n12(self, rng):
        for n in range(6, 13):
            graphs = [Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p])
                      for p in (0.1, 0.4, 0.7, 0.95) for _ in range(10)]
            self.assert_matches_oracle(graphs, np.array([g.rows for g in graphs], dtype=np.int64), n)


class TestConnectedMask:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_graph_against_bfs(self, n):
        # keep: all vertices, all but one or two, and each single vertex
        full = (1 << n) - 1
        keeps = {full} | {full & ~(1 << u) & ~(1 << v) for u in range(n) for v in range(n)}
        keeps |= {1 << v for v in range(n)}
        keeps.discard(0)
        rows = _bulk.decode_rows(np.arange(1 << (n * (n - 1) // 2), dtype=np.int64), n)
        graphs = rows.tolist()
        for keep in sorted(keeps):
            mask = _bulk.connected_mask(rows, n, keep)
            assert mask.dtype == bool and mask.shape == (len(graphs),)
            assert mask.tolist() == [induced_connected_bfs(g, keep) for g in graphs], (n, keep)
            if keep.bit_count() == 1:
                assert mask.all()
