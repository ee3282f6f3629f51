import pytest

from qpow.connectivity import (
    _min_vertex_cut_rows,
    connectivity_profile,
    edge_connectivity,
    kappa_at_most,
    min_edge_cut,
    min_vertex_cut,
    vertex_connectivity,
)
from qpow.graphs import (
    Graph,
    complete,
    complete_bipartite,
    construct_gi,
    cycle,
    disjoint_union,
    path,
)

from conftest import (
    connected_graphs_naive,
    min_vertex_cut_bruteforce,
    random_graph,
    vertex_connectivity_bruteforce,
)


class TestVertexConnectivity:
    def test_complete(self):
        assert vertex_connectivity(complete(5)) == 4
        assert min_vertex_cut(complete(5)) == (4, ())

    def test_path(self):
        assert vertex_connectivity(path(4)) == 1

    def test_gi_family(self):
        assert vertex_connectivity(construct_gi(6, 2, 2)) == 2

    def test_disconnected(self):
        g = disjoint_union(complete(2), complete(2))
        assert vertex_connectivity(g) == 0
        assert min_vertex_cut(g) == (0, ())

    def test_k1(self):
        assert vertex_connectivity(complete(1)) == 0

    def test_witness_is_a_cut(self):
        for g in [path(4), cycle(5), complete_bipartite(2, 3), construct_gi(6, 2, 1),
                  construct_gi(7, 3, 2)]:
            kappa, cut = min_vertex_cut(g)
            assert len(cut) == kappa
            keep = [v for v in range(g.n) if v not in cut]
            sub = Graph(len(keep), [
                (keep.index(u), keep.index(v)) for u, v in g.edges()
                if u in keep and v in keep
            ])
            assert not sub.is_connected()

    @pytest.mark.parametrize("n", range(2, 6))
    def test_flow_equals_bruteforce_exhaustive(self, n):
        for g in connected_graphs_naive(n):
            assert vertex_connectivity(g) == vertex_connectivity_bruteforce(g)

    @pytest.mark.parametrize("n", [6, 7])
    def test_flow_equals_bruteforce_sampled(self, n, rng):
        done = 0
        while done < 300:
            g = random_graph(rng, n)
            if not g.is_connected():
                continue
            done += 1
            assert vertex_connectivity(g) == vertex_connectivity_bruteforce(g)

    def test_bruteforce_witness(self):
        kappa, cut = min_vertex_cut_bruteforce(path(4))
        assert kappa == 1 and len(cut) == 1 and cut[0] in (1, 2)

    def test_rows_entry_point(self):
        g = construct_gi(7, 3, 2)
        assert _min_vertex_cut_rows(g.rows, g.n) == min_vertex_cut(g)
        assert _min_vertex_cut_rows(g.rows, g.n)[0] == vertex_connectivity(g) == 3


class TestEdgeConnectivity:
    def test_examples(self):
        assert edge_connectivity(complete(4)) == 3
        assert edge_connectivity(path(4)) == 1
        assert edge_connectivity(cycle(5)) == 2

    def test_k1_and_disconnected(self):
        assert edge_connectivity(complete(1)) == 0
        assert edge_connectivity(disjoint_union(complete(3), complete(3))) == 0

    def test_witness_is_a_cut(self):
        for g in [path(4), cycle(5), complete_bipartite(2, 3), complete(4)]:
            eps, cut = min_edge_cut(g)
            assert len(cut) == eps
            h = g
            for e in cut:
                h = h.delete_edge(e)
            assert not h.is_connected()

    def test_bruteforce_epsilon_small(self):
        # independent oracle: smallest disconnecting edge subset
        from itertools import combinations

        for g in connected_graphs_naive(4):
            edges = g.edges()
            expected = None
            for size in range(0, len(edges) + 1):
                for subset in combinations(edges, size):
                    h = g
                    for e in subset:
                        h = h.delete_edge(e)
                    if not h.is_connected():
                        expected = size
                        break
                if expected is not None:
                    break
            if expected is None:
                expected = 0  # K1 only
            assert edge_connectivity(g) == expected


class TestWhitneyChain:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_exhaustive(self, n):
        for g in connected_graphs_naive(n):
            kappa = vertex_connectivity(g)
            eps = edge_connectivity(g)
            assert kappa <= eps <= min(g.degree_sequence())

    @pytest.mark.parametrize("n", [7, 8])
    def test_sampled(self, n, rng):
        done = 0
        while done < 150:
            g = random_graph(rng, n)
            if not g.is_connected():
                continue
            done += 1
            assert vertex_connectivity(g) <= edge_connectivity(g) <= min(g.degree_sequence())


class TestGiConnectivity:
    def test_kappa_of_gi_is_k(self):
        for n in range(2, 11):
            for k in range(1, n):
                top = max(1, (n - k) // 2) if k == n - 1 else (n - k) // 2
                for i in range(1, max(top, 1) + 1):
                    if not (i <= (n - k) // 2 or (k == n - 1 and i == 1)):
                        continue
                    assert vertex_connectivity(construct_gi(n, k, i)) == k, (n, k, i)


class TestKappaAtMost:
    def test_examples(self):
        assert kappa_at_most(complete(4), 2) is False
        assert kappa_at_most(construct_gi(6, 2, 1), 2) is True
        assert kappa_at_most(path(4), 1) is True

    def test_complete_only_at_n_minus_1(self):
        assert kappa_at_most(complete(4), 3) is True

    def test_range_errors(self):
        with pytest.raises(ValueError):
            kappa_at_most(complete(4), 0)
        with pytest.raises(ValueError):
            kappa_at_most(complete(4), 4)


class TestProfile:
    def test_profile_fields(self):
        p = connectivity_profile(cycle(5))
        assert (p.kappa, p.epsilon) == (2, 2)
        assert len(p.vertex_cut) == 2 and len(p.edge_cut) == 2

    def test_profile_complete(self):
        p = connectivity_profile(complete(4))
        assert (p.kappa, p.epsilon) == (3, 3)
        assert p.vertex_cut == ()
