import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpow.graphs import complete, complete_bipartite, cycle, disjoint_union, empty, from_code, path
from qpow.invariants import (
    laplacian_power_sum,
    named_invariants,
    nonzero_power_sum,
    signless_power_sum,
    zagreb,
)
from qpow.spectra import q_spectrum, spectrum_from_values

from conftest import connected_graphs_naive


class TestNonzeroPowerSum:
    def test_sum_is_2m_for_alpha_1(self):
        s = spectrum_from_values([5, 3, 2, 2, 0])
        assert nonzero_power_sum(s, 1) == pytest.approx(12.0)

    def test_negative_alpha_rational(self):
        s = spectrum_from_values([5, 3, 2, 2, 0])
        assert nonzero_power_sum(s, -1) == pytest.approx(23 / 15, abs=1e-12)

    def test_k2_sqrt(self):
        s = spectrum_from_values([2, 0])
        assert nonzero_power_sum(s, 0.5) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            nonzero_power_sum(spectrum_from_values([1.0]), 0.0)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            nonzero_power_sum(spectrum_from_values([5, 3, 2, 2, 0]), alpha)
        with pytest.raises(ValueError, match="finite"):
            signless_power_sum(complete(3), alpha)

    def test_all_zero_negative_alpha(self):
        s = q_spectrum(empty(3))
        with pytest.raises(ValueError):
            nonzero_power_sum(s, -1)
        assert nonzero_power_sum(s, 0.5) == 0.0


class TestPowerSums:
    def test_s1_k4(self):
        assert signless_power_sum(complete(4), 1) == pytest.approx(12.0)

    def test_shalf_k22(self):
        # sigma(Q(K_{2,2})) = {4, 2, 2, 0}
        assert signless_power_sum(complete_bipartite(2, 2), 0.5) == pytest.approx(
            2 + 2 * math.sqrt(2), abs=1e-10
        )

    def test_s2_triangle_both_ways(self):
        assert laplacian_power_sum(complete(3), 2) == pytest.approx(18.0, abs=1e-10)
        assert signless_power_sum(complete(3), 2) == pytest.approx(18.0, abs=1e-10)

    def test_bipartite_q_equals_l(self):
        g = complete_bipartite(2, 3)
        for alpha in (-2, -1, -0.5, 0.5, 1, 2, 3):
            assert signless_power_sum(g, alpha) == pytest.approx(
                laplacian_power_sum(g, alpha), abs=1e-9
            )

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=50, deadline=None)
    def test_trace_identity_random(self, n, data):
        g = from_code(n, data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))
        s2 = signless_power_sum(g, 2)
        assert s2 == pytest.approx(zagreb(g, 2) + 2 * g.m, abs=1e-8)
        assert s2 == pytest.approx(laplacian_power_sum(g, 2), abs=1e-8)


class TestZagreb:
    def test_k23(self):
        assert zagreb(complete_bipartite(2, 3), 2) == pytest.approx(30.0)

    def test_alpha_1_is_degree_sum(self):
        for g in [complete(4), path(5), cycle(6)]:
            assert zagreb(g, 1) == pytest.approx(2 * g.m)

    def test_k4(self):
        assert zagreb(complete(4), 2) == pytest.approx(36.0)

    def test_isolated_vertex_negative_alpha(self):
        g = disjoint_union(complete(2), empty(1))
        with pytest.raises(ValueError):
            zagreb(g, -1)
        assert zagreb(g, 2) == pytest.approx(2.0)


class TestNamedInvariants:
    def test_kf_k2(self):
        assert named_invariants(complete(2)).Kf == pytest.approx(1.0, abs=1e-10)

    def test_kf_p3(self):
        assert named_invariants(path(3)).Kf == pytest.approx(4.0, abs=1e-10)

    def test_energy_k2(self):
        assert named_invariants(complete(2)).E == pytest.approx(2.0, abs=1e-10)

    def test_bundle_identities(self):
        for g in [complete(4), complete_bipartite(2, 3), cycle(5), path(4)]:
            b = named_invariants(g)
            assert b.IE == pytest.approx(signless_power_sum(g, 0.5), abs=1e-9)
            assert b.LEL == pytest.approx(laplacian_power_sum(g, 0.5), abs=1e-9)
            assert b.E_L == pytest.approx(signless_power_sum(g, 2), abs=1e-8)
            assert b.Kf == pytest.approx(g.n * laplacian_power_sum(g, -1), abs=1e-8)
            assert b.M1 == pytest.approx(zagreb(g, 2))
            assert b.m == g.m

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            named_invariants(disjoint_union(complete(2), complete(2)))

    def test_k1_bundle(self):
        b = named_invariants(complete(1))
        assert (b.m, b.IE, b.LEL, b.Kf, b.E_L, b.E, b.M1) == (0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class TestSignStratifiedRelations:
    GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_exhaustive_small(self, n):
        for g in connected_graphs_naive(n):
            for alpha in self.GRID:
                diff = signless_power_sum(g, alpha) - laplacian_power_sum(g, alpha)
                if 0 < alpha <= 1 or 2 <= alpha <= 3:
                    assert diff >= -1e-9, (g, alpha)
                if 1 <= alpha <= 2:
                    assert diff <= 1e-9, (g, alpha)


class TestEdgeMonotonicityProperty:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_positive_alpha_strict_increase(self, n):
        for g in connected_graphs_naive(n):
            for e in g.edges():
                ge = g.delete_edge(e)
                for alpha in (0.5, 1.0, 2.0):
                    assert signless_power_sum(g, alpha) > signless_power_sum(ge, alpha) + 1e-9

    @pytest.mark.parametrize("n", range(3, 6))
    def test_negative_alpha_reversed_when_h_stable(self, n):
        for g in connected_graphs_naive(n):
            sg = q_spectrum(g)
            for e in g.edges():
                ge = g.delete_edge(e)
                if not ge.is_connected():
                    continue
                sge = q_spectrum(ge)
                for alpha in (-1.0, -0.5):
                    a = nonzero_power_sum(sg, alpha)
                    b = nonzero_power_sum(sge, alpha)
                    if sg.h == sge.h:
                        assert a < b, (g, e, alpha)
                    else:
                        # deletion created a zero eigenvalue: observed reversal
                        assert a > b, (g, e, alpha)
