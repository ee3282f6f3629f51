import json
import math

import numpy as np
import pytest

from qpow.graphs import (
    complete,
    complete_bipartite,
    construct_gi,
    cycle,
    disjoint_union,
    path,
)
from qpow.invariants import signless_power_sum
from qpow.verify import (
    bound_results_to_jsonl,
    check_bipartite_cospectral,
    check_bound,
    check_edge_monotonicity,
    check_identities,
    check_interlacing,
    matches_extremal,
    tol_eq,
)

from conftest import connected_graphs_naive, is_isomorphic_bruteforce


class TestInterlacing:
    def test_k3(self):
        r = check_interlacing(complete(3), (0, 1))
        assert r.passed
        assert np.allclose(r.spectrum_g, [4, 1, 1], atol=1e-9)
        assert np.allclose(r.spectrum_ge, [3, 1, 0], atol=1e-9)
        assert r.trace_gap == pytest.approx(2.0, abs=1e-9)

    def test_k2(self):
        r = check_interlacing(complete(2), (0, 1))
        assert r.passed
        assert np.allclose(r.spectrum_ge, [0, 0], atol=1e-12)

    def test_c4(self):
        r = check_interlacing(cycle(4), (0, 1))
        assert r.passed and r.max_violation <= 1e-8

    def test_missing_edge(self):
        with pytest.raises(ValueError):
            check_interlacing(path(3), (0, 2))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_exhaustive_small(self, n):
        for g in connected_graphs_naive(n):
            for e in g.edges():
                assert check_interlacing(g, e).passed


class TestEdgeMonotonicity:
    def test_k4_alpha_1(self):
        r = check_edge_monotonicity(complete(4), 1)
        assert r.passed
        assert all(rec.asserted and rec.holds for rec in r.records)
        assert all(rec.margin == pytest.approx(2.0, abs=1e-8) for rec in r.records)

    @pytest.mark.parametrize("alpha", [0.0, math.inf, -math.inf, math.nan])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            check_edge_monotonicity(complete(4), alpha)

    def test_k3_negative_alpha_recorded_not_asserted(self):
        r = check_edge_monotonicity(complete(3), -1)
        # every deletion turns K3 into a bipartite path: h drops, nothing asserted
        assert r.passed
        for rec in r.records:
            assert not rec.asserted
            assert "h drops" in rec.note
            assert rec.value_g == pytest.approx(2.25, abs=1e-10)
            assert rec.value_ge == pytest.approx(4 / 3, abs=1e-10)
            assert not rec.holds  # observed direction is reversed

    def test_c4_alpha_half(self):
        r = check_edge_monotonicity(cycle(4), 0.5)
        want = signless_power_sum(cycle(4), 0.5) - signless_power_sum(path(4), 0.5)
        assert r.passed
        assert r.records[0].margin == pytest.approx(want, abs=1e-10)
        assert want > 1e-9

    def test_negative_alpha_asserted_when_h_stable(self):
        g = complete(4)  # K4 - e stays non-bipartite and connected
        r = check_edge_monotonicity(g, -1)
        assert r.passed
        assert all(rec.asserted and rec.holds for rec in r.records)

    def test_disconnecting_edge_negative_alpha(self):
        r = check_edge_monotonicity(path(3), -1)
        notes = {rec.note for rec in r.records}
        assert notes == {"G-e disconnected"}
        assert all(not rec.asserted for rec in r.records)

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            check_edge_monotonicity(complete(3), 0)


class TestCospectral:
    def test_c4(self):
        r = check_bipartite_cospectral(cycle(4))
        assert r.applicable and r.passed

    def test_star(self):
        r = check_bipartite_cospectral(complete_bipartite(1, 3))
        assert r.passed and r.max_diff <= 1e-8

    def test_k3_inapplicable(self):
        r = check_bipartite_cospectral(complete(3))
        assert not r.applicable and "not bipartite" in r.reason

    def test_disconnected_bipartite_applicable(self):
        g = disjoint_union(path(2), path(3))
        assert check_bipartite_cospectral(g).passed


class TestCheckBound:
    @pytest.mark.parametrize("alpha", [0.0, math.inf, -math.inf, math.nan])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            check_bound(complete(4), "thm41-upper", alpha)

    def test_equality_on_extremal_bipartite(self):
        r = check_bound(complete_bipartite(2, 3), "thm31-lower", -1)
        assert r.applicable and r.equality
        assert r.bound_value == pytest.approx(23 / 15, abs=1e-12)
        assert r.invariant_value == pytest.approx(23 / 15, abs=1e-9)

    def test_strict_on_path(self):
        r = check_bound(path(4), "thm32-upper", 0.5)
        assert r.applicable and not r.equality and r.slack > 1e-3

    def test_equality_on_gi(self):
        r = check_bound(construct_gi(5, 2, 1), "thm43-upper", 2, k=2)
        assert r.applicable and r.equality
        assert r.bound_value == pytest.approx(70.0, abs=1e-8)  # corrected cubic at (5,2)
        assert r.bound_value == pytest.approx(
            signless_power_sum(construct_gi(5, 2, 1), 2), abs=1e-8
        )

    def test_inapplicable_non_bipartite(self):
        r = check_bound(complete(4), "thm32-upper", 0.5)
        assert not r.applicable and "not bipartite" in r.reason
        assert r.invariant_value is None and r.slack is None

    def test_inapplicable_alpha(self):
        r = check_bound(cycle(4), "thm32-upper", 3)
        assert not r.applicable and "alpha" in r.reason

    def test_inapplicable_disconnected(self):
        r = check_bound(disjoint_union(path(2), path(2)), "thm41-upper", 1)
        assert not r.applicable and "not connected" in r.reason

    def test_inapplicable_single_vertex(self):
        r = check_bound(complete(1), "thm32-upper", 0.5)
        assert not r.applicable and "2 vertices" in r.reason

    def test_kappa_gate(self):
        r = check_bound(complete(4), "thm43-upper", 2, k=2)
        assert not r.applicable and "connectivity" in r.reason
        with pytest.raises(ValueError):
            check_bound(complete(4), "thm43-upper", 2)

    def test_violation_has_negative_slack(self):
        # the alpha < 0 branch of the kappa-family conjecture fails on stars
        r = check_bound(complete_bipartite(1, 3), "conj44-lower", -1, k=1)
        assert r.applicable and r.slack < -tol_eq(r.bound_value)

    def test_json_fields(self):
        r = check_bound(cycle(4), "thm32-upper", 1)
        doc = json.loads(r.to_json())
        assert list(doc) == [
            "bound_id", "graph", "alpha", "invariant_value", "bound_value",
            "slack", "equality", "applicable", "reason",
        ]
        # C4 bits in colex order: (0,1),(0,2),(1,2),(0,3),(1,3),(2,3) = 101101 -> chr(63+45)
        assert doc["graph"] == "Cl"
        lines = bound_results_to_jsonl([r, r]).splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]


class TestMatchesExtremal:
    def test_positive_cases(self):
        assert matches_extremal(complete_bipartite(2, 3), "thm32-upper")
        assert matches_extremal(complete(5), "thm41-upper")
        assert matches_extremal(construct_gi(6, 2, 1), "thm43-upper", k=2)

    def test_negative_cases(self):
        assert not matches_extremal(path(5), "thm32-upper")
        assert not matches_extremal(cycle(5), "thm41-upper")

    @pytest.mark.parametrize("n", range(2, 7))
    def test_agrees_with_isomorphism_oracle_bipartite(self, n):
        target = complete_bipartite(n // 2, (n + 1) // 2)
        for g in connected_graphs_naive(n):
            if g.bipartition() is None:
                continue
            assert matches_extremal(g, "thm32-upper") == is_isomorphic_bruteforce(g, target)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_agrees_with_isomorphism_oracle_gi(self, n):
        for k in range(1, n):
            target = construct_gi(n, k, 1)
            for g in connected_graphs_naive(n):
                assert matches_extremal(g, "thm43-upper", k=k) == is_isomorphic_bruteforce(
                    g, target
                ), (g.edges(), n, k)


class TestIdentities:
    def test_k4(self):
        r = check_identities(complete(4))
        assert r.passed
        assert r.values["S_2 = M1 + 2m"] == pytest.approx(48.0, abs=1e-8)

    def test_bipartite_grid(self):
        assert check_identities(complete_bipartite(2, 3)).passed

    def test_k3_interval(self):
        r = check_identities(complete(3))
        assert r.passed
        assert r.values["S-s at alpha=1.5"] < 0  # S <= s inside [1, 2]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exhaustive_small(self, n):
        for g in connected_graphs_naive(n):
            assert check_identities(g).passed
