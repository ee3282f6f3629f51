import math

import numpy as np
import pytest

from qpow.bounds import (
    BOUNDS,
    balanced_bipartite_bound,
    complete_bipartite_bound,
    complete_bipartite_q_spectrum,
    complete_graph_bound,
    complete_q_spectrum,
    connectivity_bound,
    el_bound_vnk,
    el_bound_vnk_as_printed,
    extremal_graph,
    gi_spectrum,
    max_edges_vnk,
    resolve_bound_id,
    bound_value,
)
from qpow.graphs import complete, complete_bipartite, construct_gi
from qpow.invariants import nonzero_power_sum, signless_power_sum
from qpow.verify import tol_eq

from conftest import q_eigs_oracle


def valid_gi_params(max_n):
    for n in range(2, max_n + 1):
        for k in range(1, n):
            tops = list(range(1, (n - k) // 2 + 1)) or ([1] if k == n - 1 else [])
            for i in tops:
                yield n, k, i


class TestClosedFormSpectra:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_complete(self, n):
        got = complete_q_spectrum(n).values
        want = q_eigs_oracle(complete(n))
        assert np.max(np.abs(got - want)) <= 1e-8

    @pytest.mark.parametrize("r,s", [(r, s) for r in range(1, 7) for s in range(r, 7)])
    def test_complete_bipartite(self, r, s):
        got = complete_bipartite_q_spectrum(r, s).values
        want = q_eigs_oracle(complete_bipartite(r, s))
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_gi_paw_exact(self):
        got = gi_spectrum(4, 1, 1).values
        want = [2.5 + math.sqrt(17) / 2, 2.0, 1.0, 2.5 - math.sqrt(17) / 2]
        assert np.max(np.abs(got - np.array(want))) <= 1e-12

    def test_gi_sum_is_2m(self):
        s = gi_spectrum(6, 2, 2)
        assert float(np.sum(s.values)) == pytest.approx(22.0, abs=1e-9)

    def test_gi_degenerate_k5(self):
        assert np.allclose(gi_spectrum(5, 4, 1).values, [8, 3, 3, 3, 3], atol=1e-12)

    def test_gi_matches_eigensolver(self):
        for n, k, i in valid_gi_params(10):
            got = gi_spectrum(n, k, i).values
            want = q_eigs_oracle(construct_gi(n, k, i))
            assert np.max(np.abs(got - want)) <= 1e-8, (n, k, i)

    def test_gi_range_errors(self):
        for bad in [(5, 0, 1), (5, 5, 1), (5, 2, 0), (5, 2, 2), (6, 3, 2)]:
            with pytest.raises(ValueError):
                gi_spectrum(*bad)


class TestBipartiteBounds:
    def test_thm31_examples(self):
        assert complete_bipartite_bound(2, 3, -1) == pytest.approx(23 / 15, abs=1e-12)
        assert complete_bipartite_bound(1, 1, 0.5) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert complete_bipartite_bound(2, 2, 1) == pytest.approx(8.0)

    def test_thm31_is_power_sum_of_krs(self):
        for r in range(1, 6):
            for s in range(r, 6):
                for alpha in (-2, -1, -0.5, 0.5, 1, 2):
                    want = nonzero_power_sum(complete_bipartite_q_spectrum(r, s), alpha)
                    assert complete_bipartite_bound(r, s, alpha) == pytest.approx(want, abs=1e-10)

    def test_thm32_examples(self):
        assert balanced_bipartite_bound(5, -1) == pytest.approx(23 / 15, abs=1e-12)
        assert balanced_bipartite_bound(4, 1) == pytest.approx(8.0)
        assert balanced_bipartite_bound(4, 0.5) == pytest.approx(2 + 2 * math.sqrt(2), abs=1e-12)

    def test_thm32_is_balanced_thm31(self):
        for n in range(2, 21):
            for alpha in (-2, -1, -0.5, 0.5, 1):
                assert balanced_bipartite_bound(n, alpha) == pytest.approx(
                    complete_bipartite_bound(n // 2, (n + 1) // 2, alpha), abs=1e-12
                )

    def test_balanced_split_optimizes_over_r(self):
        # the split monotonicity behind the balanced bound: max over r for
        # 0 < alpha <= 1, min over r for alpha < 0
        for n in range(2, 21):
            for alpha in (-2, -1, -0.5, 0.5, 1):
                values = [complete_bipartite_bound(r, n - r, alpha) for r in range(1, n // 2 + 1)]
                target = balanced_bipartite_bound(n, alpha)
                best = max(values) if alpha > 0 else min(values)
                assert target == pytest.approx(best, abs=1e-9), (n, alpha)


class TestCompleteGraphBound:
    def test_examples(self):
        assert complete_graph_bound(4, 2) == pytest.approx(48.0)
        assert complete_graph_bound(3, 2) == pytest.approx(18.0)
        assert complete_graph_bound(4, 1) == pytest.approx(12.0)

    def test_n2_negative_alpha_excludes_zero_base(self):
        assert complete_graph_bound(2, -1) == pytest.approx(0.5)
        assert complete_graph_bound(2, 0.5) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_equals_power_sum_of_kn(self):
        for n in range(2, 13):
            for alpha in (-1, -0.5, 0.5, 1, 2, 3):
                want = nonzero_power_sum(complete_q_spectrum(n), alpha)
                assert complete_graph_bound(n, alpha) == pytest.approx(want, abs=1e-9)

    def test_matches_kappa_bound_at_full_connectivity(self):
        for n in range(2, 13):
            for alpha in (-1, 0.5, 1, 2):
                assert complete_graph_bound(n, alpha) == pytest.approx(
                    connectivity_bound(n, n - 1, alpha), abs=1e-9
                )


class TestConnectivityBound:
    def test_examples(self):
        assert connectivity_bound(4, 1, 1) == pytest.approx(8.0, abs=1e-10)
        assert connectivity_bound(5, 2, 1) == pytest.approx(16.0, abs=1e-10)
        assert connectivity_bound(4, 1, 2) == pytest.approx(26.0, abs=1e-9)

    def test_memoised(self):
        # the cache sits on the one bound dispatch, bound_value
        bound_value.cache_clear()
        first = bound_value("conj44-upper", 0.5, n=9, k=3)
        assert bound_value("conj44-upper", 0.5, n=9, k=3) == first
        assert bound_value.cache_info().hits == 1
        with pytest.raises(ValueError):
            bound_value("conj44-upper", 0.5, n=9, k=9)  # errors are raised every time, not cached
        with pytest.raises(ValueError):
            bound_value("conj44-upper", 0.5, n=9, k=9)
        assert bound_value.cache_info().hits == 1

    def test_alpha1_polynomial_exact(self):
        for n in range(2, 31):
            for k in range(1, n):
                want = n * n - 3 * n + 2 * k + 2
                assert connectivity_bound(n, k, 1) == pytest.approx(want, abs=1e-8)
                assert max_edges_vnk(n, k) * 2 == want

    def test_alpha2_corrected_polynomial(self):
        for n in range(2, 31):
            for k in range(1, n):
                want = n ** 3 - 4 * n ** 2 + (2 * k + 5) * n + k * k - k - 2
                assert el_bound_vnk(n, k) == want
                assert connectivity_bound(n, k, 2) == pytest.approx(want, abs=1e-8)

    def test_misprinted_polynomial_disagrees(self):
        assert el_bound_vnk(3, 2) == 18
        assert el_bound_vnk_as_printed(3, 2) == 72
        assert signless_power_sum(construct_gi(3, 2, 1), 2) == pytest.approx(18.0, abs=1e-9)
        for n in range(3, 12):
            for k in range(1, n):
                assert el_bound_vnk_as_printed(n, k) - el_bound_vnk(n, k) == 6 * n * n

    def test_i_equals_1_maximizes_for_alpha_ge_1(self):
        for n in range(2, 21):
            for k in range(1, n):
                for alpha in (1, 1.5, 2, 3):
                    values = []
                    tops = list(range(1, (n - k) // 2 + 1)) or ([1] if k == n - 1 else [])
                    for i in tops:
                        values.append(nonzero_power_sum(gi_spectrum(n, k, i), alpha))
                    assert connectivity_bound(n, k, alpha) == pytest.approx(
                        max(values), abs=1e-8 * max(1.0, max(values))
                    ), (n, k, alpha)


class TestRegistry:
    def test_ids_complete(self):
        assert set(BOUNDS) == {
            "thm31-upper", "thm31-lower", "thm32-upper", "thm32-lower",
            "thm41-upper", "thm41-lower", "thm43-upper",
            "conj31-upper", "conj44-upper", "conj44-lower",
        }

    def test_resolve(self):
        assert resolve_bound_id("thm32", 0.5) == "thm32-upper"
        assert resolve_bound_id("thm32", -1) == "thm32-lower"
        assert resolve_bound_id("thm32", 2) is None
        assert resolve_bound_id("conj31", 2) == "conj31-upper"
        assert resolve_bound_id("conj44", -1) == "conj44-lower"
        assert resolve_bound_id("conj44", 0.5) == "conj44-upper"
        assert resolve_bound_id("conj44", 1.5) is None
        assert resolve_bound_id("thm43-upper", 2) == "thm43-upper"
        assert resolve_bound_id("thm43-upper", 0.5) is None
        with pytest.raises(ValueError):
            resolve_bound_id("nope", 1)

    def test_bound_value_dispatch(self):
        assert bound_value("thm43-upper", 1, n=5, k=2) == pytest.approx(16.0, abs=1e-10)
        assert bound_value("thm31-lower", -1, r=2, s=3) == pytest.approx(23 / 15, abs=1e-12)
        assert bound_value("thm41-upper", 1, n=4) == pytest.approx(12.0)
        with pytest.raises(ValueError):
            bound_value("thm43-upper", 0.5, n=5, k=2)  # alpha outside range
        with pytest.raises(ValueError):
            bound_value("thm43-upper", 2, n=5)  # k missing
        with pytest.raises(ValueError):
            bound_value("thm31-upper", 1, n=5)  # r, s missing

    def test_extremal_graph_unknown_id(self):
        with pytest.raises(ValueError, match="unknown bound id"):
            extremal_graph("nope", n=5)
        with pytest.raises(ValueError, match="needs n and k"):
            extremal_graph("conj44-lower", n=5)

    @pytest.mark.parametrize("bound_id", sorted(BOUNDS))
    def test_closed_form_is_power_sum_of_extremal_graph(self, bound_id):
        spec = BOUNDS[bound_id]
        alphas = [a for a in (-2, -1, -0.5, 0.25, 0.5, 0.75, 1, 1.5, 2, 3) if spec.alpha_ok(a)]
        if spec.shape == "parts":
            params = [{"r": r, "s": s} for r in range(1, 4) for s in range(1, 4)]
        elif spec.family == "kappa":
            params = [{"n": n, "k": k} for n in range(2, 8) for k in range(1, n)]
        else:
            params = [{"n": n} for n in range(2, 8)]
        for p in params:
            g = extremal_graph(bound_id, **p)
            for alpha in alphas:
                want = signless_power_sum(g, alpha)
                got = bound_value(bound_id, alpha, **p)
                assert abs(got - want) <= tol_eq(want), (bound_id, p, alpha)

    def test_extremal_graph(self):
        assert extremal_graph("thm41-upper", n=5) == complete(5)
        assert extremal_graph("thm32-upper", n=5) == complete_bipartite(2, 3)
        assert extremal_graph("thm43-upper", n=5, k=2) == construct_gi(5, 2, 1)
        assert extremal_graph("thm31-upper", r=2, s=3) == complete_bipartite(2, 3)
