import dataclasses
import json
import os
import random
import subprocess
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from qpow import _bulk
from qpow.bounds import BOUNDS, bound_value, gi_spectrum
from qpow.graph6 import emit_graph6, parse_graph6, read_stream
from qpow.graphs import Graph, construct_gi, from_code
from qpow.connectivity import vertex_connectivity
from qpow.invariants import nonzero_power_sum
import qpow.search as search
from qpow.search import REVERIFY_CONV_SCALE, enumerate_graphs, extremal_table, scan
from qpow.spectra import jacobi_eigenvalues_batch, q_spectrum, signless_laplacian
from qpow.verify import TOL_EQ_SCALE, matches_extremal, tol_eq

import conftest
from conftest import (
    connected_graphs_naive,
    connected_population,
    evaluate_reference,
    moment_screen_reference,
)


class TestEnumerate:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 4), (4, 38), (5, 728)])
    def test_connected_census(self, n, count):
        graphs = list(enumerate_graphs(n, "connected"))
        assert len(graphs) == count
        assert len({g.to_code() for g in graphs}) == count

    def test_connected_matches_naive(self):
        for n in range(1, 6):
            ours = {g.to_code() for g in enumerate_graphs(n, "connected")}
            naive = {g.to_code() for g in connected_graphs_naive(n)}
            assert ours == naive

    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 19), (5, 195)])
    def test_bipartite_census(self, n, count):
        graphs = list(enumerate_graphs(n, "connected-bipartite"))
        assert len(graphs) == count
        assert len({g.to_code() for g in graphs}) == count
        naive = {
            g.to_code()
            for g in connected_graphs_naive(n)
            if g.bipartition() is not None
        }
        assert {g.to_code() for g in graphs} == naive

    def test_kappa_filter_matches_flow(self):
        for k in (1, 2, 3):
            ours = {g.to_code() for g in enumerate_graphs(5, "kappa_at_most", k=k)}
            naive = {
                g.to_code() for g in connected_graphs_naive(5) if vertex_connectivity(g) <= k
            }
            assert ours == naive

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            list(enumerate_graphs(10, "connected"))
        with pytest.raises(ValueError):
            list(enumerate_graphs(4, "nope"))
        with pytest.raises(ValueError):
            list(enumerate_graphs(4, "kappa_at_most"))
        with pytest.raises(ValueError):
            list(enumerate_graphs(4, "kappa_at_most", k=4))


class TestScanTheorems:
    def test_thm32_no_violations(self):
        report = scan("thm32", range(2, 7), [-1, 0.5, 1])
        assert report.graphs_scanned == 1 + 3 + 19 + 195 + 3031
        assert report.violations == []
        for w in report.extremal_witnesses:
            g = parse_graph6(w.graph6)
            assert matches_extremal(g, "thm32-upper"), w

    def test_thm41_upper_no_violations(self):
        report = scan("thm41", range(2, 7), [1, 2])
        assert report.violations == []
        assert report.graphs_scanned == 1 + 4 + 38 + 728 + 26704
        for w in report.extremal_witnesses:
            assert matches_extremal(parse_graph6(w.graph6), "thm41-upper"), w

    def test_thm41_lower_violated_only_by_bipartite_graphs(self):
        # the printed alpha<0 lower bound fails exactly where a zero
        # eigenvalue shrinks the classified sum: bipartite graphs
        # (hand check: S_{-1}(P3) = 4/3 < 9/4 = S_{-1}(K3))
        report = scan("thm41", range(2, 7), [-1])
        assert report.violations
        for v in report.violations:
            assert v.reverified
            assert parse_graph6(v.graph6).is_bipartite()
        p3 = [v for v in report.violations if v.n == 3]
        assert len(p3) == 3  # the labeled copies of the 3-path
        assert p3[0].invariant_value == pytest.approx(4 / 3, abs=1e-9)
        assert p3[0].bound_value == pytest.approx(2.25, abs=1e-12)

    def test_thm43_no_violations_and_witnesses(self):
        report = scan("thm43-upper", range(2, 7), [1, 2])
        assert report.violations == []
        for w in report.extremal_witnesses:
            g = parse_graph6(w.graph6)
            assert matches_extremal(g, "thm43-upper", k=w.k), w

    def test_thm43_fixed_k(self):
        report = scan("thm43-upper", range(3, 6), [1, 2], k=2)
        assert report.violations == []
        assert report.k == 2
        assert all(w.k == 2 for w in report.extremal_witnesses)
        want = sum(
            1
            for n in range(3, 6)
            for g in connected_graphs_naive(n)
            if vertex_connectivity(g) <= 2
        )
        assert report.graphs_scanned == want


class TestEdgeConnectivityFamily:
    @pytest.mark.parametrize("n", range(3, 6))
    def test_bound_holds_on_epsilon_family(self, n):
        # graphs with edge connectivity <= k are a subfamily of kappa <= k,
        # so the connectivity bound carries over to them verbatim
        from qpow.bounds import connectivity_bound
        from qpow.connectivity import edge_connectivity

        for g in connected_graphs_naive(n):
            kappa = vertex_connectivity(g)
            eps = edge_connectivity(g)
            assert kappa <= eps
            for k in range(max(1, eps), n):
                for alpha in (1.0, 2.0):
                    bound = connectivity_bound(n, k, alpha)
                    value = nonzero_power_sum(q_spectrum(g), alpha)
                    assert value <= bound + tol_eq(bound), (g.edges(), k, alpha)


class TestScanConjectures:
    def test_conj44_negative_alpha_finds_reverified_violations(self):
        report = scan("conj44", range(2, 6), [-1])
        assert report.violations, "the alpha<0 branch has small counterexamples"
        for v in report.violations:
            assert v.reverified
            assert v.margin < -tol_eq(v.bound_value)
            assert v.bound_id == "conj44-lower"
            g = parse_graph6(v.graph6)
            # independent recomputation through the per-graph route
            value = nonzero_power_sum(q_spectrum(g), v.alpha)
            assert value == pytest.approx(v.invariant_value, abs=1e-9)
            assert vertex_connectivity(g) <= v.k
        # the 3 labeled paths on 3 vertices violate at (n,k)=(3,2)
        p3_like = [v for v in report.violations if v.n == 3 and v.k == 2]
        assert len(p3_like) == 3
        for v in p3_like:
            assert v.invariant_value == pytest.approx(4 / 3, abs=1e-9)
            assert v.bound_value == pytest.approx(2.25, abs=1e-9)

    def test_conj44_upper_branch_clean_small(self):
        report = scan("conj44", range(2, 6), [0.25, 0.5, 0.75])
        assert report.violations == []

    def test_conj31_clean_small(self):
        report = scan("conj31", range(2, 7), [1.5, 2, 3])
        assert report.violations == []

    def test_mixed_grid_resolves_per_alpha(self):
        report = scan("conj44", range(2, 5), [-1, 0.5])
        ids = {v.bound_id for v in report.violations}
        assert ids == {"conj44-lower"}

    def test_unresolvable_alpha_rejected(self):
        with pytest.raises(ValueError):
            scan("conj44", range(2, 5), [1.5])
        with pytest.raises(ValueError):
            scan("thm43-upper", range(2, 5), [0.5])
        with pytest.raises(ValueError):
            scan("thm32", range(2, 5), [0.5], k=1)
        with pytest.raises(ValueError):
            scan("thm32", range(2, 5), [0.0])

    @pytest.mark.parametrize("alpha", [float("inf"), float("-inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            scan("thm41", range(2, 5), [alpha])
        with pytest.raises(ValueError, match="finite"):
            scan("thm41", range(2, 5), [1, alpha], source=iter(["Bw"]))

    @pytest.mark.parametrize("ns", [range(5, 4), [1], range(-3, 2)])
    def test_no_applicable_n_rejected(self, ns):
        with pytest.raises(ValueError, match="n >= 2"):
            scan("conj44", ns, [0.5])
        with pytest.raises(ValueError, match="n >= 2"):
            scan("thm41", ns, [1], source=iter(["Bw"]))

    def test_one_slow_solve_per_distinct_violating_graph(self, monkeypatch):
        # both routes of search._reverify_spectra: the n = 5 candidates are
        # one batch, the fewer ones of smaller n are solved one by one
        solves, batches = [], []

        def per_graph(g, **kw):
            solves.append((signless_laplacian(g).tobytes(), kw.get("conv_scale")))
            return q_spectrum(g, **kw)

        def batched(stack, **kw):
            solves.extend((m.tobytes(), kw.get("conv_scale")) for m in stack)
            batches.append(len(stack))
            return jacobi_eigenvalues_batch(stack, **kw)

        monkeypatch.setattr(search, "q_spectrum", per_graph)
        monkeypatch.setattr(search, "jacobi_eigenvalues_batch", batched)
        report = scan("conj44", range(2, 6), [-1, -0.5], threads=1)
        graphs = {v.graph6 for v in report.violations}
        assert len(report.violations) > len(graphs)  # records share graphs
        assert len(solves) == len(set(solves)) == len(graphs)
        assert {m for m, _ in solves} == {signless_laplacian(parse_graph6(g6)).tobytes()
                                          for g6 in graphs}
        assert {scale for _, scale in solves} == {REVERIFY_CONV_SCALE}
        assert len(batches) == 1 and batches[0] >= search.REVERIFY_BATCH_MIN
        assert len(solves) > batches[0]

    def test_stream_batch_matches_per_graph_above_int64(self, monkeypatch):
        # labeled copies of K_{r,12-r} and K_{r,13-r}: conj31 fails on the
        # unbalanced ones at alpha 4 and 5, and most of their codes need more
        # than 63 bits, so the n = 12 batch must come from Graph.rows
        rng = random.Random(12)
        lines = []
        for n, copies in ((12, 60), (13, 8)):
            for _ in range(copies):
                r = rng.randint(2, n // 2)
                perm = rng.sample(range(n), n)
                edges = [(perm[i], perm[j]) for i in range(r) for j in range(r, n)]
                lines.append(emit_graph6(Graph(n, edges)))
        shapes = []

        def batched(stack, **kw):
            shapes.append(stack.shape)
            return jacobi_eigenvalues_batch(stack, **kw)

        monkeypatch.setattr(search, "jacobi_eigenvalues_batch", batched)
        report = scan("conj31", [12, 13], [4.0, 5.0], source=iter(lines))
        twelve = {v.graph6 for v in report.violations if v.n == 12}
        assert len(twelve) >= search.REVERIFY_BATCH_MIN
        monkeypatch.setattr(search, "REVERIFY_BATCH_MIN", len(lines) + 1)  # every graph alone
        alone = scan("conj31", [12, 13], [4.0, 5.0], source=iter(lines))
        assert report.to_json(redact_timing=True) == alone.to_json(redact_timing=True)
        assert max(parse_graph6(g6).to_code() for g6 in twelve) >= 2**63
        assert shapes == [(len(twelve), 12, 12)]
        assert any(v.n == 13 for v in report.violations)

    def test_flow_connectivity_above_k_raises(self, monkeypatch):
        monkeypatch.setattr(search, "vertex_connectivity", lambda g: g.n)
        with pytest.raises(RuntimeError, match="exceeds k="):
            scan("conj44", range(2, 5), [-1], threads=1)


class TestReports:
    def test_json_deterministic(self):
        a = scan("conj44", range(2, 6), [-1, 0.5]).to_json(redact_timing=True)
        b = scan("conj44", range(2, 6), [-1, 0.5]).to_json(redact_timing=True)
        assert a == b
        doc = json.loads(a)
        assert doc["wall_time"] is None
        assert doc["graphs_scanned"] == 1 + 4 + 38 + 728
        assert doc["source"] == "internal"

    def test_threads_do_not_change_bytes(self):
        # every scan runs in one process, so this compares two in-process
        # runs; thm32 has no candidates, conj44 has some to re-verify
        for bound_id, grid in [("thm32", [0.5, 1]), ("conj44", [-1, 0.5])]:
            a = scan(bound_id, range(2, 6), grid, threads=1)
            b = scan(bound_id, range(2, 6), grid, threads=2)
            assert a.to_json(redact_timing=True) == b.to_json(redact_timing=True)
            assert bool(a.violations) == (bound_id == "conj44")

    def test_no_process_started(self, monkeypatch):
        # threads=2 is accepted and validated, but no scan forks a worker
        def no_fork():
            raise AssertionError("a scan forked")

        runs = [("conj31", [1.5, 2, 3]), ("thm32", [-1]), ("conj44", [-1, 0.5])]
        one = [scan(bound_id, range(2, 7), grid, threads=1).to_json(redact_timing=True)
               for bound_id, grid in runs]
        monkeypatch.setattr(os, "fork", no_fork)
        two = [scan(bound_id, range(2, 7), grid, threads=2).to_json(redact_timing=True)
               for bound_id, grid in runs]
        assert two == one

    def test_env_threads(self, monkeypatch):
        monkeypatch.setenv("QPOW_THREADS", "2")
        a = scan("thm41", range(2, 5), [1]).to_json(redact_timing=True)
        monkeypatch.setenv("QPOW_THREADS", "1")
        b = scan("thm41", range(2, 5), [1]).to_json(redact_timing=True)
        assert a == b

    def test_malformed_env_threads(self, monkeypatch):
        monkeypatch.setenv("QPOW_THREADS", "two")
        with pytest.raises(ValueError, match="QPOW_THREADS.*'two'"):
            scan("thm41", range(2, 5), [1])

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_non_positive_env_threads(self, monkeypatch, value):
        monkeypatch.setenv("QPOW_THREADS", value)
        with pytest.raises(ValueError, match=f"QPOW_THREADS.*'{value}'"):
            scan("thm41", range(2, 5), [1])

    def test_threads_argument_still_clamped(self, monkeypatch):
        monkeypatch.delenv("QPOW_THREADS", raising=False)
        a = scan("thm41", range(2, 5), [1], threads=0).to_json(redact_timing=True)
        assert a == scan("thm41", range(2, 5), [1], threads=1).to_json(redact_timing=True)

    def test_csv_shape(self):
        report = scan("conj44", range(2, 5), [-1])
        csv = report.violations_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "graph6,n,k,alpha,bound_id,invariant,bound,margin"
        assert len(lines) == len(report.violations) + 1
        first = lines[1].split(",")
        assert first[4] == "conj44-lower"
        assert int(first[1]) in (3, 4)

    def test_wall_time_present_unredacted(self):
        doc = json.loads(scan("thm41", range(2, 4), [1]).to_json())
        assert isinstance(doc["wall_time"], float)

    def test_json_has_no_nan_or_infinity(self):
        # JSON has no NaN or Infinity: every non-finite report number is null
        nan, inf = float("nan"), float("inf")
        violation = search.ViolationRecord("Bw", 3, None, 2.0, "thm41-upper", nan, inf, -inf, True)
        witness = search.ExtremalWitness(3, 2, 2.0, "Bw", -inf)
        report = search.ScanReport("thm41", [3], [2.0], None, "stream", 1, [violation],
                                   [witness], nan)

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        doc = json.loads(report.to_json(), parse_constant=reject)
        assert doc["violations"] == [dict(dataclasses.asdict(violation), invariant_value=None,
                                          bound_value=None, margin=None)]
        assert doc["extremal_witnesses"] == [
            {"n": 3, "k": 2, "alpha": 2.0, "graph6": "Bw", "value": None}]
        assert doc["wall_time"] is None


def population_lines(bound_id, ns):
    """graph6 lines of the bound's population in enumeration order."""
    family = BOUNDS[bound_id if bound_id in BOUNDS else bound_id + "-upper"].family
    flt = "connected-bipartite" if family == "bipartite" else "connected"
    return [emit_graph6(g) for n in ns for g in enumerate_graphs(n, flt)]


def stream_bytes_equal(internal, streamed):
    """Redacted report bytes agree in every field but source."""
    assert internal.source == "internal" and streamed.source == "stream"
    relabeled = dataclasses.replace(internal, source="stream")
    return relabeled.to_json(redact_timing=True) == streamed.to_json(redact_timing=True)


class TestStreamSource:
    @pytest.mark.parametrize("bound_id,grid,k", [
        ("thm31", [-1, 0.5, 2], None),
        ("thm32", [-1, 0.5, 1], None),
        ("conj31", [1.5, 2, 3], None),
        ("thm41", [-1, 1, 2], None),
        ("thm43", [1, 2], None),
        ("thm43", [1, 2], 2),
        ("conj44", [-1, 0.5], None),
        ("conj44", [-1, 0.5], 2),
    ], ids=["thm31", "thm32", "conj31", "thm41", "thm43", "thm43-k2", "conj44", "conj44-k2"])
    def test_stream_matches_internal(self, bound_id, grid, k):
        ns = range(2, 7)
        internal = scan(bound_id, ns, grid, k=k, threads=1)
        streamed = scan(bound_id, ns, grid, k=k, source=iter(population_lines(bound_id, ns)))
        assert internal.extremal_witnesses
        assert stream_bytes_equal(internal, streamed)

    def test_stream_skips_inapplicable_n(self):
        # n = 1 (and n = 2 when k = 2 > n-1) is outside every bound, as internally
        lines = ["@"] + population_lines("conj44", range(2, 4))
        for bound_id, grid, k in [("thm41", [1], None), ("conj44", [-1], None), ("conj44", [-1], 2)]:
            internal = scan(bound_id, range(1, 4), grid, k=k, threads=1)
            streamed = scan(bound_id, range(1, 4), grid, k=k, source=iter(lines))
            assert stream_bytes_equal(internal, streamed), (bound_id, k)

    def test_stream_beyond_int64_codes(self):
        # n = 12 has 66 pair bits: the stream keeps codes as Python ints
        g = construct_gi(12, 3, 1)
        report = scan("conj44", [12], [-1, 0.5], source=iter([emit_graph6(g)]))
        assert report.graphs_scanned == 1 and report.violations == []
        at_k3 = [w for w in report.extremal_witnesses if w.k == 3]
        assert [w.alpha for w in at_k3] == [-1, 0.5]
        for w in at_k3:
            assert w.graph6 == emit_graph6(g)
            branch = "conj44-lower" if w.alpha < 0 else "conj44-upper"
            want = bound_value(branch, w.alpha, n=12, k=3)
            assert w.value == pytest.approx(want, abs=tol_eq(want))
        assert {w.k for w in report.extremal_witnesses} == set(range(3, 12))

    def test_stream_kappa_family(self):
        lines = [emit_graph6(g) for g in enumerate_graphs(4, "connected")]
        internal = scan("conj44", [4], [-1]).to_json(redact_timing=True)
        streamed = scan("conj44", [4], [-1], source=iter(lines)).to_json(redact_timing=True)
        assert json.loads(internal)["violations"] == json.loads(streamed)["violations"]

    def test_stream_bounds_computed_once_per_argument(self, monkeypatch):
        calls = []
        original = search._scalar_bound

        def counting(*args, **kw):
            calls.append(args + tuple(sorted(kw.items())))
            return original(*args, **kw)

        monkeypatch.setattr(search, "_scalar_bound", counting)
        lines = [emit_graph6(g) for g in enumerate_graphs(5, "connected")]
        # a clean grid, so re-verification adds no calls
        report = scan("conj44", [5], [0.25, 0.5], source=iter(lines))
        assert report.violations == []
        assert len(calls) == len(set(calls)) == 2 * 4  # (alpha, k) for k in 1..4

    def test_stream_errors_surfaced(self):
        seen = []
        report = scan("thm41", [3], [1], source=iter(["Bw", "!!", "Bo"]), on_error=seen.append)
        assert report.graphs_scanned == 2
        assert len(seen) == 1 and seen[0].line_number == 2

    def test_stream_strict_raises(self):
        from qpow.graph6 import Graph6Error

        with pytest.raises(Graph6Error):
            scan("thm41", [3], [1], source=iter(["!!"]), strict=True)

    def test_internal_cap(self):
        with pytest.raises(ValueError):
            scan("thm41", [10], [1])

    def test_internal_cap_per_family(self):
        # labeled connected n = 9 is 2^36 codes: only the bipartite family reaches 9
        for bound_id, grid in [("thm41", [1]), ("conj44", [0.5])]:
            with pytest.raises(ValueError, match="graph6 stream"):
                scan(bound_id, [9], grid)
        with pytest.raises(ValueError, match="graph6 stream"):
            next(enumerate_graphs(9, "connected"))
        assert search._internal_units([9], "bipartite")

    def test_k_fitting_no_n_rejected(self):
        with pytest.raises(ValueError, match="k=10"):
            scan("conj44", range(2, 5), [0.5], k=10)
        with pytest.raises(ValueError, match="k=10"):
            scan("conj44", range(2, 5), [0.5], k=10, source=iter(["Bw"]))
        assert scan("conj44", range(2, 5), [0.5], k=3).graphs_scanned > 0

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k="):
            scan("conj44", range(2, 5), [0.5], k=k)
        with pytest.raises(ValueError, match="k="):
            scan("conj44", range(2, 5), [0.5], k=k, source=iter(["Bw"]))


class TestExtremalTable:
    def test_thm43_top_is_gi1(self):
        table = extremal_table("thm43-upper", 6, 2, k=2, top=5)
        top_graph = parse_graph6(table[0][0])
        want = gi_spectrum(6, 2, 1).values
        got = q_spectrum(top_graph).values
        assert np.max(np.abs(got - want)) <= 1e-7
        values = [v for _, v in table]
        assert values == sorted(values, reverse=True)

    def test_thm32_top_is_balanced(self):
        table = extremal_table("thm32", 5, 0.5, top=3)
        assert matches_extremal(parse_graph6(table[0][0]), "thm32-upper")

    def test_thm41_top_is_complete(self):
        table = extremal_table("thm41", 5, 1, top=1)
        g6, value = table[0]
        assert value == pytest.approx(20.0)
        assert parse_graph6(g6).m == 10

    def test_lower_direction_ranks_ascending(self):
        table = extremal_table("thm32", 5, -1, top=4)
        values = [v for _, v in table]
        assert values == sorted(values)

    @pytest.mark.parametrize("bound_id,alpha,k", [
        ("thm31", -1, None),
        ("thm32", 0.5, None),
        ("conj31", 2, None),
        ("thm41", 1, None),
        ("thm41", -0.5, None),
        ("thm43", 2, None),
        ("thm43", 2, 2),
        ("conj44", -1, 3),
    ], ids=["thm31", "thm32", "conj31", "thm41", "thm41-neg", "thm43", "thm43-k2", "conj44-k3"])
    def test_stream_source(self, bound_id, alpha, k):
        lines = population_lines(bound_id, [6])
        internal = extremal_table(bound_id, 6, alpha, k=k, top=12)
        streamed = extremal_table(bound_id, 6, alpha, k=k, top=12, source=iter(lines))
        assert len(internal) == 12
        assert json.dumps(streamed) == json.dumps(internal)

    @pytest.mark.parametrize("source", [None, ["@"]], ids=["internal", "stream"])
    @pytest.mark.parametrize("bound_id,alpha", [("thm41", -1.0), ("thm41", 2.0), ("thm32", 0.5)])
    def test_n_below_two_rejected(self, source, bound_id, alpha):
        # S_alpha of K_1 is undefined and the bounds need n >= 2, as in scan
        with pytest.raises(ValueError, match="the bounds need n >= 2"):
            extremal_table(bound_id, 1, alpha, source=source and iter(source))

    def test_kappa_family_without_k_skips_the_sweep(self, monkeypatch):
        # kappa <= n-1 is every connected graph, in the same code order; a
        # private cache, so a cached n = 6 population cannot hide a sweep
        monkeypatch.setattr(_bulk, "_connected_cache", {})
        calls = []
        original = _bulk.kappa_batch

        def counting(rows, n):
            calls.append(len(rows))
            return original(rows, n)

        monkeypatch.setattr(_bulk, "kappa_batch", counting)
        table = extremal_table("conj44", 6, -1.0)
        assert calls == []
        assert table == extremal_table("conj44", 6, -1.0, k=5)
        assert sum(calls) > 0

    def test_kappa_family_without_k_over_a_stream_skips_flow(self, monkeypatch):
        lines = [emit_graph6(g) for g in enumerate_graphs(5, "connected")]
        calls = []
        original = search.vertex_connectivity

        def counting(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(search, "vertex_connectivity", counting)
        for alpha in (-1.0, 0.5):
            table = extremal_table("conj44", 5, alpha, source=iter(lines))
            assert calls == []
            assert table == extremal_table("conj44", 5, alpha, k=4, source=iter(lines))
            assert len(calls) == 728
            calls.clear()

    @pytest.mark.parametrize("top", [0, -1])
    def test_top_below_one_rejected(self, top):
        with pytest.raises(ValueError, match="top"):
            extremal_table("thm41", 4, 0.5, top=top)

    @pytest.mark.parametrize("k", [0, 6])
    def test_k_outside_range_rejected(self, k):
        lines = population_lines("thm43", [6])
        with pytest.raises(ValueError, match="k="):
            extremal_table("thm43", 6, 2, k=k)
        with pytest.raises(ValueError, match="k="):
            extremal_table("thm43", 6, 2, k=k, source=iter(lines))


class TestChunkSources:
    """Every batch source yields _bulk.Chunk with rows of n columns; r is
    vertex 0's part size on bipartite splits and thm31 streams, else None."""

    @pytest.mark.parametrize("family", ["connected", "kappa", "bipartite"])
    def test_internal_units(self, family):
        for unit in search._internal_units(range(1, 6), family):
            for chunk in unit:
                assert isinstance(chunk, _bulk.Chunk)
                assert chunk.rows.shape == (chunk.size, unit.n)
                assert (chunk.kappas is not None) == (family == "kappa")
                if family == "bipartite":
                    parts = {from_code(unit.n, int(code)).bipartition()[0] for code in chunk.codes}
                    assert parts == {chunk.r} == {unit.amask.bit_count()}
                else:
                    assert chunk.r is None

    @pytest.mark.parametrize("branch", ["thm41-upper", "conj44-lower", "thm31-upper", "thm32-upper"])
    def test_stream_batches(self, branch):
        lines = [emit_graph6(g) for n in (4, 5) for g in enumerate_graphs(n, "connected")]
        spec = BOUNDS[branch]
        chunks = list(search._stream_batches(read_stream(lines), {4, 5}, branch, spec.family))
        assert sum(chunk.size for chunk in chunks) == (19 + 195 if spec.family == "bipartite"
                                                       else 38 + 728)
        for chunk in chunks:
            n = chunk.rows.shape[1]
            assert isinstance(chunk, _bulk.Chunk) and n in (4, 5)
            assert chunk.rows.shape == (chunk.size, n)
            assert (chunk.kappas is not None) == (spec.family == "kappa")
            if spec.shape == "parts":
                parts = {from_code(n, int(code)).bipartition()[0] for code in chunk.codes}
                assert parts == {chunk.r}
            else:
                assert chunk.r is None


def evaluate_both(batches, bound_id, alphas, k=None):
    """Run the k-mask evaluator and the per-(alpha, k) reference on the same
    batches and return both accumulators."""
    branch_items = tuple(sorted(search._resolve_grid(bound_id, alphas).items()))
    batches = list(batches)
    new = search._evaluate(search._Accumulator(), batches, branch_items, k)
    ref = evaluate_reference(search._Accumulator(), batches, branch_items, k)
    return new, ref


def assert_same(new, ref):
    assert new.count == ref.count
    assert new.witness == ref.witness
    assert sorted(new.raw) == sorted(ref.raw)


class TestEvaluateMatchesReference:
    @pytest.mark.parametrize("alphas", [[-2, -1, -0.5], [0.25, 0.5, 0.75]], ids=["lower", "upper"])
    @pytest.mark.parametrize("k", [None, 2])
    def test_conj44_n5(self, alphas, k):
        new, ref = evaluate_both(search._Unit(5, "kappa"), "conj44", alphas, k)
        assert_same(new, ref)
        assert new.count == (728 if k is None else 702)
        assert {key[1] for key in new.witness} == ({1, 2, 3, 4} if k is None else {2})
        if alphas[0] < 0:
            assert new.raw

    def test_thm31_splits_n6(self):
        units = search._internal_units([6], "bipartite")
        assert len({unit.amask.bit_count() for unit in units}) > 1
        new, ref = evaluate_both(chain.from_iterable(units), "thm31", [-1, 0.5, 2])
        assert_same(new, ref)
        assert new.count == 3031

    @pytest.mark.parametrize("bound_id,alphas,k", [
        ("conj44", [-1, 0.5], None),
        ("conj44", [-2, 0.75], 2),
        ("thm41", [-1, 1], None),
        ("thm31", [-1, 2], None),
    ])
    def test_stream_with_repeats_and_isomorphs(self, bound_id, alphas, k):
        # every labeled copy of each connected graph on 4 and 5 vertices,
        # then some lines again: exact ties among distinct codes occur
        lines = [emit_graph6(g) for n in (4, 5) for g in enumerate_graphs(n, "connected")]
        lines += lines[::7]
        branch = search._resolve_grid(bound_id, alphas)[float(alphas[0])]
        batches = list(search._stream_batches(read_stream(lines), {4, 5}, branch,
                                              BOUNDS[branch].family))
        new, ref = evaluate_both(batches, bound_id, alphas, k)
        assert_same(new, ref)

    def test_exact_ties_pick_first_graph(self):
        lines = [emit_graph6(g) for g in enumerate_graphs(4, "connected")]
        (codes, rows, kappas, _), = search._stream_batches(read_stream(lines), {4}, "conj44-lower",
                                                           "kappa")
        n = rows.shape[1]
        vals = _bulk.power_sums(_bulk.q_eigs(rows, n), -1.0)
        new, _ = evaluate_both([_bulk.Chunk(codes, rows, kappas)], "conj44", [-1])
        ties = 0
        for k in range(1, n):
            members = np.flatnonzero(kappas <= k)
            best = vals[members].min()
            first = members[np.flatnonzero(vals[members] == best)[0]]
            ties += int(np.sum(vals[members] == best)) - 1
            assert new.witness[(n, k, "conj44-lower", -1.0)] == (best, int(codes[first]))
        assert ties > 0


def screened_vs_reference(monkeypatch, batches, bound_id, alphas, k=None):
    """Run the evaluator with a counting q_eigs, check it against the
    unscreened reference, and return (graphs counted, matrices solved)."""
    branch_items = tuple(sorted(search._resolve_grid(bound_id, alphas).items()))
    batches = list(batches)
    solved = []
    original = _bulk.q_eigs

    def counting(rows, n):
        solved.append(len(rows))
        return original(rows, n)

    monkeypatch.setattr(_bulk, "q_eigs", counting)
    new = search._evaluate(search._Accumulator(), batches, branch_items, k)
    monkeypatch.setattr(_bulk, "q_eigs", original)
    ref = evaluate_reference(search._Accumulator(), batches, branch_items, k)
    assert_same(new, ref)
    return new, sum(solved)


class TestMomentScreen:
    """On upper-only grids the moment screen solves few graphs and changes
    nothing: count, witnesses and candidates equal the unscreened reference."""

    @pytest.mark.parametrize("bound_id,alphas", [
        ("conj31", [1.5, 2, 3]),
        ("conj31", [1.25, 2.5, 4]),
        ("thm31", [0.25, 0.5, 1.5, 2.5, 3.5]),
    ])
    def test_bipartite_splits_n6(self, monkeypatch, bound_id, alphas):
        units = search._internal_units([6], "bipartite")
        new, solved = screened_vs_reference(monkeypatch, chain.from_iterable(units),
                                            bound_id, alphas)
        assert new.count == 3031 and solved < new.count

    @pytest.mark.parametrize("alphas", [[1, 2, 3], [0.5, 1.5, 2.5, 3.5]])
    def test_candidates_near_the_bound_survive(self, monkeypatch, alphas):
        # a bound 0.1% under the 90th percentile power sum of the connected
        # graphs on 6 vertices: the graphs at that percentile exceed it by a
        # hair, and the screen must pass them as candidates
        eigs = _bulk.q_eigs(_bulk.decode_rows(connected_population(6)[0], 6), 6)
        cut = {a: float(np.quantile(_bulk.power_sums(eigs, a), 0.9)) * (1 - 1e-3) for a in alphas}

        def bound(branch, alpha, n, k, r=None):
            return cut[alpha]

        monkeypatch.setattr(search, "_scalar_bound", bound)
        monkeypatch.setattr(conftest, "_scalar_bound", bound)
        new, solved = screened_vs_reference(monkeypatch, search._Unit(6, "connected"),
                                            "thm41", alphas)
        assert any(raw[5] < raw[6] * 1.01 for raw in new.raw) and solved < new.count

    def test_thm41_n5(self, monkeypatch):
        new, solved = screened_vs_reference(monkeypatch, search._Unit(5, "connected"),
                                            "thm41", [0.25, 0.5, 1, 2.5, 3.5])
        assert new.count == 728 and solved < new.count

    @pytest.mark.parametrize("bound_id,alphas", [
        ("thm43", [1, 1.5, 2.5, 4]),
        ("conj44", [0.25, 0.5, 0.75]),
    ])
    @pytest.mark.parametrize("k", [None, 2])
    def test_kappa_n6(self, monkeypatch, bound_id, alphas, k):
        new, solved = screened_vs_reference(monkeypatch, search._Unit(6, "kappa"),
                                            bound_id, alphas, k)
        assert new.count == (26704 if k is None else 24936) and solved < new.count

    @pytest.mark.parametrize("bound_id,alphas,k", [
        ("conj44", [0.25, 0.75], None),
        ("conj44", [0.5], 2),
        ("thm43", [1, 2.5], 2),
        ("thm41", [0.5, 3.5], None),
        ("thm31", [0.5, 2], None),
        ("conj31", [1.5, 3], None),
    ])
    def test_stream_with_repeats_and_isomorphs(self, monkeypatch, bound_id, alphas, k):
        lines = [emit_graph6(g) for n in (4, 5) for g in enumerate_graphs(n, "connected")]
        lines += lines[::7]
        branch = search._resolve_grid(bound_id, alphas)[float(alphas[0])]
        batches = search._stream_batches(read_stream(lines), {4, 5}, branch, BOUNDS[branch].family)
        new, solved = screened_vs_reference(monkeypatch, batches, bound_id, alphas, k)
        assert solved < new.count

    def test_mixed_grid_solves_every_graph(self, monkeypatch):
        new, solved = screened_vs_reference(monkeypatch, search._Unit(5, "kappa"),
                                            "conj44", [-1, 0.5])
        assert solved == new.count == 728


def screen_inputs(units, bound_id, alphas, k_fixed=None):
    """The arguments of search._moment_screen for every chunk of the units,
    built as _evaluate builds them."""
    branch_items = tuple(sorted(search._resolve_grid(bound_id, alphas).items()))
    alphas = [alpha for alpha, _ in branch_items]
    bipartite = BOUNDS[branch_items[0][1]].family == "bipartite"
    for codes, rows, kappas, r in chain.from_iterable(units):
        n = rows.shape[1]
        ks = [None] if kappas is None else list(range(1, n)) if k_fixed is None else [k_fixed]
        member = np.ones((len(codes), 1), bool) if kappas is None else kappas[:, None] <= ks
        live = member.any(axis=0)
        ks, member = [k for k, keep in zip(ks, live) if keep], member[:, live]
        if ks:
            bvals = np.array([[search._scalar_bound(branch, alpha, n, k, r=r) for k in ks]
                              for alpha, branch in branch_items])
            yield rows, n, member, alphas, bvals, bipartite


class TestScreenDecision:
    """The column-wise screen keeps the same graphs, and solves them to the
    same eigenvalues, as the (B, alpha, k) cube it replaced."""

    def assert_same_screen(self, cases):
        columns = []
        for args in cases:
            keep, eigs = search._moment_screen(*args)
            ref_keep, ref_eigs = moment_screen_reference(*args)
            assert keep.dtype == bool and np.array_equal(keep, ref_keep)
            assert np.array_equal(eigs, ref_eigs)
            columns.append(args[2].shape[1])
        return columns

    @pytest.mark.parametrize("alphas", [[1.5, 2, 3], [4, 5]])
    def test_conj31_chunks(self, alphas):
        columns = self.assert_same_screen(
            screen_inputs(search._internal_units(range(2, 8), "bipartite"), "conj31", alphas))
        assert len(columns) == sum(len(_bulk.bipartite_splits(n)) for n in range(2, 8))

    @pytest.mark.parametrize("bound_id,alphas", [("conj44", [0.25, 0.5, 0.75]),
                                                 ("thm43", [1, 1.5, 2.5, 4])])
    def test_kappa_chunks(self, bound_id, alphas):
        columns = self.assert_same_screen(
            screen_inputs(search._internal_units(range(2, 7), "kappa"), bound_id, alphas))
        assert max(columns) == 5  # k = 1..5 at n = 6


class TestWitnessEncoding:
    def test_one_string_per_witness_graph(self, monkeypatch):
        calls = []
        original = search.emit_code

        def counting(n, code):
            calls.append((n, code))
            return original(n, code)

        monkeypatch.setattr(search, "emit_code", counting)
        graphs = [g for n in range(5, 9) for g in [construct_gi(n, 1, 1), construct_gi(n, 2, 1)]]
        lines = [emit_graph6(g) for g in graphs]
        report = scan("conj44", range(2, 9), [-2, -1, 0.5], source=iter(lines))
        distinct = {(w.n, w.graph6) for w in report.extremal_witnesses}
        assert len(report.extremal_witnesses) > len(distinct)
        assert len(calls) <= len(distinct) + len({v.graph6 for v in report.violations})
        for w in report.extremal_witnesses:
            assert w.graph6 in lines
            assert w.graph6 == emit_graph6(parse_graph6(w.graph6))
            g = parse_graph6(w.graph6)
            assert w.value == pytest.approx(nonzero_power_sum(q_spectrum(g), w.alpha), rel=1e-9)


def run_traced(body: str) -> list[int]:
    """Run body in a fresh interpreter under the benchmark's tracer (which
    wraps qpow functions by module-attribute name) and return the integers it
    prints."""
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'perfbench')!r}, {str(root / 'src')!r}]\n"
        "import tracer\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t)\n"
        "import qpow.search as search\n"
    ) + body
    env = dict(os.environ)
    env.pop("QPOW_THREADS", None)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return list(map(int, done.stdout.split()))


class TestConnectedCache:
    def test_warm_cache_gives_cold_bytes(self, monkeypatch):
        # a private cache, so the session's cached n = 7 population survives;
        # a thm41 scan served from the kappa cache must see kappas=None, or
        # the evaluator would scan it as a kappa family
        monkeypatch.setattr(_bulk, "_connected_cache", {})
        runs = [("thm41", [-1, 0.5, 2]), ("conj44", [-1, 0.5])]
        cold = []
        for bound_id, grid in runs:
            _bulk.clear_caches()
            cold.append(scan(bound_id, [5], grid, threads=1).to_json(redact_timing=True))
        _bulk.clear_caches()
        for _ in _bulk.connected_chunks(5, True):
            pass
        assert _bulk._connected_cache[5].size == 728
        warm = [scan(bound_id, [5], grid, threads=1).to_json(redact_timing=True)
                for bound_id, grid in runs]
        assert warm == cold
        chunks = list(_bulk.connected_chunks(5, False))
        assert all(chunk.kappas is None for chunk in chunks)
        assert sum(chunk.size for chunk in chunks) == 728
        for chunk in _bulk.connected_chunks(5, True):
            np.testing.assert_array_equal(chunk.rows, _bulk.decode_rows(chunk.codes, 5))
            np.testing.assert_array_equal(chunk.kappas, _bulk.kappa_batch(chunk.rows, 5))


def relabeled_power_sums(n, r, alphas):
    """(rows, vals) for the shape (r, n - r): per split of the shape, the rows
    of the relabelings of the canonical split's connected graphs, and per
    alpha their LAPACK power sums, shape (splits, graphs).  Both are in
    canonical order, and split 0 is the canonical split."""
    canonical = np.concatenate([c.codes for c in _bulk.split_connected_codes(n, (1 << r) - 1)])
    rows = []
    for amask in _bulk.bipartite_splits(n):
        if amask.bit_count() == r:
            codes, split_rows, _, _ = _bulk.split_relabelings(n, amask, canonical)
            weights = _bulk._split_weights(n, amask)
            # each graph's canonical code, from its code's cross edges
            xs = ((codes[:, None] & weights[:, 0]) != 0) @ weights[:, -1]
            order = np.argsort(xs)
            assert np.array_equal(xs[order], canonical)
            rows.append(split_rows[order])
    eigs = [_bulk.q_eigs(split_rows, n) for split_rows in rows]
    return rows, {alpha: np.array([_bulk.power_sums(e, alpha) for e in eigs]) for alpha in alphas}


class TestShapeScreen:
    """A bipartite scan screens each part-size shape once, on its canonical
    split (by trace moments on an upper-only grid, by exact spectra on any
    grid with a lower bound), and solves each split's relabeled survivors."""

    @pytest.mark.parametrize("bound_id,alphas", [
        ("conj31", [1.5, 2, 3]),
        ("conj31", [4, 5]),
        ("thm31", [0.5, 2, 4]),
        ("thm32", [0.25, 0.5, 1]),
        ("thm31", [-1, 0.5, 2]),
        ("thm32", [-2, -0.5]),
        ("thm32", [-1, 0.5, 1]),
    ])
    def test_matches_unscreened_splits(self, bound_id, alphas):
        branch_items = tuple(sorted(search._resolve_grid(bound_id, alphas).items()))
        raws = 0
        for n in range(2, 8):
            new = search._evaluate_splits(search._Accumulator(), n, branch_items)
            ref = evaluate_reference(search._Accumulator(),
                                     chain.from_iterable(search._internal_units([n], "bipartite")),
                                     branch_items, None)
            assert_same(new, ref)
            assert new.count == [1, 3, 19, 195, 3031, 67263][n - 2]
            raws += len(new.raw)
        assert (raws > 0) == (bound_id == "conj31" and alphas[0] > 3)

    def test_relabeling_rounding_far_inside_tol_eq(self):
        # every graph of every split is a relabeling of a canonical graph of
        # its shape: LAPACK's power sums of the two differ by rounding only,
        # and that must stay far inside the tol_eq band the screen leaves
        tol = np.vectorize(tol_eq, otypes=[float])
        worst = 0.0
        for n in range(2, 8):
            for r in range(1, n):
                _, vals = relabeled_power_sums(n, r, [-2.0, -1.0, 0.5, 2.0])
                for v in vals.values():
                    worst = max(worst, float(np.max(np.abs(v - v[0]) / tol(v[0]))))
        assert worst * 1e3 <= 1.0

    def test_witness_band_keeps_rounding_copies(self):
        # the copies of one graph on the splits of its shape tie up to
        # rounding, so the exact screen keeps every one of them as an extreme
        n, r, alpha = 6, 3, -1.0
        rows, vals = relabeled_power_sums(n, r, [alpha])
        g = int(np.argmax(np.ptp(vals[alpha], axis=0)))
        assert np.ptp(vals[alpha][:, g]) > 0
        branch_items = tuple(sorted(search._resolve_grid("thm32", [alpha]).items()))
        copies = np.stack([split_rows[g] for split_rows in rows])
        # a bound of 0 makes no candidate, so only the witness band keeps them
        assert search._exact_screen(copies, n, branch_items, np.zeros((1, 1))).all()

    def test_candidate_band_keeps_rounding_copies(self, monkeypatch):
        # a planted bound whose candidate threshold b - tol_eq(b) lies between
        # a graph's canonical power sum and a lower rounding of one of its
        # relabelings: that copy is a candidate in its split, so the screen
        # must keep the graph although its canonical margin is above -tol_eq(b)
        n, r, alpha = 6, 3, -1.0
        _, vals = relabeled_power_sums(n, r, [alpha])
        v = vals[alpha]
        g = int(np.argmax(v[0] - v.min(axis=0)))
        low, canonical = float(v[:, g].min()), float(v[0, g])
        b = (low + canonical) / 2 / (1 - TOL_EQ_SCALE)
        assert low < b - tol_eq(b) < canonical

        def bound(branch, alpha, n, k, r=None):
            return b

        monkeypatch.setattr(search, "_scalar_bound", bound)
        monkeypatch.setattr(conftest, "_scalar_bound", bound)
        branch_items = tuple(sorted(search._resolve_grid("thm32", [alpha]).items()))
        new = search._evaluate_splits(search._Accumulator(), n, branch_items)
        ref = evaluate_reference(search._Accumulator(),
                                 chain.from_iterable(search._internal_units([n], "bipartite")),
                                 branch_items, None)
        assert_same(new, ref)
        assert low in {raw[5] for raw in new.raw}

    def test_one_screen_per_shape(self, monkeypatch):
        calls = []
        original = search._moment_screen

        def counting(rows, n, *args):
            calls.append(n)
            return original(rows, n, *args)

        monkeypatch.setattr(search, "_moment_screen", counting)
        scan("conj31", range(2, 8), [1.5, 2, 3], threads=1)
        assert sorted(calls) == [n for n in range(2, 8) for _ in range(1, n)]

    def test_grid_change_in_one_process(self):
        # survivors depend on the grid, so they must not outlive a scan
        _bulk.clear_caches()
        cold = scan("conj31", range(2, 9), [4], threads=1).to_json(redact_timing=True)
        _bulk.clear_caches()
        scan("conj31", range(2, 9), [1.5, 2, 3], threads=1)
        warm = scan("conj31", range(2, 9), [4], threads=1)
        assert len(warm.violations) == 56
        assert warm.to_json(redact_timing=True) == cold

    def test_n9_census(self):
        assert scan("conj31", [9], [2.0], threads=1).graphs_scanned == 89_224_635  # A001832

    def test_n9_lower_census(self):
        # a lower grid solves the 1,490,420 canonical graphs, in four chunks
        # for each of the shapes (4, 5) and (5, 4)
        assert scan("thm32", [9], [-1.0], threads=1).graphs_scanned == 89_224_635  # A001832


class TestBenchHooks:
    def test_traced_kappa_scan_decodes_once(self):
        # one decode per n, by the connectivity filter; the kappa sweep and
        # the evaluator reuse its rows
        decodes, codes, kappas = run_traced(
            "search.scan('conj44', range(2, 5), [-1, 0.5], threads=1)\n"
            "print(t.calls['bulk.decode_rows'], t.counts['bulk.enum.codes'],"
            " t.counts['bulk.kappa_batch.graphs'])\n"
        )
        assert (decodes, codes, kappas) == (3, 2 + 8 + 64, 1 + 4 + 38)

    def test_traced_bipartite_scan_counts_splits(self):
        # an upper-only grid enumerates the canonical split of each part-size
        # shape (r, n - r) only: every cross-edge subset of it, and its
        # connected graphs, one per isomorph class of labeled graph per shape
        codes, kept = run_traced(
            "search.scan('conj31', range(2, 7), [2.0], threads=1)\n"
            "print(t.counts['bulk.enum.codes'], t.counts['bulk.enum.kept'])\n"
        )
        assert codes == sum(1 << (r * (n - r)) for n in range(2, 7) for r in range(1, n))
        assert (codes, kept) == (1290, 387)

    def test_traced_lower_bipartite_scan_counts_splits(self):
        # a lower-bound grid also enumerates the canonical split of each
        # part-size shape only, as the upper-only twin above does
        codes, kept = run_traced(
            "search.scan('thm32', range(2, 7), [-1.0], threads=1)\n"
            "print(t.counts['bulk.enum.codes'], t.counts['bulk.enum.kept'])\n"
        )
        assert (codes, kept) == (1290, 387)

    def test_traced_bipartite_enumeration_counts_splits(self):
        # enumerate_graphs walks every cross-edge subset of every split, and
        # the connected ones are the labeled connected bipartite graphs (A001832)
        codes, kept = run_traced(
            "for n in range(2, 7):\n"
            "    for _ in search.enumerate_graphs(n, 'connected-bipartite'):\n"
            "        pass\n"
            "print(t.counts['bulk.enum.codes'], t.counts['bulk.enum.kept'])\n"
        )
        assert (codes, kept) == (9966, 1 + 3 + 19 + 195 + 3031)

    def test_traced_conj31_scan_solves_few_matrices(self):
        # the moment screen runs on the 4,401 graphs of the 21 canonical
        # splits and keeps one per shape; each of the 120 splits then solves
        # that graph's relabeling: 141 of the 70,512 graphs reach LAPACK
        matrices, kept = run_traced(
            "search.scan('conj31', range(2, 8), [1.5, 2, 3], threads=1)\n"
            "print(t.counts['bulk.q_eigs.matrices'], t.counts['bulk.enum.kept'])\n"
        )
        assert (matrices, kept) == (141, 4401)

    def test_traced_scan_counts_scalar_bound(self):
        scalar, connectivity, scans = run_traced(
            "search.scan('conj44', range(2, 5), [-1, 0.5], threads=1)\n"
            "print(t.calls['search.scalar_bound'], t.calls['bounds.connectivity_bound'],"
            " t.calls['search.scan'])\n"
        )
        assert scalar > 0 and connectivity > 0 and scans == 1

    def test_traced_stream_scan_counts_connectivity(self):
        # the closed forms are looked up by name, so the wrapped connectivity_bound
        # runs once per distinct argument behind the bound_value cache
        graphs = [construct_gi(n, k, 1) for n in range(5, 9) for k in (1, 2)]
        lines = [emit_graph6(g) for g in graphs] * 2
        kappa, scalar, bound, distinct = run_traced(
            "for _ in range(2):\n"
            f"    search.scan('conj44', range(2, 9), [-1, 0.5], source=iter({lines!r}))\n"
            "print(t.calls['connectivity.vertex_connectivity'], t.calls['search.scalar_bound'],"
            " t.calls['bounds.connectivity_bound'],"
            " len(t.distinct['bounds.connectivity_bound']))\n"
        )
        assert kappa >= 2 * len(lines)
        assert 0 < bound == distinct and scalar == 2 * distinct
