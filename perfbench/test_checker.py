"""The benchmark's checker accepts real qpow output and rejects planted faults.

    python3 perfbench/test_checker.py

Each test takes a small output of qpow (imported from src/), checks that the
oracle accepts it, plants one fault and checks that the oracle rejects it.
"""

from __future__ import annotations

import copy
import json
import os
import random
import sys
import unittest
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qpow  # noqa: E402

import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

N_MAX = 4
ALPHAS = reference.CONJ44_N6["alphas"]


class ScanChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        report = qpow.scan("conj44", range(2, N_MAX + 1), ALPHAS, threads=1)
        cls.report = json.loads(report.to_json(redact_timing=True))
        graphs = [g for n in range(2, N_MAX + 1) for g in reference.all_graphs(n)]
        cls.expected = oracle.kappa_population(graphs, ALPHAS, N_MAX)

    def check(self, report):
        return oracle.check_scan(report, self.expected, "conj44")

    def test_real_report_passes(self):
        self.assertEqual(self.check(self.report), [])
        self.assertGreater(len(self.report["violations"]), 0)

    def test_dropped_violation_is_rejected(self):
        bad = copy.deepcopy(self.report)
        dropped = bad["violations"].pop(0)
        errors = self.check(bad)
        self.assertTrue(any(dropped["graph6"] in e and "missing" in e for e in errors), errors)

    def test_off_by_one_graphs_scanned_is_rejected(self):
        bad = copy.deepcopy(self.report)
        bad["graphs_scanned"] += 1
        self.assertTrue(any("graphs_scanned" in e for e in self.check(bad)))

    def test_perturbed_power_sum_in_a_record_is_rejected(self):
        bad = copy.deepcopy(self.report)
        bad["violations"][0]["invariant_value"] *= 1 + 1e-6
        self.assertTrue(any("oracle" in e for e in self.check(bad)))


class ApiChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.calls = run.api_calls(random.Random(7))[:60]
        results = []
        for call in cls.calls:
            g = qpow.parse_graph6(call["g6"])
            if call["op"] == "power_sum":
                results.append(qpow.signless_power_sum(g, call["alpha"]))
            elif call["op"] == "check_bound":
                results.append(asdict(qpow.check_bound(g, call["bound_id"], call["alpha"], k=call["k"])))
            else:
                results.append(asdict(qpow.named_invariants(g)))
        cls.results = results

    def test_real_results_pass(self):
        self.assertEqual(oracle.check_api(self.calls, self.results), [])

    def test_perturbed_power_sum_is_rejected(self):
        bad = copy.deepcopy(self.results)
        i = next(i for i, c in enumerate(self.calls) if c["op"] == "power_sum")
        bad[i] *= 1 + 1e-6
        errors = oracle.check_api(self.calls, bad)
        self.assertEqual(len(errors), 1)
        self.assertIn(f"call {i} power_sum", errors[0])


if __name__ == "__main__":
    unittest.main()
