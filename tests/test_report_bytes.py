"""Report-bytes pins: the sha256 prefix of the redacted ScanReport.to_json of
the acceptance scans that finish within a few seconds each.

A change to the scan's internals (screens, batching, relabeling, grouping)
must leave these bytes as they are.  The pins were taken with numpy 2.4.6
(its OpenBLAS 0.3.31 LAPACK), Python 3.11.7, on an x86-64 Intel Xeon; the
witness values are rounded to 12 significant digits, but another LAPACK
build may still round a value across that digit and move a pin.
"""

import hashlib

import pytest

from qpow.search import scan

BENCH_GRID = [-2, -1, -0.5, 0.25, 0.5, 0.75]
N8 = range(2, 9)

PINS = [
    # the bipartite grids over n <= 8
    ("thm31", range(2, 8), [-1, 0.5, 2], "ef5ed4226430"),
    ("thm32", range(2, 8), [-1, 0.5, 1], "1425d606d0fc"),
    ("thm32", N8, [-1, 0.5, 1], "463d3fd35d5c"),
    ("thm31", N8, [-1, 0.5, 2], "01f36503c708"),
    ("thm32", N8, [-1], "ab16860a5994"),
    ("conj31", N8, [1.5, 2, 3], "894e2ed71a2b"),
    ("conj31", N8, [4], "fcdb541f9b86"),
    ("conj31", N8, [5], "3eec6ee35d75"),
    ("conj31", N8, [1.25, 2.5, 3.5, 4.5], "7d8fd1a3f4ea"),
    ("thm31", N8, [0.5, 2, 4], "53692ae88553"),
    ("thm32", N8, [0.25, 0.5, 1], "aa96b9056133"),
    # the bipartite grids at n = 9
    ("conj31", [9], [1.5, 2, 3], "2296417a0968"),
    ("conj31", [9], [4], "d71f0d1e4134"),
    ("conj31", [9], [5], "4605805fc50a"),
    ("thm32", [9], [-1, 0.5, 1], "8e1f3853e8aa"),
    # the connectivity families
    ("thm43", range(2, 8), [1, 2, 3], "a21fa66dc167"),
    ("conj44", range(2, 7), BENCH_GRID, "369563e0c6b1"),
]


@pytest.mark.parametrize(
    "bound_id,ns,grid,pin", PINS,
    ids=[f"{b}-n{min(ns)}..{max(ns)}-{'_'.join(map(str, g))}" for b, ns, g, _ in PINS],
)
def test_redacted_report_bytes(bound_id, ns, grid, pin):
    report = scan(bound_id, ns, grid, threads=1).to_json(redact_timing=True)
    assert hashlib.sha256(report.encode()).hexdigest()[:12] == pin
