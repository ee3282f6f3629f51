"""Build the reference results of the two exhaustive scan workloads by brute
force, without qpow.

    python3 perfbench/reference.py            # both files, about a minute
    python3 perfbench/reference.py conj44-n6  # one of them

conj44-n6 walks every labeled graph on 2..6 vertices through the oracle
(networkx connectivity, scipy spectra).  conj31-n8 enumerates every 2-coloring
with every set of cross edges in numpy batches; such a graph is connected
exactly when its signless Laplacian has one zero eigenvalue, because each
bipartite component contributes one.  Both check the labeled census (OEIS
A001187, A001832) before writing perfbench/reference/<workload>.json.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import combinations

import numpy as np

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
CONJ44_N6 = {"n_max": 6, "alphas": [-2.0, -1.0, -0.5, 0.25, 0.5, 0.75]}
CONJ31_N8 = {"n_max": 8, "alphas": [1.5, 2.0, 3.0]}
BATCH = 1 << 15


def reference_path(workload: str) -> str:
    return os.path.join(HERE, "reference", f"{workload}.json")


def all_graphs(n: int):
    ps = oracle.pairs(n)
    for code in range(1 << len(ps)):
        yield n, tuple(p for b, p in enumerate(ps) if (code >> b) & 1)


def conj44_n6() -> dict:
    n_max, alphas = CONJ44_N6["n_max"], CONJ44_N6["alphas"]
    graphs = (g for n in range(2, n_max + 1) for g in all_graphs(n))
    expected = oracle.kappa_population(graphs, alphas, n_max)
    census = sum(oracle.A001187[2:n_max + 1])
    if expected["graphs_scanned"] != census:
        raise SystemExit(f"conj44-n6: {expected['graphs_scanned']} connected graphs, A001187 gives {census}")
    return oracle.expected_to_json(expected, **CONJ44_N6)


def conj31_n8() -> dict:
    n_max, alphas = CONJ31_N8["n_max"], CONJ31_N8["alphas"]
    count = 0
    violations: dict[tuple, float] = {}
    witnesses: dict[tuple, float] = {}
    for n in range(2, n_max + 1):
        found = 0
        bounds = {a: oracle.bound("conj31-upper", a, n) for a in alphas}
        rest = range(1, n)
        for size in range(0, n - 1):
            for others in combinations(rest, size):
                side = {0, *others}
                cross = [(i, j) for i, j in oracle.pairs(n) if (i in side) != (j in side)]
                total = 1 << len(cross)
                for lo in range(0, total, BATCH):
                    local = np.arange(lo, min(lo + BATCH, total), dtype=np.int64)
                    bits = (local[:, None] >> np.arange(len(cross))) & 1
                    adj = np.zeros((local.size, n, n))
                    for c, (i, j) in enumerate(cross):
                        adj[:, i, j] = adj[:, j, i] = bits[:, c]
                    q = adj.copy()
                    q[:, range(n), range(n)] = adj.sum(axis=2)
                    ev = np.linalg.eigvalsh(q)
                    zero = ev <= oracle.ZERO_SCALE * np.maximum(ev[:, -1:], 1.0)
                    keep = zero.sum(axis=1) == 1
                    found += int(keep.sum())
                    ev, zero, bits = ev[keep], zero[keep], bits[keep]
                    for a in alphas:
                        vals = np.where(zero, 0.0, np.where(zero, 1.0, ev) ** a).sum(axis=1)
                        best = float(vals.max())
                        if best > witnesses.get((n, None, a), -np.inf):
                            witnesses[(n, None, a)] = best
                        b = bounds[a]
                        m = (b - vals) / oracle.tol(b)
                        for idx in np.flatnonzero(m < oracle.NEAR):
                            edges = [cross[c] for c in np.flatnonzero(bits[idx])]
                            violations[(oracle.g6_encode(n, edges), None, a, "conj31-upper")] = float(m[idx])
        if found != oracle.A001832[n]:
            raise SystemExit(f"conj31-n8: {found} connected bipartite graphs on {n} vertices, "
                             f"A001832 gives {oracle.A001832[n]}")
        count += found
    expected = {"graphs_scanned": count, "violations": violations, "witnesses": witnesses}
    return oracle.expected_to_json(expected, **CONJ31_N8)


def dumps_rows(doc: dict) -> str:
    """JSON with one violation or witness row per line."""
    head = {k: v for k, v in doc.items() if k not in ("violations", "witnesses")}
    body = ",\n".join(
        f"{json.dumps(key)}: [\n" + ",\n".join(json.dumps(row) for row in doc[key]) + "\n]"
        for key in ("violations", "witnesses")
    )
    return json.dumps(head)[:-1] + ",\n" + body + "}\n"


REFERENCES = {"conj44-n6": conj44_n6, "conj31-n8": conj31_n8}


def main(argv: list[str]) -> int:
    for workload in argv or list(REFERENCES):
        doc = REFERENCES[workload]()
        os.makedirs(os.path.dirname(reference_path(workload)), exist_ok=True)
        with open(reference_path(workload), "w", encoding="ascii") as fh:
            fh.write(dumps_rows(doc))
        clear = sum(1 for row in doc["violations"] if row[4] < -oracle.NEAR)
        print(f"{workload}: {doc['graphs_scanned']} graphs, {clear} violations, "
              f"{len(doc['violations']) - clear} near the boundary")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
