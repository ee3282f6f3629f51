"""Independent oracle and output checks for the qpow benchmark.

Nothing here imports qpow.  Q, L and A matrices are built from edge lists by
this module, spectra come from LAPACK through scipy, vertex connectivity from
networkx, and every bound from the spectrum of the extremal graph built here
(K_k v (K_1 u K_{n-k-1}) for the connectivity bounds).  The constants restate
the package's documented conventions and the OEIS census counts.

A graph is a pair (n, edges) with edges a tuple of (i, j), i < j.
"""

from __future__ import annotations

import functools
from itertools import combinations

import networkx as nx
import numpy as np
import scipy.linalg

ZERO_SCALE = 1e-8  # eigenvalues <= ZERO_SCALE * max(1, largest) count as zero
TOL_EQ = 1e-7  # equality tolerance of a bound b: TOL_EQ * max(1, |b|)
NEAR = 4  # a margin within NEAR tolerances of zero may be reported or not
REL = 1e-8  # reported values must match the oracle to this relative error

# labeled connected graphs (OEIS A001187) and labeled connected bipartite
# graphs (OEIS A001832), indexed by n
A001187 = (0, 1, 1, 4, 38, 728, 26704, 1866256)
A001832 = (0, 1, 1, 3, 19, 195, 3031, 67263, 2086099)


def pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in graph6 bit order (upper triangle, column by column)."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def g6_encode(n: int, edges) -> str:
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if p in present else 0 for p in pairs(n)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[i:i + 6])), 2)) for i in range(0, len(bits), 6))
    return chr(63 + n) + body


def g6_decode(text: str) -> tuple[int, tuple]:
    n = ord(text[0]) - 63
    bits = "".join(format(ord(c) - 63, "06b") for c in text[1:])
    return n, tuple(p for p, b in zip(pairs(n), bits) if b == "1")


def tol(bound: float) -> float:
    return TOL_EQ * max(1.0, abs(bound))


def close(got: float, want: float, scale: float | None = None) -> bool:
    ref = abs(want) if scale is None else abs(scale)
    return abs(got - want) <= REL * max(1.0, ref)


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def eigs(n: int, edges, matrix: str = "Q") -> np.ndarray:
    a = adjacency(n, edges)
    d = np.diag(a.sum(axis=1))
    m = {"Q": d + a, "L": d - a, "A": a}[matrix]
    return scipy.linalg.eigvalsh(m)


def nonzero(values: np.ndarray) -> np.ndarray:
    return values[values > ZERO_SCALE * max(1.0, float(values.max()))]


def power_sum(values: np.ndarray, alpha: float) -> float:
    return float(np.sum(nonzero(values) ** alpha))


def to_nx(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def connected(n: int, edges) -> bool:
    return nx.is_connected(to_nx(n, edges))


def kappa(n: int, edges) -> int:
    return nx.node_connectivity(to_nx(n, edges))


def parts(n: int, edges) -> tuple[int, int] | None:
    """Part sizes of a connected bipartite graph, None if it is not bipartite."""
    g = to_nx(n, edges)
    if not nx.is_bipartite(g):
        return None
    a, b = nx.bipartite.sets(g)
    return len(a), len(b)


def complete_edges(n: int, offset: int = 0) -> list[tuple[int, int]]:
    return [(offset + i, offset + j) for i, j in combinations(range(n), 2)]


def complete_bipartite_edges(r: int, s: int) -> list[tuple[int, int]]:
    return [(i, r + j) for i in range(r) for j in range(s)]


def gi1_edges(n: int, k: int) -> list[tuple[int, int]]:
    """K_k v (K_1 u K_{n-k-1}): clique 0..k-1 joined to everything, vertex k
    alone and clique k+1..n-1 on the other side."""
    edges = complete_edges(k) + complete_edges(n - k - 1, offset=k + 1)
    edges += [(i, j) for i in range(k) for j in range(k, n)]
    return edges


@functools.cache
def bound(branch: str, alpha: float, n: int, k: int | None = None,
          r: int | None = None, s: int | None = None) -> float:
    """The bound of a branch id, as the power sum of its extremal graph."""
    family = branch.split("-")[0]
    if family == "thm31":
        return power_sum(eigs(r + s, complete_bipartite_edges(r, s)), alpha)
    if family in ("thm32", "conj31"):
        return power_sum(eigs(n, complete_bipartite_edges(n // 2, (n + 1) // 2)), alpha)
    if family == "thm41":
        return power_sum(eigs(n, complete_edges(n)), alpha)
    return power_sum(eigs(n, gi1_edges(n, k)), alpha)


def upper(branch: str) -> bool:
    return branch.endswith("-upper")


def margin(branch: str, value: float, b: float) -> float:
    """Sign-adjusted slack: negative means the bound is violated."""
    return b - value if upper(branch) else value - b


def conj44_branch(alpha: float) -> str:
    return "conj44-upper" if alpha > 0 else "conj44-lower"


# --- expected scan results ------------------------------------------------

def kappa_population(graphs, alphas, n_max: int) -> dict:
    """Expected conj44 scan over (n, edges) graphs: the connected graphs with
    2 <= n <= n_max, each in the kappa <= k population for k = kappa..n-1.

    violations maps (graph6, k, alpha, branch) to the margin in tolerances,
    for every margin below NEAR tolerances; witnesses maps (n, k, alpha) to
    the extreme power sum.
    """
    count = 0
    violations: dict[tuple, float] = {}
    witnesses: dict[tuple, float] = {}
    for n, edges in graphs:
        if not 2 <= n <= n_max or not connected(n, edges):
            continue
        count += 1
        kap = kappa(n, edges)
        q = eigs(n, edges)
        g6 = g6_encode(n, edges)
        for alpha in alphas:
            branch = conj44_branch(alpha)
            value = power_sum(q, alpha)
            for k in range(kap, n):
                b = bound(branch, alpha, n, k)
                m = margin(branch, value, b) / tol(b)
                if m < NEAR:
                    violations[(g6, k, alpha, branch)] = m
                key = (n, k, alpha)
                best = witnesses.get(key)
                if best is None or (value > best if upper(branch) else value < best):
                    witnesses[key] = value
    return {"graphs_scanned": count, "violations": violations, "witnesses": witnesses}


def expected_to_json(expected: dict, **params) -> dict:
    return {
        **params,
        "graphs_scanned": expected["graphs_scanned"],
        "violations": [[*key, m] for key, m in sorted(expected["violations"].items(),
                                                      key=lambda kv: repr(kv[0]))],
        "witnesses": [[*key, v] for key, v in sorted(expected["witnesses"].items(),
                                                     key=lambda kv: repr(kv[0]))],
    }


def expected_from_json(doc: dict) -> dict:
    return {
        "graphs_scanned": doc["graphs_scanned"],
        "violations": {tuple(row[:4]): row[4] for row in doc["violations"]},
        "witnesses": {tuple(row[:3]): row[3] for row in doc["witnesses"]},
    }


# --- checks ---------------------------------------------------------------

def check_scan(report: dict, expected: dict, family: str) -> list[str]:
    """Errors in a scan report (ScanReport.to_json as a dict) against the
    expected population result, recomputing every record and witness."""
    # one graph is often the record or witness of many (k, alpha) keys
    eigs_of, kappa_of, connected_of = (functools.cache(f) for f in (eigs, kappa, connected))
    errors = []
    if report["graphs_scanned"] != expected["graphs_scanned"]:
        errors.append(f"graphs_scanned {report['graphs_scanned']} != {expected['graphs_scanned']}")
    seen = set()
    for v in report["violations"]:
        key = (v["graph6"], v["k"], v["alpha"], v["bound_id"])
        where = f"violation {key}"
        if key in seen:
            errors.append(f"{where}: reported twice")
        seen.add(key)
        if key not in expected["violations"]:
            errors.append(f"{where}: not a violation of the reference population")
        n, edges = g6_decode(v["graph6"])
        if n != v["n"] or not connected_of(n, edges):
            errors.append(f"{where}: graph not in the population")
            continue
        if family == "conj44":
            if kappa_of(n, edges) > v["k"]:
                errors.append(f"{where}: connectivity exceeds k")
            b = bound(v["bound_id"], v["alpha"], n, v["k"])
        else:
            b = bound(v["bound_id"], v["alpha"], n)
        value = power_sum(eigs_of(n, edges), v["alpha"])
        m = margin(v["bound_id"], value, b)
        if not (close(v["invariant_value"], value) and close(v["bound_value"], b)
                and close(v["margin"], m, scale=b)):
            errors.append(f"{where}: values {v['invariant_value']}, {v['bound_value']}, "
                          f"{v['margin']} != oracle {value}, {b}, {m}")
        if m >= NEAR * tol(b):
            errors.append(f"{where}: oracle margin {m} is not a violation")
    for key, m in expected["violations"].items():
        if m < -NEAR and key not in seen:
            errors.append(f"violation {key} (margin {m:.3g} tolerances) missing from the report")
    got = {(w["n"], w["k"], w["alpha"]): w for w in report["extremal_witnesses"]}
    if set(got) != set(expected["witnesses"]):
        errors.append(f"witness keys differ: {sorted(set(got) ^ set(expected['witnesses']), key=repr)[:5]}")
    for key, w in got.items():
        want = expected["witnesses"].get(key)
        n, edges = g6_decode(w["graph6"])
        in_population = n == key[0] and connected_of(n, edges) and (
            kappa_of(n, edges) <= key[1] if family == "conj44" else parts(n, edges) is not None)
        if not in_population:
            errors.append(f"witness {key}: {w['graph6']} is not in the population")
            continue
        value = power_sum(eigs_of(n, edges), key[2])
        if want is None or not (close(w["value"], want) and close(w["value"], value)):
            errors.append(f"witness {key}: value {w['value']} != oracle extreme {want} / own {value}")
        if family == "conj31":
            floor = bound("conj31-upper", key[2], n)
            if w["value"] < floor - tol(floor):
                errors.append(f"witness {key}: {w['value']} below the value {floor} at K_(n/2,n/2)")
    return errors


def check_api(calls: list[dict], results: list) -> list[str]:
    """Errors in single-graph results against the oracle and the trace
    identities S_1 = 2m, E_L = S_2 = M1 + 2m and IE = S_{1/2}."""
    errors = []
    if len(results) != len(calls):
        return [f"{len(results)} results for {len(calls)} calls"]
    for i, (call, res) in enumerate(zip(calls, results)):
        n, edges = g6_decode(call["g6"])
        m = len(edges)
        q = eigs(n, edges)
        where = f"call {i} {call['op']} on {call['g6']}"
        if res is None:  # a failed call, counted as such
            continue
        if call["op"] == "power_sum":
            alpha = call["alpha"]
            want = power_sum(q, alpha)
            if not close(res, want):
                errors.append(f"{where} alpha={alpha}: {res} != oracle {want}")
            if alpha == 1.0 and not close(res, 2.0 * m):
                errors.append(f"{where}: S_1 {res} != 2m = {2 * m}")
        elif call["op"] == "check_bound":
            branch, alpha, k = call["bound_id"], call["alpha"], call["k"]
            if branch.startswith("thm31"):
                r, s = parts(n, edges)
                b = bound(branch, alpha, n, r=r, s=s)
            else:
                b = bound(branch, alpha, n, k)
            value = power_sum(q, alpha)
            slack = margin(branch, value, b)
            if not (res["applicable"] and close(res["invariant_value"], value)
                    and close(res["bound_value"], b) and close(res["slack"], slack, scale=b)):
                errors.append(f"{where} {branch} alpha={alpha}: {res} != oracle "
                              f"value {value}, bound {b}, slack {slack}")
        else:
            lap = eigs(n, edges, "L")
            lnz = nonzero(lap)
            degrees = adjacency(n, edges).sum(axis=1)
            m1 = float(np.sum(degrees ** 2))
            want = {
                "m": m,
                "IE": power_sum(q, 0.5),  # IE = S_{1/2}
                "LEL": float(np.sum(np.sqrt(lnz))),
                "Kf": float(n * np.sum(1.0 / lnz)),
                "E_L": float(np.sum(lap ** 2)),
                "E": float(np.sum(np.abs(eigs(n, edges, "A")))),
                "M1": m1,
            }
            bad = [f"{key} {res[key]} != {val}" for key, val in want.items() if not close(res[key], val)]
            s2 = power_sum(q, 2.0)
            if not (close(res["E_L"], s2) and close(s2, res["M1"] + 2.0 * m)):
                bad.append(f"E_L {res['E_L']}, S_2 {s2}, M1 + 2m {res['M1'] + 2 * m} differ")
            if bad:
                errors.append(f"{where}: " + "; ".join(bad))
    return errors
