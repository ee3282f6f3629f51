"""Exhaustive small-graph enumeration and conjecture-falsification scans.

Enumeration is labeled (no isomorphism reduction): bound checks are unaffected
by duplicate isomorphs and labeled populations have independently known
census counts to validate against.  Scans evaluate a bound over a whole
population, collect per-(n, k, alpha) extremal witnesses, and re-verify every
candidate violation through the slower independent route (Jacobi eigensolver
at tightened tolerance, flow-based connectivity) before it is reported.
Re-verification computes those slow facts once per distinct candidate graph
and then checks each candidate record against its graph's facts in canonical
order.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from . import _bulk
from .bounds import (
    BOUNDS,
    balanced_bipartite_bound,
    complete_bipartite_bound,
    complete_graph_bound,
    connectivity_bound,
    resolve_bound_id,
)
from .connectivity import vertex_connectivity
from .graph6 import emit_code, read_stream
from .graphs import Graph, from_code
from .invariants import nonzero_power_sum
from .spectra import q_spectrum
from .verify import tol_eq

INTERNAL_ENUM_CAP = 9
REVERIFY_CONV_SCALE = 1e-14  # Jacobi convergence for re-verification (100x tighter)


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


@dataclass(frozen=True)
class ViolationRecord:
    """A re-verified failure of a claimed inequality on one graph."""

    graph6: str
    n: int
    k: Optional[int]
    alpha: float
    bound_id: str
    invariant_value: float
    bound_value: float
    margin: float
    reverified: bool

    def to_json_dict(self) -> dict:
        d = asdict(self)
        for key in ("alpha", "invariant_value", "bound_value", "margin"):
            d[key] = _round12(d[key])
        return d


@dataclass(frozen=True)
class ExtremalWitness:
    n: int
    k: Optional[int]
    alpha: float
    graph6: str
    value: float


@dataclass
class ScanReport:
    bound_id: str
    n_range: list[int]
    alpha_grid: list[float]
    k: Optional[int]
    source: str
    graphs_scanned: int
    violations: list[ViolationRecord]
    extremal_witnesses: list[ExtremalWitness]
    wall_time: float

    def to_json(self, redact_timing: bool = False) -> str:
        doc = {
            "bound_id": self.bound_id,
            "n_range": self.n_range,
            "alpha_grid": [_round12(a) for a in self.alpha_grid],
            "k": self.k,
            "source": self.source,
            "graphs_scanned": self.graphs_scanned,
            "violations": [v.to_json_dict() for v in self.violations],
            "extremal_witnesses": [
                {
                    "n": w.n,
                    "k": w.k,
                    "alpha": _round12(w.alpha),
                    "graph6": w.graph6,
                    "value": _round12(w.value),
                }
                for w in self.extremal_witnesses
            ],
            "wall_time": None if redact_timing else _round12(self.wall_time),
        }
        return json.dumps(doc)

    def violations_csv(self) -> str:
        lines = ["graph6,n,k,alpha,bound_id,invariant,bound,margin"]
        for v in self.violations:
            k = "" if v.k is None else str(v.k)
            lines.append(
                f"{v.graph6},{v.n},{k},{v.alpha:.12g},{v.bound_id},"
                f"{v.invariant_value:.12g},{v.bound_value:.12g},{v.margin:.12g}"
            )
        return "\n".join(lines) + "\n"


def enumerate_graphs(n: int, filter: str = "connected", k: Optional[int] = None) -> Iterator[Graph]:
    """Lazily yield every labeled graph on n vertices passing the filter,
    each exactly once.  Internal enumeration is capped at n = 9; larger
    populations should arrive as graph6 streams."""
    if not 1 <= n <= INTERNAL_ENUM_CAP:
        raise ValueError(
            f"internal enumeration handles 1 <= n <= {INTERNAL_ENUM_CAP}; use a graph6 stream beyond that"
        )
    if filter == "connected":
        for chunk in _bulk.iter_connected_code_chunks(n):
            for code in chunk:
                yield from_code(n, int(code))
    elif filter == "connected-bipartite":
        for amask in _bulk.bipartite_splits(n):
            for chunk in _bulk.split_connected_codes(n, amask):
                for code in chunk:
                    yield from_code(n, int(code))
    elif filter == "kappa_at_most":
        if k is None:
            raise ValueError("the kappa_at_most filter needs k")
        if not 1 <= k <= n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got k={k} for n={n}")
        for chunk in _bulk.iter_connected_code_chunks(n):
            kappas = _bulk.kappa_batch(_bulk.decode_rows(chunk, n), n)
            for code in chunk[kappas <= k]:
                yield from_code(n, int(code))
    else:
        raise ValueError(
            f"unknown filter {filter!r}; expected connected | connected-bipartite | kappa_at_most"
        )


def _resolve_grid(bound_id: str, alpha_grid) -> dict[float, str]:
    """Map each grid alpha to the applicable branch id (family aliases fan out)."""
    branch_map: dict[float, str] = {}
    for alpha in alpha_grid:
        alpha = float(alpha)
        if alpha == 0.0:
            raise ValueError("alpha = 0 is not a valid grid point")
        branch = resolve_bound_id(bound_id, alpha)
        if branch is None:
            raise ValueError(f"no branch of {bound_id!r} covers alpha={alpha:g}")
        branch_map[alpha] = branch
    families = {BOUNDS[b].family for b in branch_map.values()}
    if len(families) != 1:
        raise ValueError(f"alpha grid spans distinct graph families: {sorted(families)}")
    return branch_map


def _scalar_bound(branch_id: str, alpha: float, n: int, k: Optional[int],
                  r: Optional[int] = None, s: Optional[int] = None) -> float:
    if branch_id.startswith("thm31"):
        return complete_bipartite_bound(r, s, alpha)
    family = BOUNDS[branch_id].family
    if family == "bipartite":
        return balanced_bipartite_bound(n, alpha)
    if family == "connected":
        return complete_graph_bound(n, alpha)
    return connectivity_bound(n, k, alpha)


class _Accumulator:
    """Merge accumulator: population count, raw violations, best witnesses."""

    def __init__(self):
        self.count = 0
        self.raw: list[tuple] = []
        self.witness: dict[tuple, tuple[float, int, int]] = {}  # key -> (value, n, code)

    def update_witness(self, key: tuple, value: float, n: int, code: int, maximize: bool):
        cur = self.witness.get(key)
        if cur is None or (value > cur[0] if maximize else value < cur[0]):
            self.witness[key] = (value, n, code)

    def merge(self, other: "_Accumulator"):
        self.count += other.count
        self.raw.extend(other.raw)
        for key, (value, n, code) in other.witness.items():
            cur = self.witness.get(key)
            maximize = BOUNDS[key[2]].direction == "upper"
            if cur is None or (value > cur[0] if maximize else value < cur[0]):
                self.witness[key] = (value, n, code)


def _eval_bipartite_unit(args) -> _Accumulator:
    n, amask, branch_items = args
    acc = _Accumulator()
    r = amask.bit_count()
    s = n - r
    for codes in _bulk.split_connected_codes(n, amask):
        rows = _bulk.decode_rows(codes, n)
        eigs = _bulk.q_eigs(rows, n)
        acc.count += codes.size
        for alpha, branch in branch_items:
            spec = BOUNDS[branch]
            vals = _bulk.power_sums(eigs, alpha)
            bval = _scalar_bound(branch, alpha, n, None, r=r, s=s)
            margins = bval - vals if spec.direction == "upper" else vals - bval
            te = tol_eq(bval)
            for idx in np.flatnonzero(margins < -te):
                acc.raw.append((n, int(codes[idx]), None, alpha, branch,
                                float(vals[idx]), float(bval)))
            maximize = spec.direction == "upper"
            j = int(np.argmax(vals)) if maximize else int(np.argmin(vals))
            acc.update_witness((n, None, branch, alpha), float(vals[j]), n,
                               int(codes[j]), maximize)
    return acc


def _eval_connected_unit(args) -> _Accumulator:
    n, branch_items, family, k_fixed = args
    acc = _Accumulator()
    ks: list[Optional[int]]
    if family == "kappa":
        ks = [k_fixed] if k_fixed is not None else list(range(1, n))
    else:
        ks = [None]
    counted_by_filter = family == "kappa" and k_fixed is not None
    for codes, kappas in _bulk.iter_connected_with_kappa(n, need_kappa=family == "kappa"):
        rows = _bulk.decode_rows(codes, n)
        eigs = _bulk.q_eigs(rows, n)
        if counted_by_filter:
            acc.count += int(np.sum(kappas <= k_fixed))
        else:
            acc.count += codes.size
        for alpha, branch in branch_items:
            spec = BOUNDS[branch]
            vals = _bulk.power_sums(eigs, alpha)
            maximize = spec.direction == "upper"
            for k in ks:
                if k is None:
                    sel = np.arange(codes.size)
                else:
                    sel = np.flatnonzero(kappas <= k)
                    if sel.size == 0:
                        continue
                bval = _scalar_bound(branch, alpha, n, k)
                vsel = vals[sel]
                margins = bval - vsel if maximize else vsel - bval
                te = tol_eq(bval)
                for idx in np.flatnonzero(margins < -te):
                    gidx = int(sel[idx])
                    acc.raw.append((n, int(codes[gidx]), k, alpha, branch,
                                    float(vals[gidx]), float(bval)))
                j = int(np.argmax(vsel)) if maximize else int(np.argmin(vsel))
                acc.update_witness((n, k, branch, alpha), float(vsel[j]), n,
                                   int(codes[sel[j]]), maximize)
    return acc


def _slow_facts(args) -> tuple:
    """The slow-route facts of one candidate graph: its Q spectrum at the
    re-verification tolerance, and its flow connectivity and bipartition
    when the scan's records need them (None otherwise)."""
    n, code, need_kappa, need_parts = args
    g = from_code(n, code)
    return (q_spectrum(g, conv_scale=REVERIFY_CONV_SCALE),
            vertex_connectivity(g) if need_kappa else None,
            g.bipartition() if need_parts else None)


def _reverify(raw) -> Optional[ViolationRecord]:
    """Recompute one candidate violation from its graph's slow-route facts,
    which ride at the end of the record."""
    n, code, k, alpha, branch, _, _, (spectrum, kappa, parts) = raw
    spec = BOUNDS[branch]
    value = nonzero_power_sum(spectrum, alpha)
    r = s = None
    if branch.startswith("thm31"):
        if parts is None:
            raise RuntimeError(f"re-verification: {emit_code(n, code)} is not bipartite")
        r, s = parts
    if spec.family == "kappa" and kappa > k:
        raise RuntimeError(
            f"re-verification: flow connectivity {kappa} of {emit_code(n, code)} exceeds k={k}"
        )
    bval = _scalar_bound(branch, alpha, n, k, r=r, s=s)
    margin = bval - value if spec.direction == "upper" else value - bval
    if margin < -tol_eq(bval):
        return ViolationRecord(
            graph6=emit_code(n, code), n=n, k=k, alpha=alpha, bound_id=branch,
            invariant_value=value, bound_value=bval, margin=margin, reverified=True,
        )
    return None


def _reverify_all(raws: list[tuple], family: str, branch_items) -> list[ViolationRecord]:
    """Slow facts once per distinct candidate graph, then one check per record
    in canonical order.

    The solves run in this process, one after another.  On the scan's worker
    pool they finish sooner on an idle machine, but their time then rises and
    falls with the load on every core, not just one."""
    graphs = sorted({(raw[0], raw[1]) for raw in raws})
    need_parts = any(branch.startswith("thm31") for _, branch in branch_items)
    jobs = [(n, code, family == "kappa", need_parts) for n, code in graphs]
    facts = dict(zip(graphs, map(_slow_facts, jobs)))
    violations = []
    for raw in sorted(raws, key=lambda r: (r[0], -1 if r[2] is None else r[2], r[3], r[1])):
        record = _reverify(raw + (facts[raw[0], raw[1]],))
        if record is not None:
            violations.append(record)
    return violations


def _threads_from_env(threads: Optional[int]) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("QPOW_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"QPOW_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def scan(
    bound_id: str,
    n_values: Iterable[int],
    alpha_grid: Iterable[float],
    k: Optional[int] = None,
    source: Optional[Iterable[str]] = None,
    strict: bool = False,
    on_error=None,
    threads: Optional[int] = None,
) -> ScanReport:
    """Evaluate a bound (or a conjecture family alias) over every graph of the
    applicable population, either internally enumerated for each n or read
    from a graph6 line stream.

    Returns a deterministic ScanReport; wall_time is the only field that
    varies between identical runs.  QPOW_THREADS (or the threads argument)
    caps worker parallelism; results are merged in canonical order so the
    report does not depend on the worker count.  A QPOW_THREADS that is not
    an integer raises ValueError.
    """
    t0 = time.perf_counter()
    ns = sorted(set(int(n) for n in n_values))
    alphas = [float(a) for a in alpha_grid]
    branch_map = _resolve_grid(bound_id, alphas)
    family = BOUNDS[next(iter(branch_map.values()))].family
    if k is not None and family != "kappa":
        raise ValueError(f"{bound_id} does not take a connectivity parameter k")
    branch_items = tuple(sorted(branch_map.items()))
    acc = _Accumulator()
    if source is None:
        if any(n > INTERNAL_ENUM_CAP for n in ns):
            raise ValueError(
                f"internal enumeration handles n <= {INTERNAL_ENUM_CAP}; supply a graph6 stream"
            )
        units: list[tuple] = []
        if family == "bipartite":
            for n in ns:
                if n < 2:
                    continue
                for amask in _bulk.bipartite_splits(n):
                    units.append((n, amask, branch_items))
            worker = _eval_bipartite_unit
        else:
            for n in ns:
                if n < 2 or (family == "kappa" and k is not None and k > n - 1):
                    continue
                units.append((n, branch_items, family, k))
            worker = _eval_connected_unit
        nworkers = _threads_from_env(threads)
        if nworkers > 1 and len(units) > 1:
            with multiprocessing.get_context("fork").Pool(min(nworkers, len(units))) as pool:
                results = pool.map(worker, units)
        else:
            results = [worker(u) for u in units]
        for part in results:
            acc.merge(part)
        source_name = "internal"
    else:
        _scan_stream(acc, source, ns, branch_items, family, k, strict, on_error)
        source_name = "stream"

    violations = _reverify_all(acc.raw, family, branch_items)
    witnesses = [
        ExtremalWitness(n=key[0], k=key[1], alpha=key[3],
                        graph6=emit_code(key[0], entry[2]), value=entry[0])
        for key, entry in sorted(
            acc.witness.items(),
            key=lambda kv: (kv[0][0], -1 if kv[0][1] is None else kv[0][1], kv[0][3]),
        )
    ]
    return ScanReport(
        bound_id=bound_id,
        n_range=ns,
        alpha_grid=alphas,
        k=k,
        source=source_name,
        graphs_scanned=acc.count,
        violations=violations,
        extremal_witnesses=witnesses,
        wall_time=time.perf_counter() - t0,
    )


def _scan_stream(acc, source, ns, branch_items, family, k_fixed, strict, on_error):
    bvals: dict[tuple, float] = {}  # (branch, alpha, n, k, r, s) -> bound
    for g in read_stream(source, strict=strict, on_error=on_error):
        if g.n not in ns or not g.is_connected():
            continue
        r = s = None
        if family == "bipartite":
            parts = g.bipartition()
            if parts is None:
                continue
            r, s = parts
            if min(r, s) == 0:
                continue
            ks: list[Optional[int]] = [None]
        elif family == "kappa":
            kappa = vertex_connectivity(g)
            if k_fixed is not None:
                if kappa > k_fixed or k_fixed > g.n - 1:
                    continue
                ks = [k_fixed]
            else:
                ks = list(range(kappa, g.n))
                if not ks:
                    continue
        else:
            ks = [None]
        acc.count += 1
        spectrum = q_spectrum(g)
        code = g.to_code()
        for alpha, branch in branch_items:
            spec = BOUNDS[branch]
            value = nonzero_power_sum(spectrum, alpha)
            maximize = spec.direction == "upper"
            for k in ks:
                key = (branch, alpha, g.n, k, r, s)
                if key not in bvals:
                    bvals[key] = _scalar_bound(branch, alpha, g.n, k, r=r, s=s)
                bval = bvals[key]
                margin = bval - value if maximize else value - bval
                if margin < -tol_eq(bval):
                    acc.raw.append((g.n, code, k, alpha, branch, value, bval))
                acc.update_witness((g.n, k, branch, alpha), value, g.n, code, maximize)


def extremal_table(
    bound_id: str,
    n: int,
    alpha: float,
    k: Optional[int] = None,
    top: int = 10,
    source: Optional[Iterable[str]] = None,
) -> list[tuple[str, float]]:
    """Rank the population by the power sum: the head of this table is where
    extremal-graph claims are confirmed.  Upper bounds rank descending, lower
    bounds ascending; ties keep enumeration order."""
    branch = resolve_bound_id(bound_id, alpha)
    if branch is None:
        raise ValueError(f"no branch of {bound_id!r} covers alpha={alpha:g}")
    spec = BOUNDS[branch]
    values: list[np.ndarray] = []
    codes: list[np.ndarray] = []
    if source is not None:
        pairs = []
        for g in read_stream(source):
            if g.n != n or not g.is_connected():
                continue
            if spec.family == "bipartite" and g.bipartition() is None:
                continue
            if spec.family == "kappa" and vertex_connectivity(g) > (k or n - 1):
                continue
            pairs.append((nonzero_power_sum(q_spectrum(g), alpha), g.to_code()))
        vals = np.array([p[0] for p in pairs])
        cds = np.array([p[1] for p in pairs], dtype=np.int64)
        values, codes = [vals], [cds]
    elif spec.family == "bipartite":
        for amask in _bulk.bipartite_splits(n):
            for chunk in _bulk.split_connected_codes(n, amask):
                rows = _bulk.decode_rows(chunk, n)
                values.append(_bulk.power_sums(_bulk.q_eigs(rows, n), alpha))
                codes.append(chunk)
    else:
        for chunk, kappas in _bulk.iter_connected_with_kappa(n, need_kappa=spec.family == "kappa"):
            if spec.family == "kappa":
                kk = k if k is not None else n - 1
                keep = kappas <= kk
                chunk = chunk[keep]
                if chunk.size == 0:
                    continue
                rows = _bulk.decode_rows(chunk, n)
            else:
                rows = _bulk.decode_rows(chunk, n)
            values.append(_bulk.power_sums(_bulk.q_eigs(rows, n), alpha))
            codes.append(chunk)
    if not values:
        return []
    vals = np.concatenate(values)
    cds = np.concatenate(codes)
    order = np.argsort(-vals if spec.direction == "upper" else vals, kind="stable")[:top]
    return [(emit_code(n, int(cds[i])), float(vals[i])) for i in order]
