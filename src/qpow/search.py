"""Exhaustive small-graph enumeration and conjecture-falsification scans.

Enumeration is labeled (no isomorphism reduction): bound checks are unaffected
by duplicate isomorphs and labeled populations have independently known
census counts to validate against.  Scans evaluate a bound over a whole
population, collect per-(n, k, alpha) extremal witnesses, and re-verify every
candidate violation through the slower independent route (Jacobi eigensolver
at tightened tolerance, flow-based connectivity) before it is reported.
A scan runs in one process.  A population arrives as _bulk.Chunk batches
from internal enumeration or from a buffered graph6 stream, and one loop
evaluates every batch with batched LAPACK.  The kappa <= k populations are
nested, so that loop decides every k of a batch from one kappa <= k mask and
its cost per batch grows with the alpha grid, not with alpha x k.  On a grid
of upper bounds only, a screen of exact trace-moment bounds sends to LAPACK
just the graphs that can still be a witness or a candidate, so an upper-bound
scan solves a few graphs per batch and leaves the report unchanged.  The
internal bipartite population is screened once per part-size shape, on the
canonical split (by moments on an upper-only grid, by spectra otherwise), and
each split solves only the relabelings of the survivors (_evaluate_splits).
Re-verification computes the slow facts once per distinct candidate graph
and then checks each candidate record against its graph's facts in canonical
order.  The candidate graphs of one n get their Jacobi spectra from one
batched solve once there are REVERIFY_BATCH_MIN of them, and one by one
below that; both give the same bits, so the report does not depend on it.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import dataclass
from itertools import chain, groupby
from typing import Iterable, Iterator, Optional

import numpy as np

from . import _bulk
from .bounds import BOUNDS, bound_value, resolve_bound_id
from .connectivity import vertex_connectivity
from .graph6 import emit_code, read_stream
from .graphs import Graph, from_code
from .invariants import _check_alpha, nonzero_power_sum
from .spectra import Spectrum, jacobi_eigenvalues_batch, q_spectrum, spectrum_from_values
from .verify import tol_eq

# the largest n each family's labeled enumeration finishes at desk scale
INTERNAL_ENUM_CAP = {"connected": 8, "kappa": 8, "bipartite": 9}
REVERIFY_CONV_SCALE = 1e-14  # Jacobi convergence for re-verification (100x tighter)
# the fewest graphs of one n that re-verification solves as one Jacobi batch:
# below it the per-graph solver is faster (measured crossover, n = 4..12)
REVERIFY_BATCH_MIN = 32
STREAM_BATCH = 4096  # stream graphs of one n per eigensolve batch


def _round12(x):
    """12 significant digits for a finite float, and None (JSON null) for a
    non-finite one, since JSON has no NaN or Infinity; any other value passes
    through."""
    if isinstance(x, float):
        return float(f"{x:.12g}") if math.isfinite(x) else None
    return x


class _JsonRecord:
    """A record's JSON object: its fields in order, the float ones through
    _round12 (the others pass through it unchanged, so they skip it)."""

    def __init_subclass__(cls):
        cls._floats = tuple(key for key, kind in cls.__annotations__.items() if kind == "float")

    def to_json_dict(self) -> dict:
        doc = vars(self).copy()
        for key in self._floats:
            doc[key] = _round12(doc[key])
        return doc


@dataclass(frozen=True)
class ViolationRecord(_JsonRecord):
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


@dataclass(frozen=True)
class ExtremalWitness(_JsonRecord):
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
            "extremal_witnesses": [w.to_json_dict() for w in self.extremal_witnesses],
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
    each exactly once, up to INTERNAL_ENUM_CAP (n = 8, or 9 for
    connected-bipartite); larger populations should arrive as graph6 streams."""
    family = {"connected": "connected", "connected-bipartite": "bipartite",
              "kappa_at_most": "kappa"}.get(filter)
    if family is None:
        raise ValueError(
            f"unknown filter {filter!r}; expected connected | connected-bipartite | kappa_at_most"
        )
    if family == "kappa" and k is None:
        raise ValueError("the kappa_at_most filter needs k")
    _check_k(filter, family, k, n)
    for codes, _, kappas, _ in chain.from_iterable(_internal_units([n], family)):
        for code in codes if kappas is None else codes[kappas <= k]:
            yield from_code(n, int(code))


def _check_k(bound_id: str, family: str, k: Optional[int], n: Optional[int] = None) -> None:
    """Reject a k that the family does not take, below 1, or (given n) above n-1."""
    if k is not None and family != "kappa":
        raise ValueError(f"{bound_id} does not take a connectivity parameter k")
    if k is not None and (k < 1 or n is not None and k > n - 1):
        raise ValueError(f"need 1 <= k <= n-1, got k={k}" + (f" for n={n}" if n else ""))


def _live_ns(ns, k: Optional[int]) -> set[int]:
    """The ns where the bounds are defined: n >= 2, and k <= n-1 for a fixed
    k.  Raises ValueError when there is none."""
    live = {n for n in ns if n >= 2 and (k is None or k <= n - 1)}
    if not live:
        need = "n >= 2" if k is None else f"n >= 2 and k={k} <= n-1"
        raise ValueError(f"no requested n is applicable: the bounds need {need}")
    return live


def _resolve_grid(bound_id: str, alpha_grid) -> dict[float, str]:
    """Map each grid alpha to the applicable branch id (family aliases fan out)."""
    branch_map: dict[float, str] = {}
    for alpha in alpha_grid:
        alpha = _check_alpha(alpha)
        branch = resolve_bound_id(bound_id, alpha)
        if branch is None:
            raise ValueError(f"no branch of {bound_id!r} covers alpha={alpha:g}")
        branch_map[alpha] = branch
    families = {BOUNDS[b].family for b in branch_map.values()}
    if len(families) != 1:
        raise ValueError(f"alpha grid spans distinct graph families: {sorted(families)}")
    return branch_map


def _scalar_bound(branch_id: str, alpha: float, n: int, k: Optional[int],
                  r: Optional[int] = None) -> float:
    """The bound at n (and k, or vertex 0's part size r for thm31)."""
    return bound_value(branch_id, alpha, n=n, k=k, r=r, s=None if r is None else n - r)


class _Accumulator:
    """Scan accumulator: population count, raw violations, best witnesses."""

    def __init__(self):
        self.count = 0
        self.raw: list[tuple] = []
        self.witness: dict[tuple, tuple[float, int]] = {}  # (n, k, branch, alpha) -> (value, code)

    def update_witness(self, key: tuple, value: float, code: int, maximize: bool):
        cur = self.witness.get(key)
        if cur is None or (value > cur[0] if maximize else value < cur[0]):
            self.witness[key] = (value, code)


@dataclass(frozen=True)
class _Unit:
    """One internal population, iterated as Chunks: every labeled connected
    graph on n vertices, or for the bipartite family every one whose
    bipartition is the split amask (scans take that family by shape)."""

    n: int
    family: str
    amask: int = 0

    def __iter__(self):
        if self.family == "bipartite":
            return _bulk.split_connected_codes(self.n, self.amask)
        return _bulk.connected_chunks(self.n, self.family == "kappa")


def _check_cap(ns, family: str) -> None:
    cap = INTERNAL_ENUM_CAP[family]
    if any(not 1 <= n <= cap for n in ns):
        raise ValueError(f"internal enumeration of the {family} family handles 1 <= n <= {cap}; "
                         "beyond that, scan a graph6 stream of the graphs (--input)")


def _internal_units(ns, family: str) -> list[_Unit]:
    _check_cap(ns, family)
    if family == "bipartite":
        return [_Unit(n, family, amask) for n in ns for amask in _bulk.bipartite_splits(n)]
    return [_Unit(n, family) for n in ns]


def _stream_batches(graphs: Iterable[Graph], ns, branch: str, family: str) -> Iterator[_bulk.Chunk]:
    """Chunks of the stream graphs whose n is in ns and that belong to the
    family ("connected", "kappa" or "bipartite"), buffered per n and flushed
    every STREAM_BATCH graphs.  Only the kappa family computes kappas.

    For thm31 a chunk's r is vertex 0's part size, and a buffer also flushes
    when r changes, so the batches of each n keep stream order and witness
    ties break as they do in enumeration order.
    Codes stay Python ints (they overflow int64 from n = 12); connectivity
    is the per-graph flow value, which beats the batch sweep on one graph."""
    spec = BOUNDS[branch]
    buffers: dict[int, tuple] = {}  # n -> (r, codes, rows, kappas)

    def flush(n):
        r, codes, rows, kappas = buffers.pop(n)
        return _bulk.Chunk(np.array(codes, dtype=object), np.array(rows, dtype=np.int64),
                           np.array(kappas) if family == "kappa" else None, r)

    for g in graphs:
        if g.n not in ns or not g.is_connected():
            continue
        r = None
        if family == "bipartite":
            parts = g.bipartition()
            if parts is None:
                continue
            if spec.shape == "parts":
                r = parts[0]
        buf = buffers.get(g.n)
        if buf is not None and (buf[0] != r or len(buf[1]) == STREAM_BATCH):
            yield flush(g.n)
        _, codes, rows, kappas = buffers.setdefault(g.n, (r, [], [], []))
        codes.append(g.to_code())
        rows.append(g.rows)
        if family == "kappa":
            kappas.append(vertex_connectivity(g))
    for n in list(buffers):
        yield flush(n)


def _upper_only(branch_items) -> bool:
    """Whether every branch of the grid is an upper bound (so every alpha > 0):
    the grids on which the moment screen runs."""
    return all(BOUNDS[branch].direction == "upper" for _, branch in branch_items)


def _moment_screen(rows: np.ndarray, n: int, member: np.ndarray, alphas: list[float],
                   bvals: np.ndarray, bipartite: bool) -> tuple[np.ndarray, np.ndarray]:
    """(keep, eigs): the mask of the batch graphs that can be a witness or a
    candidate of an upper-bound grid, and the spectra of the kept graphs.
    bvals[a, j] is the bound of column (alphas[a], ks[j]).

    One eigensolve of the member with the largest moment bound in each column
    gives M, the best power sum found so far in that column.  A graph whose
    moment bound is below M - tol_eq(M) in every column it belongs to has a
    power sum below M, so it is neither the column's argmax nor tied with it;
    where its bound is also below the column's bound b it cannot exceed
    b + tol_eq(b), so it is no candidate either.  The probed graphs are kept,
    and no graph is solved twice."""
    ub = _bulk.moment_upper_bounds(rows, n, alphas, bipartite)
    cols = [(a, j) for a in range(len(alphas)) for j in range(member.shape[1])]
    full = member.all(axis=0)  # every graph is a member (every non-kappa population)
    probe = np.unique([ub[:, a].argmax() if full[j] else
                       np.where(member[:, j], ub[:, a], -np.inf).argmax() for a, j in cols])
    eigs = np.empty((len(rows), n))
    eigs[probe] = _bulk.q_eigs(rows[probe], n)
    vals = np.stack([_bulk.power_sums(eigs[probe], alpha) for alpha in alphas], axis=1)
    best = np.where(member[probe][:, None, :], vals[:, :, None], -np.inf).max(axis=0)
    floor = np.minimum(best - np.vectorize(tol_eq, otypes=[float])(best), bvals)
    keep = np.zeros(len(rows), dtype=bool)
    for a, j in cols:  # every column has a member, so its floor is above -inf
        keep |= (ub[:, a] >= floor[a, j]) & member[:, j]
    rest = keep.copy()
    keep[probe], rest[probe] = True, False
    if rest.any():
        eigs[rest] = _bulk.q_eigs(rows[rest], n)
    return keep, eigs[keep]


def _tally(acc: _Accumulator, n: int, codes, member: np.ndarray, ks: list, eigs: np.ndarray,
           bvals: np.ndarray, branch_items) -> None:
    """Power sums, margins, raw candidate violations and extremal witnesses of
    solved graphs.  Each alpha costs one nonzero over the (graph, k) members
    for the candidates and one masked argmax/argmin for the witnesses, so
    ties keep the first graph."""
    for (alpha, branch), brow in zip(branch_items, bvals):
        maximize = BOUNDS[branch].direction == "upper"
        vals = _bulk.power_sums(eigs, alpha)
        tols = np.array([tol_eq(b) for b in brow.tolist()])
        margins = brow - vals[:, None] if maximize else vals[:, None] - brow
        for i, j in zip(*np.nonzero(member & (margins < -tols))):
            acc.raw.append((n, int(codes[i]), ks[j], alpha, branch,
                            float(vals[i]), float(brow[j])))
        filled = np.where(member, vals[:, None], -np.inf if maximize else np.inf)
        best = filled.argmax(axis=0) if maximize else filled.argmin(axis=0)
        for k, i in zip(ks, best.tolist()):
            acc.update_witness((n, k, branch, alpha), float(vals[i]), int(codes[i]), maximize)


def _evaluate(acc: _Accumulator, batches, branch_items, k_fixed: Optional[int]) -> _Accumulator:
    """The evaluation loop over Chunks: batched LAPACK spectra, then _tally.
    Returns acc.

    One mask member[i, j] = kappa_i <= ks[j] per batch decides every k (one
    all-true column without kappa), and each alpha costs one bound row over
    the ks with members.  On an upper-only grid the moment screen first
    drops the graphs that cannot change the result, and only the rest, in
    batch order, reach the eigensolver; the count still covers the batch."""
    screen = _upper_only(branch_items)
    alphas = [alpha for alpha, _ in branch_items]
    bipartite = BOUNDS[branch_items[0][1]].family == "bipartite"
    for codes, rows, kappas, r in batches:
        n = rows.shape[1]
        ks = [None] if kappas is None else list(range(1, n)) if k_fixed is None else [k_fixed]
        member = np.ones((len(codes), 1), bool) if kappas is None else kappas[:, None] <= ks
        live = member.any(axis=0)
        ks, member = [k for k, keep in zip(ks, live) if keep], member[:, live]
        acc.count += int(np.count_nonzero(member.any(axis=1)))
        if not ks:
            continue
        bvals = np.array([[_scalar_bound(branch, alpha, n, k, r=r) for k in ks]
                          for alpha, branch in branch_items])
        if screen:
            keep, eigs = _moment_screen(rows, n, member, alphas, bvals, bipartite)
            codes, member = codes[keep], member[keep]
        else:
            eigs = _bulk.q_eigs(rows, n)
        _tally(acc, n, codes, member, ks, eigs, bvals, branch_items)
    return acc


def _exact_screen(rows: np.ndarray, n: int, branch_items, bvals: np.ndarray) -> np.ndarray:
    """The mask of the batch graphs that can be a witness or a candidate of
    any grid, from their LAPACK spectra: in some column, a power sum within
    tol_eq(best) of the batch's extreme best, or a margin below 0 (a band of
    tol_eq(b) over the candidate test).  bvals[a, 0] is alpha a's bound."""
    eigs = _bulk.q_eigs(rows, n)
    keep = np.zeros(len(rows), dtype=bool)
    for (alpha, branch), (bval,) in zip(branch_items, bvals.tolist()):
        sign = 1.0 if BOUNDS[branch].direction == "upper" else -1.0
        vals = sign * _bulk.power_sums(eigs, alpha)  # the larger, the more extreme
        best = float(vals.max())
        keep |= (vals >= best - tol_eq(best)) | (vals > sign * bval)
    return keep


def _shape_survivors(n: int, r: int, branch_items) -> tuple[np.ndarray, np.ndarray, int]:
    """(survivors, bvals, count) for the splits of n with |A| = r: the codes
    of the graphs that the screen keeps on the chunks of the canonical split
    A = {0..r-1}, the bound of each alpha, and the number of connected graphs
    of one split, summed over those chunks.  The screen is _moment_screen on
    an upper-only grid and _exact_screen otherwise."""
    alphas = [alpha for alpha, _ in branch_items]
    bvals = np.array([[_scalar_bound(branch, alpha, n, None, r=r)]
                      for alpha, branch in branch_items])
    survivors, count = [], 0
    for codes, rows, _, _ in _bulk.split_connected_codes(n, (1 << r) - 1):
        keep = (_moment_screen(rows, n, np.ones((len(rows), 1), bool), alphas, bvals, True)[0]
                if _upper_only(branch_items) else _exact_screen(rows, n, branch_items, bvals))
        survivors.append(codes[keep])
        count += codes.size
    return np.concatenate(survivors), bvals, count


def _evaluate_splits(acc: _Accumulator, n: int, branch_items) -> _Accumulator:
    """What _evaluate gives on every split of n, with one screen per
    part-size shape instead of a solve or a screen per split.  Returns acc.

    Every split with |A| = r holds the canonical split's graphs relabeled,
    and neither the bounds (a function of n and r), the trace moments nor
    the spectra change under relabeling, up to LAPACK rounding far inside
    tol_eq (measured for n <= 7 in the tests).  So _shape_survivors screens
    the canonical split once per r, and each split, in ascending order,
    solves its relabeled survivors (split_relabelings of their canonical
    codes, in enumeration order); its count is the canonical split's.  A
    dropped graph's relabeling stays short of its chunk's relabeled probe or
    extreme, solved in the same split, and of the candidate threshold, so
    ties break in enumeration order as before.  The survivors depend on the
    grid, so they live for this call only."""
    shapes = {r: _shape_survivors(n, r, branch_items) for r in range(1, n)}
    for amask in _bulk.bipartite_splits(n):
        r = amask.bit_count()
        survivors, bvals, count = shapes[r]
        codes, rows, _, _ = _bulk.split_relabelings(n, amask, survivors)
        acc.count += count
        _tally(acc, n, codes, np.ones((len(codes), 1), bool), [None], _bulk.q_eigs(rows, n),
               bvals, branch_items)
    return acc


def _reverify(raw) -> Optional[ViolationRecord]:
    """Recompute one candidate violation from its graph's slow-route facts,
    which ride at the end of the record."""
    n, _, k, alpha, branch, _, _, (graph6, spectrum, kappa, parts) = raw
    spec = BOUNDS[branch]
    value = nonzero_power_sum(spectrum, alpha)
    r = None
    if spec.shape == "parts":
        if parts is None:
            raise RuntimeError(f"re-verification: {graph6} is not bipartite")
        r = parts[0]
    if spec.family == "kappa" and kappa > k:
        raise RuntimeError(f"re-verification: flow connectivity {kappa} of {graph6} exceeds k={k}")
    bval = _scalar_bound(branch, alpha, n, k, r=r)
    margin = bval - value if spec.direction == "upper" else value - bval
    if margin < -tol_eq(bval):
        return ViolationRecord(
            graph6=graph6, n=n, k=k, alpha=alpha, bound_id=branch,
            invariant_value=value, bound_value=bval, margin=margin, reverified=True,
        )
    return None


def _reverify_spectra(n: int, graphs: list[Graph]) -> list[Spectrum]:
    """The Q spectra of graphs on n vertices at the re-verification
    tolerance: one batched Jacobi solve from REVERIFY_BATCH_MIN graphs up,
    q_spectrum per graph below.  Both give the same bits."""
    if len(graphs) < REVERIFY_BATCH_MIN:
        return [q_spectrum(g, conv_scale=REVERIFY_CONV_SCALE) for g in graphs]
    # Graph.rows, not decode_rows: stream codes overflow int64 from n = 12
    mats = _bulk.q_matrices(np.array([g.rows for g in graphs], dtype=np.int64), n)
    return [spectrum_from_values(values)
            for values in jacobi_eigenvalues_batch(mats, conv_scale=REVERIFY_CONV_SCALE)]


def _reverify_all(raws: list[tuple], family: str, branch_items) -> list[ViolationRecord]:
    """Slow facts once per distinct candidate graph, then one check per record
    in canonical order.  The facts are the graph's graph6 string, its Q
    spectrum at the re-verification tolerance (_reverify_spectra, over the
    graphs of each n at once), and its flow connectivity and bipartition when
    the scan's records need them (None otherwise)."""
    need_parts = any(BOUNDS[branch].shape == "parts" for _, branch in branch_items)
    facts = {}
    for n, pairs in groupby(sorted({raw[:2] for raw in raws}), key=lambda pair: pair[0]):
        codes = [code for _, code in pairs]
        graphs = [from_code(n, code) for code in codes]
        for code, g, spectrum in zip(codes, graphs, _reverify_spectra(n, graphs)):
            facts[n, code] = (emit_code(n, code), spectrum,
                              vertex_connectivity(g) if family == "kappa" else None,
                              g.bipartition() if need_parts else None)
    violations = []
    for raw in sorted(raws, key=lambda r: (r[0], -1 if r[2] is None else r[2], r[3], r[1])):
        record = _reverify(raw + (facts[raw[0], raw[1]],))
        if record is not None:
            violations.append(record)
    return violations


def _check_threads(threads: Optional[int]) -> None:
    """Validate the threads argument or, without one, QPOW_THREADS.  Both
    are still accepted, but every scan runs in this process."""
    if threads is not None:
        int(threads)
    elif env := os.environ.get("QPOW_THREADS"):
        try:
            if int(env) < 1:
                raise ValueError
        except ValueError:
            raise ValueError(f"QPOW_THREADS must be a positive integer, got {env!r}") from None


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
    varies between identical runs.  The scan runs in this process, in
    canonical order.  The threads argument and QPOW_THREADS are accepted and
    validated but start no worker: a QPOW_THREADS that is not a positive
    integer raises ValueError.
    """
    t0 = time.perf_counter()
    ns = sorted(set(int(n) for n in n_values))
    alphas = [float(a) for a in alpha_grid]
    branch_map = _resolve_grid(bound_id, alphas)
    family = BOUNDS[next(iter(branch_map.values()))].family
    _check_k(bound_id, family, k)
    branch_items = tuple(sorted(branch_map.items()))
    live = _live_ns(ns, k)
    _check_threads(threads)
    acc = _Accumulator()
    if source is not None:
        _evaluate(acc, _stream_batches(read_stream(source, strict=strict, on_error=on_error),
                                       live, branch_items[0][1], family), branch_items, k)
    elif family == "bipartite":
        _check_cap(live, family)
        for n in sorted(live):
            _evaluate_splits(acc, n, branch_items)
    else:
        _evaluate(acc, chain.from_iterable(_internal_units(sorted(live), family)), branch_items, k)
    violations = _reverify_all(acc.raw, family, branch_items)
    encode = functools.cache(emit_code)  # one string per witness graph, not per key
    witnesses = [
        ExtremalWitness(n=key[0], k=key[1], alpha=key[3], graph6=encode(key[0], code), value=value)
        for key, (value, code) in sorted(
            acc.witness.items(),
            key=lambda kv: (kv[0][0], -1 if kv[0][1] is None else kv[0][1], kv[0][3]),
        )
    ]
    return ScanReport(
        bound_id=bound_id,
        n_range=ns,
        alpha_grid=alphas,
        k=k,
        source="internal" if source is None else "stream",
        graphs_scanned=acc.count,
        violations=violations,
        extremal_witnesses=witnesses,
        wall_time=time.perf_counter() - t0,
    )


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
    bounds ascending; ties keep enumeration (or stream) order.  For the kappa
    family the population is kappa <= k; without k that is every connected
    graph, which is enumerated without the kappa sweep.  A top below 1 or an
    n below 2 raises ValueError."""
    if top < 1:
        raise ValueError(f"need top >= 1, got top={top}")
    (branch,) = _resolve_grid(bound_id, [alpha]).values()
    spec = BOUNDS[branch]
    _check_k(bound_id, spec.family, k, n)
    _live_ns([n], k)
    family = "connected" if spec.family == "kappa" and k is None else spec.family
    if source is None:
        batches = chain.from_iterable(_internal_units([n], family))
    else:
        batches = _stream_batches(read_stream(source), {n}, branch, family)
    values: list[np.ndarray] = []
    codes: list[np.ndarray] = []
    for cds, rows, kappas, _ in batches:
        vals = _bulk.power_sums(_bulk.q_eigs(rows, n), alpha)
        if kappas is not None:
            keep = kappas <= (n - 1 if k is None else k)
            vals, cds = vals[keep], cds[keep]
        values.append(vals)
        codes.append(cds)
    if not values:
        return []
    vals = np.concatenate(values)
    cds = np.concatenate(codes)
    order = np.argsort(-vals if spec.direction == "upper" else vals, kind="stable")[:top]
    return [(emit_code(n, int(cds[i])), float(vals[i])) for i in order]
