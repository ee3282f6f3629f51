"""Numerical verification of the lemmas and sharp bounds on a given graph.

Every check is deterministic and returns structured evidence rather than a
bare boolean; BoundResult rows serialize to JSON lines for downstream
tooling.  Equality in check_bound means numeric equality at tol_eq; whether
the equality cases coincide with the claimed extremal graphs is a separate
question answered by matches_extremal (spectrum + degree sequence + edge
count agreement: a cheap stand-in for isomorphism that the test suite
validates against a true isomorphism check at small n).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .bounds import BOUNDS, bound_value, extremal_graph
from .connectivity import vertex_connectivity
from .graph6 import emit_graph6
from .graphs import Graph
from .invariants import (
    _check_alpha,
    laplacian_power_sum,
    named_invariants,
    nonzero_power_sum,
    signless_power_sum,
    zagreb,
)
from .spectra import l_spectrum, q_spectrum

TOL_EQ_SCALE = 1e-7
INTERLACING_TOL = 1e-8
COSPECTRAL_TOL = 1e-8

# alpha grid for the sign-stratified power-sum comparisons (S vs s)
AKBARI_ALPHA_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
AKBARI_TOL = 1e-9


def tol_eq(bound: float) -> float:
    """Equality tolerance, scaled so large bounds do not false-fail."""
    return TOL_EQ_SCALE * max(1.0, abs(bound))


@dataclass(frozen=True)
class BoundResult:
    """Evaluation of one bound on one graph.

    slack is sign-adjusted: >= 0 means the inequality is satisfied whichever
    direction the bound runs.  When applicable is False the numeric fields are
    None and reason says why.
    """

    bound_id: str
    graph: str
    alpha: float
    invariant_value: Optional[float]
    bound_value: Optional[float]
    slack: Optional[float]
    equality: bool
    applicable: bool
    reason: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def bound_results_to_jsonl(results) -> str:
    """One BoundResult per line."""
    return "\n".join(r.to_json() for r in results)


def _inapplicable(bound_id: str, g6: str, alpha: float, reason: str) -> BoundResult:
    return BoundResult(
        bound_id=bound_id, graph=g6, alpha=alpha, invariant_value=None,
        bound_value=None, slack=None, equality=False, applicable=False, reason=reason,
    )


def check_bound(g: Graph, bound_id: str, alpha: float, k: Optional[int] = None) -> BoundResult:
    """Evaluate a bound on a graph, gating on the bound's graph family and
    alpha validity.  Inapplicability is explicit, never a silent pass."""
    spec = BOUNDS.get(bound_id)
    if spec is None:
        raise ValueError(f"unknown bound id {bound_id!r}")
    g6 = emit_graph6(g)
    alpha = _check_alpha(alpha)
    if not spec.alpha_ok(alpha):
        return _inapplicable(bound_id, g6, alpha, f"alpha={alpha:g} outside {spec.alpha_range}")
    if not g.is_connected():
        return _inapplicable(bound_id, g6, alpha, "graph is not connected")
    if g.n < 2:
        return _inapplicable(bound_id, g6, alpha, "bounds need at least 2 vertices")
    r = s = None
    if spec.family == "bipartite":
        parts = g.bipartition()
        if parts is None:
            return _inapplicable(bound_id, g6, alpha, "graph is not bipartite")
        r, s = parts
    if spec.family == "kappa":
        if k is None:
            raise ValueError(f"{bound_id} needs the connectivity parameter k")
        if not 1 <= k <= g.n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got k={k} for n={g.n}")
        kappa = vertex_connectivity(g)
        if kappa > k:
            return _inapplicable(bound_id, g6, alpha, f"vertex connectivity {kappa} exceeds k={k}")
    bval = bound_value(bound_id, alpha, n=g.n, k=k, r=r, s=s)
    value = signless_power_sum(g, alpha)
    slack = bval - value if spec.direction == "upper" else value - bval
    return BoundResult(
        bound_id=bound_id, graph=g6, alpha=alpha, invariant_value=value,
        bound_value=bval, slack=slack, equality=abs(slack) <= tol_eq(bval),
        applicable=True, reason=None,
    )


def matches_extremal(g: Graph, bound_id: str, k: Optional[int] = None) -> bool:
    """Does g agree with the bound's claimed equality graph on edge count,
    sorted degrees and the full signless Laplacian spectrum?"""
    r = s = None
    if BOUNDS[bound_id].shape == "parts":
        parts = g.bipartition()
        if parts is None:
            return False
        r, s = parts
    target = extremal_graph(bound_id, n=g.n, k=k, r=r, s=s)
    if target.n != g.n or target.m != g.m:
        return False
    if sorted(target.degree_sequence()) != sorted(g.degree_sequence()):
        return False
    a = q_spectrum(g).values
    b = q_spectrum(target).values
    return bool(np.max(np.abs(a - b)) <= tol_eq(float(b[0])))


@dataclass(frozen=True)
class InterlacingCheck:
    passed: bool
    spectrum_g: tuple[float, ...]
    spectrum_ge: tuple[float, ...]
    max_violation: float
    trace_gap: float


def check_interlacing(g: Graph, e: tuple[int, int]) -> InterlacingCheck:
    """Edge-deletion interlacing: the spectra of G and G-e must interleave as
    0 <= q_n(G-e) <= q_n(G) <= q_{n-1}(G-e) <= ... <= q_1(G), and the traces
    must differ by exactly 2."""
    ge = g.delete_edge(e)
    qa = q_spectrum(g).values
    qb = q_spectrum(ge).values
    chain = [0.0]
    for i in range(g.n - 1, -1, -1):
        chain.append(float(qb[i]))
        chain.append(float(qa[i]))
    diffs = np.diff(np.array(chain))
    max_violation = float(max(0.0, -float(np.min(diffs))))
    trace_gap = float(np.sum(qa) - np.sum(qb))
    passed = max_violation <= INTERLACING_TOL and abs(trace_gap - 2.0) <= INTERLACING_TOL
    return InterlacingCheck(
        passed=passed,
        spectrum_g=tuple(float(x) for x in qa),
        spectrum_ge=tuple(float(x) for x in qb),
        max_violation=max_violation,
        trace_gap=trace_gap,
    )


@dataclass(frozen=True)
class EdgeMonotonicityRecord:
    edge: tuple[int, int]
    value_g: float
    value_ge: float
    margin: float  # positive = strict inequality in the claimed direction
    asserted: bool
    holds: bool
    note: str = ""


@dataclass(frozen=True)
class EdgeMonotonicityCheck:
    alpha: float
    passed: bool
    records: tuple[EdgeMonotonicityRecord, ...]


def check_edge_monotonicity(g: Graph, alpha: float) -> EdgeMonotonicityCheck:
    """Strict monotonicity of the power sum under edge deletion, per edge.

    For alpha > 0 every edge is asserted: S(G) > S(G-e).  For alpha < 0 the
    reversed inequality S(G) < S(G-e) is asserted only where both graphs are
    connected and h (the nonzero-eigenvalue count) is unchanged; where an edge
    deletion creates a zero eigenvalue the classified sum changes population
    and the observed direction is recorded without being asserted.
    """
    alpha = _check_alpha(alpha)
    sq = q_spectrum(g)
    value_g = nonzero_power_sum(sq, alpha)
    records = []
    for e in g.edges():
        ge = g.delete_edge(e)
        sge = q_spectrum(ge)
        note = ""
        if alpha > 0:
            value_ge = nonzero_power_sum(sge, alpha)
            margin = value_g - value_ge
            asserted = True
        else:
            connected = ge.is_connected()
            h_stable = connected and sge.h == sq.h
            asserted = h_stable
            if not connected:
                note = "G-e disconnected"
            elif not h_stable:
                note = "h drops (deletion creates a zero eigenvalue)"
            value_ge = nonzero_power_sum(sge, alpha) if sge.h > 0 else math.nan
            margin = value_ge - value_g
        holds = margin > 0
        records.append(EdgeMonotonicityRecord(e, value_g, value_ge, margin, asserted, holds, note))
    passed = all(r.holds for r in records if r.asserted)
    return EdgeMonotonicityCheck(alpha=alpha, passed=passed, records=tuple(records))


@dataclass(frozen=True)
class CospectralCheck:
    applicable: bool
    passed: bool
    max_diff: float
    reason: str = ""


def check_bipartite_cospectral(g: Graph) -> CospectralCheck:
    """On a bipartite graph the Laplacian and signless Laplacian spectra agree."""
    if not g.is_bipartite():
        return CospectralCheck(applicable=False, passed=False, max_diff=math.nan,
                               reason="graph is not bipartite")
    diff = float(np.max(np.abs(q_spectrum(g).values - l_spectrum(g).values)))
    return CospectralCheck(applicable=True, passed=diff <= COSPECTRAL_TOL, max_diff=diff)


@dataclass
class IdentityCheck:
    passed: bool
    failures: list[str]
    values: dict[str, float]


def check_identities(g: Graph) -> IdentityCheck:
    """Trace identities and the sign-stratified power-sum comparisons.

    Checks S_1 = 2m, S_2 = s_2 = M1 + 2m, E_L = S_2, IE = S_{1/2},
    LEL = s_{1/2}, and on the standard alpha grid: S >= s on (0,1] and [2,3],
    S <= s on [1,2].
    """
    failures: list[str] = []
    values: dict[str, float] = {}

    def expect(name: str, got: float, want: float, tol: float):
        values[name] = got
        if abs(got - want) > tol:
            failures.append(f"{name}: got {got!r}, want {want!r}")

    s1 = signless_power_sum(g, 1.0)
    expect("S_1 = 2m", s1, 2.0 * g.m, 1e-8 * max(1.0, 2.0 * g.m))
    s2 = signless_power_sum(g, 2.0)
    m1 = zagreb(g, 2.0)
    scale2 = 1e-8 * max(1.0, abs(s2))
    expect("S_2 = M1 + 2m", s2, m1 + 2.0 * g.m, scale2)
    expect("s_2 = S_2", laplacian_power_sum(g, 2.0), s2, scale2)
    if g.is_connected():
        bundle = named_invariants(g)
        expect("E_L = S_2", bundle.E_L, s2, scale2)
        if g.m > 0:
            expect("IE = S_{1/2}", bundle.IE, signless_power_sum(g, 0.5), 1e-8 * max(1.0, bundle.IE))
            expect("LEL = s_{1/2}", bundle.LEL, laplacian_power_sum(g, 0.5), 1e-8 * max(1.0, bundle.LEL))
    for alpha in AKBARI_ALPHA_GRID:
        if g.m == 0:
            break
        diff = signless_power_sum(g, alpha) - laplacian_power_sum(g, alpha)
        values[f"S-s at alpha={alpha:g}"] = diff
        if (0 < alpha <= 1 or 2 <= alpha <= 3) and diff < -AKBARI_TOL:
            failures.append(f"S >= s violated at alpha={alpha:g} by {diff!r}")
        if 1 <= alpha <= 2 and diff > AKBARI_TOL:
            failures.append(f"S <= s violated at alpha={alpha:g} by {diff!r}")
    return IdentityCheck(passed=not failures, failures=failures, values=values)
