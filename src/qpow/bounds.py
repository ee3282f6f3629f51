"""Closed-form spectra and the sharp bounds on signless-Laplacian power sums.

Formulas are total on their parameter ranges through one convention: a term
with multiplier 0 is dropped regardless of base, and a base of 0 contributes
nothing for alpha > 0 and is excluded (not an error) for alpha < 0, mirroring
the power sums' restriction to nonzero eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

from .graphs import Graph, complete, complete_bipartite, construct_gi
from .invariants import _check_alpha, nonzero_power_sum
from .spectra import Spectrum, spectrum_from_values


def _pow_term(mult: float, base: float, alpha: float) -> float:
    if mult == 0 or base == 0.0:
        return 0.0
    return mult * base ** alpha


def complete_q_spectrum(n: int) -> Spectrum:
    """Signless Laplacian spectrum of the complete graph: 2n-2 and n-2 (n-1 times)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return spectrum_from_values([2.0 * n - 2.0] + [float(n - 2)] * (n - 1))


def complete_bipartite_q_spectrum(r: int, s: int) -> Spectrum:
    """Signless Laplacian spectrum of K_{r,s}: r+s, then r (s-1 times), s (r-1 times), 0."""
    if r < 1 or s < 1:
        raise ValueError(f"need r, s >= 1, got ({r},{s})")
    return spectrum_from_values([float(r + s)] + [float(r)] * (s - 1) + [float(s)] * (r - 1) + [0.0])


def complete_bipartite_bound(r: int, s: int, alpha: float) -> float:
    """(r+s)^a + (r-1) s^a + (s-1) r^a: the sharp bound over bipartite graphs
    with parts of sizes r and s (upper for alpha > 0, lower for alpha < 0)."""
    _check_alpha(alpha)
    if r < 1 or s < 1:
        raise ValueError(f"need r, s >= 1, got ({r},{s})")
    return (
        _pow_term(1, float(r + s), alpha)
        + _pow_term(r - 1, float(s), alpha)
        + _pow_term(s - 1, float(r), alpha)
    )


def balanced_bipartite_bound(n: int, alpha: float) -> float:
    """The bipartite bound at the balanced split (floor(n/2), ceil(n/2))."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return complete_bipartite_bound(n // 2, (n + 1) // 2, alpha)


def complete_graph_bound(n: int, alpha: float) -> float:
    """2^a (n-1)^a + (n-1)(n-2)^a: the sharp bound over all connected graphs."""
    _check_alpha(alpha)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return _pow_term(1, 2.0 * (n - 1), alpha) + _pow_term(n - 1, float(n - 2), alpha)


def gi_spectrum(n: int, k: int, i: int) -> Spectrum:
    """Closed-form signless Laplacian spectrum of construct_gi(n, k, i).

    Three explicit eigenvalues (two roots of a quadratic plus n-2) together
    with n-2, k+i-2 and n-i-2 at multiplicities k-1, i-1 and n-k-i-1.  At the
    degenerate corners some multiplicities go negative and cancel against the
    explicit roots (e.g. k = n-1 collapses to the complete graph's spectrum);
    the merge below performs that cancellation.
    """
    if not (1 <= k <= n - 1):
        raise ValueError(f"need 1 <= k <= n-1, got (n,k)=({n},{k})")
    if not (1 <= i <= (n - k) // 2 or (k == n - 1 and i == 1)):
        raise ValueError(f"need 1 <= i <= floor((n-k)/2), got (n,k,i)=({n},{k},{i})")
    disc = math.sqrt((k - 2 * n) ** 2 + 16 * i * (k - n + i))
    q1 = n - 2 + k / 2.0 + disc / 2.0
    q3 = n - 2 + k / 2.0 - disc / 2.0
    pairs = [
        (q1, 1),
        (float(n - 2), 1),
        (q3, 1),
        (float(n - 2), k - 1),
        (float(k + i - 2), i - 1),
        (float(n - i - 2), n - k - i - 1),
    ]
    merged: list[list[float]] = []
    for value, mult in pairs:
        for entry in merged:
            if abs(entry[0] - value) <= 1e-9:
                entry[1] += mult
                break
        else:
            merged.append([value, mult])
    values = []
    for value, mult in merged:
        if mult < 0:
            raise ValueError(f"spectrum multiplicities failed to cancel at (n,k,i)=({n},{k},{i})")
        values.extend([value] * int(mult))
    if len(values) != n:
        raise ValueError(f"spectrum size {len(values)} != n={n} at (n,k,i)=({n},{k},{i})")
    return spectrum_from_values(values)


def connectivity_bound(n: int, k: int, alpha: float) -> float:
    """b(n, k, alpha): the power sum of the closed-form spectrum at i = 1, the
    sharp bound over connected graphs with vertex connectivity at most k."""
    _check_alpha(alpha)
    return nonzero_power_sum(gi_spectrum(n, k, 1), alpha)


def max_edges_vnk(n: int, k: int) -> int:
    """(n^2 - 3n + 2k + 2) / 2: the edge-count specialization at alpha = 1."""
    if not (1 <= k <= n - 1):
        raise ValueError(f"need 1 <= k <= n-1, got (n,k)=({n},{k})")
    return (n * n - 3 * n + 2 * k + 2) // 2


def el_bound_vnk(n: int, k: int) -> int:
    """n^3 - 4n^2 + (2k+5)n + k^2 - k - 2: the alpha = 2 specialization.

    This is the corrected expansion, pinned against the spectral oracle; see
    el_bound_vnk_as_printed for the circulating misprint.
    """
    if not (1 <= k <= n - 1):
        raise ValueError(f"need 1 <= k <= n-1, got (n,k)=({n},{k})")
    return n ** 3 - 4 * n ** 2 + (2 * k + 5) * n + k * k - k - 2


def el_bound_vnk_as_printed(n: int, k: int) -> int:
    """The misprinted alpha = 2 polynomial (n^3 + 2n^2 + ...), kept only so
    reports can demonstrate the discrepancy; it exceeds the true value by
    exactly 6n^2.  Do not use as a bound."""
    return n ** 3 + 2 * n ** 2 + (2 * k + 5) * n + k * k - k - 2


# shape -> (graph family, parameter names, extremal graph, closed-form name).
# The closed form is looked up by name at call time, so a wrapper installed on
# the module attribute (a profiler, a tracer) sees every evaluation.
_SHAPES: dict[str, tuple[str, tuple[str, ...], Callable[..., Graph], str]] = {
    "parts": ("bipartite", ("r", "s"), complete_bipartite, "complete_bipartite_bound"),
    "balanced": ("bipartite", ("n",), lambda n: complete_bipartite(n // 2, (n + 1) // 2),
                 "balanced_bipartite_bound"),
    "complete": ("connected", ("n",), complete, "complete_graph_bound"),
    "gi": ("kappa", ("n", "k"), lambda n, k: construct_gi(n, k, 1), "connectivity_bound"),
}


@dataclass(frozen=True)
class BoundSpec:
    """One bound: its formula id, direction, shape, alpha validity."""

    id: str
    direction: str  # "upper" | "lower"
    shape: str  # a key of _SHAPES
    status: str  # "theorem" | "conjecture"
    alpha_range: str
    extremal: str
    alpha_test: Callable[[float], bool] = field(compare=False)

    @property
    def family(self) -> str:
        """The graph family: "bipartite" | "connected" | "kappa"."""
        return _SHAPES[self.shape][0]

    def alpha_ok(self, alpha: float) -> bool:
        return self.alpha_test(float(alpha))


BOUNDS: dict[str, BoundSpec] = {
    spec.id: spec
    for spec in [
        BoundSpec("thm31-upper", "upper", "parts", "theorem", "alpha > 0",
                  "complete bipartite graph on the same part sizes", lambda a: a > 0),
        BoundSpec("thm31-lower", "lower", "parts", "theorem", "alpha < 0",
                  "complete bipartite graph on the same part sizes", lambda a: a < 0),
        BoundSpec("thm32-upper", "upper", "balanced", "theorem", "0 < alpha <= 1",
                  "balanced complete bipartite graph", lambda a: 0 < a <= 1),
        BoundSpec("thm32-lower", "lower", "balanced", "theorem", "alpha < 0",
                  "balanced complete bipartite graph", lambda a: a < 0),
        BoundSpec("conj31-upper", "upper", "balanced", "conjecture", "alpha > 1",
                  "balanced complete bipartite graph", lambda a: a > 1),
        BoundSpec("thm41-upper", "upper", "complete", "theorem", "alpha > 0",
                  "complete graph", lambda a: a > 0),
        BoundSpec("thm41-lower", "lower", "complete", "theorem", "alpha < 0",
                  "complete graph", lambda a: a < 0),
        BoundSpec("thm43-upper", "upper", "gi", "theorem", "alpha >= 1",
                  "construct_gi(n, k, 1)", lambda a: a >= 1),
        BoundSpec("conj44-upper", "upper", "gi", "conjecture", "0 < alpha < 1",
                  "construct_gi(n, k, 1)", lambda a: 0 < a < 1),
        BoundSpec("conj44-lower", "lower", "gi", "conjecture", "alpha < 0",
                  "construct_gi(n, k, 1)", lambda a: a < 0),
    ]
}

FAMILY_ALIASES: dict[str, tuple[str, ...]] = {
    "thm31": ("thm31-upper", "thm31-lower"),
    "thm32": ("thm32-upper", "thm32-lower"),
    "thm41": ("thm41-upper", "thm41-lower"),
    "thm43": ("thm43-upper",),
    "conj31": ("conj31-upper",),
    "conj44": ("conj44-upper", "conj44-lower"),
}


def resolve_bound_id(id_or_alias: str, alpha: float) -> Optional[str]:
    """Map an id or family alias plus an alpha to the applicable branch id.

    Returns None when no branch of the family covers this alpha.  An unknown
    id raises.
    """
    if id_or_alias in BOUNDS:
        return id_or_alias if BOUNDS[id_or_alias].alpha_ok(alpha) else None
    if id_or_alias in FAMILY_ALIASES:
        for bid in FAMILY_ALIASES[id_or_alias]:
            if BOUNDS[bid].alpha_ok(alpha):
                return bid
        return None
    raise ValueError(f"unknown bound id {id_or_alias!r}")


def _shape(bound_id: str, n: Optional[int], k: Optional[int], r: Optional[int],
           s: Optional[int]) -> tuple[BoundSpec, tuple[int, ...]]:
    """The spec of a bound and the values of its shape's parameters, in order."""
    spec = BOUNDS.get(bound_id)
    if spec is None:
        raise ValueError(f"unknown bound id {bound_id!r}")
    given = {"n": n, "k": k, "r": r, "s": s}
    names = _SHAPES[spec.shape][1]
    if any(given[p] is None for p in names):
        raise ValueError(f"{bound_id} needs {' and '.join(names)}")
    return spec, tuple(given[p] for p in names)


def extremal_graph(bound_id: str, n: Optional[int] = None, k: Optional[int] = None,
                   r: Optional[int] = None, s: Optional[int] = None) -> Graph:
    """The claimed equality graph of a bound, constructed."""
    spec, params = _shape(bound_id, n, k, r, s)
    return _SHAPES[spec.shape][2](*params)


@lru_cache(maxsize=4096)
def bound_value(bound_id: str, alpha: float, n: Optional[int] = None, k: Optional[int] = None,
                r: Optional[int] = None, s: Optional[int] = None) -> float:
    """Evaluate a bound formula under its stated alpha validity.  Memoised per
    process: a scan asks for the same few values many times."""
    spec, params = _shape(bound_id, n, k, r, s)
    if not spec.alpha_ok(alpha):
        raise ValueError(f"alpha={alpha} outside the stated range of {bound_id} ({spec.alpha_range})")
    return globals()[_SHAPES[spec.shape][3]](*params, alpha)
