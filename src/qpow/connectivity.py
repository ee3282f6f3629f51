"""Vertex and edge connectivity via unit-capacity max-flow, with witness cuts.

kappa uses minimum s-t vertex cuts on the split-vertex transform, minimized
over a fixed minimum-degree vertex v0 against its non-neighbors plus all
non-adjacent pairs inside N(v0); that candidate set always contains a pair
separated by some global minimum cut.  epsilon uses s-t edge max-flow from a
fixed vertex to every other vertex.  Each quantity has one flow routine that
returns the value with its witness cut; the value-only entry points take the
first element.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, _reach


@dataclass(frozen=True)
class ConnectivityProfile:
    kappa: int
    epsilon: int
    vertex_cut: tuple[int, ...]
    edge_cut: tuple[tuple[int, int], ...]


def _st_vertex_flow(rows, n: int, s: int, t: int, limit: int):
    """Max number of internally vertex-disjoint s-t paths, capped at limit,
    with a minimum s-t vertex cut when the flow stays below limit (else None).

    Split transform: node v becomes v_in = v and v_out = v + n with a
    capacity-1 arc between them; each edge u~v adds u_out -> v_in both ways.
    Every arc carries at most one unit here (each head or tail is throttled by
    a unit split arc, and arcs out of the source go to distinct v_in), so the
    residual graph stays 0/1 and fits in one bitmask per node.
    """
    n2 = 2 * n
    radj = [0] * n2
    for v in range(n):
        radj[v] = 1 << (v + n)
        radj[v + n] = rows[v]
    src = s + n
    snk = t
    flow = 0
    seen = 0
    while True:
        parent = [-1] * n2
        seen = 1 << src
        frontier = [src]
        found = False
        while frontier and not found:
            nxt = []
            for x in frontier:
                m = radj[x] & ~seen
                while m:
                    y = (m & -m).bit_length() - 1
                    m &= m - 1
                    seen |= 1 << y
                    parent[y] = x
                    if y == snk:
                        found = True
                        break
                    nxt.append(y)
                if found:
                    break
            frontier = nxt
        if not found:
            break
        y = snk
        while y != src:
            x = parent[y]
            radj[x] &= ~(1 << y)
            radj[y] |= 1 << x
            y = x
        flow += 1
        if flow >= limit:
            return flow, None
    # min cut = vertices whose split arc crosses the reachable frontier
    cut = tuple(v for v in range(n) if (seen >> v) & 1 and not (seen >> (v + n)) & 1)
    return flow, cut


def _vertex_candidates(rows, n: int, v0: int):
    non_nbrs = [u for u in range(n) if u != v0 and not (rows[v0] >> u) & 1]
    nbrs = [u for u in range(n) if (rows[v0] >> u) & 1]
    pairs = [(x, y) for x, y in combinations(nbrs, 2) if not (rows[x] >> y) & 1]
    return [(v0, u) for u in non_nbrs] + pairs


def _min_vertex_cut_rows(rows, n: int) -> tuple[int, tuple[int, ...]]:
    """(kappa, witness vertex cut) straight from adjacency bitmask rows."""
    full = (1 << n) - 1
    if _reach(rows, 1, full) != full:
        return 0, ()
    degs = [r.bit_count() for r in rows]
    if all(d == n - 1 for d in degs):
        return n - 1, ()
    v0 = min(range(n), key=lambda v: degs[v])
    best, best_cut = degs[v0], None
    for s, t in _vertex_candidates(rows, n, v0):
        flow, cut = _st_vertex_flow(rows, n, s, t, best)
        if flow < best:
            best, best_cut = flow, cut
        if best <= 1:
            break
    if best_cut is None:  # no pair beat the neighbourhood of v0
        best_cut = tuple(u for u in range(n) if (rows[v0] >> u) & 1)
    return best, best_cut


def min_vertex_cut(g: Graph) -> tuple[int, tuple[int, ...]]:
    """(kappa, witness vertex cut).  The witness is empty for disconnected
    graphs (already disconnected) and for complete graphs (no cut exists;
    kappa = n-1 by convention)."""
    return _min_vertex_cut_rows(g.rows, g.n)


def vertex_connectivity(g: Graph) -> int:
    """kappa, by flow."""
    return _min_vertex_cut_rows(g.rows, g.n)[0]


def _st_edge_flow(rows, n: int, s: int, t: int, limit: int):
    """Max s-t edge-disjoint paths via BFS augmentation on a capacity matrix,
    with a minimum s-t edge cut when the flow stays below limit (else None)."""
    cap = [[0] * n for _ in range(n)]
    for v in range(n):
        mv = rows[v]
        while mv:
            u = (mv & -mv).bit_length() - 1
            mv &= mv - 1
            cap[v][u] = 1
    flow = 0
    reach_mask = 0
    while True:
        parent = [-1] * n
        parent[s] = s
        frontier = [s]
        reach_mask = 1 << s
        found = False
        while frontier and not found:
            nxt = []
            for x in frontier:
                cx = cap[x]
                for y in range(n):
                    if cx[y] > 0 and not (reach_mask >> y) & 1:
                        parent[y] = x
                        reach_mask |= 1 << y
                        if y == t:
                            found = True
                            break
                        nxt.append(y)
                if found:
                    break
            frontier = nxt
        if not found:
            break
        y = t
        while y != s:
            x = parent[y]
            cap[x][y] -= 1
            cap[y][x] += 1
            y = x
        flow += 1
        if flow >= limit:
            return flow, None
    cut = []
    for u in range(n):
        if not (reach_mask >> u) & 1:
            continue
        mu = rows[u]
        while mu:
            v = (mu & -mu).bit_length() - 1
            mu &= mu - 1
            if not (reach_mask >> v) & 1:
                cut.append((min(u, v), max(u, v)))
    return flow, tuple(sorted(set(cut)))


def min_edge_cut(g: Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(epsilon, witness edge cut); empty witness when already disconnected."""
    n = g.n
    if n == 1 or not g.is_connected():
        return 0, ()
    degs = g.degree_sequence()
    v0 = min(range(n), key=lambda v: degs[v])
    best = degs[v0]
    best_cut = tuple(sorted((min(v0, u), max(v0, u)) for u in g.neighbors(v0)))
    for t in range(n):
        if t == v0:
            continue
        flow, cut = _st_edge_flow(g.rows, n, v0, t, best)
        if flow < best:
            best, best_cut = flow, cut
        if best <= 1:
            break
    return best, best_cut


def edge_connectivity(g: Graph) -> int:
    """epsilon, by flow."""
    return min_edge_cut(g)[0]


def connectivity_profile(g: Graph) -> ConnectivityProfile:
    kappa, vcut = min_vertex_cut(g)
    epsilon, ecut = min_edge_cut(g)
    return ConnectivityProfile(kappa=kappa, epsilon=epsilon, vertex_cut=vcut, edge_cut=ecut)


def kappa_at_most(g: Graph, k: int) -> bool:
    """Membership test for the bounded-connectivity family: kappa(G) <= k."""
    if not 1 <= k <= g.n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k} for n={g.n}")
    return vertex_connectivity(g) <= k
