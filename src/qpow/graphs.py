"""Immutable simple graphs and the constructors for the graph families used here.

Vertices are labeled 0..n-1 and adjacency is stored as one integer bitmask per
vertex (bit v of row u set iff u~v).  That representation keeps edge tests,
traversals and exhaustive enumeration cheap at the desk scale (n <= 64) this
package targets.
"""

from __future__ import annotations

from typing import Iterable, Optional

MAX_VERTICES = 64


def _pair_positions(n: int) -> list[tuple[int, int]]:
    """Vertex pairs (i, j), i < j, in upper-triangle column-major order.

    This is also the bit order of the graph6 format and of the integer edge
    codes used by the search module, so the three never disagree.
    """
    return [(i, j) for j in range(1, n) for i in range(j)]


def _reach(rows, start_mask: int, keep: int) -> int:
    """Vertices reachable from start_mask inside the induced subgraph on keep."""
    reach = start_mask & keep
    while True:
        frontier = reach
        nxt = reach
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            nxt |= rows[v] & keep
        if nxt == reach:
            return reach
        reach = nxt


class Graph:
    """Simple undirected graph, value-immutable after construction.

    Multi-edges collapse silently; self-loops and out-of-range endpoints are
    rejected.  Equality and hashing are by labeled edge set, not isomorphism.
    """

    __slots__ = ("n", "rows", "m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if not isinstance(n, int) or not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be an integer in 1..{MAX_VERTICES}, got {n!r}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) is not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "m", sum(r.bit_count() for r in rows) // 2)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool((self.rows[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            mask = self.rows[u] >> (u + 1)
            v = u + 1
            while mask:
                if mask & 1:
                    out.append((u, v))
                mask >>= 1
                v += 1
        return out

    def neighbors(self, u: int) -> list[int]:
        mask = self.rows[u]
        out = []
        while mask:
            out.append((mask & -mask).bit_length() - 1)
            mask &= mask - 1
        return out

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def degree_sequence(self) -> list[int]:
        """Vertex degrees in vertex order (not sorted)."""
        return [r.bit_count() for r in self.rows]

    def delete_edge(self, e: tuple[int, int]) -> "Graph":
        """A new graph with edge e removed; this graph is unchanged."""
        u, v = e
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) not present")
        return Graph(self.n, [x for x in self.edges() if x != (min(u, v), max(u, v))])

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return _reach(self.rows, 1, full) == full

    def _two_coloring(self) -> Optional[list[int]]:
        """The colors 0 and 1 of a proper 2-coloring, with vertex 0 colored 0,
        or None when some component contains an odd cycle."""
        color = [-1] * self.n
        for start in range(self.n):
            if color[start] != -1:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                u = queue.pop()
                for v in self.neighbors(u):
                    if color[v] == -1:
                        color[v] = 1 - color[u]
                        queue.append(v)
                    elif color[v] == color[u]:
                        return None
        return color

    def is_bipartite(self) -> bool:
        """True when no component contains an odd cycle."""
        return self._two_coloring() is not None

    def bipartition(self) -> Optional[tuple[int, int]]:
        """Part sizes (r, s) of the proper 2-coloring, vertex 0's part first.

        Returns None when the graph has an odd cycle.  Raises ValueError on a
        disconnected graph, where the split is ambiguous.
        """
        if not self.is_connected():
            raise ValueError("bipartition of a disconnected graph is ambiguous")
        color = self._two_coloring()
        if color is None:
            return None
        r = color.count(0)
        return (r, self.n - r)

    def to_code(self) -> int:
        """Upper-triangle bitmask of the edge set (graph6 bit order)."""
        code = 0
        for p, (i, j) in enumerate(_pair_positions(self.n)):
            if (self.rows[i] >> j) & 1:
                code |= 1 << p
        return code


def from_code(n: int, code: int) -> Graph:
    """Inverse of Graph.to_code for a given vertex count."""
    pairs = _pair_positions(n)
    if code < 0 or code >> len(pairs):
        raise ValueError(f"edge code {code} out of range for n={n}")
    return Graph(n, [pairs[p] for p in range(len(pairs)) if (code >> p) & 1])


def new_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Explicit constructor form of Graph(n, edges)."""
    return Graph(n, edges)


def empty(n: int) -> Graph:
    return Graph(n)


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph(n, [(i, j) for j in range(1, n) for i in range(j)])


def complete_bipartite(r: int, s: int) -> Graph:
    if r < 1 or s < 1:
        raise ValueError(f"complete bipartite graph needs r, s >= 1, got ({r},{s})")
    return Graph(r + s, [(i, r + j) for i in range(r) for j in range(s)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """G and H side by side; H's vertices are relabeled by offset g.n."""
    off = g.n
    return Graph(g.n + h.n, g.edges() + [(u + off, v + off) for u, v in h.edges()])


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every cross edge; H is relabeled by offset g.n."""
    off = g.n
    cross = [(u, off + v) for u in range(g.n) for v in range(h.n)]
    return Graph(g.n + h.n, g.edges() + [(u + off, v + off) for u, v in h.edges()] + cross)


def construct_gi(n: int, k: int, i: int) -> Graph:
    """Join of a k-clique with the disjoint union of an i-clique and an
    (n-k-i)-clique: the extremal family for graphs of vertex connectivity k.

    Valid parameters: 1 <= k <= n-1 and 1 <= i <= floor((n-k)/2), plus the
    degenerate corner (k, i) = (n-1, 1) where the second clique is empty and
    the construction collapses to the complete graph.
    """
    if not (1 <= k <= n - 1):
        raise ValueError(f"need 1 <= k <= n-1, got (n,k)=({n},{k})")
    if not (1 <= i <= (n - k) // 2 or (k == n - 1 and i == 1)):
        raise ValueError(f"need 1 <= i <= floor((n-k)/2), got (n,k,i)=({n},{k},{i})")
    rest = disjoint_union(complete(i), complete(n - k - i)) if n - k - i >= 1 else complete(i)
    return join(complete(k), rest)
