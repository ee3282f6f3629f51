"""Vectorized population kernels for exhaustive small-graph sweeps.

Labeled graphs on n vertices are integer edge codes (upper-triangle bits in
graph6 order).  Every population, internal or streamed, arrives as one batch
type, Chunk, from its source to the scan report: the codes, their per-vertex
adjacency bitmasks of shape (B, n), for the kappa family the connectivities,
and for a bipartite split vertex 0's part size.  An internal chunk holds at
most CHUNK graphs, which caps the memory of one batch.  A connected or kappa
population's graph is decoded once, by the filter that enumerates it or from
one cache, which holds the codes and kappas of the connected graphs for
n <= 7.  A bipartite split's graphs are gathered instead: their codes and
rows from two half-size subset tables of the split's cross edges, and a
frontier sweep over those rows keeps the connected ones; the same edge
weights, built for many splits at once, relabel chosen graphs of each
shape's canonical split onto a group of splits of any shapes, one matrix
product per shape (split_relabelings).  Rows are built column by column,
and connectivity, of a graph or of the subgraph induced on a vertex set (the
kappa sweep), is an in-place frontier sweep over a batch's columns.  The
other kernels are batched signless Laplacian spectra and power sums, and
upper bounds on the power sums from exact integer trace moments, which let a
scan skip the eigensolve of graphs that cannot reach its report; the moments
are int32 running sums, taken one vertex column and one column pair at a
time.
Results feed the search module; single-graph questions go through the
ordinary Graph API instead.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import numpy as np

from .graphs import _pair_positions
from .spectra import ZERO_THRESHOLD_SCALE

CHUNK = 1 << 18

_connected_cache: dict[int, Chunk] = {}  # n -> codes and kappas, rows None


def _rows(bits: np.ndarray, n: int, edges) -> np.ndarray:
    """Per-vertex adjacency bitmasks, shape (B, n), int32, of the graphs in
    which edge ij is present when bit s of bits is set, for each (s, i, j) of
    edges.  They are built as the columns of one (n, B) block and returned as
    its transpose, so every update writes contiguous memory."""
    cols = np.zeros((n, bits.size), dtype=np.int32)
    for s, i, j in edges:
        bit = ((bits >> s) & 1).astype(np.int32)
        cols[i] |= bit << j
        cols[j] |= bit << i
    return cols.T


def decode_rows(codes: np.ndarray, n: int) -> np.ndarray:
    """Per-vertex adjacency bitmasks, shape (B, n), from edge codes."""
    return _rows(np.asarray(codes, dtype=np.int64), n,
                 [(p, i, j) for p, (i, j) in enumerate(_pair_positions(n))])


def connected_mask(rows: np.ndarray, n: int, keep: int | None = None) -> np.ndarray:
    """Connectivity of the subgraph induced on the vertex set `keep` (bitmask).

    A frontier sweep from the lowest kept vertex: each pass visits the kept
    vertices in order and ORs the kept neighbours of every vertex already
    reached into its graph's reach, in place, so one pass can follow a path
    of several edges.  Passes repeat until no reach changes; reach only gains
    bits, so an unchanged sum means an unchanged reach.  Without keep the
    columns are read in place, not copied through a mask."""
    cols = [(v, rows[:, v] if keep is None else rows[:, v] & keep)
            for v in range(n) if keep is None or keep >> v & 1]
    keep = (1 << n) - 1 if keep is None else keep
    reach = np.full(len(rows), keep & -keep, dtype=rows.dtype)
    hit = np.empty_like(reach)
    seen = -1
    while (total := int(reach.sum())) != seen:
        seen = total
        for v, col in cols:
            np.right_shift(reach, v, out=hit)
            hit &= 1
            hit *= col
            reach |= hit
    return reach == keep


def q_matrices(rows: np.ndarray, n: int) -> np.ndarray:
    """Signless Laplacian matrices Q = D + A, shape (B, n, n), float64: the
    adjacency bits, with the row sums written onto their zero diagonal."""
    mats = ((rows[:, :, None] >> np.arange(n, dtype=np.int32)) & 1).astype(np.float64)
    idx = np.arange(n)
    mats[:, idx, idx] = mats.sum(axis=2)
    return mats


def q_eigs(rows: np.ndarray, n: int) -> np.ndarray:
    """Signless Laplacian eigenvalues, descending, shape (B, n)."""
    return np.linalg.eigvalsh(q_matrices(rows, n))[:, ::-1]


def power_sums(eigs_desc: np.ndarray, alpha: float) -> np.ndarray:
    """Power sums over the eigenvalues above the per-graph zero threshold."""
    thr = ZERO_THRESHOLD_SCALE * np.maximum(eigs_desc[:, 0], 1.0)
    mask = eigs_desc > thr[:, None]
    safe = np.where(mask, eigs_desc, 1.0)
    return np.sum(np.where(mask, safe ** alpha, 0.0), axis=1)


def moment_upper_bounds(rows: np.ndarray, n: int, alphas, bipartite: bool = False) -> np.ndarray:
    """Upper bounds on power_sums(q_eigs(rows, n), a) for each a > 0 of
    alphas, shape (B, len(alphas)), from exact trace moments of Q = D + A:

        S_0 <= n,  S_1 = 2m,  S_2 = M1 + 2m,  S_3 = sum d^3 + 3 M1 + 6t,
        lambda_1 <= max over edges ij of d_i + d_j,

    with t the triangle count.  p -> log S_p is convex, so between two of
    these moments the bound is their geometric interpolation (exact at a = 1,
    2, 3), and above 3 it is S_3 lambda_1^(a-3).  Triangles are counted only
    when some a > 2.  bipartite=True declares every graph connected and
    bipartite: then t = 0, and exactly one eigenvalue is zero, so S_0 = n-1.

    The moments are int32 running sums of length B, taken one vertex column
    and then one column pair ij at a time (6t sums 2 |N(i) & N(j)| over the
    edges ij), in place; K_62, the largest graph6 input, has S_3 < 1.5e7."""
    size, top = len(rows), max(alphas)
    deg = [np.bitwise_count(rows[:, v]) for v in range(n)]
    s1, m1, s3, lam, tmp = (np.zeros(size, dtype=np.int32) for _ in range(5))
    for d in deg:
        s1 += d
        np.multiply(d, d, out=tmp, dtype=np.int32)
        m1 += tmp
        tmp *= d + 3  # d^3 + 3 d^2
        s3 += tmp
    if top > 2 and (not bipartite or top > 3):
        edge = np.empty(size, dtype=rows.dtype)
        for i, j in combinations(range(n), 2):
            np.right_shift(rows[:, i], j, out=edge)
            edge &= 1  # 1 where ij is an edge
            if top > 3:
                np.add(deg[i], deg[j], out=tmp, dtype=np.int32)
                tmp *= edge
                np.maximum(lam, tmp, out=lam)
            if not bipartite:
                np.negative(edge, out=edge)  # all bits set where ij is an edge
                edge &= rows[:, i]
                edge &= rows[:, j]
                np.multiply(np.bitwise_count(edge), 2, out=tmp, dtype=np.int32)
                s3 += tmp
    moments = [np.full(size, float(n - 1 if bipartite else n)), s1, m1 + s1, s3]
    moments = [np.asarray(m, dtype=np.float64) for m in moments]
    out = np.empty((len(alphas), size)).T
    for c, a in enumerate(alphas):
        if a > 3:
            out[:, c] = moments[3] * lam.astype(np.float64) ** (a - 3)
        else:
            lo = int(np.ceil(a)) - 1  # a lies in (lo, lo + 1]
            out[:, c] = moments[lo] ** (lo + 1 - a) * moments[lo + 1] ** (a - lo)
    return out


def kappa_batch(rows: np.ndarray, n: int) -> np.ndarray:
    """Exact vertex connectivity by exhaustive vertex-cut sweep, ascending cut
    size with survivor compression; disconnected graphs get 0, complete n-1."""
    B = rows.shape[0]
    kappa = np.zeros(B, dtype=np.int8)
    alive = np.flatnonzero(connected_mask(rows, n))
    sub = np.asfortranarray(rows[alive])  # contiguous columns for connected_mask
    full = (1 << n) - 1
    for size in range(1, n - 1):
        if alive.size == 0:
            break
        hit = np.zeros(alive.size, dtype=bool)
        for subset in combinations(range(n), size):
            keep = full
            for v in subset:
                keep &= ~(1 << v)
            hit |= ~connected_mask(sub, n, keep)
        kappa[alive[hit]] = size
        alive = alive[~hit]
        sub = np.asfortranarray(sub[~hit])
    kappa[alive] = n - 1
    return kappa


class Chunk(NamedTuple):
    """One batch of a population: edge codes, per-vertex adjacency rows of
    shape (B, n), connectivities for the kappa family (else None), and
    vertex 0's part size for a bipartite split or a thm31 stream (else None)."""

    codes: np.ndarray
    rows: np.ndarray
    kappas: np.ndarray | None = None
    r: int | None = None

    @property
    def size(self) -> int:
        """The number of graphs."""
        return self.codes.size


def iter_connected_code_chunks(n: int):
    """Lazily yield Chunks of the labeled connected graphs on n vertices, in
    ascending code order; the rows are those the connectivity filter decoded."""
    total = 1 << (n * (n - 1) // 2)
    for lo in range(0, total, CHUNK):
        codes = np.arange(lo, min(lo + CHUNK, total), dtype=np.int64)
        rows = decode_rows(codes, n)
        keep = connected_mask(rows, n)
        if np.any(keep):
            yield Chunk(codes[keep], rows[keep])


def connected_chunks(n: int, need_kappa: bool):
    """Lazily yield Chunks of the labeled connected graphs on n vertices, in
    ascending code order, with kappas only when need_kappa.

    A kappa traversal with n <= 7 that runs to the end caches the codes and
    kappas of the whole population (n = 8 is too large to hold).  Later
    traversals of either kind slice the cached codes and decode each slice
    once, so neither enumeration nor the kappa sweep runs again."""
    cached = _connected_cache.get(n)
    if cached is not None:
        for lo in range(0, cached.size, CHUNK):
            codes = cached.codes[lo:lo + CHUNK]
            yield Chunk(codes, decode_rows(codes, n),
                        cached.kappas[lo:lo + CHUNK] if need_kappa else None)
        return
    if not need_kappa:
        yield from iter_connected_code_chunks(n)
        return
    codes, kappas = [], []
    for chunk in iter_connected_code_chunks(n):
        chunk = chunk._replace(kappas=kappa_batch(chunk.rows, n))
        if n <= 7:
            codes.append(chunk.codes)
            kappas.append(chunk.kappas)
        yield chunk
    if codes:
        _connected_cache[n] = Chunk(np.concatenate(codes), None, np.concatenate(kappas))


def bipartite_splits(n: int) -> list[int]:
    """Bitmasks of the part containing vertex 0, one per unordered split: the
    odd masks below the full set ({0} itself for n = 1)."""
    return list(range(1, max((1 << n) - 1, 2), 2))


def _subset_table(weights: np.ndarray) -> np.ndarray:
    """Column x is the OR of the rows of weights at the set bits of x, shape
    (weights.shape[1], 2**len(weights)), built by doubling: one operation per
    weight row."""
    table = np.zeros((weights.shape[1], 1 << len(weights)), dtype=np.int64)
    for k, w in enumerate(weights):
        np.bitwise_or(table[:, :1 << k], w[:, None], out=table[:, 1 << k:2 << k])
    return table


def _split_weights(n: int, amasks) -> np.ndarray:
    """(S, c, n + 2) int64, a block per split of amasks, c the most cross
    edges of any: for each cross edge of the split, in graph6 order, its bit
    in the edge code, its bits in the n adjacency rows, and its bit in the
    canonical code, the edge code of the graph relabeled onto the canonical
    split A = {0..r-1} (A onto 0..r-1 and B after it, each part in order,
    so edge (a, b), a < b, is bit b (b - 1) / 2 + a); then zero rows.  A
    graph of the split with cross-edge subset x has the OR of the rows at
    the set bits of x for its code, rows and canonical code."""
    side = (np.asarray(amasks, dtype=np.int64)[:, None] >> np.arange(n)) & 1  # (S, n)
    pairs = np.array(_pair_positions(n), dtype=np.int64).reshape(-1, 2)
    cross = side[:, pairs[:, 0]] != side[:, pairs[:, 1]]
    split, p = np.nonzero(cross)  # p: bits in the edge code, ascending per split
    s = (np.cumsum(cross, axis=1) - 1)[split, p]  # each edge's row in its block
    i, j = pairs[p].T
    label = np.where(side, np.cumsum(side, axis=1),
                     side.sum(axis=1, keepdims=True) + np.cumsum(1 - side, axis=1)) - 1
    a, b = np.sort([label[split, i], label[split, j]], axis=0)
    weights = np.zeros((len(side), cross.sum(axis=1).max(initial=0), n + 2), dtype=np.int64)
    weights[split, s, 0] = 1 << p
    weights[split, s, 1 + i] = 1 << j
    weights[split, s, 1 + j] = 1 << i
    weights[split, s, n + 1] = 1 << (b * (b - 1) // 2 + a)
    return weights


def split_connected_codes(n: int, amask: int):
    """Yield Chunks of the connected bipartite graphs whose unique
    bipartition is exactly {A, complement}; over all splits this enumerates
    every labeled connected bipartite graph exactly once, each chunk the
    connected graphs among CHUNK consecutive subsets x of the cross edges, in
    ascending x.  Each chunk's r is |A|.

    A graph's edge code and its adjacency rows are ORs over the edges in x
    (_split_weights).  So each is top[x >> b] | low[x & (2**b - 1)], from two
    subset tables of at most 2**9 columns: a chunk's rows are one outer OR
    of the two tables' rows, and connected_mask on them picks the graphs it
    keeps.  Above 18 cross edges (n = 9), each chunk's top table carries the
    weights of the bits fixed in the chunk.  Rows come out F-ordered
    (column-contiguous), int32."""
    weights = _split_weights(n, [amask])[0, :, :-1]  # code, n rows
    r = amask.bit_count()
    bits = min(len(weights), CHUNK.bit_length() - 1)  # the bits of x within a chunk
    b = bits // 2
    low, high = _subset_table(weights[:b]), _subset_table(weights[b:bits])
    low_rows = low[1:].astype(np.int32)
    for fixed in _subset_table(weights[bits:]).T:  # the bits of each chunk's first x
        top = high | fixed[:, None]
        cols = (top[1:].astype(np.int32)[:, :, None] | low_rows[:, None, :]).reshape(n, -1)
        keep = connected_mask(cols.T, n)
        if keep.any():
            cols = np.compress(keep, cols, axis=1)  # hold only the kept rows while the chunk is out
            yield Chunk((top[0][:, None] | low[0]).ravel()[keep], cols.T, r=r)


def split_relabelings(n: int, amasks, survivors) -> tuple[np.ndarray, np.ndarray]:
    """(codes, rows) of the graphs of the splits amasks whose canonical codes
    are survivors[|A|], split after split, each split's in ascending x (the
    order of split_connected_codes); int64 codes, int32 rows.  A code is the
    sum of the code bits of the split's cross edges whose canonical bits the
    graph has: one matrix product per shape, in canonical-bit order (zero
    rows sort first and add nothing), then one sort by (split, code)."""
    weights = _split_weights(n, amasks)
    code_bits = np.take_along_axis(weights[:, :, 0], np.argsort(weights[:, :, -1], axis=1), axis=1)
    canonical_bits = np.sort(weights[:, :, -1], axis=1)
    shapes = np.array([amask.bit_count() for amask in amasks])
    codes, split = [], []
    for r in set(shapes.tolist()):
        ks = np.flatnonzero(shapes == r)
        has = (survivors[r][:, None] & canonical_bits[ks[0]]) != 0
        codes.append((code_bits[ks] @ has.T).ravel())  # split by split
        split.append(np.repeat(ks, len(has)))
    codes, split = np.concatenate(codes), np.concatenate(split)
    codes = codes[np.lexsort((codes, split))]
    return codes, decode_rows(codes, n)


def clear_caches() -> None:
    """Drop the cached connected populations (connected_chunks)."""
    _connected_cache.clear()
