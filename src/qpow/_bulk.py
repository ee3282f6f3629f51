"""Vectorized population kernels for exhaustive small-graph sweeps.

Labeled graphs on n vertices are integer edge codes (upper-triangle bits in
graph6 order).  Everything here works on numpy arrays of codes or of per-
vertex adjacency bitmasks, in fixed-size chunks, so full populations up to
n = 8 stay in the acceptance-criteria runtime budgets on one core.  Results
feed the search module; single-graph questions go through the ordinary Graph
API instead.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .graphs import _pair_positions
from .spectra import ZERO_THRESHOLD_SCALE

CHUNK = 1 << 18

_kappa_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_connected_cache: dict[int, np.ndarray] = {}


def decode_rows(codes: np.ndarray, n: int) -> np.ndarray:
    """Per-vertex adjacency bitmasks, shape (B, n), from edge codes."""
    codes = np.asarray(codes, dtype=np.int64)
    rows = np.zeros((codes.size, n), dtype=np.int32)
    for p, (i, j) in enumerate(_pair_positions(n)):
        bit = ((codes >> p) & 1).astype(np.int32)
        rows[:, i] |= bit << j
        rows[:, j] |= bit << i
    return rows


def connected_mask(rows: np.ndarray, n: int, keep: int | None = None) -> np.ndarray:
    """Connectivity of the subgraph induced on the vertex set `keep` (bitmask)."""
    if keep is None:
        keep = (1 << n) - 1
    vbits = np.arange(n, dtype=np.int32)
    masked = rows & keep
    start = keep & -keep
    reach = np.full(rows.shape[0], start, dtype=np.int32)
    for _ in range(keep.bit_count() - 1):
        sel = ((reach[:, None] >> vbits) & 1).astype(np.int32)
        nxt = reach | np.bitwise_or.reduce(masked * sel, axis=1)
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    return reach == keep


def q_matrices(rows: np.ndarray, n: int) -> np.ndarray:
    vbits = np.arange(n, dtype=np.int32)
    adj = ((rows[:, :, None] >> vbits[None, None, :]) & 1).astype(np.float64)
    mats = adj.copy()
    idx = np.arange(n)
    mats[:, idx, idx] = adj.sum(axis=2)
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


def kappa_batch(rows: np.ndarray, n: int) -> np.ndarray:
    """Exact vertex connectivity by exhaustive vertex-cut sweep, ascending cut
    size with survivor compression; disconnected graphs get 0, complete n-1."""
    B = rows.shape[0]
    kappa = np.zeros(B, dtype=np.int8)
    alive = np.flatnonzero(connected_mask(rows, n))
    sub = rows[alive]
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
        sub = sub[~hit]
    kappa[alive] = n - 1
    return kappa


def iter_connected_code_chunks(n: int):
    """Lazily yield chunks of the codes of labeled connected graphs on n
    vertices, in ascending code order."""
    cached = _connected_cache.get(n)
    if cached is not None:
        for lo in range(0, cached.size, CHUNK):
            yield cached[lo:lo + CHUNK]
        return
    total = 1 << (n * (n - 1) // 2)
    for lo in range(0, total, CHUNK):
        codes = np.arange(lo, min(lo + CHUNK, total), dtype=np.int64)
        keep = codes[connected_mask(decode_rows(codes, n), n)]
        if keep.size:
            yield keep


def connected_codes(n: int) -> np.ndarray:
    """Codes of every labeled connected graph on n vertices (cached, n <= 7)."""
    cached = _connected_cache.get(n)
    if cached is not None:
        return cached
    parts = list(iter_connected_code_chunks(n))
    out = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    if n <= 7:
        _connected_cache[n] = out
    return out


def connected_with_kappa(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(codes, kappa) for every labeled connected graph on n vertices."""
    cached = _kappa_cache.get(n)
    if cached is not None:
        return cached
    codes = connected_codes(n)
    kappas = np.empty(codes.size, dtype=np.int8)
    for lo in range(0, codes.size, CHUNK):
        chunk = codes[lo:lo + CHUNK]
        kappas[lo:lo + chunk.size] = kappa_batch(decode_rows(chunk, n), n)
    if n <= 7:
        _kappa_cache[n] = (codes, kappas)
    return codes, kappas


def iter_connected_with_kappa(n: int, need_kappa: bool = True):
    """Lazily yield (codes, kappas) chunks over the connected population;
    kappas is None when not requested.  Cached whole-population arrays are
    reused for n <= 7."""
    if not need_kappa:
        for chunk in iter_connected_code_chunks(n):
            yield chunk, None
        return
    if n <= 7:
        codes, kappas = connected_with_kappa(n)
        for lo in range(0, codes.size, CHUNK):
            yield codes[lo:lo + CHUNK], kappas[lo:lo + CHUNK]
        return
    for chunk in iter_connected_code_chunks(n):
        yield chunk, kappa_batch(decode_rows(chunk, n), n)


def bipartite_splits(n: int) -> list[int]:
    """Bitmasks of the part containing vertex 0, one per unordered split."""
    if n == 1:
        return [1]
    full = (1 << n) - 1
    return [a for a in range(1, full, 2) if a != full]


def split_cross_positions(n: int, amask: int) -> list[int]:
    """Global pair-bit positions of the cross edges of a bipartition."""
    pos = []
    for p, (i, j) in enumerate(_pair_positions(n)):
        if ((amask >> i) & 1) != ((amask >> j) & 1):
            pos.append(p)
    return pos


def split_connected_codes(n: int, amask: int):
    """Yield code arrays of the connected bipartite graphs whose unique
    bipartition is exactly {A, complement}; over all splits this enumerates
    every labeled connected bipartite graph exactly once."""
    if n == 1:
        yield np.zeros(1, dtype=np.int64)
        return
    cross = split_cross_positions(n, amask)
    total = 1 << len(cross)
    for lo in range(0, total, CHUNK):
        local = np.arange(lo, min(lo + CHUNK, total), dtype=np.int64)
        codes = np.zeros(local.size, dtype=np.int64)
        for lbit, p in enumerate(cross):
            codes |= ((local >> lbit) & 1) << p
        keep = connected_mask(decode_rows(codes, n), n)
        if np.any(keep):
            yield codes[keep]


def clear_caches() -> None:
    _kappa_cache.clear()
    _connected_cache.clear()
