"""Shared oracles and populations for the test suite.

Oracles here are deliberately independent of the library paths they check:
eigenvalues come from numpy's LAPACK (the library default is the Jacobi
solver), censuses come from naive per-code loops (the library enumerates with
vectorized kernels), and odd cycles come from adjacency-matrix powers.  The
Jacobi solver's earlier numpy-slice loop is kept as the bit-for-bit reference
for its Python-float loop, and the scan evaluator's earlier per-(alpha, k)
loop as the reference for its k-mask loop, and the moment screen's earlier
(B, alpha, k) cube as the reference for its column-wise decision.  Trace
moments of Q come from pure-Python integer matrix products (the library sums
degree and common-neighbour counts).  Vertex connectivity comes from an
exhaustive sweep over vertex subsets (the library runs max-flow), and the
connectivity of induced subgraphs from breadth-first search (the library runs
a batched bitmask sweep).  The bipartite split enumerator's earlier per-bit
builder (rows per cross edge, a frontier sweep per split, codes per cross
edge) is the bit-for-bit reference for its subset-table gathers, and the
earlier per-split relabeling (one pair of matrix products per split) the
reference for the relabeling of a group of splits.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, permutations

import numpy as np
import pytest

from qpow import _bulk
from qpow.bounds import BOUNDS
from qpow.graphs import Graph, _pair_positions, from_code
from qpow.search import _scalar_bound
from qpow.spectra import (
    JACOBI_CONV_SCALE,
    JACOBI_MAX_SWEEPS,
    ZERO_THRESHOLD_SCALE,
    EigensolverError,
)
from qpow.verify import tol_eq


def eigvalsh_oracle(matrix) -> np.ndarray:
    """Reference eigenvalues (descending) via LAPACK."""
    return np.sort(np.linalg.eigvalsh(np.asarray(matrix, dtype=float)))[::-1]


def jacobi_reference(m, conv_scale: float = JACOBI_CONV_SCALE,
                     max_sweeps: int = JACOBI_MAX_SWEEPS) -> np.ndarray:
    """The cyclic Jacobi solver as it was written on numpy slices: a column
    pass and a row pass of whole-array operations per rotation, with the
    scalars in np.float64.  The library's Python-float loop must return the
    same eigenvalues bit for bit."""
    a = np.array(m, dtype=float, copy=True)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.zeros(n)
    target = conv_scale * norm
    for _ in range(max_sweeps):
        off_sq = a.copy()
        np.fill_diagonal(off_sq, 0.0)
        if float(np.linalg.norm(off_sq)) <= target:
            return np.sort(np.diag(a))[::-1].copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(apq) < 1e-36 * abs(diff):
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
    raise EigensolverError(f"Jacobi sweep budget ({max_sweeps}) exhausted")


def evaluate_reference(acc, batches, branch_items, k_fixed):
    """The scan evaluator as it was written per (alpha, k): one member
    selection, bound, margin vector and argmax/argmin for every k of every
    alpha.  search._evaluate must give the same count, witnesses and (in
    sorted order) raw candidates."""
    for codes, rows, kappas, r in batches:
        n = rows.shape[1]
        eigs = _bulk.q_eigs(rows, n)
        ks = [None] if kappas is None else range(1, n) if k_fixed is None else [k_fixed]
        acc.count += len(codes) if kappas is None or k_fixed is None else int(np.sum(kappas <= k_fixed))
        for alpha, branch in branch_items:
            maximize = BOUNDS[branch].direction == "upper"
            vals = _bulk.power_sums(eigs, alpha)
            for k in ks:
                sel = np.arange(len(codes)) if k is None else np.flatnonzero(kappas <= k)
                if sel.size == 0:
                    continue
                bval = _scalar_bound(branch, alpha, n, k, r=r)
                vsel = vals[sel]
                margins = bval - vsel if maximize else vsel - bval
                for idx in np.flatnonzero(margins < -tol_eq(bval)):
                    acc.raw.append((n, int(codes[sel[idx]]), k, alpha, branch,
                                    float(vsel[idx]), float(bval)))
                j = int(np.argmax(vsel)) if maximize else int(np.argmin(vsel))
                acc.update_witness((n, k, branch, alpha), float(vsel[j]),
                                   int(codes[sel[j]]), maximize)
    return acc


def moment_screen_reference(rows, n, member, alphas, bvals, bipartite):
    """The moment screen as it was written on one (B, alpha, k) cube of
    member-masked bounds, reduced with argmax and any over its last two axes.
    search._moment_screen must return the same keep mask and eigenvalues."""
    ub = _bulk.moment_upper_bounds(rows, n, alphas, bipartite)
    cols = np.where(member[:, None, :], ub[:, :, None], -np.inf)
    probe = np.unique(cols.argmax(axis=0))
    eigs = np.empty((len(rows), n))
    eigs[probe] = _bulk.q_eigs(rows[probe], n)
    vals = np.stack([_bulk.power_sums(eigs[probe], alpha) for alpha in alphas], axis=1)
    best = np.where(member[probe][:, None, :], vals[:, :, None], -np.inf).max(axis=0)
    floor = np.minimum(best - np.vectorize(tol_eq, otypes=[float])(best), bvals)
    keep = np.any(cols >= floor, axis=(1, 2))
    rest = keep.copy()
    keep[probe], rest[probe] = True, False
    eigs[rest] = _bulk.q_eigs(rows[rest], n)
    return keep, eigs[keep]


def q_moments_oracle(rows) -> tuple[int, int, int, int]:
    """(tr Q, tr Q^2, tr Q^3, max over edges ij of d_i + d_j, 0 without
    edges) of one graph given by its per-vertex adjacency bitmasks, by exact
    integer matrix products."""
    n = len(rows)
    q = [[int(rows[i]) >> j & 1 for j in range(n)] for i in range(n)]
    for i in range(n):
        q[i][i] = sum(q[i])
    q2 = [[sum(a * b for a, b in zip(row, col)) for col in zip(*q)] for row in q]
    s3 = sum(q2[i][j] * q[j][i] for i in range(n) for j in range(n))
    lam = max((q[i][i] + q[j][j] for i in range(n) for j in range(n) if i != j and q[i][j]),
              default=0)
    return sum(q[i][i] for i in range(n)), sum(q2[i][i] for i in range(n)), s3, lam


def q_matrix_oracle(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a + np.diag(a.sum(axis=1))


def l_matrix_oracle(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return np.diag(a.sum(axis=1)) - a


def q_eigs_oracle(g: Graph) -> np.ndarray:
    return eigvalsh_oracle(q_matrix_oracle(g))


def power_sum_oracle(eigs: np.ndarray, alpha: float) -> float:
    thr = 1e-8 * max(1.0, float(eigs[0]))
    nz = eigs[eigs > thr]
    return float(np.sum(nz ** alpha))


def l_eigs(rows: np.ndarray, n: int) -> np.ndarray:
    """Laplacian eigenvalues (descending) of a batch of per-vertex adjacency
    bitmask rows, shape (B, n)."""
    vbits = np.arange(n, dtype=np.int32)
    adj = ((rows[:, :, None] >> vbits[None, None, :]) & 1).astype(np.float64)
    mats = -adj
    idx = np.arange(n)
    mats[:, idx, idx] = adj.sum(axis=2)
    return np.linalg.eigvalsh(mats)[:, ::-1]


def nonzero_counts(eigs_desc: np.ndarray) -> np.ndarray:
    """Eigenvalues per row above the library's zero threshold."""
    thr = ZERO_THRESHOLD_SCALE * np.maximum(eigs_desc[:, 0], 1.0)
    return np.sum(eigs_desc > thr[:, None], axis=1)


def degrees(rows: np.ndarray) -> np.ndarray:
    return np.bitwise_count(rows)


def bipartite_mask(rows: np.ndarray, n: int) -> np.ndarray:
    """Two-colorability, valid for connected graphs (single parity closure)."""
    vbits = np.arange(n, dtype=np.int32)
    even = np.ones(rows.shape[0], dtype=np.int32)
    odd = np.zeros(rows.shape[0], dtype=np.int32)
    for _ in range(n):
        sel_e = ((even[:, None] >> vbits) & 1).astype(np.int32)
        sel_o = ((odd[:, None] >> vbits) & 1).astype(np.int32)
        odd2 = odd | np.bitwise_or.reduce(rows * sel_e, axis=1)
        even2 = even | np.bitwise_or.reduce(rows * sel_o, axis=1)
        if np.array_equal(odd2, odd) and np.array_equal(even2, even):
            break
        even, odd = even2, odd2
    return (even & odd) == 0


def edge_counts(codes: np.ndarray) -> np.ndarray:
    """Edges per code (popcount)."""
    return np.bitwise_count(np.asarray(codes, dtype=np.uint64)).astype(np.int64)


def is_isomorphic_bruteforce(g: Graph, h: Graph) -> bool:
    """Exact isomorphism by permutation sweep; only sensible for tiny n."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degree_sequence()) != sorted(h.degree_sequence()):
        return False
    hedges = set(h.edges())
    for perm in permutations(range(g.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in hedges for u, v in g.edges()):
            return True
    return False


def min_vertex_cut_bruteforce(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Smallest disconnecting vertex subset by exhaustive sweep (kappa = n-1
    with an empty witness when no subset disconnects)."""
    n = g.n
    if not g.is_connected():
        return 0, ()
    for size in range(1, n - 1):
        for subset in combinations(range(n), size):
            keep = [v for v in range(n) if v not in subset]
            index = {v: i for i, v in enumerate(keep)}
            sub = Graph(len(keep), [(index[u], index[v]) for u, v in g.edges()
                                    if u in index and v in index])
            if not sub.is_connected():
                return size, subset
    return n - 1, ()


def vertex_connectivity_bruteforce(g: Graph) -> int:
    return min_vertex_cut_bruteforce(g)[0]


def induced_connected_bfs(rows, keep: int) -> bool:
    """Whether the subgraph induced on the nonempty vertex set keep (a
    bitmask) is connected, by breadth-first search over the per-vertex
    adjacency bitmasks rows of one graph."""
    verts = [v for v in range(len(rows)) if keep >> v & 1]
    seen = {verts[0]}
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for w in verts:
            if w not in seen and rows[u] >> w & 1:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(verts)


def connected_population(n: int, need_kappa: bool = False):
    """(codes, kappas) of every labeled connected graph on n vertices, joined
    from the chunks of _bulk.connected_chunks; kappas is None unless asked
    for.  The generator runs to the end, so a kappa traversal with n <= 7
    fills the library cache that later scans of that n read."""
    codes, kappas = [], []
    for chunk in _bulk.connected_chunks(n, need_kappa):
        codes.append(chunk.codes)
        kappas.append(chunk.kappas)
    return np.concatenate(codes), np.concatenate(kappas) if need_kappa else None


def cross_edges_reference(n: int, amask: int) -> list[tuple[int, int, int]]:
    """(p, i, j) for each edge ij between A = amask and its complement, with p
    its bit in the edge code; graph6 pair order."""
    return [(p, i, j) for p, (i, j) in enumerate(_pair_positions(n))
            if ((amask >> i) ^ (amask >> j)) & 1]


def split_chunks_reference(n: int, amask: int):
    """The Chunks of _bulk.split_connected_codes(n, amask), built bit by bit:
    the rows of every subset of the cross edges, a frontier sweep over them,
    and the codes of the connected ones, one cross edge at a time."""
    cross = cross_edges_reference(n, amask)
    total = 1 << len(cross)
    for lo in range(0, total, _bulk.CHUNK):
        local = np.arange(lo, min(lo + _bulk.CHUNK, total), dtype=np.int64)
        rows = _bulk._rows(local, n, [(lbit, i, j) for lbit, (_, i, j) in enumerate(cross)])
        keep = _bulk.connected_mask(rows, n)
        if np.any(keep):
            local = local[keep]
            codes = np.zeros(local.size, dtype=np.int64)
            for lbit, (p, _, _) in enumerate(cross):
                codes |= ((local >> lbit) & 1) << p
            yield _bulk.Chunk(codes, rows[keep], r=amask.bit_count())


def split_weights_reference(n: int, amasks) -> np.ndarray:
    """_bulk._split_weights(n, amasks) built from Python dicts, one split and
    one cross edge at a time: its code bit, its two row bits, and the code
    bit of the relabeled edge (A onto 0..r-1, B after it, each part in order)
    among the canonical split's cross edges; a split with fewer cross edges
    than the most has zero rows after its own."""
    blocks = []
    for amask in amasks:
        cross = cross_edges_reference(n, amask)
        r = amask.bit_count()
        order = sorted(range(n), key=lambda v: not amask >> v & 1)  # A, then B
        label = {v: k for k, v in enumerate(order)}
        canonical = {(i, j): p for p, i, j in cross_edges_reference(n, (1 << r) - 1)}
        weights = np.zeros((len(cross), n + 2), dtype=np.int64)  # code, n rows, canonical code
        for s, (p, i, j) in enumerate(cross):
            t = canonical[tuple(sorted((label[i], label[j])))]
            weights[s, [0, 1 + i, 1 + j, n + 1]] = 1 << p, 1 << j, 1 << i, 1 << t
        blocks.append(weights)
    out = np.zeros((len(blocks), max(len(w) for w in blocks), n + 2), dtype=np.int64)
    for k, weights in enumerate(blocks):
        out[k, :len(weights)] = weights
    return out


def split_relabelings_reference(n: int, amask: int, canonical) -> _bulk.Chunk:
    """One split's relabelings as they were built split by split: the Chunk
    of the graphs of the split amask whose canonical codes are `canonical`,
    in ascending x, with r = |A|.  Canonical code to x is a map of the
    cross-edge bits, and a graph's code and rows are sums over its edges of
    their disjoint bits, so both are matrix products with the split's
    weights.  _bulk.split_relabelings over a group of splits must give each
    split's codes and rows, in split order."""
    weights = split_weights_reference(n, [amask])[0]
    edges = np.arange(len(weights))
    # bit s of x is bit shifts[s] of the canonical code
    shifts = np.array([int(w).bit_length() - 1 for w in weights[:, -1]], dtype=np.int64)
    x = np.sort(((np.asarray(canonical, dtype=np.int64)[:, None] >> shifts) & 1) @ (1 << edges))
    graphs = ((x[:, None] >> edges) & 1) @ weights[:, :-1]
    return _bulk.Chunk(graphs[:, 0], graphs[:, 1:].astype(np.int32), r=amask.bit_count())


def all_graphs(n: int):
    """Every labeled graph on n vertices, by naive code loop."""
    return [from_code(n, code) for code in range(1 << (n * (n - 1) // 2))]


def connected_graphs_naive(n: int):
    return [g for g in all_graphs(n) if g.is_connected()]


def has_odd_cycle_oracle(g: Graph) -> bool:
    """Odd closed walks exist iff an odd cycle does (adjacency power trace)."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1
    power = a.copy()
    for length in range(1, g.n + 1):
        if length % 2 == 1 and length >= 3 and np.trace(power) > 0:
            return True
        power = power @ a
    return False


def random_graph(rng, n: int) -> Graph:
    code = int(rng.integers(0, 1 << (n * (n - 1) // 2), dtype=np.int64))
    return from_code(n, code)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
