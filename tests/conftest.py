"""Shared oracles and populations for the test suite.

Oracles here are deliberately independent of the library paths they check:
eigenvalues come from numpy's LAPACK (the library default is the Jacobi
solver), censuses come from naive per-code loops (the library enumerates with
vectorized kernels), and odd cycles come from adjacency-matrix powers.  The
Jacobi solver's earlier numpy-slice loop is kept as the bit-for-bit reference
for its Python-float loop.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from qpow.graphs import Graph, from_code
from qpow.spectra import (
    JACOBI_CONV_SCALE,
    JACOBI_MAX_SWEEPS,
    ZERO_THRESHOLD_SCALE,
    EigensolverError,
)


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
