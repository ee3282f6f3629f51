"""Shared oracles and populations for the test suite.

Oracles here are deliberately independent of the library paths they check:
eigenvalues come from numpy's LAPACK (the library default is the Jacobi
solver), censuses come from naive per-code loops (the library enumerates with
vectorized kernels), and odd cycles come from adjacency-matrix powers.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from qpow.graphs import Graph, from_code
from qpow.spectra import ZERO_THRESHOLD_SCALE


def eigvalsh_oracle(matrix) -> np.ndarray:
    """Reference eigenvalues (descending) via LAPACK."""
    return np.sort(np.linalg.eigvalsh(np.asarray(matrix, dtype=float)))[::-1]


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
