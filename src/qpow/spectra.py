"""Graph matrices A, L = D-A, Q = D+A and a cyclic-Jacobi symmetric eigensolver.

The eigensolver works on a dense copy and is deliberately self-contained: for
the n <= 64 graphs handled here its accuracy (off-diagonal Frobenius norm
driven below 1e-12 * ||M||_F) is orders of magnitude finer than the 1e-8
comparison tolerances used by the bound checks, and its convergence behaviour
is fully under our control for violation re-verification.  Its rotations run
on Python floats, one mirrored triangle each, and give eigenvalues bit-identical
to the numpy column-then-row loop they replaced (same IEEE operations, same
order); the mirroring needs an exactly symmetric input.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .graphs import Graph

ZERO_THRESHOLD_SCALE = 1e-8
JACOBI_CONV_SCALE = 1e-12
JACOBI_MAX_SWEEPS = 100


class EigensolverError(RuntimeError):
    """Raised when the Jacobi sweep budget is exhausted before convergence."""


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalue multiset, sorted descending.

    zero_threshold classifies "non-zero" eigenvalues: entries strictly above
    it count toward h, the number of nonzero eigenvalues used by the power
    sums.  The threshold is relative (scaled by the spectral radius) so the
    classification is stable across graph sizes.
    """

    values: np.ndarray
    zero_threshold: float

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def h(self) -> int:
        """Number of eigenvalues classified as nonzero."""
        return int(np.sum(self.values > self.zero_threshold))

    def nonzero(self) -> np.ndarray:
        return self.values[self.values > self.zero_threshold]

    def __repr__(self) -> str:
        vals = ", ".join(f"{v:.6g}" for v in self.values)
        return f"Spectrum([{vals}])"


def spectrum_from_values(values) -> Spectrum:
    """Build a Spectrum from raw eigenvalues, applying the standard threshold."""
    vals = np.sort(np.asarray(values, dtype=float))[::-1].copy()
    top = float(vals[0]) if vals.size else 0.0
    return Spectrum(vals, ZERO_THRESHOLD_SCALE * max(1.0, top))


def adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a


def laplacian(g: Graph) -> np.ndarray:
    a = adjacency(g)
    return np.diag(a.sum(axis=1)) - a


def signless_laplacian(g: Graph) -> np.ndarray:
    a = adjacency(g)
    return np.diag(a.sum(axis=1)) + a


def jacobi_eigenvalues(
    m: np.ndarray,
    conv_scale: float = JACOBI_CONV_SCALE,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps the strict upper triangle in row order, rotating away each entry,
    until the off-diagonal Frobenius norm falls below conv_scale * ||M||_F.
    Raises EigensolverError when max_sweeps is exhausted (never silent), and
    ValueError unless m is square and exactly symmetric.
    Returns the eigenvalues sorted descending.
    """
    a = np.array(m, dtype=float, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be exactly symmetric, with no NaN entry")
    if n == 1:
        return a[0, :1].copy()
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.zeros(n)
    target = conv_scale * norm
    rows = a.tolist()
    for _ in range(max_sweeps):
        # off-diagonal Frobenius norm, summed directly: the n^2-cost variant
        # is immune to the cancellation that breaks ||A||^2 - sum(diag^2)
        # once the off part falls below sqrt(eps) * ||A||
        off = np.array(rows)
        np.fill_diagonal(off, 0.0)
        if float(np.linalg.norm(off)) <= target:
            return np.sort([rows[i][i] for i in range(n)])[::-1].copy()
        for p in range(n - 1):
            row_p = rows[p]
            for q in range(p + 1, n):
                apq = row_p[q]
                if apq == 0.0:
                    continue
                row_q = rows[q]
                app, aqq = row_p[p], row_q[q]
                diff = aqq - app
                if abs(apq) < 1e-36 * abs(diff):
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = 1.0 / (abs(theta) + sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                # mirrored triangle = column pass then row pass, when symmetric
                for i, row_i in enumerate(rows):
                    if i != p and i != q:
                        x, y = row_i[p], row_i[q]
                        row_i[p] = row_p[i] = c * x - s * y
                        row_i[q] = row_q[i] = s * x + c * y
                row_p[p] = c * (c * app - s * apq) - s * (c * apq - s * aqq)
                row_q[q] = s * (s * app + c * apq) + c * (s * apq + c * aqq)
                row_p[q] = row_q[p] = 0.0
    raise EigensolverError(
        f"Jacobi sweep budget ({max_sweeps}) exhausted; off-diagonal norm still above {target:.3e}"
    )


def eigenvalues(m: np.ndarray, conv_scale: float = JACOBI_CONV_SCALE) -> Spectrum:
    """Full Spectrum of a symmetric matrix via the Jacobi solver."""
    return spectrum_from_values(jacobi_eigenvalues(m, conv_scale=conv_scale))


def q_spectrum(g: Graph, conv_scale: float = JACOBI_CONV_SCALE) -> Spectrum:
    """Signless Laplacian spectrum of a graph."""
    return eigenvalues(signless_laplacian(g), conv_scale=conv_scale)


def l_spectrum(g: Graph, conv_scale: float = JACOBI_CONV_SCALE) -> Spectrum:
    """Laplacian spectrum of a graph."""
    return eigenvalues(laplacian(g), conv_scale=conv_scale)


def a_spectrum(g: Graph, conv_scale: float = JACOBI_CONV_SCALE) -> Spectrum:
    """Adjacency spectrum of a graph."""
    return eigenvalues(adjacency(g), conv_scale=conv_scale)
