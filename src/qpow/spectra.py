"""Graph matrices A, L = D-A, Q = D+A and a cyclic-Jacobi symmetric eigensolver.

The eigensolver works on a dense copy and is deliberately self-contained: for
the n <= 64 graphs handled here its accuracy (off-diagonal Frobenius norm
driven below 1e-12 * ||M||_F) is orders of magnitude finer than the 1e-8
comparison tolerances used by the bound checks, and its convergence behaviour
is fully under our control for violation re-verification.  Its rotations run
on Python floats, one mirrored triangle each, and give eigenvalues bit-identical
to the numpy column-then-row loop they replaced (same IEEE operations, same
order); the mirroring needs an exactly symmetric input.  A batched form runs
the same rotations over a stack of matrices, a few numpy operations per
rotation for the whole stack, and gives each matrix the same eigenvalues bit
for bit; it pays off from a few dozen matrices of one size up.
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


def jacobi_eigenvalues_batch(
    ms: np.ndarray,
    conv_scale: float = JACOBI_CONV_SCALE,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> np.ndarray:
    """jacobi_eigenvalues of each matrix of a (B, n, n) stack, shape (B, n).

    Every matrix goes through the same IEEE operations in the same order as
    in jacobi_eigenvalues, so the rows are bit for bit its results: a
    rotation (p, q) is a few elementwise operations over the batch, and a
    matrix whose entry pq is zero keeps its old values through np.where.
    A matrix leaves the batch at the sweep where its own convergence test
    holds.  That test sums the off-diagonal squares of the whole batch, and
    decides with np.linalg.norm on the one matrix, as the scalar solver
    does, whenever the batch sum could fall on the other side of the target.
    Raises EigensolverError when a matrix is still above its target after
    max_sweeps, and ValueError unless every matrix is square and exactly
    symmetric."""
    a = np.array(ms, dtype=float, copy=True)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"need a stack of square matrices, got shape {a.shape}")
    if not np.array_equal(a, a.transpose(0, 2, 1)):
        raise ValueError("every matrix must be exactly symmetric, with no NaN entry")
    n = a.shape[1]
    if n == 1:
        return a[:, 0, :1].copy()
    out = np.zeros(a.shape[:2])
    norms = np.sqrt(np.einsum("bij,bij->b", a, a))
    live = np.flatnonzero(norms != 0.0)  # a zero matrix gives zeros, as in the scalar solver
    orig, a = a, a[live]
    target = conv_scale * norms[live]
    d = np.arange(n)
    for _ in range(max_sweeps):
        off = a.copy()
        off[:, d, d] = 0.0
        size = np.sqrt(np.einsum("bij,bij->b", off, off))
        done = size <= target
        # summation order moves a norm by far less than 1e-8 relative while
        # the squares stay normal floats; elsewhere the exact test decides
        clear = (np.abs(size - target) > 1e-8 * target) & (target > 1e-140) & (target < 1e140)
        for i in np.flatnonzero(~clear):
            exact_target = conv_scale * float(np.linalg.norm(orig[live[i]]))
            done[i] = float(np.linalg.norm(off[i])) <= exact_target
        out[live[done]] = np.sort(a[done][:, d, d], axis=1)[:, ::-1]
        a, live, target = a[~done], live[~done], target[~done]
        if not live.size:
            return out
        _rotate_sweep(a)
    if live.size:
        raise EigensolverError(
            f"Jacobi sweep budget ({max_sweeps}) exhausted for {live.size} of {len(out)} matrices"
        )
    return out


def _rotate_sweep(a: np.ndarray) -> None:
    """One cyclic sweep of jacobi_eigenvalues' rotations, in place, over every
    matrix of the stack a at once."""
    n = a.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p in range(n - 1):
            for q in range(p + 1, n):
                x, y = a[:, :, p].copy(), a[:, :, q].copy()
                apq = y[:, p]
                nz = apq != 0.0
                if not nz.any():
                    continue
                app, aqq = x[:, p], y[:, q]
                diff = aqq - app
                theta = diff / (2.0 * apq)
                t = 1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                np.negative(t, out=t, where=theta < 0.0)
                tiny = np.abs(apq) < 1e-36 * np.abs(diff)
                if tiny.any():
                    t = np.where(tiny, apq / diff, t)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                ca, sa = c * apq, s * apq
                cc, sc = c[:, None], s[:, None]
                new_p = cc * x - sc * y
                new_q = sc * x + cc * y
                new_p[:, p] = c * (c * app - sa) - s * (ca - s * aqq)
                new_q[:, q] = s * (s * app + ca) + c * (sa + c * aqq)
                new_p[:, q] = new_q[:, p] = 0.0
                if not nz.all():
                    new_p = np.where(nz[:, None], new_p, x)
                    new_q = np.where(nz[:, None], new_q, y)
                a[:, :, p] = a[:, p, :] = new_p
                a[:, :, q] = a[:, q, :] = new_q


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
