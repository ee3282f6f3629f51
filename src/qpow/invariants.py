"""Scalar spectral invariants: eigenvalue power sums and the named classics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .spectra import Spectrum, a_spectrum, l_spectrum, q_spectrum


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if alpha == 0.0 or not math.isfinite(alpha):
        raise ValueError(f"alpha must be a finite non-zero real number, got {alpha:g}")
    return alpha


def nonzero_power_sum(spectrum: Spectrum, alpha: float) -> float:
    """Sum of alpha-th powers over the eigenvalues classified as nonzero.

    Values at or below the spectrum's zero threshold contribute nothing for
    any alpha.  A spectrum with no nonzero values is an error for alpha < 0
    (the sum is undefined there) and simply 0 for alpha > 0.
    """
    alpha = _check_alpha(alpha)
    nz = spectrum.nonzero()
    if nz.size == 0:
        if alpha < 0:
            raise ValueError("power sum with alpha < 0 is undefined on an all-zero spectrum")
        return 0.0
    return float(np.sum(nz ** alpha))


def signless_power_sum(g: Graph, alpha: float) -> float:
    """Sum of alpha-th powers of the nonzero signless Laplacian eigenvalues."""
    return nonzero_power_sum(q_spectrum(g), alpha)


def laplacian_power_sum(g: Graph, alpha: float) -> float:
    """Sum of alpha-th powers of the nonzero Laplacian eigenvalues."""
    return nonzero_power_sum(l_spectrum(g), alpha)


def zagreb(g: Graph, alpha: float) -> float:
    """Degree power sum (the general Zagreb index; alpha=2 is the first Zagreb index M1)."""
    alpha = _check_alpha(alpha)
    degs = g.degree_sequence()
    if alpha < 0 and any(d == 0 for d in degs):
        raise ValueError("degree power sum with alpha < 0 needs no isolated vertices")
    return float(sum(float(d) ** alpha for d in degs))


@dataclass(frozen=True)
class InvariantBundle:
    """The classic spectral invariants of a graph in one record.

    E_L follows the squared-Laplacian-eigenvalue definition (equal to the
    signless power sum at alpha=2), not the modern |mu_i - 2m/n| Laplacian
    energy; the field keeps that symbol to make the choice explicit.
    """

    m: int
    IE: float
    LEL: float
    Kf: float
    E_L: float
    E: float
    M1: float


def named_invariants(g: Graph) -> InvariantBundle:
    """Incidence energy, LEL, Kirchhoff index, E_L, graph energy and M1.

    The Kirchhoff index needs a connected graph (exactly one zero Laplacian
    eigenvalue); disconnected input raises.
    """
    if not g.is_connected():
        raise ValueError("Kirchhoff index is undefined on a disconnected graph")
    q = q_spectrum(g)
    l = l_spectrum(g)
    a = a_spectrum(g)
    lnz = l.nonzero()
    kf = float(g.n * np.sum(1.0 / lnz)) if lnz.size else 0.0
    # sqrt amplifies the ~1e-16 noise on true zeros to ~1e-8, so the sums run
    # over the nonzero-classified eigenvalues (zeros contribute exactly 0)
    return InvariantBundle(
        m=g.m,
        IE=float(np.sum(np.sqrt(q.nonzero()))),
        LEL=float(np.sum(np.sqrt(lnz))),
        Kf=kf,
        E_L=float(np.sum(l.values ** 2)),
        E=float(np.sum(np.abs(a.values))),
        M1=float(sum(d * d for d in g.degree_sequence())),
    )
