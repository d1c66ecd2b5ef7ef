"""Condition numbers, Wilkinson perturbations, and the coalescence
estimates of the (structured) distance from defectivity.

kappa(lambda) = 1/|y^H x| and kappa^S(lambda) = ||(y x^H)|_S||_F / |y^H x|.
The coalescence estimate is the smallest t at which two (structured)
Wilkinson disks of radius kappa * t become tangent:

    eps = min_{i<j} |lambda_i - lambda_j| / (kappa(lambda_i) + kappa(lambda_j)).

Structured condition numbers and Wilkinson directions read the eigensystem
and pattern through ``structures._structured``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, VanishingOverlap
from .numkernel import Eigensystem
from .structures import (
    FULL,
    StructurePattern,
    _structured,
    full,
    normalized_projection,
    projection_norms,
)

OVERLAP_TOL = 1e-14
PAIR_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SensitivityReport:
    kappas: np.ndarray
    kappas_structured: np.ndarray
    epsilon: float
    epsilon_structured: float
    pair: tuple
    pair_structured: tuple


def _check_overlaps(sys: Eigensystem, indices) -> None:
    indices = np.asarray(indices)
    o = sys.overlaps[indices]
    bad = indices[np.hypot(o.real, o.imag) <= OVERLAP_TOL]
    if bad.size:
        raise VanishingOverlap(f"eigenvalue {bad[0]} is numerically defective")


def kappas(sys: Eigensystem, S: StructurePattern) -> np.ndarray:
    """kappa^S(lambda_i) = ||(y_i x_i^H)|_S||_F / |y_i^H x_i| for every i.

    For the full pattern this is kappa(lambda_i) = 1 / |y_i^H x_i|.  A
    Hamiltonian eigensystem is rephased once for all eigenvalues.
    """
    sys, S = _structured(sys, S)
    _check_overlaps(sys, range(sys.dim))
    o = sys.overlaps
    # hypot rounds like the scalar |o|; np.abs on complex arrays may not
    moduli = np.hypot(o.real, o.imag)
    if S.kind == FULL:
        return 1.0 / moduli
    return projection_norms(sys.lefts, sys.rights, S) / moduli


def wilkinson(sys: Eigensystem, i: int, S: StructurePattern) -> np.ndarray:
    """Unit Wilkinson direction for eigenvalue i: the normalized projection
    of y_i x_i^H onto S (y_i x_i^H itself for the full pattern)."""
    sys, S = _structured(sys, S)
    _check_overlaps(sys, [i])
    base = np.outer(sys.lefts[:, i], np.conj(sys.rights[:, i]))
    return normalized_projection(base, S)


def _closest_pair(w: np.ndarray, kappa: np.ndarray):
    """Minimize |w_i - w_j| / (kappa_i + kappa_j) over pairs i < j with
    positive kappa; returns ``(epsilon, (i, j))``."""
    n = w.shape[0]
    if n < 2:
        raise DegenerateSpectrum("need at least two eigenvalues")
    active = np.flatnonzero(kappa > 0.0)
    if active.size < n:
        warnings.warn(
            "eigenvalues with zero structured condition number excluded "
            f"from pair minimization: {sorted(set(range(n)) - set(active))}",
            stacklevel=3,
        )
    if active.size < 2:
        raise DegenerateSpectrum("fewer than two eigenvalues with positive kappa")

    # pairs (i, j), i < j, in lexicographic order
    i, j = (active[t] for t in np.triu_indices(active.size, k=1))
    d = w[i] - w[j]
    values = np.hypot(d.real, d.imag) / (kappa[i] + kappa[j])
    # The scan below keeps the first pair beating the best so far by more
    # than PAIR_TIE_RTOL; only a pair below every earlier one can do that.
    earlier = np.concatenate(([np.inf], np.fmin.accumulate(values)[:-1]))
    best, best_pair = np.inf, None
    for p in np.flatnonzero(values < earlier):
        if values[p] < best * (1.0 - PAIR_TIE_RTOL):
            best, best_pair = values[p], (int(i[p]), int(j[p]))
    return float(best), best_pair


def coalescence_estimate(sys: Eigensystem, S: StructurePattern):
    """Disk-tangency estimate of the (structured) distance from defectivity.

    Returns ``(epsilon, (i, j))`` minimizing
    |lambda_i - lambda_j| / (kappa(lambda_i) + kappa(lambda_j)) over pairs
    i < j, with kappa replaced by kappa^S for structured patterns.  Ties
    within ``PAIR_TIE_RTOL`` go to the lexicographically smallest pair.
    Eigenvalues with kappa^S = 0 are first-order immune to structured
    perturbations and are excluded from the minimization.
    """
    return _closest_pair(sys.eigenvalues, kappas(sys, S))


def analyze(sys: Eigensystem, S: StructurePattern) -> SensitivityReport:
    """Full per-eigenvalue sensitivity report for one structure pattern."""
    kappa = kappas(sys, full(S.dim))
    eps, pair = _closest_pair(sys.eigenvalues, kappa)
    kappa_s = kappas(sys, S)
    eps_s, pair_s = _closest_pair(sys.eigenvalues, kappa_s)
    return SensitivityReport(
        kappas=kappa,
        kappas_structured=kappa_s,
        epsilon=eps,
        epsilon_structured=eps_s,
        pair=pair,
        pair_structured=pair_s,
    )
