"""Dense eigenvalue/eigenvector and singular-value kernels.

Everything downstream (condition numbers, sweeps, grid oracle) consumes the
eigen-triples produced here.  One LAPACK eigensolve returns each eigenvalue
with its right and left eigenvector, so no pairing of two spectra is needed;
it runs on the matrix divided by a power of two, which is exact and keeps
every norm finite; it is dgeev for real input, whose complex triples come
in exact conjugate pairs.  Conventions:

* eigenvalues sorted by (Re, Im), Re in units of 1e-10 ||A||_F;
* right/left eigenvectors stored as columns, unit 2-norm;
* left eigenvector phases fixed so that y_i^H x_i is real and positive.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DefectiveInput, DimensionMismatch, NonConvergence

TOL_EIG = 1e-10
GAP_TOL_FACTOR = 1e-8
# Entry budget of one slice of a stacked LAPACK call (stacked SVDs here,
# stacked eigensolves in the sweep engine): 2**15 complex entries, 512 KiB.
# approx._nearest_distances reads it as its block size too.
STACK_ENTRIES = 2**15

# numpy runs a stacked LAPACK loop without the GIL only when it writes more
# than this many values.
_GIL_FREE_VALUES = 500

# Usable CPUs, and the thread count of the pool that runs a split stack.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


@functools.cache
def _pool(pid: int):
    """The pool of process ``pid``, built on its first split stack; a forked
    child, which has none of its parent's threads, builds its own."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_WORKERS, thread_name_prefix="pseudospec")


def _stacked(work, count: int, n: int) -> None:
    """Call ``work(rows)`` on consecutive slices ``rows`` of ``range(count)``.

    Each slice holds at most ``STACK_ENTRIES // n**2`` matrices of size
    n x n, about a quarter of one worker's share, and more than
    ``_GIL_FREE_VALUES / n`` of them where the budget allows: smaller slices
    would hold the GIL and run one after the other.  One slice, or every
    slice with one usable CPU, runs on the calling thread; else the pool's
    ``map`` runs them, and cancels the queued ones when an error, or an
    interrupt of the wait, leaves the loop.  ``work`` fills only its own
    rows of a preallocated output and calls nothing but numpy.  The first
    error in slice order is raised, a LinAlgError as NonConvergence.
    """
    budget = max(1, STACK_ENTRIES // (n * n))
    size = min(budget, max(_GIL_FREE_VALUES // n + 1, -(-count // (4 * _WORKERS))))
    slices = [slice(start, min(start + size, count)) for start in range(0, count, size)]
    run = _pool(os.getpid()).map if len(slices) > 1 and _WORKERS > 1 else map
    try:
        for _ in run(work, slices):
            pass
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc


@dataclass(frozen=True)
class Eigensystem:
    """Matched triples (lambda_i, x_i, y_i) with unit eigenvectors.

    ``rights[:, i]`` and ``lefts[:, i]`` are the right and left eigenvectors
    of ``eigenvalues[i]``; ``overlaps[i] = y_i^H x_i`` is derived from them.
    """

    eigenvalues: np.ndarray
    rights: np.ndarray
    lefts: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def overlaps(self) -> np.ndarray:
        return _column_dots(self.lefts, self.rights)


def _validate_square(A: np.ndarray) -> np.ndarray:
    A = np.ascontiguousarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] < 2:
        raise DimensionMismatch("matrix dimension must be at least 2")
    if not np.all(np.isfinite(A)):
        raise DimensionMismatch("matrix entries must be finite")
    return A


def _scaled(A: np.ndarray):
    """``(A, B, e)``: A validated, B = A / 2^e and e, 2^e the power of two
    just above A's largest |Re| or |Im| entry.  The division is exact, and
    B's largest |Re| or |Im| entry lies in [1/2, 1): no norm of B can
    overflow, and ||B||_F >= 1/2 unless A = 0 (then B = 0 and e = 0)."""
    A = _validate_square(A)
    e = int(np.frexp(np.abs(A.view(float)).max())[1])
    return A, np.ldexp(A.view(float), -e).view(complex), e


def _unit_phases(z: np.ndarray) -> np.ndarray:
    """z / |z| elementwise, and 1 where z = 0."""
    modulus = np.hypot(z.real, z.imag)
    return np.divide(z, modulus, out=np.ones_like(z), where=modulus > 0.0)


def _column_dots(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """u^H v for every column pair of U and V."""
    return np.einsum("ij,ij->j", U.conj(), V)


def _min_pairwise_gap(w: np.ndarray) -> float:
    diff = np.abs(w[:, None] - w[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(diff.min())


def _spectral_order(w: np.ndarray, scale) -> np.ndarray:
    """The sort order of w along its last axis: by Re in units of
    ``1e-10 * scale``, so roundoff cannot flip eigenvalues whose real parts
    tie (a conjugate pair, say), then by Im, then by Re."""
    return np.lexsort((w.real, w.imag, np.round(w.real / (1e-10 * scale))))


def _normalized_triples(rights: np.ndarray, lefts: np.ndarray):
    """Unit eigenvectors with fixed phases; returns ``(rights, lefts)``.

    Each right vector is turned so its largest-modulus component is real
    positive, and each left vector so that y^H x is real positive (a left
    vector with y^H x = 0 keeps its phase).
    """
    X = rights / np.linalg.norm(rights, axis=0)
    Y = lefts / np.linalg.norm(lefts, axis=0)
    pivots = X[np.argmax(np.abs(X), axis=0), np.arange(X.shape[1])]
    X *= np.conj(_unit_phases(pivots))
    Y *= _unit_phases(_column_dots(Y, X))
    return X, Y


def eig_pairs(A: np.ndarray) -> Eigensystem:
    """Compute the full eigensystem of A with matched left eigenvectors.

    One LAPACK eigensolve (xGEEV) returns each eigenvalue with its right and
    left eigenvector: dgeev for real input, whose complex triples come in
    exact conjugate pairs, else zgeev.  It runs on B = A / 2^e of
    :func:`_scaled`, so no norm can overflow.  All checks run on B;
    eigenvalues are scaled back by 2^e.  Raises DefectiveInput for the zero
    matrix and when the minimal eigenvalue gap falls below
    ``GAP_TOL_FACTOR * ||A||_F``, and NonConvergence when a right or left
    residual exceeds ``TOL_EIG * ||A||_F``.
    """
    _, B, e = _scaled(A)
    B = B if B.imag.any() else B.real
    norm_b = np.linalg.norm(B)
    if norm_b == 0.0:
        raise DefectiveInput("the zero matrix has one eigenvalue of full multiplicity")

    try:
        w, vl, vr = scipy.linalg.eig(B, left=True, right=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc

    gap = _min_pairwise_gap(w)
    if gap <= GAP_TOL_FACTOR * norm_b:
        raise DefectiveInput(
            f"minimum eigenvalue gap {gap / norm_b:.3e} * ||A||_F below "
            "threshold: the matrix is (nearly) defective, or its eigenvalues are "
            "too ill-conditioned to separate in double precision"
        )

    order = _spectral_order(w, norm_b)
    w = w[order]
    rights, lefts = _normalized_triples(vr[:, order], vl[:, order])

    res_r = np.linalg.norm(B @ rights - rights * w[None, :], axis=0)
    res_l = np.linalg.norm(B.conj().T @ lefts - lefts * np.conj(w)[None, :], axis=0)
    res = max(res_r.max(), res_l.max())
    if res > TOL_EIG * norm_b:
        raise NonConvergence(
            f"eigenvector residual {res / norm_b:.3e} * ||A||_F exceeds {TOL_EIG:.0e}"
        )

    return Eigensystem(
        eigenvalues=np.ldexp(w.view(float), e).view(complex),
        rights=rights,
        lefts=lefts,
    )


def sigma_min_batch(A: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """sigma_min(A - z I) for every z in a flat array, via stacked SVDs."""
    A = _validate_square(A)
    zs = np.asarray(zs, dtype=complex).ravel()
    n = A.shape[0]
    out = np.empty(zs.shape[0])

    def work(rows):
        # One buffer per slice: copies of A with z taken off the diagonal.
        stack = np.repeat(A[None], rows.stop - rows.start, axis=0)
        stack.reshape(-1, n * n)[:, :: n + 1] -= zs[rows, None]
        out[rows] = np.linalg.svd(stack, compute_uv=False)[:, -1]

    _stacked(work, zs.shape[0], n)
    return out


def _sigma_min_bounds(A: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Upper bounds beta(z) >= sigma_min(A - z I) for a flat array of points.

    One complex Schur form B = Z T Z^H of B = A / 2^e (from
    :func:`_scaled`; exact, so nothing overflows or underflows) serves
    every point: sigma_min(A - z I) = sigma_min(T - z I).  Two steps of
    inverse iteration on (T - z I)^H (T - z I), with the triangular solves
    run row by row for all points at once, give a vector w, and

        beta(z) = ||(T - z I) w|| / ||w|| + 4 n u (||T||_F + |z| + ||B||_F),

    scaled back by 2^e.  The residual quotient is an upper bound for
    sigma_min(T - z I) for any w != 0.  The budget covers three roundings,
    each a small multiple of n u times the norms it names: the residual
    itself (n u (||T||_F + |z|) ||w||), the backward error of the Schur
    form (A + E = Z T Z^H with ||E||_2 <= p(n) u ||A||_F), and the SVD in
    :func:`sigma_min_batch`, whose computed sigma_min lies within
    p(n) u ||A - z I||_2 of the exact one.  So beta(z) also bounds the
    sigma_min that :func:`sigma_min_batch` returns.  Unless A = 0,
    ||B||_F >= 1/2 (see :func:`_scaled`), so the budget is at least 2 n u
    and also covers underflow in the residual and in z / 2^e.
    A non-finite beta (z an eigenvalue, or so close that the solves
    overflow) is returned as +inf.
    """
    _, B, e = _scaled(A)
    zs = np.asarray(zs, dtype=complex).ravel()
    n = B.shape[0]
    z = np.ldexp(zs.view(float), -e).view(complex)
    T = scipy.linalg.schur(B, output="complex", check_finite=False)[0]
    diag = np.diagonal(T)[None, :] - z[:, None]
    w = np.ones((z.shape[0], n), dtype=complex)
    y = np.empty_like(w)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(2):
            # (T - z I)^H y = w, forward substitution
            for i in range(n):
                y[:, i] = (w[:, i] - y[:, :i] @ T[:i, i].conj()) / diag[:, i].conj()
            y /= np.linalg.norm(y, axis=1)[:, None]
            # (T - z I) w = y, back substitution
            for i in reversed(range(n)):
                w[:, i] = (y[:, i] - w[:, i + 1 :] @ T[i, i + 1 :]) / diag[:, i]
            w /= np.linalg.norm(w, axis=1)[:, None]
        residual = np.linalg.norm(w @ T.T - z[:, None] * w, axis=1) / np.linalg.norm(w, axis=1)
        u = np.finfo(float).eps / 2
        budget = 4 * n * u * (np.linalg.norm(T) + np.abs(z) + np.linalg.norm(B))
        beta = np.ldexp(residual + budget, e)
    return np.where(np.isfinite(beta), beta, np.inf)
