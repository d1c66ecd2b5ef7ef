"""Dense eigenvalue/eigenvector and singular-value kernels.

Everything downstream (condition numbers, sweeps, grid oracle) consumes the
eigen-triples produced here.  One LAPACK eigensolve returns each eigenvalue
with its right and left eigenvector, so no pairing of two spectra is needed;
it runs on the matrix divided by a power of two, which is exact and keeps
every norm finite.  Conventions:

* eigenvalues sorted lexicographically by (Re, Im);
* right/left eigenvectors stored as columns, unit 2-norm;
* left eigenvector phases fixed so that y_i^H x_i is real and positive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import (
    DefectiveInput,
    DimensionMismatch,
    NonConvergence,
    ZeroOffdiagonal,
)

TOL_EIG = 1e-10
GAP_TOL_FACTOR = 1e-8
# Entry budget of one stacked LAPACK call (stacked SVDs here, stacked
# eigensolves in the sweep engine), so the workspace stays modest.
STACK_ENTRIES = 2_000_000


@dataclass(frozen=True)
class Eigensystem:
    """Matched triples (lambda_i, x_i, y_i) with unit eigenvectors.

    ``rights[:, i]`` and ``lefts[:, i]`` are the right and left eigenvectors
    of ``eigenvalues[i]``; ``overlaps[i] = y_i^H x_i`` is derived from them.
    """

    eigenvalues: np.ndarray
    rights: np.ndarray
    lefts: np.ndarray
    min_gap: float

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
    left eigenvector.  It runs on B = A / 2^e, 2^e the power of two just
    above the largest real or imaginary part: exact, and no norm can
    overflow.  All checks run on B; eigenvalues and ``min_gap`` are scaled
    back by 2^e.  Raises DefectiveInput for the zero matrix and when the
    minimal eigenvalue gap falls below ``GAP_TOL_FACTOR * ||A||_F``, and
    NonConvergence when a right or left residual exceeds
    ``TOL_EIG * ||A||_F``.
    """
    A = _validate_square(A)
    e = int(np.frexp(np.abs(A.view(float)).max())[1])
    B = np.ldexp(A.view(float), -e).view(complex)
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

    # quantize the real-part key so roundoff cannot flip the order of
    # eigenvalues with equal real parts (e.g. conjugate pairs)
    order = np.lexsort((w.real, w.imag, np.round(w.real / (1e-10 * norm_b))))
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
        min_gap=float(np.ldexp(gap, e)),
    )


def symplectic_j(n_half: int) -> np.ndarray:
    """The fundamental 2n x 2n matrix [[0, I], [-I, 0]]."""
    J = np.zeros((2 * n_half, 2 * n_half))
    J[:n_half, n_half:] = np.eye(n_half)
    J[n_half:, :n_half] = -np.eye(n_half)
    return J


def hamiltonian_phase_normalize(sys: Eigensystem, n_half: int) -> Eigensystem:
    """Rephase each eigen-triple so that Im(y^H J x) = 0.

    The rotation multiplies y by a unimodular factor, which preserves
    ``||y|| = 1`` and ``|y^H x|``.  Pairs with y^H J x = 0 are left unchanged.
    """
    if sys.dim != 2 * n_half:
        raise DimensionMismatch(
            f"eigensystem dimension {sys.dim} != 2 * {n_half}"
        )
    # y -> e^{i arg(c)} y sends c = y^H J x to |c| (real, nonnegative).
    c = _column_dots(sys.lefts, symplectic_j(n_half) @ sys.rights)
    return replace(sys, lefts=sys.lefts * _unit_phases(c))


def sigma_min_batch(A: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """sigma_min(A - z I) for every z in a flat array, via stacked SVDs."""
    A = _validate_square(A)
    zs = np.asarray(zs, dtype=complex).ravel()
    n = A.shape[0]
    out = np.empty(zs.shape[0])
    eye = np.eye(n)
    chunk = max(1, STACK_ENTRIES // (n * n))
    for start in range(0, zs.shape[0], chunk):
        zc = zs[start : start + chunk]
        stack = A[None, :, :] - zc[:, None, None] * eye[None, :, :]
        try:
            s = np.linalg.svd(stack, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(str(exc)) from exc
        out[start : start + chunk] = s[:, -1]
    return out


def toeplitz_matrix(n: int, diagonals: dict) -> np.ndarray:
    """Assemble the n x n Toeplitz matrix with ``diagonals[k]`` on diagonal k
    (k > 0 above the main diagonal) and zeros elsewhere."""
    A = np.zeros((n, n), dtype=complex)
    for offset, value in diagonals.items():
        idx = np.arange(n - abs(offset))
        if offset >= 0:
            A[idx, idx + offset] = value
        else:
            A[idx - offset, idx] = value
    return A


def tridiag_toeplitz(n: int, sub: complex, diag: complex, sup: complex) -> np.ndarray:
    """Assemble the n x n tridiagonal Toeplitz matrix."""
    return toeplitz_matrix(n, {-1: sub, 0: diag, 1: sup})


def tridiag_toeplitz_reference(
    n: int, sub: complex, diag: complex, sup: complex
) -> Eigensystem:
    """Closed-form eigensystem of a tridiagonal Toeplitz matrix.

    lambda_k = diag + 2 sqrt(sub * sup) cos(k pi / (n + 1)), with right
    eigenvector components (sub/sup)^{j/2} sin(j k pi / (n + 1)).  Used as an
    independent oracle against :func:`eig_pairs`.
    """
    if n < 2:
        raise DimensionMismatch("n must be at least 2")
    if sub == 0 or sup == 0:
        raise ZeroOffdiagonal("closed form requires nonzero off-diagonals")

    k = np.arange(1, n + 1)
    root = np.sqrt(complex(sub) * complex(sup))
    w = diag + 2.0 * root * np.cos(k * np.pi / (n + 1))

    j = np.arange(1, n + 1)
    ratio_r = (complex(sub) / complex(sup)) ** (j / 2.0)
    ratio_l = (np.conj(complex(sup)) / np.conj(complex(sub))) ** (j / 2.0)
    sines = np.sin(np.outer(j, k) * np.pi / (n + 1))
    rights = ratio_r[:, None] * sines
    lefts = ratio_l[:, None] * sines

    order = np.lexsort((w.imag, w.real))
    w = w[order]
    rights, lefts = _normalized_triples(rights[:, order], lefts[:, order])

    return Eigensystem(
        eigenvalues=w,
        rights=rights,
        lefts=lefts,
        min_gap=_min_pairwise_gap(w),
    )
