"""Independent references the tests compare the library against."""

import numpy as np

from pseudospec import normalized_projection
from pseudospec.numkernel import Eigensystem, _normalized_triples


def tridiag_toeplitz_reference(
    n: int, sub: complex, diag: complex, sup: complex
) -> Eigensystem:
    """Closed-form eigensystem of a tridiagonal Toeplitz matrix.

    lambda_k = diag + 2 sqrt(sub * sup) cos(k pi / (n + 1)), with right
    eigenvector components (sub/sup)^{j/2} sin(j k pi / (n + 1)).  Used as an
    independent oracle against :func:`pseudospec.eig_pairs`.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if sub == 0 or sup == 0:
        raise ValueError("closed form requires nonzero off-diagonals")

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

    return Eigensystem(eigenvalues=w, rights=rights, lefts=lefts)


def symplectic_j(n_half: int) -> np.ndarray:
    """The dense 2n x 2n J = [[0, I], [-I, 0]]; the library applies J by
    moves and negations only."""
    J = np.zeros((2 * n_half, 2 * n_half))
    J[:n_half, n_half:] = np.eye(n_half)
    J[n_half:, :n_half] = -np.eye(n_half)
    return J


def all_ones_abscissa(A: np.ndarray, epsilon: float, S) -> float:
    """max Re of the spectrum of A + eps * E, E the unit-norm projection of
    the all-ones matrix onto S: a lower bound for the (structured)
    eps-pseudospectral abscissa."""
    E = normalized_projection(np.ones(np.shape(A)), S)
    return float(np.linalg.eigvals(A + epsilon * E).real.max())


def coverage_distances(
    sweep: np.ndarray, baseline: np.ndarray, sys: Eigensystem, pair, radius_factor: float
):
    """Directed coverage distances ``(sweep_to_baseline, baseline_to_sweep)``
    near the first-order tangency point of the pair, each the largest
    distance from a point of one set to its nearest in the other, read off
    the dense matrix of all pairwise distances.

    Both point sets are restricted to a disk of radius
    ``radius_factor * |lambda_i - lambda_j|`` around the point where the two
    Wilkinson disks, of radii eps * kappa = eps / |y^H x|, touch.  A baseline
    that under-covers the coalescence region shows
    ``sweep_to_baseline > baseline_to_sweep``.
    """
    li, lj = sys.eigenvalues[list(pair)]
    ki, kj = 1.0 / np.abs(sys.overlaps[list(pair)])
    pinch = li + (lj - li) * (ki / (ki + kj))
    radius = radius_factor * abs(li - lj)
    near_sweep = sweep[np.abs(sweep - pinch) < radius]
    near_base = baseline[np.abs(baseline - pinch) < radius]
    assert near_sweep.size and near_base.size, "no cloud points near the tangency point"
    distances = np.abs(near_sweep[:, None] - near_base[None, :])
    return float(distances.min(axis=1).max()), float(distances.min(axis=0).max())
