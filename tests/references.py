"""Independent references the tests compare the library against."""

import numpy as np

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
