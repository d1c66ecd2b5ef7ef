"""Seeded matrix generators for the three experiment families.

* ``tridiag_toeplitz``: real tridiagonal Toeplitz, diagonal and superdiagonal
  drawn uniformly from [0, 1], subdiagonal from [0, 5].
* ``pentadiag_toeplitz``: complex pentadiagonal Toeplitz built analogously
  (the two subdiagonals from [0, 5], the rest from [0, 1]; real and imaginary
  parts drawn independently from the stated interval).
* ``hamiltonian_random``: nearest Hamiltonian matrix to a real random matrix
  with standard normal entries.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParams, UnknownFamily
from .numkernel import toeplitz_matrix
from .structures import hamiltonian, project, toeplitz

FAMILIES = ("tridiag_toeplitz", "pentadiag_toeplitz", "hamiltonian_random")


def generate(family: str, n: int, seed: int):
    """Build a seeded family matrix; returns ``(A, pattern, params)``.

    ``params`` records the drawn generator values so the matrix file is
    self-describing.
    """
    if family not in FAMILIES:
        raise UnknownFamily(f"unknown family {family!r}; choose from {FAMILIES}")
    rng = np.random.default_rng(seed)

    if family == "tridiag_toeplitz":
        if n < 2:
            raise BadParams("tridiag_toeplitz needs n >= 2")
        sub = 5.0 * rng.uniform()
        diag = rng.uniform()
        sup = rng.uniform()
        A = toeplitz_matrix(n, {-1: sub, 0: diag, 1: sup})
        pattern = toeplitz(n, {-1, 0, 1}, real=True)
        params = {"sub": sub, "diag": diag, "super": sup}
        return A, pattern, params

    if family == "pentadiag_toeplitz":
        if n < 3:
            raise BadParams("pentadiag_toeplitz needs n >= 3")

        def draw(scale):
            return scale * rng.uniform() + 1j * scale * rng.uniform()

        diagonals = {
            -2: draw(5.0),
            -1: draw(5.0),
            0: draw(1.0),
            1: draw(1.0),
            2: draw(1.0),
        }
        A = toeplitz_matrix(n, diagonals)
        pattern = toeplitz(n, {-2, -1, 0, 1, 2})
        params = {
            str(k): [v.real, v.imag] for k, v in sorted(diagonals.items())
        }
        return A, pattern, params

    # hamiltonian_random
    if n % 2 != 0 or n < 4:
        raise BadParams("hamiltonian_random needs an even n >= 4")
    n_half = n // 2
    M = rng.standard_normal((n, n))
    pattern = hamiltonian(n_half, real=True)
    A = project(M, pattern).real.astype(complex)
    params = {"n_half": n_half}
    return A, pattern, params

