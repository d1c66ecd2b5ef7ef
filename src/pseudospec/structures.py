"""Structure patterns, membership tests, nearest-matrix projections, random
structured/unstructured perturbation generators, the Toeplitz assembler,
the symplectic J with the Hamiltonian rephasing of eigen-triples, and the
symmetry rule: the conjugate-linear involutions that fix a matrix.

Supported patterns: full (no constraint), Toeplitz with a diagonal support
set, Hankel with an antidiagonal support set, and Hamiltonian (2n x 2n
matrices Q with QJ Hermitian).  Toeplitz/Hankel are complex-linear subspaces;
Hamiltonian is only real-linear, which is why its projection involves a
conjugate transpose.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BadParams, DimensionMismatch, ZeroProjection
from .numkernel import Eigensystem, _column_dots, _frobenius, _is_real, _unit_phases, _unit_scaled

MEMBERSHIP_RTOL = 1e-12
NORM_RTOL = 1e-14

FULL = "full"
TOEPLITZ = "toeplitz"
HANKEL = "hankel"
HAMILTONIAN = "hamiltonian"


@dataclass(frozen=True)
class StructurePattern:
    """The perturbation set S.

    ``support`` holds diagonal offsets (Toeplitz) or antidiagonal offsets
    (Hankel) in [-(dim-1), dim-1]; ``real`` restricts random members to
    real matrices (real Hamiltonian / real Toeplitz perturbations of a real
    matrix).
    """

    kind: str
    dim: int
    support: frozenset | None = None
    real: bool = False

    def __post_init__(self):
        if self.kind not in (FULL, TOEPLITZ, HANKEL, HAMILTONIAN):
            raise DimensionMismatch(f"unknown structure kind {self.kind!r}")
        if self.dim < 2:
            raise DimensionMismatch("pattern dimension must be at least 2")
        if self.kind in (TOEPLITZ, HANKEL):
            if not self.support:
                raise DimensionMismatch(f"{self.kind} pattern needs a support set")
            if any(abs(k) > self.dim - 1 for k in self.support):
                raise DimensionMismatch("support offsets out of range")
        elif self.support is not None:
            raise DimensionMismatch(f"a {self.kind} pattern takes no 'support'")
        if self.kind == HAMILTONIAN and self.dim % 2:
            raise DimensionMismatch("Hamiltonian pattern needs dim = 2 * n_half")

    @property
    def n_half(self) -> int:
        """The Hamiltonian half-dimension, dim / 2."""
        return self.dim // 2


def full(dim: int) -> StructurePattern:
    return StructurePattern(FULL, dim)


def toeplitz(dim: int, support, real: bool = False) -> StructurePattern:
    return StructurePattern(TOEPLITZ, dim, support=frozenset(int(k) for k in support), real=real)


def hankel(dim: int, support, real: bool = False) -> StructurePattern:
    return StructurePattern(HANKEL, dim, support=frozenset(int(k) for k in support), real=real)


def hamiltonian(n_half: int, real: bool = False) -> StructurePattern:
    return StructurePattern(HAMILTONIAN, 2 * n_half, real=real)


def pattern_to_dict(S: StructurePattern) -> dict:
    """The structure object of S, as matrix files and cloud headers store it."""
    d = {"kind": S.kind, "real": S.real}
    if S.support is not None:
        d["support"] = sorted(S.support)
    if S.kind == HAMILTONIAN:
        d["n_half"] = S.n_half
    return d


def pattern_from_dict(d, dim: int) -> StructurePattern:
    """The pattern of a structure object read from a file.

    ``dim`` must be an integer, and the object must have a string ``kind``
    and, where given, a list of integers ``support``, an integer ``n_half``
    and a boolean ``real``; anything else raises BadParams.  JSON booleans
    are not integers here.  ``n_half`` is only checked: a Hamiltonian
    object needs it equal to dim / 2, and any other kind must not have it.
    """
    if type(dim) is not int:
        raise BadParams(f"'dim' must be an integer, not {dim!r}")
    support = d.get("support", []) if isinstance(d, dict) else None
    if not (
        isinstance(d, dict)
        and isinstance(d.get("kind"), str)
        and isinstance(support, list)
        and all(type(k) is int for k in support)
        and type(d.get("n_half", 0)) is int
        and isinstance(d.get("real", False), bool)
    ):
        raise BadParams(
            "'structure' must be an object with a string 'kind' and, where "
            "given, a list of integers 'support', an integer 'n_half' and a "
            "boolean 'real'"
        )
    unknown = [k for k in d if k not in ("kind", "support", "n_half", "real")]
    if unknown:
        raise BadParams(f"'structure' has no key {unknown[0]!r}")
    S = StructurePattern(
        kind=d["kind"],
        dim=dim,
        support=frozenset(support) if "support" in d else None,
        real=d.get("real", False),
    )
    if S.kind != HAMILTONIAN and "n_half" in d:
        raise BadParams(f"'n_half' belongs to a hamiltonian structure, not a {S.kind} one")
    if S.kind == HAMILTONIAN and d.get("n_half") != S.n_half:
        raise DimensionMismatch("Hamiltonian pattern needs dim = 2 * n_half")
    return S


def toeplitz_support_of(A: np.ndarray) -> frozenset:
    """Offsets of the diagonals of A holding an entry above
    ``MEMBERSHIP_RTOL * ||A||_F``, compared on A / 2^e
    (``numkernel._unit_scaled``), so neither side overflows."""
    B, _ = _unit_scaled(A)
    n = B.shape[0]
    thresh = MEMBERSHIP_RTOL * _frobenius(B)
    return frozenset(k for k in range(1 - n, n) if np.abs(np.diagonal(B, k)).max() > thresh)


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


def _j(X: np.ndarray) -> np.ndarray:
    """The one J rule: J X = [X_lower; -X_upper] along the second-last axis,
    J = [[0, I], [-I, 0]] as long as that axis, by moves and negations only,
    so nothing rounds; X J = -(J X^T)^T, as J^T = -J."""
    h = X.shape[-2] // 2
    return np.concatenate([X[..., h:, :], -X[..., :h, :]], axis=-2)


def _hamiltonian_image(M: np.ndarray) -> np.ndarray:
    """J M^H J on the last two axes of M: -J (J conj(M))^T by :func:`_j`,
    so moves and negations only."""
    return -_j(np.swapaxes(_j(np.conj(M)), -1, -2))


def symmetries(A: np.ndarray) -> tuple:
    """The symmetry rule: the conjugate-linear involutions psi that fix A
    exactly, as ``(psi, s)`` pairs.

    Complex conjugation (s = 1) when A is real (``numkernel._is_real``);
    M -> J M^H J (s = -1), whose fixed points ``project`` returns for the
    Hamiltonian pattern, when A equals its image bit for bit.  Each psi acts
    on the last two axes of a stack, moves and negates entries only, keeps
    singular values and has psi(c M) = conj(c) psi(M).  So psi(A + c D) =
    A + conj(c) psi(D), and both the spectrum and the sigma_min field of
    psi(M) are those of M mapped by z -> s * conj(z).
    """
    A = np.asarray(A, dtype=complex)
    found = [(np.conj, 1)] if _is_real(A) else []
    if A.shape[-1] % 2 == 0 and np.array_equal(_hamiltonian_image(A), A):
        found.append((_hamiltonian_image, -1))
    return tuple(found)


def _check_dim(M: np.ndarray, S: StructurePattern) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] != S.dim:
        raise DimensionMismatch(
            f"matrix shape {M.shape} incompatible with pattern dim {S.dim}"
        )
    return M


def _project_banded(M: np.ndarray, support, antidiagonal: bool) -> np.ndarray:
    # Antidiagonals of M are diagonals of fliplr(M); offset k maps so that
    # k = n - 1 - (i + j), i.e. the main antidiagonal has offset 0.
    work = M[:, ::-1] if antidiagonal else M
    out = toeplitz_matrix(M.shape[0], {k: np.diagonal(work, k).mean() for k in support})
    return out[:, ::-1] if antidiagonal else out


def project(M: np.ndarray, S: StructurePattern) -> np.ndarray:
    """Frobenius-nearest member of S, always a complex array.

    A real pattern first restricts M to its real part.  Toeplitz/Hankel:
    each supported (anti)diagonal is replaced by its arithmetic mean,
    everything else is zeroed.  Hamiltonian: (M + J M^H J) / 2.  Full: the
    identity.  Means and sums are taken on B = M / 2^e
    (``numkernel._unit_scaled``), which cannot overflow, and scaled back by
    2^e: bit for bit the projection of M wherever that neither overflows
    nor underflows.
    """
    M = _check_dim(M, S)
    if S.real:
        M = M.real.astype(complex)
    if S.kind == FULL:
        return M.copy()
    B, e = _unit_scaled(M)
    if S.kind in (TOEPLITZ, HANKEL):
        P = _project_banded(B, S.support, antidiagonal=(S.kind == HANKEL))
    else:
        P = 0.5 * (B + _hamiltonian_image(B))
    return np.ldexp(np.ascontiguousarray(P).view(float), e).view(complex)


def _diagonal_sums(U: np.ndarray, V: np.ndarray, k: int) -> np.ndarray:
    """Sum of diagonal k of u v^H for every column pair."""
    n = U.shape[0]
    if k >= 0:
        return _column_dots(V[k:], U[: n - k])
    return _column_dots(V[: n + k], U[-k:])


def _outer_gram(U1, V1, U2, V2, S: StructurePattern) -> np.ndarray:
    """Re <P(u1 v1^H), P(u2 v2^H)> for every column, P the projection onto
    the complex span of S (``S.real`` is not read)."""
    if S.kind == HAMILTONIAN:
        # P is orthogonal for Re<.,.>, so this is Re <M1, (M2 + J M2^H J) / 2>.
        JV1, JV2 = _j(V1), _j(V2)
        g = (_column_dots(U1, U2) * _column_dots(V2, V1) + _column_dots(U1, JV2) * _column_dots(U2, JV1)) / 2
    elif S.kind == FULL:
        g = _column_dots(U1, U2) * _column_dots(V2, V1)
    else:
        # P puts c_k / (n - |k|) on each of the n - |k| entries of a supported
        # diagonal, c_k its sum; antidiagonals of u v^H are diagonals of u
        # times v reversed.
        if S.kind == HANKEL:
            V1, V2 = V1[::-1], V2[::-1]
        g = sum(
            np.conj(_diagonal_sums(U1, V1, k)) * _diagonal_sums(U2, V2, k) / (S.dim - abs(k))
            for k in S.support
        )
    return g.real


def projection_norms(lefts: np.ndarray, rights: np.ndarray, S: StructurePattern) -> np.ndarray:
    """||project(y_i x_i^H, S)||_F for every column pair (y_i, x_i).

    O(n^2 * |support|): the n outer products are never formed.  Hamiltonian:
    sqrt((|y|^2 |x|^2 + Re c^2) / 2) with c = y^H J x; Toeplitz and Hankel:
    sqrt(sum_k |c_k|^2 / (n - |k|)) over the diagonal sums c_k.
    """
    Y = np.asarray(lefts, dtype=complex)
    X = np.asarray(rights, dtype=complex)
    if S.real:
        # Re(y x^H) = a b^T + c d^T for y = a + ic, x = b + id.
        a, c, b, d = Y.real, Y.imag, X.real, X.imag
        sq = _outer_gram(a, b, a, b, S) + _outer_gram(c, d, c, d, S)
        sq += 2 * _outer_gram(a, b, c, d, S)
    else:
        sq = _outer_gram(Y, X, Y, X, S)
    return np.sqrt(np.maximum(sq, 0.0))


def hamiltonian_phase_normalize(sys: Eigensystem) -> Eigensystem:
    """Rephase each eigen-triple so that Im(y^H J x) = 0, J as long as the eigenvectors.

    The rotation multiplies y by a unimodular factor, which preserves
    ``||y|| = 1`` and ``|y^H x|``.  Pairs with y^H J x = 0 are left unchanged.
    """
    if sys.rights.shape[0] % 2:
        raise DimensionMismatch("Hamiltonian eigenvectors need an even length")
    # y -> e^{i arg(c)} y sends c = y^H J x to |c| (real, nonnegative).
    c = _column_dots(sys.lefts, _j(sys.rights))
    return replace(sys, lefts=sys.lefts * _unit_phases(c))


def _structured(sys: Eigensystem, S: StructurePattern):
    """``(sys, S)`` as structured quantities read them: the complex span of S
    (where their maximality holds) and, for Hamiltonian S, the eigensystem
    rephased to Im(y^H J x) = 0, which maximizes ||(y x^H)|_S|| over phases of y.
    Eigenvectors whose length is not ``S.dim`` raise DimensionMismatch."""
    if sys.rights.shape[0] != S.dim:
        raise DimensionMismatch(f"eigenvector length {sys.rights.shape[0]} != pattern dim {S.dim}")
    if S.kind == HAMILTONIAN:
        sys = hamiltonian_phase_normalize(sys)
    return sys, replace(S, real=False) if S.real else S


def is_member(M: np.ndarray, S: StructurePattern) -> bool:
    """True iff M lies in S to within ``MEMBERSHIP_RTOL * ||M||_F``, compared
    on M / 2^e (``numkernel._unit_scaled``): no side overflows, and a tiny
    M is held to the same relative tolerance as any other."""
    B, _ = _unit_scaled(_check_dim(M, S))
    return bool(_frobenius(B - project(B, S)) <= MEMBERSHIP_RTOL * _frobenius(B))


def normalized_projection(M: np.ndarray, S: StructurePattern) -> np.ndarray:
    """Unit-Frobenius-norm member of S parallel to the projection of M,
    formed from M / 2^e as :func:`is_member` compares."""
    B, _ = _unit_scaled(_check_dim(M, S))
    P = project(B, S)
    norm = _frobenius(P)
    if norm <= NORM_RTOL * _frobenius(B):
        raise ZeroProjection("matrix is numerically orthogonal to the structure")
    return P / norm


def random_member(S: StructurePattern, seed) -> np.ndarray:
    """Unit-norm member of S: seeded Gaussian draw, project, renormalize."""
    rng = np.random.default_rng(seed)
    n = S.dim
    if S.real:
        G = rng.standard_normal((n, n)).astype(complex)
    else:
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return normalized_projection(G, S)


def random_rank_one(dim: int, seed) -> np.ndarray:
    """Unit-Frobenius-norm rank-one matrix u v^H from a seeded stream."""
    if dim < 2:
        raise DimensionMismatch("dim must be at least 2")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    E = np.outer(u, np.conj(v))
    return E / (np.linalg.norm(u) * np.linalg.norm(v))
