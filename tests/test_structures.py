import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudospec import (
    Eigensystem,
    StructurePattern,
    full,
    hamiltonian,
    hamiltonian_phase_normalize,
    hankel,
    is_member,
    normalized_projection,
    project,
    projection_norms,
    random_member,
    random_rank_one,
    toeplitz,
    toeplitz_matrix,
    toeplitz_support_of,
)
from pseudospec.errors import BadParams, DimensionMismatch, ZeroProjection
from pseudospec.numkernel import _column_dots, _unit_phases
from pseudospec.structures import (
    _hamiltonian_image,
    _j,
    _project_banded,
    pattern_from_dict,
    pattern_to_dict,
)
from references import symplectic_j

RNG = np.random.default_rng(2024)


def random_matrix(n, real=False):
    if real:
        return RNG.standard_normal((n, n)).astype(complex)
    return RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))


ALL_PATTERNS = [
    toeplitz(6, {-1, 0, 1}),
    toeplitz(5, {-2, 0, 3}),
    hankel(6, {-1, 0, 2}),
    hamiltonian(3),
    hamiltonian(3, real=True),
    full(4),
]


class TestMembership:
    def test_tridiagonal_toeplitz_is_member(self):
        A = toeplitz_matrix(5, {-1: 2.0, 0: 1.0, 1: 3.0})
        assert is_member(A, toeplitz(5, {-1, 0, 1}))

    def test_non_toeplitz_diagonal(self):
        assert not is_member(np.array([[1.0, 2.0], [3.0, 4.0]]), toeplitz(2, {-1, 0, 1}))

    def test_hamiltonian_block_characterization(self):
        rng = np.random.default_rng(7)
        K = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        L = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        L = L + L.conj().T
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        M = M + M.conj().T
        Q = np.block([[K, M], [L, -K.conj().T]])
        assert is_member(Q, hamiltonian(3))

    def test_hamiltonian_iff_qj_hermitian(self):
        J = symplectic_j(3)
        for _ in range(20):
            Q = random_matrix(6)
            lhs = is_member(Q, hamiltonian(3))
            QJ = Q @ J
            rhs = np.linalg.norm(QJ - QJ.conj().T) <= 1e-12 * np.linalg.norm(Q)
            assert lhs == rhs

    def test_zero_matrix_always_member(self):
        for S in ALL_PATTERNS:
            assert is_member(np.zeros((S.dim, S.dim)), S)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_member(np.eye(3), toeplitz(4, {0}))

    def test_one_relative_tolerance_at_every_scale(self):
        # A tolerance floored at 1e-300 took any subnormal matrix for a member.
        S = hamiltonian(2, real=True)
        M = np.random.default_rng(1).standard_normal((4, 4))
        P = project(M, S)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e-315, 1.0, 1e145, 1e300):
                assert not is_member(M * scale, S)
            for k in (-1060, 0, 1020):
                assert is_member(np.ldexp(P.real, k), S)


@pytest.mark.parametrize("kind", ["full", "hamiltonian"])
@pytest.mark.parametrize("support", [frozenset({0}), frozenset()], ids=["offset-0", "empty"])
def test_support_only_on_toeplitz_and_hankel(kind, support):
    with pytest.raises(DimensionMismatch, match="support"):
        StructurePattern(kind, 4, support=support)


class TestProject:
    def test_toeplitz_diagonal_mean(self):
        P = project(np.array([[1.0, 2.0], [3.0, 4.0]]), toeplitz(2, {-1, 0, 1}))
        np.testing.assert_allclose(P, [[2.5, 2.0], [3.0, 2.5]])

    def test_hamiltonian_hand_value(self):
        M = np.array([[1 + 1j, 2.0], [3.0, 4.0]])
        P = project(M, hamiltonian(1))
        np.testing.assert_allclose(
            P, [[(-3 + 1j) / 2, 2.0], [3.0, (3 + 1j) / 2]], atol=1e-15
        )

    def test_hankel_antidiagonal_mean(self):
        # main antidiagonal of [[1,2],[3,4]] is {2,3}; corner antidiagonals {1},{4}
        P = project(np.array([[1.0, 2.0], [3.0, 4.0]]), hankel(2, {-1, 0, 1}))
        np.testing.assert_allclose(P, [[1.0, 2.5], [2.5, 4.0]])

    @settings(max_examples=200, deadline=None)
    @given(
        S=st.sampled_from([*ALL_PATTERNS, hankel(5, {-4, 0, 1}, real=True)]),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-1000, 1024),
    )
    def test_scales_by_powers_of_two_without_warning(self, S, seed, k):
        # M: entries of modulus in [1e-3, 1) and signed zeros.  The
        # projection of M * 2^k is that of M times 2^k, at any k that keeps
        # M * 2^k in the normal range, without overflow; and bit for bit
        # the unscaled formula wherever that does not overflow.
        rng = np.random.default_rng(seed)
        parts = rng.standard_normal((S.dim, 2 * S.dim))
        parts = np.where(np.abs(parts) < 1e-3, np.copysign(0.0, parts), parts)
        M = (parts / (2 * np.abs(parts).max())).view(complex)
        X = np.ldexp(M.view(float), k).view(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = project(X, S)
            unit = normalized_projection(X, S)
        assert P.tobytes() == np.ldexp(project(M, S).view(float), k).tobytes()
        assert unit.tobytes() == normalized_projection(M, S).tobytes()
        if k <= 1000:
            Y = X.real.astype(complex) if S.real else X
            if S.kind == "hamiltonian":
                formula = 0.5 * (Y + _hamiltonian_image(Y))
            elif S.kind == "full":
                formula = Y
            else:
                formula = _project_banded(Y, S.support, antidiagonal=S.kind == "hankel")
            assert P.tobytes() == np.ascontiguousarray(formula).tobytes()

    @pytest.mark.parametrize("S", ALL_PATTERNS, ids=str)
    def test_idempotent(self, S):
        for _ in range(5):
            M = random_matrix(S.dim)
            P = project(M, S)
            np.testing.assert_allclose(
                project(P, S), P, atol=1e-14 * np.linalg.norm(M)
            )

    @pytest.mark.parametrize("S", ALL_PATTERNS, ids=str)
    def test_member_is_fixed_point(self, S):
        seed = abs(hash(str(S))) % 2**32
        B = random_member(S, seed)
        np.testing.assert_allclose(project(B, S), B, atol=1e-13)

    @pytest.mark.parametrize("S", ALL_PATTERNS, ids=str)
    def test_optimality_and_orthogonality(self, S):
        M = random_matrix(S.dim, real=S.real)
        P = project(M, S)
        dist = np.linalg.norm(M - P)
        for k in range(30):
            B = random_member(S, 1000 + k)
            assert dist <= np.linalg.norm(M - B) + 1e-12
            inner = np.real(np.vdot(B, M - P))
            assert abs(inner) <= 1e-10 * np.linalg.norm(M) * np.linalg.norm(B)

    @pytest.mark.parametrize("S", ALL_PATTERNS, ids=str)
    def test_real_linearity_and_contraction(self, S):
        M, N = random_matrix(S.dim), random_matrix(S.dim)
        a, b = 1.7, -0.3
        np.testing.assert_allclose(
            project(a * M + b * N, S),
            a * project(M, S) + b * project(N, S),
            atol=1e-12,
        )
        assert np.linalg.norm(project(M, S)) <= np.linalg.norm(M) + 1e-12

    @pytest.mark.parametrize("S", [*ALL_PATTERNS, StructurePattern("full", 4, real=True)], ids=str)
    def test_returns_complex_array(self, S):
        for M in (RNG.standard_normal((S.dim, S.dim)), random_matrix(S.dim)):
            P = project(M, S)
            assert P.dtype == complex and P.shape == (S.dim, S.dim)

    def test_complex_linearity_toeplitz_hankel_full(self):
        for S in (toeplitz(5, {-1, 0, 2}), hankel(5, {0, 1}), full(5)):
            M = random_matrix(5)
            c = 0.4 - 1.1j
            np.testing.assert_allclose(
                project(c * M, S), c * project(M, S), atol=1e-12
            )


class TestJRule:
    """J applied by block swaps equals the dense ``symplectic_j`` products
    byte for byte (``tobytes``, so signed zeros count)."""

    @staticmethod
    def _matrix(seed, shape, real, zeros):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal(shape).astype(complex)
        if not real:
            M += 1j * rng.standard_normal(shape)
        M[rng.random(shape) < zeros] = 0
        return M

    @settings(max_examples=200, deadline=None)
    @given(
        h=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
        real=st.booleans(),
        zeros=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_project_hamiltonian_equals_dense_formula(self, h, seed, real, zeros):
        M = self._matrix(seed, (2 * h, 2 * h), real, zeros)
        J = symplectic_j(h)
        for S in (hamiltonian(h), hamiltonian(h, real=True)):
            base = M.real.astype(complex) if S.real else M
            dense = 0.5 * (base + J @ base.conj().T @ J)
            assert project(M, S).tobytes() == dense.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        h=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
        real=st.booleans(),
        zeros=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_phase_normalize_equals_dense_formula(self, h, seed, real, zeros):
        n = 2 * h
        rights = self._matrix(seed, (n, n), real, zeros)
        lefts = self._matrix(seed + 1, (n, n), real, zeros)
        sys = Eigensystem(eigenvalues=np.arange(n, dtype=complex), rights=rights, lefts=lefts)
        dense = lefts * _unit_phases(_column_dots(lefts, symplectic_j(h) @ rights))
        out = hamiltonian_phase_normalize(sys)
        assert out.lefts.tobytes() == dense.tobytes()
        assert out.rights is rights

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 4),
        h=st.integers(1, 10),
        m=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacks_equal_dense_products(self, k, h, m, seed):
        # Nonzero complex entries: a dense product sums -1 * 0.0 and 0 * x
        # to +0.0 where the moves keep -0.0, so zeros would only differ in sign.
        M = self._matrix(seed, (k, 2 * h, 2 * h), False, 0.0)
        X = self._matrix(seed + 1, (k, 2 * h, m), False, 0.0)
        J = symplectic_j(h)
        image, jx = _hamiltonian_image(M), _j(X)
        assert image.shape == M.shape and jx.shape == X.shape
        for s in range(k):
            assert image[s].tobytes() == (J @ M[s].conj().T @ J).tobytes()
            assert jx[s].tobytes() == (J @ X[s]).tobytes()


class TestNormalizedProjection:
    def test_member_rescaled(self):
        S = toeplitz(3, {-1, 0, 1})
        B = 2.0 * random_member(S, 5)
        np.testing.assert_allclose(normalized_projection(B, S), B / 2.0, atol=1e-13)

    def test_tiny_input_keeps_its_projection(self):
        # Entries of 1e-170 square to 0 in np.linalg.norm, which read the
        # projection as zero.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = normalized_projection(np.ones((4, 4)) * 1e-170, toeplitz(4, {0}))
        np.testing.assert_allclose(P, np.eye(4) / 2, rtol=1e-15, atol=0)
        assert is_member(P, toeplitz(4, {0}))

    def test_zero_projection_raises(self):
        with pytest.raises(ZeroProjection):
            normalized_projection(np.array([[0.0, 1.0], [0.0, 0.0]]), toeplitz(2, {0}))

    def test_unit_norm(self):
        for S in ALL_PATTERNS:
            P = normalized_projection(random_matrix(S.dim), S)
            assert np.linalg.norm(P) == pytest.approx(1.0, abs=1e-12)


class TestRandomGenerators:
    @pytest.mark.parametrize("S", ALL_PATTERNS, ids=str)
    def test_random_member_contract(self, S):
        E = random_member(S, 99)
        assert is_member(E, S)
        assert np.linalg.norm(E) == pytest.approx(1.0, abs=1e-12)
        if S.real:
            assert np.all(E.imag == 0)
        np.testing.assert_array_equal(E, random_member(S, 99))

    def test_random_rank_one_contract(self):
        E = random_rank_one(5, 42)
        s = np.linalg.svd(E, compute_uv=False)
        assert s[1] <= 1e-12
        assert np.linalg.norm(E) == pytest.approx(1.0, abs=1e-12)
        assert s[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(E, random_rank_one(5, 42))


def test_toeplitz_support_inference():
    A = toeplitz_matrix(6, {-1: 1.0, 0: 0.0, 1: 2.0})
    assert toeplitz_support_of(A) == frozenset({-1, 1})
    A[0, 0] = 3.0  # no longer constant but the diagonal is now nonzero
    assert toeplitz_support_of(A) == frozenset({-1, 0, 1})


@pytest.mark.parametrize("scale", [1e-315, 5e307])
def test_toeplitz_support_beyond_the_norm_range(scale):
    # ||A||_F overflows at 5e307 (the threshold was inf) and is below the
    # old floor of 1e-300 at 1e-315 (the threshold was above every entry).
    A = toeplitz_matrix(5, {-1: scale, 0: 1.6 * scale, 1: scale, 3: 0.5 * scale})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert toeplitz_support_of(A) == frozenset({-1, 0, 1, 3})


NORM_PATTERNS = [
    full(6),
    toeplitz(6, {-2, 0, 1}),
    toeplitz(6, {-5, -1, 0, 3, 5}),
    hankel(6, {-1, 0, 2}),
    hankel(6, {-5, 4}),
    hamiltonian(3),
]


@pytest.mark.parametrize("real", [False, True], ids=["complex-pattern", "real-pattern"])
@pytest.mark.parametrize("S", NORM_PATTERNS, ids=lambda S: f"{S.kind}-{sorted(S.support or [])}")
@pytest.mark.parametrize("vectors", ["complex", "real"])
def test_projection_norms_match_projected_outer_products(S, real, vectors):
    S = replace(S, real=real)
    rng = np.random.default_rng(7)
    Y, X = (random_matrix(S.dim, real=vectors == "real") for _ in range(2))
    expected = [
        np.linalg.norm(project(np.outer(Y[:, i], X[:, i].conj()), S)) for i in range(S.dim)
    ]
    np.testing.assert_allclose(projection_norms(Y, X, S), expected, rtol=1e-12, atol=0)
    # unit vectors, the eigenvector setting
    Y, X = Y / np.linalg.norm(Y, axis=0), X / np.linalg.norm(X, axis=0) * rng.choice([1, 1j])
    expected = [
        np.linalg.norm(project(np.outer(Y[:, i], X[:, i].conj()), S)) for i in range(S.dim)
    ]
    np.testing.assert_allclose(projection_norms(Y, X, S), expected, rtol=1e-12, atol=0)


def _project_banded_loop(M, support, antidiagonal):
    """The per-diagonal loop that ``_project_banded`` replaced, kept as the
    reference."""
    work = M[:, ::-1] if antidiagonal else M
    out = np.zeros_like(work)
    for k in support:
        d = np.diagonal(work, k)
        rows = np.arange(d.shape[0]) + (0 if k >= 0 else -k)
        out[rows, rows + k] = d.mean()
    return out[:, ::-1] if antidiagonal else out


def test_project_banded_bitwise_equals_per_diagonal_loop():
    rng = np.random.default_rng(11)
    for t in range(100):
        n = int(rng.integers(2, 10))
        offsets = np.arange(-(n - 1), n)
        support = set(rng.choice(offsets, size=int(rng.integers(1, 2 * n)), replace=False).tolist())
        if t % 4 == 0:
            support |= {-(n - 1), n - 1}  # the one-entry corner diagonals
        M = random_matrix(n, real=t % 2 == 1)
        M[rng.random((n, n)) < 0.3] = -0.0  # signed zeros, whole diagonals included
        M[np.eye(n, k=int(rng.integers(-(n - 1), n)), dtype=bool)] = -0.0
        for antidiagonal in (False, True):
            got = _project_banded(M, support, antidiagonal)
            ref = _project_banded_loop(M, support, antidiagonal)
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d,dim,named", [
    ({"kind": "full"}, True, "dim"),
    ({"kind": "full"}, "5", "dim"),
    ({"kind": "hamiltonian", "n_half": True}, 2, "n_half"),
    ({"kind": "toeplitz", "support": [-1, False, True]}, 3, "support"),
], ids=["dim-bool", "dim-string", "n_half-bool", "support-bools"])
def test_pattern_from_dict_rejects_non_integers(d, dim, named):
    with pytest.raises(BadParams, match=named):
        pattern_from_dict(d, dim)


@st.composite
def _structure_objects(draw):
    """A valid structure object as ``pattern_to_dict`` writes it, and its dim."""
    kind = draw(st.sampled_from(["full", "toeplitz", "hankel", "hamiltonian"]))
    dim = draw(st.integers(2, 12))
    d = {"kind": kind, "real": draw(st.booleans())}
    if kind in ("toeplitz", "hankel"):
        offsets = st.integers(-(dim - 1), dim - 1)
        d["support"] = sorted(draw(st.sets(offsets, min_size=1)))
    if kind == "hamiltonian":
        dim += dim % 2
        d["n_half"] = dim // 2
    return d, dim


@settings(max_examples=200, deadline=None)
@given(case=_structure_objects())
def test_structure_object_round_trips_unchanged(case):
    d, dim = case
    S = pattern_from_dict(d, dim)
    assert pattern_to_dict(S) == d
    assert pattern_from_dict(pattern_to_dict(S), dim) == S

