import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudospec import (
    Eigensystem,
    eig_pairs,
    full,
    hamiltonian_phase_normalize,
    kappas,
    sigma_min_batch,
    symplectic_j,
    tridiag_toeplitz,
    tridiag_toeplitz_reference,
)
from pseudospec.errors import (
    DefectiveInput,
    DimensionMismatch,
    ZeroOffdiagonal,
)
from pseudospec.families import generate
from pseudospec.numkernel import _normalized_triples

U = np.finfo(float).eps / 2

# Family matrices on which eig(A) and eig(A^H) solved separately and paired
# by nearest conjugate eigenvalue missed the residual contract.
HARD_FAMILY_CASES = (
    [("tridiag_toeplitz", n, 2) for n in (80, 120)]
    + [("tridiag_toeplitz", 10, seed) for seed in (141, 192, 229, 287)]
    + [("pentadiag_toeplitz", 20, seed) for seed in (121, 405, 622, 895, 954)]
)


def assert_residual_contract(A, sys):
    norm_a = np.linalg.norm(A)
    for i in range(sys.dim):
        x = sys.rights[:, i]
        y = sys.lefts[:, i]
        lam = sys.eigenvalues[i]
        assert np.linalg.norm(A @ x - lam * x) <= 1e-10 * norm_a
        assert np.linalg.norm(A.conj().T @ y - np.conj(lam) * y) <= 1e-10 * norm_a
        assert abs(np.linalg.norm(x) - 1) < 1e-12
        assert abs(np.linalg.norm(y) - 1) < 1e-12


class TestEigPairs:
    def test_diagonal(self):
        sys = eig_pairs(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(sys.eigenvalues, [1.0, 2.0])
        np.testing.assert_allclose(np.abs(sys.rights), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(np.abs(sys.lefts), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(sys.overlaps, [1.0, 1.0], atol=1e-14)

    def test_skew_symmetric(self):
        sys = eig_pairs(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(sys.eigenvalues, [-1j, 1j], atol=1e-14)
        np.testing.assert_allclose(sys.overlaps, [1.0, 1.0], atol=1e-12)

    def test_tridiag_closed_form(self):
        sys = eig_pairs(tridiag_toeplitz(4, 1, 0, 1))
        expected = sorted(2 * np.cos(k * np.pi / 5) for k in range(1, 5))
        np.testing.assert_allclose(sys.eigenvalues.real, expected, atol=1e-12)
        np.testing.assert_allclose(sys.eigenvalues.imag, 0, atol=1e-12)

    def test_residual_contract(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            A = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
            assert_residual_contract(A, eig_pairs(A))

    def test_overlap_positivity(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        sys = eig_pairs(A)
        assert np.all(np.abs(sys.overlaps.imag) < 1e-13)
        assert np.all(sys.overlaps.real > 0)

    def test_sorted_lexicographically(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        w = eig_pairs(A).eigenvalues
        key = list(zip(w.real, w.imag))
        assert key == sorted(key)

    def test_defective_input_rejected(self):
        with pytest.raises(DefectiveInput):
            eig_pairs(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_zero_matrix_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DefectiveInput) as info:
                eig_pairs(np.zeros((3, 3)))
        assert "nan" not in str(info.value)

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            eig_pairs(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(DimensionMismatch):
            eig_pairs(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_matches_reference_spectrum(self):
        for n, sub, diag, sup in [(4, 1, 0, 1), (6, 2.0, 0.5, 0.25), (12, 1.5, -1.0, 0.5)]:
            computed = eig_pairs(tridiag_toeplitz(n, sub, diag, sup))
            reference = tridiag_toeplitz_reference(n, sub, diag, sup)
            np.testing.assert_allclose(
                computed.eigenvalues, reference.eigenvalues, atol=1e-8
            )
            np.testing.assert_allclose(
                np.abs(computed.overlaps), np.abs(reference.overlaps), atol=1e-8
            )

    @pytest.mark.parametrize("family,n,seed", HARD_FAMILY_CASES)
    def test_strongly_nonnormal_family_matrices(self, family, n, seed):
        A, _, params = generate(family, n, seed)
        sys = eig_pairs(A)
        assert_residual_contract(A, sys)
        if family == "tridiag_toeplitz":
            ref = tridiag_toeplitz_reference(
                n, params["sub"], params["diag"], params["super"]
            )
            bound = U * np.linalg.norm(A) / np.abs(ref.overlaps)
            assert np.all(np.abs(sys.eigenvalues - ref.eigenvalues) <= bound)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 12),
        k=st.integers(-600, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_power_of_two_scaling_is_exact(self, n, k, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        base = eig_pairs(A)
        scaled = eig_pairs(2.0**k * A)
        assert np.array_equal(scaled.eigenvalues, base.eigenvalues * 2.0**k)
        assert scaled.min_gap == base.min_gap * 2.0**k
        assert np.array_equal(scaled.rights, base.rights)
        assert np.array_equal(scaled.lefts, base.lefts)
        assert np.array_equal(scaled.overlaps, base.overlaps)

    def test_extreme_scaling_keeps_kappas(self):
        A, S, _ = generate("hamiltonian_random", 8, 2)
        base = eig_pairs(A)
        for factor in (1e200, 1e-200):
            scaled = eig_pairs(factor * A)
            for pattern in (full(8), S):
                np.testing.assert_allclose(
                    kappas(scaled, pattern), kappas(base, pattern), rtol=1e-12
                )


class TestTridiagReference:
    def test_symmetric_cosine_spectrum(self):
        sys = tridiag_toeplitz_reference(4, 1, 0, 1)
        expected = sorted(2 * np.cos(k * np.pi / 5) for k in range(1, 5))
        np.testing.assert_allclose(sys.eigenvalues.real, expected, atol=1e-12)

    def test_shift_property(self):
        sys = tridiag_toeplitz_reference(3, 1, 5, 1)
        expected = sorted(5 + 2 * np.cos(k * np.pi / 4) for k in range(1, 4))
        np.testing.assert_allclose(sys.eigenvalues.real, expected, atol=1e-12)

    def test_real_symmetric_about_diagonal(self):
        sys = tridiag_toeplitz_reference(7, 3.0, 1.5, 3.0)
        w = sys.eigenvalues
        assert np.all(np.abs(w.imag) < 1e-12)
        np.testing.assert_allclose(w.real + w.real[::-1], 2 * 1.5, atol=1e-12)

    def test_eigen_triples_satisfy_residuals(self):
        A = tridiag_toeplitz(5, 2.0, 1.0, 0.5)
        sys = tridiag_toeplitz_reference(5, 2.0, 1.0, 0.5)
        for i in range(5):
            x = sys.rights[:, i]
            y = sys.lefts[:, i]
            lam = sys.eigenvalues[i]
            assert np.linalg.norm(A @ x - lam * x) < 1e-10 * np.linalg.norm(A)
            assert np.linalg.norm(A.conj().T @ y - np.conj(lam) * y) < 1e-10 * np.linalg.norm(A)

    def test_zero_offdiagonal_rejected(self):
        with pytest.raises(ZeroOffdiagonal):
            tridiag_toeplitz_reference(4, 0, 1, 1)


class TestSigmaMin:
    def test_normal_distance(self):
        A = np.diag([1.0, 2.0])
        assert sigma_min_batch(A, [0.0])[0] == pytest.approx(1.0, abs=1e-12)
        assert sigma_min_batch(A, [1.0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_gram_eigenvalue_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            z = complex(rng.standard_normal(), rng.standard_normal())
            B = A - z * np.eye(3)
            # independent route: sqrt of the smallest eigenvalue of B^H B
            oracle = np.sqrt(max(np.linalg.eigvalsh(B.conj().T @ B)[0], 0.0))
            assert sigma_min_batch(A, [z])[0] == pytest.approx(oracle, abs=1e-10)

    def test_normal_matrix_spectral_distance(self):
        A = np.diag([1.0 + 1j, -2.0, 3.0])
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            dist = np.min(np.abs(np.diag(A) - z))
            assert sigma_min_batch(A, [z])[0] == pytest.approx(dist, abs=1e-10)


class TestHamiltonianPhaseNormalize:
    def _random_sys(self, seed, n=4):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return eig_pairs(A)

    def test_makes_yjx_real(self):
        sys = self._random_sys(1)
        out = hamiltonian_phase_normalize(sys, 2)
        J = symplectic_j(2)
        for i in range(4):
            c = np.vdot(out.lefts[:, i], J @ out.rights[:, i])
            assert abs(c.imag) < 1e-13

    def test_idempotent_and_norm_preserving(self):
        sys = self._random_sys(2)
        once = hamiltonian_phase_normalize(sys, 2)
        twice = hamiltonian_phase_normalize(once, 2)
        np.testing.assert_allclose(once.lefts, twice.lefts, atol=1e-14)
        np.testing.assert_allclose(
            np.linalg.norm(once.lefts, axis=0), 1.0, atol=1e-12
        )
        np.testing.assert_allclose(
            np.abs(once.overlaps), np.abs(sys.overlaps), atol=1e-13
        )

    def test_purely_imaginary_pair_rotated(self):
        # fabricate a pair with y^H J x = i * r, r real nonzero
        x = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        y = np.array([0.0, 0.0, 1j, 0.0], dtype=complex)
        J = symplectic_j(2)
        assert np.vdot(y, J @ x) == pytest.approx(1j)
        sys = Eigensystem(
            eigenvalues=np.array([0.0j, 1.0, 2.0, 3.0]),
            rights=np.column_stack([x, np.eye(4, dtype=complex)[:, 1:]]),
            lefts=np.column_stack([y, np.eye(4, dtype=complex)[:, 1:]]),
            min_gap=1.0,
        )
        out = hamiltonian_phase_normalize(sys, 2)
        c = np.vdot(out.lefts[:, 0], J @ out.rights[:, 0])
        assert abs(c.imag) < 1e-14
        assert c.real > 0

    def test_zero_case_unchanged(self):
        # e_1, e_2 with J e_1 = -e_3 gives y^H J x = 0 for y = e_2
        x = np.eye(4, dtype=complex)[:, 0]
        y = np.eye(4, dtype=complex)[:, 1]
        J = symplectic_j(2)
        assert np.vdot(y, J @ x) == 0
        sys = Eigensystem(
            eigenvalues=np.arange(4).astype(complex),
            rights=np.eye(4, dtype=complex),
            lefts=np.column_stack([y, x, np.eye(4, dtype=complex)[:, 2:]]),
            min_gap=1.0,
        )
        out = hamiltonian_phase_normalize(sys, 2)
        np.testing.assert_array_equal(out.lefts[:, 0], y)

    def test_odd_dimension_rejected(self):
        sys = self._random_sys(3, n=4)
        with pytest.raises(DimensionMismatch):
            hamiltonian_phase_normalize(sys, 3)


def _normalized_triples_loop(rights, lefts):
    """The per-column normalizer that the array-level one replaced, kept as
    the reference: canonical right phase, then y^H x real positive."""
    rights, lefts = rights.copy(), lefts.copy()
    overlaps = np.empty(rights.shape[1], dtype=complex)
    for i in range(rights.shape[1]):
        x = rights[:, i] / np.linalg.norm(rights[:, i])
        pivot = x[int(np.argmax(np.abs(x)))]
        if abs(pivot) > 0.0:
            x = x * (np.conj(pivot) / abs(pivot))
        y = lefts[:, i] / np.linalg.norm(lefts[:, i])
        o = np.vdot(y, x)
        if abs(o) > 0.0:
            y = y * (o / abs(o))
        rights[:, i], lefts[:, i] = x, y
        overlaps[i] = np.vdot(y, x)
    return rights, lefts, overlaps


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 20, 31, 40])
def test_normalized_triples_match_per_column_loop(n):
    import scipy.linalg

    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    _, lefts, rights = scipy.linalg.eig(A, left=True, right=True)
    rights = rights * rng.uniform(0.5, 2.0, n)
    # column 0: disjoint supports, so y^H x is exactly zero
    h = n // 2
    rights[h:, 0] = 0.0
    lefts[:h, 0] = 0.0
    X, Y = _normalized_triples(rights.copy(), lefts.copy())
    overlaps = (Y.conj() * X).sum(axis=0)
    X_ref, Y_ref, overlaps_ref = _normalized_triples_loop(rights, lefts)
    np.testing.assert_allclose(X, X_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(Y, Y_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(overlaps, overlaps_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(X, axis=0), 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(Y, axis=0), 1.0, rtol=0, atol=1e-14)
    pivots = X[np.argmax(np.abs(X), axis=0), np.arange(n)]
    assert np.all(pivots.real > 0) and np.all(np.abs(pivots.imag) <= 4 * U)
    assert overlaps[0] == 0
    # a zero-overlap left vector keeps its phase
    np.testing.assert_allclose(Y[:, 0] * np.linalg.norm(lefts[:, 0]), lefts[:, 0], atol=1e-14)
    # y^H x of unit vectors rounds to within n u
    o = overlaps[1:]
    assert np.all(o.real > 0) and np.all(np.abs(o.imag) <= n * U)
