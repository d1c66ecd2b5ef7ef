import itertools
import os
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction
from pathlib import Path

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
    numkernel,
    sigma_min_batch,
    toeplitz_matrix,
)
from pseudospec.errors import DefectiveInput, DimensionMismatch, NonConvergence, NumericFailure
from pseudospec.families import FAMILIES, generate
from pseudospec.numkernel import _normalized_triples, _sigma_min_bounds
from references import symplectic_j, tridiag_toeplitz_reference

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
        sys = eig_pairs(toeplitz_matrix(4, {-1: 1, 0: 0, 1: 1}))
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
            computed = eig_pairs(toeplitz_matrix(n, {-1: sub, 0: diag, 1: sup}))
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
        assert np.array_equal(scaled.rights, base.rights)
        assert np.array_equal(scaled.lefts, base.lefts)
        assert np.array_equal(scaled.overlaps, base.overlaps)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 5),
        data=st.data(),
    )
    def test_scaled_puts_the_largest_part_in_half_to_one(self, n, data):
        # Parts across 2^(+-1000), any finite float (subnormals included),
        # and the extremes themselves; or the zero matrix.
        finfo = np.finfo(float)
        part = st.one_of(
            st.builds(np.ldexp, st.floats(-1.0, 1.0), st.integers(-1000, 1000)),
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, finfo.tiny, finfo.max, -finfo.max]),
        )
        parts = np.array(data.draw(st.lists(part, min_size=2 * n * n, max_size=2 * n * n)),
                         dtype=float)
        if data.draw(st.booleans()):
            parts[:] = 0.0
        A = parts.view(complex).reshape(n, n)
        A_out, B, e = numkernel._scaled(A)
        assert np.array_equal(A_out, A) and isinstance(e, int)
        scaled = np.abs(B.view(float))
        assert np.all(scaled < 1.0)
        if np.any(A):
            assert 0.5 <= scaled.max() < 1.0
        else:
            assert e == 0 and not np.any(B)
        # Bit for bit unless a part falls below the normal range once scaled.
        if np.all((parts == 0.0) | (np.abs(parts) >= np.ldexp(finfo.tiny, e))):
            back = np.ldexp(B.view(float), e)
            assert np.array_equal(back.ravel().view(np.uint64), parts.view(np.uint64))

    def test_extreme_scaling_keeps_kappas(self):
        A, S, _ = generate("hamiltonian_random", 8, 2)
        base = eig_pairs(A)
        for factor in (1e200, 1e-200):
            scaled = eig_pairs(factor * A)
            for pattern in (full(8), S):
                np.testing.assert_allclose(
                    kappas(scaled, pattern), kappas(base, pattern), rtol=1e-12
                )

    @pytest.mark.parametrize("real", [True, False], ids=["dgeev", "zgeev"])
    def test_spectrum_beyond_the_float_range_raises(self, real):
        # Eigenvalues 1.5e308 + 2e308 cos(k pi / 6): the largest is about 3.2e308.
        A = toeplitz_matrix(5, {-1: 1e308, 0: 1.5e308, 1: 1e308})
        A = A.real if real else A * 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure, match="float range") as info:
                eig_pairs(A)
            assert type(info.value) is NumericFailure
            # Half the matrix has a spectrum inside the range.
            assert np.all(np.isfinite(eig_pairs(A / 2).eigenvalues))


class TestFrobenius:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.floats(-150.0, 150.0),
    )
    def test_numpys_norm_and_within_4u_at_the_extremes(self, rows, cols, seed, exponent):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        X = M * 10.0**exponent
        assert numkernel._frobenius(X).tobytes() == np.linalg.norm(X).tobytes()
        # np.linalg.norm reads 0 at 1e-300 and overflows at 1e300.
        u = Fraction(1, 2**53)
        for scale in (1e-300, 1e300):
            X = M * scale
            norm = numkernel._frobenius(X)
            assert np.isfinite(norm) and norm > 0.0
            # |norm - ||X||_F| <= 4u ||X||_F, squared so that it stays rational
            exact_sq = sum(Fraction(x) ** 2 for x in X.view(float).ravel().tolist())
            assert (1 - 4 * u) ** 2 * exact_sq <= Fraction(float(norm)) ** 2 <= (1 + 4 * u) ** 2 * exact_sq

    def test_inf_without_warning_only_where_the_norm_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert numkernel._frobenius(np.full((4, 4), 1.5e308)) == np.inf
            lone = np.zeros((4, 4), dtype=complex)
            lone[1, 2] = -1.7e308j
            assert numkernel._frobenius(lone) == 1.7e308
            assert numkernel._frobenius(np.zeros((3, 3))) == 0.0


def _real_cases():
    """Real matrices with complex and real eigenvalues: seeded Gaussian ones
    and the two real families, all with moderate kappa."""
    rng = np.random.default_rng(19)
    cases = [(f"gaussian-{n}-{k}", rng.standard_normal((n, n)), full(n))
             for n in (2, 3, 5, 8, 12) for k in range(3)]
    for family, n, seed in [("hamiltonian_random", 4, 0), ("hamiltonian_random", 12, 1),
                            ("hamiltonian_random", 40, 2), ("tridiag_toeplitz", 5, 2),
                            ("tridiag_toeplitz", 8, 4)]:
        A, S, _ = generate(family, n, seed)
        cases.append((f"{family}-{n}-{seed}", A.real, S))
    return cases


REAL_CASES = _real_cases()


def _zgeev_pairs(A):
    """eig_pairs with its eigensolve run by zgeev on the complex copy of B."""
    import scipy.linalg

    eig = scipy.linalg.eig
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numkernel.scipy.linalg, "eig", lambda B, **kw: eig(B.astype(complex), **kw))
        return eig_pairs(A)


def _phase_aligned_distance(X, Z):
    """||x e^{i phi} - z|| per column, phi the phase that minimizes it."""
    d = np.einsum("ij,ij->j", X.conj(), Z)
    return np.linalg.norm(X * (d / np.abs(d)) - Z, axis=0)


class TestRealInput:
    """Real A takes dgeev: exact conjugate pairs, and the triples of zgeev
    up to rounding."""

    @pytest.mark.parametrize("name,A,S", REAL_CASES, ids=[c[0] for c in REAL_CASES])
    def test_eigenvalues_and_triples_come_in_exact_conjugate_pairs(self, name, A, S):
        sys = eig_pairs(A)
        w = sys.eigenvalues
        assert np.array_equal(np.sort_complex(w.conj()), np.sort_complex(w))
        for i in np.flatnonzero(w.imag):
            (j,) = np.flatnonzero(w == w[i].conj())
            assert np.array_equal(sys.rights[:, j], sys.rights[:, i].conj())
            assert np.array_equal(sys.lefts[:, j], sys.lefts[:, i].conj())
        # the real eigenvalues carry real triples
        real = w.imag == 0
        assert not np.any(sys.rights[:, real].imag) and not np.any(sys.lefts[:, real].imag)

    @pytest.mark.parametrize("name,A,S", REAL_CASES, ids=[c[0] for c in REAL_CASES])
    def test_triples_and_kappas_agree_with_zgeev(self, name, A, S):
        # Each solve is backward stable: its triples are exact for A + E with
        # ||E||_F <= p(n) u ||A||_F, p(n) a modest multiple of n (4n here).
        # To first order, for the two solves together:
        # * |d lambda_i| <= 2 kappa_i ||E||, Wilkinson's bound;
        # * ||d x_i||, ||d y_i|| <= 2 ||(A - lambda_i I)^#|| ||E|| <= delta_i
        #   = 2 n kappa_max ||E|| / gap_i, since with unit columns
        #   cond(V) <= n kappa_max for A = V diag(lambda) V^{-1} (compared
        #   up to a unit factor, as a pivot near a tie may fix another phase);
        # * kappa_i = 1 / |y_i^H x_i|, so |d kappa_i| <= kappa_i^2 * 2 delta_i;
        # * kappa^S_i = ||P(y_i x_i^H)||_F kappa_i with P an orthogonal
        #   projection (norm 1), so |d kappa^S_i| <= (kappa_i + kappa_i^2) 2 delta_i.
        real, cplx = eig_pairs(A), _zgeev_pairs(np.asarray(A, dtype=complex))
        n, norm_e = len(A), 4 * len(A) * U * np.linalg.norm(A)
        w = real.eigenvalues
        j = np.argmin(np.abs(w[:, None] - cplx.eigenvalues[None, :]), axis=1)
        assert sorted(j) == list(range(n))
        kappa = kappas(real, full(n))
        gap = np.abs(w[:, None] - w[None, :])
        np.fill_diagonal(gap, np.inf)
        delta = 2 * n * kappa.max() * norm_e / gap.min(axis=1)
        assert np.all(np.abs(w - cplx.eigenvalues[j]) <= 2 * kappa * norm_e)
        assert np.all(_phase_aligned_distance(real.rights, cplx.rights[:, j]) <= delta)
        assert np.all(_phase_aligned_distance(real.lefts, cplx.lefts[:, j]) <= delta)
        assert np.all(np.abs(kappa - kappas(cplx, full(n))[j]) <= kappa**2 * 2 * delta)
        assert np.all(
            np.abs(kappas(real, S) - kappas(cplx, S)[j]) <= (kappa + kappa**2) * 2 * delta
        )

    @pytest.mark.parametrize("name,A,S", REAL_CASES[::4], ids=[c[0] for c in REAL_CASES[::4]])
    def test_conjugate_of_real_input_is_the_same_input(self, name, A, S):
        base = eig_pairs(A)
        for B in (A.conj(), A.astype(complex), A.astype(complex).conj()):
            other = eig_pairs(B)
            for field in ("eigenvalues", "rights", "lefts"):
                assert np.array_equal(getattr(other, field), getattr(base, field))

    @pytest.mark.parametrize("imag,dtype", [(0.0, float), (-0.0, float), (1e-300, complex)])
    def test_lapack_sees_real_input_as_real(self, monkeypatch, imag, dtype):
        import scipy.linalg

        seen, eig = [], scipy.linalg.eig
        monkeypatch.setattr(numkernel.scipy.linalg, "eig",
                            lambda B, **kw: seen.append(B.dtype) or eig(B, **kw))
        A = np.array([[1.0, 2.0], [-3.0, 0.5]]) + imag * 1j * np.eye(2)
        eig_pairs(A)
        assert seen == [np.dtype(dtype)]

    @pytest.mark.parametrize("case,real", [
        ("real", True), ("imag-minus-zero", True), ("underflowing", False), ("complex", False)
    ])
    def test_one_realness_rule(self, monkeypatch, case, real):
        # The eigensolve, the half grid and --structure read one rule on A.
        # The entry 1e-320j is nonzero in A but underflows to 0 in A / 2^e.
        import scipy.linalg

        from pseudospec import cli, oracle

        A = generate("hamiltonian_random", 4, seed=0)[0] * 1e6
        if case != "real":
            A = A.astype(complex)
            A.imag = {"imag-minus-zero": -0.0, "underflowing": 0.0, "complex": 1e-3}[case]
        if case == "underflowing":
            A[0, 1] += 1e-320j
            assert numkernel._scaled(A)[1].imag.max() == 0.0
        dtypes, counts, eig = [], [], scipy.linalg.eig
        monkeypatch.setattr(numkernel.scipy.linalg, "eig",
                            lambda B, **kw: dtypes.append(B.dtype) or eig(B, **kw))
        monkeypatch.setattr(oracle, "sigma_min_batch",
                            lambda A, zs: counts.append(len(zs)) or np.zeros(len(zs)))
        eig_pairs(A)
        # re_min != -re_max: the real Hamiltonian A halves only the rows.
        oracle.grid_field(A, (-1.0, 1.5, -1.0, 1.0), (5, 8))
        assert dtypes == [np.dtype(float if real else complex)]
        assert counts == [5 * (4 if real else 8)]
        for flag in ("toeplitz", "hamiltonian"):
            assert cli._resolve_pattern(flag, None, A).real is real


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
        A = toeplitz_matrix(5, {-1: 2.0, 0: 1.0, 1: 0.5})
        sys = tridiag_toeplitz_reference(5, 2.0, 1.0, 0.5)
        for i in range(5):
            x = sys.rights[:, i]
            y = sys.lefts[:, i]
            lam = sys.eigenvalues[i]
            assert np.linalg.norm(A @ x - lam * x) < 1e-10 * np.linalg.norm(A)
            assert np.linalg.norm(A.conj().T @ y - np.conj(lam) * y) < 1e-10 * np.linalg.norm(A)


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
        out = hamiltonian_phase_normalize(sys)
        J = symplectic_j(2)
        for i in range(4):
            c = np.vdot(out.lefts[:, i], J @ out.rights[:, i])
            assert abs(c.imag) < 1e-13

    def test_idempotent_and_norm_preserving(self):
        sys = self._random_sys(2)
        once = hamiltonian_phase_normalize(sys)
        twice = hamiltonian_phase_normalize(once)
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
        )
        out = hamiltonian_phase_normalize(sys)
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
        )
        out = hamiltonian_phase_normalize(sys)
        np.testing.assert_array_equal(out.lefts[:, 0], y)

    def test_odd_dimension_rejected(self):
        sys = self._random_sys(3, n=5)
        with pytest.raises(DimensionMismatch):
            hamiltonian_phase_normalize(sys)


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


class TestSliceRunner:
    """numkernel._stacked: slices within the entry budget, equal results for
    any worker count, typed errors from any slice."""

    @staticmethod
    def _points(n):
        rng = np.random.default_rng(n)
        return rng.standard_normal(n * 7) + 1j * rng.standard_normal(n * 7)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_sigma_min_batch_matches_per_point_svd(self, engine_workers, monkeypatch, n):
        A, _, _ = generate("pentadiag_toeplitz", n, seed=3)
        zs = self._points(n)
        # 3 matrices per slice: slice edges fall anywhere in the batch
        monkeypatch.setattr(numkernel, "STACK_ENTRIES", 3 * n * n)
        expected = [np.linalg.svd(A - z * np.eye(n), compute_uv=False)[-1] for z in zs]
        assert np.array_equal(sigma_min_batch(A, zs), np.array(expected))

    def test_slices_stay_within_budget(self, engine_workers, monkeypatch):
        n, budget = 6, 5
        A, _, _ = generate("hamiltonian_random", n, seed=1)
        zs = self._points(n)
        monkeypatch.setattr(numkernel, "STACK_ENTRIES", budget * n * n + n)
        seen = []
        svd = np.linalg.svd

        def recording_svd(stack, **kwargs):
            seen.append((stack.shape[0], threading.current_thread().name))
            return svd(stack, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        sigma_min_batch(A, zs)
        sizes = [size for size, _ in seen]
        assert sum(sizes) == zs.size and max(sizes) == budget
        threads = {name for _, name in seen}
        if engine_workers > 1:  # the calling thread runs no slice of a split stack
            assert threading.current_thread().name not in threads
            assert all(name.startswith("pseudospec") for name in threads)
        assert len(threads) <= engine_workers

    @pytest.mark.parametrize("count,n,expected", [
        # a quarter of each worker's share, within the budget
        (2500, 5, [(s, min(s + 313, 2500)) for s in range(0, 2500, 313)]),
        (2500, 10, [(s, min(s + 313, 2500)) for s in range(0, 2500, 313)]),
        (1000, 40, [(s, s + 20) for s in range(0, 1000, 20)]),  # budget 20
        # no smaller than 101 matrices of 5 values, which release the GIL
        (500, 5, [(s, min(s + 101, 500)) for s in range(0, 500, 101)]),
        (150, 5, [(0, 101), (101, 150)]),
        (1, 40, [(0, 1)]),
        (0, 5, []),
    ])
    def test_slice_layout(self, monkeypatch, count, n, expected):
        monkeypatch.setattr(numkernel, "_WORKERS", 2)
        seen = []
        numkernel._stacked(seen.append, count, n)
        assert sorted((s.start, s.stop) for s in seen) == expected

    def test_one_worker_runs_every_slice_inline(self, monkeypatch):
        monkeypatch.setattr(numkernel, "_WORKERS", 1)
        numkernel._pool.cache_clear()
        monkeypatch.setattr(numkernel, "STACK_ENTRIES", 2 * 25)
        seen = []
        numkernel._stacked(lambda rows: seen.append(threading.current_thread()), 7, 5)
        assert seen == [threading.current_thread()] * 4
        assert numkernel._pool.cache_info().currsize == 0

    @pytest.mark.parametrize("engine_workers", [2, 3], indirect=True)
    def test_one_slice_runs_on_the_calling_thread(self, engine_workers):
        seen = []
        numkernel._stacked(lambda rows: seen.append((rows, threading.current_thread())), 5, 5)
        assert seen == [(slice(0, 5), threading.current_thread())]
        assert numkernel._pool.cache_info().currsize == 0

    @pytest.mark.parametrize("engine_workers", [2], indirect=True)
    def test_failing_slice_cancels_the_queued_ones(self, engine_workers, monkeypatch):
        monkeypatch.setattr(numkernel, "STACK_ENTRIES", 1)  # one item per slice
        ran = []

        def work(rows):
            ran.append(rows.start)
            if rows.start == 0:
                raise np.linalg.LinAlgError("SVD did not converge")
            time.sleep(0.001)

        with pytest.raises(NonConvergence, match="SVD did not converge"):
            numkernel._stacked(work, 100, 1)
        # The slices running when slice 0 failed finish before the raise,
        # the queued ones are cancelled: nothing runs after it.
        started = len(ran)
        time.sleep(0.05)
        assert len(ran) == started < 20

    @pytest.mark.parametrize("engine_workers", [2], indirect=True)
    def test_first_error_in_slice_order_is_raised(self, engine_workers, monkeypatch):
        monkeypatch.setattr(numkernel, "STACK_ENTRIES", 1)

        def work(rows):
            # slice 1 fails first, while slice 0 is still running
            time.sleep(0.05 if rows.start == 0 else 0.0)
            raise ValueError(f"slice {rows.start}")

        with pytest.raises(ValueError, match="slice 0"):
            numkernel._stacked(work, 4, 1)

    def test_linalg_error_in_one_slice_is_nonconvergence(self, engine_workers, monkeypatch):
        A, _, _ = generate("pentadiag_toeplitz", 5, seed=3)
        monkeypatch.setattr(numkernel, "STACK_ENTRIES", 4 * 25)
        calls = itertools.count()
        svd = np.linalg.svd

        def failing_svd(stack, **kwargs):
            if next(calls) == 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(stack, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(NonConvergence, match="SVD did not converge"):
            sigma_min_batch(A, self._points(5))

    def test_many_slices_on_more_threads_than_cores(self, monkeypatch):
        # Disjoint writes into one output: an overlapping or dropped slice
        # would break the equality with the per-point loop.
        monkeypatch.setattr(numkernel, "_WORKERS", 8)
        numkernel._pool.cache_clear()
        monkeypatch.setattr(numkernel, "STACK_ENTRIES", 2 * 16)
        A, _, _ = generate("hamiltonian_random", 4, seed=2)
        zs = self._points(4 * 50)
        expected = [np.linalg.svd(A - z * np.eye(4), compute_uv=False)[-1] for z in zs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert np.array_equal(sigma_min_batch(A, zs), np.array(expected))
            assert numkernel._pool.cache_info().currsize == 1
        finally:
            sys.setswitchinterval(interval)
            numkernel._pool(os.getpid()).shutdown()
            numkernel._pool.cache_clear()

    def test_forked_child_runs_stacks_on_its_own_pool(self):
        # The child inherits the parent's cached pool but none of its
        # threads: on that pool its next split stack would never run (the
        # alarm ends such a child with a nonzero status).  It builds a
        # second pool, keyed by its own pid.
        code = (
            "import os, signal, threading\n"
            "from pseudospec import numkernel\n"
            "numkernel._WORKERS = 2\n"
            "numkernel.STACK_ENTRIES = 1\n"
            "both = threading.Barrier(2, timeout=10)\n"
            "numkernel._stacked(lambda rows: both.wait(), 2, 1)\n"
            "assert numkernel._pool.cache_info().currsize == 1\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(10)\n"
            "    numkernel._stacked(lambda rows: None, 2, 1)\n"
            "    os._exit(numkernel._pool.cache_info().currsize != 2)\n"
            "print(os.waitpid(pid, 0)[1])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(numkernel.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-W", "ignore::DeprecationWarning", "-c", code], env=env,
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "0"


def _bound_cases():
    for family in FAMILIES:
        for n in (4, 6, 9):
            if family == "hamiltonian_random" and n % 2:
                continue
            yield pytest.param(family, n, id=f"{family}-{n}")


class TestSigmaMinBounds:
    """The Schur-form bounds of the inclusion check never fall below the
    sigma_min that sigma_min_batch computes."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        log_scale=st.sampled_from([-150, -8, 0, 8, 150]),
        spread=st.floats(1e-9, 10.0),
    )
    def test_bound_at_least_sigma_min(self, seed, n, log_scale, spread):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A *= 10.0**log_scale
        w = np.linalg.eigvals(A)
        # points at the eigenvalues, near them and farther out
        near = w[rng.integers(0, n, 40)] + spread * 10.0**log_scale * (
            rng.standard_normal(40) + 1j * rng.standard_normal(40)
        )
        zs = np.concatenate([w, near])
        assert np.all(_sigma_min_bounds(A, zs) >= sigma_min_batch(A, zs))

    @pytest.mark.parametrize("family,n", _bound_cases())
    def test_bound_at_least_sigma_min_on_family_sweeps(self, family, n):
        from pseudospec import SweepConfig, sweep_wilkinson

        for seed in range(3):
            A, pattern, _ = generate(family, n, seed)
            sys_ = eig_pairs(A)
            cloud = sweep_wilkinson(A, sys_, SweepConfig(pattern=pattern, angles=40))
            zs = np.concatenate([cloud.points, sys_.eigenvalues])
            bounds, values = _sigma_min_bounds(A, zs), sigma_min_batch(A, zs)
            assert np.all(bounds >= values)
            # the bounds certify nearly every sweep point on their own
            assert np.mean(bounds[:-n] <= cloud.epsilon * (1 + 1e-8)) > 0.9

    def test_exact_eigenvalue_gives_infinite_bound(self):
        A = np.diag([1.0, 2.0, 3.0]).astype(complex)
        bounds = _sigma_min_bounds(A, [2.0, 2.1])
        assert bounds[0] == np.inf
        # singular values 1.1, 0.9 and 0.1: two steps leave a tight bound
        assert 0.1 <= bounds[1] <= 0.1 + 1e-6

    def test_schur_failure_is_nonconvergence(self, monkeypatch):
        import scipy.linalg

        def failing_schur(*args, **kwargs):
            raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")

        monkeypatch.setattr(scipy.linalg, "schur", failing_schur)
        with pytest.raises(NonConvergence, match="Schur form not found"):
            _sigma_min_bounds(np.diag([1.0, 2.0, 3.0]), [0.5])

    def test_zero_matrix(self):
        zs = np.array([0.0, 1.0 + 1.0j, -3.0])
        bounds = _sigma_min_bounds(np.zeros((3, 3)), zs)
        assert bounds[0] == np.inf
        assert np.all(bounds[1:] >= np.abs(zs[1:]))
