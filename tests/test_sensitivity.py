import warnings

import numpy as np
import pytest

from pseudospec import (
    analyze,
    coalescence_estimate,
    eig_pairs,
    full,
    hamiltonian,
    hankel,
    kappas,
    project,
    random_member,
    random_rank_one,
    symplectic_j,
    toeplitz,
    toeplitz_matrix,
    wilkinson,
)
from pseudospec.errors import DegenerateSpectrum
from pseudospec.families import generate
from pseudospec.sensitivity import PAIR_TIE_RTOL, _closest_pair


class TestCondStandard:
    def test_hermitian_is_one(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 5))
        A = A + A.T
        sys = eig_pairs(A)
        for i in range(5):
            assert kappas(sys, full(sys.dim))[i] == pytest.approx(1.0, abs=1e-10)

    def test_hand_value_sqrt_two(self):
        # A = [[0,1],[0,1]]: for lambda = 0, x = (1,0), y = (1,-1)/sqrt(2)
        sys = eig_pairs(np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert kappas(sys, full(sys.dim))[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_palindromic_for_real_tridiag_toeplitz(self):
        A, _, _ = generate("tridiag_toeplitz", 5, seed=0)
        sys = eig_pairs(A)
        kappa = kappas(sys, full(5))
        np.testing.assert_allclose(kappa, kappa[::-1], rtol=1e-8)


class TestCondStructured:
    def test_full_equals_standard(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        sys = eig_pairs(A)
        for i in range(4):
            overlap = np.vdot(sys.lefts[:, i], sys.rights[:, i])
            assert kappas(sys, full(4))[i] == pytest.approx(1.0 / abs(overlap))

    def test_wilkinson_already_structured(self):
        # A = [[0,1],[1,0]]: x = y = (1,1)/sqrt(2) for lambda = 1, so
        # y x^H = ones/2 is itself Toeplitz and kappa^T = kappa = 1
        sys = eig_pairs(np.array([[0.0, 1.0], [1.0, 0.0]]))
        S = toeplitz(2, {-1, 0, 1})
        assert kappas(sys, S)[1] == pytest.approx(kappas(sys, full(sys.dim))[1], abs=1e-12)

    def test_never_exceeds_standard(self):
        for family, n, S in [
            ("tridiag_toeplitz", 5, None),
            ("hamiltonian_random", 8, None),
        ]:
            A, pattern, _ = generate(family, n, seed=3)
            sys = eig_pairs(A)
            for i in range(n):
                assert kappas(sys, S or pattern)[i] <= kappas(sys, full(sys.dim))[i] + 1e-12

    def test_extremal_vs_middle_sensitivity(self):
        A, pattern, _ = generate("tridiag_toeplitz", 5, seed=1)
        sys = eig_pairs(A)
        kappa = kappas(sys, full(5))
        kappa_t = kappas(sys, pattern)
        assert int(np.argmax(kappa)) == 2
        assert int(np.argmax(kappa_t)) in (0, 4)

    def test_hamiltonian_closed_form(self):
        # with Im(y^H J x) = 0, ||(y x^H)|_H||_F^2 = (1 + |y^H J x|^2) / 2
        from pseudospec import hamiltonian_phase_normalize, symplectic_j

        A, pattern, _ = generate("hamiltonian_random", 8, seed=5)
        sys = eig_pairs(A)
        normed = hamiltonian_phase_normalize(sys, 4)
        J = symplectic_j(4)
        for i in range(8):
            c = np.vdot(normed.lefts[:, i], J @ normed.rights[:, i])
            predicted = np.sqrt((1 + abs(c) ** 2) / 2) / abs(normed.overlaps[i])
            assert kappas(sys, pattern)[i] == pytest.approx(predicted, abs=1e-12)


def _banded_basis(n, support, antidiagonal):
    """Real-orthonormal basis of the complex Toeplitz / Hankel subspace:
    T and iT for each normalized (anti)diagonal T."""
    for k in sorted(support):
        T = np.eye(n, k=k) / np.sqrt(n - abs(k))
        T = T[:, ::-1] if antidiagonal else T
        yield T
        yield 1j * T


def _hamiltonian_basis(n_half):
    """Real-orthonormal basis of {Q : QJ Hermitian}: Q = -H J over a basis H
    of the Hermitian matrices (J is orthogonal, so norms are kept)."""
    n = 2 * n_half
    J = symplectic_j(n_half)
    for j in range(n):
        for k in range(j, n):
            E = np.zeros((n, n), dtype=complex)
            if j == k:
                E[j, j] = 1.0
                yield -E @ J
                continue
            E[j, k], E[k, j] = 1.0, 1.0
            yield -(E / np.sqrt(2.0)) @ J
            E[j, k], E[k, j] = 1j, -1j
            yield -(E / np.sqrt(2.0)) @ J


def _brute_kappa_s(sys, i, basis):
    """max over unimodular phases of ||(phase * y x^H)|_S||_F / |y^H x|, with
    the projection norm taken as the real inner products with a basis."""
    B = np.stack(list(basis))
    W = np.outer(sys.lefts[:, i], np.conj(sys.rights[:, i]))
    coeffs = np.einsum("bjk,jk->b", B.conj(), W)
    phases = np.exp(1j * np.linspace(0.0, np.pi, 3601))
    norms = np.sqrt(np.sum((phases[:, None] * coeffs[None, :]).real ** 2, axis=1))
    return norms.max() / abs(np.vdot(sys.lefts[:, i], sys.rights[:, i]))


def _kappa_cases():
    rng = np.random.default_rng(21)
    A, pattern, _ = generate("tridiag_toeplitz", 5, seed=3)
    yield pytest.param(A, pattern, _banded_basis(5, pattern.support, False), 0.0, id="toeplitz-real")
    A, pattern, _ = generate("pentadiag_toeplitz", 6, seed=3)
    yield pytest.param(A, pattern, _banded_basis(6, pattern.support, False), 0.0, id="toeplitz-complex")
    for real in (True, False):
        values = rng.standard_normal(3) + (0 if real else 1j) * rng.standard_normal(3)
        A = toeplitz_matrix(6, {-1: values[0], 0: values[1], 2: values[2]})[:, ::-1]
        pattern = hankel(6, {-2, 0, 1}, real=real)
        basis = _banded_basis(6, pattern.support, True)
        yield pytest.param(A, pattern, basis, 0.0, id=f"hankel-{'real' if real else 'complex'}")
    A, pattern, _ = generate("hamiltonian_random", 6, seed=3)
    yield pytest.param(A, pattern, _hamiltonian_basis(3), 1e-5, id="hamiltonian-real")
    M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    pattern = hamiltonian(3)
    yield pytest.param(project(M, pattern), pattern, _hamiltonian_basis(3), 1e-5, id="hamiltonian-complex")


class TestKappasBruteForce:
    @pytest.mark.parametrize("A,S,basis,phase_rtol", _kappa_cases())
    def test_matches_projection_norm(self, A, S, basis, phase_rtol):
        # Toeplitz/Hankel are complex-linear, so the phase grid is flat and the
        # match is to rounding; for Hamiltonian the grid brackets the maximum.
        sys = eig_pairs(A)
        basis = list(basis)
        got = kappas(sys, S)
        for i in range(sys.dim):
            brute = _brute_kappa_s(sys, i, basis)
            assert brute * (1.0 - 1e-12) <= got[i] <= brute * (1.0 + phase_rtol + 1e-12)
        assert np.all(got <= kappas(sys, full(sys.dim)) * (1.0 + 1e-12))


class TestWilkinson:
    def test_diagonal_base(self):
        sys = eig_pairs(np.diag([1.0, 2.0]))
        W = wilkinson(sys, 0, full(2))
        np.testing.assert_allclose(W, [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_base_unit_norm(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        sys = eig_pairs(A)
        for i in range(6):
            W = wilkinson(sys, i, full(6))
            assert np.linalg.norm(W) == pytest.approx(1.0, abs=1e-12)

    def test_hamiltonian_projection_rank_two(self):
        A, pattern, _ = generate("hamiltonian_random", 8, seed=2)
        sys = eig_pairs(A)
        for i in range(8):
            W = wilkinson(sys, i, pattern)
            s = np.linalg.svd(W, compute_uv=False)
            assert s[2] <= 1e-12
            assert np.linalg.norm(W) == pytest.approx(1.0, abs=1e-12)


class TestMaximality:
    def test_unstructured(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        sys = eig_pairs(A)
        i = 2
        kappa = kappas(sys, full(sys.dim))[i]
        x, y, o = sys.rights[:, i], sys.lefts[:, i], sys.overlaps[i]
        for k in range(300):
            E = random_rank_one(5, 10_000 + k)
            assert abs(np.vdot(y, E @ x) / o) <= kappa + 1e-10
        W = wilkinson(sys, i, full(5))
        assert abs(np.vdot(y, W @ x) / o) == pytest.approx(kappa, abs=1e-12)

    @pytest.mark.parametrize("family,n", [("tridiag_toeplitz", 5), ("hamiltonian_random", 8)])
    def test_structured(self, family, n):
        A, pattern, _ = generate(family, n, seed=8)
        sys = eig_pairs(A)
        i = 1
        kappa_s = kappas(sys, pattern)[i]
        x, y, o = sys.rights[:, i], sys.lefts[:, i], sys.overlaps[i]
        for k in range(300):
            E = random_member(pattern, 20_000 + k)
            assert abs(np.vdot(y, E @ x) / o) <= kappa_s + 1e-10
        W = wilkinson(sys, i, pattern)
        assert abs(np.vdot(y, W @ x) / o) == pytest.approx(kappa_s, abs=1e-12)


class TestFirstOrderLaw:
    def test_quadratic_error_decay(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            E = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            E /= np.linalg.norm(E)
            sys = eig_pairs(A)
            i = int(rng.integers(6))
            lam, x, y, o = (
                sys.eigenvalues[i],
                sys.rights[:, i],
                sys.lefts[:, i],
                sys.overlaps[i],
            )
            slope = np.vdot(y, E @ x) / o

            def error(t):
                w = np.linalg.eigvals(A + t * E)
                return abs(w[np.argmin(np.abs(w - lam))] - lam - t * slope)

            assert error(1e-5) / error(5e-6) >= 3.5


class TestDiskRadius:
    # the (structured) Wilkinson disk of eigenvalue i has radius kappas[i] * t
    def test_linear_formula(self):
        sys = eig_pairs(np.diag([0.0, 3.0]))
        assert kappas(sys, full(2))[0] * 0.0 == 0.0
        assert kappas(sys, full(2))[0] * 0.1 == pytest.approx(0.1)

    def test_structured_not_larger(self):
        A, pattern, _ = generate("tridiag_toeplitz", 5, seed=4)
        sys = eig_pairs(A)
        radii_s = kappas(sys, pattern) * 0.2
        radii = kappas(sys, full(5)) * 0.2
        assert np.all(radii_s <= radii + 1e-12)


class TestCoalescenceEstimate:
    def test_normal_half_min_gap(self):
        sys = eig_pairs(np.diag([0.0, 1.0, 10.0]))
        eps, pair = coalescence_estimate(sys, full(3))
        assert eps == pytest.approx(0.5, abs=1e-12)
        assert pair == (0, 1)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        sys = eig_pairs(A)
        eps, pair = coalescence_estimate(sys, full(6))
        kappa = kappas(sys, full(6))
        best = min(
            (
                abs(sys.eigenvalues[i] - sys.eigenvalues[j]) / (kappa[i] + kappa[j]),
                (i, j),
            )
            for i in range(6)
            for j in range(i + 1, 6)
        )
        assert eps == pytest.approx(best[0], rel=1e-14)
        assert pair == best[1]
        # tangency identity
        i, j = pair
        assert abs(sys.eigenvalues[i] - sys.eigenvalues[j]) == pytest.approx(
            (kappa[i] + kappa[j]) * eps, rel=1e-12
        )

    def test_structured_at_least_unstructured(self):
        for seed in range(5):
            A, pattern, _ = generate("tridiag_toeplitz", 5, seed=seed)
            sys = eig_pairs(A)
            eps, _ = coalescence_estimate(sys, full(5))
            eps_s, _ = coalescence_estimate(sys, pattern)
            assert eps_s >= eps

    def test_scaling_preserves_argmin(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        eps1, pair1 = coalescence_estimate(eig_pairs(A), full(5))
        eps2, pair2 = coalescence_estimate(eig_pairs(3.0 * A), full(5))
        assert pair1 == pair2
        assert eps2 == pytest.approx(3.0 * eps1, rel=1e-10)

    def test_degenerate_rejected(self):
        sys = eig_pairs(np.diag([0.0, 1.0]))
        from dataclasses import replace

        lone = replace(
            sys,
            eigenvalues=sys.eigenvalues[:1],
            rights=sys.rights[:, :1],
            lefts=sys.lefts[:, :1],
        )
        with pytest.raises(DegenerateSpectrum):
            coalescence_estimate(lone, full(2))


class TestAnalyze:
    def test_report_consistency(self):
        A, pattern, _ = generate("tridiag_toeplitz", 5, seed=6)
        sys = eig_pairs(A)
        report = analyze(sys, pattern)
        assert np.all(report.kappas >= 1.0 - 1e-12)
        assert np.all(report.kappas_structured <= report.kappas + 1e-12)
        assert report.epsilon_structured >= report.epsilon


def _closest_pair_loop(w, kappa):
    """The double loop _closest_pair replaced, kept as its reference."""
    active = np.flatnonzero(kappa > 0.0)
    best, best_pair = np.inf, None
    for a in range(active.size):
        for b in range(a + 1, active.size):
            i, j = int(active[a]), int(active[b])
            value = abs(w[i] - w[j]) / (kappa[i] + kappa[j])
            if value < best * (1.0 - PAIR_TIE_RTOL):
                best, best_pair = value, (i, j)
    return float(best), best_pair


def _near_tie_spectra():
    rng = np.random.default_rng(3)
    # equally spaced eigenvalues with equal kappas: many exact ties
    yield np.arange(7) * (1 + 1j), np.ones(7)
    yield np.exp(2j * np.pi * np.arange(8) / 8), np.full(8, 2.0)
    # chains of gaps shrinking by fractions of PAIR_TIE_RTOL, in both orders
    for step in (0.3, 0.6, 1.0, 1.7):
        for length in (3, 4, 5, 8):
            gaps = 1.0 - step * PAIR_TIE_RTOL * np.arange(length)
            for g in (gaps, gaps[::-1], rng.permutation(gaps)):
                w = np.concatenate(([0.0], np.cumsum(g * 10.0))).astype(complex)
                yield w, np.ones(length + 1)
    # random spectra, some kappas zero, some gaps tied on purpose
    for _ in range(200):
        n = int(rng.integers(2, 14))
        w = np.round(rng.standard_normal(n) + 1j * rng.standard_normal(n), int(rng.integers(0, 3)))
        kappa = rng.choice([0.0, 1.0, 2.0, rng.uniform(0.5, 3.0)], size=n)
        yield w, kappa


def test_closest_pair_matches_double_loop():
    checked = 0
    for w, kappa in _near_tie_spectra():
        if np.count_nonzero(kappa > 0) < 2:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert _closest_pair(w, kappa) == _closest_pair_loop(w, kappa)
        checked += 1
    assert checked > 150
