import itertools
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from pseudospec import (
    PointCloud,
    SweepConfig,
    coalescence_gap,
    eig_pairs,
    first_order_trajectories,
    full,
    kappas,
    normalized_projection,
    random_cloud,
    random_member,
    random_rank_one,
    sweep_wilkinson,
    toeplitz,
)
from pseudospec import approx, numkernel
from pseudospec.approx import _component_match, resolve_pair_and_epsilon
from pseudospec.errors import (
    BadParams,
    DefectiveInput,
    DegenerateSpectrum,
    DimensionMismatch,
    NonConvergence,
)
from pseudospec.families import FAMILIES, generate
from pseudospec.sensitivity import wilkinson
from references import all_ones_abscissa, coverage_distances, symplectic_j


class TestSweepWilkinson:
    def test_normal_single_angle_hand_value(self):
        # diag(0, 3): W for lambda = 0 is e1 e1^H, so theta = 0 moves 0 to eps
        A = np.diag([0.0, 3.0])
        sys = eig_pairs(A)
        cfg = SweepConfig(pattern=full(2), epsilon=0.1, angles=1, pair_override=(0, 1))
        cloud = sweep_wilkinson(A, sys, cfg)
        assert len(cloud) == 4
        first = cloud.points[cloud.source_eigen == 0]
        np.testing.assert_allclose(sorted(first.real), [0.1, 3.0], atol=1e-13)

    def test_point_count_and_tags(self):
        A, pattern, _ = generate("tridiag_toeplitz", 5, seed=2)
        sys = eig_pairs(A)
        cfg = SweepConfig(pattern=pattern, angles=40)
        cloud = sweep_wilkinson(A, sys, cfg)
        assert len(cloud) == 2 * 40 * 5
        assert set(np.unique(cloud.source_eigen)) == set(cloud.meta["pair"])
        assert cloud.angle_index.min() == 0 and cloud.angle_index.max() == 39
        assert np.all(cloud.sample_index == 0)
        assert cloud.epsilon > 0

    def test_deterministic(self):
        A, pattern, _ = generate("tridiag_toeplitz", 5, seed=2)
        sys = eig_pairs(A)
        cfg = SweepConfig(pattern=pattern, angles=25)
        c1 = sweep_wilkinson(A, sys, cfg)
        c2 = sweep_wilkinson(A, sys, cfg)
        np.testing.assert_array_equal(c1.points, c2.points)

    def test_normal_circle(self):
        # for a normal matrix each swept eigenvalue traces the circle of
        # radius eps around its source
        A = np.diag([0.0, 5.0, -2.0])
        sys = eig_pairs(A)
        cfg = SweepConfig(pattern=full(3), epsilon=0.5, angles=64, pair_override=(0, 1))
        cloud = sweep_wilkinson(A, sys, cfg)
        near0 = cloud.points[np.abs(cloud.points) < 1.0]
        # 64 points on the circle from sweeping lambda_0, plus 64 stationary
        # copies of lambda_0 from the sweeps of lambda_1
        assert near0.size == 128
        moved = near0[np.abs(near0) > 1e-10]
        assert moved.size == 64
        np.testing.assert_allclose(np.abs(moved), 0.5, atol=1e-12)

    def test_invalid_pair_rejected(self):
        for pair in [(1, 1), (0, 2), (-1, 0)]:
            with pytest.raises(BadParams):
                SweepConfig(pattern=full(2), epsilon=0.1, pair_override=pair)

    @staticmethod
    def _failing_estimate(monkeypatch):
        calls = []

        def estimate(sys, S):
            calls.append(S)
            raise DefectiveInput("estimate called")

        monkeypatch.setattr(approx, "coalescence_estimate", estimate)
        return calls

    @pytest.mark.parametrize("pair,eps", [((2, 0), 0.1), (None, 0.1), ((2, 0), None), (None, None)])
    def test_estimate_runs_only_for_what_the_config_leaves_open(self, monkeypatch, pair, eps):
        calls = self._failing_estimate(monkeypatch)
        sys = eig_pairs(np.diag([0.0, 3.0, 5.0]))
        cfg = SweepConfig(pattern=full(3), epsilon=eps, pair_override=pair)
        if pair is not None and eps is not None:
            assert resolve_pair_and_epsilon(sys, cfg) == ((2, 0), 0.1)
            assert calls == []
        else:
            with pytest.raises(DefectiveInput):
                resolve_pair_and_epsilon(sys, cfg)
            assert calls == [cfg.pattern]

    @pytest.mark.parametrize("eps", [0.1, None])
    def test_invalid_pair_rejected_before_the_estimate(self, monkeypatch, eps):
        calls = self._failing_estimate(monkeypatch)
        for pair in [(1, 1), (0, 3), (-1, 0), (0, 1, 2)]:
            with pytest.raises(BadParams, match="invalid eigenvalue pair"):
                SweepConfig(pattern=full(3), epsilon=eps, pair_override=pair)
        assert calls == []

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(pattern=full(2), angles=0)
        with pytest.raises(ValueError):
            SweepConfig(pattern=full(2), epsilon=-1.0)


class TestRandomCloud:
    def test_count_seed_and_determinism(self):
        A, pattern, _ = generate("tridiag_toeplitz", 4, seed=0)
        cfg = SweepConfig(pattern=pattern, epsilon=0.05, angles=7)
        c1 = random_cloud(A, cfg, samples=3, seed=11)
        c2 = random_cloud(A, cfg, samples=3, seed=11)
        assert len(c1) == 4 * 7 * 3
        np.testing.assert_array_equal(c1.points, c2.points)
        assert np.all(c1.source_eigen == -1)
        assert set(np.unique(c1.sample_index)) == {0, 1, 2}
        c3 = random_cloud(A, cfg, samples=3, seed=12)
        assert not np.array_equal(c1.points, c3.points)

    def test_requires_epsilon(self):
        A, pattern, _ = generate("tridiag_toeplitz", 4, seed=0)
        with pytest.raises(ValueError):
            random_cloud(A, SweepConfig(pattern=pattern), samples=1, seed=0)

    def test_perturbation_size_respected(self):
        # every point sits within eps * kappa_max of some eigenvalue
        # (first-order bound with generous slack for a tiny eps)
        A, pattern, _ = generate("tridiag_toeplitz", 4, seed=1)
        sys = eig_pairs(A)
        eps = 1e-6
        cfg = SweepConfig(pattern=pattern, epsilon=eps, angles=5)
        cloud = random_cloud(A, cfg, samples=4, seed=3)
        kmax = 1.0 / np.abs(sys.overlaps).min()
        d = np.abs(cloud.points[:, None] - sys.eigenvalues[None, :]).min(axis=1)
        assert d.max() <= 2.0 * eps * kmax

    @pytest.mark.parametrize("dim,samples,seed,error", [
        (3, 1, 0, DimensionMismatch), (4, 0, 0, BadParams), (4, 1, -1, BadParams),
    ], ids=["pattern-of-another-size", "no-samples", "negative-seed"])
    def test_rejected_before_any_eigensolve(self, monkeypatch, dim, samples, seed, error):
        def unreachable(*args):
            raise AssertionError("eigensolve run")

        monkeypatch.setattr(approx, "_perturbed_spectra", unreachable)
        A, _, _ = generate("tridiag_toeplitz", 4, seed=0)
        cfg = SweepConfig(pattern=full(dim), epsilon=0.1, angles=2)
        with pytest.raises(error, match=r"\(4, 4\).* 3$" if dim == 3 else None):
            random_cloud(A, cfg, samples, seed)


class TestTrajectories:
    def test_zero_epsilon_is_spectrum(self):
        A, pattern, _ = generate("tridiag_toeplitz", 4, seed=5)
        sys = eig_pairs(A)
        E = np.ones((4, 4)) / 4.0
        traj = first_order_trajectories(sys, E, [0.0], full(4))
        np.testing.assert_allclose(
            np.sort_complex(traj.points), np.sort_complex(sys.eigenvalues), atol=1e-14
        )

    def test_normal_matrix_exact_lines(self):
        # for diagonal A and diagonal E the trajectories are exact
        A = np.diag([0.0, 2.0, 5.0])
        sys = eig_pairs(A)
        E = np.diag([1.0, -1.0, 0.5])
        grid = np.linspace(0.0, 0.3, 7)
        traj = first_order_trajectories(sys, E, grid, full(3))
        for i, slope in enumerate([1.0, -1.0, 0.5]):
            line = traj.points[traj.source_eigen == i]
            np.testing.assert_allclose(line, sys.eigenvalues[i] + grid * slope, atol=1e-13)

    def test_structured_variant_tagged(self):
        A, pattern, _ = generate("tridiag_toeplitz", 4, seed=5)
        sys = eig_pairs(A)
        E = np.ones((4, 4)) / 4.0
        traj = first_order_trajectories(sys, E, np.linspace(0, 0.1, 5), pattern)
        assert set(np.unique(traj.angle_index)) == {0, 1}
        assert len(traj) == 2 * 4 * 5

    # E of the matrix's size, then of the pattern's; the message names both sizes.
    @pytest.mark.parametrize("e_dim", [4, 3])
    def test_pattern_of_another_size_rejected(self, e_dim):
        A, _, _ = generate("tridiag_toeplitz", 4, seed=5)
        E = np.ones((e_dim, e_dim)) / e_dim
        with pytest.raises(DimensionMismatch, match=r"\(4, 4\).* 3$"):
            first_order_trajectories(eig_pairs(A), E, [0.0, 0.1], full(3))

    @pytest.mark.parametrize("grid", [[], [0.0, -0.1], [0.0, np.nan], [0.0, np.inf]])
    def test_bad_eps_grid_rejected(self, grid):
        sys = eig_pairs(np.diag([0.0, 2.0]))
        with pytest.raises(ValueError):
            first_order_trajectories(sys, np.ones((2, 2)) / 2, grid, full(2))

    def test_overflowing_grid_rejected_without_warning(self):
        # A finite grid whose points overflow: slope 4 sends 1.7e308 past the range.
        sys = eig_pairs(np.diag([0.0, 2.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^eps grid up to 1.7"):
                first_order_trajectories(sys, 4 * np.eye(2), [0.0, 1.7e308], full(2))

    def test_matches_true_eigenvalue_motion(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        E = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        E /= np.linalg.norm(E)
        sys = eig_pairs(A)
        t = 1e-6
        traj = first_order_trajectories(sys, E, [t], full(5))
        true = np.linalg.eigvals(A + t * E)
        for p in traj.points:
            assert np.min(np.abs(true - p)) <= 1e-10


class TestLowerBounds:
    def test_two_by_two_hand_value(self):
        # A = [[0,1],[1,0]] plus eps * ones/2: spectrum {1 + eps/2 shifted};
        # eigenvalues of [[eps/2, 1+eps/2],[1+eps/2, eps/2]] are
        # eps/2 +- (1 + eps/2) i.e. max = 1 + eps
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        sys = eig_pairs(A)
        for eps in (0.1, 0.01):
            got = all_ones_abscissa(A, eps, full(2))
            assert got == pytest.approx(1.0 + eps, abs=1e-12)

    def test_at_least_unperturbed(self):
        A, pattern, _ = generate("pentadiag_toeplitz", 6, seed=3)
        sys = eig_pairs(A)
        alpha0 = float(sys.eigenvalues.real.max())
        for S in (full(6), pattern):
            assert all_ones_abscissa(A, 1e-8, S) >= alpha0 - 1e-6

    def test_continuity_in_epsilon(self):
        A, pattern, _ = generate("tridiag_toeplitz", 5, seed=7)
        sys = eig_pairs(A)
        vals = [all_ones_abscissa(A, e, pattern) for e in (1e-6, 1e-3, 1e-2)]
        assert abs(vals[1] - vals[0]) < 0.1
        assert abs(vals[2] - vals[1]) < 0.2


def _fro(M):
    return scipy.linalg.norm(np.ravel(M))


def _sort(w, scale):
    """w by Re in units of 1e-10 * scale, then Im, then Re."""
    return w[np.lexsort((w.real, w.imag, np.round(w.real / (1e-10 * scale))))]


def _sorted_spectrum(B, scale):
    return _sort(np.linalg.eigvals(B), scale)


def _circle(eps, K):
    """eps * e^{i theta_k} for k <= K / 2, and conj(c_{K-k}) above: the
    conjugate-symmetric unit circle, one point at a time."""
    thetas = 2.0 * np.pi * np.arange(K) / K
    points = [eps * np.exp(1j * theta) for theta in thetas]
    return np.array([points[k] if 2 * k <= K else np.conj(points[K - k]) for k in range(K)])


def _loop_sweep(A, sys, cfg):
    """Reference sweep: one eigensolve per (eigenvalue, angle), in order."""
    A = np.asarray(A, dtype=complex)
    pair, eps = resolve_pair_and_epsilon(sys, cfg)
    n, K = sys.dim, cfg.angles
    circle = _circle(eps, K)
    points, src, ang = [], [], []
    directions = [wilkinson(sys, i, cfg.pattern) for i in pair]
    scale = _fro(A) + np.abs(circle).max() * max(map(_fro, directions))
    for i, W in zip(pair, directions):
        for k, c in enumerate(circle):
            points.append(_sorted_spectrum(A + c * W, scale))
            src.append(np.full(n, i))
            ang.append(np.full(n, k))
    return np.concatenate(points), np.concatenate(src), np.concatenate(ang)


def _random_directions(pattern, samples, seed):
    """The baseline's directions, drawn as random_cloud draws them."""
    rng = np.random.default_rng(seed)
    if pattern.kind == "full":
        return [random_rank_one(pattern.dim, rng) for _ in range(samples)]
    return [random_member(pattern, rng) for _ in range(samples)]


def _loop_random(A, cfg, samples, seed):
    """Reference baseline: one eigensolve per (sample, angle), in order."""
    A = np.asarray(A, dtype=complex)
    n, K = A.shape[0], cfg.angles
    circle = _circle(cfg.epsilon, K)
    directions = _random_directions(cfg.pattern, samples, seed)
    scale = _fro(A) + np.abs(circle).max() * max(map(_fro, directions))
    points, ang, smp = [], [], []
    for s, E in enumerate(directions):
        for k, c in enumerate(circle):
            points.append(_sorted_spectrum(A + c * E, scale))
            ang.append(np.full(n, k))
            smp.append(np.full(n, s))
    return np.concatenate(points), np.concatenate(ang), np.concatenate(smp)


def _family_cases():
    # e^{0.3i} A: complex, and fixed by no symmetry (neither real nor
    # Hamiltonian), so every row is solved and the loops are bitwise references.
    for family, n in zip(FAMILIES, (5, 6, 6)):
        A, pattern, _ = generate(family, n, seed=4)
        for S in (full(n), replace(pattern, real=False)):
            yield pytest.param(np.exp(0.3j) * A, S, id=f"{family}-{S.kind}")


class TestBatchedEngine:
    """The stacked eigensolve reproduces the per-angle loops bit for bit."""

    def _check(self, A, S):
        sys = eig_pairs(A)
        sweep = sweep_wilkinson(A, sys, SweepConfig(pattern=S, angles=23))
        points, src, ang = _loop_sweep(A, sys, SweepConfig(pattern=S, angles=23))
        assert np.array_equal(sweep.points, points)
        assert np.array_equal(sweep.source_eigen, src)
        assert np.array_equal(sweep.angle_index, ang)
        assert np.array_equal(sweep.sample_index, np.zeros_like(ang))

        cfg = SweepConfig(pattern=S, epsilon=sweep.epsilon, angles=17)
        base = random_cloud(A, cfg, samples=3, seed=11)
        points, ang, smp = _loop_random(A, cfg, 3, 11)
        assert np.array_equal(base.points, points)
        assert np.array_equal(base.source_eigen, np.full_like(ang, -1))
        assert np.array_equal(base.angle_index, ang)
        assert np.array_equal(base.sample_index, smp)

    @pytest.mark.parametrize("A,S", _family_cases())
    def test_matches_per_angle_loop(self, A, S):
        self._check(A, S)

    def test_matches_across_chunks(self, monkeypatch):
        A, pattern, _ = generate("pentadiag_toeplitz", 6, seed=4)
        # 7 matrices per stacked call: chunk edges fall inside each direction
        monkeypatch.setattr(numkernel, "STACK_ENTRIES", 7 * 6 * 6)
        self._check(A, pattern)

    @pytest.mark.parametrize("A,S", _family_cases())
    def test_matches_with_any_worker_count(self, engine_workers, monkeypatch, A, S):
        n = A.shape[0]
        # 7 matrices per slice: slice edges fall inside each direction
        monkeypatch.setattr(numkernel, "STACK_ENTRIES", 7 * n * n)
        self._check(A, S)

    def test_product_table_matches_per_row_eigvals(self, engine_workers, monkeypatch):
        # Row t * K + k is A + c_k * D[t]: directions that repeat, in
        # slices of 2 matrices, each row against its own eigensolve.
        rng = np.random.default_rng(8)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        D = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
        D = D[[2, 0, 2, 1, 0, 0, 2]]
        monkeypatch.setattr(numkernel, "STACK_ENTRIES", 2 * 25)
        points = approx._perturbed_spectra(A, D, 1e-3, 5)
        circle = _circle(1e-3, 5)
        scale = _fro(A) + np.abs(circle).max() * max(map(_fro, D))
        expected = [_sorted_spectrum(A + c * M, scale) for M in D for c in circle]
        assert np.array_equal(points, np.concatenate(expected))

    def test_slices_stay_within_budget(self, engine_workers, monkeypatch):
        A, pattern, _ = generate("hamiltonian_random", 6, seed=4)
        sys = eig_pairs(A)
        monkeypatch.setattr(numkernel, "STACK_ENTRIES", 5 * 36)
        sizes = []
        eigvals = np.linalg.eigvals

        def recording_eigvals(stack):
            sizes.append(stack.shape[0])
            return eigvals(stack)

        monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
        # Real Hamiltonian A, and only the rows at angles k = 0..6 of 13 are
        # solved; the pair is a conjugate pair, so the second direction is
        # the conjugate of the first and its row at k = 0 is a mirror too.
        sweep = sweep_wilkinson(A, sys, SweepConfig(pattern=pattern, angles=13))
        assert sum(sizes) == 7 + 6 and max(sizes) <= 5
        sizes.clear()
        random_cloud(A, SweepConfig(pattern=pattern, epsilon=sweep.epsilon, angles=13), 3, 0)
        assert sum(sizes) == 3 * 7 and max(sizes) <= 5

    def test_linalg_error_in_one_slice_is_nonconvergence(self, engine_workers, monkeypatch):
        A, pattern, _ = generate("pentadiag_toeplitz", 6, seed=4)
        sys = eig_pairs(A)
        monkeypatch.setattr(numkernel, "STACK_ENTRIES", 4 * 36)
        calls = itertools.count()
        eigvals = np.linalg.eigvals

        def failing_eigvals(stack):
            if next(calls) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(stack)

        monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
        with pytest.raises(NonConvergence, match="did not converge"):
            sweep_wilkinson(A, sys, SweepConfig(pattern=pattern, angles=20))

    @pytest.mark.parametrize("n,seed", [(4, 7), (12, 2)])
    def test_spectra_keep_their_rows_when_epsilon_moves_by_an_ulp(self, n, seed):
        # Real A and real Hamiltonian directions: the rows at theta = 0 are
        # real matrices, whose conjugate pairs tie in Re.  Sorted by exact
        # (Re, Im), a pair swapped rows whenever rounding moved.
        A, pattern, _ = generate("hamiltonian_random", n, seed=seed)
        sys = eig_pairs(A)
        eps = resolve_pair_and_epsilon(sys, SweepConfig(pattern=pattern))[1]
        u = np.finfo(float).eps / 2
        tol = 10 * kappas(sys, full(n)).max() * n * u * np.linalg.norm(A)
        for make in (
            lambda e: sweep_wilkinson(A, sys, SweepConfig(pattern=pattern, epsilon=e, angles=8)),
            lambda e: random_cloud(A, SweepConfig(pattern=pattern, epsilon=e, angles=8), 5, 0),
        ):
            near, far = (make(e).points for e in (eps, np.nextafter(eps, np.inf)))
            assert np.abs(near - far).max() <= tol

    def test_trajectories_match_per_eigenvalue_loop(self):
        A, pattern, _ = generate("hamiltonian_random", 6, seed=4)
        sys = eig_pairs(A)
        E = np.ones((6, 6), dtype=complex) / 6
        grid = np.linspace(0.0, 0.1, 9)
        cloud = first_order_trajectories(sys, E, grid, pattern)
        expected = []
        for D in (E, normalized_projection(E, pattern)):
            for i in range(6):
                slope = np.vdot(sys.lefts[:, i], D @ sys.rights[:, i]) / sys.overlaps[i]
                expected.append(sys.eigenvalues[i] + grid * slope)
        assert np.array_equal(cloud.points, np.concatenate(expected))


def _mirror_cases():
    """The three families, on the full and the structured pattern, with real
    and complex A: the real part of the family matrix (real Toeplitz, real
    Hamiltonian) and that plus 0.25i I (still Hamiltonian, no longer real)."""
    for family, n in zip(FAMILIES, (5, 6, 6)):
        A, pattern, _ = generate(family, n, seed=4)
        for kind, M in (("real", A.real), ("complex", A.real + 0.25j * np.eye(n))):
            for S in (full(n), replace(pattern, real=kind == "real")):
                yield pytest.param(M.astype(complex), S, id=f"{family}-{kind}-{S.kind}")


def _image(M, s):
    """psi(M) with an explicit J: conj(M) for s = 1, J M^H J for s = -1."""
    if s > 0:
        return M.conj()
    J = symplectic_j(M.shape[0] // 2)
    return J @ M.conj().T @ J


class TestRowMirror:
    """Real and Hamiltonian input solve each mirror pair of rows once: a
    row whose matrix is an exact image psi(M_q) of a solved row's takes
    that row's spectrum mapped by z -> s * conj(z)."""

    @staticmethod
    def _tables(A, sys, S, K):
        """Both clouds with the engine's products: (cloud, directions, circle)."""
        sweep = sweep_wilkinson(A, sys, SweepConfig(pattern=S, angles=K))
        base = random_cloud(A, SweepConfig(pattern=S, epsilon=sweep.epsilon, angles=K), 3, 5)
        circle = _circle(sweep.epsilon, K)
        yield sweep, np.array([wilkinson(sys, i, S) for i in sweep.meta["pair"]]), circle
        yield base, np.array(_random_directions(S, 3, 5)), circle

    @pytest.mark.parametrize("K", [8, 9])
    @pytest.mark.parametrize("A,S", _mirror_cases())
    def test_every_row_is_the_spectrum_of_its_own_matrix(self, engine_workers, monkeypatch, A, S, K):
        from scipy.optimize import linear_sum_assignment

        n = A.shape[0]
        monkeypatch.setattr(numkernel, "STACK_ENTRIES", 4 * n * n)
        sys = eig_pairs(A)
        solved, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda stack: solved.append(len(stack)) or eigvals(stack))
        clouds = list(self._tables(A, sys, S, K))
        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        u = np.finfo(float).eps / 2
        for cloud, D, circle in clouds:
            rows = cloud.points.reshape(-1, n)
            scale = _fro(A) + np.abs(circle).max() * max(map(_fro, D))
            source, signs = approx._mirrors(A, D, circle)
            for p, (t, k) in enumerate(np.ndindex(len(D), K)):
                M = circle[k] * D[t] + A  # the engine's rounding: c * D first, then + A
                # A backward-stable eigensolve returns the exact spectrum of
                # M + E with ||E||_2 <= p(n) u ||M||_F, so each computed
                # eigenvalue lies within kappa p(n) u ||M||_F of an exact
                # one, to first order (kappa = 1 / |y^H x| for unit x, y).
                # A mirrored row is a solved row's spectrum mapped by an
                # isometry that maps M_q exactly to M_p, with the same
                # error.  Two such errors, and p(n) = 10 n, give the bound.
                w, vl, vr = scipy.linalg.eig(M, left=True, right=True)
                kappa = 1.0 / np.abs(np.einsum("ij,ij->j", vl.conj(), vr)).min()
                tol = 2 * 10 * n * u * _fro(M) * kappa
                dist = np.abs(rows[p][:, None] - w[None, :])
                assert dist[linear_sum_assignment(dist)].max() <= tol
                q = source[p]
                if q != p:
                    assert source[q] == q and q < p
                    assert np.array_equal(_image(M, signs[p]), circle[q % K] * D[q // K] + A)
                    image = rows[q].conj() if signs[p] > 0 else -rows[q].conj()
                    assert np.array_equal(rows[p], _sort(image, scale))
        assert sum(solved) == sum(np.count_nonzero(approx._mirrors(A, D, c)[0] == np.arange(len(D) * K))
                                  for _, D, c in clouds)

    def test_half_turn_rows_of_a_conjugate_pair_are_solved(self):
        # Real A whose swept pair is a conjugate pair: psi = conj maps
        # direction 0 exactly onto direction 1.  At even K the point
        # c_{K/2} = eps * e^{i pi} has an imaginary part of about 1.2e-16
        # eps, so it is not its own conjugate: row (1, K/2) is no exact
        # image of row (0, K/2), and both are solved.
        A, _, _ = generate("pentadiag_toeplitz", 6, seed=4)
        A = A.real.astype(complex)
        sys, K = eig_pairs(A), 8
        sweep = sweep_wilkinson(A, sys, SweepConfig(pattern=full(6), angles=K))
        D = np.array([wilkinson(sys, i, full(6)) for i in sweep.meta["pair"]])
        assert np.array_equal(D[1], D[0].conj())
        circle = _circle(sweep.epsilon, K)
        assert circle[K // 2] != circle[K // 2].conj()
        source, signs = approx._mirrors(A, D, circle)
        assert source[K // 2] == K // 2 and source[K + K // 2] == K + K // 2
        others = [k for k in range(K) if k != K // 2]
        assert np.array_equal(source[[K + k for k in others]], [-k % K for k in others])
        assert np.array_equal(signs[[K + k for k in others]], np.ones(K - 1))
        n = A.shape[0]
        scale = _fro(A) + np.abs(circle).max() * max(map(_fro, D))
        for t in range(2):
            row = sweep.points.reshape(-1, n)[t * K + K // 2]
            assert np.array_equal(row, _sorted_spectrum(A + circle[K // 2] * D[t], scale))

    @pytest.mark.parametrize("family,solved", [
        ("hamiltonian_random", 312), ("tridiag_toeplitz", 312), ("pentadiag_toeplitz", 600)
    ])
    def test_solved_row_counts(self, monkeypatch, family, solved):
        # K = 50 angles and 10 samples: 2 * 50 + 10 * 50 = 600 rows.  Real
        # or real Hamiltonian A with directions fixed by a symmetry solve
        # the angles k = 0..25 of each direction, 12 * 26 = 312 rows; the
        # complex pentadiagonal input has no symmetry and solves all 600.
        A, pattern, _ = generate(family, 8, seed=0)
        sys = eig_pairs(A)
        sizes, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda stack: sizes.append(len(stack)) or eigvals(stack))
        sweep = sweep_wilkinson(A, sys, SweepConfig(pattern=pattern, angles=50))
        random_cloud(A, SweepConfig(pattern=pattern, epsilon=sweep.epsilon, angles=50), 10, 0)
        assert sum(sizes) == solved


class TestSubcloudAndGap:
    def test_normal_subclouds_are_circles(self):
        A = np.diag([0.0, 3.0])
        sys = eig_pairs(A)
        cfg = SweepConfig(pattern=full(2), epsilon=0.2, angles=32, pair_override=(0, 1))
        cloud = sweep_wilkinson(A, sys, cfg)
        sub0 = _component_match(cloud, sys)[:, 0]
        assert sub0.size == 64
        # half the blocks perturb lambda_0 (circle), half leave it fixed
        on_circle = np.isclose(np.abs(sub0), 0.2, atol=1e-12)
        fixed = np.isclose(np.abs(sub0), 0.0, atol=1e-12)
        assert np.all(on_circle | fixed)
        assert on_circle.sum() == 32

    def test_gap_scales_with_separation(self):
        A = np.diag([0.0, 3.0])
        sys = eig_pairs(A)
        cfg = SweepConfig(pattern=full(2), epsilon=0.2, angles=32, pair_override=(0, 1))
        cloud = sweep_wilkinson(A, sys, cfg)
        # circles of radius 0.2 around 0 and 3, plus stationary copies:
        # closest approach is 3 - 2 * 0.2 between circle points but the
        # stationary copies sit exactly on the sources, so min = 3 - 0.4
        # only if every block moved; stationary copies give 3 - 0.2
        gap = coalescence_gap(cloud, sys, (0, 1))
        assert gap == pytest.approx(3.0 - 0.4, abs=1e-10)

    def test_tangent_circles_coalesce(self):
        A = np.diag([0.0, 1.0])
        sys = eig_pairs(A)
        # kappa = 1 for both, so the coalescence estimate is 0.5 and the
        # swept circles touch at 0.5
        cfg = SweepConfig(pattern=full(2), angles=256, pair_override=(0, 1))
        cloud = sweep_wilkinson(A, sys, cfg)
        assert cloud.epsilon == pytest.approx(0.5, abs=1e-12)
        gap = coalescence_gap(cloud, sys, (0, 1))
        assert gap < 0.1 * cloud.epsilon

    def test_size_mismatch_rejected(self):
        A = np.diag([0.0, 3.0])
        sys = eig_pairs(A)
        cfg = SweepConfig(pattern=full(2), epsilon=0.2, angles=4, pair_override=(0, 1))
        cloud = sweep_wilkinson(A, sys, cfg)
        from dataclasses import replace

        bad = replace(cloud, points=cloud.points[:-1])
        with pytest.raises(DegenerateSpectrum):
            _component_match(bad, sys)

    @pytest.mark.parametrize("family,n", [("pentadiag_toeplitz", 6), ("hamiltonian_random", 8)])
    def test_component_match_rows_permute_blocks(self, family, n):
        A, pattern, _ = generate(family, n, seed=1)
        sys = eig_pairs(A)
        cloud = sweep_wilkinson(A, sys, SweepConfig(pattern=pattern, angles=30))
        matched = _component_match(cloud, sys)
        blocks = cloud.points.reshape(-1, n)
        assert matched.shape == blocks.shape
        assert np.array_equal(np.sort(matched, axis=1), np.sort(blocks, axis=1))
        # reference: one Hungarian match per block and per eigenvalue
        from scipy.optimize import linear_sum_assignment

        for i in cloud.meta["pair"]:
            expected = []
            for block in blocks:
                cost = np.abs(block[:, None] - sys.eigenvalues[None, :])
                rows, cols = linear_sum_assignment(cost)
                expected.append(block[rows[cols == i][0]])
            assert np.array_equal(matched[:, i], np.array(expected))


    @pytest.mark.parametrize(
        "family,n", [("tridiag_toeplitz", 5), ("pentadiag_toeplitz", 6), ("hamiltonian_random", 8)]
    )
    def test_gap_equals_the_full_distance_matrix(self, family, n):
        # 400-point sub-clouds: the distance matrix spans several blocks.
        A, pattern, _ = generate(family, n, seed=1)
        sys = eig_pairs(A)
        cloud = sweep_wilkinson(A, sys, SweepConfig(pattern=pattern, angles=200))
        pair = cloud.meta["pair"]
        a, b = _component_match(cloud, sys)[:, list(pair)].T
        assert a.size * b.size > numkernel.STACK_ENTRIES
        assert coalescence_gap(cloud, sys, pair) == float(np.min(np.abs(a[:, None] - b[None, :])))

    def test_gap_memory_is_bounded(self):
        # 2000-point sub-clouds, whose full distance matrix alone takes 64 MiB.
        A, _, _ = generate("tridiag_toeplitz", 5, seed=2)
        sys = eig_pairs(A)
        cloud = sweep_wilkinson(A, sys, SweepConfig(pattern=full(5)))
        pair = cloud.meta["pair"]
        expected = coalescence_gap(cloud, sys, pair)  # also loads scipy.optimize
        tracemalloc.start()
        try:
            assert coalescence_gap(cloud, sys, pair) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestCoverage:
    def test_nearest_distances_hand_values(self):
        xs = np.array([0.0, 1.0 + 0.0j])
        ys = np.array([0.0 + 0.0j])
        assert approx._nearest_distances(xs, ys) == pytest.approx([0.0, 1.0])
        assert approx._nearest_distances(ys, xs) == pytest.approx([0.0])

    @pytest.mark.parametrize("sizes", [(0, 5), (1, 1), (300, 250), (5000, 7)])
    def test_nearest_distances_equal_the_full_distance_matrix(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        xs, ys = (rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in sizes)
        full_matrix = np.abs(xs[:, None] - ys[None, :])
        assert np.array_equal(approx._nearest_distances(xs, ys), full_matrix.min(axis=1))

    def test_sweep_covers_tangency_better_than_random(self):
        A, pattern, _ = generate("tridiag_toeplitz", 5, seed=2)
        sys = eig_pairs(A)
        cfg = SweepConfig(pattern=full(5), angles=200)
        sweep = sweep_wilkinson(A, sys, cfg)
        rand = random_cloud(
            A,
            SweepConfig(pattern=full(5), epsilon=sweep.epsilon, angles=40),
            samples=20,
            seed=0,
        )
        pair = sweep.meta["pair"]
        s2r, r2s = coverage_distances(sweep.points, rand.points, sys, pair, radius_factor=0.5)
        assert s2r > r2s


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, 0.0])
def test_non_finite_or_zero_epsilon_rejected(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        SweepConfig(pattern=full(2), epsilon=epsilon)
