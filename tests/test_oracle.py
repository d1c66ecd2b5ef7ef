from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudospec import (
    SweepConfig,
    oracle,
    abscissa_grid,
    cloud_inclusion_check,
    eig_pairs,
    full,
    grid_field,
    sweep_wilkinson,
)
from pseudospec.errors import EmptyLevelSet, OutOfBounds
from pseudospec.families import FAMILIES, generate
from pseudospec.numkernel import sigma_min_batch
from pseudospec.oracle import default_window
from references import all_ones_abscissa


class TestGridField:
    def test_normal_field_is_spectral_distance(self):
        A = np.diag([0.0, 10.0])
        field = grid_field(A, (-1.0, 1.0, -1.0, 1.0), (40, 40))
        zs = field.re_centers[:, None] + 1j * field.im_centers[None, :]
        np.testing.assert_allclose(field.values, np.abs(zs), atol=1e-12)

    def test_spot_check_against_direct_svd(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        field = grid_field(A, (-2.0, 2.0, -2.0, 2.0), (10, 8))
        for i, j in [(0, 0), (3, 5), (9, 7), (4, 2)]:
            z = field.re_centers[i] + 1j * field.im_centers[j]
            s = np.linalg.svd(A - z * np.eye(4), compute_uv=False)[-1]
            assert field.values[i, j] == pytest.approx(s, abs=1e-12)

    def test_cell_geometry(self):
        field = grid_field(np.eye(2), (0.0, 1.0, -2.0, 0.0), (4, 8))
        np.testing.assert_allclose(field.re_centers, [0.125, 0.375, 0.625, 0.875])
        assert field.cell_width == pytest.approx(0.25)

    def test_degenerate_window_rejected(self):
        with pytest.raises(OutOfBounds):
            grid_field(np.eye(2), (1.0, 1.0, 0.0, 1.0))
        with pytest.raises(OutOfBounds):
            grid_field(np.eye(2), (0.0, 1.0, 0.0, 1.0), (1, 5))

    @pytest.mark.parametrize("bounds,resolution", [
        ((-5e305, 5e305, -1.0, 1.0), (200, 200)),
        ((-0.8e308, 0.8e308, -1.0, 1.0), (4, 4)),
        ((-1.0, 1.0, -0.8e308, 0.8e308), (4, 4)),
    ])
    def test_window_near_the_float_maximum_stays_finite(self, bounds, resolution):
        field = grid_field(np.diag([1.0, -1.0]), bounds, resolution)
        assert np.all(np.isfinite(field.re_centers)) and np.all(np.isfinite(field.im_centers))
        assert np.all(np.isfinite(field.values)) and np.all(field.values > 0)

    def test_default_window_contains_spectrum(self):
        A, _, _ = generate("tridiag_toeplitz", 5, seed=0)
        sys = eig_pairs(A)
        re_min, re_max, im_min, im_max = default_window(sys, 0.05)
        w = sys.eigenvalues
        assert re_min < w.real.min() and re_max > w.real.max()
        assert im_min < w.imag.min() and im_max > w.imag.max()


class TestCellCenters:
    """oracle._centers: mirror-exact on a symmetric window, and within a few
    ulps of the textbook lo + (hi - lo) / count * (j + 0.5)."""

    @settings(max_examples=300, deadline=None)
    @given(hi=st.floats(1e-300, 8.98e307), count=st.integers(2, 1000))
    def test_symmetric_window_mirrors_exactly(self, hi, count):
        centers = oracle._centers(-hi, hi, count)
        assert np.all(np.isfinite(centers))
        assert np.array_equal(centers[::-1], -centers)

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(-1.7e308, 1.7e308), b=st.floats(-1.7e308, 1.7e308),
           count=st.integers(2, 1000))
    def test_increasing_inside_and_near_the_textbook_rule(self, a, b, count):
        lo, hi = min(a, b), max(a, b)
        ulp = np.spacing(max(abs(lo), abs(hi)))
        assume(hi - lo < np.inf)  # a window _window accepts
        assume(hi - lo > 8 * count * ulp)  # cells wider than the rounding
        centers = oracle._centers(lo, hi, count)
        assert np.all(np.diff(centers) > 0) and lo < centers[0] and centers[-1] < hi
        textbook = lo + (hi - lo) / count * (np.arange(count) + 0.5)
        assert np.all(np.abs(centers - textbook) <= 4 * ulp)


class TestHalfGrid:
    """For real A and a window symmetric about the real axis, grid_field
    evaluates the lower half of the rows and mirrors them."""

    @staticmethod
    def _recorded(monkeypatch, A, bounds, resolution):
        seen = []

        def recording(A, zs):
            seen.append(len(zs))
            return sigma_min_batch(A, zs)

        monkeypatch.setattr(oracle, "sigma_min_batch", recording)
        return grid_field(A, bounds, resolution), seen

    @staticmethod
    def _signed_zero_imag(A):
        A = A.astype(complex)
        A.imag = -0.0
        return A

    @pytest.mark.parametrize("n_im", [7, 8])
    @pytest.mark.parametrize("signed_zero", [False, True], ids=["real", "imag-minus-zero"])
    def test_real_matrix_symmetric_window_evaluates_half(self, monkeypatch, n_im, signed_zero):
        A, _, _ = generate("hamiltonian_random", 8, seed=0)
        A = self._signed_zero_imag(A) if signed_zero else A
        field, seen = self._recorded(monkeypatch, A, (-2.0, 2.0, -1.5, 1.5), (5, n_im))
        assert seen == [5 * -(-n_im // 2)]
        assert field.values.shape == (5, n_im)
        assert np.array_equal(field.values[:, ::-1], field.values)

    @pytest.mark.parametrize("case", ["complex", "asymmetric", "imag-minus-zero-asymmetric"])
    @pytest.mark.parametrize("n_im", [7, 8])
    def test_every_point_evaluated_otherwise(self, monkeypatch, case, n_im):
        A, _, _ = generate("hamiltonian_random", 8, seed=0)
        bounds = (-2.0, 2.0, -1.5, 1.5)
        if case == "complex":
            A = A + 1e-3j * np.eye(8)
        elif case == "asymmetric":
            bounds = (-2.0, 2.0, -1.5, 1.25)
        else:
            A, bounds = self._signed_zero_imag(A), (-2.0, 2.0, -1.25, 1.5)
        _, seen = self._recorded(monkeypatch, A, bounds, (5, n_im))
        assert seen == [5 * n_im]

    @pytest.mark.parametrize("family,n", [
        ("hamiltonian_random", 8), ("pentadiag_toeplitz", 5), ("tridiag_toeplitz", 6)
    ])
    @pytest.mark.parametrize("bounds", [(-3.0, 3.0, -2.0, 2.0), (-3.0, 3.0, -2.0, 1.5)])
    @pytest.mark.parametrize("resolution", [(6, 9), (5, 10)])
    def test_every_cell_is_the_svd_at_its_center(self, family, n, bounds, resolution):
        A, _, _ = generate(family, n, seed=4)
        field = grid_field(A, bounds, resolution)
        u = np.finfo(float).eps / 2
        for i, re in enumerate(field.re_centers):
            for j, im in enumerate(field.im_centers):
                s = np.linalg.svd(A - (re + 1j * im) * np.eye(n), compute_uv=False)
                assert abs(field.values[i, j] - s[-1]) <= n * u * s[0]


class TestCloudInclusion:
    def test_sweep_cloud_passes(self):
        A, pattern, _ = generate("tridiag_toeplitz", 5, seed=2)
        sys = eig_pairs(A)
        cloud = sweep_wilkinson(A, sys, SweepConfig(pattern=pattern, angles=50))
        report = cloud_inclusion_check(cloud, A, slack=1e-8)
        assert report.all_passed
        assert report.total == len(cloud)
        assert report.worst_value <= cloud.epsilon * (1 + 1e-8)

    def test_fault_injection_detected(self):
        from dataclasses import replace

        A = np.diag([0.0, 3.0])
        sys = eig_pairs(A)
        cfg = SweepConfig(pattern=full(2), epsilon=0.1, angles=8, pair_override=(0, 1))
        cloud = sweep_wilkinson(A, sys, cfg)
        bad_points = cloud.points.copy()
        bad_points[0] = 1.5  # sigma_min there is 1.5 >> eps
        bad = replace(cloud, points=bad_points)
        report = cloud_inclusion_check(bad, A, slack=1e-8)
        assert not report.all_passed
        assert report.total - report.passed == 1
        assert report.worst_point == pytest.approx(1.5)
        assert report.worst_value == pytest.approx(1.5, abs=1e-12)

    def test_negative_slack_rejected(self):
        A = np.diag([0.0, 3.0])
        sys = eig_pairs(A)
        cfg = SweepConfig(pattern=full(2), epsilon=0.1, angles=2, pair_override=(0, 1))
        cloud = sweep_wilkinson(A, sys, cfg)
        with pytest.raises(ValueError):
            cloud_inclusion_check(cloud, A, slack=-0.1)


class TestAbscissaGrid:
    def test_normal_hand_value(self):
        # for diag(-1, 1) the eps-pseudospectrum is two disks; the abscissa
        # is 1 + eps, recovered to within half a cell
        A = np.diag([-1.0, 1.0])
        eps = 0.25
        field = grid_field(A, (-2.0, 2.0, -1.0, 1.0), (400, 100))
        value, unc = abscissa_grid(field, eps)
        assert abs(value - (1.0 + eps)) <= unc + 1e-12
        assert unc == pytest.approx(0.5 * field.cell_width)

    def test_nesting_in_epsilon(self):
        rng = np.random.default_rng(33)
        A = rng.standard_normal((4, 4))
        sys = eig_pairs(A)
        field = grid_field(A, default_window(sys, 0.5), (150, 150))
        vals = [abscissa_grid(field, e)[0] for e in (0.05, 0.1, 0.2, 0.4)]
        assert vals == sorted(vals)

    def test_consistent_with_eigenvalue_lower_bound(self):
        A, pattern, _ = generate("tridiag_toeplitz", 4, seed=1)
        sys = eig_pairs(A)
        eps = 0.1
        lb = all_ones_abscissa(A, eps, full(4))
        field = grid_field(A, default_window(sys, eps), (300, 300))
        value, unc = abscissa_grid(field, eps)
        assert lb <= value + unc + 1e-12

    def test_empty_level_set(self):
        field = grid_field(np.diag([0.0, 1.0]), (5.0, 6.0, 5.0, 6.0), (10, 10))
        with pytest.raises(EmptyLevelSet):
            abscissa_grid(field, 0.01)


@pytest.mark.parametrize("bounds", [
    (0.0, 1.0, 0.0, np.inf), (-np.inf, 1.0, 0.0, 1.0), (0.0, np.nan, 0.0, 1.0),
    (-1.7e308, 1.7e308, -1.0, 1.0), (0.0, 1.0, -1e308, 1e308),
])
def test_non_finite_window_rejected(monkeypatch, bounds):
    # Finite bounds whose span overflows too, before any SVD.
    monkeypatch.setattr(oracle, "sigma_min_batch", None)
    with pytest.raises(OutOfBounds, match="finite"):
        grid_field(np.eye(2), bounds, (4, 4))


@pytest.mark.parametrize("slack", [np.nan, np.inf])
def test_non_finite_slack_rejected(slack):
    A = np.diag([0.0, 3.0])
    cfg = SweepConfig(pattern=full(2), epsilon=0.1, angles=2, pair_override=(0, 1))
    cloud = sweep_wilkinson(A, eig_pairs(A), cfg)
    with pytest.raises(ValueError, match="slack"):
        cloud_inclusion_check(cloud, A, slack=slack)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -0.1])
def test_non_finite_or_negative_cloud_epsilon_rejected(epsilon):
    A = np.diag([0.0, 3.0])
    cfg = SweepConfig(pattern=full(2), epsilon=0.1, angles=2, pair_override=(0, 1))
    cloud = replace(sweep_wilkinson(A, eig_pairs(A), cfg), epsilon=epsilon)
    with pytest.raises(ValueError, match="cloud epsilon"):
        cloud_inclusion_check(cloud, A, slack=0.0)


def _certify_cases():
    """Clouds that pass, fail in part, or sit on the eigenvalues, at scales
    1 and 1e+-150 and at a tiny epsilon."""
    for family, n in zip(FAMILIES, (5, 8, 10)):
        A, pattern, _ = generate(family, n, seed=2)
        sys = eig_pairs(A)
        cloud = sweep_wilkinson(A, sys, SweepConfig(pattern=pattern, angles=30))
        rng = np.random.default_rng(n)
        far = sys.eigenvalues.mean() + 4 * cloud.epsilon * (
            rng.standard_normal(40) + 1j * rng.standard_normal(40)
        )
        for scale in (1.0, 1e150, 1e-150):
            for name, points in (
                ("sweep", cloud.points),
                ("mixed", np.concatenate([cloud.points, far])),
                ("eigenvalues", sys.eigenvalues),
            ):
                for epsilon in (cloud.epsilon, 1e-10):
                    for slack in (1e-8, 0.0):
                        yield pytest.param(
                            A * scale,
                            replace(cloud, points=points * scale, epsilon=epsilon * scale),
                            slack,
                            id=f"{family}-{name}-{scale:.0e}-{epsilon:.1e}-{slack}",
                        )


class TestCertifiedInclusion:
    """The Schur-form certificate changes no verdict and no worst value."""

    @pytest.mark.parametrize("A,cloud,slack", _certify_cases())
    def test_reports_equal_the_all_svd_path(self, monkeypatch, A, cloud, slack):
        certified = cloud_inclusion_check(cloud, A, slack)
        # bounds of +inf certify nothing: every point goes to sigma_min_batch
        monkeypatch.setattr(oracle, "_sigma_min_bounds", lambda A, zs: np.full(len(zs), np.inf))
        assert cloud_inclusion_check(cloud, A, slack) == certified
        values = sigma_min_batch(A, cloud.points)
        limit = cloud.epsilon * (1 + slack)
        assert certified.passed == np.count_nonzero(values <= limit)
        assert certified.worst_value == values.max()
        assert certified.worst_point == cloud.points[np.argmax(values)]

    def test_sweep_cloud_needs_few_svds(self, monkeypatch):
        A, pattern, _ = generate("pentadiag_toeplitz", 10, seed=2)
        cloud = sweep_wilkinson(A, eig_pairs(A), SweepConfig(pattern=pattern, angles=50))
        evaluated = []

        def recording(A, zs):
            evaluated.append(len(zs))
            return sigma_min_batch(A, zs)

        monkeypatch.setattr(oracle, "sigma_min_batch", recording)
        report = cloud_inclusion_check(cloud, A, slack=1e-8)
        assert report.all_passed and report.total == 1000
        assert 1 <= sum(evaluated) <= 50

    def test_ties_report_the_first_worst_point(self):
        # sigma_min is 0.5 at every point, so each one ties the maximum
        A = np.diag([0.0, 10.0])
        points = 0.5 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False))
        cfg = SweepConfig(pattern=full(2), epsilon=0.5, angles=6, pair_override=(0, 1))
        cloud = replace(sweep_wilkinson(A, eig_pairs(A), cfg), points=points)
        values = sigma_min_batch(A, points)
        report = cloud_inclusion_check(cloud, A, slack=1e-8)
        assert report.worst_value == values.max()
        assert report.worst_point == points[np.argmax(values)]

    def test_empty_cloud(self):
        A = np.diag([0.0, 3.0])
        cfg = SweepConfig(pattern=full(2), epsilon=0.1, angles=2, pair_override=(0, 1))
        cloud = replace(sweep_wilkinson(A, eig_pairs(A), cfg), points=np.zeros(0, dtype=complex))
        report = cloud_inclusion_check(cloud, A, slack=0.0)
        assert (report.total, report.passed) == (0, 0)
        assert report.worst_point is None and report.all_passed
