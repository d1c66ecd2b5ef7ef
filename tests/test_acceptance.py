"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package and prints a single
pass/fail line naming it.  Tolerances are part of the contract and are not to
be loosened.
"""

import numpy as np
import pytest

from pseudospec import (
    SweepConfig,
    abscissa_grid,
    cloud_inclusion_check,
    coalescence_estimate,
    coalescence_gap,
    eig_pairs,
    full,
    grid_field,
    hamiltonian,
    hankel,
    kappas,
    project,
    random_member,
    random_rank_one,
    sweep_wilkinson,
    toeplitz,
    wilkinson,
)
from pseudospec.cli import main as cli_main
from pseudospec.families import generate
from pseudospec.oracle import default_window
from references import all_ones_abscissa


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


ACCEPTANCE_PATTERNS = [
    toeplitz(8, {-2, -1, 0, 1}),
    hankel(7, {-1, 0, 1, 2}),
    hamiltonian(6),
    hamiltonian(6, real=True),
]


def test_projection_correctness():
    """Idempotent, contracting, residual-orthogonal, distance-optimal."""
    ok = True
    worst = 0.0
    for S in ACCEPTANCE_PATTERNS:
        members = np.stack([random_member(S, 500_000 + k) for k in range(100)])
        rng = np.random.default_rng(abs(hash(S.kind)) % 2**32)
        for trial in range(100):
            M = rng.standard_normal((S.dim, S.dim))
            if not S.real:
                M = M + 1j * rng.standard_normal((S.dim, S.dim))
            norm_m = np.linalg.norm(M)
            P = project(M, S)
            idem = np.linalg.norm(project(P, S) - P) / max(norm_m, 1e-300)
            worst = max(worst, idem)
            ok &= idem <= 1e-14
            ok &= np.linalg.norm(P) <= norm_m + 1e-12
            resid = M - P
            inners = np.abs(np.real(np.einsum("kij,ij->k", members.conj(), resid)))
            scales = norm_m * np.linalg.norm(members, axis=(1, 2))
            ok &= bool(np.all(inners <= 1e-10 * scales))
            dists = np.linalg.norm(members - M[None, :, :], axis=(1, 2))
            ok &= bool(np.all(np.linalg.norm(resid) <= dists + 1e-12))
    _report("projection correctness", bool(ok), f"worst idempotence residual {worst:.2e}")


def test_first_order_perturbation_law():
    """Linearization error is O(t^2): halving t shrinks it by >= 3.5."""
    rng = np.random.default_rng(42)
    ratios = []
    for trial in range(20):
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        E = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        E /= np.linalg.norm(E)
        sys = eig_pairs(A)
        i = trial % 6
        lam = sys.eigenvalues[i]
        slope = np.vdot(sys.lefts[:, i], E @ sys.rights[:, i]) / sys.overlaps[i]

        def err(t):
            w = np.linalg.eigvals(A + t * E)
            return abs(w[np.argmin(np.abs(w - lam))] - lam - t * slope)

        ratios.append(err(1e-5) / err(5e-6))
    ok = all(r >= 3.5 for r in ratios)
    _report("first-order perturbation law", ok, f"min error ratio {min(ratios):.2f}")


def test_wilkinson_maximality():
    """No random (structured) unit perturbation beats the Wilkinson one."""
    cases = [("tridiag_toeplitz", 5), ("hamiltonian_random", 8)]
    rank_one = {
        n: np.stack([random_rank_one(n, 600_000 + k) for k in range(1000)])
        for _, n in cases
    }
    structured = {}
    ok = True
    for family, n in cases:
        for seed in range(5):
            A, pattern, _ = generate(family, n, seed=seed)
            sys = eig_pairs(A)
            if pattern.kind not in structured:
                structured[pattern.kind] = np.stack(
                    [random_member(pattern, 700_000 + k) for k in range(1000)]
                )
            for batch, kappa_of in (
                (rank_one[n], lambda i: kappas(sys, full(sys.dim))[i]),
                (structured[pattern.kind], lambda i: kappas(sys, pattern)[i]),
            ):
                for i in range(n):
                    kappa = kappa_of(i)
                    x, y, o = sys.rights[:, i], sys.lefts[:, i], sys.overlaps[i]
                    vals = np.abs(np.einsum("j,kjl,l->k", y.conj(), batch, x)) / abs(o)
                    ok &= bool(np.all(vals <= kappa * (1.0 + 1e-10)))
            for i in range(n):
                for S, kappa in (
                    (full(n), kappas(sys, full(sys.dim))[i]),
                    (pattern, kappas(sys, pattern)[i]),
                ):
                    W = wilkinson(sys, i, S)
                    attained = abs(
                        np.vdot(sys.lefts[:, i], W @ sys.rights[:, i])
                    ) / abs(sys.overlaps[i])
                    ok &= abs(attained - kappa) <= 1e-12 * max(kappa, 1.0)
    _report("Wilkinson maximality", bool(ok))


def test_tridiagonal_toeplitz_sensitivity_ordering():
    """Palindromic kappa; structured sensitivity peaks at the extremes."""
    ok = True
    ordering_hits = 0
    ratios = []
    for seed in range(20):
        A, pattern, _ = generate("tridiag_toeplitz", 5, seed=seed)
        sys = eig_pairs(A)
        kappa = kappas(sys, full(5))
        kappa_t = kappas(sys, pattern)
        ok &= bool(np.allclose(kappa, kappa[::-1], rtol=1e-8))
        if int(np.argmax(kappa)) in (1, 2, 3) and int(np.argmax(kappa_t)) in (0, 4):
            ordering_hits += 1
        eps, _ = coalescence_estimate(sys, full(5))
        eps_t, _ = coalescence_estimate(sys, pattern)
        ok &= eps_t >= eps
        ratios.append(eps_t / eps)
    ok &= ordering_hits >= 18
    median_ratio = float(np.median(ratios))
    ok &= median_ratio >= 10.0
    _report(
        "tridiagonal Toeplitz sensitivity ordering",
        bool(ok),
        f"ordering {ordering_hits}/20, median ratio {median_ratio:.1f}",
    )


def test_sweep_inclusion_and_coalescence():
    """Default sweep stays inside the pseudospectrum and the two most
    sensitive sub-clouds meet at the coalescence estimate."""
    A, pattern, _ = generate("tridiag_toeplitz", 5, seed=2)
    sys = eig_pairs(A)
    cloud = sweep_wilkinson(A, sys, SweepConfig(pattern=full(5)))
    assert len(cloud) == 2 * 1000 * 5
    report = cloud_inclusion_check(cloud, A, slack=1e-8)
    gap = coalescence_gap(cloud, sys, cloud.meta["pair"])
    ok = report.all_passed and gap < 0.1 * cloud.epsilon
    _report(
        "sweep inclusion and coalescence",
        ok,
        f"inclusion {report.passed}/{report.total}, gap/eps {gap / cloud.epsilon:.3f}",
    )


def test_hamiltonian_symmetry():
    """Plus/minus paired spectra, mirror-symmetric sweep clouds, and rank-2
    projected Wilkinson perturbations."""
    ok = True
    for seed in range(3):
        A, pattern, _ = generate("hamiltonian_random", 8, seed=seed)
        sys = eig_pairs(A)
        w = sys.eigenvalues
        mirrored = -np.conj(w)
        pair_err = np.abs(mirrored[:, None] - w[None, :]).min(axis=1).max()
        ok &= pair_err <= 1e-8
        for i in range(8):
            s = np.linalg.svd(wilkinson(sys, i, pattern), compute_uv=False)
            ok &= s[2] <= 1e-8
        cloud = sweep_wilkinson(A, sys, SweepConfig(pattern=pattern, angles=400))
        z = cloud.points
        sym_err = 0.0
        for start in range(0, len(z), 4000):
            chunk = -np.conj(z[start : start + 4000])
            sym_err = max(
                sym_err, float(np.abs(chunk[:, None] - z[None, :]).min(axis=1).max())
            )
        ok &= sym_err <= 1e-8
    _report("Hamiltonian symmetry", bool(ok))


def test_normal_matrix_ground_truth():
    """For diagonal A everything is exact: disks, half-gap estimate, circles."""
    diag = np.array([0.0 + 0.0j, 1.5 + 1.0j, -2.0 - 0.5j, 3.0])
    A = np.diag(diag)
    sys = eig_pairs(A)
    eps = 0.4
    field = grid_field(A, default_window(sys, eps), (150, 150))
    zs = field.re_centers[:, None] + 1j * field.im_centers[None, :]
    dist = np.abs(zs[:, :, None] - diag[None, None, :]).min(axis=2)
    level_mismatch = (field.values <= eps) != (dist <= eps)
    cell_diag = np.hypot(
        (field.bounds[1] - field.bounds[0]) / 150,
        (field.bounds[3] - field.bounds[2]) / 150,
    )
    ok = bool(np.all(np.abs(dist[level_mismatch] - eps) <= cell_diag))

    est, pair = coalescence_estimate(sys, full(4))
    gaps = np.abs(diag[:, None] - diag[None, :])
    np.fill_diagonal(gaps, np.inf)
    ok &= abs(est - 0.5 * gaps.min()) <= 1e-14

    cloud = sweep_wilkinson(
        A, sys, SweepConfig(pattern=full(4), epsilon=eps, angles=128)
    )
    for i in cloud.meta["pair"]:
        d = np.abs(cloud.points - sys.eigenvalues[i])
        # points on the swept circle: exclude stationary copies of the other
        # eigenvalues, which sit much farther than eps from lambda_i
        moved = cloud.points[(cloud.source_eigen == i) & (d > eps / 2) & (d < 2 * eps)]
        ok &= moved.size == 128
        ok &= bool(np.all(np.abs(np.abs(moved - sys.eigenvalues[i]) - eps) <= 1e-8))
    _report("normal-matrix ground truth", bool(ok))


def test_abscissa_bounds():
    """All-ones lower bound never beats the grid abscissa; closed-form case."""
    ok = True
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = rng.standard_normal((4, 4))
        sys = eig_pairs(A)
        for eps in (1e-2, 1e-1):
            field = grid_field(A, default_window(sys, eps), (200, 200))
            value, _ = abscissa_grid(field, eps)
            lb = all_ones_abscissa(A, eps, full(4))
            ok &= lb <= value + field.cell_width

    A = np.diag([1.0, -1.0])
    sys = eig_pairs(A)
    worst = 0.0
    for eps in (1e-2, 1e-1, 0.5):
        expected = eps / 2.0 + np.sqrt(1.0 + eps**2 / 4.0)
        got = all_ones_abscissa(A, eps, full(2))
        worst = max(worst, abs(got - expected))
    ok &= worst <= 1e-10
    _report("abscissa lower bounds", bool(ok), f"closed-form deviation {worst:.1e}")


def test_cli_determinism(tmp_path):
    """Identical flags and seeds give byte-identical files."""

    def run_all(tag):
        d = tmp_path / tag
        d.mkdir()
        m = d / "m.json"
        cloud = d / "cloud.csv"
        svg = d / "plot.svg"
        traj = d / "traj.csv"
        grid = d / "grid.csv"
        assert cli_main(["generate", "--family", "tridiag_toeplitz", "--n", "5",
                         "--seed", "2", "--out", str(m)]) == 0
        assert cli_main(["approx", str(m), "--angles", "32", "--baseline", "2",
                         "--seed", "9", "--out", str(cloud), "--svg", str(svg)]) == 0
        assert cli_main(["trajectory", str(m), "--eps-max", "0.1", "--steps", "8",
                         "--out", str(traj)]) == 0
        assert cli_main(["oracle", str(m), "--res", "25x25",
                         "--out", str(grid)]) == 0
        return [p.read_bytes() for p in (m, cloud, d / "cloud.csv.baseline.csv",
                                         svg, traj, grid)]

    ok = run_all("first") == run_all("second")
    _report("CLI determinism", ok)
