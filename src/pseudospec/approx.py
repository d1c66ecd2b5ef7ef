"""Sweep engines, random-perturbation baselines, first-order trajectories,
and pseudospectral abscissa/radius lower bounds.

The Wilkinson sweep perturbs A by e^{i theta_k} * eps * W for the two most
sensitive eigenvalues' (projected) Wilkinson directions W and a uniform angle
grid theta_k = 2 pi (k-1) / K, and collects the full spectra.  The random
baseline does the same with seeded unit-norm rank-one (or structured random)
perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkernel
from .errors import BadParams, DegenerateSpectrum
from .numkernel import Eigensystem
from .sensitivity import _check_overlaps, coalescence_estimate, kappas, wilkinson
from .structures import (
    FULL,
    StructurePattern,
    full,
    normalized_projection,
    random_member,
    random_rank_one,
)

WILKINSON_SWEEP = "wilkinson_sweep"
RANDOM_BASELINE = "random_baseline"
TRAJECTORY = "trajectory"

DEFAULT_ANGLES = 1000


@dataclass(frozen=True)
class SweepConfig:
    """Configuration shared by the sweep and baseline engines.

    ``epsilon`` of None means "use the coalescence estimate for the pattern";
    ``pair_override`` bypasses the most-sensitive-pair selection.
    """

    pattern: StructurePattern
    epsilon: float | None = None
    angles: int = DEFAULT_ANGLES
    pair_override: tuple | None = None

    def __post_init__(self):
        if self.angles < 1:
            raise ValueError("angle count must be at least 1")
        if self.epsilon is not None and not 0.0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and positive")
        pair = self.pair_override
        if pair is not None and not (len(pair) == 2 and 0 <= min(pair) < max(pair) < self.pattern.dim):
            raise BadParams(f"invalid eigenvalue pair {pair}")


@dataclass(frozen=True)
class PointCloud:
    """Tagged complex points: eigenvalues of perturbed matrices.

    Provenance arrays run parallel to ``points``: the source eigenvalue index
    (or -1 where not applicable), the angle index k, and the sample index.
    """

    points: np.ndarray
    source_eigen: np.ndarray
    angle_index: np.ndarray
    sample_index: np.ndarray
    epsilon: float
    pattern: StructurePattern
    kind: str
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.points.shape[0]


def resolve_pair_and_epsilon(sys: Eigensystem, cfg: SweepConfig):
    """The configured pair and epsilon, with the coalescence estimate run
    only to fill in what the config leaves open."""
    pair, eps = cfg.pair_override, cfg.epsilon
    if pair is None or eps is None:
        eps_est, pair_est = coalescence_estimate(sys, cfg.pattern)
        pair, eps = pair or pair_est, eps or eps_est  # a valid override is truthy
    return tuple(int(i) for i in pair), float(eps)


def _perturbed_spectra(A: np.ndarray, directions, scales: np.ndarray):
    """Spectra of A + c * D for every direction D and every scale c.

    Stacked eigensolves over the flattened (direction x scale) axis, in
    slices run by ``numkernel._stacked``; each spectrum is sorted by
    (Re, Im).  Returns the points and, parallel to them, the direction
    index and the scale index of each point.
    """
    A = np.asarray(A, dtype=complex)
    D = np.asarray(directions, dtype=complex)
    n = A.shape[0]
    m, K = D.shape[0], scales.shape[0]
    d_idx = np.repeat(np.arange(m), K)
    k_idx = np.tile(np.arange(K), m)
    spectra = np.empty((m * K, n), dtype=complex)

    def work(rows):
        # One buffer per slice: gather, scale in place, add A.  The scale
        # stays the first factor, so each product rounds exactly as c * D.
        stack = D[d_idx[rows]]
        np.multiply(scales[k_idx[rows], None, None], stack, out=stack)
        stack += A
        spectra[rows] = np.linalg.eigvals(stack)

    numkernel._stacked(work, m * K, n)
    order = np.lexsort((spectra.imag, spectra.real))
    points = np.take_along_axis(spectra, order, axis=1).ravel()
    return points, np.repeat(d_idx, n), np.repeat(k_idx, n)


def _unit_circle(eps: float, K: int) -> np.ndarray:
    """eps * e^{i theta_k} on the uniform grid theta_k = 2 pi k / K."""
    return eps * np.exp(1j * (2.0 * np.pi * np.arange(K) / K))


def sweep_wilkinson(A: np.ndarray, sys: Eigensystem, cfg: SweepConfig) -> PointCloud:
    """Angle sweep of (projected) Wilkinson perturbations.

    For each selected eigenvalue and each angle theta_k the full spectrum of
    A + e^{i theta_k} * eps * W is recorded, giving 2 * K * n points.
    """
    pair, eps = resolve_pair_and_epsilon(sys, cfg)
    directions = [wilkinson(sys, i, cfg.pattern) for i in pair]
    points, d_idx, k_idx = _perturbed_spectra(A, directions, _unit_circle(eps, cfg.angles))
    return PointCloud(
        points=points,
        source_eigen=np.asarray(pair)[d_idx],
        angle_index=k_idx,
        sample_index=np.zeros_like(k_idx),
        epsilon=eps,
        pattern=cfg.pattern,
        kind=WILKINSON_SWEEP,
        meta={"pair": pair, "angles": cfg.angles},
    )


def random_cloud(
    A: np.ndarray, cfg: SweepConfig, samples: int, seed: int
) -> PointCloud:
    """Baseline cloud from seeded random unit-norm perturbations.

    Rank-one random matrices for the full pattern, projected random members
    for structured patterns; n * K * samples points.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if cfg.epsilon is None:
        raise ValueError("random_cloud requires an explicit epsilon")
    n = len(A)
    rng = np.random.default_rng(seed)
    if cfg.pattern.kind == FULL:
        directions = [random_rank_one(n, rng) for _ in range(samples)]
    else:
        directions = [random_member(cfg.pattern, rng) for _ in range(samples)]
    points, d_idx, k_idx = _perturbed_spectra(
        A, directions, _unit_circle(cfg.epsilon, cfg.angles)
    )
    return PointCloud(
        points=points,
        source_eigen=np.full_like(d_idx, -1),
        angle_index=k_idx,
        sample_index=d_idx,
        epsilon=cfg.epsilon,
        pattern=cfg.pattern,
        kind=RANDOM_BASELINE,
        seed=seed,
        meta={"samples": samples, "angles": cfg.angles},
    )


def first_order_trajectories(
    sys: Eigensystem,
    E: np.ndarray,
    eps_grid,
    S: StructurePattern,
) -> PointCloud:
    """Straight-line first-order pseudo-eigenvalue trajectories.

    For every eigenvalue, lambda_i(eps) ~ lambda_i + eps * (y^H E x)/(y^H x)
    along the given eps grid; for structured patterns the projected direction
    E|_S^ is traced as well.  angle_index tags the variant: 0 for E itself,
    1 for the projection.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.size == 0 or not np.all(np.isfinite(eps_grid) & (eps_grid >= 0)):
        raise ValueError("eps grid must be non-empty, finite and non-negative")
    E = np.asarray(E, dtype=complex)
    directions = [E]
    if S.kind != FULL:
        directions.append(normalized_projection(E, S))
    _check_overlaps(sys, range(sys.dim))

    n, m, V = sys.dim, eps_grid.size, len(directions)
    slopes = np.array([
        [np.vdot(sys.lefts[:, i], D @ sys.rights[:, i]) for i in range(n)]
        for D in directions
    ]) / sys.overlaps
    points = sys.eigenvalues[None, :, None] + eps_grid[None, None, :] * slopes[:, :, None]
    return PointCloud(
        points=points.ravel(),
        source_eigen=np.tile(np.repeat(np.arange(n), m), V),
        angle_index=np.repeat(np.arange(V), n * m),
        sample_index=np.tile(np.arange(m), V * n),
        epsilon=float(eps_grid.max()),
        pattern=S,
        kind=TRAJECTORY,
        meta={"steps": int(m)},
    )


def _all_ones_spectrum(A: np.ndarray, epsilon: float, S: StructurePattern) -> np.ndarray:
    """Spectrum of A + eps * E for E the normalized projection of the
    all-ones matrix onto S."""
    if not 0.0 < epsilon < np.inf:
        raise ValueError("epsilon must be finite and positive")
    E = normalized_projection(np.ones(np.shape(A)), S)
    return _perturbed_spectra(A, [E], np.array([float(epsilon)]))[0]


def abscissa_lower_bound(A: np.ndarray, epsilon: float, S: StructurePattern) -> float:
    """max Re of the spectrum of A + eps * E for the all-ones direction E of
    :func:`_all_ones_spectrum`; a lower bound for the (structured)
    eps-pseudospectral abscissa."""
    return float(np.max(_all_ones_spectrum(A, epsilon, S).real))


def radius_lower_bound(A: np.ndarray, epsilon: float, S: StructurePattern) -> float:
    """As :func:`abscissa_lower_bound` with max |lambda| in place of max Re."""
    return float(np.max(np.abs(_all_ones_spectrum(A, epsilon, S))))


def _component_match(cloud: PointCloud, sys: Eigensystem) -> np.ndarray:
    """Sweep blocks matched to the unperturbed eigenvalues, one match per block.

    Each swept spectrum (one block of n points) is matched one-to-one to the
    eigenvalues by minimal total distance; row b, column i holds the point of
    block b assigned to lambda_i.
    """
    # Lazy: no CLI command calls this, and scipy.optimize costs ~20 MiB and ~0.3 s.
    from scipy.optimize import linear_sum_assignment

    n = sys.dim
    if len(cloud) % n != 0:
        raise DegenerateSpectrum("cloud size is not a multiple of the dimension")
    blocks = cloud.points.reshape(-1, n)
    matched = np.empty_like(blocks)
    for b, block in enumerate(blocks):
        rows, cols = linear_sum_assignment(np.abs(block[:, None] - sys.eigenvalues[None, :]))
        matched[b, cols] = block[rows]
    return matched


def subcloud(cloud: PointCloud, sys: Eigensystem, i: int) -> np.ndarray:
    """Points of a sweep cloud matched to the component of eigenvalue i:
    over every block of the cloud, the point assigned to lambda_i."""
    return _component_match(cloud, sys)[:, i]


def coalescence_gap(cloud: PointCloud, sys: Eigensystem, pair: tuple) -> float:
    """Minimum distance between the two per-eigenvalue sub-clouds.

    Values small against the sweep's epsilon indicate that the two
    pseudospectrum components have (nearly) coalesced.
    """
    matched = _component_match(cloud, sys)
    a, b = matched[:, pair[0]], matched[:, pair[1]]
    if a.size == 0 or b.size == 0:
        raise DegenerateSpectrum("empty sub-cloud; pair does not match sweep")
    return float(_nearest_distances(a, b).min())


def coverage_comparison(
    sweep: PointCloud,
    baseline: PointCloud,
    sys: Eigensystem,
    pair: tuple,
    radius_factor: float = 0.3,
):
    """Directed coverage distances near the first-order tangency point.

    Both clouds are restricted to a disk of radius
    ``radius_factor * |lambda_i - lambda_j|`` around the point where the two
    Wilkinson disks touch; returns ``(sweep_to_baseline, baseline_to_sweep)``.
    A baseline that under-covers the coalescence region shows
    ``sweep_to_baseline > baseline_to_sweep``.
    """
    li = sys.eigenvalues[pair[0]]
    lj = sys.eigenvalues[pair[1]]
    ki, kj = kappas(sys, full(sys.dim))[list(pair)]
    pinch = li + (lj - li) * (ki / (ki + kj))
    radius = radius_factor * abs(li - lj)
    near_sweep = sweep.points[np.abs(sweep.points - pinch) < radius]
    near_base = baseline.points[np.abs(baseline.points - pinch) < radius]
    if near_sweep.size == 0 or near_base.size == 0:
        raise DegenerateSpectrum("no cloud points near the tangency point")
    return (
        directed_coverage_distance(near_sweep, near_base),
        directed_coverage_distance(near_base, near_sweep),
    )


def directed_coverage_distance(xs: np.ndarray, ys: np.ndarray) -> float:
    """max over points of xs of the distance to the nearest point of ys."""
    return float(_nearest_distances(xs, ys).max(initial=0.0))


def _nearest_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Distance from each point of xs to its nearest in ys, in blocks of ``STACK_ENTRIES``."""
    xs = np.asarray(xs).ravel()
    ys = np.asarray(ys).ravel()
    out = np.empty(xs.size)
    chunk = max(1, numkernel.STACK_ENTRIES // max(ys.size, 1))
    for start in range(0, xs.size, chunk):
        rows = slice(start, start + chunk)
        out[rows] = np.abs(xs[rows, None] - ys[None, :]).min(axis=1)
    return out
