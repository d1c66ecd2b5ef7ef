"""Sweep engines, random-perturbation baselines, first-order trajectories
and the coalescence gap of a sweep.

The Wilkinson sweep perturbs A by e^{i theta_k} * eps * W for the two most
sensitive eigenvalues' (projected) Wilkinson directions W and a uniform angle
grid theta_k = 2 pi (k-1) / K, and collects the full spectra.  The random
baseline does the same with seeded unit-norm rank-one (or structured random)
perturbations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
import scipy.linalg

from . import numkernel
from .errors import BadParams, DegenerateSpectrum
from .numkernel import Eigensystem
from .sensitivity import _check_overlaps, coalescence_estimate, wilkinson
from .structures import (
    FULL,
    StructurePattern,
    _check_dim,
    normalized_projection,
    random_member,
    random_rank_one,
    symmetries,
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
        if pair is not None and not _valid_pair(pair, self.pattern.dim):
            raise BadParams(f"invalid eigenvalue pair {pair}")


def _valid_pair(pair: tuple, dim: int) -> bool:
    return len(pair) == 2 and 0 <= min(pair) < max(pair) < dim


def _provenance(column: int) -> property:
    """Provenance column ``column`` of a cloud, as its layout gives it."""
    return property(lambda c: _layout(c.kind, c.pattern, c.meta, len(c))[1][column])


@dataclass(frozen=True)
class PointCloud:
    """Tagged complex points: eigenvalues of perturbed matrices.

    ``meta`` holds the values of the kind's layout, a baseline's seed among
    them.  The provenance columns parallel to ``points`` (the source
    eigenvalue index or -1, the angle index k, the sample index) are derived
    from it on request: BadParams unless the point count is 0 or the layout's.
    """

    points: np.ndarray
    epsilon: float
    pattern: StructurePattern
    kind: str
    meta: dict

    source_eigen, angle_index, sample_index = map(_provenance, range(3))

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


def _layout(kind: str, pattern: StructurePattern, meta: dict, points: int | None = None):
    """The one layout rule of a cloud: its rows and each point's provenance.

    A sweep has a row per (pair member, angle) and a baseline one per
    (sample, angle), each the ``dim`` points of a spectrum; a trajectory a
    row per (variant, eigenvalue), each its ``steps`` points, the variants
    being E and, for a structured pattern, its projection.  Returns the
    rows' two index arrays and the ``source_eigen``, ``angle_index`` and
    ``sample_index`` columns of ``points`` points, 0 or the layout's count
    (None for the latter).  BadParams unless the meta holds exactly the
    kind's keys: positive integer counts, a nonnegative integer seed and a
    pair of two distinct indices below ``dim``.
    """
    keys = {WILKINSON_SWEEP: ("pair", "angles"), RANDOM_BASELINE: ("samples", "angles", "seed"),
            TRAJECTORY: ("steps",)}.get(kind, ())
    if not keys or set(meta) != set(keys):
        raise BadParams(f"cloud kind {kind!r} with the meta keys {list(meta)} has no layout")
    n, pair, seed = pattern.dim, meta.get("pair", (0, 1)), meta.get("seed", 0)
    counts = [meta[k] for k in keys if k not in ("pair", "seed")]
    ints = isinstance(pair, tuple) and all(
        isinstance(v, Integral) and not isinstance(v, bool) for v in (*pair, *counts, seed))
    if not (ints and _valid_pair(pair, n) and min(*counts, n) > 0 and seed >= 0):
        raise BadParams(f"invalid {kind} meta {meta} for dim {n}")
    if kind == TRAJECTORY:
        shape = (1 if pattern.kind == FULL else 2, n, meta["steps"])
    else:
        shape = (len(pair) if kind == WILKINSON_SWEEP else meta["samples"], meta["angles"], n)
    if points not in (None, 0, math.prod(shape)):
        raise BadParams(f"the {kind} meta lays out {math.prod(shape)} points, not the cloud's {points}")
    a, b, c = np.unravel_index(np.arange(math.prod(shape) if points is None else points), shape)
    if kind == TRAJECTORY:
        columns = b, a, c
    elif kind == WILKINSON_SWEEP:
        columns = np.asarray(pair)[a], b, np.zeros_like(a)
    else:
        columns = np.full_like(a, -1), b, a
    return (a[:: shape[2]], b[:: shape[2]]), columns


def _mirrors(A: np.ndarray, D: np.ndarray, terms: np.ndarray, scales: np.ndarray):
    """The row mirror of ``_perturbed_spectra``: ``(source, signs)``.

    One forward pass over the rows.  Row p copies an earlier solved row q
    (source[p] = q, signs[p] = s) when a symmetry (psi, s) of A
    (``structures.symmetries``) has psi(D[terms[p]]) equal to D[terms[q]]
    and scales[q] equal to conj(scales[p]), both by exact array equality:
    the two rows' matrices are then exact images of each other in floating
    point, and the spectrum of row p is that of row q mapped by
    z -> s * conj(z).  Any other row is solved (source[p] = p, signs[p] = 0),
    and a row copies only solved rows.
    """
    source, signs = np.arange(len(terms)), np.zeros(len(terms), dtype=int)
    found = symmetries(A)
    if not found:
        return source, signs
    # Directions as ids of their bytes, the first of equal ones; x + 0.0
    # reads -0.0 as 0.0, as array equality does (and Python's complex ==
    # and hash, which key the scales).
    index = {}
    for u, M in enumerate(D + 0.0):
        index.setdefault(M.tobytes(), u)
    ids = [index[M.tobytes()] for M in D + 0.0]
    images = [[index.get(M.tobytes()) for M in psi(D) + 0.0] for psi, _ in found]
    solved = {}
    for p, (t, c) in enumerate(zip(terms.tolist(), scales.tolist())):
        for image, (_, s) in zip(images, found):
            q = solved.get((image[t], c.conjugate()))
            if q is not None:
                source[p], signs[p] = q, s
                break
        else:
            solved.setdefault((ids[t], c), p)
    return source, signs


def _perturbed_spectra(A: np.ndarray, directions, terms: np.ndarray, scales: np.ndarray):
    """Spectra of A + scales[p] * directions[terms[p]] for every row p.

    Stacked eigensolves over the rows that ``_mirrors`` leaves solved, in
    slices run by ``numkernel._stacked``; every other row takes its source
    row's spectrum mapped by z -> s * conj(z).  Each spectrum is sorted by
    the order rule of ``eig_pairs``, on the scale ||A||_F + max |scales| *
    max ||D||_F that bounds every row's Frobenius norm (nrm2, which neither
    overflows nor underflows), and the points are returned flattened in
    row order.
    """
    A = np.asarray(A, dtype=complex)
    D = np.asarray(directions, dtype=complex)
    spectra = np.empty((len(terms), A.shape[0]), dtype=complex)
    source, signs = _mirrors(A, D, terms, scales)
    mirrored = signs != 0
    solve = np.flatnonzero(~mirrored)

    def work(rows):
        # One buffer per slice: gather, scale in place, add A.  The scale
        # stays the first factor, so each product rounds exactly as c * D.
        rows = solve[rows]
        stack = D[terms[rows]]
        np.multiply(scales[rows, None, None], stack, out=stack)
        stack += A
        spectra[rows] = np.linalg.eigvals(stack)

    numkernel._stacked(work, len(solve), A.shape[0])
    images = spectra[source[mirrored]].conj()
    spectra[mirrored] = np.where(signs[mirrored, None] < 0, -images, images)
    norm_a, *norms_d = (scipy.linalg.norm(M.ravel()) for M in (A, *D))
    order = numkernel._spectral_order(spectra, norm_a + np.abs(scales).max() * max(norms_d))
    return np.take_along_axis(spectra, order, axis=1).ravel()


def _unit_circle(eps: float, K: int) -> np.ndarray:
    """eps * e^{i theta_k} on the uniform grid theta_k = 2 pi k / K,
    conjugate-symmetric by construction: c_{K-k} = conj(c_k), the points
    with k <= K / 2 evaluated and the rest their conjugates."""
    half = eps * np.exp(1j * (2.0 * np.pi * np.arange(K // 2 + 1) / K))
    return np.concatenate((half, half[1 : K - K // 2][::-1].conj()))


def sweep_wilkinson(A: np.ndarray, sys: Eigensystem, cfg: SweepConfig) -> PointCloud:
    """Angle sweep of (projected) Wilkinson perturbations.

    For each selected eigenvalue and each angle theta_k the full spectrum of
    A + e^{i theta_k} * eps * W is recorded, giving 2 * K * n points.
    """
    pair, eps = resolve_pair_and_epsilon(sys, cfg)
    meta = {"pair": pair, "angles": cfg.angles}
    d, k = _layout(WILKINSON_SWEEP, cfg.pattern, meta)[0]
    directions = [wilkinson(sys, i, cfg.pattern) for i in pair]
    points = _perturbed_spectra(A, directions, d, _unit_circle(eps, cfg.angles)[k])
    return PointCloud(points, eps, cfg.pattern, WILKINSON_SWEEP, meta)


def random_cloud(
    A: np.ndarray, cfg: SweepConfig, samples: int, seed: int
) -> PointCloud:
    """Baseline cloud from seeded random unit-norm perturbations.

    Rank-one random matrices for the full pattern, projected random members
    for structured patterns; n * K * samples points.  DimensionMismatch
    unless A fits the pattern; BadParams unless samples > 0 and seed >= 0.
    """
    if cfg.epsilon is None:
        raise ValueError("random_cloud requires an explicit epsilon")
    A = _check_dim(A, cfg.pattern)
    meta = {"samples": samples, "angles": cfg.angles, "seed": seed}
    s, k = _layout(RANDOM_BASELINE, cfg.pattern, meta)[0]
    rng = np.random.default_rng(seed)
    if cfg.pattern.kind == FULL:
        directions = [random_rank_one(len(A), rng) for _ in range(samples)]
    else:
        directions = [random_member(cfg.pattern, rng) for _ in range(samples)]
    points = _perturbed_spectra(A, directions, s, _unit_circle(cfg.epsilon, cfg.angles)[k])
    return PointCloud(points, cfg.epsilon, cfg.pattern, RANDOM_BASELINE, meta)


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
    1 for the projection.  DimensionMismatch unless E and sys fit S.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.size == 0 or not np.all(np.isfinite(eps_grid) & (eps_grid >= 0)):
        raise ValueError("eps grid must be non-empty, finite and non-negative")
    E = _check_dim(E, S)
    _check_dim(sys.rights, S)
    meta = {"steps": int(eps_grid.size)}
    variant, i = _layout(TRAJECTORY, S, meta)[0]
    directions = [E, normalized_projection(E, S)] if variant.any() else [E]
    _check_overlaps(sys, range(sys.dim))
    slopes = [np.vdot(sys.lefts[:, j], directions[v] @ sys.rights[:, j]) for v, j in zip(variant, i)]
    points = sys.eigenvalues[i, None] + eps_grid * (np.array(slopes) / sys.overlaps[i])[:, None]
    return PointCloud(points.ravel(), float(eps_grid.max()), S, TRAJECTORY, meta)


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
