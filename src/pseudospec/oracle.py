"""SVD-grid ground truth for pseudospectra.

A point z belongs to the spectral-norm eps-pseudospectrum iff
sigma_min(A - z I) <= eps.  The grid evaluates sigma_min at every cell center
of a rectangular window; clouds built from Frobenius-ball perturbations must
pass inclusion against this oracle since ||E||_2 <= ||E||_F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approx import PointCloud
from .errors import EmptyLevelSet, OutOfBounds
from .numkernel import _sigma_min_bounds, sigma_min_batch
from .sensitivity import kappas
from .structures import full

DEFAULT_RESOLUTION = (200, 200)
# Points per SVD batch in the search for the worst point of a cloud.
_WORST_BLOCK = 8


@dataclass(frozen=True)
class GridField:
    """sigma_min(A - z I) sampled at the cell centers of a window."""

    bounds: tuple  # (re_min, re_max, im_min, im_max)
    resolution: tuple  # (n_re, n_im)
    values: np.ndarray  # shape (n_re, n_im)

    @property
    def re_centers(self) -> np.ndarray:
        re_min, re_max, _, _ = self.bounds
        n_re = self.resolution[0]
        step = (re_max - re_min) / n_re
        return re_min + step * (np.arange(n_re) + 0.5)

    @property
    def im_centers(self) -> np.ndarray:
        _, _, im_min, im_max = self.bounds
        n_im = self.resolution[1]
        step = (im_max - im_min) / n_im
        return im_min + step * (np.arange(n_im) + 0.5)

    @property
    def cell_width(self) -> float:
        re_min, re_max, im_min, im_max = self.bounds
        return max(
            (re_max - re_min) / self.resolution[0],
            (im_max - im_min) / self.resolution[1],
        )


def default_window(sys, epsilon: float) -> tuple:
    """Spectrum bounding box padded by 2 * eps * max kappa on each side."""
    w = sys.eigenvalues
    pad = 2.0 * epsilon * max(kappas(sys, full(sys.dim)))
    pad = max(pad, 1e-6)
    return (
        float(w.real.min() - pad),
        float(w.real.max() + pad),
        float(w.imag.min() - pad),
        float(w.imag.max() + pad),
    )


def grid_field(A: np.ndarray, bounds, resolution=DEFAULT_RESOLUTION) -> GridField:
    """Evaluate sigma_min(A - z I) at every cell center."""
    bounds = tuple(float(b) for b in bounds)
    re_min, re_max, im_min, im_max = bounds
    n_re, n_im = (int(r) for r in resolution)
    if not np.all(np.isfinite(bounds)):
        raise OutOfBounds("window bounds must be finite")
    if not (re_max > re_min and im_max > im_min):
        raise OutOfBounds("window bounds are degenerate")
    if n_re < 2 or n_im < 2:
        raise OutOfBounds("resolution must be at least 2x2")
    field = GridField(bounds, (n_re, n_im), np.empty((n_re, n_im)))
    zs = field.re_centers[:, None] + 1j * field.im_centers[None, :]
    values = sigma_min_batch(A, zs.ravel())
    field.values[:] = values.reshape(n_re, n_im)
    return field


@dataclass(frozen=True)
class InclusionReport:
    total: int
    passed: int
    failed: int
    worst_value: float
    worst_point: complex | None

    @property
    def all_passed(self) -> bool:
        return self.failed == 0


def cloud_inclusion_check(cloud: PointCloud, A: np.ndarray, slack: float) -> InclusionReport:
    """Verify sigma_min(A - z I) <= eps * (1 + slack) for every cloud point.

    A point whose Schur-form bound beta(z) >= sigma_min (see
    ``numkernel._sigma_min_bounds``) is within the limit passes without an
    SVD; every other point gets its exact sigma_min from
    :func:`sigma_min_batch`, so the verdicts are those of an SVD per point.
    The worst value is exact too: points are evaluated in decreasing beta
    until the next beta falls below the largest value found, which no
    point left can then reach or tie.
    """
    if not 0.0 <= slack < np.inf:
        raise ValueError("slack must be finite and nonnegative")
    if not 0.0 <= cloud.epsilon < np.inf:
        raise ValueError("cloud epsilon must be finite and nonnegative")
    limit = cloud.epsilon * (1.0 + slack)
    bounds = _sigma_min_bounds(A, cloud.points)
    values = np.full(bounds.shape, -np.inf)  # exact sigma_min where evaluated
    order = np.argsort(-bounds, kind="stable")
    todo = order[: max(np.count_nonzero(bounds > limit), 1)]
    done = todo.size
    while todo.size:
        values[todo] = sigma_min_batch(A, cloud.points[todo])
        todo = order[done : done + _WORST_BLOCK]
        todo = todo[bounds[todo] >= values.max()]
        done += _WORST_BLOCK
    ok = values <= limit
    worst = int(np.argmax(values)) if values.size else None
    return InclusionReport(
        total=int(values.size),
        passed=int(ok.sum()),
        failed=int((~ok).sum()),
        worst_value=float(values[worst]) if worst is not None else 0.0,
        worst_point=complex(cloud.points[worst]) if worst is not None else None,
    )


def abscissa_grid(field: GridField, epsilon: float):
    """Max Re over cells in the eps level set, with half-cell uncertainty.

    Returns ``(value, uncertainty)``; raises EmptyLevelSet when no cell
    satisfies sigma_min <= eps (widen the window or increase eps).
    """
    mask = field.values <= epsilon
    if not mask.any():
        raise EmptyLevelSet("epsilon level set does not intersect the window")
    hit_rows = np.flatnonzero(mask.any(axis=1))
    value = float(field.re_centers[hit_rows.max()])
    return value, 0.5 * field.cell_width
