"""SVD-grid ground truth for pseudospectra.

A point z belongs to the spectral-norm eps-pseudospectrum iff
sigma_min(A - z I) <= eps.  The grid evaluates sigma_min at every cell center
of a rectangular window; clouds built from Frobenius-ball perturbations must
pass inclusion against this oracle since ||E||_2 <= ||E||_F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyLevelSet, OutOfBounds
from .numkernel import _sigma_min_bounds, sigma_min_batch
from .sensitivity import kappas
from .structures import full, symmetries

DEFAULT_RESOLUTION = (200, 200)
# Points per SVD batch in the search for the worst point of a cloud.
_WORST_BLOCK = 8


def _centers(lo: float, hi: float, count: int) -> np.ndarray:
    """The centers of ``count`` equal cells splitting [lo, hi], offset from
    the midpoint so that they are symmetric by construction: when lo = -hi
    the midpoint is exactly 0, and center ``count - 1 - j`` is exactly
    minus center j.  The offsets scale the half span by ratios below 1, so
    every center is finite whenever the span is."""
    half = (hi - lo) / 2
    return (lo + half) + half * ((2 * np.arange(count) + 1 - count) / count)


def _window(bounds, name: str = "window bounds") -> tuple:
    """The window (re_min, re_max, im_min, im_max) as floats; OutOfBounds
    naming it unless both spans are positive and finite (so is every bound)."""
    bounds = tuple(float(b) for b in bounds)
    if not (0.0 < bounds[1] - bounds[0] < np.inf and 0.0 < bounds[3] - bounds[2] < np.inf):
        raise OutOfBounds(f"{name} must have finite spans re_max - re_min > 0 and im_max - im_min > 0")
    return bounds


@dataclass(frozen=True)
class GridField:
    """sigma_min(A - z I) sampled at the cell centers of a window."""

    bounds: tuple  # (re_min, re_max, im_min, im_max)
    values: np.ndarray  # shape (n_re, n_im)

    @property
    def re_centers(self) -> np.ndarray:
        return _centers(*self.bounds[:2], self.values.shape[0])

    @property
    def im_centers(self) -> np.ndarray:
        return _centers(*self.bounds[2:], self.values.shape[1])

    @property
    def cell_width(self) -> float:
        re_min, re_max, im_min, im_max = self.bounds
        n_re, n_im = self.values.shape
        return max((re_max - re_min) / n_re, (im_max - im_min) / n_im)


def default_window(sys, epsilon: float, A: np.ndarray) -> tuple:
    """Spectrum bounding box padded by 2 * eps * max kappa on each side,
    closed under the point maps z -> s * conj(z) of A's symmetries
    (``structures.symmetries``): s = 1 makes im_min = -im_max, s = -1
    makes re_min = -re_max, exactly.  A box that is already closed keeps
    its bits, as the box of real A does (dgeev's exact conjugate pairs)."""
    w = sys.eigenvalues
    pad = 2.0 * epsilon * max(kappas(sys, full(sys.dim)))
    pad = max(pad, 1e-6)
    box = [w.real.min() - pad, w.real.max() + pad, w.imag.min() - pad, w.imag.max() + pad]
    for _, s in symmetries(A):
        i = 2 if s > 0 else 0  # z -> conj(z) flips Im, z -> -conj(z) flips Re
        box[i], box[i + 1] = min(box[i], -box[i + 1]), max(box[i + 1], -box[i])
    return tuple(float(b) for b in box)


def grid_field(A: np.ndarray, bounds, resolution=DEFAULT_RESOLUTION) -> GridField:
    """Evaluate sigma_min(A - z I) at every cell center.

    Each symmetry (psi, s) of A (``structures.symmetries``) gives
    sigma_min(A - z I) = sigma_min(A - s * conj(z) I).  Complex conjugation
    (s = 1, real A) reflects across the real axis: when the window has
    im_min = -im_max, only the lower half of the rows (one per Im), and the
    middle one of an odd count, is evaluated, and the upper half is its
    mirror image.  J M^H J (s = -1, Hamiltonian A) reflects across the
    imaginary axis, and halves the columns (one per Re) the same way when
    re_min = -re_max.  A real Hamiltonian A on a window symmetric in both
    axes evaluates a quarter of the grid.
    """
    bounds = _window(bounds)
    re_min, re_max, im_min, im_max = bounds
    n_re, n_im = (int(r) for r in resolution)
    if n_re < 2 or n_im < 2:
        raise OutOfBounds("resolution must be at least 2x2")
    # The rows and columns evaluated: the lower half and the middle one, or all.
    signs = {s for _, s in symmetries(A)}
    rows = -(-n_im // 2) if im_min == -im_max and 1 in signs else n_im
    cols = -(-n_re // 2) if re_min == -re_max and -1 in signs else n_re
    zs = _centers(re_min, re_max, n_re)[:cols, None] + 1j * _centers(im_min, im_max, n_im)[:rows]
    values = sigma_min_batch(A, zs.ravel()).reshape(zs.shape)
    values = np.hstack((values, values[:, : n_im - rows][:, ::-1]))
    return GridField(bounds, np.vstack((values, values[: n_re - cols][::-1])))


@dataclass(frozen=True)
class InclusionReport:
    total: int
    passed: int
    worst_value: float
    worst_point: complex | None

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total


def cloud_inclusion_check(cloud, A: np.ndarray, slack: float) -> InclusionReport:
    """Verify sigma_min(A - z I) <= eps * (1 + slack) for every point of a
    :class:`~pseudospec.approx.PointCloud`.

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
    worst = int(np.argmax(values)) if values.size else None
    return InclusionReport(
        total=int(values.size),
        passed=int(np.count_nonzero(values <= limit)),
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
