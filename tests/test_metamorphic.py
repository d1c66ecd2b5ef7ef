"""Metamorphic relations: how the answers transform when the input does.

Scaling by a power of two is exact in floating point, and every kernel
reads A on A / 2^e (``numkernel._unit_scaled``), so the relation for
A * 2^k holds bit for bit, with no tolerance: the sweep and baseline
points are those of A scaled by 2^k, and so is the default plot window,
which leaves every SVG mark where it was.
"""

import numpy as np
import pytest

from pseudospec import SweepConfig, eig_pairs, io, random_cloud, sweep_wilkinson
from pseudospec.cli import main
from pseudospec.families import FAMILIES, generate


def _cases():
    # The README matrix first, then the other two families.
    yield pytest.param("tridiag_toeplitz", 5, 2, id="tridiag_toeplitz-5")
    for family, n in zip(FAMILIES[1:], (6, 6)):
        yield pytest.param(family, n, 1, id=f"{family}-{n}")


def _marks(text):
    """The cloud circles and eigenvalue squares of an SVG, in order."""
    return [line for line in text.splitlines() if line.startswith("<circle") or 'width="6"' in line]


@pytest.mark.parametrize("k", [300, -300])
@pytest.mark.parametrize("family,n,seed", list(_cases()))
class TestPowerOfTwoScale:
    def test_points_scale_exactly(self, family, n, seed, k):
        A, pattern, _ = generate(family, n, seed)
        clouds = []
        for M in (A, np.ldexp(A.real, k) + 1j * np.ldexp(A.imag, k)):
            sweep = sweep_wilkinson(M, eig_pairs(M), SweepConfig(pattern=pattern, angles=64))
            cfg = SweepConfig(pattern=pattern, epsilon=sweep.epsilon, angles=64)
            clouds.append((sweep, random_cloud(M, cfg, 3, 0)))
        for unit, scaled in zip(*clouds):
            assert scaled.epsilon == np.ldexp(unit.epsilon, k)
            assert np.array_equal(scaled.points.view(float), np.ldexp(unit.points.view(float), k))

    def test_svg_marks_do_not_move(self, family, n, seed, k, tmp_path):
        A, pattern, _ = generate(family, n, seed)
        marks = []
        for name, M in (("unit", A), ("scaled", np.ldexp(A.real, k) + 1j * np.ldexp(A.imag, k))):
            matrix, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            io.save_matrix(str(matrix), M, pattern)
            assert main(["approx", str(matrix), "--angles", "100", "--baseline", "3", "--seed", "0",
                         "--out", str(out), "--svg", str(tmp_path / f"{name}.svg")]) == 0
            marks.append(_marks((tmp_path / f"{name}.svg").read_text()))
        assert len(marks[0]) == 2 * 100 * n + 3 * 100 * n + n
        assert marks[1] == marks[0]
