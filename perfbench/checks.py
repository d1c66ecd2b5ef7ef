"""Output checks on the files a pipeline wrote.

Every check reads the files back with its own parser and recomputes what it
can independently; each returns a list of problems (empty means the output
is right).  sigma_min values are compared with a per-point SVD of A - zI on a
seeded subsample of grid cells and cloud points.
"""

from __future__ import annotations

import dataclasses
import json
import re

import numpy as np

# Relative agreement the oracle's sigma_min values must reach.
REL_TOL = 1e-10
SAMPLE_POINTS = 8
_PASS_LINE = re.compile(r"inclusion check: pass [0-9.]+% \((\d+)/(\d+)\)")


def load_matrix(path: str) -> tuple[np.ndarray, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    n = int(doc["n"])
    flat = np.array([float(re_) + 1j * float(im) for re_, im in doc["entries"]])
    return flat.reshape(n, n), doc


def csv_rows(path: str) -> list[list[str]]:
    """Data rows of a pseudospec CSV: no comment lines, no column header."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#") and not line.startswith("re,"):
                rows.append(line.split(","))
    return rows


def relative_error(value: float, A: np.ndarray, z: complex) -> float:
    """|value - sigma_min(A - zI)| relative to the per-point SVD value.

    A backward-stable SVD resolves sigma_min only to about n * u * sigma_max,
    so the denominator is floored at the sigma_min whose REL_TOL-relative
    error equals that rounding level.
    """
    n = A.shape[0]
    s = np.linalg.svd(A - z * np.eye(n), compute_uv=False)
    floor = n * np.finfo(float).eps * s[0] / REL_TOL
    return abs(value - s[-1]) / max(s[-1], floor)


def _sample(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.choice(count, size=min(SAMPLE_POINTS, count), replace=False)


def grid(path: str, A: np.ndarray, res: int, rng) -> tuple[list, float]:
    """Grid CSV has res^2 rows whose sigma_min values match per-point SVDs."""
    rows = csv_rows(path)
    if len(rows) != res * res:
        return [f"grid has {len(rows)} rows, expected {res * res}"], 0.0
    worst = 0.0
    for k in _sample(rng, len(rows)):
        re_, im, value = (float(v) for v in rows[k])
        worst = max(worst, relative_error(value, A, complex(re_, im)))
    problems = [] if worst <= REL_TOL else [f"grid sigma_min rel err {worst:.3e}"]
    return problems, worst


def cloud(path: str, expected_rows: int) -> list:
    rows = csv_rows(path)
    if len(rows) != expected_rows:
        return [f"{path} has {len(rows)} rows, expected {expected_rows}"]
    return []


def inclusion(
    oracle_stdout: str, cloud_path: str, A: np.ndarray, load_cloud, inclusion_check, rng
) -> tuple[list, float]:
    """The oracle checked every cloud point, and its per-point values agree.

    The sampled points go one at a time through the program's own inclusion
    check, whose worst value is then that point's sigma_min.
    """
    problems = []
    full, _ = load_cloud(cloud_path, dim_hint=A.shape[0])
    match = _PASS_LINE.search(oracle_stdout)
    if match is None:
        problems.append("oracle printed no inclusion summary")
    elif not int(match.group(1)) == int(match.group(2)) == len(full):
        problems.append(f"oracle checked {match.group(0)} of {len(full)} points")
    worst = 0.0
    for k in _sample(rng, len(full)):
        one = dataclasses.replace(full, points=full.points[k : k + 1])
        value = inclusion_check(one, A, slack=0.0).worst_value
        worst = max(worst, relative_error(value, A, complex(full.points[k])))
    if worst > REL_TOL:
        problems.append(f"cloud sigma_min rel err {worst:.3e}")
    return problems, worst


def analyze_report(path: str) -> list:
    """The report's epsilon is the minimum over pairs of its own kappa vector.

    epsilon = min over i < j (both kappa > 0) of
    |lambda_i - lambda_j| / (kappa_i + kappa_j).
    """
    with open(path) as fh:
        doc = json.load(fh)
    lam = [complex(re_, im) for re_, im in doc["eigenvalues"]]
    kappa = doc["kappa"]
    active = [i for i, k in enumerate(kappa) if k > 0]
    best = min(
        abs(lam[i] - lam[j]) / (kappa[i] + kappa[j])
        for a, i in enumerate(active)
        for j in active[a + 1 :]
    )
    if abs(best - doc["epsilon"]) > 1e-12 * best:
        return [f"analyze epsilon {doc['epsilon']!r} != recomputed {best!r}"]
    return []
