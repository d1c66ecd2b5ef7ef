"""Self-test of the benchmark harness.

Runs one tiny matrix per workload, traced and untraced, and checks that
every metric BENCHMARK.json names comes out with its unit.  Run from the
root of the checkout:

    python3 -m pytest perfbench/test_selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "sweep_small": ("pentadiag_toeplitz", 5),
    "oracle_large": ("hamiltonian_random", 4),
    "screen_many": ("hamiltonian_random", 4),
    "sweep_small_full": ("tridiag_toeplitz", 5),
    "screen_many_full": ("tridiag_toeplitz", 5),
}


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_its_unit(workload, trace):
    record = run.run(workload, seed=1, seconds=0, trace=trace,
                     cells=[TINY[workload]], setup_starts=1)
    assert record["correct"], record
    assert record["attempted"] == 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in record["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in record["metrics"].values())


def test_known_failure_is_named_in_the_ledger():
    # eig_pairs raises NonConvergence on this Toeplitz matrix at this commit;
    # a typed failure with its exit code leaves the run correct.
    record = run.run("screen_many_full", seed=1, seconds=0, trace=False,
                     cells=[("pentadiag_toeplitz", 40)], setup_starts=1)
    assert record["correct"] and record["failed"] == 1
    assert record["ledger"] == [{
        "family": "pentadiag_toeplitz", "n": 40, "seed": run.derived_seed(1, 0, 0),
        "command": "analyze", "error_class": "NonConvergence", "exit_code": 3,
        "message": record["ledger"][0]["message"],
    }]


def test_tail_has_ten_samples_beyond():
    value, pct, beyond, total = run.tail([float(i) for i in range(40)])
    assert (value, beyond, total) == (29.0, 10, 40)
    assert pct == 75.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "screen_many",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
