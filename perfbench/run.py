"""Benchmark of the pseudospec CLI pipeline, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 45 --trace 0

A single closed-loop client pushes seeded matrices one after another through
``pseudospec.cli.main(argv)``, in process, with BLAS pinned to one thread.
Matrices come from ``pseudospec generate`` with seeds derived from
``--seed``.  The loop runs whole rounds (every cell of the workload once) until
``--seconds`` have passed.  The files of every pipeline that exits 0 are
checked (see checks.py); a pipeline fails on a nonzero exit code or a failed
check, and each failure is named in the run record.  README.md explains the
workloads and metrics.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
pipeline twice, untraced and traced (alternating which goes first), and
prints the per-layer metrics from the traced runs plus the tracing overhead.
The last line of standard output is one JSON object; the full run record
(environment, failure ledger, spans) goes to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
FAMILIES = ("tridiag_toeplitz", "pentadiag_toeplitz", "hamiltonian_random")
SETUP_STARTS = 9
IMPORT_STARTS = 3
MODULES = (
    "pseudospec", "approx", "cli", "errors", "families", "io", "numkernel",
    "oracle", "sensitivity", "structures", "svg",
)


_, PENTADIAG, HAMILTONIAN = FAMILIES


def every_family(*sizes: int) -> tuple:
    """(family, n) for every family at each size; Hamiltonian needs even n."""
    return tuple(
        (family, n) for n in sizes for family in FAMILIES if family != HAMILTONIAN or n % 2 == 0
    )


@dataclass(frozen=True)
class Workload:
    """One set of inputs: the (family, n) cells of a round and the step flags.

    With ``trajectory_steps`` a pipeline runs analyze and trajectory after
    generate; otherwise approx (``angles``, ``baseline``, ``svg``) and
    oracle (``res`` x ``res`` grid, abscissa for each of ``eps_list``).
    """

    cells: tuple
    angles: int = 0
    baseline: int = 0
    svg: bool = False
    res: int = 0
    eps_list: tuple = ()
    trajectory_steps: int = 0


WORKLOADS = {
    # The two workloads BENCHMARK.json names hold only cells on which nothing
    # failed at this commit: eig_pairs in 20 000 seeds or more per cell, the
    # whole pipeline in every run made to tune them.  eig_pairs fails on some
    # seeds of tridiag_toeplitz at every n tried (2 in 60 000 at n = 5) and
    # of pentadiag_toeplitz from n = 16, and the oracle abscissa raises
    # EmptyLevelSet when a level set misses every cell of the default
    # window.  The *_full workloads below keep those failures.
    #
    # approx (sweep + 10-sample baseline + SVG) and the writers dominate;
    # sigma_min sees only small n.  No --eps-list, so no abscissa.
    "sweep_small": Workload(
        cells=((PENTADIAG, 5), (PENTADIAG, 8), (PENTADIAG, 10), (HAMILTONIAN, 8),
               (HAMILTONIAN, 10)),
        angles=50, baseline=10, svg=True, res=50,
    ),
    # Short generate -> analyze -> trajectory pipelines: eig_pairs, analyze,
    # small JSON/CSV I/O and CLI overhead.  No sweep, no sigma_min.
    "screen_many": Workload(
        cells=((PENTADIAG, 12), (HAMILTONIAN, 12), (HAMILTONIAN, 20), (HAMILTONIAN, 28),
               (HAMILTONIAN, 40)),
        trajectory_steps=50,
    ),
    # sigma_min_batch (grid plus inclusion check) does almost all the work at
    # n = 32 and 40.  n = 40 runs twice per round, so the median pipeline
    # lies inside the n = 40 group instead of flipping between two sizes.
    "oracle_large": Workload(
        cells=every_family(32, 40, 40), angles=10, res=100, eps_list=("1e-2", "1e-1"),
    ),
    # The full family x size mixes of sweep_small and screen_many, with the
    # cells that fail at this commit; run by hand to see the failure ledger.
    "sweep_small_full": Workload(
        cells=every_family(5, 8, 10), angles=50, baseline=10, svg=True, res=50,
        eps_list=("1e-2", "1e-1"),
    ),
    "screen_many_full": Workload(cells=every_family(12, 20, 28, 40), trajectory_steps=50),
}

END_TO_END = {
    "setup_s": "s",
    "verified_per_s": "pipelines/s",
    "pipeline_p50_s": "s",
    "pipeline_tail_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "calls": "count/pipeline",
    "busy_s": "s/pipeline",
    "self_s": "s/pipeline",
    "import_s": "s",
    "sigma_min_points": "count/pipeline",
    "sigma_min_s": "s/pipeline",
    "sigma_min_us_per_point": "us",
    "sigma_min_ops_computed": "flop/pipeline",
    "sigma_min_max_rel_err": "ratio",
    "eig_pairs_s": "s/pipeline",
    "eig_pairs_calls": "count/pipeline",
    "eig_pairs_failed": "count/pipeline",
    "grid_field_s": "s/pipeline",
    "grid_points": "count/pipeline",
    "cloud_inclusion_check_s": "s/pipeline",
    "check_points": "count/pipeline",
    "abscissa_grid_s": "s/pipeline",
    "inclusion_worst_ratio": "ratio",
    "sweep_wilkinson_s": "s/pipeline",
    "random_cloud_s": "s/pipeline",
    "eigensolves": "count/pipeline",
    "eigensolves_per_s": "1/s",
    "cloud_points": "count/pipeline",
    "coalescence_gap_s": "s/pipeline",
    "save_matrix_s": "s/pipeline",
    "load_matrix_s": "s/pipeline",
    "save_cloud_s": "s/pipeline",
    "load_cloud_s": "s/pipeline",
    "save_grid_s": "s/pipeline",
    "bytes_written": "bytes/pipeline",
    "svg_render_s": "s/pipeline",
    "bytes": "bytes/pipeline",
    "analyze_s": "s/pipeline",
    "generate_s": "s/pipeline",
    "overhead_frac": "ratio",
    "coverage_frac": "ratio",
    "pipelines": "count",
}


def per_layer_unit(name: str) -> str:
    suffix = name.split(".", 1)[1]
    if suffix.endswith("_self_s"):
        return "s/pipeline"
    return PER_LAYER_UNITS[suffix]


def derived_seed(seed: int, *key: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


@dataclass
class Pipeline:
    family: str
    n: int
    seed: int
    wall: float = 0.0
    steps: dict = field(default_factory=dict)
    failure: dict | None = None
    problems: list = field(default_factory=list)
    rel_err: float = 0.0

    @property
    def verified(self) -> bool:
        return self.failure is None and not self.problems


class Client:
    """Closed-loop client that runs pipelines through ``cli.main``."""

    def __init__(self, workload: Workload, workdir: Path):
        from pseudospec import cli, io, numkernel, oracle

        self.workload = workload
        self.dir = workdir
        self.cli = cli
        # The checks call the program's own loaders and inclusion check
        # through these references, which the tracer never replaces.
        self.load_cloud = io.load_cloud
        self.load_matrix = io.load_matrix
        self.inclusion_check = oracle.cloud_inclusion_check
        self.eig_pairs = numkernel.eig_pairs
        self.last_error: str | None = None
        self._tap_commands()

    def _tap_commands(self) -> None:
        """Remember the class of an exception that leaves a command, which
        ``cli.main`` turns into an exit code and a message."""
        for name in [n for n in vars(self.cli) if n.startswith("cmd_")]:
            fn = getattr(self.cli, name)

            def tapped(args, _fn=fn):
                try:
                    return _fn(args)
                except Exception as exc:
                    self.last_error = type(exc).__name__
                    raise

            tapped.__name__ = tapped.__qualname__ = name
            tapped.__module__ = self.cli.__name__
            setattr(self.cli, name, tapped)

    def argvs(self, family: str, n: int, seed: int) -> list:
        w, d = self.workload, self.dir
        m, cloud = str(d / "m.json"), str(d / "cloud.csv")
        out = [["generate", "--family", family, "--n", str(n), "--seed", str(seed), "--out", m]]
        if w.trajectory_steps:
            out.append(["analyze", m, "--json-out", str(d / "report.json")])
            out.append([
                "trajectory", m, "--eps-max", "0.1", "--steps", str(w.trajectory_steps),
                "--out", str(d / "traj.csv"),
            ])
            return out
        approx = ["approx", m, "--angles", str(w.angles), "--out", cloud]
        if w.baseline:
            approx += ["--baseline", str(w.baseline), "--seed", str(seed)]
        if w.svg:
            approx += ["--svg", str(d / "plot.svg")]
        out.append(approx)
        oracle = ["oracle", m, "--res", f"{w.res}x{w.res}"]
        if w.eps_list:
            oracle += ["--eps-list", *w.eps_list]
        out.append(oracle + ["--out", str(d / "grid.csv"), "--check", cloud])
        return out

    def run(self, family: str, n: int, seed: int) -> tuple[Pipeline, dict]:
        """Run one pipeline; returns it and the stdout of each step."""
        p = Pipeline(family, n, seed)
        stdout = {}
        for argv in self.argvs(family, n, seed):
            out, err = StringIO(), StringIO()
            self.last_error = None
            with redirect_stdout(out), redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc = self.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # escaped the CLI: not a typed failure
                    rc, self.last_error = None, type(exc).__name__
                dt = time.perf_counter() - t0
            p.wall += dt
            p.steps[argv[0]] = dt
            stdout[argv[0]] = out.getvalue()
            if rc != 0:
                lines = err.getvalue().strip().splitlines()
                p.failure = {
                    "family": family, "n": n, "seed": seed, "command": argv[0],
                    "error_class": self.last_error, "exit_code": rc,
                    "message": lines[-1] if lines else "",
                }
                break
        return p, stdout

    def check(self, p: Pipeline, stdout: dict) -> None:
        """Check the files of a pipeline that exited 0 at every step."""
        import numpy as np

        import checks

        w, d, n = self.workload, self.dir, p.n
        rng = np.random.default_rng(p.seed)
        A, doc = checks.load_matrix(str(d / "m.json"))
        if w.trajectory_steps:
            p.problems += checks.analyze_report(str(d / "report.json"))
            variants = 1 if doc["structure"]["kind"] == "full" else 2
            p.problems += checks.cloud(str(d / "traj.csv"), variants * n * w.trajectory_steps)
            return
        p.problems += checks.cloud(str(d / "cloud.csv"), 2 * w.angles * n)
        if w.baseline:
            p.problems += checks.cloud(str(d / "cloud.csv.baseline.csv"), w.angles * n * w.baseline)
        if w.svg and not (d / "plot.svg").read_text().rstrip().endswith("</svg>"):
            p.problems.append("plot.svg is not a complete SVG document")
        problems, grid_err = checks.grid(str(d / "grid.csv"), A, w.res, rng)
        p.problems += problems
        problems, cloud_err = checks.inclusion(
            stdout["oracle"], str(d / "cloud.csv"), A, self.load_cloud, self.inclusion_check, rng
        )
        p.problems += problems
        p.rel_err = max(grid_err, cloud_err)

    def run_traced(self, tracer, index: int, family: str, n: int, seed: int):
        """Run one pipeline untraced and then traced, or the other way round
        for odd ``index``; returns the traced pipeline, its stdout and the
        untraced wall time."""
        legs = {}
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                tracer.pipeline = index
                tracer.install()
            try:
                legs[traced] = self.run(family, n, seed)
            finally:
                tracer.uninstall()
                tracer.pipeline = None
        return (*legs[True], legs[False][0].wall)

    def coalescence_gap_time(self) -> float:
        """Time ``approx.coalescence_gap`` on the sweep cloud just written.

        No CLI command calls it; the benchmark does, with the pair the sweep
        used, so a faster sub-cloud matcher shows up here.
        """
        from pseudospec import approx

        A, declared = self.load_matrix(str(self.dir / "m.json"))
        sys_ = self.eig_pairs(A)
        pair, _ = approx.resolve_pair_and_epsilon(sys_, approx.SweepConfig(pattern=declared))
        cloud, _ = self.load_cloud(str(self.dir / "cloud.csv"), dim_hint=A.shape[0])
        t0 = time.perf_counter()
        approx.coalescence_gap(cloud, sys_, pair)
        return time.perf_counter() - t0


def fresh_starts(count: int, importtime: bool) -> list:
    """Start fresh interpreters that import ``pseudospec.cli``.

    Returns the seconds from launch until each reported ready, or with
    ``importtime`` the ``-X importtime`` report of each.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import pseudospec.cli as c; "
        "c.build_parser(); print(c.__file__, flush=True)"
    )
    env = {**os.environ, **BLAS_ENV}
    flags = ["-X", "importtime"] if importtime else []
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *flags, "-c", code], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not first.strip().startswith(str(SRC)):
            raise RuntimeError(f"fresh interpreter failed to import pseudospec.cli from src: {err}")
        out.append(err if importtime else ready)
    return out


def import_times(reports: list) -> dict:
    """Median cumulative import time of each pseudospec module, in seconds."""
    line = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(pseudospec\S*)")
    samples = {m: [] for m in MODULES}
    for report in reports:
        seen = {m: 0.0 for m in MODULES}
        for match in line.finditer(report):
            module = match.group(2).rpartition(".")[2]
            if module in seen:
                seen[module] = int(match.group(1)) / 1e6
        for m, v in seen.items():
            samples[m].append(v)
    return {f"{m}.import_s": statistics.median(v) for m, v in samples.items()}


def tail(samples: list) -> tuple:
    """Highest percentile that still has at least ten samples beyond it.

    Returns (value, percentile, samples beyond, total).  With fewer than
    eleven samples there is no such percentile; the maximum is returned with
    zero samples beyond, and the record says so.
    """
    s = sorted(samples)
    if len(s) < 11:
        return (s[-1] if s else 0.0), 100.0, 0, len(s)
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s), 10, len(s)


def cell_median(verified: list) -> float:
    """Median over (family, n) cells of each cell's median pipeline time.

    Every cell weighs the same, so which seeds happen to fail (and so which
    cells contribute more successful pipelines in one run) does not move the
    median.  0.0 when nothing was verified.
    """
    by_cell = {}
    for p in verified:
        by_cell.setdefault((p.family, p.n), []).append(p.wall)
    if not by_cell:
        return 0.0
    return statistics.median(statistics.median(w) for w in by_cell.values())


def environment(seed: int) -> dict:
    import ctypes

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else []:
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            threads = fn()
    src = hashlib.sha256()
    for path in sorted((SRC / "pseudospec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas_threads_in_use": threads,
        "workload_seed": seed,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(name: str, seed: int, seconds: float, trace: bool,
        cells: list | None = None, setup_starts: int = SETUP_STARTS) -> dict:
    """Run one workload and return the run record.

    ``cells`` replaces the workload's (family, n) list and ``setup_starts``
    the number of fresh interpreters; the self-test makes both small.
    """
    from spans import Tracer, self_time_total, summarize

    workload = WORKLOADS[name]
    round_cells = cells or workload.cells
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(seed)}
    if trace:
        reports = fresh_starts(min(setup_starts, IMPORT_STARTS), importtime=True)
    else:
        # The first start only warms the file cache and is not counted.
        setup = fresh_starts(setup_starts + 1, importtime=False)[1:]
        record["setup_starts_s"] = setup

    workdir = WORK / f"tmp-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    client = Client(workload, workdir)
    tracer = Tracer() if trace else None
    pipelines: list[Pipeline] = []
    untraced_walls, gap_s = [], 0.0
    try:
        t_start = time.perf_counter()
        rnd = 0
        while rnd == 0 or time.perf_counter() - t_start < seconds:
            for c, (family, n) in enumerate(round_cells):
                mseed = derived_seed(seed, rnd, c)
                if tracer is None:
                    p, stdout = client.run(family, n, mseed)
                else:
                    p, stdout, untraced = client.run_traced(
                        tracer, len(pipelines), family, n, mseed
                    )
                    untraced_walls.append(untraced)
                if p.failure is None:
                    client.check(p, stdout)
                    if tracer is not None and "approx" in p.steps:
                        gap_s += client.coalescence_gap_time()
                pipelines.append(p)
            rnd += 1
        record["measured_s"] = time.perf_counter() - t_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(pipelines)
    verified = [p for p in pipelines if p.verified]
    failed = attempted - len(verified)
    # Exit codes 2 (validation) and 3 (numeric) are the CLI's typed failures.
    unexpected = [
        p.failure for p in pipelines if p.failure and p.failure["exit_code"] not in (2, 3)
    ]
    wrong = [{"family": p.family, "n": p.n, "seed": p.seed, "problems": p.problems}
             for p in pipelines if p.problems]
    walls = [p.wall for p in verified]
    record.update({
        "rounds": rnd,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "ledger": [p.failure for p in pipelines if p.failure],
        "pipelines": [[p.family, p.n, p.seed, p.wall, p.verified] for p in pipelines],
        "unexpected_failures": unexpected,
        "wrong_outputs": wrong,
        "step_p50_s": {
            step: statistics.median(p.steps[step] for p in pipelines if step in p.steps)
            for step in dict.fromkeys(s for p in pipelines for s in p.steps)
        },
    })
    correct = not unexpected and not wrong

    if not trace:
        value, pct, beyond, total = tail(walls)
        record["tail"] = {"percentile": pct, "beyond": beyond, "samples": total}
        metrics = {
            "setup_s": statistics.median(setup),
            "verified_per_s": len(verified) / sum(p.wall for p in pipelines),
            "pipeline_p50_s": cell_median(verified),
            "pipeline_tail_s": value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        traced_wall = sum(p.wall for p in pipelines)
        untraced_wall = sum(untraced_walls)
        accounted = self_time_total(tracer.spans)
        metrics = summarize(tracer.spans, attempted)
        metrics.update(import_times(reports))
        metrics["numkernel.sigma_min_max_rel_err"] = max(p.rel_err for p in pipelines)
        metrics["approx.coalescence_gap_s"] = gap_s / attempted
        metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        metrics["trace.coverage_frac"] = accounted / traced_wall
        metrics["trace.pipelines"] = attempted
        # Layer coverage: the self times of all spans (cli self time
        # included) must account for the traced pipeline wall time, to
        # within the tracing overhead or 1% of the wall, whichever is larger.
        gap = abs(traced_wall - accounted)
        limit = max(abs(traced_wall - untraced_wall), 0.01 * traced_wall)
        record["coverage"] = {"unaccounted_s": gap, "limit_s": limit, "ok": gap <= limit}
        record["counter_errors"] = tracer.counter_errors
        correct = correct and gap <= limit
        units = {k: per_layer_unit(k) for k in metrics}
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"spans-{name}-seed{seed}.jsonl"
        with open(spans_path, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.pipeline, s.error]) + "\n")
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    record["correct"] = correct
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return record


def report(record: dict) -> None:
    """Print the run record for a reader, then the one-line result."""
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"rounds {record['rounds']}  measured {record['measured_s']:.1f} s")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {record['failed_frac']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} pipelines)")
    if "tail" in record:
        t = record["tail"]
        print(f"  pipeline_tail_s is p{t['percentile']:.1f} of {t['samples']} verified "
              f"pipelines, {t['beyond']} beyond it")
    if "coverage" in record:
        c = record["coverage"]
        print(f"  layer coverage: {c['unaccounted_s']:.4f} s unaccounted, limit "
              f"{c['limit_s']:.4f} s, {'ok' if c['ok'] else 'FAILED'}")
    groups = {}
    for f in record["ledger"]:
        key = (f["family"], f["n"], f["command"], f["error_class"], f["exit_code"])
        groups.setdefault(key, []).append(f["seed"])
    for (family, n, command, error, code), seeds in sorted(groups.items(), key=str):
        print(f"  ledger: {family} n={n} {command} {error} exit={code} x{len(seeds)} "
              f"seeds={seeds[:5]}{'...' if len(seeds) > 5 else ''}")
    for w in record["wrong_outputs"]:
        print(f"  WRONG OUTPUT: {w}")
    for f in record["unexpected_failures"]:
        print(f"  UNEXPECTED FAILURE: {f}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pseudospec" / "cli.py").is_file():
        print(f"error: no pseudospec sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload, so peak_rss_mb belongs to its workload.
        for name in WORKLOADS:
            subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ], check=True)
        return 0
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import pseudospec

    if not Path(pseudospec.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported pseudospec from {pseudospec.__file__}", file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
