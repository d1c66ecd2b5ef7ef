"""Command-line front end.

Subcommands: generate, analyze, approx, oracle, trajectory.  Exit codes:
0 success, 3 for a :class:`NumericFailure`, 2 for any other library error,
OSError or ValueError (bad input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from . import approx as approx_mod
from . import families, io, oracle, sensitivity, structures, svg
from .errors import BadParams, EmptyLevelSet, NumericFailure, PseudospecError
from .numkernel import _is_real, eig_pairs

EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

STRUCTURE_CHOICES = ("auto", "full", "toeplitz", "hankel", "hamiltonian")


def _resolve_pattern(flag: str, declared, A):
    """Map the --structure flag to a pattern, honoring file metadata."""
    dim = A.shape[0]
    if flag == "full" or (flag == "auto" and declared is None):
        return structures.full(dim)
    if declared is not None and flag in ("auto", declared.kind):
        return declared
    real = _is_real(A)
    if flag == "toeplitz":
        return structures.toeplitz(dim, structures.toeplitz_support_of(A), real=real)
    if flag == "hankel":
        raise BadParams("hankel structure requires support metadata in the matrix file")
    if dim % 2 != 0:
        raise BadParams("hamiltonian structure needs an even dimension")
    return structures.hamiltonian(dim // 2, real=real)


def _flag_values(flag: str, text: str, sep: str, convert, form: str) -> tuple:
    """The ``sep``-separated values of a flag, each passed through
    ``convert``; BadParams naming the flag unless there are as many as
    ``form`` shows and each converts."""
    try:
        values = tuple(convert(v) for v in text.split(sep))
    except ValueError:
        values = None
    if values is None or len(values) != len(form.split(sep)):
        raise BadParams(f"{flag} expects {form}")
    return values


def cmd_generate(args) -> int:
    if args.seed < 0:
        raise BadParams("--seed must be nonnegative")
    A, pattern, params = families.generate(args.family, args.n, args.seed)
    generator = {"family": args.family, "seed": args.seed, "n": args.n, "params": params}
    io.save_matrix(args.out, A, pattern, generator)
    print(f"wrote {args.out} (family={args.family}, n={args.n}, seed={args.seed})")
    return 0


def cmd_analyze(args) -> int:
    A, declared = io.load_matrix(args.matrix)
    pattern = _resolve_pattern(args.structure, declared, A)
    sys_ = eig_pairs(A)
    report = sensitivity.analyze(sys_, pattern)

    print(f"{'i':>3}  {'lambda_i':>28}  {'kappa':>12}  {'kappa_S':>12}")
    for i in range(sys_.dim):
        lam = sys_.eigenvalues[i]
        print(
            f"{i:>3}  {lam.real:>13.6e} {lam.imag:>+13.6e}i  "
            f"{report.kappas[i]:>12.4e}  {report.kappas_structured[i]:>12.4e}"
        )
    print(f"epsilon           = {report.epsilon:.6e}  pair = {report.pair}")
    print(
        f"epsilon_structured = {report.epsilon_structured:.6e}  "
        f"pair = {report.pair_structured}"
    )

    w = sys_.eigenvalues
    doc = {
        "eigenvalues": np.column_stack((w.real, w.imag)),
        "kappa": report.kappas,
        "kappa_structured": report.kappas_structured,
        "epsilon": report.epsilon,
        "epsilon_structured": report.epsilon_structured,
        "pair": list(report.pair),
        "pair_structured": list(report.pair_structured),
        "pattern": structures.pattern_to_dict(pattern),
    }
    if args.json_out:
        io.atomic_write(args.json_out, io._json_text(doc))
    else:
        print(json.dumps(doc, sort_keys=True, default=np.ndarray.tolist))
    return 0


def cmd_approx(args) -> int:
    for flag in ("baseline", "seed"):
        if getattr(args, flag) < 0:
            raise BadParams(f"--{flag} must be nonnegative")
    pair = _flag_values("--pair", args.pair, ",", int, "i,j") if args.pair else None
    A, declared = io.load_matrix(args.matrix)
    pattern = _resolve_pattern(args.structure, declared, A)
    # Built before the eigensolve, so a bad --epsilon or --angles fails first.
    cfg = approx_mod.SweepConfig(
        pattern=pattern, epsilon=args.epsilon, angles=args.angles, pair_override=pair
    )
    sys_ = eig_pairs(A)
    cloud = approx_mod.sweep_wilkinson(A, sys_, cfg)
    if args.svg:  # checked before any write, so a rejected plot window leaves no file
        window = oracle._window(oracle.default_window(sys_, cloud.epsilon), "plot window")
    sha = io.matrix_hash(args.matrix)
    io.save_cloud(args.out, cloud, sha)
    print(
        f"wrote {args.out}: {len(cloud)} points, epsilon={cloud.epsilon:.6e}, "
        f"pair={cloud.meta['pair']}"
    )

    baseline = None
    if args.baseline:
        base_cfg = replace(cfg, epsilon=cloud.epsilon)
        baseline = approx_mod.random_cloud(A, base_cfg, args.baseline, args.seed)
        base_path = args.out + ".baseline.csv"
        io.save_cloud(base_path, baseline, sha)
        print(f"wrote {base_path}: {len(baseline)} points")

    if args.svg:
        clouds = [(c.kind, c.points) for c in (cloud, baseline) if c is not None]
        io.atomic_write(args.svg, svg.svg_render(clouds, sys_.eigenvalues, window))
        print(f"wrote {args.svg}")
    return 0


def cmd_oracle(args) -> int:
    eps_list = args.eps_list or []
    if not all(0.0 < eps < np.inf for eps in eps_list):
        raise BadParams("--eps-list values must be finite and positive")
    if not 0.0 <= args.slack < np.inf:
        raise BadParams("--slack must be finite and nonnegative")
    bounds = None
    if args.bounds:
        form = "re_min,re_max,im_min,im_max"
        bounds = oracle._window(_flag_values("--bounds", args.bounds, ",", float, form), "--bounds")
    resolution = _flag_values("--res", args.res, "x", int, "NxM")
    if min(resolution) < 2:
        raise BadParams("--res must be at least 2x2")
    if not (args.out or eps_list or args.check):
        raise BadParams("oracle needs at least one of --out, --eps-list and --check")
    A, _ = io.load_matrix(args.matrix)
    if args.check:
        cloud, header = io.load_cloud(args.check, dim_hint=A.shape[0])
        if header["matrix_sha256"] != io.matrix_hash(args.matrix):
            raise BadParams("cloud file was generated from a different matrix")
        if not len(cloud):
            raise BadParams("cloud file holds no points")

    # The window and the grid only feed --out and --eps-list.
    if args.out or eps_list:
        if bounds is None:
            window = oracle.default_window(eig_pairs(A), max(eps_list, default=1e-2))
            name = "the window padded by --eps-list (choose one with --bounds)"
            bounds = oracle._window(window, name)
        field = oracle.grid_field(A, bounds, resolution)
    # Before any write, so a cloud the check rejects leaves no --out file.
    report = oracle.cloud_inclusion_check(cloud, A, slack=args.slack) if args.check else None
    if args.out:
        io.save_grid(args.out, field)
        print(f"wrote {args.out}")

    # An empty level set stops the abscissa lines but is raised only after
    # the inclusion line, so a run with both still reports its verdict.
    empty = None
    for eps in eps_list:
        try:
            value, unc = oracle.abscissa_grid(field, eps)
        except EmptyLevelSet as exc:
            empty = exc
            break
        print(f"eps={eps:.6e}: abscissa={value:.6e} +/- {unc:.3e}")

    if report is not None:
        pct = 100.0 * report.passed / max(report.total, 1)
        print(
            f"inclusion check: pass {pct:.1f}% ({report.passed}/{report.total}), "
            f"worst sigma_min={report.worst_value:.6e}"
        )
    if empty is not None:
        raise empty
    if report is not None and not report.all_passed:
        raise NumericFailure("cloud inclusion check failed")
    return 0


def cmd_trajectory(args) -> int:
    if args.steps < 1:
        raise BadParams("--steps must be at least 1")
    if not 0.0 <= args.eps_max < np.inf:
        raise BadParams("--eps-max must be finite and nonnegative")
    A, declared = io.load_matrix(args.matrix)
    pattern = _resolve_pattern(args.structure, declared, A)
    sys_ = eig_pairs(A)
    n = A.shape[0]
    E = np.ones((n, n), dtype=complex) / n
    grid = np.linspace(0.0, args.eps_max, args.steps)
    cloud = approx_mod.first_order_trajectories(sys_, E, grid, pattern)
    io.save_cloud(args.out, cloud, io.matrix_hash(args.matrix))
    print(f"wrote {args.out}: {len(cloud)} trajectory points")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    It holds no command functions: :func:`main` looks ``cmd_<command>`` up
    on this module when it runs, so a replaced ``cmd_*`` is the one called.
    """
    parser = argparse.ArgumentParser(
        prog="pseudospec",
        description="Approximate (structured) pseudospectra via Wilkinson perturbations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a seeded family matrix")
    p.add_argument("--family", required=True, choices=families.FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("analyze", help="condition numbers and coalescence estimates")
    p.add_argument("matrix")
    p.add_argument("--structure", default="auto", choices=STRUCTURE_CHOICES)
    p.add_argument("--json-out", default=None)

    p = sub.add_parser("approx", help="Wilkinson sweep (and random baseline)")
    p.add_argument("matrix")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--angles", type=int, default=approx_mod.DEFAULT_ANGLES)
    p.add_argument("--structure", default="auto", choices=STRUCTURE_CHOICES)
    p.add_argument("--pair", default=None, help="i,j eigenvalue pair override")
    p.add_argument("--baseline", type=int, default=0, help="random baseline samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)

    p = sub.add_parser("oracle", help="sigma_min grid and cloud inclusion checks")
    p.add_argument("matrix")
    p.add_argument("--bounds", default=None, help="re_min,re_max,im_min,im_max")
    p.add_argument("--res", default="{}x{}".format(*oracle.DEFAULT_RESOLUTION))
    p.add_argument("--eps-list", type=float, nargs="*", default=None)
    p.add_argument("--check", default=None, help="cloud CSV to verify")
    p.add_argument("--slack", type=float, default=1e-8)
    p.add_argument("--out", default=None)

    p = sub.add_parser("trajectory", help="first-order eigenvalue trajectories")
    p.add_argument("matrix")
    p.add_argument("--eps-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--structure", default="auto", choices=STRUCTURE_CHOICES)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PseudospecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
