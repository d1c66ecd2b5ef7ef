import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pseudospec
from pseudospec import cli, errors, families, full, hamiltonian, hankel, io, numkernel, toeplitz
from pseudospec.cli import STRUCTURE_CHOICES, _resolve_pattern, build_parser, main
from pseudospec.errors import BadParams
from pseudospec.families import generate
from pseudospec.structures import toeplitz_matrix
from references import symplectic_j


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "m.json"
    assert run("generate", "--family", "tridiag_toeplitz", "--n", "5",
               "--seed", "2", "--out", path) == 0
    return path


class TestIoRoundTrip:
    def test_matrix_round_trip_exact(self, tmp_path):
        A, pattern, _ = generate("pentadiag_toeplitz", 6, seed=9)
        path = tmp_path / "m.json"
        io.save_matrix(str(path), A, pattern)
        B, loaded = io.load_matrix(str(path))
        np.testing.assert_array_equal(A, B)
        assert loaded == pattern

    def test_structure_validated_on_load(self, tmp_path):
        path = tmp_path / "bad.json"
        A = np.array([[1.0, 2.0], [3.0, 4.0]])  # not Toeplitz
        io.save_matrix(str(path), A, toeplitz(2, {-1, 0, 1}))
        from pseudospec.errors import BadParams

        with pytest.raises(BadParams):
            io.load_matrix(str(path))

    def test_cloud_round_trip(self, tmp_path):
        from pseudospec import SweepConfig, eig_pairs, full, sweep_wilkinson

        A, pattern, _ = generate("tridiag_toeplitz", 4, seed=0)
        cloud = sweep_wilkinson(
            A, eig_pairs(A), SweepConfig(pattern=full(4), epsilon=0.1, angles=5)
        )
        path = tmp_path / "c.csv"
        io.save_cloud(str(path), cloud, "abc123")
        loaded, header = io.load_cloud(str(path), dim_hint=4)
        np.testing.assert_array_equal(loaded.points, cloud.points)
        np.testing.assert_array_equal(loaded.source_eigen, cloud.source_eigen)
        assert loaded.epsilon == cloud.epsilon
        assert header["matrix_sha256"] == "abc123"


def _sweep_toeplitz():
    from pseudospec import SweepConfig, eig_pairs, sweep_wilkinson

    A, pattern, _ = generate("pentadiag_toeplitz", 6, seed=1)
    return sweep_wilkinson(A, eig_pairs(A), SweepConfig(pattern=pattern, angles=7))


def _baseline_hamiltonian():
    from pseudospec import SweepConfig, random_cloud

    A, pattern, _ = generate("hamiltonian_random", 6, seed=1)
    return random_cloud(A, SweepConfig(pattern=pattern, epsilon=0.01, angles=5), 3, seed=4)


def _trajectory():
    from pseudospec import eig_pairs, first_order_trajectories

    A, pattern, _ = generate("tridiag_toeplitz", 5, seed=2)
    E = np.ones((5, 5), dtype=complex) / 5
    return first_order_trajectories(eig_pairs(A), E, np.linspace(0.0, 0.1, 4), pattern)


@pytest.mark.parametrize("make", [_sweep_toeplitz, _baseline_hamiltonian, _trajectory])
def test_cloud_round_trip_is_lossless(tmp_path, make):
    cloud = make()
    path = tmp_path / "c.csv"
    io.save_cloud(str(path), cloud, "abc123")
    loaded, _ = io.load_cloud(str(path), dim_hint=cloud.pattern.dim)
    for name in ("points", "source_eigen", "angle_index", "sample_index"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(cloud, name))
    assert loaded.pattern == cloud.pattern
    assert loaded.meta == cloud.meta  # a baseline's seed among it
    assert (loaded.epsilon, loaded.kind) == (cloud.epsilon, cloud.kind)


_KIND_OR_META_EDITS = {
    "baseline-as-sweep": (_baseline_hamiltonian, r"^# kind=.*$", "# kind=wilkinson_sweep"),
    "baseline-samples": (_baseline_hamiltonian, r"^# samples=3$", "# samples=2"),
    "baseline-without-seed": (_baseline_hamiltonian, r"^# seed=4$", "# seed="),
    "baseline-seed-negative": (_baseline_hamiltonian, r"^# seed=4$", "# seed=-1"),
    "sweep-with-seed": (_sweep_toeplitz, r"^# seed=$", "# seed=0"),
    "trajectory-as-baseline": (_trajectory, r"^# kind=.*$", "# kind=random_baseline"),
    "trajectory-steps": (_trajectory, r"^# steps=4$", "# steps=99"),
    # Rejected by the point count before any array of that size is built.
    "trajectory-steps-huge": (_trajectory, r"^# steps=4$", f"# steps={10**15}"),
    "trajectory-angles": (_trajectory, r"^# angles=0$", "# angles=4"),
}


@pytest.mark.parametrize("make,pattern,line", list(_KIND_OR_META_EDITS.values()),
                         ids=list(_KIND_OR_META_EDITS))
def test_edited_kind_or_meta_line_rejected(tmp_path, make, pattern, line):
    path, cloud = tmp_path / "c.csv", make()
    io.save_cloud(str(path), cloud, "abc123")
    text = path.read_text()
    edited = re.sub(pattern, line, text, count=1, flags=re.MULTILINE)
    assert edited != text
    path.write_text(edited)
    with pytest.raises(BadParams):
        io.load_cloud(str(path), dim_hint=cloud.pattern.dim)


# The writer refuses a cloud off the layout of its meta, as the reader does.
@pytest.mark.parametrize("edit", [
    lambda c: replace(c, meta={**c.meta, "seed": 0}),
    lambda c: replace(c, points=c.points[:-1]),
    lambda c: replace(c, points=np.append(c.points, 0j)),
], ids=["sweep-with-seed", "one-point-short", "one-point-over"])
def test_cloud_off_its_layout_not_written(edit):
    with pytest.raises(BadParams):
        io.cloud_to_csv(edit(_sweep_toeplitz()), "abc123")


@pytest.mark.parametrize("command", ["analyze", "approx", "trajectory"])
@pytest.mark.parametrize("flag", STRUCTURE_CHOICES)
def test_structure_flag_accepted(command, flag):
    extra = {"analyze": [], "approx": ["--out", "c.csv"],
             "trajectory": ["--eps-max", "0.1", "--steps", "2", "--out", "t.csv"]}
    args = build_parser().parse_args([command, "m.json", "--structure", flag, *extra[command]])
    assert args.structure == flag


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run("generate", "--family", "hamiltonian_random", "--n", "6",
                       "--seed", "4", "--out", path) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_family_exit_code(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run("generate", "--family", "nope", "--n", "4", "--seed", "0",
                "--out", tmp_path / "x.json")

    def test_bad_dimension_exit_code(self, tmp_path):
        assert run("generate", "--family", "hamiltonian_random", "--n", "5",
                   "--seed", "0", "--out", tmp_path / "x.json") == 2


class TestAnalyze:
    def test_json_output(self, matrix_file, tmp_path):
        out = tmp_path / "report.json"
        assert run("analyze", matrix_file, "--json-out", out) == 0
        doc = json.loads(out.read_text())
        assert len(doc["eigenvalues"]) == 5
        assert doc["epsilon_structured"] >= doc["epsilon"]
        assert doc["pattern"]["kind"] == "toeplitz"

    def test_structure_override(self, matrix_file, tmp_path):
        out = tmp_path / "report.json"
        assert run("analyze", matrix_file, "--structure", "full",
                   "--json-out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["kappa"] == doc["kappa_structured"]

    def test_missing_file_exit_code(self, tmp_path):
        assert run("analyze", tmp_path / "absent.json") == 2

    @pytest.mark.parametrize("family", families.FAMILIES)
    @pytest.mark.parametrize("n", [4, 12, 20])
    def test_json_report_is_the_text_of_json_dumps(self, tmp_path, family, n):
        path, out = tmp_path / "m.json", tmp_path / "report.json"
        assert run("generate", "--family", family, "--n", n, "--seed", 1, "--out", path) == 0
        assert run("analyze", path, "--json-out", out) == 0
        A, declared = io.load_matrix(str(path))
        pattern = _resolve_pattern("auto", declared, A)
        sys_ = numkernel.eig_pairs(A)
        report = pseudospec.analyze(sys_, pattern)
        doc = {
            "eigenvalues": [[v.real, v.imag] for v in sys_.eigenvalues],
            "kappa": list(report.kappas),
            "kappa_structured": list(report.kappas_structured),
            "epsilon": report.epsilon,
            "epsilon_structured": report.epsilon_structured,
            "pair": list(report.pair),
            "pair_structured": list(report.pair_structured),
            "pattern": pseudospec.structures.pattern_to_dict(pattern),
        }
        assert out.read_text() == json.dumps(doc, indent=1, sort_keys=True) + "\n"


class TestApprox:
    def test_cloud_written_with_expected_count(self, matrix_file, tmp_path):
        out = tmp_path / "cloud.csv"
        assert run("approx", matrix_file, "--angles", "1", "--pair", "0,1",
                   "--epsilon", "0.05", "--out", out) == 0
        cloud, header = io.load_cloud(str(out), dim_hint=5)
        assert len(cloud) == 2 * 1 * 5
        assert cloud.epsilon == 0.05
        assert header["matrix_sha256"] == io.matrix_hash(str(matrix_file))

    def test_deterministic_outputs(self, matrix_file, tmp_path):
        outs = []
        for name in ("c1.csv", "c2.csv"):
            out = tmp_path / name
            svg = tmp_path / (name + ".svg")
            assert run("approx", matrix_file, "--angles", "16",
                       "--baseline", "2", "--seed", "7",
                       "--out", out, "--svg", svg) == 0
            outs.append((out.read_bytes(), svg.read_bytes(),
                         (tmp_path / (name + ".baseline.csv")).read_bytes()))
        assert outs[0] == outs[1]

    def test_tiny_epsilon_far_from_the_origin_plots(self, tmp_path):
        # Eigenvalues 1e11 +/- 3e10i, whose spacing (about 1.5e-5) swallowed
        # a pad of 2 eps kappa and an absolute floor of 1e-6 alike; the
        # floor is 1e-6 * 2^37 here, on A's own scale.
        matrix = tmp_path / "far.json"
        io.save_matrix(str(matrix), np.array([[1e11, 3e10], [-3e10, 1e11]]))
        assert run("approx", matrix, "--angles", "8", "--epsilon", "1e-9",
                   "--out", tmp_path / "c.csv", "--svg", tmp_path / "c.svg") == 0
        # The oracle's window builds too; its 20x20 grid misses the tiny level set.
        grid = tmp_path / "g.csv"
        assert run("oracle", matrix, "--res", "20x20", "--eps-list", "1e-9", "--out", grid) == 3
        assert grid.exists()

    def test_svg_is_valid_and_plots_points(self, matrix_file, tmp_path):
        out = tmp_path / "cloud.csv"
        svg = tmp_path / "plot.svg"
        assert run("approx", matrix_file, "--angles", "8", "--out", out,
                   "--svg", svg) == 0
        text = svg.read_text()
        assert text.startswith("<?xml")
        assert "<svg" in text and "</svg>" in text
        assert text.count("<circle") >= 2 * 8 * 5


class TestOracle:
    def test_inclusion_check_passes(self, matrix_file, tmp_path):
        out = tmp_path / "cloud.csv"
        assert run("approx", matrix_file, "--angles", "20", "--out", out) == 0
        assert run("oracle", matrix_file, "--res", "20x20", "--check", out) == 0

    def test_hash_mismatch_rejected(self, matrix_file, tmp_path):
        out = tmp_path / "cloud.csv"
        assert run("approx", matrix_file, "--angles", "4", "--out", out) == 0
        other = tmp_path / "other.json"
        assert run("generate", "--family", "tridiag_toeplitz", "--n", "5",
                   "--seed", "3", "--out", other) == 0
        assert run("oracle", other, "--res", "20x20", "--check", out) == 2

    def test_grid_output_and_abscissa(self, matrix_file, tmp_path):
        grid = tmp_path / "grid.csv"
        assert run("oracle", matrix_file, "--res", "30x30",
                   "--eps-list", "0.1", "0.2", "--out", grid) == 0
        text = grid.read_text()
        assert text.count("\n") == 30 * 30 + 3
        assert "resolution=30x30" in text

    def test_empty_level_set_exit_code(self, matrix_file, tmp_path):
        assert run("oracle", matrix_file, "--res", "20x20",
                   "--bounds", "100,101,100,101", "--eps-list", "1e-6") == 3

    def test_bad_bounds_exit_code(self, matrix_file):
        assert run("oracle", matrix_file, "--bounds", "0,1,2") == 2

    def test_schur_failure_exits_3(self, matrix_file, tmp_path, monkeypatch, capsys):
        import scipy.linalg

        out = tmp_path / "cloud.csv"
        assert run("approx", matrix_file, "--angles", "4", "--out", out) == 0

        def failing_schur(*args, **kwargs):
            raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")

        monkeypatch.setattr(scipy.linalg, "schur", failing_schur)
        capsys.readouterr()
        assert run("oracle", matrix_file, "--check", out) == 3
        assert capsys.readouterr().err.startswith("numeric failure: Schur form not found")


class TestTrajectory:
    def test_writes_expected_points(self, matrix_file, tmp_path):
        out = tmp_path / "traj.csv"
        assert run("trajectory", matrix_file, "--eps-max", "0.1",
                   "--steps", "9", "--out", out) == 0
        cloud, _ = io.load_cloud(str(out), dim_hint=5)
        # two variants (raw and projected direction) x 5 eigenvalues x 9 steps
        assert len(cloud) == 2 * 5 * 9
        assert set(np.unique(cloud.angle_index)) == {0, 1}


class TestDefectiveExit:
    def test_numeric_failure_exit_code(self, tmp_path):
        path = tmp_path / "jordan.json"
        io.save_matrix(str(path), np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert run("analyze", path) == 3


ERROR_CLASSES = [
    c for c in vars(errors).values()
    if isinstance(c, type) and issubclass(c, errors.PseudospecError)
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_exit_code_follows_error_class(cls, monkeypatch, tmp_path, capsys):
    def fail(*args):
        raise cls("boom")

    monkeypatch.setattr(families, "generate", fail)
    code = run("generate", "--family", "tridiag_toeplitz", "--n", "5",
               "--seed", "0", "--out", tmp_path / "m.json")
    err = capsys.readouterr().err
    if issubclass(cls, errors.NumericFailure):
        assert (code, err) == (3, "numeric failure: boom\n")
    else:
        assert (code, err) == (2, "error: boom\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("declared", [None, toeplitz(2, {-1, 0, 1})], ids=["none", "toeplitz"])
def test_non_finite_entries_exit_2(tmp_path, capsys, value, declared):
    path = tmp_path / "m.json"
    io.save_matrix(str(path), np.eye(2), declared)
    doc = json.loads(path.read_text())
    doc["entries"][0][0] = value
    path.write_text(json.dumps(doc))
    assert run("analyze", path) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("doc", [
    [["1", "0"]],
    {"entries": [["1", "0"]] * 4},
    {"n": 2},
    {"n": "2", "entries": [["1", "0"]] * 4},
    {"n": 2, "entries": 4},
    {"n": 2, "entries": [["1", "0"], ["0", "0"], ["0"], ["1", "0"]]},
    {"n": 2, "entries": [["1", "0"], ["0", "0"], 0, ["1", "0"]]},
    {"n": 2, "entries": [["1", "0"], ["0", "0"], [None, "0"], ["1", "0"]]},
    {"n": True, "entries": [["1", "0"]]},
], ids=["not-object", "no-n", "no-entries", "n-not-int", "entries-not-list",
        "short-entry", "scalar-entry", "null-part", "n-bool"])
def test_malformed_matrix_file_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert run("analyze", path) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_matrix_file_nested_past_the_parser_limit_exit_2(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"n": 1, "entries": ' + "[" * 10_000 + "]" * 10_000 + "}")
    assert run("analyze", path) == 2
    assert capsys.readouterr() == ("", "error: a matrix file's JSON nests too deeply to parse\n")


@pytest.mark.parametrize("jordan", [False, True], ids=["tridiag", "jordan"])
@pytest.mark.parametrize("eps_max,steps,flag", [
    ("0.1", "0", "--steps"), ("0.1", "-3", "--steps"),
    ("-1", "5", "--eps-max"), ("nan", "5", "--eps-max"), ("inf", "5", "--eps-max"),
])
def test_bad_trajectory_grid_exit_2(matrix_file, tmp_path, capsys, jordan, eps_max, steps, flag):
    # Checked before the eigensolve, which fails the Jordan block with exit 3.
    if jordan:
        matrix_file = tmp_path / "jordan.json"
        io.save_matrix(str(matrix_file), np.eye(3) + np.eye(3, k=1))
    out = tmp_path / "traj.csv"
    assert run("trajectory", matrix_file, "--eps-max", eps_max,
               "--steps", steps, "--out", out) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} must be ")
    assert not out.exists()


def test_overflowing_trajectory_exit_2(tmp_path, capsys):
    # A finite --eps-max whose points overflow: the reader rejects inf rows.
    path, out = tmp_path / "p.json", tmp_path / "traj.csv"
    assert run("generate", "--family", "pentadiag_toeplitz", "--n", "8",
               "--seed", "1", "--out", path) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("trajectory", path, "--eps-max", "1.7e308", "--steps", "3", "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: eps grid up to 1.7")
    assert not out.exists()


@pytest.mark.parametrize("pair", ["0,99", "-1,0", "1,1"])
def test_bad_pair_exit_2(matrix_file, tmp_path, capsys, pair):
    assert run("approx", matrix_file, f"--pair={pair}", "--out", tmp_path / "c.csv") == 2
    assert capsys.readouterr().err.startswith("error: invalid eigenvalue pair")


def test_bad_pair_exit_2_before_the_eigensolve(tmp_path, capsys):
    # A Jordan block fails eig_pairs with exit 3; the pair is checked first.
    path, out = tmp_path / "jordan.json", tmp_path / "j.csv"
    io.save_matrix(str(path), np.eye(3) + np.eye(3, k=1))
    assert run("approx", path, "--pair", "0,99", "--out", out) == 2
    assert capsys.readouterr().err == "error: invalid eigenvalue pair (0, 99)\n"
    assert not out.exists()


def test_given_pair_and_epsilon_skip_the_estimate(tmp_path, capsys):
    # Eigenvalue 14 of this matrix is too ill-conditioned for the coalescence
    # estimate, which needs every kappa; the pair (20, 21) and its Wilkinson
    # directions are sound.
    matrix, out = tmp_path / "m.json", tmp_path / "c.csv"
    assert run("generate", "--family", "pentadiag_toeplitz", "--n", "40",
               "--seed", "65", "--out", matrix) == 0
    assert run("approx", matrix, "--epsilon", "1e-3", "--out", out) == 3
    assert "numerically defective" in capsys.readouterr().err
    assert run("approx", matrix, "--pair", "20,21", "--epsilon", "1e-3",
               "--angles", "8", "--out", out) == 0
    cloud, _ = io.load_cloud(str(out), dim_hint=40)
    assert len(cloud) == 2 * 8 * 40
    assert set(cloud.source_eigen) == {20, 21}
    # A bad index is reported as such, not as the estimate's failure.
    assert run("approx", matrix, "--pair", "0,99", "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: invalid eigenvalue pair (0, 99)")


_A4 = toeplitz_matrix(4, {-1: 2.0, 0: 1.0, 1: 0.5})
_T, _H, _K = toeplitz(4, {-2, -1, 0, 1, 2}), hamiltonian(2), hankel(4, {0, 1})
_T_INFERRED, _H_INFERRED = toeplitz(4, {-1, 0, 1}, real=True), hamiltonian(2, real=True)
_DECLARED = {"none": None, "toeplitz": _T, "hamiltonian": _H, "hankel": _K}
# flag -> expected pattern (or error) for declared none / toeplitz / hamiltonian / hankel
_RESOLVE_TABLE = {
    "auto": (full(4), _T, _H, _K),
    "full": (full(4), full(4), full(4), full(4)),
    "toeplitz": (_T_INFERRED, _T, _T_INFERRED, _T_INFERRED),
    "hankel": (BadParams, BadParams, BadParams, _K),
    "hamiltonian": (_H_INFERRED, _H_INFERRED, _H, _H_INFERRED),
}


@pytest.mark.parametrize("column,declared", enumerate(_DECLARED), ids=list(_DECLARED))
@pytest.mark.parametrize("flag", STRUCTURE_CHOICES)
def test_resolve_pattern_table(flag, column, declared):
    expected = _RESOLVE_TABLE[flag][column]
    if expected is BadParams:
        with pytest.raises(BadParams):
            _resolve_pattern(flag, _DECLARED[declared], _A4)
    else:
        assert _resolve_pattern(flag, _DECLARED[declared], _A4) == expected


def test_resolve_pattern_odd_hamiltonian_rejected():
    with pytest.raises(BadParams):
        _resolve_pattern("hamiltonian", None, np.eye(3, dtype=complex))


def test_cli_import_leaves_scipy_optimize_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(pseudospec.__file__).parents[1]))
    code = "import sys, pseudospec.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_main_runs_the_module_command_at_call_time(monkeypatch, matrix_file):
    calls = []

    def stub(args):
        calls.append(args.matrix)
        return 7

    monkeypatch.setattr(cli, "cmd_analyze", stub)
    assert run("analyze", matrix_file) == 7
    assert calls == [str(matrix_file)]


@pytest.mark.parametrize("structure", [
    {},
    {"kind": "toeplitz", "support": 5},
    "toeplitz",
    {"kind": 3},
    {"kind": "toeplitz", "support": [0, "1"]},
    {"kind": "hamiltonian", "n_half": 1.0},
    {"kind": "toeplitz", "support": [0], "real": "yes"},
    {"kind": "toeplitz", "support": [-1, False, True]},
], ids=["empty", "support-not-list", "not-object", "kind-not-string",
        "support-not-ints", "n_half-not-int", "real-not-bool", "support-bools"])
def test_malformed_structure_exit_2(tmp_path, capsys, structure):
    path = tmp_path / "m.json"
    io.save_matrix(str(path), np.eye(2))
    doc = json.loads(path.read_text())
    doc["structure"] = structure
    path.write_text(json.dumps(doc))
    assert run("analyze", path) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("A,structure", [
    (symplectic_j(2), {"kind": "hamiltonian"}),
    (symplectic_j(2), {"kind": "hamiltonian", "n_half": 1}),
    (np.eye(3), {"kind": "hamiltonian", "n_half": 1}),
    (np.eye(4), {"kind": "full", "n_half": 2}),
    (np.eye(4), {"kind": "toeplitz", "support": [0], "n_half": 2}),
    (np.eye(4)[::-1], {"kind": "hankel", "support": [0], "n_half": 2}),
], ids=["hamiltonian-missing", "hamiltonian-not-half", "hamiltonian-odd-dim", "full",
        "toeplitz", "hankel"])
def test_misplaced_n_half_exit_2(tmp_path, capsys, A, structure):
    # Each even-dimensional matrix is a member of its pattern, so only
    # n_half can reject it; no odd-dimensional Hamiltonian pattern exists.
    path = tmp_path / "m.json"
    io.save_matrix(str(path), A)
    doc = json.loads(path.read_text())
    doc["structure"] = structure
    path.write_text(json.dumps(doc))
    assert run("analyze", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n_half" in err


@pytest.mark.parametrize("family,structure,key", [
    ("tridiag_toeplitz", {"kind": "toeplitz", "support": [-1, 0, 1], "reel": True}, "'reel'"),
    ("tridiag_toeplitz", {"kind": "full", "support": [0]}, "'support'"),
    ("tridiag_toeplitz", {"kind": "full", "support": []}, "'support'"),
    ("hamiltonian_random", {"kind": "hamiltonian", "n_half": 2, "support": [0]}, "'support'"),
], ids=["misspelt-real", "support-on-full", "empty-support-on-full", "support-on-hamiltonian"])
def test_foreign_structure_key_exit_2(tmp_path, capsys, family, structure, key):
    # Without the named key, analyze reads each file with exit 0.
    path = tmp_path / "m.json"
    io.save_matrix(str(path), generate(family, 4, seed=0)[0])
    doc = json.loads(path.read_text())
    doc["structure"] = structure
    path.write_text(json.dumps(doc))
    assert run("analyze", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_zero_matrix_exit_3_without_warning(tmp_path, capsys):
    path = tmp_path / "m.json"
    io.save_matrix(str(path), np.zeros((2, 2)))
    assert run("analyze", path) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert "nan" not in err


@pytest.mark.parametrize("argv,named,outputs", [
    (["approx", "--epsilon", "nan", "--out", "c.csv"], "epsilon", ["c.csv"]),
    (["approx", "--epsilon", "inf", "--out", "c.csv"], "epsilon", ["c.csv"]),
    (["approx", "--baseline", "-1", "--out", "c.csv"], "baseline",
     ["c.csv", "c.csv.baseline.csv"]),
    (["oracle", "--check", "cloud.csv", "--slack", "nan", "--out", "g.csv"], "slack", ["g.csv"]),
    (["oracle", "--bounds", "0,1,0,inf", "--out", "g.csv"], "bounds", ["g.csv"]),
    (["oracle", "--eps-list", "-1", "--out", "g.csv"], "eps-list", ["g.csv"]),
    (["oracle", "--eps-list", "0", "--out", "g.csv"], "eps-list", ["g.csv"]),
    (["oracle", "--bounds=0,1,0,inf", "--check", "cloud.csv"], "bounds", []),
    (["oracle", "--res", "1x1", "--check", "cloud.csv"], "res", []),
    (["approx", "--baseline", "2", "--seed", "-1", "--out", "c.csv"], "--seed",
     ["c.csv", "c.csv.baseline.csv"]),
    (["approx", "--seed", "-1", "--out", "c.csv"], "--seed", ["c.csv"]),
    (["oracle", "--res", "4x4", "--bounds=-1.7e308,1.7e308,-1,1", "--out", "g.csv"], "--bounds",
     ["g.csv"]),
    # The window overflows only after the sweep, and the plot is built before any write.
    (["approx", "--epsilon", "1e308", "--out", "c.csv", "--svg", "p.svg"], "plot window",
     ["c.csv", "p.svg"]),
    (["approx", "--epsilon", "1e308", "--baseline", "2", "--out", "c.csv", "--svg", "p.svg"],
     "plot window", ["c.csv", "c.csv.baseline.csv", "p.svg"]),
    (["oracle", "--res", "4x4", "--eps-list", "1e308", "--out", "g.csv"],
     "--eps-list (choose one with --bounds)", ["g.csv"]),
], ids=["epsilon-nan", "epsilon-inf", "baseline-negative", "slack-nan", "bounds-inf",
        "eps-list-negative", "eps-list-zero", "check-bounds-inf", "check-res-1x1",
        "baseline-seed-negative", "seed-negative", "bounds-span-overflows", "svg-window-overflows",
        "svg-window-overflows-with-baseline", "eps-list-window-overflows"])
def test_bad_numeric_flag_exit_2_before_any_write(
    matrix_file, tmp_path, capsys, monkeypatch, argv, named, outputs
):
    monkeypatch.chdir(tmp_path)
    assert run("approx", matrix_file, "--angles", "4", "--out", "cloud.csv") == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv[0], matrix_file, *argv[1:])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and named in err
    assert not any((tmp_path / name).exists() for name in outputs)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cloud.csv", "m.json"]


def test_generate_negative_seed_exit_2_names_the_flag(tmp_path, capsys):
    assert run("generate", "--family", "tridiag_toeplitz", "--n", "5", "--seed", "-1",
               "--out", tmp_path / "m.json") == 2
    assert capsys.readouterr().err == "error: --seed must be nonnegative\n"
    assert not any(tmp_path.iterdir())


def test_svg_of_a_window_near_the_float_maximum_is_finite(matrix_file, tmp_path):
    # A finite window whose span times TICKS - 1 overflows: every tick is drawn.
    svg = tmp_path / "p.svg"
    assert run("approx", matrix_file, "--epsilon", "1e307", "--angles", "4",
               "--out", tmp_path / "c.csv", "--svg", svg) == 0
    text = svg.read_text()
    assert "inf" not in text and "nan" not in text
    assert text.count('<line x1="580" y1="580" x2="580" y2="586" stroke="black"/>') == 1


def test_oracle_res_default_is_the_library_default():
    args = build_parser().parse_args(["oracle", "m.json"])
    assert args.res == "x".join(str(r) for r in pseudospec.oracle.DEFAULT_RESOLUTION)


_REQUIRED_CLOUD_LINES = (
    "epsilon", "pattern", "kind", "angles", "samples", "seed", "matrix_sha256", "dim",
)
# id -> (regex, replacement) applied to the first matching line of the sweep
# CSV of the 5x5 ``matrix_file``; None checks a file that does not exist.
_CLOUD_TAMPERING = {
    "dim-string": (r"^# dim=5$", '# dim="5"'),
    "dim-3-for-5x5": (r"^# dim=5$", "# dim=3"),
    "epsilon-nan": (r"^# epsilon=.*$", "# epsilon=nan"),
    "unknown-key": (r"^(# real=true)$", r"\1\n# reel=false"),
    "repeated-epsilon": (r"^(# epsilon=.*)$", r"\1\n# epsilon=10"),
    "nan-point": (r"^(re,im,.*\n)[^\n]*$", r"\1nan,0,0,0,0"),
    "inf-point": (r"^(re,im,.*\n)[^\n]*$", r"\1inf,0,0,0,0"),
    **{f"no-{key}-line": (rf"^# {key}=.*\n", "") for key in _REQUIRED_CLOUD_LINES},
    "no-column-line": (r"^re,im,.*\n", ""),
    "n_half-on-toeplitz": (r"^(# support=.*)$", r"\1\n# n_half=2"),
    # The sweep's pattern line turned to full, with support=[0] in place of its support line.
    "support-on-full": (r"^# pattern=toeplitz$((?s:.*))^# support=.*$", r"# pattern=full\1# support=[0]"),
    # The header's values and rows must follow the sweep layout: 2 x 4 rows of 5 points.
    "kind-bogus": (r"^# kind=.*$", "# kind=bogus"),
    "pair-out-of-range": (r"^# pair=.*$", "# pair=[0, 99]"),
    "angles-edited": (r"^# angles=4$", "# angles=3"),
    "samples-on-sweep": (r"^# samples=0$", "# samples=7"),
    "provenance-row-edited": (r"^([^,\n]*,[^,\n]*),\d+,\d+,\d+\n\Z", r"\1,1,999,-7\n"),
    "last-row-cut": (r"^[^\n]*\n\Z", ""),
    "missing-file": None,
}


# key -> (regex, replacement) giving the key's line of the sweep CSV of the
# 5x5 ``matrix_file`` a value that does not parse.
_UNPARSABLE_HEADER_VALUES = {
    "angles": (r"^# angles=4$", "# angles=x"),
    "samples": (r"^# samples=0$", "# samples=x"),
    "seed": (r"^# seed=$", "# seed=x"),
    "epsilon": (r"^# epsilon=.*$", "# epsilon=abc"),
    "pair": (r"^# pair=.*$", "# pair=[0,"),
    "dim": (r"^# dim=5$", "# dim=["),
    # Nested past the JSON parser's recursion limit.
    "support": (r"^# support=.*$", "# support=" + "[" * 10_000 + "]" * 10_000),
}


def _tampered_cloud(matrix_file, tmp_path, edit):
    path = tmp_path / "tampered.csv"
    assert run("approx", matrix_file, "--angles", "4", "--out", path) == 0
    text = path.read_text()
    if edit is None:
        path.unlink()
    else:
        tampered = re.sub(*edit, text, count=1, flags=re.MULTILINE)
        assert tampered != text
        path.write_text(tampered)
    return path


@pytest.mark.parametrize("edit", list(_CLOUD_TAMPERING.values()), ids=list(_CLOUD_TAMPERING))
def test_tampered_cloud_exit_2_before_any_write(matrix_file, tmp_path, capsys, edit):
    cloud = _tampered_cloud(matrix_file, tmp_path, edit)
    capsys.readouterr()
    grid = tmp_path / "g.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("oracle", matrix_file, "--res", "20x20", "--check", cloud, "--out", grid)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not grid.exists()


@pytest.mark.parametrize("key", list(_UNPARSABLE_HEADER_VALUES))
def test_unparsable_header_value_exit_2_naming_its_line(matrix_file, tmp_path, capsys, key):
    cloud = _tampered_cloud(matrix_file, tmp_path, _UNPARSABLE_HEADER_VALUES[key])
    capsys.readouterr()
    assert run("oracle", matrix_file, "--res", "20x20", "--check", cloud) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key!r}" in err


def test_tampered_cloud_module_run_exit_2_without_traceback(matrix_file, tmp_path):
    cloud = _tampered_cloud(matrix_file, tmp_path, _CLOUD_TAMPERING["dim-string"])
    env = dict(os.environ, PYTHONPATH=str(Path(pseudospec.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-m", "pseudospec.cli", "oracle", str(matrix_file),
         "--res", "20x20", "--check", str(cloud)],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr


def test_header_only_cloud_exit_2_before_any_write(matrix_file, tmp_path, capsys):
    cloud = _tampered_cloud(matrix_file, tmp_path, (r"^(re,im,.*\n)(?s:.*)", r"\1"))
    assert len(io.load_cloud(str(cloud), dim_hint=5)[0]) == 0
    capsys.readouterr()
    grid = tmp_path / "g.csv"
    assert run("oracle", matrix_file, "--res", "20x20", "--check", cloud, "--out", grid) == 2
    assert capsys.readouterr() == ("", "error: cloud file holds no points\n")
    assert not grid.exists()


def test_oracle_bounds_grid_of_jordan_block(tmp_path):
    # Defective, so eig_pairs fails on it; explicit bounds need no eigensolve.
    J = np.eye(3, k=1)
    path, grid = tmp_path / "jordan.json", tmp_path / "g.csv"
    io.save_matrix(str(path), J)
    assert run("oracle", path, "--bounds=-1,3,-2,2", "--res", "8x6",
               "--eps-list", "0.1", "--out", grid) == 0
    rows = np.loadtxt(grid, delimiter=",", skiprows=3)
    assert rows.shape == (8 * 6, 3)
    expected = [
        np.linalg.svd(J - complex(re_, im) * np.eye(3), compute_uv=False)[-1]
        for re_, im, _ in rows
    ]
    np.testing.assert_allclose(rows[:, 2], expected, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("flag", ["--res=10", "--bounds=0,1,2", "--res=1x1", "--bounds=1,0,0,1"])
def test_oracle_flags_rejected_before_eigensolve(tmp_path, capsys, flag):
    path = tmp_path / "zero.json"
    io.save_matrix(str(path), np.zeros((3, 3)))
    assert run("oracle", path, flag) == 2
    assert capsys.readouterr().err.startswith("error: --")


def test_negative_n_exit_2_names_n(tmp_path, capsys):
    # n * n = 1 matches the one entry, so only the sign of n can reject it.
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": -1, "entries": [["1", "0"]]}))
    assert run("analyze", path) == 2
    assert capsys.readouterr().err.startswith("error: 'n' must be nonnegative")


def test_oracle_check_alone_computes_no_grid(matrix_file, tmp_path, capsys, monkeypatch):
    cloud = tmp_path / "cloud.csv"
    assert run("approx", matrix_file, "--angles", "20", "--out", cloud) == 0
    assert run("oracle", matrix_file, "--res", "20x20", "--check", cloud,
               "--out", tmp_path / "g.csv") == 0
    with_grid = capsys.readouterr().out.splitlines()[-1]
    assert with_grid.startswith("inclusion check: pass 100.0%")

    def no_grid(*args, **kwargs):
        raise AssertionError("no output reads the window or the grid")

    monkeypatch.setattr(pseudospec.oracle, "grid_field", no_grid)
    monkeypatch.setattr(cli, "eig_pairs", no_grid)
    assert run("oracle", matrix_file, "--check", cloud) == 0
    assert capsys.readouterr().out.splitlines() == [with_grid]


@pytest.mark.parametrize("argv,message", [
    (["oracle", "--res=10x", "--check", "c.csv"], "--res expects NxM"),
    (["oracle", "--bounds=0,1,a,b", "--out", "g.csv"],
     "--bounds expects re_min,re_max,im_min,im_max"),
    (["approx", "--pair=1", "--out", "c.csv"], "--pair expects i,j"),
], ids=["res-10x", "bounds-letters", "pair-one-index"])
def test_malformed_flag_value_names_the_flag(matrix_file, tmp_path, capsys, monkeypatch,
                                             argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(argv[0], matrix_file, *argv[1:]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["m.json"]


def test_oracle_without_output_exit_2_before_loading(tmp_path, capsys):
    assert run("oracle", tmp_path / "missing.json") == 2
    assert capsys.readouterr().err == (
        "error: oracle needs at least one of --out, --eps-list and --check\n"
    )


def test_empty_level_set_still_prints_the_inclusion_verdict(matrix_file, tmp_path, capsys):
    cloud = tmp_path / "c.csv"
    assert run("approx", matrix_file, "--angles", "20", "--out", cloud) == 0
    capsys.readouterr()
    assert run("oracle", matrix_file, "--res", "20x20", "--check", cloud) == 0
    verdict = capsys.readouterr().out
    assert verdict.startswith("inclusion check: pass 100.0% (200/200)")
    assert run("oracle", matrix_file, "--res", "20x20", "--eps-list", "0.5", "1e-9",
               "--check", cloud) == 3
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == [verdict.strip()]
    assert out.startswith("eps=5.000000e-01: abscissa=")
    assert err == "numeric failure: epsilon level set does not intersect the window\n"


def test_failed_inclusion_check_exit_3(matrix_file, tmp_path, capsys):
    # The sweep's own epsilon, lowered tenfold in the header (written with
    # 17 digits, as the writer does), is too small for most of its points.
    cloud = tmp_path / "c.csv"
    assert run("approx", matrix_file, "--angles", "20", "--out", cloud) == 0
    lines = cloud.read_text().splitlines(keepends=True)
    (at,) = [k for k, line in enumerate(lines) if line.startswith("# epsilon=")]
    lines[at] = f"# epsilon={float(lines[at][len('# epsilon='):]) / 10:.17g}\n"
    cloud.write_text("".join(lines))
    capsys.readouterr()
    assert run("oracle", matrix_file, "--check", cloud) == 3
    out, err = capsys.readouterr()
    assert out.startswith("inclusion check: pass 30.0% (60/200), worst sigma_min=")
    assert err == "numeric failure: cloud inclusion check failed\n"


def test_linalg_error_in_a_worker_slice_exit_3(engine_workers, monkeypatch, matrix_file,
                                              tmp_path, capsys):
    monkeypatch.setattr(numkernel, "STACK_ENTRIES", 4 * 25)
    calls = itertools.count()
    eigvals = np.linalg.eigvals

    def failing_eigvals(stack):
        if next(calls) == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(stack)

    monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
    out = tmp_path / "c.csv"
    assert run("approx", matrix_file, "--angles", "20", "--out", out) == 3
    assert capsys.readouterr().err == "numeric failure: Eigenvalues did not converge\n"
    assert not out.exists()


def test_failed_baseline_writes_no_output(engine_workers, monkeypatch, matrix_file,
                                          tmp_path, capsys):
    # The sweep's stacked eigensolves succeed and every one of the baseline's fails.
    monkeypatch.setattr(numkernel, "STACK_ENTRIES", 4 * 25)
    calls = itertools.count()
    eigvals = np.linalg.eigvals

    def counted_eigvals(stack):
        if next(calls) >= sweep_calls:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(stack)

    sweep_calls = np.inf
    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    (tmp_path / "sweep").mkdir()
    assert run("approx", matrix_file, "--angles", "20", "--out", tmp_path / "sweep" / "c.csv") == 0
    sweep_calls, calls = next(calls), itertools.count()
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert run("approx", matrix_file, "--angles", "20", "--baseline", "2",
               "--out", "c.csv", "--svg", "p.svg") == 3
    assert capsys.readouterr() == ("", "numeric failure: Eigenvalues did not converge\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "sweep"]


@pytest.mark.parametrize("argv,step", [
    (["generate", "--family", "tridiag_toeplitz", "--n", "5", "--seed", "0", "--out", "g.json"],
     (families, "generate")),
    (["approx", "{m}", "--angles", "4", "--baseline", "2", "--out", "c.csv", "--svg", "p.svg"],
     (cli.approx_mod, "random_cloud")),
    (["oracle", "{m}", "--res", "4x4", "--out", "g.csv"], (cli.oracle, "grid_field")),
], ids=["generate", "approx-baseline", "oracle-grid"])
def test_memory_error_exit_2_without_traceback(matrix_file, tmp_path, capsys, monkeypatch,
                                               argv, step):
    message = "Unable to allocate 149. GiB for an array with shape (4000000, 1000, 5)"

    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(*step, too_large)
    monkeypatch.chdir(tmp_path)
    assert run(*(a.format(m=matrix_file) for a in argv)) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_cli_import_and_parser_start_no_thread():
    # scipy.linalg imports concurrent.futures itself; the executor module
    # and the pool's threads come only with the first stack that splits.
    env = dict(os.environ, PYTHONPATH=str(Path(pseudospec.__file__).parents[1]))
    code = (
        "import sys, threading, pseudospec.cli as cli; cli.build_parser(); "
        "from pseudospec import numkernel; "
        "print(threading.active_count(), 'concurrent.futures.thread' in sys.modules, "
        "numkernel._pool.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["1", "False", "0"]


# id -> (header key, file, regex, replacement): a value that parses to the
# one written, in text the writer does not write.  The files are the sweep
# and baseline CSVs of pentadiag_toeplitz n = 5 seed 2 (40 angles, 2 samples).
_UNWRITTEN_HEADER_VALUES = {
    "angles-underscore": ("angles", "sweep", r"^# angles=40$", "# angles=4_0"),
    "angles-padded-sign": ("angles", "sweep", r"^# angles=40$", "# angles= +40 "),
    "epsilon-padded": ("epsilon", "sweep", r"^# epsilon=(.*)$", r"# epsilon= \1 "),
    "epsilon-other-digits": ("epsilon", "sweep", r"^# epsilon=(.*)$",
                             lambda m: f"# epsilon={float(m[1]):.20e}"),
    "seed-underscore": ("seed", "baseline", r"^# seed=0$", "# seed=0_0"),
    "samples-plus": ("samples", "baseline", r"^# samples=2$", "# samples=+2"),
    "dim-padded": ("dim", "sweep", r"^# dim=5$", "# dim= 5"),
    "pair-unspaced": ("pair", "sweep", r"^# pair=\[(\d+), (\d+)\]$", r"# pair=[\1,\2]"),
    "real-padded": ("real", "sweep", r"^# real=false$", "# real=false "),
    "support-unspaced": ("support", "baseline", r"^# support=(.*)$",
                         lambda m: "# support=" + m[1].replace(" ", "")),
}


@pytest.mark.parametrize("key,which,pattern,replacement", list(_UNWRITTEN_HEADER_VALUES.values()),
                         ids=list(_UNWRITTEN_HEADER_VALUES))
def test_header_value_not_in_the_writers_text_exit_2_naming_its_line(
    tmp_path, capsys, key, which, pattern, replacement
):
    matrix, cloud = tmp_path / "m.json", tmp_path / "c.csv"
    assert run("generate", "--family", "pentadiag_toeplitz", "--n", "5", "--seed", "2",
               "--out", matrix) == 0
    assert run("approx", matrix, "--angles", "40", "--baseline", "2", "--out", cloud) == 0
    path = cloud if which == "sweep" else Path(f"{cloud}.baseline.csv")
    assert run("oracle", matrix, "--check", path) == 0
    text = path.read_text()
    edited = re.sub(pattern, replacement, text, count=1, flags=re.MULTILINE)
    assert edited != text
    path.write_text(edited)
    capsys.readouterr()
    assert run("oracle", matrix, "--check", path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cloud header line {key!r} is not written as ")


def _failing_eig(B, **kw):
    raise np.linalg.LinAlgError("eig algorithm did not converge")


_HAMILTONIAN_8 = generate("hamiltonian_random", 8, 1)[0].real


@pytest.mark.parametrize("A,patch,error", [
    (np.zeros((3, 3)), None, errors.DefectiveInput),
    (np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]]), None, errors.DefectiveInput),
    (_HAMILTONIAN_8, (numkernel.scipy.linalg, "eig", _failing_eig), errors.NonConvergence),
    (_HAMILTONIAN_8, (numkernel, "TOL_EIG", 0.0), errors.NonConvergence),
    (_HAMILTONIAN_8, (pseudospec.sensitivity, "OVERLAP_TOL", 1.0), errors.VanishingOverlap),
], ids=["zero", "jordan", "linalg-error", "residual", "vanishing-overlap"])
def test_real_input_failures_stay_typed(tmp_path, capsys, monkeypatch, A, patch, error):
    # Real matrices take dgeev; each failure keeps its class and exit 3.
    if patch:
        monkeypatch.setattr(*patch)
    path = tmp_path / "m.json"
    io.save_matrix(str(path), A)
    with pytest.raises(error):
        pseudospec.sensitivity.analyze(numkernel.eig_pairs(A), full(len(A)))
    capsys.readouterr()
    assert run("analyze", path) == 3
    assert capsys.readouterr().err.startswith("numeric failure: ")


def _saved_matrix(tmp_path, A):
    path = tmp_path / "big.json"
    io.save_matrix(str(path), A)
    return path


# np.linalg.norm overflows near 1e154 (membership read inf <= inf) and loses
# entries below about 1e-154 (it read ||A||_F as 0); the scaled norm does
# neither.  A tolerance floored at 1e-300 took any subnormal matrix for a member.
@pytest.mark.parametrize("A", [
    1e300 * np.arange(1.0, 17.0).reshape(4, 4),
    1e-170 * np.random.default_rng(1).standard_normal((4, 4)),
    1e-315 * np.random.default_rng(1).standard_normal((4, 4)),
], ids=["huge", "tiny", "subnormal"])
def test_extreme_non_member_rejected_without_warning(tmp_path, capsys, A):
    path = _saved_matrix(tmp_path, A)
    doc = json.loads(path.read_text())
    doc["structure"] = {"kind": "hamiltonian", "n_half": 2, "real": True}
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("analyze", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "hamiltonian" in err


# The tiny matrix has a stray 1e-290 at (0, 4): far below 1e-12 ||A||_F.
# The last one has ||A||_F above the float maximum, which made the
# threshold inf and the support empty.
@pytest.mark.parametrize("diagonals,stray", [
    ({-1: 3 * 1e300, 0: 1e300, 1: 2 * 1e300}, 0.0),
    ({-1: 3 * 1e-170, 0: 1e-170, 1: 2 * 1e-170}, 1e-290),
    ({-1: 5e307, 0: 8e307, 1: 5e307}, 0.0),
], ids=["huge", "tiny", "norm-overflows"])
def test_extreme_toeplitz_support_found_without_warning(tmp_path, diagonals, stray):
    A = toeplitz_matrix(5, diagonals)
    A[0, 4] = stray
    path = _saved_matrix(tmp_path, A)
    report = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("analyze", path, "--structure", "toeplitz", "--json-out", report) == 0
    assert json.loads(report.read_text())["pattern"]["support"] == [-1, 0, 1]


def test_huge_spectrum_pair_search_without_warning(tmp_path):
    # Eigenvalues near +-1.47e308i: their difference overflowed the pair search.
    A = generate("hamiltonian_random", 4, seed=0)[0]
    factor = 1.5e308 / np.abs(A).max()
    path = _saved_matrix(tmp_path, A * factor)
    reports = [tmp_path / "big-report.json", tmp_path / "report.json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("analyze", path, "--structure", "full", "--json-out", reports[0]) == 0
    io.save_matrix(str(path), A)
    assert run("analyze", path, "--structure", "full", "--json-out", reports[1]) == 0
    big, base = (json.loads(r.read_text()) for r in reports)
    assert big["pair"] == base["pair"]
    assert 0.0 < big["epsilon"] < np.inf
    np.testing.assert_allclose(big["epsilon"], factor * base["epsilon"], rtol=1e-12)


def _huge_declared(kind):
    """Declared matrices whose projection sums overflowed the float range."""
    if kind == "toeplitz":
        A = toeplitz_matrix(5, {-1: 5e307, 0: 8e307, 1: 5e307}).real
        return A, toeplitz(5, [-1, 0, 1], real=True)
    A, pattern, _ = generate("hamiltonian_random", 4, seed=0)
    return A * (1.5e308 / np.abs(A).max()), pattern


@pytest.mark.parametrize("kind", ["toeplitz", "hamiltonian"])
def test_huge_declared_structure_loads_without_warning(tmp_path, kind):
    A, pattern = _huge_declared(kind)
    path = tmp_path / "m.json"
    io.save_matrix(str(path), A, pattern)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("analyze", path) == 0


# Largest eigenvalue about 3.2e308: it was printed as inf after an ldexp overflow.
@pytest.mark.parametrize("declared", [None, toeplitz(5, [-1, 0, 1], real=True)],
                         ids=["undeclared", "declared"])
@pytest.mark.parametrize("command,extra", [
    ("analyze", ["--structure", "full", "--json-out"]),
    ("analyze", ["--json-out"]),
    ("approx", ["--out"]),
    ("oracle", ["--out"]),
    ("trajectory", ["--eps-max", "0.1", "--steps", "3", "--out"]),
], ids=["analyze-full", "analyze-auto", "approx", "oracle", "trajectory"])
def test_spectrum_beyond_the_float_range_exits_3(tmp_path, capsys, declared, command, extra):
    path = tmp_path / "m.json"
    io.save_matrix(str(path), toeplitz_matrix(5, {-1: 1e308, 0: 1.5e308, 1: 1e308}).real, declared)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, path, *extra, out) == 3
    assert "float range" in capsys.readouterr().err
    assert not out.exists()
