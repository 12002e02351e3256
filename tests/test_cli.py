import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from silverprox.cli import (MAX_DIM, MAX_TRIALS, MAX_WORK, _require_dim_and_seed, build_parser,
                            main)
from silverprox.exactnum import rho_pow
from silverprox.solver import random_quadratic_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_schedule_exact_output(capsys):
    code, out, _ = run(capsys, "schedule", "--k", "2", "--seq", "pi")
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines == [
        "0/1 + 1/1*sqrt2",
        "2/1 + 0/1*sqrt2",
        "0/1 + 1/1*sqrt2",
    ]


def test_schedule_exact_c_output(capsys):
    code, out, _ = run(capsys, "schedule", "--k", "3", "--seq", "c")
    assert code == 0
    assert out.splitlines() == [
        "# c k=3 entries=7",
        "0/1 + 1/1*sqrt2",
        "2/1 + 0/1*sqrt2",
        "0/1 + 1/1*sqrt2",
        "4/1 + 0/1*sqrt2",
        "-4/1 + 4/1*sqrt2",
        "10/1 + -4/1*sqrt2",
        "0/1 + 8/1*sqrt2",
    ]


def test_schedule_float_shape(capsys):
    code, out, _ = run(capsys, "schedule", "--k", "5", "--float", "--seq", "pi")
    assert code == 0
    values = [float(line) for line in out.splitlines() if not line.startswith("#")]
    assert len(values) == 31
    # one tall peak in the middle, matching rho**(j-1) + 1 at positions 2**j - 1
    assert max(values) == values[15]
    for j in range(1, 5):
        expected = float(rho_pow(j - 1)) + 1.0
        assert values[2**j - 1] == pytest.approx(expected, rel=1e-12)


def test_schedule_csv(tmp_path, capsys):
    path = tmp_path / "sched.csv"
    code, _, _ = run(capsys, "schedule", "--k", "3", "--csv", str(path))
    assert code == 0
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["sequence", "index", "a_num", "a_den", "b_num", "b_den", "float"]
    assert len(rows) == 1 + 2 * 7  # header + pi and c sections
    pi_rows = [r for r in rows[1:] if r[0] == "pi"]
    assert pi_rows[0][1:] == ["0", "0", "1", "1", "1", repr(math.sqrt(2))]


def test_schedule_rejects_range(capsys):
    code, _, err = run(capsys, "schedule", "--k", "1..3")
    assert code == 2
    assert "single k" in err


def test_cert_verify_pass(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "cert", "verify", "--k", "1..3", "--trials", "5", "--dim", "3",
        "--seed", "7", "--json", str(path),
    )
    assert code == 0
    assert out.count("OK") == 3
    payload = json.loads(path.read_text())
    assert payload["schema"] == "silverprox.cert/1"
    assert [r["k"] for r in payload["results"]] == [1, 2, 3]
    first = payload["results"][0]
    assert first["n"] == 1
    assert first["nonneg"] == first["laplacian"] == first["schur"] == "pass"
    assert first["identity"] == {"trials": 5, "failures": 0}
    assert first["rate_exact"] == "1/14 + 3/28*sqrt2"
    assert first["rate_float"] == pytest.approx(0.22295, abs=1e-4)


def test_cert_verify_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run(
            capsys, "cert", "verify", "--k", "1..2", "--seed", "3",
            "--trials", "4", "--json", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_solve_rejects_k_range(capsys):
    code, _, err = run(capsys, "solve", "--problem", "lasso", "--k", "1..3")
    assert code == 2
    assert "single k" in err


def test_cert_verify_tamper_fails(capsys):
    for target in ("lambda", "mu", "slack", "u"):
        code, out, _ = run(
            capsys, "cert", "verify", "--k", "1", "--trials", "5", "--tamper", target
        )
        assert code == 1
        assert "FAIL" in out


@pytest.mark.parametrize(
    "target, detail",
    [
        ("lambda", "identity trial 0: lhs - rhs = -107/2 + 14/1*sqrt2"),
        ("mu", "identity trial 0: lhs - rhs = 20/1 + 6/1*sqrt2"),
        ("slack", "S[0][0] = 1/1 + 1/2*sqrt2, not 0/1 + 1/2*sqrt2; "
                  "identity trial 0: lhs - rhs = 27/2 + 0/1*sqrt2"),
        ("u", "identity trial 0: lhs - rhs = 79/2 + -60/1*sqrt2"),
    ],
    ids=["lambda", "mu", "slack", "u"],
)
def test_cert_verify_tamper_names_identity_residual(capsys, target, detail):
    code, out, _ = run(capsys, "cert", "verify", "--k", "2", "--tamper", target)
    assert code == 1
    assert out.splitlines()[1] == f"  {detail}"


def test_invalid_k_is_usage_error(capsys):
    code, _, err = run(capsys, "cert", "verify", "--k", "0")
    assert code == 2
    assert "usage" in err.lower()
    code, _, _ = run(capsys, "cert", "verify", "--k", "abc")
    assert code == 2


def test_max_k_cap(capsys, monkeypatch):
    monkeypatch.setenv("SILVERPROX_MAX_K", "3")
    code, _, err = run(capsys, "cert", "verify", "--k", "4", "--trials", "2")
    assert code == 2
    assert "SILVERPROX_MAX_K" in err
    monkeypatch.setenv("SILVERPROX_MAX_K", "10")
    code, _, _ = run(capsys, "cert", "verify", "--k", "4", "--trials", "2")
    assert code == 0
    monkeypatch.setenv("SILVERPROX_MAX_K", "abc")
    code, _, err = run(capsys, "cert", "verify", "--k", "4", "--trials", "2")
    assert code == 2
    assert "SILVERPROX_MAX_K must be an integer" in err


def test_solve_lower_bound_exact(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "solve", "--problem", "lower-bound", "--k", "2", "--exact",
        "--csv", str(path),
    )
    assert code == 0
    assert "-1/8 + 1/8*sqrt2" in out
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["iter", "stepsize", "F_gap", "dist_to_opt", "bound_at_milestone"]
    assert len(rows) == 1 + 4  # header + iterates 0..3
    final = rows[-1]
    assert float(final[2]) == pytest.approx(0.051777, abs=1e-6)
    assert final[4] != ""  # n = 3 is a milestone


def test_solve_random_instances(capsys):
    for problem in ("lasso", "box-qp", "vanilla-qp"):
        code, out, _ = run(
            capsys, "solve", "--problem", problem, "--k", "3", "--seed", "5",
            "--dim", "6",
        )
        assert code == 0
        assert "certificate bound" in out


def test_solve_exact_only_for_lower_bound(capsys):
    code, _, err = run(capsys, "solve", "--problem", "lasso", "--k", "2", "--exact")
    assert code == 2
    assert "lower-bound" in err


def _bound_cells(tmp_path, capsys, *argv):
    path = tmp_path / "trace.csv"
    code, _, _ = run(capsys, "solve", *argv, "--csv", str(path))
    assert code == 0
    with open(path, newline="") as handle:
        return {int(r["iter"]): (float(r["F_gap"]), r["bound_at_milestone"])
                for r in csv.DictReader(handle)}


def test_solve_bound_only_for_silver_or_unit_steps(tmp_path, capsys):
    # 0.1 * the unit step is slower than the unit-step baseline M d^2 / (4n):
    # this run has gap 0.120 at iteration 3, above that baseline's 0.0628
    base = ("--problem", "vanilla-qp", "--k", "6", "--seed", "1")
    cells = _bound_cells(tmp_path, capsys, *base, "--schedule", "constant:0.1")
    assert cells[3][0] > 0.1
    assert all(bound == "" for _, bound in cells.values())
    milestones = {1, 3, 7, 15, 31, 63}
    for schedule in ("silver", "constant", "constant:1"):
        cells = _bound_cells(tmp_path, capsys, *base, "--schedule", schedule)
        assert {i for i, (_, bound) in cells.items() if bound} == milestones
        for i in milestones:
            gap, bound = cells[i]
            assert gap <= float(bound) * (1 + 1e-9) + 1e-12


@pytest.mark.parametrize("schedule, last_line", [
    ("constant", "unit-step bound = 0.003968253968253968"),
    ("constant:0.01", "final F gap = 0.0025340775929678723"),
])
def test_solve_prints_only_the_bound_that_applies(capsys, schedule, last_line):
    code, out, _ = run(capsys, "solve", "--problem", "lower-bound", "--k", "6",
                       "--schedule", schedule)
    assert code == 0
    assert out.splitlines()[-1] == last_line


def test_solve_constant_schedule(capsys):
    code, out, _ = run(
        capsys, "solve", "--problem", "lower-bound", "--k", "2",
        "--schedule", "constant:1.5",
    )
    assert code == 0
    code, _, _ = run(
        capsys, "solve", "--problem", "lower-bound", "--k", "2",
        "--schedule", "constant:-1",
    )
    assert code == 2
    code, _, err = run(
        capsys, "solve", "--problem", "lower-bound", "--k", "3", "--exact",
        "--schedule", "constant:2",
    )
    assert code == 2
    assert "exact mode supports only constant:1" in err


@pytest.mark.parametrize("argv", [
    ("solve", "--problem", "lasso", "--k", "2", "--dim", "0"),
    ("bench", "--k", "1..2", "--dim", "0"),
    ("solve", "--problem", "lower-bound", "--k", "2", "--schedule", "constant:nan"),
    ("solve", "--problem", "lower-bound", "--k", "2", "--schedule", "constant:inf"),
    ("solve", "--problem", "lower-bound", "--k", "2", "--schedule", "constant:abc"),
    ("solve", "--problem", "lasso", "--k", "2", "--seed", "-1"),
    ("bench", "--k", "1..2", "--seed", "-1"),
    ("solve", "--problem", "lower-bound", "--k", "2", "--schedule", "constantXYZ"),
    ("solve", "--problem", "lower-bound", "--k", "2", "--schedule", "constantly"),
    ("solve", "--problem", "lower-bound", "--k", "2", "--schedule", "constant:"),
    ("cert", "verify", "--k", "2", "--seed", "-5"),
    ("cert", "verify", "--k", "1", "--dim", "0"),
])
def test_bad_argument_is_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("usage error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("solve", "--problem", "lasso", "--k", "2", "--dim", "99999999999"),
    ("solve", "--problem", "vanilla-qp", "--k", "1", "--dim", str(MAX_DIM + 1)),
    ("bench", "--k", "1", "--dim", str(MAX_DIM + 1)),
    ("cert", "verify", "--k", "1", "--dim", "10000000000000"),
    ("cert", "verify", "--k", "1", "--dim", str(MAX_DIM + 1)),
])
def test_dim_above_the_bound_is_refused_before_anything_is_built(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{argv[0]} built inputs for --dim {argv[-1]}")

    for name in ("random_quadratic_instance", "build_bundle", "verify_descent_identity"):
        monkeypatch.setattr(f"silverprox.cli.{name}", refuse)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"usage error: --dim must be between 1 and {MAX_DIM}\n")


def test_dim_bound_is_inclusive():
    _require_dim_and_seed(SimpleNamespace(dim=MAX_DIM, seed=0))


@pytest.mark.parametrize("trials", ["10000000000000", str(MAX_TRIALS + 1)])
def test_trials_above_the_bound_are_refused_before_anything_is_built(capsys, monkeypatch, trials):
    def refuse(*args, **kwargs):
        raise AssertionError(f"cert verify built inputs for --trials {trials}")

    for name in ("build_bundle", "verify_descent_identity"):
        monkeypatch.setattr(f"silverprox.cli.{name}", refuse)
    code, _, err = run(capsys, "cert", "verify", "--k", "1", "--trials", trials)
    assert code == 2
    assert err.startswith(f"usage error: --trials must be between 1 and {MAX_TRIALS}\n")


def test_trials_bound_is_inclusive(capsys):
    code, out, _ = run(capsys, "cert", "verify", "--k", "1", "--trials", str(MAX_TRIALS),
                       "--dim", "1")
    assert code == 0
    assert f"identity={MAX_TRIALS}/{MAX_TRIALS}" in out


@pytest.mark.parametrize("argv", [
    ("--k", "8", "--trials", str(MAX_TRIALS), "--dim", str(MAX_DIM)),
    ("--k", "1..8", "--trials", "2", "--dim", str(MAX_DIM)),  # n from the largest order
])
def test_work_above_the_bound_is_refused_before_anything_is_built(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError(f"cert verify built inputs for {argv}")

    for name in ("build_bundle", "verify_descent_identity"):
        monkeypatch.setattr(f"silverprox.cli.{name}", refuse)
    code, _, err = run(capsys, "cert", "verify", *argv)
    assert code == 2
    work = int(argv[3]) * int(argv[5]) * 255
    assert err.startswith(
        f"usage error: --trials x --dim x n = {work} exceeds the limit {MAX_WORK}\n")


def test_work_bound_is_inclusive(monkeypatch):
    # One k=8 trial at the largest --dim is exactly the limit, and gets past every check.
    class Reached(Exception):
        pass

    def reached(k, args):
        raise Reached

    monkeypatch.setattr("silverprox.cli._verify_one", reached)
    assert 1 * MAX_DIM * 255 == MAX_WORK
    with pytest.raises(Reached):
        main(["cert", "verify", "--k", "1..8", "--trials", "1", "--dim", str(MAX_DIM)])


@pytest.mark.parametrize("problem,k,step", [
    ("lasso", "3", "constant:1e308"),
    ("vanilla-qp", "4", "constant:1e60"),
])
def test_diverging_solve_fails_in_one_line(capsys, problem, k, step):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, "solve", "--problem", problem, "--k", k,
                           "--schedule", step)
    assert code == 1
    assert caught == []
    assert err.startswith("diverged: non-finite iterate at iteration ")
    assert err.count("\n") == 1
    assert "Warning" not in err and "Traceback" not in err


def test_diverging_bench_fails_in_one_line(capsys, monkeypatch):
    def diverge(problem, steps, x0):
        raise ArithmeticError("non-finite iterate at iteration 1")

    monkeypatch.setattr("silverprox.cli.proximal_gd_run", diverge)
    code, _, err = run(capsys, "bench", "--k", "1")
    assert code == 1
    assert err == "diverged: non-finite iterate at iteration 1\n"


# F_gap and dist_to_opt at the milestone rows of
# `solve --problem lasso --k 6 --seed 3 --dim 64 --csv`, recorded with the
# list-based quadratic oracle that summed dot products left to right.
LASSO_MILESTONES = {
    1: (0.07192388235089808, 0.616840838247907),
    3: (0.00416094585349569, 0.19954725195076004),
    7: (9.515312527952346e-05, 0.03535194256864598),
    15: (1.4912696855162721e-07, 0.001597591577333397),
    31: (1.0274447959091049e-11, 1.4073775571735671e-05),
    63: (7.105427357601002e-15, 6.702113017488568e-09),
}


def test_float_csv_deterministic_and_close_to_reference(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run(
            capsys, "solve", "--problem", "lasso", "--k", "6", "--seed", "3",
            "--dim", "64", "--csv", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    with open(paths[0], newline="") as handle:
        rows = [r for r in csv.DictReader(handle) if r["bound_at_milestone"]]
    assert {int(r["iter"]) for r in rows} == set(LASSO_MILESTONES)
    for row in rows:
        gap, dist = LASSO_MILESTONES[int(row["iter"])]
        assert abs(float(row["F_gap"]) - gap) <= 1e-12
        assert abs(float(row["dist_to_opt"]) - dist) <= 1e-12


def test_bench_sound_and_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run(
            capsys, "bench", "--k", "1..3", "--seed", "2", "--dim", "5",
            "--csv", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    with open(paths[0], newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4 * 3 * 2  # 4 families x 3 orders x 2 schedules
    for row in rows:
        assert float(row["F_gap"]) <= float(row["bound"]) * (1 + 1e-9) + 1e-12
        assert row["wall_time"] == ""
    silver_lb = [
        row for row in rows
        if row["instance"] == "lower-bound" and row["schedule"] == "silver"
    ]
    for row in silver_lb:
        k = int(row["k"])
        expected = 1.0 / (4.0 * float(rho_pow(k)) - 4.0)
        assert float(row["F_gap"]) == pytest.approx(expected, rel=1e-12)
    # the random families are drawn once each, in this order, from one
    # generator seeded with --seed, and every order k runs the same instance
    rng = np.random.default_rng(2)
    for name, kind in (("vanilla-qp", "zero"), ("lasso", "l1"), ("box-qp", "box")):
        problem, x0 = random_quadratic_instance(5, 0.0, 1.0, kind, rng)
        dist2 = sum((a - b) ** 2 for a, b in zip(x0, problem.optimum))
        constant = [r for r in rows if r["instance"] == name and r["schedule"] == "constant"]
        assert len(constant) == 3
        for row in constant:
            expected = dist2 / (4 * int(row["n"]))
            assert float(row["bound"]) == pytest.approx(expected, rel=1e-12)
    # a gap above its bound fails the run, after every row is printed
    with mock.patch("silverprox.cli.rate_bound", return_value=0.0):
        code, out, err = run(capsys, "bench", "--k", "1..3", "--seed", "2", "--dim", "5")
    assert code == 1
    assert len(out.splitlines()) == len(rows)
    assert err == "bench: soundness violation, some F_gap exceeds its bound\n"


def test_bench_exact_mode_and_timings(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys, "bench", "--k", "1..2", "--exact", "--timings", "--csv", str(path)
    )
    assert code == 0
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert all(row["wall_time"] != "" for row in rows)


# SHA-256 of stdout followed by the CSV bytes, recorded before `solve` and
# `bench` shared one run path; the constant-step digest was re-recorded when
# its last stdout line became the unit-step bound, and the two silver-step
# digests when `rate_bound` became correctly rounded (only the bound's last
# digits moved, in stdout and in the CSV's bound column).  None of these runs
# touches numpy, so the digests hold on any IEEE-754 machine.
GOLDEN_RUNS = {
    "lower-bound-k8-exact": (
        ("solve", "--problem", "lower-bound", "--k", "8", "--exact"),
        "09f59dba494c7018a4046ce5c69f0f7c1969df60bd8a57fef8772991d0b93979",
    ),
    "lower-bound-k6": (
        ("solve", "--problem", "lower-bound", "--k", "6"),
        "3be33598319e6fe585e0ceff4ca714d34a6d2fda6db54118ad10933240ba31ba",
    ),
    "lower-bound-k6-constant-exact": (
        ("solve", "--problem", "lower-bound", "--k", "6", "--schedule", "constant",
         "--exact"),
        "b258d83418fa304146217738676bd325b201752754384403aad91dd7b23cf22c",
    ),
    "schedule-k5": (
        ("schedule", "--k", "5"),
        "c8013a542193ff42fe81069d7089faa79f891a13eb05ab3c6dbe3d696729991e",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_report_bytes(tmp_path, capsys, name):
    argv, digest = GOLDEN_RUNS[name]
    path = tmp_path / "out.csv"
    code, out, _ = run(capsys, *argv, "--csv", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode() + path.read_bytes()).hexdigest() == digest


def test_unwritable_output_is_io_error(capsys):
    code, _, err = run(
        capsys, "cert", "verify", "--k", "1", "--trials", "2",
        "--json", "/nonexistent-dir/report.json",
    )
    assert code == 2
    assert "io error" in err


# ---------------------------------------------------------------------------
# exit-code contract: every argv ends in 0, 1 or 2, never in a traceback
# ---------------------------------------------------------------------------

VALUES = ("0", "-1", "nan", "inf", "abc", "1..0", "9", "1", "2", "1..2")
FLAGS = {
    ("schedule",): {
        "--k": VALUES, "--float": None, "--seq": ("pi", "c", "both", "abc"),
    },
    ("cert", "verify"): {
        "--k": VALUES, "--trials": VALUES, "--dim": VALUES, "--seed": VALUES,
        "--tamper": ("lambda", "mu", "slack", "u", "abc"),
        "--threads": VALUES, "--eig-check": None,  # removed options: usage errors
    },
    ("solve",): {
        "--problem": ("lasso", "box-qp", "lower-bound", "vanilla-qp", "abc"),
        "--k": VALUES, "--seed": VALUES, "--dim": VALUES, "--exact": None,
        "--schedule": ("silver", "constant", "constant:9", "constant:0",
                       "constant:nan", "constant:inf", "constant:abc",
                       "constant:1e308", "abc"),
    },
    ("bench",): {
        "--k": VALUES, "--seed": VALUES, "--dim": VALUES, "--exact": None,
        "--timings": None,
    },
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    argv = list(command)
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=5)):
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(st.sampled_from(flags[flag])))
    return argv


@settings(deadline=None, max_examples=150)
@given(argvs())
@example(["solve", "--problem", "lasso", "--k", "1", "--seed", "-1"])
@example(["bench", "--k", "1", "--seed", "-1"])
@example(["cert", "verify", "--k", "1", "--threads", "2"])
@example(["solve", "--problem", "lasso", "--k", "3", "--schedule", "constant:1e308"])
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"SILVERPROX_MAX_K": "3"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# the exact half runs without numpy
# ---------------------------------------------------------------------------

SRC = str(Path(__file__).resolve().parents[1] / "src")
# sys.modules["numpy"] = None makes every import of numpy raise ImportError.
CLI_WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; "
                     "from silverprox.cli import main; sys.exit(main())")
CLI = "import sys; from silverprox.cli import main; sys.exit(main())"


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv", [
    ("cert", "verify", "--k", "1..8", "--trials", "1", "--dim", "1"),  # packed from k=6
    ("schedule", "--k", "4"),
    ("solve", "--problem", "lower-bound", "--k", "4", "--exact"),
    ("solve", "--problem", "lower-bound", "--k", "4"),
])
def test_exact_half_runs_with_numpy_blocked(argv):
    blocked, plain = _python(CLI_WITHOUT_NUMPY, *argv), _python(CLI, *argv)
    assert blocked.returncode == 0, blocked.stderr
    assert plain.returncode == 0, plain.stderr
    assert blocked.stdout == plain.stdout
    assert blocked.stdout


def test_module_entry_point_prints_what_main_prints(capsys):
    # ``python -m silverprox`` runs __main__.py, which no in-process test reaches.
    argv = ("cert", "verify", "--k", "1..2", "--trials", "1")
    done = subprocess.run([sys.executable, "-m", "silverprox", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    code, out, _ = run(capsys, *argv)
    assert done.returncode == code == 0, done.stderr
    assert done.stdout == out


def test_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    with open(Path(SRC).parent / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["silverprox"] == "silverprox.cli:main"
    module, name = scripts["silverprox"].split(":")
    assert getattr(importlib.import_module(module), name) is main


def test_import_and_cert_verify_leave_numpy_unloaded():
    code = "\n".join([
        "import contextlib, io, sys",
        "import silverprox",
        "imported = 'numpy' in sys.modules",
        "from silverprox.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    main(sys.argv[1:])",
        "print(imported, 'numpy' in sys.modules)",
    ])
    done = _python(code, "cert", "verify", "--k", "1..2", "--trials", "1", "--dim", "1")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False\n"


def test_solver_half_leaves_the_certificate_checker_unloaded():
    # The checker then loads on first use, and every package name is its home
    # module's object: the first of the layers, lowest first, that holds it.
    code = "\n".join([
        "import sys",
        "import silverprox",
        "from silverprox import (ONE, ProblemInstance, SmoothOracle, lower_bound_instance,",
        "                        prox_library, proximal_gd_run, rate_bound, restart_solve,",
        "                        silver_schedule)",
        "problem, gap = lower_bound_instance(8)",
        "trace = proximal_gd_run(problem, silver_schedule(8), [ONE])",
        "assert trace.Fs[-1] - problem.optimal_value == gap",
        "assert 0 < rate_bound(8, 1.0, 1.0) < 1",
        "quadratic = ProblemInstance(SmoothOracle(lambda x: sum(v * v for v in x) / 2, list, 1, 1),",
        "                            prox_library('zero'), 2, [0.0, 0.0], 0.0)",
        "x, total = restart_solve(quadratic, 1e-3, [1.0, -1.0])",
        "assert total > 0 and max(map(abs, x)) <= 1e-3",
        "loaded = 'silverprox.certificate' in sys.modules",
        "from silverprox import certificate, exactnum, schedule, solver",
        "for name in silverprox.__all__:",
        "    home = next(m for m in (exactnum, schedule, solver, certificate) if hasattr(m, name))",
        "    assert getattr(silverprox, name) is getattr(home, name), name",
        "assert silverprox.certificate is certificate",
        "try:",
        "    silverprox.no_such_name",
        "except AttributeError as exc:",
        "    print(loaded, exc)",
    ])
    done = _python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False module 'silverprox' has no attribute 'no_such_name'\n"


def test_readme_library_example_runs():
    # The README's "## Library example" block, as a reader would paste it.
    readme = (Path(SRC).parent / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    [code] = section.split("```python\n")[1:]
    done = _python(code.split("\n```", 1)[0])
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    # Each call of a sequence in one process (so on one parser) prints and
    # exits as the same call does in a fresh interpreter.
    monkeypatch.setenv("COLUMNS", "80")  # the width of --help, here and in the child
    calls = [
        (("--help",), 0),
        (("schedule", "--k", "0"), 2),
        (("cert", "verify", "--k", "2", "--tamper", "mu"), 1),
        (("cert", "verify", "--k", "1..3"), 0),
        (("schedule", "--k", "3"), 0),
    ]
    for argv, code in calls:
        assert main(list(argv)) == code, argv
        out = capsys.readouterr().out
        fresh = _python(CLI, *argv)
        assert fresh.returncode == code, argv
        assert out == fresh.stdout, argv
        assert out or code
    assert build_parser() is build_parser()
