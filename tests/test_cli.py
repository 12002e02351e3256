import csv
import json
import math

import pytest

from silverprox.cli import main
from silverprox.exactnum import rho_pow


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


def test_cert_verify_threads_match_serial(tmp_path, capsys):
    serial, threaded = tmp_path / "serial.json", tmp_path / "threaded.json"
    run(capsys, "cert", "verify", "--k", "1..3", "--trials", "4",
        "--json", str(serial))
    run(capsys, "cert", "verify", "--k", "1..3", "--trials", "4",
        "--json", str(threaded), "--threads", "3")
    assert serial.read_bytes() == threaded.read_bytes()


def test_cert_verify_eig_probe(capsys):
    code, out, _ = run(
        capsys, "cert", "verify", "--k", "2", "--trials", "2", "--eig-check"
    )
    assert code == 0
    assert "OK" in out


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


@pytest.mark.parametrize("argv", [
    ("solve", "--problem", "lasso", "--k", "2", "--dim", "0"),
    ("bench", "--k", "1..2", "--dim", "0"),
    ("solve", "--problem", "lower-bound", "--k", "2", "--schedule", "constant:nan"),
    ("solve", "--problem", "lower-bound", "--k", "2", "--schedule", "constant:inf"),
    ("solve", "--problem", "lower-bound", "--k", "2", "--schedule", "constant:abc"),
])
def test_bad_argument_is_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("usage error:")
    assert "Traceback" not in err


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


def test_bench_exact_mode_and_timings(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys, "bench", "--k", "1..2", "--exact", "--timings", "--csv", str(path)
    )
    assert code == 0
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert all(row["wall_time"] != "" for row in rows)


def test_unwritable_output_is_io_error(capsys):
    code, _, err = run(
        capsys, "cert", "verify", "--k", "1", "--trials", "2",
        "--json", "/nonexistent-dir/report.json",
    )
    assert code == 2
    assert "io error" in err
