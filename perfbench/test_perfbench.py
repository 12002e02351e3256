"""Tests of the benchmark itself: its gates trip, its tracer wraps the right sites.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import silverprox  # noqa: E402
import silverprox.cli  # noqa: E402
import tracing  # noqa: E402
import workclock  # noqa: E402
import workloads  # noqa: E402


def _report(entries) -> bytes:
    return (json.dumps({"schema": "silverprox.cert/1", "results": entries},
                       indent=2, sort_keys=True) + "\n").encode()


def _golden_for(report: bytes) -> dict:
    entries = json.loads(report)["results"]
    return {"report_sha256": hashlib.sha256(report).hexdigest(),
            "orders": {str(e["k"]): workloads.order_digest(e) for e in entries}}


ENTRIES = [
    {"k": k, "n": 2**k - 1, "nonneg": "pass", "laplacian": "pass", "schur": "pass",
     "identity": {"trials": 1, "failures": 0}, "rate_exact": "x", "rate_float": 0.1 / k}
    for k in (1, 2)
]
CONTROLS = [(t, 1) for t in workloads.TAMPER_TARGETS]


def test_cert_gate_passes_golden_report():
    report = _report(ENTRIES)
    attempted, failures = workloads.cert_gate(0, report, CONTROLS, _golden_for(report))
    assert attempted == 1 + 2 + 4
    assert failures == []


def test_cert_gate_counts_wrong_digest_as_failed_operations():
    golden = _golden_for(_report(ENTRIES))
    changed = [dict(ENTRIES[0]), ENTRIES[1]]
    changed[0]["rate_float"] = 0.2
    attempted, failures = workloads.cert_gate(0, _report(changed), CONTROLS, golden)
    assert attempted == 7
    assert len(failures) == 2  # the report digest and order k=1
    assert any("SHA-256" in f for f in failures)


def test_cert_gate_counts_bad_exit_codes():
    report = _report(ENTRIES)
    controls = [("lambda", 0)] + CONTROLS[1:]
    _, failures = workloads.cert_gate(1, report, controls, _golden_for(report))
    assert len(failures) == 2
    _, failures = workloads.cert_gate(0, None, CONTROLS, _golden_for(report))
    assert len(failures) == 1 + 2  # no report: the digest and both orders


def test_golden_digest_matches_program_at_small_order(tmp_path):
    path = tmp_path / "r.json"
    argv = ["cert", "verify", "--k", "1..2", "--trials", "1", "--dim", "4", "--json", str(path)]
    assert workloads._cli_main(silverprox, argv) == 0
    golden = json.loads(workloads.GOLDEN.read_text())["cert-sweep"]
    for entry in json.loads(path.read_bytes())["results"]:
        assert workloads.order_digest(entry) == golden["orders"][str(entry["k"])]


def test_exact_gate_accepts_program_gaps_and_rejects_inexact_ones():
    for k in (1, 3, 5):
        problem, _ = silverprox.lower_bound_instance(k, exact=True)
        n = 2**k - 1
        for schedule, steps in (("silver", silverprox.silver_schedule(k)), ("constant", [1] * n)):
            trace = silverprox.proximal_gd_run(problem, steps, [silverprox.ONE])
            gap = trace.Fs[-1] - trace.F_star
            assert workloads.exact_gate(k, schedule, gap) is None
            assert workloads.exact_gate(k, schedule, gap + Fraction(1, 10**40)) is not None


def test_reference_gaps_match_closed_forms_numerically():
    rho = 1 + 2**0.5
    for k in range(1, 10):
        a, b = workloads.silver_gap(k)
        assert abs(float(a) + float(b) * 2**0.5 - 1 / (4 * rho**k - 4)) < 1e-12
        slope, n = 1 / (2 * (rho**k - 1)), 2**k - 1
        a, b = workloads.constant_gap(k)
        assert abs(float(a) + float(b) * 2**0.5 - slope * (1 - n * slope)) < 1e-12


def test_soundness_gate_accepts_arrays_and_rejects_gap_above_bound():
    import numpy as np

    problem = SimpleNamespace(smooth=SimpleNamespace(smoothness=1.0), optimum=np.zeros(2))
    x0 = np.array([1.0, 0.0])
    bound = workloads.silver_rate(3)
    ok = SimpleNamespace(Fs=[0.0, bound], F_star=0.0)
    bad = SimpleNamespace(Fs=[0.0, bound * 1.01], F_star=0.0)
    assert workloads.soundness_gate("t", "silver", 3, problem, x0, ok) is None
    assert workloads.soundness_gate("t", "silver", 3, problem, list(x0), bad) is not None


def test_tracer_wraps_names_where_cli_looks_them_up():
    original = silverprox.cli.build_bundle
    tracer = tracing.Tracer(silverprox)
    tracer.install()
    try:
        assert silverprox.cli.build_bundle is not original
        silverprox.certificate.build_bundle.__wrapped__.cache_clear()
        workloads._cli_main(silverprox, ["cert", "verify", "--k", "1", "--trials", "1"])
    finally:
        tracer.remove()
    assert silverprox.cli.build_bundle is original
    index = tracing.SpanIndex(tracer.spans)
    (main,) = index.find("cli.main", "k1")
    names = {index.spans[i][0] for i in index.subtree(main)}
    assert {"certificate.build_bundle", "certificate.build_lambda",
            "certificate.check_laplacian", "solver.cocoercivity_f"} <= names
    assert all(index.self_time(i) >= 0 for i in range(len(tracer.spans)))


def test_op_counter_counts_and_restores():
    scalar = silverprox.RadicalScalar
    original = scalar.__mul__
    counter = tracing.OpCounter(scalar)
    counter.install()
    try:
        x = scalar(1, 1) * scalar(3, Fraction(1, 2))
        (x - 1).sign()
    finally:
        counter.remove()
    assert scalar.__mul__ is original
    assert counter.counts == {"add": 1, "mul": 1, "div": 0, "sign": 1}
    assert counter.max_bits == 3  # (1 + sqrt2)(3 + sqrt2/2) = 4 + 7/2 sqrt2


def test_work_clock_counts_reference_loops_without_probes_and_restores_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with workclock.WorkClock() as clock:
        t0 = clock()
        for _ in range(200):
            workclock.reference_loop()
        spent = clock() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.probes) > workclock.WARMUP_PROBES
    # 200 loops take about 200 probe times; the probes in between are not counted.
    assert 0.5 < spent / (200 * workclock.REFERENCE_LOOP_S) < 2.0


def test_benchmark_json_matches_layers_and_workloads():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert bench["per_layer"] == [
        {"name": name, "unit": spec["unit"], "better": spec["better"]}
        for name, spec in layers.items()
    ]
    for spec in layers.values():
        assert set(spec["moves"]) == set(workloads.WORKLOADS)


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-exact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
