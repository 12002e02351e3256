"""The benchmark's workloads: inputs made from a seed, one timed pass, and its gate.

Each workload drives silverprox only through ``cli.main`` and the long-lived
public functions (``proximal_gd_run``, ``lower_bound_instance``,
``random_quadratic_instance``, ``restart_solve``, ``silver_schedule``).  Every
call looks the function up on its module at call time, so that a traced run can
wrap it there.  Expected values are computed in this file from the closed forms
of the paper, not by the package under test, and iterates are accepted as lists
or arrays.

An operation, the unit of ``attempted`` and ``failed``, is one order's checks
(or the report as a whole) in a certificate sweep, one tamper control, or one
solver run's soundness or exactness check.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

TAMPER_TARGETS = ("lambda", "mu", "slack", "u")
# Each control takes tens of milliseconds; repeating them gives small_us enough samples.
CONTROL_REPEATS = 5
CERT_ORDERS = "1..8"
# `silverprox bench` accepts a gap when gap <= bound * (1 + RTOL) + ATOL.
SOUNDNESS_RTOL = 1e-9
SOUNDNESS_ATOL = 1e-12
RESTART_EPS = 1e-6
FLOAT_K = 8  # n = 255 steps per float run
SCHEDULES = ("silver", "constant")
EXACT_KS = tuple(range(8, 14))
# Both schedules of these orders together are long enough to time steadily.
SMALL_EXACT_KS = (8, 9, 10)

now = time.perf_counter


@dataclass
class PassResult:
    """One pass: its time, its small and large work units, its gate.

    Times are in the seconds of the clock the pass was given: wall seconds, or
    reference seconds on ``workclock.WorkClock``.
    """

    wall_s: float = 0.0
    small_us: float = 0.0
    large_us: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    time_to_eps_s: float = 0.0  # solve-float's restart


# ---------------------------------------------------------------------------
# Exact reference values in Q(sqrt2), as pairs (a, b) meaning a + b*sqrt2
# ---------------------------------------------------------------------------


def _q_mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _q_inv(x):
    norm = Fraction(x[0]) ** 2 - 2 * Fraction(x[1]) ** 2
    return (x[0] / norm, -x[1] / norm)


def _q_sign(x):
    a, b = x
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == 0 or sb == 0 or sa == sb:
        return sa or sb
    gap = a * a - 2 * b * b
    return sa * ((gap > 0) - (gap < 0))


def _rho_pow(k: int):
    a, b = 1, 0
    for _ in range(k):
        a, b = a + 2 * b, a + b
    return (a, b)


def silver_gap(k: int):
    """Worst-case gap 1 / (4 rho**k - 4) of the silver schedule from x_0 = 1."""
    a, b = _rho_pow(k)
    return _q_inv((4 * (a - 1), 4 * b))


def constant_gap(k: int):
    """Gap of n = 2**k - 1 unit steps on the order-k lower-bound instance.

    The instance is slope * x on x >= 0 with slope = 1 / (2 (rho**k - 1)), so
    from x_0 = 1 the iterate after n steps is 1 - n * slope > 0 and the gap is
    slope * (1 - n * slope).
    """
    a, b = _rho_pow(k)
    slope = _q_inv((2 * (a - 1), 2 * b))
    n = 2**k - 1
    rest = (1 - n * slope[0], -n * slope[1])
    if _q_sign(rest) <= 0:
        raise ValueError(f"closed form needs n * slope < 1, fails at k={k}")
    return _q_mul(slope, rest)


def components(value):
    """(a, b) with value = a + b*sqrt2, for the package's exact scalars."""
    if isinstance(value, (int, Fraction)):
        return (Fraction(value), Fraction(0))
    if hasattr(value, "a") and hasattr(value, "b"):
        return (Fraction(value.a), Fraction(value.b))
    head, _, tail = value.exact_str().partition(" + ")
    return (Fraction(head), Fraction(tail.removesuffix("*sqrt2")))


def exact_gate(k: int, schedule: str, gap) -> str | None:
    """None when an exact lower-bound gap is right, else a failure message."""
    got = components(gap)
    if schedule == "silver":
        want = silver_gap(k)
        if got != want:
            return f"k={k} silver gap {got} != 1/(4 rho**k - 4) = {want}"
        return None
    want = constant_gap(k)
    if got != want:
        return f"k={k} constant gap {got} != slope*(1 - n*slope) = {want}"
    bound = Fraction(1, 4 * (2**k - 1))
    if _q_sign((bound - got[0], -got[1])) < 0:
        return f"k={k} constant gap {got} exceeds 1/(4n) = {bound}"
    return None


# ---------------------------------------------------------------------------
# Float references
# ---------------------------------------------------------------------------


def _floats(vector):
    return [float(v) for v in vector]


def dist2(u, v) -> float:
    return math.fsum((a - b) ** 2 for a, b in zip(_floats(u), _floats(v)))


def silver_rate(k: int) -> float:
    """Sharp rate constant rho / (sqrt2 (4 rho**k - 2))."""
    rho = 1.0 + math.sqrt(2.0)
    return rho / (math.sqrt(2.0) * (4.0 * rho**k - 2.0))


def soundness_gate(label: str, schedule: str, k: int, problem, x0, trace) -> str | None:
    """None when a float run's final gap is within its rate bound."""
    gap = float(trace.Fs[-1] - trace.F_star)
    scale = float(problem.smooth.smoothness) * dist2(x0, problem.optimum)
    n = 2**k - 1
    bound = silver_rate(k) * scale if schedule == "silver" else scale / (4 * n)
    if not gap <= bound * (1 + SOUNDNESS_RTOL) + SOUNDNESS_ATOL:
        return f"{label} {schedule}: gap {gap!r} exceeds bound {bound!r}"
    return None


# ---------------------------------------------------------------------------
# cert-sweep
# ---------------------------------------------------------------------------


def order_digest(entry: dict) -> str:
    return hashlib.sha256(json.dumps(entry, sort_keys=True).encode()).hexdigest()


def cert_gate(exit_code: int, report: bytes | None, control_codes, golden: dict) -> tuple[int, list[str]]:
    """Gate of one sweep: (operations attempted, failure messages).

    The report as a whole must come with exit code 0 and the golden SHA-256;
    each order must be present, pass every check and match its golden entry;
    each tamper control must exit 1.
    """
    orders = golden["orders"]
    failures = []
    if exit_code != 0:
        failures.append(f"cert verify --k {CERT_ORDERS} exited {exit_code}, not 0")
    elif report is None or hashlib.sha256(report).hexdigest() != golden["report_sha256"]:
        failures.append("report SHA-256 differs from the golden digest")
    try:
        results = {str(r["k"]): r for r in json.loads(report)["results"]}
    except (TypeError, ValueError, KeyError):
        results = {}
    for k, digest in orders.items():
        entry = results.get(k)
        if entry is None:
            failures.append(f"order k={k} missing from the report")
            continue
        passed = (
            all(entry.get(c) == "pass" for c in ("nonneg", "laplacian", "schur"))
            and entry.get("identity", {}).get("failures") == 0
        )
        if not passed or order_digest(entry) != digest:
            failures.append(f"order k={k} failed or differs from its golden entry")
    for target, code in control_codes:
        if code != 1:
            failures.append(f"tamper control {target!r} exited {code}, not 1")
    return 1 + len(orders) + len(control_codes), failures


def _cli_main(sp, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return sp.cli.main(argv)


class CertSweep:
    name = "cert-sweep"
    top_order = 8

    def inputs(self, sp, seed: int, out_dir: Path) -> dict:
        importlib.import_module(f"{sp.__name__}.cli")
        tampers = list(TAMPER_TARGETS)
        random.Random(seed).shuffle(tampers)
        report = out_dir / f"cert-report-seed{seed}.json"
        main = ["cert", "verify", "--k", CERT_ORDERS, "--trials", "1", "--dim", "4",
                "--seed", str(seed), "--json", str(report)]
        controls = [(t, ["cert", "verify", "--k", "2", "--tamper", t, "--seed", str(seed)])
                    for t in tampers] * CONTROL_REPEATS
        build = getattr(sp.certificate, "build_bundle", None)
        return {
            "main": main,
            "controls": controls,
            "report": report,
            "clear_cache": getattr(build, "cache_clear", lambda: None),
            "golden": json.loads(GOLDEN.read_text())["cert-sweep"],
        }

    def describe(self, inputs: dict) -> dict:
        return {
            "argv": ["silverprox", *inputs["main"][:-1], "<report>"],
            "controls": [["silverprox", *argv] for _, argv in inputs["controls"][:len(TAMPER_TARGETS)]],
            "control_repeats": CONTROL_REPEATS,
            "fresh_build_cache": "before every cli.main call",
        }

    def run_pass(self, sp, inputs: dict, clock=now) -> PassResult:
        report_path = inputs["report"]
        report_path.unlink(missing_ok=True)
        controls = inputs["controls"]
        control_codes, control_s = [], []

        def run_controls(batch):
            for target, argv in batch:
                inputs["clear_cache"]()
                t0 = clock()
                control_codes.append((target, _cli_main(sp, argv)))
                control_s.append(clock() - t0)

        # Controls run on both sides of the long verify call so that their
        # samples are spread over the pass.
        started = clock()
        run_controls(controls[: len(controls) // 2])
        inputs["clear_cache"]()
        t0 = clock()
        code = _cli_main(sp, inputs["main"])
        main_s = clock() - t0
        run_controls(controls[len(controls) // 2:])
        wall = clock() - started
        report = report_path.read_bytes() if report_path.exists() else None
        attempted, failures = cert_gate(code, report, control_codes, inputs["golden"])
        return PassResult(
            wall_s=wall,
            small_us=statistics.median(control_s) * 1e6,
            large_us=main_s * 1e6,
            attempted=attempted,
            failures=failures,
        )


# ---------------------------------------------------------------------------
# solve-float
# ---------------------------------------------------------------------------


class SolveFloat:
    name = "solve-float"
    top_order = FLOAT_K
    small_dim, large_dim, restart_dim = 8, 256, 64
    per_family = 8
    families = (("lasso", "l1"), ("box-qp", "box"), ("vanilla-qp", "zero"))

    def inputs(self, sp, seed: int, out_dir: Path) -> dict:
        import numpy as np

        rng = np.random.default_rng(seed)
        make = sp.solver.random_quadratic_instance
        small = []
        for family, kind in self.families:
            for _ in range(self.per_family):
                problem, x0 = make(self.small_dim, 0.0, 1.0, kind, rng)
                small += [("small", f"{family}-d{self.small_dim}", problem, x0, schedule)
                          for schedule in SCHEDULES]
        problem, x0 = make(self.large_dim, 0.0, 1.0, "l1", rng)
        large = [("large", f"lasso-d{self.large_dim}", problem, x0, schedule)
                 for schedule in SCHEDULES]
        restart = make(self.restart_dim, 0.01, 1.0, "l1", rng, weight=0.5)
        # The small runs are split in three, around the two large runs, so
        # that their samples are spread over the pass.
        third = len(small) // 3
        runs = (small[:third] + large[:1] + small[third:2 * third] + large[1:]
                + small[2 * third:])
        steps = {
            "silver": [float(v) for v in sp.schedule.silver_schedule(FLOAT_K)],
            "constant": [1.0] * (2**FLOAT_K - 1),
        }
        return {"runs": runs, "restart": restart, "steps": steps}

    def describe(self, inputs: dict) -> dict:
        return {
            "runs": [f"{label} {schedule}" for _, label, _, _, schedule in inputs["runs"]],
            "steps": {"silver": f"silver k={FLOAT_K}", "constant": "1.0"},
            "iterations_per_run": 2**FLOAT_K - 1,
            "restart": f"lasso-d{self.restart_dim} weight=0.5 kappa=100 eps={RESTART_EPS}",
        }

    def run_pass(self, sp, inputs: dict, clock=now) -> PassResult:
        failures = []
        per_iter: dict[tuple, list[float]] = {}
        started = clock()
        for group, label, problem, x0, schedule in inputs["runs"]:
            steps = inputs["steps"][schedule]
            t0 = clock()
            trace = sp.solver.proximal_gd_run(problem, steps, x0)
            per_iter.setdefault((group, label, schedule), []).append((clock() - t0) / len(steps))
            failure = soundness_gate(label, schedule, FLOAT_K, problem, x0, trace)
            if failure:
                failures.append(failure)
        problem, x0 = inputs["restart"]
        t0 = clock()
        x, _ = sp.solver.restart_solve(problem, RESTART_EPS, x0)
        restart_s = clock() - t0
        wall = clock() - started
        dist = math.sqrt(dist2(x, problem.optimum))
        if not dist <= RESTART_EPS:
            failures.append(f"restart ended at distance {dist!r} > {RESTART_EPS}")
        # Mean over (family, schedule) of the median run: a run hit by a burst
        # of host load does not move it, and each family keeps its weight.
        medians = {key: statistics.median(times) for key, times in per_iter.items()}

        def mean_us(group):
            return statistics.fmean(m for key, m in medians.items() if key[0] == group) * 1e6

        return PassResult(
            wall_s=wall,
            small_us=mean_us("small"),
            large_us=mean_us("large"),
            attempted=len(inputs["runs"]) + 1,
            failures=failures,
            time_to_eps_s=restart_s,
        )


# ---------------------------------------------------------------------------
# solve-exact
# ---------------------------------------------------------------------------


class SolveExact:
    name = "solve-exact"
    top_order = EXACT_KS[-1]

    def inputs(self, sp, seed: int, out_dir: Path) -> dict:
        runs = []
        for k in EXACT_KS:
            problem, _ = sp.solver.lower_bound_instance(k, exact=True)
            runs.append((k, "silver", problem, sp.schedule.silver_schedule(k)))
            runs.append((k, "constant", problem, [1] * (2**k - 1)))
        random.Random(seed).shuffle(runs)
        return {"runs": runs, "x0": [sp.exactnum.ONE]}

    def describe(self, inputs: dict) -> dict:
        return {"runs": [f"lower-bound k={k} {s}" for k, s, _, _ in inputs["runs"]],
                "x0": "1 (exact)"}

    def run_pass(self, sp, inputs: dict, clock=now) -> PassResult:
        failures = []
        spent = {"small": 0.0, "large": 0.0}
        iters = {"small": 0, "large": 0}
        started = clock()
        for k, schedule, problem, steps in inputs["runs"]:
            t0 = clock()
            trace = sp.solver.proximal_gd_run(problem, steps, inputs["x0"])
            elapsed = clock() - t0
            group = "small" if k in SMALL_EXACT_KS else "large" if k == EXACT_KS[-1] else None
            if group:
                spent[group] += elapsed
                iters[group] += len(steps)
            failure = exact_gate(k, schedule, trace.Fs[-1] - trace.F_star)
            if failure:
                failures.append(failure)
            del trace  # so that peak memory does not depend on the run order
        return PassResult(
            wall_s=clock() - started,
            small_us=spent["small"] / iters["small"] * 1e6,
            large_us=spent["large"] / iters["large"] * 1e6,
            attempted=len(inputs["runs"]),
            failures=failures,
        )


WORKLOADS = {w.name: w for w in (CertSweep(), SolveFloat(), SolveExact())}
