"""Command-line interface: schedule | cert verify | solve | bench.

Exit codes: 0 when everything passes, 1 on a verification or benchmark
assertion failure or a diverging float run, 2 on usage or I/O errors.  The
environment variable SILVERPROX_MAX_K caps the certificate/schedule order
accepted on the command line (default 8); library callers are not capped.

Reports are deterministic for a fixed seed: JSON is emitted with sorted
keys and CSV rows in a fixed order.  Benchmark wall times are recorded
only when --timings is passed, so that default outputs are bit-identical
across runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time

from .certificate import (
    TAMPER_TARGETS,
    build_bundle,
    check_laplacian,
    check_multipliers_nonneg,
    check_schur_psd,
    tamper_bundle,
    verify_descent_identity,
)
from .exactnum import ONE
from .schedule import c_sequence, rate_from_certificate, silver_schedule
from .solver import (
    _norm2,
    _sub,
    constant_baseline,
    lower_bound_instance,
    proximal_gd_run,
    random_quadratic_instance,
    rate_bound,
)


CERT_SCHEMA = "silverprox.cert/1"
# Largest --dim: a random instance's d x d float64 matrices then take 128 MiB each.
MAX_DIM = 4096
# Largest --trials: 20 trials already leave a wrong coefficient alive with
# probability at most (2/11)**20.
MAX_TRIALS = 1000
# Largest --trials x --dim x n for cert verify, n = 2**k - 1 at the largest
# --k: one k=8 trial at the largest --dim, or 1000 trials at k=8 and --dim 4.
MAX_WORK = 255 * MAX_DIM


class UsageError(Exception):
    pass


def _max_k() -> int:
    try:
        return int(os.environ.get("SILVERPROX_MAX_K", "8"))
    except ValueError:
        raise UsageError("SILVERPROX_MAX_K must be an integer")


def _parse_k_spec(text: str) -> list[int]:
    """Parse "3" or "1..6" into a list of orders, capped by SILVERPROX_MAX_K."""
    cap = _max_k()
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"cannot parse k specification {text!r}")
    if lo < 1 or hi < lo:
        raise UsageError(f"k range must satisfy 1 <= lo <= hi, got {text!r}")
    if hi > cap:
        raise UsageError(
            f"k={hi} exceeds the SILVERPROX_MAX_K cap ({cap}); "
            "raise the environment variable to allow larger orders"
        )
    return list(range(lo, hi + 1))


def _require_work(args, ks: list[int]) -> None:
    work = args.trials * args.dim * (2 ** max(ks) - 1)
    if work > MAX_WORK:
        raise UsageError(f"--trials x --dim x n = {work} exceeds the limit {MAX_WORK}")


def _single_k(args) -> int:
    ks = _parse_k_spec(args.k)
    if len(ks) != 1:
        raise UsageError(f"{args.command} takes a single k, not a range")
    return ks[0]


def _require_dim_and_seed(args) -> None:
    if not 1 <= args.dim <= MAX_DIM:
        raise UsageError(f"--dim must be between 1 and {MAX_DIM}")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def cmd_schedule(args) -> int:
    k = _single_k(args)
    pi, c = silver_schedule(k), c_sequence(k)
    sections = [(name, seq) for name, seq in (("pi", pi), ("c", c)) if args.seq in (name, "both")]
    for label, seq in sections:
        print(f"# {label} k={k} entries={len(seq)}")
        for value in seq:
            print(repr(value.to_float()) if args.float else value.exact_str())
    if args.csv:
        rows = [
            (label, idx, v.a.numerator, v.a.denominator, v.b.numerator,
             v.b.denominator, repr(v.to_float()))
            for label, seq in sections
            for idx, v in enumerate(seq)
        ]
        _write_csv(
            args.csv,
            ["sequence", "index", "a_num", "a_den", "b_num", "b_den", "float"],
            rows,
        )
    return 0


# ---------------------------------------------------------------------------
# cert verify
# ---------------------------------------------------------------------------


def _verify_one(k: int, args) -> tuple[dict, str, bool]:
    """(JSON entry, failure details, all checks and identity trials passed)."""
    bundle = build_bundle(k)
    if args.tamper:
        bundle = tamper_bundle(bundle, args.tamper)
    checks = (
        check_multipliers_nonneg(bundle),
        check_laplacian(bundle),
        check_schur_psd(bundle),
    )
    identity = verify_descent_identity(bundle, trials=args.trials, dim=args.dim, seed=args.seed + k)
    rate = rate_from_certificate(k)
    result = {
        "k": k,
        "n": bundle.n,
        **{c.name: "pass" if c.passed else "fail" for c in checks},
        "identity": {"trials": identity.trials, "failures": len(identity.failures)},
        "rate_exact": rate.exact_str(),
        "rate_float": float(rate),
    }
    details = [c.detail for c in checks if not c.passed and c.detail]
    if not identity.passed:
        details.append(
            f"identity trial {identity.failures[0]}: lhs - rhs = {identity.first_residual}"
        )
    return result, "; ".join(details), all(c.passed for c in checks) and identity.passed


def cmd_cert_verify(args) -> int:
    _require_dim_and_seed(args)
    if not 1 <= args.trials <= MAX_TRIALS:
        raise UsageError(f"--trials must be between 1 and {MAX_TRIALS}")
    ks = _parse_k_spec(args.k)
    _require_work(args, ks)
    all_pass = True
    results = []
    for k in ks:
        res, detail, ok = _verify_one(k, args)
        results.append(res)
        all_pass &= ok
        print(
            f"k={res['k']} n={res['n']} nonneg={res['nonneg']} "
            f"laplacian={res['laplacian']} schur={res['schur']} "
            f"identity={res['identity']['trials'] - res['identity']['failures']}"
            f"/{res['identity']['trials']} rate={res['rate_float']:.6g} "
            f"{'OK' if ok else 'FAIL'}"
        )
        if detail:
            print(f"  {detail}")
    if args.json:
        payload = {"schema": CERT_SCHEMA, "results": results}
        _write_text(args.json, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# solve and bench: one problem table, one instance builder, one bound rule
# ---------------------------------------------------------------------------

# Problem name -> prox kind of its random quadratic instance, or None for the
# exact worst-case instance.  `bench` runs the families in this order and
# draws the random instances from one generator, so the order fixes its rows.
PROBLEMS = {"lower-bound": None, "vanilla-qp": "zero", "lasso": "l1", "box-qp": "box"}


def _instance(name: str, k: int, args, rng):
    """(problem, x0) for one problem family at horizon order k."""
    kind = PROBLEMS[name]
    if kind is None:
        problem, _ = lower_bound_instance(k, exact=args.exact)
        return problem, [ONE] if args.exact else [1.0]
    return random_quadratic_instance(args.dim, 0.0, 1.0, kind, rng)


def _parse_schedule(choice: str, exact: bool):
    """None for silver steps, else the constant unit-normalized step c."""
    if choice == "silver":
        return None
    name, colon, text = choice.partition(":")
    if name != "constant":
        raise UsageError(f"unknown schedule {choice!r}")
    try:
        value = float(text) if colon else 1.0
    except ValueError:
        raise UsageError(f"cannot parse constant stepsize {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise UsageError("constant stepsize must be finite and positive")
    if exact and value != 1.0:
        raise UsageError("exact mode supports only constant:1")
    return value


def _steps(const, k: int, exact: bool) -> list:
    if const is None:
        steps = silver_schedule(k)
        return steps if exact else [v.to_float() for v in steps]
    return [1 if exact else const] * (2**k - 1)


def _bound(const, j: int, problem, x0):
    """Worst-case F gap after 2**j - 1 steps from x0, or None if none is known.

    Silver steps (const None) carry the certificate bound and unit constant
    steps the tight baseline M ||x0 - x_*||^2 / (4n); other constant steps
    have no bound here.
    """
    big_m = float(problem.smooth.smoothness)
    dist2 = float(_norm2(_sub(x0, problem.optimum)))
    if const is None:
        return rate_bound(j, big_m, dist2)
    return constant_baseline(2**j - 1, big_m, dist2) if const == 1 else None


def _generator(seed: int):
    """numpy's generator for the random families: only they load numpy."""
    import numpy as np

    return np.random.default_rng(seed)


def cmd_solve(args) -> int:
    _require_dim_and_seed(args)
    k = _single_k(args)
    if args.exact and PROBLEMS[args.problem] is not None:
        raise UsageError(f"--exact is only supported for lower-bound, not {args.problem!r}")
    rng = _generator(args.seed) if PROBLEMS[args.problem] else None
    problem, x0 = _instance(args.problem, k, args, rng)
    const = _parse_schedule(args.schedule, args.exact)
    try:
        trace = proximal_gd_run(problem, _steps(const, k, args.exact), x0)
    except ArithmeticError as exc:
        return _diverged(exc)

    milestones = {2**j - 1: j for j in range(1, k + 1)}
    rows = []
    for it, (x, total) in enumerate(zip(trace.xs, trace.Fs)):
        gap = float(total - trace.F_star) if math.isfinite(float(total)) else math.inf
        dist = math.sqrt(float(_norm2(_sub(x, problem.optimum))))
        step_str = repr(float(trace.steps[it - 1])) if it > 0 else ""
        bound = _bound(const, milestones[it], problem, x0) if it in milestones else None
        rows.append((it, step_str, repr(gap), repr(dist), "" if bound is None else repr(bound)))
    if args.csv:
        _write_csv(
            args.csv,
            ["iter", "stepsize", "F_gap", "dist_to_opt", "bound_at_milestone"],
            rows,
        )
    final_gap = trace.Fs[-1] - trace.F_star
    print(f"problem={problem.name} schedule={args.schedule} n={len(trace.steps)}")
    if args.exact:
        print(f"final F gap (exact) = {final_gap.exact_str()}")
    print(f"final F gap = {float(final_gap)!r}")
    bound = _bound(const, k, problem, x0)
    if bound is not None:
        print(f"{'certificate' if const is None else 'unit-step'} bound = {bound!r}")
    return 0


def cmd_bench(args) -> int:
    _require_dim_and_seed(args)
    ks = _parse_k_spec(args.k)
    rng = _generator(args.seed)
    rows = []
    sound = True
    for name, kind in PROBLEMS.items():
        for k in ks:
            if kind is None or k == ks[0]:  # random instances do not depend on k
                problem, x0 = _instance(name, k, args, rng)
            base = _bound(1, k, problem, x0)
            for const in (None, 1.0):
                steps = _steps(const, k, args.exact and kind is None)
                started = time.perf_counter()
                try:
                    trace = proximal_gd_run(problem, steps, x0)
                except ArithmeticError as exc:
                    return _diverged(exc)
                elapsed = time.perf_counter() - started
                gap = float(trace.Fs[-1] - trace.F_star)
                bound = _bound(const, k, problem, x0)
                if gap > bound * (1 + 1e-9) + 1e-12:
                    sound = False
                label = "silver" if const is None else "constant"
                rows.append((name, label, k, len(steps), repr(gap), repr(bound),
                             repr(gap / base), repr(elapsed) if args.timings else ""))
    header = [
        "instance", "schedule", "k", "n", "F_gap", "bound",
        "ratio_to_constant", "wall_time",
    ]
    if args.csv:
        _write_csv(args.csv, header, rows)
    for row in rows:
        print(" ".join(str(v) for v in row[:7]))
    if not sound:
        print("bench: soundness violation, some F_gap exceeds its bound", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _diverged(exc: ArithmeticError) -> int:
    print(f"diverged: {exc}", file=sys.stderr)
    return 1


def _write_csv(path: str, header: list[str], rows) -> None:
    buffer = io.StringIO()
    csv.writer(buffer).writerows([header, *rows])
    _write_text(path, buffer.getvalue())


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``silverprox`` parser, built once per process.

    Parsing and printing usage leave it as it is, so every ``main`` call
    shares it.  Each subcommand names its handler, which ``main`` looks up
    in this module when it runs, so the shared parser holds no function.
    """
    parser = argparse.ArgumentParser(
        prog="silverprox",
        description="Silver-stepsize proximal gradient descent and its exact rate certificate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sched = sub.add_parser("schedule", help="print or export the stepsize schedule")
    p_sched.add_argument("--k", required=True, help="schedule order (single k)")
    p_sched.add_argument("--float", action="store_true", help="print floats instead of exact strings")
    p_sched.add_argument("--seq", choices=("pi", "c", "both"), default="both")
    p_sched.add_argument("--csv", help="CSV output path")
    p_sched.set_defaults(func="cmd_schedule")

    p_cert = sub.add_parser("cert", help="certificate operations")
    cert_sub = p_cert.add_subparsers(dest="cert_command", required=True)
    p_verify = cert_sub.add_parser("verify", help="verify the rate certificate exactly")
    p_verify.add_argument("--k", required=True, help="order or range, e.g. 3 or 1..6")
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--dim", type=int, default=4)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", help="JSON report path")
    p_verify.add_argument("--tamper", choices=TAMPER_TARGETS,
                          help="negative-control hook: perturb one certificate entry")
    p_verify.set_defaults(func="cmd_cert_verify")

    p_solve = sub.add_parser("solve", help="run proximal gradient descent on a test problem")
    p_solve.add_argument("--problem", required=True, choices=tuple(PROBLEMS))
    p_solve.add_argument("--k", required=True, help="horizon order: n = 2**k - 1")
    p_solve.add_argument("--schedule", default="silver",
                         help="silver (default), constant or constant:c")
    p_solve.add_argument("--exact", action="store_true",
                         help="exact arithmetic (lower-bound only)")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--dim", type=int, default=8)
    p_solve.add_argument("--csv", help="CSV trace path")
    p_solve.set_defaults(func="cmd_solve")

    p_bench = sub.add_parser("bench", help="sweep instances x schedules x k")
    p_bench.add_argument("--k", default="1..8", help="order range, default 1..8")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--dim", type=int, default=8)
    p_bench.add_argument("--exact", action="store_true",
                         help="run the lower-bound family in exact arithmetic")
    p_bench.add_argument("--timings", action="store_true",
                         help="record wall times (makes output nondeterministic)")
    p_bench.add_argument("--csv", help="CSV report path")
    p_bench.set_defaults(func="cmd_bench")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return globals()[args.func](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except IOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
