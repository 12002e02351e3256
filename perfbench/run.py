#!/usr/bin/env python3
"""silverprox benchmark: the cert-sweep, solve-float and solve-exact workloads.

Run from the repository root::

    python3 perfbench/run.py --workload cert-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 0            # every workload, one after another

Each workload runs in a fresh interpreter, closed loop and single threaded: a
pass starts when the previous one has ended, and passes repeat until the next
one would end after ``--seconds``.  The package is imported from ``src/`` of the
checkout; without it the benchmark exits 1 and prints no result.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median time from starting a fresh interpreter to ready inputs,
  over SETUP_SAMPLES interpreters;
* ``wall_ref_s``: median reference seconds per pass;
* ``small_ref_us`` and ``large_ref_us``: median per pass of the workload's
  small and large unit of work, in reference microseconds.  cert-sweep: one
  ``--tamper`` control at k=2 (median of the pass's 20) and the ``--k 1..8``
  verify call.  solve-float: one iteration at d=8 (``iter_us_d8``) and at
  d=256 (``iter_us_d256``).  solve-exact: one iteration at k=8..10 and at
  k=13, silver and unit steps together.  Every end-to-end metric is defined on every workload;
* ``peak_rss_mb``: peak resident memory of the workload's process.

Passes are timed on ``workclock.WorkClock``, whose reference seconds divide
out the drift of the shared host's core speed (see that module); the wall
seconds per pass are printed beside them, ungated.

``--trace 1`` reports the per-layer metrics listed in ``layers.json``: one
untraced pass, one pass counting ``RadicalScalar`` operations, one traced pass
of each other workload, because each layer metric is taken at one fixed size
that only one workload reaches, then traced passes of the workload until
``--seconds`` have gone by since the first pass.  Spans are written to
``.perfbench_out/``.

Every line but the last is for people; the last line is the JSON result.  The
exit code is 0 when every operation passed its correctness gate, else 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 120

# One thread per process: numpy's BLAS would otherwise start a pool at import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(HERE))
from workclock import REFERENCE_LOOP_S, WorkClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

now = time.perf_counter


def load_package():
    """Import silverprox from the checkout's sources, never from elsewhere."""
    if not (SRC / "silverprox" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no silverprox sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import silverprox

    if not Path(silverprox.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: silverprox imported from {silverprox.__file__}, not {SRC}")
    return silverprox


def run_child(argv: list[str]) -> str:
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def setup_samples(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it holds the workload's inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.monotonic()
        out = run_child([sys.executable, str(HERE / "run.py"), "--setup-child",
                         "--workload", workload, "--seed", str(seed)])
        samples.append(json.loads(out.splitlines()[-1])["ready"] - started)
    return samples


def import_samples() -> list[float]:
    """Seconds a fresh interpreter takes to run ``import silverprox.cli``."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import silverprox.cli; print(time.perf_counter() - t)")
    return [float(run_child([sys.executable, "-c", code, str(SRC)]))
            for _ in range(IMPORT_SAMPLES)]


def context(args, workload, inputs) -> dict:
    import numpy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor()
    why = ""
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        for entry in json.loads(bench.read_text()).get("workloads", []):
            if entry.get("name") == workload.name:
                why = entry.get("why", "")
    return {
        "workload": workload.name,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.describe(inputs),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def passes(workload, sp, inputs, seconds: float, clock):
    """Run passes until the next one would end after ``seconds``; collect garbage between.

    The passes time their work on ``clock``; the time limit is in wall seconds.
    Returns the passes' results and their wall seconds.
    """
    results, walls = [], []
    started = now()
    while True:
        gc.collect()
        t0 = now()
        results.append(workload.run_pass(sp, inputs, clock))
        walls.append(now() - t0)
        if now() - started + statistics.median(walls) > seconds:
            return results, walls


def emit(lines: list[str], results: list, metrics: dict) -> int:
    attempted = sum(r.attempted for r in results)
    failures = [f for r in results for f in r.failures]
    for failure in failures[:20]:
        lines.append(f"FAIL {failure}")
    lines.append(f"fail_frac = {len(failures) / attempted:.6g} "
                 f"({len(failures)} failed of {attempted} operations attempted)")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


def end_to_end(args, workload, sp) -> int:
    setups = setup_samples(workload.name, args.seed)
    inputs = workload.inputs(sp, args.seed, OUT)
    with WorkClock() as clock:
        results, walls = passes(workload, sp, inputs, args.seconds, clock)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    count = len(results)
    per_pass = f"median of {count} passes"
    values = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh interpreters"),
        "wall_ref_s": (statistics.median(r.wall_s for r in results), "ref_s", per_pass),
        "small_ref_us": (statistics.median(r.small_us for r in results), "ref_us", per_pass),
        "large_ref_us": (statistics.median(r.large_us for r in results), "ref_us", per_pass),
        "peak_rss_mb": (rss_mb, "MB", "1 process"),
    }
    lines = [f"context {json.dumps(context(args, workload, inputs), sort_keys=True)}"]
    for name, (value, unit, samples) in values.items():
        lines.append(f"{workload.name} {name} = {value:.6g} {unit} ({samples})")
    probes = clock.probes
    lines += [
        f"{workload.name} wall_s = {statistics.median(walls):.6g} s ({per_pass}; wall clock, "
        f"probes included, not gated)",
        f"{workload.name} reference loop = {statistics.median(probes) * 1e3:.4g} ms "
        f"(median of {len(probes)} probes; quartiles "
        + " ".join(f"{q * 1e3:.4g}" for q in statistics.quantiles(probes, n=4)) + " ms; "
        f"1 ref_s = the work of 1 s at {REFERENCE_LOOP_S * 1e3:g} ms per loop)",
    ]
    if workload.name == "solve-float":
        restart = statistics.median(r.time_to_eps_s for r in results)
        lines += [
            f"solve-float iter_us_d8 = {values['small_ref_us'][0]:.6g} ref_us (= small_ref_us; "
            f"{per_pass})",
            f"solve-float iter_us_d256 = {values['large_ref_us'][0]:.6g} ref_us "
            f"(= large_ref_us; {per_pass})",
            f"solve-float time_to_eps_s = {restart:.6g} ref_s (median of {count} restarts)",
        ]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in values.items()}
    return emit(lines, results, metrics)


def exactnum_micro(sp, seed: int) -> dict:
    """ns per mul, add and sign on operands drawn from the order-8 slack matrix."""
    build_slack = getattr(sp.certificate, "build_slack", None)
    lap = getattr(build_slack(8), "lap", None) if build_slack else None
    if lap is None:
        return {}
    entries = [v for row in lap for v in row if v]
    rng = random.Random(seed)
    pairs = [(rng.choice(entries), rng.choice(entries)) for _ in range(2000)]
    firsts = [x for x, _ in pairs]

    def per_op(loop) -> float:
        times = []
        for _ in range(15):
            t0 = now()
            loop()
            times.append((now() - t0) / len(pairs) * 1e9)
        return statistics.median(times)

    def mul():
        for x, y in pairs:
            x * y

    def add():
        for x, y in pairs:
            x + y

    def sign():
        for x in firsts:
            x.sign()

    return {"exactnum.mul_ns": per_op(mul), "exactnum.add_ns": per_op(add),
            "exactnum.sign_ns": per_op(sign)}


def schedule_build_s(sp, order: int):
    silver = getattr(sp.schedule, "silver_schedule", None)
    companion = getattr(sp.schedule, "c_sequence", None)
    if silver is None or companion is None:
        return None
    times = []
    for _ in range(5):
        t0 = now()
        silver(order)
        companion(order)
        times.append(now() - t0)
    return statistics.median(times)


def per_layer(args, workload, sp) -> int:
    import silverprox.cli  # noqa: F401  (the tracer wraps the cli module too)
    import tracing

    inputs = workload.inputs(sp, args.seed, OUT)
    results = []
    started = now()
    gc.collect()
    untraced = workload.run_pass(sp, inputs)
    results.append(untraced)

    counter = None
    scalar = getattr(sp.exactnum, "RadicalScalar", None)
    if scalar is not None:
        counter = tracing.OpCounter(scalar)
        counter.install()
        try:
            gc.collect()
            results.append(workload.run_pass(sp, inputs))
        finally:
            counter.remove()

    others = [(other, other.inputs(sp, args.seed, OUT))
              for other in WORKLOADS.values() if other is not workload]
    tracer = tracing.Tracer(sp)
    own = []
    tracer.install()
    try:
        for other, other_inputs in others:
            gc.collect()
            results.append(other.run_pass(sp, other_inputs))
        while True:
            gc.collect()
            first = len(tracer.spans)
            result = workload.run_pass(sp, inputs)
            results.append(result)
            own.append((first, len(tracer.spans), result.wall_s))
            if now() - started + statistics.median(w for _, _, w in own) > args.seconds:
                break
    finally:
        tracer.remove()

    index = tracing.SpanIndex(tracer.spans)
    metrics = tracing.span_metrics(index, own)
    traced_wall = statistics.median(w for _, _, w in own)
    metrics["trace.overhead_s"] = traced_wall - untraced.wall_s
    if counter is not None:
        for kind, total in counter.counts.items():
            metrics[f"exactnum.{kind}_count"] = total
        metrics["exactnum.max_bits"] = counter.max_bits
    metrics.update(exactnum_micro(sp, args.seed))
    metrics["schedule.build_s"] = schedule_build_s(sp, workload.top_order)
    metrics["cli.import_s"] = statistics.median(import_samples())

    layers = json.loads((HERE / "layers.json").read_text())
    absent = [name for name in layers if metrics.get(name) is None]
    found = {name: {"value": metrics[name], "unit": spec["unit"]}
             for name, spec in layers.items() if metrics.get(name) is not None}

    ctx = context(args, workload, inputs)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps({
        "context": ctx,
        "own_passes": own,
        "absent": absent + tracer.absent,
        "expected_moves": {name: spec["moves"] for name, spec in layers.items()},
        "spans": tracer.spans,
    }))
    lines = [f"context {json.dumps(ctx, sort_keys=True)}"]
    lines.append(f"{workload.name} traced wall_s = {traced_wall:.6g} s "
                 f"(median of {len(own)} traced passes; untraced pass {untraced.wall_s:.6g} s)")
    for name, spec in layers.items():
        value = metrics.get(name)
        shown = "absent" if value is None else f"{value:.6g} {spec['unit']}"
        lines.append(f"{workload.name} {name} = {shown}")
    lines.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    return emit(lines, results, found)


def all_workloads(args) -> int:
    """Run every workload in its own interpreter, one after another."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.stderr.strip():
            print(proc.stderr.strip(), file=sys.stderr)
        if not lines:
            print(f"{name}: no output, exit code {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def default_seconds() -> int:
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        return int(json.loads(bench.read_text()).get("run_seconds", 30))
    return 30


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, each in its own interpreter)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload is None:
        if args.setup_child:
            parser.error("--setup-child needs --workload")
        return all_workloads(args)
    sp = load_package()
    workload = WORKLOADS[args.workload]
    if args.setup_child:
        workload.inputs(sp, args.seed, OUT)
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    OUT.mkdir(exist_ok=True)
    if args.trace:
        return per_layer(args, workload, sp)
    return end_to_end(args, workload, sp)


if __name__ == "__main__":
    sys.exit(main())
