"""Spans and operation counts taken from outside the package.

A traced run wraps every public function of each layer module (``exactnum``,
``schedule``, ``certificate``, ``solver``, ``cli``) at every place a caller
looks it up: the defining module, the package namespace and each module that
imported the name.  ``cli`` imports names directly, so ``cli.build_bundle`` is
wrapped as well as ``certificate.build_bundle``.  The oracles of a problem are
wrapped when the problem enters ``proximal_gd_run``.  Each call records a span
(name, label, start, end, parent) in memory; self time is a span's duration
minus that of its children.

``RadicalScalar`` operations are counted by wrapping the class's arithmetic
methods.  Counting costs far more than the work it counts, so it runs in its
own pass and no timing is taken from that pass.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import time
from fractions import Fraction

LAYERS = ("exactnum", "schedule", "certificate", "solver", "cli")
ORACLES = (("smooth", "value"), ("smooth", "gradient"), ("nonsmooth", "prox"))
OP_KINDS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__neg__": "add", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div", "sign": "sign",
}

now = time.perf_counter


def _scalar_kind(value) -> str:
    if isinstance(value, float):
        return "float"
    return "int" if isinstance(value, int) else "exact"


def _label(name: str, args) -> str:
    """Short size label of a call: the order k, the dimension d, or the CLI --k."""
    if not args:
        return ""
    head = args[0]
    if name == "cli.main" and isinstance(head, list):
        spec = head[head.index("--k") + 1] if "--k" in head else ""
        return f"k{spec}" + ("+tamper" if "--tamper" in head else "")
    if name == "solver.proximal_gd_run" and len(args) >= 2:
        steps = args[1]
        try:
            n, kind = len(steps), _scalar_kind(steps[0])
        except (TypeError, IndexError):
            n, kind = "?", ""
        return f"d{getattr(head, 'dimension', '?')}/n{n}/{kind}"
    if isinstance(head, int) and not isinstance(head, bool):
        return f"k{head}"
    for attr, prefix in (("k", "k"), ("dimension", "d")):
        value = getattr(head, attr, None)
        if isinstance(value, int):
            return f"{prefix}{value}"
    return ""


class Tracer:
    """Records spans of wrapped calls; install() and remove() patch the package."""

    def __init__(self, sp):
        self.sp = sp
        self.spans: list = []  # [name, label, start, end, parent index]
        self._stack: list[int] = []
        self._patches: list = []
        self.absent: list[str] = []

    def wrap(self, name: str, fn, prepare=None, label=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            tag = _label(name, args) if label is None else label
            record = [name, tag, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[2] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = now()
                stack.pop()

        return traced

    def _instrument_problem(self, args):
        """Replace the problem's oracles by traced ones, labelled by dimension."""
        problem, rest = args[0], args[1:]
        dim = getattr(problem, "dimension", "?")
        try:
            parts = {}
            for part, field_name in ORACLES:
                holder = parts.get(part, getattr(problem, part))
                fn = self.wrap(f"solver.oracle.{field_name}", getattr(holder, field_name),
                               label=f"d{dim}")
                parts[part] = dataclasses.replace(holder, **{field_name: fn})
            return (dataclasses.replace(problem, **parts), *rest)
        except (AttributeError, TypeError):
            return args

    def install(self) -> None:
        """Wrap every public function of every layer where callers find it."""
        sites = [self.sp] + [getattr(self.sp, layer) for layer in LAYERS if hasattr(self.sp, layer)]
        for layer in LAYERS:
            module = getattr(self.sp, layer, None)
            if module is None:
                self.absent.append(f"module {layer}")
                continue
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                prepare = self._instrument_problem if attr == "proximal_gd_run" else None
                wrapped = self.wrap(f"{layer}.{attr}", fn, prepare)
                for site in sites:
                    for site_attr, value in list(vars(site).items()):
                        if value is fn:
                            self._patches.append((site, site_attr, fn))
                            setattr(site, site_attr, wrapped)

    def remove(self) -> None:
        for site, attr, fn in reversed(self._patches):
            setattr(site, attr, fn)
        self._patches.clear()


class OpCounter:
    """Counts RadicalScalar operations and the largest component bit length."""

    def __init__(self, scalar_cls):
        self.cls = scalar_cls
        self.counts = dict.fromkeys(("add", "mul", "div", "sign"), 0)
        self.max_bits = 0
        self._saved: list = []

    def install(self) -> None:
        for method, kind in OP_KINDS.items():
            fn = self.cls.__dict__.get(method)
            if fn is not None:
                self._saved.append((method, fn))
                setattr(self.cls, method, self._counted(fn, kind))

    def _counted(self, fn, kind):
        def counted(*args):
            self.counts[kind] += 1
            out = fn(*args)
            if kind != "sign":
                self.max_bits = max(self.max_bits, _bit_length(out))
            return out

        return counted

    def remove(self) -> None:
        for method, fn in self._saved:
            setattr(self.cls, method, fn)
        self._saved.clear()


def _bit_length(value) -> int:
    best = 0
    for part in (getattr(value, "a", 0), getattr(value, "b", 0)):
        if isinstance(part, Fraction):
            best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
        elif isinstance(part, int):
            best = max(best, part.bit_length())
    return best


def median(values):
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

BUILD = {f"certificate.{f}" for f in (
    "build_bundle", "build_lambda", "build_mu", "build_slack", "build_u_coeffs", "tamper_bundle")}
CHECK = {f"certificate.{f}" for f in (
    "check_multipliers_nonneg", "check_laplacian", "check_schur_psd")}
IDENTITY = {"certificate.verify_descent_identity", "certificate.evaluate_identity",
            "certificate.sample_free_trace"}
COCOERCIVITY = {"solver.cocoercivity_f", "solver.cocoercivity_h"}
CERT_ORDER = "k8"
CERT_SWEEP_CALL = "k1..8"


class SpanIndex:
    """Durations, self times and subtrees of spans recorded in call order."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for name, label, start, end, parent in spans:
            if parent >= 0:
                self.child_time[parent] += end - start

    def dur(self, i: int) -> float:
        return self.spans[i][3] - self.spans[i][2]

    def self_time(self, i: int) -> float:
        return self.dur(i) - self.child_time[i]

    def find(self, name: str, label=None):
        return [i for i, span in enumerate(self.spans)
                if span[0] == name and (label is None or span[1] == label)]

    def subtree(self, i: int):
        """Indices of span i and its descendants (they follow it until it ends)."""
        end = self.spans[i][3]
        j = i + 1
        while j < len(self.spans) and self.spans[j][2] < end:
            j += 1
        return range(i, j)

    def durations(self, name: str, label=None):
        return [self.dur(i) for i in self.find(name, label)]

    def outermost(self, names, lo: int, hi: int) -> float:
        """Total time of spans named in ``names`` that no such span encloses."""
        total = 0.0
        for i in range(lo, hi):
            if self.spans[i][0] not in names:
                continue
            parent = self.spans[i][4]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][4]
            if parent < 0:
                total += self.dur(i)
        return total


def _scaled(value, factor):
    return None if value is None else value * factor


def span_metrics(index: SpanIndex, own_passes) -> dict:
    """Per-layer metrics from spans; ``own_passes`` holds (first, end, wall) of each own pass.

    A metric whose spans are missing maps to None and is reported absent.
    """
    m = {}
    for fn in ("build_lambda", "build_mu", "build_slack", "build_bundle",
               "check_multipliers_nonneg", "check_laplacian", "check_schur_psd"):
        m[f"certificate.{fn}_s"] = median(index.durations(f"certificate.{fn}", CERT_ORDER))
    identity = index.find("certificate.verify_descent_identity", CERT_ORDER)
    m["certificate.identity_s"] = median([index.dur(i) for i in identity])
    m["solver.cocoercivity_s"] = median([
        sum(index.dur(j) for j in index.subtree(i) if index.spans[j][0] in COCOERCIVITY)
        for i in identity
    ])
    m["cli.self_s"] = median([
        sum(index.self_time(j) for j in index.subtree(i) if index.spans[j][0].startswith("cli."))
        for i in index.find("cli.main", CERT_SWEEP_CALL)
    ])

    for oracle, dims in (("gradient", (8, 256)), ("value", (256,)), ("prox", (256,))):
        short = "grad" if oracle == "gradient" else oracle
        for d in dims:
            m[f"solver.{short}_us.d{d}"] = _scaled(
                median(index.durations(f"solver.oracle.{oracle}", f"d{d}")), 1e6)
    loop_self, exact_iter = [], []
    for i in index.find("solver.proximal_gd_run"):
        dim, n, kind = index.spans[i][1].split("/")
        if dim == "d256" and kind == "float":
            loop_self.append(index.self_time(i) / int(n[1:]) * 1e6)
        elif dim == "d1" and n == "n8191" and kind == "exact":
            exact_iter.append(index.dur(i) / 8191 * 1e6)
    m["solver.loop_self_us.d256"] = median(loop_self)
    m["solver.exact_iter_us.k13"] = median(exact_iter)
    restarts = index.find("solver.restart_solve", "d64")
    m["solver.time_to_eps_s"] = median([index.dur(i) for i in restarts])
    m["solver.restart_iters"] = median([
        sum(int(index.spans[j][1].split("/")[1][1:]) for j in index.subtree(i)
            if index.spans[j][0] == "solver.proximal_gd_run")
        for i in restarts
    ])

    shares = {"build": [], "check": [], "identity": []}
    uncovered = []
    for lo, hi, wall in own_passes:
        for key, names in (("build", BUILD), ("check", CHECK), ("identity", IDENTITY)):
            shares[key].append(index.outermost(names, lo, hi) / wall)
        roots = sum(index.dur(i) for i in range(lo, hi) if index.spans[i][4] < 0)
        uncovered.append(wall - roots)
    for key, values in shares.items():
        m[f"certificate.{key}_share"] = median(values)
    m["trace.uncovered_s"] = median(uncovered)
    return m
