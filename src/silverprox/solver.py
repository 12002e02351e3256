"""Composite proximal gradient descent with pluggable stepsize schedules.

The solver is deliberately scalar-generic: points are plain Python lists
whose entries may be floats (benchmark mode) or exact rationals /
Q(sqrt2) numbers (verification mode).  The same list-based update loop

    x_{t+1} = prox_{a_t h}(x_t - a_t grad f(x_t)),   a_t = alpha_t / M,

therefore runs both the floating-point benchmarks and the exact-arithmetic
runs used to reproduce the worst-case gap of the tight lower-bound
instance.  Subgradients of the nonsmooth part are recovered from the
update itself, s_{t+1} = (x_t - a_t g_t - x_{t+1}) / a_t, on the first read of
``Trace.ss``: the loop does not build them, since only the co-coercivity
checks read them.

The random quadratic instances make one matvec per point; value and gradient
at the same point share it, and match a left-to-right sum only to rounding.
Building one is the only thing in the package that imports numpy.
"""

from __future__ import annotations

import math
import struct
import sys
from contextlib import nullcontext
from dataclasses import InitVar, dataclass
from fractions import Fraction
from operator import neg
from typing import TYPE_CHECKING, Callable

from .exactnum import ONE, ZERO, rho_pow
from .schedule import _require_int, rate_from_certificate, silver_schedule

if TYPE_CHECKING:
    import numpy as np

Vector = list

# Multiplying by HALF halves exactly on ints, Fractions and RadicalScalars,
# and on floats gives the same bits as ``/ 2``.
HALF = Fraction(1, 2)


def _sub(u: Vector, v: Vector) -> Vector:
    return [a - b for a, b in zip(u, v)]


def _dot(u: Vector, v: Vector):
    total = 0
    for a, b in zip(u, v):
        total = total + a * b
    return total


def _norm2(u: Vector):
    return _dot(u, u)


# ---------------------------------------------------------------------------
# Oracles and problem instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothOracle:
    """Value/gradient access to the smooth part, with its constants."""

    value: Callable[[Vector], object]
    gradient: Callable[[Vector], Vector]
    smoothness: object  # M > 0
    strong_convexity: object = 0  # m >= 0, 0 = not strongly convex


@dataclass(frozen=True)
class ProxOracle:
    """Value/prox access to the nonsmooth part.

    ``value`` may return math.inf outside the domain (indicators);
    ``prox(x, a)`` minimizes h(z) + ||z - x||^2 / (2a).
    """

    value: Callable[[Vector], object]
    prox: Callable[[Vector, object], Vector]


@dataclass(frozen=True)
class ProblemInstance:
    smooth: SmoothOracle
    nonsmooth: ProxOracle
    dimension: int
    optimum: Vector | None = None
    optimal_value: object | None = None
    name: str = ""


class _RecoveredSubgradients:
    """``Trace.ss`` while a trace has none: recovers them and keeps them on the trace.

    Each s_{t+1} = (y - x_{t+1}) / a with y = x_t - a g_t, as the loop computes
    y.  A non-data descriptor, so once they are kept the instance attribute
    wins; read on the class it gives None, which makes None the default of ``ss``.
    """

    def __get__(self, trace, owner=None):
        if trace is None:
            return None
        big_m, ss = trace.smoothness, []
        for step, x, g, x_next in zip(trace.steps, trace.xs, trace.gs, trace.xs[1:]):
            a = step if big_m == 1 else step / big_m
            y = [xv - a * gv for xv, gv in zip(x, g)]
            ss.append([(yv - xv) / a for yv, xv in zip(y, x_next)])
        trace.ss = ss
        return ss


@dataclass
class Trace:
    """Per-iteration record of a proximal gradient run.

    ``ss[t]`` holds the subgradient s_{t+1}.  A trace built without ``ss``
    (every solver run) recovers it on first read from ``steps``, ``xs``,
    ``gs`` and ``smoothness``, with the loop's own expressions, so it is
    bit-identical to building it in the loop; a trace built with ``ss`` keeps
    that list.  Optimum data is attached when the instance knows its
    minimizer (s_* = -grad f(x_*)).
    """

    steps: list
    xs: list[Vector]
    gs: list[Vector]
    fs: list
    hs: list
    Fs: list
    # Init-only, so that no hook stands in front of the other fields: on
    # CPython 3.11 a __getattr__ made every attribute read about 4x slower.
    ss: InitVar[list[Vector] | None] = _RecoveredSubgradients()
    smoothness: object = 1
    x_star: Vector | None = None
    s_star: Vector | None = None
    f_star: object | None = None
    h_star: object | None = None
    F_star: object | None = None

    def __post_init__(self, ss):
        if ss is not None:
            self.ss = ss

    @property
    def n(self) -> int:
        return len(self.steps)


def _finite(x: Vector) -> bool:
    """False when a float coordinate is inf or nan; points without floats pass.

    One sum clears a finite point (a float sum is finite if every term is);
    a non-finite sum, which finite terms reach by overflow, is rescanned.
    """
    if not any(isinstance(v, float) for v in x):
        return True
    return math.isfinite(sum(x)) or all(math.isfinite(v) for v in x if isinstance(v, float))


def _total(fv, hv):
    if isinstance(hv, float) and math.isinf(hv):
        return math.inf
    return fv + hv


def proximal_gd_run(problem: ProblemInstance, steps, x0: Vector) -> Trace:
    """Run proximal gradient descent for len(steps) iterations.

    Stepsizes are in unit-normalized form and are divided by the declared
    smoothness constant internally.  Raises on empty or nonpositive steps,
    an x0 not of the problem's dimension and non-finite float iterates.
    """
    steps = list(steps)
    if not steps:
        raise ValueError("stepsize schedule is empty")
    big_m = problem.smooth.smoothness
    fval, grad = problem.smooth.value, problem.smooth.gradient
    hval, prox = problem.nonsmooth.value, problem.nonsmooth.prox

    x = list(x0)
    if len(x) != problem.dimension:
        raise ValueError(f"x0 has {len(x)} coordinates, the problem {problem.dimension}")
    # Divergence: numpy's overflow warnings must not replace the guard's error.
    # Only an oracle on numpy arrays raises them, and it has loaded numpy.
    numpy = sys.modules.get("numpy")
    with numpy.errstate(over="ignore", invalid="ignore") if numpy else nullcontext():
        xs, gs = [x], []
        fs, hs = [fval(x)], [hval(x)]
        Fs = [_total(fs[0], hs[0])]
        for t, step in enumerate(steps):
            if not step > 0:
                raise ValueError(f"stepsize {t} is not positive: {step}")
            a = step if big_m == 1 else step / big_m  # keep exact scalars exact
            g = grad(x)
            y = [xv - a * gv for xv, gv in zip(x, g)]
            x_next = prox(y, a)
            if not _finite(x_next):
                raise ArithmeticError(f"non-finite iterate at iteration {t + 1}")
            gs.append(g)
            xs.append(x_next)
            fs.append(fval(x_next))
            hs.append(hval(x_next))
            Fs.append(_total(fs[-1], hs[-1]))
            x = x_next
        gs.append(grad(x))  # gradient at the final iterate, needed by the trace

        trace = Trace(steps=steps, xs=xs, gs=gs, fs=fs, hs=hs, Fs=Fs, smoothness=big_m)
        if problem.optimum is not None:
            x_star = list(problem.optimum)
            g_star = grad(x_star)
            trace.x_star = x_star
            trace.s_star = [-v for v in g_star]
            trace.f_star = fval(x_star)
            trace.h_star = hval(x_star)
            trace.F_star = problem.optimal_value
            if trace.F_star is None:
                trace.F_star = _total(trace.f_star, trace.h_star)
        return trace


# ---------------------------------------------------------------------------
# Prox oracle library
# ---------------------------------------------------------------------------


def prox_library(name: str, **params) -> ProxOracle:
    """Closed-form prox oracles: zero, l1, box, halfline.

    All four are scalar-generic and work in exact arithmetic.
    """
    if name == "zero":
        _reject_extra(params)
        return ProxOracle(value=lambda x: 0, prox=lambda x, a: list(x))

    if name == "l1":
        weight = params.pop("weight", 1)
        _reject_extra(params)
        if not weight >= 0:
            raise ValueError(f"l1 weight must be nonnegative, got {weight}")

        def value(x):
            total = 0  # a left fold, as in _dot: from 3.12 sum() compensates floats
            for v in x:
                total = total + abs(v)
            return weight * total

        def prox(x, a):
            thr = a * weight
            neg = -thr
            return [v - thr if v > thr else v + thr if v < neg else v * 0 for v in x]

        return ProxOracle(value=value, prox=prox)

    if name == "box":
        lo = params.pop("lo", -1)
        hi = params.pop("hi", 1)
        _reject_extra(params)
        if not lo <= hi:
            raise ValueError(f"box bounds out of order: lo={lo}, hi={hi}")

        def value(x):
            return 0 if all(lo <= v <= hi for v in x) else math.inf

        def prox(x, a):
            return [lo if v < lo else hi if v > hi else v for v in x]

        return ProxOracle(value=value, prox=prox)

    if name == "halfline":
        _reject_extra(params)

        def value(x):
            return 0 if all(v >= 0 for v in x) else math.inf

        def prox(x, a):
            return [v if v > 0 else v * 0 for v in x]

        return ProxOracle(value=value, prox=prox)

    raise ValueError(f"unknown prox oracle {name!r}")


def _reject_extra(params: dict) -> None:
    if params:
        raise ValueError(f"unexpected prox parameters: {sorted(params)}")


# ---------------------------------------------------------------------------
# Co-coercivity evaluation on traces
# ---------------------------------------------------------------------------


def _smooth_at(trace: Trace, i):
    """(x, grad f, f) at trace index i, or at the optimum for i == "*" (grad f = -s_*, lazily)."""
    if i != "*":
        return trace.xs[i], trace.gs[i], trace.fs[i]
    if trace.x_star is None or trace.s_star is None:
        raise ValueError("trace has no optimum data")
    return trace.x_star, map(neg, trace.s_star), trace.f_star


def _nonsmooth_at(trace: Trace, i):
    """(x, subgradient, h) at trace index 1..n, or at the optimum for i == "*"."""
    if i != "*":
        if not 1 <= i <= trace.n:
            raise ValueError(f"no subgradient recorded at index {i}")
        return trace.xs[i], trace.ss[i - 1], trace.hs[i]
    if trace.x_star is None or trace.s_star is None:
        raise ValueError("trace has no optimum data")
    return trace.x_star, trace.s_star, trace.h_star


def cocoercivity_f(trace: Trace, i, j):
    """Smooth interpolation slack between trace indices i and j (or "*").

    One loop over the coordinates carries the left folds of <g_j, x_i - x_j>
    and ||g_i - g_j||**2 together, each product and sum in ``_dot``'s order,
    and HALF (2 (f_i - f_j - <g_j, x_i - x_j>) - ||g_i - g_j||**2) halves
    once: one ``Fraction`` operation on an int trace, and exact on ints,
    Fractions and RadicalScalars.  On floats it gives the bits of subtracting
    ``||g_i - g_j||**2 / 2`` wherever doubling neither overflows nor leaves a
    subnormal result.
    """
    if i == j:
        return 0
    (xi, gi, fi), (xj, gj, fj) = _smooth_at(trace, i), _smooth_at(trace, j)
    inner = norm2 = 0
    for a, b, c, e in zip(xi, xj, gi, gj):
        inner = inner + e * (a - b)
        u = c - e
        norm2 = norm2 + u * u
    return HALF * (2 * (fi - fj - inner) - norm2)


def cocoercivity_h(trace: Trace, i, j):
    """Convex interpolation slack of the nonsmooth part (indices 1..n, "*")."""
    if i == j:
        return 0
    (xi, _, hi), (xj, sj, hj) = _nonsmooth_at(trace, i), _nonsmooth_at(trace, j)
    inner = 0
    for a, b, e in zip(xi, xj, sj):
        inner = inner + e * (a - b)
    return hi - hj - inner


# ---------------------------------------------------------------------------
# Rate constants and the tight lower-bound instance
# ---------------------------------------------------------------------------


def _require_m_and_dist2(big_m: float, dist2: float) -> None:
    if not (big_m > 0 and dist2 >= 0):
        raise ValueError(f"need M > 0 and dist2 >= 0, got M={big_m}, dist2={dist2}")


def rate_bound(k: int, big_m: float, dist2: float) -> float:
    """Certificate bound on F(x_n) - F_* after n = 2**k - 1 silver steps."""
    _require_m_and_dist2(big_m, dist2)
    return rate_from_certificate(k).nearest_float() * big_m * dist2


def constant_baseline(n: int, big_m: float, dist2: float) -> float:
    """Tight worst-case gap of n constant unit steps: M dist2 / (4n)."""
    _require_int(n, "horizon n")
    _require_m_and_dist2(big_m, dist2)
    return big_m * dist2 / (4 * n)


def lower_bound_instance(k: int, exact: bool = True):
    """Worst-case 1-D instance for n = 2**k - 1 silver steps.

    Linear objective with slope 1 / (2 (rho**k - 1)) constrained to the
    half-line x >= 0; from x_0 = 1 the final gap equals 1 / (4 rho**k - 4)
    exactly, which the exact-mode solver reproduces bit for bit.

    Returns (instance, expected_gap) with the gap always exact.
    """
    _require_int(k, "order k")
    gap = ONE / ((rho_pow(k) - ONE) * 4)
    slope = ONE / ((rho_pow(k) - ONE) * 2)
    if exact:
        a = slope
        optimum = [ZERO]
        optimal_value = ZERO
        smoothness = 1
    else:
        a = slope.to_float()
        optimum = [0.0]
        optimal_value = 0.0
        smoothness = 1.0
    problem = ProblemInstance(
        smooth=SmoothOracle(lambda x: a * x[0], lambda x: [a], smoothness),
        nonsmooth=prox_library("halfline"),
        dimension=1,
        optimum=optimum,
        optimal_value=optimal_value,
        name=f"lower-bound-k{k}",
    )
    return problem, gap


# ---------------------------------------------------------------------------
# Strongly convex restarts
# ---------------------------------------------------------------------------


def restart_epoch_order(kappa: float) -> int:
    """Smallest k whose certificate bound halves the distance per epoch.

    Contraction per epoch of n = 2**k - 1 silver steps follows from the
    rate bound and strong convexity: ||x_n - x_*||^2 <= 2 kappa B_k
    ||x_0 - x_*||^2, so 2 kappa B_k <= 1/4 guarantees halving.  Ties go to
    the smaller k.  The comparison B_k <= 1 / (8 kappa) is exact: B_k as a
    float loses its digits to cancellation as k grows (it reads 0.0 at k=45).
    """
    if not kappa >= 1:
        raise ValueError(f"condition number must be >= 1, got {kappa}")
    if kappa == math.inf:
        raise ValueError("condition number must be finite, got inf")
    limit = Fraction(1, 8) / Fraction(kappa)
    k = 1
    while rate_from_certificate(k) > limit:
        k += 1
    return k


def restart_solve(
    problem: ProblemInstance,
    epsilon: float,
    x0: Vector,
    epoch_log: list | None = None,
):
    """Silver-schedule epochs with guaranteed distance halving.

    Runs epochs of n = 2**k - 1 silver steps with k sized from the
    condition number, halving the guaranteed distance to the optimum each
    epoch, and stops once the guarantee reaches epsilon.  The starting
    distance is measured from the instance's known optimum.  Returns
    (final point, total iteration count).
    """
    m = problem.smooth.strong_convexity
    if m is None or not m > 0:
        raise ValueError("restart_solve needs strong convexity m > 0")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    kappa = problem.smooth.smoothness / m
    k = restart_epoch_order(kappa)
    sched = [v.to_float() for v in silver_schedule(k)]
    if problem.optimum is None:
        raise ValueError("restart_solve needs an instance with known optimum")

    x = list(x0)
    guaranteed = math.sqrt(_norm2(_sub(x0, problem.optimum)))
    total = 0
    while guaranteed > epsilon:
        trace = proximal_gd_run(problem, sched, x)
        x = trace.xs[-1]
        total += len(sched)
        guaranteed /= 2
        if epoch_log is not None:
            measured = math.sqrt(_norm2(_sub(x, problem.optimum)))
            epoch_log.append(
                {"k": k, "iterations": len(sched), "guaranteed": guaranteed,
                 "distance": measured}
            )
    return x, total


# ---------------------------------------------------------------------------
# Random composite test instances (known minimizer by construction)
# ---------------------------------------------------------------------------


class _Quadratic:
    """x^T mat x / 2 + lin^T x on float64 arrays; lists of floats in and out.

    ``value`` and ``gradient`` share ``mat @ z`` of the last point, keyed on its
    float64 bytes: only a bit-identical point (not -0.0 for 0.0) reuses it.
    """

    def __init__(self, mat: np.ndarray, lin: np.ndarray):
        from numpy import frombuffer

        self.mat, self.lin = mat, lin
        self._pack = struct.Struct(f"{len(lin)}d").pack  # a point's float64 bytes
        self._frombuffer = frombuffer
        self._key, self._z, self._mz = b"", None, None

    def _product(self, x: Vector):
        key = self._pack(*x)
        if key != self._key:
            self._key, self._z = key, self._frombuffer(key)
            self._mz = self.mat @ self._z
        return self._z, self._mz

    def value(self, x: Vector) -> float:
        z, mz = self._product(x)
        return float(0.5 * (z @ mz) + self.lin @ z)

    def gradient(self, x: Vector) -> Vector:
        return (self._product(x)[1] + self.lin).tolist()


def random_quadratic_instance(
    dim: int,
    m_strong: float,
    m_smooth: float,
    h_kind: str,
    rng: np.random.Generator,
    weight: float = 1.0,
):
    """Random composite instance f + h with a known minimizer.

    f is a quadratic with spectrum in [m_strong, m_smooth].  For dim >= 2
    both endpoints are attained, so the declared constants are exact; at
    dim = 1 the one eigenvalue is m_smooth, so the declared strong
    convexity m_strong is only a lower bound.  The minimizer x_* is
    drawn first together with a subgradient s_* of h at x_*, and the linear
    term is back-solved so that grad f(x_*) = -s_*, which makes x_* the
    global minimizer of the composite objective.  ``h_kind`` is "zero",
    "l1" (weighted by ``weight``) or "box" (the box [-1, 1]).  A ``dim``
    that is not an int >= 1 raises ``ValueError``.

    Returns (instance, x0).
    """
    import numpy as np

    _require_int(dim, "dimension dim")
    if not (0 <= m_strong <= m_smooth and m_smooth > 0):
        raise ValueError("need 0 <= m_strong <= m_smooth and m_smooth > 0")
    eigs = rng.uniform(m_strong, m_smooth, size=dim)
    eigs[0] = m_strong
    eigs[-1] = m_smooth
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    mat = basis @ np.diag(eigs) @ basis.T
    mat = (mat + mat.T) / 2.0

    if h_kind == "zero":
        nonsmooth = prox_library("zero")
        x_star = rng.normal(size=dim)
        s_star = np.zeros(dim)
        h_at_star = 0.0
    elif h_kind == "l1":
        nonsmooth = prox_library("l1", weight=weight)
        x_star = rng.normal(size=dim) * (rng.random(size=dim) < 0.6)
        s_star = np.where(
            x_star != 0,
            weight * np.sign(x_star),
            rng.uniform(-weight, weight, size=dim),
        )
        h_at_star = weight * float(np.abs(x_star).sum())
    elif h_kind == "box":
        nonsmooth = prox_library("box", lo=-1.0, hi=1.0)
        x_star = np.clip(rng.normal(loc=0.0, scale=2.0, size=dim), -1.0, 1.0)
        s_star = np.where(
            x_star >= 1.0,
            rng.uniform(0.0, 1.0, size=dim),
            np.where(x_star <= -1.0, rng.uniform(-1.0, 0.0, size=dim), 0.0),
        )
        h_at_star = 0.0
    else:
        raise ValueError(f"unknown nonsmooth kind {h_kind!r}")

    lin = -(mat @ x_star + s_star)
    quad = _Quadratic(mat, lin)
    x_star_list = [float(v) for v in x_star]
    problem = ProblemInstance(
        smooth=SmoothOracle(value=quad.value, gradient=quad.gradient,
                            smoothness=float(m_smooth), strong_convexity=float(m_strong)),
        nonsmooth=nonsmooth,
        dimension=dim,
        optimum=x_star_list,
        optimal_value=quad.value(x_star_list) + h_at_star,
        name=f"quadratic-{h_kind}-d{dim}",
    )
    radius = rng.uniform(0.5, 2.0)
    direction = rng.normal(size=dim)
    direction *= radius / np.linalg.norm(direction)
    x0 = [float(a + d) for a, d in zip(x_star, direction)]
    return problem, x0
