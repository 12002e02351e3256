"""The silver stepsize schedule and its companion sequence.

Stepsizes are unit-normalized (smoothness constant 1); the solver rescales
by 1/M at the oracle boundary.  The closed form is

    alpha_t = rho**(nu(t+1) - 1) + 1,

where nu is the 2-adic valuation, and the block of the first 2**k - 1
entries doubles by inserting one long middle step:

    pi(k+1) = [pi(k), rho**(k-1) + 1, pi(k)].

The companion sequence c(k) weights the nonsmooth subgradients inside the
rate certificate.  It starts from c(1) = [2(rho-1)] and doubles as

    c(k+1) = [pi(k), (1 + rho**-k)(rho**(k-1) + 1),
              rho*c(k) - (rho - 1 - rho**-k)*pi(k)],

which keeps sum(pi(k)) = rho**k - 1, sum(c(k)) = 2(rho**k - 1), and
c(k) >= pi(k) entrywise -- all exactly, and all checked in the tests.  One
level of each doubling is ``pi_double`` and ``c_double``; ``c_sequence``
applies both k - 1 times from order 1, and the certificate applies them once
per order, to the order below.  Both also hold from the empty order 0:
pi(1) = [rho**-1 + 1] = [sqrt2] and c(1) = [2 (rho**-1 + 1)] = [2 sqrt2].

The rate constant the certificate proves, rho / (sqrt2 (4 rho**k - 2)), is
``rate_from_certificate``; it reads only powers of rho, so it lives here,
where the solver finds it without loading the certificate checker.
"""

from __future__ import annotations

from .exactnum import ONE, RHO, SQRT2, RadicalScalar, rho_pow


def _require_int(value: int, name: str, least: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is an int >= ``least`` (a bool is not).

    The one boundary check of an order k, here and in the certificate and
    the solver, and of an index.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def two_adic_valuation(i: int) -> int:
    """Largest j such that 2**j divides i, for an int i >= 1."""
    _require_int(i, "2-adic valuation's argument")
    return (i & -i).bit_length() - 1


def silver_step(t: int) -> RadicalScalar:
    """Closed-form stepsize alpha_t for an int t >= 0."""
    _require_int(t, "stepsize index t", 0)
    return rho_pow(two_adic_valuation(t + 1) - 1) + ONE


def silver_schedule(k: int) -> list[RadicalScalar]:
    """First 2**k - 1 stepsizes, built by the doubling recursion."""
    _require_int(k, "order k")
    pi = [SQRT2]
    for j in range(1, k):
        pi = pi_double(j, pi)
    return pi


def pi_double(j: int, pi: list[RadicalScalar]) -> list[RadicalScalar]:
    """pi(j+1) from pi(j) = ``pi``: one level of the doubling."""
    return pi + [rho_pow(j - 1) + ONE] + pi


def c_double(j: int, pi: list[RadicalScalar], c: list[RadicalScalar]) -> list[RadicalScalar]:
    """c(j+1) from pi(j) = ``pi`` and c(j) = ``c``: one level of the doubling."""
    mid = (ONE + rho_pow(-j)) * (rho_pow(j - 1) + ONE)  # pi(j+1)'s middle step, scaled
    drag = RHO - ONE - rho_pow(-j)
    return pi + [mid] + [RHO * cj - drag * pj for cj, pj in zip(c, pi)]


def c_sequence(k: int) -> list[RadicalScalar]:
    """Companion sequence c(k) of length 2**k - 1."""
    _require_int(k, "order k")
    pi, c = [SQRT2], [SQRT2 * 2]
    for j in range(1, k):
        pi, c = pi_double(j, pi), c_double(j, pi, c)
    return c


def rate_from_certificate(k: int) -> RadicalScalar:
    """Sharp per-unit rate constant rho / (sqrt2 (4 rho**k - 2)), exact.

    After n = 2**k - 1 steps, F(x_n) - F_* is at most this constant times
    M ||x_0 - x_*||^2; ``certificate`` verifies the certificate behind it.
    """
    _require_int(k, "order k")
    return RHO / (SQRT2 * (rho_pow(k) * 4 - 2))
