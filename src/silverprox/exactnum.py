"""Exact arithmetic in the quadratic field Q(sqrt2).

Every stepsize, multiplier, and slack-matrix entry in this package is a
number a + b*sqrt2 with rational a, b, so the whole verification pipeline
can run without a single floating-point operation.  The silver ratio
rho = 1 + sqrt2 is a unit of the ring Z[sqrt2] (rho * (rho - 2) = 1), which
is why its powers -- positive and negative alike -- keep integer components
and why all the divisions that occur stay inside the field.

A ``RadicalScalar`` stores its value as three Python ints: (p + q*sqrt2) / d
with a common denominator d >= 1 and gcd(p, q, d) == 1.  That form is
canonical, so equality compares the three ints directly.  Almost every
certificate quantity lies in Z[sqrt2] (d == 1); arithmetic on such values is
plain integer arithmetic with no gcd at all, and the exact sign of
p + q*sqrt2 compares p*p with 2*q*q.  The rational components a = p/d and
b = q/d are available as ``Fraction`` properties.  ``int_form`` puts a list
of values over one common denominator, once for a caller that sums against
the same values many times.  ``scaled_int_dot`` sums dots of such forms with
ints x + y sqrt2 and reduces once; ``norm2_ints`` and ``int_times`` return
the ints of a squared norm and of a product by an element of Z[sqrt2], for
the caller to sum; ``signs`` reads the signs of many values at once.  So
other modules never read the three ints of a value, nor multiply them by the
rule of the field.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul

_SQRT2_FLOAT = math.sqrt(2.0)


def _component(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(
        f"rational component must be int or Fraction, not {type(value).__name__}"
    )


class RadicalScalar:
    """Exact number a + b*sqrt2 with arbitrary-precision rational a, b.

    Stored as ints (p, q, d) with a = p/d, b = q/d, d >= 1 and
    gcd(p, q, d) == 1; do not assign to them.  The representation is unique
    because sqrt2 is irrational, so equality is componentwise.  Every
    operation returns a new value, and values hash consistently with plain
    rationals (a RadicalScalar with b == 0 equals, and hashes like, its
    rational part).
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, a=0, b=0):
        a, b = _component(a), _component(b)
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        # Both components are in lowest terms, so over their lcm the
        # triple is already canonical.
        d = ad * bd // gcd(ad, bd)
        self.p = an * (d // ad)
        self.q = bn * (d // bd)
        self.d = d

    @property
    def a(self) -> Fraction:
        """Rational part p/d."""
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """Coefficient q/d of sqrt2."""
        return Fraction(self.q, self.d)

    # -- ring/field operations -------------------------------------------

    def __add__(self, other):
        p, q, d = self.p, self.q, self.d
        if isinstance(other, RadicalScalar):
            od = other.d
            if d == 1 and od == 1:
                return _new(p + other.p, q + other.q, 1)
            return _reduced(p * od + other.p * d, q * od + other.q * d, d * od)
        if isinstance(other, int):
            return _new(p + other * d, q, d)
        if isinstance(other, Fraction):
            n, m = other.numerator, other.denominator
            return _reduced(p * m + n * d, q * m, d * m)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        p, q, d = self.p, self.q, self.d
        if isinstance(other, RadicalScalar):
            od = other.d
            if d == 1 and od == 1:
                return _new(p - other.p, q - other.q, 1)
            return _reduced(p * od - other.p * d, q * od - other.q * d, d * od)
        if isinstance(other, int):
            return _new(p - other * d, q, d)
        if isinstance(other, Fraction):
            n, m = other.numerator, other.denominator
            return _reduced(p * m - n * d, q * m, d * m)
        return NotImplemented

    def __rsub__(self, other):
        p, q, d = self.p, self.q, self.d
        if isinstance(other, int):
            return _new(other * d - p, -q, d)
        if isinstance(other, Fraction):
            n, m = other.numerator, other.denominator
            return _reduced(n * d - p * m, -q * m, d * m)
        return NotImplemented

    def __mul__(self, other):
        p, q, d = self.p, self.q, self.d
        if isinstance(other, RadicalScalar):
            # (p1 + q1 r)(p2 + q2 r) with r^2 = 2
            op, oq, od = other.p, other.q, other.d
            if d == 1 and od == 1:
                return _new(p * op + 2 * q * oq, p * oq + q * op, 1)
            return _reduced(p * op + 2 * q * oq, p * oq + q * op, d * od)
        if isinstance(other, int):
            if d == 1:
                return _new(p * other, q * other, 1)
            return _reduced(p * other, q * other, d)
        if isinstance(other, Fraction):
            n, m = other.numerator, other.denominator
            return _reduced(p * n, q * n, d * m)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RadicalScalar):
            return self * other._inverse()
        if isinstance(other, int):
            n, m = other, 1
        elif isinstance(other, Fraction):
            n, m = other.numerator, other.denominator
        else:
            return NotImplemented
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        if n < 0:
            n, m = -n, -m
        return _reduced(self.p * m, self.q * m, self.d * n)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._inverse() * other
        return NotImplemented

    def _inverse(self) -> "RadicalScalar":
        # d/(p + q sqrt2) = d (p - q sqrt2) / (p^2 - 2 q^2); the norm is zero
        # only for p = q = 0 since sqrt2 is irrational.
        p, q, d = self.p, self.q, self.d
        norm = p * p - 2 * q * q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        if norm < 0:
            return _reduced(-d * p, d * q, -norm)
        return _reduced(d * p, -d * q, norm)

    def __neg__(self):
        return _new(-self.p, -self.q, self.d)

    def __pos__(self):
        return self

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    # -- ordering ----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt2: -1, 0, or +1."""
        return _sign(self.p, self.q)  # d > 0

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __eq__(self, other):
        if isinstance(other, RadicalScalar):
            return self.p == other.p and self.q == other.q and self.d == other.d
        if isinstance(other, int):
            return self.q == 0 and self.d == 1 and self.p == other
        if isinstance(other, Fraction):
            return (
                self.q == 0
                and self.p == other.numerator
                and self.d == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        if self.q == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def _diff_sign(self, other) -> int:
        if type(other) is int:  # (p - other d) + q sqrt2, with no value allocated
            return _sign(self.p - other * self.d, self.q)
        return (self - other).sign()  # an operand it cannot subtract raises TypeError

    def __lt__(self, other):
        return self._diff_sign(other) < 0

    def __le__(self, other):
        return self._diff_sign(other) <= 0

    def __gt__(self, other):
        return self._diff_sign(other) > 0

    def __ge__(self, other):
        return self._diff_sign(other) >= 0

    # -- conversions ---------------------------------------------------------

    def to_float(self) -> float:
        # p/d and q/d are each correctly rounded, as float(a) and float(b)
        # are, but their sum is not: where p and q*sqrt2 nearly cancel (the
        # rate constant of a high order, say) most of its digits are lost.
        return self.p / self.d + self.q / self.d * _SQRT2_FLOAT

    __float__ = to_float

    def nearest_float(self) -> float:
        """The float nearest the exact value (ties to even), unlike ``to_float``."""
        p, q, d = self.p, self.q, self.d
        if q == 0:
            return p / d  # int true division rounds correctly
        if self.sign() < 0:
            return -(-self).nearest_float()
        # value >= 2**low, since |p + q sqrt2| = |p^2 - 2 q^2| / |p - q sqrt2|
        low = abs(p * p - 2 * q * q).bit_length() - 1
        low -= (abs(p) + 2 * abs(q)).bit_length() + d.bit_length()
        e = max(0, 66 - low)  # value * 2**e >= 2**66, well past 53 bits
        # q sqrt2 2**e is irrational, so it lies strictly between root and root + 1
        root = math.isqrt(2 * q * q << 2 * e)
        floor = (p << e) + root if q > 0 else (p << e) - root - 1
        # value * 2**e lies strictly between floor // d and the next integer;
        # rounding to odd there keeps the one rounding below correct
        return ((floor // d) | 1) / (1 << e)

    def exact_str(self) -> str:
        """Canonical serialization "a/b + c/d*sqrt2" in lowest terms."""
        p, q, d = self.p, self.q, self.d
        if d == 1:
            return f"{p}/1 + {q}/1*sqrt2"
        gp, gq = gcd(p, d), gcd(q, d)
        return f"{p // gp}/{d // gp} + {q // gq}/{d // gq}*sqrt2"

    def __repr__(self):
        return f"RadicalScalar({self.a}, {self.b})"

    def __str__(self):
        return self.exact_str()


def _sign(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt2: -1, 0, or +1."""
    # With mixed signs, |p| vs |q| sqrt2 reduces to comparing p^2 with 2 q^2
    # (never equal unless both are zero, since sqrt2 is irrational).
    if p >= 0:
        if q >= 0:
            return 1 if p or q else 0
        return 1 if p * p > 2 * q * q else -1
    if q <= 0:
        return -1
    return -1 if p * p > 2 * q * q else 1


_alloc = object.__new__
_get_p, _get_q, _get_d = attrgetter("p"), attrgetter("q"), attrgetter("d")


def _new(p: int, q: int, d: int) -> RadicalScalar:
    """Value (p + q sqrt2)/d from a triple already in canonical form."""
    out = _alloc(RadicalScalar)
    out.p = p
    out.q = q
    out.d = d
    return out


def _reduced(p: int, q: int, d: int) -> RadicalScalar:
    """Value (p + q sqrt2)/d for any d >= 1, brought to canonical form."""
    g = gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    return _new(p, q, d)


def int_form(values: Sequence[RadicalScalar]) -> tuple[list[int], list[int], int]:
    """Integer form of ``values`` over one denominator: ``(ps, qs, d)``.

    ``values[i] == (ps[i] + qs[i] sqrt2) / d`` for every i, where d is the
    lcm of the values' denominators (1 for an empty list).
    """
    d = lcm(*map(_get_d, values))
    ps, qs = list(map(_get_p, values)), list(map(_get_q, values))
    if d != 1:
        up = [d // v.d for v in values]
        ps, qs = list(map(mul, ps, up)), list(map(mul, qs, up))
    return ps, qs, d


def int_times(w: RadicalScalar, ps: Sequence[int], qs: Sequence[int]) -> tuple[list[int], list[int]]:
    """Ints of ``w * (ps[i] + qs[i] sqrt2)`` for ``w`` in Z[sqrt2], such as rho's powers.

    A list of values over one denominator (an ``int_form``) stays over that
    denominator when multiplied so; a ``w`` with a denominator raises ``ValueError``.
    """
    if w.d != 1:
        raise ValueError(f"int_times needs a multiplier in Z[sqrt2], got {w}")
    a, b = w.p, w.q
    return [a * p + 2 * b * q for p, q in zip(ps, qs)], [b * p + a * q for p, q in zip(ps, qs)]


def scaled_int_dot(parts: Iterable[tuple[tuple[Sequence[int], Sequence[int], int],
                                          Sequence[int], Sequence[int]]]) -> RadicalScalar:
    """Exact sum of ``sum(values[i] * (xs[i] + ys[i] sqrt2))`` over ``parts`` of
    (form, xs, ys), with ``form = int_form(values)`` and ints xs and ys.

    A caller that sums against the same values many times prepares their
    forms once.  Each part's dot is summed on ints over its own denominator,
    and the lcm of the denominators is then applied to those ints, so the
    total is reduced once and no field operation runs per part.
    """
    x = y = 0
    d = 1
    for (ps, qs, e), xs, ys in parts:
        if e != d:  # bring the total and this part over lcm(d, e)
            m = lcm(d, e)
            x, y, d = x * (m // d), y * (m // d), m
        f = d // e
        x += f * (sum(map(mul, ps, xs)) + 2 * sum(map(mul, qs, ys)))
        y += f * (sum(map(mul, qs, xs)) + sum(map(mul, ps, ys)))
        del xs, ys  # freed before a lazy ``parts`` makes the next part's lists
    return _reduced(x, y, d)


def signs(values: Sequence[RadicalScalar]) -> list[int]:
    """Exact signs of ``values``: -1, 0 or +1, read from their integer forms in one pass."""
    return list(map(_sign, map(_get_p, values), map(_get_q, values)))  # d > 0


def norm2_ints(form: tuple[Sequence[int], Sequence[int], int],
               vectors: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Ints (a, b) with ||sum(values[i] * vectors[i])||**2 == (a + b sqrt2) / d**2.

    ``form = (ps, qs, d)`` is the ``int_form`` of the values, and the vectors
    are int vectors of one length.
    """
    ps, qs, _ = form
    sums = [(sum(map(mul, ps, col)), sum(map(mul, qs, col))) for col in zip(*vectors)]
    return sum(p * p + 2 * q * q for p, q in sums), 2 * sum(p * q for p, q in sums)


ZERO = RadicalScalar(0, 0)
ONE = RadicalScalar(1, 0)
SQRT2 = RadicalScalar(0, 1)
RHO = RadicalScalar(1, 1)  # silver ratio 1 + sqrt2
RHO_INV = RadicalScalar(-1, 1)  # 1/rho = sqrt2 - 1

_rho_cache: dict[int, RadicalScalar] = {0: ONE, 1: RHO, -1: RHO_INV}


def rho_pow(j: int) -> RadicalScalar:
    """Exact rho**j for any int j (not a bool), memoized.

    Since rho is a unit, every power has integer components (Pell numbers).
    A new positive power is built by halving, rho**m = (rho**(m // 2))**2 rho**(m % 2),
    so a call adds O(log |j|) entries to the memo; a negative one is the
    conjugate of its inverse: with rho**m = p + q sqrt2,
    rho**-m = (-1)**m (p - q sqrt2), because rho (1 - sqrt2) = -1.
    """
    if type(j) is not int:
        if isinstance(j, bool) or not isinstance(j, int):
            raise ValueError(f"rho_pow needs an int exponent, got {j!r}")
        j = int(j)
    value = _rho_cache.get(j)
    if value is None:
        chain, m = [], abs(j)
        while m not in _rho_cache:
            chain.append(m)
            m //= 2
        value = _rho_cache[m]
        for m in reversed(chain):
            value = value * value * RHO if m % 2 else value * value
            _rho_cache[m] = value
        if j < 0:
            p, q = (-value.p, value.q) if j % 2 else (value.p, -value.q)
            value = _rho_cache[j] = _new(p, q, 1)
    return value
