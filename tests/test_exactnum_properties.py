"""Property tests: RadicalScalar against a Fraction-pair reference model."""

import enum
import math
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from silverprox import exactnum
from silverprox.exactnum import (ONE, RHO, RHO_INV, SQRT2, ZERO, RadicalScalar, int_form, int_times,
                                 norm2_ints, rho_pow, scaled_int_dot, signs)
from test_exactnum import parse_exact_str


class Ref:
    """Reference model: a + b*sqrt2 as a pair of Fractions, operated on directly."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    @staticmethod
    def of(value):
        return value if isinstance(value, Ref) else Ref(value)

    def __add__(self, other):
        other = Ref.of(other)
        return Ref(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        other = Ref.of(other)
        return Ref(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        other = Ref.of(other)
        return Ref(self.a * other.a + 2 * self.b * other.b, self.a * other.b + self.b * other.a)

    def __truediv__(self, other):
        other = Ref.of(other)
        norm = other.a * other.a - 2 * other.b * other.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        return self * Ref(other.a / norm, -other.b / norm)

    def __neg__(self):
        return Ref(-self.a, -self.b)

    def sign(self):
        sa, sb = (self.a > 0) - (self.a < 0), (self.b > 0) - (self.b < 0)
        if sa == 0 or sb == 0 or sa == sb:
            return sa or sb
        gap = self.a * self.a - 2 * self.b * self.b
        return sa * ((gap > 0) - (gap < 0))

    def __eq__(self, other):
        other = Ref.of(other)
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def exact_str(self):
        a, b = self.a, self.b
        return f"{a.numerator}/{a.denominator} + {b.numerator}/{b.denominator}*sqrt2"


numerators = st.one_of(
    st.integers(-30, 30),
    st.integers(-(2**100), 2**100),  # components well above 2**64
)
# A few shared small denominators, so that sums often cancel a common factor.
denominators = st.one_of(st.just(1), st.sampled_from((2, 3, 4, 6)), st.integers(1, 60))
rationals = st.builds(Fraction, numerators, denominators)
pairs = st.tuples(rationals, rationals)
# Right-hand operands: another scalar, an int (bools and ints far above the
# components too), or a Fraction, zero included.
operands = st.one_of(
    pairs.map(lambda ab: (RadicalScalar(*ab), Ref(*ab))),
    st.one_of(numerators, st.integers(-(2**300), 2**300), st.booleans()).map(lambda n: (n, n)),
    rationals.map(lambda r: (r, r)),
)


def same(value, ref):
    """value is the reference number, in canonical form."""
    assert isinstance(value, RadicalScalar)
    assert (value.a, value.b) == (ref.a, ref.b)
    assert value.d >= 1 and gcd(value.p, value.q, value.d) == 1
    assert value.exact_str() == ref.exact_str()


@settings(deadline=None)
@given(pairs, operands)
@example((Fraction(3), Fraction(-2)), (0, 0))
@example((Fraction(1, 2), Fraction(0)), (ZERO, Ref(0)))
@example((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
def test_arithmetic_matches_reference(ab, operand):
    x, rx = RadicalScalar(*ab), Ref(*ab)
    y, ry = operand
    same(x + y, rx + ry)
    same(y + x, Ref.of(ry) + rx)
    same(x - y, rx - ry)
    same(y - x, Ref.of(ry) - rx)
    same(x * y, rx * ry)
    same(y * x, Ref.of(ry) * rx)
    for num, den, ref_num, ref_den in ((x, y, rx, ry), (y, x, ry, rx)):
        try:
            want = Ref.of(ref_num) / ref_den
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                num / den
        else:
            same(num / den, want)


@settings(deadline=None)
@given(st.tuples(numerators, numerators), st.lists(pairs, max_size=8))
@example((3, 2), [(Fraction(1, 6), Fraction(-5, 4)), (Fraction(2, 3), Fraction(0))])
def test_int_times_keeps_the_common_denominator(w, components):
    # Z[sqrt2] multipliers over values with d > 1, read back over the same d.
    unit, values = RadicalScalar(*w), [RadicalScalar(*ab) for ab in components]
    ps, qs, d = int_form(values)
    got = int_times(unit, ps, qs)
    assert [RadicalScalar(Fraction(p, d), Fraction(q, d)) for p, q in zip(*got)] == [
        unit * v for v in values]
    with pytest.raises(ValueError, match="Z\\[sqrt2\\]"):
        int_times(RadicalScalar(Fraction(1, 3), 0), ps, qs)


@settings(deadline=None)
@given(st.lists(st.lists(st.tuples(pairs, numerators, numerators), max_size=5), max_size=4))
@example([])
@example([[((Fraction(1, 6), Fraction(-5, 4)), -3, 2)], [((Fraction(2, 3), Fraction(0)), 7, -1)]])
@example([[((Fraction(1, 6), Fraction(-5, 4)), -3, 2), ((Fraction(2, 3), Fraction(0)), 7, 0)]])
def test_scaled_int_dot_matches_the_sum_of_scaled_dots(parts):
    # Values with d > 1 over ints x + y sqrt2 of either sign, each part over
    # its own denominator; a single part is one dot.
    built = [([RadicalScalar(*ab) for ab, _, _ in terms], [x for _, x, _ in terms],
              [y for _, _, y in terms]) for terms in parts]
    got = scaled_int_dot([(int_form(values), xs, ys) for values, xs, ys in built])
    assert got == sum((value * (SQRT2 * b + a) for values, xs, ys in built
                       for value, a, b in zip(values, xs, ys)), ZERO)
    assert got.d >= 1 and gcd(got.p, got.q, got.d) == 1


@settings(deadline=None)
@given(st.lists(pairs, max_size=8))
@example([(Fraction(-3, 2), Fraction(1)), (Fraction(3, 2), Fraction(-1)), (Fraction(0), 0)])
def test_signs_match_each_sign(components):
    values = [RadicalScalar(*ab) for ab in components]
    assert signs(values) == [v.sign() for v in values]


@settings(deadline=None)
@given(st.integers(0, 3).flatmap(lambda dim: st.lists(
    st.tuples(pairs, st.lists(numerators, min_size=dim, max_size=dim)), max_size=6)))
@example([])
@example([((Fraction(1, 6), Fraction(-5, 4)), [-3, 1]), ((Fraction(2, 3), Fraction(0)), [7, 0])])
def test_norm2_ints_matches_the_squared_norm(terms):
    values, vectors = [RadicalScalar(*ab) for ab, _ in terms], [v for _, v in terms]
    form = int_form(values)
    d = form[2]
    a, b = norm2_ints(form, vectors)
    got = RadicalScalar(Fraction(a, d * d), Fraction(b, d * d))
    total = ZERO
    for col in zip(*vectors):
        coord = sum((v * x for v, x in zip(values, col)), ZERO)
        total = total + coord * coord
    assert got == total


@settings(deadline=None)
@given(st.lists(pairs, max_size=8))
@example([])
@example([(Fraction(1, 6), Fraction(-5, 4)), (Fraction(2, 3), Fraction(0))])
def test_int_form_is_exact_over_the_lcm_of_denominators(components):
    values = [RadicalScalar(*ab) for ab in components]
    ps, qs, d = int_form(values)
    # the lcm of the denominators of a_i and b_i, read through the public properties
    assert d == math.lcm(*(math.lcm(v.a.denominator, v.b.denominator) for v in values))
    assert len(ps) == len(qs) == len(values)
    for p, q, v in zip(ps, qs, values):
        assert type(p) is int and type(q) is int
        assert RadicalScalar(Fraction(p, d), Fraction(q, d)) == v


@settings(deadline=None)
@given(pairs)
def test_unary_and_sign_match_reference(ab):
    x, rx = RadicalScalar(*ab), Ref(*ab)
    same(-x, -rx)
    assert x.sign() == rx.sign()
    assert bool(x) == (rx.sign() != 0)
    same(abs(x), rx if rx.sign() >= 0 else -rx)


@settings(deadline=None)
@given(pairs, operands)
@example((Fraction(7, 3), Fraction(-5, 3)), (0, 0))  # d > 1 against ints
@example((Fraction(7, 3), Fraction(-5, 3)), (-1, -1))
@example((Fraction(-1, 6), Fraction(1, 6)), (True, True))
@example((Fraction(1, 6), Fraction(0)), (False, False))
@example((Fraction(2**200 + 1, 2), Fraction(0)), (2**199, 2**199))
def test_comparisons_and_hash_match_reference(ab, operand):
    x, rx = RadicalScalar(*ab), Ref(*ab)
    y, ry = operand
    equal = rx == ry
    assert (x == y) is equal and (y == x) is equal
    assert (x != y) is not equal
    if equal:
        assert hash(x) == hash(y)
    assert hash(x) == hash(rx)
    gap = (rx - ry).sign()
    assert (x < y) is (gap < 0) and (y > x) is (gap < 0)
    assert (x <= y) is (gap <= 0) and (y >= x) is (gap <= 0)
    assert (x > y) is (gap > 0) and (x >= y) is (gap >= 0)


@settings(deadline=None)
@given(pairs, st.integers(1, 2**70))
def test_equal_values_hash_equal(ab, scale):
    x = RadicalScalar(*ab)
    # The same number reached through a detour with a large common factor.
    y = RadicalScalar(ab[0] * scale, ab[1] * scale) / scale
    assert x == y and hash(x) == hash(y)
    rational = RadicalScalar(ab[0])
    assert rational == ab[0] and hash(rational) == hash(ab[0])


@settings(deadline=None)
@given(pairs)
def test_exact_str_round_trip(ab):
    x, rx = RadicalScalar(*ab), Ref(*ab)
    text = x.exact_str()
    assert text == rx.exact_str()
    same(parse_exact_str(text), rx)
    assert repr(x) == f"RadicalScalar({rx.a}, {rx.b})"


@given(pairs)
def test_floats_are_rejected(ab):
    x = RadicalScalar(*ab)
    for bad in (lambda: x + 0.5, lambda: 0.5 * x, lambda: x / 0.5, lambda: x < 0.5,
                lambda: RadicalScalar(0.5), lambda: RadicalScalar(0, 0.5)):
        with pytest.raises(TypeError):
            bad()
    assert x != 0.5


def rounds_to(value, x):
    """x lies between the midpoints to float ``value``'s neighbours (exact comparisons)."""
    below = (Fraction(value) + Fraction(math.nextafter(value, -math.inf))) / 2
    above = (Fraction(value) + Fraction(math.nextafter(value, math.inf))) / 2
    return x >= below and x <= above


@settings(deadline=None)
@given(pairs)
@example((Fraction(-math.isqrt(2 * 4**100)), Fraction(2**100)))  # p + q sqrt2 cancels
@example((Fraction(5, 2), Fraction(0)))  # a tie, rounded to even
def test_nearest_float_is_correctly_rounded(ab):
    x = RadicalScalar(*ab)
    assert rounds_to(x.nearest_float(), x)


@pytest.mark.parametrize("j", range(0, 61, 6))
def test_nearest_float_of_cancelling_powers(j):
    # rho**-j = p + q sqrt2, whose components cancel to within rho**-j
    for x in (rho_pow(-j), -rho_pow(-j)):
        assert rounds_to(x.nearest_float(), x)


@pytest.mark.parametrize("j", [21, 31, 41])
def test_nearest_float_just_beside_a_midpoint(j):
    # rho**j = P + Q sqrt2 with Q sqrt2 = P + rho**-j for odd j, so
    # x = m +- (Q sqrt2 - P) lies within rho**-j of the midpoint m between the
    # floats 2**60 and 2**60 + 256, on either side: there an integer floor that
    # is off by one flips the rounding.
    big_p, big_q = rho_pow(j).p, rho_pow(j).q
    m = 2**60 + 128
    above = RadicalScalar(m - big_p, big_q)  # m + (Q sqrt2 - P)
    below = RadicalScalar(m + big_p, -big_q)  # m - (Q sqrt2 - P)
    assert below < m < above
    assert below.nearest_float() == 2.0**60
    assert above.nearest_float() == 2.0**60 + 256


def test_rho_pow_far_from_the_memo(monkeypatch):
    # A fresh memo holds rho**-1, 1 and rho; a power thousands of steps away
    # is built by halving, in a loop, and its inverse by conjugation, so the
    # two calls leave a few dozen entries, not every power in between.
    monkeypatch.setattr(exactnum, "_rho_cache", {0: ONE, 1: RHO, -1: RHO_INV})
    high, low = rho_pow(5000), rho_pow(-5000)
    assert len(exactnum._rho_cache) - 3 <= 2 * (5000).bit_length()
    assert high * low == ONE
    assert rho_pow(4999) * RHO == high and rho_pow(-4999) * RHO_INV == low
    assert high.d == 1 and high.q.bit_length() > 6000


def test_rho_pow_near_the_origin_from_a_fresh_memo(monkeypatch):
    # The farthest powers first, so the nearer ones come from halving and
    # conjugation rather than from their neighbours.
    monkeypatch.setattr(exactnum, "_rho_cache", {0: ONE, 1: RHO, -1: RHO_INV})
    for j in sorted(range(-70, 71), key=lambda j: (-abs(j), j)):
        assert rho_pow(j) * rho_pow(-j) == ONE, j
        assert rho_pow(j + 1) == rho_pow(j) * RHO, j
        assert rho_pow(j).d == 1


@pytest.mark.parametrize("j", [2.5, 2.0, True, False, "3", None])
def test_rho_pow_rejects_non_int_exponents(j):
    with pytest.raises(ValueError, match="int exponent"):
        rho_pow(j)


def test_rho_pow_takes_an_int_subclass_with_int_memo_keys(monkeypatch):
    class Power(enum.IntEnum):
        UP = 7
        DOWN = -7

    monkeypatch.setattr(exactnum, "_rho_cache", {0: ONE, 1: RHO, -1: RHO_INV})
    assert rho_pow(Power.UP) * rho_pow(Power.DOWN) == ONE
    assert {type(j) for j in exactnum._rho_cache} == {int}
    assert rho_pow(Power.UP) == rho_pow(6) * RHO
