import random
import re
from fractions import Fraction

import pytest

from silverprox.exactnum import ONE, RHO, SQRT2, ZERO, RadicalScalar, rho_pow


def parse_exact_str(text):
    """Read back ``exact_str``'s "a/b + c/d*sqrt2"; other text raises ``ValueError``."""
    match = re.fullmatch(r"(-?\d+/[1-9]\d*) \+ (-?\d+/[1-9]\d*)\*sqrt2", text)
    if not match:
        raise ValueError(f"not a serialized RadicalScalar: {text!r}")
    return RadicalScalar(*map(Fraction, match.groups()))


def rand_scalar(rng):
    return RadicalScalar(
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
    )


def test_silver_ratio_identities():
    assert RHO * RHO == RHO * 2 + 1
    assert RHO * (RHO - 2) == ONE
    assert SQRT2 * SQRT2 == RadicalScalar(2, 0)


def test_multiplication_formula():
    x = RadicalScalar(1, 1)
    y = RadicalScalar(-1, 1)
    assert x * x == RadicalScalar(3, 2)
    assert x * y == ONE


def test_field_axioms_random():
    rng = random.Random(0)
    for _ in range(200):
        x, y, z = (rand_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        if y:
            assert (x / y) * y == x
        if x:
            assert x / x == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        RHO / RadicalScalar(0, 0)


def test_sign_examples():
    assert RadicalScalar(1, -1).sign() == -1  # 1 < sqrt2
    assert RadicalScalar(3, -2).sign() == 1  # 3 > 2 sqrt2
    assert ZERO.sign() == 0
    assert RadicalScalar(-1, 1).sign() == 1  # sqrt2 > 1
    assert RadicalScalar(2, -3).sign() == -1


def test_sign_matches_float():
    rng = random.Random(1)
    for _ in range(500):
        x = rand_scalar(rng)
        f = x.to_float()
        if abs(f) > 1e-6:
            assert x.sign() == (1 if f > 0 else -1)


def test_comparisons():
    assert SQRT2 < RHO
    assert RHO > 2
    assert SQRT2 >= SQRT2
    assert RadicalScalar(1, 0) <= Fraction(3, 2)
    with pytest.raises(TypeError, match="'RadicalScalar' and 'str'"):
        RadicalScalar(1) < "a"


def test_rho_pow_values():
    assert rho_pow(2) == RadicalScalar(3, 2)
    assert rho_pow(-1) == RadicalScalar(-1, 1)
    assert rho_pow(8) == RadicalScalar(577, 408)
    assert abs(rho_pow(8).to_float() - 1153.99) < 0.01


def test_rho_pow_inverse_pairs():
    for j in range(33):
        assert rho_pow(j) * rho_pow(-j) == ONE


def test_to_float():
    assert abs(RadicalScalar(1, 1).to_float() - 2.41421356) < 1e-8
    assert ZERO.to_float() == 0.0
    assert abs(RadicalScalar(-1, 1).to_float() - 0.41421356) < 1e-8


def test_serialization_round_trip():
    rng = random.Random(2)
    for _ in range(50):
        x = rand_scalar(rng)
        assert parse_exact_str(x.exact_str()) == x
    assert SQRT2.exact_str() == "0/1 + 1/1*sqrt2"
    assert RadicalScalar(Fraction(-3, 4), Fraction(1, 2)).exact_str() == "-3/4 + 1/2*sqrt2"


@pytest.mark.parametrize("text", ["1/0 + 1/1*sqrt2", "1/1 + 1/0*sqrt2", "1/1 + 1/1",
                                  "x + 1/1*sqrt2"])
def test_from_exact_str_rejects_text_it_cannot_parse(text):
    with pytest.raises(ValueError, match="not a serialized RadicalScalar"):
        parse_exact_str(text)


def test_equality_and_hash_with_rationals():
    assert RadicalScalar(2, 0) == 2
    assert hash(RadicalScalar(2, 0)) == hash(2)
    assert RadicalScalar(Fraction(1, 2), 0) == Fraction(1, 2)
    assert RadicalScalar(2, 1) != 2
    assert not RadicalScalar(0, 0)
    assert RadicalScalar(0, 1)


def test_mixed_scalar_arithmetic():
    assert 1 + SQRT2 == RHO
    assert Fraction(1, 2) * SQRT2 == RadicalScalar(0, Fraction(1, 2))
    assert 1 / RHO == RadicalScalar(-1, 1)
    assert 2 - SQRT2 == RadicalScalar(2, -1)
    assert abs(RadicalScalar(1, -1)) == RadicalScalar(-1, 1)
    assert +RHO is RHO
    for reflected in (lambda: "a" - RHO, lambda: "a" / RHO):
        with pytest.raises(TypeError, match="'str' and 'RadicalScalar'"):
            reflected()
