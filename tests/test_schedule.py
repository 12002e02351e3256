import enum

import pytest

from silverprox.exactnum import ONE, SQRT2, RadicalScalar, rho_pow
from silverprox.schedule import (
    c_double,
    c_sequence,
    silver_schedule,
    silver_step,
    two_adic_valuation,
)


def exact_sum(seq):
    total = RadicalScalar(0, 0)
    for v in seq:
        total = total + v
    return total


def test_two_adic_valuation():
    assert two_adic_valuation(1) == 0
    assert two_adic_valuation(4) == 2
    assert two_adic_valuation(12) == 2
    assert two_adic_valuation(96) == 5
    with pytest.raises(ValueError):
        two_adic_valuation(0)
    with pytest.raises(ValueError):
        two_adic_valuation(-3)


def test_silver_step_closed_form():
    assert silver_step(0) == SQRT2
    assert silver_step(1) == RadicalScalar(2, 0)
    assert silver_step(3) == RadicalScalar(2, 1)  # rho + 1
    assert silver_step(7) == rho_pow(2) + ONE
    with pytest.raises(ValueError):
        silver_step(-1)


def test_schedule_small_orders():
    assert silver_schedule(1) == [SQRT2]
    assert silver_schedule(2) == [SQRT2, RadicalScalar(2, 0), SQRT2]
    pi3 = silver_schedule(3)
    assert len(pi3) == 7
    assert pi3[3] == RadicalScalar(2, 1)
    assert exact_sum(pi3) == RadicalScalar(6, 5)  # rho^3 - 1


def test_schedule_matches_closed_form():
    for k in range(1, 9):
        pi = silver_schedule(k)
        assert pi == [silver_step(t) for t in range(2**k - 1)]


def test_schedule_sums():
    for k in range(1, 9):
        assert exact_sum(silver_schedule(k)) == rho_pow(k) - ONE
        assert exact_sum(c_sequence(k)) == (rho_pow(k) - ONE) * 2


def test_schedule_palindromic_recursion():
    for k in range(2, 9):
        pi = silver_schedule(k)
        half = 2 ** (k - 1) - 1
        assert pi[:half] == pi[half + 1 :]
        assert pi[half] == rho_pow(k - 2) + ONE


@pytest.mark.parametrize("k", range(1, 11))
def test_c_sequence_doubles_from_the_order_below(k):
    # c(k + 1) is one doubling of c(k), with pi(k) the prefix of pi(k + 1)
    assert c_sequence(k + 1) == c_double(k, silver_schedule(k), c_sequence(k))


def test_c_sequence_small_orders():
    assert c_sequence(1) == [SQRT2 * 2]  # 2(rho - 1)
    c2 = c_sequence(2)
    assert c2 == [SQRT2, SQRT2 * 2, RadicalScalar(4, 1)]


def test_c_dominates_pi():
    for k in range(1, 13):
        for cj, pj in zip(c_sequence(k), silver_schedule(k)):
            assert (cj - pj).sign() >= 0


def test_schedule_takes_an_int_subclass_as_order():
    # silver_schedule is the solver's and the CLI's API too: an int subclass
    # other than bool is an order, as it is for the certificate's builders.
    class Order(enum.IntEnum):
        THREE = 3

    assert silver_schedule(Order.THREE) == silver_schedule(3)


def test_invalid_order():
    for fn in (silver_schedule, c_sequence):
        with pytest.raises(ValueError):
            fn(0)


@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, "3", None])
@pytest.mark.parametrize("fn", [silver_schedule, c_sequence, silver_step, two_adic_valuation])
def test_schedule_rejects_a_bool_or_non_int(fn, bad):
    # One boundary check, shared with the certificate and the solver: a bool
    # is not an order (True read as order 1), and a float or str raised
    # TypeError, or from silver_step's bit operations.
    with pytest.raises(ValueError, match=r"must be an int >= [01], got"):
        fn(bad)
