"""Laurent polynomial arithmetic."""

import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lsopkit.laurent import LaurentPoly, int_power

coeff = st.fractions(min_value=-10, max_value=10, max_denominator=9)
poly = st.dictionaries(st.integers(min_value=-6, max_value=6), coeff, max_size=6).map(LaurentPoly)
points = st.sampled_from([Fraction(2), Fraction(-3, 2), Fraction(5, 4), Fraction(-7, 3)])


def test_zero_coefficients_dropped():
    p = LaurentPoly({2: Fraction(0), 1: Fraction(3)})
    assert p.coeffs == {1: Fraction(3)}
    assert p.coeff(2) == 0


def test_shift_and_reciprocal():
    p = LaurentPoly({-1: 2, 3: 1})
    assert p.shift(2).coeffs == {1: 2, 5: 1}
    assert p.reciprocal_arg().coeffs == {1: 2, -3: 1}


def test_self_reciprocal_detection():
    q = LaurentPoly({0: 1, 1: -5, 2: 1})
    assert q.is_self_reciprocal(2)
    assert not LaurentPoly({0: 1, 1: 2}).is_self_reciprocal(1)


def test_evaluation_at_zero():
    assert LaurentPoly({0: 4, 2: 1})(0) == 4
    with pytest.raises(ZeroDivisionError):
        LaurentPoly({-1: 1})(0)


@given(poly, poly, points)
def test_product_evaluates_pointwise(p, q, z):
    assert (p * q)(z) == p(z) * q(z)


@given(poly, poly, points)
def test_sum_evaluates_pointwise(p, q, z):
    assert (p + q)(z) == p(z) + q(z)


@given(poly, points)
def test_reciprocal_argument(p, z):
    assert p.reciprocal_arg()(z) == p(1 / z)


@given(poly, st.integers(min_value=-4, max_value=4), points)
def test_shift_is_monomial_multiplication(p, k, z):
    assert p.shift(k)(z) == p(z) * z**k


def term_by_term(p, z):
    """LaurentPoly.__call__ as it was before exact points took one integer
    Horner: one power and one Fraction operation per term."""
    total = 0
    for e, c in p.coeffs.items():
        total += c * int_power(z, e)
    return total


def same_value(a, b):
    """Equal with the same type; floats bit for bit, the sign of zero included."""
    if type(a) is not type(b):
        return False
    return struct.pack("<d", a) == struct.pack("<d", b) if isinstance(a, float) else a == b


EXPONENT_RANGES = {"positive": (0, 6), "negative": (-6, -1), "mixed": (-5, 5),
                   "above zero": (2, 7), "below zero": (-7, -2)}


@pytest.mark.parametrize("kind", sorted(EXPONENT_RANGES))
def test_exact_evaluation_matches_term_by_term(kind):
    lo, hi = EXPONENT_RANGES[kind]
    rng = random.Random(kind)
    points = [Fraction(-7, 3), Fraction(-2), Fraction(1, 5), Fraction(-3, 8), Fraction(11, 4),
              Fraction(1), Fraction(-1)]
    for trial in range(60):
        ints = trial % 3 == 0  # int coefficients, Fraction ones, or both
        p = LaurentPoly({e: rng.randint(-9, 9) if ints or rng.random() < 0.3
                         else Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                         for e in range(lo, hi + 1) if rng.random() < 0.7})
        for z in points + [Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 40))]:
            assert same_value(p(z), term_by_term(p, z)), (p, z)


def test_exact_evaluation_edge_cases():
    assert same_value(LaurentPoly.zero()(Fraction(3, 2)), 0)
    assert same_value(LaurentPoly({0: 5})(Fraction(3, 2)), Fraction(5))
    assert same_value(LaurentPoly({-2: 1, 1: 1})(Fraction(-1, 2)), Fraction(7, 2))
    with pytest.raises(ZeroDivisionError):
        LaurentPoly({-1: Fraction(1, 2), 2: 1})(Fraction(0))


def test_float_and_mixed_evaluation_is_term_by_term_bit_for_bit():
    rng = random.Random(5)
    for _ in range(200):
        exact = LaurentPoly({e: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                             for e in range(-4, 5) if rng.random() < 0.6})
        floats = exact.as_float()
        mixed = LaurentPoly({**exact.coeffs, 5: rng.uniform(-2, 2)})
        for p, z in ((floats, rng.uniform(-3, 3)), (exact, rng.uniform(-3, 3)),
                     (floats, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))),
                     (mixed, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))),
                     (exact, rng.randint(1, 5))):
            assert same_value(p(z), term_by_term(p, z)), (p, z)
    for p, z in ((LaurentPoly({0: -1.0, 1: 1.0}), 1.0), (LaurentPoly({-1: 1e-300, 1: -1e-300}), 1e300)):
        assert same_value(p(z), term_by_term(p, z))  # zero values, sign bit included
