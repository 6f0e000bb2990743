"""Discrete measures, skew inner product, and moment transforms."""

import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lsopkit.laurent import LaurentPoly, int_power
from lsopkit.lsop import moment_skew_array, random_family
from lsopkit.moments import DiscreteMeasure, MomentTable, c_moment, mu_from_c, mu_moment, skew_inner

REF = DiscreteMeasure([Fraction(2)], [Fraction(1)])


def rational_poly(rng):
    return LaurentPoly({e: Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                        for e in range(-3, 4) if rng.random() < 0.7})


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure([0.0], [1.0])
    with pytest.raises(ValueError):
        DiscreteMeasure([2.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        DiscreteMeasure([2.0, 0.5], [1.0, 1.0])  # reciprocal pair
    with pytest.raises(ValueError):
        DiscreteMeasure([2.0], [0.0])
    # strict=False admits degenerate supports on purpose
    DiscreteMeasure([2.0, 2.0], [1.0, 1.0], strict=False)


def test_measure_rejects_non_finite_entries():
    for bad in (float("inf"), float("-inf"), float("nan"), complex(2.0, float("nan"))):
        with pytest.raises(ValueError):
            DiscreteMeasure([2.0, bad], [1.0, 1.0])
        with pytest.raises(ValueError):
            DiscreteMeasure([2.0, 3.0], [1.0, bad])


def test_int_entries_are_stored_as_fractions():
    m = DiscreteMeasure([2, 3], [1, 1])
    assert all(type(x) is Fraction for x in m.nodes + m.weights)
    assert m == DiscreteMeasure([Fraction(2), Fraction(3)], [Fraction(1), Fraction(1)])


def test_skew_inner_of_equal_arguments_vanishes():
    rng = random.Random(0)
    for _ in range(5):
        f = rational_poly(rng)
        assert skew_inner(REF, f, f) == 0


def test_skew_inner_reference_value():
    one = LaurentPoly.constant(Fraction(1))
    z = LaurentPoly({1: Fraction(1)})
    assert skew_inner(REF, one, z) == Fraction(3, 2)


def test_skew_inner_antisymmetry():
    rng = random.Random(1)
    for _ in range(10):
        f, g = rational_poly(rng), rational_poly(rng)
        assert skew_inner(REF, f, g) == -skew_inner(REF, g, f)


def test_mu_examples():
    assert mu_moment(REF, 0) == 0
    assert mu_moment(REF, 2) == Fraction(15, 4)
    for n in range(1, 6):
        assert mu_moment(REF, -n) == -mu_moment(REF, n)


def test_c_examples():
    assert c_moment(REF, 0) == Fraction(3, 2)
    assert c_moment(REF, 1) == Fraction(15, 4)
    assert c_moment(REF, 1) == mu_moment(REF, 2)


def test_mu_from_c_expansions():
    c = [Fraction(k * k + 1, 3) for k in range(6)]
    mu = mu_from_c(c)
    assert mu[0] == c[0]
    assert mu[2] == c[2] - c[0]
    assert mu[3] == c[3] - 2 * c[1]


def test_mu_from_c_needs_enough_moments():
    assert mu_from_c([]) == []


def test_roundtrip_exact_on_measure():
    m = random_family(5, 4, "rational").measure
    cs = [c_moment(m, i) for i in range(8)]
    mus = mu_from_c(cs)
    for n in range(1, 9):
        assert mus[n - 1] == mu_moment(m, n)


@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_shift_invariance(i, j, k):
    lhs = skew_inner(REF, LaurentPoly.monomial(i + k), LaurentPoly.monomial(j + k))
    rhs = skew_inner(REF, LaurentPoly.monomial(i), LaurentPoly.monomial(j))
    assert lhs == rhs


def test_laurent_argument_symmetry():
    rng = random.Random(2)
    m = random_family(9, 3, "rational").measure
    for _ in range(8):
        f, g = rational_poly(rng), rational_poly(rng)
        assert skew_inner(m, f, g) == skew_inner(m, g.reciprocal_arg(), f.reciprocal_arg())


def summed_over_nodes(m, f, g):
    """skew_inner as it was before exact input took integer forms: both
    arguments evaluated at z and 1/z, one Fraction operation per step."""
    total = 0
    for z, w in zip(m.nodes, m.weights):
        zi = 1 / z
        total += (f(zi) * g(z) - f(z) * g(zi)) * w
    return total


def test_exact_skew_inner_matches_node_sum():
    rng = random.Random(8)
    measures = [random_family(s, 3, "rational").measure for s in (1, 4)]
    measures.append(DiscreteMeasure([Fraction(-5, 2), Fraction(1, 3), Fraction(7)],
                                    [Fraction(-1, 2), Fraction(3, 4), 2]))
    for m in measures:
        for trial in range(20):
            f, g = rational_poly(rng), rational_poly(rng)
            if trial % 4 == 0:
                g = LaurentPoly({e + 3 * rng.choice((-1, 1)): rng.randint(-5, 5)
                                 for e, _ in g.to_pairs()})  # int coefficients, wider exponents
            if trial == 5:
                f = LaurentPoly.zero()
            got, ref = skew_inner(m, f, g), summed_over_nodes(m, f, g)
            assert got == ref and type(got) is type(ref), (f, g)
    assert type(skew_inner(REF, LaurentPoly.zero(), LaurentPoly.zero())) is Fraction


def test_float_skew_inner_is_the_node_sum_bit_for_bit():
    rng = random.Random(9)
    exact = random_family(2, 3, "rational").measure
    for m, poly in ((exact.as_float(), lambda: rational_poly(rng).as_float()),
                    (exact.as_float(), lambda: rational_poly(rng)),
                    (exact, lambda: rational_poly(rng).as_float())):
        for _ in range(20):
            f, g = poly(), poly()
            got, ref = skew_inner(m, f, g), summed_over_nodes(m, f, g)
            assert type(got) is type(ref) is float
            assert struct.pack("<d", got) == struct.pack("<d", ref), (f, g)


def mu_summed_over_nodes(m, n):
    """mu_moment as it was before exact input took integer forms."""
    total = 0
    for z, w in zip(m.nodes, m.weights):
        zi = 1 / z
        total += (int_power(z, n) - int_power(zi, n)) * w
    return total


def c_summed_over_nodes(m, i):
    """c_moment as it was before exact input took integer forms."""
    total = 0
    for z, w in zip(m.nodes, m.weights):
        zi = 1 / z
        total += int_power(z + zi, i) * (z - zi) * w
    return total


def test_exact_moments_match_node_sums():
    measures = [random_family(s, 4, "rational").measure for s in (1, 6)]
    measures += [DiscreteMeasure([Fraction(-5, 2), Fraction(1, 3), Fraction(7)],
                                 [Fraction(-1, 2), Fraction(3, 4), 2]),
                 DiscreteMeasure([], [])]
    for m in measures:
        for n in range(-9, 10):
            got, ref = mu_moment(m, n), mu_summed_over_nodes(m, n)
            assert got == ref and type(got) is type(ref), (m, n)
        for i in range(10):
            got, ref = c_moment(m, i), c_summed_over_nodes(m, i)
            assert got == ref and type(got) is type(ref), (m, i)


def test_float_moments_are_the_node_sums_bit_for_bit():
    exact = random_family(3, 4, "rational").measure
    mixed = DiscreteMeasure(exact.nodes, [float(w) for w in exact.weights])
    for m in (exact.as_float(), mixed):
        for n in range(-9, 10):
            got, ref = mu_moment(m, n), mu_summed_over_nodes(m, n)
            assert type(got) is type(ref) is float
            assert struct.pack("<d", got) == struct.pack("<d", ref), n
        for i in range(10):
            got, ref = c_moment(m, i), c_summed_over_nodes(m, i)
            assert type(got) is type(ref) is float
            assert struct.pack("<d", got) == struct.pack("<d", ref), i


@pytest.mark.parametrize("mode", ["rational", "double"])
def test_moment_table_holds_the_lags_its_routes_read(mode):
    m = random_family(4, 3, mode).measure
    for order in range(4):
        table = MomentTable.from_measure(m, order)
        assert sorted(table.mu) == list(range(-2 * order, 2 * order + 1))
        assert sorted(table.c) == list(range(2 * order + 1))
        assert table.exact == (mode == "rational")
        assert all(table.mu_at(n) == mu_moment(m, n) for n in table.mu)
        assert table.c_list(2 * order + 1) == [c_moment(m, i) for i in range(2 * order + 1)]


def test_moment_table_entries_depend_on_difference():
    m = random_family(3, 3, "rational").measure
    table = MomentTable.from_measure(m, 3)
    for i in range(-3, 4):
        for j in range(-3, 4):
            assert moment_skew_array(table, [i, j]).entry(0, 1) == table.mu_at(j - i)
    assert table.mu_at(0) == 0


def test_generator_contract():
    m = random_family(1, 1, "double").measure
    assert 1.2 <= m.nodes[0] <= 5.0
    assert 0.0 < m.weights[0] <= 1.0

    m8 = random_family(4, 8, "double").measure
    nodes = sorted(m8.nodes)
    assert all(b - a >= 0.1 for a, b in zip(nodes, nodes[1:]))
    assert all(z > 1 for z in m8.nodes)


def test_generator_determinism():
    a = random_family(12, 5, "double").measure
    b = random_family(12, 5, "double").measure
    assert a.nodes == b.nodes and a.weights == b.weights


def test_generator_rational_taus_positive():
    fv = random_family(2, 8, "rational")
    assert fv.measure.is_exact() and fv.exact
    assert all(t > 0 for t in fv.rec.tau[1:])


def test_generator_rejects_bad_order():
    with pytest.raises(ValueError):
        random_family(1, 0)
