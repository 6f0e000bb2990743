"""The skew orthogonal family: both routes, reductions, comparisons."""

import math
import random
from fractions import Fraction

import pytest

from lsopkit.errors import AdmissibilityError, DegeneracyError, StructureError
from lsopkit.exact import hankel_minors
from lsopkit.laurent import LaurentPoly
from lsopkit.lsop import (RecurrenceData, evaluate_family, lsop_via_recurrence, random_family,
                          recurrence_from_measure, skew_pattern_defect, support_gram,
                          support_pairing)
from lsopkit.moments import DiscreteMeasure
from lsopkit.oracles import (MomentTable, even_to_op, hankel_det, kodama_residuals, kodama_sops,
                             mu_moment, op_via_hankel, pfaffian_route, shifted_hankel_det,
                             skew_inner, verify_pfaffian_det)
from lsopkit.verify import RunConfig

from coefficient_oracle import orthonormalize
from fraction_oracle import as_tables

REF = DiscreteMeasure([Fraction(2)], [Fraction(1)])
REF_TABLE = MomentTable.from_measure(REF, 1)


def test_reference_minors():
    rec = pfaffian_route(REF_TABLE, 2).recurrence_data()
    assert rec.tau[0] == 1 and rec.sigma[0] == 0
    assert rec.tau[1] == Fraction(3, 2)       # Pf(0,1) = mu_1
    assert rec.sigma[1] == Fraction(15, 4)    # Pf(0,2) = mu_2
    assert rec.alpha[1] == Fraction(5, 2)     # z + 1/z at z = 2


def test_tau1_is_mu1():
    m = random_family(8, 3, "rational").measure
    rec = pfaffian_route(MomentTable.from_measure(m, 3), 6).recurrence_data()
    assert rec.tau[1] == mu_moment(m, 1)


def test_routes_give_identical_coefficient_data():
    fv = random_family(11, 4, "rational")
    m = fv.measure
    by_pfaffian = pfaffian_route(MomentTable.from_measure(m, 4), 8).recurrence_data()
    by_stieltjes = fv.rec
    assert by_pfaffian.tau == by_stieltjes.tau
    assert by_pfaffian.sigma == by_stieltjes.sigma
    assert by_pfaffian.alpha == by_stieltjes.alpha
    assert by_pfaffian.beta == by_stieltjes.beta


def test_first_three_members():
    route = pfaffian_route(REF_TABLE, 2)
    assert route.member(0) == LaurentPoly.constant(Fraction(1))
    assert route.member(1) == LaurentPoly({1: Fraction(1)})
    q2 = route.member(2)
    assert q2 == LaurentPoly({2: Fraction(1), 1: Fraction(-5, 2), 0: Fraction(1)})


def test_pfaffian_member_coefficient_types():
    # q_0 and q_1 come from size-1 tables with no entry: exactness is the moment table's
    for mode, kind in (("rational", Fraction), ("double", float)):
        m = random_family(12, 3, mode).measure
        route = pfaffian_route(MomentTable.from_measure(m, 3), 6)
        for n in range(7):
            q = route.member(n)
            assert q.coeff(n) == 1
            assert all(type(c) is kind for c in q.coeffs.values()), (mode, n, q)


@pytest.mark.parametrize("mode", ["rational", "double"])
def test_order_zero_table_gives_q0_and_tau0(mode):
    # q_0 = 1 and tau_0 = 1 read no moment; an order-0 table holds only mu_0
    one = Fraction(1) if mode == "rational" else 1.0
    table = MomentTable.from_measure(random_family(3, 2, mode).measure, 0)
    route = pfaffian_route(table, 0)
    q0 = route.member(0)
    assert q0 == LaurentPoly.constant(one) and type(q0.coeff(0)) is type(one)
    rec = route.recurrence_data()
    assert (rec.order, rec.tau, rec.sigma, rec.alpha, rec.beta) == (0, (one,), (0,), (0,), (0,))
    assert all(type(v) is type(one) for v in rec.tau + rec.sigma + rec.alpha + rec.beta)


@pytest.mark.parametrize("mode", ["rational", "double"])
def test_negative_degrees_and_orders_refused(mode):
    fv = random_family(3, 2, mode)
    mu = MomentTable.from_measure(fv.measure, 2)
    for call in (lambda: pfaffian_route(mu, -1), lambda: pfaffian_route(mu, 4).member(-1),
                 lambda: lsop_via_recurrence(fv.rec, -1), lambda: evaluate_family(fv.measure, -1),
                 lambda: MomentTable.from_measure(fv.measure, -1)):
        with pytest.raises(ValueError):
            call()


def test_recurrence_seeds_and_q2():
    rec = recurrence_from_measure(REF, 1)
    qs = lsop_via_recurrence(rec, 1)
    assert qs[0] == LaurentPoly.constant(Fraction(1))
    assert qs[1] == LaurentPoly({1: Fraction(1)})
    assert qs[2] == LaurentPoly({2: Fraction(1), 1: -rec.alpha[1], 0: Fraction(1)})


def test_cross_route_equality_full_family():
    fv = random_family(21, 4, "rational")
    m = fv.measure
    table = MomentTable.from_measure(m, 4)
    rec = fv.rec
    qs = lsop_via_recurrence(rec, 4)
    route = pfaffian_route(table, 8)
    for n in range(9):
        assert route.member(n) == qs[n]


def test_odd_members_have_no_subtop_term():
    qs = lsop_via_recurrence(random_family(13, 5, "rational").rec, 5)
    for k in range(5):
        assert qs[2 * k + 1].coeff(2 * k) == 0
        assert qs[2 * k + 1].coeff(2 * k + 1) == 1


def test_even_members_self_reciprocal():
    qs = lsop_via_recurrence(random_family(14, 5, "rational").rec, 5)
    for k in range(6):
        assert qs[2 * k].is_self_reciprocal(2 * k)


def test_top_member_is_node_polynomial():
    fv = random_family(15, 3, "rational")
    m = fv.measure
    qs = lsop_via_recurrence(fv.rec, 3)
    prod = LaurentPoly.constant(Fraction(1))
    for z in m.nodes:
        prod = prod * LaurentPoly({1: Fraction(1), 0: -z}) * LaurentPoly({1: Fraction(1), 0: -1 / z})
    assert qs[6] == prod


def test_degeneracy_detected_exactly():
    # mu_1 = 0 forces tau_1 = 0: weights of opposite sign at reciprocal-symmetric spots
    m = DiscreteMeasure([Fraction(2), Fraction(3)],
                        [Fraction(1), Fraction(-9, 16)], strict=False)
    table = MomentTable.from_measure(m, 2)
    assert mu_moment(m, 1) == 0
    with pytest.raises(DegeneracyError):
        pfaffian_route(table, 4).recurrence_data()


def test_orthonormalize_reference_scale():
    rec = recurrence_from_measure(REF, 1)
    qs = lsop_via_recurrence(rec, 1)
    qt = orthonormalize(qs, rec)
    assert qt[0].coeff(0) == pytest.approx(math.sqrt(2.0 / 3.0))
    assert skew_inner(REF.as_float(), qt[0], qt[1]) == pytest.approx(1.0)


def test_orthonormalize_rejects_nonpositive_scales():
    rec = recurrence_from_measure(REF, 1)
    bad = type(rec)(order=1, alpha=rec.alpha, beta=rec.beta,
                    tau=(Fraction(1), Fraction(-3, 2)), sigma=rec.sigma)
    with pytest.raises(AdmissibilityError):
        orthonormalize(lsop_via_recurrence(rec, 1), bad)


def test_family_values_match_coefficient_evaluation():
    fv = random_family(16, 3, "double")
    m = fv.measure
    rec = fv.rec
    qt = orthonormalize(lsop_via_recurrence(rec, 3), rec)
    for k, z in enumerate(m.nodes):
        for j in range(6):
            assert fv.qt_node[k][j] == pytest.approx(qt[j](z), rel=1e-9, abs=1e-9)
            assert fv.qt_recip[k][j] == pytest.approx(qt[j](1.0 / z), rel=1e-9, abs=1e-9)


def test_family_gram_is_canonical():
    for seed in (1, 2, 3):
        gram = random_family(seed, 6, "double").gram()
        for a in range(12):
            for b in range(12):
                expect = 0.0
                if a % 2 == 0 and b % 2 == 1 and a // 2 == b // 2:
                    expect = 1.0
                elif a % 2 == 1 and b % 2 == 0 and a // 2 == b // 2:
                    expect = -1.0
                assert gram[a][b] == pytest.approx(expect, abs=1e-9)


def test_exact_support_values_consistent():
    fam = random_family(18, 3, "rational")
    m = fam.measure
    node_vals, recip_vals = as_tables(*fam.monic_values())
    qs = lsop_via_recurrence(fam.rec, 3)
    for k, z in enumerate(m.nodes):
        for j in range(6):
            assert node_vals[k][j] == qs[j](z)
            assert recip_vals[k][j] == qs[j](1 / z)


def test_int_measure_folds_exactly():
    rec = recurrence_from_measure(DiscreteMeasure([2, 3], [1, 1]), 2)
    assert rec.alpha[1] == Fraction(91, 30)
    assert all(isinstance(x, Fraction) for x in rec.alpha + rec.beta + rec.tau + rec.sigma)


def test_complex_nodes_refused_by_the_walk():
    m = DiscreteMeasure([2.0 + 1.0j, 3.0], [1.0, 1.0])
    with pytest.raises(AdmissibilityError):
        recurrence_from_measure(m, 2)
    with pytest.raises(AdmissibilityError):
        evaluate_family(m, 2)


def test_lower_order_family_is_a_prefix_of_the_walk():
    full = random_family(3, 6, "double")
    for n in range(1, 7):
        low = evaluate_family(full.measure, n)
        assert low.rec.alpha == full.rec.alpha[:n + 1] and low.rec.tau == full.rec.tau[:n + 1]
        assert low.rec.beta[:n] == full.rec.beta[:n]
        for row_full, row_low in zip(full.qt_node, low.qt_node):
            assert row_full[:2 * n] == row_low


def test_nan_gram_entry_is_the_defect():
    nan = float("nan")
    assert math.isnan(skew_pattern_defect([[0.0, nan], [-1.0, 0.0]]))
    assert math.isnan(skew_pattern_defect([[0.0, 1.0], [-1.0, nan]]))
    assert skew_pattern_defect([[0.0, 1.0], [-1.0, 0.5]]) == 0.5


def test_even_to_op_basics():
    assert even_to_op(LaurentPoly.constant(Fraction(1))) == LaurentPoly.constant(Fraction(1))
    q2 = LaurentPoly({2: Fraction(1), 1: Fraction(-5, 2), 0: Fraction(1)})
    r1 = even_to_op(q2)
    assert r1 == LaurentPoly({1: Fraction(1), 0: Fraction(-5, 2)})


def test_even_to_op_rejects_asymmetric():
    with pytest.raises(StructureError):
        even_to_op(LaurentPoly({2: Fraction(1), 0: Fraction(2)}))
    with pytest.raises(StructureError):
        even_to_op(LaurentPoly({2: 1.0, 1: 5.0, 0: 1.0 + 1e-3}))


def test_even_to_op_tolerates_float_jitter():
    p = LaurentPoly({0: 1.0, 1: -2.5, 2: 1.0 + 1e-12})
    r = even_to_op(p)
    assert r.coeff(1) == pytest.approx(1.0, abs=1e-11)


def test_hankel_op_examples():
    cs = [Fraction(3, 2), Fraction(15, 4), Fraction(87, 8), Fraction(525, 16)]
    assert op_via_hankel(cs, 0) == LaurentPoly.constant(1)
    r1 = op_via_hankel(cs, 1)
    assert r1 == LaurentPoly({1: Fraction(1), 0: -cs[1] / cs[0]})


def test_hankel_singular_block():
    cs = [Fraction(1), Fraction(1), Fraction(1), Fraction(1)]
    with pytest.raises(DegeneracyError):
        op_via_hankel(cs, 2)


def test_reduction_equals_hankel_route():
    fv = random_family(19, 4, "rational")
    m = fv.measure
    table = MomentTable.from_measure(m, 4)
    qs = lsop_via_recurrence(fv.rec, 4)
    cs = table.c_list(8)
    for n in range(5):
        assert even_to_op(qs[2 * n]) == op_via_hankel(cs, n)


def test_three_term_for_reduced_members():
    rec = random_family(20, 4, "rational").rec
    qs = lsop_via_recurrence(rec, 4)
    rbars = [even_to_op(qs[2 * n]) for n in range(5)]
    w = LaurentPoly.monomial(1)
    for n in range(1, 4):
        gamma = rec.alpha[n + 1] - rec.alpha[n]
        lhs = (w - LaurentPoly.constant(gamma)) * rbars[n] - rbars[n - 1].scale(rec.beta[n])
        assert lhs == rbars[n + 1]


def test_verify_pfaffian_det_exact_and_perturbed():
    m = random_family(22, 4, "rational").measure
    table = MomentTable.from_measure(m, 4)
    rec = pfaffian_route(table, 8).recurrence_data()
    cs = table.c_list(8)
    report = verify_pfaffian_det(rec, cs, 4)
    assert report == (0.0, 0.0)
    assert rec.tau[1] == hankel_det(cs, 1) == cs[0]
    assert rec.sigma[1] == shifted_hankel_det(cs, 1) == cs[1]
    bad = list(cs)
    bad[2] += 1
    assert min(verify_pfaffian_det(rec, bad, 4)) > 0


@pytest.mark.parametrize("case", [f"seed/{s}/{n}" for s in (7, 8, 22) for n in (1, 4, 6)]
                         + ["c0-vanishes", "order-2-vanishes", "order-3-vanishes"])
def test_one_elimination_gives_every_hankel_minor(case):
    # every order's Hankel and shifted Hankel determinant from the one
    # fraction-free elimination, against a pivoted dense_det each; the
    # elimination stops at a zero pivot, and verify_pfaffian_det takes the
    # orders past it from dense_det
    kind, *rest = case.split("/")
    if kind == "seed":
        seed, n = map(int, rest)
        cs = MomentTable.from_measure(random_family(seed, n, "rational").measure, n).c_list(2 * n)
    else:
        cs = {"c0-vanishes": [0, 1, 2, 3, 5, 7], "order-2-vanishes": [1, 2, 4, 3, 5, 7],
              "order-3-vanishes": [1, 2, 3, 5, 8, 13, 21, Fraction(69, 2)]}[kind]
        cs, n = [Fraction(x) for x in cs], len(cs) // 2
    minors = hankel_minors(cs, n)
    expected = [(hankel_det(cs, k), shifted_hankel_det(cs, k)) for k in range(n + 1)]
    if kind == "seed":
        assert minors == expected
    else:
        assert minors == expected[:len(minors)] and minors[-1][0] == 0 and len(minors) <= n
    rec = RecurrenceData(n, (0,) * (n + 1), (0,) * (n + 1), *map(tuple, zip(*expected)))
    assert verify_pfaffian_det(rec, cs, n) == (0.0, 0.0)


def test_kodama_construction():
    qs = kodama_sops([Fraction(0)], [Fraction(0)], 0)
    assert qs[0] == LaurentPoly.constant(1)
    assert qs[1] == LaurentPoly.monomial(1)

    # zero coefficients degenerate to pure monomials
    qs = kodama_sops([Fraction(0)] * 3, [Fraction(0)] * 3, 3)
    for n, q in enumerate(qs):
        assert q == LaurentPoly.monomial(n)

    rng = random.Random(6)
    a = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
    b = [Fraction(rng.randint(1, 5)) for _ in range(4)]
    qs = kodama_sops(a, b, 3)
    for res in kodama_residuals(qs, a, b):
        assert res.is_zero()


def test_stieltjes_order_cap():
    m = random_family(1, 2, "double").measure
    with pytest.raises(DegeneracyError):
        recurrence_from_measure(m, 3)


@pytest.mark.parametrize("mode", ["Rational", "exact", ""])
def test_random_family_refuses_an_unknown_mode(mode):
    # the same refusal as RunConfig's, not a silent binary64 family
    with pytest.raises(ValueError, match="unknown scalar mode"):
        random_family(1, 4, mode)
    with pytest.raises(ValueError, match="unknown scalar mode"):
        RunConfig(seed=1, order=4, mode=mode)


def _same_value(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


@pytest.mark.parametrize("mode", ["double", "rational"])
def test_support_gram_is_the_full_pairing_table(mode):
    # support_gram sums each pairing with b >= a once and negates it below the
    # diagonal; the full table sums every pairing
    nan, inf = float("nan"), float("inf")
    tables = [(fv.measure.weights,) + (as_tables(*fv.monic_values()) if mode == "rational" else
                                       (fv.qt_node, fv.qt_recip))
              for fv in (random_family(seed, order, mode) for seed in (1, 2) for order in (2, 4))]
    special = ([0.5, 1.5], [[1.0, nan, 2.0], [0.5, 3.0, inf]], [[2.0, 1.0, -1.0], [inf, 0.25, 1.0]])
    for weights, node, recip in tables + [special]:
        d = len(node[0])
        full = [[support_pairing(weights, node, recip, a, b) for b in range(d)] for a in range(d)]
        gram = support_gram(weights, node, recip)
        assert len(gram) == d and all(len(row) == d for row in gram)
        assert all(_same_value(g, f) for grow, frow in zip(gram, full) for g, f in zip(grow, frow))
    # the diagonal is summed, so a NaN or inf member still shows there
    assert math.isnan(support_gram(*special)[1][1]) and math.isnan(support_gram(*special)[2][2])
