"""The exact layer in integer form against its Fraction oracles.

The exact walk (lsop._FoldedWalk), the coefficient family of exact
recurrence data (lsop_via_recurrence) and the int member columns
(FamilyValues.monic_values) carry ints over one denominator; the forms in
fraction_oracle reduce a Fraction on every operation.  They must agree
exactly: a, b, h and the folded values, every monic value, and every
coefficient of q_0..q_2N with its type (LaurentPoly arithmetic leaves an
int where only ints reach a coefficient, and `lsopkit lsop` prints an int
and a Fraction differently).  The suite runs the rational golden grid
(seeds 1-10, orders 1-8) and the rational fixed measure at N = 16.  The
walk and the coefficient family on the fixed measure at N = 24 and 32
(about 10 s, most of it the Fraction oracles) run with

    PYTHONPATH=src python tests/test_exact_walk.py
"""

import itertools
import sys
import time
from fractions import Fraction

import pytest

from lsopkit.lsop import RecurrenceData, evaluate_family, lsop_via_recurrence, random_family
from lsopkit.moments import DiscreteMeasure

from fraction_oracle import FractionWalk, as_tables, fraction_tables, laurent_recurrence
from test_golden_reports import _fixed_measure


def typed(q):
    """A member's coefficients with their types."""
    return {e: (type(c), c) for e, c in q.coeffs.items()}


def walk_mismatches(fv) -> list:
    """What of the walk and of q_0..q_2N differs from the Fraction oracles."""
    oracle = FractionWalk(fv.measure, fv.order)
    bad = [name for name in ("a", "b", "h")
           if getattr(fv, name) != getattr(oracle, name)
           or any(type(x) is not Fraction for x in getattr(fv, name))]
    if fv.p_values != oracle.p_values:
        bad.append("p_values")
    qs, expected = lsop_via_recurrence(fv.rec, fv.order), laurent_recurrence(fv.rec, fv.order)
    bad += [f"q_{j}" for j, (q, e) in enumerate(zip(qs, expected)) if typed(q) != typed(e)]
    return bad + ["qs length"] * (len(qs) != len(expected))


@pytest.mark.parametrize("case", [f"seed/{s}/{n}" for s in range(1, 11) for n in range(1, 9)]
                         + ["fixed/16"])
def test_integer_forms_equal_the_fraction_oracles(case):
    kind, *rest = case.split("/")
    fv = (random_family(int(rest[0]), int(rest[1]), "rational") if kind == "seed"
          else evaluate_family(_fixed_measure(int(rest[0]), "rational")))
    assert walk_mismatches(fv) == []
    node, recip, den = fv.monic_values()
    assert len(node) == len(recip) == len(den) == 2 * fv.order
    assert all(type(v) is int for col in node + recip for v in col)
    assert as_tables(node, recip, den) == fraction_tables(fv)


def test_monic_values_below_the_measure_size():
    # an order-1 fold of a three-node measure has members q_0 and q_1 only;
    # q_2 does not vanish on this support (q_2(2) = -4625/2226 in the order-3
    # fold), so no column of zeros stands in for it
    m = DiscreteMeasure([2, 3, Fraction(7, 2)], [Fraction(1, 3), Fraction(1, 2), 1])
    low = as_tables(*evaluate_family(m, 1).monic_values())
    full = as_tables(*evaluate_family(m).monic_values())
    assert full[0][0][2] == Fraction(-4625, 2226)
    for mine, theirs in zip(low, full):
        assert mine == [row[:2] for row in theirs]


def test_integer_recurrence_keeps_the_coefficient_types():
    # int and Fraction alpha and beta, zeros among them, so that terms vanish
    # and only ints reach some coefficient below the top
    values = (0, 1, -1, Fraction(1), Fraction(1, 2), Fraction(-3, 2))
    int_inside = 0
    for a1, a2, b1, b2 in itertools.product(values, repeat=4):
        rec = RecurrenceData(3, (Fraction(0), a1, a2, Fraction(1, 3)), (0, b1, b2, 0),
                             (1, 1, 1, 1), (0, 0, 0, 0))
        qs, expected = lsop_via_recurrence(rec, 3), laurent_recurrence(rec, 3)
        assert [typed(q) for q in qs] == [typed(e) for e in expected], (a1, a2, b1, b2)
        int_inside += sum(type(c) is int and 0 < e < max(q.coeffs)
                          for q in qs for e, c in q.coeffs.items())
    assert int_inside > 0


if __name__ == "__main__":
    ok = True
    for n in (24, 32):
        t0 = time.perf_counter()
        bad = walk_mismatches(evaluate_family(_fixed_measure(n, "rational")))
        print(f"N = {n}: walk and q_0..q_{2 * n} against the Fraction oracles: "
              f"{'equal' if not bad else 'DIFFER in ' + ', '.join(bad)} "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
        ok = ok and not bad
    sys.exit(0 if ok else 1)
