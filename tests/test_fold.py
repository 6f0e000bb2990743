"""The float fold (Lanczos) against the exact folded walk.

evaluate_family folds a double-mode measure in binary64 when its folded
weights are all positive and its folded nodes pairwise distinct, and walks
the measure's exact rational image otherwise; the exact walk stays the
oracle.  The suite compares the two at N = 4, 8 and 12 on the fixed
high-order measure and five spread seeded measures.  The same comparison at
N = 16, 20 and 24 on the fixed measure (about 20 s, most of it the exact
walk of the measure's rational image, whose dyadic denominators run to
2^52) runs with

    PYTHONPATH=src python tests/test_fold.py
"""

import math
import random
import sys
from fractions import Fraction

import pytest

from lsopkit import lsop
from lsopkit.errors import AdmissibilityError, DegeneracyError, StructureError
from lsopkit.lsop import evaluate_family
from lsopkit.moments import DiscreteMeasure

# Largest relative errors measured at N = 4, 8, 12 over the six measures:
# a_j 6.7e-16, b_j 2.0e-15, h_j 3.6e-15, orthonormal folded values 2.4e-15
# (relative to each member's largest value over the support); at N = 16, 20,
# 24 on the fixed measure at most 5.3e-15.  The qt tables assemble the odd
# members from the evens and the cumulative alpha_j, which amplifies the
# input differences with the order: 1.0e-14 at N <= 12, 4.2e-15, 2.9e-14 and
# 1.4e-13 at N = 16, 20, 24 (both sides go through the same float assembly).
BOUND = 1e-13
TABLE_BOUND = 1e-12


def fixed_measure(n: int) -> DiscreteMeasure:
    return DiscreteMeasure([1.2 + 3.8 * k / n for k in range(n)],
                           [0.5 + 0.5 * ((7 * k) % 5) / 5 for k in range(n)])


def spread_measure(seed: int, n: int) -> DiscreteMeasure:
    """n nodes in [1.2, 5.0] at least min(0.4, 3/(n-1)) apart, weights in (0.5, 1]."""
    rng = random.Random(seed)
    gap = min(0.4, 3.0 / (n - 1))
    offsets = sorted(rng.uniform(0.0, 3.8 - (n - 1) * gap) for _ in range(n))
    nodes = [1.2 + x + k * gap for k, x in enumerate(offsets)]
    rng.shuffle(nodes)
    return DiscreteMeasure(nodes, [1.0 - 0.5 * rng.random() for _ in range(n)])


def _relative(values, exact) -> float:
    """Largest |value - exact| over a column, relative to the column's largest |exact|."""
    return max(abs(v - float(e)) for v, e in zip(values, exact)) / max(abs(float(e)) for e in exact)


def fold_errors(m: DiscreteMeasure, n: int) -> dict:
    """Relative errors of the float fold of m against the exact walk: its
    three-term data, its orthonormal folded values and the qt tables."""
    fold = evaluate_family(m, n)
    assert type(fold) is lsop._FloatFold
    walk = lsop._FoldedWalk(m, n)
    orthonormal = [[p / Fraction(math.sqrt(h)) for p in values]
                   for h, values in zip(walk.h, walk.p_values)]
    return {
        "a": max(abs(fold.a[j] / float(walk.a[j]) - 1) for j in range(n)),
        "b": max((abs(fold.b[j] / float(walk.b[j]) - 1) for j in range(1, n)), default=0.0),
        "h": max(abs(fold.h[j] / float(walk.h[j]) - 1) for j in range(n)),
        "values": max(_relative(fold.p_values[j], orthonormal[j]) for j in range(n)),
        "tables": max(_relative([row[j] for row in mine], [row[j] for row in theirs])
                      for mine, theirs in ((fold.qt_node, walk.qt_node),
                                           (fold.qt_recip, walk.qt_recip))
                      for j in range(2 * n)),
    }


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [4, 8, 12])
def test_float_fold_matches_exact_walk(n, seed):
    m = fixed_measure(n) if seed is None else spread_measure(seed, n)
    errors = fold_errors(m, n)
    assert errors.pop("tables") <= TABLE_BOUND
    assert max(errors.values()) <= BOUND, errors


@pytest.mark.parametrize("m", [fixed_measure(12), spread_measure(3, 12),
                               DiscreteMeasure(*(map(Fraction, col) for col in fixed_measure(8)))])
def test_prefix_is_the_lower_order_fold(m):
    # step j of a fold reads only the steps before it, so the order-n fold is
    # the first n steps of the full one: its folded data, its recurrence
    # entries through n (beta_n = 0 closes it) and the first 2n columns of
    # both value tables
    full = evaluate_family(m)
    for n in range(1, m.size + 1):
        low = evaluate_family(m, n)
        assert (low.a, low.b, low.h) == (full.a[:n], full.b[:n], full.h[:n])
        assert low.p_values == full.p_values[:n]
        for name in ("alpha", "tau", "sigma"):
            assert getattr(low.rec, name) == getattr(full.rec, name)[:n + 1], name
        assert low.rec.beta[:n] == full.rec.beta[:n] and low.rec.beta[n] == 0
        for mine, theirs in ((low.qt_node, full.qt_node), (low.qt_recip, full.qt_recip)):
            assert mine == tuple(row[:2 * n] for row in theirs)


@pytest.mark.parametrize("nodes, error, message", [
    ([0.4, 2.0, 3.0], AdmissibilityError, "tau must be positive; offending indices [3]"),
    ([2.0, 0.5, 3.0], DegeneracyError, "folded norm h_2 vanished; tau_3 = 0"),
    ([2.0, 2.0, 3.0], DegeneracyError, "folded norm h_2 vanished; tau_3 = 0"),
], ids=["node-inside-unit-interval", "reciprocal-pair", "duplicate-node"])
def test_other_measures_take_the_exact_walk(nodes, error, message):
    # a negative folded weight, then two coincident folded nodes, twice
    m = DiscreteMeasure(nodes, [0.3, 0.4, 0.5], strict=False)
    assert lsop._float_support(m) is None
    with pytest.raises(error) as caught:
        evaluate_family(m, 3).qt_node
    assert str(caught.value) == message


def test_exact_data_refuse_the_float_fold():
    fv = evaluate_family(fixed_measure(4))
    with pytest.raises(StructureError, match="exact walk"):
        fv.exact_rec
    with pytest.raises(StructureError, match="exact walk"):
        fv.monic_values()
    exact = evaluate_family(DiscreteMeasure([Fraction(z) for z in fv.measure.nodes],
                                            [Fraction(w) for w in fv.measure.weights]))
    assert exact.rec == exact.exact_rec
    assert exact.rec.as_float().tau == pytest.approx(fv.rec.tau, rel=1e-14)


if __name__ == "__main__":
    ok = True
    for n in (16, 20, 24):
        errors = fold_errors(fixed_measure(n), n)
        print(f"N = {n}: " + ", ".join(f"{k} {v:.2e}" for k, v in errors.items()), flush=True)
        ok = ok and errors.pop("tables") <= TABLE_BOUND and max(errors.values()) <= BOUND
    print(f"bounds {BOUND:g} (three-term data, folded values), {TABLE_BOUND:g} (qt tables):",
          "met" if ok else "MISSED")
    sys.exit(0 if ok else 1)
