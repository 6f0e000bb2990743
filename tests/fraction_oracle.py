"""The exact layer in reduced Fractions: the oracles of its integer forms.

lsop._FoldedWalk carries each folded value vector as ints over one
denominator, lsop_via_recurrence carries each exact member the same way and
FamilyValues.monic_values hands out int member columns.  The forms here do
the same work with a gcd on every operation, as the exact layer did before:

* FractionWalk, the discrete Stieltjes walk on the folded measure;
* laurent_recurrence, the coupled recurrences on LaurentPoly arithmetic;
* fraction_tables, the monic member tables evaluated from the coefficients
  of laurent_recurrence, and fraction_columns, which turns such tables into
  the column form that monic_values returns.
"""

from fractions import Fraction

from lsopkit.errors import DegeneracyError
from lsopkit.laurent import LaurentPoly
from lsopkit.lsop import folded_support
from lsopkit.modes import clear_denominators

ONE, Z = LaurentPoly.constant(1), LaurentPoly.monomial(1)


class FractionWalk:
    """a, b, h and p_values[j][k] = p_j(x_k) of the monic folded polynomials."""

    def __init__(self, m, n):
        xs, ws = folded_support(m)
        self.a, self.b, self.h, self.p_values = [], [Fraction(0)], [], []
        p_prev = [Fraction(0)] * len(xs)
        p_cur = [Fraction(1)] * len(xs)
        for j in range(n):
            self.p_values.append(list(p_cur))
            hj = sum(w * p * p for w, p in zip(ws, p_cur))
            if hj == 0:
                raise DegeneracyError(f"folded norm h_{j} vanished; tau_{j + 1} = 0")
            self.h.append(hj)
            aj = sum(w * x * p * p for w, x, p in zip(ws, xs, p_cur)) / hj
            self.a.append(aj)
            if j >= 1:
                self.b.append(self.h[j] / self.h[j - 1])
            p_next = [
                (x - aj) * pc - (self.b[j] * pp if j >= 1 else 0)
                for x, pc, pp in zip(xs, p_cur, p_prev)
            ]
            p_prev, p_cur = p_cur, p_next


def laurent_recurrence(rec, n):
    """Monic q_0..q_2n by the coupled recurrences on LaurentPoly arithmetic."""
    qs = [ONE, Z]
    for k in range(n):
        if k >= 1:
            qs.append(Z * qs[2 * k] - rec.beta[k] * (Z * qs[2 * k - 2]) + rec.alpha[k] * qs[2 * k])
        qs.append(Z * qs[2 * k + 1] - rec.alpha[k + 1] * (Z * qs[2 * k]) + qs[2 * k])
    return qs[: 2 * n + 1]


def fraction_tables(fv):
    """(node, recip): node[k][j] = q_j(z_k) and recip[k][j] = q_j(1/z_k),
    j < 2 * order, as Fractions."""
    qs = laurent_recurrence(fv.exact_rec, fv.order)[: 2 * fv.order]
    return ([[q(z) for q in qs] for z in fv.nodes],
            [[q(1 / z) for q in qs] for z in fv.nodes])


def fraction_columns(node, recip):
    """The (node, recip, den) int columns of exact row tables, each member's
    values cleared over both tables by clear_denominators."""
    size = len(node)
    cleared = [clear_denominators([row[a] for row in node + recip]) for a in range(len(node[0]))]
    return ([ints[:size] for ints, _ in cleared], [ints[size:] for ints, _ in cleared],
            [den for _, den in cleared])


def as_tables(node, recip, den):
    """Row tables of Fractions from monic_values' int columns."""
    return ([[Fraction(col[k], d) for col, d in zip(node, den)] for k in range(len(node[0]))],
            [[Fraction(col[k], d) for col, d in zip(recip, den)] for k in range(len(recip[0]))])
