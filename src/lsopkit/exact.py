"""Integer kernels of the exact layer, with no gcd per operation.

The exact walk, its monic member columns, the exact coefficient family,
the Hankel references of the Pfaffian minors and the dense kernels' exact
elimination run on ints over one denominator per vector, member, table or
row (Bareiss 1968) and build a Fraction only at their outputs:

* three_term, one step of a three-term recurrence on int value vectors, and
  lowest_terms, one gcd that puts such a vector in lowest terms (the folded
  walk and member_columns);
* integer forms of Laurent polynomials (coefficients, denominator, int
  exponents), f_e = coefficients[e] / denominator, with f_e an int, not a
  Fraction, exactly when e is among the int exponents: shifted_form,
  axpy_form and form_poly do on them what z *, + s * and the constructor
  do on LaurentPoly, coefficient types included, and lowest_form puts one
  in lowest terms;
* hankel_minors, every leading Hankel and shifted Hankel minor from one
  fraction-free elimination;
* eliminate_ints and back_substitute_ints, the exact branch of numerics'
  determinant and linear solves: one fraction-free elimination of a
  cleared int table, then one Fraction per determinant or unknown.

Only exact computations import this module, so a double-mode command
compiles none of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import List, Sequence, Tuple

from .laurent import LaurentPoly
from .modes import Scalar, clear_denominators


def lowest_terms(ints: List[int], den: int) -> Tuple[List[int], int]:
    """ints / den over their least common denominator: one gcd over them."""
    g = math.gcd(den, *ints)
    return [v // g for v in ints], den // g


def three_term(ts: Sequence[int], s: int, c: Scalar, b: Scalar, cur,
               prev) -> Tuple[List[int], int]:
    """(t + c) p - b q at the points t = ts[k] / s for exact c and b and the
    int vectors cur = (P, E), p = P / E, and prev = (Q, F), q = Q / F: ints
    over s lcm(den(c) E, den(b) F), not in lowest terms."""
    (p, e), (q, f) = cur, prev
    d = math.lcm(c.denominator * e, b.denominator * f)
    fp = d // (c.denominator * e)
    ft, fc = fp * c.denominator, fp * c.numerator * s
    fq = s * b.numerator * (d // (b.denominator * f))
    return [(ft * t + fc) * v - fq * u for t, v, u in zip(ts, p, q)], s * d


def member_columns(nodes: Sequence[Fraction], columns, alpha: Sequence[Scalar],
                   beta: Sequence[Scalar]) -> Tuple[List[List[int]], List[List[int]], List[int]]:
    """(node, recip, den) of the monic members 0..2n-1 from the folded value
    vectors columns[j] = (P, E), p_j(z_k + 1/z_k) = P[k] / E, in lowest
    terms: at t = z_k (node) and t = 1/z_k (recip), member 2j is t^j p_j
    and member 2j+1 is t^j ((t + alpha_j) p_j - beta_j p_j-1)."""
    size = len(nodes)
    ts, s = clear_denominators([*nodes, *(Fraction(z.denominator, z.numerator) for z in nodes)])
    out, (powers, spow), prev = [], ([1] * len(ts), 1), ([0] * len(ts), 1)
    for j, (p, e) in enumerate(columns):
        cur = (p + p, e)  # p_j(z + 1/z) is one value at z and at 1/z
        for col, d in (cur, three_term(ts, s, alpha[j], beta[j], cur, prev)):
            out.append(lowest_terms(list(map(mul, powers, col)), spow * d))
        powers, spow, prev = list(map(mul, powers, ts)), spow * s, cur
    return [c[:size] for c, _ in out], [c[size:] for c, _ in out], [d for _, d in out]


def shifted_form(form):
    """z f on an integer form."""
    c, d, ints = form
    return {e + 1: v for e, v in c.items()}, d, {e + 1 for e in ints}


def axpy_form(x, s: Scalar, y):
    """x + s y on integer forms for an exact s, over the lcm of the two
    denominators.  As in LaurentPoly arithmetic, a zero sum is dropped,
    s = 0 leaves x, and f_e is an int only when every term reaching it is
    (s included)."""
    if s == 0:
        return x
    (cx, dx, ix), (cy, dy, iy) = x, y
    d = math.lcm(dx, s.denominator * dy)
    fx, fy = d // dx, s.numerator * (d // (s.denominator * dy))
    c = {e: v * fx for e, v in cx.items()}
    for e, v in cy.items():
        c[e] = c.get(e, 0) + v * fy
    c = {e: v for e, v in c.items() if v}
    ints = {e for e in c
            if (e not in cx or e in ix) and (e not in cy or e in iy and type(s) is int)}
    return c, d, ints


def lowest_form(form):
    """An integer form in lowest terms: one gcd over its coefficients."""
    c, d, ints = form
    values, d = lowest_terms(list(c.values()), d)
    return dict(zip(c, values)), d, ints


def form_poly(form) -> LaurentPoly:
    """The LaurentPoly of an integer form: one Fraction per coefficient."""
    c, d, ints = form
    return LaurentPoly({e: v // d if e in ints else Fraction(v, d) for e, v in c.items()})


def hankel_minors(c: Sequence[Scalar], n: int) -> List[Tuple[Scalar, Scalar]]:
    """(det H_k, det H'_k) of exact c for k = 0..n, or through the first k
    with det H_k = 0: H_k = (c_{i+j})_{i,j<k}, and H'_k is H_k with its last
    column advanced by one index (H_0 = 1, H'_0 = 0).

    One unpivoted fraction-free elimination of rows 0..n-1 and columns 0..n
    of the Hankel table, each row cleared to ints (r_i) and each column
    divided by its gcd (g_j) as numerics clears an exact determinant:
    before step k - 1, its entries (k-1, k-1) and (k-1, k) are det H_k and
    det H'_k times prod_{i<k} r_i over prod_{j<k} g_j and over
    g_k prod_{j<k-1} g_j.
    """
    rows = [clear_denominators([c[i + j] for j in range(n + 1)]) for i in range(n)]
    g = [math.gcd(*col) or 1 for col in zip(*(ints for ints, _ in rows))]
    m = [[x // gj for x, gj in zip(ints, g)] for ints, _ in rows]
    minors: List[Tuple[Scalar, Scalar]] = [(1, 0)]
    prev, rs, gs = 1, 1, 1
    for t, (row, (_, r)) in enumerate(zip(m, rows)):
        piv, rs = row[t], rs * r
        minors.append((Fraction(piv * gs * g[t], rs), Fraction(row[t + 1] * gs * g[t + 1], rs)))
        if piv == 0:
            break
        for low in m[t + 1:]:
            f = low[t]
            low[t + 1:] = [(piv * x - f * y) // prev for x, y in zip(low[t + 1:], row[t + 1:])]
        prev, gs = piv, gs * g[t]
    return minors


def eliminate_ints(m: List[List[Scalar]], n: int):
    """numerics._eliminate's exact branch on the augmented rows m: each row
    through clear_denominators, then the first n columns divided by their
    gcds (a Hankel table's denominators grow along both axes, so clearing
    the rows alone leaves a common factor in each column), then
    fraction-free steps."""
    r = 1
    for i, row in enumerate(m):
        m[i], row_scale = clear_denominators(row)
        r *= row_scale
    g = [math.gcd(*col) or 1 for col in zip(*(row[:n] for row in m))]
    for row in m:
        row[:n] = [x // gj for x, gj in zip(row, g)]
    pivots: List[int] = []
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k] != 0), None)
        if p is None:
            break
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        row_k = m[k]
        piv = row_k[k]
        pivots.append(piv)
        for i in range(k + 1, n):
            row_i = m[i]
            f = row_i[k]
            row_i[k:] = [(piv * x - f * y) // prev for x, y in zip(row_i[k:], row_k[k:])]
        prev = piv
    return m, pivots, sign, (r, g)


def back_substitute_ints(m: List[List[int]], n: int, count: int,
                         g: List[int]) -> List[List[Fraction]]:
    """The solutions of the fraction-free triangular rows m, one Fraction per
    unknown.  With d the last pivot, d G x is an int vector (Cramer's rule
    on the int system), so it is back-substituted in ints, each step
    dividing exactly by its row's pivot, and x_j is that over d g_j."""
    d = m[n - 1][n - 1] if n else 1
    out = []
    for c in range(n, n + count):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            acc = d * row[c]
            for j in range(i + 1, n):
                acc -= row[j] * y[j]
            y[i] = acc // row[i]
        out.append([Fraction(v, d * gj) for v, gj in zip(y, g)])
    return out
