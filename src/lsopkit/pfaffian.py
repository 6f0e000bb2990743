"""Pfaffians of skew-symmetric arrays.

Two independent evaluation routes are provided:

* ``pf_expand``    -- exact recursive expansion along the last index, with
                      alternating signs; exponential cost, size-capped, the
                      ground-truth oracle; an exact table is expanded over
                      the ints of L*A and divided by L^(n/2) once;
* ``pf_eliminate`` -- cubic-cost skew-symmetric Gaussian elimination with
                      greedy full pivoting on the largest-magnitude entry.

Both return 1 for the empty array.  Elimination has two update rules
behind one pivot/swap loop.  A table with a float entry is eliminated in
place by division, in binary64.  A table whose entries are all int/Fraction
is cleared to the int table L*A by modes.clear_denominators over its strict
upper triangle and eliminated fraction-free (Bareiss): each step divides
exactly by the previous pivot, every intermediate entry is a bordered
Pfaffian minor of L*A, and the last pivot is Pf(L*A) = L^(n/2) Pf(A).  No
gcd runs until the one Fraction built from that last pivot.  The ints
carry the factor L^(n/2); on moment tables, whose denominators grow with
the lag, that doubles their bits, so the moment-table route
(lsop.pfaffian_route) clears its table per index instead, as the int
congruence D A D, and hands the int table here.  On exact input
expansion and elimination agree identically; elimination returns an exact
structural 0 when a pivot step finds no nonzero entry.

``pf_leading_borders`` runs the same fraction-free update without pivoting
on an exact table, its unit border columns carried along.  Row i is final
once the pairs below it are eliminated, so one pass gives every leading
bordered minor: the border of the Pfaffian over {0..2m-1, i}, m = i // 2,
for each i at once (the moment-table members q_i, tau_m and sigma_m, from
the int table D A D).

``minor_identity`` evaluates the two minor identities that relate a
Pfaffian bordered by four extra indices to three-fold products of smaller
Pfaffians (the even identity fixes an even-cardinality base set, the odd
identity an odd one).  The table's working rows are taken once, and each
of the eight Pfaffians is its own pivoted elimination of a sub-table of
them: sharing one elimination, or a Schur complement, would make the
identity hold by construction.  On an exact table both sides carry the
factor L^(|base|+2), so the residual is one int difference and each
product one Fraction.

_working_rows is the one place that tests a table's scalar type: it
returns the int rows of L*A and L, or float copies of the rows and None,
and every operation after it reads those rows alike up to the final
scaling; only _eliminate picks its update rule by the scale.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import DimensionError, ExpansionLimitError, IncompleteTableError
from .modes import Scalar, clear_denominators

EXPANSION_CAP = 10


class SkewArray:
    """Skew-symmetric array stored as the rows of its strict upper triangle,
    taken as given: rows[i][j] = e(i,j) for j > i, and nothing else is read
    (from_entry_fn builds the rows from an entry function).  The accessors
    supply e(j,i) = -e(i,j) and e(i,i) = 0; an index outside range(size)
    raises IncompleteTableError.  Odd sizes are rejected by the Pfaffian
    operations, not the container.
    """

    __slots__ = ("size", "rows")

    def __init__(self, rows: List[List[Scalar]]):
        self.size, self.rows = len(rows), rows

    @staticmethod
    def from_entry_fn(size: int, fn: Callable[[int, int], Scalar]) -> "SkewArray":
        """The table e(i,j) = fn(i,j), calling fn row by row over i < j."""
        return SkewArray([[0] * (i + 1) + [fn(i, j) for j in range(i + 1, size)]
                          for i in range(size)])

    def entry(self, i: int, j: int) -> Scalar:
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IncompleteTableError(f"entry ({i},{j}) outside a table of size {self.size}")
        if i == j:
            return 0
        return self.rows[i][j] if i < j else -self.rows[j][i]

    def dense(self) -> List[List[Scalar]]:
        return [[self.entry(i, j) for j in range(self.size)] for i in range(self.size)]

    def submatrix(self, indices: Sequence[int]) -> "SkewArray":
        """Sub-array in the given index order, copied from the upper
        triangle with the sign flipped where the order reverses a pair."""
        idx = list(indices)
        for a in idx:
            if not 0 <= a < self.size:
                raise IncompleteTableError(f"index {a} outside a table of size {self.size}")
        e = self.rows
        return SkewArray([[0] * (p + 1) + [e[a][b] if a < b else -e[b][a] if a > b else 0
                                           for b in idx[p + 1:]] for p, a in enumerate(idx)])


def pf_expand(s: SkewArray) -> Scalar:
    """Pfaffian by recursive expansion along the last index.

    Refuses sizes above EXPANSION_CAP (the term count grows like (2n-1)!!);
    use pf_eliminate for larger arrays.  An exact table is expanded over
    the ints of L times it (_working_rows) and divided by L^(n/2) once; an
    all-int table gives an int, a float table the float sum.
    """
    if s.size % 2:
        raise DimensionError(f"Pfaffian needs even size, got {s.size}")
    if s.size > EXPANSION_CAP:
        raise ExpansionLimitError(
            f"expansion refused for size {s.size} > cap {EXPANSION_CAP}; use pf_eliminate instead"
        )
    rows, scale = _working_rows(s)
    entry = lambda i, j: rows[i][j] if i < j else -rows[j][i]

    @lru_cache(maxsize=None)
    def rec(indices: Tuple[int, ...]) -> Scalar:
        if not indices:
            return 1
        if len(indices) == 2:
            return entry(indices[0], indices[1])
        last = indices[-1]
        rest = indices[:-1]
        total = 0
        for k, ik in enumerate(rest):
            term = entry(ik, last) * rec(rest[:k] + rest[k + 1:])
            total = total + term if k % 2 == 0 else total - term
        return total

    value = rec(tuple(range(s.size)))
    if scale is None or all(type(v) is int for i, row in enumerate(s.rows) for v in row[i + 1:]):
        return value
    return Fraction(value, scale ** (s.size // 2))


def pf_eliminate(s: SkewArray) -> Scalar:
    """Pfaffian by skew-symmetric elimination, O(n^3).

    Greedy full pivoting: each 2x2 step pulls the largest-magnitude
    remaining entry into pivot position via symmetric row/column swaps
    (each swap flips the sign).  A step with no nonzero entry left means
    the array is structurally singular and the Pfaffian is exactly 0.

    Float tables are updated by division and return the signed product of
    the pivots.  Exact (int/Fraction) tables are scaled to ints and updated
    fraction-free: after each step every remaining entry is the one exact
    division would give times one common nonzero factor, so the pivots are
    those of exact division, and the result is a Fraction.
    """
    n = s.size
    if n % 2:
        raise DimensionError(f"Pfaffian needs even size, got {n}")
    if n == 0:
        return 1
    m, scale = _working_rows(s)
    sign, last = _eliminate(m, n, scale)
    if sign == 0 or scale is None:
        return sign * last
    return Fraction(sign * last, scale ** (n // 2))


def pf_leading_borders(s: SkewArray) -> Tuple[List[List[int]], int]:
    """(rows, L): every leading bordered minor of an exact table from one
    unpivoted fraction-free elimination, with the unit border columns as n
    extra columns of every row.  For m = i // 2, rows[i][c] is L^m times
    the coefficient of x_c in the Pfaffian over the indices {0..2m-1, i}
    bordered by a column x, that is (-1)^p Pf({0..2m-1, i} without c) with p
    the position of c (0 for c off that set); rows[i][i] = L^m Pf(0..2m-1).
    L is the table's common denominator.  A vanishing Pf(0..2m-1) is a
    zero pivot: rows 2m and 2m+1 are the last returned."""
    n = s.size
    m, scale = _working_rows(s)
    if scale is None:
        raise TypeError("leading borders need an exact (int/Fraction) table")
    for i, row in enumerate(m):
        row.extend(1 if j == i else 0 for j in range(n))
    prev = 1
    for k in range(0, n - 2, 2):
        a = m[k][k + 1]
        _bareiss_step(m, k, n, a, prev)
        if a == 0:
            del m[k + 4:]  # the next step would divide by this pivot
            break
        prev = a
    return [row[n:] for row in m], scale


def pf_indices(s: SkewArray, indices: Sequence[int]) -> Scalar:
    """Pfaffian of the sub-array picked out by an ordered index list.

    A repeated index forces the value 0 (antisymmetry); an index outside
    the table raises IncompleteTableError, repeated or not.  The order of
    the list matters: transposing two indices negates the result, which the
    sub-array construction realizes automatically.
    """
    idx = list(indices)
    if len(idx) % 2:
        raise DimensionError(f"index list must have even length, got {len(idx)}")
    sub = s.submatrix(idx)
    return 0 if len(set(idx)) != len(idx) else pf_eliminate(sub)


# Each side of a minor identity as products of two Pfaffians, each factor given
# by its positions among the four extra indices (a, b, c, d): the left-hand
# side, then the three right-hand products whose alternating sum is the RHS.
_MINOR_IDENTITIES = {
    "even": (((0, 1, 2, 3), ()), (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))),
    "odd": (((0, 1, 2), (3,)), (((0, 1, 3), (2,)), ((0, 2, 3), (1,)), ((1, 2, 3), (0,)))),
}


def minor_identity(s: SkewArray, base: Sequence[int], extra: Sequence[int],
                   parity: str) -> Tuple[Scalar, Tuple[Scalar, Scalar, Scalar]]:
    """(|LHS - RHS|, the three right-hand products) of the even- or odd-base
    minor identity bordered by the four extra indices (a, b, c, d); the
    residual is an exact zero on exact input.

    even: LHS = Pf(base,a,b,c,d) Pf(base), RHS = Pf(base,a,b) Pf(base,c,d)
          - Pf(base,a,c) Pf(base,b,d) + Pf(base,a,d) Pf(base,b,c);
    odd:  LHS = Pf(base,a,b,c) Pf(base,d), RHS = Pf(base,a,b,d) Pf(base,c)
          - Pf(base,a,c,d) Pf(base,b) + Pf(base,b,c,d) Pf(base,a).

    Each Pfaffian is one pivoted elimination of a sub-table of the working
    rows (_working_rows), in both modes; on an exact table a Pfaffian of k
    indices is L^(k/2) times itself, and the residual and each product are
    one Fraction over L^(|base|+2).
    """
    if parity not in _MINOR_IDENTITIES:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if len(extra) != 4:
        raise DimensionError(f"the identity needs four extra indices, got {len(extra)}")
    base = list(base)
    if (len(base) % 2 == 1) != (parity == "odd"):
        raise DimensionError(f"{parity} identity needs an {parity} base set, got {len(base)} indices")
    (left, right), products = _MINOR_IDENTITIES[parity]
    rows, scale = _working_rows(s)
    work = SkewArray(rows)

    def pf(pos: Sequence[int]) -> Scalar:
        idx = base + [extra[i] for i in pos]
        sub = work.submatrix(idx)
        if len(set(idx)) != len(idx):
            return 0
        sign, last = _eliminate(sub.rows, len(idx), scale)
        return sign * last

    lhs = pf(left) * pf(right)
    first, second, third = (pf(p) * pf(q) for p, q in products)
    resid = abs(lhs - (first - second + third))
    if scale is None:
        return resid, (first, second, third)
    power = scale ** (len(base) + 2)
    return Fraction(resid, power), (Fraction(first, power), Fraction(second, power),
                                    Fraction(third, power))


def _working_rows(s: SkewArray) -> Tuple[List[List[Scalar]], Optional[int]]:
    """Rows holding the strict upper triangle of s, to eliminate in place,
    and the scale: on an exact table one clear_denominators over the whole
    triangle, the rows holding its ints and the scale its L; on a float
    table copies of the rows and None."""
    rows = s.rows
    try:
        ints, scale = clear_denominators([v for i, row in enumerate(rows) for v in row[i + 1:]])
    except AttributeError:  # a float entry
        return [row[:] for row in rows], None
    flat = iter(ints)
    return [[0] * (i + 1) + list(islice(flat, len(row) - i - 1)) for i, row in enumerate(rows)], scale


def _eliminate(m: List[List[Scalar]], n: int, scale: Optional[int]) -> Tuple[int, Scalar]:
    """n // 2 pivoted 2x2 steps in place over the indices 0..n-1 of the rows m: by
    division on float rows (scale None), fraction-free on int rows
    (_bareiss_step).  The swaps' sign (0 when a step finds no nonzero entry)
    and the float pivots' product or the last int pivot (1 when n is 0)."""
    sign = 1
    result = None  # float route: running product, seeded by the first pivot to keep the scalar type
    prev = 1  # exact route: the previous pivot, which divides every update exactly
    for k in range(0, n - 1, 2):
        pi, pj, best = -1, -1, 0
        for i in range(k, n):
            row = m[i]
            for j in range(i + 1, n):
                v = abs(row[j])
                if v > best:
                    best, pi, pj = v, i, j
        if pi < 0:
            return 0, 0
        if pi != k:
            _swap_sym(m, k, pi, k)
            sign = -sign
        if pj != k + 1:
            _swap_sym(m, k + 1, pj, k)
            sign = -sign
        rk, rk1 = m[k], m[k + 1]
        a = rk[k + 1]
        if scale is None:
            result = a if result is None else result * a
            for i in range(k + 2, n):
                bi0, bi1 = rk[i], rk1[i]
                if bi0 == 0 and bi1 == 0:
                    continue
                ri = m[i]
                for j in range(i + 1, n):
                    upd = (bi1 * rk[j] - bi0 * rk1[j]) / a
                    if upd != 0:
                        ri[j] += upd
        else:
            _bareiss_step(m, k, n, a, prev)
            prev = a
    return sign, (prev if result is None else result)


def _bareiss_step(m: List[List[int]], k: int, n: int, a: int, prev: int) -> None:
    """Eliminate the pair (k, k+1), pivot a = m[k][k+1], from the int rows
    k+2..n-1 in place, dividing exactly by the previous pivot prev: each row's
    update spans its whole length, columns beyond n included."""
    rk, rk1 = m[k], m[k + 1]
    for i in range(k + 2, n):
        bi0, bi1 = rk[i], rk1[i]
        ri = m[i]
        ri[i + 1:] = [(a * x + bi1 * y - bi0 * z) // prev
                      for x, y, z in zip(ri[i + 1:], rk[i + 1:], rk1[i + 1:])]


def _swap_sym(m: List[List[Scalar]], p: int, q: int, lo: int) -> None:
    """Symmetric swap of indices p < q in rows storing only the strict upper
    triangle; indices below lo are finished and left as they are.  Preserves
    skew symmetry and flips the Pfaffian's sign."""
    rp, rq = m[p], m[q]
    for r in range(lo, p):
        row = m[r]
        row[p], row[q] = row[q], row[p]
    for r in range(p + 1, q):
        row = m[r]
        rp[r], row[q] = -row[q], -rp[r]
    rp[q] = -rp[q]
    rp[q + 1:], rq[q + 1:] = rq[q + 1:], rp[q + 1:]
