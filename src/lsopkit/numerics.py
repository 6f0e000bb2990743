"""Dense linear-algebra kernels at desk scale (n <= 64).

Everything here is implemented in-repo on plain lists so that the numerical
oracles stay auditable: one forward elimination that serves the
determinant, the linear solves, the inverse and the pencil's transfer
matrix V^-1 U (partial pivoting and division in binary64; on all-exact
input, int/Fraction, each row cleared to ints by modes.clear_denominators,
each column divided by its gcd, and the int table eliminated
fraction-free, Bareiss, with one Fraction per result), an
implicit-shift QL eigensolver for symmetric tridiagonal matrices, and a
Hessenberg + double-shift QR eigensolver for general real matrices.  The
exact branch's integer kernels live in exact and are imported only on
all-exact input, so a double-mode process compiles none of them.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import repeat
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from .errors import ConvergenceError, DimensionError
from .modes import Scalar, is_exact, validated_make

Matrix = List[List[Scalar]]

_EPS = 2.0 ** -52

MAX_DENSE_SIZE = 64


# ---------------------------------------------------------------------------
# matrix helpers
# ---------------------------------------------------------------------------

def zeros(rows: int, cols: int) -> Matrix:
    return [[0.0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1.0
    return m


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def dot(xs: Iterable[Scalar], ys: Iterable[Scalar]) -> Scalar:
    """sum of x * y added left to right from 0 in a plain loop: the built-in
    sum compensates float rounding from Python 3.12 on."""
    total = 0
    for x, y in zip(xs, ys):
        total += x * y
    return total


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def mat_vec(a: Matrix, v: Sequence[Scalar]) -> List[Scalar]:
    return [dot(row, v) for row in a]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def inf_norm(a: Matrix) -> float:
    """Largest absolute row sum, 0 for no rows; NaN if any row sum is."""
    return nan_max(0.0, *(dot((abs(float(x)) for x in row), repeat(1.0)) for row in a))


def nan_max(*values: float) -> float:
    """The largest of values, or NaN if any of them is NaN (the built-in max
    drops a NaN that does not come first)."""
    for v in values:
        if v != v:
            return v
    return max(values)


def max_abs_diff(a: Matrix, b: Matrix) -> float:
    """Largest entrywise |a - b| of two equally shaped tables; NaN if any is.
    Tables of different shapes raise DimensionError."""
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        raise DimensionError("max_abs_diff needs equally shaped tables")
    return nan_max(*(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)))


def _check_square(a: Matrix) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionError("matrix is not square")
    if n > MAX_DENSE_SIZE:
        raise DimensionError(f"matrix size {n} exceeds the desk-scale cap {MAX_DENSE_SIZE}")
    return n


# ---------------------------------------------------------------------------
# determinant and linear solves: one pivoted elimination
# ---------------------------------------------------------------------------

def _eliminate(a: Matrix, cols: Sequence[Sequence[Scalar]] = ()):
    """Forward elimination of a, carrying the right-hand-side columns cols
    along.

    Returns (rows, pivots, sign, scale): the reduced augmented rows, the
    pivots in order, the sign of the row permutation and, when every entry
    is exact, the int scaling (None otherwise).  Fewer than n pivots means
    a is singular; elimination stopped at the first column without one.
    Pivots are chosen from a alone, so every column sees the same steps.

    Float rows take partial pivoting and division.  Exact rows are cleared
    to ints first (exact.eliminate_ints): each augmented row by
    clear_denominators, then each column of a divided by the gcd of its
    entries.  scale is (r, g), r the product of the row scales and g the
    column gcds, so the int system is R a G^-1 (G x) = R b.  It is eliminated
    fraction-free (Bareiss) under the first nonzero pivot of each column:
    each update divides exactly by the previous pivot, so the last pivot
    is the determinant of the int matrix, det a = sign * last * prod(g) / r,
    and no gcd runs during the elimination.
    """
    n = _check_square(a)
    width = n + len(cols)
    m = [list(row) + [col[i] for col in cols] for i, row in enumerate(a)]
    if all(is_exact(x) for row in m for x in row):
        from .exact import eliminate_ints

        return eliminate_ints(m, n)
    pivots: List[Scalar] = []
    sign = 1
    for k in range(n):
        p = _pick_pivot(m, k)
        if p is None:
            break
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        piv = m[k][k]
        pivots.append(piv)
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            if row_i[k] != 0:
                f = row_i[k] / piv
                for j in range(k, width):
                    row_i[j] -= f * row_k[j]
    return m, pivots, sign, None


def dense_det(a: Matrix) -> Scalar:
    """Determinant by pivoted elimination; a Fraction when every entry is
    exact (int or Fraction), built once from the last int pivot."""
    if not a:
        return 1
    m, pivots, sign, scale = _eliminate(a)
    if scale is not None:
        if len(pivots) < len(m):
            return Fraction(0)
        r, g = scale
        return Fraction(sign * pivots[-1] * math.prod(g), r)
    det = 1.0
    for piv in pivots:
        det *= piv
    if len(pivots) < len(m):
        return det * 0
    return det if sign > 0 else -det


def solve_columns(a: Matrix, cols: Sequence[Sequence[Scalar]]) -> List[List[Scalar]]:
    """Solve a x = b for every column b in cols with one elimination of a.

    Exact (Fractions) when every entry of a and cols is an int or a
    Fraction; raises ValueError on a singular system (callers wrap it in the
    domain-specific error).
    """
    m, pivots, _, scale = _eliminate(a, cols)
    n = len(m)
    if len(pivots) < n:
        raise ValueError("singular linear system")
    if scale is not None:
        from .exact import back_substitute_ints

        return back_substitute_ints(m, n, len(cols), scale[1])
    out = []
    for c in range(n, n + len(cols)):
        x: List[Scalar] = [0] * n
        for i in range(n - 1, -1, -1):
            acc = m[i][c]
            for j in range(i + 1, n):
                acc -= m[i][j] * x[j]
            x[i] = acc / m[i][i]
        out.append(x)
    return out


def solve_linear(a: Matrix, b: Sequence[Scalar]) -> List[Scalar]:
    """Solve a x = b: solve_columns with the one column b."""
    return solve_columns(a, [b])[0]


def _pick_pivot(m: Matrix, k: int):
    """The row at or below k with the largest |m[i][k]|, None if all are 0."""
    best, arg = 0.0, None
    for i in range(k, len(m)):
        v = abs(float(m[i][k]))
        if v > best:
            best, arg = v, i
    return arg


# ---------------------------------------------------------------------------
# symmetric tridiagonal eigenvalues (implicit-shift QL)
# ---------------------------------------------------------------------------

class _Tridiag(NamedTuple):
    diag: Tuple[float, ...]
    offdiag: Tuple[float, ...]


class SymTridiag(_Tridiag):
    """Symmetric tridiagonal matrix given by its diagonal and off-diagonal."""

    __slots__ = ()

    def __new__(cls, diag: Sequence[Scalar], offdiag: Sequence[Scalar]):
        if len(offdiag) != max(len(diag) - 1, 0):
            raise DimensionError(
                f"offdiag length {len(offdiag)} inconsistent with diag length {len(diag)}"
            )
        diag, offdiag = tuple(float(x) for x in diag), tuple(float(x) for x in offdiag)
        if any(math.isnan(v) or math.isinf(v) for v in diag + offdiag):
            raise ValueError("tridiagonal entries must be finite")
        return super().__new__(cls, diag, offdiag)

    _make = classmethod(validated_make)

    @property
    def size(self) -> int:
        return len(self.diag)

    def dense(self) -> Matrix:
        n = self.size
        m = zeros(n, n)
        for i in range(n):
            m[i][i] = self.diag[i]
        for i in range(n - 1):
            m[i][i + 1] = m[i + 1][i] = self.offdiag[i]
        return m


def sym_tridiag_eigs(t: SymTridiag) -> List[float]:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending.

    Implicit-shift QL with Wilkinson-style shifts; iteration cap 50 per
    eigenvalue.  Output is deterministic for identical input.
    """
    n = t.size
    if n == 0:
        return []
    d = list(t.diag)
    e = list(t.offdiag) + [0.0]
    for l in range(n):
        iters = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd:
                    break
                m += 1
            if m == l:
                break
            iters += 1
            if iters > 50:
                raise ConvergenceError(f"QL sweep failed to deflate index {l} after 50 iterations")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    return sorted(d)


# ---------------------------------------------------------------------------
# general real eigenvalues (Hessenberg + double-shift QR)
# ---------------------------------------------------------------------------

def dense_eigs(a: Matrix) -> List[complex]:
    """All eigenvalues of a real square matrix, sorted by (re, im):
    stabilized-elimination Hessenberg reduction followed by Francis
    double-shift QR (tests/test_numerics.py holds the independent
    characteristic-polynomial oracle for sizes <= 6).  Raises ValueError on
    a NaN or infinite entry, which would never deflate.

    Each entry enters as float(x) + 0.0, so a -0.0 enters as +0.0.  Under
    round-to-nearest a sum or difference is -0.0 only when an operand is
    -0.0 (exact cancellation gives +0.0), so _hessenberg's working matrix
    never holds -0.0 and its skipped updates change no bit.  dense_eigs(a)
    therefore equals dense_eigs of a with every -0.0 made +0.0 and, as long
    as no entry of the reduction overflows, the eigenvalues of the kernels
    that perform every update (tests/qr_oracle.py), bit for bit."""
    if _check_square(a) == 0:
        return []
    h = [[float(x) + 0.0 for x in row] for row in a]
    if not all(math.isfinite(x) for row in h for x in row):
        raise ValueError("matrix entries must be finite")
    _hessenberg(h)
    return sort_complex(_hqr(h))


def _hessenberg(a: Matrix) -> None:
    """Reduce to upper Hessenberg in place by pivoted elementary similarity.

    An update whose multiplicand is 0.0 is skipped: pivoting keeps each
    multiplier within [-1, 1] while no entry has overflowed, so the skipped
    product is +-0.0; and the working matrix holds no -0.0 (dense_eigs
    admits none), the one value that adding +-0.0 can change."""
    n = len(a)
    for m in range(1, n - 1):
        x, piv = 0.0, m
        for j in range(m, n):
            if abs(a[j][m - 1]) > abs(x):
                x = a[j][m - 1]
                piv = j
        if piv != m:
            a[piv], a[m] = a[m], a[piv]
            for row in a:
                row[piv], row[m] = row[m], row[piv]
        if x != 0.0:
            am = a[m]
            # the column updates below move am[m] only, so the nonzero
            # columns of am past m are found once per step
            cols = [j for j in range(m + 1, n) if am[j] != 0.0]
            for i in range(m + 1, n):
                ai = a[i]
                y = ai[m - 1]
                if y != 0.0:
                    y /= x
                    ai[m - 1] = 0.0
                    v = am[m]
                    if v != 0.0:
                        ai[m] -= y * v
                    for j in cols:
                        ai[j] -= y * am[j]
                    for row in a:
                        v = row[i]
                        if v != 0.0:
                            row[m] += y * v
    for i in range(2, n):
        for j in range(i - 1):
            a[i][j] = 0.0


def _hqr(a: Matrix) -> List[complex]:
    """Eigenvalues of an upper Hessenberg matrix (Francis double shift).

    Exceptional shifts after every 10 stalled sweeps on one eigenvalue;
    failure after 30 * max(10, n) sweeps over the whole matrix, the
    iteration budget of LAPACK's dlahqr.
    """
    n = len(a)
    budget = 30 * max(10, n)
    sweeps = 0
    anorm = 0.0
    for i in range(n):
        for j in range(max(i - 1, 0), n):
            anorm += abs(a[i][j])
    if anorm == 0.0:
        return [0j] * n
    eigs: List[complex] = []
    nn = n - 1
    t = 0.0
    while nn >= 0:
        its = 0
        while True:
            l = nn
            while l >= 1:
                s = abs(a[l - 1][l - 1]) + abs(a[l][l])
                if s == 0.0:
                    s = anorm
                if abs(a[l][l - 1]) <= _EPS * s:
                    a[l][l - 1] = 0.0
                    break
                l -= 1
            x = a[nn][nn]
            if l == nn:
                eigs.append(complex(x + t, 0.0))
                nn -= 1
                break
            y = a[nn - 1][nn - 1]
            w = a[nn][nn - 1] * a[nn - 1][nn]
            if l == nn - 1:
                p = 0.5 * (y - x)
                q = p * p + w
                z = math.sqrt(abs(q))
                x += t
                if q >= 0.0:
                    z = p + math.copysign(z, p)
                    eigs.append(complex(x + z, 0.0))
                    eigs.append(complex(x + z if z == 0.0 else x - w / z, 0.0))
                else:
                    eigs.append(complex(x + p, z))
                    eigs.append(complex(x + p, -z))
                nn -= 2
                break
            if sweeps == budget:
                raise ConvergenceError(f"QR iteration failed to converge in {budget} sweeps")
            if its and its % 10 == 0:
                t += x
                for i in range(nn + 1):
                    a[i][i] -= x
                s = abs(a[nn][nn - 1]) + abs(a[nn - 1][nn - 2])
                y = x = 0.75 * s
                w = -0.4375 * s * s
            its += 1
            sweeps += 1
            m = nn - 2
            while m >= l:
                z = a[m][m]
                r = x - z
                s = y - z
                p = (r * s - w) / a[m + 1][m] + a[m][m + 1]
                q = a[m + 1][m + 1] - z - r - s
                r = a[m + 2][m + 1]
                s = abs(p) + abs(q) + abs(r)
                p /= s
                q /= s
                r /= s
                if m == l:
                    break
                u = abs(a[m][m - 1]) * (abs(q) + abs(r))
                v = abs(p) * (abs(a[m - 1][m - 1]) + abs(z) + abs(a[m + 1][m + 1]))
                if u <= _EPS * v:
                    break
                m -= 1
            for i in range(m + 2, nn + 1):
                a[i][i - 2] = 0.0
                if i != m + 2:
                    a[i][i - 3] = 0.0
            for k in range(m, nn):
                if k != m:
                    p = a[k][k - 1]
                    q = a[k + 1][k - 1]
                    r = a[k + 2][k - 1] if k != nn - 1 else 0.0
                    x = abs(p) + abs(q) + abs(r)
                    if x != 0.0:
                        p /= x
                        q /= x
                        r /= x
                s = math.copysign(math.sqrt(p * p + q * q + r * r), p)
                if s == 0.0:
                    continue
                if k == m:
                    if l != m:
                        a[k][k - 1] = -a[k][k - 1]
                else:
                    a[k][k - 1] = -s * x
                p += s
                x = p / s
                y = q / s
                z = r / s
                q /= p
                r /= p
                # rows k..k+2, then columns k..k+2 of rows l..min(nn, k+3);
                # the last step (k = nn - 1) touches two rows and columns.
                # Each entry is read once and written back as u - p * x, the
                # operations of u -= p * x in the same order.
                k1 = k + 1
                r0, r1 = a[k], a[k1]
                if k == nn - 1:
                    for j in range(k, nn + 1):
                        u0 = r0[j]
                        u1 = r1[j]
                        p = u0 + q * u1
                        r1[j] = u1 - p * y
                        r0[j] = u0 - p * x
                    for row in a[l:nn + 1]:
                        u0 = row[k]
                        u1 = row[k1]
                        p = x * u0 + y * u1
                        row[k1] = u1 - p * q
                        row[k] = u0 - p
                else:
                    k2 = k + 2
                    r2 = a[k2]
                    for j in range(k, nn + 1):
                        u0 = r0[j]
                        u1 = r1[j]
                        u2 = r2[j]
                        p = u0 + q * u1 + r * u2
                        r2[j] = u2 - p * z
                        r1[j] = u1 - p * y
                        r0[j] = u0 - p * x
                    for row in a[l:min(nn, k + 3) + 1]:
                        u0 = row[k]
                        u1 = row[k1]
                        u2 = row[k2]
                        p = x * u0 + y * u1 + z * u2
                        row[k2] = u2 - p * r
                        row[k1] = u1 - p * q
                        row[k] = u0 - p
    return eigs


# ---------------------------------------------------------------------------
# spectrum comparison helpers
# ---------------------------------------------------------------------------

def sort_complex(zs: Sequence[complex]) -> List[complex]:
    return sorted((complex(z) for z in zs), key=lambda z: (z.real, z.imag))


def min_cost_assignment(cost: Matrix) -> List[int]:
    """Optimal assignment for a square cost matrix (Hungarian with potentials).

    Returns match[i] = column assigned to row i, minimizing the total cost;
    O(n^3), deterministic.  Raises ValueError on a NaN or infinite cost,
    under which no column would ever be picked.
    """
    n = len(cost)
    if n == 0:
        return []
    if not all(math.isfinite(float(c)) for row in cost for c in row):
        raise ValueError("assignment costs must be finite")
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta, j1 = inf, -1
            for j in range(1, n + 1):
                if not used[j]:
                    cur = float(cost[i0 - 1][j - 1]) - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    match = [0] * n
    for j in range(1, n + 1):
        match[p[j] - 1] = j - 1
    return match


def spectra_distance(xs: Sequence[complex], ys: Sequence[complex]) -> float:
    """Max pairing distance between two equally sized spectra.

    Pairs the multisets by the min-total-|difference| assignment and
    reports the largest matched distance: NaN if either spectrum holds a
    NaN, else inf if either holds an infinity, without matching.  Raises
    ValueError where the difference of two finite entries overflows.
    """
    if len(xs) != len(ys):
        raise DimensionError(f"spectra sizes differ: {len(xs)} vs {len(ys)}")
    xs_l = [complex(x) for x in xs]
    ys_l = [complex(y) for y in ys]
    both = xs_l + ys_l
    if any(cmath.isnan(z) for z in both):
        return math.nan
    if any(cmath.isinf(z) for z in both):
        return math.inf
    cost = [[abs(x - y) for y in ys_l] for x in xs_l]
    match = min_cost_assignment(cost)
    return nan_max(0.0, *(cost[i][match[i]] for i in range(len(xs_l))))
