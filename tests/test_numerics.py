"""Dense kernels: determinants, tridiagonal QL, Hessenberg QR.

tests/data/golden_kernel_digests.json holds the sha256 of the repr of
dense_eigs, solve_columns and dense_det on the inputs of _KERNEL_CASES: the
butterflies and pencil transfer matrices of the eigensolve benchmark's seed-1
inputs, seeded random matrices, and singular and special-value systems.  They
pin every bit of the kernels' output, on each Python that CI runs (3.10-3.13).
The exact branch of the elimination is checked against the Fraction-division
elimination it replaced (fraction_eliminate) on hypothesis-drawn systems, and
modes.clear_denominators, which clears its rows, on hypothesis-drawn lists.
Running the module prints the digests of the code as it stands:

    PYTHONPATH=src python tests/test_numerics.py
"""

import hashlib
import itertools
import json
import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lsopkit.errors import ConvergenceError, DimensionError
from lsopkit.lsop import RecurrenceData, recurrence_from_measure
from lsopkit.modes import clear_denominators, is_exact
from lsopkit.moments import DiscreteMeasure
from lsopkit.numerics import (SymTridiag, dense_det, dense_eigs, dot, inf_norm, mat_mul, mat_vec,
                              max_abs_diff, min_cost_assignment, nan_max, solve_columns,
                              solve_linear, sort_complex, spectra_distance, sym_tridiag_eigs,
                              transpose)
from lsopkit.spectra import (ButterflyParams, build_pencil, butterfly_from_params,
                             pencil_from_recurrence, transfer_matrix)

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.inputs import EIGEN_ORDERS, eigen_inputs  # noqa: E402

KERNEL_DIGESTS = json.loads((ROOT / "tests" / "data" / "golden_kernel_digests.json").read_text())


def test_det_identity_and_rotation():
    assert dense_det([[1.0, 0.0], [0.0, 1.0]]) == 1
    assert dense_det([[0, 1], [-1, 0]]) == 1


def test_det_exact_hankel():
    c0, c1, c2 = Fraction(3, 2), Fraction(15, 4), Fraction(87, 8)
    det = dense_det([[c0, c1], [c1, c2]])
    assert det == c0 * c2 - c1 * c1


def test_det_singular_exact_zero():
    assert dense_det([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0


def test_solve_exact():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = solve_linear(a, [Fraction(5), Fraction(10)])
    assert x == [Fraction(1), Fraction(3)]


def test_all_int_input_is_exact():
    # int / int used to turn an all-int elimination into binary64
    det = dense_det([[1, 2], [3, 4]])
    assert det == -2 and type(det) is Fraction
    x = solve_linear([[2, 1], [1, 3]], [1, 2])
    assert x == [Fraction(1, 5), Fraction(3, 5)] and all(type(v) is Fraction for v in x)
    assert solve_columns([[0, 1], [1, 0]], [[3, 4], [5, 6]]) == [[4, 3], [6, 5]]


# -- Fraction-division elimination oracle --------------------------------------

def fraction_eliminate(a, cols=()):
    """Forward elimination of a over Fractions with the first nonzero pivot
    of each column, the right-hand-side columns carried along: the exact
    branch of _eliminate before it became fraction-free.  Returns (rows,
    pivots, sign)."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(col[i]) for col in cols] for i, row in enumerate(a)]
    pivots, sign = [], 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k] != 0), None)
        if p is None:
            break
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        piv = m[k][k]
        pivots.append(piv)
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / piv
                for j in range(k, len(m[i])):
                    m[i][j] -= f * m[k][j]
    return m, pivots, sign


def fraction_det(a):
    m, pivots, sign = fraction_eliminate(a)
    det = Fraction(sign)
    for piv in pivots:
        det *= piv
    return det if len(pivots) == len(a) else Fraction(0)


def fraction_solve(a, cols):
    m, pivots, _ = fraction_eliminate(a, cols)
    n = len(a)
    if len(pivots) < n:
        raise ValueError("singular linear system")
    out = []
    for c in range(n, n + len(cols)):
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            acc = m[i][c]
            for j in range(i + 1, n):
                acc -= m[i][j] * x[j]
            x[i] = acc / m[i][i]
        out.append(x)
    return out


_SMALL_EXACT = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))


@st.composite
def exact_systems(draw):
    """(a, cols): an int/Fraction matrix of size 1-8 with 1-3 columns; kind
    'swap' zeroes the leading entries of the first rows, so the first
    pivot comes from further down, and 'singular' makes one row a
    combination of the others (zeroes the one entry at size 1)."""
    n = draw(st.integers(1, 8))
    a = [[draw(_SMALL_EXACT) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(("plain", "swap", "singular")))
    if kind == "swap":
        for i in range(draw(st.integers(0, n - 1)) + 1):
            a[i][0] = 0
        a[-1][0] = draw(st.sampled_from((1, -3, Fraction(2, 7))))
    elif kind == "singular" and n == 1:
        a[0][0] = 0
    elif kind == "singular":
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(st.sampled_from([r for r in range(n) if r != i]))
        s, t = draw(_SMALL_EXACT), draw(_SMALL_EXACT)
        a[i] = [s * x + t * y for x, y in zip(a[j], a[k])]
    cols = [[draw(_SMALL_EXACT) for _ in range(n)] for _ in range(draw(st.integers(1, 3)))]
    return a, cols


def _solve_or_error(solve, a, cols):
    try:
        return solve(a, cols)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(exact_systems())
@settings(max_examples=200, deadline=None)
def test_fraction_free_elimination_equals_the_fraction_oracle(system):
    a, cols = system
    det = dense_det(a)
    assert det == fraction_det(a) and type(det) is Fraction
    got, ref = _solve_or_error(solve_columns, a, cols), _solve_or_error(fraction_solve, a, cols)
    assert got == ref
    assert isinstance(got, str) or all(type(v) is Fraction for x in got for v in x)
    assert isinstance(got, str) == (det == 0)


_CLEARABLE = st.one_of(st.integers(-10**6, 10**6),
                       st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)))


@given(st.lists(_CLEARABLE, max_size=12))
@settings(max_examples=200, deadline=None)
def test_clear_denominators_gives_ints_over_the_least_common_denominator(values):
    ints, scale = clear_denominators(values)
    assert all(type(v) is int for v in ints)
    assert [Fraction(v, scale) for v in ints] == values
    assert scale == math.lcm(*(Fraction(x).denominator for x in values))
    # all-int input comes back unchanged over 1
    assert clear_denominators(ints) == (ints, 1)


def test_clear_denominators_of_nothing_and_of_a_float():
    assert clear_denominators([]) == ([], 1)
    for inexact in (0.5, 1j):
        with pytest.raises(AttributeError):
            clear_denominators([Fraction(1, 3), inexact, 2])


def mat_inverse(a):
    """A^-1 by one elimination of A carrying the identity's columns."""
    n = len(a)
    return transpose(solve_columns(a, [[int(i == j) for i in range(n)] for j in range(n)]))


def test_inverse_roundtrip():
    rng = random.Random(1)
    a = [[rng.uniform(-2, 2) for _ in range(5)] for _ in range(5)]
    ident = mat_mul(a, mat_inverse(a))
    for i in range(5):
        for j in range(5):
            assert ident[i][j] == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_inverse_exact_on_fractions():
    rng = random.Random(6)
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(5)] for _ in range(5)]
    for i in range(5):
        a[i][i] += 10  # diagonally dominant, hence invertible
    assert mat_mul(mat_inverse(a), a) == [[int(i == j) for j in range(5)] for i in range(5)]


@pytest.mark.parametrize("layout", [build_pencil, pencil_from_recurrence])
def test_transfer_matrix_equals_columnwise_solves(layout):
    n = 8
    m = DiscreteMeasure([1.2 + 3.8 * k / n for k in range(n)],
                        [0.5 + 0.5 * ((7 * k) % 5) / 5 for k in range(n)])
    p = layout(recurrence_from_measure(m, n))
    cols = [solve_linear(p.v, col) for col in transpose(p.u)]
    assert transfer_matrix(p) == transpose(cols)


def _loop_mat_mul(a, b):
    """Reference product: for each entry, the products over the shared index
    summed from 0 in index order."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            total = 0
            for p in range(len(b)):
                total += a[i][p] * b[p][j]
            row.append(total)
        out.append(row)
    return out


def test_mat_mul_and_mat_vec_match_the_index_loop():
    rng = random.Random(17)
    nan, inf = float("nan"), float("inf")
    floats = [[rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8) for _ in range(9)] for _ in range(7)]
    specials = [[rng.choice((0.0, -0.0, nan, inf, -inf, 1e308, 5e-324, 1.5))
                 for _ in range(9)] for _ in range(9)]
    fractions = [[Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(9)]
                 for _ in range(9)]
    negative_zeros = [[-0.0] * 9 for _ in range(9)]
    # against a column of ones this row adds to 0.0 left to right; the built-in
    # sum, which compensates from Python 3.12 on, reads 1.0
    floats.append([1e16, 1.0, -1e16] + [0.0] * 6)
    ones = [[1.0] * 9 for _ in range(9)]
    for a in (floats, specials, fractions, negative_zeros):
        for b in (specials, fractions, negative_zeros, transpose(floats), ones):
            product = mat_mul(a, b)
            assert repr(product) == repr(_loop_mat_mul(a, b))
            assert repr(mat_vec(a, transpose(b)[2])) == repr([row[2] for row in product])


def test_largest_value_keeps_nan():
    nan = float("nan")
    assert nan_max(0.0, 2.0, 1.0) == 2.0
    assert max(0.0, nan) == 0.0  # the built-in drops it
    for values in ((0.0, nan), (nan, 0.0), (1.0, nan, 3.0)):
        assert math.isnan(nan_max(*values))
    assert math.isnan(max_abs_diff([[1.0, 2.0]], [[1.0, nan]]))
    assert max_abs_diff([[1.0, 2.0]], [[1.5, 2.0]]) == 0.5
    assert math.isnan(inf_norm([[1.0, 0.0], [nan, 0.0]]))
    assert inf_norm([[1.0, -2.0], [0.5, 0.0]]) == 3.0 and inf_norm([]) == 0.0


def test_largest_difference_refuses_tables_of_different_shapes():
    # a table that lost a column or a row does not compare on its common part
    for a, b in (([[1.0, 2.0]], [[1.0]]), ([[1.0], [5.0]], [[1.0]]), ([[1.0]], [[1.0], [5.0]])):
        with pytest.raises(DimensionError, match="equally shaped"):
            max_abs_diff(a, b)
    assert max_abs_diff([[1.0], [5.0]], [[1.0], [4.0]]) == 1.0


def test_tridiag_singleton():
    assert sym_tridiag_eigs(SymTridiag([2.5], [])) == [2.5]


def test_tridiag_two_by_two():
    assert sym_tridiag_eigs(SymTridiag([0, 0], [1])) == pytest.approx([-1.0, 1.0])
    assert sym_tridiag_eigs(SymTridiag([2, 2], [1])) == pytest.approx([1.0, 3.0])


def test_tridiag_length_mismatch():
    with pytest.raises(DimensionError):
        SymTridiag([1, 2], [1, 2])


def test_tridiag_matches_dense(subtests=None):
    rng = random.Random(2)
    for n in range(1, 13):
        diag = [rng.uniform(-3, 3) for _ in range(n)]
        off = [rng.uniform(-2, 2) for _ in range(n - 1)]
        t = SymTridiag(diag, off)
        ql = [complex(x) for x in sym_tridiag_eigs(t)]
        qr = dense_eigs(t.dense())
        assert spectra_distance(ql, qr) < 1e-10


def test_dense_eigs_identity():
    assert dense_eigs([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1 + 0j, 1 + 0j, 1 + 0j]


def test_dense_eigs_rotation():
    eigs = dense_eigs([[0, 1], [-1, 0]])
    assert eigs == [complex(0, -1), complex(0, 1)]


def test_dense_eigs_companion():
    # z^2 - (5/2) z + 1 -> roots 1/2 and 2
    eigs = dense_eigs([[0, -1], [1, 2.5]])
    assert eigs[0] == pytest.approx(0.5) and eigs[1] == pytest.approx(2.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_dense_eigs_refuses_non_finite_entry(bad):
    # a NaN or inf never deflates: the QR would spend its whole sweep budget
    rng = random.Random(7)
    a = [[rng.uniform(-3.0, 3.0) for _ in range(64)] for _ in range(64)]
    a[40][17] = bad
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        dense_eigs(a)


# -- characteristic-polynomial oracle (sizes <= 6) -----------------------------

def charpoly(a):
    """Monic characteristic polynomial coefficients [c_0, ..., c_{n-1}, 1].

    Faddeev-LeVerrier recursion; exact on Fraction input.
    """
    n = len(a)
    one_ = Fraction(1) if all(is_exact(x) for row in a for x in row) else 1.0
    coeffs = [one_ * 0] * n + [one_]
    m = [[one_ if i == j else one_ * 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c = -dot((am[i][i] for i in range(n)), itertools.repeat(1)) / k
        coeffs[n - k] = c
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def charpoly_eigs(a):
    """Eigenvalues of a square matrix of size <= 6, sorted by (re, im): the
    exact characteristic polynomial plus simultaneous root iteration."""
    if len(a) > 6:
        raise DimensionError("charpoly oracle limited to size <= 6")
    return sort_complex(polynomial_roots([complex(float(c), 0.0) for c in charpoly(a)]))


def polynomial_roots(coeffs):
    """Roots of a monic polynomial by simultaneous (Weierstrass) iteration."""
    n = len(coeffs) - 1
    if n == 0:
        return []
    cs = [c / coeffs[-1] for c in coeffs]

    def val(z):
        acc = 0j
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    radius = 1.0 + max(abs(c) for c in cs[:-1])
    roots = [radius * complex(0.4, 0.9)**k for k in range(1, n + 1)]
    for _ in range(500):
        moved = 0.0
        for i in range(n):
            denom = 1 + 0j
            for j in range(n):
                if j != i:
                    denom *= roots[i] - roots[j]
            if denom == 0:
                roots[i] += complex(1e-8, 1e-8)
                continue
            delta = val(roots[i]) / denom
            roots[i] -= delta
            moved = max(moved, abs(delta))
        if moved < 1e-14 * (1.0 + radius):
            return roots
    raise ConvergenceError("root iteration did not settle in 500 rounds")


def test_qr_matches_charpoly_oracle():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)]
        assert spectra_distance(dense_eigs(a), charpoly_eigs(a)) < 1e-7


def test_eigenvalue_sum_is_trace():
    rng = random.Random(4)
    for n in (8, 12, 16):
        a = [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)]
        eigs = dense_eigs(a)
        trace = sum(a[i][i] for i in range(n))
        assert sum(z.real for z in eigs) == pytest.approx(trace, rel=1e-10, abs=1e-10)
        assert sum(z.imag for z in eigs) == pytest.approx(0.0, abs=1e-9)


def test_charpoly_exact():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
    # det(tI - A) = t^2 - 4t + 3
    assert charpoly(a) == [Fraction(3), Fraction(-4), Fraction(1)]


def test_charpoly_oracle_size_cap():
    with pytest.raises(DimensionError):
        charpoly_eigs([[0.0] * 7 for _ in range(7)])


def test_assignment_is_optimal():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 6)
        cost = [[rng.uniform(0, 10) for _ in range(n)] for _ in range(n)]
        match = min_cost_assignment(cost)
        got = sum(cost[i][match[i]] for i in range(n))
        best = min(sum(cost[i][p[i]] for i in range(n))
                   for p in itertools.permutations(range(n)))
        assert got == pytest.approx(best, abs=1e-9)


def test_spectra_distance_handles_conjugate_jitter():
    a = [complex(1.0, 2.0), complex(1.0, -2.0)]
    b = [complex(1.0 + 1e-15, -2.0), complex(1.0 - 1e-15, 2.0)]
    assert spectra_distance(a, b) < 1e-13


# -- kernel digests ---------------------------------------------------------

def _outcome(f, *args) -> str:
    """repr of f(*args), or the type and message of the error it raises."""
    try:
        return repr(f(*args))
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _eigensolve_matrices(order: int):
    """Butterfly and pencil transfer matrix of each seed-1 eigensolve input at
    one order, built as the benchmark's worker builds them."""
    for case in eigen_inputs(1):
        if case["order"] != order:
            continue
        diag, off, g = case["tri"]["diag"], case["tri"]["off"], case["gauge"]
        r, lam = g["r"], g["lam"]
        yield butterfly_from_params(ButterflyParams(
            a=tuple(1.0 / (x * x) for x in r), b=tuple(lam),
            c=tuple(r[k] ** 2 * (diag[k] - lam[k]) for k in range(order)),
            d=tuple(r[k] * r[k + 1] * off[k] for k in range(order - 1))))
        alpha = [0.0]
        for gamma in diag:
            alpha.append(alpha[-1] + gamma)
        rec = RecurrenceData(order=order, alpha=tuple(alpha),
                             beta=tuple([0.0] + [e * e for e in off] + [0.0]),
                             tau=(1.0,) * (order + 1), sigma=tuple(alpha))
        yield transfer_matrix(pencil_from_recurrence(rec))


def _random_matrices():
    rng = random.Random("kernel-digests")
    sizes = list(range(1, 13)) + [16, 24, 32, 48, 64]
    return [[[rng.uniform(-3.0, 3.0) for _ in range(n)] for _ in range(n)] for n in sizes]


def _zero_subdiagonal_matrices():
    """Upper Hessenberg with exact zeros at subdiagonal 5 and 11, and block
    upper triangular with diagonal blocks of size 7, 6 and 7."""
    rng = random.Random("kernel-digests-zero")
    hess = [[rng.uniform(-3.0, 3.0) if i <= j + 1 and i not in (5, 11) or i <= j else 0.0
             for j in range(20)] for i in range(20)]
    block = [0] * 7 + [1] * 6 + [2] * 7
    tri = [[rng.uniform(-3.0, 3.0) if block[i] <= block[j] else 0.0
            for j in range(20)] for i in range(20)]
    return [hess, tri]


def _negative_zero_matrices():
    rng = random.Random("kernel-digests-negzero")
    a = [[-0.0 if (i + 2 * j) % 3 == 0 else rng.uniform(-3.0, 3.0) for j in range(12)]
         for i in range(12)]
    return [a, [[-0.0] * 4 for _ in range(4)]]


def _systems():
    """(name, a, cols) of float, Fraction, singular and special-value systems."""
    rng = random.Random("kernel-digests-solve")
    fl = [[rng.uniform(-2.0, 2.0) for _ in range(8)] for _ in range(8)]
    fr = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(6)] for _ in range(6)]
    sing = [[float(rng.randint(-5, 5)) for _ in range(5)] for _ in range(4)]
    sing.insert(2, [x + y for x, y in zip(sing[0], sing[1])])
    sing_fr = [[Fraction(x) / 3 for x in row] for row in sing]
    nan, inf = float("nan"), float("inf")
    special = [[1.0, nan, 2.0], [-0.0, 3.0, inf], [-inf, 1.0, -0.0]]
    negative_zeros = [[-0.0, 1.0, 2.0], [3.0, -0.0, 1.0], [2.0, 5.0, -0.0]]

    def cols(n, count):
        return [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(count)]

    return [("float", fl, cols(8, 3)),
            ("fraction", fr, [[Fraction(rng.randint(-9, 9), 5) for _ in range(6)] for _ in range(2)]),
            ("singular", sing, cols(5, 2)),
            ("singular-fraction", sing_fr, [[Fraction(k) for k in range(5)]]),
            ("special", special, [[1.0, -0.0, nan], [inf, 1.0, 2.0]]),
            ("negative-zero", negative_zeros, [[-0.0, 1.0, -0.0]])]


def _eigs_case(make):
    return lambda: [_outcome(dense_eigs, a) for a in make()]


_KERNEL_CASES = {
    **{f"dense_eigs/eigensolve/{n}": _eigs_case(lambda n=n: _eigensolve_matrices(n))
       for n in EIGEN_ORDERS},
    "dense_eigs/random": _eigs_case(_random_matrices),
    "dense_eigs/zero-subdiagonal": _eigs_case(_zero_subdiagonal_matrices),
    "dense_eigs/negative-zero": _eigs_case(_negative_zero_matrices),
    "solve_columns": lambda: [(name, _outcome(solve_columns, a, cols)) for name, a, cols in _systems()],
    "dense_det": lambda: [(name, _outcome(dense_det, a)) for name, a, _ in _systems()],
}


def _kernel_digest(key: str) -> str:
    return hashlib.sha256(repr(_KERNEL_CASES[key]()).encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(_KERNEL_CASES))
def test_kernel_output_matches_golden_digest(key):
    assert _kernel_digest(key) == KERNEL_DIGESTS[key]


if __name__ == "__main__":
    print(json.dumps({key: _kernel_digest(key) for key in sorted(_KERNEL_CASES)}, indent=2))
