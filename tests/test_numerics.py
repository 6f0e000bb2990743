"""Dense kernels: determinants, tridiagonal QL, Hessenberg QR."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from lsopkit.errors import DimensionError
from lsopkit.lsop import recurrence_from_measure
from lsopkit.moments import DiscreteMeasure
from lsopkit.numerics import (SymTridiag, charpoly, charpoly_eigs, dense_det, dense_eigs, inf_norm,
                              mat_mul, mat_vec, max_abs_diff, min_cost_assignment, nan_max,
                              solve_columns, solve_linear, spectra_distance, sym_tridiag_eigs,
                              transpose)
from lsopkit.spectra import build_pencil, pencil_from_recurrence, transfer_matrix


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
