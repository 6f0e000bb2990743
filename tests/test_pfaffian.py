"""Pfaffian evaluation and the bordered-minor identities.

The suite checks elimination against expansion and the dense determinant
on seeded tables, and the moment-table Pfaffians of the rational fixed
measure against the exact folded walk's tau_k at N = 6.  The same
comparison at N = 8, 12 and 16 (7 to 11 s in single runs), and the bordered
minors of the moment tables of q_0..q_16 at N = 8 (up to 17 indices, under
a second) against a Pfaffian per minor, run with

    PYTHONPATH=src python tests/test_pfaffian.py
"""

import random
import struct
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lsopkit.errors import DimensionError, ExpansionLimitError, IncompleteTableError
from lsopkit.lsop import bordered_pfaffian, moment_skew_array, recurrence_from_measure
from lsopkit.moments import DiscreteMeasure, MomentTable
from lsopkit.numerics import dense_det
from lsopkit.pfaffian import (SkewArray, _swap_sym, check_identity_even, check_identity_odd,
                              pf_bordered_minors, pf_eliminate, pf_expand, pf_indices)


def rational_skew(rng, size):
    return SkewArray.from_entry_fn(size, lambda i, j: Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def exact_skew(rng, size, kind):
    """Seeded exact table: int, mixed int/Fraction, a Fraction table with one
    zero row, or X J X^T of rank at most size - 2 (size - 3 when size is
    odd, which zeroes every minor of one index fewer) with no zero entry
    forced."""
    if kind == "int":
        return SkewArray.from_entry_fn(size, lambda i, j: rng.randint(-9, 9))
    if kind == "mixed":
        return SkewArray.from_entry_fn(size, lambda i, j: rng.choice(
            (rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))))
    if kind == "zero-row":
        zero = rng.randrange(size)
        s = rational_skew(rng, size)
        return SkewArray.from_entry_fn(size, lambda i, j: 0 if zero in (i, j) else s.entry(i, j))
    rank = size - 2 - size % 2
    x = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rank)]
         for _ in range(size)]
    return SkewArray.from_entry_fn(size, lambda i, j: sum(
        x[i][p] * x[j][p + 1] - x[i][p + 1] * x[j][p] for p in range(0, rank, 2)))


def rational_fixed_measure(n):
    """The fixed high-order measure with exact nodes 6/5 + 19k/(5n) and
    weights 1/2 + ((7k) mod 5)/10."""
    return DiscreteMeasure([Fraction(6, 5) + Fraction(19 * k, 5 * n) for k in range(n)],
                           [Fraction(1, 2) + Fraction((7 * k) % 5, 10) for k in range(n)])


def moment_taus(n):
    """Pf(0..2k-1) of the moment table of the rational fixed measure for
    k = 0..n, and the exact folded walk's tau_0..tau_n."""
    m = rational_fixed_measure(n)
    table = moment_skew_array(MomentTable.from_measure(m, n), range(2 * n))
    return ([pf_eliminate(table.submatrix(range(2 * k))) for k in range(n + 1)],
            list(recurrence_from_measure(m, n).tau))


def per_minor(s):
    """[(-1)^p Pf(s without p)], one elimination per minor."""
    return [(-1) ** p * pf_indices(s, [i for i in range(s.size) if i != p]) for p in range(s.size)]


def bordered_minors_agree(mu, k):
    """bordered_pfaffian's one elimination against a Pfaffian per minor on the
    table that lsop_via_pfaffian borders for q_k."""
    exponents = list(range(2 * (k // 2))) + [k]
    table = moment_skew_array(mu, exponents)
    return bordered_pfaffian(table, exponents, exact=True).coeffs == {
        e: v for e, v in zip(exponents, per_minor(table)) if v != 0}


def test_empty_array_is_one():
    s = SkewArray(0, {})
    assert pf_expand(s) == 1
    assert pf_eliminate(s) == 1


def test_size_two_is_the_single_entry():
    s = SkewArray(2, {(0, 1): Fraction(7, 3)})
    assert pf_expand(s) == Fraction(7, 3)
    assert pf_eliminate(s) == Fraction(7, 3)


def test_size_four_worked_value():
    # entries 01:1 02:2 03:3 12:4 13:5 23:6 -> 1*6 - 2*5 + 3*4 = 8
    s = SkewArray(4, {(0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 2): 4, (1, 3): 5, (2, 3): 6})
    assert pf_expand(s) == 8
    assert pf_eliminate(s) == 8


def test_odd_size_rejected():
    s = SkewArray(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
    with pytest.raises(DimensionError):
        pf_expand(s)
    with pytest.raises(DimensionError):
        pf_eliminate(s)


def test_expansion_cap():
    rng = random.Random(0)
    s = rational_skew(rng, 12)
    with pytest.raises(ExpansionLimitError):
        pf_expand(s)
    pf_eliminate(s)  # elimination has no cap


def test_missing_entry_detected():
    # a table missing an entry is refused when it is built, before any Pfaffian
    with pytest.raises(IncompleteTableError, match=r"entry \(2,3\) missing"):
        SkewArray(4, {(0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 2): 4, (1, 3): 5})
    with pytest.raises(IncompleteTableError, match=r"entry \(0,1\) missing"):
        SkewArray(2, {})


@pytest.mark.parametrize("bad", [4, -1])
def test_index_outside_table_refused(bad):
    # a negative index must not wrap around to the last row
    s = SkewArray.from_entry_fn(4, lambda i, j: 10 * i + j)
    with pytest.raises(IncompleteTableError):
        s.entry(bad, 0)
    with pytest.raises(IncompleteTableError):
        s.entry(1, bad)
    with pytest.raises(IncompleteTableError):
        s.entry(bad, bad)
    with pytest.raises(IncompleteTableError):
        s.submatrix([0, bad])
    with pytest.raises(IncompleteTableError):
        pf_indices(s, [2, bad])
    with pytest.raises(IncompleteTableError):
        pf_indices(s, [bad, bad])


def test_rows_hold_the_upper_triangle():
    # from_entry_fn calls fn row by row over i < j; submatrix flips the sign
    # where the index order reverses a pair
    calls = []
    s = SkewArray.from_entry_fn(4, lambda i, j: calls.append((i, j)) or 10 * i + j)
    assert calls == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert s.dense() == [[0, 1, 2, 3], [-1, 0, 12, 13], [-2, -12, 0, 23], [-3, -13, -23, 0]]
    assert SkewArray(4, {(i, j): 10 * i + j for i, j in calls}).dense() == s.dense()
    sub = s.submatrix([3, 0, 2, 2])
    assert sub.dense() == [[0, -3, -23, -23], [3, 0, 2, 2], [23, -2, 0, 0], [23, -2, 0, 0]]
    # 1*23 - 2*13 + 3*12; [3, 0, 2, 1] is an even permutation, [1, 0, 2, 3] odd
    assert pf_expand(s) == pf_eliminate(s) == pf_indices(s, [3, 0, 2, 1]) == 33
    assert pf_indices(s, [1, 0, 2, 3]) == -33


def test_entry_table_bounds_checked():
    with pytest.raises(IncompleteTableError):
        SkewArray(2, {(1, 0): 1})
    with pytest.raises(DimensionError):
        SkewArray(-2, {})


def test_routes_agree_exactly_up_to_ten():
    rng = random.Random(42)
    for size in range(0, 11, 2):
        for _ in range(6):
            s = rational_skew(rng, size)
            value = pf_eliminate(s)
            assert value == pf_expand(s)
            assert isinstance(value, Fraction) or size == 0
        for kind in ("int", "mixed", "zero-row", "rank-deficient") if size else ():
            s = exact_skew(rng, size, kind)
            assert pf_eliminate(s) == pf_expand(s), (size, kind)


def test_bordered_minors_match_per_minor_pfaffians():
    rng = random.Random(19)
    for size in range(1, 12, 2):
        for kind in ("rational", "int", "mixed", "zero-row", "rank-deficient"):
            for _ in range(3):
                s = rational_skew(rng, size) if kind == "rational" else exact_skew(rng, size, kind)
                minors = pf_bordered_minors(s)
                assert minors == per_minor(s), (size, kind)
                assert all(type(v) is Fraction for v in minors)
    assert pf_bordered_minors(SkewArray(1, {})) == [1]
    with pytest.raises(DimensionError):
        pf_bordered_minors(rational_skew(rng, 4))


def eliminated_in_binary64(s):
    """pf_eliminate's float route as it was before its loop became the
    elimination shared with pf_bordered_minors."""
    n = s.size
    m = [row[:] for row in s.rows]
    sign, result = 1, None
    for k in range(0, n, 2):
        pi, pj, best = -1, -1, 0
        for i in range(k, n):
            for j in range(i + 1, n):
                if abs(m[i][j]) > best:
                    best, pi, pj = abs(m[i][j]), i, j
        if pi < 0:
            return 0
        if pi != k:
            _swap_sym(m, k, pi, k)
            sign = -sign
        if pj != k + 1:
            _swap_sym(m, k + 1, pj, k)
            sign = -sign
        rk, rk1 = m[k], m[k + 1]
        a = rk[k + 1]
        result = a if result is None else result * a
        for i in range(k + 2, n):
            bi0, bi1 = rk[i], rk1[i]
            if bi0 == 0 and bi1 == 0:
                continue
            for j in range(i + 1, n):
                upd = (bi1 * rk[j] - bi0 * rk1[j]) / a
                if upd != 0:
                    m[i][j] += upd
    return result if sign > 0 else -result


def test_float_elimination_is_unchanged_bit_for_bit():
    rng = random.Random(23)
    for size in range(2, 17, 2):
        for kind in ("uniform", "sparse", "rank-deficient", "mixed"):
            if kind == "rank-deficient":
                exact = exact_skew(rng, size, kind)
                s = SkewArray.from_entry_fn(size, lambda i, j: float(exact.entry(i, j)))
            else:
                s = SkewArray.from_entry_fn(size, lambda i, j: (
                    0.0 if kind == "sparse" and rng.random() < 0.5 else
                    Fraction(rng.randint(-9, 9), 7) if kind == "mixed" and rng.random() < 0.3 else
                    rng.uniform(-3, 3)))
            got, ref = pf_eliminate(s), eliminated_in_binary64(s)
            assert type(got) is type(ref)
            assert (struct.pack("<d", got) == struct.pack("<d", ref) if isinstance(got, float)
                    else got == ref), (size, kind)


def test_square_equals_determinant():
    # sizes past EXPANSION_CAP included: only the determinant checks them
    rng = random.Random(7)
    for size in range(2, 21, 2):
        s = rational_skew(rng, size)
        assert pf_eliminate(s) ** 2 == dense_det(s.dense())


def test_moment_table_routes_agree():
    # entries mu_{j-i} of the rational fixed measure at N = 6: the
    # denominators grow from 30 bits at lag 1 to 270 bits at lag 9
    n = 6
    table = moment_skew_array(MomentTable.from_measure(rational_fixed_measure(n), n), range(10))
    for k in range(6):
        assert pf_eliminate(table.submatrix(range(2 * k))) == pf_expand(table.submatrix(range(2 * k)))
    assert pf_indices(table, [0, 1, 2, 3, 4, 6]) == pf_expand(table.submatrix([0, 1, 2, 3, 4, 6]))
    taus, walk = moment_taus(n)
    assert taus == walk


def test_structural_zero_on_zero_column():
    s = SkewArray(4, {(0, 1): 0, (0, 2): 0, (0, 3): 0, (1, 2): 0, (1, 3): 0, (2, 3): 0})
    v = pf_eliminate(s)
    assert v == 0 and not isinstance(v, float) or v == 0.0


def test_duplicated_index_gives_zero():
    rng = random.Random(3)
    s = rational_skew(rng, 8)
    assert pf_indices(s, [0, 1, 2, 1]) == 0


@given(st.permutations(list(range(6))))
@settings(max_examples=30, deadline=None)
def test_index_transposition_antisymmetry(perm):
    rng = random.Random(11)
    s = rational_skew(rng, 6)
    base = pf_indices(s, list(range(6)))
    sign = _perm_sign(perm)
    assert pf_indices(s, list(perm)) == sign * base


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def test_even_identity_empty_base():
    rng = random.Random(5)
    s = rational_skew(rng, 4)
    assert check_identity_even(s, [], 0, 1, 2, 3) == 0


def test_even_identity_exact_bases():
    rng = random.Random(6)
    for base_size in (2, 4):
        s = rational_skew(rng, base_size + 4)
        assert check_identity_even(s, list(range(base_size)),
                                   *range(base_size, base_size + 4)) == 0


def test_even_identity_double_scaled():
    rng = random.Random(8)
    s = SkewArray.from_entry_fn(8, lambda i, j: rng.uniform(-5, 5))
    resid = check_identity_even(s, [0, 1, 2, 3], 4, 5, 6, 7)
    scale = max(abs(pf_indices(s, [0, 1, 2, 3, a, b])) for a, b in ((4, 5), (4, 6), (4, 7)))
    assert resid <= 1e-10 * max(1.0, scale * scale)


def test_odd_identity_single_and_triple_base():
    rng = random.Random(9)
    for base_size in (1, 3):
        s = rational_skew(rng, base_size + 4)
        assert check_identity_odd(s, list(range(base_size)),
                                  *range(base_size, base_size + 4)) == 0


def test_odd_identity_duplicate_extras_both_sides_zero():
    rng = random.Random(10)
    s = rational_skew(rng, 7)
    # duplicated index among the extras: every Pfaffian in the identity vanishes
    base = [0]
    lhs = pf_indices(s, base + [1, 2, 1])  # contains a repeat
    assert lhs == 0
    assert check_identity_odd(s, base, 1, 2, 1, 3) == 0


def test_identity_base_parity_enforced():
    rng = random.Random(12)
    s = rational_skew(rng, 8)
    with pytest.raises(DimensionError):
        check_identity_even(s, [0], 1, 2, 3, 4)
    with pytest.raises(DimensionError):
        check_identity_odd(s, [0, 1], 2, 3, 4, 5)


if __name__ == "__main__":
    ok = True
    for n in (8, 12, 16):
        taus, walk = moment_taus(n)
        agree = taus == walk
        print(f"N = {n}: Pf(0..2k-1) of the moment table equals the folded walk's tau_k "
              f"for k <= {n}: {agree}", flush=True)
        ok = ok and agree
    t0 = time.perf_counter()
    mu = MomentTable.from_measure(rational_fixed_measure(8), 8)
    agree = all(bordered_minors_agree(mu, k) for k in range(17))
    print(f"bordered minors of q_0..q_16's moment tables (up to 17 indices) equal the "
          f"per-minor Pfaffians: {agree} ({time.perf_counter() - t0:.1f} s)", flush=True)
    sys.exit(0 if ok and agree else 1)
