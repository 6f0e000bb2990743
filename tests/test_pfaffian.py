"""Pfaffian evaluation, the bordered-minor identities and the moment-table
route.

The suite checks elimination against expansion and the dense determinant
on seeded tables, the moment-table Pfaffians of the rational fixed measure
against the exact folded walk's tau_k at N = 6, the exact route
(oracles.pfaffian_route) against the per-member route its one-pass elimination
replaced, kept here (old_lsop_via_pfaffian, old_minor_taus), on rational
seeds 1-10 at orders 1-6 and on the rational fixed measure at N = 12, the
per-index (balanced) scaling of the exact route against the uniform-lcm
route it replaced, kept here too (uniform_lcm_rows), on rational seeds
1-10 at orders 1-8, on a hand-made moment dict and past a zero pivot, and
the double route against the float per-member route, kept here too
(old_float_lsop_via_pfaffian, old_float_moment_pfaffian_table), bit for bit
on double seeds 1-10 at orders 1-4 and on the fixed measure at N = 8.  The
minor identities are checked against a pf_indices per Pfaffian on 250
exact tables and, bit for bit, on 150 float ones.  The
Pfaffian comparison at N = 8, 12 and 16, the reference's bordered minors of
the moment tables of q_0..q_16 at N = 8 against a Pfaffian per minor, the
per-member comparisons at orders 7 and 8 (exact) and 5-8 (double, with the
fixed measure at N = 12 and 16), and the one-pass family against the exact
walk (q_0..q_32 at N = 16, tau and sigma at N = 8, 12 and 16), each timed,
run with

    PYTHONPATH=src python tests/test_pfaffian.py
"""

import random
import struct
import sys
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from lsopkit.errors import DegeneracyError, DimensionError, ExpansionLimitError
from lsopkit.laurent import LaurentPoly
from lsopkit.lsop import lsop_via_recurrence, random_family, recurrence_from_measure
from lsopkit.moments import DiscreteMeasure
from lsopkit.oracles import (MomentTable, _recurrence_from_minors, balanced_scaling,
                             bordered_pfaffian, moment_skew_array, pfaffian_route)
from lsopkit.numerics import dense_det
from lsopkit.pfaffian import (SkewArray, _eliminate, _swap_sym, _working_rows, minor_identity,
                              pf_eliminate, pf_expand, pf_indices, pf_leading_borders)

from test_golden_reports import _fixed_measure


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


def moment_taus(n):
    """Pf(0..2k-1) of the moment table of the rational fixed measure for
    k = 0..n, and the exact folded walk's tau_0..tau_n."""
    m = _fixed_measure(n, "rational")
    table = moment_skew_array(MomentTable.from_measure(m, n), range(2 * n))
    return ([pf_eliminate(table.submatrix(range(2 * k))) for k in range(n + 1)],
            list(recurrence_from_measure(m, n).tau))


def per_minor(s):
    """[(-1)^p Pf(s without p)], one elimination per minor."""
    return [(-1) ** p * pf_indices(s, [i for i in range(s.size) if i != p]) for p in range(s.size)]


def pf_bordered_minors(s):
    """[(-1)^p Pf(s without p) for p < n] of an odd exact table from one pivoted
    fraction-free elimination, the unit border columns carried as n extra
    columns of every row: the unpivoted index's border row, signed and divided
    by L^((n-1)/2).  The exact per-member route before the one-pass
    elimination replaced it; kept as its reference."""
    n = s.size
    if n % 2 == 0:
        raise DimensionError(f"bordered minors need odd size, got {n}")
    m, scale = _working_rows(s)
    for i, row in enumerate(m):
        row.extend(1 if j == i else 0 for j in range(n))
    sign, _ = _eliminate(m, n, scale)
    return [Fraction(sign * v, scale ** (n // 2)) for v in m[n - 1][n:]]


def old_lsop_via_pfaffian(mu, n):
    """Monic q_n of an exact moment table by its own bordered elimination: the
    per-member route that the one-pass elimination replaced."""
    exponents = list(range(2 * (n // 2))) + [n]
    minors = LaurentPoly(dict(zip(exponents, pf_bordered_minors(moment_skew_array(mu, exponents)))))
    tau_m = minors.coeff(n)
    if tau_m == 0:
        raise DegeneracyError(f"tau_{n // 2} = 0: q_{n} does not exist")
    return LaurentPoly({e: c / tau_m for e, c in minors.coeffs.items()})


def old_minor_taus(mu, n):
    """(tau_0..tau_n, sigma_0..sigma_n) of a moment table, one pf_indices each."""
    table = moment_skew_array(mu, range(2 * n + 1))
    return ([Fraction(1)] + [pf_indices(table, list(range(2 * k))) for k in range(1, n + 1)],
            [Fraction(0)] + [pf_indices(table, list(range(2 * k - 1)) + [2 * k])
                             for k in range(1, n + 1)])


def uniform_lcm_rows(mu, n):
    """(rows, L): the rows of the exact route through degree n with the whole
    moment table cleared by the lcm L of its denominators, row i holding L^m
    times the bordered minors over {0..2m-1, i}, m = i // 2, and the rows
    past a vanishing tau from a Pfaffian per minor: the exact route before
    the per-index scaling replaced it."""
    borders, scale = pf_leading_borders(moment_skew_array(mu, range(n + 1)))
    rows = [LaurentPoly(dict(enumerate(row))) for row in borders]
    for i in range(len(rows), n + 1):
        exponents = list(range(2 * (i // 2))) + [i]
        minors = bordered_pfaffian(moment_skew_array(mu, exponents), exponents)
        rows.append(minors.scale(scale ** (i // 2)))
    return rows, scale


def uniform_lcm_readings(mu, n):
    """(q_0..q_n, (tau, sigma) through n // 2) of the uniform-lcm rows, each
    member, and the minors, replaced by the DegeneracyError message where the
    route raised one."""
    rows, scale = uniform_lcm_rows(mu, n)
    members = []
    for k, row in enumerate(rows):
        tau = row.coeff(k)
        members.append(f"tau_{k // 2} = 0: q_{k} does not exist" if tau == 0 else
                       LaurentPoly({e: Fraction(c, tau) for e, c in row.coeffs.items()}))
    tau, sigma = [], []
    for k, row in enumerate(rows[::2]):
        tau.append(Fraction(row.coeff(2 * k), scale ** k))
        sigma.append(Fraction(-row.coeff(2 * k - 1), scale ** k))
        if tau[-1] == 0:
            return members, f"tau_{k} = 0: the skew orthogonal family does not exist"
    return members, (tau, sigma)


def balanced_matches_uniform(mu, n):
    """The route through degree n equals the uniform-lcm route: every q_k by
    value and coefficient type, tau and sigma by value and type, or the same
    degeneracy errors."""
    route = pfaffian_route(mu, n)
    members, minors = uniform_lcm_readings(mu, n)
    for k in range(n + 1):
        q = degeneracy_or(lambda: route.member(k))
        if q != members[k] or not isinstance(q, str) and any(
                type(c) is not Fraction for c in q.coeffs.values()):
            return False
    rec = degeneracy_or(route.recurrence_data)
    if isinstance(rec, str) or isinstance(minors, str):
        return rec == minors
    return (list(rec.tau), list(rec.sigma)) == minors and all(
        type(v) is Fraction for v in rec.tau + rec.sigma)


def old_float_lsop_via_pfaffian(mu, n):
    """Monic q_n of a float moment table from its own bordered table, one
    pivoted Pfaffian per minor: the float per-member route before
    pfaffian_route served both modes."""
    exponents = list(range(2 * (n // 2))) + [n]
    minors = LaurentPoly(dict(zip(exponents, per_minor(moment_skew_array(mu, exponents)))))
    tau_m = minors.coeff(n)
    if tau_m == 0:
        raise DegeneracyError(f"tau_{n // 2} = 0: q_{n} does not exist")
    return LaurentPoly({e: c / tau_m for e, c in minors.coeffs.items()})


def old_float_moment_pfaffian_table(mu, n):
    """Recurrence data of a float moment table, one pivoted Pfaffian per tau_k
    and per sigma_k: the float minor route before pfaffian_route served
    both modes."""
    table = moment_skew_array(mu, range(2 * n + 1))
    tau, sigma = [1.0], [0.0]
    scale = 1.0
    for k in range(1, n + 1):
        t = pf_indices(table, list(range(2 * k)))
        s = pf_indices(table, list(range(2 * k - 1)) + [2 * k])
        scale = max(scale, abs(float(t)), abs(float(s)))
        if abs(float(t)) <= 1e-8 * scale:
            raise DegeneracyError(f"tau_{k} = {float(t):.3e} below degeneracy threshold "
                                  f"(1e-08 x scale {scale:.3e})")
        tau.append(t)
        sigma.append(s)
    return _recurrence_from_minors(tau, sigma)


def same_scalars(got, ref):
    """Equal values of equal scalar types, floats bit for bit."""
    return len(got) == len(ref) and all(
        type(a) is type(b) and (struct.pack("<d", a) == struct.pack("<d", b)
                                if isinstance(a, float) else a == b)
        for a, b in zip(got, ref))


def degeneracy_or(build):
    """build(), or the message of the DegeneracyError it raises."""
    try:
        return build()
    except DegeneracyError as exc:
        return str(exc)


def double_route_matches_per_member(m, n):
    """The route of m's float moment table through degree 2n equals the float
    per-member route bit for bit: every q_k, and tau, sigma, alpha and beta,
    or the same degeneracy error."""
    mu = MomentTable.from_measure(m, n)
    route = pfaffian_route(mu, 2 * n)
    for k in range(2 * n + 1):
        q, ref = route.member(k).to_pairs(), old_float_lsop_via_pfaffian(mu, k).to_pairs()
        if not same_scalars([x for pair in q for x in pair], [x for pair in ref for x in pair]):
            return False
    rec = degeneracy_or(route.recurrence_data)
    ref = degeneracy_or(lambda: old_float_moment_pfaffian_table(mu, n))
    if isinstance(rec, str) or isinstance(ref, str):
        return rec == ref
    return all(same_scalars(getattr(rec, f), getattr(ref, f))
               for f in ("tau", "sigma", "alpha", "beta"))


def one_pass_matches_per_member(m, n):
    """The one-pass route through degree 2n equals the per-member route: every
    q_k by value and coefficient type, every tau_k and sigma_k by value."""
    mu = MomentTable.from_measure(m, n)
    route = pfaffian_route(mu, 2 * n)
    rec = route.recurrence_data()
    taus, sigmas = old_minor_taus(mu, n)
    for k in range(2 * n + 1):
        q, ref = route.member(k), old_lsop_via_pfaffian(mu, k)
        if q != ref or any(type(c) is not Fraction for c in q.coeffs.values()):
            return False
    return list(rec.tau) == taus and list(rec.sigma) == sigmas


def bordered_minors_agree(mu, k):
    """The reference's one pivoted elimination against a Pfaffian per minor on
    the table that pfaffian_route borders for q_k."""
    exponents = list(range(2 * (k // 2))) + [k]
    table = moment_skew_array(mu, exponents)
    return pf_bordered_minors(table) == per_minor(table)


def walk_agrees_with_one_pass(n, members):
    """tau and sigma of the one-pass route of the rational fixed measure at
    order n against the exact walk's, and with members, q_0..q_2n against
    lsop_via_recurrence of the walk."""
    m = _fixed_measure(n, "rational")
    route = pfaffian_route(MomentTable.from_measure(m, n), 2 * n)
    rec = recurrence_from_measure(m, n)
    got = route.recurrence_data()
    ok = got.tau == rec.tau and got.sigma == rec.sigma
    if members:
        qs = lsop_via_recurrence(rec, n)
        ok = ok and all(route.member(k) == qs[k] for k in range(2 * n + 1))
    return ok


def test_empty_array_is_one():
    s = SkewArray([])
    assert pf_expand(s) == 1
    assert pf_eliminate(s) == 1


def test_size_two_is_the_single_entry():
    s = SkewArray([[0, Fraction(7, 3)], [0, 0]])
    assert pf_expand(s) == Fraction(7, 3)
    assert pf_eliminate(s) == Fraction(7, 3)


def test_size_four_worked_value():
    # entries 01:1 02:2 03:3 12:4 13:5 23:6 -> 1*6 - 2*5 + 3*4 = 8
    s = SkewArray([[0, 1, 2, 3], [0, 0, 4, 5], [0, 0, 0, 6], [0, 0, 0, 0]])
    assert pf_expand(s) == 8
    assert pf_eliminate(s) == 8


def test_odd_size_rejected():
    s = SkewArray.from_entry_fn(3, lambda i, j: 1)
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


@pytest.mark.parametrize("bad", [4, -1])
def test_index_outside_table_refused(bad):
    # a negative index must not wrap around to the last row
    s = SkewArray.from_entry_fn(4, lambda i, j: 10 * i + j)
    with pytest.raises(DimensionError, match="outside a table"):
        s.entry(bad, 0)
    with pytest.raises(DimensionError, match="outside a table"):
        s.entry(1, bad)
    with pytest.raises(DimensionError, match="outside a table"):
        s.entry(bad, bad)
    with pytest.raises(DimensionError, match="outside a table"):
        s.submatrix([0, bad])
    with pytest.raises(DimensionError, match="outside a table"):
        pf_indices(s, [2, bad])
    with pytest.raises(DimensionError, match="outside a table"):
        pf_indices(s, [bad, bad])


def test_rows_hold_the_upper_triangle():
    # from_entry_fn calls fn row by row over i < j; submatrix flips the sign
    # where the index order reverses a pair
    calls = []
    s = SkewArray.from_entry_fn(4, lambda i, j: calls.append((i, j)) or 10 * i + j)
    assert calls == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert s.dense() == [[0, 1, 2, 3], [-1, 0, 12, 13], [-2, -12, 0, 23], [-3, -13, -23, 0]]
    assert s.rows == [[0, 1, 2, 3], [0, 0, 12, 13], [0, 0, 0, 23], [0, 0, 0, 0]]
    assert SkewArray(s.rows).dense() == s.dense()
    sub = s.submatrix([3, 0, 2, 2])
    assert sub.dense() == [[0, -3, -23, -23], [3, 0, 2, 2], [23, -2, 0, 0], [23, -2, 0, 0]]
    # 1*23 - 2*13 + 3*12; [3, 0, 2, 1] is an even permutation, [1, 0, 2, 3] odd
    assert pf_expand(s) == pf_eliminate(s) == pf_indices(s, [3, 0, 2, 1]) == 33
    assert pf_indices(s, [1, 0, 2, 3]) == -33


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
    assert pf_bordered_minors(SkewArray([[0]])) == [1]
    with pytest.raises(DimensionError):
        pf_bordered_minors(rational_skew(rng, 4))


def test_leading_borders_match_per_minor_pfaffians():
    # row i holds L^m times the bordered minors over {0..2m-1, i}, m = i // 2;
    # a vanishing Pf(0..2m-1) ends the rows after 2m + 1
    rng = random.Random(29)
    for size in range(0, 13):
        for kind in ("rational", "int", "mixed", "zero-row", "rank-deficient"):
            if size == 0 and kind != "rational":
                continue
            s = rational_skew(rng, size) if kind == "rational" else exact_skew(rng, size, kind)
            rows, scale = pf_leading_borders(s)
            assert scale == _working_rows(s)[1]
            first_zero = next((m for m in range(1, size // 2 + 1)
                               if pf_indices(s, list(range(2 * m))) == 0), None)
            assert len(rows) == (size if first_zero is None else min(size, 2 * first_zero + 2))
            for i, row in enumerate(rows):
                m = i // 2
                positions = list(range(2 * m)) + [i]
                expect = [0] * size
                for c, v in zip(positions, per_minor(s.submatrix(positions))):
                    expect[c] = v * scale ** m
                assert row == expect and all(type(v) is int for v in row), (size, kind, i)
    with pytest.raises(TypeError):
        pf_leading_borders(SkewArray.from_entry_fn(3, lambda i, j: 0.5))


# orders 7 and 8 take about 50 s against the per-member reference; script mode runs them
@pytest.mark.parametrize("n", range(1, 7))
def test_one_pass_route_matches_per_member_route(n):
    for seed in range(1, 11):
        m = random_family(seed, n, "rational").measure
        assert one_pass_matches_per_member(m, n), seed
        # a route through degree n, over its own scale L, reads the same members and minors
        mu = MomentTable.from_measure(m, n)
        route, short = pfaffian_route(mu, 2 * n), pfaffian_route(mu, n)
        assert all(short.member(k) == route.member(k) for k in range(n + 1))
        rec, short_rec = route.recurrence_data(), short.recurrence_data()
        assert (short_rec.tau, short_rec.sigma) == (rec.tau[:n // 2 + 1], rec.sigma[:n // 2 + 1])


def test_one_pass_route_on_the_fixed_measure():
    assert one_pass_matches_per_member(_fixed_measure(12, "rational"), 12)


def test_zero_pivot_raises_where_the_per_member_route_did():
    # mu_1 = 0, so tau_1 = 0 while tau_2 does not vanish: the one-pass rows stop
    # after q_3, and the route reaches q_4 by a Pfaffian per minor
    m = DiscreteMeasure([2, 3], [1, Fraction(-9, 16)], strict=False)
    mu = MomentTable.from_measure(m, 2)
    route = pfaffian_route(mu, 4)
    assert len(pf_leading_borders(moment_skew_array(mu, range(5)))[0]) == 4
    assert len(route.rows) == 5
    for k in range(5):
        if k in (2, 3):
            for member in (route.member, lambda k: pfaffian_route(mu, k).member(k),
                           lambda k: old_lsop_via_pfaffian(mu, k)):
                with pytest.raises(DegeneracyError, match=fr"^tau_1 = 0: q_{k} does not exist$"):
                    member(k)
        else:
            assert (route.member(k) == pfaffian_route(mu, k).member(k)
                    == old_lsop_via_pfaffian(mu, k))
    assert old_minor_taus(mu, 2)[0][2] != 0
    with pytest.raises(DegeneracyError,
                       match="^tau_1 = 0: the skew orthogonal family does not exist$"):
        route.recurrence_data()


@pytest.mark.parametrize("n", range(1, 9))
def test_balanced_route_matches_the_uniform_lcm_route(n):
    for seed in range(1, 11):
        mu = MomentTable.from_measure(random_family(seed, n, "rational").measure, n)
        assert balanced_matches_uniform(mu, 2 * n), seed


def test_balanced_route_on_a_hand_made_moment_dict():
    # lag denominators 14, 1, 33, 225, 13, 384, 1, 1309, 1001, 92 share no
    # W * P^l pattern; ints sit among them
    lags = [Fraction(3, 14), 2, Fraction(-5, 33), Fraction(7, 225), Fraction(-1, 13),
            Fraction(11, 384), -4, Fraction(9, 1309), Fraction(2, 1001), Fraction(-15, 92)]
    mu = {0: 0}
    for k, v in enumerate(lags, 1):
        mu[k], mu[-k] = v, -v
    table = MomentTable(mu=mu, c={}, order=len(lags) // 2)
    for n in range(len(lags) + 1):
        d = balanced_scaling(table, n)
        assert all(type(x) is int and x > 0 for x in d) and d[n // 2] == 1
        assert all((d[i] * d[j] * mu[j - i]).denominator == 1
                   for i in range(n + 1) for j in range(i + 1, n + 1)), n
        assert balanced_matches_uniform(table, n), n


def test_balanced_route_matches_uniform_past_a_zero_pivot():
    # tau_1 = 0 while tau_2 does not vanish: rows 4 on come from a Pfaffian per minor
    m = DiscreteMeasure([2, 3], [1, Fraction(-9, 16)], strict=False)
    mu = MomentTable.from_measure(m, 2)
    assert all(balanced_matches_uniform(mu, n) for n in range(5))


def test_balanced_route_halves_the_bits_on_the_fixed_measure():
    # the z^16 coefficient of row 16 is tau_8 times prod d_s (2961 bits),
    # against L^8 tau_8 (5843 bits) under one lcm
    n = 8
    mu = MomentTable.from_measure(_fixed_measure(n, "rational"), n)
    assert balanced_matches_uniform(mu, 2 * n)
    balanced = pfaffian_route(mu, 2 * n).rows[2 * n].coeff(2 * n)
    uniform = uniform_lcm_rows(mu, 2 * n)[0][2 * n].coeff(2 * n)
    assert type(balanced) is int and 2 * balanced.bit_length() < 1.05 * uniform.bit_length()


def test_double_route_is_the_float_per_member_route():
    for n in range(1, 5):
        for seed in range(1, 11):
            assert double_route_matches_per_member(random_family(seed, n).measure, n), (seed, n)
    assert double_route_matches_per_member(_fixed_measure(8), 8)


def expanded_over_fractions(s):
    """pf_expand as it was before exact tables were expanded over integers."""
    entry = s.entry

    @lru_cache(maxsize=None)
    def rec(indices):
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

    return rec(tuple(range(s.size)))


def test_integer_expansion_matches_the_fraction_recursion():
    rng = random.Random(31)
    assert type(pf_expand(SkewArray([]))) is int
    for size in range(0, 11, 2):
        for kind in ("rational", "int", "mixed", "zero-row", "rank-deficient"):
            if size == 0 and kind != "rational":
                continue
            s = rational_skew(rng, size) if kind == "rational" else exact_skew(rng, size, kind)
            got, ref = pf_expand(s), expanded_over_fractions(s)
            assert got == ref and type(got) is type(ref), (size, kind)


def test_float_expansion_is_unchanged_bit_for_bit():
    rng = random.Random(37)
    for size in range(2, 11, 2):
        for kind in ("uniform", "sparse", "mixed"):
            s = SkewArray.from_entry_fn(size, lambda i, j: (
                0.0 if kind == "sparse" and rng.random() < 0.5 else
                Fraction(rng.randint(-9, 9), 7) if kind == "mixed" and rng.random() < 0.3 else
                rng.uniform(-3, 3)))
            got, ref = pf_expand(s), expanded_over_fractions(s)
            assert type(got) is type(ref)
            assert (struct.pack("<d", got) == struct.pack("<d", ref) if isinstance(got, float)
                    else got == ref), (size, kind)


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
    table = moment_skew_array(MomentTable.from_measure(_fixed_measure(n, "rational"), n), range(10))
    for k in range(6):
        assert pf_eliminate(table.submatrix(range(2 * k))) == pf_expand(table.submatrix(range(2 * k)))
    assert pf_indices(table, [0, 1, 2, 3, 4, 6]) == pf_expand(table.submatrix([0, 1, 2, 3, 4, 6]))
    taus, walk = moment_taus(n)
    assert taus == walk


def test_structural_zero_on_zero_column():
    s = SkewArray([[0] * 4 for _ in range(4)])
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
    assert minor_identity(s, [], (0, 1, 2, 3), "even")[0] == 0


def test_even_identity_exact_bases():
    rng = random.Random(6)
    for base_size in (2, 4):
        s = rational_skew(rng, base_size + 4)
        assert minor_identity(s, list(range(base_size)),
                              range(base_size, base_size + 4), "even")[0] == 0


def test_even_identity_double_scaled():
    rng = random.Random(8)
    s = SkewArray.from_entry_fn(8, lambda i, j: rng.uniform(-5, 5))
    resid = minor_identity(s, [0, 1, 2, 3], (4, 5, 6, 7), "even")[0]
    scale = max(abs(pf_indices(s, [0, 1, 2, 3, a, b])) for a, b in ((4, 5), (4, 6), (4, 7)))
    assert resid <= 1e-10 * max(1.0, scale * scale)


def test_odd_identity_single_and_triple_base():
    rng = random.Random(9)
    for base_size in (1, 3):
        s = rational_skew(rng, base_size + 4)
        assert minor_identity(s, list(range(base_size)),
                              range(base_size, base_size + 4), "odd")[0] == 0


def test_odd_identity_duplicate_extras_both_sides_zero():
    rng = random.Random(10)
    s = rational_skew(rng, 7)
    # duplicated index among the extras: every Pfaffian in the identity vanishes
    base = [0]
    lhs = pf_indices(s, base + [1, 2, 1])  # contains a repeat
    assert lhs == 0
    assert minor_identity(s, base, (1, 2, 1, 3), "odd")[0] == 0


def test_identity_base_parity_enforced():
    rng = random.Random(12)
    s = rational_skew(rng, 8)
    with pytest.raises(DimensionError):
        minor_identity(s, [0], (1, 2, 3, 4), "even")
    with pytest.raises(DimensionError):
        minor_identity(s, [0, 1], (2, 3, 4, 5), "odd")


@pytest.mark.parametrize("parity", ["Even", "ODD", "", "both"])
def test_identity_parity_name_checked(parity):
    s = rational_skew(random.Random(13), 8)
    with pytest.raises(ValueError, match="'even' or 'odd'"):
        minor_identity(s, [0, 1], (2, 3, 4, 5), parity)


@pytest.mark.parametrize("extra", [(), (2, 3, 4), (2, 3, 4, 5, 6)])
def test_identity_needs_four_extra_indices(extra):
    s = rational_skew(random.Random(14), 8)
    for base, parity in (([0, 1], "even"), ([0], "odd")):
        with pytest.raises(DimensionError, match="four extra indices"):
            minor_identity(s, base, extra, parity)


def per_minor_identity(s, base, extra, parity):
    """(|LHS - RHS|, the three right-hand products) of a minor identity as
    minor_identity's docstring writes it, one pf_indices per Pfaffian."""
    a, b, c, d = extra
    pf = lambda *idx: pf_indices(s, list(base) + list(idx))
    if parity == "even":
        lhs = pf(a, b, c, d) * pf()
        products = (pf(a, b) * pf(c, d), pf(a, c) * pf(b, d), pf(a, d) * pf(b, c))
    else:
        lhs = pf(a, b, c) * pf(d)
        products = (pf(a, b, d) * pf(c), pf(a, c, d) * pf(b), pf(b, c, d) * pf(a))
    return abs(lhs - (products[0] - products[1] + products[2])), products


def identity_cases(rng, trials, table):
    """Seeded (s, base, extra, parity): base sizes 0-4 in turn, the base and
    the extras drawn from a table up to two indices larger; every fifth case
    repeats an extra index, and every seventh puts a base index among the
    extras."""
    for trial in range(trials):
        base_size = trial % 5
        size = base_size + 4 + rng.randint(0, 2)
        s = table(trial, size)
        picked = rng.sample(range(size), base_size + 4)
        base, extra = picked[:base_size], picked[base_size:]
        if trial % 5 == 3:
            i, j = rng.sample(range(4), 2)
            extra[j] = extra[i]
        if trial % 7 == 6 and base:
            extra[rng.randrange(4)] = rng.choice(base)
        yield s, base, extra, "odd" if base_size % 2 else "even"


def test_exact_minor_identity_equals_a_pfaffian_per_minor():
    rng = random.Random(41)
    kinds = ("rational", "int", "mixed", "zero-row", "rank-deficient")

    def table(trial, size):
        kind = kinds[trial // 5 % len(kinds)]
        return rational_skew(rng, size) if kind == "rational" else exact_skew(rng, size, kind)

    nonzero = 0
    for s, base, extra, parity in identity_cases(rng, 250, table):
        resid, products = minor_identity(s, base, extra, parity)
        ref_resid, ref_products = per_minor_identity(s, base, extra, parity)
        assert resid == ref_resid == 0 and products == ref_products, (s.rows, base, extra)
        nonzero += any(products)
    assert nonzero > 150


def test_float_minor_identity_is_unchanged_bit_for_bit():
    rng = random.Random(43)

    def table(trial, size):
        return SkewArray.from_entry_fn(size, lambda i, j: (
            0.0 if trial % 3 == 1 and rng.random() < 0.4 else
            Fraction(rng.randint(-9, 9), 7) if trial % 3 == 2 and rng.random() < 0.5 else
            rng.uniform(-3, 3)))

    for s, base, extra, parity in identity_cases(rng, 150, table):
        resid, products = minor_identity(s, base, extra, parity)
        ref_resid, ref_products = per_minor_identity(s, base, extra, parity)
        assert same_scalars([resid, *products], [ref_resid, *ref_products]), (base, extra)


if __name__ == "__main__":
    ok = True
    for n in (8, 12, 16):
        taus, walk = moment_taus(n)
        agree = taus == walk
        print(f"N = {n}: Pf(0..2k-1) of the moment table equals the folded walk's tau_k "
              f"for k <= {n}: {agree}", flush=True)
        ok = ok and agree
    t0 = time.perf_counter()
    mu = MomentTable.from_measure(_fixed_measure(8, "rational"), 8)
    agree = all(bordered_minors_agree(mu, k) for k in range(17))
    print(f"the reference's bordered minors of q_0..q_16's moment tables (up to 17 indices) "
          f"equal the per-minor Pfaffians: {agree} ({time.perf_counter() - t0:.1f} s)", flush=True)
    ok = ok and agree
    t0 = time.perf_counter()
    agree = all(one_pass_matches_per_member(random_family(seed, n, "rational").measure, n)
                for n in (7, 8) for seed in range(1, 11))
    print(f"the one-pass route equals the per-member route on rational seeds 1-10 at orders 7 "
          f"and 8: {agree} ({time.perf_counter() - t0:.1f} s)", flush=True)
    ok = ok and agree
    t0 = time.perf_counter()
    agree = all(double_route_matches_per_member(random_family(seed, n).measure, n)
                for n in (5, 6, 7, 8) for seed in range(1, 11))
    agree = agree and all(double_route_matches_per_member(_fixed_measure(n), n)
                          for n in (12, 16))
    print(f"the double route equals the float per-member route bit for bit on double seeds "
          f"1-10 at orders 5-8 and on the fixed measure at N = 12 and 16: {agree} "
          f"({time.perf_counter() - t0:.1f} s)", flush=True)
    ok = ok and agree
    for n in (8, 12, 16):
        t0 = time.perf_counter()
        agree = walk_agrees_with_one_pass(n, members=n == 16)
        what = "q_0..q_32, tau and sigma" if n == 16 else "tau and sigma"
        print(f"N = {n}: the one-pass Pfaffian route's {what} equal the exact walk's: "
              f"{agree} ({time.perf_counter() - t0:.1f} s)", flush=True)
        ok = ok and agree
    sys.exit(0 if ok else 1)
