"""Alternating-basis families, gauges, and the multiplication operator."""

import math
import random
from fractions import Fraction

import pytest

from lsopkit.errors import AdmissibilityError, DegeneracyError, RepresentationError, StructureError
from lsopkit.lsolp import (GaugeParams, butterfly_sparsity_defect, gauge_transform_scaled,
                           lsolp_from_values, multiplication_matrix)
from lsopkit.lsop import (evaluate_family, lsop_via_recurrence, random_family,
                          recurrence_from_measure, skew_pattern_defect)
from lsopkit.moments import DiscreteMeasure
from lsopkit.oracles import (MomentTable, bordered_pfaffian, gram_schmidt_lsolp, gram_schmidt_pairs,
                             moment_skew_array)
from lsopkit.numerics import dense_eigs, spectra_distance

from coefficient_oracle import lsolp_from_lsop, orthonormalize

REF = DiscreteMeasure([Fraction(2)], [Fraction(1)])


def random_gauge(rng, n):
    return GaugeParams(r=tuple(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(n)),
                       lam=tuple(rng.uniform(-2, 2) for _ in range(n)))


def test_gauge_params_validation():
    with pytest.raises(AdmissibilityError):
        GaugeParams(r=(0.0,), lam=(1.0,))
    with pytest.raises(ValueError):
        GaugeParams(r=(1.0,), lam=(1.0, 2.0))


def test_shift_construction_reference():
    rec = recurrence_from_measure(REF, 1)
    qt = orthonormalize(lsop_via_recurrence(rec, 1), rec)
    fam = lsolp_from_lsop(REF.as_float(), qt)
    # Q_0 = qt_0, Q_1 = -z^-1 qt_0 at the node z = 2 and at 1/z, <Q_0|Q_1> = 1
    for z, row in ((2.0, fam.node_values[0]), (0.5, fam.recip_values[0])):
        q0 = float(qt[0](z))
        assert row == pytest.approx((q0, -q0 / z), rel=1e-15)
    gram = fam.gram()
    assert gram[0][1] == pytest.approx(1.0)
    assert gram[0][0] == pytest.approx(0.0)


def test_odd_member_is_shifted_even():
    fv = random_family(31, 3, "double")
    m = fv.measure
    rec = fv.rec
    qt = orthonormalize(lsop_via_recurrence(rec, 3), rec)
    fam = lsolp_from_lsop(m, qt)
    points = [float(z) for z in m.nodes] + [1.0 / float(z) for z in m.nodes]
    rows = fam.node_values + fam.recip_values
    for z, row in zip(points, rows):
        for k in range(3):
            # z Q_2k+1 = -Q_2k at every node and reciprocal
            assert z * row[2 * k + 1] == pytest.approx(-row[2 * k], rel=1e-12, abs=1e-12)


def test_from_values_matches_from_polys():
    fv = random_family(32, 4, "double")
    m = fv.measure
    rec = fv.rec
    qt = orthonormalize(lsop_via_recurrence(rec, 4), rec)
    fam_v = lsolp_from_values(fv)
    fam_c = lsolp_from_lsop(m, qt)
    for r1, r2 in zip(fam_v.node_values, fam_c.node_values):
        for a, b in zip(r1, r2):
            assert a == pytest.approx(b, rel=1e-8, abs=1e-8)


def test_validation_rejects_non_orthonormal():
    fv = random_family(33, 2, "double")
    m = fv.measure
    rec = fv.rec
    qt = orthonormalize(lsop_via_recurrence(rec, 2), rec)
    qt[0] = qt[0].scale(1.5)  # break the pairing
    with pytest.raises(StructureError):
        lsolp_from_lsop(m, qt)


def test_validation_rejects_nan_values():
    fv = random_family(33, 3, "double")
    fv.p_values[1][0] = float("nan")
    with pytest.raises(StructureError, match="defect nan"):
        lsolp_from_values(fv)


def test_gram_schmidt_count_one():
    fam = gram_schmidt_lsolp(REF.as_float(), 1)
    # Q_0 is the constant sqrt(2/3) at the node and at its reciprocal
    assert fam.node_values[0][0] == pytest.approx(math.sqrt(2.0 / 3.0))
    assert fam.recip_values[0][0] == pytest.approx(math.sqrt(2.0 / 3.0))


def test_gram_schmidt_matches_shift_exact():
    # exact leading-normalized pairs against the shifted monic family
    fv = random_family(34, 2, "rational")
    m = fv.measure
    rec = fv.rec
    qs = lsop_via_recurrence(rec, 2)
    pairs = gram_schmidt_pairs(m, 4)
    for k, (p_even, p_odd, kappa) in enumerate(pairs):
        assert p_even == qs[2 * k].shift(-k)
        assert p_odd == qs[2 * k].shift(-k - 1)
        assert kappa == -rec.kappa(k)


def test_gram_schmidt_matches_shift_values():
    fv = random_family(35, 3, "double")
    m = fv.measure
    fam_gs = gram_schmidt_lsolp(m, 6)
    fam_sh = lsolp_from_values(fv)
    for r1, r2 in zip(fam_gs.node_values, fam_sh.node_values):
        for a, b in zip(r1, r2):
            assert a == pytest.approx(b, abs=1e-10)


@pytest.mark.parametrize("mode", ["double", "rational"])
def test_gram_schmidt_pairs_keep_the_shear_convention(mode):
    # projection against pairs 0..k-1 (exponents -k..k-1) leaves the even
    # member's z^k coefficient at 1 and gives the odd member no z^k term
    for seed in (1, 2, 3):
        for order in (1, 2, 3):
            m = random_family(seed, order, mode).measure
            for k, (p_even, p_odd, _) in enumerate(gram_schmidt_pairs(m, 2 * order)):
                assert p_even.coeff(k) == 1
                assert k not in p_odd.coeffs


def test_gram_schmidt_degenerate_support():
    dup = DiscreteMeasure([2.0, 2.0], [0.3, 0.4], strict=False)
    with pytest.raises(DegeneracyError):
        gram_schmidt_lsolp(dup, 4)


def test_gauge_identity():
    fam = lsolp_from_values(random_family(36, 3, "double"))
    same = gauge_transform_scaled(fam, GaugeParams.trivial(3))
    for r1, r2 in zip(fam.node_values, same.node_values):
        assert r1 == r2


def test_gauge_preserves_pairings():
    rng = random.Random(7)
    fam = lsolp_from_values(random_family(37, 4, "double"))
    for _ in range(5):
        g = random_gauge(rng, 4)
        assert skew_pattern_defect(gauge_transform_scaled(fam, g).gram()) < 1e-9


def test_multiplication_matrix_order_one():
    m = DiscreteMeasure([2.0], [1.0])
    fam = lsolp_from_values(evaluate_family(m, 1))
    mat = multiplication_matrix(fam)
    eigs = dense_eigs(mat)
    assert spectra_distance(eigs, [complex(0.5), complex(2.0)]) < 1e-12


def test_multiplication_matrix_butterfly_sparsity():
    rng = random.Random(9)
    fam = gauge_transform_scaled(lsolp_from_values(random_family(39, 5, "double")), random_gauge(rng, 5))
    mat = multiplication_matrix(fam)
    scale = max(abs(x) for row in mat for x in row)
    assert butterfly_sparsity_defect(mat) < 1e-9 * max(1.0, scale)


def test_multiplication_spectrum_gauge_invariant():
    rng = random.Random(10)
    base = lsolp_from_values(random_family(40, 4, "double"))
    reference = dense_eigs(multiplication_matrix(base))
    for _ in range(3):
        g = random_gauge(rng, 4)
        eigs = dense_eigs(multiplication_matrix(gauge_transform_scaled(base, g)))
        assert spectra_distance(eigs, reference) < 1e-8


def test_multiplication_representation_error():
    # a family that z does not stabilize on the support: truncate to half the pairs
    fv = random_family(41, 4, "double")
    m = fv.measure
    fam = lsolp_from_values(fv)
    half = type(fam)(measure=m, order=2,
                     node_values=tuple(r[:4] for r in fam.node_values),
                     recip_values=tuple(r[:4] for r in fam.recip_values))
    with pytest.raises(RepresentationError):
        multiplication_matrix(half)


def lsolp_pfaffian_member(mu_table, n: int, odd: bool):
    """Unnormalized alternating-basis member by the bordered-Pfaffian expansion.

    Even: Pf(0,-1,1,-2,2,...,-n,n,z); odd: Pf(0,-1,1,...,-n,-n-1,z).  The
    result is proportional to the corresponding shifted family member.
    """
    exps = [0] + [e for k in range(1, n + 1) for e in (-k, k)]
    if odd:
        exps[-1] = -n - 1
    return bordered_pfaffian(moment_skew_array(mu_table, exps), exps)


def test_pfaffian_members_proportional():
    fv = random_family(42, 2, "rational")
    m = fv.measure
    table = MomentTable.from_measure(m, 4)
    qs = lsop_via_recurrence(fv.rec, 2)
    for n in range(2):
        even = lsolp_pfaffian_member(table, n, odd=False)
        assert even == qs[2 * n].shift(-n).scale(even.coeff(n))
        odd = lsolp_pfaffian_member(table, n, odd=True)
        assert odd == qs[2 * n].shift(-n - 1).scale(odd.coeff(-n - 1))


def test_ungauged_multiplication_diagonal_is_alpha_difference():
    # the even rows of the ungauged operator read
    # z Q_2n = sqrt(b_{n+1}) Q_2n+2 + Q_2n+1 + (a_{n+1} - a_n) Q_2n + sqrt(b_n) Q_2n-2
    fv = random_family(43, 4, "double")
    rec = fv.rec
    fam = lsolp_from_values(fv)
    mat = multiplication_matrix(fam)
    n = 4
    for k in range(n):
        row = mat[n + k]  # even member Q_2k lives in the second block
        diff = float(rec.alpha[k + 1] - rec.alpha[k])
        assert row[n + k] == pytest.approx(diff, abs=1e-10)
        assert row[k] == pytest.approx(1.0, abs=1e-10)          # Q_2k+1 coefficient
        if k + 1 < n:
            assert row[n + k + 1] == pytest.approx(math.sqrt(float(rec.beta[k + 1])), abs=1e-10)
        if k >= 1:
            assert row[n + k - 1] == pytest.approx(math.sqrt(float(rec.beta[k])), abs=1e-10)
        odd_row = mat[k]  # z Q_2k+1 = -Q_2k
        assert odd_row[n + k] == pytest.approx(-1.0, abs=1e-10)
        for j, v in enumerate(odd_row):
            if j != n + k:
                assert v == pytest.approx(0.0, abs=1e-10)
