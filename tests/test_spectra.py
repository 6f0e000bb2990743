"""Pencils, butterfly matrices, tridiagonal reductions, spectral folding.

Run as a script, the module sends all 320 tridiagonals of the eigensolve
benchmark's inputs (perfbench.inputs.eigen_inputs, seeds 1-10, seeded and
fixed) through both pencil routes: it fails on any ConvergenceError of dense
QR on the transfer matrix, and on any folded pencil_eigenvalues spectrum
farther than FOLD_BOUND from the unfolded QL spectrum of T (about 10 s):

    PYTHONPATH=src:. python tests/test_spectra.py
"""

import math
import pathlib
import random
import sys

import pytest

from lsopkit import spectra
from lsopkit.errors import AdmissibilityError, ConvergenceError, StructureError
from lsopkit.lsolp import GaugeParams, gauge_transform_scaled, lsolp_from_values, multiplication_matrix
from lsopkit.lsop import RecurrenceData, evaluate_family, random_family, recurrence_from_measure
from lsopkit.moments import DiscreteMeasure
from lsopkit.numerics import (SymTridiag, dense_eigs, inf_norm, mat_mul, mat_sub, spectra_distance,
                              sym_tridiag_eigs)
from lsopkit.spectra import (CONVENTION_DIFFERENCE, CONVENTION_PLAIN, ButterflyParams,
                             build_butterfly, build_pencil, build_tridiagonal,
                             butterfly_from_params, butterfly_params, butterfly_to_tridiagonal,
                             canonical_z_list, determine_diagonal_convention, eig_correspondence,
                             gauge_similarity_defect, inversion_closure_defect, pencil_eigenvalues,
                             pencil_from_recurrence, pencil_residual, pencil_symplecticity,
                             symplectic_pencil_check, transfer_matrix)

from test_golden_reports import _fixed_measure

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.inputs import CONST_TRIDIAGONALS, constant_tridiagonal, eigen_inputs  # noqa: E402

REF = DiscreteMeasure([2.0], [1.0])
# Largest distance from the folded pencil spectrum to the unfolded QL
# spectrum of T that the script accepts over all 320 inputs; measured worst
# 1.8e-14 (seeds 1-10, fixed T included), where dense QR on the transfer
# matrix misses the fixed T (5, 1) by up to 0.33
FOLD_BOUND = 1e-13


def support_spectrum(m):
    out = []
    for z in m.nodes:
        out.extend([complex(float(z)), complex(1.0 / float(z))])
    return sorted(out, key=lambda c: (c.real, c.imag))


def random_gauge(rng, n):
    return GaugeParams(r=tuple(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(n)),
                       lam=tuple(rng.uniform(-2, 2) for _ in range(n)))


# -- pencils ----------------------------------------------------------------

def test_pencil_order_one_blocks():
    rec = recurrence_from_measure(REF, 1)
    p = build_pencil(rec)
    assert p.u == [[0.0, 1.0], [-1.0, 0.0]]
    assert p.v == [[1.0, 0.0], [2.5, 1.0]]


def test_pencil_f_block_structure():
    rec = random_family(50, 4, "double").rec
    p = build_pencil(rec)
    # V top-left block is F: unit diagonal, subdiagonal -sqrt(beta)
    for k in range(4):
        assert p.v[k][k] == 1.0
    for k in range(1, 4):
        assert p.v[k][k - 1] == pytest.approx(-math.sqrt(rec.beta[k]))
    # U top-left block is H with H[0][0] = 0
    assert p.u[0][0] == 0.0


def test_pencil_residuals_and_rederivation():
    fv = random_family(51, 3, "double")
    m = fv.measure
    rep = pencil_residual(fv)
    assert rep.recurrence.support_residual <= 1e-10
    assert rep.textbook.support_residual > 1.0  # textbook layout: different convention
    assert rep.entry_difference > 0.0
    # the rederived pencil holds at reciprocal points too
    order_map = [1, 3, 5, 0, 2, 4]
    for k, z in enumerate(m.nodes):
        vec = [fv.qt_recip[k][j] for j in order_map]
        u_v = [sum(rep.recurrence.pencil.u[r][c] * vec[c] for c in range(6)) for r in range(6)]
        v_v = [sum(rep.recurrence.pencil.v[r][c] * vec[c] for c in range(6)) for r in range(6)]
        for a, b in zip(u_v, v_v):
            assert a == pytest.approx(b / z, rel=1e-8, abs=1e-10)


def test_pencil_order_one_scalar_identity():
    fv = evaluate_family(REF, 1)
    rep = pencil_residual(fv)
    # v = (qt_1(z), qt_0(z)) satisfies the rederived rows at z = 2
    u, v = rep.recurrence.pencil.u, rep.recurrence.pencil.v
    vec = [fv.qt_node[0][1], fv.qt_node[0][0]]
    for r in range(2):
        lhs = u[r][0] * vec[0] + u[r][1] * vec[1]
        rhs = 2.0 * (v[r][0] * vec[0] + v[r][1] * vec[1])
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_symplecticity_both_layouts():
    rec = random_family(52, 4, "double").rec
    for pencil in (build_pencil(rec), pencil_from_recurrence(rec)):
        pres, tres = symplectic_pencil_check(pencil)
        scale = inf_norm(pencil.u) * inf_norm(pencil.v)
        assert pres <= 1e-10 * max(1.0, scale)
        assert tres <= 1e-8 * max(1.0, scale)


def test_symplecticity_negative_control():
    rec = random_family(53, 3, "double").rec
    p = build_pencil(rec)
    p.u[0][1] += 0.5
    pres, _ = symplectic_pencil_check(p)
    assert pres > 0.1


@pytest.mark.parametrize("block", [1, 2])
def test_structural_pencil_symplecticity_equals_dense_products(monkeypatch, block):
    # pencil_residual reads U J U^T - V J V^T off the G (block 1) and H
    # (block 2) blocks; the dense products of both layouts agree with it
    fv = random_family(52, 4, "double")
    f, g, h = spectra._pencil_blocks(fv.rec)
    rep = pencil_residual(fv)
    for lay in (rep.textbook, rep.recurrence):
        assert lay.pencil_symplecticity == symplectic_pencil_check(lay.pencil)[0] == 0.0
    blocks = [f, g, h]
    blocks[block][2][1] += 1e-3
    monkeypatch.setattr(spectra, "_pencil_blocks", lambda rec: blocks)
    rep = pencil_residual(fv)
    assert pencil_symplecticity(g, h) == 1e-3
    for lay in (rep.textbook, rep.recurrence):
        assert lay.pencil_symplecticity == 1e-3
        assert symplectic_pencil_check(lay.pencil)[0] == pytest.approx(1e-3, rel=1e-12)


def test_generalized_eigenvalues_match_support():
    fv = random_family(54, 5, "double")
    m = fv.measure
    rec = fv.rec
    pencil = pencil_from_recurrence(rec)
    assert spectra_distance(pencil_eigenvalues(pencil), support_spectrum(m)) < 1e-8


def tridiagonal_recurrence(diag, off):
    """Recurrence whose tridiagonal T has the given entries; the pencil reads
    alpha (partial sums of the diagonal) and beta only."""
    alpha = [0.0]
    for gamma in diag:
        alpha.append(alpha[-1] + gamma)
    return RecurrenceData(order=len(diag), alpha=tuple(alpha),
                          beta=tuple([0.0] + [e * e for e in off] + [0.0]),
                          tau=(1.0,) * (len(diag) + 1), sigma=tuple(alpha))


def unfolded_ql(diag, off):
    return canonical_z_list(eig_correspondence(sym_tridiag_eigs(SymTridiag(diag, off))))


def transfer_qr_mismatch(diag, off):
    """Distance from dense QR on the pencil's transfer matrix to the
    unfolded QL spectrum of T."""
    eigs = dense_eigs(transfer_matrix(pencil_from_recurrence(tridiagonal_recurrence(diag, off))))
    return spectra_distance(eigs, unfolded_ql(diag, off))


def fold_mismatch(diag, off):
    """Distance from pencil_eigenvalues to the unfolded QL spectrum of T."""
    eigs = pencil_eigenvalues(pencil_from_recurrence(tridiagonal_recurrence(diag, off)))
    return spectra_distance(eigs, unfolded_ql(diag, off))


@pytest.mark.parametrize("n", [16, 24, 32])
def test_pencil_eigenvalues_fold_fixed_tridiagonal(n):
    # dense QR on V^-1 U misses this T (5, 1) by 1.6e-4, 0.19 and 0.33
    tri = constant_tridiagonal(n, *CONST_TRIDIAGONALS[0])
    assert fold_mismatch(tri["diag"], tri["off"]) <= 1e-13


@pytest.mark.parametrize("n", [8, 16])
def test_pencil_eigenvalues_agree_with_dense_transfer(n):
    cases = [c for c in eigen_inputs(1) if c["order"] == n and not c["fixed"]]
    assert len(cases) == 6
    for c in cases:
        p = pencil_from_recurrence(tridiagonal_recurrence(c["tri"]["diag"], c["tri"]["off"]))
        assert spectra_distance(pencil_eigenvalues(p), dense_eigs(transfer_matrix(p))) <= 1e-10


# (block, row, column) of one entry that breaks the recurrence layout at
# N = 4, U = [[I, -H], [O, -F^T]], V = [[O, F], [I, -G]]: an identity or zero
# block, H or G off its diagonal, F off its two diagonals or off unit
# diagonal, and U's bottom-right block away from -F^T
OFF_PATTERN = [("u", 0, 1), ("v", 4, 0), ("u", 5, 2), ("v", 2, 0), ("u", 1, 6), ("v", 5, 4),
               ("v", 0, 5), ("v", 3, 4), ("v", 1, 5), ("u", 5, 4), ("u", 4, 5)]


@pytest.mark.parametrize("block, i, j", OFF_PATTERN)
def test_pencil_eigenvalues_refuse_off_pattern_entry(block, i, j):
    p = pencil_from_recurrence(tridiagonal_recurrence([5.0] * 4, [1.0] * 3))
    getattr(p, block)[i][j] += 0.25
    with pytest.raises(StructureError, match=r"dense_eigs\(transfer_matrix\(p\)\)"):
        pencil_eigenvalues(p)


def test_pencil_eigenvalues_refuse_textbook_layout():
    rec = tridiagonal_recurrence([5.0] * 4, [1.0] * 3)
    with pytest.raises(StructureError):
        pencil_eigenvalues(build_pencil(rec))


def test_dense_eigs_transfer_after_slow_deflation():
    # a seeded N = 16 tridiagonal whose transfer matrix takes more than 30
    # Francis sweeps to deflate one eigenvalue
    diag = [5.0084734282604355, 0.16180907983213388, 0.25301725495030003, -4.00388218894364,
            -0.025960624557502365, 6.52254043957153, 5.220674310876781, 5.937081428702749,
            0.48121796647977644, 4.9612370202475375, -4.934245851975561, -0.5870714846263043,
            6.19853709918705, 0.8048639746300452, -4.721054314676751, 5.571267643868795]
    off = [0.16557658647288792, 0.28945518144051763, 0.3546177915459511, 0.13001684031455796,
           0.30797609268131276, 0.3152087648568529, 0.37081485147492144, 0.36022267834565946,
           0.14758940559281042, 0.2685031471345136, 0.17503378024154198, 0.39420314583113725,
           0.3068096843754784, 0.14105217095604483, 0.1700969239698219]
    assert transfer_qr_mismatch(diag, off) < 1e-10


def test_dense_eigs_transfer_past_sixty_stalled_sweeps():
    # perfbench.inputs.eigen_inputs(6)[15], N = 16: one eigenvalue stalls for
    # more than 60 Francis sweeps; 74 sweeps in all, within 30 * max(10, N)
    diag = [-5.5286229030193965, -6.29792200049898, -6.980105475733437, -5.784453096477428,
            -5.29862482100017, 3.508731897199854, -6.314626245844714, -0.7149392967087689,
            -3.698760856306105, -0.21427403868870742, -3.8442462915649545, -6.061001579296748,
            -6.685529330830876, -6.465560084380855, 4.8890091485403175, 4.25858308805638]
    off = [0.24944010117108892, 0.30228596919462963, 0.2970705360595378, 0.341324107300807,
           0.19257047263075316, 0.24916972838274123, 0.2977254782013369, 0.10711640575489684,
           0.3232593993310007, 0.37700781182636356, 0.3620415409595037, 0.146551487435789,
           0.33301715664106857, 0.253598399552351, 0.25516468221064403]
    assert transfer_qr_mismatch(diag, off) < 1e-8


def test_pencil_eigenvalues_refuse_non_finite_pencil():
    # before the elimination: its pivot search skips a NaN, and 1 / inf = 0
    # would give finite eigenvalues for a V holding an inf
    for block, (i, j) in (("u", (1, 2)), ("v", (5, 1))):
        for bad in (float("nan"), float("inf"), -float("inf")):
            p = pencil_from_recurrence(tridiagonal_recurrence([5.0] * 4, [1.0] * 3))
            getattr(p, block)[i][j] = bad
            with pytest.raises(ValueError, match="pencil entries must be finite"):
                pencil_eigenvalues(p)


def test_transfer_matrix_solves_pencil():
    rec = random_family(55, 3, "double").rec
    p = pencil_from_recurrence(rec)
    s = transfer_matrix(p)
    from lsopkit.numerics import mat_mul

    vs = mat_mul(p.v, s)
    for i in range(6):
        for j in range(6):
            assert vs[i][j] == pytest.approx(p.u[i][j], rel=1e-10, abs=1e-10)


# -- tridiagonal reduction ---------------------------------------------------

def test_tridiagonal_order_one():
    rec = recurrence_from_measure(REF, 1)
    t = build_tridiagonal(rec)
    assert t.diag == (2.5,)
    assert sym_tridiag_eigs(t) == [2.5]


def test_tridiagonal_spectrum_matches_nodes():
    fv = random_family(56, 7, "double")
    m = fv.measure
    rec = fv.rec
    lam = sym_tridiag_eigs(build_tridiagonal(rec))
    target = sorted(float(z) + 1.0 / float(z) for z in m.nodes)
    assert max(abs(a - b) for a, b in zip(lam, target)) < 1e-8


def test_tridiagonal_offdiagonal_positive():
    t = build_tridiagonal(random_family(57, 5, "double").rec)
    assert all(x > 0 for x in t.offdiag)


def test_tridiagonal_rejects_negative_beta():
    rec = recurrence_from_measure(REF, 1)
    bad = type(rec)(order=1, alpha=rec.alpha, beta=(0.0, -1.0),
                    tau=rec.tau, sigma=rec.sigma)
    # beta_order is conventionally 0 and ignored; an interior negative must raise
    rec2 = random_family(58, 2, "double").rec
    bad2 = type(rec2)(order=2, alpha=rec2.alpha, beta=(0.0, -rec2.beta[1], 0.0),
                      tau=rec2.tau, sigma=rec2.sigma)
    with pytest.raises(AdmissibilityError):
        build_tridiagonal(bad2)


# -- butterfly --------------------------------------------------------------

def test_butterfly_trivial_gauge_blocks():
    rec = random_family(59, 4, "double").rec
    bt = build_butterfly(rec, GaugeParams.trivial(4))
    for i in range(4):
        for j in range(4):
            assert bt[i][j] == 0.0                       # shear block vanishes
            assert bt[4 + i][j] == (1.0 if i == j else 0.0)  # scaling block is I
    for i in range(4):
        assert bt[i][4 + i] == pytest.approx(-1.0)       # top-right diagonal r^2(...) = -1


def test_butterfly_params_trivial_gauge_both_conventions():
    rec = random_family(60, 3, "double").rec
    g = GaugeParams.trivial(3)
    plain = butterfly_params(rec, g, CONVENTION_PLAIN)
    assert plain.a == (1.0, 1.0, 1.0)
    assert plain.b == (0.0, 0.0, 0.0)
    for i in range(3):
        assert plain.c[i] == pytest.approx(float(rec.alpha[i]))
    diff = butterfly_params(rec, g, CONVENTION_DIFFERENCE)
    for i in range(3):
        assert diff.c[i] == pytest.approx(float(rec.alpha[i + 1] - rec.alpha[i]))
    for i in range(2):
        assert plain.d[i] == pytest.approx(math.sqrt(rec.beta[i + 1]))


def test_butterfly_shear_equal_gamma_kills_c():
    rec = random_family(61, 3, "double").rec
    gamma = tuple(float(rec.alpha[i + 1] - rec.alpha[i]) for i in range(3))
    g = GaugeParams(r=(1.0, 1.0, 1.0), lam=gamma)
    bp = butterfly_params(rec, g)
    assert all(abs(c) < 1e-12 for c in bp.c)


def test_butterfly_spectrum_and_closure():
    fv = random_family(62, 6, "double")
    m = fv.measure
    rec = fv.rec
    rng = random.Random(1)
    bt = build_butterfly(rec, random_gauge(rng, 6))
    eigs = dense_eigs(bt)
    assert spectra_distance(eigs, support_spectrum(m)) < 1e-7
    assert inversion_closure_defect(eigs) < 1e-7


def test_butterfly_matches_multiplication_operator():
    rng = random.Random(2)
    fv = random_family(63, 5, "double")
    rec = fv.rec
    g = random_gauge(rng, 5)
    fam = gauge_transform_scaled(lsolp_from_values(fv), g)
    mult = multiplication_matrix(fam)
    bt = build_butterfly(rec, g, CONVENTION_DIFFERENCE)
    worst = max(abs(a - b) for r1, r2 in zip(mult, bt) for a, b in zip(r1, r2))
    assert worst < 1e-9
    winner, residuals = determine_diagonal_convention(mult, rec, g)
    assert winner == CONVENTION_DIFFERENCE
    assert residuals[CONVENTION_PLAIN] > 1e-2


@pytest.mark.parametrize("n", [8, 16])
def test_gauge_similarity_on_the_fixed_measure(n):
    # S B_1 - B_g S, S applied by rows and columns, against the dense products
    # with the explicit S; rounding only, and a 1e-6 move of one entry shows
    rec = evaluate_family(_fixed_measure(n), n).rec
    b1 = build_butterfly(rec, GaugeParams.trivial(n))
    assert gauge_similarity_defect(b1, b1, GaugeParams.trivial(n)) == 0.0
    rng = random.Random(45)
    for _ in range(20):
        g = random_gauge(rng, n)
        bt = build_butterfly(rec, g)
        scale = max(1.0, max(abs(x) for row in bt for x in row))
        assert gauge_similarity_defect(b1, bt, g) / scale <= 1e-13
        s = [[0.0] * (2 * n) for _ in range(2 * n)]
        for i, (r, lam) in enumerate(zip(g.r, g.lam)):
            s[i][i], s[i][n + i], s[n + i][n + i] = r, r * lam, 1.0 / r
        bt[n - 1][2 * n - 1] += 1e-6
        dense = max(abs(x) for row in mat_sub(mat_mul(s, b1), mat_mul(bt, s)) for x in row)
        assert gauge_similarity_defect(b1, bt, g) == pytest.approx(dense, rel=1e-8)
        assert dense / scale > 1e-8


def test_butterfly_parameter_roundtrip():
    rng = random.Random(3)
    rec = random_family(64, 4, "double").rec
    g = random_gauge(rng, 4)
    bp = butterfly_params(rec, g)
    # a and b carry 1/r^2 and lambda; the tridiagonal reduction carries
    # gamma_i = alpha_i+1 - alpha_i and sqrt(beta_i+1)
    t = butterfly_to_tridiagonal(bp)
    alpha = [0.0]
    for gamma in t.diag:
        alpha.append(alpha[-1] + gamma)
    for a, b in zip(alpha, rec.alpha):
        assert a == pytest.approx(float(b), rel=1e-10, abs=1e-10)
    for off, b in zip(t.offdiag, rec.beta[1:]):
        assert off * off == pytest.approx(float(b), rel=1e-10, abs=1e-10)
    for a, r in zip(bp.a, g.r):
        assert 1.0 / a == pytest.approx(r * r, rel=1e-12)
    assert bp.b == g.lam


def test_butterfly_param_validation():
    with pytest.raises(AdmissibilityError):
        ButterflyParams(a=(0.0,), b=(1.0,), c=(1.0,), d=())
    bp = ButterflyParams(a=(1.0, -1.0), b=(0.0, 0.0), c=(1.0, 1.0), d=(0.5,))
    assert not bp.hypothesis_holds()
    with pytest.raises(AdmissibilityError):
        butterfly_to_tridiagonal(bp)


def test_butterfly_to_tridiagonal_values():
    bp = ButterflyParams(a=(1.0,), b=(0.5,), c=(2.0,), d=())
    t = butterfly_to_tridiagonal(bp)
    assert t.diag == (2.5,)
    # the sign of d never matters
    bp2 = ButterflyParams(a=(1.0, 2.0), b=(0.0, 0.0), c=(3.0, 1.0), d=(-0.7,))
    bp3 = ButterflyParams(a=(1.0, 2.0), b=(0.0, 0.0), c=(3.0, 1.0), d=(0.7,))
    assert butterfly_to_tridiagonal(bp2) == butterfly_to_tridiagonal(bp3)


def test_corollary_roundtrip_from_measure():
    rec = random_family(65, 5, "double").rec
    rng = random.Random(4)
    bp = butterfly_params(rec, random_gauge(rng, 5))
    lams = sym_tridiag_eigs(butterfly_to_tridiagonal(bp))
    recovered = canonical_z_list(eig_correspondence(lams))
    direct = dense_eigs(butterfly_from_params(bp))
    assert spectra_distance(recovered, direct) < 1e-7


def test_butterfly_is_symplectic_for_generic_params():
    rng = random.Random(5)
    n = 4
    bp = ButterflyParams(
        a=tuple(rng.uniform(0.5, 2.0) for _ in range(n)),
        b=tuple(rng.uniform(-1.0, 1.0) for _ in range(n)),
        c=tuple(rng.uniform(-1.0, 1.0) for _ in range(n)),
        d=tuple(rng.uniform(-1.0, 1.0) for _ in range(n - 1)),
    )
    from lsopkit.numerics import mat_mul, transpose
    from lsopkit.spectra import symplectic_j

    bt = butterfly_from_params(bp)
    j = symplectic_j(n)
    sjst = mat_mul(mat_mul(bt, j), transpose(bt))
    worst = max(abs(sjst[i][k] - j[i][k]) for i in range(2 * n) for k in range(2 * n))
    assert worst < 1e-12


def test_eig_correspondence_cases():
    pairs = eig_correspondence([2.5, 2.0, 10.0 / 3.0, -2.5, 1.0])
    assert pairs[0][0] == pytest.approx(2.0) and pairs[0][1] == pytest.approx(0.5)
    assert pairs[1] == (complex(1.0), complex(1.0))
    assert pairs[2][0] == pytest.approx(3.0) and pairs[2][1] == pytest.approx(1.0 / 3.0)
    assert abs(pairs[3][0]) > 1.0 and pairs[3][0].real == pytest.approx(-2.0)
    z, zbar = pairs[4]
    assert abs(z) == pytest.approx(1.0, abs=1e-12)
    assert z.conjugate() == zbar and z.imag > 0


if __name__ == "__main__":
    failed, worst_qr, worst_fold, total, converged = [], 0.0, 0.0, 0, 0
    for seed in range(1, 11):
        for i, case in enumerate(eigen_inputs(seed)):
            total += 1
            diag, off = case["tri"]["diag"], case["tri"]["off"]
            fold = fold_mismatch(diag, off)
            worst_fold = max(worst_fold, fold)
            if not fold <= FOLD_BOUND:
                failed.append(f"eigen_inputs({seed})[{i}]: folded route misses by {fold:.2e}")
            try:
                mismatch = transfer_qr_mismatch(diag, off)
            except ConvergenceError as exc:
                failed.append(f"eigen_inputs({seed})[{i}]: {exc}")
                continue
            converged += 1
            if not case["fixed"]:  # dense QR misses the fixed T (5, 1) at N >= 16
                worst_qr = max(worst_qr, mismatch)
    for line in failed:
        print(line)
    print(f"{converged}/{total} transfer matrices converged under dense QR, "
          f"largest seeded mismatch against the QL route {worst_qr:.2e}; "
          f"folded route within {worst_fold:.2e} <= {FOLD_BOUND:.0e} of it")
    sys.exit(1 if failed else 0)
