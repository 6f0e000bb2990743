"""The claim-by-claim verification suite.

Every structural statement the package relies on is checked here against
an independent route (exact expansion, alternative construction, direct
summation, dense eigensolver) and reported as one record: claim id, the
convention under which the statement holds, the measured residual, the
tolerance applied, pass/flag status and the exact flag.

Each claim is declared once, in the suite table _SUITE at the end of this
module: its id, its default tolerance, the modes in which it compares in
exact arithmetic and its claim function, in report order.  CLAIMS and
DEFAULT_TOLERANCES are derived from that table.  A claim function returns
only what it measured, a Measured (residual, summary, convention);
run_verification alone decides the status and the exact flag and builds
every record, that of an aborted claim included.  In one of its exact modes
a claim passes only at residual 0, and its record is exact exactly when it
passes; in any other mode it passes at residual <= tolerance.

Where the source conventions are ambiguous the suite does not guess: it
measures both candidates and records the winner (see the pencil layout and
the butterfly diagonal claims).

All randomness is drawn from generators seeded deterministically from the
run configuration, so a report is byte-identical across runs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from numbers import Real
from operator import mul
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from . import serialize
from .laurent import LaurentPoly
from .lsolp import (GaugeParams, LsolpFamily, butterfly_sparsity_defect,
                    gauge_transform_scaled, lsolp_from_values, multiplication_matrix)
from .lsop import (FamilyValues, RecurrenceData, evaluate_family, folded_support,
                   lsop_via_recurrence, random_family, skew_pattern_defect)
from .modes import Scalar, clear_denominators, validate_mode, validated_make
from .moments import DiscreteMeasure
from .oracles import (MomentTable, PfaffianRoute, c_moment, even_to_op, gram_schmidt_lsolp,
                      gram_schmidt_pairs, kodama_residuals, kodama_sops, mu_from_c, mu_moment,
                      op_via_hankel, pfaffian_route, skew_inner, verify_pfaffian_det)
from .numerics import (dense_det, dense_eigs, inf_norm, max_abs_diff, nan_max, spectra_distance,
                       sym_tridiag_eigs)
from .pfaffian import SkewArray, minor_identity, pf_eliminate, pf_expand
from .spectra import (BUTTERFLY_ROUNDTRIP_TOL, BUTTERFLY_SPECTRUM_TOL, CONVENTION_DIFFERENCE,
                      PENCIL_EIGENVALUES_TOL, ButterflyParams, PencilReport, build_butterfly,
                      build_tridiagonal, butterfly_params, determine_diagonal_convention,
                      gauge_similarity_defect, inversion_closure_defect, pencil_residual,
                      solve_butterfly, support_spectrum)

GAUGE_INVARIANCE_TRIALS = 20
# coefficient-route comparisons are capped: conditioning caps the double
# cross-checks at order 4, bit growth caps the exact ones at order 6
COEFF_ORDER_CAP_DOUBLE = 4
COEFF_ORDER_CAP_EXACT = 6


class _RunFields(NamedTuple):
    seed: int
    order: int
    mode: str
    tolerances: Mapping[str, float]


class RunConfig(_RunFields):
    """One verification run: seed, family order, scalar mode, tolerances.

    tolerances holds a read-only copy of the overrides passed in, each as a
    float, so a later edit of the caller's dict can neither change the run
    nor skip the checks."""

    __slots__ = ()

    def __new__(cls, seed: int = 1, order: int = 4, mode: str = "double",
                tolerances: Optional[Mapping[str, float]] = None):
        if type(seed) is not int or type(order) is not int:  # a bool is refused too
            raise ValueError(f"seed and order must be ints, got {seed!r} and {order!r}")
        if order < 1:
            raise ValueError("order must be >= 1")
        validate_mode(mode)
        checked = {}
        for name, value in (tolerances or {}).items():
            if name not in DEFAULT_TOLERANCES:
                known = ", ".join(sorted(DEFAULT_TOLERANCES))
                raise ValueError(f"unknown tolerance {name!r}; known names: {known}")
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"tolerance {name} must be a real number, got {value!r}")
            if not 0 < value < math.inf:
                raise ValueError(f"tolerance {name} must be positive and finite")
            checked[name] = float(value)
        return super().__new__(cls, seed, order, mode, MappingProxyType(checked))

    _make = classmethod(validated_make)

    def tolerance(self, claim_id: str) -> float:
        return self.tolerances.get(claim_id, DEFAULT_TOLERANCES[claim_id])


class Measured(NamedTuple):
    """What one claim function measured.  The claim's id, tolerance, status
    and exact flag are run_verification's business."""

    residual: float
    summary: str
    convention: str = ""


class ClaimResult(NamedTuple):
    claim_id: str
    summary: str
    convention: str
    residual: float
    tolerance: float
    status: str
    exact: bool

    def record(self) -> Dict[str, object]:
        return {
            "id": self.claim_id,
            "summary": self.summary,
            "convention": self.convention,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "status": self.status,
            "exact": self.exact,
        }


class VerificationReport(NamedTuple):
    config: RunConfig
    claims: Tuple[ClaimResult, ...]

    @property
    def flagged(self) -> List[ClaimResult]:
        return [c for c in self.claims if c.status != "pass"]

    @property
    def all_pass(self) -> bool:
        return not self.flagged

    def document(self) -> Dict[str, object]:
        return {
            "environment": {
                "seed": self.config.seed,
                "order": self.config.order,
                "mode": self.config.mode,
                "tolerance_overrides": dict(sorted(self.config.tolerances.items())),
            },
            "claims": [c.record() for c in self.claims],
            "counts": {
                "pass": sum(1 for c in self.claims if c.status == "pass"),
                "flag": len(self.flagged),
            },
            "status": "pass" if self.all_pass else "flagged",
        }

    def render(self) -> str:
        return serialize.dumps(self.document())


class _Context:
    """Shared artifacts for the claims of one run.

    Each artifact is built on first read and cached for the rest of the
    run: the fold fv, a FamilyValues that holds the recurrence data, the
    value tables and the exact monic tables (without a given measure it is
    the fold random_family drew the measure with), the monic family qs, its
    even members reduced to w = z + 1/z, the moment table, its Pfaffian
    route (every q_k, tau_k and sigma_k that lsop-route-agreement and
    pfaffian-hankel-identity read, in both modes), the pencil report
    (spectra.pencil_residual, which lsopkit pencil prints too) and the
    full-order alternating-basis family lsolp (the gauged butterfly claims
    read it, and lsolp-construction-agreement its first members).  The
    pencil, tridiagonal and butterfly builders read the recurrence data
    through float(), exact or not.  A builder that raises is cached as its
    failure: the error surfaces inside each claim that reads the artifact,
    never aborts the suite, and is never rebuilt.
    """

    def __init__(self, cfg: RunConfig, measure: Optional[DiscreteMeasure]):
        self.cfg = cfg
        self.exact = cfg.mode == "rational"
        self._cache: Dict[str, object] = {}
        if measure is None:
            family = random_family(cfg.seed, cfg.order, cfg.mode)
            measure, self._cache["fv"] = family.measure, (True, family)
        if measure.size != cfg.order:
            raise ValueError(f"measure has {measure.size} nodes, need {cfg.order}")
        if self.exact and not measure.is_exact():
            raise ValueError("a rational-mode run needs an exact (int/Fraction) measure")
        self.measure = measure
        cap = COEFF_ORDER_CAP_EXACT if self.exact else COEFF_ORDER_CAP_DOUBLE
        self.coeff_order = min(cfg.order, cap)

    def _cached(self, key: str, builder):
        if key not in self._cache:
            try:
                self._cache[key] = (True, builder())
            except Exception as exc:
                self._cache[key] = (False, exc)
        ok, value = self._cache[key]
        if not ok:
            raise value
        return value

    @property
    def fv(self) -> FamilyValues:
        return self._cached("fv", lambda: evaluate_family(self.measure, self.cfg.order))

    @property
    def rec(self) -> RecurrenceData:
        return self.fv.rec

    @property
    def qs(self):
        return self._cached("qs", lambda: lsop_via_recurrence(self.rec, self.cfg.order))

    @property
    def moments(self) -> MomentTable:
        return self._cached("moments", lambda: MomentTable.from_measure(self.measure, self.coeff_order))

    @property
    def pfaffian_route(self) -> PfaffianRoute:
        """The moment table's Pfaffian route through degree 2 coeff_order."""
        return self._cached("pfaffian_route",
                            lambda: pfaffian_route(self.moments, 2 * self.coeff_order))

    def reduced(self, k: int) -> LaurentPoly:
        """even_to_op(q_2k), k <= coeff_order."""
        return self._cached(f"reduced/{k}", lambda: even_to_op(self.qs[2 * k]))

    @property
    def pencil_report(self) -> PencilReport:
        return self._cached("pencil_report", lambda: pencil_residual(self.fv))

    @property
    def lsolp(self) -> LsolpFamily:
        return self._cached("lsolp", lambda: lsolp_from_values(self.fv))

    def rng(self, offset: int) -> random.Random:
        return random.Random(100003 * self.cfg.seed + offset)

    def scalar(self, rng: random.Random, lo: int = -9, hi: int = 9):
        if self.exact:
            return Fraction(rng.randint(lo, hi), rng.randint(1, 9))
        return rng.uniform(lo, hi)


def _residual(ctx: _Context, size: float, scale: Scalar) -> float:
    """Residual of one comparison: its size in rational mode, where the
    claims that call this compare exactly and pass only at 0, and its size
    relative to max(1, |scale|) in double."""
    return size if ctx.exact else size / max(1.0, abs(float(scale)))


# ---------------------------------------------------------------------------
# Pfaffian layer
# ---------------------------------------------------------------------------

def _random_skew(ctx: _Context, rng: random.Random, size: int) -> SkewArray:
    return SkewArray.from_entry_fn(size, lambda i, j: ctx.scalar(rng))


def claim_pfaffian_routes(ctx: _Context) -> Measured:
    rng = ctx.rng(11)
    worst = 0.0
    for size in range(0, 11, 2):
        for _ in range(5):
            s = _random_skew(ctx, rng, size)
            a = pf_eliminate(s)
            b = pf_expand(s)
            worst = nan_max(worst, _residual(ctx, abs(float(a - b)), b))
    return Measured(worst, "elimination equals recursive expansion on sizes 0..10")


def claim_pfaffian_determinant(ctx: _Context) -> Measured:
    rng = ctx.rng(12)
    worst = 0.0
    for size in range(2, 9, 2):
        for _ in range(5):
            s = _random_skew(ctx, rng, size)
            pf = pf_eliminate(s)
            det = dense_det(s.dense())
            worst = nan_max(worst, _residual(ctx, abs(float(pf * pf - det)), det))
    return Measured(worst, "squared Pfaffian equals the dense determinant, sizes 2..8")


def claim_minor_identity_even(ctx: _Context) -> Measured:
    return _minor_identity(ctx, "even", 13, lambda rng: 2 * rng.randint(0, 2))


def claim_minor_identity_odd(ctx: _Context) -> Measured:
    return _minor_identity(ctx, "odd", 14, lambda rng: 1 + 2 * rng.randint(0, 1))


def _minor_identity(ctx: _Context, parity: str, offset: int, base_size_of) -> Measured:
    """One bordered-minor identity on 50 seeded tables.  In double mode its
    residual is relative to the largest of the three Pfaffian products on
    the right-hand side."""
    rng = ctx.rng(offset)
    worst = 0.0
    for trial in range(50):
        base_size = base_size_of(rng)
        s = _random_skew(ctx, rng, base_size + 4)
        resid, products = minor_identity(s, range(base_size),
                                         range(base_size, base_size + 4), parity)
        scale = max(abs(float(p)) for p in products)
        worst = nan_max(worst, _residual(ctx, float(resid), scale))
    return Measured(worst, f"{parity}-base bordered-minor identity on 50 seeded tables")


# ---------------------------------------------------------------------------
# moment layer
# ---------------------------------------------------------------------------

def claim_sign_convention(ctx: _Context) -> Measured:
    rng = ctx.rng(21)
    m = ctx.measure
    worst_ours = 0.0
    worst_flipped = 0.0
    for _ in range(10):
        i, j = rng.randint(-4, 4), rng.randint(-4, 4)
        direct = skew_inner(m, LaurentPoly.monomial(i), LaurentPoly.monomial(j))
        ours = mu_moment(m, j - i)
        flipped = mu_moment(m, i - j)
        scale = max(1.0, abs(float(direct)))
        worst_ours = nan_max(worst_ours, abs(float(direct - ours)) / scale)
        worst_flipped = nan_max(worst_flipped, abs(float(direct - flipped)) / scale)
    convention = "entries-mu(j-i)" if worst_ours <= worst_flipped else "entries-mu(i-j)"
    return Measured(worst_ours,
                    "moment-table entry <z^i|z^j> equals mu_{j-i}; the opposite "
                    f"sign misses by {worst_flipped:.3e}",
                    convention=convention)


def claim_shift_invariance(ctx: _Context) -> Measured:
    rng = ctx.rng(22)
    m = ctx.measure
    worst = 0.0
    for _ in range(20):
        i, j, k = (rng.randint(-4, 4) for _ in range(3))
        lhs = skew_inner(m, LaurentPoly.monomial(i + k), LaurentPoly.monomial(j + k))
        rhs = skew_inner(m, LaurentPoly.monomial(i), LaurentPoly.monomial(j))
        worst = nan_max(worst, _residual(ctx, abs(float(lhs - rhs)), rhs))
    return Measured(worst, "pairings of monomials depend only on the exponent difference")


def claim_argument_symmetry(ctx: _Context) -> Measured:
    rng = ctx.rng(23)
    m = ctx.measure
    worst = 0.0
    for _ in range(10):
        f = _random_laurent(ctx, rng)
        g = _random_laurent(ctx, rng)
        lhs = skew_inner(m, f, g)
        rhs = skew_inner(m, g.reciprocal_arg(), f.reciprocal_arg())
        worst = nan_max(worst, _residual(ctx, abs(float(lhs - rhs)), lhs))
    return Measured(worst, "<f(z)|g(z)> equals <g(1/z)|f(1/z)> for random Laurent polynomials")


def _random_laurent(ctx: _Context, rng: random.Random) -> LaurentPoly:
    return LaurentPoly({e: ctx.scalar(rng, -5, 5) for e in range(-3, 4) if rng.random() < 0.7})


def claim_moment_roundtrip(ctx: _Context) -> Measured:
    m = ctx.measure
    n_hi = 2 * ctx.cfg.order
    cs = [c_moment(m, i) for i in range(n_hi)]
    mus = mu_from_c(cs)
    worst = 0.0
    for n in range(1, n_hi + 1):
        diff = mus[n - 1] - mu_moment(m, n)
        worst = nan_max(worst, _residual(ctx, abs(float(diff)), mus[n - 1]))
    return Measured(worst, "binomial transform of folded moments reproduces the skew moments")


# ---------------------------------------------------------------------------
# family construction layer
# ---------------------------------------------------------------------------

def claim_route_agreement(ctx: _Context) -> Measured:
    n = ctx.coeff_order
    qs = ctx.qs
    worst = 0.0
    for k in range(2 * n + 1):
        diff = ctx.pfaffian_route.member(k) - qs[k]
        worst = nan_max(worst, _residual(ctx, diff.max_abs_coeff(), qs[k].max_abs_coeff()))
    return Measured(worst,
                    f"moment-minor and recurrence constructions agree through degree {2 * n}")


def claim_odd_normalization(ctx: _Context) -> Measured:
    worst = 0.0
    for k in range(ctx.cfg.order):
        c = ctx.qs[2 * k + 1].coeff(2 * k)
        worst = nan_max(worst, abs(float(c)))
    return Measured(worst, "odd members carry no subleading (one-below-top) term")


def claim_self_reciprocity(ctx: _Context) -> Measured:
    worst = 0.0
    for k in range(ctx.cfg.order + 1):
        q = ctx.qs[2 * k]
        for e, c in q.coeffs.items():
            diff = q.coeff(2 * k - e) - c
            worst = nan_max(worst, _residual(ctx, abs(float(diff)), q.max_abs_coeff()))
    return Measured(worst, "even members are self-reciprocal")


def claim_top_factorization(ctx: _Context) -> Measured:
    n = ctx.cfg.order
    m = ctx.measure
    one = Fraction(1) if ctx.exact else 1.0
    prod = LaurentPoly.constant(one)
    for z in m.nodes:
        prod = prod * LaurentPoly({1: one, 0: -z}) * LaurentPoly({1: one, 0: -1 / z})
    worst = _residual(ctx, (ctx.qs[2 * n] - prod).max_abs_coeff(), prod.max_abs_coeff())
    return Measured(worst, "the first member beyond the family vanishes on nodes and reciprocals")


def claim_orthonormality(ctx: _Context) -> Measured:
    if ctx.exact:
        return Measured(_exact_orthonormality(ctx),
                        "scaled family pairs to the canonical skew pattern (exact identity)")
    return Measured(skew_pattern_defect(ctx.fv.gram()),
                    "orthonormal family pairs to the canonical skew pattern on the support")


def _exact_orthonormality(ctx: _Context) -> float:
    # <q_2m|q_2n+1> tau_n/tau_{n+1} = delta_mn plus vanishing same-parity
    # pairings: exactly equivalent to orthonormality of the scaled family.
    # monic_values gives member column a as ints over L_a at the nodes and
    # the reciprocals, and clear_denominators the weights over W, so the int
    # S_ab = sum_k w_k (R_a Z_b - Z_a R_b) is W L_a L_b <q_a|q_b>; each test
    # compares ints, and a Fraction is built only for a nonzero deviation.
    # The pairing is exactly skew on exact tables (<f|f> = 0 and
    # <g|f> = -<f|g>), so each same-parity pair is computed once.
    n = ctx.cfg.order
    node, recip, dens = ctx.fv.monic_values()
    ws, wscale = clear_denominators(ctx.measure.weights)
    wnode = [list(map(mul, ws, col)) for col in node]
    wrecip = [list(map(mul, ws, col)) for col in recip]
    scales = ctx.fv.exact_rec.scale_squares()

    def deviation(a: int, b: int, target: int, scale: Scalar) -> Tuple[int, int]:
        """<q_a|q_b> scale - target as the numerator over the denominator."""
        pairing = sum(map(mul, wrecip[a], node[b])) - sum(map(mul, wnode[a], recip[b]))
        den = wscale * dens[a] * dens[b] * scale.denominator
        return pairing * scale.numerator - target * den, den

    worst = 0.0
    for a in range(n):
        for b in range(n):
            devs = [deviation(2 * a, 2 * b + 1, int(a == b), scales[b])]
            if a < b:
                devs += (deviation(2 * a, 2 * b, 0, 1), deviation(2 * a + 1, 2 * b + 1, 0, 1))
            for num, den in devs:
                if num != 0:
                    worst = nan_max(worst, abs(float(Fraction(num, den))))
    return worst


def claim_folded_reduction(ctx: _Context) -> Measured:
    n = ctx.coeff_order
    cs = ctx.moments.c_list(2 * n + 1)
    worst = 0.0
    for k in range(n + 1):
        via_fold = ctx.reduced(k)
        via_hankel = op_via_hankel(cs, k)
        diff = via_fold - via_hankel
        worst = nan_max(worst, _residual(ctx, diff.max_abs_coeff(), via_hankel.max_abs_coeff()))
    return Measured(worst, "peeling even members to w = z + 1/z matches the Hankel construction")


def claim_folded_orthogonality(ctx: _Context) -> Measured:
    if ctx.exact:
        # each reduced member evaluated once per node: sum_k r_a(x_k) r_b(x_k) (z_k - 1/z_k) w_k
        n = ctx.coeff_order
        rbars = [ctx.reduced(k) for k in range(n + 1)]
        nodes = [([r(x) for r in rbars], weight) for x, weight in zip(*folded_support(ctx.measure))]
        worst = 0.0
        for a in range(n + 1):
            for b in range(a):
                v = 0
                for values, weight in nodes:
                    v += values[a] * values[b] * weight
                if v != 0:
                    worst = nan_max(worst, abs(float(v)))
        return Measured(worst, "reduced members are orthogonal under the folded functional")
    # double mode: the normalized folded Gram from the value tables,
    # r_n(x_k) = qt_2n(z_k) / z_k^n, must be the identity
    n = ctx.cfg.order
    fv = ctx.fv
    worst = 0.0
    for a in range(n):
        for b in range(a + 1):
            total = 0.0
            for k, (z, w) in enumerate(zip(fv.measure.nodes, fv.measure.weights)):
                zf = float(z)
                ra = fv.qt_node[k][2 * a] / zf**a
                rb = fv.qt_node[k][2 * b] / zf**b
                total += ra * rb * (zf - 1.0 / zf) * float(w)
            worst = nan_max(worst, abs(total - (1.0 if a == b else 0.0)))
    return Measured(worst, "folded members are orthonormal under the folded functional")


def claim_three_term(ctx: _Context) -> Measured:
    n = ctx.coeff_order
    rec = ctx.rec
    rbars = [ctx.reduced(k) for k in range(n + 1)]
    w_var = LaurentPoly.monomial(1)
    worst = 0.0
    for k in range(n):
        gamma = rec.alpha[k + 1] - rec.alpha[k]
        res = (w_var - LaurentPoly.constant(gamma)) * rbars[k] - rbars[k + 1]
        if k >= 1:
            res = res - rbars[k - 1].scale(rec.beta[k])
        worst = nan_max(worst, _residual(ctx, res.max_abs_coeff(), rbars[k].max_abs_coeff()))
    return Measured(worst,
                    "reduced members satisfy the three-term recurrence with "
                    "difference diagonal and beta off-diagonal",
                    convention="diagonal-difference-of-alphas")


def claim_pfaffian_hankel(ctx: _Context) -> Measured:
    n = ctx.coeff_order
    mu = ctx.moments
    rec_pf = ctx.pfaffian_route.recurrence_data()
    cs = mu.c_list(2 * n)
    mus_from_c = mu_from_c(cs)
    link = 0.0
    for k in range(1, 2 * n):
        diff = mus_from_c[k - 1] - mu.mu_at(k)
        link = nan_max(link, abs(float(diff)))
    rep = verify_pfaffian_det(rec_pf, cs, n)
    minors = rep.max_absolute if ctx.exact else rep.max_relative
    worst = nan_max(minors, link)
    return Measured(worst, f"leading minors equal (shifted) Hankel determinants through order {n}")


def claim_squared_variable(ctx: _Context) -> Measured:
    rng = ctx.rng(31)
    worst = 0.0
    for trial in range(10):
        n = rng.randint(1, 5)
        a = [ctx.scalar(rng, -5, 5) for _ in range(n)]
        b = [ctx.scalar(rng, 1, 5) for _ in range(n)]
        qs = kodama_sops(a, b, n)
        for res in kodama_residuals(qs, a, b):
            worst = nan_max(worst, res.max_abs_coeff())
    return Measured(worst,
                    "the squared-variable family satisfies its two-line recurrence identically")


# ---------------------------------------------------------------------------
# pencil and spectra layer
# ---------------------------------------------------------------------------

def claim_pencil_residual(ctx: _Context) -> Measured:
    rep = ctx.pencil_report
    given = rep.textbook.support_residual
    convention = ("textbook-layout" if given <= ctx.cfg.tolerance("pencil-recurrence-residual")
                  else "rearranged-layout")
    return Measured(rep.recurrence.support_residual,
                    f"recurrence-derived pencil reproduces the support relations; the "
                    f"textbook layout misses by {given:.3e} "
                    f"(largest entry difference {rep.entry_difference:.3e})",
                    convention=convention)


def _symplecticity(ctx: _Context, field: str) -> float:
    rep = ctx.pencil_report
    return nan_max(0.0, *(getattr(lay, field) / max(1.0, inf_norm(lay.pencil.u) * inf_norm(lay.pencil.v))
                          for lay in (rep.textbook, rep.recurrence)))


def claim_pencil_symplecticity(ctx: _Context) -> Measured:
    return Measured(_symplecticity(ctx, "pencil_symplecticity"),
                    "U J U^T = V J V^T for both pencil layouts, read off the F, G, H blocks")


def claim_transfer_symplecticity(ctx: _Context) -> Measured:
    return Measured(_symplecticity(ctx, "transfer_symplecticity"),
                    "V^-1 U preserves the canonical skew form")


def claim_pencil_eigenvalues(ctx: _Context) -> Measured:
    eigs = dense_eigs(ctx.pencil_report.recurrence.transfer)
    expected = support_spectrum(ctx.measure)
    dist = spectra_distance(eigs, expected)
    return Measured(dist, "generalized eigenvalues are the nodes and their reciprocals",
                    convention="rearranged-layout")


def claim_tridiagonal_spectrum(ctx: _Context) -> Measured:
    t = build_tridiagonal(ctx.rec)
    lam = sym_tridiag_eigs(t)
    target = sorted(float(z) + 1.0 / float(z) for z in ctx.measure.nodes)
    worst = nan_max(*(abs(a - b) for a, b in zip(lam, target)))
    return Measured(worst, "tridiagonal eigenvalues equal z + 1/z over the nodes")


def claim_lsolp_construction(ctx: _Context) -> Measured:
    if ctx.exact:
        worst = 0.0
        pairs = gram_schmidt_pairs(ctx.measure, 2 * min(ctx.cfg.order, 4))
        for k, (p_even, p_odd, kappa) in enumerate(pairs):
            d1 = p_even - ctx.qs[2 * k].shift(-k)
            d2 = p_odd - ctx.qs[2 * k].shift(-k - 1)
            d3 = kappa + ctx.rec.kappa(k)  # pairing = -tau_{k+1}/tau_k
            worst = nan_max(worst, d1.max_abs_coeff(), d2.max_abs_coeff(), abs(float(d3)))
        return Measured(worst,
                        "alternating-basis Gram-Schmidt reproduces the shifted family "
                        "(exact, leading-normalized)")
    n = min(ctx.cfg.order, 4)
    fam = ctx.lsolp  # the full-order family, compared on its first 2n members
    fam_gs = gram_schmidt_lsolp(ctx.measure, 2 * n)
    worst = nan_max(max_abs_diff([row[:2 * n] for row in fam.node_values], fam_gs.node_values),
                    max_abs_diff([row[:2 * n] for row in fam.recip_values], fam_gs.recip_values))
    return Measured(worst,
                    f"Gram-Schmidt and shift constructions agree on the support (order {n})")


def claim_multiplication_sparsity(ctx: _Context) -> Measured:
    _, mult = _gauged_multiplication(ctx, 41)
    scale = max(1.0, max(abs(x) for row in mult for x in row))
    defect = butterfly_sparsity_defect(mult) / scale
    return Measured(defect, "multiplication operator vanishes outside the butterfly pattern")


def claim_diagonal_convention(ctx: _Context) -> Measured:
    g, mult = _gauged_multiplication(ctx, 42)
    winner, residuals = determine_diagonal_convention(mult, ctx.rec, g)
    loser = max(residuals, key=residuals.get)
    return Measured(residuals[winner],
                    f"diagonal coefficients follow the {winner} convention; "
                    f"{loser} misses by {residuals[loser]:.3e}", convention=winner)


def claim_butterfly_vs_multiplication(ctx: _Context) -> Measured:
    g, mult = _gauged_multiplication(ctx, 43)
    worst = max_abs_diff(mult, build_butterfly(ctx.rec, g, CONVENTION_DIFFERENCE))
    return Measured(worst, "assembled butterfly equals the multiplication operator entrywise",
                    convention=CONVENTION_DIFFERENCE)


def claim_butterfly_spectrum(ctx: _Context) -> Measured:
    g = GaugeParams.random(ctx.rng(44), ctx.cfg.order)
    bt = build_butterfly(ctx.rec, g)
    dist = spectra_distance(dense_eigs(bt), support_spectrum(ctx.measure))
    return Measured(dist, "butterfly spectrum is the nodes and their reciprocals")


def claim_gauge_invariance(ctx: _Context) -> Measured:
    # each gauge moves the butterfly by the explicit similarity S_g; one dense
    # eigensolve pair, on the first gauge, keeps an independent spectral route
    rec = ctx.rec
    rng = ctx.rng(45)
    trivial = build_butterfly(rec, GaugeParams.trivial(ctx.cfg.order))
    similarity, anchor = 0.0, None
    for _ in range(GAUGE_INVARIANCE_TRIALS):
        g = GaugeParams.random(rng, ctx.cfg.order)
        bt = build_butterfly(rec, g)
        scale = max(1.0, max(abs(x) for row in bt for x in row))
        similarity = nan_max(similarity, gauge_similarity_defect(trivial, bt, g) / scale)
        if anchor is None:
            anchor = spectra_distance(dense_eigs(bt), dense_eigs(trivial))
    return Measured(nan_max(similarity, anchor),
                    f"S_g B_1 = B_g S_g over {GAUGE_INVARIANCE_TRIALS} random gauges misses by "
                    f"{similarity:.3e}; the first gauge's dense spectrum misses the trivial "
                    f"gauge's by {anchor:.3e}")


def claim_butterfly_roundtrip(ctx: _Context) -> Measured:
    g = GaugeParams.random(ctx.rng(46), ctx.cfg.order)
    return Measured(solve_butterfly(butterfly_params(ctx.rec, g)).mismatch,
                    "tridiagonal reduction recovers the butterfly spectrum through z + 1/z")


def claim_unit_modulus(ctx: _Context) -> Measured:
    # synthetic quadruples whose folded eigenvalues fall inside (-2, 2)
    rng = ctx.rng(47)
    n = max(2, min(ctx.cfg.order, 4))
    a = [1.0 + 0.5 * rng.random() for _ in range(n)]
    b = [0.1 * rng.random() for _ in range(n)]
    d = [0.05 * rng.random() for _ in range(n - 1)]
    c = [(0.5 * (rng.random() - 0.5)) / a[i] for i in range(n)]  # keep |a c + b| < 2
    solve = solve_butterfly(ButterflyParams(a=tuple(a), b=tuple(b), c=tuple(c), d=tuple(d)))
    worst = 0.0
    inside = 0
    for lam, (z, zbar) in zip(solve.folded, solve.pairs):
        if abs(lam) < 2.0 - 1e-9:
            inside += 1
            worst = nan_max(worst, abs(abs(z) - 1.0), abs(abs(zbar) - 1.0))
    if inside == 0:
        worst = float("inf")
    summary = (f"{inside}/{len(solve.folded)} folded eigenvalues inside (-2,2) map to "
               f"unit-modulus pairs; spectrum round trip misses by {solve.mismatch:.3e}")
    return Measured(worst, summary)


def claim_inversion_closure(ctx: _Context) -> Measured:
    g = GaugeParams.random(ctx.rng(48), ctx.cfg.order)
    eigs = dense_eigs(build_butterfly(ctx.rec, g))
    defect = inversion_closure_defect(eigs)
    return Measured(defect, "butterfly spectrum is closed under z -> 1/z")


def _gauged_multiplication(ctx: _Context, offset: int):
    """A seeded gauge and the multiplication operator of the gauged family."""
    g = GaugeParams.random(ctx.rng(offset), ctx.cfg.order)
    return g, multiplication_matrix(gauge_transform_scaled(ctx.lsolp, g))


# The modes in which a claim compares in exact arithmetic: none for a float
# check, rational mode for a statement rational in the measure, and both for
# a structural zero.
_FLOAT: Tuple[str, ...] = ()
_RATIONAL = ("rational",)
_BOTH = ("double", "rational")

# The suite in report order: (claim id, default tolerance, exact modes, claim
# function).  In its exact modes a claim passes only at residual 0, and
# otherwise at residual <= tolerance.
_SUITE: Tuple[Tuple[str, float, Tuple[str, ...], Callable[[_Context], Measured]], ...] = (
    ("pfaffian-route-agreement", 1e-12, _RATIONAL, claim_pfaffian_routes),
    ("pfaffian-square-determinant", 1e-10, _RATIONAL, claim_pfaffian_determinant),
    ("pfaffian-minor-identity-even", 1e-10, _RATIONAL, claim_minor_identity_even),
    ("pfaffian-minor-identity-odd", 1e-10, _RATIONAL, claim_minor_identity_odd),
    ("skew-moment-sign-convention", 1e-12, _RATIONAL, claim_sign_convention),
    ("moment-shift-invariance", 1e-12, _RATIONAL, claim_shift_invariance),
    ("laurent-argument-symmetry", 1e-12, _RATIONAL, claim_argument_symmetry),
    ("chebyshev-moment-roundtrip", 1e-9, _RATIONAL, claim_moment_roundtrip),
    ("lsop-route-agreement", 1e-8, _RATIONAL, claim_route_agreement),
    ("lsop-odd-normalization", 0.0, _BOTH, claim_odd_normalization),
    ("lsop-self-reciprocity", 1e-9, _RATIONAL, claim_self_reciprocity),
    ("lsop-top-factorization", 1e-8, _RATIONAL, claim_top_factorization),
    ("skew-orthonormality", 1e-9, _RATIONAL, claim_orthonormality),
    ("folded-reduction-agreement", 1e-8, _RATIONAL, claim_folded_reduction),
    ("folded-functional-orthogonality", 1e-9, _RATIONAL, claim_folded_orthogonality),
    ("three-term-relation", 1e-9, _RATIONAL, claim_three_term),
    ("pfaffian-hankel-identity", 1e-8, _RATIONAL, claim_pfaffian_hankel),
    ("squared-variable-recurrence", 1e-10, _RATIONAL, claim_squared_variable),
    ("pencil-recurrence-residual", 1e-10, _FLOAT, claim_pencil_residual),
    ("pencil-symplecticity", 0.0, _BOTH, claim_pencil_symplecticity),
    ("transfer-symplecticity", 1e-8, _FLOAT, claim_transfer_symplecticity),
    ("pencil-eigenvalues", PENCIL_EIGENVALUES_TOL, _FLOAT, claim_pencil_eigenvalues),
    ("tridiagonal-spectrum", 1e-8, _FLOAT, claim_tridiagonal_spectrum),
    ("lsolp-construction-agreement", 1e-9, _RATIONAL, claim_lsolp_construction),
    ("lsolp-multiplication-sparsity", 1e-9, _FLOAT, claim_multiplication_sparsity),
    ("butterfly-diagonal-convention", 1e-9, _FLOAT, claim_diagonal_convention),
    ("butterfly-vs-multiplication", 1e-9, _FLOAT, claim_butterfly_vs_multiplication),
    ("butterfly-spectrum", BUTTERFLY_SPECTRUM_TOL, _FLOAT, claim_butterfly_spectrum),
    ("butterfly-gauge-invariance", 1e-8, _FLOAT, claim_gauge_invariance),
    ("butterfly-tridiagonal-roundtrip", BUTTERFLY_ROUNDTRIP_TOL, _FLOAT, claim_butterfly_roundtrip),
    ("unit-modulus-pairs", 1e-12, _FLOAT, claim_unit_modulus),
    ("spectrum-inversion-closure", 1e-7, _FLOAT, claim_inversion_closure),
)

CLAIMS: Tuple[Tuple[str, Callable[[_Context], Measured]], ...] = tuple(
    (claim_id, fn) for claim_id, _, _, fn in _SUITE)
DEFAULT_TOLERANCES: Dict[str, float] = {claim_id: tol for claim_id, tol, _, _ in _SUITE}
_EXACT_MODES: Dict[str, Tuple[str, ...]] = {claim_id: modes for claim_id, _, modes, _ in _SUITE}


def run_verification(cfg: RunConfig, measure: Optional[DiscreteMeasure] = None) -> VerificationReport:
    """Evaluate every claim of CLAIMS, read at call time, and decide its status
    and exact flag: a claim in one of its exact modes passes only at residual
    0, and is exact exactly when it does; any other passes at residual <= the
    run's tolerance.  Failures are recorded per claim, never raised."""
    ctx = _Context(cfg, measure)
    results = []
    for claim_id, fn in CLAIMS:
        tol = cfg.tolerance(claim_id)
        exact = cfg.mode in _EXACT_MODES[claim_id]
        try:
            residual, summary, convention = fn(ctx)
            ok = residual == 0 if exact else residual <= tol
        except Exception as exc:  # per-claim failures must never abort the suite
            residual, convention, ok = float("inf"), "", False
            summary = f"evaluation aborted ({type(exc).__name__}): {exc}"
        results.append(ClaimResult(claim_id=claim_id, summary=summary, convention=convention,
                                   residual=float(residual), tolerance=tol,
                                   status="pass" if ok else "flag", exact=exact and ok))
    return VerificationReport(config=cfg, claims=tuple(results))
