"""Construction of Laurent skew orthogonal polynomials over a discrete measure.

The production route builds the monic family {q_n} from the recurrence
coefficients: q_0 = 1, q_1 = z, then the two coupled relations

    z (q_2n   - beta_n  q_2n-2) = q_2n+1 - alpha_n q_2n
    z (q_2n+1 - alpha_n+1 q_2n) = q_2n+2 - q_2n

driven by alpha_n = sigma_n / tau_n and beta_n = tau_n+1 tau_n-1 / tau_n^2
(lsop_via_recurrence).  The independent moment-table route that the claim
suite compares it with, and the other reference constructions, live in
oracles.

The recurrence coefficients come from the folded measure (nodes z + 1/z,
weights (z - 1/z) w), folded once per measure and order by evaluate_family.
A double-mode measure with positive folded weights on pairwise distinct
folded nodes takes the float fold, Lanczos on diag(x) (the reconstruction
of a Jacobi matrix from its spectral data); every other measure takes the
exact Stieltjes walk on its rational image, rounded once at the outputs in
double mode.  The exact layer (the walk's value vectors, the monic member
columns, an exact coefficient family) runs on ints over one denominator per
vector or member and builds a Fraction only at its outputs.  Neither route
rebuilds the value tables from float coefficients, a brutally
ill-conditioned parameterization of the family: correctly rounded
(alpha, beta) alone cap the skew-orthonormality defect near 1e-7 at order
8, while tables rounded from the exact walk, or read off the Lanczos
vectors, reach about 1e-11.  The seeded generator random_family draws a
measure and returns its fold, the one its consumers read.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (AdmissibilityError, DegeneracyError, GenerationError, LsopkitError,
                     StructureError)
from .modes import Scalar, clear_denominators, is_exact, validate_mode, validated_make
from .moments import DiscreteMeasure

# numerics is imported by skew_pattern_defect, laurent by the float
# coefficient family and exact by the exact walk and the exact coefficient
# family, so a process that only folds a double measure compiles none of them
if TYPE_CHECKING:
    from .laurent import LaurentPoly

TAU_DEGENERACY_RELATIVE = 1e-8
NODE_RANGE = (1.2, 5.0)
NODE_MIN_GAP = 0.1
GENERATOR_MAX_ATTEMPTS = 100


class _Coefficients(NamedTuple):
    order: int
    alpha: Tuple[Scalar, ...]
    beta: Tuple[Scalar, ...]
    tau: Tuple[Scalar, ...]
    sigma: Tuple[Scalar, ...]


class RecurrenceData(_Coefficients):
    """Recurrence coefficients and Pfaffian minors of one measure.

    alpha[n] = sigma_n / tau_n for n = 0..order (alpha[0] = 0);
    beta[n]  = tau_{n+1} tau_{n-1} / tau_n^2 for n = 1..order-1, with
    beta[0] = 0 (placeholder) and beta[order] = 0 (finite-rank convention);
    tau[0] = 1, sigma[0] = 0.
    """

    __slots__ = ()

    def __new__(cls, order: int, alpha: Tuple[Scalar, ...], beta: Tuple[Scalar, ...],
                tau: Tuple[Scalar, ...], sigma: Tuple[Scalar, ...]):
        if not (len(alpha) == len(beta) == len(tau) == len(sigma) == order + 1):
            raise ValueError("coefficient arrays must all have length order + 1")
        if alpha[0] != 0 or sigma[0] != 0 or tau[0] != 1:
            raise ValueError("conventions violated: alpha_0 = sigma_0 = 0, tau_0 = 1")
        return super().__new__(cls, order, alpha, beta, tau, sigma)

    _make = classmethod(validated_make)

    def is_admissible(self) -> bool:
        """tau_n > 0 for all n <= order, equivalently beta_n > 0 inside."""
        return all(t > 0 for t in self.tau)

    def require_admissible(self) -> None:
        if not self.is_admissible():
            bad = [n for n, t in enumerate(self.tau) if not t > 0]
            raise AdmissibilityError(f"tau must be positive; offending indices {bad}")

    def scale_squares(self) -> List[Scalar]:
        """Orthonormalization scale squares s_n = tau_n / tau_{n+1}, n < order."""
        self.require_admissible()
        return [self.tau[n] / self.tau[n + 1] for n in range(self.order)]

    def kappa(self, n: int) -> Scalar:
        """Pairing normalizer <q_2n | q_2n+1> = tau_{n+1} / tau_n."""
        return self.tau[n + 1] / self.tau[n]

    def as_float(self) -> "RecurrenceData":
        return RecurrenceData(
            order=self.order,
            alpha=tuple(float(x) for x in self.alpha),
            beta=tuple(float(x) for x in self.beta),
            tau=tuple(float(x) for x in self.tau),
            sigma=tuple(float(x) for x in self.sigma),
        )


# ---------------------------------------------------------------------------
# recurrence coefficients and support values: folded Stieltjes route
# ---------------------------------------------------------------------------

def folded_support(m: DiscreteMeasure) -> Tuple[List[Scalar], List[Scalar]]:
    """Folded nodes x_k = z_k + 1/z_k and weights (z_k - 1/z_k) w_k."""
    xs, ws = [], []
    for z, w in zip(m.nodes, m.weights):
        zi = 1 / z
        xs.append(z + zi)
        ws.append((z - zi) * w)
    return xs, ws


class FamilyValues:
    """One fold of a measure to order n (see evaluate_family) and the family
    read off it.

    A fold holds the measure folded, its order n, its nodes z_k (the exact
    walk keeps their exact image) and the three-term data (a_j, b_j, h_j),
    j < n, of the folded measure, with value tables p_values[j][k] =
    p_j(z_k + 1/z_k) of its orthogonal polynomials (the exact walk holds
    them as int vectors, columns).  Its two subclasses are
    the exact walk, _FoldedWalk, and the float Lanczos fold, _FloatFold.
    rec holds the recurrence data: exact for an exact measure, float for a
    double one.  qt_node[k][j] = qt_j(z_k) and qt_recip[k][j] = qt_j(1/z_k)
    for j = 0..2n-1 are built on first use and need tau > 0; these tables,
    not the coefficient arrays, are the numerically trustworthy
    representation.  exact_rec and monic_values() are the exact walk's own
    data and refuse a float fold.  A fold compares by identity.
    """

    exact: bool

    def _recurrence_data(self) -> RecurrenceData:
        n = self.order
        one = Fraction(1) if self.exact else 1.0
        tau, alpha, beta = [one], [one * 0], [one * 0]
        for k in range(n):
            tau.append(tau[-1] * self.h[k])
            alpha.append(alpha[-1] + self.a[k])
            beta.append(self.b[k + 1] if k + 1 < n else one * 0)
        sigma = [alpha[k] * tau[k] for k in range(n + 1)]
        return RecurrenceData(order=n, alpha=tuple(alpha), beta=tuple(beta),
                              tau=tuple(tau), sigma=tuple(sigma))

    @cached_property
    def exact_rec(self) -> RecurrenceData:
        if not self.exact:
            raise StructureError("exact recurrence data needs the exact walk; "
                                 "this family was folded in binary64")
        return self._recurrence_data()

    @cached_property
    def rec(self) -> RecurrenceData:
        if not self.exact:
            return self._recurrence_data()
        return self.exact_rec if self.measure.is_exact() else self.exact_rec.as_float()

    @cached_property
    def _tables(self):
        if self.exact:
            self.exact_rec.require_admissible()
            # int true division is correctly rounded, as float() of the Fraction
            values = [[v / e for v in p] for p, e in self.columns]
        else:
            values = self.p_values
        alpha = [float(x) for x in self.rec.alpha]
        sqrt_b = [0.0] + [math.sqrt(float(x)) for x in self.rec.beta[1:]]
        # the walk carries monic p_j, the float fold orthonormal ones
        scale = [math.sqrt(float(x)) for x in self.h] if self.exact else [1.0] * self.order
        rows = [_member_rows(float(z), [p[k] for p in values], scale, alpha, sqrt_b)
                for k, z in enumerate(self.nodes)]
        return tuple(tuple(vz) for vz, _ in rows), tuple(tuple(vr) for _, vr in rows)

    @property
    def qt_node(self) -> Tuple[Tuple[float, ...], ...]:
        return self._tables[0]

    @property
    def qt_recip(self) -> Tuple[Tuple[float, ...], ...]:
        return self._tables[1]

    def monic_values(self) -> Tuple[List[List[int]], List[List[int]], List[int]]:
        """Exact monic member columns (node, recip, den), j = 0..2*order-1, in
        lowest terms: q_j(z_k) = node[j][k] / den[j] and q_j(1/z_k) =
        recip[j][k] / den[j], in ints from the walk's value vectors
        (exact.member_columns, on the recurrence line of _member_rows)."""
        from .exact import member_columns

        rec = self.exact_rec
        return member_columns(self.nodes, self.columns, rec.alpha, rec.beta)

    def gram(self) -> List[List[float]]:
        return support_gram(self.measure.weights, self.qt_node, self.qt_recip)


class _FoldedWalk(FamilyValues):
    """Exact discrete Stieltjes walk on the folded measure, run on the
    measure's rational image, whose nodes it keeps.

    Carries the monic folded polynomials p_j by their values on the support
    (all the functional ever sees), each as ints over one denominator:
    columns[j] = (P, E), p_j(x_k) = P[k] / E.  With the folded nodes and
    weights cleared once, a step takes one gcd each for the Fractions a_j,
    b_j and h_j and one over its new vector, none per operation (Bareiss
    1968); p_values builds the Fraction values on each read.
    """

    exact = True

    def __init__(self, m: DiscreteMeasure, n: int):
        from .exact import lowest_terms, three_term

        lifted = _lift_exact(m)
        (xs, dx), (ws, dw) = map(clear_denominators, folded_support(lifted))
        self.measure, self.order, self.nodes = m, n, lifted.nodes
        self.a, self.b, self.h, self.columns = [], [Fraction(0)], [], []
        prev, cur = ([0] * len(xs), 1), ([1] * len(xs), 1)
        for j in range(n):
            self.columns.append(cur)
            p, e = cur
            wpp = [w * v * v for w, v in zip(ws, p)]
            norm = sum(wpp)
            if norm == 0:
                raise DegeneracyError(f"folded norm h_{j} vanished; tau_{j + 1} = 0")
            self.h.append(Fraction(norm, dw * e * e))
            self.a.append(Fraction(sum(map(mul, wpp, xs)), dx * norm))
            if j >= 1:
                self.b.append(self.h[j] / self.h[j - 1])
            if j + 1 < n:
                nxt = three_term(xs, dx, -self.a[j], self.b[j], cur, prev)
                prev, cur = cur, lowest_terms(*nxt)

    @property
    def p_values(self) -> List[List[Fraction]]:
        return [[Fraction(v, e) for v in p] for p, e in self.columns]


class _FloatFold(FamilyValues):
    """Binary64 Lanczos on diag(x) from q_0 = sqrt(w) / |sqrt(w)|, each
    three-term step orthogonalized twice more against every earlier vector:
    the reconstruction of the folded Jacobi matrix from its spectral data
    (Golub & Welsch 1969; Gragg & Harrod 1984).  Its vectors are
    q_j[k] = sqrt(w_k) p_j(x_k) for the orthonormal p_j, so p_values holds
    orthonormal values.  a_j = q_j^T X q_j and b_j = |r_j|^2 are stored as
    computed; h_0 is the folded mass and h_j = h_{j-1} b_j.
    """

    exact = False

    def __init__(self, m: DiscreteMeasure, n: int, xs: List[float], ws: List[float]):
        self.measure, self.order, self.nodes = m, n, m.nodes
        self.a, self.b, self.h, self.p_values = [], [0.0], [], []
        vectors: List[List[float]] = []
        sqrt_w = [math.sqrt(w) for w in ws]
        mass = math.fsum(ws)
        q = [s / math.sqrt(mass) for s in sqrt_w]
        for j in range(n):
            vectors.append(q)
            self.p_values.append([qk / s for qk, s in zip(q, sqrt_w)])
            self.h.append(mass if j == 0 else self.h[-1] * self.b[j])
            self.a.append(math.fsum(x * qk * qk for x, qk in zip(xs, q)))
            if j + 1 == n:
                break
            off, prev = (math.sqrt(self.b[j]), vectors[-2]) if j else (0.0, q)
            r = [(x - self.a[j]) * qk - off * pk for x, qk, pk in zip(xs, q, prev)]
            for _ in range(2):
                for v in vectors:
                    c = math.fsum(rk * vk for rk, vk in zip(r, v))
                    r = [rk - c * vk for rk, vk in zip(r, v)]
            self.b.append(math.fsum(rk * rk for rk in r))
            q = [rk / math.sqrt(self.b[-1]) for rk in r]


def _float_support(m: DiscreteMeasure) -> Optional[Tuple[List[float], List[float]]]:
    """Binary64 folded nodes and weights if m is a double-mode measure with
    positive folded weights on pairwise distinct folded nodes, else None."""
    if m.is_exact() or any(isinstance(v, complex) for v in m.nodes + m.weights):
        return None
    xs, ws = (list(map(float, col)) for col in folded_support(m))
    ordered = sorted(xs)
    distinct = all(lo < hi for lo, hi in zip(ordered, ordered[1:]))
    return (xs, ws) if distinct and all(w > 0 for w in ws) else None


def _lift_exact(m: DiscreteMeasure) -> DiscreteMeasure:
    """The exact image of m, not checked for distinct nodes again: distinct
    floats lift to distinct Fractions, and an exact product of 1 is a float 1."""
    if m.is_exact():
        return m
    try:
        return DiscreteMeasure([Fraction(z) for z in m.nodes],
                               [Fraction(w) for w in m.weights], strict=False)
    except TypeError:
        raise AdmissibilityError("the folded walk needs real nodes and weights") from None


def _member_rows(z: Scalar, pvs: Sequence[Scalar], scale: Sequence[Scalar],
                 alpha: Sequence[Scalar], coef: Sequence[Scalar]):
    """Members 0..2n-1 at z and at 1/z from the folded values pvs[j] = p_j(z + 1/z).

    Even members are z^j pvs[j] / scale[j], reflected exactly for 1/z; odd
    members follow the recurrence line v_2j+1 = z (v_2j - coef_j v_2j-2) +
    alpha_j v_2j.  The running power and the division by z keep the rounding
    of the orthonormal tables.
    """
    n = len(pvs)
    vz, vr = [0] * (2 * n), [0] * (2 * n)
    zpow = 1
    for j, pv in enumerate(pvs):
        vz[2 * j] = zpow * pv / scale[j]
        vr[2 * j] = pv / (zpow * scale[j])
        zpow *= z
    for j in range(n):
        t = vz[2 * j] - (coef[j] * vz[2 * j - 2] if j >= 1 else 0)
        vz[2 * j + 1] = z * t + alpha[j] * vz[2 * j]
        t = vr[2 * j] - (coef[j] * vr[2 * j - 2] if j >= 1 else 0)
        vr[2 * j + 1] = t / z + alpha[j] * vr[2 * j]
    return vz, vr


def support_pairing(weights: Sequence[Scalar], node_rows, recip_rows, a: int, b: int) -> Scalar:
    """<f_a | f_b> by summation over the support, from value tables of the f_j;
    exact on exact tables and weights."""
    tot = 0
    for w, vz, vr in zip(weights, node_rows, recip_rows):
        tot += (vr[a] * vz[b] - vz[a] * vr[b]) * w
    return tot


def support_gram(weights: Sequence[Scalar], node_rows, recip_rows) -> List[List[Scalar]]:
    """Gram matrix <f_a | f_b> of every member of the value tables.  Each
    pairing with b >= a is summed once, the diagonal included so that a
    NaN or inf shows; the entry below is its exact negation (every term of
    <f_b | f_a> negates the matching term of <f_a | f_b>, in binary64 too)."""
    d = len(node_rows[0])
    gram = [[0] * d for _ in range(d)]
    for a in range(d):
        for b in range(a, d):
            gram[a][b] = support_pairing(weights, node_rows, recip_rows, a, b)
            if b > a:
                gram[b][a] = -gram[a][b]
    return gram


def skew_pattern_defect(gram: Sequence[Sequence[float]]) -> float:
    """Largest deviation of a Gram matrix from the canonical skew pattern:
    <f_2m | f_2m+1> = 1 = -<f_2m+1 | f_2m>, every other pairing 0."""
    from .numerics import nan_max

    worst = 0.0
    for a, row in enumerate(gram):
        for b, value in enumerate(row):
            expect = 0.0
            if a != b and a // 2 == b // 2:
                expect = 1.0 if a % 2 == 0 else -1.0
            worst = nan_max(worst, abs(value - expect))
    return worst


def evaluate_family(m: DiscreteMeasure, n: Optional[int] = None) -> FamilyValues:
    """Fold m once to order n (default: every node); the family read off it.

    A double-mode measure whose folded weights are all positive and whose
    folded nodes are pairwise distinct takes the float fold; every other
    measure (rational mode, a node in (0, 1) under a positive weight, a
    z / 1/z pair, a repeated node) takes the exact walk, with its errors.
    Even members come from the folded value table, qt_2j(z) =
    z^j p_j(z + 1/z) / sqrt(h_j) for monic p_j, reflected exactly for 1/z;
    odd ones from the evens, qt_2j+1 = z (qt_2j - sqrt(beta_j) qt_2j-2) +
    alpha_j qt_2j.
    """
    if n is None:
        n = m.size
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    if n > m.size:
        raise DegeneracyError(f"order {n} exceeds the measure's {m.size} nodes")
    support = _float_support(m)
    return _FloatFold(m, n, *support) if support else _FoldedWalk(m, n)


def recurrence_from_measure(m: DiscreteMeasure, n: Optional[int] = None) -> RecurrenceData:
    """Recurrence data of the fold evaluate_family picks: exact outputs for an
    exact measure, float outputs (from the float fold, or rounded once from
    the exact walk) for a double-mode one.
    """
    return evaluate_family(m, n).rec


def random_family(seed: int, n: int, mode: str = "double") -> FamilyValues:
    """Seeded admissible measure, folded to order n: nodes uniform in
    [1.2, 5.0] with pairwise gap >= 0.1, weights uniform in (0, 1].

    A double candidate is accepted by its own fold: a fold that raises, or
    a tau_k <= 1e-8 x the running scale max(1, |tau_1|, ..., |tau_k|),
    rejects it and the next one is drawn, up to 100 attempts.  In rational
    mode the sampled values are snapped to small exact fractions and the
    first candidate with the node gap is folded: its folded weights
    (z - 1/z) w are positive and its folded nodes distinct, so every exact
    tau_k is positive.  The returned fold is the one every consumer reads.
    """
    validate_mode(mode)
    if n < 1:
        raise ValueError("order must be >= 1")
    rng = random.Random(seed)
    lo, hi = NODE_RANGE
    for _ in range(GENERATOR_MAX_ATTEMPTS):
        nodes = [rng.uniform(lo, hi) for _ in range(n)]
        weights = [1.0 - rng.random() for _ in range(n)]  # uniform in (0, 1]
        if any(abs(a - b) < NODE_MIN_GAP for i, a in enumerate(nodes) for b in nodes[:i]):
            continue
        if mode == "rational":
            return evaluate_family(DiscreteMeasure(
                [Fraction(z).limit_denominator(10**6) for z in nodes],
                [Fraction(w).limit_denominator(10**6) for w in weights]), n)
        try:
            family = evaluate_family(DiscreteMeasure(nodes, weights), n)
            taus = family.rec.tau
        except (LsopkitError, ArithmeticError):
            continue
        scale = 1.0
        for t in taus[1:]:
            scale = max(scale, abs(t))
            if t <= TAU_DEGENERACY_RELATIVE * scale:
                break
        else:
            return family
    raise GenerationError(f"no admissible measure found for seed={seed}, order={n} "
                          f"after {GENERATOR_MAX_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# the polynomials themselves (production coefficient route)
# ---------------------------------------------------------------------------

def lsop_via_recurrence(rec: RecurrenceData, n: int) -> List[LaurentPoly]:
    """Monic q_0..q_2n by the coupled two-term recurrences: on integer forms
    (exact.axpy_form) for exact coefficients, with one Fraction per
    coefficient at the end, and on LaurentPoly arithmetic for float ones."""
    if not 0 <= n <= rec.order:
        raise ValueError(f"order {n} is outside 0..{rec.order} of the recurrence data")
    if all(map(is_exact, rec.alpha[:n + 1] + rec.beta[:n])):
        from .exact import axpy_form, form_poly, lowest_form, shifted_form

        # z x - s (z y) is z (x - s y), coefficients and types alike
        forms = [({0: 1}, 1, {0}), ({1: 1}, 1, {1})]
        for k in range(n):
            if k >= 1:
                q = shifted_form(axpy_form(forms[2 * k], -rec.beta[k], forms[2 * k - 2]))
                forms.append(lowest_form(axpy_form(q, rec.alpha[k], forms[2 * k])))
            q = shifted_form(axpy_form(forms[2 * k + 1], -rec.alpha[k + 1], forms[2 * k]))
            forms.append(lowest_form(axpy_form(q, 1, forms[2 * k])))
        return [form_poly(f) for f in forms[: 2 * n + 1]]
    from .laurent import LaurentPoly

    z = LaurentPoly.monomial(1)
    qs = [LaurentPoly.constant(1), z]
    for k in range(n):
        if k >= 1:
            q_odd = z * qs[2 * k] - rec.beta[k] * (z * qs[2 * k - 2]) + rec.alpha[k] * qs[2 * k]
            qs.append(q_odd)
        q_even = z * qs[2 * k + 1] - rec.alpha[k + 1] * (z * qs[2 * k]) + qs[2 * k]
        qs.append(q_even)
    return qs[: 2 * n + 1]
