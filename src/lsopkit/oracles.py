"""Independent reference routes: the constructions only the claim suite runs.

Each route here rebuilds something the production pipeline (measure ->
folded walk -> LSOP -> pencil -> butterfly) computes another way, so that
verify can compare the two:

* the moment sums of a measure: skew moments
  mu_n = <1|z^n> = sum_k (z_k^n - z_k^-n) w_k and folded moments
  c_i = sum_k (z_k + 1/z_k)^i (z_k - 1/z_k) w_k, linked through Chebyshev
  polynomials of the second kind, mu_n = sum_k (-1)^k C(n-1-k, k) c_{n-1-2k}
  (mu_from_c); MomentTable tabulates both, and skew_inner sums <f|g>
  directly over the support;
* the moment-table route: q_n is the skew-moment table bordered by a column
  of monomials, over tau.  pfaffian_route is its one entry point in both
  scalar modes: pfaffian_route(mu, n).member(n) is q_n and
  pfaffian_route(mu, 2n).recurrence_data() holds tau_m and sigma_m through
  n.  An exact table is scaled per index to the int table d_i d_j mu_{j-i}
  (balanced_scaling), which gives every row from one unpivoted
  fraction-free elimination; the rows that elimination does not reach,
  those past a vanishing tau and every row of a float table, take one
  pivoted Pfaffian per minor of a sub-table (bordered_pfaffian);
* the coefficient references: even_to_op folds an even member into the
  monic orthogonal polynomial in w = z + 1/z, and op_via_hankel,
  hankel_det, shifted_hankel_det and verify_pfaffian_det are its
  Hankel-determinant counterparts;
* the squared-variable comparison family q_2n = p_n(z^2),
  q_2n+1 = z p_n(z^2) (kodama_sops, kodama_residuals);
* the alternating-basis family by skew Gram-Schmidt in the alternating
  basis (gram_schmidt_pairs, gram_schmidt_lsolp).

Only verify and the tests import this module, so no other subcommand
compiles it.  The exact Hankel minors (exact.hankel_minors) are imported
inside the exact branch that runs them, so a double-mode run compiles no
integer kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DegeneracyError, StructureError
from .laurent import LaurentPoly, homogeneous, int_power
from .lsolp import LsolpFamily, require_orthonormal
from .lsop import TAU_DEGENERACY_RELATIVE, RecurrenceData
from .modes import Scalar, is_exact
from .moments import DiscreteMeasure
from .numerics import dense_det, solve_linear
from .pfaffian import SkewArray, pf_indices, pf_leading_borders

# largest relative mirror defect of a float even member that even_to_op accepts
REDUCTION_SYMMETRY_TOL = 1e-8

ONE = LaurentPoly.constant(1)


# ---------------------------------------------------------------------------
# moment sums
# ---------------------------------------------------------------------------

def skew_inner(m: DiscreteMeasure, f: LaurentPoly, g: LaurentPoly) -> Scalar:
    """<f|g> by direct summation over the support.

    Exact input adds one Fraction per node z = p/q: with (F, D_f), (G, D_g)
    the integer forms of f, g on [-M, M] (laurent.homogeneous), M the largest
    |exponent|, the term is (F(q,p) G(p,q) - F(p,q) G(q,p)) w / (D_f D_g (pq)^2M)."""
    ff = f.integer_form() if m.is_exact() else None
    gf = ff and g.integer_form()
    if gf:
        (fi, df), (gi, dg) = ff, gf
        top = max(map(abs, [*fi, *gi]), default=0)
        total = 0
        for z, w in zip(m.nodes, m.weights):
            p, q = z.numerator, z.denominator
            num = (homogeneous(fi, -top, top, q, p) * homogeneous(gi, -top, top, p, q)
                   - homogeneous(fi, -top, top, p, q) * homogeneous(gi, -top, top, q, p))
            total += Fraction(num * w.numerator, df * dg * (p * q) ** (2 * top) * w.denominator)
        return total
    total = 0
    for z, w in zip(m.nodes, m.weights):
        zi = 1 / z
        total += (f(zi) * g(z) - f(z) * g(zi)) * w
    return total


def mu_moment(m: DiscreteMeasure, n: int) -> Scalar:
    """Skew moment mu_n = <1|z^n> = sum_k (z_k^n - z_k^-n) w_k.

    Exact input adds one Fraction per node z = p/q:
    sign(n) (p^2|n| - q^2|n|) w / (pq)^|n|."""
    total = 0
    if m.is_exact():
        e = abs(n)
        sign = -1 if n < 0 else 1
        for z, w in zip(m.nodes, m.weights):
            p, q = z.numerator, z.denominator
            total += Fraction(sign * (p ** (2 * e) - q ** (2 * e)) * w.numerator,
                              (p * q) ** e * w.denominator)
        return total
    for z, w in zip(m.nodes, m.weights):
        zi = 1 / z
        total += (int_power(z, n) - int_power(zi, n)) * w
    return total


def c_moment(m: DiscreteMeasure, i: int) -> Scalar:
    """Folded moment c_i = sum_k (z_k + 1/z_k)^i (z_k - 1/z_k) w_k.

    Exact input adds one Fraction per node z = p/q:
    (p^2 + q^2)^i (p^2 - q^2) w / (pq)^(i+1)."""
    if i < 0:
        raise ValueError("c moments are indexed by non-negative integers")
    total = 0
    if m.is_exact():
        for z, w in zip(m.nodes, m.weights):
            p, q = z.numerator, z.denominator
            total += Fraction((p * p + q * q) ** i * (p * p - q * q) * w.numerator,
                              (p * q) ** (i + 1) * w.denominator)
        return total
    for z, w in zip(m.nodes, m.weights):
        zi = 1 / z
        total += int_power(z + zi, i) * (z - zi) * w
    return total


class MomentTable(NamedTuple):
    """Skew moments mu_n (n in Z) and folded moments c_i (i >= 0) of one measure.

    A table of order N serves the family through q_2N: its moment tables
    read mu_n for |n| <= 2N, its Hankel routes c_i for i <= 2N.  exact tells
    whether every tabulated mu_n is exact, which the Pfaffian routes need
    before they read an entry (an order-0 table has none but mu_0).
    """

    mu: Dict[int, Scalar]
    c: Dict[int, Scalar]
    order: int

    @property
    def exact(self) -> bool:
        return all(is_exact(v) for v in self.mu.values())

    @staticmethod
    def from_measure(m: DiscreteMeasure, order: int) -> "MomentTable":
        """Tabulate mu_n for |n| <= 2*order and c_i for i <= 2*order."""
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        hi = 2 * order
        mu = {}
        for n in range(0, hi + 1):
            v = mu_moment(m, n)
            mu[n] = v
            mu[-n] = -v
        c = {i: c_moment(m, i) for i in range(hi + 1)}
        return MomentTable(mu=mu, c=c, order=order)

    def mu_at(self, n: int) -> Scalar:
        if n not in self.mu:
            raise KeyError(f"mu_{n} not tabulated (order {self.order})")
        return self.mu[n]

    def c_list(self, count: int) -> List[Scalar]:
        return [self.c[i] for i in range(count)]


def mu_from_c(c: Sequence[Scalar]) -> List[Scalar]:
    """Map folded moments c_0..c_{m-1} to skew moments mu_1..mu_m.

    mu_n = sum_{k=0}^{floor((n-1)/2)} (-1)^k C(n-1-k, k) c_{n-1-2k}.
    """
    out: List[Scalar] = []
    for n in range(1, len(c) + 1):
        acc = 0
        for k in range((n - 1) // 2 + 1):
            acc += (-1) ** k * math.comb(n - 1 - k, k) * c[n - 1 - 2 * k]
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# recurrence coefficients and members: the moment-table (Pfaffian) route
# ---------------------------------------------------------------------------

def moment_skew_array(mu: MomentTable, exponents: Sequence[int]) -> SkewArray:
    """Skew table over positions p < len(exponents) with entries
    <z^e_p|z^e_q> = mu_{e_q - e_p}."""
    return SkewArray.from_entry_fn(len(exponents),
                                   lambda i, j: mu.mu_at(exponents[j] - exponents[i]))


def bordered_pfaffian(table: SkewArray, exponents: Sequence[int]) -> LaurentPoly:
    """The Pfaffian of an odd-size skew table bordered by the column of
    monomials z^e_p, expanded along that column: the coefficient of z^e_p is
    (-1)^p Pf(table without position p), one pivoted Pfaffian per minor."""
    positions = range(len(exponents))
    return LaurentPoly({e: (-1) ** p * pf_indices(table, [i for i in positions if i != p])
                        for p, e in enumerate(exponents)})


class PfaffianRoute(NamedTuple):
    """The moment-table route through degree len(rows) - 1 (pfaffian_route).

    An exact table is eliminated as the int congruence D A D, D = diag(d),
    so its Pfaffian over an index set S is prod_{s in S} d_s times that of
    A.  rows[i] is the table over S = {0..2m-1, i}, m = i // 2, bordered by
    the monomial column (bordered_pfaffian): its z^c coefficient is
    prod_{s in S} d_s / d_c times that of tau_m q_i, an int.  d is None for
    a float table, whose rows are those of A itself (every d_s = 1).
    """

    rows: Tuple[LaurentPoly, ...]
    d: Optional[Tuple[int, ...]]

    def member(self, n: int) -> LaurentPoly:
        """Monic q_n, q_n[c] = rows[n][c] d_c / (rows[n][n] d_n):

        q_2m(z)   = sum_k (-1)^k z^k Pf({0..2m} \\ {k}) / tau_m
        q_2m+1(z) = z^(2m+1) + sum_{k<2m} (-1)^k z^k Pf(({0..2m-1} \\ {k}) + {2m+1}) / tau_m

        so the odd members have no z^2m term by construction."""
        if not 0 <= n < len(self.rows):
            raise ValueError(f"q_{n} requested from a route through degree {len(self.rows) - 1}")
        row = self.rows[n]
        tau = row.coeff(n)
        if tau == 0:
            raise DegeneracyError(f"tau_{n // 2} = 0: q_{n} does not exist")
        if self.d is None:
            return LaurentPoly({e: c / tau for e, c in row.coeffs.items()})
        d = self.d
        den = tau * d[n]
        return LaurentPoly({e: Fraction(c * d[e], den) for e, c in row.coeffs.items()})

    def recurrence_data(self) -> RecurrenceData:
        """tau_k = Pf(0..2k-1) and sigma_k = Pf(0..2k-2, 2k), read off every
        even row: with P = prod_{s<2k} d_s, tau_k = rows[2k][2k] / P and
        sigma_k = -rows[2k][2k-1] d_{2k-1} / (P d_{2k}).  A vanishing tau_k
        (exactly on an exact route, below 1e-8 x the running scale
        max(1, |tau_j|, |sigma_j| : j <= k) on a float one) raises, since the
        family does not exist."""
        tau, sigma = [], []
        running = 1.0
        below = 1  # prod_{s < 2k} d_s on an exact route
        for k, row in enumerate(self.rows[::2]):
            if self.d is None:
                # / 1 keeps the float route's scalar types: an int 0 or 1 reads 0.0 or 1.0
                t, s = row.coeff(2 * k) / 1, -row.coeff(2 * k - 1) / 1
                running = max(running, abs(float(t)), abs(float(s)))
                if abs(float(t)) <= TAU_DEGENERACY_RELATIVE * running:
                    raise DegeneracyError(
                        f"tau_{k} = {float(t):.3e} below degeneracy threshold "
                        f"({TAU_DEGENERACY_RELATIVE:g} x scale {running:.3e})"
                    )
            else:
                d = self.d
                t = Fraction(row.coeff(2 * k), below)
                s = (Fraction(-row.coeff(2 * k - 1) * d[2 * k - 1], below * d[2 * k])
                     if k else Fraction(0))
                if t == 0:
                    raise DegeneracyError(f"tau_{k} = 0: the skew orthogonal family does not exist")
                below *= math.prod(d[2 * k:2 * k + 2])
            tau.append(t)
            sigma.append(s)
        return _recurrence_from_minors(tau, sigma)


def balanced_scaling(mu: MomentTable, n: int) -> Tuple[int, ...]:
    """Per-index scales d_0..d_n that make every d_i d_j mu_{j-i} an int.

    The indices are placed outward from the centre h = n // 2 (h, h-1, h+1,
    h-2, ...), d_h = 1, and each new index i takes the least d_i that clears
    its entries against every index j placed before it:
    d_i = lcm_j den(mu_|i-j|) / gcd(den(mu_|i-j|), d_j).  On a measure,
    whose mu_k have denominators like W P^k, d_i grows like P^|i-h|, where
    one lcm L for the whole table puts L^m into every 2m-index Pfaffian."""
    den = [mu.mu_at(k).denominator for k in range(n + 1)]
    h = n // 2
    d = [0] * (n + 1)
    placed = []
    for i in sorted(range(n + 1), key=lambda i: (abs(i - h), i)):
        pairs = ((den[abs(i - j)], d[j]) for j in placed)
        d[i] = math.lcm(*(q // math.gcd(q, dj) for q, dj in pairs))
        placed.append(i)
    return tuple(d)


def pfaffian_route(mu: MomentTable, n: int) -> PfaffianRoute:
    """q_0..q_n, and tau and sigma through n // 2, of a moment table.

    The route table is the int table d_i d_j mu_{j-i} (balanced_scaling) of
    an exact moment table, and the float moment table itself otherwise.  An
    exact one gives its rows from one pf_leading_borders elimination; the
    rows it does not reach, those past a vanishing tau and every row of a
    float one, take bordered_pfaffian's pivoted Pfaffian per minor of a
    sub-table of the route table.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    rows, d = [], None
    if mu.exact:
        d = balanced_scaling(mu, n)
        lag = [(v.numerator, v.denominator) for v in map(mu.mu_at, range(n + 1))]
        table = SkewArray.from_entry_fn(
            n + 1, lambda i, j: lag[j - i][0] * (d[i] * d[j] // lag[j - i][1]))
        rows = [LaurentPoly(dict(enumerate(row))) for row in pf_leading_borders(table)[0]]
    else:
        table = moment_skew_array(mu, range(n + 1))
    for i in range(len(rows), n + 1):
        exponents = list(range(2 * (i // 2))) + [i]
        rows.append(bordered_pfaffian(table.submatrix(exponents), exponents))
    return PfaffianRoute(rows=tuple(rows), d=d)


def _recurrence_from_minors(tau: List[Scalar], sigma: List[Scalar]) -> RecurrenceData:
    n = len(tau) - 1
    alpha = [tau[0] * 0] + [sigma[k] / tau[k] for k in range(1, n + 1)]
    beta = [tau[0] * 0]
    for k in range(1, n + 1):
        if k < n:
            beta.append(tau[k + 1] * tau[k - 1] / (tau[k] * tau[k]))
        else:
            beta.append(tau[0] * 0)  # finite-rank convention beta_order = 0
    return RecurrenceData(order=n, alpha=tuple(alpha), beta=tuple(beta),
                          tau=tuple(tau), sigma=tuple(sigma))


# ---------------------------------------------------------------------------
# reduction of even members to orthogonal polynomials in w = z + 1/z
# ---------------------------------------------------------------------------

def even_to_op(q2n: LaurentPoly) -> LaurentPoly:
    """The unique monic P with q_2n(z) = z^n P(z + 1/z).

    Peels c_k (z + 1/z)^k = c_k sum_i C(k, i) z^(k-2i) from the top.  Exact input
    must be exactly self-reciprocal; float input is accepted up to a
    relative symmetry defect of REDUCTION_SYMMETRY_TOL and symmetrized
    before peeling (rounding breaks the mirror identity bitwise).
    """
    if q2n.is_zero():
        raise StructureError("zero polynomial has no reduction")
    order = q2n.max_exp
    if order % 2 or q2n.min_exp < 0:
        raise StructureError(f"expected an ordinary polynomial of even degree, got exponents "
                             f"[{q2n.min_exp}, {order}]")
    exact = all(is_exact(c) for c in q2n.coeffs.values())
    if exact:
        if not q2n.is_self_reciprocal(order):
            raise StructureError("polynomial is not self-reciprocal; no representation in z + 1/z")
        work = q2n
    else:
        scale = max(q2n.max_abs_coeff(), 1.0)
        defect = max(abs(float(q2n.coeff(order - e)) - float(c)) for e, c in q2n.coeffs.items())
        if defect > REDUCTION_SYMMETRY_TOL * scale:
            raise StructureError(f"symmetry defect {defect:.3e} exceeds "
                                 f"{REDUCTION_SYMMETRY_TOL:g} x scale; "
                                 "no representation in z + 1/z")
        sym = {}
        for e in set(q2n.coeffs) | {order - e for e in q2n.coeffs}:
            sym[e] = 0.5 * (float(q2n.coeff(e)) + float(q2n.coeff(order - e)))
        work = LaurentPoly(sym)
    n = order // 2
    r = work.shift(-n)
    coeffs = {}
    for k in range(n, -1, -1):
        c = r.coeff(k)
        if c != 0:
            coeffs[k] = c
            r = r - LaurentPoly({k - 2 * i: math.comb(k, i) for i in range(k + 1)}).scale(c)
    if exact and not r.is_zero():
        raise StructureError("reduction left a remainder; input violates Laurent symmetry")
    return LaurentPoly(coeffs)


def op_via_hankel(c: Sequence[Scalar], n: int) -> LaurentPoly:
    """Monic degree-n orthogonal polynomial of the moment sequence c.

    Solves the Hankel system sum_j x_j c_{i+j} = -c_{i+n} (i < n) by dense
    elimination; equivalent to the bordered-determinant ratio.
    """
    if n == 0:
        return ONE
    if len(c) < 2 * n:
        raise ValueError(f"need {2 * n} moments for degree {n}, got {len(c)}")
    h = [[c[i + j] for j in range(n)] for i in range(n)]
    rhs = [-c[i + n] for i in range(n)]
    try:
        xs = solve_linear(h, rhs)
    except ValueError as exc:
        raise DegeneracyError(f"Hankel block of order {n} is singular") from exc
    coeffs = {j: xs[j] for j in range(n)}
    coeffs[n] = 1
    return LaurentPoly(coeffs)


def hankel_det(c: Sequence[Scalar], n: int) -> Scalar:
    """det (c_{i+j}), 0 <= i, j < n; the order-0 determinant is 1."""
    return dense_det([[c[i + j] for j in range(n)] for i in range(n)])


def shifted_hankel_det(c: Sequence[Scalar], n: int) -> Scalar:
    """Hankel variant with the last column advanced by one index.

    Rows (c_i, ..., c_{i+n-2}, c_{i+n}); the order-0 value is 0 by the
    sigma_0 convention.
    """
    if n == 0:
        return 0
    rows = [[c[i + j] for j in range(n - 1)] + [c[i + n]] for i in range(n)]
    return dense_det(rows)


class PfaffianDetReport(NamedTuple):
    """Largest |tau_k - Hankel_k| or |sigma_k - shifted Hankel_k|, and relative."""

    max_absolute: float
    max_relative: float


def verify_pfaffian_det(rec: RecurrenceData, c: Sequence[Scalar], n: int) -> PfaffianDetReport:
    """Check tau_k = Hankel_k(c) and sigma_k = shifted-Hankel_k(c) for k <= n,
    relative to max(1, |tau_k|, |sigma_k|) too; exact agreement reads (0, 0).
    Exact moments take every determinant through the first vanishing
    Hankel minor from one elimination (exact.hankel_minors); the orders
    past it, and every order of float moments, a pivoted dense_det each."""
    dets = []
    if all(map(is_exact, c[:2 * n])):
        from .exact import hankel_minors

        dets = hankel_minors(c, n)
    dets += [(hankel_det(c, k), shifted_hankel_det(c, k)) for k in range(len(dets), n + 1)]
    max_abs = max_rel = 0.0
    for t, s, (hk, sk) in zip(rec.tau, rec.sigma, dets):
        td, sd = abs(float(t - hk)), abs(float(s - sk))
        denom = max(1.0, abs(float(t)), abs(float(s)))
        max_abs = max(max_abs, td, sd)
        max_rel = max(max_rel, td / denom, sd / denom)
    return PfaffianDetReport(max_abs, max_rel)


# ---------------------------------------------------------------------------
# squared-variable comparison construction
# ---------------------------------------------------------------------------

def kodama_sops(a: Sequence[Scalar], b: Sequence[Scalar], n: int) -> List[LaurentPoly]:
    """Skew family q_2k = p_k(z^2), q_2k+1 = z p_k(z^2) from monic three-term
    coefficients (a_k, b_k); returns q_0..q_{2n+1}."""
    if len(a) < n or (n >= 2 and len(b) < n):
        raise ValueError(f"need {n} a-coefficients and {n} b-coefficients")
    # p_k in z^2 directly: p_{k+1}(u) = (u - a_k) p_k(u) - b_k p_{k-1}(u), u = z^2
    ps = [ONE]
    if n >= 1:
        u = LaurentPoly.monomial(2)
        ps.append(u - LaurentPoly.constant(a[0]))
        for k in range(1, n):
            ps.append((u - LaurentPoly.constant(a[k])) * ps[k] - ps[k - 1].scale(b[k]))
    qs = []
    for k in range(n + 1):
        qs.append(ps[k])
        qs.append(ps[k].shift(1))
    return qs


def kodama_residuals(qs: Sequence[LaurentPoly], a: Sequence[Scalar], b: Sequence[Scalar]) -> List[LaurentPoly]:
    """Defects of z q_2k = q_2k+1 and z q_2k+1 = q_2k+2 + a_k q_2k + b_k q_2k-2.

    All returned polynomials are identically zero when qs came from
    kodama_sops with the same coefficients.
    """
    n = len(qs) // 2 - 1
    out = []
    for k in range(n + 1):
        out.append(qs[2 * k].shift(1) - qs[2 * k + 1])
        if k < n:
            res = qs[2 * k + 1].shift(1) - qs[2 * k + 2] - qs[2 * k].scale(a[k])
            if k >= 1:
                res = res - qs[2 * k - 2].scale(b[k])
            out.append(res)
    return out


# ---------------------------------------------------------------------------
# independent construction: skew Gram-Schmidt in the alternating basis
# ---------------------------------------------------------------------------

def alternating_exponent(j: int) -> int:
    """Exponent of the j-th alternating basis member: 0, -1, 1, -2, 2, ..."""
    if j == 0:
        return 0
    return (j + 1) // 2 if j % 2 == 0 else -((j + 1) // 2)


def gram_schmidt_pairs(m: DiscreteMeasure, count: int):
    """Unnormalized skew Gram-Schmidt pairs (P_2k, P_2k+1, kappa_k).

    P_2k has leading alternating-basis coefficient 1; P_2k+1 additionally
    has vanishing z^k coefficient (the shear convention).  Both hold by
    construction: the completed pairs span the exponents -k..k-1, so the
    projection never touches z^k.  Exact on exact measures.  Raises on a
    vanishing pairing kappa_k (rank deficiency).
    """
    pairs = []
    npairs = (count + 1) // 2
    for k in range(npairs):
        p_even = _project(m, LaurentPoly.monomial(alternating_exponent(2 * k)), pairs)
        p_odd = _project(m, LaurentPoly.monomial(alternating_exponent(2 * k + 1)), pairs)
        kappa = skew_inner(m, p_even, p_odd)
        if kappa == 0 or (not is_exact(kappa) and abs(float(kappa)) < 1e-13):
            raise DegeneracyError(f"skew pairing of pair {k} vanished (rank-deficient support)")
        pairs.append((p_even, p_odd, kappa))
    return pairs


def gram_schmidt_lsolp(m: DiscreteMeasure, count: int) -> LsolpFamily:
    """Skew orthonormal family by Gram-Schmidt in the alternating basis.

    Normalization matches the shift construction: the even leading
    coefficient is positive and the odd leading coefficient is its negative.
    An odd count rounds up to the full pair; the requested members are the
    first `count` columns of the value tables.
    """
    pairs = gram_schmidt_pairs(m, count)
    members: List[LaurentPoly] = []
    for k, (p_even, p_odd, kappa) in enumerate(pairs):
        p = p_even.coeff(k)
        s = p_odd.coeff(-k - 1)
        u_sq = -float(s) / (float(p) * float(kappa))
        if not u_sq > 0:
            raise DegeneracyError(f"pair {k} normalization square {u_sq} not positive")
        u = math.sqrt(u_sq)
        v = -u * float(p) / float(s)
        members.append(p_even.as_float().scale(u))
        members.append(p_odd.as_float().scale(v))
    fam = _family_from_polys(m, members)
    require_orthonormal(fam, "gram_schmidt_lsolp")
    return fam


def _family_from_polys(m: DiscreteMeasure, members: Sequence[LaurentPoly]) -> LsolpFamily:
    node_vals, recip_vals = [], []
    for z in m.nodes:
        zf = float(z)
        node_vals.append(tuple(float(p(zf)) for p in members))
        recip_vals.append(tuple(float(p(1.0 / zf)) for p in members))
    return LsolpFamily(measure=m, order=len(members) // 2,
                       node_values=tuple(node_vals), recip_values=tuple(recip_vals))


def _project(m: DiscreteMeasure, v: LaurentPoly, pairs) -> LaurentPoly:
    # remove components along completed pairs: v -= <E|v>/k F - <F|v>/k E
    for (e, f, kappa) in pairs:
        ce = skew_inner(m, e, v)
        cf = skew_inner(m, f, v)
        if ce != 0:
            v = v - f.scale(ce / kappa)
        if cf != 0:
            v = v + e.scale(cf / kappa)
    return v
