"""Discrete Laurent skew inner products and their moment systems.

A measure is a finite list of node/weight pairs (z_k, w_k).  The bilinear
form is

    <f|g> = sum_k ( f(1/z_k) g(z_k) - f(z_k) g(1/z_k) ) w_k,

which is skew (<f|f> = 0) and shift-invariant: <z^(i+k)|z^(j+k)> = <z^i|z^j>.
Two moment sequences are attached to a measure:

* skew moments   mu_n = <1|z^n> = sum_k (z_k^n - z_k^-n) w_k,
* folded moments c_i  = sum_k (z_k + 1/z_k)^i (z_k - 1/z_k) w_k,

linked through Chebyshev polynomials of the second kind:
mu_n = sum_k (-1)^k C(n-1-k, k) c_{n-1-2k}.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence

from .laurent import LaurentPoly, homogeneous, int_power
from .modes import Scalar, is_exact


class _Support(NamedTuple):
    nodes: tuple
    weights: tuple


class DiscreteMeasure(_Support):
    """Finite node/weight list defining the skew inner product.

    Canonical measures keep every node real with |z| > 1 (the pair {z, 1/z}
    carries the same spectral content, so one representative is stored);
    the inner-product layer itself only needs nodes to be nonzero, distinct,
    and not mutually reciprocal.  Pass strict=False to skip the distinctness
    checks when deliberately building a degenerate measure.  Int nodes and
    weights are stored as Fractions; non-finite ones are refused.
    """

    __slots__ = ()

    def __new__(cls, nodes: Sequence[Scalar], weights: Sequence[Scalar], strict: bool = True):
        nodes = tuple(_checked_scalar(z, "node") for z in nodes)
        weights = tuple(_checked_scalar(w, "weight") for w in weights)
        if len(nodes) != len(weights):
            raise ValueError(f"{len(nodes)} nodes but {len(weights)} weights")
        if any(z == 0 for z in nodes):
            raise ValueError("nodes must be nonzero")
        if any(w == 0 for w in weights):
            raise ValueError("weights must be nonzero")
        if strict:
            for i, zi in enumerate(nodes):
                for zj in nodes[i + 1:]:
                    if zi == zj:
                        raise ValueError(f"duplicate node {zi}")
                    if zi * zj == 1:
                        raise ValueError(f"nodes {zi} and {zj} are reciprocal")
        return super().__new__(cls, nodes, weights)

    @classmethod
    def _make(cls, fields):  # so that _replace validates its copy
        return cls(*fields)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def is_exact(self) -> bool:
        return all(is_exact(z) for z in self.nodes) and all(is_exact(w) for w in self.weights)

    def as_float(self) -> "DiscreteMeasure":
        return DiscreteMeasure([float(z) for z in self.nodes], [float(w) for w in self.weights])


def _checked_scalar(x: Scalar, what: str) -> Scalar:
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (float, complex)) and not cmath.isfinite(x):
        raise ValueError(f"{what} {x} is not finite")
    return x


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
