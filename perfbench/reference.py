"""References computed apart from the program, with the standard library only.

* tau_k as exact Hankel determinants det(c_{i+j}) of the folded moments
  c_i = sum (z + 1/z)^i (z - 1/z) w;
* eigenvalues of a symmetric tridiagonal matrix by Sturm-sequence bisection;
* unfolding lambda -> the roots of z^2 - lambda z + 1 = 0;
* a matching distance between two spectra.

self_check() tests these against closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence


def folded_moments(nodes: Sequence, weights: Sequence, count: int) -> List[Fraction]:
    """Exact c_0..c_{count-1}; scalars may be floats, ints or "p/q" strings."""
    zs = [Fraction(z) for z in nodes]
    ws = [Fraction(w) for w in weights]
    out = []
    for i in range(count):
        out.append(sum(((z + 1 / z) ** i) * (z - 1 / z) * w for z, w in zip(zs, ws)))
    return out


def hankel_taus(nodes: Sequence, weights: Sequence, n: int) -> List[Fraction]:
    """tau_0..tau_n: leading principal minors det(c_{i+j})_{i,j<k} of the
    Hankel matrix of folded moments, from the pivots of one exact
    elimination (the matrix is positive definite for canonical measures)."""
    c = folded_moments(nodes, weights, 2 * n - 1)
    h = [[c[i + j] for j in range(n)] for i in range(n)]
    taus = [Fraction(1)]
    for k in range(n):
        pivot = h[k][k]
        if pivot <= 0:
            raise ValueError(f"Hankel matrix not positive definite at {k}")
        taus.append(taus[-1] * pivot)
        for i in range(k + 1, n):
            f = h[i][k] / pivot
            if f:
                row_i, row_k = h[i], h[k]
                for j in range(k + 1, n):
                    row_i[j] -= f * row_k[j]
    return taus


def sturm_count(diag: Sequence[float], off: Sequence[float], x: float) -> int:
    """Number of eigenvalues of T below x (negative pivots of T - xI)."""
    count = 0
    d = 1.0
    for i, a in enumerate(diag):
        e2 = off[i - 1] ** 2 if i else 0.0
        d = (a - x) - (e2 / d if i else 0.0)
        if d == 0.0:
            d = -1e-300
        if d < 0:
            count += 1
    return count


def tridiagonal_eigs(diag: Sequence[float], off: Sequence[float]) -> List[float]:
    """Ascending eigenvalues of a symmetric tridiagonal matrix by bisection."""
    n = len(diag)
    radius = [abs(off[i - 1]) if i else 0.0 for i in range(n)]
    for i in range(n - 1):
        radius[i] += abs(off[i])
    lo = min(a - r for a, r in zip(diag, radius)) - 1.0
    hi = max(a + r for a, r in zip(diag, radius)) + 1.0
    eigs = []
    for k in range(n):
        a, b = lo, hi
        while b - a > 4e-16 * max(1.0, abs(a), abs(b)):
            mid = 0.5 * (a + b)
            if sturm_count(diag, off, mid) > k:
                b = mid
            else:
                a = mid
        eigs.append(0.5 * (a + b))
    return eigs


def unfold(lambdas: Sequence[float]) -> List[complex]:
    """Both roots of z^2 - lambda z + 1 = 0 for each lambda."""
    out: List[complex] = []
    for lam in lambdas:
        disc = lam * lam - 4.0
        if disc >= 0:
            z = (lam + math.copysign(math.sqrt(disc), lam)) / 2.0
            out += [complex(z), complex(1.0 / z)]
        else:
            im = math.sqrt(-disc) / 2.0
            out += [complex(lam / 2.0, im), complex(lam / 2.0, -im)]
    return out


def spectrum_miss(computed: Sequence[complex], reference: Sequence[complex]) -> float:
    """Largest relative miss |z - z_ref| / max(1, |z_ref|) under a greedy
    nearest pairing; inf when the counts differ."""
    if len(computed) != len(reference):
        return math.inf
    left = list(computed)
    worst = 0.0
    for z in sorted(reference, key=lambda v: (v.real, v.imag)):
        i = min(range(len(left)), key=lambda j: abs(left[j] - z))
        worst = max(worst, abs(left[i] - z) / max(1.0, abs(z)))
        left.pop(i)
    return worst


def relative_miss(computed: Sequence, reference: Sequence[Fraction]) -> float:
    """Largest |x - x_ref| / |x_ref| over two equally long sequences."""
    if len(computed) != len(reference):
        return math.inf
    worst = 0.0
    for x, ref in zip(computed, reference):
        worst = max(worst, abs(float(Fraction(x) - ref)) / abs(float(ref)))
    return worst


def self_check() -> List[str]:
    """Test the references against closed forms; returns the failures."""
    failures = []
    for n in (1, 2, 8, 16, 32):
        for c, s in ((5.0, 1.0), (0.0, 0.8), (-3.5, 0.4)):
            got = tridiagonal_eigs([c] * n, [s] * (n - 1))
            want = sorted(c + 2 * s * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1))
            miss = max(abs(a - b) for a, b in zip(got, want))
            if miss > 1e-12 * max(1.0, abs(c) + 2 * s):
                failures.append(f"bisection misses c={c} s={s} n={n} by {miss:.3e}")
    for lam in (5.0, -2.5, 1.0, -0.3):
        for z in unfold([lam]):
            if abs(z * z - lam * z + 1) > 1e-14 * (1 + abs(z)) ** 2:
                failures.append(f"unfolding of {lam} gives non-root {z}")
    # one node z with weight w: tau_1 = c_0 = (z - 1/z) w exactly
    z, w = Fraction(3, 2), Fraction(2, 7)
    if hankel_taus([z], [w], 1)[1] != (z - 1 / z) * w:
        failures.append("tau_1 of a one-node measure is not (z - 1/z) w")
    # two nodes: tau_2 = w1 w2 (x1 - x2)^2 over folded nodes/weights
    nodes, weights = [Fraction(2), Fraction(3)], [Fraction(1, 3), Fraction(1, 5)]
    xs = [v + 1 / v for v in nodes]
    om = [(v - 1 / v) * u for v, u in zip(nodes, weights)]
    if hankel_taus(nodes, weights, 2)[2] != om[0] * om[1] * (xs[0] - xs[1]) ** 2:
        failures.append("tau_2 of a two-node measure misses its closed form")
    if spectrum_miss([1 + 1j, 2.0], [2.0, 1 + 1j]) != 0.0:
        failures.append("spectrum matching is not order-independent")
    return failures
