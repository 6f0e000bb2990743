"""Sparse Laurent polynomials over an arbitrary scalar field.

Exponents are ints (negative allowed), coefficients are floats or Fractions;
zero coefficients are never stored.  Instances are treated as immutable
values: every operation returns a fresh polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .modes import Scalar, clear_denominators


class LaurentPoly:
    """A Laurent polynomial sum_k c_k z^k stored as {k: c_k}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[int, Scalar] | None = None):
        cleaned: Dict[int, Scalar] = {}
        if coeffs:
            for k, c in coeffs.items():
                if c != 0:
                    cleaned[int(k)] = c
        self.coeffs = cleaned

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly({})

    @staticmethod
    def constant(c: Scalar) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @staticmethod
    def monomial(exponent: int, c: Scalar = 1) -> "LaurentPoly":
        return LaurentPoly({exponent: c})

    def to_pairs(self) -> List[Tuple[int, Scalar]]:
        """Sorted [exponent, coefficient] pairs (the serialization form)."""
        return sorted(self.coeffs.items())

    # -- inspection ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exponent: int) -> Scalar:
        return self.coeffs.get(exponent, 0)

    @property
    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    @property
    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return min(self.coeffs)

    def is_self_reciprocal(self, order: int) -> bool:
        """True iff z^order * p(1/z) == p(z) coefficientwise."""
        return all(self.coeff(order - k) == c for k, c in self.coeffs.items())

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc = dict(self.coeffs)
        for k, c in other.coeffs.items():
            acc[k] = acc.get(k, 0) + c
        return LaurentPoly(acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc = dict(self.coeffs)
        for k, c in other.coeffs.items():
            acc[k] = acc.get(k, 0) - c
        return LaurentPoly(acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            acc: Dict[int, Scalar] = {}
            for k1, c1 in self.coeffs.items():
                for k2, c2 in other.coeffs.items():
                    k = k1 + k2
                    acc[k] = acc.get(k, 0) + c1 * c2
            return LaurentPoly(acc)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, s: Scalar) -> "LaurentPoly":
        if s == 0:
            return LaurentPoly.zero()
        return LaurentPoly({k: c * s for k, c in self.coeffs.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def reciprocal_arg(self) -> "LaurentPoly":
        """Substitute z -> 1/z."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def __call__(self, z: Scalar) -> Scalar:
        if z == 0:
            if any(e < 0 for e in self.coeffs):
                raise ZeroDivisionError("Laurent polynomial with negative exponents at z=0")
            return self.coeffs.get(0, 0) * 1
        cleared = self.integer_form() if type(z) is Fraction and self.coeffs else None
        if cleared is not None:
            ints, d = cleared
            p, q = z.numerator, z.denominator
            lo, hi = min(ints), max(ints)
            num = homogeneous(ints, lo, hi, p, q) * p ** max(lo, 0) * q ** max(-hi, 0)
            return Fraction(num, d * p ** max(-lo, 0) * q ** max(hi, 0))
        total = 0
        for e, c in self.coeffs.items():
            total += c * int_power(z, e)
        return total

    def integer_form(self) -> Optional[Tuple[Dict[int, int], int]]:
        """({e: C_e}, D), the coefficients through clear_denominators:
        c_e = C_e / D; None when a coefficient is not int/Fraction."""
        try:
            ints, d = clear_denominators(self.coeffs.values())
        except AttributeError:  # a float or complex coefficient
            return None
        return dict(zip(self.coeffs, ints)), d

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coeff(k) == other.coeff(k) for k in keys)

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def max_abs_coeff(self) -> float:
        return max((abs(float(c)) for c in self.coeffs.values()), default=0.0)

    def as_float(self) -> "LaurentPoly":
        return LaurentPoly({k: float(c) for k, c in self.coeffs.items()})

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LaurentPoly(0)"
        parts = []
        for e, c in self.to_pairs():
            if isinstance(c, Fraction):
                cs = str(c)
            else:
                cs = format(c, ".6g")
            parts.append(f"{cs}*z^{e}" if e else str(cs))
        return "LaurentPoly(" + " + ".join(parts) + ")"


def homogeneous(ints: Dict[int, int], lo: int, hi: int, p: int, q: int) -> int:
    """sum_e C_e p^(e-lo) q^(hi-e) over lo..hi by Horner in p: D z^-lo q^(hi-lo) f(z)
    at z = p/q when ({e: C_e}, D) is the integer form of f."""
    acc, qk = 0, 1
    for e in range(hi, lo - 1, -1):
        c = ints.get(e)
        acc = acc * p + c * qk if c else acc * p
        qk *= q
    return acc


def int_power(z: Scalar, e: int) -> Scalar:
    """z**e for any integer e; a negative power inverts first (exact on Fractions)."""
    return z**e if e >= 0 else (1 / z) ** (-e)
