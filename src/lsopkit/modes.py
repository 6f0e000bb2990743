"""Scalar backends.

Every algebraic routine in this package is generic over its scalar type and
runs unchanged on floats and on ``fractions.Fraction``.  Two modes are
supported:

* ``double``   -- IEEE binary64, tolerance-based comparisons downstream;
* ``rational`` -- exact ``Fraction`` arithmetic, the correctness oracle for
  every identity that is rational in the inputs.

Square roots leave the rational field, so operations that need them
(orthonormal scaling, tridiagonal off-diagonals, gauged bases) produce
floats; the exact checks in the test and verification layers are
formulated so that no square root is ever required there.

``clear_denominators`` is the exact layer's one common-denominator step
from Fractions to ints, taken by the fraction-free (Bareiss) eliminations,
the integer Laurent evaluation, the exact walk (lsopkit.exact holds its
integer kernels) and the integer skew Gram.  The moment-table
route's per-index scaling (lsop.balanced_scaling) is a congruence, not a
common denominator, and stays apart.  ``validated_make`` is the ``_make``
of every record whose ``__new__`` validates its fields.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Collection, List, Tuple, Union

Scalar = Union[float, Fraction]

MODES = ("double", "rational")


def validate_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown scalar mode {mode!r}; expected one of {MODES}")
    return mode


def validated_make(cls, fields):
    """cls(*fields): as a record's _make, sends the copy _replace builds
    through the record's validating __new__."""
    return cls(*fields)


def is_exact(x: object) -> bool:
    """True when x carries exact (int/Fraction) arithmetic."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def clear_denominators(values: Collection[Scalar]) -> Tuple[List[int], int]:
    """(ints, L): L the lcm of the denominators of the exact values and
    ints[i] = L * values[i].  A float or complex value raises
    AttributeError; [] gives ([], 1)."""
    denominators = [v.denominator for v in values]
    scale = lcm(*denominators)
    return [v.numerator * (scale // d) for v, d in zip(values, denominators)], scale
