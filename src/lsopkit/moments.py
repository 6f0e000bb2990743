"""Discrete measures and the Laurent skew inner product they define.

A measure is a finite list of node/weight pairs (z_k, w_k).  The bilinear
form is

    <f|g> = sum_k ( f(1/z_k) g(z_k) - f(z_k) g(1/z_k) ) w_k,

which is skew (<f|f> = 0) and shift-invariant: <z^(i+k)|z^(j+k)> = <z^i|z^j>.
The production pipeline reads a measure only through its fold
(lsop.evaluate_family); the moment sums and the inner product by direct
summation are reference routes and live in oracles.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import NamedTuple, Sequence

from .modes import Scalar, is_exact, validated_make


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
    weights are stored as Fractions; a bool, a non-number and a non-finite
    value are refused.
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

    _make = classmethod(validated_make)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def is_exact(self) -> bool:
        return all(is_exact(z) for z in self.nodes) and all(is_exact(w) for w in self.weights)

    def as_float(self) -> "DiscreteMeasure":
        return DiscreteMeasure([float(z) for z in self.nodes], [float(w) for w in self.weights])


def _checked_scalar(x: Scalar, what: str) -> Scalar:
    if isinstance(x, bool) or not isinstance(x, (int, float, complex, Fraction)):
        raise ValueError(f"{what} {x!r} is not a number")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (float, complex)) and not cmath.isfinite(x):
        raise ValueError(f"{what} {x} is not finite")
    return x
