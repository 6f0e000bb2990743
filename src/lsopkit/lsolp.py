"""Skew orthonormal families in the alternating Laurent basis.

The alternating basis {1, z^-1, z, z^-2, z^2, ...} turns the orthonormal
family {qt_n} into Laurent members

    Q_2m(z)   =  z^-m     qt_2m(z),
    Q_2m+1(z) = -z^-m-1   qt_2m(z),

with skew orthonormality <Q_2m|Q_2n+1> = delta_mn and vanishing same-parity
pairings.  The same family also arises from orthonormal coefficient
polynomials and by skew Gram-Schmidt directly in the alternating basis;
those reference constructions live in oracles, and the claim suite
cross-checks all three.

A family has one representation: value tables at the measure's nodes and
their reciprocals.  The production path, lsolp_from_values, reads them off
the orthonormal value tables of a fold.

One gauge action, gauge_transform_scaled, realizes the two freedoms of each
pair that keep the pairing pattern: member scaling (r_n) and a shear of the
odd member along the even one (lambda_n).  The multiplication-by-z operator
in a gauged basis is computed here by skew-duality extraction; it is the
numerical ground truth the butterfly assembly in `spectra` is checked against.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

from .errors import AdmissibilityError, RepresentationError, StructureError
from .lsop import FamilyValues, skew_pattern_defect, support_gram, support_pairing
from .modes import validated_make
from .moments import DiscreteMeasure
from .numerics import dot, nan_max
from .spectra import family_vector_order

PAIRING_VALIDATION_TOL = 1e-8
REPRESENTATION_TOL = 1e-8


class _Gauge(NamedTuple):
    r: Tuple[float, ...]
    lam: Tuple[float, ...]


class GaugeParams(_Gauge):
    """Per-pair gauge data: nonzero scalings r_n and shear parameters lambda_n."""

    __slots__ = ()

    def __new__(cls, r: Tuple[float, ...], lam: Tuple[float, ...]):
        if len(r) != len(lam):
            raise ValueError("r and lambda must have equal length")
        if any(x == 0 for x in r):
            raise AdmissibilityError("gauge scalings r_n must be nonzero")
        return super().__new__(cls, r, lam)

    _make = classmethod(validated_make)

    @staticmethod
    def trivial(n: int) -> "GaugeParams":
        return GaugeParams(r=(1.0,) * n, lam=(0.0,) * n)

    @staticmethod
    def random(rng, n: int) -> "GaugeParams":
        """Seeded gauge: |r_n| uniform in [0.5, 2] with a random sign, lambda_n
        uniform in [-2, 2]; all r draws come before the lambda draws."""
        return GaugeParams(r=tuple(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(n)),
                           lam=tuple(rng.uniform(-2.0, 2.0) for _ in range(n)))

    @property
    def order(self) -> int:
        return len(self.r)


class LsolpFamily(NamedTuple):
    """A skew orthonormal family in the alternating basis, as value tables:
    node_values[k][j] and recip_values[k][j] hold member j at z_k and 1/z_k."""

    measure: DiscreteMeasure
    order: int
    node_values: Tuple[Tuple[float, ...], ...]
    recip_values: Tuple[Tuple[float, ...], ...]

    def gram(self) -> List[List[float]]:
        return support_gram(self.measure.weights, self.node_values, self.recip_values)


def require_orthonormal(fam: LsolpFamily, where: str) -> None:
    """Raise StructureError, naming where, unless fam is skew orthonormal to
    PAIRING_VALIDATION_TOL."""
    defect = skew_pattern_defect(fam.gram())
    if not defect <= PAIRING_VALIDATION_TOL:  # a NaN defect fails too
        raise StructureError(f"{where}: family is not skew orthonormal "
                             f"(defect {defect:.3e} > {PAIRING_VALIDATION_TOL:g})")


# ---------------------------------------------------------------------------
# construction from the orthonormal monomial-basis family
# ---------------------------------------------------------------------------

def lsolp_from_values(fv: FamilyValues) -> LsolpFamily:
    """Alternating-basis family from orthonormal value tables (production path)."""
    n = fv.order
    node_vals, recip_vals = [], []
    for (z, vz, vr) in zip(fv.measure.nodes, fv.qt_node, fv.qt_recip):
        zf = float(z)
        row_z = [0.0] * (2 * n)
        row_r = [0.0] * (2 * n)
        for m in range(n):
            zm = zf ** m
            row_z[2 * m] = vz[2 * m] / zm
            row_r[2 * m] = vr[2 * m] * zm
            row_z[2 * m + 1] = -vz[2 * m] / (zm * zf)
            row_r[2 * m + 1] = -vr[2 * m] * zm * zf
        node_vals.append(tuple(row_z))
        recip_vals.append(tuple(row_r))
    fam = LsolpFamily(measure=fv.measure, order=n,
                      node_values=tuple(node_vals), recip_values=tuple(recip_vals))
    require_orthonormal(fam, "lsolp_from_values")
    return fam


# ---------------------------------------------------------------------------
# gauge action
# ---------------------------------------------------------------------------

def gauge_transform_scaled(fam: LsolpFamily, g: GaugeParams) -> LsolpFamily:
    """Gauged family Qt_2n = Q_2n / r_n, Qt_2n+1 = r_n (Q_2n+1 + lambda_n Q_2n).

    This is the parameterization under which the butterfly parameter map is
    the stated one-to-one correspondence (see spectra.butterfly_params).  The
    unscaled shear Qt_2n+1 = r_n Q_2n+1 + lambda_n Q_2n is the same action
    with lambda_n -> lambda_n / r_n.
    """
    if g.order != fam.order:
        raise ValueError(f"gauge order {g.order} != family order {fam.order}")
    pairs = [(float(r), float(r) * float(lam)) for r, lam in zip(g.r, g.lam)]

    def transform_row(row: Sequence[float]) -> Tuple[float, ...]:
        out = list(row)
        for k, (r, shear) in enumerate(pairs):
            out[2 * k] = row[2 * k] / r
            out[2 * k + 1] = r * row[2 * k + 1] + shear * row[2 * k]
        return tuple(out)

    out = LsolpFamily(measure=fam.measure, order=fam.order,
                      node_values=tuple(transform_row(r) for r in fam.node_values),
                      recip_values=tuple(transform_row(r) for r in fam.recip_values))
    require_orthonormal(out, "gauge_transform_scaled")
    return out


# ---------------------------------------------------------------------------
# multiplication-by-z operator
# ---------------------------------------------------------------------------

def multiplication_matrix(fam: LsolpFamily) -> List[List[float]]:
    """Matrix A of the multiplication operator f -> z f in the gauged basis.

    Row ordering follows the eigenvector layout (odd members first); the
    entry A[r][c] is the coefficient of member c in z * member r, extracted
    through the skew-duality pairings
        coeff on Q_2m   = -<Q_2m+1 | v>,   coeff on Q_2m+1 = <Q_2m | v>.
    A residual check at every support point guards against a family that z
    does not stabilize.
    """
    n = fam.order
    d = 2 * n
    order_map = family_vector_order(n)
    nodes = [float(z) for z in fam.measure.nodes]
    weights = [float(w) for w in fam.measure.weights]
    # member d + r of each extended row is z times member r
    node_rows = [[*vz, *(z * x for x in vz)] for z, vz in zip(nodes, fam.node_values)]
    recip_rows = [[*vr, *(x / z for x in vr)] for z, vr in zip(nodes, fam.recip_values)]
    rows = [[support_pairing(weights, node_rows, recip_rows, 2 * mm, d + r) for mm in range(n)]
            + [-support_pairing(weights, node_rows, recip_rows, 2 * mm + 1, d + r)
               for mm in range(n)]
            for r in order_map]
    _validate_representation(fam, rows, order_map)
    return rows


def _validate_representation(fam: LsolpFamily, rows: List[List[float]],
                             order_map: List[int]) -> None:
    n = fam.order
    nodes = [float(z) for z in fam.measure.nodes]
    scale = max(1.0, max(abs(x) for row in rows for x in row))
    for k, z in enumerate(nodes):
        for point, table in ((z, fam.node_values), (1.0 / z, fam.recip_values)):
            vec = [table[k][j] for j in order_map]
            vec_norm = max(1.0, max(abs(x) for x in vec))
            for r in range(2 * n):
                lhs = dot(rows[r], vec)
                err = abs(lhs - point * vec[r]) / (scale * vec_norm)
                if err > REPRESENTATION_TOL:
                    raise RepresentationError(
                        f"multiplication operator fails at support point {point:.6g}: "
                        f"row {r} residual {err:.3e} > {REPRESENTATION_TOL:g}"
                    )


def butterfly_sparsity_defect(a: List[List[float]]) -> float:
    """Largest |entry| outside the butterfly sparsity pattern.

    Pattern (N+N block layout): diagonal top-left and bottom-left blocks,
    tridiagonal top-right and bottom-right blocks.
    """
    n2 = len(a)
    n = n2 // 2
    worst = 0.0
    for i in range(n2):
        for j in range(n2):
            bi, bj = i // n, j // n
            ii, jj = i % n, j % n
            if bj == 0:
                allowed = ii == jj
            else:
                allowed = abs(ii - jj) <= 1
            if not allowed:
                worst = nan_max(worst, abs(a[i][j]))
    return worst
