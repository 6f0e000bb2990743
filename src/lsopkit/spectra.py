"""Symplectic pencils, butterfly matrices, and the z + 1/z spectral folding.

The recurrence relations of the orthonormal family fold into a generalized
eigenvalue problem U v = z V v with 2N x 2N blocks built from F (unit lower
bidiagonal with subdiagonal -sqrt(beta_n)), G = diag(alpha_1..alpha_N) and
H = diag(0, alpha_1..alpha_{N-1}).  Two assemblies are provided:

* build_pencil            -- the textbook block layout
      U = [[H, I], [-F^T, O]],  V = [[F, O], [G, I]];
* pencil_from_recurrence  -- the layout obtained by direct rearrangement of
  the recurrences under the eigenvector ordering
  (qt_1, qt_3, ..., qt_2N-1, qt_0, ..., qt_2N-2):
      U = [[I, -H], [O, -F^T]],  V = [[O, F], [I, -G]].

pencil_residual builds the one pencil report that verify and the pencil
command read: both layouts, each with how well it reproduces the recurrences
on the support, its symplecticity residuals (the pencil's read off the
F, G, H blocks, the transfer matrix's by dense products) and its transfer
matrix V^-1 U, which the pencil-eigenvalues claim and the pencil command
eigensolve by dense QR.  pencil_eigenvalues solves the recurrence layout by
its fold instead: the symmetric tridiagonal J' read off the blocks, QL, and
each eigenvalue x unfolded into the roots of z^2 - x z + 1; it refuses any
other pencil.

The butterfly matrix is the multiplication operator in a gauged
alternating basis; its parameter quadruples (a, b, c, d), the bijection
with (alpha, beta, r, lambda), the gauge similarity between two
butterflies of one recurrence, the reduction to a symmetric tridiagonal
matrix, and the two-way eigenvalue map lambda = z + 1/z all live here.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, NamedTuple, Sequence, Tuple

from .errors import AdmissibilityError, DimensionError, StructureError
from .modes import validated_make
from .numerics import (Matrix, SymTridiag, dense_eigs, identity, inf_norm, mat_mul,
                       mat_sub, mat_vec, max_abs_diff, nan_max, solve_columns, sort_complex,
                       spectra_distance, sym_tridiag_eigs, transpose, zeros)

# spectra reads families, gauges and measures through their fields, so their
# modules are named for the annotations only
if TYPE_CHECKING:
    from .lsolp import GaugeParams
    from .lsop import FamilyValues, RecurrenceData
    from .moments import DiscreteMeasure

DOUBLE_ROOT_TOL = 1e-12
# Largest spectral distance that passes, for the pencil eigenvalues and the
# dense butterfly spectrum against the support, and for the structured
# butterfly solve against the dense one.  The claims pencil-eigenvalues,
# butterfly-spectrum and butterfly-tridiagonal-roundtrip default to them, and
# the pencil, butterfly and solve-butterfly commands exit 2 above them.
PENCIL_EIGENVALUES_TOL = 1e-6
BUTTERFLY_SPECTRUM_TOL = 1e-7
BUTTERFLY_ROUNDTRIP_TOL = 1e-7

CONVENTION_DIFFERENCE = "difference-of-alphas"
CONVENTION_PLAIN = "plain-alpha"


class PencilPair(NamedTuple):
    """A 2N x 2N generalized eigenvalue pencil (U, V)."""

    u: Matrix
    v: Matrix


def _require_positive_beta(rec: RecurrenceData) -> None:
    for k in range(1, rec.order):
        beta = float(rec.beta[k])
        if not beta > 0:
            raise AdmissibilityError(f"beta_{k} = {beta} must be positive")


def _pencil_blocks(rec: RecurrenceData) -> Tuple[Matrix, Matrix, Matrix]:
    """F, G, H blocks shared by both pencil layouts (floats)."""
    n = rec.order
    if n < 1:
        raise DimensionError("pencil needs order >= 1")
    _require_positive_beta(rec)
    return _blocks([-math.sqrt(float(rec.beta[k])) for k in range(1, n)],
                   [float(rec.alpha[k + 1]) for k in range(n)],
                   [0.0] + [float(rec.alpha[k]) for k in range(1, n)])


def _blocks(f_sub: Sequence[float], g_diag: Sequence[float],
            h_diag: Sequence[float]) -> Tuple[Matrix, Matrix, Matrix]:
    """F unit lower bidiagonal with subdiagonal f_sub, G and H diagonal."""
    n = len(g_diag)
    f, g, h = identity(n), zeros(n, n), zeros(n, n)
    for k in range(n):
        g[k][k], h[k][k] = g_diag[k], h_diag[k]
        if k:
            f[k][k - 1] = f_sub[k - 1]
    return f, g, h


def family_vector_order(n: int) -> List[int]:
    """Member indices in eigenvector order (Q_1, Q_3, ..., Q_2N-1, Q_0, ..., Q_2N-2)."""
    return [2 * k + 1 for k in range(n)] + [2 * k for k in range(n)]


def build_pencil(rec: RecurrenceData) -> PencilPair:
    """The textbook pencil: U = [[H, I], [-F^T, O]], V = [[F, O], [G, I]]."""
    f, g, h = _pencil_blocks(rec)
    n = rec.order
    u = _assemble(h, identity(n), _neg(transpose(f)), zeros(n, n))
    v = _assemble(f, zeros(n, n), g, identity(n))
    return PencilPair(u=u, v=v)


def pencil_from_recurrence(rec: RecurrenceData) -> PencilPair:
    """Pencil rearranged directly from the recurrences (odd-first ordering).

    Row block 1:  o_n - alpha_n e_n = z (F e)_n          (qt_2n+1 line)
    Row block 2:  -(F^T e)_n = z (o_n - alpha_{n+1} e_n)  (top line, beta_N = 0)
    giving U = [[I, -H], [O, -F^T]], V = [[O, F], [I, -G]].
    """
    return _recurrence_layout(*_pencil_blocks(rec))


def _recurrence_layout(f: Matrix, g: Matrix, h: Matrix) -> PencilPair:
    n = len(f)
    u = _assemble(identity(n), _neg(h), zeros(n, n), _neg(transpose(f)))
    v = _assemble(zeros(n, n), f, identity(n), _neg(g))
    return PencilPair(u=u, v=v)


class PencilLayout(NamedTuple):
    """A pencil, its support residual, its unscaled symplecticity residuals
    (pencil_symplecticity(G, H) and transfer_symplecticity) and its transfer
    matrix S = V^-1 U, solved once for both the check and the eigensolve."""
    pencil: PencilPair
    support_residual: float
    pencil_symplecticity: float
    transfer_symplecticity: float
    transfer: Matrix


class PencilReport(NamedTuple):
    """Both pencil layouts of one family and their largest entry difference."""
    textbook: PencilLayout
    recurrence: PencilLayout
    entry_difference: float


def pencil_residual(fv: FamilyValues) -> PencilReport:
    """Both layouts, each with max_k |U v(z_k) - z_k V v(z_k)|_inf / |v(z_k)|_inf
    over the support (v(z) stacks the family values odd-first) and its
    symplecticity residuals.  det V = +-1 in both, so both have a transfer matrix.
    """
    _, g, h = _pencil_blocks(fv.rec)
    structural = pencil_symplecticity(g, h)

    def layout(p: PencilPair) -> PencilLayout:
        residual = _pencil_support_residual(p, fv)
        s = transfer_matrix(p)
        return PencilLayout(p, residual, structural, transfer_symplecticity(s), s)

    textbook = layout(build_pencil(fv.rec))
    recurrence = layout(pencil_from_recurrence(fv.rec))
    diff = max(max_abs_diff(textbook.pencil.u, recurrence.pencil.u),
               max_abs_diff(textbook.pencil.v, recurrence.pencil.v))
    return PencilReport(textbook, recurrence, diff)


def _pencil_support_residual(p: PencilPair, fv: FamilyValues) -> float:
    order_map = family_vector_order(fv.order)
    worst = 0.0
    for k, z in enumerate(fv.measure.nodes):
        vec = [fv.qt_node[k][j] for j in order_map]
        uv = mat_vec(p.u, vec)
        vv = mat_vec(p.v, vec)
        zf = float(z)
        num = nan_max(*(abs(a - zf * b) for a, b in zip(uv, vv)))
        den = max(abs(x) for x in vec)
        worst = nan_max(worst, num / den)
    return worst


def support_spectrum(m: DiscreteMeasure) -> List[complex]:
    """The nodes and their reciprocals, the spectrum every structured matrix
    of the measure should reproduce, sorted by (real, imag)."""
    out = []
    for z in m.nodes:
        zf = float(z)
        out.extend([zf, 1.0 / zf])
    return sort_complex(out)


def _times_j(x: Matrix) -> Matrix:
    """X J: the column halves of X swapped, the new first half negated; exact."""
    n = len(x[0]) // 2
    return [[-v for v in row[n:]] + row[:n] for row in x]


def symplectic_j(n: int) -> Matrix:
    """The canonical skew form J = [[O, I], [-I, O]] of size 2n, read as I J."""
    return _times_j(identity(2 * n))


def pencil_symplecticity(g: Matrix, h: Matrix) -> float:
    """|U J U^T - V J V^T|_inf of either pencil layout, read off its blocks.

    Blockwise, U J U^T and V J V^T carry the same off-diagonal blocks in
    both layouts (+-F and -+F^T, so F cancels identically), and their
    difference is blockdiag(H - H^T, G^T - G).  O(N^2), and exactly 0
    whenever G and H are symmetric, as their diagonal assembly makes them.
    """
    return nan_max(*(inf_norm(mat_sub(a, transpose(a))) for a in (h, g)))


def transfer_symplecticity(s: Matrix) -> float:
    """|S J S^T - J|_inf of a transfer matrix S = V^-1 U (transfer_matrix):
    certifies its membership in the symplectic group."""
    return inf_norm(mat_sub(mat_mul(_times_j(s), transpose(s)), symplectic_j(len(s) // 2)))


def symplectic_pencil_check(p: PencilPair) -> Tuple[float, float]:
    """(|U J U^T - V J V^T|_inf by dense products, transfer_symplecticity)
    for any pencil with V invertible; pencil_residual reads the first off the
    blocks instead."""
    lhs = mat_mul(_times_j(p.u), transpose(p.u))
    rhs = mat_mul(_times_j(p.v), transpose(p.v))
    return inf_norm(mat_sub(lhs, rhs)), transfer_symplecticity(transfer_matrix(p))


def transfer_matrix(p: PencilPair) -> Matrix:
    """S = V^-1 U: one elimination of V carries every column of U.  Raises
    ValueError on a NaN or infinite entry, which the pivot search would skip
    or read as a finite S."""
    _require_finite(p)
    return transpose(solve_columns(p.v, transpose(p.u)))


def _require_finite(p: PencilPair) -> None:
    if not all(math.isfinite(x) for m in (p.u, p.v) for row in m for x in row):
        raise ValueError("pencil entries must be finite")


def pencil_eigenvalues(p: PencilPair) -> List[complex]:
    """Generalized eigenvalues of a recurrence-layout pencil, by its fold.

    For U = [[I, -H], [O, -F^T]], V = [[O, F], [I, -G]] the Schur complement
    of U - zV on its identity block is T(z) = -F^T + z(G - H) - z^2 F, and
    with D = diag(z^k), D^-1 T(z) D = -z (x I - J') at x = z + 1/z, where
    J' is symmetric tridiagonal with diagonal G_kk - H_kk and off-diagonal
    -F[k][k-1].  The identity holds for the stored binary64 blocks; forming
    G_kk - H_kk is the one rounding.  det(U - zV) = (-1)^N prod_k
    (z^2 - lambda_k z + 1) has degree 2N, so the unfolded roots of the QL
    eigenvalues lambda_k of J' are the whole spectrum (det V = +-1).

    The layout is checked exactly first: the identity and zero blocks, F
    unit lower bidiagonal, U's bottom-right block -F^T, G and H diagonal.
    Any other pencil, build_pencil's included, raises StructureError; its
    general route is dense_eigs(transfer_matrix(p)).  Raises ValueError on
    a NaN or infinite entry.
    """
    _require_finite(p)
    n = len(p.u) // 2
    if all(len(row) == 2 * n for row in p.u + p.v) and len(p.v) == 2 * n:
        g = [-p.v[n + k][n + k] for k in range(n)]
        h = [-p.u[k][n + k] for k in range(n)]
        f_sub = [p.v[k][n + k - 1] for k in range(1, n)]
        if _recurrence_layout(*_blocks(f_sub, g, h)) == (p.u, p.v):
            tri = SymTridiag([a - b for a, b in zip(g, h)], [-x for x in f_sub])
            return canonical_z_list(eig_correspondence(sym_tridiag_eigs(tri)))
    raise StructureError("pencil_eigenvalues solves the recurrence layout only; "
                         "use dense_eigs(transfer_matrix(p)) for a general pencil")


# ---------------------------------------------------------------------------
# symmetric tridiagonal reduction of the pencil
# ---------------------------------------------------------------------------

def build_tridiagonal(rec: RecurrenceData) -> SymTridiag:
    """T with diagonal (alpha_1, alpha_2 - alpha_1, ..., alpha_N - alpha_N-1)
    and off-diagonal (sqrt(beta_1), ..., sqrt(beta_N-1)); eig T = {z_k + 1/z_k}."""
    n = rec.order
    _require_positive_beta(rec)
    diag = _gamma(rec, CONVENTION_DIFFERENCE)
    off = [math.sqrt(float(rec.beta[k])) for k in range(1, n)]
    return SymTridiag(diag, off)


# ---------------------------------------------------------------------------
# butterfly matrices
# ---------------------------------------------------------------------------

class _Quadruples(NamedTuple):
    a: Tuple[float, ...]
    b: Tuple[float, ...]
    c: Tuple[float, ...]
    d: Tuple[float, ...]


class ButterflyParams(_Quadruples):
    """Parameter quadruples of the butterfly form.

    0-based storage of the 1-based quadruples: a[i], b[i], c[i] carry
    a_{i+1}, b_{i+1}, c_{i+1} for i = 0..N-1, and d[i] carries d_{i+2} for
    i = 0..N-2 (the coupling between pairs i and i+1).
    """

    __slots__ = ()

    def __new__(cls, a: Tuple[float, ...], b: Tuple[float, ...], c: Tuple[float, ...],
                d: Tuple[float, ...]):
        n = len(a)
        if n < 1:
            raise DimensionError("butterfly needs order >= 1")
        if not (len(b) == len(c) == n and len(d) == n - 1):
            raise DimensionError("parameter lengths must be (N, N, N, N-1)")
        if any(x == 0 for x in a):
            raise AdmissibilityError("butterfly parameters a_i must be nonzero")
        return super().__new__(cls, a, b, c, d)

    _make = classmethod(validated_make)

    @property
    def order(self) -> int:
        return len(self.a)

    def hypothesis_holds(self) -> bool:
        """Real-symmetric reduction hypothesis a_i a_{i+1} > 0."""
        return all(self.a[i] * self.a[i + 1] > 0 for i in range(self.order - 1))


def butterfly_params(rec: RecurrenceData, g: GaugeParams,
                     convention: str = CONVENTION_DIFFERENCE) -> ButterflyParams:
    """(a, b, c, d) from recurrence data and a gauge.

    a_i+1 = 1/r_i^2, b_i+1 = lambda_i, c_i+1 = r_i^2 (gamma_i - lambda_i),
    d_i+2 = r_i r_i+1 sqrt(beta_i+1), where gamma_i is alpha_{i+1} - alpha_i
    under the default difference convention and alpha_i under the plain
    one.  The difference convention is the one the multiplication operator
    actually realizes (see determine_diagonal_convention).
    """
    n = rec.order
    if g.order != n:
        raise ValueError(f"gauge order {g.order} != recurrence order {n}")
    _require_positive_beta(rec)
    gamma = _gamma(rec, convention)
    a = [1.0 / (float(g.r[i]) ** 2) for i in range(n)]
    b = [float(g.lam[i]) for i in range(n)]
    c = [float(g.r[i]) ** 2 * (gamma[i] - float(g.lam[i])) for i in range(n)]
    d = [float(g.r[i]) * float(g.r[i + 1]) * math.sqrt(float(rec.beta[i + 1]))
         for i in range(n - 1)]
    return ButterflyParams(a=tuple(a), b=tuple(b), c=tuple(c), d=tuple(d))


def butterfly_from_params(bp: ButterflyParams) -> Matrix:
    """Dense 2N x 2N butterfly matrix from its quadruples.

    Block layout (N+N): [[diag(b), Btr], [diag(a), Bbr]] with tridiagonal
    Btr (diagonal b_i c_i - 1/a_i, couplings b_i d) and Bbr (diagonal
    a_i c_i, couplings a_i d).
    """
    n = bp.order
    m = zeros(2 * n, 2 * n)
    for i in range(n):
        m[i][i] = bp.b[i]
        m[n + i][i] = bp.a[i]
        m[i][n + i] = bp.b[i] * bp.c[i] - 1.0 / bp.a[i]
        m[n + i][n + i] = bp.a[i] * bp.c[i]
    for i in range(n - 1):
        m[i][n + i + 1] = bp.b[i] * bp.d[i]
        m[i + 1][n + i] = bp.b[i + 1] * bp.d[i]
        m[n + i][n + i + 1] = bp.a[i] * bp.d[i]
        m[n + i + 1][n + i] = bp.a[i + 1] * bp.d[i]
    return m


def build_butterfly(rec: RecurrenceData, g: GaugeParams,
                    convention: str = CONVENTION_DIFFERENCE) -> Matrix:
    """Butterfly matrix of the gauged family (params + dense assembly)."""
    return butterfly_from_params(butterfly_params(rec, g, convention))


def gauge_similarity_defect(b1: Matrix, bg: Matrix, g: GaugeParams) -> float:
    """max |S B_1 - B_g S| for the butterflies B_1 of the trivial gauge and B_g
    of the gauge g, both of one recurrence.

    A gauge change is the similarity B_g = S B_1 S^-1 with the sparse
    S = [[diag(r), diag(r lambda)], [O, diag(1/r)]].  S acts by rows on the
    left (row i of S B_1 is r_i (row i) + r_i lambda_i (row N+i), row N+i
    is (row N+i) / r_i) and by columns on the right; it is never formed.
    """
    n = g.order
    r = [float(x) for x in g.r]
    shear = [ri * float(lam) for ri, lam in zip(r, g.lam)]
    left = [[ri * x + si * y for x, y in zip(top, bottom)]
            for ri, si, top, bottom in zip(r, shear, b1[:n], b1[n:])]
    left += [[y / ri for y in bottom] for ri, bottom in zip(r, b1[n:])]
    worst = 0.0
    for lrow, row in zip(left, bg):
        right = ([ri * x for ri, x in zip(r, row[:n])]
                 + [si * x + y / ri for ri, si, x, y in zip(r, shear, row[:n], row[n:])])
        worst = nan_max(worst, *(abs(a - b) for a, b in zip(lrow, right)))
    return worst


def determine_diagonal_convention(mult: Matrix, rec: RecurrenceData,
                                  g: GaugeParams) -> Tuple[str, dict]:
    """Which diagonal convention the multiplication operator realizes.

    Compares the numerically computed multiplication matrix against the
    butterfly assembled under both candidate conventions and returns the
    winner together with both entrywise residuals.
    """
    residuals = {}
    for convention in (CONVENTION_DIFFERENCE, CONVENTION_PLAIN):
        residuals[convention] = max_abs_diff(mult, build_butterfly(rec, g, convention))
    winner = min(residuals, key=residuals.get)
    return winner, residuals


def _gamma(rec: RecurrenceData, convention: str) -> List[float]:
    n = rec.order
    if convention == CONVENTION_DIFFERENCE:
        return [float(rec.alpha[i + 1]) - float(rec.alpha[i]) for i in range(n)]
    if convention == CONVENTION_PLAIN:
        return [float(rec.alpha[i]) for i in range(n)]
    raise ValueError(f"unknown convention {convention!r}")


def butterfly_to_tridiagonal(bp: ButterflyParams) -> SymTridiag:
    """Symmetric tridiagonal reduction of a butterfly matrix.

    Diagonal a_i c_i + b_i, off-diagonal sqrt(a_i a_{i+1}) |d|; requires the
    reality hypothesis a_i a_{i+1} > 0.  Its eigenvalues are z + 1/z over
    the butterfly spectrum.
    """
    if not bp.hypothesis_holds():
        raise AdmissibilityError("reduction hypothesis a_i a_{i+1} > 0 violated")
    n = bp.order
    diag = [bp.a[i] * bp.c[i] + bp.b[i] for i in range(n)]
    off = [math.sqrt(bp.a[i] * bp.a[i + 1]) * abs(bp.d[i]) for i in range(n - 1)]
    return SymTridiag(diag, off)


# ---------------------------------------------------------------------------
# the lambda = z + 1/z correspondence
# ---------------------------------------------------------------------------

def eig_correspondence(lambdas: Sequence[float]) -> List[Tuple[complex, complex]]:
    """Each real lambda maps to the root pair of z^2 - lambda z + 1.

    |lambda| > 2: real pair listed with the |z| > 1 representative first;
    |lambda| = 2 (within 1e-12 on lambda^2 - 4): the double point z = +-1;
    |lambda| < 2: the unit-modulus conjugate pair (positive imaginary part
    first).
    """
    out: List[Tuple[complex, complex]] = []
    for lam in lambdas:
        lam = float(lam)
        disc = lam * lam - 4.0
        if abs(disc) <= DOUBLE_ROOT_TOL:
            z = complex(lam / 2.0, 0.0)
            out.append((z, z))
        elif disc > 0:
            root = math.sqrt(disc)
            z = (lam + root) / 2.0 if lam > 0 else (lam - root) / 2.0
            out.append((complex(z, 0.0), complex(1.0 / z, 0.0)))
        else:
            im = math.sqrt(-disc) / 2.0
            out.append((complex(lam / 2.0, im), complex(lam / 2.0, -im)))
    return out


def canonical_z_list(pairs: Sequence[Tuple[complex, complex]]) -> List[complex]:
    """Flatten correspondence pairs into a sorted spectrum list."""
    return sort_complex([z for pair in pairs for z in pair])


class ButterflySolve(NamedTuple):
    """Structured eigensolve of a butterfly matrix, checked against its dense spectrum."""
    tridiagonal: SymTridiag
    folded: List[float]  # QL eigenvalues lambda = z + 1/z of the tridiagonal
    pairs: List[Tuple[complex, complex]]
    dense: List[complex]
    mismatch: float  # distance from the unfolded pairs to the dense spectrum


def solve_butterfly(bp: ButterflyParams) -> ButterflySolve:
    """Butterfly eigenvalues by the symmetric tridiagonal reduction and lambda = z + 1/z."""
    tri = butterfly_to_tridiagonal(bp)
    lams = sym_tridiag_eigs(tri)
    pairs = eig_correspondence(lams)
    dense = dense_eigs(butterfly_from_params(bp))
    return ButterflySolve(tri, lams, pairs, dense, spectra_distance(canonical_z_list(pairs), dense))


def inversion_closure_defect(spectrum: Sequence[complex]) -> float:
    """How far a multiset is from being closed under z -> 1/z.

    Pairs each eigenvalue with the nearest candidate inverse and returns the
    largest |z * z' - 1| over the pairing.
    """
    zs = list(spectrum)
    worst = 0.0
    for z in zs:
        best = min(abs(z * w - 1.0) for w in zs)
        worst = nan_max(worst, best)
    return worst


def _assemble(tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix) -> Matrix:
    n = len(tl)
    out = zeros(2 * n, 2 * n)
    for i in range(n):
        for j in range(n):
            out[i][j] = tl[i][j]
            out[i][n + j] = tr[i][j]
            out[n + i][j] = bl[i][j]
            out[n + i][n + j] = br[i][j]
    return out


def _neg(a: Matrix) -> Matrix:
    return [[-x for x in row] for row in a]
