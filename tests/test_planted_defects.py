"""Planted defects against the 32 claims.

Each row of a table plants one defect and names, for each scalar mode it
runs in, the claims that must flag; every other claim in the report must
pass, every flagged record must read exact: false, and the clean row flags
nothing.  The fold is the one run_verification would build, the fixed
measure at N = 8 (its exact twin in rational mode), and the claims draw
from seed 1.

The recurrence rows move one recurrence coefficient of the fold by a
relative 1e-6, at the first and the last index: alpha_1, alpha_N, beta_1,
beta_N-1, tau_1 and tau_N, planted in the fold's rec (and in its exact_rec,
which rec is, in rational mode) before any claim reads it.  A tau move
reaches no claim in double mode, and only the exact orthonormality check
(plus lsolp-construction-agreement for tau_1) in rational mode: no other
claim reads tau apart from alpha and beta.  In rational mode four more rows
move alpha_1, beta_1, alpha_N and beta_N-1 by a relative 1e-12, below every
tolerance: they flag because a claim that compares in exact arithmetic
passes only at residual 0.

The artifact rows move one entry of a shared artifact by a relative 1e-6:
one value-table entry, one parameter of the gauged butterflies, one pencil
block entry and one value of the alternating-basis family.
"""

from fractions import Fraction

import pytest

from lsopkit import spectra, verify
from lsopkit.lsolp import GaugeParams
from lsopkit.lsop import evaluate_family
from lsopkit.verify import CLAIMS, RunConfig, run_verification

from test_golden_reports import _fixed_measure

N = 8
# the claims every alpha or beta move reaches, in both modes
SPECTRAL = {"butterfly-diagonal-convention", "butterfly-spectrum", "butterfly-vs-multiplication",
            "pencil-recurrence-residual", "tridiagonal-spectrum"}
# the claims that read the alternating-basis family through its orthonormality guard
MULTIPLICATION = {"butterfly-diagonal-convention", "butterfly-vs-multiplication",
                  "lsolp-multiplication-sparsity"}
STEP = 1e-6


def _moved(rec, field, index, step):
    values = list(getattr(rec, field))
    values[index] = values[index] * (1 + step)
    return rec._replace(**{field: tuple(values)})


def _recurrence(field, index, step=Fraction(1, 10**6)):
    """A planter that moves rec's field[index] by the relative step."""
    def plant(monkeypatch, fv, mode):
        if mode == "rational":
            fv.exact_rec = fv.rec = _moved(fv.exact_rec, field, index, step)
        else:
            fv.rec = _moved(fv.rec, field, index, float(step))
    return plant


def _moved_entry(table, k, j):
    rows = [list(row) for row in table]
    rows[k][j] *= 1 + STEP
    return tuple(map(tuple, rows))


def _value_table(monkeypatch, fv, mode):
    # member 2 at node 1 in the float tables, and in rational mode in the
    # exact monic columns too, as ints over 10^6 times their denominator
    node, recip = fv._tables
    fv._tables = (_moved_entry(node, 1, 2), recip)
    if mode == "rational":
        node, recip, den = fv.monic_values()
        value = node[2][1]
        node[2] = [v * 10**6 for v in node[2]]
        recip[2] = [v * 10**6 for v in recip[2]]
        node[2][1] += value
        den[2] *= 10**6
        fv.monic_values = lambda: (node, recip, den)


def _butterfly(monkeypatch, fv, mode):
    # c_1 of every butterfly of a nontrivial gauge; the trivial one stays clean
    trivial = GaugeParams.trivial(N)

    def params(rec, g, *args):
        bp = spectra.butterfly_params(rec, g, *args)
        if g == trivial:
            return bp
        return bp._replace(c=(bp.c[0] * (1 + STEP),) + bp.c[1:])

    monkeypatch.setattr(verify, "butterfly_params", params)
    monkeypatch.setattr(verify, "build_butterfly",
                        lambda *args: spectra.butterfly_from_params(params(*args)))


def _pencil_block(monkeypatch, fv, mode):
    # F[1][0] = -sqrt(beta_1), in both layouts
    blocks = spectra._pencil_blocks

    def moved(rec):
        f, g, h = blocks(rec)
        f[1][0] *= 1 + STEP
        return f, g, h

    monkeypatch.setattr(spectra, "_pencil_blocks", moved)


def _lsolp_value(monkeypatch, fv, mode):
    # member 2 at node 1 of the alternating-basis family
    build = verify.lsolp_from_values

    def moved(fv):
        fam = build(fv)
        return fam._replace(node_values=_moved_entry(fam.node_values, 1, 2))

    monkeypatch.setattr(verify, "lsolp_from_values", moved)


# (label, planter, the flagged claims by mode); a row runs in the modes it names
RECURRENCE_ROWS = [
    ("clean", lambda *args: None, {"double": set(), "rational": set()}),
    ("alpha_1", _recurrence("alpha", 1), {
        "double": SPECTRAL | {"folded-reduction-agreement", "lsop-route-agreement",
                              "lsop-top-factorization"},
        "rational": SPECTRAL | {"folded-functional-orthogonality", "folded-reduction-agreement",
                                "lsolp-construction-agreement", "lsop-route-agreement",
                                "lsop-top-factorization"}}),
    ("alpha_N", _recurrence("alpha", N), {
        "double": SPECTRAL | {"lsop-top-factorization", "pencil-eigenvalues"},
        "rational": SPECTRAL | {"lsop-top-factorization", "pencil-eigenvalues"}}),
    ("beta_1", _recurrence("beta", 1), {
        "double": SPECTRAL | {"folded-reduction-agreement", "lsop-route-agreement",
                              "lsop-top-factorization", "skew-orthonormality"},
        "rational": SPECTRAL | {"folded-functional-orthogonality", "folded-reduction-agreement",
                                "lsolp-construction-agreement", "lsop-route-agreement",
                                "lsop-top-factorization", "skew-orthonormality"}}),
    ("beta_N-1", _recurrence("beta", N - 1), {
        "double": SPECTRAL | {"skew-orthonormality"},
        "rational": SPECTRAL | {"lsop-top-factorization", "skew-orthonormality"}}),
    ("tau_1", _recurrence("tau", 1), {
        "double": set(),
        "rational": {"lsolp-construction-agreement", "skew-orthonormality"}}),
    ("tau_N", _recurrence("tau", N), {"double": set(), "rational": {"skew-orthonormality"}}),
    ("alpha_1 by 1e-12", _recurrence("alpha", 1, Fraction(1, 10**12)), {
        "rational": {"folded-functional-orthogonality", "folded-reduction-agreement",
                     "lsolp-construction-agreement", "lsop-route-agreement",
                     "lsop-top-factorization"}}),
    ("beta_1 by 1e-12", _recurrence("beta", 1, Fraction(1, 10**12)), {
        "rational": {"folded-functional-orthogonality", "folded-reduction-agreement",
                     "lsolp-construction-agreement", "lsop-route-agreement",
                     "lsop-top-factorization", "skew-orthonormality"}}),
    ("alpha_N by 1e-12", _recurrence("alpha", N, Fraction(1, 10**12)), {
        "rational": {"lsop-top-factorization"}}),
    ("beta_N-1 by 1e-12", _recurrence("beta", N - 1, Fraction(1, 10**12)), {
        "rational": {"lsop-top-factorization", "skew-orthonormality"}}),
]

ARTIFACT_ROWS = [
    ("value table", _value_table, {
        "double": MULTIPLICATION | {"folded-functional-orthogonality",
                                    "lsolp-construction-agreement",
                                    "pencil-recurrence-residual", "skew-orthonormality"},
        "rational": MULTIPLICATION | {"pencil-recurrence-residual", "skew-orthonormality"}}),
    ("butterfly c_1", _butterfly, {
        mode: {"butterfly-gauge-invariance", "butterfly-spectrum", "butterfly-vs-multiplication"}
        for mode in ("double", "rational")}),
    ("pencil F[1][0]", _pencil_block, {
        mode: {"pencil-recurrence-residual"} for mode in ("double", "rational")}),
    ("lsolp value", _lsolp_value, {
        "double": MULTIPLICATION | {"lsolp-construction-agreement"},
        "rational": MULTIPLICATION}),
]


def _check_rows(monkeypatch, mode, rows):
    measure = _fixed_measure(N, mode)
    claim_ids = {cid for cid, _ in CLAIMS}
    for label, plant, expected in rows:
        if mode not in expected:
            continue
        fv = evaluate_family(measure, N)
        with monkeypatch.context() as mp:
            plant(mp, fv, mode)
            mp.setattr(verify, "evaluate_family", lambda *args: fv)
            report = run_verification(RunConfig(seed=1, order=N, mode=mode), measure)
        assert {c.claim_id for c in report.claims} == claim_ids
        flagged = {c.claim_id for c in report.flagged}
        assert flagged == expected[mode], (label, sorted(flagged ^ expected[mode]))
        assert not [c.claim_id for c in report.flagged if c.exact], label


@pytest.mark.parametrize("mode", ["double", "rational"])
def test_planted_recurrence_defects_flag_their_claims(monkeypatch, mode):
    _check_rows(monkeypatch, mode, RECURRENCE_ROWS)


@pytest.mark.parametrize("mode", ["double", "rational"])
def test_planted_artifact_defects_flag_their_claims(monkeypatch, mode):
    _check_rows(monkeypatch, mode, ARTIFACT_ROWS)
