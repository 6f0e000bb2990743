"""Planted defects against the 32 claims.

Each row of the table plants one defect and names, for each scalar mode,
the claims that must flag; every other claim in the report must pass, and
the clean row flags nothing.  The rows so far move one recurrence
coefficient of the fold by a relative 1e-6, at the first and the last
index: alpha_1, alpha_N, beta_1, beta_N-1, tau_1 and tau_N, planted in the
fold's rec (and in its exact_rec, which rec is, in rational mode) before
any claim reads it.  The fold is the one run_verification would build, the
fixed measure at N = 8 (its exact twin in rational mode), and the claims
draw from seed 1.  A tau move reaches no claim in double mode, and only the
exact orthonormality check (plus lsolp-construction-agreement for tau_1)
in rational mode: no other claim reads tau apart from alpha and beta.
"""

from fractions import Fraction

import pytest

from lsopkit import verify
from lsopkit.lsop import evaluate_family
from lsopkit.verify import CLAIMS, RunConfig, run_verification

from test_golden_reports import _fixed_measure

N = 8
# the claims every alpha or beta move reaches, in both modes
SPECTRAL = {"butterfly-diagonal-convention", "butterfly-spectrum", "butterfly-vs-multiplication",
            "pencil-recurrence-residual", "tridiagonal-spectrum"}

# (field, index or None for the clean row, the flagged claims by mode)
ROWS = [
    (None, None, {"double": set(), "rational": set()}),
    ("alpha", 1, {
        "double": SPECTRAL | {"folded-reduction-agreement", "lsop-route-agreement",
                              "lsop-top-factorization"},
        "rational": SPECTRAL | {"folded-functional-orthogonality", "folded-reduction-agreement",
                                "lsolp-construction-agreement", "lsop-route-agreement",
                                "lsop-top-factorization"}}),
    ("alpha", N, {
        "double": SPECTRAL | {"lsop-top-factorization", "pencil-eigenvalues"},
        "rational": SPECTRAL | {"lsop-top-factorization", "pencil-eigenvalues"}}),
    ("beta", 1, {
        "double": SPECTRAL | {"folded-reduction-agreement", "lsop-route-agreement",
                              "lsop-top-factorization", "skew-orthonormality"},
        "rational": SPECTRAL | {"folded-functional-orthogonality", "folded-reduction-agreement",
                                "lsolp-construction-agreement", "lsop-route-agreement",
                                "lsop-top-factorization", "skew-orthonormality"}}),
    ("beta", N - 1, {
        "double": SPECTRAL | {"skew-orthonormality"},
        "rational": SPECTRAL | {"lsop-top-factorization", "skew-orthonormality"}}),
    ("tau", 1, {"double": set(),
                "rational": {"lsolp-construction-agreement", "skew-orthonormality"}}),
    ("tau", N, {"double": set(), "rational": {"skew-orthonormality"}}),
]


def _moved(rec, field, index, step):
    values = list(getattr(rec, field))
    values[index] = values[index] * (1 + step)
    return rec._replace(**{field: tuple(values)})


@pytest.mark.parametrize("mode", ["double", "rational"])
def test_planted_recurrence_defects_flag_their_claims(monkeypatch, mode):
    measure = _fixed_measure(N, mode)
    claim_ids = {cid for cid, _ in CLAIMS}
    for field, index, expected in ROWS:
        fv = evaluate_family(measure, N)
        if field is not None:
            if mode == "rational":
                fv.exact_rec = fv.rec = _moved(fv.exact_rec, field, index, Fraction(1, 10**6))
            else:
                fv.rec = _moved(fv.rec, field, index, 1e-6)
        monkeypatch.setattr(verify, "evaluate_family", lambda *args: fv)
        report = run_verification(RunConfig(seed=1, order=N, mode=mode), measure)
        assert {c.claim_id for c in report.claims} == claim_ids
        flagged = {c.claim_id for c in report.flagged}
        assert flagged == expected[mode], (field, index, sorted(flagged ^ expected[mode]))
