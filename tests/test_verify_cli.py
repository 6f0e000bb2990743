"""Verification reports, file formats, and the command-line interface."""

import json
import math
import sys
from fractions import Fraction

import pytest

from lsopkit import numerics, serialize, spectra, verify
from lsopkit.cli import main
from lsopkit.lsolp import GaugeParams
from lsopkit.lsop import FamilyValues, evaluate_family, random_family, support_gram, support_pairing
from lsopkit.moments import DiscreteMeasure
from lsopkit.numerics import inf_norm
from lsopkit.verify import CLAIMS, DEFAULT_TOLERANCES, RunConfig, run_verification

from fraction_oracle import as_tables, fraction_columns, fraction_tables
from test_golden_reports import _fixed_measure


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(order=0)
    with pytest.raises(ValueError):
        RunConfig(mode="decimal")
    with pytest.raises(ValueError):
        RunConfig(tolerances={"no-such-claim": 1e-3})
    with pytest.raises(ValueError):
        RunConfig(tolerances={"skew-orthonormality": -1.0})
    with pytest.raises(ValueError, match="must be positive and finite"):
        RunConfig(tolerances={"unit-modulus-pairs": math.inf})


@pytest.mark.parametrize("value", [True, False, "1e-3", None, 1j])
def test_run_config_refuses_non_real_tolerances(value):
    with pytest.raises(ValueError, match="must be a real number"):
        RunConfig(tolerances={"skew-orthonormality": value})


@pytest.mark.parametrize("field,value", [("order", True), ("order", 2.0), ("order", "2"),
                                         ("seed", True), ("seed", 1.5), ("seed", None)])
def test_run_config_refuses_non_int_seed_and_order(field, value):
    # a bool would render as true, a float seed as 1.5, and a float order
    # would fail later inside random_family
    with pytest.raises(ValueError, match="seed and order must be ints"):
        RunConfig(**{field: value})
    with pytest.raises(ValueError, match="seed and order must be ints"):
        RunConfig(seed=3, order=2)._replace(**{field: value})


def test_tolerance_overrides_are_stored_as_floats():
    cfg = RunConfig(tolerances={"skew-orthonormality": Fraction(1, 8), "butterfly-spectrum": 2})
    assert dict(cfg.tolerances) == {"skew-orthonormality": 0.125, "butterfly-spectrum": 2.0}
    assert all(type(v) is float for v in cfg.tolerances.values())
    doc = run_verification(cfg._replace(order=1)).document()
    assert doc["environment"]["tolerance_overrides"] == {"butterfly-spectrum": 2.0,
                                                        "skew-orthonormality": 0.125}
    records = {r["id"]: r for r in doc["claims"]}
    assert type(records["skew-orthonormality"]["tolerance"]) is float


def test_every_claim_has_default_tolerance():
    ids = [cid for cid, _ in CLAIMS]
    assert len(ids) == len(set(ids)) == 32
    assert list(DEFAULT_TOLERANCES) == ids


def test_status_and_records_are_decided_in_one_place(monkeypatch):
    def aborts(ctx):
        raise ValueError("no measurement")

    # run_verification reads CLAIMS when called, so a swapped suite runs as
    # is; it looks up each claim's exact modes by the claim's id
    monkeypatch.setattr(verify, "CLAIMS", (
        ("lsop-odd-normalization", lambda ctx: verify.Measured(1e-300, "tiny")),
        ("pencil-symplecticity", lambda ctx: verify.Measured(0.0, "zero")),
        ("lsop-route-agreement", lambda ctx: verify.Measured(1e-12, "small", "c")),
        ("tridiagonal-spectrum", lambda ctx: verify.Measured(1e-8, "at tolerance")),
        ("pencil-eigenvalues", aborts),
    ))
    # the largest finite tolerance still flags an aborted claim, and an
    # override of a claim that is exact in rational mode applies in double only
    tolerances = {"pencil-eigenvalues": sys.float_info.max, "lsop-route-agreement": 1e-3}
    for mode, route_status in (("double", "pass"), ("rational", "flag")):
        rep = run_verification(RunConfig(seed=1, order=2, mode=mode, tolerances=tolerances))
        assert [c.record() for c in rep.claims] == [
            {"id": "lsop-odd-normalization", "summary": "tiny", "convention": "",
             "residual": 1e-300, "tolerance": 0.0, "status": "flag", "exact": False},
            {"id": "pencil-symplecticity", "summary": "zero", "convention": "",
             "residual": 0.0, "tolerance": 0.0, "status": "pass", "exact": True},
            {"id": "lsop-route-agreement", "summary": "small", "convention": "c",
             "residual": 1e-12, "tolerance": 1e-3, "status": route_status, "exact": False},
            {"id": "tridiagonal-spectrum", "summary": "at tolerance", "convention": "",
             "residual": 1e-8, "tolerance": 1e-8, "status": "pass", "exact": False},
            {"id": "pencil-eigenvalues",
             "summary": "evaluation aborted (ValueError): no measurement", "convention": "",
             "residual": math.inf, "tolerance": sys.float_info.max, "status": "flag",
             "exact": False},
        ], mode


def test_report_contains_each_claim_once():
    rep = run_verification(RunConfig(seed=2, order=3, mode="double"))
    seen = [c.claim_id for c in rep.claims]
    assert seen == [cid for cid, _ in CLAIMS]
    doc = rep.document()
    assert doc["counts"]["pass"] + doc["counts"]["flag"] == len(CLAIMS)


def test_report_deterministic_bytes():
    cfg = RunConfig(seed=9, order=4, mode="double")
    assert run_verification(cfg).render() == run_verification(cfg).render()


# the two structural zeros, exact in both modes
EXACT_IN_BOTH = {"lsop-odd-normalization", "pencil-symplecticity"}


def test_rational_run_exact_claims_zero():
    rep = run_verification(RunConfig(seed=3, order=4, mode="rational"))
    assert rep.all_pass
    exact_ids = EXACT_IN_BOTH | {
        "pfaffian-route-agreement", "pfaffian-square-determinant",
        "pfaffian-minor-identity-even", "pfaffian-minor-identity-odd",
        "skew-moment-sign-convention", "moment-shift-invariance",
        "laurent-argument-symmetry", "chebyshev-moment-roundtrip",
        "lsop-route-agreement", "lsop-self-reciprocity", "lsop-top-factorization",
        "skew-orthonormality", "folded-reduction-agreement",
        "folded-functional-orthogonality", "three-term-relation",
        "pfaffian-hankel-identity", "squared-variable-recurrence",
        "lsolp-construction-agreement",
    }
    assert len(exact_ids) == 20
    assert {c.claim_id for c in rep.claims if c.exact} == exact_ids
    for c in rep.claims:
        if c.claim_id in exact_ids:
            assert c.residual == 0.0, c.claim_id
        if c.claim_id == "butterfly-gauge-invariance":
            assert c.residual <= 1e-13


def test_double_run_exact_claims_zero():
    rep = run_verification(RunConfig(seed=3, order=4, mode="double"))
    assert rep.all_pass
    assert {c.claim_id for c in rep.claims if c.exact} == EXACT_IN_BOTH
    assert all(c.residual == 0.0 for c in rep.claims if c.exact)


@pytest.mark.parametrize("order", [4, 9])
def test_report_runs_at_its_measure_full_size(order):
    # at order 4 on 8 nodes, zip paired 4 tridiagonal eigenvalues with the 4
    # smallest of 8 targets and the spectral claims aborted
    with pytest.raises(ValueError, match=f"measure has 8 nodes, need {order}"):
        run_verification(RunConfig(seed=1, order=order), _fixed_measure(8))
    assert run_verification(RunConfig(seed=1, order=8), _fixed_measure(8)).all_pass


def test_rational_run_refuses_a_binary64_measure():
    # toleranced float residuals would be reported exact; its exact twin runs
    nodes, weights = [2.0, 3.0, 4.5], [0.5, 0.7, 0.2]
    cfg = RunConfig(seed=1, order=3, mode="rational")
    with pytest.raises(ValueError, match="needs an exact"):
        run_verification(cfg, DiscreteMeasure(nodes, weights))
    twin = DiscreteMeasure([Fraction(z) for z in nodes], [Fraction(w) for w in weights])
    rep = run_verification(cfg, twin)
    exact = [c for c in rep.claims if c.exact]
    assert exact and all(c.residual == 0 for c in exact), [c.claim_id for c in exact if c.residual]
    assert "skew-orthonormality" in {c.claim_id for c in exact}


def test_double_run_within_tolerances():
    rep = run_verification(RunConfig(seed=4, order=8, mode="double"))
    assert rep.all_pass, [c.claim_id for c in rep.flagged]


def test_tightened_tolerance_flags_spectrum():
    cfg = RunConfig(seed=5, order=4, mode="double",
                    tolerances={"tridiagonal-spectrum": 1e-30})
    rep = run_verification(cfg)
    assert any(c.claim_id == "tridiagonal-spectrum" and c.status == "flag" for c in rep.claims)
    assert not rep.all_pass


def test_corrupted_measure_flags_without_aborting():
    m = random_family(5, 4, "double").measure
    weights = list(m.weights)
    weights[0] = -weights[0]  # inadmissible: tau turns negative
    bad = DiscreteMeasure(m.nodes, weights)
    rep = run_verification(RunConfig(seed=5, order=4, mode="double"), bad)
    assert len(rep.claims) == len(CLAIMS)  # the suite ran to completion
    flagged = {c.claim_id for c in rep.flagged}
    assert "tridiagonal-spectrum" in flagged
    assert "skew-orthonormality" in flagged
    # measure-independent claims still pass
    assert "pfaffian-route-agreement" not in flagged


def test_nan_in_the_value_tables_flags(monkeypatch):
    fv = random_family(2, 3, "double")
    m = fv.measure
    fv.p_values[1][0] = float("nan")  # one folded value, before any table is built
    monkeypatch.setattr(verify, "evaluate_family", lambda *args: fv)
    claims = {c.claim_id: c for c in run_verification(RunConfig(seed=2, order=3), m).claims}
    for cid in ("skew-orthonormality", "folded-functional-orthogonality",
                "pencil-recurrence-residual"):
        assert claims[cid].status == "flag" and math.isnan(claims[cid].residual), cid
    assert "not skew orthonormal (defect nan" in claims["lsolp-multiplication-sparsity"].summary
    assert claims["pfaffian-route-agreement"].status == "pass"


@pytest.mark.parametrize("member", [2, 5])
def test_moved_monic_value_flags_exact_orthonormality(monkeypatch, member):
    # one exact monic value moved by 1/10^6 flags, with the largest deviation
    # over the full even-even, odd-odd and even-odd blocks of the Gram matrix
    monic_values = FamilyValues.monic_values

    def moved(fv):
        # q_member(z_1) + 1/10^6: the member's columns over 10^6 times their
        # denominator, and that denominator added at node 1
        node, recip, den = monic_values(fv)
        node[member] = [v * 10**6 for v in node[member]]
        recip[member] = [v * 10**6 for v in recip[member]]
        node[member][1] += den[member]
        den[member] *= 10**6
        return node, recip, den

    monkeypatch.setattr(FamilyValues, "monic_values", moved)
    fv = random_family(3, 4, "rational")
    node, recip = as_tables(*fv.monic_values())
    clean_node, clean_recip = fraction_tables(fv)
    assert recip == clean_recip and node[1][member] - clean_node[1][member] == Fraction(1, 10**6)
    assert sum(a != b for row, clean in zip(node, clean_node) for a, b in zip(row, clean)) == 1
    gram = support_gram(fv.measure.weights, node, recip)
    scales = fv.exact_rec.scale_squares()
    full = max(abs(float(v)) for a in range(4) for b in range(4)
               for v in (gram[2 * a][2 * b], gram[2 * a + 1][2 * b + 1],
                         gram[2 * a][2 * b + 1] * scales[b] - (a == b)))
    claim = {c.claim_id: c for c in run_verification(RunConfig(seed=3, order=4, mode="rational"),
                                                     fv.measure).claims}["skew-orthonormality"]
    assert claim.status == "flag" and not claim.exact
    assert claim.residual == full > 0


def fraction_orthonormality(fv, node, recip):
    """The residual of the exact skew Gram check summed as Fractions, one
    support_pairing per entry: the check before its integer form."""
    n = fv.order
    scales = fv.exact_rec.scale_squares()

    def pairing(a, b):
        return support_pairing(fv.measure.weights, node, recip, a, b)

    worst = 0.0
    for a in range(n):
        for b in range(n):
            vals = [pairing(2 * a, 2 * b + 1) * scales[b] - (1 if a == b else 0)]
            if a < b:
                vals += (pairing(2 * a, 2 * b), pairing(2 * a + 1, 2 * b + 1))
            for v in vals:
                if v != 0:
                    worst = numerics.nan_max(worst, abs(float(v)))
    return worst


@pytest.mark.parametrize("case", [f"seed/{s}" for s in range(1, 11)] + ["fixed/12"])
def test_integer_gram_equals_fraction_pairings(monkeypatch, case):
    # the clean tables, then one node value and one reciprocal value moved
    # by a small fraction, so that worst is a nonzero float in both forms
    kind, k = case.split("/")
    fv = (random_family(int(k), 3 + int(k) % 4, "rational") if kind == "seed"
          else evaluate_family(_fixed_measure(int(k), "rational")))
    clean = as_tables(*FamilyValues.monic_values(fv))
    n = fv.order
    moves = [None, ("node", 1, int(k) % (2 * n), Fraction(1, 10**6)),
             ("recip", n - 1, (3 * int(k)) % (2 * n), Fraction(-7, 3 * 10**5))]
    seen = []
    for move in moves:
        node, recip = [row[:] for row in clean[0]], [row[:] for row in clean[1]]
        if move:
            table, row, col, delta = move
            (node if table == "node" else recip)[row][col] += delta
        monkeypatch.setattr(FamilyValues, "monic_values",
                            lambda self: fraction_columns(node, recip))
        ctx = verify._Context(RunConfig(seed=1, order=n, mode="rational"), fv.measure)
        ctx._cache["fv"] = (True, fv)
        got = verify._exact_orthonormality(ctx)
        assert got == fraction_orthonormality(fv, node, recip), move
        seen.append(got)
    assert seen[0] == 0.0
    assert all(worst > 0 for worst in seen[1:])


@pytest.mark.parametrize("move", ["entry", "parameter"])
def test_moved_butterfly_flags_gauge_invariance(monkeypatch, move):
    # gauged butterflies get one entry, or their first coupling d_2, moved by
    # 1e-6; the one built right after the trivial gauge's is the claim's dense
    # anchor and stays clean, so only the similarity can flag
    trivial = GaugeParams.trivial(5)
    built = [None]

    def moved(rec, g, *args):
        bp = spectra.butterfly_params(rec, g, *args)
        clean = trivial in (g, built[-1])
        built.append(g)
        if not clean and move == "parameter":
            bp = bp._replace(d=(bp.d[0] + 1e-6,) + bp.d[1:])
        bt = spectra.butterfly_from_params(bp)
        if not clean and move == "entry":
            bt[0][0] += 1e-6
        return bt

    cfg = RunConfig(seed=1, order=5)
    claim = {c.claim_id: c for c in run_verification(cfg).claims}["butterfly-gauge-invariance"]
    assert claim.status == "pass" and claim.residual <= 1e-13
    monkeypatch.setattr(verify, "build_butterfly", moved)
    claim = {c.claim_id: c for c in run_verification(cfg).claims}["butterfly-gauge-invariance"]
    assert claim.status == "flag" and claim.residual > 1e-8


@pytest.mark.parametrize("block, i, j, value", [(1, 2, 1, 1e-12), (2, 2, 1, 1e-12),
                                                (2, 2, 2, float("nan"))])
def test_broken_pencil_block_flags_pencil_symplecticity(monkeypatch, block, i, j, value):
    # one G (block 1) or H (block 2) entry off its symmetric place by 1e-12,
    # below the dense check's former 1e-10 tolerance, or a NaN on H's
    # diagonal flags the exact claim
    blocks = spectra._pencil_blocks

    def broken(rec):
        fgh = blocks(rec)
        fgh[block][i][j] = value
        return fgh

    monkeypatch.setattr(spectra, "_pencil_blocks", broken)
    claim = {c.claim_id: c for c in run_verification(RunConfig(seed=2, order=4)).claims}
    assert claim["pencil-symplecticity"].status == "flag"
    assert not claim["pencil-symplecticity"].residual == 0


def test_report_with_aborted_claim_is_valid_json():
    rep = run_verification(RunConfig(seed=12, order=4, mode="double"))
    doc = json.loads(rep.render())
    aborted = [c for c in doc["claims"] if c["summary"].startswith("evaluation aborted")]
    assert aborted and all(c["residual"] is None for c in aborted)


def test_conventions_are_reported():
    rep = run_verification(RunConfig(seed=6, order=4, mode="double"))
    by_id = {c.claim_id: c for c in rep.claims}
    assert by_id["skew-moment-sign-convention"].convention == "entries-mu(j-i)"
    assert by_id["pencil-recurrence-residual"].convention == "rearranged-layout"
    assert by_id["butterfly-diagonal-convention"].convention == "difference-of-alphas"


# -- serialization ------------------------------------------------------------

def test_measure_roundtrip_double(tmp_path):
    m = random_family(7, 4, "double").measure
    text = serialize.save_measure(m, {"seed": 7})
    back = serialize.load_measure(text, "double")
    assert back.nodes == m.nodes and back.weights == m.weights


def test_measure_roundtrip_rational():
    m = random_family(7, 3, "rational").measure
    text = serialize.save_measure(m)
    back = serialize.load_measure(text, "rational")
    assert back.nodes == m.nodes and back.weights == m.weights
    assert all(isinstance(z, Fraction) for z in back.nodes)


def test_decimal_literals_parse_exactly_in_rational_mode():
    text = '{"nodes": [2.5], "weights": [0.1]}'
    m = serialize.load_measure(text, "rational")
    assert m.nodes[0] == Fraction(5, 2)
    assert m.weights[0] == Fraction(1, 10)  # exact decimal, not binary float


@pytest.mark.parametrize("mode", ["double", "rational"])
def test_string_numbers_read_as_literals(mode):
    # a string entry reads as the literal it spells: correctly rounded in
    # double mode (as float(s)), exact in rational mode
    texts = ["2.5", "1.1", "-3.75", "1e-3", "2.5E+2", "0.1", "7/3", "-22/7", "1234567.891e-2"]
    doc = json.dumps({"nodes": texts, "weights": ["1"] * len(texts)})
    m = serialize.load_measure(doc, mode)
    if mode == "double":
        assert list(m.nodes) == [float(Fraction(t)) for t in texts]
        assert [m.nodes[i] for i in range(6)] == [float(t) for t in texts[:6]]
        assert all(type(z) is float for z in m.nodes + m.weights)
    else:
        assert list(m.nodes) == [Fraction(t) for t in texts]
        assert m.nodes[3] == Fraction(1, 1000) and m.nodes[4] == 250
    # the same values as unquoted literals, where JSON has them
    literal = serialize.load_measure('{"nodes": [2.5, 1.1, -3.75, 1e-3, 2.5E+2, 0.1],'
                                     ' "weights": [1, 1, 1, 1, 1, 1]}', mode)
    assert list(literal.nodes) == list(m.nodes[:6])


def test_strings_outside_numeric_arrays_stay_strings():
    text = '{"nodes": ["3/2"], "weights": [1], "metadata": {"tau": ["5/2"], "name": "1/3"}}'
    assert serialize.loads(text)["metadata"] == {"tau": ["5/2"], "name": "1/3"}
    assert serialize.load_measure(text, "double").nodes == (1.5,)


def test_seventeen_digit_roundtrip():
    x = 0.1234567890123456789
    text = serialize.dumps({"x": x})
    assert json.loads(text)["x"] == x


def test_matrix_document_roundtrip():
    m = [[1.5, 2.0], [3.0, 4.25]]
    text = serialize.dumps(serialize.matrix_document(m))
    assert serialize.loads(text) == {"rows": 2, "cols": 2, "data": m}


def save_butterfly_params(a, b, c, d) -> str:
    return serialize.dumps({"a": a, "b": b, "c": c, "d": d})


def test_butterfly_file_roundtrip():
    text = save_butterfly_params([1.0], [0.5], [2.0], [])
    a, b, c, d = serialize.load_butterfly_params(text)
    assert (a, b, c, d) == ([1.0], [0.5], [2.0], [])


def test_bad_measure_file_rejected():
    with pytest.raises(ValueError):
        serialize.load_measure('{"nodes": [2.0]}', "double")


# -- CLI ----------------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_cli_gen_measure_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("gen-measure", "--seed", "3", "--order", "4", "--out", str(p1)) == 0
    assert run_cli("gen-measure", "--seed", "3", "--order", "4", "--out", str(p2)) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_verify_pass_and_report(tmp_path):
    mfile = tmp_path / "m.json"
    rfile = tmp_path / "r.json"
    assert run_cli("gen-measure", "--seed", "2", "--order", "3", "--out", str(mfile)) == 0
    code = run_cli("verify", str(mfile), "--seed", "2", "--out", str(rfile))
    assert code == 0
    doc = json.loads(rfile.read_text())
    assert doc["status"] == "pass"
    assert doc["environment"]["seed"] == 2


def test_cli_verify_deterministic(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("verify", "--seed", "11", "--order", "3", "--out", str(r1)) == 0
    assert run_cli("verify", "--seed", "11", "--order", "3", "--out", str(r2)) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_verify_flag_exit_code(tmp_path):
    code = run_cli("verify", "--seed", "2", "--order", "3",
                   "--tol", "tridiagonal-spectrum=1e-30",
                   "--out", str(tmp_path / "r.json"))
    assert code == 2


def test_cli_usage_errors(tmp_path, capsys):
    assert run_cli("verify", "--tol", "bogus") == 1
    assert capsys.readouterr().err == "error: --tol expects NAME=VALUE, got 'bogus'\n"
    # RunConfig refuses the unknown name and lists the known ones
    assert run_cli("verify", "--tol", "no-such=1e-3") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown tolerance 'no-such'; known names: ")
    assert err.rstrip("\n").split("known names: ")[1] == ", ".join(sorted(DEFAULT_TOLERANCES))
    # an infinite tolerance would pass an infinite residual
    assert run_cli("verify", "--tol", "unit-modulus-pairs=inf") == 1
    assert capsys.readouterr().err == "error: tolerance unit-modulus-pairs must be positive and finite\n"
    assert run_cli("verify", str(tmp_path / "missing.json")) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert run_cli("no-such-command") == 1


def test_cli_lsop_pencil_butterfly(tmp_path):
    mfile = tmp_path / "m.json"
    run_cli("gen-measure", "--seed", "5", "--order", "3", "--out", str(mfile))
    for cmd in ("lsop", "pencil", "butterfly"):
        out = tmp_path / f"{cmd}.json"
        assert run_cli(cmd, str(mfile), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["order"] == 3
    pdoc = json.loads((tmp_path / "pencil.json").read_text())
    assert pdoc["recurrence_layout"]["support_residual"] <= 1e-10
    assert pdoc["eigenvalue_mismatch"] <= 1e-6
    bdoc = json.loads((tmp_path / "butterfly.json").read_text())
    assert bdoc["diagonal_convention"] == "difference-of-alphas"
    assert bdoc["spectrum_mismatch"] <= 1e-7


@pytest.mark.parametrize("mode", ["double", "rational"])
def test_cli_empty_measure_is_one_error_line(tmp_path, capsys, mode):
    # an order-0 measure has no pencil and no butterfly, and empty quadruples
    # no butterfly solve: exit 1 with one line
    mfile, pfile = tmp_path / "empty.json", tmp_path / "params.json"
    mfile.write_text('{"nodes": [], "weights": []}')
    pfile.write_text('{"a": [], "b": [], "c": [], "d": []}')
    for cmd, path, message in (("butterfly", mfile, "butterfly needs order >= 1"),
                               ("pencil", mfile, "pencil needs order >= 1"),
                               ("verify", mfile, "order must be >= 1"),
                               ("solve-butterfly", pfile, "butterfly needs order >= 1")):
        assert run_cli(cmd, str(path), "--mode", mode) == 1, cmd
        assert capsys.readouterr().err == f"error: {message}\n", cmd


@pytest.mark.parametrize("mode", ["double", "rational"])
def test_cli_pencil_reports_the_verify_pencil_numbers(tmp_path, mode):
    # lsopkit pencil and lsopkit verify read one measure file and must report
    # the same pencil eigenvalue mismatch, recurrence-layout residual and,
    # scaled by max(1, |U|_inf |V|_inf), symplecticity residuals
    mfile, pfile, rfile = tmp_path / "m.json", tmp_path / "p.json", tmp_path / "r.json"
    assert run_cli("gen-measure", "--seed", "3", "--order", "4", "--mode", mode, "--out", str(mfile)) == 0
    assert run_cli("pencil", str(mfile), "--mode", mode, "--out", str(pfile)) == 0
    assert run_cli("verify", str(mfile), "--mode", mode, "--out", str(rfile)) == 0
    pencil = json.loads(pfile.read_text())
    residual = {c["id"]: c["residual"] for c in json.loads(rfile.read_text())["claims"]}
    assert pencil["eigenvalue_mismatch"] == residual["pencil-eigenvalues"]
    assert pencil["recurrence_layout"]["support_residual"] == residual["pencil-recurrence-residual"]
    layouts = [pencil["textbook_layout"], pencil["recurrence_layout"]]
    for field, claim_id in (("pencil_symplecticity", "pencil-symplecticity"),
                            ("transfer_symplecticity", "transfer-symplecticity")):
        scaled = [lay[field] / max(1.0, inf_norm(lay["U"]["data"]) * inf_norm(lay["V"]["data"]))
                  for lay in layouts]
        assert max(scaled) == residual[claim_id]


def test_cli_pencil_butterfly_flag_spectrum_mismatch(tmp_path, monkeypatch):
    mfile = tmp_path / "m.json"
    run_cli("gen-measure", "--seed", "5", "--order", "3", "--out", str(mfile))
    # the subcommands import their routes when called, so patch them at home;
    # both eigensolve a dense matrix (pencil its stored transfer matrix)
    dense_eigs = numerics.dense_eigs
    monkeypatch.setattr(numerics, "dense_eigs", lambda a: [z + 1e-3 for z in dense_eigs(a)])
    assert run_cli("pencil", str(mfile), "--out", str(tmp_path / "p.json")) == 2
    assert run_cli("butterfly", str(mfile), "--out", str(tmp_path / "b.json")) == 2


@pytest.mark.parametrize("mode", ["double", "rational"])
def test_cli_refuses_non_finite_measure_file(tmp_path, capsys, mode):
    mfile = tmp_path / "m.json"
    mfile.write_text('{"nodes": [2.0, Infinity], "weights": [1.0, 1.0]}')
    assert run_cli("lsop", str(mfile), "--mode", mode) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


MALFORMED_MEASURES = [
    '{"nodes": [1.5, true], "weights": [0.5, 0.5]}',
    '{"nodes": [1.5, 2.5], "weights": [0.5, false]}',
    '{"nodes": [1.5, null], "weights": [0.5, 0.5]}',
    '{"nodes": [1.5, [2.5]], "weights": [0.5, 0.5]}',
    '{"nodes": 1.5, "weights": [0.5]}',
    '{"nodes": [1.5], "weights": {"w": 0.5}}',
    '{"nodes": [1.5, "1/0"], "weights": [0.5, 0.5]}',
    '{"nodes": [1.5, "abc"], "weights": [0.5, 0.5]}',
    '{"nodes": [1.5, 2.5], "weights": [0.5, "nan"]}',
]
MALFORMED_BUTTERFLY = [
    '{"a": [1.0], "b": [0.5], "c": [2.0], "d": null}',
    '{"a": [true], "b": [0.5], "c": [2.0], "d": []}',
    '{"a": 1.0, "b": [0.5], "c": [2.0], "d": []}',
    '{"a": [[1.0]], "b": [0.5], "c": [2.0], "d": []}',
]


@pytest.mark.parametrize("command, mode, text",
                         [("verify", mode, t) for mode in ("double", "rational")
                          for t in MALFORMED_MEASURES]
                         + [("verify", "double", '{"nodes": [1.5, %s], "weights": [0.5, 0.5]}' % big)
                            for big in ("1" + "0" * 400, '"1%s/3"' % ("0" * 400))]
                         + [("solve-butterfly", "double", t) for t in MALFORMED_BUTTERFLY])
def test_cli_refuses_malformed_file(tmp_path, capsys, command, mode, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    assert run_cli(command, str(path), "--mode", mode) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("not a number" in err or "array of numbers" in err)


def test_cli_solve_butterfly(tmp_path):
    pfile = tmp_path / "bp.json"
    pfile.write_text(save_butterfly_params([1.0], [0.0], [2.5], []))
    out = tmp_path / "sol.json"
    assert run_cli("solve-butterfly", str(pfile), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["folded_eigenvalues"] == [2.5]
    assert doc["pairs"][0] == [[2.0, 0.0], [0.5, 0.0]]


def test_cli_solve_butterfly_past_the_overflow_of_lambda_squared(tmp_path):
    # lambda^2 overflows at lambda = 1e160: the pairs were (inf, 0), and matching
    # them to the dense spectrum never returned.  Dense QR resolves the small
    # members only to about eps * 2e160, so the command flags a finite mismatch.
    pfile, out = tmp_path / "bp.json", tmp_path / "sol.json"
    pfile.write_text('{"a": [1.0, 1.0], "b": [0.5, 0.25], "c": [1e160, 2e160], "d": [0.3]}')
    assert run_cli("solve-butterfly", str(pfile), "--out", str(out)) == 2
    doc = json.loads(out.read_text())
    assert doc["pairs"] == [[[1e160, 0.0], [1e-160, 0.0]], [[2e160, 0.0], [5e-161, 0.0]]]
    assert math.isfinite(doc["max_mismatch"])


def test_cli_solve_butterfly_refuses_bad_hypothesis(tmp_path, capsys):
    # butterfly_to_tridiagonal's AdmissibilityError, printed by main
    pfile = tmp_path / "bp.json"
    pfile.write_text(save_butterfly_params([1.0, -1.0], [0.0, 0.0], [1.0, 1.0], [0.5]))
    assert run_cli("solve-butterfly", str(pfile)) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: reduction hypothesis a_i a_{i+1} > 0 violated\n"
    assert captured.out == ""


@pytest.mark.parametrize("text, message", [
    ('{"a": [1.0, NaN], "b": [0.0, 0.0], "c": [1.0, 1.0], "d": [0.5]}', "'a' entry 1 is not finite"),
    ('{"a": [1.0, 1.0], "b": [0.0, Infinity], "c": [1.0, 1.0], "d": [0.5]}',
     "'b' entry 1 is not finite"),
])
def test_cli_solve_butterfly_refuses_non_finite(tmp_path, capsys, text, message):
    # JSON parsing reads NaN and Infinity; the loader, not the eigensolver, refuses them
    pfile = tmp_path / "bp.json"
    pfile.write_text(text)
    assert run_cli("solve-butterfly", str(pfile)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_poly_pairs_serialization():
    from lsopkit.laurent import LaurentPoly

    p = LaurentPoly({-2: Fraction(1, 3), 0: Fraction(-1), 3: Fraction(2)})
    assert serialize.poly_pairs(p) == [[-2, Fraction(1, 3)], [0, Fraction(-1)], [3, Fraction(2)]]


def test_dense_size_cap():
    import pytest as _pytest

    from lsopkit.errors import DimensionError
    from lsopkit.numerics import dense_det

    with _pytest.raises(DimensionError):
        dense_det([[0.0] * 65 for _ in range(65)])
