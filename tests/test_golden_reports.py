"""Verify reports and CLI outputs against recorded digests, and each shared
artifact built once.

tests/data/golden_report_digests.json holds the sha256 of
run_verification(RunConfig(seed=s, order=n, mode=m)).render() for seeds
1-10, orders 1-8 and both modes.  All were last recorded when
butterfly-gauge-invariance became the explicit gauge similarity and
pencil-symplecticity the exact block check; every other claim record stayed
byte for byte.  Every record flagged exact must read residual 0.  The
suite checks orders 1-5; the whole grid (about a minute) runs with

    PYTHONPATH=src python tests/test_golden_reports.py

tests/data/golden_cli_digests.json holds the exit status and the sha256 of
the --out file of gen-measure, lsop, pencil and butterfly --gauge-seed 9 at
seeds 1-3, order 5, and of solve-butterfly on tests/data/butterfly_params.json,
each in both modes.  Both the suite and the full-grid run check all of them
through cli.main; the full-grid run checks them again through fresh
`python -m lsopkit.cli` processes, the way the command line runs them.

tests/data/golden_fixed_digests.json holds the sha256 of the claim-seed-1
report on the fixed measure (_fixed_measure) at orders 12, 16, 24 and 32 in
double mode and 12, 24 and 32 in rational mode, beyond the grid's order 8.
The suite checks double orders 12 and 16 and rational order 12; the
full-grid run checks all seven.
"""

import collections
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from lsopkit import cli, lsolp, lsop, pfaffian, serialize, spectra, verify
from lsopkit.moments import DiscreteMeasure
from lsopkit.verify import RunConfig, run_verification

DATA = pathlib.Path(__file__).parent / "data"
DIGESTS = json.loads((DATA / "golden_report_digests.json").read_text())
CLI_DIGESTS = json.loads((DATA / "golden_cli_digests.json").read_text())
FIXED_DIGESTS = json.loads((DATA / "golden_fixed_digests.json").read_text())
MODES = ("double", "rational")
SEEDS = range(1, 11)
SUITE_ORDERS = range(1, 6)
CLI_COMMANDS = ("gen-measure", "lsop", "pencil", "butterfly", "solve-butterfly")


def _digest(seed: int, order: int, mode: str) -> str:
    report = run_verification(RunConfig(seed=seed, order=order, mode=mode))
    inexact = [c.claim_id for c in report.claims if c.exact and c.residual != 0]
    assert not inexact, f"{mode}/{order}/{seed}: exact records with a nonzero residual: {inexact}"
    return hashlib.sha256(report.render().encode()).hexdigest()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("order", SUITE_ORDERS)
def test_report_matches_golden_digest(order, mode):
    for seed in SEEDS:
        assert _digest(seed, order, mode) == DIGESTS[f"{mode}/{order}/{seed}"], f"seed {seed}"


def _cli_calls(command: str):
    """(digest key, argv) of every guarded call of one subcommand."""
    for mode in MODES:
        if command == "solve-butterfly":
            yield f"{command}/{mode}", [command, str(DATA / "butterfly_params.json"), "--mode", mode]
            continue
        for seed in range(1, 4):
            argv = [command, "--seed", str(seed), "--order", "5", "--mode", mode]
            if command == "butterfly":
                argv += ["--gauge-seed", "9"]
            yield f"{command}/{mode}/{seed}", argv


def _cli_digest(argv, out: pathlib.Path, main=cli.main) -> list:
    code = main([*argv, "--out", str(out)])
    return [code, hashlib.sha256(out.read_bytes()).hexdigest()]


def _cli_process(argv) -> int:
    """cli.main(argv) as `python -m lsopkit.cli` in a fresh interpreter that
    compiles the package from source."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "lsopkit.cli", *argv], env=env).returncode


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_cli_output_matches_golden_digest(command, tmp_path):
    for key, argv in _cli_calls(command):
        assert _cli_digest(argv, tmp_path / "out.json") == CLI_DIGESTS[key], key


def _fixed_measure(n: int, mode: str = "double") -> DiscreteMeasure:
    """Nodes spread over [1.2, 5), weights in [0.5, 0.9]; the rational
    measure is its exact twin, not the binary64 one.  The one copy of the
    fixed measure: the other test modules import it from here."""
    if mode == "rational":
        return DiscreteMeasure([Fraction(6, 5) + Fraction(19, 5) * Fraction(k, n) for k in range(n)],
                               [Fraction(1, 2) + Fraction((7 * k) % 5, 10) for k in range(n)])
    return DiscreteMeasure([1.2 + 3.8 * k / n for k in range(n)],
                           [0.5 + 0.5 * ((7 * k) % 5) / 5 for k in range(n)])


def _fixed_digest(key: str) -> str:
    mode, order = key.split("/")
    report = run_verification(RunConfig(seed=1, order=int(order), mode=mode),
                              _fixed_measure(int(order), mode))
    return hashlib.sha256(report.render().encode()).hexdigest()


@pytest.mark.parametrize("key", ["double/12", "double/16", "rational/12"])
def test_fixed_measure_report_matches_golden_digest(key):
    assert _fixed_digest(key) == FIXED_DIGESTS[key]


@pytest.fixture
def fold_count(monkeypatch):
    """Names the fold class of every fold built: the exact walk or the float fold."""
    built = []
    for name in ("_FoldedWalk", "_FloatFold"):
        fold = getattr(lsop, name)

        class Counting(fold):
            def __init__(self, *args, _name=name, _fold=fold):
                built.append(_name)
                _fold.__init__(self, *args)

        monkeypatch.setattr(lsop, name, Counting)
    return built


FOLD = {"double": "_FloatFold", "rational": "_FoldedWalk"}


@pytest.mark.parametrize("mode", MODES)
def test_generated_report_folds_once(fold_count, mode):
    run_verification(RunConfig(seed=1, order=5, mode=mode))
    assert fold_count == [FOLD[mode]]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("command", ["gen-measure", "verify", "lsop", "pencil", "butterfly"])
def test_generated_cli_folds_once(fold_count, command, mode):
    with redirect_stdout(io.StringIO()):
        assert cli.main([command, "--seed", "1", "--order", "5", "--mode", mode]) in (0, 2)
    assert fold_count == [FOLD[mode]]


@pytest.mark.parametrize("mode", MODES)
def test_report_folds_its_measure_once(fold_count, mode):
    m = _fixed_measure(5)
    if mode == "rational":
        m = DiscreteMeasure([Fraction(z) for z in m.nodes], [Fraction(w) for w in m.weights])
    run_verification(RunConfig(seed=1, order=5, mode=mode), m)
    assert fold_count == ["_FloatFold" if mode == "double" else "_FoldedWalk"]


def test_failed_walk_is_built_once(fold_count):
    m = DiscreteMeasure([2.0, 2.0, 3.0], [0.3, 0.4, 0.5], strict=False)
    report = run_verification(RunConfig(seed=1, order=3), m)
    assert fold_count == ["_FoldedWalk"]
    aborted = {c.summary for c in report.claims if "h_2 vanished" in c.summary}
    assert aborted == {"evaluation aborted (DegeneracyError): folded norm h_2 vanished; tau_3 = 0"}
    assert sum("h_2 vanished" in c.summary for c in report.claims) == 21


def test_zero_tau_measure_aborts_each_route_where_it_did():
    # mu_1 = 0 makes tau_1 = 0: lsop-route-agreement reads the walk before the
    # Pfaffian route, and pfaffian-hankel-identity meets the zero pivot itself
    m = DiscreteMeasure([2, 3], [1, Fraction(-9, 16)], strict=False)
    report = run_verification(RunConfig(seed=1, order=2, mode="rational"), m)
    records = {c.claim_id: c.record() for c in report.claims}
    aborted = {"convention": "", "residual": math.inf, "status": "flag", "exact": False}
    assert records["lsop-route-agreement"] == {
        "id": "lsop-route-agreement", "tolerance": 1e-8, **aborted,
        "summary": "evaluation aborted (DegeneracyError): folded norm h_0 vanished; tau_1 = 0"}
    assert records["pfaffian-hankel-identity"] == {
        "id": "pfaffian-hankel-identity", "tolerance": 1e-8, **aborted,
        "summary": "evaluation aborted (DegeneracyError): "
                   "tau_1 = 0: the skew orthogonal family does not exist"}
    assert (hashlib.sha256(report.render().encode()).hexdigest()
            == "2f0dd07e0a628116309a4c1cda2c44ca6f391398dbc6c110b1a5335d04d3adde")


@pytest.fixture
def build_count(monkeypatch):
    """Counts the calls that code in spectra, lsolp, lsop and verify makes of
    the pencil, transfer and alternating-family builders, of the even-member
    reduction, of the one-pass Pfaffian route and its elimination, and of the
    Pfaffians lsop takes one per minor.  Each is swapped in its home module,
    which lsop's imports at call time read, and wherever a module has bound
    it; the Pfaffians pfaffian takes itself (minor_identity's) do not count."""
    counts = collections.Counter()
    callers = (spectra, lsolp, lsop, verify)
    counted_in = {mod.__name__ for mod in callers}
    watched = {
        "build_pencil": spectra, "pencil_from_recurrence": spectra,
        "transfer_symplecticity": spectra, "transfer_matrix": spectra,
        "lsolp_from_values": lsolp, "even_to_op": lsop,
        "pfaffian_route": lsop, "pf_leading_borders": pfaffian, "pf_indices": pfaffian,
    }
    for name, home in watched.items():
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            if sys._getframe(1).f_globals["__name__"] in counted_in:
                counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in (home, *callers):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


@pytest.mark.parametrize("mode", MODES)
def test_report_builds_each_artifact_once(build_count, mode):
    m = _fixed_measure(6)
    if mode == "rational":
        m = DiscreteMeasure([Fraction(z) for z in m.nodes], [Fraction(w) for w in m.weights])
    report = run_verification(RunConfig(seed=1, order=6, mode=mode), m)
    assert report.all_pass
    # one textbook pencil, one rederived layout, one transfer matrix and one
    # transfer symplecticity check per layout (the eigenvalue claim reads the
    # recurrence layout's matrix), and one reduction per even member up to
    # the coefficient-route order (6, 4).  Both Pfaffian-route claims read one
    # route of the moment table: rational mode eliminates it once, double
    # mode takes lsop's Pfaffians one per minor, 41 for q_0..q_8, whose rows
    # hold tau_1..4 and sigma_1..4 too
    pfaffians = {"pf_leading_borders": 1} if mode == "rational" else {"pf_indices": 41}
    assert build_count == {"build_pencil": 1, "pencil_from_recurrence": 1,
                           "transfer_symplecticity": 2, "transfer_matrix": 2,
                           "lsolp_from_values": 1, "pfaffian_route": 1,
                           "even_to_op": 7 if mode == "rational" else 5, **pfaffians}


@pytest.mark.parametrize("command", ["pencil", "butterfly"])
def test_cli_folds_its_measure_once(fold_count, tmp_path, command):
    mfile = tmp_path / "m.json"
    mfile.write_text(serialize.save_measure(_fixed_measure(5)))
    with redirect_stdout(io.StringIO()):
        assert cli.main([command, str(mfile)]) == 0
    assert fold_count == ["_FloatFold"]


if __name__ == "__main__":
    bad = [f"{mode}/{n}/{s}" for mode in MODES for n in range(1, 9) for s in SEEDS
           if _digest(s, n, mode) != DIGESTS[f"{mode}/{n}/{s}"]]
    print(f"{len(DIGESTS) - len(bad)}/{len(DIGESTS)} reports match", *bad, sep="\n")
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out.json"
        bad_cli = [key for command in CLI_COMMANDS for key, argv in _cli_calls(command)
                   if _cli_digest(argv, out) != CLI_DIGESTS[key]]
        bad_process = [key for command in CLI_COMMANDS for key, argv in _cli_calls(command)
                       if _cli_digest(argv, out, _cli_process) != CLI_DIGESTS[key]]
    print(f"{len(CLI_DIGESTS) - len(bad_cli)}/{len(CLI_DIGESTS)} CLI outputs match", *bad_cli, sep="\n")
    print(f"{len(CLI_DIGESTS) - len(bad_process)}/{len(CLI_DIGESTS)} CLI outputs match "
          "through python -m lsopkit.cli", *bad_process, sep="\n")
    bad_fixed = [key for key in FIXED_DIGESTS if _fixed_digest(key) != FIXED_DIGESTS[key]]
    print(f"{len(FIXED_DIGESTS) - len(bad_fixed)}/{len(FIXED_DIGESTS)} fixed-measure reports match",
          *bad_fixed, sep="\n")
    sys.exit(1 if bad or bad_cli or bad_process or bad_fixed else 0)
