"""The lazy package namespace and the modules each CLI subcommand loads.

`import lsopkit` loads no submodule; each public name is imported from its
home module on first access.  Each subcommand, run in a fresh interpreter
the way `python -m lsopkit.cli` runs it, writes the same bytes and exits
with the same status as `cli.main` in process, and loads exactly the modules
it runs: beyond the parser's, gen-measure loads lsop alone and lsop laurent
as well, pencil lsop, spectra and numerics, butterfly lsolp as well,
solve-butterfly spectra and numerics but no family module, and only verify
loads the reference routes (oracles), pfaffian and verify.
`import lsopkit.lsop` loads neither the Pfaffian nor the dense kernels nor
the exact layer's integer kernels; `import lsopkit.moments`, `lsopkit.lsop`
and `lsopkit.lsolp` load neither laurent nor oracles, and
`import lsopkit.spectra` no family module.  No subcommand loads
`dataclasses` or the `inspect` module it imports: every record is a
`typing.NamedTuple`.  `lsopkit.modes`, which every other module imports,
loads no other lsopkit module.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import lsopkit
from lsopkit import cli, spectra, verify

DATA = pathlib.Path(__file__).parent / "data"
SRC = str(pathlib.Path(lsopkit.__file__).resolve().parents[1])

# the public names of the package, by home module
PUBLIC = {
    "errors": "AdmissibilityError ConvergenceError DegeneracyError DimensionError "
              "ExpansionLimitError GenerationError LsopkitError RepresentationError "
              "StructureError",
    "laurent": "LaurentPoly",
    "lsolp": "GaugeParams LsolpFamily gauge_transform_scaled lsolp_from_values "
             "multiplication_matrix",
    "lsop": "FamilyValues RecurrenceData evaluate_family lsop_via_recurrence random_family "
            "recurrence_from_measure",
    "moments": "DiscreteMeasure",
    "numerics": "SymTridiag dense_det dense_eigs spectra_distance sym_tridiag_eigs",
    "oracles": "MomentTable c_moment even_to_op gram_schmidt_lsolp kodama_residuals kodama_sops "
               "mu_from_c mu_moment op_via_hankel pfaffian_route skew_inner verify_pfaffian_det",
    "pfaffian": "SkewArray minor_identity pf_eliminate pf_expand pf_indices",
    "spectra": "ButterflyParams PencilPair build_butterfly build_pencil build_tridiagonal "
               "butterfly_from_params butterfly_params butterfly_to_tridiagonal "
               "eig_correspondence pencil_eigenvalues pencil_residual symplectic_pencil_check",
    "verify": "RunConfig VerificationReport run_verification",
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]

# the lsopkit modules each subcommand loads besides lsopkit.cli, which runs
# as __main__; the parser alone loads BASE
BASE = {"errors", "modes", "serialize", "moments"}
FAMILY = BASE | {"lsop"}
PENCIL = FAMILY | {"spectra", "numerics"}
LOADED = {"gen-measure": FAMILY, "lsop": FAMILY | {"laurent"}, "pencil": PENCIL,
          "butterfly": PENCIL | {"lsolp"}, "solve-butterfly": BASE | {"spectra", "numerics"},
          "verify": PENCIL | {"laurent", "lsolp", "oracles", "pfaffian", "verify"}}

# stdlib modules no subcommand may load: each costs a fresh process
# milliseconds of import time
UNUSED_STDLIB = ["dataclasses", "inspect"]

# runs lsopkit.cli as `python -m` does, then prints the lsopkit modules loaded
# and those of UNUSED_STDLIB
RUN_CLI = """
import json, runpy, sys
sys.argv = ["lsopkit", *sys.argv[1:]]
try:
    runpy.run_module("lsopkit.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("lsopkit")),
                  [m for m in %r if m in sys.modules]]))
""" % UNUSED_STDLIB


def _fresh(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True).stdout


@pytest.mark.parametrize("module,name", NAMES)
def test_public_name_is_its_home_modules_object(module, name):
    scope = {}
    exec(f"from lsopkit import {name} as value", scope)
    assert scope["value"] is getattr(importlib.import_module(f"lsopkit.{module}"), name)
    assert getattr(lsopkit, name) is scope["value"]


def test_namespace_lists_every_public_name():
    names = {name for _, name in NAMES}
    assert set(lsopkit.__all__) == names and len(lsopkit.__all__) == 59
    assert names <= set(dir(lsopkit))
    assert {"cli", "modes", "serialize", "verify", "__version__"} <= set(dir(lsopkit))
    assert lsopkit.verify is verify and lsopkit.spectra is spectra and lsopkit.cli is cli


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lsopkit.no_such_name
    with pytest.raises(ImportError):
        exec("from lsopkit import no_such_name", {})


def test_import_loads_no_submodule():
    code = ("import sys, lsopkit; "
            "print(sorted(m for m in sys.modules if m.startswith('lsopkit')))")
    assert _fresh("-c", code).strip() == "['lsopkit']"
    # a public name loads its home module and what that imports, nothing more
    code = ("import json, sys, lsopkit; lsopkit.DiscreteMeasure; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('lsopkit'))))")
    assert json.loads(_fresh("-c", code)) == ["lsopkit", "lsopkit.modes", "lsopkit.moments"]


def _loaded_by(module: str):
    code = (f"import json, sys, lsopkit.{module}; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('lsopkit'))))")
    return json.loads(_fresh("-c", code))


def test_modes_imports_no_other_lsopkit_module():
    # modes holds the scalar kernels every module imports, so it sits below them all
    assert _loaded_by("modes") == ["lsopkit", "lsopkit.modes"]


def test_lsop_loads_neither_the_pfaffian_nor_the_dense_kernels():
    # only the moment-table route and the Hankel references run them, and
    # only the exact walk and the exact coefficient family the integer kernels
    loaded = _loaded_by("lsop")
    assert not {"lsopkit.pfaffian", "lsopkit.numerics", "lsopkit.exact"} & set(loaded)


@pytest.mark.parametrize("module", ["moments", "lsop", "lsolp"])
def test_production_module_loads_no_reference_route(module):
    # the moment sums, the moment-table route and the coefficient-polynomial
    # constructions live in oracles, which alone of these needs laurent
    loaded = _loaded_by(module)
    assert not {"lsopkit.laurent", "lsopkit.oracles"} & set(loaded)


def test_spectra_loads_no_family_module():
    # spectra reads a family through its fields, never through its constructors
    loaded = _loaded_by("spectra")
    assert not {"lsopkit.lsop", "lsopkit.lsolp", "lsopkit.pfaffian"} & set(loaded)


def test_cli_exit_tolerances_are_the_claim_tolerances():
    assert spectra.PENCIL_EIGENVALUES_TOL == verify.DEFAULT_TOLERANCES["pencil-eigenvalues"]
    assert spectra.BUTTERFLY_SPECTRUM_TOL == verify.DEFAULT_TOLERANCES["butterfly-spectrum"]
    assert (spectra.BUTTERFLY_ROUNDTRIP_TOL
            == verify.DEFAULT_TOLERANCES["butterfly-tridiagonal-roundtrip"])


@pytest.fixture(scope="module")
def measure_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("measure") / "m.json"
    assert cli.main(["gen-measure", "--seed", "2", "--order", "3", "--out", str(path)]) == 0
    return path


def _argv(command: str, measure_file: pathlib.Path):
    if command == "gen-measure":
        return [command, "--seed", "3", "--order", "4"]
    if command == "solve-butterfly":
        return [command, str(DATA / "butterfly_params.json")]
    return [command, str(measure_file), *(["--gauge-seed", "9"] if command == "butterfly" else [])]


@pytest.mark.parametrize("command", list(LOADED))
def test_fresh_cli_process_matches_in_process_and_loads_only_what_it_runs(
        command, measure_file, tmp_path):
    argv = _argv(command, measure_file)
    inside, fresh = tmp_path / "inside.json", tmp_path / "fresh.json"
    code = cli.main([*argv, "--out", str(inside)])
    fresh_code, loaded, stdlib = json.loads(_fresh("-c", RUN_CLI, *argv, "--out", str(fresh)))
    assert fresh_code == code
    assert fresh.read_bytes() == inside.read_bytes()
    assert loaded[0] == "lsopkit"
    assert {m.removeprefix("lsopkit.") for m in loaded[1:]} == LOADED[command]
    assert stdlib == []
