"""Laurent skew orthogonal polynomials and related symplectic matrices.

A discrete measure with nodes off the unit circle induces a skew inner
product with Laurent symmetry.  This package constructs the associated
skew orthogonal families by two independent routes (moment-table Pfaffians
and two-line recurrences), folds their even members onto classical
orthogonal polynomials in w = z + 1/z, assembles the symplectic pencil and
the butterfly matrix attached to the recurrences, and exploits the
two-way eigenvalue correspondence lambda = z + 1/z as a structured
eigensolver.  Exact rational arithmetic backs every identity; the double
backend carries toleranced numerical counterparts.

The namespace is lazy (PEP 562): ``import lsopkit`` loads no submodule.
_EXPORTS lists the public names by home module; a public name, or a
submodule (``lsopkit.verify``, ``lsopkit.cli``, ...), is imported on first
access and then bound here, so later reads are plain attribute hits.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("AdmissibilityError", "ConvergenceError", "DegeneracyError", "DimensionError",
               "ExpansionLimitError", "GenerationError", "LsopkitError", "RepresentationError",
               "StructureError"),
    "laurent": ("LaurentPoly",),
    "lsolp": ("GaugeParams", "LsolpFamily", "gauge_transform_scaled", "lsolp_from_values",
              "multiplication_matrix"),
    "lsop": ("FamilyValues", "RecurrenceData", "evaluate_family", "lsop_via_recurrence",
             "random_family", "recurrence_from_measure"),
    "moments": ("DiscreteMeasure",),
    "numerics": ("SymTridiag", "dense_det", "dense_eigs", "spectra_distance", "sym_tridiag_eigs"),
    "oracles": ("MomentTable", "c_moment", "even_to_op", "gram_schmidt_lsolp", "kodama_residuals",
                "kodama_sops", "mu_from_c", "mu_moment", "op_via_hankel", "pfaffian_route",
                "skew_inner", "verify_pfaffian_det"),
    "pfaffian": ("SkewArray", "minor_identity", "pf_eliminate", "pf_expand", "pf_indices"),
    "spectra": ("ButterflyParams", "PencilPair", "build_butterfly", "build_pencil",
                "build_tridiagonal", "butterfly_from_params", "butterfly_params",
                "butterfly_to_tridiagonal", "eig_correspondence", "pencil_eigenvalues",
                "pencil_residual", "symplectic_pencil_check"),
    "verify": ("RunConfig", "VerificationReport", "run_verification"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "modes", "serialize"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(__all__))
