"""Command-line front end.

Subcommands:
    gen-measure      seeded admissible measure -> measure file
    verify           run the claim suite on a measure (generated or loaded)
    lsop             emit the monic family and its orthonormal scale squares
    pencil           emit both pencil layouts with residual and symplectic checks
    butterfly        emit butterfly parameters, matrix, and spectrum comparison
    solve-butterfly  structured eigensolver for a butterfly parameter file

Exit status: 0 when everything passed, 2 when any claim or comparison was
flagged, 1 on usage errors (including precondition refusals).  The scalar
mode defaults to the LSOPKIT_MODE environment variable, then to "double".
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Dict, List, Optional, Sequence

from . import serialize
from .errors import LsopkitError
from .lsolp import GaugeParams, gauge_transform_scaled, lsolp_from_values, multiplication_matrix
from .lsop import NODE_RANGE, FamilyValues, evaluate_family, lsop_via_recurrence, random_family
from .modes import MODES, validate_mode
from .moments import DiscreteMeasure
from .numerics import dense_eigs, spectra_distance
from .spectra import (ButterflyParams, PencilLayout, butterfly_from_params, butterfly_params,
                      determine_diagonal_convention, pencil_eigenvalues, pencil_residual,
                      solve_butterfly, support_spectrum)
from .verify import DEFAULT_TOLERANCES, RunConfig, run_verification

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_FLAGGED = 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except (LsopkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsopkit",
        description="Laurent skew orthogonal polynomials and symplectic spectra over discrete measures",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p: argparse.ArgumentParser, measure_arg: bool = False) -> None:
        p.add_argument("--seed", type=int, default=1, help="RNG seed (default 1)")
        p.add_argument("--order", type=int, default=4, help="family order N (default 4)")
        p.add_argument("--mode", choices=MODES, default=None,
                       help="scalar backend (default: LSOPKIT_MODE or double)")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        if measure_arg:
            p.add_argument("measure", nargs="?", default=None,
                           help="measure file (default: generate from seed/order)")

    p = sub.add_parser("gen-measure", help="generate an admissible measure file")
    common(p)
    p.set_defaults(func=cmd_gen_measure)

    p = sub.add_parser("verify", help="run the verification suite")
    common(p, measure_arg=True)
    p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                   help="tolerance override, repeatable")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lsop", help="emit the monic family and scale squares")
    common(p, measure_arg=True)
    p.set_defaults(func=cmd_lsop)

    p = sub.add_parser("pencil", help="emit pencil layouts, residuals, symplectic checks")
    common(p, measure_arg=True)
    p.set_defaults(func=cmd_pencil)

    p = sub.add_parser("butterfly", help="emit butterfly parameters, matrix, spectra")
    common(p, measure_arg=True)
    p.add_argument("--gauge-seed", type=int, default=None,
                   help="seed for a random gauge (default: trivial gauge)")
    p.set_defaults(func=cmd_butterfly)

    p = sub.add_parser("solve-butterfly", help="eigensolve a butterfly parameter file")
    p.add_argument("params", help="butterfly parameter file")
    p.add_argument("--mode", choices=MODES, default=None,
                   help="ignored: parameter files are read as binary64 in both modes")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_solve_butterfly)

    return parser


def _mode(args) -> str:
    return validate_mode(getattr(args, "mode", None)
                         or os.environ.get("LSOPKIT_MODE", "").strip() or "double")


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _measure_file(args, mode: str) -> Optional[DiscreteMeasure]:
    if not args.measure:
        return None
    with open(args.measure) as fh:
        return serialize.load_measure(fh.read(), mode)


def _family(args, mode: str) -> FamilyValues:
    """The fold of the measure file at its full size, or the seeded family
    at --order, folded once by the generator."""
    m = _measure_file(args, mode)
    return random_family(args.seed, args.order, mode) if m is None else evaluate_family(m)


def cmd_gen_measure(args) -> int:
    mode = _mode(args)
    fv = random_family(args.seed, args.order, mode)
    metadata = {
        "seed": args.seed,
        "order": args.order,
        "mode": mode,
        "node_range": list(NODE_RANGE),
        "tau": list(fv.rec.tau),
    }
    _emit(args, serialize.save_measure(fv.measure, metadata))
    return EXIT_PASS


def cmd_verify(args) -> int:
    mode = _mode(args)
    tolerances = _parse_tolerances(args.tol)
    m = _measure_file(args, mode)
    cfg = RunConfig(seed=args.seed, order=args.order if m is None else m.size, mode=mode,
                    tolerances=tolerances)
    report = run_verification(cfg, m)
    _emit(args, report.render())
    return EXIT_PASS if report.all_pass else EXIT_FLAGGED


def _parse_tolerances(items: List[str]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--tol expects NAME=VALUE, got {item!r}")
        out[name] = float(value)
    return out


def cmd_lsop(args) -> int:
    mode = _mode(args)
    fv = _family(args, mode)
    n, rec = fv.order, fv.rec
    qs = lsop_via_recurrence(rec, n)
    doc = {
        "order": n,
        "mode": mode,
        "monic": [serialize.poly_pairs(q) for q in qs],
        "alpha": list(rec.alpha),
        "beta": list(rec.beta),
        "tau": list(rec.tau),
        "scale_squares": list(rec.scale_squares()),
    }
    _emit(args, serialize.dumps(doc))
    return EXIT_PASS


def cmd_pencil(args) -> int:
    fv = _family(args, _mode(args))
    report = pencil_residual(fv)
    eigs = pencil_eigenvalues(report.recurrence.pencil)
    mismatch = spectra_distance(eigs, support_spectrum(fv.measure))
    doc = {
        "order": fv.order,
        "textbook_layout": _layout_document(report.textbook),
        "recurrence_layout": _layout_document(report.recurrence),
        "largest_entry_difference": report.entry_difference,
        "generalized_eigenvalues": _complex_list(eigs),
        "eigenvalue_mismatch": mismatch,
    }
    _emit(args, serialize.dumps(doc))
    return _exit_status(mismatch, "pencil-eigenvalues")


def _layout_document(layout: PencilLayout) -> Dict[str, object]:
    return {
        "U": serialize.matrix_document(layout.pencil.u),
        "V": serialize.matrix_document(layout.pencil.v),
        "support_residual": layout.support_residual,
        "pencil_symplecticity": layout.pencil_symplecticity,
        "transfer_symplecticity": layout.transfer_symplecticity,
    }


def cmd_butterfly(args) -> int:
    fv = _family(args, _mode(args))
    n = fv.order
    if args.gauge_seed is None:
        gauge = GaugeParams.trivial(n)
    else:
        gauge = GaugeParams.random(random.Random(args.gauge_seed), n)
    bp = butterfly_params(fv.rec, gauge)
    bt = butterfly_from_params(bp)
    fam = gauge_transform_scaled(lsolp_from_values(fv), gauge)
    mult = multiplication_matrix(fam)
    convention, residuals = determine_diagonal_convention(mult, fv.rec, gauge)
    eigs = dense_eigs(bt)
    mismatch = spectra_distance(eigs, support_spectrum(fv.measure))
    doc = {
        "order": n,
        "gauge": {"r": list(gauge.r), "lambda": list(gauge.lam)},
        "params": {"a": list(bp.a), "b": list(bp.b), "c": list(bp.c), "d": list(bp.d)},
        "matrix": serialize.matrix_document(bt),
        "diagonal_convention": convention,
        "convention_residuals": {k: v for k, v in sorted(residuals.items())},
        "spectrum": _complex_list(eigs),
        "spectrum_mismatch": mismatch,
    }
    _emit(args, serialize.dumps(doc))
    return _exit_status(mismatch, "butterfly-spectrum")


def cmd_solve_butterfly(args) -> int:
    with open(args.params) as fh:
        bp = ButterflyParams(*map(tuple, serialize.load_butterfly_params(fh.read())))
    s = solve_butterfly(bp)
    doc = {
        "order": bp.order,
        "tridiagonal": {"diag": list(s.tridiagonal.diag), "offdiag": list(s.tridiagonal.offdiag)},
        "folded_eigenvalues": list(s.folded),
        "pairs": [_complex_list(p) for p in s.pairs],
        "dense_spectrum": _complex_list(s.dense),
        "max_mismatch": s.mismatch,
    }
    _emit(args, serialize.dumps(doc))
    return _exit_status(s.mismatch, "butterfly-tridiagonal-roundtrip")


def _exit_status(mismatch: float, claim_id: str) -> int:
    return EXIT_PASS if mismatch <= DEFAULT_TOLERANCES[claim_id] else EXIT_FLAGGED


def _complex_list(zs) -> List[List[float]]:
    return [[z.real, z.imag] for z in zs]


if __name__ == "__main__":
    sys.exit(main())
