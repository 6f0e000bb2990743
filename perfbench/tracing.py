"""Spans recorded from the benchmark's side of lsopkit's public functions.

install() swaps each listed public function, wherever an lsopkit module has
bound it (so ``lsopkit.verify.recurrence_from_measure`` and
``lsopkit.spectra.dense_eigs`` are both caught), and each entry of
``lsopkit.verify.CLAIMS``, for a wrapper that records a span: name, start,
end and parent span.  Spans stay in memory until the run ends.  Names that
a later version of the program no longer binds are skipped, and their
metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Dict, List

MODULES = ("laurent", "pfaffian", "moments", "lsop", "lsolp", "spectra",
           "numerics", "serialize", "verify", "cli")

# (home module, function) -> layer group
GROUPS: Dict[str, tuple] = {
    "walk": ("lsop", ("recurrence_from_measure", "evaluate_family",
                      "exact_support_values", "tau_sequence")),
    "coeff": ("lsop", ("lsop_via_recurrence", "lsop_via_pfaffian", "even_to_op",
                       "op_via_hankel", "moment_pfaffian_table", "hankel_det",
                       "shifted_hankel_det", "kodama_sops", "kodama_residuals")),
    "pfaffian": ("pfaffian", ("pf_eliminate", "pf_expand", "pf_indices",
                              "check_identity_even", "check_identity_odd")),
    "moments": ("moments", ("mu_moment", "c_moment", "skew_inner", "mu_from_c",
                            "random_measure")),
    "lsolp": ("lsolp", ("lsolp_from_values", "gram_schmidt_lsolp", "gram_schmidt_pairs",
                        "gauge_transform_scaled", "multiplication_matrix")),
    "spectra": ("spectra", ("build_pencil", "pencil_from_recurrence", "build_tridiagonal",
                            "build_butterfly", "butterfly_from_params", "butterfly_params",
                            "butterfly_to_tridiagonal", "pencil_residual",
                            "symplectic_pencil_check", "pencil_eigenvalues",
                            "eig_correspondence", "determine_diagonal_convention")),
    "transfer": ("spectra", ("transfer_matrix",)),
    "qr": ("numerics", ("dense_eigs",)),
    "ql": ("numerics", ("sym_tridiag_eigs",)),
    "solve": ("numerics", ("solve_linear", "dense_det", "mat_mul")),
    "match": ("numerics", ("spectra_distance",)),
    "serialize": ("serialize", ("dumps", "loads", "load_measure", "save_measure",
                                "load_butterfly_params")),
}

CLI_SUBCOMMANDS = ("gen-measure", "verify", "lsop", "pencil", "butterfly", "solve-butterfly")


class Tracer:
    """Span store plus the swapped bindings, so they can be put back."""

    def __init__(self):
        self.spans: List[list] = []  # [name, group, start, end, parent]
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    def span(self, name: str, group: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, group, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"lsopkit.{m}") for m in MODULES}
        mods["lsopkit"] = importlib.import_module("lsopkit")
        for group, (home, names) in GROUPS.items():
            for fname in names:
                original = getattr(mods[home], fname, None)
                if original is None:
                    continue
                wrapper = self.span(f"{home}.{fname}", group, original)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._swap(mod, attr, value, wrapper)
        table = getattr(mods["moments"], "MomentTable", None)
        raw = vars(table).get("from_measure") if table is not None else None
        if isinstance(raw, staticmethod):
            self._swap(table, "from_measure", raw, staticmethod(
                self.span("moments.MomentTable.from_measure", "moments", raw.__func__)))
        verify = mods["verify"]
        claims = tuple((cid, self.span(f"claim.{cid}", "claim", fn)) for cid, fn in verify.CLAIMS)
        self._swap(verify, "CLAIMS", verify.CLAIMS, claims)
        cli = mods["cli"]
        self._swap(cli, "main", cli.main, self._cli_main(cli.main))

    def _cli_main(self, main):
        @functools.wraps(main)
        def traced(argv=None):
            sub = argv[0] if argv else "none"
            return self.span(f"cli.main:{sub}", "cli", main)(argv)
        return traced

    def _swap(self, owner, attr, old, new) -> None:
        self._restore.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def root(self, name: str, fn, *args):
        """Run fn(*args) under a root span (one benchmark operation)."""
        return self.span(name, "op", fn)(*args)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, group, start, end, parent in self.spans:
                fh.write(json.dumps([name, group, start, end, parent]) + "\n")

    def layer_metrics(self, sweeps: int, claim_ids) -> Dict[str, float]:
        """Per-sweep self times and counts of every layer."""
        child = [0.0] * len(self.spans)
        for name, group, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        inclusive: Dict[str, float] = {}
        for idx, (name, group, start, end, parent) in enumerate(self.spans):
            own = (end - start) - child[idx]
            key = name if group in ("claim", "cli") else group
            self_s[key] = self_s.get(key, 0.0) + own
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            outer = parent < 0 or self.spans[parent][1] != group
            if outer:
                calls[group] = calls.get(group, 0) + 1
        per = 1.0 / sweeps
        out = {
            "lsop.walk_s": self_s.get("walk", 0.0) * per,
            "lsop.walk_calls": calls.get("walk", 0) * per,
            "lsop.coeff_s": self_s.get("coeff", 0.0) * per,
            "pfaffian.self_s": self_s.get("pfaffian", 0.0) * per,
            "pfaffian.calls": calls.get("pfaffian", 0) * per,
            "moments.self_s": self_s.get("moments", 0.0) * per,
            "lsolp.self_s": self_s.get("lsolp", 0.0) * per,
            "spectra.self_s": self_s.get("spectra", 0.0) * per,
            "spectra.transfer_s": inclusive.get("spectra.transfer_matrix", 0.0) * per,
            "numerics.qr_s": self_s.get("qr", 0.0) * per,
            "numerics.qr_calls": calls.get("qr", 0) * per,
            "numerics.ql_s": self_s.get("ql", 0.0) * per,
            "numerics.solve_s": self_s.get("solve", 0.0) * per,
            "numerics.match_s": self_s.get("match", 0.0) * per,
            "serialize.self_s": self_s.get("serialize", 0.0) * per,
        }
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.{sub}_s"] = self_s.get(f"cli.main:{sub}", 0.0) * per
        out["verify.self_s"] = sum(v for k, v in self_s.items() if k.startswith("claim.")) * per
        for cid in claim_ids:
            out[f"verify.claim.{cid}_s"] = inclusive.get(f"claim.{cid}", 0.0) * per
        return out
