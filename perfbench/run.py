"""Benchmark for lsopkit: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-double --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (setup_s, sweep_s, top_order_s, peak_rss_mb); with
--trace 1 they are the per-layer self times and counts of a traced run.

This file builds the seeded inputs, times the cold starts, starts one
worker process for the measured run (worker.py), and checks every output
against references computed here (reference.py), never against stored
output.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import calibration
import inputs
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
SETUP_STARTS = 9
RUN_LIMIT_S = 170
CLAIM_COUNT = 32

EIGEN_BOUND = 1e-8          # relative miss of a spectrum against unfolded bisection
TAU_BOUND_DOUBLE = 1e-9     # relative miss of a double-mode tau against the exact Hankel minor
CLI_SPECTRUM_BOUND = 1e-7   # relative miss of a CLI spectrum against the measure's nodes
FOLDED_BOUND = 1e-9         # miss of folded eigenvalues against z + 1/z over the nodes
TOP_MEMBER_BOUND = 1e-8     # relative value of the top monic member at a node (double)


class Tally:
    """Operations attempted and failed in one sweep, plus check problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {what}", file=sys.stderr)

    def problem(self, what: str) -> None:
        self.problems.append(what)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def report_claims(tally: Tally, text: str, claim_ids, env: dict, key: str) -> list:
    """Claim records of one verify report, after checking its structure."""
    doc = json.loads(text)
    claims = doc["claims"]
    if len(claim_ids) != CLAIM_COUNT or [c["id"] for c in claims] != claim_ids:
        tally.problem(f"{key}: claim records are not the {CLAIM_COUNT} suite claims in order")
    flags = sum(1 for c in claims if c["status"] == "flag")
    passes = sum(1 for c in claims if c["status"] == "pass")
    if doc["counts"] != {"pass": passes, "flag": flags} or passes + flags != len(claims):
        tally.problem(f"{key}: counts {doc['counts']} disagree with the records")
    if doc["status"] != ("pass" if flags == 0 else "flagged"):
        tally.problem(f"{key}: status {doc['status']} disagrees with {flags} flags")
    for name, value in env.items():
        if doc["environment"][name] != value:
            tally.problem(f"{key}: environment {name} is {doc['environment'][name]}, not {value}")
    return claims


def check_tau(tally: Tally, got, nodes, weights, order: int, exact: bool, key: str) -> None:
    want = reference.hankel_taus(nodes, weights, order)
    if exact:
        if [Fraction(t) for t in got] != want:
            tally.problem(f"{key}: tau differs from the exact Hankel minors")
    else:
        miss = reference.relative_miss(got, want)
        if not miss <= TAU_BOUND_DOUBLE:
            tally.problem(f"{key}: tau misses the Hankel minors by {miss:.3e}")


def check_verify(res, cases) -> Tally:
    tally = Tally()
    ids = res["claim_ids"]
    for i, (case, text) in enumerate(zip(cases, res["first"])):
        key = res["tasks"][i]["key"]
        if isinstance(text, str):
            env = {"seed": case["claim_seed"], "order": case["order"], "mode": case["mode"]}
            for c in report_claims(tally, text, ids, env, key):
                tally.op(c["status"] == "pass", f"{key}: {c['id']} residual {c['residual']}")
        else:  # the report itself raised: every claim of it failed
            for _ in range(CLAIM_COUNT):
                tally.op(False, f"{key}: {text['error']}")
        m = case["measure"]
        check_tau(tally, res["tau"][i], m["nodes"], m["weights"], case["order"],
                  case["mode"] == "rational", key)
    return tally


def as_complex(pairs):
    return [complex(re, im) for re, im in pairs]


def check_eigensolve(res, cases) -> Tally:
    tally = Tally()
    refs = [reference.unfold(reference.tridiagonal_eigs(c["tri"]["diag"], c["tri"]["off"]))
            for c in cases]
    for task, out in zip(res["tasks"], res["first"]):
        key = task["key"]
        if isinstance(out, dict):
            tally.op(False, f"{key}: {out['error']}")
            continue
        miss = reference.spectrum_miss(as_complex(out), refs[task["case"]])
        tally.op(miss <= EIGEN_BOUND, f"{key}: misses the bisection spectrum by {miss:.3e}")
    return tally


def measure_spectrum(nodes):
    zs = [float(Fraction(z)) for z in nodes]
    return [complex(z) for z in zs] + [complex(1.0 / z) for z in zs]


def check_cli_step(name: str, doc, case) -> str:
    """Independent check of one CLI output; returns the problem or ''."""
    n, exact, measure = case["order"], case["mode"] == "rational", case["measure"]
    if name == "gen-measure":
        nodes = [Fraction(z) for z in doc["nodes"]]
        weights = [Fraction(w) for w in doc["weights"]]
        if len(nodes) != n or len(weights) != n:
            return f"{len(nodes)} nodes for order {n}"
        if not all(inputs.NODE_LO <= z <= inputs.NODE_HI for z in nodes):
            return "node outside [1.2, 5.0]"
        gap = min((abs(a - b) for i, a in enumerate(nodes) for b in nodes[:i]), default=1)
        if gap < inputs.NODE_GAP - 1e-5 or not all(0 < w <= 1 for w in weights):
            return "node gap or weight out of range"
        t = Tally()
        check_tau(t, doc["metadata"]["tau"], doc["nodes"], doc["weights"], n, exact, name)
        return "; ".join(t.problems)
    nodes = measure["nodes"]
    if name == "lsop":
        t = Tally()
        check_tau(t, doc["tau"], nodes, measure["weights"], n, exact, name)
        taus = [Fraction(x) for x in doc["tau"]]
        for k, s in enumerate(doc["scale_squares"]):
            want = taus[k] / taus[k + 1]
            if abs(float(Fraction(s) - want)) > (0 if exact else 1e-12 * abs(float(want))):
                return f"scale square {k} is not tau_{k}/tau_{k + 1}"
        top = [(e, Fraction(c)) for e, c in doc["monic"][2 * n]]
        for z in [Fraction(v) for v in nodes]:
            for x in (z, 1 / z):
                val = sum(c * x ** e for e, c in top)
                size = sum(abs(c) * abs(x) ** e for e, c in top)
                if val != 0 if exact else abs(float(val)) > TOP_MEMBER_BOUND * float(size):
                    return f"top monic member does not vanish at {float(x)}"
        return "; ".join(t.problems)
    want = measure_spectrum(nodes)
    if name == "pencil":
        miss = reference.spectrum_miss(as_complex(doc["generalized_eigenvalues"]), want)
    elif name == "butterfly":
        miss = reference.spectrum_miss(as_complex(doc["spectrum"]), want)
    else:  # solve-butterfly
        folded = sorted(doc["folded_eigenvalues"])
        target = sorted(float(Fraction(z) + 1 / Fraction(z)) for z in nodes)
        if len(folded) != n or any(abs(a - b) > FOLDED_BOUND * max(1.0, abs(b))
                                   for a, b in zip(folded, target)):
            return "folded eigenvalues miss z + 1/z over the nodes"
        pairs = as_complex([z for pair in doc["pairs"] for z in pair])
        miss = max(reference.spectrum_miss(pairs, want),
                   reference.spectrum_miss(as_complex(doc["dense_spectrum"]), want))
    return "" if miss <= CLI_SPECTRUM_BOUND else f"spectrum misses the nodes by {miss:.3e}"


def check_cli(res, cases) -> Tally:
    tally = Tally()
    for task, out in zip(res["tasks"], res["first"]):
        key, name, case = task["key"], task["name"], cases[task["case"]]
        if "error" in out:
            tally.op(False, f"{key}: {out['error']}")
            continue
        if out["exit"] != 0 or out["text"] is None:
            tally.op(False, f"{key}: exit status {out['exit']}")
            continue
        try:
            doc = json.loads(out["text"])
        except ValueError:
            tally.op(False, f"{key}: output is not JSON")
            continue
        if name == "verify":
            env = {"seed": case["claim_seed"], "order": case["order"], "mode": case["mode"]}
            claims = report_claims(tally, out["text"], res["claim_ids"], env, key)
            tally.op(all(c["status"] == "pass" for c in claims), f"{key}: a claim flagged")
            continue
        problem = check_cli_step(name, doc, case)
        tally.op(not problem, f"{key}: {problem}")
    return tally


# by workload kind (inputs.WORKLOADS)
CHECKS = {"verify": check_verify, "eigen": check_eigensolve, "cli": check_cli}


# ---------------------------------------------------------------------------
# running the worker
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LSOPKIT_MODE"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every start compiles, as in a fresh checkout
    return env


def worker_cmd(workload: str, inputs_path: str, work: str):
    return [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
            "--workload", workload, "--inputs", inputs_path, "--work", work]


def cold_start(cmd) -> float:
    """Seconds from process start until it prints "ready": for the worker in
    set-up mode, until it has imported lsopkit and built its inputs."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env())
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up of {cmd[1]} failed: {err.strip()}")
    return elapsed


def setup_pairs(cmd) -> list:
    """SETUP_STARTS pairs of (worker cold start, calibration start) seconds."""
    return [(cold_start(cmd + ["--setup"]), cold_start(calibration.command()))
            for _ in range(SETUP_STARTS)]


def run_workload(workload: str, seed: int, seconds: float, trace: int, cases) -> dict:
    work = os.path.join(WORK, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs_path = os.path.join(work, "inputs.json")
    with open(inputs_path, "w") as fh:
        json.dump(cases, fh)
    cmd = worker_cmd(workload, inputs_path, work)
    started = time.perf_counter()
    setup = setup_pairs(cmd)
    out = os.path.join(work, "result.json")
    limit = RUN_LIMIT_S - (time.perf_counter() - started)
    proc = subprocess.run(cmd + ["--seconds", str(seconds), "--trace", str(trace), "--out", out],
                          env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=max(limit, 1))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr}")
    with open(out) as fh:
        res = json.load(fh)
    res["setup_s"] = setup
    return res


def evaluate(workload: str, res: dict, cases) -> tuple:
    """(correct, attempted, failed, problems) over every timed sweep."""
    tally = CHECKS[inputs.WORKLOADS[workload].kind](res, cases)
    first = res["digests"][0]
    if any(d != first for d in res["digests"][1:]):
        tally.problem("an output differs between sweeps of the same inputs")
    if res["rerun_digest"] != first[0]:
        tally.problem("re-running the first input gave a different output")
    sweeps = len(res["digests"])
    return not tally.problems, tally.attempted * sweeps, tally.failed * sweeps, tally.problems


def end_to_end(res: dict) -> dict:
    return {
        "setup_s": {"value": calibration.REFERENCE_S
                    * statistics.median(worker / calib for worker, calib in res["setup_s"]),
                    "unit": "s"},
        "sweep_s": {"value": res["sweep_s"], "unit": "s"},
        "top_order_s": {"value": res["top_order_s"], "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


def per_layer(res: dict) -> dict:
    out = {}
    for name, value in res["layers"].items():
        unit = "%" if name.endswith("_pct") else "count" if name.endswith("calls") else "s"
        out[name] = {"value": value, "unit": unit}
    return out


def smallest(cases):
    low = min(c["order"] for c in cases)
    return [c for c in cases if c["order"] == low]


def self_check() -> int:
    """References against closed forms, then each workload once on its
    smallest inputs."""
    ok = True
    for failure in reference.self_check():
        print(f"reference: {failure}")
        ok = False
    print(f"references: {'pass' if ok else 'FAIL'}")
    for workload, spec in inputs.WORKLOADS.items():
        cases = smallest(spec.make(1))
        res = run_workload(workload, 1, 0, 0, cases)
        correct, attempted, failed, problems = evaluate(workload, res, cases)
        for p in problems:
            print(f"{workload}: {p}")
        good = correct and failed == 0
        ok = ok and good
        print(f"{workload}: {'pass' if good else 'FAIL'} ({attempted} operations, {failed} failed)")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "lsopkit", "__init__.py")):
        print(f"error: no lsopkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")

    cases = inputs.WORKLOADS[args.workload].make(args.seed)
    res = run_workload(args.workload, args.seed, args.seconds, args.trace, cases)
    correct, attempted, failed, problems = evaluate(args.workload, res, cases)
    ref_failures = reference.self_check()
    for p in problems + ref_failures:
        print(f"problem: {p}", file=sys.stderr)
    metrics = per_layer(res) if args.trace else end_to_end(res)
    print(f"{args.workload} seed {args.seed}: {len(res['digests'])} sweeps, "
          f"{attempted} operations, {failed} failed")
    if not args.trace:
        print(f"unscaled sweep {res['raw_sweep_s']:.4f} s, "
              f"top order {res['raw_top_order_s']:.4f} s; "
              f"fastest calibration probe {res['probe_s']:.5f} s; "
              f"median cold start {statistics.median(w for w, _ in res['setup_s']):.4f} s, "
              f"calibration start {statistics.median(c for _, c in res['setup_s']):.4f} s")
    print(json.dumps({"correct": correct and not ref_failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
