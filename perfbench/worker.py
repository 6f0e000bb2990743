"""Runs one workload's operations against lsopkit and reports timings and outputs.

Started by run.py, once per cold start in set-up mode and once for the
measured run:

    python3 perfbench/worker.py --root ROOT --workload NAME --inputs FILE \
        --work DIR [--setup] [--seconds S --trace 0|1 --out FILE]

It imports lsopkit from ROOT/src, builds the workload's inputs as program
objects, and in set-up mode prints "ready" and exits.  Otherwise it runs
whole sweeps over the input list in a closed loop, one operation at a time,
until the next sweep would overrun --seconds, and writes the outputs of the
first sweep, a digest of every output of every sweep, the timings and the
peak resident memory to --out.  The worker checks nothing itself; run.py
checks the outputs against its own references.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable, List, Optional

import calibration
import inputs
import reference

# Speed calibration.  The sandbox's speed drifts by up to 30% between
# minutes-long periods, which no choice of repeats inside a 25-second run
# removes.  A fixed piece of pure-Python work (exact elimination plus float
# bisection, in the style of lsopkit's own loops) is timed about every
# PROBE_EVERY_S seconds between operations.  The run's fastest probe, like an
# input's fastest repeat, reflects the machine's fastest spell in the run, so
# each input's fastest time is rescaled to the speed at which the probe takes
# PROBE_REFERENCE_S, except the inputs that inputs.py marks "rescale": false
# (the order-16 double report), which are left as measured.  CLI calls are
# process start-ups, which the probe does not track; they are timed against
# calibration starts instead (calibration.py).
PROBE_EVERY_S = 0.5
PROBE_REFERENCE_S = 0.025
_PROBE_MEASURE = ([1.3 + 0.55 * k for k in range(7)], [0.3 + 0.1 * k for k in range(7)])
_PROBE_TRIDIAGONAL = ([0.5 * ((7 * k) % 5) - 1.0 for k in range(24)], [0.3] * 23)


def digest(out) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def complex_list(zs) -> List[List[float]]:
    return [[complex(z).real, complex(z).imag] for z in zs]


class Task:
    """One timed unit of work: a report, a route on a matrix, or a CLI call."""

    def __init__(self, name: str, case: int, order: int, fn: Callable[[], object],
                 rescale: bool = True, calibrate: Optional[Callable[[], float]] = None):
        self.name, self.case, self.order, self.fn = name, case, order, fn
        self.rescale = rescale
        self.calibrate = calibrate  # if set: seconds of a calibration start, run after fn
        self.key = f"{name}-{case}-N{order}"

    def run(self):
        try:
            return self.fn()
        except Exception as exc:  # a raising operation is a failed operation
            return {"error": f"{type(exc).__name__}: {exc}"}


def scalar(x, mode: str):
    return Fraction(x) if mode == "rational" else float(x)


class VerifyWorkload:
    def __init__(self, lsopkit, cases):
        self.lsopkit, self.cases = lsopkit, cases
        self.measures = [
            lsopkit.DiscreteMeasure([scalar(z, c["mode"]) for z in c["measure"]["nodes"]],
                                    [scalar(w, c["mode"]) for w in c["measure"]["weights"]])
            for c in cases]
        self.tasks = [Task("verify", i, c["order"], self._report(i), c["rescale"])
                      for i, c in enumerate(cases)]

    def _report(self, i: int):
        case, measure = self.cases[i], self.measures[i]

        def run():
            cfg = self.lsopkit.RunConfig(seed=case["claim_seed"], order=case["order"],
                                         mode=case["mode"])
            return self.lsopkit.run_verification(cfg, measure).render()

        return run

    def extras(self) -> dict:
        """Untimed: tau of every measure, and the claim ids in suite order."""
        taus = []
        for case, m in zip(self.cases, self.measures):
            tau = self.lsopkit.recurrence_from_measure(m, case["order"]).tau
            taus.append([f"{t.numerator}/{t.denominator}" if isinstance(t, Fraction) else float(t)
                         for t in tau])
        return {"tau": taus, "claim_ids": [cid for cid, _ in self.lsopkit.verify.CLAIMS]}


class EigenWorkload:
    """Structured, dense and pencil eigensolves; the pencil route runs on the
    fixed matrices only, because on seeded ones its failures depend on the
    seed (see CHANGES.md)."""

    def __init__(self, lsopkit, cases):
        self.lsopkit = lsopkit
        self.tasks = []
        for i, c in enumerate(cases):
            diag, off, g = c["tri"]["diag"], c["tri"]["off"], c["gauge"]
            n = c["order"]
            r, lam = g["r"], g["lam"]
            bp = lsopkit.ButterflyParams(
                a=tuple(1.0 / (x * x) for x in r), b=tuple(lam),
                c=tuple(r[k] ** 2 * (diag[k] - lam[k]) for k in range(n)),
                d=tuple(r[k] * r[k + 1] * off[k] for k in range(n - 1)))
            alpha = [0.0]
            for gamma in diag:
                alpha.append(alpha[-1] + gamma)
            # the pencil reads alpha and beta only; tau and sigma are placeholders
            rec = lsopkit.RecurrenceData(order=n, alpha=tuple(alpha),
                                         beta=tuple([0.0] + [e * e for e in off] + [0.0]),
                                         tau=tuple([1.0] * (n + 1)), sigma=tuple(alpha))
            routes = ("structured", "dense", "pencil") if c["fixed"] else ("structured", "dense")
            for route in routes:
                self.tasks.append(Task(route, i, n, getattr(self, route)(bp, rec)))

    def structured(self, bp, rec):
        def run():
            k = self.lsopkit
            pairs = k.eig_correspondence(k.sym_tridiag_eigs(k.butterfly_to_tridiagonal(bp)))
            return complex_list([z for pair in pairs for z in pair])
        return run

    def dense(self, bp, rec):
        def run():
            k = self.lsopkit
            return complex_list(k.dense_eigs(k.butterfly_from_params(bp)))
        return run

    def pencil(self, bp, rec):
        def run():
            k = self.lsopkit
            return complex_list(k.pencil_eigenvalues(k.spectra.pencil_from_recurrence(rec)))
        return run

    def extras(self) -> dict:
        return {}


class CliWorkload:
    """The chain gen-measure -> verify -> lsop -> pencil -> butterfly ->
    solve-butterfly, one subprocess at a time (in process when traced).
    verify, lsop, pencil and butterfly read the measure file written here."""

    def __init__(self, lsopkit, cases, work: str, root: str, in_process: bool = False):
        self.lsopkit, self.work, self.in_process = lsopkit, work, in_process
        self.peak_rss_kb = 0  # largest CLI child, apart from the calibration starts
        self.env = {k: v for k, v in os.environ.items() if k != "LSOPKIT_MODE"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.tasks = []
        for i, c in enumerate(cases):
            p = lambda name: os.path.join(work, f"chain{i}-{name}.json")  # noqa: E731
            n, mode = c["order"], c["mode"]
            common = ["--mode", mode]
            measure = p("input")
            with open(measure, "w") as fh:
                json.dump(c["measure"], fh)
            steps = [
                ("gen-measure", ["gen-measure", "--seed", str(c["gen_seed"]), "--order", str(n),
                                 *common, "--out", p("generated")], p("generated")),
                ("verify", ["verify", measure, "--seed", str(c["claim_seed"]), *common,
                            "--out", p("report")], p("report")),
                ("lsop", ["lsop", measure, *common, "--out", p("lsop")], p("lsop")),
                ("pencil", ["pencil", measure, *common, "--out", p("pencil")], p("pencil")),
                ("butterfly", ["butterfly", measure, *common, "--gauge-seed",
                               str(c["gauge_seed"]), "--out", p("butterfly")], p("butterfly")),
                ("solve-butterfly", ["solve-butterfly", p("params"), *common,
                                     "--out", p("solve")], p("solve")),
            ]
            for name, argv, out in steps:
                self.tasks.append(Task(name, i, n,
                                       self._call(name, argv, out, p("butterfly"), p("params")),
                                       calibrate=None if in_process else self._calibration_start))

    def _calibration_start(self) -> float:
        a = time.perf_counter()
        subprocess.run(calibration.command(), env=self.env, cwd=self.work, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - a

    def _call(self, name, argv, out_path, butterfly_path, params_path):
        def run():
            _remove(out_path)
            if name == "solve-butterfly":
                _remove(params_path)
                # the round trip: butterfly's emitted parameters become the input file
                with open(butterfly_path) as fh:
                    params = json.load(fh)["params"]
                with open(params_path, "w") as fh:
                    json.dump(params, fh)
            if self.in_process:
                code = self.lsopkit.cli.main(argv)
            else:
                proc = subprocess.Popen([sys.executable, "-m", "lsopkit.cli", *argv],
                                        env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
                                        stderr=subprocess.DEVNULL)
                _, status, usage = os.wait4(proc.pid, 0)
                code = proc.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            try:
                with open(out_path) as fh:
                    text = fh.read()
            except OSError:
                text = None
            return {"exit": code, "text": text}
        return run

    def extras(self) -> dict:
        return {"claim_ids": [cid for cid, _ in self.lsopkit.verify.CLAIMS]}


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def build(kind: str, lsopkit, cases, work: str, root: str, in_process: bool):
    if kind == "cli":
        return CliWorkload(lsopkit, cases, work, root, in_process)
    return {"verify": VerifyWorkload, "eigen": EigenWorkload}[kind](lsopkit, cases)


class SpeedProbe:
    """Fastest time of the calibration work over one run."""

    def __init__(self):
        self.best = float("inf")
        self.last = -float("inf")

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            a = time.perf_counter()
            reference.hankel_taus(*_PROBE_MEASURE, len(_PROBE_MEASURE[0]))
            reference.tridiagonal_eigs(*_PROBE_TRIDIAGONAL)
            self.last = time.perf_counter()
            self.best = min(self.best, self.last - a)

    def scale(self) -> float:
        return PROBE_REFERENCE_S / self.best


def sweep(tasks, probe: SpeedProbe, tracer=None):
    """One full pass: (wall seconds, per-task seconds, per-task calibration
    start seconds or None, outputs)."""
    times, cals, outs = [], [], []
    t0 = time.perf_counter()
    for task in tasks:
        probe.maybe()
        a = time.perf_counter()
        out = task.run() if tracer is None else tracer.root(f"op.{task.key}", task.run)
        times.append(time.perf_counter() - a)
        cals.append(task.calibrate() if task.calibrate else None)
        outs.append(out)
    return time.perf_counter() - t0, times, cals, outs


def run_sweeps(tasks, seconds: float, probe: SpeedProbe):
    """Whole sweeps until the next one would overrun the budget (at least one).

    Returns each task's times and calibration starts over the sweeps, the
    digests of every output of every sweep, and the outputs of the first
    sweep.
    """
    times, cals = [[] for _ in tasks], [[] for _ in tasks]
    digests, first = [], None
    start = time.perf_counter()
    while True:
        wall, took, cal, outs = sweep(tasks, probe)
        for acc, t in zip(times, took):
            acc.append(t)
        for acc, c in zip(cals, cal):
            acc.append(c)
        digests.append([digest(o) for o in outs])
        if first is None:
            first = outs
        if time.perf_counter() - start + wall > seconds:
            return times, cals, digests, first


def paired_sweeps(tasks, seconds: float, tracer):
    """Untraced and traced sweeps in turn until the next pair would overrun
    the budget (at least one pair), so that a change in the machine's speed
    falls on both sides.  Each side has its own probe, to rescale its passes
    as sweep_s is rescaled.

    Returns each side's per-task times and probe, the digests of every
    output of every sweep, and the outputs of the first sweep.
    """
    times = ([[] for _ in tasks], [[] for _ in tasks])
    probes = (SpeedProbe(), SpeedProbe())
    digests, first = [], None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        for side in (0, 1):
            if side:
                tracer.install()
            try:
                _, took, _, outs = sweep(tasks, probes[side], tracer if side else None)
            finally:
                if side:
                    tracer.uninstall()
            for acc, t in zip(times[side], took):
                acc.append(t)
            digests.append([digest(o) for o in outs])
            if first is None:
                first = outs
        pair = time.perf_counter() - began
        if time.perf_counter() - start + pair > seconds:
            return times, probes, digests, first


def fastest_pass(tasks, times, scale: float = 1.0, orders=None) -> float:
    """Sum over the tasks (of the given orders) of each task's fastest time,
    multiplied by scale for the tasks marked to be rescaled.

    The machine's speed also drifts by tens of percent over seconds; the
    fastest of several repeats of one input is far steadier than any single
    pass.
    """
    total = 0.0
    for task, ts in zip(tasks, times):
        if orders is None or task.order in orders:
            total += min(ts) * (scale if task.rescale else 1.0)
    return total


def calibrated_pass(tasks, times, cals, orders=None) -> float:
    """Sum over the tasks (of the given orders) of the median, over the
    repeats, of each call's time over the calibration start that followed
    it, times calibration.REFERENCE_S."""
    return calibration.REFERENCE_S * sum(
        statistics.median(t / c for t, c in zip(ts, cs))
        for task, ts, cs in zip(tasks, times, cals) if orders is None or task.order in orders)


def cold_import_seconds(root: str, repeats: int = 3) -> float:
    """Median wall time of `import lsopkit` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import lsopkit; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    vals = sorted(float(subprocess.run([sys.executable, "-c", code, os.path.join(root, "src")],
                                       env=env, capture_output=True, text=True,
                                       check=True).stdout) for _ in range(repeats))
    return vals[len(vals) // 2]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import lsopkit  # noqa: E402  (the program under test, from the checkout)
    import lsopkit.cli  # noqa: E402,F401

    with open(args.inputs) as fh:
        cases = json.load(fh)
    traced = bool(args.trace)
    kind = inputs.WORKLOADS[args.workload].kind
    wl = build(kind, lsopkit, cases, args.work, args.root, in_process=traced)
    if args.setup:
        print("ready", flush=True)
        return 0

    tasks = wl.tasks
    top = {max(t.order for t in tasks)}
    result = {}
    if not traced:
        probe = SpeedProbe()
        times, cals, digests, first = run_sweeps(tasks, args.seconds, probe)
        probe.maybe()
        scale = probe.scale()
        result.update(raw_sweep_s=fastest_pass(tasks, times),
                      raw_top_order_s=fastest_pass(tasks, times, orders=top), probe_s=probe.best)
        if kind == "cli":
            result.update(sweep_s=calibrated_pass(tasks, times, cals),
                          top_order_s=calibrated_pass(tasks, times, cals, top),
                          peak_rss_kb=wl.peak_rss_kb)
        else:
            result.update(sweep_s=fastest_pass(tasks, times, scale),
                          top_order_s=fastest_pass(tasks, times, scale, top),
                          peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    else:
        from tracing import Tracer

        tracer = Tracer()
        (plain, times), probes, digests, first = paired_sweeps(tasks, args.seconds, tracer)
        claim_ids = [cid for cid, _ in lsopkit.verify.CLAIMS]
        layers = tracer.layer_metrics(len(digests) // 2, claim_ids)
        layers["cli.import_s"] = cold_import_seconds(args.root)
        ratio = (fastest_pass(tasks, times, probes[1].scale())
                 / fastest_pass(tasks, plain, probes[0].scale()))
        layers["trace.overhead_pct"] = 100.0 * (ratio - 1.0)
        result.update(layers=layers)
        tracer.write(os.path.join(args.work, "trace.jsonl"))

    rerun = tasks[0].run()
    result.update(
        tasks=[{"key": t.key, "name": t.name, "case": t.case} for t in tasks],
        task_s=times, digests=digests, first=first, rerun_digest=digest(rerun), **wl.extras())
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
