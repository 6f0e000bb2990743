"""Seeded inputs for every workload, built with the standard library only.

Every input is a plain JSON-ready value derived from the workload seed, so
the same seed always gives the same inputs and the program under test sees
nothing but these values.  Exact scalars travel as "p/q" strings, floats as
JSON numbers (which round-trip binary64 exactly).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple

NODE_LO, NODE_HI = 1.2, 5.0
NODE_GAP = 0.1
SNAP_DENOMINATOR = 10**6

# Verify workloads draw spread measures: gap min(0.4, 3/(N-1)) and weights in
# (0.5, 1].  On measures drawn with gap 0.1 and weights in (0, 1], double-mode
# reports flag on some seeds and not on others (coefficient-route claims at
# N <= 6, skew-orthonormality at N >= 10; see CHANGES.md), and a benchmark
# whose failure count moves with the seed cannot be compared between runs.
VERIFY_WEIGHT_FLOOR = 0.5
# every report uses claim seed 1 (the CLI default): pfaffian-route-agreement
# flags for some claim seeds, independently of the measure
CLAIM_SEED = 1
# verify-double: (order, count) of seeded measures, then the fixed measure at
# these orders; at order 16 skew-orthonormality flags on every run.  The
# order-16 report alone takes about 7.5 s; the rest is kept small so that
# two or three sweeps fit in one run.
VERIFY_DOUBLE_SEEDED = ((6, 1), (8, 1))
VERIFY_DOUBLE_FIXED = (4, 16)
# Orders of the fixed measure whose reports are timed as measured, never
# rescaled to the reference speed (worker.py): a report of several seconds
# averages over the machine's speed spells, and rescaling it by the fastest
# probe widened verify-double's spread from 9.4% to 18.5% over ten runs.
# This is fixed per input, not by the time an input takes, so a change that
# makes the report fast is still compared in the same units.
VERIFY_DOUBLE_UNSCALED = (16,)
# verify-rational: (order, count) of seeded measures.  Reports up to order 5
# take under a second, so each repeats about ten times per run and its
# fastest repeat is steady; at order 10 (5 s, two repeats) the spread
# reached 22% over ten runs.
VERIFY_RATIONAL = ((4, 2), (5, 2))

EIGEN_ORDERS = (8, 16, 24, 32)
EIGEN_SEEDED_PER_ORDER = 6
# fixed constant-diagonal T, spectrum c + 2 s cos(k pi/(N+1)): (5, 1) lies in
# [3, 7] (real z pairs), (0, 0.8) in [-1.6, 1.6] (unit-modulus pairs); both
# stay at least 0.4 away from the double points lambda = +-2
CONST_TRIDIAGONALS = ((5.0, 1.0), (0.0, 0.8))
# Gershgorin bands of the seeded T: off-diagonals in [0.1, 0.4] keep every
# eigenvalue in [-7.8, -2.7] u [-1.8, 1.8] u [2.7, 7.8], at least 0.2 away from
# the double points lambda = +-2, so both real and unit-modulus z pairs occur
DIAG_BANDS = ((-1.0, 1.0), (3.5, 7.0), (-7.0, -3.5))
OFF_RANGE = (0.1, 0.4)

# cli-roundtrip: (order, mode) chains.  gen-measure succeeds at these orders
# for every seed tried.  The later steps read the benchmark's own spread
# measure file, not gen-measure's output: on gen-measure's double-mode
# measures verify flags on some seeds (see CHANGES.md).
CLI_CONFIGS = ((6, "double"), (8, "double"), (4, "rational"))


def exact_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def seeded_measure(rng: random.Random, n: int, mode: str, gap: float = NODE_GAP,
                   weight_floor: float = 0.0) -> Dict[str, list]:
    """Direct min-gap sampler: n nodes in [1.2, 5.0] with pairwise gap >= gap
    (any order up to 39 at the default 0.1), weights in (weight_floor, 1];
    rational inputs are snapped to exact fractions."""
    slack = (NODE_HI - NODE_LO) - (n - 1) * gap
    if n < 1 or slack < 0:
        raise ValueError(f"{n} nodes do not fit with gap {gap}")
    offsets = sorted(rng.uniform(0.0, slack) for _ in range(n))
    nodes = [NODE_LO + x + k * gap for k, x in enumerate(offsets)]
    rng.shuffle(nodes)
    weights = [1.0 - (1.0 - weight_floor) * rng.random() for _ in range(n)]
    if mode == "rational":
        snap = [Fraction(v).limit_denominator(SNAP_DENOMINATOR) for v in nodes + weights]
        return {"nodes": [exact_text(v) for v in snap[:n]],
                "weights": [exact_text(v) for v in snap[n:]]}
    return {"nodes": nodes, "weights": weights}


def fixed_measure(n: int) -> Dict[str, list]:
    """The deterministic high-order measure of the project roadmap."""
    return {"nodes": [1.2 + 3.8 * k / n for k in range(n)],
            "weights": [0.5 + 0.5 * ((7 * k) % 5) / 5 for k in range(n)]}


def spread_measure(rng: random.Random, n: int, mode: str) -> Dict[str, list]:
    return seeded_measure(rng, n, mode, min(0.4, 3.0 / max(n - 1, 1)), VERIFY_WEIGHT_FLOOR)


def verify_inputs(seed: int, mode: str) -> List[dict]:
    rng = random.Random(f"verify-{mode}-{seed}")
    if mode == "rational":
        measures = [(n, spread_measure(rng, n, mode), True)
                    for n, count in VERIFY_RATIONAL for _ in range(count)]
    else:
        measures = [(n, spread_measure(rng, n, mode), True)
                    for n, count in VERIFY_DOUBLE_SEEDED for _ in range(count)]
        measures = sorted(measures + [(n, fixed_measure(n), n not in VERIFY_DOUBLE_UNSCALED)
                                      for n in VERIFY_DOUBLE_FIXED], key=lambda nm: nm[0])
    return [{"order": n, "mode": mode, "claim_seed": CLAIM_SEED, "measure": m, "rescale": r}
            for n, m, r in measures]


def seeded_tridiagonal(rng: random.Random, n: int) -> Dict[str, list]:
    diag = [rng.uniform(*rng.choice(DIAG_BANDS)) for _ in range(n)]
    off = [rng.uniform(*OFF_RANGE) for _ in range(n - 1)]
    return {"diag": diag, "off": off}


def constant_tridiagonal(n: int, c: float, s: float) -> Dict[str, list]:
    return {"diag": [c] * n, "off": [s] * (n - 1)}


def seeded_gauge(rng: random.Random, n: int) -> Dict[str, list]:
    """Gauge (r, lambda) with |r| in [0.5, 2] of random sign, lambda in [-2, 2]."""
    return {"r": [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0) for _ in range(n)],
            "lam": [rng.uniform(-2.0, 2.0) for _ in range(n)]}


def eigen_inputs(seed: int) -> List[dict]:
    """Per order: the fixed constant-diagonal T first, then seeded T."""
    rng = random.Random(f"eigensolve-{seed}")
    cases = []
    for n in EIGEN_ORDERS:
        for c, s in CONST_TRIDIAGONALS:
            cases.append({"order": n, "fixed": True, "tri": constant_tridiagonal(n, c, s),
                          "gauge": seeded_gauge(random.Random(f"gauge-fixed-{n}-{c}"), n)})
        for _ in range(EIGEN_SEEDED_PER_ORDER):
            cases.append({"order": n, "fixed": False, "tri": seeded_tridiagonal(rng, n),
                          "gauge": seeded_gauge(rng, n)})
    return cases


def cli_inputs(seed: int) -> List[dict]:
    rng = random.Random(f"cli-{seed}")
    return [{"order": n, "mode": mode, "gen_seed": rng.randrange(1, 10**6),
             "claim_seed": CLAIM_SEED, "gauge_seed": rng.randrange(1, 10**6),
             "measure": spread_measure(rng, n, mode)}
            for n, mode in CLI_CONFIGS]


class Workload(NamedTuple):
    kind: str  # "verify", "eigen" or "cli": the worker class and the check that serve it
    make: Callable[[int], List[dict]]  # seed -> input list


# The one table of workloads; run.py and worker.py dispatch on the kind.
WORKLOADS = {
    "verify-double": Workload("verify", lambda seed: verify_inputs(seed, "double")),
    "verify-rational": Workload("verify", lambda seed: verify_inputs(seed, "rational")),
    "eigensolve": Workload("eigen", eigen_inputs),
    "cli-roundtrip": Workload("cli", cli_inputs),
}
