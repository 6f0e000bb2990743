"""The calibration start: a fixed piece of start-up work in a fresh interpreter.

It loads the standard modules the worker loads and compiles the benchmark's
own sources COMPILES times, so it pays interpreter start and compilation as
a worker cold start or a CLI call does, but runs no lsopkit code: a change
to lsopkit cannot move it.

Process start-ups follow the sandbox's speed shifts, which the in-process
probe of worker.py does not track for them: over ten runs the raw median of
9 worker cold starts spread by up to 25% (interquartile range over median).
So each worker cold start (run.py) and each CLI call (worker.py) is timed
against a calibration start taken right after it, and reported as the
median ratio times REFERENCE_S: seconds on a machine where the calibration
start takes REFERENCE_S, about its median on a 2-core sandbox.
"""

from __future__ import annotations

import os
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
COMPILES = 3
REFERENCE_S = 0.15
CODE = """
import argparse, fractions, hashlib, json, os, random, resource, subprocess, sys
d = sys.argv[1]
sources = sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".py"))
for _ in range(int(sys.argv[2])):
    for path in sources:
        with open(path) as fh:
            compile(fh.read(), path, "exec")
print("ready", flush=True)
"""


def command() -> List[str]:
    return [sys.executable, "-c", CODE, HERE, str(COMPILES)]
