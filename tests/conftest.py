"""Test-session settings shared by every test module.

The suite writes no bytecode, in this process or in the interpreters it
starts: a child started with PYTHONDONTWRITEBYTECODE=1 still reads a
``src/lsopkit/__pycache__`` that an earlier run left, so the fresh-process
tests would time and load cached modules instead of compiling lsopkit from
source, and the CLI start-up cost they check would be hidden.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
