"""Structured-text file formats.

All artifacts (measure files, butterfly parameter files, matrix files,
verification reports) are JSON documents written by a deterministic
serializer: keys keep insertion order, floats are printed at 17
significant digits (lossless for binary64) and non-finite floats as null,
exact scalars are printed as "p/q" strings.  Loading in rational mode
parses decimal literals as exact decimal fractions, so a rational round
trip never touches binary floating point.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from io import StringIO
from typing import Any, Dict, List, Optional, Sequence

from .modes import Scalar, validate_mode
from .moments import DiscreteMeasure


def dumps(obj: Any) -> str:
    """Deterministic structured-text rendering (valid JSON)."""
    out = StringIO()
    _write(obj, out, 0)
    out.write("\n")
    return out.getvalue()


def _write(obj: Any, out: StringIO, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.write(f'{pad}  "{k}": ')
            _write(v, out, indent + 1)
            out.write(",\n" if i + 1 < len(items) else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.write("[]")
            return
        if all(_is_scalar(x) for x in seq):
            out.write("[" + ", ".join(_scalar_text(x) for x in seq) + "]")
            return
        out.write("[\n")
        for i, v in enumerate(seq):
            out.write(pad + "  ")
            _write(v, out, indent + 1)
            out.write(",\n" if i + 1 < len(seq) else "\n")
        out.write(pad + "]")
    else:
        out.write(_scalar_text(obj))


def _is_scalar(x: Any) -> bool:
    return x is None or isinstance(x, (bool, int, float, str, Fraction))


def _scalar_text(x: Any) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return f'"{x.numerator}/{x.denominator}"'
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g") if math.isfinite(x) else "null"
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def loads(text: str, mode: str = "double") -> Any:
    """Parse a structured-text document in the given scalar mode.  Strings,
    "p/q" ones included, stay strings: _numbers reads the numeric arrays."""
    validate_mode(mode)
    return json.loads(text, parse_float=Fraction) if mode == "rational" else json.loads(text)


# ---------------------------------------------------------------------------
# measure files
# ---------------------------------------------------------------------------

def measure_document(m: DiscreteMeasure, metadata: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "nodes": list(m.nodes),
        "weights": list(m.weights),
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def save_measure(m: DiscreteMeasure, metadata: Optional[Dict[str, Any]] = None) -> str:
    return dumps(measure_document(m, metadata))


def load_measure(text: str, mode: str = "double") -> DiscreteMeasure:
    doc = loads(text, mode)
    try:
        nodes = doc["nodes"]
        weights = doc["weights"]
    except (KeyError, TypeError) as exc:
        raise ValueError("measure file needs 'nodes' and 'weights' arrays") from exc
    # DiscreteMeasure turns ints into Fractions and refuses Infinity and NaN
    return DiscreteMeasure(_numbers(nodes, "nodes", mode), _numbers(weights, "weights", mode))


def _numbers(values: Any, name: str, mode: str) -> List[Scalar]:
    """A numeric array of a loaded file: floats in double mode, exact scalars
    in rational mode.  A string entry is read by Fraction ("p/q", decimal or
    exponent form), then rounded once in double mode.  A non-array value, a
    boolean, null, a nested array, an unreadable string or, in double mode,
    a value beyond binary64 raises ValueError."""
    if not isinstance(values, list):
        raise ValueError(f"'{name}' must be an array of numbers")
    out: List[Scalar] = []
    for i, x in enumerate(values):
        try:
            if isinstance(x, bool) or not isinstance(x, (int, float, str, Fraction)):
                raise ValueError
            x = Fraction(x) if isinstance(x, str) else x
            out.append(float(x) if mode == "double" else x)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"'{name}' entry {i} is not a number") from None
    return out


# ---------------------------------------------------------------------------
# butterfly parameter files
# ---------------------------------------------------------------------------

def load_butterfly_params(text: str):
    """The quadruples (a, b, c, d) of a butterfly parameter file, as finite floats."""
    doc = loads(text)
    try:
        parts = [doc["a"], doc["b"], doc["c"], doc["d"]]
    except (KeyError, TypeError) as exc:
        raise ValueError("butterfly file needs 'a', 'b', 'c', 'd' arrays") from exc
    parts = tuple(_numbers(part, name, "double") for part, name in zip(parts, "abcd"))
    for part, name in zip(parts, "abcd"):
        for i, x in enumerate(part):
            if not math.isfinite(x):
                raise ValueError(f"'{name}' entry {i} is not finite")
    return parts


# ---------------------------------------------------------------------------
# matrices and polynomials
# ---------------------------------------------------------------------------

def matrix_document(m: Sequence[Sequence[Scalar]]) -> Dict[str, Any]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    return {"rows": rows, "cols": cols, "data": [list(r) for r in m]}


def poly_pairs(p) -> List[List[Scalar]]:
    """Laurent polynomial as sorted [exponent, coefficient] pairs."""
    return [[e, c] for e, c in p.to_pairs()]
