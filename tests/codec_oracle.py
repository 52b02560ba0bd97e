"""Reference canonical JSON emitter, one value at a time.

This is the per-value emitter that ``starlift.io.canonical_dumps`` replaced
with one stdlib ``json.dumps`` call.  It spells floats with ``%.17g``
(``1``, ``-0``, ``0.10000000000000001``) where the stdlib encoder uses the
shortest round-trip ``repr`` (``1.0``, ``-0.0``, ``0.1``); both parse back
to the same numbers.  The codec tests compare the two.
"""

import json
import math

import numpy as np


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("canonical JSON cannot represent NaN or infinity")
    return format(float(x), ".17g")


def _emit(obj, pieces: list) -> None:
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        pieces.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValueError(f"canonical JSON keys must be strings, got {key!r}")
            if not first:
                pieces.append(",")
            first = False
            pieces.append(json.dumps(key, ensure_ascii=True))
            pieces.append(":")
            _emit(obj[key], pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(obj):
            if i:
                pieces.append(",")
            _emit(item, pieces)
        pieces.append("]")
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_dumps(obj) -> str:
    pieces: list = []
    _emit(obj, pieces)
    return "".join(pieces) + "\n"
