"""Deterministic JSON emission: every float with 17 significant digits.

The stdlib encoder writes shortest round-trip representations, which are
version-stable but not format-pinned; verification wants byte-identical
output for identical inputs, so floats are rendered explicitly.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _render(obj, out: list):
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(repr(obj))
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError(f"non-finite float {obj} is not representable in JSON")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _render(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
            out.append(json.dumps(key))
            out.append(": ")
            _render(value, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize with 17-significant-digit floats and stable field order."""
    out: list = []
    _render(obj, out)
    out.append("\n")
    return "".join(out)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not valid JSON")


# parses a str as json.loads does, but refuses NaN and +-Infinity, as dumps does
loads = json.JSONDecoder(parse_constant=_reject_constant).decode
