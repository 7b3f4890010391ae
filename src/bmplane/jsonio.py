"""Deterministic JSON emission: every float with 17 significant digits, and
negative zero as -0.0, so that it reads back as a float with its sign.

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
        text = format(obj, ".17g")
        out.append("-0.0" if text == "-0" else text)  # "-0" would read back as the int 0
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


def _finite(parse):
    """parse_float or parse_int that refuses a number past the float range."""

    def finite(text: str):
        value = parse(text)
        try:
            if math.isfinite(value):
                return value
        except OverflowError:  # an int that no float holds
            pass
        shown = text if len(text) <= 24 else f"{text[:12]}...({len(text)} characters)"
        raise ValueError(f"number {shown} overflows a float")

    return finite


# parses a str as json.loads does, but refuses NaN, +-Infinity and numbers that
# overflow a float (1e400 would read as inf), as dumps refuses non-finite floats
loads = json.JSONDecoder(
    parse_float=_finite(float), parse_int=_finite(int), parse_constant=_reject_constant
).decode
