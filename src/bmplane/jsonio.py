"""Report and body JSON: floats in the standard library's shortest round-trip repr, so that
a document loads and dumps back to its own bytes (negative zero included), and no NaN or
infinity, which JSON has no number for, in either direction.
"""

from __future__ import annotations

import json
import math


def dumps(obj) -> str:
    """``json.dumps`` refusing NaN and infinity, with a trailing newline."""
    return json.dumps(obj, allow_nan=False) + "\n"


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
