"""Deterministic rendering: rationals as num/den strings, 17-digit floats."""

from __future__ import annotations

import json
import math
from fractions import Fraction


def frac_str(x: Fraction) -> str:
    """"num/den", with the denominator omitted when it is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def fmt_float(x: float) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return str(x)
    return format(x, ".17g")


def json_dumps(obj) -> str:
    """Stable JSON, the one place a value becomes JSON text: every key as
    str(k), sorted, fractions as strings, floats at 17 digits, and null for
    a float that is not finite (JSON has no nan or inf)."""
    import re

    tokens: list[str] = []

    def walk(o):
        if isinstance(o, bool) or o is None or isinstance(o, (int, str)):
            return o
        if isinstance(o, float):
            if not math.isfinite(o):
                return None
            tokens.append(fmt_float(o))
            return f"\x00{len(tokens) - 1}\x00"
        if isinstance(o, Fraction):
            return frac_str(o)
        if isinstance(o, dict):
            return {str(k): walk(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [walk(v) for v in o]
        raise TypeError(f"not JSON-serializable: {o!r}")

    s = json.dumps(walk(obj), sort_keys=True, indent=2)
    if tokens:
        # ensure_ascii renders the \x00 sentinels as \u0000
        s = re.sub(r'"\\u0000(\d+)\\u0000"',
                   lambda m: tokens[int(m.group(1))], s)
    return s
