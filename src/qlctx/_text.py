"""Reading the qlctx text formats (.gd, .qs, realizations, split matrices).

In every format '#' starts a comment, tokens are separated by whitespace,
and a number must be finite.  Pure Python, so the diagram reader loads no
numpy.
"""

from __future__ import annotations

import math


def lines(text: str):
    """Yield (line number, tokens) for each line that keeps a token once its
    comment is cut off; lines count from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def finite(token, kind=float):
    """``kind(token)``; ValueError when that fails or is nan or infinite."""
    value = kind(token)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{token!r} is not a finite number")
    return value
