"""Reading the qlctx text formats (.gd, .qs, realizations, split matrices),
and reading and writing the terms of a .qs state.

In every format '#' starts a comment, tokens are separated by whitespace,
and a number must be finite.  Pure Python, so the diagram reader loads no
numpy, and neither does ``qlctx catalog``, which re-emits a bundled .qs
file through ``parse_qs`` and ``format_qs``.
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


# --- the .qs state format -------------------------------------------------
#
#   # comment
#   sites <n>
#   dim <d>
#   <re> <im> <i1> ... <in>     one term per line, site indices in 0..d-1
#
# Amplitudes may be unnormalized; a state is normalized when it is built.
# The ket |i1 ... in> has flat index sum(ik * d**(n-k)), sites counted from 1.

# a written state lists only the amplitudes of magnitude above this
TERM_CUTOFF = 1e-12


def parse_qs(text: str, check_space=None) -> tuple[int, int, dict]:
    """Parse the .qs format into (sites, dim, amplitudes); raises ValueError
    with a line number.

    ``amplitudes`` maps the flat index of each ket named in the file to the
    sum of its amplitudes, added from 0j in file order, keys in the order
    they first appear.  ``check_space(sites, dim)``, when given, runs on the
    'dim' line; a ValueError it raises carries that line's number.
    """
    sites = dim = amps = None
    for lineno, tokens in lines(text):
        try:
            if sites is None:
                if tokens[0] != "sites" or len(tokens) != 2:
                    raise ValueError("expected 'sites <n>'")
                sites = int(tokens[1])
                if sites < 1:
                    raise ValueError(f"sites must be >= 1, got {sites}")
            elif dim is None:
                if tokens[0] != "dim" or len(tokens) != 2:
                    raise ValueError("expected 'dim <d>'")
                dim = int(tokens[1])
                if check_space is not None:
                    check_space(sites, dim)
                amps = {}
            else:
                if len(tokens) != 2 + sites:
                    raise ValueError(f"expected 're im' plus {sites} site indices")
                amp = complex(finite(tokens[0]), finite(tokens[1]))
                idx = 0
                for k in map(int, tokens[2:]):
                    if not 0 <= k < dim:
                        raise ValueError(f"site index out of range 0..{dim - 1}")
                    idx = idx * dim + k
                amps[idx] = amps.get(idx, 0j) + amp
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if amps is None:
        raise ValueError("missing 'sites'/'dim' header")
    if not any(amps.values()):
        raise ValueError("state file contains no terms")
    return sites, dim, amps


def format_qs(sites: int, dim: int, terms, comment: str | None = None) -> str:
    """The .qs text of ``terms``, pairs (amplitude, site digits), headed by
    each line of ``comment`` as a comment."""
    out = [f"# {piece}" for piece in (comment or "").splitlines()]
    out += [f"sites {sites}", f"dim {dim}"]
    out += [f"{amp.real!r} {amp.imag!r} " + " ".join(map(str, digits))
            for amp, digits in terms]
    return "\n".join(out) + "\n"
