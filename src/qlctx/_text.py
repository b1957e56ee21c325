"""Tokenizing the qlctx text formats, and the .qs state format itself.

``lines`` and ``finite`` split a .gd diagram, a realization or a split
matrix into tokens and numbers; ``logic``, ``realizability`` and ``cli``
read those formats from the tokens.  The .qs format is read, checked and
written here: its grammar, its header rules (a site dimension in
``SITE_LABELS`` and at most ``MAX_TOTAL_DIM`` amplitudes), the normalized
terms ``qlctx catalog`` prints, and the text of a state.

In every format '#' starts a comment, tokens are separated by whitespace,
and a number must be finite.  Pure Python, so the diagram reader loads no
numpy, and neither does ``qlctx catalog``, which re-emits a bundled .qs
file through ``parse_qs``, ``normalized_terms`` and ``format_qs``.
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

# the site dimensions a state may have, and each level's label
SITE_LABELS = {2: ("+", "-"), 3: ("+", "0", "-")}

# the most amplitudes (d**n) a state may have
MAX_TOTAL_DIM = 10_000

# a written state lists only the amplitudes of magnitude above this
TERM_CUTOFF = 1e-12


def check_total_dim(d: int, n: int) -> None:
    """ValueError when n sites of dimension d exceed MAX_TOTAL_DIM."""
    # d >= 2, so capping the exponent keeps a huge n from building a huge
    # integer without changing the verdict
    if d ** min(n, 64) > MAX_TOTAL_DIM:
        raise ValueError(
            f"{n} sites of dimension {d} exceed the total dimension limit "
            f"{MAX_TOTAL_DIM}"
        )


def parse_qs(text: str) -> tuple[int, int, dict]:
    """Parse the .qs format into (sites, dim, amplitudes); raises ValueError
    with a line number.

    The 'dim' line is refused unless dim is a key of SITE_LABELS and
    dim**sites is at most MAX_TOTAL_DIM, before any term is read.
    ``amplitudes`` maps the flat index of each ket named in the file to the
    sum of its amplitudes, added from 0j in file order, keys in the order
    they first appear.
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
                if dim not in SITE_LABELS:
                    raise ValueError(f"unsupported dim {dim}")
                check_total_dim(dim, sites)
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


def normalized_terms(sites: int, dim: int, amps: dict) -> list:
    """The (amplitude, site digits) pairs of the state ``parse_qs`` gave as
    ``amps``, normalized, for each amplitude of magnitude above TERM_CUTOFF,
    in flat-index order.

    As numpy's norm does, this adds the squared real parts and then the
    squared imaginary parts, and it multiplies each amplitude by the
    reciprocal of the norm, which rounds as numpy's division of a complex
    vector by a real one.  But numpy sums each part through BLAS in blocks,
    and this sums one term after another in flat-index order, so the norm
    of ``MultipartiteState`` can differ from this one in the last bit.  For
    the bundled catalog states the two agree, so ``qlctx catalog`` prints
    what ``write_qs(catalog_state(name))`` does.

    A parsed amplitude is a sum from 0j, so no part of it is -0.0, and the
    product needs no care for signed zeros.
    """
    order = sorted(amps)
    re2 = im2 = 0.0
    for idx in order:
        amp = amps[idx]
        re2 += amp.real * amp.real
        im2 += amp.imag * amp.imag
    scale = 1.0 / math.sqrt(re2 + im2)
    terms = []
    for idx in order:
        amp = amps[idx] * scale
        if abs(amp) > TERM_CUTOFF:
            digits = []
            for _ in range(sites):
                idx, k = divmod(idx, dim)
                digits.append(k)
            terms.append((amp, tuple(reversed(digits))))
    return terms


def format_qs(sites: int, dim: int, terms, comment: str | None = None) -> str:
    """The .qs text of ``terms``, pairs (amplitude, site digits), headed by
    each line of ``comment`` as a comment."""
    out = [f"# {piece}" for piece in (comment or "").splitlines()]
    out += [f"sites {sites}", f"dim {dim}"]
    out += [f"{amp.real!r} {amp.imag!r} " + " ".join(map(str, digits))
            for amp, digits in terms]
    return "\n".join(out) + "\n"
