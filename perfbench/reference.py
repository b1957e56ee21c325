"""Fixed computations that measure how fast the host runs right now.

The host this benchmark was written on changes speed by up to ±25% over
minutes (see the README).  The raw wall times of ten runs in a row then
spread by about 20%, too much to show a 25% regression.  Each run
therefore times a reference right before every pass and every ``qlctx``
invocation, and reports each of those times scaled by the mean of the two
references timed on either side of it:

    scaled time = measured time * nominal(parts) / mean reference time

that is, the time on a host that runs the reference in its nominal time
here.  The reference never touches qlctx, so a change to qlctx moves
scaled times by the same factor as raw ones.

A reference is made of parts that resemble a workload's work, because
the drift differs between kinds of work: ``python`` is exact Fraction
elimination and set hashing, like the logic engines, and ``numpy`` is a
dense SVD and matrix product, like the spin and realization layers.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np


def _python_part() -> Fraction:
    n = 18
    m = [[Fraction((i * 7 + j * 3) % 11 + 13 * (i == j), 1 + (i + j) % 5)
          for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    seen = {(i * 2654435761) & 0xFFFF for i in range(40000)}
    return m[-1][-1] + len(seen)


def _numpy_part() -> float:
    a = np.random.default_rng(0).standard_normal((256, 256))
    total = 0.0
    for _ in range(3):
        total += np.linalg.svd(a)[1][0] + (a @ a.T).sum()
    return total


WORK = {"python": _python_part, "numpy": _numpy_part}
# each part's median time on the machine the README's figures come from,
# with one BLAS thread
NOMINAL_S = {"python": 0.030, "numpy": 0.062}


def nominal(parts: tuple[str, ...]) -> float:
    return sum(NOMINAL_S[p] for p in parts)


def time_reference(parts: tuple[str, ...]) -> float:
    """Seconds the reference made of ``parts`` takes now."""
    start = time.perf_counter()
    for p in parts:
        WORK[p]()
    return time.perf_counter() - start
