"""Outcome-uniqueness analysis of multipartite states.

A state has the *uniqueness property* when the outcome of a measurement on
one site determines, as a function, the outcome that every other site would
yield in the same product basis.  Operationally that means: conditioning the
coefficient tensor on any single-site outcome of nonzero probability leaves
every other site with a single possible outcome.

The analysis here is exact on amplitudes (no sampling); an amplitude is
treated as zero when its magnitude is not above the given tolerance.  The
uniqueness check one-hot encodes the digit rows of the K remaining
amplitudes (n·d columns, decoded in blocks of fixed size) and reads every
possibility set from the count matrix HᵀH of those rows, one BLAS product
per block: entry (s·d + a, t·d + b) counts the terms with level a at site
s and level b at site t.  Filtering and completion share one gate that
thresholds the observed level's slab of psi (a view of d^(n-1) amplitudes)
once, and completion reads the other sites' levels from the same one-hot
rows of its mask; like the check, both threshold psi itself, at one
tolerance.  The rotated check's identity entry is the check of psi itself,
and its other entries come from ``states.identical_rotations``.
"""

from __future__ import annotations

import collections
from collections.abc import Iterator

import numpy as np

from .states import (SITE_LABELS, MultipartiteState, RotationSample,
                     identical_rotations)


class NullFilterError(ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


# 512 rows of at most 32 columns are at most 128 KiB, so freed blocks are
# reused from the heap; blocks of 4096 rows landed on freshly mapped pages
# and made the check of a dense 12-site spin-1/2 state about twice as slow
_HOT_BLOCK_ROWS = 512

# the possibility set of a d-bit code: the labels of the levels whose bit is
# set, in level order
_NAMED_SETS = {
    d: [tuple(lab for b, lab in enumerate(labels) if code >> b & 1)
        for code in range(1 << d)]
    for d, labels in SITE_LABELS.items()
}


def _hot_blocks(mask: np.ndarray, d: int) -> Iterator[np.ndarray]:
    """One-hot digit rows of the amplitudes that ``mask`` (a tensor of
    sites of dimension d) keeps, in flat-index order, as float64 blocks of
    at most _HOT_BLOCK_ROWS rows: a row has a 1 in column s·d + a when its
    amplitude has level a at site s.

    A flat index is split at the middle site into a high and a low index,
    and each part's columns are looked up in that part's table of digit
    rows, so no digit is divided out per column.  The support is decoded
    here alone, and no block grows with the number of kept amplitudes."""
    n = mask.ndim
    low = n // 2  # the sites that the low index numbers
    high_rows, low_rows = _digit_rows(d, n - low), _digit_rows(d, low)
    kept = np.flatnonzero(mask)
    for start in range(0, kept.size, _HOT_BLOCK_ROWS):
        high, rest = np.divmod(kept[start:start + _HOT_BLOCK_ROWS], d**low)
        yield np.concatenate(
            [high_rows.take(high, axis=0), low_rows.take(rest, axis=0)],
            axis=1)


def _digit_rows(d: int, m: int) -> np.ndarray:
    """The d**m × (m·d) one-hot digit rows of every index of m sites."""
    digits = np.indices((d,) * m).reshape(m, d**m).T
    hits = digits[:, :, None] == np.arange(d)
    return hits.reshape(d**m, m * d).astype(float)


def _set_codes(hits: np.ndarray) -> list:
    """The d-bit code of every level set along the last axis of a boolean
    array, as nested lists: bit b is set when level b is in the set."""
    return (hits @ (1 << np.arange(hits.shape[-1]))).tolist()


def _above(amplitudes: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the amplitudes of magnitude above ``tol``.  A negative ``tol``
    would count zero amplitudes as terms and is refused."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return np.abs(amplitudes) > tol


def _observed(psi: MultipartiteState, site: int, outcome, tol: float):
    """Level index of ``outcome`` at ``site`` and the mask of the amplitudes
    of its slab (the other sites' axes, in order) that are above ``tol``.
    Raises NullFilterError when the mask is empty."""
    if not 0 <= site < psi.sites:
        raise ValueError(f"site {site} out of range")
    level = psi.label_index(outcome)
    mask = _above(np.moveaxis(psi.tensor_view(), site, 0)[level], tol)
    if not mask.any():
        raise NullFilterError(
            f"null filter: outcome {psi.labels[level]!r} has zero probability "
            f"at site {site}"
        )
    return level, mask


def filter_outcome(
    psi: MultipartiteState, site: int, outcome, tol: float = 1e-9
) -> MultipartiteState:
    """Renormalized projection of psi onto ``outcome`` at ``site`` (0-based).

    Raises NullFilterError when the outcome carries no amplitude.
    """
    level, _ = _observed(psi, site, outcome, tol)
    tens = psi.tensor_view()
    projected = np.zeros_like(tens)
    np.moveaxis(projected, site, 0)[level] = np.moveaxis(tens, site, 0)[level]
    return MultipartiteState(psi.sites, psi.site_dim, projected.reshape(-1))


class UniquenessReport(collections.namedtuple(
        "UniquenessReport", "site_verdicts possibilities term_count",
        defaults=(0,))):
    """Per-site uniqueness verdicts plus the conditioned possibility sets.

    ``possibilities[(s, outcome)][t]`` is the tuple of outcomes that remain
    possible at site t once site s has yielded ``outcome``; only outcomes of
    nonzero probability at s appear as keys.  The repr leaves
    ``possibilities`` out.
    """

    __slots__ = ()

    def __repr__(self):
        return (f"UniquenessReport(site_verdicts={self.site_verdicts!r}, "
                f"term_count={self.term_count!r})")

    @property
    def overall(self) -> bool:
        return all(self.site_verdicts)


def check_uniqueness(psi: MultipartiteState, tol: float = 1e-9) -> UniquenessReport:
    """Decide the uniqueness property of ``psi`` in its preparation basis.

    Raises ValueError when ``tol`` is negative or leaves no amplitude above
    it: an empty support has no outcomes, so no verdict rests on it.
    """
    possibilities, term_count = _possibilities(psi, tol)
    if not term_count:
        raise ValueError(
            f"tolerance {tol} leaves no nonzero amplitude in the state"
        )
    verdicts = [True] * psi.sites
    for (s, _), sups in possibilities.items():
        if any(len(v) != 1 for v in sups.values()):
            verdicts[s] = False
    return UniquenessReport(tuple(verdicts), possibilities, term_count)


def _possibilities(psi: MultipartiteState, tol: float) -> tuple[dict, int]:
    """Possibility sets of every site outcome that has an amplitude above
    ``tol``, keyed (site, label) in site then level order, and the number
    of such amplitudes.

    With H the one-hot digit rows of the support (see ``_hot_blocks``),
    the (n·d)² count matrix HᵀH is accumulated block by block, one BLAS
    product each; ``occupied[s, a, t, b]`` is True when some term has level
    a at site s and level b at site t.  The counts are integers no larger
    than K, so float64 holds them exactly.  The diagonal
    ``occupied[s, a, s, a]`` says level a is possible at site s.  Each
    possibility set is read as a d-bit code and named from a table.
    """
    n, d = psi.sites, psi.site_dim
    counts = np.zeros((n * d, n * d))
    term_count = 0
    for hot in _hot_blocks(_above(psi.tensor_view(), tol), d):
        counts += hot.T @ hot
        term_count += len(hot)
    occupied = (counts > 0).reshape(n, d, n, d)
    codes = _set_codes(occupied)
    named = _NAMED_SETS[d]
    possibilities: dict[tuple[int, str], dict[int, tuple[str, ...]]] = {}
    for s in range(n):
        for a, label in enumerate(psi.labels):
            row = codes[s][a]
            if row[s]:
                possibilities[(s, label)] = {
                    t: named[code] for t, code in enumerate(row) if t != s
                }
    return possibilities, term_count


class RotatedUniqueness(collections.namedtuple(
        "RotatedUniqueness", "rotation report")):
    """A RotationSample and the UniquenessReport of the rotated state."""

    __slots__ = ()


def check_uniqueness_rotated(
    psi: MultipartiteState,
    trials: int,
    seed: int = 0,
    tol: float = 1e-9,
) -> list[RotatedUniqueness]:
    """Uniqueness of psi after identical local rotations of every site.

    Entry 0 is the identity rotation, checked on psi itself; entries
    1..trials use seeded random rotations (uniform axis, uniform angle), in
    trial order.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    identity = RotationSample((0.0, 0.0, 1.0), 0.0,
                              np.eye(psi.site_dim, dtype=complex))
    out = [RotatedUniqueness(identity, check_uniqueness(psi, tol))]
    for rot, rotated in identical_rotations(psi, trials, seed):
        out.append(RotatedUniqueness(rot, check_uniqueness(rotated, tol)))
    return out


class CounterfactualOutcome(collections.namedtuple(
        "CounterfactualOutcome", "site outcome determined ambiguous")):
    """Result of completing a state from one site's outcome.

    ``determined`` maps every other site to its forced outcome; sites whose
    outcome is not forced appear in ``ambiguous`` with their possibility set.
    """

    __slots__ = ()

    @property
    def complete(self) -> bool:
        return not self.ambiguous


def counterfactual_complete(
    psi: MultipartiteState, site: int, outcome, tol: float = 1e-9
) -> CounterfactualOutcome:
    """Infer the outcomes of all other sites from one observed outcome.

    Raises NullFilterError when the observed outcome has zero probability.
    """
    level, mask = _observed(psi, site, outcome, tol)
    # the mask's axes are the other sites, in site order
    d = psi.site_dim
    seen = np.zeros((psi.sites - 1) * d, dtype=bool)
    for hot in _hot_blocks(mask, d):
        seen |= hot.any(axis=0)
    codes = _set_codes(seen.reshape(-1, d))
    others = [t for t in range(psi.sites) if t != site]
    sups = {t: _NAMED_SETS[d][code] for t, code in zip(others, codes)}
    determined = {t: v[0] for t, v in sups.items() if len(v) == 1}
    ambiguous = {t: v for t, v in sups.items() if len(v) != 1}
    return CounterfactualOutcome(site, psi.labels[level], determined,
                                 ambiguous)
