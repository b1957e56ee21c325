"""Outcome-uniqueness analysis of multipartite states.

A state has the *uniqueness property* when the outcome of a measurement on
one site determines, as a function, the outcome that every other site would
yield in the same product basis.  Operationally that means: conditioning the
coefficient tensor on any single-site outcome of nonzero probability leaves
every other site with a single possible outcome.

The analysis here is exact on amplitudes (no sampling); an amplitude is
treated as zero when its magnitude is not above the given tolerance.  The
uniqueness check reads every possibility set from one d×d occupancy table
per site pair, filled from the digit rows of the K remaining amplitudes in
O(K·n²).  Filtering and completion share one gate that thresholds the
observed level's slab of psi (a view of d^(n-1) amplitudes) once, and
completion reads the other sites' levels from the digit rows of its mask;
like the check, both threshold psi itself, at one tolerance.  The rotated
check's identity entry is the check of psi itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import (
    MultipartiteState,
    RotationSample,
    apply_identical_local,
    identity_rotation,
    sample_rotation,
)


class NullFilterError(ValueError):
    """Conditioning on an outcome of (numerically) zero probability."""


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


@dataclass(frozen=True)
class UniquenessReport:
    """Per-site uniqueness verdicts plus the conditioned possibility sets.

    ``possibilities[(s, outcome)][t]`` is the tuple of outcomes that remain
    possible at site t once site s has yielded ``outcome``; only outcomes of
    nonzero probability at s appear as keys.
    """

    site_verdicts: tuple[bool, ...]
    possibilities: dict[tuple[int, str], dict[int, tuple[str, ...]]] = field(
        repr=False
    )
    term_count: int = 0

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

    With the support's digit rows (one row of n levels per amplitude above
    ``tol``), ``table[s, t, a, b]`` is True when some term has level a at
    site s and level b at site t: one d×d table per site pair, filled in
    O(K·n²) for K terms.  The diagonal ``table[s, s, a, a]`` says level a
    is possible at site s.
    """
    digits = np.argwhere(_above(psi.tensor_view(), tol))
    n, labels = psi.sites, psi.labels
    table = np.zeros((n, n, psi.site_dim, psi.site_dim), dtype=bool)
    sites = np.arange(n)
    table[sites[:, None], sites, digits[:, :, None], digits[:, None, :]] = True
    rows = table.tolist()
    possibilities: dict[tuple[int, str], dict[int, tuple[str, ...]]] = {}
    for s in range(n):
        for a, label in enumerate(labels):
            if rows[s][s][a][a]:
                possibilities[(s, label)] = {
                    t: tuple(lab for lab, hit in zip(labels, rows[s][t][a]) if hit)
                    for t in range(n)
                    if t != s
                }
    return possibilities, len(digits)


@dataclass(frozen=True)
class RotatedUniqueness:
    rotation: RotationSample
    report: UniquenessReport


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
    rng = np.random.default_rng(seed)
    out = [RotatedUniqueness(identity_rotation(psi.site_dim),
                             check_uniqueness(psi, tol))]
    for _ in range(trials):
        rot = sample_rotation(psi.site_dim, rng)
        rotated = apply_identical_local(psi, rot.unitary)
        out.append(RotatedUniqueness(rot, check_uniqueness(rotated, tol)))
    return out


@dataclass(frozen=True)
class CounterfactualOutcome:
    """Result of completing a state from one site's outcome.

    ``determined`` maps every other site to its forced outcome; sites whose
    outcome is not forced appear in ``ambiguous`` with their possibility set.
    """

    site: int
    outcome: str
    determined: dict[int, str]
    ambiguous: dict[int, tuple[str, ...]]

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
    # the digit rows of the slab's mask hold the other sites' levels, in
    # site order, of every amplitude above ``tol`` with the observed level
    others = [t for t in range(psi.sites) if t != site]
    seen = np.zeros((len(others), psi.site_dim), dtype=bool)
    seen[np.arange(len(others)), np.argwhere(mask)] = True
    sups = {
        t: tuple(lab for lab, hit in zip(psi.labels, row) if hit)
        for t, row in zip(others, seen.tolist())
    }
    determined = {t: v[0] for t, v in sups.items() if len(v) == 1}
    ambiguous = {t: v for t, v in sups.items() if len(v) != 1}
    return CounterfactualOutcome(site, psi.labels[level], determined,
                                 ambiguous)
