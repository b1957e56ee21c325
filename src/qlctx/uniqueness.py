"""Outcome-uniqueness analysis of multipartite states.

A state has the *uniqueness property* when the outcome of a measurement on
one site determines, as a function, the outcome that every other site would
yield in the same product basis.  Operationally that means: conditioning the
coefficient tensor on any single-site outcome of nonzero probability leaves
every other site with a single possible outcome.

The analysis here is exact on amplitudes (no sampling); an amplitude is
treated as zero when its magnitude is below the given tolerance.
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


def term_count(psi: MultipartiteState, tol: float = 1e-9) -> int:
    """Number of coefficients with magnitude above tol."""
    return int(np.count_nonzero(np.abs(psi.coeffs) > tol))


def filter_outcome(
    psi: MultipartiteState, site: int, outcome, tol: float = 1e-9
) -> MultipartiteState:
    """Renormalized projection of psi onto ``outcome`` at ``site`` (0-based).

    Raises NullFilterError when the outcome carries no amplitude.
    """
    if not 0 <= site < psi.sites:
        raise ValueError(f"site {site} out of range")
    k = psi.label_index(outcome)
    tens = np.moveaxis(psi.tensor_view(), site, 0)
    projected = np.zeros_like(tens)
    projected[k] = tens[k]
    if np.max(np.abs(projected)) <= tol:
        raise NullFilterError(
            f"null filter: outcome {psi.labels[k]!r} has zero probability "
            f"at site {site}"
        )
    back = np.moveaxis(projected, 0, site)
    return MultipartiteState(psi.sites, psi.site_dim, back.reshape(-1))


def _amplitude_mask(psi: MultipartiteState, tol: float) -> np.ndarray:
    """Boolean coefficient tensor: True where |amplitude| > tol."""
    return np.abs(psi.tensor_view()) > tol


def _supports(mask, site, level, labels):
    """For site=level, the set of possible outcomes of every other site,
    read off the amplitude mask."""
    slab = np.moveaxis(mask, site, 0)[level]
    others = [t for t in range(mask.ndim) if t != site]
    out = {}
    for axis, t in enumerate(others):
        rest = tuple(ax for ax in range(slab.ndim) if ax != axis)
        possible = np.any(slab, axis=rest) if rest else slab
        out[t] = tuple(labels[j] for j in np.flatnonzero(possible))
    return out


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

    Raises ValueError when ``tol`` leaves no amplitude above it: an empty
    support has no outcomes, so no verdict rests on it.
    """
    mask = _amplitude_mask(psi, tol)
    if not mask.any():
        raise ValueError(
            f"tolerance {tol} leaves no nonzero amplitude in the state"
        )
    verdicts = []
    possibilities: dict[tuple[int, str], dict[int, tuple[str, ...]]] = {}
    for s in range(psi.sites):
        site_ok = True
        by_level = np.moveaxis(mask, s, 0)
        for level, label in enumerate(psi.labels):
            if not by_level[level].any():
                continue
            sups = _supports(mask, s, level, psi.labels)
            possibilities[(s, label)] = sups
            if any(len(v) != 1 for v in sups.values()):
                site_ok = False
        verdicts.append(site_ok)
    return UniquenessReport(
        tuple(verdicts), possibilities, int(np.count_nonzero(mask))
    )


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

    Entry 0 is always the identity rotation; entries 1..trials use seeded
    random rotations (uniform axis, uniform angle).  Results are returned
    in trial order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    rotations = [identity_rotation(psi.site_dim)]
    rotations += [sample_rotation(psi.site_dim, rng) for _ in range(trials)]
    out = []
    for rot in rotations:
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
    filtered = filter_outcome(psi, site, outcome, tol)  # raises on null filter
    level = psi.label_index(outcome)
    sups = _supports(_amplitude_mask(filtered, tol), site, level, psi.labels)
    determined = {t: v[0] for t, v in sups.items() if len(v) == 1}
    ambiguous = {t: v for t, v in sups.items() if len(v) != 1}
    return CounterfactualOutcome(site, psi.labels[level], determined, ambiguous)
