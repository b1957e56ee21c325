"""Multipartite spin states: the catalog of reference entangled states
(read from the bundled corpus files), total-spin operators, singlet
(total-spin-zero) subspaces, and identical local rotations.

Coefficient tensors are stored flattened in site-major order: the basis ket
|k1 k2 ... kn> has flat index sum(ki * d**(n-1-i)).  Single-site levels are
labelled by descending magnetic quantum number, so index 0 is '+' and the
last index is '-' ('+', '0', '-' for d = 3; '+', '-' for d = 2).

Singlets and local rotations work on vectors of length d**n: singlets
are the kernel of total S₊ on the M = 0 weight sector, and local unitaries
are contracted one tensor axis at a time.  Only ``spin_total_operators``
builds dense (d**n)² matrices.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import _text
from .linalg import kernel, rotation_unitary, spin_matrices, unitarity_defect

SITE_LABELS = {2: ("+", "-"), 3: ("+", "0", "-")}

MAX_TOTAL_DIM = 10_000

TERM_CUTOFF = 1e-12
UNITARITY_TOLERANCE = 1e-9
INVARIANCE_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class MultipartiteState:
    """Pure state of ``sites`` quanta with ``site_dim`` levels each.

    The coefficient vector is normalized on construction and then frozen.
    """

    sites: int
    site_dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.site_dim not in SITE_LABELS:
            raise ValueError(f"unsupported site dimension {self.site_dim}")
        if self.sites < 1:
            raise ValueError("state needs at least one site")
        c = np.asarray(self.coeffs, dtype=complex).reshape(-1).copy()
        if c.size != self.site_dim**self.sites:
            raise ValueError(
                f"coefficient vector has length {c.size}, "
                f"expected {self.site_dim ** self.sites}"
            )
        with np.errstate(over="ignore"):  # _norm_error names an overflow
            norm = np.linalg.norm(c)
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError(_norm_error(c, norm))
        c /= norm
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def labels(self) -> tuple[str, ...]:
        return SITE_LABELS[self.site_dim]

    def tensor_view(self) -> np.ndarray:
        return self.coeffs.reshape((self.site_dim,) * self.sites)

    def label_index(self, outcome) -> int:
        """Outcome label (or integer level index) -> level index."""
        if isinstance(outcome, (int, np.integer)):
            if not 0 <= outcome < self.site_dim:
                raise ValueError(f"level index {outcome} out of range")
            return int(outcome)
        try:
            return self.labels.index(outcome)
        except ValueError:
            raise ValueError(
                f"unknown outcome {outcome!r}; expected one of {self.labels}"
            ) from None

    def overlap(self, other: "MultipartiteState") -> float:
        """|<self|other>| (phase-insensitive comparison)."""
        if (self.sites, self.site_dim) != (other.sites, other.site_dim):
            raise ValueError("states live on different spaces")
        return float(abs(np.vdot(self.coeffs, other.coeffs)))

    def terms(self) -> Iterator[tuple[complex, tuple[int, ...]]]:
        """Yield (amplitude, site digits) for each amplitude of magnitude
        above TERM_CUTOFF, in flat-index order."""
        tens = self.tensor_view()
        digits = np.argwhere(np.abs(tens) > TERM_CUTOFF)  # C order: flat-index order
        for amp, row in zip(tens[tuple(digits.T)].tolist(), digits.tolist()):
            yield amp, tuple(row)


def _norm_error(c: np.ndarray, norm: float) -> str:
    """Why a coefficient vector with norm 0 or not finite cannot be normalized."""
    if np.isnan(c).any():
        return "state has a NaN amplitude"
    if norm == 0.0:
        if not c.any():
            return "state has zero norm"
        return "state norm underflows to zero; scale the amplitudes up"
    return "state norm overflows the floating-point range; scale the amplitudes down"


def catalog_state(name: str) -> MultipartiteState:
    """Reference states by name, read from the bundled corpus files.

    psi2     three-term two-site spin-1 singlet (|+-> + |-+> - |00>)/sqrt(3)
    psi3     six-term three-site spin-1 singlet (the antisymmetric combination)
    psi4_*   the three four-site spin-1 singlet basis states
    ghzm     (|+++> + |--->)/sqrt(2) on three spin-1/2 quanta
    """
    from . import corpus

    if name not in corpus.STATE_IDS:
        raise ValueError(
            f"unknown catalog state {name!r}; choose from {corpus.STATE_IDS}"
        )
    return corpus.load(name)


def _site_operator(single: np.ndarray, site: int, sites: int) -> np.ndarray:
    d = single.shape[0]
    factors = [np.eye(d, dtype=complex)] * sites
    factors[site] = single
    return reduce(np.kron, factors)


def spin_total_operators(d: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense total-spin components S_tot^x, S_tot^y, S_tot^z on n sites of
    dimension d, each a (d**n)² matrix."""
    _check_total_dim(d, n)
    totals = []
    for single in spin_matrices(d):
        tot = np.zeros((d**n, d**n), dtype=complex)
        for site in range(n):
            tot += _site_operator(single, site, n)
        totals.append(tot)
    return tuple(totals)


def _check_total_dim(d: int, n: int) -> None:
    # d >= 2, so capping the exponent keeps a huge n from building a huge
    # integer without changing the verdict
    if d ** min(n, 64) > MAX_TOTAL_DIM:
        raise ValueError(
            f"{n} sites of dimension {d} exceed the total dimension limit "
            f"{MAX_TOTAL_DIM}"
        )


def _raising_sector(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Total S₊ restricted to the M = 0 weight sector, as a real matrix from
    the M = 0 kets to the M = 1 kets, plus the flat indices of the M = 0 kets.

    Level k of a site has m = s - k, so a ket has M = 0 when its digits sum
    to n·(d-1)/2, and S₊ on one site lowers that site's digit by one.
    """
    shape = (d,) * n
    digits = np.indices(shape).reshape(n, -1).T  # (d**n, n), site-major rows
    digit_sum = digits.sum(axis=1)
    target = n * (d - 1) // 2
    zero = np.flatnonzero(digit_sum == target)
    one = np.flatnonzero(digit_sum == target - 1)
    row_of = np.full(d**n, -1)
    row_of[one] = np.arange(one.size)
    # S₊|k> = c[k] |k-1> on one site, read off the single-site S₊ = Sx + i·Sy
    sx, sy, _ = spin_matrices(d)
    c = np.concatenate(([0.0], np.diag((sx + 1j * sy).real, 1)))
    strides = d ** np.arange(n - 1, -1, -1)
    sector = digits[zero]  # (N0, n)
    cols, sites = np.nonzero(sector > 0)
    rows = row_of[zero[cols] - strides[sites]]
    raise_op = np.zeros((one.size, zero.size))
    raise_op[rows, cols] = c[sector[cols, sites]]
    return raise_op, zero


def singlet_subspace(d: int, n: int) -> list[MultipartiteState]:
    """Orthonormal basis of the total-spin-zero subspace of n spin-(d-1)/2 quanta.

    A vector with S_z ψ = 0 and S₊ ψ = 0 has S² ψ = (S₋S₊ + S_z² + S_z) ψ = 0,
    so the singlets are the kernel of total S₊ restricted to the M = 0 weight
    sector, embedded back into the full d**n vector.  The basis size is the
    multiplicity of total spin zero in the n-fold product; the basis itself
    is one orthonormal choice among many.  No (d**n)² matrix is built.  The
    kernel's singular-value cut is the fixed ``linalg.KERNEL_TOLERANCE``.
    """
    if d not in SITE_LABELS:
        raise ValueError(f"unsupported site dimension {d}")
    if n < 1:
        raise ValueError("state needs at least one site")
    _check_total_dim(d, n)
    if n * (d - 1) % 2:
        return []  # half-integer total M: the M = 0 sector is empty
    raise_op, zero = _raising_sector(d, n)
    basis = []
    for v in kernel(raise_op):
        full = np.zeros(d**n, dtype=complex)
        full[zero] = v
        basis.append(MultipartiteState(n, d, full))
    return basis


def apply_identical_local(psi: MultipartiteState, u) -> MultipartiteState:
    """Apply the same single-site unitary to every site: (U ⊗ ... ⊗ U) psi."""
    return apply_local(psi, [u] * psi.sites)


def apply_local(psi: MultipartiteState, unitaries) -> MultipartiteState:
    """Apply one single-site unitary per site, (U_1 ⊗ ... ⊗ U_n) psi.

    Each unitary is contracted with its own axis of the coefficient tensor,
    O(n·d**(n+1)) time and O(d**n) memory; the Kronecker product is never
    formed.  A matrix with an entry of U†U - I above UNITARITY_TOLERANCE is
    refused as not unitary.
    """
    if len(unitaries) != psi.sites:
        raise ValueError("need exactly one unitary per site")
    mats = []
    for u in unitaries:
        u = np.asarray(u, dtype=complex)
        if u.shape != (psi.site_dim, psi.site_dim):
            raise ValueError("unitary has wrong shape for the site dimension")
        # written so that a NaN defect fails too
        if not unitarity_defect(u) <= UNITARITY_TOLERANCE:
            raise ValueError("matrix is not unitary")
        mats.append(u)
    t = psi.tensor_view()
    for site, u in enumerate(mats):
        t = np.moveaxis(np.tensordot(u, t, axes=(1, site)), 0, site)
    return MultipartiteState(psi.sites, psi.site_dim, t)


@dataclass(frozen=True, eq=False)
class RotationSample:
    """One sampled spin rotation: axis, angle, and the site-space unitary."""

    axis: tuple[float, float, float]
    angle: float
    unitary: np.ndarray


def identity_rotation(d: int) -> RotationSample:
    return RotationSample((0.0, 0.0, 1.0), 0.0, np.eye(d, dtype=complex))


def sample_rotation(d: int, rng: np.random.Generator) -> RotationSample:
    """Rotation with uniform axis on the sphere and uniform angle in [0, 2π)."""
    axis = rng.standard_normal(3)
    while np.linalg.norm(axis) < 1e-12:
        axis = rng.standard_normal(3)
    axis = axis / np.linalg.norm(axis)
    angle = float(rng.uniform(0.0, 2.0 * np.pi))
    return RotationSample(tuple(axis), angle, rotation_unitary(d, axis, angle))


def is_form_invariant(
    psi: MultipartiteState,
    trials: int = 100,
    seed: int = 0,
) -> tuple[bool, float]:
    """Whether |<psi|(U ⊗ ... ⊗ U)|psi>| >= 1 - INVARIANCE_TOLERANCE for
    ``trials`` sampled spin rotations U.  Returns (verdict, worst overlap
    seen)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 1.0
    for _ in range(trials):
        rot = sample_rotation(psi.site_dim, rng)
        rotated = apply_identical_local(psi, rot.unitary)
        worst = min(worst, psi.overlap(rotated))
    return worst >= 1.0 - INVARIANCE_TOLERANCE, worst


# --- .qs state file format ----------------------------------------------
#
#   # comment
#   sites <n>
#   dim <d>
#   <re> <im> <i1> ... <in>     one term per line, site indices in 0..d-1
#
# Amplitudes may be unnormalized; the state is normalized on load.


@np.errstate(over="ignore")  # a sum past the float range is named on construction
def read_qs(text: str) -> MultipartiteState:
    """Parse the .qs state format; raises ValueError with a line number."""
    sites = dim = coeffs = None
    for lineno, tokens in _text.lines(text):
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
                _check_total_dim(dim, sites)
                coeffs = np.zeros(dim**sites, dtype=complex)
            else:
                if len(tokens) != 2 + sites:
                    raise ValueError(f"expected 're im' plus {sites} site indices")
                amp = complex(_text.finite(tokens[0]), _text.finite(tokens[1]))
                idx = 0
                for k in map(int, tokens[2:]):
                    if not 0 <= k < dim:
                        raise ValueError(f"site index out of range 0..{dim - 1}")
                    idx = idx * dim + k
                coeffs[idx] += amp
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if coeffs is None:
        raise ValueError("missing 'sites'/'dim' header")
    if not np.any(coeffs):
        raise ValueError("state file contains no terms")
    return MultipartiteState(sites, dim, coeffs)


def write_qs(psi: MultipartiteState, comment: str | None = None) -> str:
    """Serialize a state in the .qs format (normalized amplitudes)."""
    lines = []
    if comment:
        for piece in comment.splitlines():
            lines.append(f"# {piece}")
    lines.append(f"sites {psi.sites}")
    lines.append(f"dim {psi.site_dim}")
    for amp, digits in psi.terms():
        lines.append(f"{amp.real!r} {amp.imag!r} " + " ".join(map(str, digits)))
    return "\n".join(lines) + "\n"
