"""Multipartite spin states: a catalog of reference entangled states,
total-spin operators, singlet (total-spin-zero) subspaces, and identical
local rotations.

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

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import kernel, rotation_unitary, spin_matrices, unitarity_defect

SITE_LABELS = {2: ("+", "-"), 3: ("+", "0", "-")}

MAX_TOTAL_DIM = 10_000

CATALOG_NAMES = ("psi2", "psi3", "psi4_1", "psi4_2", "psi4_3", "ghzm")


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
        norm = np.linalg.norm(c)
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError("state has zero norm")
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

    def terms(self, tol: float = 1e-12) -> list[tuple[complex, tuple[str, ...]]]:
        """Nonzero (amplitude, labels) terms in flat-index order."""
        labels = self.labels
        out = []
        for idx in np.flatnonzero(np.abs(self.coeffs) > tol):
            digits = np.unravel_index(int(idx), (self.site_dim,) * self.sites)
            out.append((complex(self.coeffs[idx]), tuple(labels[k] for k in digits)))
        return out


def from_terms(sites: int, site_dim: int, terms) -> MultipartiteState:
    """Build a state from (amplitude, label-string) pairs; normalized on return."""
    labels = SITE_LABELS[site_dim]
    c = np.zeros(site_dim**sites, dtype=complex)
    for amp, word in terms:
        if len(word) != sites:
            raise ValueError(f"term {word!r} has wrong length")
        idx = 0
        for ch in word:
            idx = idx * site_dim + labels.index(ch)
        c[idx] += amp
    return MultipartiteState(sites, site_dim, c)


_PSI2 = [(1, "+-"), (1, "-+"), (-1, "00")]

_PSI3 = [
    (1, "-+0"), (-1, "-0+"), (1, "+0-"), (-1, "+-0"), (1, "0-+"), (-1, "0+-"),
]

_PSI4_1 = (
    [(2 / 3, "0000"), (1, "--++"), (1, "++--")]
    + [(-1 / 2, w) for w in ("-00+", "0-0+", "-0+0", "0-+0",
                             "0+-0", "+0-0", "0+0-", "+00-")]
    + [(1 / 3, w) for w in ("00-+", "-+00", "+-00", "00+-")]
    + [(1 / 6, w) for w in ("-+-+", "+--+", "-++-", "+-+-")]
)

_PSI4_2 = [
    (1, "-00+"), (-1, "0-0+"), (-1, "0+0-"), (1, "+00-"),
    (-1, "-0+0"), (1, "0-+0"), (1, "0+-0"), (-1, "+0-0"),
    (1, "-++-"), (-1, "+-+-"), (-1, "-+-+"), (1, "+--+"),
]

_PSI4_3 = [
    (1, "0000"), (-1, "00-+"), (-1, "-+00"), (-1, "+-00"), (-1, "00+-"),
    (1, "+-+-"), (1, "-+-+"), (1, "+--+"), (1, "-++-"),
]

_GHZM = [(1, "+++"), (1, "---")]

_CATALOG = {
    "psi2": (2, 3, _PSI2),
    "psi3": (3, 3, _PSI3),
    "psi4_1": (4, 3, _PSI4_1),
    "psi4_2": (4, 3, _PSI4_2),
    "psi4_3": (4, 3, _PSI4_3),
    "ghzm": (3, 2, _GHZM),
}


def catalog_state(name: str) -> MultipartiteState:
    """Reference states by name.

    psi2     three-term two-site spin-1 singlet (|+-> + |-+> - |00>)/sqrt(3)
    psi3     six-term three-site spin-1 singlet (the antisymmetric combination)
    psi4_*   the three four-site spin-1 singlet basis states
    ghzm     (|+++> + |--->)/sqrt(2) on three spin-1/2 quanta
    """
    try:
        sites, dim, terms = _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown catalog state {name!r}; choose from {CATALOG_NAMES}"
        ) from None
    return from_terms(sites, dim, terms)


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
    if d**n > MAX_TOTAL_DIM:
        raise ValueError(f"total dimension {d ** n} too large (limit {MAX_TOTAL_DIM})")


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


def singlet_subspace(d: int, n: int, tol: float = 1e-9) -> list[MultipartiteState]:
    """Orthonormal basis of the total-spin-zero subspace of n spin-(d-1)/2 quanta.

    A vector with S_z ψ = 0 and S₊ ψ = 0 has S² ψ = (S₋S₊ + S_z² + S_z) ψ = 0,
    so the singlets are the kernel of total S₊ restricted to the M = 0 weight
    sector, embedded back into the full d**n vector.  The basis size is the
    multiplicity of total spin zero in the n-fold product; the basis itself
    is one orthonormal choice among many.  No (d**n)² matrix is built.
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
    for v in kernel(raise_op, tol):
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
    formed.
    """
    if len(unitaries) != psi.sites:
        raise ValueError("need exactly one unitary per site")
    mats = []
    for u in unitaries:
        u = np.asarray(u, dtype=complex)
        if u.shape != (psi.site_dim, psi.site_dim):
            raise ValueError("unitary has wrong shape for the site dimension")
        if unitarity_defect(u) > 1e-9:
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
    tol: float = 1e-9,
) -> tuple[bool, float]:
    """Whether |<psi|(U ⊗ ... ⊗ U)|psi>| >= 1 - tol for ``trials`` sampled spin
    rotations U.  Returns (verdict, worst overlap seen)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 1.0
    for _ in range(trials):
        rot = sample_rotation(psi.site_dim, rng)
        rotated = apply_identical_local(psi, rot.unitary)
        worst = min(worst, psi.overlap(rotated))
    return worst >= 1.0 - tol, worst


# --- .qs state file format ----------------------------------------------
#
#   # comment
#   sites <n>
#   dim <d>
#   <re> <im> <i1> ... <in>     one term per line, site indices in 0..d-1
#
# Amplitudes may be unnormalized; the state is normalized on load.


def read_qs(text: str) -> MultipartiteState:
    """Parse the .qs state format; raises ValueError with a line number."""
    sites = dim = None
    coeffs = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if sites is None:
            if tokens[0] != "sites" or len(tokens) != 2:
                raise ValueError(f"line {lineno}: expected 'sites <n>'")
            sites = int(tokens[1])
            if sites < 1:
                raise ValueError(f"line {lineno}: sites must be >= 1, got {sites}")
            continue
        if dim is None:
            if tokens[0] != "dim" or len(tokens) != 2:
                raise ValueError(f"line {lineno}: expected 'dim <d>'")
            dim = int(tokens[1])
            if dim not in SITE_LABELS:
                raise ValueError(f"line {lineno}: unsupported dim {dim}")
            # dim >= 2, so capping the exponent keeps a huge 'sites' from
            # building a huge integer without changing the verdict
            if dim ** min(sites, 64) > MAX_TOTAL_DIM:
                raise ValueError(
                    f"line {lineno}: {sites} sites of dimension {dim} exceed "
                    f"the total dimension limit {MAX_TOTAL_DIM}"
                )
            coeffs = np.zeros(dim**sites, dtype=complex)
            continue
        if len(tokens) != 2 + sites:
            raise ValueError(
                f"line {lineno}: expected 're im' plus {sites} site indices"
            )
        try:
            re, im = float(tokens[0]), float(tokens[1])
            digits = [int(t) for t in tokens[2:]]
        except ValueError:
            raise ValueError(f"line {lineno}: malformed term") from None
        if any(not 0 <= k < dim for k in digits):
            raise ValueError(f"line {lineno}: site index out of range 0..{dim - 1}")
        idx = 0
        for k in digits:
            idx = idx * dim + k
        coeffs[idx] += complex(re, im)
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
    shape = (psi.site_dim,) * psi.sites
    for idx in np.flatnonzero(np.abs(psi.coeffs) > 1e-12):
        amp = complex(psi.coeffs[idx])
        digits = np.unravel_index(int(idx), shape)
        lines.append(
            f"{amp.real!r} {amp.imag!r} " + " ".join(str(k) for k in digits)
        )
    return "\n".join(lines) + "\n"
