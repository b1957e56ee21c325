"""Multipartite spin states: the catalog of reference entangled states
(read from the bundled corpus files), spin matrices and rotation
unitaries, total-spin operators, singlet (total-spin-zero) subspaces, and
identical local rotations.

Coefficient tensors are stored flattened in site-major order: the basis ket
|k1 k2 ... kn> has flat index sum(ki * d**(n-1-i)).  Single-site levels are
labelled by descending magnetic quantum number, so index 0 is '+' and the
last index is '-' ('+', '0', '-' for d = 3; '+', '-' for d = 2).

Singlets and local rotations work on vectors of length d**n: singlets
are the kernel of total S₊ on the M = 0 weight sector, and local unitaries
are applied one site at a time, each as one d × d matrix product with a
d × d**(n-1) view of the state whose columns keep the order a per-axis
``tensordot`` gives them.  Only ``spin_total_operators``
builds dense (d**n)² matrices.  Form invariance and the rotated uniqueness
check draw their rotations from one seeded stream.
"""

from __future__ import annotations

import collections
from collections.abc import Iterator
from functools import reduce

import numpy as np

from . import _text
from ._records import ByIdentity
from ._text import MAX_TOTAL_DIM, SITE_LABELS, TERM_CUTOFF, check_total_dim

KERNEL_TOLERANCE = 1e-9
UNITARITY_TOLERANCE = 1e-9
INVARIANCE_TOLERANCE = 1e-9


def unitarity_defect(u) -> float:
    u = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def kernel(m) -> list[np.ndarray]:
    """Orthonormal basis of {v : ‖Mv‖ <= KERNEL_TOLERANCE·‖M‖·‖v‖}; empty
    for a trivial kernel.

    A real matrix is decomposed in real arithmetic and gives real vectors.
    """
    m = np.asarray(m)
    m = m.astype(complex if np.iscomplexobj(m) else float)
    if m.ndim != 2:
        raise ValueError("kernel expects a matrix")
    _, sing, vh = np.linalg.svd(m)
    smax = float(sing[0]) if sing.size else 0.0
    vecs = []
    for i in range(m.shape[1]):
        s_i = float(sing[i]) if i < sing.size else 0.0
        if s_i <= KERNEL_TOLERANCE * smax:
            vecs.append(vh[i].conj())
    return vecs


def spin_matrices(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-(d-1)/2 operator triple (Sx, Sy, Sz), basis ordered by descending m."""
    if d < 2:
        raise ValueError("spin space dimension must be >= 2")
    s = (d - 1) / 2.0
    m = s - np.arange(d)
    sz = np.diag(m).astype(complex)
    # S+|s,m> = sqrt(s(s+1) - m(m+1)) |s,m+1>; basis is descending in m
    off = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    sp = np.zeros((d, d), dtype=complex)
    sp[np.arange(d - 1), np.arange(1, d)] = off
    sm = sp.conj().T
    sx = (sp + sm) / 2.0
    sy = (sp - sm) / 2.0j
    return sx, sy, sz


def rotation_unitary(d: int, axis, angle: float) -> np.ndarray:
    """exp(-i·angle·(n̂·S)) on the d-dimensional spin space, d in {2, 3}."""
    if d not in (2, 3):
        raise ValueError("rotation_unitary supports spin dimensions 2 and 3 only")
    axis = np.asarray(axis, dtype=float).reshape(-1)
    if axis.shape != (3,):
        raise ValueError("axis must be a real 3-vector")
    norm = float(np.linalg.norm(axis))
    if norm == 0.0:
        raise ValueError("axis must be nonzero")
    n = axis / norm
    sx, sy, sz = spin_matrices(d)
    k = n[0] * sx + n[1] * sy + n[2] * sz
    # closed forms from the spectrum of n̂·S: (n̂·S)² = I/4 for spin 1/2,
    # and (n̂·S)³ = n̂·S for spin 1
    if d == 2:
        return np.cos(angle / 2) * np.eye(2) - 2j * np.sin(angle / 2) * k
    return np.eye(3) - 1j * np.sin(angle) * k + (np.cos(angle) - 1) * (k @ k)


def _check_site_space(d: int, n: int) -> None:
    if d not in SITE_LABELS:
        raise ValueError(f"unsupported site dimension {d}")
    if n < 1:
        raise ValueError("state needs at least one site")


class MultipartiteState(ByIdentity, collections.namedtuple(
        "MultipartiteState", "sites site_dim coeffs")):
    """Pure state of ``sites`` quanta with ``site_dim`` levels each.

    The coefficient vector is normalized on construction and then frozen.
    """

    __slots__ = ()

    def __new__(cls, sites, site_dim, coeffs):
        d, n = site_dim, sites
        _check_site_space(d, n)
        c = np.asarray(coeffs, dtype=complex).reshape(-1).copy()
        # d >= 2, so past 64 sites d**n exceeds any array length; naming it
        # there keeps a huge n from building and printing a huge integer
        if n > 64 or c.size != d**n:
            expected = f"{d}**{n}" if n > 64 else d**n
            raise ValueError(
                f"coefficient vector has length {c.size}, expected {expected}"
            )
        with np.errstate(over="ignore"):  # _norm_error names an overflow
            norm = np.linalg.norm(c)
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError(_norm_error(c, norm))
        c /= norm
        c.setflags(write=False)
        return super().__new__(cls, sites, site_dim, c)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through here: it must normalize too
        return cls(*iterable)

    def __reduce__(self):
        # a copy or an unpickled state keeps its coefficients' bits, which
        # normalizing them a second time could change
        return tuple.__new__, (type(self), tuple(self))

    @property
    def labels(self) -> tuple[str, ...]:
        return SITE_LABELS[self.site_dim]

    def tensor_view(self) -> np.ndarray:
        return self.coeffs.reshape((self.site_dim,) * self.sites)

    def label_index(self, outcome) -> int:
        """Outcome label (or integer level index) -> level index.  A bool
        is refused: ``True`` is neither a label nor meant as level 1."""
        if isinstance(outcome, (bool, np.bool_)):
            raise ValueError(
                f"outcome {outcome!r} is a bool; expected a label in "
                f"{self.labels} or a level index"
            )
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

    return read_qs(corpus.catalog_text(name))


def _site_operator(single: np.ndarray, site: int, sites: int) -> np.ndarray:
    d = single.shape[0]
    factors = [np.eye(d, dtype=complex)] * sites
    factors[site] = single
    return reduce(np.kron, factors)


def spin_total_operators(d: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense total-spin components S_tot^x, S_tot^y, S_tot^z on n sites of
    dimension d, each a (d**n)² matrix."""
    check_total_dim(d, n)
    totals = []
    for single in spin_matrices(d):
        tot = np.zeros((d**n, d**n), dtype=complex)
        for site in range(n):
            tot += _site_operator(single, site, n)
        totals.append(tot)
    return tuple(totals)


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
    # S₊|k> = c[k] |k-1> on one site, c[k] = √(s(s+1) - m(m+1)) = √(k(d-k))
    k = np.arange(d)
    c = np.sqrt(k * (d - k))
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
    kernel's singular-value cut is the fixed ``KERNEL_TOLERANCE``.
    """
    _check_site_space(d, n)
    check_total_dim(d, n)
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

    Step s multiplies a d × dⁿ⁻¹ matrix by U_s: its rows are site s's
    levels and its columns the other sites' levels, in site order.  One
    transposing copy of each product gives the next step's matrix, and the
    last product transposed is the result.  That is O(n·dⁿ⁺¹) time and
    O(dⁿ) memory; the Kronecker product is never formed.  The columns keep
    the order a per-axis ``tensordot`` gives them, so each product rounds
    exactly as that contraction does (BLAS rounds the columns of a ragged
    last block apart from the rest).  A matrix with an entry of U†U - I
    above UNITARITY_TOLERANCE is refused as not unitary; a matrix passed
    for several sites is checked once.
    """
    if len(unitaries) != psi.sites:
        raise ValueError("need exactly one unitary per site")
    d = psi.site_dim
    # keyed by identity; each entry holds its original, so no id is reused
    checked: dict[int, tuple[object, np.ndarray]] = {}
    mats = []
    for u in unitaries:
        if id(u) not in checked:
            checked[id(u)] = (u, _checked_unitary(u, d))
        mats.append(checked[id(u)][1])
    x = psi.coeffs.reshape(d, -1)
    for s, u in enumerate(mats):
        y = u @ x  # (site s, sites before s, sites after s)
        if s + 1 < psi.sites:
            x = y.reshape(d, d**s, d, -1).transpose(2, 1, 0, 3).reshape(d, -1)
    return MultipartiteState(psi.sites, d, y.T)


def _checked_unitary(u, d: int) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise ValueError("unitary has wrong shape for the site dimension")
    # written so that a NaN defect fails too
    if not unitarity_defect(u) <= UNITARITY_TOLERANCE:
        raise ValueError("matrix is not unitary")
    return u


class RotationSample(ByIdentity, collections.namedtuple(
        "RotationSample", "axis angle unitary")):
    """One sampled spin rotation: axis, angle, and the site-space unitary."""

    __slots__ = ()


def sample_rotation(d: int, rng: np.random.Generator) -> RotationSample:
    """Rotation with uniform axis on the sphere and uniform angle in [0, 2π)."""
    axis = rng.standard_normal(3)
    while np.linalg.norm(axis) < 1e-12:
        axis = rng.standard_normal(3)
    axis = axis / np.linalg.norm(axis)
    angle = float(rng.uniform(0.0, 2.0 * np.pi))
    return RotationSample(tuple(axis), angle, rotation_unitary(d, axis, angle))


def identical_rotations(
    psi: MultipartiteState, trials: int, seed: int
) -> Iterator[tuple[RotationSample, MultipartiteState]]:
    """Yield (rotation, rotated psi) for ``trials`` rotations drawn in turn
    from ``default_rng(seed)``, each applied to every site of psi."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        rot = sample_rotation(psi.site_dim, rng)
        yield rot, apply_identical_local(psi, rot.unitary)


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
    worst = 1.0
    for _, rotated in identical_rotations(psi, trials, seed):
        worst = min(worst, psi.overlap(rotated))
    return worst >= 1.0 - INVARIANCE_TOLERANCE, worst


# --- .qs state files: the format is read, checked and written by ``_text`` --


def read_qs(text: str) -> MultipartiteState:
    """Parse the .qs state format; raises ValueError with a line number."""
    sites, dim, amps = _text.parse_qs(text)
    coeffs = np.zeros(dim**sites, dtype=complex)
    coeffs[list(amps)] = list(amps.values())
    return MultipartiteState(sites, dim, coeffs)


def write_qs(psi: MultipartiteState, comment: str | None = None) -> str:
    """Serialize a state in the .qs format (normalized amplitudes)."""
    return _text.format_qs(psi.sites, psi.site_dim, psi.terms(), comment)
