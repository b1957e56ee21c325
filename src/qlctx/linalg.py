"""Dense complex linear algebra helpers used throughout the package:
tensor products, dyads, spectral decompositions, kernels, and spin-rotation
unitaries.

Everything operates on plain numpy arrays and is pure: inputs are never
mutated and there is no global state, so values can be shared freely
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two vectors or of two matrices; dimensions multiply."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise ValueError("tensor expects two vectors or two matrices")
    return np.kron(a, b)


def dyad(v) -> np.ndarray:
    """Rank-1 orthogonal projector v v†/‖v‖² onto the ray spanned by v."""
    v = as_complex(v).reshape(-1)
    n2 = float(np.vdot(v, v).real)
    if n2 == 0.0 or not np.isfinite(n2):
        raise ValueError("dyad of a zero vector")
    return np.outer(v, v.conj()) / n2


def hermiticity_defect(m) -> float:
    m = as_complex(m)
    return float(np.max(np.abs(m - m.conj().T)))


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    return hermiticity_defect(m) <= tol


def unitarity_defect(u) -> float:
    u = as_complex(u)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


@dataclass(frozen=True, eq=False)
class SpectralForm:
    """(eigenvalue, projector) pairs of a self-adjoint matrix, eigenvalues ascending."""

    pairs: tuple[tuple[float, np.ndarray], ...]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(e for e, _ in self.pairs)

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(p for _, p in self.pairs)

    def recompose(self) -> np.ndarray:
        return sum(e * p for e, p in self.pairs)


def spectral_decompose(h, tol: float = DEFAULT_TOL) -> SpectralForm:
    """Spectral form of a self-adjoint matrix.

    Eigenvalues closer than ``tol`` are treated as degenerate and merged
    into a single projector, so the returned eigenvalues are mutually
    distinct at scale ``tol`` and the projectors sum to the identity.
    """
    h = as_complex(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("spectral_decompose expects a square matrix")
    if not is_hermitian(h, tol):
        raise ValueError(f"matrix is not self-adjoint within {tol}")
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    pairs = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] >= tol:
            block = v[:, start:i]
            pairs.append((float(np.mean(w[start:i])), block @ block.conj().T))
            start = i
    return SpectralForm(tuple(pairs))


def kernel(m, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of {v : ‖Mv‖ <= tol·‖M‖·‖v‖}; empty for a trivial kernel."""
    m = as_complex(m)
    if m.ndim != 2:
        raise ValueError("kernel expects a matrix")
    _, sing, vh = np.linalg.svd(m)
    smax = float(sing[0]) if sing.size else 0.0
    vecs = []
    for i in range(m.shape[1]):
        s_i = float(sing[i]) if i < sing.size else 0.0
        if s_i <= tol * smax:
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
