"""Small dense linear-algebra helpers for the spin-state layer: the
unitarity defect, kernels, spin matrices and spin-rotation unitaries.

Everything operates on plain numpy arrays and is pure: inputs are never
mutated and there is no global state, so values can be shared freely
between threads.
"""

from __future__ import annotations

import numpy as np

KERNEL_TOLERANCE = 1e-9


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
