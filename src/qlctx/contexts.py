"""Maximal context operators.

A context is a nondegenerate self-adjoint operator, equivalently an
orthonormal basis paired with mutually distinct eigenvalues; observables
shared between contexts (link observables) are the basis rays common to
both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import as_complex, dyad


@dataclass(frozen=True, eq=False)
class Context:
    """Orthonormal basis (rows), distinct eigenvalues, and the cached operator."""

    basis: np.ndarray
    eigenvalues: tuple[float, ...]
    operator: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def context_operator(basis, eigenvalues, tol: float = 1e-9) -> Context:
    """Build the maximal operator sum_i e_i |b_i><b_i| of a context.

    The basis rows must be orthonormal and the eigenvalues mutually
    distinct (a repeated eigenvalue would make the operator degenerate and
    the context ill-defined).
    """
    basis = as_complex(basis)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise ValueError("basis must be a square matrix of row vectors")
    gram = basis @ basis.conj().T
    if np.max(np.abs(gram - np.eye(basis.shape[0]))) > tol:
        raise ValueError("basis rows are not orthonormal")
    eigenvalues = tuple(float(e) for e in eigenvalues)
    if len(eigenvalues) != basis.shape[0]:
        raise ValueError("need one eigenvalue per basis vector")
    for a, b in itertools.combinations(eigenvalues, 2):
        if abs(a - b) <= tol:
            raise ValueError(
                f"degenerate context: eigenvalues {a} and {b} coincide"
            )
    op = sum(e * dyad(v) for e, v in zip(eigenvalues, basis))
    return Context(basis, eigenvalues, op)


def two_tripod_bases(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """The two interlinked dimension-3 bases sharing the (0,0,1) leg.

    Returns the standard basis and its rotation by ``phi`` about the shared
    third axis (rows are basis vectors).
    """
    c, s = np.cos(phi), np.sin(phi)
    first = np.eye(3, dtype=complex)
    second = np.array(
        [[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]], dtype=complex
    )
    return first, second


def link_observables(c1: Context, c2: Context, tol: float = 1e-9):
    """Rank-1 projectors shared by two contexts.

    Returns (i, j, projector) triples for every basis pair with overlap
    magnitude at least 1 - tol; symmetric in its arguments up to index
    order.
    """
    if c1.dim != c2.dim:
        raise ValueError("contexts act on different dimensions")
    links = []
    for i in range(c1.dim):
        for j in range(c2.dim):
            ov = abs(complex(np.vdot(c1.basis[i], c2.basis[j])))
            if ov >= 1.0 - tol:
                links.append((i, j, dyad(c1.basis[i])))
    return links


def split_selfadjoint(a) -> tuple[np.ndarray, np.ndarray]:
    """Split a square matrix as A = A1 + i A2 with A1, A2 self-adjoint:
    A1 = A/2 + A†/2 and A2 = -i(A/2 - A†/2).

    Halving first is exact for normal floats and keeps every sum within
    range, so a finite A gives finite parts."""
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("split_selfadjoint expects a square matrix")
    half = a / 2.0
    return half + half.conj().T, (half - half.conj().T) / 1j
