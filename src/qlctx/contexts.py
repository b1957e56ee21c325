"""Maximal context operators.

A context is a nondegenerate self-adjoint operator, equivalently an
orthonormal basis paired with mutually distinct eigenvalues; observables
shared between contexts (link observables) are the basis rays common to
both.

Pure Python, like ``logic``: a matrix is a list of rows, each a list of
``complex``, and every function returns matrices in that form.  Inputs may
be any square nested sequence of numbers, numpy arrays included, but
nothing here imports numpy.
"""

from __future__ import annotations

import itertools
import math

# the one tolerance of a context: of orthonormality, of distinct eigenvalues
# and of a link overlap
CONTEXT_TOLERANCE = 1e-9


class Context:
    """Orthonormal basis (rows), distinct eigenvalues, and the cached operator."""

    __slots__ = ("basis", "eigenvalues", "operator")

    def __init__(self, basis, eigenvalues, operator):
        self.basis = basis
        self.eigenvalues = eigenvalues
        self.operator = operator

    @property
    def dim(self) -> int:
        return len(self.basis)


def _square(a, message: str) -> list[list[complex]]:
    """``a`` as a list of rows of ``complex``; ValueError(message) unless
    it is a nonempty square matrix."""
    try:
        rows = [[complex(x) for x in row] for row in a]
    except TypeError:
        raise ValueError(message) from None
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError(message)
    return rows


def _dot(u, w) -> complex:
    """sum_k u_k w_k, added in index order."""
    total = 0j
    for x, y in zip(u, w):
        total += x * y
    return total


def _conj(v) -> list[complex]:
    return [x.conjugate() for x in v]


def dyad(v) -> list[list[complex]]:
    """Rank-1 orthogonal projector v v†/‖v‖² onto the ray spanned by v."""
    v = [complex(x) for x in v]
    n2 = _dot(v, _conj(v)).real
    if n2 == 0.0 or not math.isfinite(n2):
        raise ValueError("dyad of a zero vector")
    return [[x * y.conjugate() / n2 for y in v] for x in v]


def commutator(a, b) -> list[list[complex]]:
    """AB - BA of two square matrices of one size."""
    a = _square(a, "commutator expects square matrices")
    b = _square(b, "commutator expects square matrices")
    if len(a) != len(b):
        raise ValueError("commutator expects matrices of one size")
    a_cols, b_cols = list(zip(*a)), list(zip(*b))
    return [[_dot(a_row, b_col) - _dot(b_row, a_col)
             for b_col, a_col in zip(b_cols, a_cols)]
            for a_row, b_row in zip(a, b)]


def context_operator(basis, eigenvalues) -> Context:
    """Build the maximal operator sum_i e_i |b_i><b_i| of a context.

    The basis rows must be orthonormal and the eigenvalues mutually
    distinct (a repeated eigenvalue would make the operator degenerate and
    the context ill-defined), both to within the fixed CONTEXT_TOLERANCE.
    """
    basis = _square(basis, "basis must be a square matrix of row vectors")
    n = len(basis)
    for i, j in itertools.product(range(n), repeat=2):
        overlap = _dot(basis[i], _conj(basis[j])) - (i == j)
        if not math.hypot(overlap.real, overlap.imag) <= CONTEXT_TOLERANCE:
            raise ValueError("basis rows are not orthonormal")
    eigenvalues = tuple(float(e) for e in eigenvalues)
    if len(eigenvalues) != n:
        raise ValueError("need one eigenvalue per basis vector")
    for a, b in itertools.combinations(eigenvalues, 2):
        if abs(a - b) <= CONTEXT_TOLERANCE:
            raise ValueError(
                f"degenerate context: eigenvalues {a} and {b} coincide"
            )
    op = [[0j] * n for _ in range(n)]
    for e, v in zip(eigenvalues, basis):
        for op_row, p_row in zip(op, dyad(v)):
            for k, p in enumerate(p_row):
                op_row[k] += e * p
    return Context(basis, eigenvalues, op)


def two_tripod_bases(phi: float) -> tuple[list, list]:
    """The two interlinked dimension-3 bases sharing the (0,0,1) leg.

    Returns the standard basis and its rotation by ``phi`` about the shared
    third axis (rows are basis vectors).
    """
    c, s = math.cos(phi), math.sin(phi)
    first = [[1 + 0j, 0j, 0j], [0j, 1 + 0j, 0j], [0j, 0j, 1 + 0j]]
    second = [[complex(c), complex(s), 0j], [complex(-s), complex(c), 0j],
              [0j, 0j, 1 + 0j]]
    return first, second


def link_observables(c1: Context, c2: Context):
    """Rank-1 projectors shared by two contexts.

    Returns (i, j, projector) triples for every basis pair with overlap
    magnitude at least 1 - CONTEXT_TOLERANCE; symmetric in its arguments
    up to index order.
    """
    if c1.dim != c2.dim:
        raise ValueError("contexts act on different dimensions")
    links = []
    for i, u in enumerate(c1.basis):
        for j, w in enumerate(c2.basis):
            if abs(_dot(_conj(u), w)) >= 1.0 - CONTEXT_TOLERANCE:
                links.append((i, j, dyad(u)))
    return links


def split_selfadjoint(a) -> tuple[list, list]:
    """Split a square matrix as A = A1 + i A2 with A1, A2 self-adjoint:
    A1 = A/2 + A†/2 and A2 = -i(A/2 - A†/2).

    Halving first is exact for normal floats and keeps every sum within
    range, so a finite A gives finite parts."""
    a = _square(a, "split_selfadjoint expects a square matrix")
    half = [[complex(z.real / 2, z.imag / 2) for z in row] for row in a]
    adjoint = [_conj(col) for col in zip(*half)]
    a1 = [[x + y for x, y in zip(row, adj_row)]
          for row, adj_row in zip(half, adjoint)]
    a2 = [[(x - y) / 1j for x, y in zip(row, adj_row)]
          for row, adj_row in zip(half, adjoint)]
    return a1, a2
