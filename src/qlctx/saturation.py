"""The exact dimension-3 engine, in pure Python: orthogonality saturation,
which refutes, and integer propagation, which builds witnesses.

Saturation.  Two distinct atoms u, w of C^3 (or R^3) span a plane, so an
atom orthogonal to both is pinned to the one ray orthogonal to that plane,
and two distinct atoms orthogonal to the same pair are forced collinear.
A derived collinearity between distinct atoms is a proof that the diagram
has no realization in dimension 3.  ``realizability`` applies the rule
before any search; ``qlctx saturate`` runs it alone, without loading numpy.

Propagation.  ``integer_witness`` places integer vectors of Z^3 one atom
at a time: a chosen atom takes a generic vector g, or u x g beside a
placed neighbour u, and every atom with two placed neighbours is forced to
their cross product.  Every placed vector is checked exactly, in integers,
against every placed atom.  The propagation only finds witnesses; when it
fails, nothing is proved.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from fractions import Fraction

from .logic import GreechieDiagram, link_atoms, orthogonal_pairs


@dataclass(frozen=True)
class SaturationStep:
    """Atoms ``collinear`` are both orthogonal to the two distinct atoms
    ``pair``; ``orthogonal`` says whether the pair shares a context too.
    ``reasons`` cite a context for each orthogonality used."""

    collinear: tuple[str, str]
    pair: tuple[str, str]
    reasons: tuple[str, ...]
    orthogonal: bool = True

    @property
    def orthogonal_pair(self) -> tuple[str, str] | None:
        return self.pair if self.orthogonal else None


@dataclass(frozen=True)
class SaturationOutcome:
    verdict: str  # "contradiction" | "no_contradiction"
    derivation: tuple[SaturationStep, ...] = ()

    def render(self) -> str:
        if self.verdict == "no_contradiction":
            return "no contradiction: the dimension-3 saturation rule derives nothing"
        lines = []
        for step in self.derivation:
            x, y = step.collinear
            u, w = step.pair
            pair = (f"the orthogonal pair {{{u}, {w}}}" if step.orthogonal
                    else f"the distinct atoms {u}, {w}")
            lines.append(f"atoms {x}, {y} forced collinear: both are orthogonal "
                         f"to {pair}")
            lines.extend(f"  {r}" for r in step.reasons)
        lines.append("refuted: two distinct atoms cannot share a ray")
        return "\n".join(lines)


def _neighbours(diagram: GreechieDiagram, pairs) -> list[set[int]]:
    """The indices of each atom's orthogonal atoms."""
    index = {a: i for i, a in enumerate(diagram.atoms)}
    neighbours: list[set[int]] = [set() for _ in diagram.atoms]
    for x, y in pairs:
        neighbours[index[x]].add(index[y])
        neighbours[index[y]].add(index[x])
    return neighbours


def saturate_orthogonality(diagram: GreechieDiagram) -> SaturationOutcome:
    """Apply the dimension-3 cross-ray deduction rule to closure.

    The orthogonality relation of a diagram only grows through collinearity
    merges, and the first merge of two distinct atoms already refutes
    realizability, so one pass over all pairs of atoms is exhaustive.  It is
    one scan in atom order: an atom w > u reached from u along two paths of
    two steps shares two neighbours with u.  The first u with such an
    orthogonal w is cited at once, with its smallest w; otherwise the first
    u with such a non-orthogonal w is, after the scan.  The atoms orthogonal
    to both are the intersection of their neighbour sets.
    """
    if diagram.dim != 3:
        raise ValueError("the saturation rule is specific to dimension 3")
    atoms = diagram.atoms
    pairs = orthogonal_pairs(diagram)
    neighbours = _neighbours(diagram, pairs)

    def cite(x, y):
        ci = pairs.get((x, y), pairs.get((y, x)))
        return f"{x} ⊥ {y}  (context {ci + 1}: {' '.join(diagram.contexts[ci])})"

    def refuted(iu, iw, orthogonal):
        u, w = atoms[iu], atoms[iw]
        x, y = (atoms[i] for i in sorted(neighbours[iu] & neighbours[iw])[:2])
        reasons = (cite(u, w),) if orthogonal else ()
        reasons += (cite(x, u), cite(x, w), cite(y, u), cite(y, w))
        step = SaturationStep((x, y), (u, w), reasons, orthogonal)
        return SaturationOutcome("contradiction", (step,))

    first_other = None
    for iu, nu in enumerate(neighbours):
        seen, twice = set(), set()
        for ix in nu:
            for iw in neighbours[ix]:
                if iw > iu:
                    (twice if iw in seen else seen).add(iw)
        if twice & nu:
            return refuted(iu, min(twice & nu), True)
        if first_other is None and twice:
            first_other = (iu, min(twice))
    if first_other is not None:
        return refuted(*first_other, False)
    return SaturationOutcome("no_contradiction")


# --- integer propagation ------------------------------------------------------

# candidates tried for each choice before the propagation gives up
CANDIDATES = 64
# generic vectors come from one fixed linear congruential sequence (Knuth's
# MMIX constants), not from ``random``, whose stream Python does not promise
# to keep; each coordinate is drawn from [-9, 9], so the candidates spread
# over the sphere
_LCG_MULTIPLIER = 6364136223846793005
_LCG_INCREMENT = 1442695040888963407
_LCG_BITS = 64
_COORDINATE = 9


def _generic_vectors():
    state = 0
    mask = (1 << _LCG_BITS) - 1
    while True:
        triple = []
        for _ in range(3):
            state = (state * _LCG_MULTIPLIER + _LCG_INCREMENT) & mask
            triple.append((state >> 33) % (2 * _COORDINATE + 1) - _COORDINATE)
        yield tuple(triple)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def check_margin(margin) -> None:
    """ValueError unless ``margin`` lies in the open interval (0, 1); nan
    and the infinities do not."""
    if not 0 < margin < 1:
        raise ValueError("margin must lie in the open interval (0, 1), "
                         f"got {margin!r}")


def integer_witness(
    diagram: GreechieDiagram, margin: float
) -> dict[str, tuple[int, int, int]] | None:
    """Integer vectors of Z^3 realizing ``diagram``, or None when the
    propagation gives up.

    Atoms are placed one at a time.  The next choice is the unplaced atom
    with the most placed neighbours, link atoms (in two or more contexts)
    first, then atom order.  It takes a generic vector g when no neighbour
    is placed and u x g beside its placed neighbour u.  Then every atom with
    two placed neighbours is forced to their cross product, until none is
    left.  Every vector is reduced by the gcd of its coordinates and must
    pass two exact checks against every placed atom v: a zero dot product
    when v is a neighbour, and otherwise
    (u·v)^2 <= (1 - margin)^2 |u|^2 |v|^2, with ``margin`` read as the exact
    value of the float, which also rules out parallel vectors.  When a
    vector fails, the choice is undone with all the atoms it forced and the
    next g is tried; a choice that fails on CANDIDATES vectors gives up.
    ``margin`` must lie in the open interval (0, 1).
    """
    if diagram.dim != 3:
        raise ValueError("the integer propagation is specific to dimension 3")
    check_margin(margin)
    atoms = diagram.atoms
    n = len(atoms)
    adjacent = _neighbours(diagram, orthogonal_pairs(diagram))
    neighbours = [sorted(nu) for nu in adjacent]  # in atom order
    index = {a: i for i, a in enumerate(atoms)}
    links = {index[a] for a in link_atoms(diagram)}
    bound = (1 - Fraction(margin)) ** 2
    num, den = bound.numerator, bound.denominator

    vectors: list[tuple[int, int, int] | None] = [None] * n
    norms = [0] * n
    placed: list[int] = []  # in placement order, so a choice can be undone
    placed_neighbours = [0] * n
    forced: collections.deque[int] = collections.deque()  # not yet placed

    def place(i, v) -> bool:
        common = math.gcd(*v)
        if common == 0:
            return False
        v = (v[0] // common, v[1] // common, v[2] // common)
        nv = _dot(v, v)
        for j in placed:
            d = _dot(v, vectors[j])
            if j in adjacent[i]:
                if d:
                    return False
            elif d * d * den > num * nv * norms[j]:
                return False
        vectors[i], norms[i] = v, nv
        placed.append(i)
        for j in neighbours[i]:
            placed_neighbours[j] += 1
            if placed_neighbours[j] == 2 and vectors[j] is None:
                forced.append(j)
        return True

    def place_forced() -> bool:
        while forced:
            j = forced.popleft()
            a, b = [k for k in neighbours[j] if vectors[k] is not None][:2]
            if not place(j, _cross(vectors[a], vectors[b])):
                return False
        return True

    def undo(mark: int) -> None:
        forced.clear()
        while len(placed) > mark:
            i = placed.pop()
            vectors[i] = None
            for j in neighbours[i]:
                placed_neighbours[j] -= 1

    generic = _generic_vectors()
    while len(placed) < n:
        i = min((j for j in range(n) if vectors[j] is None),
                key=lambda j: (-placed_neighbours[j], j not in links, j))
        beside = [k for k in neighbours[i] if vectors[k] is not None]
        mark = len(placed)
        for _ in range(CANDIDATES):
            g = next(generic)
            v = _cross(vectors[beside[0]], g) if beside else g
            if place(i, v) and place_forced():
                break
            undo(mark)
        else:
            return None
    return {a: vectors[i] for a, i in index.items()}
