"""The dimension-3 orthogonality saturation rule, in pure Python.

An atom orthogonal to two orthogonal atoms u, w of C^3 (or R^3) is pinned
to the unique ray orthogonal to both, so two distinct atoms orthogonal to
the same orthogonal pair are forced collinear.  A derived collinearity
between distinct atoms is a proof that the diagram has no realization in
dimension 3.  ``realizability`` applies the rule before any numerical
search; ``qlctx saturate`` runs it alone, without loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .logic import GreechieDiagram, orthogonal_pairs


@dataclass(frozen=True)
class SaturationStep:
    collinear: tuple[str, str]
    orthogonal_pair: tuple[str, str]
    reasons: tuple[str, ...]


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
            u, w = step.orthogonal_pair
            lines.append(
                f"atoms {x}, {y} forced collinear: both are orthogonal to "
                f"the orthogonal pair {{{u}, {w}}}"
            )
            lines.extend(f"  {r}" for r in step.reasons)
        lines.append("refuted: two distinct atoms cannot share a ray")
        return "\n".join(lines)


def saturate_orthogonality(diagram: GreechieDiagram) -> SaturationOutcome:
    """Apply the dimension-3 cross-ray deduction rule to closure.

    The orthogonality relation of a diagram only grows through collinearity
    merges, and the first merge of two distinct atoms already refutes
    realizability, so a single pass over all orthogonal pairs is exhaustive.
    Pairs {u, w} are taken in atom order, and the atoms orthogonal to both
    are the intersection of their neighbour sets.
    """
    if diagram.dim != 3:
        raise ValueError("the saturation rule is specific to dimension 3")
    atoms = diagram.atoms
    index = {a: i for i, a in enumerate(atoms)}
    pairs = orthogonal_pairs(diagram)
    neighbours: list[set[int]] = [set() for _ in atoms]
    for x, y in pairs:
        neighbours[index[x]].add(index[y])
        neighbours[index[y]].add(index[x])

    def cite(x, y):
        ci = pairs.get((x, y), pairs.get((y, x)))
        return f"{x} ⊥ {y}  (context {ci + 1}: {' '.join(diagram.contexts[ci])})"

    for iu, nu in enumerate(neighbours):
        for iw in sorted(iw for iw in nu if iw > iu):
            shared = neighbours[iu] & neighbours[iw]
            if len(shared) >= 2:
                u, w = atoms[iu], atoms[iw]
                x, y = (atoms[i] for i in sorted(shared)[:2])
                reasons = (
                    cite(u, w), cite(x, u), cite(x, w), cite(y, u), cite(y, w),
                )
                step = SaturationStep((x, y), (u, w), reasons)
                return SaturationOutcome("contradiction", (step,))
    return SaturationOutcome("no_contradiction")
