"""Greechie orthogonality diagrams and their two-valued states.

A diagram is a set of named atoms (observables, representable as rays)
grouped into contexts (maximal sets of co-measurable observables); atoms
shared by two or more contexts are link observables.  A two-valued state
assigns 0/1 to every atom with exactly one 1 per context.  The public
functions represent it as the frozenset of atoms assigned 1.  Inside this
module a state is one int mask, one bit per atom, atom 0 the most
significant, so ascending ints are the assignment vectors in lexicographic
atom order.  Enumeration, classification and the hull's vertex rows hold
only masks; ``_states_of`` decodes frozensets for what is returned.

.gd file format, one directive per line ('#' starts a comment):

    name <free text>            optional diagram name
    atoms <a> <b> ...           optional atom declaration (fixes the order)
    context <a> <b> <c> ...     one context per line

Atoms are bare whitespace-delimited tokens; the same token appearing in two
contexts denotes the same observable.  All contexts must have the same size
(the diagram dimension).  Atoms are ordered as the ``atoms`` declaration
lists them, which must name exactly the atoms of the contexts, or else by
first use.  That order sets the state masks and so the order of the atoms
and of the states in every output.
"""

from __future__ import annotations

import collections
import itertools
import re
import sys
from fractions import Fraction

from . import _text
from ._lp import feasibility

TwoValuedState = frozenset  # atoms assigned 1; all other atoms are 0

# the most two-valued states one enumeration lists; a 20-tripod chain has
# F(23) = 28,657 of them and a 30-tripod chain F(33) = 3,524,578
MAX_STATES = 1 << 20

# the largest decimal exponent, in magnitude, of an exact number read from
# text: Fraction builds 10**exponent, and "1e-10000000" takes seconds
MAX_EXPONENT = 1000

# a decimal with an exponent as Fraction reads it, the exponent's digits
# in group 1
_DECIMAL = re.compile(r"\s*[-+]?(?=\.?\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?"
                      r"[eE][-+]?(\d+(?:_\d+)*)\s*")


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)


class GreechieDiagram(collections.namedtuple(
        "GreechieDiagram", "atoms contexts dim name", defaults=(None,))):
    """Atom names in order, contexts as tuples of atoms, the context size
    ``dim``, and the diagram's name or None."""

    __slots__ = ()


def make_diagram(contexts, name=None, atoms=None, _lines=None) -> GreechieDiagram:
    """Validate and build a diagram from context tuples.

    ``atoms``, when given, fixes the atom order and must cover exactly the
    atoms used by the contexts; otherwise atoms are ordered by first
    appearance.  ``_lines`` carries source line numbers for parse errors.
    """
    contexts = [tuple(c) for c in contexts]
    lines = _lines or [None] * len(contexts)
    if not contexts:
        raise ParseError("diagram has no contexts")
    dim = len(contexts[0])
    if dim < 2:
        raise ParseError("contexts need at least two atoms", lines[0])
    seen_sets: set[frozenset] = set()
    for ctx, line in zip(contexts, lines):
        if len(ctx) != dim:
            raise ParseError(
                f"context {ctx} has size {len(ctx)}, expected {dim}", line
            )
        if len(set(ctx)) != dim:
            raise ParseError(f"context {ctx} repeats an atom", line)
        key = frozenset(ctx)
        if key in seen_sets:
            raise ParseError(
                f"context {ctx} duplicates an earlier context", line
            )
        seen_sets.add(key)
    used = dict.fromkeys(atom for ctx in contexts for atom in ctx)
    if atoms is not None:
        atoms = list(atoms)
        declared = set(atoms)
        if len(declared) != len(atoms):
            raise ParseError("duplicate atom declaration")
        for ctx, line in zip(contexts, lines):
            for atom in ctx:
                if atom not in declared:
                    raise ParseError(f"unknown atom {atom!r} in context", line)
        unused = [a for a in atoms if a not in used]
        if unused:
            raise ParseError(f"declared atoms {unused} appear in no context")
        order = tuple(atoms)
    else:
        order = tuple(used)
    return GreechieDiagram(order, tuple(contexts), dim, name)


def parse_diagram(text: str) -> GreechieDiagram:
    """Parse the .gd format; raises ParseError with a line number."""
    name = None
    declared = None
    contexts: list[tuple[str, ...]] = []
    lines: list[int] = []
    for lineno, tokens in _text.lines(text):
        keyword, rest = tokens[0], tokens[1:]
        if keyword == "name":
            name = " ".join(rest) or None
        elif keyword == "atoms":
            declared = (declared or []) + rest
        elif keyword == "context":
            contexts.append(tuple(rest))
            lines.append(lineno)
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)
    return make_diagram(contexts, name=name, atoms=declared, _lines=lines)


def link_atoms(diagram: GreechieDiagram) -> tuple[str, ...]:
    """Atoms belonging to two or more contexts, in atom order."""
    counts = collections.Counter(a for ctx in diagram.contexts for a in ctx)
    return tuple(a for a in diagram.atoms if counts[a] >= 2)


def orthogonal_pairs(diagram: GreechieDiagram) -> dict[tuple[str, str], int]:
    """Every pair of atoms that share a context, mapped to the index of the
    first context holding both.

    Each pair appears once, in the orientation and the order in which the
    contexts, read in file order, first list it.
    """
    pairs: dict[tuple[str, str], int] = {}
    for ci, ctx in enumerate(diagram.contexts):
        for x, y in itertools.combinations(ctx, 2):
            if (y, x) not in pairs:
                pairs.setdefault((x, y), ci)
    return pairs


def _atom_bits(diagram: GreechieDiagram) -> list[int]:
    """The bit of each atom in a state mask, atom 0 the most significant."""
    n = len(diagram.atoms)
    return [1 << (n - 1 - i) for i in range(n)]


def _enumerate(diagram: GreechieDiagram) -> list[int]:
    """The mask of every two-valued state, ascending.

    A mask holds one bit per atom, atom 0 the most significant, so ascending
    masks are the assignment vectors in lexicographic atom order.  Walks the
    contexts in file order, depth first on an explicit stack of (ci, ones)
    pairs: ones is the mask of atoms set to 1, ci the next context.  Once
    contexts 0..ci-1 are walked, every atom they hold is decided: 1 if its
    bit is in the mask and 0 otherwise.  So a context that already holds one
    1 passes on, one that holds two is a dead end, and one that holds none
    pushes one branch per atom no earlier context holds.  Distinct branches
    differ in some chosen atom, so no state is found twice.  More than
    MAX_STATES states raise ValueError.
    """
    bits = dict(zip(diagram.atoms, _atom_bits(diagram)))
    contexts = []
    covered = 0
    for ctx in diagram.contexts:
        mask = sum(bits[a] for a in ctx)
        contexts.append((mask, [bits[a] for a in ctx if not covered & bits[a]]))
        covered |= mask
    last = len(contexts)
    cap = MAX_STATES
    found: list[int] = []
    stack = [(0, 0)]
    push, pop = stack.append, stack.pop
    while stack:
        ci, ones = pop()
        while ci < last:
            mask, free = contexts[ci]
            held = ones & mask
            if not held:
                for bit in free:
                    push((ci + 1, ones | bit))
                break
            if held & (held - 1):  # two 1s: a dead end
                break
            ci += 1  # one 1 already: the rest are 0
        else:
            if len(found) == cap:
                raise ValueError(
                    f"the diagram has more than {cap} two-valued states, "
                    "the most an enumeration lists"
                )
            found.append(ones)
    found.sort()
    return found


def _states_of(diagram: GreechieDiagram, masks) -> list[TwoValuedState]:
    """The atoms set to 1 in each mask, atom 0 the most significant bit."""
    atoms, width = diagram.atoms, f"0{len(diagram.atoms)}b"
    selectors = bytes.maketrans(b"01", b"\0\1")  # binary digits to 0/1
    return [frozenset(itertools.compress(
        atoms, format(mask, width).encode().translate(selectors)))
        for mask in masks]


def two_valued_states(diagram: GreechieDiagram) -> list[TwoValuedState]:
    """All 0/1 assignments with exactly one 1 per context.

    The result is sorted lexicographically by assignment vector in atom
    order, so the enumeration is deterministic and duplicate-free.
    """
    return _states_of(diagram, _enumerate(diagram))


def nonseparating_pairs(diagram: GreechieDiagram) -> list[tuple[str, str]]:
    """Unordered atom pairs (x, y) with v(x) = v(y) in every two-valued state.

    Empty when no two-valued states exist (nonexistence is reported
    separately by classify).
    """
    return _pairs_in(diagram, _enumerate(diagram))


def _pairs_in(diagram: GreechieDiagram, masks) -> list[tuple[str, str]]:
    """Atom pairs with equal values in every state of ``masks``, in the
    order of ``itertools.combinations(diagram.atoms, 2)``.

    Atoms are grouped by their state-incidence signature through partition
    refinement: a group is a mask of atom bits, each state m splits it into
    g & m and g & ~m, and groups of one atom are dropped.  That is
    O(n·|S|) instead of O(n²·|S|), and it stops as soon as no group is left.
    """
    bits = _atom_bits(diagram)
    groups = [sum(bits)] if masks else []
    # enumerated states come sorted, so neighbouring ones differ in few
    # atoms; visiting every 64th state first splits the groups early
    spread = itertools.chain.from_iterable(masks[k::64] for k in range(64))
    for mask in spread:
        if not groups:
            return []
        groups = [
            part
            for group in groups
            for part in (group & mask, group & ~mask)
            if part & (part - 1)
        ]
    pairs = sorted(
        pair
        for group in groups
        for pair in itertools.combinations(
            [i for i, bit in enumerate(bits) if group & bit], 2)
    )
    return [(diagram.atoms[i], diagram.atoms[j]) for i, j in pairs]


class StateSetClassification(collections.namedtuple(
        "StateSetClassification", "kind witness_atoms witness_pairs state_count",
        defaults=((), (), 0))):
    """Scarcity class of the two-valued state set, plus its witnesses.

    kind is one of 'nonexistent', 'nonunital', 'unital_nonseparating',
    'separating'; witnesses are the atoms never assigned 1 (nonunital) or
    the indistinguishable atom pairs (nonseparating).  ``state_count`` is
    the number of two-valued states the classification rests on.
    """

    __slots__ = ()


def classify(diagram: GreechieDiagram) -> StateSetClassification:
    masks = _enumerate(diagram)
    count = len(masks)
    if not masks:
        return StateSetClassification("nonexistent")
    live = 0
    for mask in masks:
        live |= mask
    dead = tuple(
        a for a, bit in zip(diagram.atoms, _atom_bits(diagram))
        if not live & bit
    )
    if dead:
        return StateSetClassification(
            "nonunital", witness_atoms=dead, state_count=count
        )
    pairs = tuple(_pairs_in(diagram, masks))
    if pairs:
        return StateSetClassification(
            "unital_nonseparating", witness_pairs=pairs, state_count=count
        )
    return StateSetClassification("separating", state_count=count)


# --- classical polytope membership ----------------------------------------


class HullMembership(collections.namedtuple(
        "HullMembership", "inside states weights functional offset margin",
        defaults=(None, None, None, None))):
    """Outcome of a convex-hull membership test over the two-valued states.

    For an inside verdict, ``weights`` is an exact convex combination
    aligned with ``states``.  For an outside verdict, ``functional`` and
    ``offset`` give an exact separating hyperplane: f(s) <= offset on every
    state while f(p) = offset + margin with margin > 0.
    """

    __slots__ = ()


def _to_fraction(x, what: str) -> Fraction:
    """``x`` as an exact Fraction; ``what`` names the quantity in errors.

    A float enters with its exact binary value, and text as Fraction reads
    it.  Text with more digits than the interpreter's limit on the digits
    of an int read from text, or with a decimal exponent beyond
    MAX_EXPONENT in magnitude, is refused before the number is built, and
    so are text Fraction cannot read ('1/0' included) and a float that is
    not finite."""
    if isinstance(x, str):
        limit = sys.get_int_max_str_digits()  # 0: no limit
        # counted only past the limit's length, so short text pays nothing
        if 0 < limit < len(x) and sum(map(str.isdigit, x)) > limit:
            raise ValueError(f"{what} {x.strip()[:20]!r}... has more than "
                             f"{limit} digits")
        match = _DECIMAL.fullmatch(x)
        digits = match[1].replace("_", "").lstrip("0") if match else ""
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ValueError(f"{what} {x.strip()!r} has a decimal exponent "
                             f"beyond {MAX_EXPONENT} in magnitude")
    elif not isinstance(x, (int, Fraction, float)):
        raise TypeError(f"cannot interpret {x!r} as a {what}")
    try:
        return Fraction(x)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"{what} {x!r} is not a finite number") from None


def hull_membership(diagram: GreechieDiagram, p, tol="1e-9") -> HullMembership:
    """Decide whether atom probabilities p lie in the classical polytope.

    p maps atom names to values in [0, 1] (ints, floats, Fractions, or
    strings like '1/3'); unlisted atoms default to 0.  The test asks for
    nonnegative weights over the enumerated two-valued states that sum to
    one and reproduce p within ``tol`` componentwise; it is solved exactly
    in rational arithmetic, so certificates are exact.  ``tol`` takes the
    same types; a decimal string such as the default '1e-9' is read
    exactly, where a float enters with its binary value.  Text whose
    decimal exponent exceeds MAX_EXPONENT in magnitude ('1e-1001') is
    refused with ValueError before it is read, since the exact number
    holds 10 to that power; so are text with more digits than the
    interpreter reads into one int, and text Fraction cannot read.
    """
    for atom in p:
        if atom not in diagram.atoms:
            raise ValueError(f"unknown atom {atom!r} in probability assignment")
    target = [_to_fraction(p.get(a, 0), "probability value")
              for a in diagram.atoms]
    if any(t < 0 or t > 1 for t in target):
        raise ValueError("probabilities must lie in [0, 1]")
    tol = _to_fraction(tol, "tolerance")
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    masks = _enumerate(diagram)
    if not masks:
        raise ValueError("no classical states: the diagram admits no "
                         "two-valued states")

    m = len(diagram.atoms)
    k = len(masks)
    states = tuple(_states_of(diagram, masks))
    # the constraint matrix is integer (0, ±1); only the right-hand side is
    # fractional, which is what the integer tableau of feasibility expects
    vertex = [[1 if mask & bit else 0 for mask in masks]
              for bit in _atom_bits(diagram)]

    # exact reproduction first: clean certificates whenever p is hit exactly
    rows = vertex + [[1] * k]
    rhs = list(target) + [Fraction(1)]
    status, x, _ = feasibility(rows, rhs)
    if status == "feasible":
        return HullMembership(True, states, weights=tuple(x))

    # otherwise allow a componentwise band of width tol around p
    # columns: state weights (k) | band offsets w (m) | band slacks r (m)
    rows, rhs = [], []
    for i in range(m):  # V·λ - w_i = p_i - tol
        row = vertex[i] + [0] * (2 * m)
        row[k + i] = -1
        rows.append(row)
        rhs.append(target[i] - tol)
    for i in range(m):  # w_i + r_i = 2 tol
        row = [0] * (k + 2 * m)
        row[k + i] = 1
        row[k + m + i] = 1
        rows.append(row)
        rhs.append(2 * tol)
    rows.append([1] * k + [0] * (2 * m))  # sum of weights = 1
    rhs.append(Fraction(1))

    status, x, farkas = feasibility(rows, rhs)
    if status == "feasible":
        return HullMembership(True, states, weights=tuple(x[:k]))

    # Farkas row multipliers -> separating functional on atom probabilities
    coeffs = farkas[:m]
    scale = max(abs(c) for c in coeffs)
    coeffs = [c / scale for c in coeffs]
    offset = -farkas[2 * m] / scale
    functional = {a: coeffs[i] for i, a in enumerate(diagram.atoms)}
    value = sum(c * t for c, t in zip(coeffs, target))
    return HullMembership(
        False,
        states,
        functional=functional,
        offset=offset,
        margin=value - offset,
    )


# --- rendering -------------------------------------------------------------

_PALETTE = ("black", "red3", "blue3", "green4", "orange3",
            "purple3", "brown", "cyan4")


def _q(s: str) -> str:
    return '"' + s.replace('"', r"\"") + '"'


def render(diagram: GreechieDiagram, style: str) -> str:
    """Render a diagram as DOT text.

    'dot' draws atoms as nodes with one clique per context; 'greechie'
    draws each context as a colored curve through its atoms; 'tkadlec'
    draws whole contexts as nodes joined by edges labelled with their link
    observables (dimension-3 diagrams only).
    """
    if style not in ("dot", "greechie", "tkadlec"):
        raise ValueError(f"unknown render style {style!r}")
    title = _q(diagram.name or "diagram")
    lines = [f"graph {title} {{"]
    if style == "tkadlec":
        if diagram.dim != 3:
            raise ValueError("tkadlec style requires dimension-3 contexts")
        names = ["{" + ",".join(ctx) + "}" for ctx in diagram.contexts]
        for n in names:
            lines.append(f"  {_q(n)};")
        for i, j in itertools.combinations(range(len(names)), 2):
            for atom in diagram.contexts[i]:
                if atom in diagram.contexts[j]:
                    lines.append(
                        f"  {_q(names[i])} -- {_q(names[j])} "
                        f"[label={_q(atom)}];"
                    )
    else:
        for atom in diagram.atoms:
            lines.append(f"  {_q(atom)};")
        if style == "dot":
            lines += [f"  {_q(x)} -- {_q(y)};" for x, y in orthogonal_pairs(diagram)]
        else:
            for i, ctx in enumerate(diagram.contexts):
                color = _PALETTE[i % len(_PALETTE)]
                lines.append(f"  // context {i + 1}: {' '.join(ctx)}")
                for x, y in zip(ctx, ctx[1:]):
                    lines.append(
                        f"  {_q(x)} -- {_q(y)} "
                        f'[color={_q(color)}, label="{i + 1}"];'
                    )
    lines.append("}")
    return "\n".join(lines) + "\n"
