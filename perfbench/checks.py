"""Checkers that judge qlctx's outputs without using qlctx.

Each checker recomputes what it needs from the benchmark's own description
of an input (``inputs.Diagram``, ``inputs.SpinState``) with its own code:
closed-form state counts, exact Fraction arithmetic, and NumPy linear
algebra written here.  A checker returns nothing and raises ``Mismatch``
when the output is wrong.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import comb

import numpy as np

from inputs import Diagram, parity_certificate

# A realization succeeds in qlctx when its summed squared overlaps stay
# below 1e-12, so each context overlap is at most 1e-6.
ORTHO_TOL = 1e-6
NORM_TOL = 1e-9
MARGIN = 0.05  # qlctx's default distinctness margin
AMP_TOL = 1e-9  # qlctx's default amplitude cut-off for uniqueness
FORM_TOL = 1e-9


class Mismatch(AssertionError):
    """An output that disagrees with the benchmark's own computation."""


class Failed(Exception):
    """An operation that ended without doing its job (counted as failed)."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# --- two-valued states and their scarcity class ------------------------------


def check_states(diagram: Diagram, states) -> list[frozenset]:
    """Every listed state is valid, none repeats, and the count equals the
    closed form (F(n+3), L(n), or 0 with a parity certificate).  Returns the
    states as frozensets for the checkers below."""
    states = [frozenset(s) for s in states]
    atoms = set(diagram.atoms)
    for s in states:
        require(s <= atoms, f"{diagram.name}: state names unknown atoms")
        for ctx in diagram.contexts:
            require(sum(a in s for a in ctx) == 1,
                    f"{diagram.name}: state {sorted(s)} breaks context {ctx}")
    require(len(set(states)) == len(states), f"{diagram.name}: repeated state")
    if diagram.family == "ks":
        require(parity_certificate(diagram.contexts),
                f"{diagram.name}: no parity certificate for a state-free set")
    require(len(states) == diagram.expected_states,
            f"{diagram.name}: {len(states)} states, expected "
            f"{diagram.expected_states}")
    return states


def own_states(d):
    """All two-valued states by the benchmark's own search (small diagrams
    only), validated against the closed-form count."""
    found = []

    def extend(k, true, false):
        if k == len(d.contexts):
            found.append(frozenset(true))
            return
        ctx = d.contexts[k]
        on = [a for a in ctx if a in true]
        if len(on) > 1:
            return
        for pick in on or [a for a in ctx if a not in false]:
            rest = {a for a in ctx if a != pick}
            if not rest & true:
                extend(k + 1, true | {pick}, false | rest)

    extend(0, frozenset(), frozenset())
    return check_states(d, found)


def scarcity_class(diagram: Diagram, states: list[frozenset]):
    """(kind, never-true atoms, nonseparating pairs) from a complete, valid
    state list, by bitmasks over the states."""
    if not states:
        return "nonexistent", (), ()
    mask = {a: 0 for a in diagram.atoms}
    for k, s in enumerate(states):
        for a in s:
            mask[a] |= 1 << k
    dead = tuple(a for a in diagram.atoms if mask[a] == 0)
    if dead:
        return "nonunital", dead, ()
    pairs = tuple((x, y) for x, y in itertools.combinations(diagram.atoms, 2)
                  if mask[x] == mask[y])
    if pairs:
        return "unital_nonseparating", (), pairs
    return "separating", (), ()


def check_classification(diagram: Diagram, states, kind, witness_atoms=(),
                         witness_pairs=()) -> None:
    want_kind, want_atoms, want_pairs = scarcity_class(diagram, states)
    require(kind == want_kind,
            f"{diagram.name}: class {kind}, expected {want_kind}")
    require(set(witness_atoms) == set(want_atoms),
            f"{diagram.name}: wrong never-true atoms")
    got_pairs = {frozenset(p) for p in witness_pairs}
    require(got_pairs == {frozenset(p) for p in want_pairs},
            f"{diagram.name}: wrong nonseparating pairs")


# --- classical polytope membership ---------------------------------------------


def mixture_point(diagram: Diagram, states, rng, count: int = 3) -> dict:
    """A rational mixture of ``count`` seeded states: inside the polytope."""
    picks = rng.choice(len(states), size=min(count, len(states)), replace=False)
    raw = [int(w) for w in rng.integers(1, 10, size=len(picks))]
    weights = [Fraction(w, sum(raw)) for w in raw]
    p = {a: Fraction(0) for a in diagram.atoms}
    for w, k in zip(weights, picks):
        for a in states[k]:
            p[a] += w
    return p


def shifted_point(diagram: Diagram, p: dict) -> dict:
    """``p`` with one atom moved by 1/7, so its first context sums to 1 +- 1/7
    and no mixture of two-valued states can reach it."""
    q = dict(p)
    atom = diagram.contexts[0][0]
    step = Fraction(1, 7)
    q[atom] = q[atom] + step if q[atom] + step <= 1 else q[atom] - step
    return q


def check_hull_inside(diagram: Diagram, states, p: dict, hull_states,
                      weights) -> None:
    """Exact weights: nonnegative, summing to 1, reproducing p exactly."""
    require(weights is not None, f"{diagram.name}: inside point judged outside")
    require(len(hull_states) == len(weights), f"{diagram.name}: weight count")
    require({frozenset(s) for s in hull_states} <= set(states),
            f"{diagram.name}: weights on something not a two-valued state")
    weights = [Fraction(w) for w in weights]
    require(all(w >= 0 for w in weights), f"{diagram.name}: negative weight")
    require(sum(weights) == 1, f"{diagram.name}: weights do not sum to 1")
    for a in diagram.atoms:
        got = sum((w for s, w in zip(hull_states, weights) if a in s),
                  Fraction(0))
        require(got == p.get(a, 0), f"{diagram.name}: weights miss p[{a}]")


def check_hull_outside(diagram: Diagram, states, p: dict, functional, offset,
                       margin) -> None:
    """Exact Farkas functional f and offset c: f(s) <= c on every state,
    and f(p) = c + margin with margin > 0."""
    require(functional is not None, f"{diagram.name}: outside point judged inside")
    f = {a: Fraction(v) for a, v in functional.items()}
    c, margin = Fraction(offset), Fraction(margin)
    require(margin > 0, f"{diagram.name}: nonpositive margin")
    for s in states:
        require(sum((f.get(a, 0) for a in s), Fraction(0)) <= c,
                f"{diagram.name}: a state violates the functional")
    value = sum((f.get(a, 0) * p.get(a, 0) for a in diagram.atoms), Fraction(0))
    require(value == c + margin, f"{diagram.name}: f(p) != c + margin")


# --- realizations and saturation ---------------------------------------------


def check_realization(diagram: Diagram, vectors: dict, dim: int,
                      margin: float = MARGIN) -> None:
    """Unit vectors in C^dim, orthogonal within contexts, and no two distinct
    atoms overlapping above 1 - margin."""
    require(set(vectors) == set(diagram.atoms), f"{diagram.name}: atoms missing")
    vecs = {a: np.asarray(v, dtype=complex).reshape(-1) for a, v in vectors.items()}
    for a, v in vecs.items():
        require(v.size == dim, f"{diagram.name}: {a} has dimension {v.size}")
        require(abs(np.linalg.norm(v) - 1.0) <= NORM_TOL,
                f"{diagram.name}: {a} is not a unit vector")
    names = list(diagram.atoms)
    mat = np.array([vecs[a] for a in names])
    overlap = np.abs(mat.conj() @ mat.T)
    index = {a: i for i, a in enumerate(names)}
    context_pairs = set()
    for ctx in diagram.contexts:
        for x, y in itertools.combinations(ctx, 2):
            context_pairs.add(frozenset((x, y)))
            require(overlap[index[x], index[y]] <= ORTHO_TOL,
                    f"{diagram.name}: {x}, {y} not orthogonal")
    for i, j in itertools.combinations(range(len(names)), 2):
        if frozenset((names[i], names[j])) not in context_pairs:
            require(overlap[i, j] <= 1.0 - margin + ORTHO_TOL,
                    f"{diagram.name}: {names[i]}, {names[j]} nearly collinear")


def check_refutation(diagram: Diagram, collinear, orthogonal_pair) -> None:
    """A dimension-3 refutation: distinct atoms x, y both orthogonal (by
    shared contexts) to an orthogonal pair u, w are forced onto one ray."""
    together = set()
    for ctx in diagram.contexts:
        for a, b in itertools.combinations(ctx, 2):
            together.add(frozenset((a, b)))
    (x, y), (u, w) = collinear, orthogonal_pair
    require(x != y and len({x, y, u, w}) == 4, f"{diagram.name}: bad refutation")
    for a, b in ((u, w), (x, u), (x, w), (y, u), (y, w)):
        require(frozenset((a, b)) in together,
                f"{diagram.name}: refutation cites {a} ⊥ {b}, not in a context")


# --- spin states -------------------------------------------------------------


def spin_operators(d: int):
    """(S_x, S_y, S_z, S_+) for spin (d-1)/2, levels by descending m."""
    s = (d - 1) / 2.0
    m = s - np.arange(d)
    sp = np.zeros((d, d), dtype=complex)
    for k in range(1, d):  # S+ |m_k> = sqrt(s(s+1) - m_k(m_k+1)) |m_k + 1>
        sp[k - 1, k] = np.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    sm = sp.conj().T
    return (sp + sm) / 2, (sp - sm) / 2j, np.diag(m).astype(complex), sp


def rotation(d: int, axis, angle: float) -> np.ndarray:
    """exp(-i angle n.S) in closed form for spin 1/2 and spin 1."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    sx, sy, sz, _ = spin_operators(d)
    ns = n[0] * sx + n[1] * sy + n[2] * sz
    eye = np.eye(d, dtype=complex)
    if d == 2:  # n.S = n.sigma / 2
        return np.cos(angle / 2) * eye - 2j * np.sin(angle / 2) * ns
    return eye - 1j * np.sin(angle) * ns + (np.cos(angle) - 1) * (ns @ ns)


def apply_each_site(coeffs: np.ndarray, d: int, n: int, op: np.ndarray,
                    total: bool) -> np.ndarray:
    """op on every site: the sum over sites (total=True) or the product."""
    t = coeffs.reshape((d,) * n)
    out = np.zeros_like(t) if total else t
    for k in range(n):
        src = t if total else out
        moved = np.moveaxis(np.tensordot(op, src, axes=([1], [k])), 0, k)
        out = out + moved if total else moved
    return out.reshape(-1)


def riordan(n: int) -> int:
    r = [1, 0]
    for k in range(2, n + 1):
        r.append((k - 1) * (2 * r[-1] + 3 * r[-2]) // (k + 1))
    return r[n]


def singlet_count(d: int, n: int) -> int:
    if d == 3:
        return riordan(n)
    return comb(n, n // 2) - comb(n, n // 2 + 1) if n % 2 == 0 else 0


def check_singlets(d: int, n: int, vectors) -> None:
    """Count by closed form; orthonormal; annihilated by total S_z and S_+."""
    require(len(vectors) == singlet_count(d, n),
            f"singlet({d},{n}): {len(vectors)} vectors, expected "
            f"{singlet_count(d, n)}")
    mat = np.array([np.asarray(v, dtype=complex).reshape(-1) for v in vectors])
    require(mat.shape[1] == d**n, f"singlet({d},{n}): wrong vector length")
    gram = mat.conj() @ mat.T
    require(np.max(np.abs(gram - np.eye(len(vectors)))) <= 1e-9,
            f"singlet({d},{n}): basis not orthonormal")
    _, _, sz, sp = spin_operators(d)
    for v in mat:
        for op in (sz, sp):
            require(np.linalg.norm(apply_each_site(v, d, n, op, True)) <= 1e-8,
                    f"singlet({d},{n}): vector has nonzero total spin")


def uniqueness_verdict(coeffs: np.ndarray, d: int, n: int, tol: float):
    """(unique, term count): every site's nonzero outcome must leave each
    other site with exactly one possible outcome."""
    live = np.abs(coeffs.reshape((d,) * n)) > tol
    unique = True
    for s in range(n):
        for level in range(d):
            slab = np.take(live, level, axis=s)
            if not slab.any():
                continue
            for axis in range(n - 1):
                rest = tuple(a for a in range(n - 1) if a != axis)
                if np.count_nonzero(slab.any(axis=rest)) != 1:
                    unique = False
    return unique, int(np.count_nonzero(live))


def check_rotated_uniqueness(coeffs: np.ndarray, d: int, n: int,
                             rotations) -> None:
    """``rotations`` holds (axis, angle, unique, term_count) per trial, the
    identity first.  Each verdict is recomputed on the benchmark's own
    rotation of the state; an amplitude within a relative 1e-6 of the
    cut-off leaves the verdict open."""
    require(rotations[0][1] == 0.0, "uniqueness: first trial is not the identity")
    for axis, angle, unique, terms in rotations:
        rotated = apply_each_site(coeffs, d, n, rotation(d, axis, angle), False)
        low = uniqueness_verdict(rotated, d, n, AMP_TOL * (1 - 1e-6))
        high = uniqueness_verdict(rotated, d, n, AMP_TOL * (1 + 1e-6))
        require((unique, terms) in (low, high),
                f"uniqueness: trial at angle {angle!r} gave {unique}/{terms}, "
                f"expected {low}")


def check_form_invariant(verdict: bool, worst: float) -> None:
    """A total-spin-zero state is unchanged by any identical rotation."""
    require(verdict and worst >= 1.0 - FORM_TOL,
            f"form invariance: verdict {verdict}, worst overlap {worst!r}")


# --- command-line runs ---------------------------------------------------------


def check_exit(name: str, code: int, expected: int) -> None:
    require(code == expected, f"{name}: exit code {code}, expected {expected}")


def vector_from_terms(terms, d: int, n: int) -> np.ndarray:
    """A state vector from qlctx's JSON term list."""
    v = np.zeros(d**n, dtype=complex)
    for t in terms:
        v[np.ravel_multi_index(tuple(t["indices"]), (d,) * n)] = complex(t["re"], t["im"])
    return v


def parse_json(name: str, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise Mismatch(f"{name}: output is not JSON") from None
