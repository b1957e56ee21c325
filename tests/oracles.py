"""Test oracles and generators for the two-valued-state, realization and
spin-state layers.

None of this has a caller in the product: the exhaustive enumeration
oracle, the frozenset backtracker that the bitmask enumeration replaced,
the random-diagram generator, the diagram families with closed-form
state counts, the saturation scan, an exact check of integer witnesses,
scipy's L-BFGS-B that the realization search replaced, spin states built
from label words, the per-axis ``tensordot`` contraction that the plain
matrix products of ``apply_local`` replaced, and the numpy context
operators that the pure-Python ``contexts`` module replaced.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from qlctx.logic import GreechieDiagram, make_diagram
from qlctx.states import SITE_LABELS, MultipartiteState

MAX_ORACLE_ATOMS = 28


def state_vector(diagram: GreechieDiagram, state) -> tuple[int, ...]:
    """The 0/1 assignment of a frozenset state, in atom order."""
    return tuple(1 if a in state else 0 for a in diagram.atoms)


def oracle_two_valued(diagram: GreechieDiagram, limit: int = MAX_ORACLE_ATOMS):
    """Exhaustive filter of all 2^|atoms| assignments by the
    exactly-one-per-context predicate.

    Independent of the backtracking enumeration.  Assignments are scanned in
    chunks with the context constraints applied progressively, so diagrams
    up to ``limit`` atoms stay fast.
    """
    n = len(diagram.atoms)
    if n > limit:
        raise ValueError(f"too many atoms for the exhaustive oracle ({n} > {limit})")
    index = {a: i for i, a in enumerate(diagram.atoms)}
    contexts = [tuple(index[a] for a in ctx) for ctx in diagram.contexts]
    chunk = 1 << min(n, 24)
    survivors = []
    for start in range(0, 1 << n, chunk):
        x = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint32)
        for ctx in contexts:
            bits = (x >> np.uint32(ctx[0])) & np.uint32(1)
            for i in ctx[1:]:
                bits = bits + ((x >> np.uint32(i)) & np.uint32(1))
            x = x[bits == 1]
            if x.size == 0:
                break
        survivors.extend(int(v) for v in x)
    states = [
        frozenset(a for a in diagram.atoms if (v >> index[a]) & 1)
        for v in survivors
    ]
    return sorted(states, key=lambda s: state_vector(diagram, s))


def reference_two_valued_states(diagram: GreechieDiagram):
    """The frozenset backtracker that the bitmask enumeration replaced.

    Backtracks over contexts in file order on a per-atom assignment list and
    sorts the distinct states by assignment vector.  It has no atom limit,
    so it checks diagrams too large for ``oracle_two_valued``.
    """
    index = {a: i for i, a in enumerate(diagram.atoms)}
    contexts = [tuple(index[a] for a in ctx) for ctx in diagram.contexts]
    assign: list[int | None] = [None] * len(diagram.atoms)
    found = []

    def backtrack(ci: int):
        if ci == len(contexts):
            found.append(
                frozenset(a for a, i in index.items() if assign[i] == 1)
            )
            return
        ctx = contexts[ci]
        ones = [i for i in ctx if assign[i] == 1]
        if len(ones) > 1:
            return
        candidates = ones if ones else [i for i in ctx if assign[i] is None]
        for chosen in candidates:
            touched = []
            ok = True
            for i in ctx:
                want = 1 if i == chosen else 0
                if assign[i] is None:
                    assign[i] = want
                    touched.append(i)
                elif assign[i] != want:
                    ok = False
                    break
            if ok:
                backtrack(ci + 1)
            for i in touched:
                assign[i] = None

    backtrack(0)
    del backtrack
    return sorted(set(found), key=lambda s: state_vector(diagram, s))


def random_diagram(rng: np.random.Generator, max_atoms: int = 18,
                   dim: int = 3) -> GreechieDiagram:
    """Random valid diagram with at most ``max_atoms`` atoms."""
    n_pool = int(rng.integers(dim + 1, max_atoms + 1))
    pool = [f"x{i}" for i in range(n_pool)]
    n_contexts = int(rng.integers(1, 8))
    contexts = []
    seen = set()
    for _ in range(n_contexts):
        picks = rng.choice(n_pool, size=dim, replace=False)
        ctx = tuple(pool[i] for i in picks)
        if frozenset(ctx) not in seen:
            seen.add(frozenset(ctx))
            contexts.append(ctx)
    return make_diagram(contexts)


def tripod_chain(n: int) -> GreechieDiagram:
    """n tripods in a row, consecutive ones sharing a leg: F(n + 3) states."""
    return make_diagram([(f"c{i}", f"m{i}", f"c{i + 1}") for i in range(n)])


def tripod_ring(n: int) -> GreechieDiagram:
    """n >= 3 tripods in a cycle: L(n) states (Lucas number)."""
    return make_diagram([(f"c{i}", f"m{i}", f"c{(i + 1) % n}")
                         for i in range(n)])


# Cabello, Estebaranz and Garcia-Alcaine (1996): 18 rays of R^4 that form
# 9 orthogonal bases, each ray lying in exactly two of them.
CEG_RAYS = (
    (0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0),
    (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0), (1, -1, 1, -1),
    (1, -1, -1, 1), (0, 0, 1, 1), (1, 1, 1, 1), (0, 1, 0, -1),
    (1, 0, 0, 1), (1, 0, 0, -1), (0, 1, -1, 0), (1, 1, -1, 1),
    (1, 1, 1, -1), (-1, 1, 1, 1),
)


def ceg18() -> GreechieDiagram:
    """The CEG-18 Kochen-Specker set: its 9 orthogonal bases, 0 states."""
    def orthogonal(i, j):
        return sum(x * y for x, y in zip(CEG_RAYS[i], CEG_RAYS[j])) == 0

    bases = [
        tuple(f"r{i}" for i in quad)
        for quad in itertools.combinations(range(len(CEG_RAYS)), 4)
        if all(orthogonal(i, j) for i, j in itertools.combinations(quad, 2))
    ]
    return make_diagram(bases, name="CEG-18")


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


def reference_apply_local(psi: MultipartiteState, unitaries) -> np.ndarray:
    """(U_1 ⊗ ... ⊗ U_n) psi as the unnormalized coefficient vector, one
    ``tensordot`` of each unitary with its own axis of the tensor."""
    t = psi.tensor_view()
    for site, u in enumerate(unitaries):
        u = np.asarray(u, dtype=complex)
        t = np.moveaxis(np.tensordot(u, t, axes=(1, site)), 0, site)
    return t.reshape(-1)


def reference_saturate_orthogonality(diagram: GreechieDiagram):
    """The saturation scan that the neighbour-set intersection replaced:
    every pair of atoms, in atom order, against every atom; orthogonal
    pairs first, then the other pairs."""
    from qlctx.saturation import SaturationOutcome, SaturationStep

    provenance: dict[frozenset, int] = {}
    neighbours: dict[str, set[str]] = {a: set() for a in diagram.atoms}
    for ci, ctx in enumerate(diagram.contexts):
        for x, y in itertools.combinations(ctx, 2):
            neighbours[x].add(y)
            neighbours[y].add(x)
            provenance.setdefault(frozenset((x, y)), ci)

    def cite(x, y):
        ci = provenance[frozenset((x, y))]
        return f"{x} ⊥ {y}  (context {ci + 1}: {' '.join(diagram.contexts[ci])})"

    for orthogonal in (True, False):
        for u, w in itertools.combinations(diagram.atoms, 2):
            if (w in neighbours[u]) != orthogonal:
                continue
            shared = [
                x for x in diagram.atoms
                if x not in (u, w) and x in neighbours[u] and x in neighbours[w]
            ]
            if len(shared) >= 2:
                x, y = shared[0], shared[1]
                reasons = (cite(u, w),) if orthogonal else ()
                reasons += (cite(x, u), cite(x, w), cite(y, u), cite(y, w))
                step = SaturationStep((x, y), (u, w), reasons, orthogonal)
                return SaturationOutcome("contradiction", (step,))
    return SaturationOutcome("no_contradiction")


def integer_witness_violations(diagram: GreechieDiagram, witness: dict,
                               margin: float) -> list:
    """Every pair of atoms that breaks the realization constraints in exact
    integer arithmetic: a context pair with a nonzero dot product, or any
    other pair with (u·v)^2 > (1 - margin)^2 |u|^2 |v|^2, the margin read as
    the exact value of the float."""
    bound = (1 - Fraction(margin)) ** 2
    together = {frozenset(p) for ctx in diagram.contexts
                for p in itertools.combinations(ctx, 2)}
    bad = []
    for x, y in itertools.combinations(diagram.atoms, 2):
        u, v = witness[x], witness[y]
        if len(u) != 3 or len(v) != 3 or not any(u) or not any(v):
            bad.append(("vector", (x, y)))
            continue
        dot = sum(a * b for a, b in zip(u, v))
        if frozenset((x, y)) in together:
            if dot != 0:
                bad.append(("orthogonality", (x, y)))
        elif Fraction(dot * dot) > bound * sum(a * a for a in u) * \
                sum(b * b for b in v):
            bad.append(("collinear", (x, y)))
    return bad


def scipy_minimize(fun, x0, args=()):
    """scipy's L-BFGS-B with the search's limits: the minimizer that the
    in-house L-BFGS replaced.  Same call and result fields as
    ``realizability.minimize``: one run per row of ``x0``, each evaluating
    the batched ``fun`` on its own point."""
    from scipy.optimize import minimize

    from qlctx import _numerical as lbfgs

    def one(x, *args):
        f, g = fun(x[None], *args)
        return f[0], g[0]

    # ftol is scipy's factr test, which keeps its absolute floor of 1
    ends = [minimize(one, x, args=args, jac=True, method="L-BFGS-B",
                     options={"maxiter": lbfgs.MAXITER, "maxfun": lbfgs.MAXFUN,
                              "ftol": 1e-18, "gtol": lbfgs.GTOL})
            for x in x0]
    return lbfgs.Minimum(np.array([e.x for e in ends]),
                         np.array([e.fun for e in ends]),
                         sum(e.nit for e in ends), sum(e.nfev for e in ends))


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def dyad(v) -> np.ndarray:
    """Rank-1 orthogonal projector v v†/‖v‖² onto the ray spanned by v."""
    v = as_complex(v).reshape(-1)
    n2 = float(np.vdot(v, v).real)
    if n2 == 0.0 or not np.isfinite(n2):
        raise ValueError("dyad of a zero vector")
    return np.outer(v, v.conj()) / n2


def reference_context_operator(basis, eigenvalues) -> np.ndarray:
    """sum_i e_i |b_i><b_i| over the rows b_i of ``basis``, in numpy."""
    return sum(e * dyad(v) for e, v in zip(eigenvalues, as_complex(basis)))


def reference_link_observables(basis1, basis2, tol: float = 1e-9):
    """(i, j, projector) for every pair of rows with overlap magnitude at
    least 1 - tol, in numpy."""
    b1, b2 = as_complex(basis1), as_complex(basis2)
    return [(i, j, dyad(u)) for i, u in enumerate(b1) for j, w in enumerate(b2)
            if abs(complex(np.vdot(u, w))) >= 1.0 - tol]


def reference_split_selfadjoint(a) -> tuple[np.ndarray, np.ndarray]:
    """A/2 + A†/2 and -i(A/2 - A†/2), in numpy."""
    half = as_complex(a) / 2.0
    return half + half.conj().T, (half - half.conj().T) / 1j
