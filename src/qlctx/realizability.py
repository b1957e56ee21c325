"""Hilbert-space realizability of Greechie diagrams.

A realization assigns a unit vector to every atom so that atoms sharing a
context are orthogonal and distinct atoms stay non-collinear (their overlap
magnitude must not exceed 1 - DISTINCTNESS_MARGIN; coincident rays would
merge two atoms the diagram declares distinct).

Two complementary deciders are provided:

* ``saturate_orthogonality`` - a combinatorial refutation rule specific to
  dimension 3: an atom orthogonal to two orthogonal atoms u, w is pinned to
  the unique ray orthogonal to both, so two distinct atoms orthogonal to the
  same orthogonal pair are forced collinear.  A derived collinearity between
  distinct atoms is a proof of non-realizability.
* ``search_realization`` - a numerical witness search minimizing an
  orthogonality-plus-collinearity penalty over a product of unit spheres
  from seeded random restarts: L-BFGS descent (``minimize``, numpy only)
  followed by a block-coordinate polish that moves one colour class of
  atoms per stacked eigensolve.  Success is a proof; failure is only
  evidence and is reported as "no witness found" with the best residual.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _text
from .logic import GreechieDiagram

DISTINCTNESS_MARGIN = 0.05
SUCCESS_PENALTY = 1e-12


# --- saturation -------------------------------------------------------------


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
    provenance: dict[frozenset, int] = {}
    neighbours: list[set[int]] = [set() for _ in atoms]
    for ci, ctx in enumerate(diagram.contexts):
        for x, y in itertools.combinations(ctx, 2):
            neighbours[index[x]].add(index[y])
            neighbours[index[y]].add(index[x])
            provenance.setdefault(frozenset((x, y)), ci)

    def cite(x, y):
        ci = provenance[frozenset((x, y))]
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


# --- numerical witness search ------------------------------------------------


@dataclass(frozen=True, eq=False)
class Realization:
    """Unit vectors per atom; ``space`` records whether imag parts are used."""

    vectors: dict[str, np.ndarray]
    space: str = "real"


@dataclass(frozen=True, eq=False)
class SearchResult:
    success: bool
    realization: Realization | None
    penalty: float
    restart_penalties: tuple[float, ...]
    best_restart: int


def _apply_j(v: np.ndarray) -> np.ndarray:
    # multiplication by i in the stacked [re | im] representation
    d = v.shape[-1] // 2
    return np.concatenate([v[..., d:], -v[..., :d]], axis=-1)


def _penalty_terms(vmat, orth_mask, offdiag, t2, complex_space):
    c = vmat @ vmat.T
    if complex_space:
        s = vmat @ _apply_j(vmat).T
    else:
        s = np.zeros_like(c)
    m = c * c + s * s
    orth_pen = float(m[orth_mask].sum()) / 2.0
    excess = m - t2
    active = (excess > 0.0) & offdiag
    hinge_pen = float(excess[active].sum()) / 2.0
    return c, s, m, active, orth_pen + hinge_pen


def _value_and_grad(x, n, width, orth_mask, offdiag, t2, complex_space):
    xm = x.reshape(n, width)
    norms = np.linalg.norm(xm, axis=1, keepdims=True)
    vm = xm / norms
    c, s, _, active, penalty = _penalty_terms(
        vm, orth_mask, offdiag, t2, complex_space
    )
    omega = orth_mask.astype(float) + active.astype(float)
    gv = 2.0 * (omega * c) @ vm
    if complex_space:
        gv += 2.0 * (omega * s) @ _apply_j(vm)
    radial = np.sum(vm * gv, axis=1, keepdims=True)
    gx = (gv - radial * vm) / norms
    return penalty, gx.ravel()


def _penalty_of(vm, orth_mask, offdiag, t2, complex_space) -> float:
    return _penalty_terms(vm, orth_mask, offdiag, t2, complex_space)[4]


def _colour_classes(orth_mask) -> list[np.ndarray]:
    """Greedy colouring of the orthogonality graph in atom order.  Atoms of
    one class share no context, so the polish can move them all at once;
    atoms with no neighbour are left out."""
    colour: dict[int, int] = {}
    classes: list[list[int]] = []
    for a, row in enumerate(orth_mask):
        if not row.any():
            continue
        used = {colour[b] for b in np.flatnonzero(row) if b in colour}
        c = next(k for k in itertools.count() if k not in used)
        colour[a] = c
        if c == len(classes):
            classes.append([])
        classes[c].append(a)
    return [np.array(atoms) for atoms in classes]


def _polish(vm, classes, orth_mask, offdiag, t2, complex_space, sweeps=60):
    """Block-coordinate descent: each atom moves to the smallest eigenvector
    of its neighbours' projector sum, one colour class per stacked ``eigh``.
    Only sweeps that lower the full penalty (hinges included) are kept."""
    weights = [orth_mask[atoms].astype(float) for atoms in classes]
    best = vm.copy()
    best_pen = _penalty_of(vm, orth_mask, offdiag, t2, complex_space)
    cur = vm.copy()
    for _ in range(sweeps):
        for atoms, weight in zip(classes, weights):
            mats = np.einsum("ab,bi,bj->aij", weight, cur, cur)
            if complex_space:
                jcur = _apply_j(cur)
                mats += np.einsum("ab,bi,bj->aij", weight, jcur, jcur)
            v = np.linalg.eigh(mats)[1][:, :, 0]
            lead = v[np.arange(len(v)), np.argmax(np.abs(v), axis=1)]
            cur[atoms] = np.where(lead[:, None] < 0, -v, v)
        pen = _penalty_of(cur, orth_mask, offdiag, t2, complex_space)
        if pen >= best_pen:
            break
        best_pen = pen
        best = cur.copy()
        if best_pen == 0.0:
            break
    return best, best_pen


# L-BFGS: the memory and line-search constants are the defaults of
# L-BFGS-B (Byrd, Lu, Nocedal and Zhu 1995) and of its Moré-Thuente line
# search; the iteration, evaluation and stopping limits are the ones this
# search has always run with.
MEMORY = 10
MAXITER = 2000
MAXFUN = 5000
FTOL = 1e-18
GTOL = 1e-14
WOLFE_C1 = 1e-3
WOLFE_C2 = 0.9
LINE_SEARCH_EVALS = 20
NARROW_BRACKET = 0.1


@dataclass(frozen=True, eq=False)
class Minimum:
    """Where ``minimize`` stopped: the point, its value, and the iterations
    and function evaluations it took."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int


def _cubic_step(a, fa, ga, b, fb, gb):
    """Minimizer of the cubic matching values and slopes at a and b, or
    None when that cubic has no minimizer."""
    d1 = ga + gb - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - ga * gb
    if disc < 0.0:
        return None
    d2 = math.copysign(math.sqrt(disc), b - a)
    denom = gb - ga + 2.0 * d2
    if denom == 0.0:
        return None
    return b - (b - a) * (gb + d2 - d1) / denom


def _line_search(fun, args, x, f0, g0, d, step):
    """Strong Wolfe search along ``d`` from trial step ``step``.

    Returns (x, f, g, evaluations), with x None when no step was accepted
    within LINE_SEARCH_EVALS evaluations.  The bracket runs between the
    best step with sufficient decrease so far (0 until there is one) and a
    step known to lie beyond a minimizer; a non-finite value counts as a
    step that is too long.  Trials come from cubic interpolation, safeguarded
    by bisection, and when the bracket is narrower than NARROW_BRACKET of
    its upper end the best step is accepted, as Moré and Thuente's
    ``xtol`` exit does: on the hinge's kinks the curvature condition may
    never hold.
    """
    dg0 = float(g0 @ d)
    bt, bf, bdg, best = 0.0, f0, dg0, None
    far = None  # (step, value, slope); value None when not finite
    t = step
    for evals in range(1, LINE_SEARCH_EVALS + 1):
        xt = x + t * d
        ft, gt = fun(xt, *args)
        prev = (bt, bf, bdg)
        if not (math.isfinite(ft) and np.isfinite(gt).all()):
            far = (t, None, None)
        else:
            dgt = float(gt @ d)
            if ft > f0 + WOLFE_C1 * t * dg0 or ft >= bf:
                far = (t, ft, dgt)
            else:
                if abs(dgt) <= -WOLFE_C2 * dg0:
                    return xt, ft, gt, evals
                if dgt * (bt - t) < 0.0:
                    # the slope turned: a minimizer lies back toward bt
                    far = prev
                bt, bf, bdg, best = t, ft, dgt, (xt, ft, gt)
        if far is None:
            # still descending: extrapolate by between 1.1 and 4 times the
            # last advance
            lo, hi = t + 1.1 * (t - prev[0]), t + 4.0 * (t - prev[0])
            c = _cubic_step(*prev, t, bf, bdg)
            t = hi if c is None else min(max(c, lo), hi)
            continue
        lo, hi = sorted((bt, far[0]))
        if best is not None and hi - lo <= NARROW_BRACKET * hi:
            return (*best, evals)
        c = None if far[1] is None else _cubic_step(bt, bf, bdg, *far)
        guard = 0.1 * (hi - lo)
        inside = c is not None and lo + guard <= c <= hi - guard
        t = c if inside else 0.5 * (lo + hi)
    return None, f0, g0, LINE_SEARCH_EVALS


def _direction(g, pairs):
    """-H g by the L-BFGS two-loop recursion, with H0 = s'y / y'y from the
    newest pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, rho = pairs[-1]
        q *= 1.0 / (rho * float(y @ y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return -q


def minimize(fun, x0, args=()) -> Minimum:
    """Unconstrained L-BFGS minimization of ``fun(x, *args) -> (f, grad)``.

    Limited-memory BFGS (Liu and Nocedal 1989) with MEMORY pairs and a
    strong Wolfe line search (see ``_line_search``).  The first trial step
    has length 1; later ones are the full quasi-Newton step.  When a line
    search accepts no step, the memory is dropped and steepest descent is
    tried once more; if that fails too, the search stops.  It also stops
    after MAXITER iterations, once MAXFUN evaluations are spent, when an
    iteration lowers f by at most FTOL * max(|f|, |f_new|, 1), or when
    max |grad| <= GTOL.
    """
    x = np.array(x0, dtype=float)
    pairs: collections.deque = collections.deque(maxlen=MEMORY)
    nit = 0
    # a zero row of the search's x divides by its norm; the NaN that gives
    # is handled by the line search as a step too long
    with np.errstate(invalid="ignore", divide="ignore"):
        f, g = fun(x, *args)
        nfev = 1
        while (nit < MAXITER and nfev < MAXFUN and math.isfinite(f)
               and np.max(np.abs(g)) > GTOL):
            d = _direction(g, pairs)
            if not float(g @ d) < 0.0:
                pairs.clear()
                d = -g
            step = 1.0 / float(np.linalg.norm(d)) if nit == 0 else 1.0
            x_new, f_new, g_new, evals = _line_search(fun, args, x, f, g, d, step)
            nfev += evals
            if x_new is None:
                if not pairs:
                    break
                pairs.clear()
                continue
            nit += 1
            s, y = x_new - x, g_new - g
            sy = float(s @ y)
            if sy > np.finfo(float).eps * float(y @ y):
                pairs.append((s, y, 1.0 / sy))
            done = f - f_new <= FTOL * max(abs(f), abs(f_new), 1.0)
            x, f, g = x_new, f_new, g_new
            if done:
                break
    return Minimum(x, float(f), nit, nfev)


def search_realization(
    diagram: GreechieDiagram,
    dim: int,
    seed: int = 0,
    restarts: int = 20,
    complex_space: bool = False,
    margin: float = DISTINCTNESS_MARGIN,
) -> SearchResult:
    """Search for a realization of ``diagram`` by unit vectors in ``dim``
    dimensions.

    Minimizes  sum over context pairs of |<u,v>|^2  plus, over all distinct
    atom pairs, max(0, |<u,v>|^2 - (1-margin)^2), by L-BFGS descent from
    ``restarts`` seeded random starts.  Success means final penalty below
    SUCCESS_PENALTY; ties between restarts break toward the lowest index,
    so the result is a deterministic function of (seed, restarts).
    """
    if dim < 2:
        raise ValueError("realization dimension must be >= 2")
    if restarts < 1:
        raise ValueError("need at least one restart")
    atoms = diagram.atoms
    n = len(atoms)
    index = {a: i for i, a in enumerate(atoms)}
    orth_mask = np.zeros((n, n), dtype=bool)
    for ctx in diagram.contexts:
        for x, y in itertools.combinations(ctx, 2):
            orth_mask[index[x], index[y]] = True
            orth_mask[index[y], index[x]] = True
    offdiag = ~np.eye(n, dtype=bool)
    classes = _colour_classes(orth_mask)
    t2 = (1.0 - margin) ** 2
    width = 2 * dim if complex_space else dim
    args = (n, width, orth_mask, offdiag, t2, complex_space)

    best_pen = np.inf
    best_vm = None
    best_restart = 0
    per_restart = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        x0 = rng.standard_normal(n * width)
        res = minimize(_value_and_grad, x0, args=args)
        xm = res.x.reshape(n, width)
        vm = xm / np.linalg.norm(xm, axis=1, keepdims=True)
        vm, pen = _polish(vm, classes, orth_mask, offdiag, t2, complex_space)
        per_restart.append(pen)
        # all restarts always run so the report is reproducible; ties break
        # toward the lowest restart index
        if pen < best_pen:
            best_pen = pen
            best_vm = vm
            best_restart = r

    success = best_pen < SUCCESS_PENALTY
    realization = None
    if success:
        vectors = {}
        for a, i in index.items():
            row = best_vm[i]
            vec = (row[:dim] + 1j * row[dim:]) if complex_space else row + 0j
            vectors[a] = vec
        realization = Realization(vectors, "complex" if complex_space else "real")
    return SearchResult(
        success, realization, float(best_pen), tuple(per_restart), best_restart
    )


# --- verification and Born probabilities -------------------------------------


def _finite_vector(v, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if not np.isfinite(v).all():
        raise ValueError(f"{what} is not finite")
    return v


def verify_realization(
    diagram: GreechieDiagram,
    realization: Realization,
    tol: float = 1e-9,
    margin: float = DISTINCTNESS_MARGIN,
):
    """Check all realization constraints; returns (ok, violations).

    Violations are (kind, atoms, magnitude) tuples with kind one of
    'norm', 'orthogonality', 'collinear'.  A missing atom vector, a
    non-finite vector or a dimension mismatch raises instead of being
    reported.
    """
    vecs = {}
    dims = set()
    for atom in diagram.atoms:
        if atom not in realization.vectors:
            raise ValueError(f"realization is missing a vector for atom {atom!r}")
        v = _finite_vector(realization.vectors[atom], f"vector for atom {atom!r}")
        vecs[atom] = v
        dims.add(v.size)
    if len(dims) != 1:
        raise ValueError(f"vector dimensions differ: {sorted(dims)}")

    violations = []
    for atom, v in vecs.items():
        defect = abs(float(np.linalg.norm(v)) - 1.0)
        if defect > tol:
            violations.append(("norm", (atom,), defect))
    checked = set()
    for ctx in diagram.contexts:
        for x, y in itertools.combinations(ctx, 2):
            if frozenset((x, y)) in checked:
                continue
            checked.add(frozenset((x, y)))
            ov = abs(complex(np.vdot(vecs[x], vecs[y])))
            if ov > tol:
                violations.append(("orthogonality", (x, y), float(ov)))
    for x, y in itertools.combinations(diagram.atoms, 2):
        if frozenset((x, y)) in checked:
            continue
        ov = abs(complex(np.vdot(vecs[x], vecs[y])))
        if ov > 1.0 - margin + tol:
            violations.append(("collinear", (x, y), float(ov)))
    return not violations, violations


def born_probabilities(realization: Realization, psi) -> dict[str, float]:
    """P(atom) = |<v_atom, psi>|^2 for a unit state psi."""
    psi = _finite_vector(psi, "state vector")
    if abs(float(np.linalg.norm(psi)) - 1.0) > 1e-9:
        raise ValueError("state vector must be normalized")
    out = {}
    for atom, v in realization.vectors.items():
        v = _finite_vector(v, f"vector for atom {atom!r}")
        if v.size != psi.size:
            raise ValueError(
                f"dimension mismatch: atom {atom!r} has dimension {v.size}, "
                f"state has {psi.size}"
            )
        out[atom] = float(abs(np.vdot(v, psi)) ** 2)
    return out


# --- serialization ------------------------------------------------------------


def save_realization(realization: Realization) -> str:
    """One line per atom: ``<atom> re1 im1 re2 im2 ...``."""
    lines = []
    for atom, v in realization.vectors.items():
        v = np.asarray(v, dtype=complex).reshape(-1)
        parts = " ".join(f"{complex(z).real!r} {complex(z).imag!r}" for z in v)
        lines.append(f"{atom} {parts}")
    return "\n".join(lines) + "\n"


def load_realization(text: str) -> Realization:
    vectors = {}
    any_imag = False
    for lineno, tokens in _text.lines(text):
        atom, rest = tokens[0], tokens[1:]
        if len(rest) < 2 or len(rest) % 2:
            raise ValueError(f"line {lineno}: expected re/im pairs after atom")
        try:
            vals = [_text.finite(t) for t in rest]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        re = np.array(vals[0::2])
        im = np.array(vals[1::2])
        any_imag = any_imag or bool(np.any(im != 0.0))
        vectors[atom] = re + 1j * im
    if not vectors:
        raise ValueError("empty realization file")
    return Realization(vectors, "complex" if any_imag else "real")
