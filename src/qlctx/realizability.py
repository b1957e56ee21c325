"""Hilbert-space realizability of Greechie diagrams.

A realization assigns a unit vector to every atom so that atoms sharing a
context are orthogonal and distinct atoms stay non-collinear (their overlap
magnitude must not exceed 1 - DISTINCTNESS_MARGIN; coincident rays would
merge two atoms the diagram declares distinct).

``search_realization`` decides in two stages:

* a proof stage of two exact rules.  A context of k atoms needs k mutually
  orthogonal vectors, so a dimension below the diagram's is refuted
  (``OversizedContext``).  In dimension 3, ``saturate_orthogonality`` (the
  pure-Python rule of ``qlctx.saturation``, looked up in this module's
  globals) pins an atom orthogonal to an orthogonal pair to the one ray
  orthogonal to both, so two distinct atoms orthogonal to the same pair
  are forced collinear (``SaturationOutcome``).  Both rules hold in C^d as
  in R^d.  A refutation is returned at once, as the result's
  ``refutation``, and no restart runs.
* a numerical stage (``_numerical_search``) for every diagram the rules
  leave open: it minimizes an orthogonality-plus-collinearity penalty over
  a product of unit spheres from seeded random restarts by L-BFGS descent
  (``minimize``, numpy only).  All restarts of a block advance together,
  one stacked penalty evaluation per step, with each restart's result
  independent of the batch it runs in.  Success is a proof, and only a
  witness that ``verify_realization`` accepts counts; failure is only
  evidence and is reported as "no witness found" with the best residual.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _text
from .logic import GreechieDiagram, orthogonal_pairs
from .saturation import SaturationOutcome, saturate_orthogonality

DISTINCTNESS_MARGIN = 0.05
SUCCESS_PENALTY = 1e-12
# the most float cells one block of search restarts may hold: a restart
# counts n x n cells for its rows of the stacked overlap arrays or, when
# that is more, n x 2·MEMORY·w for its L-BFGS pairs.  One stacked array
# stays within 512 KB, and a 150-tripod chain (301 atoms) runs one restart
# per block
BATCH_CELLS = 1 << 16


# --- realization search ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Realization:
    """Unit vectors per atom; ``space`` records whether imag parts are used."""

    vectors: dict[str, np.ndarray]
    space: str = "real"


@dataclass(frozen=True)
class OversizedContext:
    """Proof that no realization exists in ``dim`` dimensions: context
    ``number`` (counted from 1) has more atoms than ``dim`` mutually
    orthogonal vectors can fill."""

    number: int
    atoms: tuple[str, ...]
    dim: int

    def render(self) -> str:
        k = len(self.atoms)
        return (f"context {self.number} ({' '.join(self.atoms)}) has {k} atoms, "
                f"which need {k} mutually orthogonal vectors\n"
                f"refuted: dimension {self.dim} holds at most {self.dim} "
                "mutually orthogonal vectors")


@dataclass(frozen=True, eq=False)
class SearchResult:
    """A search's verdict.  A refuted diagram has ``refutation`` set, a
    penalty of inf, no restart penalties and no best restart."""

    success: bool
    realization: Realization | None
    penalty: float
    restart_penalties: tuple[float, ...]
    best_restart: int | None
    refutation: OversizedContext | SaturationOutcome | None = None


def _apply_j(v: np.ndarray) -> np.ndarray:
    # multiplication by i in the stacked [re | im] representation
    d = v.shape[-1] // 2
    return np.concatenate([v[..., d:], -v[..., :d]], axis=-1)


def _penalty_parts(vm, orth_mask, offdiag, t2, complex_space):
    """Overlap parts and penalty of stacked unit vectors ``vm`` (R, n, w).

    Returns c = Re<u, v>, s = Im<u, v> (None in real space), the active
    hinge mask, and each row's penalty.  A row's terms are added by
    ``math.fsum``, which rounds exactly, because a restart's result must
    not depend on which other restarts share its batch: numpy's
    ``m[:, mask].sum(axis=1)`` runs its inner loop down the batch axis
    and rounds differently for different R.
    """
    c = vm @ vm.transpose(0, 2, 1)
    m = c * c
    s = None
    if complex_space:
        s = vm @ _apply_j(vm).transpose(0, 2, 1)
        m += s * s
    excess = m - t2
    active = (excess > 0.0) & offdiag
    hinge = excess[active].tolist()
    ends = itertools.accumulate(np.count_nonzero(active, axis=(1, 2)).tolist())
    pens, start = [], 0
    for row, end in zip(m[:, orth_mask].tolist(), ends):
        pens.append(math.fsum(row + hinge[start:end]) / 2.0)
        start = end
    return c, s, active, np.array(pens)


def _value_and_grad(x, n, width, orth_mask, offdiag, t2, complex_space):
    """Penalties (R,) and gradients (R, N) of R stacked points (R, N)."""
    xm = x.reshape(len(x), n, width)
    norms = np.linalg.norm(xm, axis=2, keepdims=True)
    vm = xm / norms
    c, s, active, penalty = _penalty_parts(
        vm, orth_mask, offdiag, t2, complex_space
    )
    omega = orth_mask.astype(float) + active
    gv = 2.0 * (omega * c) @ vm
    if complex_space:
        gv += 2.0 * (omega * s) @ _apply_j(vm)
    radial = np.sum(vm * gv, axis=2, keepdims=True)
    gx = (gv - radial * vm) / norms
    return penalty, gx.reshape(len(x), -1)


# L-BFGS: the memory and line-search constants are the defaults of
# L-BFGS-B (Byrd, Lu, Nocedal and Zhu 1995) and of its Moré-Thuente line
# search; the iteration, evaluation and stopping limits are the ones this
# search has always run with.  The FTOL test is L-BFGS-B's factr test
# without its absolute floor of 1, so a witness's penalty falls to ~1e-27.
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
    """Where ``minimize`` stopped: every row's end point (R, N) and value
    (R,), and the iterations and function evaluations of all rows."""

    x: np.ndarray
    fun: np.ndarray
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


def _line_search(x, f0, g0, d, step):
    """Strong Wolfe search along ``d`` from trial step ``step``, as a
    generator: it yields each trial point and is sent its (f, grad).

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
        ft, gt = yield xt
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


def _lbfgs(x):
    """One L-BFGS run from ``x`` as a generator: it yields each point to
    evaluate, is sent its (f, grad), and returns (x, f, nit, nfev)."""
    pairs: collections.deque = collections.deque(maxlen=MEMORY)
    nit = 0
    f, g = yield x
    nfev = 1
    while (nit < MAXITER and nfev < MAXFUN and math.isfinite(f)
           and np.max(np.abs(g)) > GTOL):
        d = _direction(g, pairs)
        if not float(g @ d) < 0.0:
            pairs.clear()
            d = -g
        step = 1.0 / float(np.linalg.norm(d)) if nit == 0 else 1.0
        x_new, f_new, g_new, evals = yield from _line_search(x, f, g, d, step)
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
        done = f - f_new <= FTOL * max(abs(f), abs(f_new))
        x, f, g = x_new, f_new, g_new
        if done:
            break
    return x, f, nit, nfev


def minimize(fun, x0, args=()) -> Minimum:
    """Unconstrained L-BFGS minimization from each row of ``x0`` (R, N).

    ``fun(X, *args) -> (f, grad)`` evaluates stacked points X (K, N),
    returning values (K,) and gradients (K, N).  Each row runs its own
    limited-memory BFGS (Liu and Nocedal 1989) with MEMORY pairs and a
    strong Wolfe line search (see ``_line_search``); every step, the points
    all running rows wait on are evaluated in one call of ``fun``, and a
    row leaves the batch when it stops.  The first trial step has length
    1; later ones are the full quasi-Newton step.  When a line search
    accepts no step, the memory is dropped and steepest descent is tried
    once more; if that fails too, the row stops.  It also stops after
    MAXITER iterations, once MAXFUN evaluations are spent, when an
    iteration lowers f by at most FTOL * max(|f|, |f_new|), or when
    max |grad| <= GTOL.

    The result's ``x`` (R, N) and ``fun`` (R,) hold every row's end point;
    its ``nit`` and ``nfev`` are totals over the rows.
    """
    x0 = np.array(x0, dtype=float)
    if x0.ndim != 2:
        raise ValueError("minimize takes one start per row of a 2-d array")
    runs = [_lbfgs(row) for row in x0]
    ends: list = [None] * len(runs)
    points = [next(run) for run in runs]
    live = list(range(len(runs)))
    # a zero row of the search's x divides by its norm; the NaN that gives
    # is handled by the line search as a step too long
    with np.errstate(invalid="ignore", divide="ignore"):
        while live:
            f, g = fun(np.stack([points[i] for i in live]), *args)
            running = []
            for i, fi, gi in zip(live, f.tolist(), g):
                try:
                    # a copy, so the rows a run keeps do not pin the
                    # whole stacked gradient of an older step
                    points[i] = runs[i].send((fi, gi.copy()))
                    running.append(i)
                except StopIteration as stop:
                    ends[i] = stop.value
            live = running
    xs, fs, nits, nfevs = zip(*ends)
    return Minimum(np.array(xs), np.array(fs), sum(nits), sum(nfevs))


def search_realization(
    diagram: GreechieDiagram,
    dim: int,
    seed: int = 0,
    restarts: int = 20,
    complex_space: bool = False,
    margin: float = DISTINCTNESS_MARGIN,
) -> SearchResult:
    """Decide whether ``diagram`` has a realization by unit vectors in
    ``dim`` dimensions: prove that it has none, or else search for one.

    The proof stage refutes a ``dim`` below the diagram's dimension
    (``OversizedContext``) and, when both are 3, whatever
    ``saturate_orthogonality`` refutes.  A refuted diagram returns at once
    with its ``refutation``, a penalty of inf and no restart run.  Every
    other diagram goes to ``_numerical_search`` with the same arguments.
    """
    if dim < 2:
        raise ValueError("realization dimension must be >= 2")
    if restarts < 1:
        raise ValueError("need at least one restart")
    refutation = None
    if dim < diagram.dim:
        refutation = OversizedContext(1, diagram.contexts[0], dim)
    elif dim == diagram.dim == 3:
        outcome = saturate_orthogonality(diagram)
        if outcome.verdict == "contradiction":
            refutation = outcome
    if refutation is not None:
        return SearchResult(False, None, math.inf, (), None, refutation)
    return _numerical_search(diagram, dim, seed, restarts, complex_space, margin)


def _numerical_search(diagram, dim, seed, restarts, complex_space, margin):
    """Search for a realization of ``diagram`` by unit vectors in ``dim``
    dimensions.

    Minimizes  sum over context pairs of |<u,v>|^2  plus, over all distinct
    atom pairs, max(0, |<u,v>|^2 - (1-margin)^2), by L-BFGS descent from
    ``restarts`` seeded random starts.  A restart's penalty is its L-BFGS
    end value, and its vectors are its end point, normalized.  Success
    means the best penalty is below SUCCESS_PENALTY and
    ``verify_realization`` accepts its vectors at ``margin``; ties between
    restarts break toward the lowest index, so the result is a
    deterministic function of (seed, restarts).  The
    restarts run in blocks of at most BATCH_CELLS // (n·max(n, 2·MEMORY·w))
    (at least one), with w the coordinates per vector, and
    restart r's penalty and vectors are the same whatever the block size or
    the restart count.
    """
    atoms = diagram.atoms
    n = len(atoms)
    index = {a: i for i, a in enumerate(atoms)}
    orth_mask = np.zeros((n, n), dtype=bool)
    for x, y in orthogonal_pairs(diagram):
        orth_mask[index[x], index[y]] = True
        orth_mask[index[y], index[x]] = True
    offdiag = ~np.eye(n, dtype=bool)
    t2 = (1.0 - margin) ** 2
    width = 2 * dim if complex_space else dim
    args = (n, width, orth_mask, offdiag, t2, complex_space)

    # memory grows with the block, not with the restart count: a restart
    # holds n x n overlap cells and MEMORY L-BFGS pairs of n·w coordinates
    block = max(1, BATCH_CELLS // (n * max(n, 2 * MEMORY * width)))
    best_pen = np.inf
    best_vm = None
    best_restart = 0
    per_restart = []
    for first in range(0, restarts, block):
        rows = range(first, min(first + block, restarts))
        x0 = np.array([np.random.default_rng([seed, r]).standard_normal(n * width)
                       for r in rows])
        res = minimize(_value_and_grad, x0, args=args)
        xm = res.x.reshape(len(rows), n, width)
        vm = xm / np.linalg.norm(xm, axis=2, keepdims=True)
        per_restart += res.fun.tolist()
        # all restarts always run so the report is reproducible; ties break
        # toward the lowest restart index
        for r, pen, v in zip(rows, per_restart[first:], vm):
            if pen < best_pen:
                best_pen, best_vm, best_restart = pen, v.copy(), r

    success = best_pen < SUCCESS_PENALTY
    realization = None
    if success:
        vectors = {}
        for a, i in index.items():
            row = best_vm[i]
            vec = (row[:dim] + 1j * row[dim:]) if complex_space else row + 0j
            vectors[a] = vec
        realization = Realization(vectors, "complex" if complex_space else "real")
        # the penalty bounds the sum of squared overlaps, not each one: a
        # witness counts only if the verifier accepts it
        if not verify_realization(diagram, realization, margin=margin)[0]:
            success, realization = False, None
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
    pairs = orthogonal_pairs(diagram)
    for x, y in pairs:
        ov = abs(complex(np.vdot(vecs[x], vecs[y])))
        if ov > tol:
            violations.append(("orthogonality", (x, y), float(ov)))
    for x, y in itertools.combinations(diagram.atoms, 2):
        if (x, y) in pairs or (y, x) in pairs:
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
