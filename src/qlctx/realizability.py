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
  (quasi-Newton descent with seeded random restarts and a block-coordinate
  polish).  Success is a proof; failure is only evidence and is reported as
  "no witness found" with the best residual.
"""

from __future__ import annotations

import itertools
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
    """
    if diagram.dim != 3:
        raise ValueError("the saturation rule is specific to dimension 3")
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

    for u, w in itertools.combinations(diagram.atoms, 2):
        if w not in neighbours[u]:
            continue
        shared = [
            x for x in diagram.atoms
            if x not in (u, w) and x in neighbours[u] and x in neighbours[w]
        ]
        if len(shared) >= 2:
            x, y = shared[0], shared[1]
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


def _polish(vm, orth_sets, orth_mask, offdiag, t2, complex_space, sweeps=60):
    """Block-coordinate descent: each atom in turn moves to the smallest
    eigenvector of its neighbours' projector sum.  Only sweeps that lower
    the full penalty (hinges included) are kept."""
    best = vm.copy()
    best_pen = _penalty_of(vm, orth_mask, offdiag, t2, complex_space)
    cur = vm.copy()
    for _ in range(sweeps):
        for a, nbrs in enumerate(orth_sets):
            if nbrs.size == 0:
                continue
            cols = cur[nbrs]
            mat = cols.T @ cols
            if complex_space:
                jcols = _apply_j(cols)
                mat = mat + jcols.T @ jcols
            _, vecs = np.linalg.eigh(mat)
            v = vecs[:, 0]
            lead = int(np.argmax(np.abs(v)))
            if v[lead] < 0:
                v = -v
            cur[a] = v
        pen = _penalty_of(cur, orth_mask, offdiag, t2, complex_space)
        if pen >= best_pen:
            break
        best_pen = pen
        best = cur.copy()
        if best_pen == 0.0:
            break
    return best, best_pen


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use, so that importing
    this module for saturation or verification does not load scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


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
    orth_sets = [np.flatnonzero(orth_mask[i]) for i in range(n)]
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
        res = minimize(
            _value_and_grad,
            x0,
            args=args,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 2000, "maxfun": 5000, "ftol": 1e-18, "gtol": 1e-14},
        )
        xm = res.x.reshape(n, width)
        vm = xm / np.linalg.norm(xm, axis=1, keepdims=True)
        vm, pen = _polish(vm, orth_sets, orth_mask, offdiag, t2, complex_space)
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


def verify_realization(
    diagram: GreechieDiagram,
    realization: Realization,
    tol: float = 1e-9,
    margin: float = DISTINCTNESS_MARGIN,
):
    """Check all realization constraints; returns (ok, violations).

    Violations are (kind, atoms, magnitude) tuples with kind one of
    'norm', 'orthogonality', 'collinear'.  A missing atom vector or a
    dimension mismatch raises instead of being reported.
    """
    vecs = {}
    dims = set()
    for atom in diagram.atoms:
        if atom not in realization.vectors:
            raise ValueError(f"realization is missing a vector for atom {atom!r}")
        v = np.asarray(realization.vectors[atom], dtype=complex).reshape(-1)
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
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if abs(float(np.linalg.norm(psi)) - 1.0) > 1e-9:
        raise ValueError("state vector must be normalized")
    out = {}
    for atom, v in realization.vectors.items():
        v = np.asarray(v, dtype=complex).reshape(-1)
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
