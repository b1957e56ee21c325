"""Hilbert-space realizability of Greechie diagrams.

A realization assigns a unit vector to every atom so that atoms sharing a
context are orthogonal and distinct atoms stay non-collinear (their overlap
magnitude must not exceed 1 - DISTINCTNESS_MARGIN; coincident rays would
merge two atoms the diagram declares distinct).

``search_realization`` decides in three stages:

* a proof stage of two exact rules.  A context of k atoms needs k mutually
  orthogonal vectors, so a dimension below the diagram's is refuted
  (``OversizedContext``).  In dimension 3, ``saturate_orthogonality`` (the
  pure-Python rule of ``qlctx.saturation``, looked up in this module's
  globals) pins an atom orthogonal to two distinct atoms to the one ray
  orthogonal to both, so two distinct atoms orthogonal to the same pair
  are forced collinear (``SaturationOutcome``).  Both rules hold in C^d as
  in R^d.  A refutation is returned at once, as the result's
  ``refutation``, and no restart runs.
* an exact stage in dimension 3: ``integer_witness`` (also of
  ``qlctx.saturation``) propagates integer vectors by cross products.  A
  witness it finds must pass ``verify_realization`` exactly, in integers;
  it is then normalized in pure Python and returned as a real realization
  with its integer vectors and no restart run; a real witness is a complex
  one too.  The stage never refutes: when it gives up, the search goes on
  as if it had not run.
* a numerical stage (``_numerical_search``) for every diagram the first
  two leave open: it minimizes an orthogonality-plus-collinearity penalty
  over a product of unit spheres from seeded random restarts by L-BFGS
  descent (``minimize``).  All restarts of a block advance together, one
  stacked penalty evaluation per step, with each restart's result
  independent of the batch it runs in.  Success is a proof, and only a
  witness that ``verify_realization`` accepts counts; failure is only
  evidence and is reported as "no witness found" with the best residual.

Only the numerical stage uses numpy (``qlctx._numerical``), and it is
imported when a search first reaches that stage: the proof and exact
stages, verification, Born probabilities and the realization file format
are pure Python.
"""

from __future__ import annotations

import cmath
import collections
import itertools
import math
from fractions import Fraction

from . import _text
from ._records import ByIdentity
from .logic import GreechieDiagram, orthogonal_pairs
from .saturation import check_margin, integer_witness, saturate_orthogonality

DISTINCTNESS_MARGIN = 0.05
SUCCESS_PENALTY = 1e-12
# the float tolerance of ``verify_realization`` on unit vectors
VERIFY_TOLERANCE = 1e-9
# the most float cells one block of search restarts may hold: a restart
# counts n x n cells for its rows of the stacked overlap arrays or, when
# that is more, n x 2·MEMORY·w for its L-BFGS pairs.  One stacked array
# stays within 512 KB, and a 150-tripod chain (301 atoms) runs one restart
# per block
BATCH_CELLS = 1 << 16
# the most vector coordinates a search may ask for: n atoms times dim, or
# 2·dim in a complex space.  A 150-tripod complex chain in dimension 3
# needs 1,806
MAX_COORDINATES = 1 << 18


# --- realization search ------------------------------------------------------


class Realization(ByIdentity, collections.namedtuple(
        "Realization", "vectors space", defaults=("real",))):
    """A vector per atom; ``space`` records whether imag parts are used.

    Every realization qlctx builds (a search's witness, a loaded file) holds
    unit vectors as tuples of ``complex``.  ``verify_realization``,
    ``born_probabilities`` and ``save_realization`` also take numpy arrays
    or other sequences of numbers, and ``verify_realization`` reads vectors
    that are all tuples or lists of Python ints as rays of Z^d, checked
    exactly.
    """

    __slots__ = ()


class OversizedContext(collections.namedtuple(
        "OversizedContext", "number atoms dim")):
    """Proof that no realization exists in ``dim`` dimensions: context
    ``number`` (counted from 1) has more atoms than ``dim`` mutually
    orthogonal vectors can fill."""

    __slots__ = ()

    def render(self) -> str:
        k = len(self.atoms)
        return (f"context {self.number} ({' '.join(self.atoms)}) has {k} atoms, "
                f"which need {k} mutually orthogonal vectors\n"
                f"refuted: dimension {self.dim} holds at most {self.dim} "
                "mutually orthogonal vectors")


class SearchResult(ByIdentity, collections.namedtuple(
        "SearchResult", "success realization penalty restart_penalties "
        "best_restart refutation integer_witness", defaults=(None, None))):
    """A search's verdict.  A refuted diagram has ``refutation`` set, a
    penalty of inf, no restart penalties and no best restart.  A witness of
    the exact stage has its integer vectors in ``integer_witness``, a
    penalty of 0, no restart penalties and no best restart."""

    __slots__ = ()


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
    with its ``refutation``, a penalty of inf and no restart run.  When both
    dimensions are 3, ``_exact_search`` runs next, and a witness it finds is
    the result, whatever ``seed``, ``restarts`` and ``complex_space`` say.
    Every other diagram goes to ``_numerical_search`` with the same
    arguments.  ``margin`` must lie in the open interval (0, 1), and the
    search may need at most MAX_COORDINATES coordinates; both are checked
    before any stage.
    """
    if dim < 2:
        raise ValueError("realization dimension must be >= 2")
    if restarts < 1:
        raise ValueError("need at least one restart")
    check_margin(margin)
    coordinates = len(diagram.atoms) * dim * (2 if complex_space else 1)
    if coordinates > MAX_COORDINATES:
        raise ValueError(
            f"{len(diagram.atoms)} atoms in dimension {dim} need {coordinates} "
            f"coordinates, more than the {MAX_COORDINATES} a search may hold"
        )
    refutation = None
    if dim < diagram.dim:
        refutation = OversizedContext(1, diagram.contexts[0], dim)
    elif dim == diagram.dim == 3:
        outcome = saturate_orthogonality(diagram)
        if outcome.verdict == "contradiction":
            refutation = outcome
        elif (exact := _exact_search(diagram, margin)) is not None:
            return exact
    if refutation is not None:
        return SearchResult(False, None, math.inf, (), None, refutation)
    return _numerical_search(diagram, dim, seed, restarts, complex_space, margin)


def _exact_search(diagram, margin):
    """The integer witness of ``diagram`` in dimension 3 as a search result,
    or None when ``integer_witness`` gives up or ``verify_realization``
    rejects its integer vectors at ``margin``."""
    witness = integer_witness(diagram, margin)
    if witness is None:
        return None
    if not verify_realization(diagram, Realization(witness), margin=margin)[0]:
        return None
    vectors = {a: _unit(v) for a, v in witness.items()}
    return SearchResult(True, Realization(vectors, "real"), 0.0, (), None,
                        integer_witness=witness)


def _unit(v) -> tuple[complex, ...]:
    """The unit vector along the nonzero integer vector ``v``, each
    coordinate within 1 ulp of c / |v|.

    |v|·2^k is floored to an integer of at least 100 bits, and c·2^k is
    divided by it in one correctly rounded int division, so the only errors
    are that rounding and a relative 2^-100 from the floor.
    """
    norm2 = sum(c * c for c in v)
    k = max(0, 101 - norm2.bit_length() // 2)
    root = math.isqrt(norm2 << 2 * k)
    return tuple(complex((c << k) / root) for c in v)


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
    import numpy as np

    from ._numerical import MEMORY, value_and_grad

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
    best_pen = math.inf
    best_vm = None
    best_restart = 0
    per_restart = []
    for first in range(0, restarts, block):
        rows = range(first, min(first + block, restarts))
        x0 = np.array([np.random.default_rng([seed, r]).standard_normal(n * width)
                       for r in rows])
        res = minimize(value_and_grad, x0, args=args)
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
            vectors[a] = tuple(vec.tolist())
        realization = Realization(vectors, "complex" if complex_space else "real")
        # the penalty bounds the sum of squared overlaps, not each one: a
        # witness counts only if the verifier accepts it
        if not verify_realization(diagram, realization, margin=margin)[0]:
            success, realization = False, None
    return SearchResult(
        success, realization, float(best_pen), tuple(per_restart), best_restart
    )


def minimize(fun, x0, args=()):
    """L-BFGS from each row of ``x0``: ``qlctx._numerical.minimize``, which
    loads numpy on the first call.  The search calls it by this module's
    name, so a wrapper put in its place sees every call."""
    from ._numerical import minimize as lbfgs

    return lbfgs(fun, x0, args)


# --- verification and Born probabilities -------------------------------------


def _coordinates(v) -> tuple[complex, ...]:
    """``v`` (a sequence of numbers, or a numpy array of any shape, read
    flat) as a tuple of complex."""
    if hasattr(v, "ravel"):
        v = v.ravel().tolist()
    return tuple(complex(z) for z in v)


def _finite_vector(v, what: str) -> tuple[complex, ...]:
    v = _coordinates(v)
    if not all(cmath.isfinite(z) for z in v):
        raise ValueError(f"{what} is not finite")
    return v


def _norm(v) -> float:
    return math.hypot(*(part for z in v for part in (z.real, z.imag)))


def _vdot(u, v) -> complex:
    """<u, v>, conjugate-linear in ``u``."""
    return sum(a.conjugate() * b for a, b in zip(u, v))


def _is_integer(v) -> bool:
    return isinstance(v, (tuple, list)) and all(type(c) is int for c in v)


def verify_realization(
    diagram: GreechieDiagram,
    realization: Realization,
    margin: float = DISTINCTNESS_MARGIN,
):
    """Check all realization constraints; returns (ok, violations).

    Violations are (kind, atoms, magnitude) tuples with kind one of
    'norm', 'orthogonality', 'collinear'.  A missing atom vector, a
    non-finite vector, a dimension mismatch or a ``margin`` outside the
    open interval (0, 1) raises instead of being reported.

    When every vector is a tuple or list of Python ints, the vectors are
    rays of Z^d and the check is exact, with no tolerance: a zero vector is a
    'norm' violation, a context pair needs a zero dot product, and any
    other pair needs (u·v)^2 <= (1 - margin)^2 |u|^2 |v|^2, with ``margin``
    read as the exact value of the float.  Otherwise the vectors are
    complex unit vectors, checked in floats within VERIFY_TOLERANCE.
    """
    check_margin(margin)
    vecs = {}
    for atom in diagram.atoms:
        if atom not in realization.vectors:
            raise ValueError(f"realization is missing a vector for atom {atom!r}")
        vecs[atom] = realization.vectors[atom]
    exact = all(_is_integer(v) for v in vecs.values())
    if not exact:
        vecs = {atom: _finite_vector(v, f"vector for atom {atom!r}")
                for atom, v in vecs.items()}
    dims = {len(v) for v in vecs.values()}
    if len(dims) != 1:
        raise ValueError(f"vector dimensions differ: {sorted(dims)}")

    pairs = orthogonal_pairs(diagram)
    others = [(x, y) for x, y in itertools.combinations(diagram.atoms, 2)
              if (x, y) not in pairs and (y, x) not in pairs]
    if exact:
        violations = _exact_violations(vecs, pairs, others, margin)
    else:
        violations = _float_violations(vecs, pairs, others, margin)
    return not violations, violations


def _float_violations(vecs, pairs, others, margin) -> list:
    violations = []
    for atom, v in vecs.items():
        defect = abs(_norm(v) - 1.0)
        if defect > VERIFY_TOLERANCE:
            violations.append(("norm", (atom,), defect))
    for kind, group, limit in (
            ("orthogonality", pairs, VERIFY_TOLERANCE),
            ("collinear", others, 1.0 - margin + VERIFY_TOLERANCE)):
        for x, y in group:
            ov = abs(_vdot(vecs[x], vecs[y]))
            if ov > limit:
                violations.append((kind, (x, y), ov))
    return violations


def _exact_violations(vecs, pairs, others, margin) -> list:
    """The violations of integer rays, in integer arithmetic; a pair's
    magnitude is the overlap of the unit vectors along its rays."""
    norms = {atom: sum(c * c for c in v) for atom, v in vecs.items()}
    violations = [("norm", (atom,), 1.0) for atom, n in norms.items() if n == 0]
    bound = (1 - Fraction(margin)) ** 2
    # a pair fails when (u·v)^2 den > num |u|^2 |v|^2
    for kind, group, num, den in (
            ("orthogonality", pairs, 0, 1),
            ("collinear", others, bound.numerator, bound.denominator)):
        for x, y in group:
            d = sum(a * b for a, b in zip(vecs[x], vecs[y]))
            scale = norms[x] * norms[y]
            if d * d * den > num * scale:
                violations.append((kind, (x, y), math.sqrt(d * d / scale)))
    return violations


def born_probabilities(realization: Realization, psi) -> dict[str, float]:
    """P(atom) = |<v_atom, psi>|^2 for a unit state psi."""
    psi = _finite_vector(psi, "state vector")
    if abs(_norm(psi) - 1.0) > VERIFY_TOLERANCE:
        raise ValueError("state vector must be normalized")
    out = {}
    for atom, v in realization.vectors.items():
        v = _finite_vector(v, f"vector for atom {atom!r}")
        if len(v) != len(psi):
            raise ValueError(
                f"dimension mismatch: atom {atom!r} has dimension {len(v)}, "
                f"state has {len(psi)}"
            )
        out[atom] = abs(_vdot(v, psi)) ** 2
    return out


# --- serialization ------------------------------------------------------------


def save_realization(realization: Realization) -> str:
    """One line per atom: ``<atom> re1 im1 re2 im2 ...``."""
    lines = []
    for atom, v in realization.vectors.items():
        parts = " ".join(f"{z.real!r} {z.imag!r}" for z in _coordinates(v))
        lines.append(f"{atom} {parts}")
    return "\n".join(lines) + "\n"


def load_realization(text: str) -> Realization:
    """The realization ``save_realization`` wrote: tuples of complex, in the
    "complex" space when any imaginary part is nonzero.  An atom given on
    two lines is an error."""
    vectors = {}
    first_line = {}
    any_imag = False
    for lineno, tokens in _text.lines(text):
        atom, rest = tokens[0], tokens[1:]
        if atom in first_line:
            raise ValueError(f"line {lineno}: atom {atom!r} is already given "
                             f"on line {first_line[atom]}")
        if len(rest) < 2 or len(rest) % 2:
            raise ValueError(f"line {lineno}: expected re/im pairs after atom")
        try:
            vals = [_text.finite(t) for t in rest]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        vec = tuple(complex(re, im) for re, im in zip(vals[0::2], vals[1::2]))
        any_imag = any_imag or any(z.imag != 0.0 for z in vec)
        vectors[atom] = vec
        first_line[atom] = lineno
    if not vectors:
        raise ValueError("empty realization file")
    return Realization(vectors, "complex" if any_imag else "real")
