"""qlctx command line.

Exit codes: 0 = analysis completed, 1 = analysis completed with a negative
verdict (not unique / refuted / outside the hull / nonclassical state set /
no witness found), 2 = usage or input error.

Every command builds its JSON payload and its text and ends in one call to
``_report``, which writes the ``-o`` artefact, prints the payload or the
text and sets the exit code.

Only ``logic`` and ``_text`` (pure Python) are imported here; numpy and the
other engine modules are imported inside the commands that use them, so a
command pays start-up only for what it runs.  ``realize`` loads numpy only
when its search reaches the numerical stage: a diagram refuted by a proof
or realized by an integer witness runs in pure Python.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import click

from . import _text, logic

EXIT_NEGATIVE = 1


@contextmanager
def _usage_errors(prefix: str | None = None):
    """Report a ValueError raised inside as a usage error (exit 2), its
    message prefixed with ``prefix`` when one is given."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(f"{prefix}: {exc}" if prefix else str(exc)) from None


def _echo_json(payload) -> None:
    # finite inputs can still overflow (huge eigenvalues); refuse the result
    # rather than print NaN or Infinity, which are not JSON
    with _usage_errors("result out of floating-point range"):
        text = json.dumps(payload, indent=2, allow_nan=False)
    click.echo(text)


def _load(path: str, reader):
    """``reader`` applied to the text of a file; errors name the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"cannot read {path}: {exc}") from None
    with _usage_errors(path):
        return reader(text)


def _write_output(text: str, outfile: str) -> None:
    try:
        Path(outfile).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise click.UsageError(f"cannot write {outfile}: {exc}") from None


def _report(as_json: bool, payload: dict, text: str | None,
            negative: bool = False, artefact: str | None = None,
            outfile: str | None = None) -> None:
    """Write ``artefact`` to ``outfile`` (first, so an unwritable file exits
    2 before anything is printed), print ``payload`` as JSON or else
    ``text`` (ending in its own newline; None prints nothing), and exit 1
    on a negative verdict."""
    if outfile and artefact is not None:
        _write_output(artefact, outfile)
    if as_json:
        _echo_json(payload)
    elif text is not None:
        click.echo(text, nl=False)
    if negative:
        sys.exit(EXIT_NEGATIVE)


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _complex_rows(array) -> list:
    """A complex array as nested lists with [re, im] in place of each entry."""
    import numpy as np

    return np.stack([array.real, array.imag], -1).tolist()


def _matrix_lines(matrix) -> list:
    return ["  " + "  ".join(f"{z.real: .12f}{z.imag:+.12f}j" for z in row)
            for row in matrix]


def _terms_payload(psi) -> list:
    return [{"re": amp.real, "im": amp.imag, "indices": list(digits)}
            for amp, digits in psi.terms()]


@click.group()
def main():
    """Greechie-diagram logic, Hilbert-space realizability, and multipartite
    spin-state uniqueness analyses."""


# --- states enumerate / classify -----------------------------------------


@main.group("states")
def states_group():
    """Two-valued-state analyses of a diagram."""


@states_group.command("enumerate")
@click.argument("diagram_file")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def states_enumerate(diagram_file, as_json):
    """Enumerate all two-valued states of a .gd diagram."""
    diagram = _load(diagram_file, logic.parse_diagram)
    with _usage_errors(diagram_file):
        sts = logic.two_valued_states(diagram)
    listed = [[a for a in diagram.atoms if a in s] for s in sts]
    text = _lines([f"atoms: {' '.join(diagram.atoms)}",
                   f"{len(sts)} two-valued state(s)",
                   *("  " + " ".join(atoms) for atoms in listed)])
    _report(as_json,
            {"atoms": list(diagram.atoms), "count": len(sts), "states": listed},
            text, negative=not sts)


@states_group.command("classify")
@click.argument("diagram_file")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def states_classify(diagram_file, as_json):
    """Classify the two-valued state set of a .gd diagram."""
    diagram = _load(diagram_file, logic.parse_diagram)
    with _usage_errors(diagram_file):
        result = logic.classify(diagram)
    payload = {
        "class": result.kind,
        "state_count": result.state_count,
        "witness_atoms": list(result.witness_atoms),
        "witness_pairs": [list(p) for p in result.witness_pairs],
    }
    lines = [f"class: {result.kind} ({result.state_count} two-valued states)"]
    if result.witness_atoms:
        lines.append("atoms never true: " + " ".join(result.witness_atoms))
    if result.witness_pairs:
        pairs = ", ".join(f"({x},{y})" for x, y in result.witness_pairs)
        lines.append("nonseparating pairs: " + pairs)
    _report(as_json, payload, _lines(lines),
            negative=result.kind != "separating")


# --- hull -----------------------------------------------------------------


def _parse_assignment(text: str) -> dict:
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise click.UsageError(
                f"bad probability assignment {piece!r}; expected atom=value"
            )
        atom, value = piece.split("=", 1)
        atom = atom.strip()
        if atom in out:
            raise click.UsageError(f"atom {atom!r} is assigned more than once")
        try:
            out[atom] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise click.UsageError(f"bad probability value {value!r}") from None
    return out


def _tolerance(ctx, param, value: str) -> Fraction:
    # a decimal string is read exactly: 1e-9 is 1/10**9, not the float's
    # binary value, so band weights keep short denominators
    try:
        tol = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter(f"{value!r} is not a finite number") from None
    if tol < 0:
        raise click.BadParameter(f"{value} is negative")
    return tol


@main.command("hull")
@click.argument("diagram_file")
@click.option("--p", "assignment", required=True,
              help="Atom probabilities, e.g. 'A=1,B=1/2'; unlisted atoms are 0.")
@click.option("--tol", default="1e-9", show_default=True,
              callback=_tolerance,
              help="Feasibility tolerance, a decimal or a fraction.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def hull(diagram_file, assignment, tol, as_json):
    """Test membership of atom probabilities in the classical polytope."""
    diagram = _load(diagram_file, logic.parse_diagram)
    p = _parse_assignment(assignment)
    with _usage_errors():
        result = logic.hull_membership(diagram, p, tol=tol)
    payload = {
        "verdict": "inside" if result.inside else "outside",
        "weights": None,
        "functional": None,
        "offset": None,
        "margin": None,
    }
    if result.inside:
        mixed = [([a for a in diagram.atoms if a in s], w)
                 for s, w in zip(result.states, result.weights) if w != 0]
        payload["weights"] = [{"state": state, "weight": str(w)}
                              for state, w in mixed]
        lines = ["inside: convex combination of two-valued states",
                 *(f"  {w!s} * {{{' '.join(state)}}}" for state, w in mixed)]
    else:
        payload["functional"] = {a: str(c) for a, c in result.functional.items()}
        payload["offset"] = str(result.offset)
        payload["margin"] = str(result.margin)
        lines = ["outside: separating functional f with f(state) <= c < f(p)",
                 *(f"  f[{atom}] = {coef!s}"
                   for atom, coef in result.functional.items() if coef != 0),
                 f"  c = {result.offset!s}",
                 f"  margin = {result.margin!s}"]
    _report(as_json, payload, _lines(lines), negative=not result.inside)


# --- realizability ----------------------------------------------------------


@main.command("realize")
@click.argument("diagram_file")
@click.option("--dim", required=True, type=click.IntRange(min=2),
              help="Hilbert-space dimension.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--restarts", default=20, show_default=True,
              type=click.IntRange(min=1))
@click.option("--complex", "complex_space", is_flag=True,
              help="Search complex vectors (default real).")
@click.option("-o", "outfile", default=None,
              help="Write the found realization to this file.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def realize(diagram_file, dim, seed, restarts, complex_space, outfile, as_json):
    """Search for unit vectors realizing a diagram's orthogonality."""
    from . import realizability

    diagram = _load(diagram_file, logic.parse_diagram)
    with _usage_errors():
        result = realizability.search_realization(
            diagram, dim, seed=seed, restarts=restarts,
            complex_space=complex_space
        )
    refutation = result.refutation
    if refutation is not None:
        if isinstance(refutation, realizability.OversizedContext):
            proof = {"rule": "context_size", "context": refutation.number,
                     "atoms": list(refutation.atoms), "dim": refutation.dim}
        else:
            proof = {"rule": "saturation",
                     "derivation": _derivation(refutation)}
        # a proof has no residual: penalty and best restart are null, as
        # the inf penalty is not JSON
        payload = {"success": False, "penalty": None, "best_restart": None,
                   "restart_penalties": [], "vectors": None,
                   "refutation": proof}
        _report(as_json, payload, refutation.render() + "\n", negative=True)
        return
    payload = {
        "success": result.success,
        "penalty": result.penalty,
        "best_restart": result.best_restart,
        "restart_penalties": list(result.restart_penalties),
        "vectors": None,
    }
    saved = None
    if result.success:
        payload["space"] = result.realization.space
        payload["vectors"] = {
            a: [[z.real, z.imag] for z in v]
            for a, v in result.realization.vectors.items()
        }
        saved = realizability.save_realization(result.realization)
        if result.integer_witness is None:
            text = (f"realized (penalty {result.penalty!r}, "
                    f"restart {result.best_restart})\n" + saved)
        else:
            # JSON numbers are floats to most readers: integers of any
            # length go out as decimal strings
            payload["certificate"] = "exact"
            payload["integer_vectors"] = {
                a: [str(c) for c in v]
                for a, v in result.integer_witness.items()
            }
            text = ("realized exactly (integer witness, no restart run)\n"
                    + saved)
    else:
        text = ("no witness found "
                f"(best residual {result.penalty!r} over {restarts} restarts)\n")
    _report(as_json, payload, text, negative=not result.success,
            artefact=saved, outfile=outfile)


def _derivation(outcome) -> list:
    return [{"collinear": list(step.collinear),
             ("orthogonal_pair" if step.orthogonal else "distinct_pair"):
                 list(step.pair),
             "reasons": list(step.reasons)}
            for step in outcome.derivation]


@main.command("saturate")
@click.argument("diagram_file")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def saturate(diagram_file, as_json):
    """Run the dimension-3 orthogonality saturation rule on a diagram."""
    from .saturation import saturate_orthogonality

    diagram = _load(diagram_file, logic.parse_diagram)
    with _usage_errors():
        outcome = saturate_orthogonality(diagram)
    refuted = outcome.verdict == "contradiction"
    payload = {"verdict": "refuted" if refuted else outcome.verdict,
               "derivation": _derivation(outcome)}
    _report(as_json, payload, outcome.render() + "\n", negative=refuted)


@main.command("render")
@click.argument("diagram_file")
@click.option("--style", type=click.Choice(["greechie", "tkadlec", "dot"]),
              default="dot", show_default=True)
@click.option("-o", "outfile", default=None, help="Write DOT text to a file.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def render_cmd(diagram_file, style, outfile, as_json):
    """Render a diagram as DOT text."""
    diagram = _load(diagram_file, logic.parse_diagram)
    with _usage_errors():
        dot = logic.render(diagram, style)
    _report(as_json, {"style": style, "dot": dot}, None if outfile else dot,
            artefact=dot, outfile=outfile)


# --- uniqueness -------------------------------------------------------------


@main.group("uniq")
def uniq_group():
    """Outcome-uniqueness analyses of .qs states."""


@uniq_group.command("check")
@click.argument("state_file")
@click.option("--rotations", default=0, show_default=True,
              type=click.IntRange(min=0),
              help="Also check this many random identical local rotations.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--tol", default=1e-9, show_default=True,
              type=click.FloatRange(min=0),
              help="Amplitudes at or below this magnitude count as zero.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def uniq_check(state_file, rotations, seed, tol, as_json):
    """Check the outcome-uniqueness property of a state."""
    from . import states as statemod
    from . import uniqueness

    psi = _load(state_file, statemod.read_qs)
    with _usage_errors():
        results = uniqueness.check_uniqueness_rotated(psi, rotations,
                                                      seed=seed, tol=tol)
    base = results[0].report
    rotated = results if rotations else []
    unique = base.overall and all(r.report.overall for r in rotated)
    payload = {
        "unique": unique,
        "term_count": base.term_count,
        "site_verdicts": list(base.site_verdicts),
        "possibilities": [
            {"site": site, "outcome": outcome,
             "supports": {str(t): list(v) for t, v in sups.items()}}
            for (site, outcome), sups in base.possibilities.items()
        ],
        "rotations": [
            {"axis": list(r.rotation.axis), "angle": r.rotation.angle,
             "unique": r.report.overall, "term_count": r.report.term_count}
            for r in rotated
        ],
    }
    lines = [f"unique: {str(unique).lower()}", f"term count: {base.term_count}"]
    for (site, outcome), sups in base.possibilities.items():
        lines += [f"  site {site} outcome {outcome}: site {t} "
                  f"still allows {{{', '.join(v)}}}"
                  for t, v in sups.items() if len(v) != 1]
    if rotated:
        bad = sum(1 for r in rotated if not r.report.overall)
        lines.append(f"rotations: {len(rotated)} checked "
                     f"(identity first), {bad} non-unique")
    _report(as_json, payload, _lines(lines), negative=not unique)


# --- state constructors -------------------------------------------------------


@main.command("catalog")
@click.argument("name")
@click.option("-o", "outfile", default=None, help="Write .qs text to a file.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def catalog(name, outfile, as_json):
    """Emit a catalog state (psi2, psi3, psi4_1..3, ghzm) as .qs text."""
    from . import states as statemod

    with _usage_errors():
        psi = statemod.catalog_state(name)
    qs = statemod.write_qs(psi, comment=f"catalog state {name}")
    payload = {
        "name": name,
        "sites": psi.sites,
        "dim": psi.site_dim,
        "terms": _terms_payload(psi),
    }
    _report(as_json, payload, None if outfile else qs,
            artefact=qs, outfile=outfile)


@main.command("singlet")
@click.option("--dim", required=True, type=int, help="Site dimension (2 or 3).")
@click.option("--sites", required=True, type=int, help="Number of sites.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def singlet(dim, sites, as_json):
    """Orthonormal basis of the total-spin-zero subspace."""
    from . import states as statemod

    with _usage_errors():
        basis = statemod.singlet_subspace(dim, sites)
    payload = {
        "dim": dim,
        "sites": sites,
        "count": len(basis),
        "states": [_terms_payload(psi) for psi in basis],
    }
    text = (f"{len(basis)} singlet state(s) for {sites} site(s) of dimension {dim}\n"
            + "".join(f"# state {i}\n" + statemod.write_qs(psi)
                      for i, psi in enumerate(basis)))
    _report(as_json, payload, text)


# --- context operators ---------------------------------------------------------


@main.group("context")
def context_group():
    """Maximal context operators."""


@context_group.command("op")
@click.option("--phi", required=True, type=float,
              help="Rotation angle of the second tripod about the shared leg.")
@click.option("--eigs", default="4,5,6", show_default=True,
              help="Eigenvalues of the rotated context.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def context_op(phi, eigs, as_json):
    """Operator of the phi-rotated tripod context, compared with the
    standard-basis context (eigenvalues 1,2,3)."""
    import numpy as np

    from . import contexts as contextops

    with _usage_errors("--phi"):
        phi = _text.finite(phi)
    with _usage_errors("--eigs"):
        eig_values = tuple(_text.finite(x) for x in eigs.split(","))
    standard, rotated = contextops.two_tripod_bases(phi)
    # finite eigenvalues near the float limit can overflow the operator or
    # the commutator; that is refused below, in text and JSON alike
    with _usage_errors(), np.errstate(over="ignore", invalid="ignore"):
        ctx_rot = contextops.context_operator(rotated, eig_values)
        ctx_std = contextops.context_operator(standard, (1.0, 2.0, 3.0))
        comm = (ctx_std.operator @ ctx_rot.operator
                - ctx_rot.operator @ ctx_std.operator)
    comm_max = float(np.max(np.abs(comm)))
    if not (math.isfinite(comm_max) and np.isfinite(ctx_rot.operator).all()):
        raise click.UsageError("result out of floating-point range")
    links = contextops.link_observables(ctx_std, ctx_rot)
    payload = {
        "phi": phi,
        "eigenvalues": list(eig_values),
        "basis": _complex_rows(ctx_rot.basis),
        "operator": _complex_rows(ctx_rot.operator),
        "links_with_standard": len(links),
        "commutator_max_abs": comm_max,
    }
    text = _lines([f"rotated context operator (phi={phi!r}, eigenvalues {eigs}):",
                   *_matrix_lines(ctx_rot.operator),
                   f"links with the standard context: {len(links)}",
                   f"commutator max-abs entry: {comm_max!r}"])
    _report(as_json, payload, text)


def _read_matrix(text: str):
    """A square complex matrix, one row per line."""
    import numpy as np

    rows = []
    for lineno, tokens in _text.lines(text):
        try:
            rows.append([_text.finite(tok, complex) for tok in tokens])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError("expected a square matrix")
    return np.array(rows, dtype=complex)


@main.command("split")
@click.option("--matrix", "matrix_file", required=True,
              help="Text file: one row per line, complex entries like 1+2j.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def split(matrix_file, as_json):
    """Split a square matrix A into self-adjoint components A = A1 + i A2."""
    from . import contexts as contextops

    a1, a2 = contextops.split_selfadjoint(_load(matrix_file, _read_matrix))
    text = _lines([line
                   for label, mat in (("A1 (self-adjoint)", a1),
                                      ("A2 (self-adjoint)", a2))
                   for line in (label + ":", *_matrix_lines(mat))])
    _report(as_json, {"real_part": _complex_rows(a1), "imag_part": _complex_rows(a2)},
            text)


if __name__ == "__main__":
    main()
