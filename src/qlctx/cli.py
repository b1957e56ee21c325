"""qlctx command line.

Exit codes: 0 = analysis completed, 1 = analysis completed with a negative
verdict (not unique / refuted / outside the hull / nonclassical state set /
no witness found), 2 = usage or input error.

Every command builds its JSON payload and its text and ends in one call to
``_report``, which writes the ``-o`` artefact, prints the payload or the
text and sets the exit code.  The front end is the standard library's
``argparse``: ``main`` builds the parser tree and runs the chosen command.
Commands parse option text into ``int``, ``float`` or ``str`` and pass it
on, and the engines check every value: a range, a seed, a tolerance, and
the exact numbers of ``hull``, which ``logic`` alone reads.  ``context
op`` and ``split`` keep ``_text.finite``, which parses text into finite
numbers, as the file readers do.
Bad input raises ``ValueError``, in the commands and in the engine alike,
and ``main`` is the one place that turns any ``ValueError`` a command
raises into the command's usage line, ``Error: <message>`` and exit 2, so
exit 1 never comes from bad input.  Other exceptions (``TypeError``, the
simplex's ``ArithmeticError``) are faults of the program, not of the
input, and stay tracebacks.

Only ``_text`` (pure Python) and the standard library are imported here.
``logic`` and ``fractions`` are imported by the commands that read a
diagram or a probability, numpy and the other engine modules by the
commands that use them, so a command pays start-up only for what it runs.
``context op`` and ``split`` run on the pure-Python ``contexts`` and load
neither numpy nor ``logic``.  ``catalog`` reads, checks and normalizes
its bundled .qs file with ``_text``, so it loads neither numpy nor
``states``.  ``realize`` loads numpy only when its search reaches the
numerical stage: a diagram refuted by a proof or realized by an integer
witness runs in pure Python.  So only ``uniq check``, ``singlet`` and that
stage of ``realize`` load numpy.
"""

from __future__ import annotations

import argparse
import codecs
import json
import math
import os
import re
import sys

from . import _text

EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _prefixed(prefix: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``, a ValueError's message prefixed with
    ``prefix``."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{prefix}: {exc}") from None


def _echo_json(payload) -> None:
    # finite inputs can still overflow (huge eigenvalues); refuse the result
    # rather than print NaN or Infinity, which are not JSON
    text = _prefixed("result out of floating-point range",
                     json.dumps, payload, indent=2, allow_nan=False)
    _write(text + "\n")


def _write(text: str) -> None:
    """Print ``text`` on stdout, as UTF-8 when the locale says ASCII (every
    file qlctx reads or writes is UTF-8, and atom names need not be ASCII)."""
    out = sys.stdout
    if out.encoding and codecs.lookup(out.encoding).name == "ascii":
        out.reconfigure(encoding="utf-8")
    try:
        out.write(text)
        out.flush()
    except BrokenPipeError:
        # the reader stopped early (``| head``): the exit code still gives
        # the verdict, and the flush at exit must not print a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())


def _load(path: str, reader):
    """``reader`` applied to the text of a UTF-8 file, less a leading byte
    order mark (some editors write one); errors name the file."""
    try:
        with open(path, encoding="utf-8-sig") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    return _prefixed(path, reader, text)


def _write_output(text: str, outfile: str) -> None:
    try:
        with open(outfile, "w", encoding="utf-8") as file:
            file.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {outfile}: {exc}") from None


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
        _write(text)
    if negative:
        sys.exit(EXIT_NEGATIVE)


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _complex_rows(matrix) -> list:
    """A complex matrix as nested lists with [re, im] in place of each entry."""
    return [[[z.real, z.imag] for z in row] for row in matrix]


def _all_finite(matrix) -> bool:
    return all(math.isfinite(z.real) and math.isfinite(z.imag)
               for row in matrix for z in row)


def _matrix_part(x: float, sign: str) -> str:
    # in fixed point a part near the float limit is a 309-digit integer, so
    # a magnitude of 1e15 or more is printed in exponent form
    return format(x, f"{sign}.12{'e' if abs(x) >= 1e15 else 'f'}")


def _matrix_lines(matrix) -> list:
    return ["  " + "  ".join(_matrix_part(z.real, " ") + _matrix_part(z.imag, "+")
                             + "j" for z in row)
            for row in matrix]


def _terms_payload(terms) -> list:
    return [{"re": amp.real, "im": amp.imag, "indices": list(digits)}
            for amp, digits in terms]


# --- states enumerate / classify -----------------------------------------


def states_enumerate(diagram_file, as_json):
    """Enumerate all two-valued states of a .gd diagram."""
    from . import logic

    diagram = _load(diagram_file, logic.parse_diagram)
    sts = _prefixed(diagram_file, logic.two_valued_states, diagram)
    listed = [[a for a in diagram.atoms if a in s] for s in sts]
    text = _lines([f"atoms: {' '.join(diagram.atoms)}",
                   f"{len(sts)} two-valued state(s)",
                   *("  " + " ".join(atoms) for atoms in listed)])
    _report(as_json,
            {"atoms": list(diagram.atoms), "count": len(sts), "states": listed},
            text, negative=not sts)


def states_classify(diagram_file, as_json):
    """Classify the two-valued state set of a .gd diagram."""
    from . import logic

    diagram = _load(diagram_file, logic.parse_diagram)
    result = _prefixed(diagram_file, logic.classify, diagram)
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
    """Atom names mapped to their value texts, which ``hull_membership``
    reads."""
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(
                f"bad probability assignment {piece!r}; expected atom=value"
            )
        atom, value = piece.split("=", 1)
        atom = atom.strip()
        if atom in out:
            raise ValueError(f"atom {atom!r} is assigned more than once")
        out[atom] = value.strip()
    return out


def _exact(x) -> str:
    """``str(x)`` of an exact number; ValueError when one of its integers
    has more digits than the interpreter converts to text."""
    try:
        return str(x)
    except ValueError:
        raise ValueError(
            "the exact result has a number of more than "
            f"{sys.get_int_max_str_digits()} digits and is too long to print"
        ) from None


def hull(diagram_file, assignment, tol, as_json):
    """Test membership of atom probabilities in the classical polytope."""
    from . import logic

    diagram = _load(diagram_file, logic.parse_diagram)
    p = _parse_assignment(assignment)
    result = logic.hull_membership(diagram, p, tol=tol)
    payload = {
        "verdict": "inside" if result.inside else "outside",
        "weights": None,
        "functional": None,
        "offset": None,
        "margin": None,
    }
    if result.inside:
        mixed = [([a for a in diagram.atoms if a in s], _exact(w))
                 for s, w in zip(result.states, result.weights) if w != 0]
        payload["weights"] = [{"state": state, "weight": w}
                              for state, w in mixed]
        lines = ["inside: convex combination of two-valued states",
                 *(f"  {w} * {{{' '.join(state)}}}" for state, w in mixed)]
    else:
        functional = {a: _exact(c) for a, c in result.functional.items()}
        offset, margin = _exact(result.offset), _exact(result.margin)
        payload.update(functional=functional, offset=offset, margin=margin)
        lines = ["outside: separating functional f with f(state) <= c < f(p)",
                 *(f"  f[{atom}] = {coef}"
                   for atom, coef in functional.items() if coef != "0"),
                 f"  c = {offset}",
                 f"  margin = {margin}"]
    _report(as_json, payload, _lines(lines), negative=not result.inside)


# --- realizability ----------------------------------------------------------


def realize(diagram_file, dim, seed, restarts, complex_space, outfile, as_json):
    """Search for unit vectors realizing a diagram's orthogonality."""
    from . import logic, realizability

    diagram = _load(diagram_file, logic.parse_diagram)
    result = realizability.search_realization(
        diagram, dim, seed=seed, restarts=restarts, complex_space=complex_space
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


def saturate(diagram_file, as_json):
    """Run the dimension-3 orthogonality saturation rule on a diagram."""
    from . import logic
    from .saturation import saturate_orthogonality

    diagram = _load(diagram_file, logic.parse_diagram)
    outcome = saturate_orthogonality(diagram)
    refuted = outcome.verdict == "contradiction"
    payload = {"verdict": "refuted" if refuted else outcome.verdict,
               "derivation": _derivation(outcome)}
    _report(as_json, payload, outcome.render() + "\n", negative=refuted)


def render_cmd(diagram_file, style, outfile, as_json):
    """Render a diagram as DOT text."""
    from . import logic

    diagram = _load(diagram_file, logic.parse_diagram)
    dot = logic.render(diagram, style)
    _report(as_json, {"style": style, "dot": dot}, None if outfile else dot,
            artefact=dot, outfile=outfile)


# --- uniqueness -------------------------------------------------------------


def uniq_check(state_file, rotations, seed, tol, as_json):
    """Check the outcome-uniqueness property of a state."""
    from . import states as statemod
    from . import uniqueness

    psi = _load(state_file, statemod.read_qs)
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


def catalog(name, outfile, as_json):
    """Emit a catalog state (psi2, psi3, psi4_1..3, ghzm) as .qs text."""
    from . import corpus

    text = corpus.catalog_text(name)
    sites, dim, amps = _text.parse_qs(text)
    terms = _text.normalized_terms(sites, dim, amps)
    qs = _text.format_qs(sites, dim, terms, comment=f"catalog state {name}")
    payload = {
        "name": name,
        "sites": sites,
        "dim": dim,
        "terms": _terms_payload(terms),
    }
    _report(as_json, payload, None if outfile else qs,
            artefact=qs, outfile=outfile)


def singlet(dim, sites, as_json):
    """Orthonormal basis of the total-spin-zero subspace."""
    from . import states as statemod

    basis = statemod.singlet_subspace(dim, sites)
    payload = {
        "dim": dim,
        "sites": sites,
        "count": len(basis),
        "states": [_terms_payload(psi.terms()) for psi in basis],
    }
    text = (f"{len(basis)} singlet state(s) for {sites} site(s) of dimension {dim}\n"
            + "".join(f"# state {i}\n" + statemod.write_qs(psi)
                      for i, psi in enumerate(basis)))
    _report(as_json, payload, text)


# --- context operators ---------------------------------------------------------


def context_op(phi, eigs, as_json):
    """Operator of the phi-rotated tripod context, compared with the
    standard-basis context (eigenvalues 1,2,3)."""
    from . import contexts as contextops

    phi = _prefixed("--phi", _text.finite, phi)
    eig_values = tuple(_prefixed("--eigs", _text.finite, x) for x in eigs.split(","))
    standard, rotated = contextops.two_tripod_bases(phi)
    ctx_rot = contextops.context_operator(rotated, eig_values)
    ctx_std = contextops.context_operator(standard, (1.0, 2.0, 3.0))
    comm = contextops.commutator(ctx_std.operator, ctx_rot.operator)
    # finite eigenvalues near the float limit can overflow the operator or
    # the commutator into inf or nan (which max would skip), or the largest
    # magnitude into inf; that is refused, in text and JSON alike
    comm_max = max(math.hypot(z.real, z.imag) for row in comm for z in row)
    if not (math.isfinite(comm_max) and _all_finite(ctx_rot.operator)
            and _all_finite(comm)):
        raise ValueError("result out of floating-point range")
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


def _read_matrix(text: str) -> list:
    """A square complex matrix, one row per line, as its list of rows."""
    rows = []
    for lineno, tokens in _text.lines(text):
        try:
            rows.append([_text.finite(tok, complex) for tok in tokens])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError("expected a square matrix")
    return rows


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


# --- command line ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors read like a command's: the usage line,
    then ``Error: <message>``, and exit 2."""

    def __init__(self, **kwargs):
        # a long option is spelled out in full: --rot is not --rotations
        super().__init__(allow_abbrev=False, **kwargs)
        # a value that starts like a negative number (--eigs -1,2,3,
        # --phi -1e-3) is a value, not an unknown option
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def parse_known_args(self, args=None, namespace=None):
        # an unknown option is refused by the command's own parser, so the
        # error comes under that command's usage line
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"Error: {message}\n")


def _command(commands, name, run):
    """Subcommand ``name``, which calls ``run`` with its options; the help is
    ``run``'s docstring, and every command takes ``--json``."""
    parser = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
    parser.set_defaults(run=run, parser=parser)
    parser.add_argument("--json", dest="as_json", action="store_true",
                        help="JSON output.")
    return parser


def _group(commands, name, doc):
    group = commands.add_parser(name, help=doc, description=doc)
    return group.add_subparsers(metavar="COMMAND", required=True)


DEFAULT = "[default: %(default)s]"


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qlctx", description=(
        "Greechie-diagram logic, Hilbert-space realizability, and "
        "multipartite spin-state uniqueness analyses."))
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    states = _group(commands, "states", "Two-valued-state analyses of a diagram.")
    for name, run in (("enumerate", states_enumerate), ("classify", states_classify)):
        _command(states, name, run).add_argument("diagram_file")

    p = _command(commands, "hull", hull)
    p.add_argument("diagram_file")
    p.add_argument("--p", dest="assignment", required=True,
                   help="Atom probabilities, e.g. 'A=1,B=1/2'; unlisted atoms are 0.")
    p.add_argument("--tol", default="1e-9",
                   help="Feasibility tolerance, a decimal or a fraction. " + DEFAULT)

    p = _command(commands, "realize", realize)
    p.add_argument("diagram_file")
    p.add_argument("--dim", required=True, type=int,
                   help="Hilbert-space dimension.")
    p.add_argument("--seed", default=0, type=int, help=DEFAULT)
    p.add_argument("--restarts", default=20, type=int, help=DEFAULT)
    p.add_argument("--complex", dest="complex_space", action="store_true",
                   help="Search complex vectors (default real).")
    p.add_argument("-o", dest="outfile",
                   help="Write the found realization to this file.")

    _command(commands, "saturate", saturate).add_argument("diagram_file")

    p = _command(commands, "render", render_cmd)
    p.add_argument("diagram_file")
    p.add_argument("--style", choices=["greechie", "tkadlec", "dot"], default="dot",
                   help=DEFAULT)
    p.add_argument("-o", dest="outfile", help="Write DOT text to a file.")

    p = _command(_group(commands, "uniq", "Outcome-uniqueness analyses of .qs states."),
                 "check", uniq_check)
    p.add_argument("state_file")
    p.add_argument("--rotations", default=0, type=int,
                   help="Also check this many random identical local rotations. "
                   + DEFAULT)
    p.add_argument("--seed", default=0, type=int, help=DEFAULT)
    p.add_argument("--tol", default=1e-9, type=float,
                   help="Amplitudes at or below this magnitude count as zero. "
                   + DEFAULT)

    p = _command(commands, "catalog", catalog)
    p.add_argument("name")
    p.add_argument("-o", dest="outfile", help="Write .qs text to a file.")

    p = _command(commands, "singlet", singlet)
    p.add_argument("--dim", required=True, type=int, help="Site dimension (2 or 3).")
    p.add_argument("--sites", required=True, type=int, help="Number of sites.")

    p = _command(_group(commands, "context", "Maximal context operators."),
                 "op", context_op)
    p.add_argument("--phi", required=True, type=float,
                   help="Rotation angle of the second tripod about the shared leg.")
    p.add_argument("--eigs", default="4,5,6",
                   help="Eigenvalues of the rotated context. " + DEFAULT)

    p = _command(commands, "split", split)
    p.add_argument("--matrix", dest="matrix_file", required=True,
                   help="Text file: one row per line, complex entries like 1+2j.")
    return parser


def main(argv=None) -> None:
    """Run the command line on ``argv`` (default ``sys.argv[1:]``).  Returns
    when the analysis completes; exits 1 on a negative verdict, and 2 on a
    usage error or on any ValueError the command raises."""
    options = vars(_parser().parse_args(argv))
    run, parser = options.pop("run"), options.pop("parser")
    try:
        run(**options)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    main()
