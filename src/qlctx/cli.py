"""qlctx command line.

Exit codes: 0 = analysis completed, 1 = analysis completed with a negative
verdict (not unique / refuted / outside the hull / nonclassical state set /
no witness found), 2 = usage or input error.

Only ``logic`` (pure Python) is imported here; numpy and the other engine
modules are imported inside the commands that use them, so a command pays
start-up only for what it runs.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import logic

EXIT_NEGATIVE = 1


def _echo_json(payload) -> None:
    click.echo(json.dumps(payload, indent=2))


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}") from None


def _load_diagram(path: str) -> logic.GreechieDiagram:
    try:
        return logic.parse_diagram(_read_text(path))
    except logic.ParseError as exc:
        raise click.UsageError(f"{path}: {exc}") from None


def _load_state(path: str):
    from . import states as statemod

    try:
        return statemod.read_qs(_read_text(path))
    except ValueError as exc:
        raise click.UsageError(f"{path}: {exc}") from None


def _write_output(text: str, outfile: str | None) -> None:
    """Write text to ``outfile``, or to stdout when no file is given."""
    if not outfile:
        click.echo(text, nl=False)
        return
    try:
        Path(outfile).write_text(text)
    except OSError as exc:
        raise click.UsageError(f"cannot write {outfile}: {exc}") from None


def _frac(value: Fraction) -> str:
    return str(value)


def _complex_rows(matrix) -> list:
    import numpy as np

    return [[[z.real, z.imag] for z in row] for row in np.asarray(matrix, complex)]


def _state_terms(psi) -> list:
    import numpy as np

    shape = (psi.site_dim,) * psi.sites
    terms = []
    for idx in np.flatnonzero(np.abs(psi.coeffs) > 1e-12):
        amp = psi.coeffs[idx]
        digits = [int(d) for d in np.unravel_index(int(idx), shape)]
        terms.append({"re": amp.real, "im": amp.imag, "indices": digits})
    return terms


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
    diagram = _load_diagram(diagram_file)
    sts = logic.two_valued_states(diagram)
    listed = [[a for a in diagram.atoms if a in s] for s in sts]
    if as_json:
        _echo_json(
            {"atoms": list(diagram.atoms), "count": len(sts), "states": listed}
        )
    else:
        click.echo(f"atoms: {' '.join(diagram.atoms)}")
        click.echo(f"{len(sts)} two-valued state(s)")
        for atoms in listed:
            click.echo("  " + " ".join(atoms))
    if not sts:
        sys.exit(EXIT_NEGATIVE)


@states_group.command("classify")
@click.argument("diagram_file")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def states_classify(diagram_file, as_json):
    """Classify the two-valued state set of a .gd diagram."""
    diagram = _load_diagram(diagram_file)
    result = logic.classify(diagram)
    count = result.state_count
    if as_json:
        _echo_json(
            {
                "class": result.kind,
                "state_count": count,
                "witness_atoms": list(result.witness_atoms),
                "witness_pairs": [list(p) for p in result.witness_pairs],
            }
        )
    else:
        click.echo(f"class: {result.kind} ({count} two-valued states)")
        if result.witness_atoms:
            click.echo("atoms never true: " + " ".join(result.witness_atoms))
        if result.witness_pairs:
            pairs = ", ".join(f"({x},{y})" for x, y in result.witness_pairs)
            click.echo("nonseparating pairs: " + pairs)
    if result.kind != "separating":
        sys.exit(EXIT_NEGATIVE)


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
        try:
            out[atom.strip()] = Fraction(value.strip())
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
    diagram = _load_diagram(diagram_file)
    p = _parse_assignment(assignment)
    try:
        result = logic.hull_membership(diagram, p, tol=tol)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    if as_json:
        payload = {
            "verdict": "inside" if result.inside else "outside",
            "weights": None,
            "functional": None,
            "offset": None,
            "margin": None,
        }
        if result.inside:
            payload["weights"] = [
                {
                    "state": [a for a in diagram.atoms if a in s],
                    "weight": _frac(w),
                }
                for s, w in zip(result.states, result.weights)
                if w != 0
            ]
        else:
            payload["functional"] = {
                a: _frac(c) for a, c in result.functional.items()
            }
            payload["offset"] = _frac(result.offset)
            payload["margin"] = _frac(result.margin)
        _echo_json(payload)
    elif result.inside:
        click.echo("inside: convex combination of two-valued states")
        for s, w in zip(result.states, result.weights):
            if w != 0:
                click.echo(f"  {_frac(w)} * {{{' '.join(a for a in diagram.atoms if a in s)}}}")
    else:
        click.echo("outside: separating functional f with f(state) <= c < f(p)")
        for atom, coef in result.functional.items():
            if coef != 0:
                click.echo(f"  f[{atom}] = {_frac(coef)}")
        click.echo(f"  c = {_frac(result.offset)}")
        click.echo(f"  margin = {_frac(result.margin)}")
    if not result.inside:
        sys.exit(EXIT_NEGATIVE)


# --- realizability ----------------------------------------------------------


@main.command("realize")
@click.argument("diagram_file")
@click.option("--dim", required=True, type=click.IntRange(min=2),
              help="Hilbert-space dimension.")
@click.option("--seed", default=0, show_default=True, type=int)
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

    diagram = _load_diagram(diagram_file)
    result = realizability.search_realization(
        diagram, dim, seed=seed, restarts=restarts, complex_space=complex_space
    )
    if as_json:
        payload = {
            "success": result.success,
            "penalty": result.penalty,
            "best_restart": result.best_restart,
            "restart_penalties": list(result.restart_penalties),
            "vectors": None,
        }
        if result.success:
            payload["space"] = result.realization.space
            payload["vectors"] = {
                a: [[z.real, z.imag] for z in v]
                for a, v in result.realization.vectors.items()
            }
        _echo_json(payload)
    elif result.success:
        click.echo(f"realized (penalty {result.penalty!r}, "
                   f"restart {result.best_restart})")
        click.echo(realizability.save_realization(result.realization), nl=False)
    else:
        click.echo("no witness found "
                   f"(best residual {result.penalty!r} over {restarts} restarts)")
    if result.success and outfile:
        _write_output(realizability.save_realization(result.realization), outfile)
    if not result.success:
        sys.exit(EXIT_NEGATIVE)


@main.command("saturate")
@click.argument("diagram_file")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def saturate(diagram_file, as_json):
    """Run the dimension-3 orthogonality saturation rule on a diagram."""
    from . import realizability

    diagram = _load_diagram(diagram_file)
    try:
        outcome = realizability.saturate_orthogonality(diagram)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    if as_json:
        _echo_json(
            {
                "verdict": "refuted"
                if outcome.verdict == "contradiction"
                else outcome.verdict,
                "derivation": [
                    {
                        "collinear": list(step.collinear),
                        "orthogonal_pair": list(step.orthogonal_pair),
                        "reasons": list(step.reasons),
                    }
                    for step in outcome.derivation
                ],
            }
        )
    else:
        click.echo(outcome.render())
    if outcome.verdict == "contradiction":
        sys.exit(EXIT_NEGATIVE)


@main.command("render")
@click.argument("diagram_file")
@click.option("--style", type=click.Choice(["greechie", "tkadlec", "dot"]),
              default="dot", show_default=True)
@click.option("-o", "outfile", default=None, help="Write DOT text to a file.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def render_cmd(diagram_file, style, outfile, as_json):
    """Render a diagram as DOT text."""
    diagram = _load_diagram(diagram_file)
    try:
        text = logic.render(diagram, style)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    if not as_json:
        _write_output(text, outfile)
        return
    if outfile:
        _write_output(text, outfile)
    _echo_json({"style": style, "dot": text})


# --- uniqueness -------------------------------------------------------------


@main.group("uniq")
def uniq_group():
    """Outcome-uniqueness analyses of .qs states."""


def _report_payload(report) -> dict:
    return {
        "unique": report.overall,
        "term_count": report.term_count,
        "site_verdicts": list(report.site_verdicts),
        "possibilities": [
            {
                "site": site,
                "outcome": outcome,
                "supports": {str(t): list(v) for t, v in sups.items()},
            }
            for (site, outcome), sups in report.possibilities.items()
        ],
    }


@uniq_group.command("check")
@click.argument("state_file")
@click.option("--rotations", default=0, show_default=True,
              type=click.IntRange(min=0),
              help="Also check this many random identical local rotations.")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--tol", default=1e-9, show_default=True,
              type=click.FloatRange(min=0),
              help="Amplitudes at or below this magnitude count as zero.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def uniq_check(state_file, rotations, seed, tol, as_json):
    """Check the outcome-uniqueness property of a state."""
    from . import uniqueness

    psi = _load_state(state_file)
    try:
        base = uniqueness.check_uniqueness(psi, tol=tol)
        rotated = []
        if rotations > 0:
            rotated = uniqueness.check_uniqueness_rotated(
                psi, rotations, seed=seed, tol=tol
            )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    unique = base.overall and all(r.report.overall for r in rotated)
    if as_json:
        payload = _report_payload(base)
        payload["rotations"] = [
            {
                "axis": list(r.rotation.axis),
                "angle": r.rotation.angle,
                "unique": r.report.overall,
                "term_count": r.report.term_count,
            }
            for r in rotated
        ]
        payload["unique"] = unique
        _echo_json(payload)
    else:
        click.echo(f"unique: {str(unique).lower()}")
        click.echo(f"term count: {base.term_count}")
        for (site, outcome), sups in base.possibilities.items():
            ambiguous = {t: v for t, v in sups.items() if len(v) != 1}
            for t, v in ambiguous.items():
                click.echo(
                    f"  site {site} outcome {outcome}: site {t} "
                    f"still allows {{{', '.join(v)}}}"
                )
        if rotated:
            bad = sum(1 for r in rotated if not r.report.overall)
            click.echo(
                f"rotations: {len(rotated)} checked "
                f"(identity first), {bad} non-unique"
            )
    if not unique:
        sys.exit(EXIT_NEGATIVE)


# --- state constructors -------------------------------------------------------


@main.command("catalog")
@click.argument("name")
@click.option("-o", "outfile", default=None, help="Write .qs text to a file.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def catalog(name, outfile, as_json):
    """Emit a catalog state (psi2, psi3, psi4_1..3, ghzm) as .qs text."""
    from . import states as statemod

    try:
        psi = statemod.catalog_state(name)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    if as_json:
        _echo_json(
            {
                "name": name,
                "sites": psi.sites,
                "dim": psi.site_dim,
                "terms": _state_terms(psi),
            }
        )
        return
    _write_output(statemod.write_qs(psi, comment=f"catalog state {name}"), outfile)


@main.command("singlet")
@click.option("--dim", required=True, type=int, help="Site dimension (2 or 3).")
@click.option("--sites", required=True, type=int, help="Number of sites.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def singlet(dim, sites, as_json):
    """Orthonormal basis of the total-spin-zero subspace."""
    from . import states as statemod

    try:
        basis = statemod.singlet_subspace(dim, sites)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    if as_json:
        _echo_json(
            {
                "dim": dim,
                "sites": sites,
                "count": len(basis),
                "states": [_state_terms(psi) for psi in basis],
            }
        )
        return
    click.echo(f"{len(basis)} singlet state(s) for {sites} site(s) of dimension {dim}")
    for i, psi in enumerate(basis):
        click.echo(f"# state {i}")
        click.echo(statemod.write_qs(psi), nl=False)


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

    try:
        eig_values = tuple(float(x) for x in eigs.split(","))
    except ValueError:
        raise click.UsageError(f"bad eigenvalue list {eigs!r}") from None
    standard, rotated = contextops.two_tripod_bases(phi)
    try:
        ctx_rot = contextops.context_operator(rotated, eig_values)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    ctx_std = contextops.context_operator(standard, (1.0, 2.0, 3.0))
    links = contextops.link_observables(ctx_std, ctx_rot)
    comm = ctx_std.operator @ ctx_rot.operator - ctx_rot.operator @ ctx_std.operator
    comm_max = float(np.max(np.abs(comm)))
    if as_json:
        _echo_json(
            {
                "phi": phi,
                "eigenvalues": list(eig_values),
                "basis": _complex_rows(ctx_rot.basis),
                "operator": _complex_rows(ctx_rot.operator),
                "links_with_standard": len(links),
                "commutator_max_abs": comm_max,
            }
        )
        return
    click.echo(f"rotated context operator (phi={phi!r}, eigenvalues {eigs}):")
    for row in np.asarray(ctx_rot.operator):
        click.echo("  " + "  ".join(f"{z.real: .12f}{z.imag:+.12f}j" for z in row))
    click.echo(f"links with the standard context: {len(links)}")
    click.echo(f"commutator max-abs entry: {comm_max!r}")


@main.command("split")
@click.option("--matrix", "matrix_file", required=True,
              help="Text file: one row per line, complex entries like 1+2j.")
@click.option("--json", "as_json", is_flag=True, help="JSON output.")
def split(matrix_file, as_json):
    """Split a square matrix A into self-adjoint components A = A1 + i A2."""
    import numpy as np

    from . import contexts as contextops

    rows = []
    for lineno, raw in enumerate(_read_text(matrix_file).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([complex(tok) for tok in line.split()])
        except ValueError:
            raise click.UsageError(
                f"{matrix_file}: line {lineno}: malformed complex entry"
            ) from None
    if not rows or any(len(r) != len(rows) for r in rows):
        raise click.UsageError(f"{matrix_file}: expected a square matrix")
    try:
        a1, a2 = contextops.split_selfadjoint(np.array(rows, dtype=complex))
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    if as_json:
        _echo_json({"real_part": _complex_rows(a1), "imag_part": _complex_rows(a2)})
        return
    for label, mat in (("A1 (self-adjoint)", a1), ("A2 (self-adjoint)", a2)):
        click.echo(label + ":")
        for row in np.asarray(mat):
            click.echo("  " + "  ".join(f"{z.real: .12f}{z.imag:+.12f}j" for z in row))


if __name__ == "__main__":
    main()
