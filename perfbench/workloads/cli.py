"""``cli`` workload: one ``qlctx`` process per job, covering every subcommand.

Inputs are the bundled corpus and small generated files, with both text
and ``--json`` output.  Import is most of each invocation, so a leaner
import path shows here, and so does an engine change that adds a cold
per-call cost.  Every exit code is compared with the input's known
verdict.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

import checks
from inputs import Diagram, tripod_chain, tripod_ring
from workloads import Command, Plan, assignment, rng_for, run_qlctx, write

CORPUS = Path(__file__).resolve().parents[2] / "src" / "qlctx" / "corpus" / "data"


def read_gd(path: Path, family: str, expected: int) -> Diagram:
    """The benchmark's own reading of a corpus ``.gd`` file."""
    contexts = []
    for raw in path.read_text().splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens and tokens[0] == "context":
            contexts.append(tuple(tokens[1:]))
    return Diagram(path.stem, family, tuple(contexts), expected)


def read_qs(path: Path) -> tuple[np.ndarray, int, int]:
    """The benchmark's own reading of a corpus ``.qs`` file, normalized."""
    rows = [r.split("#", 1)[0].split() for r in path.read_text().splitlines()]
    rows = [r for r in rows if r]
    sites, dim = int(rows[0][1]), int(rows[1][1])
    c = np.zeros(dim**sites, dtype=complex)
    for r in rows[2:]:
        c[np.ravel_multi_index(tuple(int(k) for k in r[2:]), (dim,) * sites)] += \
            complex(float(r[0]), float(r[1]))
    return c / np.linalg.norm(c), sites, dim


def _matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def build(seed: int, folder: Path) -> Plan:
    rng = rng_for(seed, "cli")
    plan = Plan(folder, warmup=lambda: run_qlctx(["--help"], folder))
    fig1 = read_gd(CORPUS / "fig1.gd", "chain", 5)
    fig2a = read_gd(CORPUS / "fig2a.gd", "chain", 8)
    fig2b = read_gd(CORPUS / "fig2b.gd", "ring", 4)
    chain = tripod_chain(3, rng, "chain3")
    ring = tripod_ring(5, rng, "ring5")
    states = checks.own_states(chain)
    inside = checks.mixture_point(chain, states, rng)
    phi = float(rng.uniform(0.1, 1.4))
    matrix = rng.integers(-9, 10, size=(3, 3)) + 1j * rng.integers(-9, 10, size=(3, 3))
    write(folder, "chain3.gd", chain.gd_text())
    write(folder, "ring5.gd", ring.gd_text())
    write(folder, "matrix.txt", "\n".join(
        " ".join(str(complex(z)) for z in row) for row in matrix) + "\n")

    def check_enumerate(code, out):
        checks.check_exit("states enumerate", code, 0)
        lines = out.splitlines()
        checks.require(lines[1] == "5 two-valued state(s)", "enumerate: count line")
        checks.check_states(fig1, [line.split() for line in lines[2:]])

    def check_classify(code, out):
        # Kochen and Specker (1967): Gamma_3 has states, yet a and b always agree
        checks.check_exit("states classify", code, 1)
        got = checks.parse_json("classify", out)
        checks.require(got["class"] == "unital_nonseparating"
                       and ["a", "b"] in got["witness_pairs"]
                       and got["state_count"] > 0, "classify fig3: wrong class")

    def check_hull(code, out):
        checks.check_exit("hull", code, 0)
        got = checks.parse_json("hull", out)
        checks.check_hull_inside(chain, states, inside,
                                 [w["state"] for w in got["weights"]],
                                 [w["weight"] for w in got["weights"]])

    def check_realize(code, out):
        checks.check_exit("realize", code, 0)
        got = checks.parse_json("realize", out)
        checks.check_realization(fig2a, {a: [complex(*z) for z in v]
                                         for a, v in got["vectors"].items()}, 3)

    def check_saturate(code, out):
        checks.check_exit("saturate", code, 1)
        found = re.match(r"atoms (\S+), (\S+) forced collinear: both are orthogonal"
                         r" to the orthogonal pair \{(\S+), (\S+)\}", out)
        checks.require(found is not None and out.rstrip().endswith(
            "refuted: two distinct atoms cannot share a ray"), "saturate: no refutation")
        x, y, u, w = found.groups()
        checks.check_refutation(fig2b, (x, y), (u, w))

    def check_render(code, out):
        checks.check_exit("render", code, 0)
        dot = checks.parse_json("render", out)["dot"]
        for a in ring.atoms:
            checks.require(f'  "{a}";' in dot.splitlines(), f"render: {a} missing")
        for ctx in ring.contexts:
            for x, y in zip(ctx, ctx[1:]):
                checks.require(f'  "{x}" -- "{y}" [' in dot, f"render: {x}-{y} missing")

    psi2, sites2, dim2 = read_qs(CORPUS / "psi2.qs")

    def check_uniq(code, out):
        # a singlet is unchanged by every identical rotation, so a state that
        # is unique in its own basis stays unique in every rotated one
        checks.check_singlets(dim2, sites2, [psi2])
        unique, _ = checks.uniqueness_verdict(psi2, dim2, sites2, checks.AMP_TOL)
        checks.check_exit("uniq check", code, 0 if unique else 1)
        checks.require(out.startswith(f"unique: {str(unique).lower()}"),
                       "uniq check: wrong verdict")

    def check_catalog(code, out):
        checks.check_exit("catalog", code, 0)
        got = checks.parse_json("catalog", out)
        checks.check_singlets(3, 3, [checks.vector_from_terms(got["terms"], 3, 3)])

    def check_singlet(code, out):
        checks.check_exit("singlet", code, 0)
        got = checks.parse_json("singlet", out)
        checks.check_singlets(2, 4, [checks.vector_from_terms(t, 2, 4)
                                     for t in got["states"]])

    def check_context(code, out):
        checks.check_exit("context op", code, 0)
        got = checks.parse_json("context op", out)
        c, s = np.cos(phi), np.sin(phi)
        basis = np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]], dtype=complex)
        op = sum(e * np.outer(b, b.conj()) for e, b in zip((4, 5, 6), basis))
        std = np.diag([1.0, 2.0, 3.0])
        comm = float(np.max(np.abs(std @ op - op @ std)))
        checks.require(np.max(np.abs(_matrix(got["operator"]) - op)) <= 1e-12
                       and got["links_with_standard"] == 1
                       and abs(got["commutator_max_abs"] - comm) <= 1e-12,
                       "context op: wrong operator")

    def check_split(code, out):
        checks.check_exit("split", code, 0)
        got = checks.parse_json("split", out)
        a1, a2 = _matrix(got["real_part"]), _matrix(got["imag_part"])
        checks.require(np.max(np.abs(a1 + 1j * a2 - matrix)) <= 1e-12
                       and np.max(np.abs(a1 - a1.conj().T)) <= 1e-12
                       and np.max(np.abs(a2 - a2.conj().T)) <= 1e-12,
                       "split: wrong self-adjoint parts")

    # fig2a is searched from a fixed seed, as in realize.py
    plan.commands = [
        Command("states enumerate", ["states", "enumerate", str(CORPUS / "fig1.gd")],
                check_enumerate),
        Command("states classify", ["states", "classify", str(CORPUS / "fig3.gd"),
                                    "--json"], check_classify),
        Command("hull", ["hull", "chain3.gd", "--p", assignment(inside), "--json"],
                check_hull),
        Command("realize", ["realize", str(CORPUS / "fig2a.gd"), "--dim", "3",
                            "--seed", "0", "--restarts", "2", "--json"],
                check_realize),
        Command("saturate", ["saturate", str(CORPUS / "fig2b.gd")], check_saturate),
        Command("render", ["render", "ring5.gd", "--style", "greechie", "--json"],
                check_render),
        Command("uniq check", ["uniq", "check", str(CORPUS / "psi2.qs"),
                               "--rotations", "2", "--seed", str(seed)], check_uniq),
        Command("catalog", ["catalog", "psi3", "--json"], check_catalog),
        Command("singlet", ["singlet", "--dim", "2", "--sites", "4", "--json"],
                check_singlet),
        Command("context op", ["context", "op", "--phi", repr(phi), "--eigs", "4,5,6",
                               "--json"], check_context),
        Command("split", ["split", "--matrix", "matrix.txt", "--json"], check_split),
    ]
    return plan
