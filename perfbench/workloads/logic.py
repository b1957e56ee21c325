"""``logic`` workload: parse, enumerate, classify and hull, in-process.

Inputs are state-rich tripod chains and rings (F(n+3) and L(n) states) and
state-free Kochen-Specker sets built from ray coordinates, where the
backtracking meets nothing but dead ends.  Each hull runs at one point
inside the polytope (settled by the first exact LP) and one outside (which
falls through to the band LP and a Farkas certificate).  Sizes are chosen
so that every kind of job takes a large share of the pass.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from qlctx import logic

import checks
from inputs import CEG_RAYS, ks_from_rays, tripod_chain, tripod_ring
from workloads import (COMMAND_REPEATS, Command, Job, Plan, assignment, rng_for,
                       write)

ENUMERATED = ((tripod_chain, 16), (tripod_ring, 16))
KS_COPIES = 40
# The simplex's pivots depend on the point tested: between seeds the LP
# work of a pass varied by 8%.  Hull points are therefore drawn from fixed
# streams (one per hull), and the seed only renames the atoms.
HULLS = ((tripod_chain, 6), (tripod_chain, 6), (tripod_ring, 7), (tripod_ring, 7))


def _parse_job(d):
    text = d.gd_text()

    def check(g):
        checks.require(g.contexts == d.contexts, f"{d.name}: contexts misread")

    return Job(f"parse {d.name}", lambda: logic.parse_diagram(text), check)


def _state_jobs(d, g):
    validated = {}

    def check_enumeration(states):
        validated["states"] = checks.check_states(d, states)

    def check_class(result):
        checks.check_classification(d, validated["states"], result.kind,
                                    result.witness_atoms, result.witness_pairs)

    return [Job(f"enumerate {d.name}", lambda: logic.two_valued_states(g),
                check_enumeration),
            Job(f"classify {d.name}", lambda: logic.classify(g), check_class)]


def _hull_jobs(d, g, rng):
    states = checks.own_states(d)
    inside = checks.mixture_point(d, states, rng)
    outside = checks.shifted_point(d, inside)

    def check_inside(r):
        checks.require(r.inside, f"{d.name}: inside point judged outside")
        checks.check_hull_inside(d, states, inside, r.states, r.weights)

    def check_outside(r):
        checks.require(not r.inside, f"{d.name}: outside point judged inside")
        checks.check_hull_outside(d, states, outside, r.functional, r.offset,
                                  r.margin)

    return [Job(f"hull inside {d.name}",
                lambda: logic.hull_membership(g, inside), check_inside),
            Job(f"hull outside {d.name}",
                lambda: logic.hull_membership(g, outside), check_outside)]


def build(seed: int, folder: Path) -> Plan:
    rng = rng_for(seed, "logic")
    # the NumPy part drifts unlike the Fraction and backtracking work here
    plan = Plan(folder, reference=("python",))
    for make, n in ENUMERATED:
        d = make(n, rng)
        write(folder, d.name + ".gd", d.gd_text())
        plan.jobs.append(_parse_job(d))
        plan.jobs += _state_jobs(d, logic.parse_diagram(d.gd_text()))
    for k in range(KS_COPIES):
        d = ks_from_rays(CEG_RAYS, rng, f"ceg18_{k}")
        write(folder, d.name + ".gd", d.gd_text())
        plan.jobs += _state_jobs(d, logic.parse_diagram(d.gd_text()))
    for k, (make, n) in enumerate(HULLS):
        d = make(n, rng, f"hull{k}")
        write(folder, d.name + ".gd", d.gd_text())
        plan.jobs += _hull_jobs(d, logic.parse_diagram(d.gd_text()),
                                np.random.default_rng(k))
    plan.commands = _commands(rng, folder)
    small = tripod_chain(3, rng, "warmup")
    plan.warmup = lambda: [job.run() for job in _hull_jobs(
        small, logic.parse_diagram(small.gd_text()), rng)]
    return plan


def _commands(rng, folder):
    hull = tripod_chain(7, rng, "cli_chain7")
    states = checks.own_states(hull)
    point = checks.mixture_point(hull, states, np.random.default_rng(len(HULLS)))
    outside = checks.shifted_point(hull, point)
    write(folder, hull.name + ".gd", hull.gd_text())

    def check_hull(code, out):
        checks.check_exit("hull", code, 1)
        got = checks.parse_json("hull", out)
        checks.require(got["verdict"] == "outside", "hull: wrong verdict")
        checks.check_hull_outside(hull, states, outside, got["functional"],
                                  got["offset"], got["margin"])

    args = ["hull", hull.name + ".gd", "--p", assignment(outside), "--json"]
    return COMMAND_REPEATS * [Command("hull", args, check_hull)]
