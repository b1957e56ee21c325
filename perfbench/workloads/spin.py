"""``spin`` workload: singlet subspaces, rotated uniqueness, form invariance.

Dense (d^n)^2 matrices dominate here: the Casimir of 6 spin-1 sites, and
the Kronecker product ``apply_local`` builds for every rotation of a
7-site spin-1 or 12-site spin-1/2 state.  States are benchmark-built
products, GHZ states and a 7-site product of spin-1 singlets.
"""

from __future__ import annotations

from pathlib import Path

from qlctx import states, uniqueness

import checks
from inputs import ghz_state, product_state, singlet_product
from workloads import COMMAND_REPEATS, Command, Job, Plan, rng_for, write

SINGLETS = ((3, 6), (3, 5), (2, 8))


def _as_program_state(s):
    return states.MultipartiteState(s.sites, s.dim, s.coeffs)


def _singlet_job(d, n):
    return Job(f"singlet {d} {n}", lambda: states.singlet_subspace(d, n),
               lambda basis: checks.check_singlets(d, n, [v.coeffs for v in basis]))


def _rotated_job(s, trials, seed):
    psi = _as_program_state(s)

    def check(results):
        checks.require(len(results) == trials + 1, f"{s.name}: trial count")
        checks.check_rotated_uniqueness(
            psi.coeffs, s.dim, s.sites,
            [(r.rotation.axis, r.rotation.angle, r.report.overall,
              r.report.term_count) for r in results])

    return Job(f"uniqueness {s.name} x{trials}",
               lambda: uniqueness.check_uniqueness_rotated(psi, trials, seed=seed),
               check)


def build(seed: int, folder: Path) -> Plan:
    rng = rng_for(seed, "spin")
    plan = Plan(folder)
    plan.jobs += [_singlet_job(d, n) for d, n in SINGLETS]
    product = product_state(7, 3, rng, "product7")
    singlet = singlet_product(rng, "singlets7")
    ghz = ghz_state(12, 2, rng, "ghz12")
    for s in (product, singlet, ghz):
        write(folder, s.name + ".qs", s.qs_text())
    plan.jobs += [_rotated_job(product, 2, seed), _rotated_job(singlet, 2, seed),
                  _rotated_job(ghz, 1, seed)]
    invariant = _as_program_state(singlet)
    plan.jobs.append(Job(
        "form invariance singlets7",
        lambda: states.is_form_invariant(invariant, trials=2, seed=seed),
        lambda r: checks.check_form_invariant(*r)))
    plan.commands = _commands(rng, folder, seed)
    plan.warmup = lambda: [states.singlet_subspace(3, 3),
                           _rotated_job(product_state(3, 3, rng, "w"), 1, seed).run()]
    return plan


def _commands(rng, folder, seed):
    product = product_state(7, 3, rng, "cli_product7")
    write(folder, product.name + ".qs", product.qs_text())

    def check(code, out):
        got = checks.parse_json("uniq check", out)
        trials = [((0.0, 0.0, 1.0), 0.0, all(got["site_verdicts"]), got["term_count"])]
        trials += [(r["axis"], r["angle"], r["unique"], r["term_count"])
                   for r in got["rotations"]]
        checks.check_rotated_uniqueness(product.coeffs, 3, 7, trials)
        unique = all(t[2] for t in trials)
        checks.check_exit("uniq check", code, 0 if unique else 1)
        checks.require(got["unique"] == unique, "uniq check: wrong overall verdict")

    args = ["uniq", "check", product.name + ".qs", "--rotations", "2", "--seed",
            str(seed), "--json"]
    return COMMAND_REPEATS * [Command("uniq check", args, check)]
