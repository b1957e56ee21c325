"""Each checker accepts a correct output and rejects a corrupted one.

Run with ``python3 -m pytest perfbench/test_checks.py`` from the repository
root.  None of these tests runs qlctx.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import checks
from inputs import (CEG_RAYS, Diagram, ks_from_rays, lucas, parity_certificate,
                    singlet_product, spin1_pair_singlet, tripod_chain, tripod_ring)
from workloads import cli

CHAIN3 = Diagram("chain3", "chain", (("c0", "m0", "c1"), ("c1", "m1", "c2"),
                                     ("c2", "m2", "c3")), 8)


def chain3_realization(t: float = np.pi / 4) -> dict:
    """Unit vectors for CHAIN3 in R^3, orthogonal within every context; the
    middle tripod is turned by ``t`` about the shared leg c1."""
    e1, e2, e3 = np.eye(3)
    p = np.pi / 3
    c2 = np.array([np.cos(t), np.sin(t), 0.0])
    m1 = np.array([-np.sin(t), np.cos(t), 0.0])
    return {"c0": e1, "m0": e2, "c1": e3, "m1": m1, "c2": c2,
            "m2": np.cos(p) * e3 + np.sin(p) * m1,
            "c3": -np.sin(p) * e3 + np.cos(p) * m1}


def test_closed_form_counts_match_the_own_search():
    rng = np.random.default_rng(0)
    for n in range(1, 8):
        checks.own_states(tripod_chain(n, rng))
    for n in range(3, 9):
        assert len(checks.own_states(tripod_ring(n, rng))) == lucas(n)
    ks = ks_from_rays(CEG_RAYS, rng, "ceg")
    assert len(ks.contexts) == 9 and parity_certificate(ks.contexts)
    assert checks.own_states(ks) == []


def test_dropped_or_broken_state_is_rejected():
    states = checks.own_states(CHAIN3)
    with pytest.raises(checks.Mismatch, match="8"):
        checks.check_states(CHAIN3, states[1:])
    extra = next(a for a in CHAIN3.contexts[0] if a not in states[0])
    broken = [states[0] | {extra}] + states[1:]
    with pytest.raises(checks.Mismatch, match="breaks context"):
        checks.check_states(CHAIN3, broken)
    with pytest.raises(checks.Mismatch, match="repeated"):
        checks.check_states(CHAIN3, states[:-1] + states[:1])


def test_wrong_class_is_rejected():
    states = checks.own_states(CHAIN3)
    checks.check_classification(CHAIN3, states, "separating")
    with pytest.raises(checks.Mismatch):
        checks.check_classification(CHAIN3, states, "unital_nonseparating",
                                    witness_pairs=(("c0", "c3"),))


def test_weight_off_by_a_thousandth_is_rejected():
    states = checks.own_states(CHAIN3)
    chosen = states[:3]
    weights = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    p = {a: sum((w for s, w in zip(chosen, weights) if a in s), Fraction(0))
         for a in CHAIN3.atoms}
    checks.check_hull_inside(CHAIN3, states, p, chosen, weights)
    off = [weights[0] + Fraction(1, 1000)] + weights[1:]
    with pytest.raises(checks.Mismatch):
        checks.check_hull_inside(CHAIN3, states, p, chosen, off)


def test_bad_farkas_functional_is_rejected():
    states = checks.own_states(CHAIN3)
    q = checks.shifted_point(CHAIN3, checks.mixture_point(
        CHAIN3, states, np.random.default_rng(2)))
    # the first context sums to 1 on every state and to 1 +- 1/7 at q
    ctx = CHAIN3.contexts[0]
    total = sum(q[a] for a in ctx)
    sign = 1 if total > 1 else -1
    f = {a: Fraction(sign) if a in ctx else Fraction(0) for a in CHAIN3.atoms}
    c = Fraction(sign)
    checks.check_hull_outside(CHAIN3, states, q, f, c, sign * (total - 1))
    with pytest.raises(checks.Mismatch):
        checks.check_hull_outside(CHAIN3, states, q, f, c,
                                  sign * (total - 1) + Fraction(1, 1000))
    with pytest.raises(checks.Mismatch):
        checks.check_hull_outside(CHAIN3, states, q, f, c - 1, sign * (total - 1))


def test_one_rotated_realization_vector_is_rejected():
    vectors = chain3_realization()
    checks.check_realization(CHAIN3, vectors, 3)
    t = 0.01
    turn = np.array([[np.cos(t), -np.sin(t), 0], [np.sin(t), np.cos(t), 0], [0, 0, 1]])
    vectors["c0"] = turn @ vectors["c0"]
    with pytest.raises(checks.Mismatch, match="not orthogonal"):
        checks.check_realization(CHAIN3, vectors, 3)


def test_collinear_realization_is_rejected():
    vectors = chain3_realization(t=0.0)  # c2 = c0: orthogonal, yet one ray
    with pytest.raises(checks.Mismatch, match="collinear"):
        checks.check_realization(CHAIN3, vectors, 3)


def test_refutation_must_cite_real_orthogonalities():
    triangle = Diagram("t", "ring", (("A", "B", "C"), ("A", "D", "K"),
                                     ("K", "L", "C")), 4)
    checks.check_refutation(triangle, ("B", "K"), ("A", "C"))
    with pytest.raises(checks.Mismatch):
        checks.check_refutation(triangle, ("B", "L"), ("A", "C"))


def test_singlet_checks():
    pair = spin1_pair_singlet().reshape(-1)
    checks.check_singlets(3, 2, [pair])
    with pytest.raises(checks.Mismatch, match="total spin"):
        checks.check_singlets(3, 2, [np.roll(pair, 1)])
    with pytest.raises(checks.Mismatch, match="expected 1"):
        checks.check_singlets(3, 2, [pair, pair])


def test_rotated_uniqueness_verdicts():
    singlets = singlet_product(np.random.default_rng(3), "s")
    coeffs = singlets.coeffs
    axis, angle = (0.3, -0.2, 0.9), 1.1
    own = checks.apply_each_site(coeffs, 3, 7, checks.rotation(3, axis, angle), False)
    # form invariance: the rotated product of singlets is the same ray
    assert abs(abs(np.vdot(coeffs, own)) - 1) < 1e-12
    verdict, terms = checks.uniqueness_verdict(coeffs, 3, 7, checks.AMP_TOL)
    trials = [((0, 0, 1), 0.0, verdict, terms), (axis, angle, verdict, terms)]
    checks.check_rotated_uniqueness(coeffs, 3, 7, trials)
    flipped = trials[:1] + [(axis, angle, not verdict, terms)]
    with pytest.raises(checks.Mismatch):
        checks.check_rotated_uniqueness(coeffs, 3, 7, flipped)


def test_rotation_closed_forms_are_unitary_and_rotate_spin():
    for d in (2, 3):
        u = checks.rotation(d, (0, 0, 1), 0.7)
        assert np.allclose(u.conj().T @ u, np.eye(d))
        sx, sy, sz, _ = checks.spin_operators(d)
        # a rotation about z commutes with S_z and turns S_x toward S_y
        assert np.allclose(u @ sz, sz @ u)
        assert np.allclose(u.conj().T @ sx @ u, np.cos(0.7) * sx - np.sin(0.7) * sy)


def test_wrong_exit_code_is_rejected(tmp_path):
    checks.check_exit("x", 1, 1)
    with pytest.raises(checks.Mismatch, match="exit code 0"):
        checks.check_exit("x", 0, 1)
    plan = cli.build(0, tmp_path)
    saturate = next(c for c in plan.commands if c.name == "saturate")
    text = ("atoms B, K forced collinear: both are orthogonal to the orthogonal "
            "pair {A, C}\nrefuted: two distinct atoms cannot share a ray\n")
    saturate.check(1, text)
    with pytest.raises(checks.Mismatch):
        saturate.check(0, text)
