"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and prints
one PASS/FAIL line (visible with ``pytest -s``).
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from qlctx import corpus, realizability
from qlctx.contexts import context_operator, two_tripod_bases
from qlctx.linalg import dyad
from qlctx.logic import classify, hull_membership, two_valued_states
from qlctx.realizability import (
    DISTINCTNESS_MARGIN,
    SUCCESS_PENALTY,
    _numerical_search,
    saturate_orthogonality,
    search_realization,
    verify_realization,
)
from qlctx.states import catalog_state, is_form_invariant, singlet_subspace
from qlctx.uniqueness import check_uniqueness, check_uniqueness_rotated

from oracles import oracle_two_valued, random_diagram


@contextmanager
def criterion(number, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[acceptance] criterion {number:2d} ({label}): "
              f"{'PASS' if ok else 'FAIL'}")


def test_criterion_01_gamma3_nonseparability():
    with criterion(1, "wheel-pair nonseparability"):
        start = time.perf_counter()
        diagram = corpus.load("fig3")
        states = two_valued_states(diagram)
        assert states, "two-valued states must exist"
        assert all(("a" in s) == ("b" in s) for s in states)
        result = classify(diagram)
        assert result.kind == "unital_nonseparating"
        assert ("a", "b") in result.witness_pairs
        assert time.perf_counter() - start < 1.0


def test_criterion_02_fig1_enumeration():
    with criterion(2, "two-context enumeration"):
        diagram = corpus.load("fig1")
        states = two_valued_states(diagram)
        assert len(states) == 5
        assert set(states) == set(oracle_two_valued(diagram))
        assert classify(diagram).kind == "separating"


def test_criterion_03_singlet_dimensions():
    with criterion(3, "singlet subspace dimensions"):
        assert len(singlet_subspace(3, 2)) == 1
        assert len(singlet_subspace(3, 3)) == 1
        basis4 = singlet_subspace(3, 4)
        assert len(basis4) == 3
        proj = sum(np.outer(b.coeffs, b.coeffs.conj()) for b in basis4)
        for name in ("psi4_1", "psi4_2", "psi4_3"):
            psi = catalog_state(name)
            assert np.linalg.norm(proj @ psi.coeffs) >= 1 - 1e-6
        (k2,) = singlet_subspace(3, 2)
        assert k2.overlap(catalog_state("psi2")) >= 1 - 1e-9
        (k3,) = singlet_subspace(3, 3)
        assert k3.overlap(catalog_state("psi3")) >= 1 - 1e-9


def test_criterion_04_uniqueness_verdicts():
    with criterion(4, "uniqueness verdicts"):
        tol = 1e-9
        assert check_uniqueness(catalog_state("psi2"), tol).overall
        assert check_uniqueness(catalog_state("ghzm"), tol).overall
        psi3_report = check_uniqueness(catalog_state("psi3"), tol)
        assert not psi3_report.overall
        assert set(psi3_report.possibilities[(0, "-")][1]) == {"+", "0"}
        for name in ("psi4_1", "psi4_2", "psi4_3"):
            assert not check_uniqueness(catalog_state(name), tol).overall


def _zyz_euler(u):
    beta = 2.0 * np.arctan2(abs(u[1, 0]), abs(u[0, 0]))
    sum_ag = -2.0 * np.angle(u[0, 0])
    diff_ag = 2.0 * np.angle(u[1, 0])
    return (sum_ag + diff_ag) / 2.0, beta, (sum_ag - diff_ag) / 2.0


def _distance_to_quarter_turns(angle):
    m = angle % (np.pi / 2)
    return min(m, np.pi / 2 - m)


def test_criterion_05_ghzm_direction_dependence():
    with criterion(5, "GHZ-M direction dependence"):
        results = check_uniqueness_rotated(catalog_state("ghzm"), trials=50, seed=0)
        identity = results[0]
        assert identity.rotation.angle == 0.0
        assert identity.report.overall
        assert identity.report.term_count == 2
        generic = 0
        for entry in results[1:]:
            angles = _zyz_euler(entry.rotation.unitary)
            if all(_distance_to_quarter_turns(a) >= 0.1 for a in angles):
                generic += 1
                assert not entry.report.overall
                assert entry.report.term_count == 8
        assert generic >= 10  # the seeded sample is mostly generic


def test_criterion_06_form_invariance():
    with criterion(6, "form invariance"):
        for name in ("psi2", "psi3"):
            ok, worst = is_form_invariant(
                catalog_state(name), trials=100, seed=0, tol=1e-9
            )
            assert ok and worst >= 1 - 1e-9
        for vec in singlet_subspace(3, 4):
            ok, worst = is_form_invariant(vec, trials=100, seed=0, tol=1e-9)
            assert ok and worst >= 1 - 1e-9
        ok, _ = is_form_invariant(catalog_state("ghzm"), trials=100, seed=0)
        assert not ok


def test_criterion_07_realizability_split(monkeypatch):
    with criterion(7, "realizability split"):
        fig2a = corpus.load("fig2a")
        assert saturate_orthogonality(fig2a).verdict == "no_contradiction"
        found = search_realization(fig2a, 3, seed=0, restarts=20)
        assert found.success and found.penalty < SUCCESS_PENALTY
        ok, _ = verify_realization(fig2a, found.realization)
        assert ok

        fig2b = corpus.load("fig2b")
        outcome = saturate_orthogonality(fig2b)
        assert outcome.verdict == "contradiction"
        assert "forced collinear" in outcome.render()
        # the numerical stage alone fails on every restart ...
        missing = _numerical_search(fig2b, 3, 0, 50, False, DISTINCTNESS_MARGIN)
        assert not missing.success
        assert missing.penalty > 0.01
        assert min(missing.restart_penalties) > 0.01
        # ... and the search returns the derivation without running it
        monkeypatch.setattr(realizability, "minimize", None)
        proved = search_realization(fig2b, 3, seed=0, restarts=50)
        assert proved.refutation == outcome
        assert not proved.success and proved.restart_penalties == ()


def test_criterion_08_rotated_context_operator():
    with criterion(8, "interlinked context operators"):
        phi = np.pi / 5
        standard, rotated = two_tripod_bases(phi)
        ctx_rot = context_operator(rotated, (4.0, 5.0, 6.0))
        c, s = np.cos(phi), np.sin(phi)
        e1, e2, e3 = 4.0, 5.0, 6.0
        reference = np.array(
            [
                [e1 * c * c + e2 * s * s, (e1 - e2) * s * c, 0.0],
                [(e1 - e2) * s * c, e2 * c * c + e1 * s * s, 0.0],
                [0.0, 0.0, e3],
            ]
        )
        assert np.max(np.abs(ctx_rot.operator - reference)) < 1e-12
        ctx_std = context_operator(standard, (1.0, 2.0, 3.0))
        comm = (ctx_std.operator @ ctx_rot.operator
                - ctx_rot.operator @ ctx_std.operator)
        assert np.max(np.abs(comm)) > 1e-6
        shared = dyad([0, 0, 1])
        for op in (ctx_std.operator, ctx_rot.operator):
            assert np.max(np.abs(op @ shared - shared @ op)) < 1e-12


def test_criterion_09_operator_split():
    with criterion(9, "self-adjoint operator split"):
        from qlctx.contexts import split_selfadjoint

        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a1, a2 = split_selfadjoint(a)
            for part in (a1, a2):
                assert np.max(np.abs(part - part.conj().T)) < 1e-12
            assert np.max(np.abs(a - (a1 + 1j * a2))) < 1e-12


def test_criterion_10_hull_membership():
    with criterion(10, "classical polytope membership"):
        diagram = corpus.load("fig1")
        tol = Fraction(1, 10**9)

        inside = hull_membership(diagram, {"A": 1}, tol=1e-9)
        assert inside.inside
        assert sum(inside.weights) == 1
        assert all(w >= 0 for w in inside.weights)
        for atom in diagram.atoms:
            got = sum(
                w for w, s in zip(inside.weights, inside.states) if atom in s
            )
            want = Fraction(1) if atom == "A" else Fraction(0)
            assert abs(got - want) <= tol

        outside = hull_membership(
            diagram, {"A": 1, "B": Fraction(1, 2)}, tol=1e-9
        )
        assert not outside.inside
        target = {"A": Fraction(1), "B": Fraction(1, 2)}
        f_p = sum(
            outside.functional[a] * target.get(a, 0) for a in diagram.atoms
        )
        assert f_p > outside.offset
        assert outside.margin == f_p - outside.offset > 0
        for s in outside.states:
            assert sum(outside.functional[a] for a in s) <= outside.offset


def test_criterion_11_oracle_equivalence():
    with criterion(11, "enumeration/oracle equivalence"):
        for name in corpus.DIAGRAM_IDS:
            diagram = corpus.load(name)
            assert two_valued_states(diagram) == oracle_two_valued(diagram)
        rng = np.random.default_rng(2024)
        for _ in range(20):
            diagram = random_diagram(rng, max_atoms=18)
            assert two_valued_states(diagram) == oracle_two_valued(diagram)
