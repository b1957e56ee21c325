import numpy as np
import pytest

from qlctx import corpus
from qlctx.logic import make_diagram
from qlctx.realizability import (
    Realization,
    SUCCESS_PENALTY,
    _value_and_grad,
    born_probabilities,
    load_realization,
    saturate_orthogonality,
    save_realization,
    search_realization,
    verify_realization,
)


def fig1_vectors(phi):
    c, s = np.cos(phi), np.sin(phi)
    return Realization(
        {
            "B": np.array([1, 0, 0], dtype=complex),
            "C": np.array([0, 1, 0], dtype=complex),
            "A": np.array([0, 0, 1], dtype=complex),
            "D": np.array([c, s, 0], dtype=complex),
            "K": np.array([-s, c, 0], dtype=complex),
        },
        "real",
    )


class TestSaturation:
    def test_fig2b_contradiction(self):
        outcome = saturate_orthogonality(corpus.load("fig2b"))
        assert outcome.verdict == "contradiction"
        (step,) = outcome.derivation
        assert set(step.collinear) == {"B", "K"}
        assert set(step.orthogonal_pair) == {"A", "C"}
        assert "forced collinear" in outcome.render()

    def test_fig1_and_fig2a_pass(self):
        assert saturate_orthogonality(corpus.load("fig1")).verdict == "no_contradiction"
        assert saturate_orthogonality(corpus.load("fig2a")).verdict == "no_contradiction"

    def test_three_tripods_pairwise_double_linked(self):
        # tripods {p,q,r} / {p,s,t} / {t,u,q}: every tripod meets the other
        # two in two different legs, the same obstruction as the triangle
        d = make_diagram([("p", "q", "r"), ("p", "s", "t"), ("t", "u", "q")])
        assert saturate_orthogonality(d).verdict == "contradiction"

    def test_two_contexts_sharing_two_legs(self):
        d = make_diagram([("a", "b", "c"), ("a", "b", "d")])
        outcome = saturate_orthogonality(d)
        assert outcome.verdict == "contradiction"
        assert set(outcome.derivation[0].collinear) == {"c", "d"}

    def test_requires_dim3(self):
        with pytest.raises(ValueError):
            saturate_orthogonality(make_diagram([("a", "b"), ("b", "c")]))


class TestSearch:
    def test_fig1_found_and_verified(self):
        result = search_realization(corpus.load("fig1"), 3, seed=0, restarts=5)
        assert result.success
        assert result.penalty < SUCCESS_PENALTY
        ok, violations = verify_realization(corpus.load("fig1"), result.realization)
        assert ok, violations

    def test_fig2a_found(self):
        result = search_realization(corpus.load("fig2a"), 3, seed=0, restarts=5)
        assert result.success
        ok, _ = verify_realization(corpus.load("fig2a"), result.realization)
        assert ok

    def test_fig2b_fails_with_large_residual(self):
        result = search_realization(corpus.load("fig2b"), 3, seed=0, restarts=8)
        assert not result.success
        assert result.realization is None
        assert result.penalty > 0.01
        assert len(result.restart_penalties) == 8

    def test_deterministic_given_seed(self):
        a = search_realization(corpus.load("fig2b"), 3, seed=1, restarts=4)
        b = search_realization(corpus.load("fig2b"), 3, seed=1, restarts=4)
        assert a.penalty == b.penalty
        assert a.restart_penalties == b.restart_penalties
        assert a.best_restart == b.best_restart

    def test_complex_flag(self):
        result = search_realization(
            corpus.load("fig1"), 3, seed=0, restarts=3, complex_space=True
        )
        assert result.success
        assert result.realization.space == "complex"
        ok, _ = verify_realization(corpus.load("fig1"), result.realization)
        assert ok

    def test_single_context_standard_basis_easy(self):
        d = make_diagram([("x", "y", "z")])
        result = search_realization(d, 3, seed=0, restarts=2)
        assert result.success

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        d = corpus.load("fig2b")
        n = len(d.atoms)
        orth = np.zeros((n, n), dtype=bool)
        index = {a: i for i, a in enumerate(d.atoms)}
        for ctx in d.contexts:
            for i in range(3):
                for j in range(i + 1, 3):
                    orth[index[ctx[i]], index[ctx[j]]] = True
                    orth[index[ctx[j]], index[ctx[i]]] = True
        offdiag = ~np.eye(n, dtype=bool)
        for complex_space in (False, True):
            width = 6 if complex_space else 3
            args = (n, width, orth, offdiag, 0.95**2, complex_space)
            x = rng.standard_normal(n * width)
            _, grad = _value_and_grad(x, *args)
            eps = 1e-6
            for k in rng.choice(x.size, size=8, replace=False):
                xp, xm = x.copy(), x.copy()
                xp[k] += eps
                xm[k] -= eps
                fd = (_value_and_grad(xp, *args)[0]
                      - _value_and_grad(xm, *args)[0]) / (2 * eps)
                assert abs(fd - grad[k]) < 1e-5


class TestSoundness:
    def test_saturation_contradiction_implies_search_failure(self):
        for d in (
            corpus.load("fig2b"),
            make_diagram([("p", "q", "r"), ("p", "s", "t"), ("t", "u", "q")]),
        ):
            assert saturate_orthogonality(d).verdict == "contradiction"
            for seed in (0, 1, 2):
                result = search_realization(d, 3, seed=seed, restarts=6)
                assert not result.success
                assert result.penalty > 0.01

    def test_verified_realizations_never_refuted(self):
        for name in ("fig1", "fig2a"):
            d = corpus.load(name)
            result = search_realization(d, 3, seed=0, restarts=5)
            ok, _ = verify_realization(d, result.realization)
            assert ok
            assert saturate_orthogonality(d).verdict == "no_contradiction"


class TestVerify:
    def test_closed_form_fig1_vectors(self):
        ok, violations = verify_realization(
            corpus.load("fig1"), fig1_vectors(np.pi / 7)
        )
        assert ok and violations == []

    def test_collapsed_angle_collides(self):
        ok, violations = verify_realization(corpus.load("fig1"), fig1_vectors(0.0))
        assert not ok
        kinds = {(kind, frozenset(atoms)) for kind, atoms, _ in violations}
        assert ("collinear", frozenset({"B", "D"})) in kinds

    def test_norm_violation_reported(self):
        real = fig1_vectors(np.pi / 7)
        real.vectors["B"] = real.vectors["B"] * 1.1
        ok, violations = verify_realization(corpus.load("fig1"), real)
        assert not ok
        assert any(kind == "norm" and atoms == ("B",) for kind, atoms, _ in violations)

    def test_single_context_standard_basis(self):
        d = make_diagram([("x", "y", "z")])
        real = Realization(
            {a: np.eye(3, dtype=complex)[i] for i, a in enumerate("xyz")}, "real"
        )
        ok, violations = verify_realization(d, real)
        assert ok and violations == []

    def test_missing_atom_raises(self):
        real = fig1_vectors(np.pi / 7)
        del real.vectors["K"]
        with pytest.raises(ValueError, match="missing"):
            verify_realization(corpus.load("fig1"), real)

    def test_dimension_mismatch_raises(self):
        real = fig1_vectors(np.pi / 7)
        real.vectors["K"] = np.array([1, 0], dtype=complex)
        with pytest.raises(ValueError, match="dimensions"):
            verify_realization(corpus.load("fig1"), real)


class TestBorn:
    def test_state_on_shared_leg(self):
        probs = born_probabilities(fig1_vectors(np.pi / 7), [0, 0, 1])
        assert probs["A"] == pytest.approx(1.0)
        for atom in "BCDK":
            assert probs[atom] == pytest.approx(0.0, abs=1e-12)

    def test_quarter_turn_probabilities(self):
        # inner products of (1,0,0) with the rotated pair at phi = pi/4
        probs = born_probabilities(fig1_vectors(np.pi / 4), [1, 0, 0])
        assert probs["B"] == pytest.approx(1.0)
        assert probs["C"] == pytest.approx(0.0, abs=1e-12)
        assert probs["A"] == pytest.approx(0.0, abs=1e-12)
        assert probs["D"] == pytest.approx(0.5)
        assert probs["K"] == pytest.approx(0.5)

    def test_context_sums_for_random_states(self):
        d = corpus.load("fig1")
        real = fig1_vectors(np.pi / 5)
        rng = np.random.default_rng(8)
        for _ in range(100):
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            psi /= np.linalg.norm(psi)
            probs = born_probabilities(real, psi)
            for ctx in d.contexts:
                assert abs(sum(probs[a] for a in ctx) - 1.0) < 1e-9

    def test_requires_unit_state(self):
        with pytest.raises(ValueError, match="normalized"):
            born_probabilities(fig1_vectors(1.0), [2, 0, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            born_probabilities(fig1_vectors(1.0), [1, 0, 0, 0])


class TestSerialization:
    def test_round_trip(self):
        real = fig1_vectors(np.pi / 7)
        again = load_realization(save_realization(real))
        assert again.space == "real"
        for atom, v in real.vectors.items():
            assert np.allclose(again.vectors[atom], v)

    def test_complex_round_trip(self):
        result = search_realization(
            corpus.load("fig1"), 3, seed=3, restarts=2, complex_space=True
        )
        text = save_realization(result.realization)
        again = load_realization(text)
        for atom, v in result.realization.vectors.items():
            assert np.allclose(again.vectors[atom], v)

    def test_malformed_lines(self):
        with pytest.raises(ValueError, match="line 1"):
            load_realization("A 1.0 0.0 2.0\n")
        with pytest.raises(ValueError, match="line 2: 'nan' is not a finite"):
            load_realization("A 1 0\nB nan 0\n")
        with pytest.raises(ValueError):
            load_realization("")
