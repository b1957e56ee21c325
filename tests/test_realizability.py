import math

import numpy as np
import pytest

from oracles import (
    random_diagram,
    reference_saturate_orthogonality,
    scipy_minimize,
    sequential_polish,
    tripod_chain,
    tripod_ring,
)
from qlctx import corpus, realizability
from qlctx.logic import make_diagram
from qlctx.realizability import (
    LINE_SEARCH_EVALS,
    MAXFUN,
    MAXITER,
    Realization,
    SUCCESS_PENALTY,
    _colour_classes,
    _penalty_of,
    _polish,
    _value_and_grad,
    born_probabilities,
    load_realization,
    minimize,
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


def orthogonality_mask(diagram):
    n = len(diagram.atoms)
    index = {a: i for i, a in enumerate(diagram.atoms)}
    orth = np.zeros((n, n), dtype=bool)
    for ctx in diagram.contexts:
        for x in ctx:
            for y in ctx:
                orth[index[x], index[y]] = x != y
    return orth


def tadpole(tail: int):
    """A tripod triangle with a chain of ``tail`` tripods, listed first,
    hanging off one of its middle legs: refutable by saturation."""
    chain = [(f"t{i}", f"s{i}", f"t{i + 1}") for i in range(tail)]
    chain[-1] = (f"t{tail - 1}", f"s{tail - 1}", "m0")
    return make_diagram(chain + [("c0", "m0", "c1"), ("c1", "m1", "c2"),
                                 ("c2", "m2", "c0")])


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

    def test_matches_pair_scan_on_random_diagrams(self):
        rng = np.random.default_rng(0)
        verdicts = set()
        for _ in range(200):
            d = random_diagram(rng)
            outcome = saturate_orthogonality(d)
            assert outcome == reference_saturate_orthogonality(d)
            verdicts.add(outcome.verdict)
        assert verdicts == {"contradiction", "no_contradiction"}

    @pytest.mark.parametrize("diagram", [
        tadpole(150), tripod_chain(150), corpus.load("fig1"),
        corpus.load("fig2a"), corpus.load("fig2b"), corpus.load("fig3"),
        tripod_ring(3),
    ], ids=["tadpole150", "chain150", "fig1", "fig2a", "fig2b", "fig3",
            "triangle"])
    def test_matches_pair_scan(self, diagram):
        assert saturate_orthogonality(diagram) == \
            reference_saturate_orthogonality(diagram)


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

    # the searches the CLI tests and the benchmark's cli workload run
    @pytest.mark.parametrize("name, restarts", [
        ("fig1", 3), ("fig1", 5), ("fig2a", 2), ("fig2a", 4), ("fig2a", 5),
    ])
    def test_seed_0_searches_succeed(self, name, restarts):
        d = corpus.load(name)
        result = search_realization(d, 3, seed=0, restarts=restarts)
        assert result.success
        assert verify_realization(d, result.realization)[0]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        d = corpus.load("fig2b")
        n = len(d.atoms)
        orth = orthogonality_mask(d)
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


class TestMinimize:
    def test_convex_quadratic_reaches_minimizer(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        a = q @ np.diag(np.linspace(1e3, 1e4, 10)) @ q.T
        target = rng.standard_normal(10)

        def fun(x):
            return 0.5 * (x - target) @ a @ (x - target), a @ (x - target)

        result = minimize(fun, np.zeros(10))
        assert np.max(np.abs(result.x - target)) <= 1e-10
        assert result.nit <= MAXITER
        assert result.nfev <= MAXFUN + LINE_SEARCH_EVALS

    def test_nan_region_is_a_step_too_long(self):
        # the value is NaN for x0 < 0, where the unconstrained minimizer is
        def fun(x):
            value = math.nan if x[0] < 0 else (x[0] + 1) ** 2 + x[1] ** 2
            return value, np.array([2 * (x[0] + 1), 2 * x[1]])

        x0 = np.array([0.01, 1.0])
        result = minimize(fun, x0)
        assert np.isfinite(result.x).all()
        assert math.isfinite(result.fun)
        assert result.fun <= fun(x0)[0]

    def test_search_calls_minimize_through_the_module(self, monkeypatch):
        # benchmark tracing replaces realizability.minimize by name and
        # reads nit and nfev from what it returns
        calls = []

        def counted(*args, **kwargs):
            result = minimize(*args, **kwargs)
            calls.append((result.nit, result.nfev))
            return result

        monkeypatch.setattr(realizability, "minimize", counted)
        search_realization(corpus.load("fig1"), 3, seed=0, restarts=3)
        assert len(calls) == 3
        assert all(nit >= 1 and nfev >= nit for nit, nfev in calls)


# chains and rings of tripods are realizable in R^3 and C^3
WITNESS_GRID = [(make, n, complex_space, seed)
                for make, n in ((tripod_chain, 4), (tripod_chain, 6),
                                (tripod_chain, 8), (tripod_ring, 6),
                                (tripod_ring, 8))
                for complex_space in (False, True) for seed in (0, 1)]


def witness_count(monkeypatch, minimizer, restarts=10):
    monkeypatch.setattr(realizability, "minimize", minimizer)
    found = 0
    for make, n, complex_space, seed in WITNESS_GRID:
        result = search_realization(make(n), 3, seed=seed, restarts=restarts,
                                    complex_space=complex_space)
        found += sum(p < SUCCESS_PENALTY for p in result.restart_penalties)
    return found


class TestAgainstScipy:
    def test_finds_as_many_witnesses_as_lbfgsb_less_5_percent(self, monkeypatch):
        restarts = 10
        ours = witness_count(monkeypatch, minimize, restarts)
        theirs = witness_count(monkeypatch, scipy_minimize, restarts)
        run = len(WITNESS_GRID) * restarts
        assert ours >= theirs - 0.05 * run, (ours, theirs, run)


class TestPolish:
    @pytest.mark.parametrize("complex_space", [False, True])
    def test_never_raises_the_penalty(self, complex_space):
        rng = np.random.default_rng(5)
        width = 6 if complex_space else 3
        for d in (tripod_chain(6), tripod_ring(8), corpus.load("fig2b"),
                  corpus.load("fig3")):
            orth = orthogonality_mask(d)
            offdiag = ~np.eye(len(orth), dtype=bool)
            classes = _colour_classes(orth)
            for _ in range(5):
                vm = rng.standard_normal((len(orth), width))
                vm /= np.linalg.norm(vm, axis=1, keepdims=True)
                start = _penalty_of(vm, orth, offdiag, 0.95**2, complex_space)
                out, pen = _polish(vm, classes, orth, offdiag, 0.95**2,
                                   complex_space)
                assert pen <= start
                assert pen == _penalty_of(out, orth, offdiag, 0.95**2,
                                          complex_space)
                assert np.allclose(np.linalg.norm(out, axis=1), 1.0)

    @pytest.mark.parametrize("diagram, complex_space", [
        (tripod_chain(6), False), (tripod_ring(8), True),
        (corpus.load("fig2a"), False),
    ], ids=["chain6", "ring8-complex", "fig2a"])
    def test_restores_a_perturbed_witness(self, diagram, complex_space):
        found = search_realization(diagram, 3, seed=0, restarts=4,
                                   complex_space=complex_space)
        vectors = [found.realization.vectors[a] for a in diagram.atoms]
        vm = np.array([np.concatenate([v.real, v.imag]) if complex_space
                       else v.real for v in vectors])
        vm += 1e-3 * np.random.default_rng(1).standard_normal(vm.shape)
        vm /= np.linalg.norm(vm, axis=1, keepdims=True)
        orth = orthogonality_mask(diagram)
        offdiag = ~np.eye(len(orth), dtype=bool)
        assert _penalty_of(vm, orth, offdiag, 0.95**2, complex_space) > 1e-6
        _, pen = _polish(vm, _colour_classes(orth), orth, offdiag, 0.95**2,
                         complex_space)
        assert pen < SUCCESS_PENALTY

    def test_colour_classes_share_no_context(self):
        for d in (tripod_chain(8), tripod_ring(7), corpus.load("fig3"),
                  make_diagram([("a", "b", "c"), ("d", "e", "f")])):
            orth = orthogonality_mask(d)
            classes = _colour_classes(orth)
            covered = np.concatenate(classes)
            assert sorted(covered) == list(np.flatnonzero(orth.any(axis=1)))
            for atoms in classes:
                assert not orth[np.ix_(atoms, atoms)].any()

    def test_succeeds_wherever_sequential_polish_does(self, monkeypatch):
        # both polishes start from the same L-BFGS end points
        pairs = []

        def both(vm, classes, orth_mask, offdiag, t2, complex_space):
            batched = _polish(vm, classes, orth_mask, offdiag, t2, complex_space)
            _, sequential = sequential_polish(vm, orth_mask, offdiag, t2,
                                              complex_space)
            pairs.append((batched[1], sequential))
            return batched

        monkeypatch.setattr(realizability, "_polish", both)
        for make, n, complex_space, seed in WITNESS_GRID:
            search_realization(make(n), 3, seed=seed, restarts=4,
                               complex_space=complex_space)
        assert any(sequential < SUCCESS_PENALTY for _, sequential in pairs)
        for batched, sequential in pairs:
            if sequential < SUCCESS_PENALTY:
                assert batched < SUCCESS_PENALTY


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

    def test_non_finite_vector_raises(self):
        # NaN overlaps compare False against every tolerance
        real = Realization({a: np.full(3, np.nan, dtype=complex)
                            for a in corpus.load("fig1").atoms})
        with pytest.raises(ValueError, match="not finite"):
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

    def test_non_finite_state_or_vector_raises(self):
        with pytest.raises(ValueError, match="state vector is not finite"):
            born_probabilities(fig1_vectors(1.0), [np.nan, 0, 0])
        real = fig1_vectors(1.0)
        real.vectors["K"] = np.array([np.inf, 0, 0])
        with pytest.raises(ValueError, match="'K' is not finite"):
            born_probabilities(real, [0, 0, 1])


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
