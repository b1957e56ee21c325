import itertools
import math

import numpy as np
import pytest

from oracles import (
    random_diagram,
    reference_saturate_orthogonality,
    scipy_minimize,
    tripod_chain,
    tripod_ring,
)
from qlctx import corpus, realizability
from qlctx.logic import make_diagram
from qlctx.realizability import (
    DISTINCTNESS_MARGIN,
    LINE_SEARCH_EVALS,
    MAXFUN,
    MAXITER,
    MEMORY,
    OversizedContext,
    Realization,
    SUCCESS_PENALTY,
    _numerical_search,
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


def numerical(diagram, dim, seed=0, restarts=20, complex_space=False):
    """The search's numerical stage alone, run even where the proof stage
    would refute."""
    return _numerical_search(diagram, dim, seed, restarts, complex_space,
                             DISTINCTNESS_MARGIN)


def no_search(*args, **kwargs):
    raise AssertionError("a refuted diagram must not be searched")


def assert_proved(diagram, dim=3, **kwargs):
    """The public search returns the saturation derivation and runs no
    restart."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(realizability, "minimize", no_search)
        result = search_realization(diagram, dim, **kwargs)
    assert result.refutation == saturate_orthogonality(diagram)
    assert result.refutation.verdict == "contradiction"
    assert not result.success and result.realization is None
    assert result.penalty == math.inf
    assert result.restart_penalties == ()
    assert result.best_restart is None


# chains and rings of tripods are realizable in R^3 and C^3
WITNESS_GRID = [(make, n, complex_space, seed)
                for make, n in ((tripod_chain, 4), (tripod_chain, 6),
                                (tripod_chain, 8), (tripod_ring, 6),
                                (tripod_ring, 8))
                for complex_space in (False, True) for seed in (0, 1)]
GRID_IDS = [f"{make.__name__}{n}-{'complex' if c else 'real'}-{seed}"
            for make, n, c, seed in WITNESS_GRID]


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
        result = numerical(corpus.load("fig2b"), 3, seed=0, restarts=8)
        assert not result.success
        assert result.realization is None
        assert result.penalty > 0.01
        assert len(result.restart_penalties) == 8
        assert_proved(corpus.load("fig2b"), seed=0, restarts=8)

    def test_deterministic_given_seed(self):
        a = numerical(corpus.load("fig2b"), 3, seed=1, restarts=4)
        b = numerical(corpus.load("fig2b"), 3, seed=1, restarts=4)
        assert a.penalty == b.penalty
        assert a.restart_penalties == b.restart_penalties
        assert a.best_restart == b.best_restart
        assert_proved(corpus.load("fig2b"), seed=1, restarts=4)

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

    @pytest.mark.parametrize(
        "diagram, complex_space, seed",
        [(make(n), c, seed) for make, n, c, seed in WITNESS_GRID]
        + [(corpus.load(name), c, 0) for name in ("fig1", "fig2a")
           for c in (False, True)],
        ids=GRID_IDS + [f"{name}-{'complex' if c else 'real'}"
                        for name in ("fig1", "fig2a") for c in (False, True)])
    def test_witness_overlaps_are_at_most_1e_12(self, monkeypatch, diagram,
                                                 complex_space, seed):
        # L-BFGS alone gives every successful restart its precision: the
        # stopping rule has no absolute floor
        ends = []

        def recorded(*args, **kwargs):
            result = minimize(*args, **kwargs)
            ends.extend(zip(result.x, result.fun))
            return result

        monkeypatch.setattr(realizability, "minimize", recorded)
        result = search_realization(diagram, 3, seed=seed, restarts=10,
                                    complex_space=complex_space)
        assert result.success
        index = {a: i for i, a in enumerate(diagram.atoms)}
        pairs = [(index[x], index[y]) for ctx in diagram.contexts
                 for x, y in itertools.combinations(ctx, 2)]
        for x, pen in ends:
            if pen >= SUCCESS_PENALTY:
                continue
            vm = x.reshape(len(index), -1)
            vm = vm / np.linalg.norm(vm, axis=1, keepdims=True)
            if complex_space:
                vm = vm[:, :3] + 1j * vm[:, 3:]
            worst = max(abs(np.vdot(vm[i], vm[j])) for i, j in pairs)
            assert worst <= 1e-12, worst

    def test_witness_the_verifier_rejects_is_not_reported(self, monkeypatch):
        calls = []

        def rejecting(diagram, realization, tol=1e-9, margin=None):
            calls.append(margin)
            return False, [("orthogonality", ("A", "B"), 1.0)]

        monkeypatch.setattr(realizability, "verify_realization", rejecting)
        result = search_realization(corpus.load("fig1"), 3, seed=0, restarts=5)
        assert calls == [realizability.DISTINCTNESS_MARGIN]
        assert not result.success
        assert result.realization is None
        assert result.penalty < SUCCESS_PENALTY

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
            _, grad = _value_and_grad(x[None], *args)
            eps = 1e-6
            ks = rng.choice(x.size, size=8, replace=False)
            # one stacked call evaluates every shifted point
            shifted = np.repeat(x[None], 2 * len(ks), axis=0)
            shifted[np.arange(len(ks)), ks] += eps
            shifted[len(ks) + np.arange(len(ks)), ks] -= eps
            f, _ = _value_and_grad(shifted, *args)
            fd = (f[:len(ks)] - f[len(ks):]) / (2 * eps)
            assert np.all(np.abs(fd - grad[0, ks]) < 1e-5)


class TestProofStage:
    def test_random_diagrams_refuted_exactly_or_searched(self, monkeypatch):
        verdicts = set()
        for seed in range(100):
            d = random_diagram(np.random.default_rng(seed))
            reference = reference_saturate_orthogonality(d)
            verdicts.add(reference.verdict)
            if reference.verdict == "contradiction":
                with monkeypatch.context() as patch:
                    patch.setattr(realizability, "minimize", no_search)
                    result = search_realization(d, 3, seed=seed, restarts=1)
                assert result.refutation == reference
                assert result.restart_penalties == ()
                assert not result.success and result.penalty == math.inf
            else:
                result = search_realization(d, 3, seed=seed, restarts=1)
                assert result.refutation is None
                assert result.restart_penalties == \
                    numerical(d, 3, seed=seed, restarts=1).restart_penalties
        assert verdicts == {"contradiction", "no_contradiction"}

    @pytest.mark.parametrize("complex_space", [False, True])
    def test_context_larger_than_the_dimension(self, monkeypatch,
                                               complex_space):
        monkeypatch.setattr(realizability, "minimize", no_search)
        result = search_realization(corpus.load("fig1"), 2,
                                    complex_space=complex_space)
        assert result.refutation == OversizedContext(1, ("B", "C", "A"), 2)
        assert not result.success and result.realization is None
        assert result.penalty == math.inf
        assert result.restart_penalties == ()
        assert result.best_restart is None
        assert result.refutation.render().startswith("context 1 (B C A) has 3")

    def test_saturation_refutes_complex_searches(self):
        assert_proved(corpus.load("fig2b"), complex_space=True)

    def test_search_calls_saturation_through_the_module(self, monkeypatch):
        # benchmark tracing replaces realizability.saturate_orthogonality by
        # name; it runs only where the diagram and the search are in dim 3
        calls = []

        def counted(diagram):
            calls.append(diagram)
            return saturate_orthogonality(diagram)

        monkeypatch.setattr(realizability, "saturate_orthogonality", counted)
        fig1 = corpus.load("fig1")
        for dim in (2, 3, 4):
            search_realization(fig1, dim, seed=0, restarts=1)
        assert len(calls) == 1 and calls[0] is fig1

    def test_larger_dimensions_are_searched(self):
        result = search_realization(corpus.load("fig2b"), 4, seed=0, restarts=2)
        assert result.refutation is None
        assert len(result.restart_penalties) == 2


class TestMinimize:
    def test_convex_quadratic_reaches_minimizer(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        a = q @ np.diag(np.linspace(1e3, 1e4, 10)) @ q.T
        target = rng.standard_normal(10)

        def fun(x):
            r = x - target
            return 0.5 * np.sum((r @ a) * r, axis=1), r @ a

        one = minimize(fun, np.zeros((1, 10)))
        assert np.max(np.abs(one.x - target)) <= 1e-10
        assert one.nit <= MAXITER
        assert one.nfev <= MAXFUN + LINE_SEARCH_EVALS

        starts = np.vstack([np.zeros(10), rng.standard_normal((2, 10))])
        batch = minimize(fun, starts)
        assert batch.x.shape == starts.shape
        assert np.max(np.abs(batch.x - target)) <= 1e-10

    def test_nan_region_is_a_step_too_long(self):
        # the value is NaN for x0 < 0, where the unconstrained minimizer is
        def fun(x):
            value = np.where(x[:, 0] < 0, math.nan,
                             (x[:, 0] + 1) ** 2 + x[:, 1] ** 2)
            return value, 2 * (x + [1.0, 0.0])

        x0 = np.array([[0.01, 1.0]])
        result = minimize(fun, x0)
        assert np.isfinite(result.x).all()
        assert np.isfinite(result.fun).all()
        assert result.fun[0] <= fun(x0)[0][0]

    def test_one_start_alone_or_in_a_batch(self):
        # a row's run does not depend on the rows that share its batch,
        # nor on when they stop
        d = tripod_chain(6)
        n = len(d.atoms)
        orth = orthogonality_mask(d)
        args = (n, 3, orth, ~np.eye(n, dtype=bool), 0.95**2, False)
        starts = np.random.default_rng(9).standard_normal((5, 3 * n))
        batch = minimize(_value_and_grad, starts, args=args)
        alone = [minimize(_value_and_grad, row[None], args=args)
                 for row in starts]
        assert len({m.nfev for m in alone}) > 1
        for k, one in enumerate(alone):
            assert np.array_equal(one.x[0], batch.x[k])
            assert one.fun[0] == batch.fun[k]
        assert batch.nit == sum(m.nit for m in alone)
        assert batch.nfev == sum(m.nfev for m in alone)

    def test_needs_stacked_starts(self):
        with pytest.raises(ValueError, match="2-d"):
            minimize(lambda x: (x @ x, 2 * x), np.ones(3))

    def test_search_calls_minimize_through_the_module(self, monkeypatch):
        # benchmark tracing replaces realizability.minimize by name and
        # reads nit and nfev from what it returns: one call per block
        counts = []

        def counted(*args, **kwargs):
            result = minimize(*args, **kwargs)
            counts.append((result.nit, result.nfev))
            return result

        monkeypatch.setattr(realizability, "minimize", counted)
        for cells, calls in ((realizability.BATCH_CELLS, 1), (1, 3)):
            counts.clear()
            monkeypatch.setattr(realizability, "BATCH_CELLS", cells)
            search_realization(corpus.load("fig1"), 3, seed=0, restarts=3)
            assert len(counts) == calls
            for nit, nfev in counts:
                assert type(nit) is int and type(nfev) is int
                assert nit >= 1 and nfev >= nit
            assert sum(nfev for _, nfev in counts) >= 3


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


class TestBatch:
    @pytest.mark.parametrize(
        "make, n, complex_space, seed", WITNESS_GRID, ids=GRID_IDS)
    def test_restarts_do_not_depend_on_the_batch(self, monkeypatch, make, n,
                                                 complex_space, seed):
        ends = []

        def recorded(*args, **kwargs):
            result = minimize(*args, **kwargs)
            ends.append(result.x)
            return result

        monkeypatch.setattr(realizability, "minimize", recorded)
        one, four, ten = (search_realization(make(n), 3, seed=seed,
                                             restarts=restarts,
                                             complex_space=complex_space)
                          for restarts in (1, 4, 10))
        assert four.restart_penalties == ten.restart_penalties[:4]
        assert one.restart_penalties == ten.restart_penalties[:1]
        # restart 0's end point, from the first block of each search
        assert np.array_equal(ends[0][0], ends[1][0])
        assert np.array_equal(ends[0][0], ends[2][0])

    @pytest.mark.parametrize("diagram, complex_space", [
        (tripod_chain(6), False), (tripod_ring(8), True),
        (corpus.load("fig2a"), False), (corpus.load("fig2b"), False),
    ], ids=["chain6", "ring8-complex", "fig2a", "fig2b"])
    @pytest.mark.parametrize("rows", [1, 4])
    def test_blocks_change_nothing(self, monkeypatch, diagram, complex_space,
                                   rows):
        whole = numerical(diagram, 3, seed=0, restarts=10,
                          complex_space=complex_space)
        # a restart counts its n x n overlap cells or, when that is more,
        # its L-BFGS pairs of n·w coordinates
        n, width = len(diagram.atoms), 6 if complex_space else 3
        cells = n * max(n, 2 * MEMORY * width)
        monkeypatch.setattr(realizability, "BATCH_CELLS", rows * cells)
        sizes = []

        def counted(fun, x0, args=()):
            sizes.append(len(x0))
            return minimize(fun, x0, args)

        monkeypatch.setattr(realizability, "minimize", counted)
        blocks = numerical(diagram, 3, seed=0, restarts=10,
                           complex_space=complex_space)
        assert sizes == [rows] * (10 // rows) + [10 % rows] * (10 % rows > 0)
        assert blocks.restart_penalties == whole.restart_penalties
        assert blocks.best_restart == whole.best_restart
        assert blocks.success == whole.success
        if whole.success:
            for a in diagram.atoms:
                assert np.array_equal(blocks.realization.vectors[a],
                                      whole.realization.vectors[a])
        if saturate_orthogonality(diagram).verdict == "contradiction":
            assert_proved(diagram, complex_space=complex_space)


class TestSoundness:
    def test_saturation_contradiction_implies_search_failure(self):
        for d in (
            corpus.load("fig2b"),
            make_diagram([("p", "q", "r"), ("p", "s", "t"), ("t", "u", "q")]),
        ):
            assert saturate_orthogonality(d).verdict == "contradiction"
            for seed in (0, 1, 2):
                result = numerical(d, 3, seed=seed, restarts=6)
                assert not result.success
                assert result.penalty > 0.01
                assert_proved(d, seed=seed, restarts=6)

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
