import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    integer_witness_violations,
    random_diagram,
    reference_saturate_orthogonality,
    scipy_minimize,
    tripod_chain,
    tripod_ring,
)
from qlctx import corpus, realizability, saturation
from qlctx._numerical import (
    LINE_SEARCH_EVALS,
    MAXFUN,
    MAXITER,
    MEMORY,
    _lbfgs,
    _line_search,
    value_and_grad,
)
from qlctx.logic import make_diagram
from qlctx.realizability import (
    DISTINCTNESS_MARGIN,
    OversizedContext,
    Realization,
    SUCCESS_PENALTY,
    _numerical_search,
    born_probabilities,
    integer_witness,
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

    def test_two_common_neighbours_that_are_not_orthogonal(self):
        # c1 and c3 are both orthogonal to c0 and c2, which share no
        # context: in dimension 3 both lie on the ray orthogonal to c0, c2
        outcome = saturate_orthogonality(tripod_ring(4))
        assert outcome.verdict == "contradiction"
        (step,) = outcome.derivation
        assert step.collinear == ("c1", "c3")
        assert step.pair == ("c0", "c2")
        assert not step.orthogonal and step.orthogonal_pair is None
        assert len(step.reasons) == 4
        assert "orthogonal pair" not in outcome.render()
        assert "the distinct atoms c0, c2" in outcome.render()

    def test_orthogonal_pairs_are_scanned_first(self):
        # fig2b's ring of three also holds non-orthogonal pairs with two
        # common neighbours; the derivation still cites an orthogonal pair
        (step,) = saturate_orthogonality(corpus.load("fig2b")).derivation
        assert step.orthogonal

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
        tripod_ring(3), tripod_ring(4),
    ], ids=["tadpole150", "chain150", "fig1", "fig2a", "fig2b", "fig3",
            "triangle", "ring4"])
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
        result = numerical(corpus.load("fig1"), 3, seed=0, restarts=3,
                           complex_space=True)
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
        # the exact stage decides these; the numerical stage must too
        d = corpus.load(name)
        for result in (search_realization(d, 3, seed=0, restarts=restarts),
                       numerical(d, 3, seed=0, restarts=restarts)):
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
        result = numerical(diagram, 3, seed=seed, restarts=10,
                           complex_space=complex_space)
        assert result.success
        assert ends
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

        def rejecting(diagram, realization, margin=None):
            calls.append(margin)
            return False, [("orthogonality", ("A", "B"), 1.0)]

        monkeypatch.setattr(realizability, "verify_realization", rejecting)
        result = numerical(corpus.load("fig1"), 3, seed=0, restarts=5)
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
            _, grad = value_and_grad(x[None], *args)
            eps = 1e-6
            ks = rng.choice(x.size, size=8, replace=False)
            # one stacked call evaluates every shifted point
            shifted = np.repeat(x[None], 2 * len(ks), axis=0)
            shifted[np.arange(len(ks)), ks] += eps
            shifted[len(ks) + np.arange(len(ks)), ks] -= eps
            f, _ = value_and_grad(shifted, *args)
            fd = (f[:len(ks)] - f[len(ks):]) / (2 * eps)
            assert np.all(np.abs(fd - grad[0, ks]) < 1e-5)


class TestProofStage:
    def test_random_diagrams_refuted_exactly_or_searched(self, monkeypatch):
        verdicts, stages = set(), set()
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
                exact = result.integer_witness is not None
                stages.add(exact)
                if exact:
                    # the exact stage decided: its witness holds in integers
                    assert integer_witness_violations(
                        d, result.integer_witness, DISTINCTNESS_MARGIN) == []
                    assert result.restart_penalties == ()
                else:
                    assert result.restart_penalties == numerical(
                        d, 3, seed=seed, restarts=1).restart_penalties
        assert verdicts == {"contradiction", "no_contradiction"}
        # on these seeds the exact stage decides every diagram saturation
        # leaves open; test_undecided_diagrams_are_searched as before
        # covers the other branch
        assert True in stages

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


def exact_or_fail(*args, **kwargs):
    raise AssertionError("the exact stage decides this diagram")


# the seed plays no part in the exact stage: each grid shape once
EXACT_CASES = ([(make(n), c) for make, n, c, seed in WITNESS_GRID if seed == 0]
               + [(corpus.load(name), c) for name in ("fig1", "fig2a")
                  for c in (False, True)])
EXACT_IDS = ([i[:-2] for i in GRID_IDS if i.endswith("-0")]
             + [f"{name}-{'complex' if c else 'real'}"
                for name in ("fig1", "fig2a") for c in (False, True)])


class TestExactStage:
    @pytest.mark.parametrize("diagram, complex_space", EXACT_CASES,
                             ids=EXACT_IDS)
    def test_decides_without_a_restart(self, monkeypatch, diagram,
                                       complex_space):
        monkeypatch.setattr(realizability, "minimize", exact_or_fail)
        result = search_realization(diagram, 3, seed=0, restarts=10,
                                    complex_space=complex_space)
        assert result.success and result.refutation is None
        assert result.penalty == 0.0
        assert result.restart_penalties == ()
        assert result.best_restart is None
        # a real witness is a complex one too
        assert result.realization.space == "real"
        witness = result.integer_witness
        assert list(witness) == list(diagram.atoms)
        assert all(type(c) is int for v in witness.values() for c in v)
        assert integer_witness_violations(diagram, witness,
                                          DISTINCTNESS_MARGIN) == []
        ok, violations = verify_realization(diagram, result.realization)
        assert ok, violations
        for a, v in witness.items():
            unit = np.array(v, dtype=float) / math.sqrt(sum(c * c for c in v))
            assert np.allclose(result.realization.vectors[a], unit,
                               rtol=0, atol=1e-15)

    def test_witness_is_verified_in_integers(self, monkeypatch):
        seen = []

        def recorded(diagram, realization, margin=None):
            seen.append(realization.vectors)
            return verify_realization(diagram, realization, margin)

        monkeypatch.setattr(realizability, "verify_realization", recorded)
        result = search_realization(corpus.load("fig2a"), 3)
        assert seen == [result.integer_witness]

    @pytest.mark.parametrize("diagram", [
        make(n) for make, n, c, seed in WITNESS_GRID if seed == 0 and not c
    ] + [corpus.load("fig1"), corpus.load("fig2a")], ids=[
        i[:-7] for i in GRID_IDS if i.endswith("-real-0")] + ["fig1", "fig2a"])
    def test_unit_floats_are_within_1_ulp(self, diagram):
        # |x - c/|v|| <= ulp(x) holds exactly when x has the sign of c and
        # (|x| - ulp)^2 |v|^2 <= c^2 <= (|x| + ulp)^2 |v|^2
        result = search_realization(diagram, 3)
        for atom, v in result.integer_witness.items():
            norm2 = sum(c * c for c in v)
            floats = result.realization.vectors[atom]
            assert type(floats) is tuple and len(floats) == 3
            for c, z in zip(v, floats):
                assert type(z) is complex and z.imag == 0.0
                x, ulp = Fraction(abs(z.real)), Fraction(math.ulp(z.real))
                if c == 0:
                    assert x == 0
                    continue
                assert (z.real > 0) == (c > 0)
                assert max(x - ulp, 0) ** 2 * norm2 <= c * c
                assert c * c <= (x + ulp) ** 2 * norm2

    def test_witness_does_not_depend_on_seed_or_restarts(self):
        d = tripod_ring(6)
        results = [search_realization(d, 3, seed=seed, restarts=restarts)
                   for seed, restarts in ((0, 1), (5, 1), (0, 20))]
        assert results[0].integer_witness == results[1].integer_witness \
            == results[2].integer_witness
        assert integer_witness(d, DISTINCTNESS_MARGIN) == \
            results[0].integer_witness

    def test_witness_the_verifier_rejects_falls_through(self, monkeypatch):
        calls = []

        def rejecting(diagram, realization, margin=None):
            calls.append(margin)
            return False, [("orthogonality", ("A", "B"), 1.0)]

        monkeypatch.setattr(realizability, "verify_realization", rejecting)
        result = search_realization(corpus.load("fig1"), 3, seed=0, restarts=5)
        # once for the exact witness, once for the best restart
        assert calls == [DISTINCTNESS_MARGIN] * 2
        assert not result.success and result.integer_witness is None
        assert result.restart_penalties == numerical(
            corpus.load("fig1"), 3, seed=0, restarts=5).restart_penalties

    @pytest.mark.parametrize("diagram", [
        corpus.load("fig3"), tripod_ring(7), tripod_chain(12), tripod_ring(10),
    ], ids=["fig3", "ring7", "chain12", "ring10"])
    def test_undecided_diagrams_are_searched_as_before(self, diagram):
        assert integer_witness(diagram, DISTINCTNESS_MARGIN) is None
        for complex_space in (False, True):
            result = search_realization(diagram, 3, seed=1, restarts=2,
                                        complex_space=complex_space)
            alone = numerical(diagram, 3, seed=1, restarts=2,
                              complex_space=complex_space)
            assert result.integer_witness is None
            assert result.restart_penalties == alone.restart_penalties
            assert result.best_restart == alone.best_restart
            assert result.success == alone.success

    def test_long_chain_gives_up_and_falls_through(self, monkeypatch):
        chain = tripod_chain(150)
        assert integer_witness(chain, DISTINCTNESS_MARGIN) is None
        calls = []

        def recorded(*args):
            calls.append(args)
            return "searched"

        monkeypatch.setattr(realizability, "_numerical_search", recorded)
        assert search_realization(chain, 3, seed=2, restarts=3) == "searched"
        assert calls == [(chain, 3, 2, 3, False, DISTINCTNESS_MARGIN)]

    def test_other_dimensions_are_not_propagated(self, monkeypatch):
        monkeypatch.setattr(realizability, "integer_witness", exact_or_fail)
        result = search_realization(corpus.load("fig1"), 4, seed=0,
                                    restarts=2)
        assert result.integer_witness is None
        assert len(result.restart_penalties) == 2
        with pytest.raises(ValueError, match="dimension 3"):
            integer_witness(make_diagram([("a", "b"), ("b", "c")]), 0.05)

    def test_candidate_parallel_to_its_neighbour_is_refused(self, monkeypatch):
        # u x g is the zero vector when g is parallel to u; the gcd of its
        # coordinates is 0, and the next candidate g is tried instead
        d = corpus.load("fig1")
        unpatched = integer_witness(d, DISTINCTNESS_MARGIN)
        generic = saturation._generic_vectors

        def parallel_second():
            stream = generic()
            first = next(stream)
            yield first
            yield tuple(2 * c for c in first)
            yield from stream

        monkeypatch.setattr(saturation, "_generic_vectors", parallel_second)
        witness = integer_witness(d, DISTINCTNESS_MARGIN)
        assert witness is not None
        assert integer_witness_violations(d, witness,
                                          DISTINCTNESS_MARGIN) == []
        # the parallel candidate was the only one skipped
        assert witness == unpatched

    def test_a_tighter_margin_is_checked_exactly(self):
        # the propagation reads the margin exactly; whatever it places must
        # pass the integer oracle at that margin
        d = tripod_chain(4)
        for margin in (0.05, 0.3, 0.5):
            witness = integer_witness(d, margin)
            if witness is not None:
                assert integer_witness_violations(d, witness, margin) == []
        assert integer_witness(d, 0.99) is None


def drive(run, fun):
    """Run a line-search or L-BFGS generator by hand, sending ``fun``'s
    (f, grad) at each trial point: the trial points and the return value."""
    trials = [next(run)]
    while True:
        try:
            trials.append(run.send(fun(trials[-1])))
        except StopIteration as stop:
            return trials, stop.value


class TestMinimize:
    def test_line_search_halves_until_sufficient_decrease(self):
        def fun(x):
            return float((x[0] - 1.0) ** 2), 2.0 * (x - 1.0)

        x0 = np.zeros(1)
        trials, (x, f, g, evals) = drive(
            _line_search(x0, *fun(x0), np.ones(1), 4.0), fun)
        assert [t[0] for t in trials] == [4.0, 2.0, 1.0]
        assert x[0] == 1.0 and f == 0.0 and g[0] == 0.0
        assert evals == 3

    def test_line_search_refuses_nan_and_gives_up_on_ascent(self):
        # f = x^2, NaN for x < 0
        def fun(x):
            return (math.nan if x[0] < 0 else float(x[0] ** 2)), 2.0 * x

        x0 = np.ones(1)
        f0, g0 = fun(x0)
        trials, (x, f, g, evals) = drive(
            _line_search(x0, f0, g0, -np.ones(1), 4.0), fun)
        assert [t[0] for t in trials] == [-3.0, -1.0, 0.0]
        assert x[0] == 0.0 and evals == 3

        trials, (x, f, g, evals) = drive(
            _line_search(x0, f0, g0, np.ones(1), 1.0), fun)
        assert x is None and f == f0 and g is g0
        assert evals == len(trials) == LINE_SEARCH_EVALS
        assert [t[0] for t in trials[:3]] == [2.0, 1.5, 1.25]

    def test_failed_line_search_ends_the_run(self):
        # the first step is accepted; every later trial is refused
        evaluated = []

        def fun(x):
            evaluated.append(x)
            return (float(x @ x) if len(evaluated) <= 2 else math.inf), 2.0 * x

        trials, (x, f, nit, nfev) = drive(_lbfgs(np.array([1.0, 2.0])), fun)
        # the start, the accepted step and one failed line search: no
        # steepest-descent trial follows
        assert nit == 1 and nfev == 2 + LINE_SEARCH_EVALS == len(trials)
        assert np.array_equal(x, trials[1])
        assert f == float(x @ x) < 5.0

    def test_step_that_leaves_f_unchanged_ends_the_run(self):
        # the gradient is above GTOL, but the first step's Armijo bound
        # rounds to f itself, so it is accepted with f unchanged
        def flat(x):
            return np.ones(len(x)), np.full(x.shape, 5e-14)

        result = minimize(flat, np.zeros((1, 1)))
        assert result.nit == 1 and result.nfev == 2
        assert result.fun[0] == 1.0 and result.x[0, 0] != 0.0

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
        batch = minimize(value_and_grad, starts, args=args)
        alone = [minimize(value_and_grad, row[None], args=args)
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
            # dimension 4: the exact stage would decide fig1 in dimension 3
            search_realization(corpus.load("fig1"), 4, seed=0, restarts=3)
            assert len(counts) == calls
            for nit, nfev in counts:
                assert type(nit) is int and type(nfev) is int
                assert nit >= 1 and nfev >= nit
            assert sum(nfev for _, nfev in counts) >= 3


def witness_count(monkeypatch, minimizer, restarts=10):
    monkeypatch.setattr(realizability, "minimize", minimizer)
    found = 0
    for make, n, complex_space, seed in WITNESS_GRID:
        result = numerical(make(n), 3, seed=seed, restarts=restarts,
                           complex_space=complex_space)
        found += sum(p < SUCCESS_PENALTY for p in result.restart_penalties)
    return found


class TestAgainstScipy:
    def test_finds_as_many_witnesses_as_lbfgsb_less_5_percent(self, monkeypatch):
        restarts = 10
        ours = witness_count(monkeypatch, minimize, restarts)
        theirs = witness_count(monkeypatch, scipy_minimize, restarts)
        run = len(WITNESS_GRID) * restarts
        assert theirs > 0
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
        one, four, ten = (numerical(make(n), 3, seed=seed, restarts=restarts,
                                    complex_space=complex_space)
                          for restarts in (1, 4, 10))
        assert len(ends) == 3  # one block per search
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

    def test_tolerance_is_fixed_at_1e_9(self):
        # a nan or inf tolerance would pass every comparison, so none can
        # be passed in
        assert realizability.VERIFY_TOLERANCE == 1e-9
        d = corpus.load("fig1")
        collapsed = Realization({a: (1 + 0j, 0j, 0j) for a in d.atoms})
        with pytest.raises(TypeError):
            verify_realization(d, collapsed, tol=float("nan"))
        for scale, ok in ((1 + 0.5e-9, True), (1 + 2e-9, False)):
            real = fig1_vectors(np.pi / 7)
            real.vectors["B"] = real.vectors["B"] * scale
            assert verify_realization(d, real)[0] is ok

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


class TestVerifyIntegers:
    def test_agrees_with_the_integer_oracle(self):
        # the exact witnesses, and copies with one coordinate changed
        rng = np.random.default_rng(3)
        verdicts = set()
        for diagram, _ in EXACT_CASES:
            witness = integer_witness(diagram, DISTINCTNESS_MARGIN)
            for trial in range(6):
                vectors = dict(witness)
                if trial:
                    atom = diagram.atoms[rng.integers(len(diagram.atoms))]
                    v = list(vectors[atom])
                    v[rng.integers(3)] += int(rng.integers(-2, 3))
                    vectors[atom] = tuple(v)
                ok, violations = verify_realization(diagram,
                                                    Realization(vectors))
                expected = integer_witness_violations(diagram, vectors,
                                                      DISTINCTNESS_MARGIN)
                assert ok == (expected == [])
                assert {(k, frozenset(a)) for k, a, _ in violations} == \
                    {(k, frozenset(a)) for k, a in expected}
                verdicts.add(ok)
        assert verdicts == {True, False}

    def test_the_margin_is_read_exactly(self):
        # every ray of one context overlaps each of the other by exactly 1/2
        d = make_diagram([("x", "y"), ("z", "w")])
        rays = Realization({"x": (1, 1, 0), "y": (1, -1, 0),
                            "z": (1, 0, 1), "w": (1, 0, -1)})
        assert verify_realization(d, rays, margin=0.5)[0]
        ok, violations = verify_realization(d, rays,
                                            margin=math.nextafter(0.5, 1))
        assert not ok
        assert violations == [("collinear", pair, 0.5) for pair in
                              (("x", "z"), ("x", "w"), ("y", "z"), ("y", "w"))]

    def test_zero_vector_and_nonzero_dot_product(self):
        d = make_diagram([("x", "y", "z")])
        ok, violations = verify_realization(
            d, Realization({"x": (0, 0, 0), "y": [1, 1, 0], "z": (0, 0, 1)}))
        assert violations == [("norm", ("x",), 1.0)]
        ok, violations = verify_realization(
            d, Realization({"x": (1, 0, 0), "y": (1, 1, 0), "z": (0, 0, 1)}))
        assert violations == [("orthogonality", ("x", "y"), math.sqrt(0.5))]

    def test_vectors_not_all_ints_are_floats(self):
        # one float coordinate, or a numpy array, sends every vector to the
        # float check, where (1, 1, 0) is not a unit vector
        d = make_diagram([("x", "y", "z")])
        for y in ((1.0, 1, 0), np.array([1, 1, 0])):
            ok, violations = verify_realization(
                d, Realization({"x": (1, -1, 0), "y": y, "z": (0, 0, 1)}))
            assert ("norm", ("x",), pytest.approx(math.sqrt(2) - 1)) in violations


@pytest.mark.parametrize("margin", [-0.5, 0.0, 1.0, 1.5, math.nan, math.inf])
def test_a_margin_outside_0_to_1_is_refused(monkeypatch, margin):
    monkeypatch.setattr(realizability, "minimize", no_search)
    fig2a = corpus.load("fig2a")
    witness = integer_witness(fig2a, DISTINCTNESS_MARGIN)
    for dim in (3, 4):
        with pytest.raises(ValueError, match="margin"):
            search_realization(fig2a, dim, margin=margin)
    for vectors in (witness, {a: tuple(map(complex, v))
                              for a, v in witness.items()}):
        with pytest.raises(ValueError, match="margin"):
            verify_realization(fig2a, Realization(vectors), margin=margin)
    with pytest.raises(ValueError, match="margin"):
        integer_witness(fig2a, margin)


def test_more_coordinates_than_the_cap_are_refused(monkeypatch):
    # fig2a in dimension 3 needs 3n real or 6n complex coordinates: a cap of
    # 3n admits the real search and refuses the complex one and dimension 4
    monkeypatch.setattr(realizability, "minimize", no_search)
    fig2a = corpus.load("fig2a")
    n = len(fig2a.atoms)
    monkeypatch.setattr(realizability, "MAX_COORDINATES", 3 * n)
    assert search_realization(fig2a, 3).success
    for dim, complex_space in ((3, True), (4, False)):
        with pytest.raises(ValueError, match=f"more than the {3 * n}"):
            search_realization(fig2a, dim, complex_space=complex_space)


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
        result = numerical(corpus.load("fig1"), 3, seed=3, restarts=2,
                           complex_space=True)
        assert result.realization.space == "complex"
        text = save_realization(result.realization)
        again = load_realization(text)
        for atom, v in result.realization.vectors.items():
            assert np.allclose(again.vectors[atom], v)

    def test_an_atom_given_twice_is_refused(self):
        with pytest.raises(ValueError, match="line 2: atom 'A' is already "
                                             "given on line 1"):
            load_realization("A 1 0 0 0 0 0\nA 0 0 1 0 0 0\n")

    def test_realizations_hold_tuples_of_complex(self):
        fig1 = corpus.load("fig1")
        built = [search_realization(fig1, 3).realization,
                 numerical(fig1, 3, restarts=3).realization,
                 numerical(fig1, 3, restarts=3, complex_space=True).realization]
        built.append(load_realization(save_realization(built[-1])))
        for real in built:
            assert list(real.vectors) == list(fig1.atoms)
            for v in real.vectors.values():
                assert type(v) is tuple and len(v) == 3
                assert all(type(z) is complex for z in v)

    def test_malformed_lines(self):
        with pytest.raises(ValueError, match="line 1"):
            load_realization("A 1.0 0.0 2.0\n")
        with pytest.raises(ValueError, match="line 2: 'nan' is not a finite"):
            load_realization("A 1 0\nB nan 0\n")
        with pytest.raises(ValueError):
            load_realization("")
