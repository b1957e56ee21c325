import gc
import itertools
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from qlctx import _lp, corpus, logic
from qlctx.logic import (
    ParseError,
    classify,
    hull_membership,
    link_atoms,
    make_diagram,
    nonseparating_pairs,
    orthogonal_pairs,
    parse_diagram,
    render,
    two_valued_states,
)
from oracles import (
    ceg18,
    oracle_two_valued,
    random_diagram,
    reference_two_valued_states,
    state_vector,
    tripod_chain,
    tripod_ring,
)

FIG1_STATES = [  # frozen from the exhaustive 2^5 enumeration
    {"A"}, {"B", "D"}, {"B", "K"}, {"C", "D"}, {"C", "K"},
]


def single_context():
    return make_diagram([("A", "B", "C")])


def odd_cycle():
    # three two-atom contexts in a cycle: no two-valued states exist
    return make_diagram([("a", "b"), ("b", "c"), ("c", "a")])


class TestParse:
    def test_single_context_line(self):
        d = parse_diagram("context B C A\n")
        assert d.atoms == ("B", "C", "A")
        assert d.contexts == (("B", "C", "A"),)
        assert d.dim == 3

    def test_fig1(self):
        d = corpus.load("fig1")
        assert len(d.atoms) == 5
        assert len(d.contexts) == 2
        assert link_atoms(d) == ("A",)

    def test_fig3(self):
        d = corpus.load("fig3")
        assert len(d.contexts) == 16
        assert len(d.atoms) == 27
        named = {"a", "b"} | {f"a{i}" for i in range(1, 9)} | {
            f"a{i}p" for i in range(1, 8)
        }
        assert named <= set(d.atoms)

    def test_comments_and_name(self):
        d = parse_diagram("# hello\nname my diagram\ncontext x y\n")
        assert d.name == "my diagram"
        assert d.dim == 2

    def test_wrong_context_size(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_diagram("context A B C\ncontext D E\n")

    def test_duplicate_context(self):
        with pytest.raises(ParseError, match="duplicates"):
            parse_diagram("context A B C\ncontext C B A\n")

    def test_repeated_atom_in_context(self):
        with pytest.raises(ParseError, match="repeats"):
            parse_diagram("context A A B\n")

    def test_unknown_atom_against_declaration(self):
        with pytest.raises(ParseError, match="unknown atom"):
            parse_diagram("atoms A B C\ncontext A B X\n")

    def test_declared_but_unused_atom(self):
        with pytest.raises(ParseError, match="no context"):
            parse_diagram("atoms A B C D\ncontext A B C\n")

    def test_declared_atoms_fix_the_order(self):
        # the declaration orders the atoms and so the state masks and the
        # listed states; without it atoms come in order of first use
        fig1 = "context B C A\ncontext D K A\n"
        for text, atoms, states in (
                ("atoms K D A C B\n" + fig1, ("K", "D", "A", "C", "B"),
                 [["A"], ["D", "B"], ["D", "C"], ["K", "B"], ["K", "C"]]),
                (fig1, ("B", "C", "A", "D", "K"),
                 [["A"], ["C", "K"], ["C", "D"], ["B", "K"], ["B", "D"]])):
            d = parse_diagram(text)
            assert d.atoms == atoms
            assert [[a for a in atoms if a in s]
                    for s in two_valued_states(d)] == states

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="directive"):
            parse_diagram("vertex A\n")

    def test_empty(self):
        with pytest.raises(ParseError, match="no contexts"):
            parse_diagram("# nothing here\n")


class TestTwoValuedStates:
    def test_single_context(self):
        states = two_valued_states(single_context())
        assert sorted(sorted(s) for s in states) == [["A"], ["B"], ["C"]]

    def test_fig1_matches_frozen_enumeration(self):
        states = two_valued_states(corpus.load("fig1"))
        assert [set(s) for s in sorted(states, key=sorted)] == sorted(
            FIG1_STATES, key=sorted
        )

    def test_exactly_one_per_context_invariant(self):
        for name in ("fig1", "fig2a", "fig2b", "fig3"):
            d = corpus.load(name)
            for s in two_valued_states(d):
                for ctx in d.contexts:
                    assert sum(1 for a in ctx if a in s) == 1

    def test_fig3_never_separates_the_two_wheel_tops(self):
        d = corpus.load("fig3")
        states = two_valued_states(d)
        assert states
        assert all(("a" in s) == ("b" in s) for s in states)

    def test_order_is_lexicographic_in_atom_order(self):
        d = corpus.load("fig1")
        vectors = [state_vector(d, s) for s in two_valued_states(d)]
        assert vectors == sorted(vectors)

    def test_no_states_on_odd_cycle(self):
        assert two_valued_states(odd_cycle()) == []

    def test_more_contexts_than_recursion_depth(self):
        # the walk keeps its branches on an explicit stack, so more contexts
        # than Python's recursion limit are enumerated like any others; one
        # 1 in every window of three consecutive atoms leaves three states
        n = 1200
        assert n > sys.getrecursionlimit()
        windows = make_diagram(
            [(f"p{i}", f"p{i + 1}", f"p{i + 2}") for i in range(n)])
        residues = [frozenset(f"p{i}" for i in range(r, n + 2, 3))
                    for r in range(3)]
        assert two_valued_states(windows) == residues[::-1]
        result = classify(windows)
        assert (result.kind, result.state_count) == ("unital_nonseparating", 3)
        pairs = nonseparating_pairs(windows)
        assert pairs == list(result.witness_pairs)
        assert len(pairs) == sum(len(r) * (len(r) - 1) // 2 for r in residues)
        assert ("p0", "p3") in pairs and ("p0", "p1") not in pairs
        member = hull_membership(windows, {a: "1/3" for a in windows.atoms})
        assert member.inside and member.weights == (Fraction(1, 3),) * 3

    def test_state_cap_boundary(self, monkeypatch):
        # a 3-tripod chain has F(6) = 8 states: a cap of 8 lists them all,
        # a cap of 7 refuses the eighth state in every engine
        chain = tripod_chain(3)
        engines = (two_valued_states, classify, nonseparating_pairs,
                   lambda d: hull_membership(d, {"c0": 1}).states)
        monkeypatch.setattr(logic, "MAX_STATES", 8)
        assert len(two_valued_states(chain)) == 8
        assert classify(chain).state_count == 8
        assert len(hull_membership(chain, {"c0": 1}).states) == 8
        assert nonseparating_pairs(chain) == []
        monkeypatch.setattr(logic, "MAX_STATES", 7)
        for engine in engines:
            with pytest.raises(ValueError, match="more than 7 two-valued states"):
                engine(chain)

    def test_enumeration_leaves_no_garbage_cycle(self):
        # a cycle would keep the states alive until the next cyclic
        # collection, which raises peak memory between collections
        d = corpus.load("fig3")
        gc.collect()
        gc.disable()
        try:
            assert len(two_valued_states(d)) == 82
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOracleAgreement:
    @pytest.mark.parametrize("name", ["fig1", "fig2a", "fig2b"])
    def test_corpus_diagrams(self, name):
        d = corpus.load(name)
        assert two_valued_states(d) == oracle_two_valued(d)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_small_diagrams(self, data):
        n_atoms = data.draw(st.integers(4, 10))
        n_ctx = data.draw(st.integers(1, 5))
        contexts = []
        seen = set()
        for _ in range(n_ctx):
            ctx = tuple(
                f"x{i}"
                for i in data.draw(
                    st.lists(
                        st.integers(0, n_atoms - 1),
                        min_size=3, max_size=3, unique=True,
                    )
                )
            )
            if frozenset(ctx) not in seen:
                seen.add(frozenset(ctx))
                contexts.append(ctx)
        d = make_diagram(contexts)
        assert two_valued_states(d) == oracle_two_valued(d)

    def test_seeded_random_diagrams_in_order(self):
        for seed in range(200):
            d = random_diagram(np.random.default_rng(seed))
            assert two_valued_states(d) == oracle_two_valued(d)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_seeded_random_diagrams_in_other_dimensions(self, dim):
        # reversed, the later contexts come first, so contexts whose atoms
        # are all held by earlier ones are walked in both orders
        for seed in range(100):
            d = random_diagram(np.random.default_rng(seed), dim=dim)
            for order in (d, make_diagram(reversed(d.contexts), atoms=d.atoms)):
                assert two_valued_states(order) == oracle_two_valued(order)


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# families beyond the exhaustive oracle's 28 atoms, with closed-form counts
LARGE_FAMILIES = [
    pytest.param(tripod_chain(16), _fibonacci(19), id="chain16"),
    pytest.param(tripod_chain(20), _fibonacci(23), id="chain20"),
    pytest.param(tripod_ring(16), _lucas(16), id="ring16"),
    pytest.param(ceg18(), 0, id="ceg18"),
]


def mask_vector(diagram, mask):
    """The 0/1 assignment a state mask encodes, atom 0 its highest bit."""
    return tuple(map(int, format(mask, f"0{len(diagram.atoms)}b")))


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBitmaskEnumeration:
    @pytest.mark.parametrize("d, count", LARGE_FAMILIES)
    def test_matches_frozenset_backtracker(self, d, count):
        states = two_valued_states(d)
        assert len(states) == count
        assert states == reference_two_valued_states(d)

    @pytest.mark.parametrize("d, count", LARGE_FAMILIES)
    def test_classify_and_pairs_on_masks(self, d, count):
        states = reference_two_valued_states(d)
        masks = logic._enumerate(d)
        assert [mask_vector(d, m) for m in masks] == \
            [state_vector(d, s) for s in states]
        pairs = reference_pairs(d, states)
        assert logic._pairs_in(d, masks) == pairs
        assert nonseparating_pairs(d) == pairs
        result = classify(d)
        assert result.state_count == count
        if not states:
            assert result.kind == "nonexistent"
        else:
            dead = tuple(a for a in d.atoms if all(a not in s for s in states))
            assert result.witness_atoms == dead
            assert result.witness_pairs == (() if dead else tuple(pairs))

    @pytest.mark.parametrize("name", ["fig1", "fig2a", "fig2b", "fig3"])
    def test_mask_bits_are_the_state_vector(self, name):
        # atom 0 is the most significant bit, so ascending masks are the
        # assignment vectors in lexicographic order
        d = corpus.load(name)
        masks = logic._enumerate(d)
        states = reference_two_valued_states(d)
        assert masks == sorted(set(masks))
        assert len(masks) == len(states)
        for mask, state in zip(masks, states):
            assert mask_vector(d, mask) == state_vector(d, state)
        assert logic._states_of(d, masks) == states == two_valued_states(d)

    def test_classify_peak_memory_on_a_20_tripod_chain(self):
        # 28,657 states held as masks alone, without a tuple of atom names
        # beside each
        d = tripod_chain(20)
        assert classify(d).state_count == _fibonacci(23)
        assert peak_bytes(lambda: classify(d)) < 3 * 2**20


class TestClassify:
    def test_fig1_separating(self):
        result = classify(corpus.load("fig1"))
        assert result.kind == "separating"
        assert nonseparating_pairs(corpus.load("fig1")) == []

    def test_single_context_separating(self):
        assert classify(single_context()).kind == "separating"

    def test_fig3_unital_nonseparating(self):
        result = classify(corpus.load("fig3"))
        assert result.kind == "unital_nonseparating"
        assert ("a", "b") in result.witness_pairs

    def test_fig3_pairs_listed(self):
        assert ("a", "b") in nonseparating_pairs(corpus.load("fig3"))

    def test_nonexistent(self):
        result = classify(odd_cycle())
        assert result.kind == "nonexistent"

    def test_nonunital(self):
        # four contexts through a forcing b=c, c=d, d=b around atom a:
        # any state with v(a)=0 needs one of b,c,d true in three pairwise
        # incompatible ways, so v(a)=1 always and the others are never true
        d = make_diagram([("a", "b", "c"), ("a", "c", "d"), ("a", "d", "b")])
        result = classify(d)
        assert result.kind == "nonunital"
        assert set(result.witness_atoms) == {"b", "c", "d"}

    def test_consistency_separating_means_no_pairs(self):
        for name in ("fig1", "fig2a", "fig2b", "fig3"):
            d = corpus.load(name)
            result = classify(d)
            pairs = nonseparating_pairs(d)
            if result.kind == "separating":
                assert pairs == []
            if result.kind == "nonexistent":
                assert two_valued_states(d) == []

    def test_one_enumeration_gives_count_and_pairs(self, monkeypatch):
        d = corpus.load("fig3")
        expected = len(two_valued_states(d))
        calls = []
        enumerate_states = logic._enumerate

        def counted(diagram):
            calls.append(diagram)
            return enumerate_states(diagram)

        monkeypatch.setattr(logic, "_enumerate", counted)
        result = classify(d)
        assert len(calls) == 1
        assert result.state_count == expected
        assert list(result.witness_pairs) == nonseparating_pairs(d)


def reference_feasibility(a, b):
    """The dense Fraction-tableau simplex that the integer tableau replaced:
    phase 1, Bland's entering rule, smallest ratio leaving, ties broken on
    the basic variable.  The oracle for ``_lp.feasibility``; returns the
    same (status, x, y) triple, without the certificate checks."""
    a = [[Fraction(v) for v in row] for row in a]
    b = [Fraction(v) for v in b]
    m = len(a)
    n = len(a[0]) if m else 0
    sign = [-1 if b[i] < 0 else 1 for i in range(m)]
    rows = [
        [sign[i] * a[i][j] for j in range(n)]
        + [Fraction(int(k == i)) for k in range(m)]
        + [sign[i] * b[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    cost = [Fraction(0)] * (n + m + 1)
    for j in range(n):
        cost[j] = -sum(rows[i][j] for i in range(m))
    cost[-1] = -sum(rows[i][-1] for i in range(m))
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = min((i for i in range(m) if rows[i][enter] > 0),
                    key=lambda i: (rows[i][-1] / rows[i][enter], basis[i]))
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        for i in range(m):
            f = rows[i][enter]
            if i != leave and f != 0:
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[leave])]
        f = cost[enter]
        cost = [v - f * w for v, w in zip(cost, rows[leave])]
        basis[leave] = enter
    if -cost[-1] > 0:
        return "infeasible", None, [sign[i] * (1 - cost[n + i])
                                    for i in range(m)]
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = rows[i][-1]
    return "feasible", x, None


def reference_pairs(diagram, states):
    """The pairwise nonseparation test that atom grouping replaced."""
    if not states:
        return []
    return [
        (x, y) for x, y in itertools.combinations(diagram.atoms, 2)
        if all((x in s) == (y in s) for s in states)
    ]


class TestPairsBySignature:
    @pytest.mark.parametrize("name", ["fig1", "fig2a", "fig2b", "fig3"])
    def test_corpus(self, name):
        d = corpus.load(name)
        states = two_valued_states(d)
        assert nonseparating_pairs(d) == reference_pairs(d, states)

    def test_random_diagrams_and_state_subsets(self):
        # subsets of the states give atoms that are never true and larger
        # groups of equal signatures than complete state sets do
        rng = np.random.default_rng(17)
        for seed in range(40):
            d = random_diagram(np.random.default_rng(seed))
            found = logic._enumerate(d)
            reference = reference_two_valued_states(d)
            assert [mask_vector(d, m) for m in found] == \
                [state_vector(d, s) for s in reference]
            for k in sorted({0, 1, 2, len(found) // 2, len(found)}):
                picked = sorted(rng.choice(len(found), size=min(k, len(found)),
                                           replace=False))
                masks = [found[i] for i in picked]
                states = [reference[i] for i in picked]
                assert logic._pairs_in(d, masks) == reference_pairs(d, states)


def _shift_rhs(rows, cost):
    rows[0][-1] += 1


def _lower_objective(rows, cost):
    cost[-1] -= 1


def _zero_artificial_costs(rows, cost):
    cost[len(cost) - 1 - len(rows):-1] = [0] * len(rows)
    cost[-1] -= 1


def _mixture_point(diagram, states, rng):
    """Atom probabilities of a seeded rational mixture of states."""
    raw = [int(w) for w in rng.integers(0, 10, size=len(states))]
    raw[int(rng.integers(len(states)))] += 1
    p = {a: Fraction(0) for a in diagram.atoms}
    for w, s in zip(raw, states):
        for a in s:
            p[a] += Fraction(w, sum(raw))
    return p


def _shifted_point(diagram, p):
    """p with one atom of the first context moved by 1/7: that context no
    longer sums to 1, so the point lies outside the polytope."""
    q = dict(p)
    atom = diagram.contexts[0][0]
    step = Fraction(1, 7)
    q[atom] = q[atom] + step if q[atom] + step <= 1 else q[atom] - step
    return q


def _dense_pivot(rows, cost, r, c, d):
    """Every row but the pivot row, and the cost row, rebuilt in full by
    (piv·v - f·w) // d, each division checked to be exact."""
    pivot_row = rows[r]
    piv = pivot_row[c]

    def eliminate(row):
        f = row[c]
        out = [divmod(piv * v - f * w, d) for v, w in zip(row, pivot_row)]
        assert all(rest == 0 for _, rest in out)
        return [q for q, _ in out]

    return ([list(row) if i == r else eliminate(row)
             for i, row in enumerate(rows)], eliminate(cost))


class TestIntegerTableau:
    @pytest.fixture
    def pivot_kinds(self, monkeypatch):
        """The set of `piv == d` values over every _lp._pivot call."""
        kinds = set()
        pivot = _lp._pivot

        def spied(rows, cost, basis, r, c, d):
            kinds.add(rows[r][c] == d)
            return pivot(rows, cost, basis, r, c, d)

        monkeypatch.setattr(_lp, "_pivot", spied)
        return kinds

    def _hull_lps(self, monkeypatch, diagram, p, tol):
        """(A, b, result) of every LP that hull_membership solves."""
        seen = []

        def recorded(a, b):
            result = _lp.feasibility(a, b)
            seen.append((a, b, result))
            return result

        monkeypatch.setattr(logic, "feasibility", recorded)
        hull_membership(diagram, p, tol=tol)
        return seen

    def _agree(self, monkeypatch, diagram, seed, tols=(0, 1e-9)):
        states = two_valued_states(diagram)
        inside = _mixture_point(diagram, states, np.random.default_rng(seed))
        statuses = []
        for p in (inside, _shifted_point(diagram, inside)):
            for tol in tols:
                for a, b, got in self._hull_lps(monkeypatch, diagram, p, tol):
                    assert all(type(v) is int for row in a for v in row)
                    assert got == reference_feasibility(a, b)
                    statuses.append(got[0])
        return statuses

    @pytest.mark.parametrize("name, tols", [
        ("fig1", (0, 1e-9)),
        ("fig2a", (0, 1e-9)),
        ("fig2b", (0, 1e-9)),
        # the Fraction oracle takes about 3 s per tolerance on fig3 (its
        # 55×136 band LP), so fig3 runs at the default tolerance only
        ("fig3", (1e-9,)),
    ])
    def test_corpus_hulls_match_fraction_simplex(self, monkeypatch,
                                                 pivot_kinds, name, tols):
        statuses = self._agree(monkeypatch, corpus.load(name), 3, tols)
        assert {"feasible", "infeasible"} <= set(statuses)
        assert True in pivot_kinds

    def test_random_hulls_match_fraction_simplex(self, monkeypatch,
                                                 pivot_kinds):
        checked = 0
        for seed in range(30):
            d = random_diagram(np.random.default_rng(seed), 12)
            if two_valued_states(d):
                self._agree(monkeypatch, d, seed)
                checked += 1
        assert checked >= 20
        # both branches of _pivot ran: in place (piv == d) and _eliminate
        assert pivot_kinds == {True, False}

    @pytest.mark.parametrize("r, c, in_place", [(1, 2, True), (2, 2, False)])
    def test_pivot_matches_the_dense_rule(self, monkeypatch, r, c, in_place):
        # the starting tableau [A | I | b] of rows [2 1 0 1], [1 0 1 2],
        # [0 1 3 0] and b = (4, 3, 5), after one pivot on (0, 0): d = 2
        rows = [[2, 1, 0, 1, 1, 0, 0, 4],
                [0, -1, 2, 3, -1, 2, 0, 2],
                [0, 2, 6, 0, 0, 0, 2, 10]]
        cost = [0, -1, -8, -3, 3, 0, 0, -12]
        basis, d = [0, 5, 6], 2
        want_rows, want_cost = _dense_pivot(rows, cost, r, c, d)
        before = list(rows)
        eliminated = []
        eliminate = _lp._eliminate

        def spied(row, *args):
            eliminated.append(row)
            return eliminate(row, *args)

        monkeypatch.setattr(_lp, "_eliminate", spied)
        assert _lp._pivot(rows, cost, basis, r, c, d) == rows[r][c]
        assert (rows, cost, basis[r]) == (want_rows, want_cost, c)
        # piv == d updates the row lists in place and never calls
        # _eliminate; piv != d rebuilds the two other rows and the cost row
        assert (rows[r][c] == d) == in_place
        assert all(new is old for new, old in zip(rows, before)) == in_place
        assert len(eliminated) == (0 if in_place else 3)

    def test_tied_ratios_match_fraction_simplex(self):
        # duplicate rows and columns make every ratio test tie
        a = [[1, 1, 0, 1], [1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]]
        for b in ([1, 1, 1, 1], [Fraction(1, 2)] * 4, [1, 1, 2, 0],
                  [Fraction(-1, 3), Fraction(-1, 3), 1, 0]):
            assert _lp.feasibility(a, b) == reference_feasibility(a, b)

    @pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5, 1.0, "1"])
    def test_non_integer_matrix_is_refused(self, entry):
        with pytest.raises(ValueError, match="not an integer"):
            _lp.feasibility([[entry, 1]], [1])

    @pytest.mark.parametrize("a, b, message", [
        ([], [], "no rows"),
        ([[1, 1], [1]], [1, 1], "differ in length"),
        ([[1, 1]], [1, 5], "2 entries for 1 constraint rows"),
    ], ids=["no rows", "ragged rows", "b longer than A"])
    def test_malformed_system_is_refused(self, a, b, message):
        with pytest.raises(ValueError, match=message):
            _lp.feasibility(a, b)

    def test_integral_fractions_are_accepted(self):
        got = _lp.feasibility([[Fraction(2), Fraction(1)]], [Fraction(1, 3)])
        assert got == _lp.feasibility([[2, 1]], [Fraction(1, 3)])
        assert got == ("feasible", [Fraction(1, 6), Fraction(0)], None)


class TestHullMembership:
    @pytest.mark.parametrize("corrupt, check", [
        (_shift_rhs, "A·x = b"),
        (_lower_objective, "y·b > 0"),
        (_zero_artificial_costs, "y·A <= 0"),
    ])
    def test_corrupted_tableau_raises(self, monkeypatch, corrupt, check):
        # x1 + x2 = 1 is feasible; each corruption of the simplex tableau
        # yields a verdict whose exact certificate check must fail
        pivot = _lp._pivot

        def corrupted(rows, cost, basis, r, c, d):
            d = pivot(rows, cost, basis, r, c, d)
            corrupt(rows, cost)
            return d

        monkeypatch.setattr(_lp, "_pivot", corrupted)
        with pytest.raises(ArithmeticError, match=re.escape(check)):
            _lp.feasibility([[1, 1]], [1])

    def test_single_context_barycenter(self):
        third = Fraction(1, 3)
        res = hull_membership(single_context(), {a: third for a in "ABC"})
        assert res.inside
        assert res.weights == (third, third, third)

    def test_fig1_vertex_inside(self):
        res = hull_membership(corpus.load("fig1"), {"A": 1})
        assert res.inside
        weights = dict(zip(res.states, res.weights))
        assert weights[frozenset({"A"})] == 1

    def test_fig1_outside_with_certificate(self):
        d = corpus.load("fig1")
        res = hull_membership(d, {"A": 1, "B": Fraction(1, 2)})
        assert not res.inside
        # the certificate proves the verdict by itself
        target = {"A": Fraction(1), "B": Fraction(1, 2)}
        f_p = sum(res.functional[a] * target.get(a, 0) for a in d.atoms)
        assert f_p - res.offset == res.margin > 0
        for s in res.states:
            f_s = sum(res.functional[a] for a in s)
            assert f_s <= res.offset

    def test_inside_certificates_reproduce_p(self):
        d = corpus.load("fig1")
        rng = np.random.default_rng(21)
        states = two_valued_states(d)
        for _ in range(10):
            raw = [Fraction(int(x), 64) for x in rng.integers(0, 65, len(states))]
            total = sum(raw)
            if total == 0:
                continue
            weights = [w / total for w in raw]
            p = {
                a: sum(w for w, s in zip(weights, states) if a in s)
                for a in d.atoms
            }
            res = hull_membership(d, p)
            assert res.inside
            assert sum(res.weights) == 1
            assert all(w >= 0 for w in res.weights)
            for a in d.atoms:
                got = sum(
                    w for w, s in zip(res.weights, res.states) if a in s
                )
                assert abs(got - p[a]) <= Fraction(1, 10**9)

    def test_agrees_with_scipy_linprog(self):
        d = corpus.load("fig1")
        states = two_valued_states(d)
        vertices = np.array(
            [[1.0 if a in s else 0.0 for s in states] for a in d.atoms]
        )
        rng = np.random.default_rng(33)
        for _ in range(25):
            p = rng.uniform(0, 1, size=len(d.atoms)).round(3)
            a_eq = np.vstack([vertices, np.ones(len(states))])
            b_eq = np.append(p, 1.0)
            lp = linprog(np.zeros(len(states)), A_eq=a_eq, b_eq=b_eq,
                         bounds=(0, None), method="highs")
            res = hull_membership(d, dict(zip(d.atoms, p)))
            assert res.inside == lp.success

    def test_no_states_is_an_error(self):
        with pytest.raises(ValueError, match="no classical states"):
            hull_membership(odd_cycle(), {"a": 1})

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            hull_membership(single_context(), {"A": 2})
        with pytest.raises(ValueError, match="unknown atom"):
            hull_membership(single_context(), {"Z": 1})

    def test_bad_input_is_refused_before_enumeration(self, monkeypatch):
        def enumerate_(diagram):
            raise AssertionError("enumerated before checking p and tol")

        monkeypatch.setattr(logic, "_enumerate", enumerate_)
        for p, tol, message in [({"Z": 1}, "1e-9", "unknown atom 'Z'"),
                                ({"A": 2}, "1e-9", r"must lie in \[0, 1\]"),
                                ({"A": 1}, -1, "tolerance must be nonnegative")]:
            with pytest.raises(ValueError, match=message):
                hull_membership(single_context(), p, tol=tol)
        # on a state-free diagram the unknown atom is named first
        with pytest.raises(ValueError, match="unknown atom"):
            hull_membership(odd_cycle(), {"Z": 1})

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_rejects_non_finite_numbers(self, value):
        with pytest.raises(ValueError, match="not a finite number"):
            hull_membership(single_context(), {"A": 1}, tol=value)
        with pytest.raises(ValueError, match="not a finite number"):
            hull_membership(single_context(), {"A": value})

    def test_huge_decimal_exponent_is_refused_at_once(self):
        # Fraction would build 10**3000000, which takes seconds: the text is
        # refused before it is read, as a value and as a tolerance
        fig1 = corpus.load("fig1")
        for p, tol, what in (({"A": "1e-3000000"}, "1e-9", "probability value"),
                             ({"A": "1/2"}, "1e-3000000", "tolerance")):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"^{what} '1e-3000000' has a "
                               "decimal exponent beyond 1000 in magnitude$"):
                hull_membership(fig1, p, tol=tol)
            assert time.perf_counter() - start < 0.1
        # the bound itself is read
        assert not hull_membership(fig1, {"A": "1e-1000"}, tol="1e-1000").inside

    def test_text_beyond_the_digit_limit_is_refused(self):
        # Fraction reads its ints under the interpreter's digit limit; text
        # past it is refused for its length, with a short prefix echoed
        fig1 = corpus.load("fig1")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for p, tol, what, head in (
                    ({"A": "0." + "0" * 5000 + "1"}, "1e-9", "probability value",
                     "0.000000000000000000"),
                    ({"A": "1/2"}, " 1/" + "3" * 4300, "tolerance",
                     "1/333333333333333333")):
                with pytest.raises(ValueError, match=f"^{what} '{re.escape(head)}'\\.\\.\\. "
                                   "has more than 4300 digits$"):
                    hull_membership(fig1, p, tol=tol)
            # the limit itself is read
            assert not hull_membership(fig1, {"A": "0." + "0" * 4298 + "1"}).inside
        finally:
            sys.set_int_max_str_digits(limit)

    def test_unreadable_text_is_refused(self):
        # Fraction raises ZeroDivisionError on '1/0'
        fig1 = corpus.load("fig1")
        with pytest.raises(ValueError,
                           match="^probability value '1/0' is not a finite number$"):
            hull_membership(fig1, {"A": "1/0"})
        with pytest.raises(ValueError, match="^tolerance '1/0' is not a finite number$"):
            hull_membership(fig1, {"A": 1}, tol="1/0")


class TestOrthogonalPairs:
    def test_first_orientation_and_first_context(self):
        # (a, b) comes back as (b, a) in the second context; it keeps its
        # first orientation and the first context's index
        d = make_diagram([("a", "b", "c"), ("d", "b", "a")])
        assert list(orthogonal_pairs(d).items()) == [
            (("a", "b"), 0), (("a", "c"), 0), (("b", "c"), 0),
            (("d", "b"), 1), (("d", "a"), 1),
        ]

    def test_seeded_random_diagrams_every_pair_once(self):
        for seed in range(200):
            d = random_diagram(np.random.default_rng(seed))
            pairs = orthogonal_pairs(d)
            assert len({frozenset(p) for p in pairs}) == len(pairs)
            expected = {}
            for ci, ctx in enumerate(d.contexts):
                for x, y in itertools.combinations(ctx, 2):
                    expected.setdefault(frozenset((x, y)), ci)
            assert {frozenset(p): ci for p, ci in pairs.items()} == expected


class TestRender:
    def test_single_context_dot_triangle(self):
        text = render(single_context(), "dot")
        for pair in itertools.combinations("ABC", 2):
            assert f'"{pair[0]}" -- "{pair[1]}";' in text
        assert text.startswith("graph") and text.rstrip().endswith("}")

    def test_fig1_tkadlec_two_nodes_one_edge(self):
        text = render(corpus.load("fig1"), "tkadlec")
        assert text.count(" -- ") == 1
        assert '[label="A"]' in text

    def test_fig2a_tkadlec_path(self):
        text = render(corpus.load("fig2a"), "tkadlec")
        assert text.count(" -- ") == 2
        assert '[label="A"]' in text and '[label="K"]' in text

    def test_greechie_one_curve_per_context(self):
        d = corpus.load("fig2a")
        text = render(d, "greechie")
        assert text.count("// context") == len(d.contexts)

    def test_tkadlec_requires_dim3(self):
        with pytest.raises(ValueError, match="dimension-3"):
            render(odd_cycle(), "tkadlec")

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            render(single_context(), "ascii")
