"""The result records: named tuples that keep the fields, defaults,
equality, hashing, immutability and reprs they had as frozen dataclasses."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qlctx import (_numerical, contexts, logic, realizability, saturation,
                   states, uniqueness)

ROTATION = states.RotationSample((0.0, 0.0, 1.0), 0.0, np.eye(2))
REPORT = uniqueness.UniquenessReport((True, False), {(0, "+"): {1: ("+", "-")}}, 2)
ROTATION_REPR = ("RotationSample(axis=(0.0, 0.0, 1.0), angle=0.0, "
                 "unitary=array([[1., 0.],\n       [0., 1.]]))")
REPORT_REPR = "UniquenessReport(site_verdicts=(True, False), term_count=2)"

# (type, arguments, fields, defaults, compared by identity, hashable, repr)
RECORDS = [
    # a context holds lists, so it compares by value but has no hash
    (contexts.Context, ([[1 + 0j]], (2.0,), [[2 + 0j]]),
     ("basis", "eigenvalues", "operator"), {}, False, False,
     "Context(basis=[[(1+0j)]], eigenvalues=(2.0,), operator=[[(2+0j)]])"),
    (logic.GreechieDiagram, (("a", "b"), (("a", "b"),), 2),
     ("atoms", "contexts", "dim", "name"), {"name": None}, False, True,
     "GreechieDiagram(atoms=('a', 'b'), contexts=(('a', 'b'),), dim=2, "
     "name=None)"),
    (logic.StateSetClassification, ("nonunital", ("a",)),
     ("kind", "witness_atoms", "witness_pairs", "state_count"),
     {"witness_atoms": (), "witness_pairs": (), "state_count": 0}, False, True,
     "StateSetClassification(kind='nonunital', witness_atoms=('a',), "
     "witness_pairs=(), state_count=0)"),
    (logic.HullMembership, (True, (frozenset({"a"}),), (Fraction(1),)),
     ("inside", "states", "weights", "functional", "offset", "margin"),
     {"weights": None, "functional": None, "offset": None, "margin": None},
     False, True,
     "HullMembership(inside=True, states=(frozenset({'a'}),), "
     "weights=(Fraction(1, 1),), functional=None, offset=None, margin=None)"),
    (saturation.SaturationStep, (("x", "y"), ("u", "w"), ("r",)),
     ("collinear", "pair", "reasons", "orthogonal"), {"orthogonal": True},
     False, True,
     "SaturationStep(collinear=('x', 'y'), pair=('u', 'w'), reasons=('r',), "
     "orthogonal=True)"),
    (saturation.SaturationOutcome, ("no_contradiction",),
     ("verdict", "derivation"), {"derivation": ()}, False, True,
     "SaturationOutcome(verdict='no_contradiction', derivation=())"),
    (realizability.Realization, ({"a": (1 + 0j, 0j)},),
     ("vectors", "space"), {"space": "real"}, True, True,
     "Realization(vectors={'a': ((1+0j), 0j)}, space='real')"),
    (realizability.OversizedContext, (1, ("a", "b", "c"), 2),
     ("number", "atoms", "dim"), {}, False, True,
     "OversizedContext(number=1, atoms=('a', 'b', 'c'), dim=2)"),
    (realizability.SearchResult, (False, None, math.inf, (), None),
     ("success", "realization", "penalty", "restart_penalties",
      "best_restart", "refutation", "integer_witness"),
     {"refutation": None, "integer_witness": None}, True, True,
     "SearchResult(success=False, realization=None, penalty=inf, "
     "restart_penalties=(), best_restart=None, refutation=None, "
     "integer_witness=None)"),
    (_numerical.Minimum, (np.zeros((1, 2)), np.ones(1), 3, 4),
     ("x", "fun", "nit", "nfev"), {}, True, True,
     "Minimum(x=array([[0., 0.]]), fun=array([1.]), nit=3, nfev=4)"),
    (states.MultipartiteState, (1, 2, [3, 4]),
     ("sites", "site_dim", "coeffs"), {}, True, True,
     "MultipartiteState(sites=1, site_dim=2, coeffs=array([0.6+0.j, 0.8+0.j]))"),
    (states.RotationSample, ((0.0, 0.0, 1.0), 0.0, np.eye(2)),
     ("axis", "angle", "unitary"), {}, True, True, ROTATION_REPR),
    (uniqueness.UniquenessReport,
     ((True, False), {(0, "+"): {1: ("+", "-")}}, 2),
     ("site_verdicts", "possibilities", "term_count"), {"term_count": 0},
     False, False, REPORT_REPR),
    (uniqueness.RotatedUniqueness, (ROTATION, REPORT),
     ("rotation", "report"), {}, False, False,
     f"RotatedUniqueness(rotation={ROTATION_REPR}, report={REPORT_REPR})"),
    (uniqueness.CounterfactualOutcome, (0, "+", {1: "-"}, {2: ("+", "-")}),
     ("site", "outcome", "determined", "ambiguous"), {}, False, False,
     "CounterfactualOutcome(site=0, outcome='+', determined={1: '-'}, "
     "ambiguous={2: ('+', '-')})"),
]


@pytest.mark.parametrize(
    "cls,args,fields,defaults,by_identity,hashable,text", RECORDS,
    ids=[row[0].__name__ for row in RECORDS])
def test_record(cls, args, fields, defaults, by_identity, hashable, text):
    a, b = cls(*args), cls(*args)
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert a == a and not a != a
    if by_identity:
        assert a != b and not a == b
        assert a != tuple(a)
    else:
        assert a == b and not a != b
        assert a == tuple(a)  # a named tuple equals the tuple of its fields
    if hashable:
        assert len({a, b}) == (2 if by_identity else 1)
    else:
        with pytest.raises(TypeError):
            hash(a)
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert repr(a) == text
