import sys

import numpy as np
import pytest

from qlctx import contexts
from qlctx.contexts import (
    commutator,
    context_operator,
    link_observables,
    split_selfadjoint,
    two_tripod_bases,
)

from oracles import (
    dyad,
    reference_context_operator,
    reference_link_observables,
    reference_split_selfadjoint,
)


def rotated_reference(phi, eigs):
    """The closed-form matrix of the rotated tripod context."""
    c, s = np.cos(phi), np.sin(phi)
    e1, e2, e3 = eigs
    return np.array(
        [
            [e1 * c * c + e2 * s * s, (e1 - e2) * s * c, 0.0],
            [(e1 - e2) * s * c, e2 * c * c + e1 * s * s, 0.0],
            [0.0, 0.0, e3],
        ]
    )


class TestTwoTripodBases:
    def test_zero_angle_collapses_to_standard(self):
        b1, b2 = two_tripod_bases(0.0)
        assert np.allclose(b1, np.eye(3))
        assert np.allclose(b2, np.eye(3))

    def test_quarter_turn(self):
        _, b2 = two_tripod_bases(np.pi / 2)
        expected = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=float)
        assert np.allclose(b2, expected)

    def test_shared_third_leg(self):
        for phi in (0.1, 0.7, 2.0, 5.5):
            b1, b2 = two_tripod_bases(phi)
            assert np.array_equal(b1[2], b2[2])


class TestContextOperator:
    def test_standard_basis_is_diagonal(self):
        ctx = context_operator(np.eye(3), (1.0, 2.0, 3.0))
        assert np.allclose(ctx.operator, np.diag([1.0, 2.0, 3.0]))

    def test_rotated_matches_closed_form(self):
        eigs = (4.0, 5.0, 6.0)
        _, b2 = two_tripod_bases(np.pi / 5)
        ctx = context_operator(b2, eigs)
        assert np.max(np.abs(ctx.operator - rotated_reference(np.pi / 5, eigs))) < 1e-12

    def test_zero_angle_rotated_is_diagonal(self):
        _, b2 = two_tripod_bases(0.0)
        ctx = context_operator(b2, (4.0, 5.0, 6.0))
        assert np.allclose(ctx.operator, np.diag([4.0, 5.0, 6.0]))

    def test_spectral_round_trip(self):
        _, b2 = two_tripod_bases(np.pi / 5)
        ctx = context_operator(b2, (4.0, 5.0, 6.0))
        values, vectors = np.linalg.eigh(ctx.operator)
        assert np.allclose(values, (4.0, 5.0, 6.0))
        for value, vec in zip(values, vectors.T):
            i = ctx.eigenvalues.index(round(value, 9))
            assert np.max(np.abs(dyad(vec) - dyad(ctx.basis[i]))) < 1e-9

    def test_degenerate_eigenvalues_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            context_operator(np.eye(3), (1.0, 1.0, 2.0))

    def test_nonorthonormal_basis_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            context_operator(np.ones((3, 3)), (1.0, 2.0, 3.0))

    def test_nan_basis_rejected(self):
        # a NaN overlap fails every "> tol" test; the check refuses it as
        # not orthonormal, before dyad would call a NaN row a zero vector
        with pytest.raises(ValueError, match="orthonormal"):
            context_operator(np.full((3, 3), np.nan), (1.0, 2.0, 3.0))

    def test_projectors_within_context_commute(self):
        _, b2 = two_tripod_bases(np.pi / 5)
        projs = [dyad(v) for v in b2]
        for p in projs:
            for q in projs:
                assert np.max(np.abs(p @ q - q @ p)) < 1e-12


class TestLinks:
    def test_single_link_at_generic_angle(self):
        b1, b2 = two_tripod_bases(np.pi / 5)
        c1 = context_operator(b1, (1.0, 2.0, 3.0))
        c2 = context_operator(b2, (4.0, 5.0, 6.0))
        links = link_observables(c1, c2)
        assert len(links) == 1
        i, j, proj = links[0]
        assert (i, j) == (2, 2)
        assert np.max(np.abs(proj - np.diag([0, 0, 1.0]))) < 1e-12

    def test_identical_contexts_fully_linked(self):
        c = context_operator(np.eye(3), (1.0, 2.0, 3.0))
        assert len(link_observables(c, c)) == 3

    def test_zero_angle_three_links(self):
        b1, b2 = two_tripod_bases(0.0)
        c1 = context_operator(b1, (1.0, 2.0, 3.0))
        c2 = context_operator(b2, (4.0, 5.0, 6.0))
        assert len(link_observables(c1, c2)) == 3

    def test_symmetric_in_arguments(self):
        b1, b2 = two_tripod_bases(np.pi / 5)
        c1 = context_operator(b1, (1.0, 2.0, 3.0))
        c2 = context_operator(b2, (4.0, 5.0, 6.0))
        forward = {(i, j) for i, j, _ in link_observables(c1, c2)}
        backward = {(j, i) for i, j, _ in link_observables(c2, c1)}
        assert forward == backward

    def test_dimension_mismatch(self):
        c1 = context_operator(np.eye(3), (1.0, 2.0, 3.0))
        c2 = context_operator(np.eye(2), (1.0, 2.0))
        with pytest.raises(ValueError):
            link_observables(c1, c2)


class TestCommutation:
    def test_generic_angle_operators_do_not_commute(self):
        b1, b2 = two_tripod_bases(np.pi / 5)
        c1 = context_operator(b1, (1.0, 2.0, 3.0))
        c2 = context_operator(b2, (4.0, 5.0, 6.0))
        op1, op2 = np.asarray(c1.operator), np.asarray(c2.operator)
        comm = op1 @ op2 - op2 @ op1
        assert np.max(np.abs(comm)) > 1e-6

    def test_both_commute_with_shared_projector(self):
        b1, b2 = two_tripod_bases(np.pi / 5)
        shared = dyad([0, 0, 1])
        for basis, eigs in ((b1, (1.0, 2.0, 3.0)), (b2, (4.0, 5.0, 6.0))):
            op = np.asarray(context_operator(basis, eigs).operator)
            assert np.max(np.abs(op @ shared - shared @ op)) < 1e-12


class TestSplit:
    def test_selfadjoint_input(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
        a1, a2 = map(np.asarray, split_selfadjoint(h))
        assert np.allclose(a1, h)
        assert np.max(np.abs(a2)) < 1e-12

    def test_antiselfadjoint_input(self):
        a1, a2 = map(np.asarray, split_selfadjoint(1j * np.eye(3)))
        assert np.max(np.abs(a1)) < 1e-12
        assert np.allclose(a2, np.eye(3))

    def test_random_recomposition(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a1, a2 = map(np.asarray, split_selfadjoint(a))
            for part in (a1, a2):
                assert np.max(np.abs(part - part.conj().T)) < 1e-12
            assert np.max(np.abs(a - (a1 + 1j * a2))) < 1e-12

    def test_near_the_float_limit_stays_finite(self):
        a = np.full((2, 2), 1e308 + 1e308j)
        with np.errstate(all="raise"):
            a1, a2 = map(np.asarray, split_selfadjoint(a))
        assert np.array_equal(a1, np.full((2, 2), 1e308))
        assert np.array_equal(a2, np.full((2, 2), 1e308))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            split_selfadjoint(np.ones((2, 3)))


def test_dyad_axis_vectors():
    out = np.asarray(contexts.dyad([1, 0, 0]))
    expected = np.zeros((3, 3))
    expected[0, 0] = 1
    assert np.allclose(out, expected)
    assert np.allclose(contexts.dyad([0, 0, 1]), np.diag([0, 0, 1]))


def test_dyad_superposition_block():
    out = contexts.dyad(np.array([1, 1, 0]) / np.sqrt(2))
    expected = np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]])
    assert np.allclose(out, expected)


def test_dyad_normalizes_and_projects():
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        p = np.asarray(contexts.dyad(v))
        assert np.max(np.abs(p - p.conj().T)) < 1e-12
        assert np.max(np.abs(p @ p - p)) < 1e-12


def test_dyad_zero_vector():
    with pytest.raises(ValueError):
        contexts.dyad([0, 0, 0])


NAN, INF, MAX = float("nan"), float("inf"), sys.float_info.max


def overflowing_operators():
    """The standard context and the phi = 0.7 context with eigenvalues
    1.7e308, 1.6e308 and 0: both operators are finite, their commutator
    is not."""
    standard, rotated = two_tripod_bases(0.7)
    return (context_operator(standard, (1.0, 2.0, 3.0)).operator,
            context_operator(rotated, (1.7e308, 1.6e308, 0.0)).operator)


class TestNumbersAreChecked:
    """Every number of a context and every entry of a result is checked
    here, so library callers get the refusals the command line gives."""

    @pytest.mark.parametrize("call,message", [
        (lambda: context_operator(two_tripod_bases(0.3)[1], (NAN, 1, 2)),
         "eigenvalue nan is not a finite number"),
        (lambda: context_operator(np.eye(3), (1, -INF, 2)),
         "eigenvalue -inf is not a finite number"),
        (lambda: two_tripod_bases(INF), "phi inf is not a finite number"),
        (lambda: two_tripod_bases(NAN), "phi nan is not a finite number"),
        # 2·0.5000000000000001·MAX overflows an off-diagonal entry
        (lambda: context_operator(two_tripod_bases(0.785398163397449)[1],
                                  (MAX, -MAX, 0)),
         "result out of floating-point range"),
        (lambda: commutator(*overflowing_operators()),
         "result out of floating-point range"),
        # each part is finite, the magnitude is not
        (lambda: commutator([[0, 1], [0, 0]], [[0, 0], [0, 1.5e308 + 1.5e308j]]),
         "result out of floating-point range"),
        (lambda: contexts.dyad([1e200, 0]), "dyad: squared norm inf is not finite"),
        (lambda: contexts.dyad([NAN, 0]), "dyad: squared norm nan is not finite"),
        (lambda: contexts.dyad([0, 0]), "dyad of a zero vector"),
        (lambda: commutator(np.eye(2), np.eye(3)),
         "commutator expects matrices of one size"),
        (lambda: commutator([1.0, 2.0], np.eye(2)),
         "commutator expects square matrices"),
        (lambda: context_operator(np.eye(3), (1.0, 2.0)),
         "need one eigenvalue per basis vector"),
    ], ids=["nan-eigenvalue", "inf-eigenvalue", "inf-phi", "nan-phi",
            "operator-overflow", "commutator-overflow", "magnitude-overflow",
            "dyad-overflow", "dyad-nan", "dyad-zero", "commutator-sizes",
            "commutator-not-a-matrix", "eigenvalue-count"])
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def assert_matches(got, want, tol=1e-12):
    """Entrywise agreement of the real and of the imaginary parts (so that
    entries near the float limit are compared without overflow)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    for part in (np.real, np.imag):
        assert np.max(np.abs(part(got) - part(want))) <= tol


def random_unitary(rng, n):
    """Q of the QR decomposition of a seeded complex Gaussian matrix."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q


class TestAgainstNumpyReference:
    """The pure-Python module against the numpy code it replaced."""

    def test_context_operator_and_links(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            basis = random_unitary(rng, n)
            eigs = tuple(rng.permutation(n) + rng.uniform(-10, 10))
            ctx = context_operator(basis, eigs)
            assert_matches(ctx.operator, reference_context_operator(basis, eigs))
            # a second basis keeps k rows up to a phase and mixes the rest
            # by a random unitary, so exactly k rays are shared (all n when
            # one row is left, as its "mix" is a phase)
            k = int(rng.integers(0, n + 1))
            kept = basis[:k] * np.exp(2j * np.pi * rng.uniform(size=(k, 1)))
            mixed = random_unitary(rng, n - k) @ basis[k:]
            other = np.concatenate([kept, mixed])[rng.permutation(n)]
            other_ctx = context_operator(other, tuple(range(n)))
            got = link_observables(ctx, other_ctx)
            want = reference_link_observables(basis, other)
            assert len(got) == (n if k == n - 1 else k)
            assert [(i, j) for i, j, _ in got] == [(i, j) for i, j, _ in want]
            for (_, _, p), (_, _, q) in zip(got, want):
                assert_matches(p, q)
            op, other_op = np.asarray(ctx.operator), np.asarray(other_ctx.operator)
            assert_matches(commutator(op, other_op), op @ other_op - other_op @ op)

    def test_split(self):
        rng = np.random.default_rng(37)
        for trial in range(200):
            n = int(rng.integers(1, 6))
            # every fourth matrix has entries near the float limit
            scale = 1e308 if trial % 4 == 0 else 10.0
            a = scale * (rng.uniform(-1, 1, (n, n))
                         + 1j * rng.uniform(-1, 1, (n, n)))
            for got, want in zip(split_selfadjoint(a),
                                 reference_split_selfadjoint(a)):
                assert_matches(got, want)
