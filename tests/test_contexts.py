import numpy as np
import pytest

from qlctx.contexts import (
    context_operator,
    link_observables,
    split_selfadjoint,
    two_tripod_bases,
)
from qlctx.linalg import dyad


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
        comm = c1.operator @ c2.operator - c2.operator @ c1.operator
        assert np.max(np.abs(comm)) > 1e-6

    def test_both_commute_with_shared_projector(self):
        b1, b2 = two_tripod_bases(np.pi / 5)
        shared = dyad([0, 0, 1])
        for basis, eigs in ((b1, (1.0, 2.0, 3.0)), (b2, (4.0, 5.0, 6.0))):
            op = context_operator(basis, eigs).operator
            assert np.max(np.abs(op @ shared - shared @ op)) < 1e-12


class TestSplit:
    def test_selfadjoint_input(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
        a1, a2 = split_selfadjoint(h)
        assert np.allclose(a1, h)
        assert np.max(np.abs(a2)) < 1e-12

    def test_antiselfadjoint_input(self):
        a1, a2 = split_selfadjoint(1j * np.eye(3))
        assert np.max(np.abs(a1)) < 1e-12
        assert np.allclose(a2, np.eye(3))

    def test_random_recomposition(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a1, a2 = split_selfadjoint(a)
            for part in (a1, a2):
                assert np.max(np.abs(part - part.conj().T)) < 1e-12
            assert np.max(np.abs(a - (a1 + 1j * a2))) < 1e-12

    def test_near_the_float_limit_stays_finite(self):
        a = np.full((2, 2), 1e308 + 1e308j)
        with np.errstate(all="raise"):
            a1, a2 = split_selfadjoint(a)
        assert np.array_equal(a1, np.full((2, 2), 1e308))
        assert np.array_equal(a2, np.full((2, 2), 1e308))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            split_selfadjoint(np.ones((2, 3)))
