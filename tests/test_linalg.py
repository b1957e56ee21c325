import numpy as np
import pytest
from scipy.linalg import expm

from qlctx.states import (
    kernel,
    rotation_unitary,
    spin_matrices,
    unitarity_defect,
)


def test_kernel_trivial_cases():
    assert kernel(np.eye(3)) == []
    zero_kernel = kernel(np.zeros((3, 3)))
    assert len(zero_kernel) == 3
    axis = kernel(np.diag([0.0, 1.0, 2.0]))
    assert len(axis) == 1
    assert abs(abs(axis[0][0]) - 1.0) < 1e-12


def test_kernel_real_matrix_gives_real_vectors():
    vecs = kernel(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert len(vecs) == 1
    assert vecs[0].dtype == np.float64
    assert np.allclose(np.abs(vecs[0]), [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])


def test_kernel_orthonormal():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((2, 5))  # rank 2, kernel dim 3
    vecs = kernel(a)
    assert len(vecs) == 3
    for i, u in enumerate(vecs):
        assert np.linalg.norm(a @ u) < 1e-9
        for j, w in enumerate(vecs):
            want = 1.0 if i == j else 0.0
            assert abs(np.vdot(u, w) - want) < 1e-12


def test_spin_matrices_commutator():
    for d in (2, 3):
        sx, sy, sz = spin_matrices(d)
        assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-12


def test_rotation_z_axis_spin_half():
    theta = 0.7
    u = rotation_unitary(2, [0, 0, 1], theta)
    expected = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
    assert np.allclose(u, expected)


def test_rotation_identity_angle():
    assert np.allclose(rotation_unitary(3, [1, 1, 1], 0.0), np.eye(3))


def test_rotation_full_turn_integer_spin():
    u = rotation_unitary(3, [0, 0, 1], 2 * np.pi)
    assert np.max(np.abs(u - np.eye(3))) < 1e-12


def test_rotation_unitary_and_additive():
    rng = np.random.default_rng(17)
    for d in (2, 3):
        for _ in range(10):
            axis = rng.standard_normal(3)
            a, b = rng.uniform(0, 2 * np.pi, size=2)
            ua = rotation_unitary(d, axis, a)
            assert unitarity_defect(ua) < 1e-12
            ub = rotation_unitary(d, axis, b)
            uab = rotation_unitary(d, axis, a + b)
            assert np.max(np.abs(ua @ ub - uab)) < 1e-10


def test_rotation_closed_form_matches_expm():
    rng = np.random.default_rng(29)
    for d in (2, 3):
        sx, sy, sz = spin_matrices(d)
        for _ in range(50):
            axis = rng.standard_normal(3)
            angle = rng.uniform(-4 * np.pi, 4 * np.pi)
            n = axis / np.linalg.norm(axis)
            want = expm(-1j * angle * (n[0] * sx + n[1] * sy + n[2] * sz))
            assert np.max(np.abs(rotation_unitary(d, axis, angle) - want)) < 1e-12


def test_rotation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rotation_unitary(4, [0, 0, 1], 0.1)
    with pytest.raises(ValueError):
        rotation_unitary(3, [0, 0, 0], 0.1)
