import numpy as np
import pytest
from scipy.linalg import expm

from qlctx.linalg import (
    SpectralForm,
    dyad,
    hermiticity_defect,
    kernel,
    rotation_unitary,
    spectral_decompose,
    spin_matrices,
    tensor,
    unitarity_defect,
)


def test_tensor_vector_dims_multiply():
    v = np.ones(3)
    assert tensor(v, v).shape == (9,)


def test_tensor_identity():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_diagonal_hand_expansion():
    # kron(diag(1,2), diag(1,3)) expanded by hand
    out = tensor(np.diag([1, 2]), np.diag([1, 3]))
    assert np.array_equal(out, np.diag([1, 3, 2, 6]))


def test_tensor_associative_on_integers():
    rng = np.random.default_rng(3)
    a, b, c = (rng.integers(-4, 5, size=(2, 2)) for _ in range(3))
    assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


def test_tensor_rejects_mixed_ranks():
    with pytest.raises(ValueError):
        tensor(np.ones(2), np.eye(2))


def test_dyad_axis_vectors():
    out = dyad([1, 0, 0])
    expected = np.zeros((3, 3))
    expected[0, 0] = 1
    assert np.allclose(out, expected)
    assert np.allclose(dyad([0, 0, 1]), np.diag([0, 0, 1]))


def test_dyad_superposition_block():
    out = dyad(np.array([1, 1, 0]) / np.sqrt(2))
    expected = np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]])
    assert np.allclose(out, expected)


def test_dyad_normalizes_and_projects():
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        p = dyad(v)
        assert hermiticity_defect(p) < 1e-12
        assert np.max(np.abs(p @ p - p)) < 1e-12


def test_dyad_zero_vector():
    with pytest.raises(ValueError):
        dyad([0, 0, 0])


def test_spectral_diagonal():
    sf = spectral_decompose(np.diag([1.0, 2.0, 3.0]))
    assert sf.eigenvalues == (1.0, 2.0, 3.0)
    for i, p in enumerate(sf.projectors):
        assert np.allclose(p, np.diag(np.eye(3)[i]))


def test_spectral_identity_fully_degenerate():
    sf = spectral_decompose(np.eye(4))
    assert len(sf.pairs) == 1
    assert sf.eigenvalues == (1.0,)
    assert np.allclose(sf.projectors[0], np.eye(4))


def test_spectral_rejects_nonhermitian():
    with pytest.raises(ValueError):
        spectral_decompose(np.array([[0, 1], [0, 0]], dtype=complex))


def test_spectral_invariants_random():
    rng = np.random.default_rng(5)
    tol = 1e-9
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = a + a.conj().T
        sf = spectral_decompose(h, tol)
        assert np.max(np.abs(sf.recompose() - h)) < 10 * tol
        total = sum(sf.projectors)
        assert np.max(np.abs(total - np.eye(4))) < tol
        for i, p in enumerate(sf.projectors):
            for j, q in enumerate(sf.projectors):
                want = p if i == j else 0
                assert np.max(np.abs(p @ q - want)) < tol
        assert list(sf.eigenvalues) == sorted(sf.eigenvalues)


def test_kernel_trivial_cases():
    assert kernel(np.eye(3)) == []
    zero_kernel = kernel(np.zeros((3, 3)))
    assert len(zero_kernel) == 3
    axis = kernel(np.diag([0.0, 1.0, 2.0]))
    assert len(axis) == 1
    assert abs(abs(axis[0][0]) - 1.0) < 1e-12


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


def test_spectral_form_recompose_type():
    sf = spectral_decompose(np.diag([2.0, 2.0 + 5e-10, 7.0]), tol=1e-9)
    # the two near-degenerate eigenvalues merge into one rank-2 projector
    assert len(sf.pairs) == 2
    assert np.isclose(np.trace(sf.projectors[0]).real, 2.0)
    assert isinstance(sf, SpectralForm)
