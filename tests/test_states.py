import tracemalloc
import warnings
from functools import reduce
from math import comb

import numpy as np
import pytest

from qlctx import contexts, linalg, states
from qlctx.contexts import context_operator, link_observables
from qlctx.linalg import kernel, rotation_unitary
from qlctx.states import (
    MultipartiteState,
    apply_identical_local,
    apply_local,
    catalog_state,
    is_form_invariant,
    read_qs,
    singlet_subspace,
    spin_total_operators,
    write_qs,
)

from oracles import from_terms


def dense_singlet_kernel(d, n):
    """Oracle: kernel of the dense (d**n)² Casimir S_x² + S_y² + S_z²."""
    sx, sy, sz = spin_total_operators(d, n)
    return kernel(sx @ sx + sy @ sy + sz @ sz)


def kron_all(mats):
    """Oracle: the dense Kronecker product U_1 ⊗ ... ⊗ U_n."""
    return reduce(np.kron, mats)


def projector(vectors, size):
    out = np.zeros((size, size), dtype=complex)
    for v in vectors:
        out += np.outer(v, np.conj(v))
    return out


def random_unitary(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def amplitude(psi, word):
    idx = 0
    for ch in word:
        idx = idx * psi.site_dim + psi.labels.index(ch)
    return psi.coeffs[idx]


class TestCatalog:
    def test_psi3_six_terms(self):
        psi = catalog_state("psi3")
        assert (psi.sites, psi.site_dim) == (3, 3)
        nonzero = np.abs(psi.coeffs) > 1e-12
        assert nonzero.sum() == 6
        assert np.allclose(np.abs(psi.coeffs[nonzero]), 1 / np.sqrt(6))

    def test_psi3_sign_pattern(self):
        psi = catalog_state("psi3")
        for word, sign in [("-+0", 1), ("-0+", -1), ("+0-", 1),
                           ("+-0", -1), ("0-+", 1), ("0+-", -1)]:
            assert np.isclose(amplitude(psi, word), sign / np.sqrt(6))

    def test_psi2_amplitudes(self):
        psi = catalog_state("psi2")
        assert np.isclose(amplitude(psi, "00"), -1 / np.sqrt(3))
        assert np.isclose(amplitude(psi, "+-"), 1 / np.sqrt(3))
        assert np.isclose(amplitude(psi, "-+"), 1 / np.sqrt(3))

    def test_ghzm_two_terms(self):
        psi = catalog_state("ghzm")
        assert (psi.sites, psi.site_dim) == (3, 2)
        nonzero = np.abs(psi.coeffs) > 1e-12
        assert nonzero.sum() == 2
        assert np.allclose(np.abs(psi.coeffs[nonzero]), 1 / np.sqrt(2))

    def test_psi4_states_normalized_as_printed(self):
        for name in ("psi4_1", "psi4_2", "psi4_3"):
            psi = catalog_state(name)
            assert (psi.sites, psi.site_dim) == (4, 3)
            assert np.isclose(np.linalg.norm(psi.coeffs), 1.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog_state("psi5")


class TestSpinTotals:
    def test_single_site_is_pauli_over_two(self):
        sx, sy, sz = spin_total_operators(2, 1)
        assert np.allclose(sx, [[0, 0.5], [0.5, 0]])
        assert np.allclose(sz, np.diag([0.5, -0.5]))

    def test_two_site_shapes_selfadjoint(self):
        for op in spin_total_operators(3, 2):
            assert op.shape == (9, 9)
            assert np.max(np.abs(op - op.conj().T)) < 1e-12

    def test_commutator_identity(self):
        sx, sy, sz = spin_total_operators(3, 2)
        assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-10


class TestSingletSubspace:
    @pytest.mark.parametrize(
        "d,n,expected", [(3, 2, 1), (3, 3, 1), (3, 4, 3), (2, 2, 1), (2, 3, 0)]
    )
    def test_dimensions(self, d, n, expected):
        assert len(singlet_subspace(d, n)) == expected

    def test_states_are_annihilated(self):
        for d, n in [(3, 2), (3, 3), (3, 4), (2, 2)]:
            ops = spin_total_operators(d, n)
            for psi in singlet_subspace(d, n):
                assert max(np.linalg.norm(op @ psi.coeffs) for op in ops) < 1e-8

    def test_two_site_kernel_matches_catalog(self):
        (kernel_state,) = singlet_subspace(3, 2)
        assert kernel_state.overlap(catalog_state("psi2")) >= 1 - 1e-9

    def test_three_site_kernel_matches_catalog(self):
        (kernel_state,) = singlet_subspace(3, 3)
        assert kernel_state.overlap(catalog_state("psi3")) >= 1 - 1e-9

    def test_four_site_catalog_spans_kernel(self):
        basis = singlet_subspace(3, 4)
        proj = sum(np.outer(b.coeffs, b.coeffs.conj()) for b in basis)
        for name in ("psi4_1", "psi4_2", "psi4_3"):
            psi = catalog_state(name)
            assert np.linalg.norm(proj @ psi.coeffs) >= 1 - 1e-6

    def test_size_guard(self):
        with pytest.raises(ValueError):
            singlet_subspace(3, 9)

    @pytest.mark.parametrize(
        "d,n", [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 7)]
    )
    def test_projector_matches_dense_casimir_kernel(self, d, n):
        fast = singlet_subspace(d, n)
        dense = dense_singlet_kernel(d, n)
        assert len(fast) == len(dense)
        want = projector(dense, d**n)
        got = projector([psi.coeffs for psi in fast], d**n)
        assert np.max(np.abs(got - want)) < 1e-9

    @pytest.mark.parametrize("d,n", [(3, 7), (2, 10)])
    def test_basis_orthonormal(self, d, n):
        vecs = np.array([psi.coeffs for psi in singlet_subspace(d, n)])
        assert np.max(np.abs(vecs.conj() @ vecs.T - np.eye(len(vecs)))) < 1e-12

    @pytest.mark.parametrize(
        "d,n,expected",
        [(3, 7, 36),                             # Riordan number R(7)
         (2, 10, comb(10, 5) - comb(10, 6))],   # 42
    )
    def test_counts(self, d, n, expected):
        assert len(singlet_subspace(d, n)) == expected

    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 3), (2, 5), (2, 7), (2, 13)])
    def test_no_singlets(self, d, n):
        assert singlet_subspace(d, n) == []

    @pytest.mark.parametrize("d,n", [(4, 2), (3, 0), (2, -1)])
    def test_rejects_bad_shape(self, d, n):
        with pytest.raises(ValueError):
            singlet_subspace(d, n)

    def test_spin_one_seven_sites_stays_small(self):
        # the dense Casimir of 3**7 levels is a 76 MB complex matrix
        assert peak_bytes(lambda: singlet_subspace(3, 7)) < 10 * 2**20


class TestLocalRotations:
    def test_identity_is_identity(self):
        psi = catalog_state("psi3")
        out = apply_identical_local(psi, np.eye(3))
        assert np.allclose(out.coeffs, psi.coeffs)

    def test_singlet_invariant_up_to_phase(self):
        psi = catalog_state("psi2")
        u = rotation_unitary(3, [0, 0, 1], np.pi / 3)
        out = apply_identical_local(psi, u)
        assert psi.overlap(out) >= 1 - 1e-12

    def test_ghzm_generic_rotation_has_eight_terms(self):
        psi = catalog_state("ghzm")
        u = rotation_unitary(2, [1, 0, 0], np.pi / 2)
        out = apply_identical_local(psi, u)
        assert np.count_nonzero(np.abs(out.coeffs) > 1e-9) == 8

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        psi = catalog_state("psi3")
        for _ in range(5):
            u = rotation_unitary(3, rng.standard_normal(3), rng.uniform(0, 7))
            out = apply_identical_local(psi, u)
            assert abs(np.linalg.norm(out.coeffs) - 1.0) < 1e-12

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            apply_identical_local(catalog_state("psi2"), np.ones((3, 3)))

    def test_rejects_nan_matrix(self):
        # a NaN unitarity defect compares False against the tolerance
        with pytest.raises(ValueError, match="matrix is not unitary"):
            apply_identical_local(catalog_state("psi2"), np.full((3, 3), np.nan))

    def test_per_site_rotations(self):
        psi = catalog_state("psi2")
        u = rotation_unitary(3, [0, 1, 0], 0.4)
        same = apply_local(psi, [u, u])
        assert np.allclose(
            same.coeffs, apply_identical_local(psi, u).coeffs
        )
        mixed = apply_local(psi, [u, np.eye(3)])
        assert mixed.overlap(psi) < 1 - 1e-6

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_kronecker_product(self, d, n):
        # a different unitary on every site pins the site order
        rng = np.random.default_rng(100 * d + n)
        c = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
        psi = MultipartiteState(n, d, c)
        mats = [random_unitary(d, rng) for _ in range(n)]
        want = kron_all(mats) @ psi.coeffs
        assert np.max(np.abs(apply_local(psi, mats).coeffs - want)) < 1e-12

    def test_rejects_wrong_shape_and_count(self):
        psi = catalog_state("psi2")
        with pytest.raises(ValueError, match="wrong shape"):
            apply_local(psi, [np.eye(3), np.eye(2)])
        with pytest.raises(ValueError, match="one unitary per site"):
            apply_local(psi, [np.eye(3)])

    def test_twelve_site_rotation_stays_small(self):
        # the Kronecker product of 12 spin-1/2 sites is a 256 MB matrix
        psi = from_terms(12, 2, [(1, "+" * 12), (1, "-" * 12)])
        u = rotation_unitary(2, [1, 2, 3], 0.7)
        assert peak_bytes(lambda: apply_identical_local(psi, u)) < 10 * 2**20


class TestFormInvariance:
    def test_singlets_invariant(self):
        assert is_form_invariant(catalog_state("psi2"), trials=50, seed=1)[0]
        assert is_form_invariant(catalog_state("psi3"), trials=50, seed=1)[0]

    def test_ghzm_not_invariant(self):
        ok, worst = is_form_invariant(catalog_state("ghzm"), trials=50, seed=1)
        assert not ok
        assert worst < 1 - 1e-9

    def test_product_state_not_invariant(self):
        # oracle: a pi rotation about x sends |+> to |-> for spin 1,
        # so the overlap of |++> with its rotation vanishes
        plusplus = from_terms(2, 3, [(1, "++")])
        u = rotation_unitary(3, [1, 0, 0], np.pi)
        rotated = apply_identical_local(plusplus, u)
        assert plusplus.overlap(rotated) < 1e-9
        assert not is_form_invariant(plusplus, trials=50, seed=1)[0]


NAN = float("nan")


class TestFixedTolerances:
    # a nan tolerance found no singlet, no link and no invariance of psi2,
    # and a tolerance of 2 made a product state form invariant, so none can
    # be passed in
    @pytest.mark.parametrize("call", [
        lambda: context_operator(np.eye(3), (1, 2, 3), tol=NAN),
        lambda: link_observables(*[context_operator(np.eye(3), (1, 2, 3))] * 2,
                                 tol=NAN),
        lambda: kernel(np.eye(2), tol=NAN),
        lambda: singlet_subspace(3, 2, tol=NAN),
        lambda: is_form_invariant(catalog_state("psi2"), trials=3, tol=NAN),
    ], ids=["context_operator", "link_observables", "kernel",
            "singlet_subspace", "is_form_invariant"])
    def test_tolerance_is_not_an_argument(self, call):
        with pytest.raises(TypeError):
            call()

    def test_values(self):
        assert contexts.CONTEXT_TOLERANCE == 1e-9
        assert linalg.KERNEL_TOLERANCE == 1e-9
        assert not hasattr(linalg, "DEFAULT_TOL")
        assert states.UNITARITY_TOLERANCE == 1e-9
        assert states.INVARIANCE_TOLERANCE == 1e-9
        assert states.TERM_CUTOFF == 1e-12


class TestStateFiles:
    def test_round_trip(self):
        psi = catalog_state("psi4_2")
        again = read_qs(write_qs(psi))
        assert np.allclose(again.coeffs, psi.coeffs)

    def test_normalizes_on_load(self):
        psi = read_qs("sites 1\ndim 2\n3 0 0\n4 0 1\n")
        assert np.allclose(np.abs(psi.coeffs), [0.6, 0.8])

    def test_accumulates_duplicate_terms(self):
        psi = read_qs("sites 1\ndim 2\n1 0 0\n1 0 0\n-1 0 1\n")
        assert np.isclose(abs(psi.coeffs[0]), 2 / np.sqrt(5))

    @pytest.mark.parametrize(
        "text",
        [
            "dim 3\nsites 2\n",                      # wrong header order
            "sites 2\ndim 3\n1 0 0\n",               # missing indices
            "sites 1\ndim 3\n1 0 5\n",               # index out of range
            "sites 1\ndim 3\nx 0 0\n",               # malformed number
            "sites 1\ndim 3\n",                      # no terms
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            read_qs(text)

    def test_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            read_qs("sites 1\ndim 3\n1 0 9\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("sites abc\ndim 3\n", "line 1: .*'abc'"),
            ("sites 2\ndim x\n", "line 2: .*'x'"),
            ("sites 1\ndim 3\n1 0 0\n1 0 y\n", "line 4: .*'y'"),
            ("sites 1\ndim 2\n1 nan 0\n", "line 3: 'nan' is not a finite number"),
            ("sites 1\ndim 2\n-inf 0 0\n", "line 3: '-inf' is not a finite number"),
        ],
        ids=["sites", "dim", "index", "nan", "inf"],
    )
    def test_malformed_numbers_carry_line_number(self, text, message):
        with pytest.raises(ValueError, match=message):
            read_qs(text)

    def test_size_limit_checked_from_header(self):
        # 3**(10**9) amplitudes: refused on the header, before any allocation
        with pytest.raises(ValueError, match="line 2: 1000000000 sites"):
            read_qs("sites 1000000000\ndim 3\n1 0 0\n")
        assert read_qs("sites 8\ndim 3\n1 0" + " 0" * 8 + "\n").sites == 8


class TestTerms:
    @staticmethod
    def flat_listing(psi):
        """Oracle: the flat-index listing that ``terms`` replaced."""
        shape = (psi.site_dim,) * psi.sites
        out = []
        for idx in np.flatnonzero(np.abs(psi.coeffs) > 1e-12):
            digits = np.unravel_index(int(idx), shape)
            out.append((complex(psi.coeffs[idx]), tuple(int(k) for k in digits)))
        return out

    def test_rotated_states_list_like_flat_indices(self):
        rng = np.random.default_rng(31)
        states = [catalog_state(name) for name in
                  ("psi2", "psi3", "psi4_1", "psi4_2", "psi4_3", "ghzm")]
        states += [from_terms(1, 3, [(1, "0")]),
                   from_terms(7, 3, [(1, "+0-+0-+")]),
                   from_terms(12, 2, [(1, "+" * 12), (1, "-" * 12)])]
        for psi in states:
            for u in (np.eye(psi.site_dim), rotation_unitary(
                    psi.site_dim, rng.standard_normal(3), rng.uniform(0, 6))):
                rotated = apply_identical_local(psi, u)
                got = list(rotated.terms())
                assert got == self.flat_listing(rotated)
                assert all(type(a) is complex and
                           all(type(k) is int for k in digits)
                           for a, digits in got)


class TestStateValue:
    def test_zero_state_rejected(self):
        with pytest.raises(ValueError, match="state has zero norm"):
            MultipartiteState(1, 2, np.zeros(2))

    @pytest.mark.parametrize(
        "coeffs,message",
        [
            ([1e-320, 0], "state norm underflows to zero"),
            ([1e308, 1e308], "state norm overflows"),
            ([np.inf, 0], "state norm overflows"),
            ([np.nan, 1], "state has a NaN amplitude"),
        ],
    )
    def test_norm_errors_name_the_cause(self, coeffs, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                MultipartiteState(1, 2, coeffs)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            MultipartiteState(2, 3, np.ones(8))

    def test_coeffs_read_only(self):
        psi = catalog_state("psi2")
        with pytest.raises(ValueError):
            psi.coeffs[0] = 1.0
