import copy
import pickle
import tracemalloc
import warnings
from functools import reduce
from math import comb

import numpy as np
import pytest

from qlctx import _text, contexts, states
from qlctx.contexts import context_operator, link_observables
from qlctx.uniqueness import check_uniqueness_rotated
from qlctx.states import (
    MultipartiteState,
    apply_identical_local,
    apply_local,
    catalog_state,
    identical_rotations,
    is_form_invariant,
    kernel,
    read_qs,
    rotation_unitary,
    singlet_subspace,
    spin_matrices,
    spin_total_operators,
    unitarity_defect,
    write_qs,
)

from oracles import from_terms, reference_apply_local, reference_kernel


def dense_singlet_kernel(d, n):
    """Oracle: SVD kernel of the dense (d**n)² Casimir S_x² + S_y² + S_z²,
    a matrix far from full row rank."""
    sx, sy, sz = spin_total_operators(d, n)
    return reference_kernel(sx @ sx + sy @ sy + sz @ sz)


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

    @pytest.mark.parametrize("d, n", [(2, 12), (3, 7), (3, 4), (3, 8)])
    def test_bit_identical_to_tensordot(self, d, n):
        # BLAS rounds the columns of a ragged last block apart from the
        # rest, so the contraction must hand each product its columns in
        # the order tensordot does; for spin 1 an even n shows a wrong order
        rng = np.random.default_rng(10 * d + n)
        c = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
        psi = MultipartiteState(n, d, c)
        u = rotation_unitary(d, rng.standard_normal(3), rng.uniform(0, 7))
        mixed = [random_unitary(d, rng) for _ in range(n)]
        for mats in ([u] * n, mixed):
            want = MultipartiteState(n, d, reference_apply_local(psi, mats))
            assert np.array_equal(apply_local(psi, mats).coeffs, want.coeffs)

    @pytest.mark.parametrize("name", ["psi2", "psi3", "psi4_1", "psi4_2",
                                      "psi4_3", "ghzm"])
    def test_catalog_bit_identical_to_tensordot(self, name):
        psi = catalog_state(name)
        rng = np.random.default_rng(7)
        for _ in range(5):
            mats = [random_unitary(psi.site_dim, rng) for _ in range(psi.sites)]
            for each in (mats, [mats[0]] * psi.sites):
                want = MultipartiteState(psi.sites, psi.site_dim,
                                         reference_apply_local(psi, each))
                assert np.array_equal(apply_local(psi, each).coeffs,
                                      want.coeffs)

    def test_each_distinct_unitary_is_checked_once(self, monkeypatch):
        calls = []
        defect = states.unitarity_defect
        monkeypatch.setattr(states, "unitarity_defect",
                            lambda u: calls.append(u) or defect(u))
        psi = from_terms(7, 3, [(1, "+0-+0-+")])
        u, v = rotation_unitary(3, [1, 0, 0], 0.3), np.eye(3)
        apply_identical_local(psi, u)
        assert len(calls) == 1
        apply_local(psi, [u, v, u, v, u, u, u])
        assert len(calls) == 3

    def test_stacked_unitaries_are_each_checked(self):
        # iterating a stacked array gives a fresh view per site, and a view
        # freed early could lend its id to the next site's matrix
        psi = catalog_state("psi3")
        swap = np.eye(3)[[1, 0, 2]]
        assert apply_local(psi, np.stack([swap, swap, swap])).overlap(
            apply_identical_local(psi, swap)) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="matrix is not unitary"):
            apply_local(psi, np.stack([swap, swap.T, 2 * swap]))

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

    def test_rotated_uniqueness_sees_the_same_rotations(self):
        # form invariance and the rotated uniqueness check share one stream
        psi = catalog_state("ghzm")
        stream = list(identical_rotations(psi, 4, 3))
        assert len(stream) == 4
        for rot, rotated in stream:
            assert np.array_equal(rotated.coeffs,
                                  apply_identical_local(psi, rot.unitary).coeffs)
        worst = min(psi.overlap(rotated) for _, rotated in stream)
        assert is_form_invariant(psi, trials=4, seed=3)[1] == min(1.0, worst)
        entries = check_uniqueness_rotated(psi, 4, seed=3)[1:]
        assert [(e.rotation.axis, e.rotation.angle) for e in entries] == \
            [(rot.axis, rot.angle) for rot, _ in stream]


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
        assert states.KERNEL_TOLERANCE == 1e-9
        assert not hasattr(states, "DEFAULT_TOL")
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

    @pytest.mark.parametrize("text,message", [
        ("sites 1\ndim 4\n1 0 0\n", "line 2: unsupported dim 4"),
        ("sites 9\ndim 3\n1 0" + " 0" * 9 + "\n",
         "line 2: 9 sites of dimension 3 exceed the total dimension limit 10000"),
    ], ids=["dim", "size"])
    def test_parser_checks_the_header_for_every_reader(self, text, message):
        # qlctx catalog reads through parse_qs alone, without states
        for reader in (_text.parse_qs, read_qs):
            with pytest.raises(ValueError, match=f"^{message}$"):
                reader(text)

    def test_header_rules_live_in_the_parser(self):
        assert states.SITE_LABELS is _text.SITE_LABELS
        assert states.MAX_TOTAL_DIM is _text.MAX_TOTAL_DIM
        assert states.TERM_CUTOFF is _text.TERM_CUTOFF


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

    @pytest.mark.parametrize("sites, expected", [
        (64, str(2**64)), (65, r"2\*\*65"), (10**5, r"2\*\*100000"),
    ])
    def test_huge_site_count_is_not_expanded(self, sites, expected):
        # past 64 sites the message names d**n instead of building it:
        # 2**100000 has more digits than Python converts to a string
        with pytest.raises(ValueError, match=f"length 1, expected {expected}$"):
            MultipartiteState(sites, 2, np.ones(1))

    @pytest.mark.parametrize("outcome", [True, False, np.True_])
    def test_bool_outcome_refused(self, outcome):
        # True would otherwise be read as level 1, the label '0'
        with pytest.raises(ValueError, match="is a bool"):
            catalog_state("psi2").label_index(outcome)

    def test_replace_builds_a_checked_state(self):
        # a named tuple's _replace goes through the constructor's checks
        psi = catalog_state("psi2")._replace(site_dim=2, sites=1, coeffs=[3, 4])
        assert np.allclose(psi.coeffs, [0.6, 0.8])
        assert not psi.coeffs.flags.writeable
        with pytest.raises(ValueError, match="has length 9, expected 3"):
            catalog_state("psi2")._replace(sites=1)

    def test_copies_keep_the_coefficients(self):
        # a copy must not normalize again: that can move the last bit
        rng = np.random.default_rng(0)
        for _ in range(20):
            psi = MultipartiteState(3, 3, rng.standard_normal(27)
                                    + 1j * rng.standard_normal(27))
            for again in (copy.copy(psi), copy.deepcopy(psi),
                          pickle.loads(pickle.dumps(psi))):
                assert type(again) is MultipartiteState and again is not psi
                assert again.coeffs.tobytes() == psi.coeffs.tobytes()

    def test_coeffs_read_only(self):
        psi = catalog_state("psi2")
        with pytest.raises(ValueError):
            psi.coeffs[0] = 1.0


# --- kernel, spin matrices and rotation unitaries --------------------------


def test_kernel_trivial_cases():
    assert kernel(np.eye(3)) == []
    # the QR kernel takes matrices of full rank only
    for m in (np.zeros((3, 3)), np.diag([0.0, 1.0, 2.0]), np.ones((3, 2)),
              np.full((2, 3), np.nan)):
        with pytest.raises(ValueError, match="full rank"):
            kernel(m)


@pytest.mark.parametrize("rows,cols",
                         [(1, 4), (3, 7), (5, 6), (6, 6), (7, 3), (40, 57)])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_kernel_matches_reference_kernel(rows, cols, field):
    # random matrices have full rank; a complex one tells mᴴ from mᵀ
    rng = np.random.default_rng(rows * 100 + cols)
    m = rng.standard_normal((rows, cols))
    if field == "complex":
        m = m + 1j * rng.standard_normal((rows, cols))
    got, want = kernel(m), reference_kernel(m)
    assert len(got) == len(want) == max(cols - rows, 0)
    assert np.max(np.abs(projector(got, cols) - projector(want, cols))) < 1e-9
    if field == "real":
        assert all(v.dtype == np.float64 for v in got)


def test_kernel_checks_its_residual(monkeypatch):
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    qr = np.linalg.qr

    def perturbed(a, mode="reduced"):
        q, r = qr(a, mode=mode)
        return q + 1e-6 * rng.standard_normal(q.shape), r

    monkeypatch.setattr(np.linalg, "qr", perturbed)
    with pytest.raises(ArithmeticError):
        kernel(m)


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


def test_form_invariance_names_the_bad_trial_count():
    with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
        is_form_invariant(catalog_state("psi2"), trials=0)


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
    from scipy.linalg import expm

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
