import tracemalloc

import numpy as np
import pytest

from qlctx.states import (
    MultipartiteState,
    apply_identical_local,
    catalog_state,
    sample_rotation,
)
from qlctx.uniqueness import (
    NullFilterError,
    check_uniqueness,
    check_uniqueness_rotated,
    counterfactual_complete,
    filter_outcome,
)

from oracles import from_terms

CATALOG = ("psi2", "psi3", "psi4_1", "psi4_2", "psi4_3", "ghzm")


@pytest.mark.parametrize(
    "name,expected", [("psi3", 6), ("psi2", 3), ("ghzm", 2),
                      ("psi4_1", 19), ("psi4_2", 12), ("psi4_3", 9)]
)
def test_term_counts(name, expected):
    assert check_uniqueness(catalog_state(name)).term_count == expected


class TestFilter:
    def test_psi3_first_site_minus(self):
        out = filter_outcome(catalog_state("psi3"), 0, "-")
        expected = from_terms(3, 3, [(1, "-+0"), (-1, "-0+")])
        assert out.overlap(expected) >= 1 - 1e-12

    def test_psi2_first_site_plus(self):
        out = filter_outcome(catalog_state("psi2"), 0, "+")
        expected = from_terms(2, 3, [(1, "+-")])
        assert out.overlap(expected) >= 1 - 1e-12

    def test_null_filter(self):
        # after filtering |psi2> on '+' at site 0 the state is |+->,
        # so outcome '0' at site 0 carries no amplitude
        two_term = filter_outcome(catalog_state("psi2"), 0, "+")
        with pytest.raises(NullFilterError, match="null filter"):
            filter_outcome(two_term, 0, "0")

    def test_idempotent_up_to_phase(self):
        psi = catalog_state("psi3")
        once = filter_outcome(psi, 1, "0")
        twice = filter_outcome(once, 1, "0")
        assert once.overlap(twice) >= 1 - 1e-12

    def test_site_range(self):
        with pytest.raises(ValueError):
            filter_outcome(catalog_state("psi2"), 5, "+")

    def test_accepts_level_index(self):
        by_label = filter_outcome(catalog_state("psi2"), 0, "-")
        by_index = filter_outcome(catalog_state("psi2"), 0, 2)
        assert by_label.overlap(by_index) >= 1 - 1e-12

    def test_one_site_state(self):
        psi = MultipartiteState(1, 3, np.array([0.6, 0.0, 0.8j]))
        out = filter_outcome(psi, 0, "-")
        assert np.array_equal(out.coeffs, [0, 0, 1j])
        with pytest.raises(NullFilterError, match="outcome '0'"):
            filter_outcome(psi, 0, "0")

    @pytest.mark.parametrize("site", [0, 1, 3])
    def test_other_sites_untouched(self, site):
        rng = np.random.default_rng(site)
        psi = apply_identical_local(from_terms(4, 3, [(1, "+0-+")]),
                                    sample_rotation(3, rng).unitary)
        out = filter_outcome(psi, site, "0")
        slabs = np.moveaxis(out.tensor_view(), site, 0)
        want = np.moveaxis(psi.tensor_view(), site, 0)[1]
        assert not slabs[0].any() and not slabs[2].any()
        assert np.allclose(slabs[1], want / np.linalg.norm(want))


class TestCheckUniqueness:
    def test_psi2_unique(self):
        assert check_uniqueness(catalog_state("psi2")).overall

    def test_ghzm_unique_in_preparation_basis(self):
        assert check_uniqueness(catalog_state("ghzm")).overall

    def test_psi3_not_unique_with_ambiguity(self):
        report = check_uniqueness(catalog_state("psi3"))
        assert not report.overall
        # the '-' outcome at site 0 leaves both '+' and '0' open at site 1
        assert set(report.possibilities[(0, "-")][1]) == {"+", "0"}

    @pytest.mark.parametrize("name", ["psi4_1", "psi4_2", "psi4_3"])
    def test_psi4_not_unique(self, name):
        assert not check_uniqueness(catalog_state(name)).overall

    @pytest.mark.parametrize("name", CATALOG)
    def test_tolerance_above_every_amplitude_is_refused(self, name):
        # an empty support would read as "unique" with no terms, although
        # psi3 and the psi4 states are not unique
        psi = catalog_state(name)
        largest = float(np.max(np.abs(psi.coeffs)))
        assert check_uniqueness(psi, tol=0.99 * largest).term_count >= 1
        for tol in (largest, 5.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="no nonzero amplitude"):
                check_uniqueness(psi, tol=tol)
        # a rotation can raise the largest amplitude, but never above 1
        with pytest.raises(ValueError, match="no nonzero amplitude"):
            check_uniqueness_rotated(psi, 2, seed=1, tol=1.0)

    def test_negative_tolerance_is_refused(self):
        # it would count the zero amplitudes: psi2 read as not unique with 9
        # terms, and every level as possible in a completion
        psi = catalog_state("psi2")
        for call in (lambda: check_uniqueness(psi, tol=-1.0),
                     lambda: check_uniqueness_rotated(psi, 1, tol=-1.0),
                     lambda: filter_outcome(psi, 0, "+", tol=-1.0),
                     lambda: counterfactual_complete(psi, 0, "+", tol=-1.0)):
            with pytest.raises(ValueError, match="tolerance must be nonnegative"):
                call()
        assert check_uniqueness(psi, tol=0.0).term_count == 3

    @pytest.mark.parametrize("d, n, bound_mib", [(2, 16, 16), (3, 10, 9)])
    def test_dense_state_peak_memory(self, d, n, bound_mib):
        # the support is decoded in blocks of digit rows; a K×n matrix of
        # the digits of every amplitude peaks at 16.1 and 9.1 MiB on these
        # states
        rng = np.random.default_rng(n)
        psi = MultipartiteState(
            n, d, rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n))
        tracemalloc.start()
        try:
            report = check_uniqueness(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.term_count == d**n and not report.overall
        assert peak < bound_mib * 2**20

    def test_unique_implies_term_count_at_most_dim(self):
        for name in CATALOG:
            psi = catalog_state(name)
            report = check_uniqueness(psi)
            if report.overall:
                assert report.term_count <= psi.site_dim

    def test_outcome_probabilities_sum_to_one(self):
        for name in CATALOG:
            psi = catalog_state(name)
            tens = psi.tensor_view()
            for s in range(psi.sites):
                slabs = np.moveaxis(tens, s, 0)
                total = sum(
                    float(np.sum(np.abs(slabs[k]) ** 2))
                    for k in range(psi.site_dim)
                )
                assert abs(total - 1.0) < 1e-9


class TestRotated:
    def test_ghzm_identity_entry(self):
        results = check_uniqueness_rotated(catalog_state("ghzm"), trials=3, seed=4)
        first = results[0]
        assert first.rotation.angle == 0.0
        assert first.report.overall
        assert first.report.term_count == 2

    def test_ghzm_generic_rotations_fail(self):
        results = check_uniqueness_rotated(catalog_state("ghzm"), trials=10, seed=4)
        generic = [r for r in results[1:] if r.report.term_count == 8]
        assert generic  # the sampled angles are generic for this seed
        assert all(not r.report.overall for r in generic)

    def test_psi2_unique_under_all_rotations(self):
        results = check_uniqueness_rotated(catalog_state("psi2"), trials=100, seed=0)
        assert all(r.report.overall for r in results)

    def test_zero_trials_is_the_identity_entry_alone(self):
        results = check_uniqueness_rotated(catalog_state("psi3"), 0)
        assert len(results) == 1
        assert results[0].rotation.angle == 0.0
        assert not results[0].report.overall
        with pytest.raises(ValueError, match="trials must be >= 0"):
            check_uniqueness_rotated(catalog_state("psi3"), -1)

    def test_identity_entry_is_the_check_of_psi(self):
        rng = np.random.default_rng(3)
        psi = apply_identical_local(from_terms(5, 3, [(1, "+0-0+")]),
                                    sample_rotation(3, rng).unitary)
        for tol in (1e-9, 0.05):
            first = check_uniqueness_rotated(psi, 2, seed=1, tol=tol)[0].report
            report = check_uniqueness(psi, tol)
            assert first.site_verdicts == report.site_verdicts
            assert first.possibilities == report.possibilities
            assert list(first.possibilities) == list(report.possibilities)
            assert first.term_count == report.term_count

    def test_results_in_trial_order_and_deterministic(self):
        a = check_uniqueness_rotated(catalog_state("ghzm"), trials=5, seed=9)
        b = check_uniqueness_rotated(catalog_state("ghzm"), trials=5, seed=9)
        for ra, rb in zip(a, b):
            assert ra.rotation.axis == rb.rotation.axis
            assert ra.rotation.angle == rb.rotation.angle


class TestCounterfactual:
    def test_psi2_completions(self):
        psi = catalog_state("psi2")
        out = counterfactual_complete(psi, 0, "0")
        assert out.complete and out.determined == {1: "0"}
        out = counterfactual_complete(psi, 0, "+")
        assert out.complete and out.determined == {1: "-"}

    def test_psi3_failure_carries_ambiguity(self):
        out = counterfactual_complete(catalog_state("psi3"), 0, "-")
        assert not out.complete
        assert set(out.ambiguous[1]) == {"+", "0"}
        assert set(out.ambiguous[2]) == {"+", "0"}

    def test_null_filter_propagates(self):
        two_term = filter_outcome(catalog_state("psi2"), 0, "+")
        with pytest.raises(NullFilterError):
            counterfactual_complete(two_term, 0, "0")

    def test_small_filtered_amplitudes_are_not_renormalized(self):
        # after the filter on site 0 = '-' only 2e-9 and 0.9e-9 are left;
        # renormalizing them would lift 0.9e-9 above the tolerance, while
        # check_uniqueness compares the amplitudes of psi itself
        psi = from_terms(2, 2, [(1, "++"), (2e-9, "-+"), (0.9e-9, "--")])
        sups = check_uniqueness(psi, tol=1e-9).possibilities[(0, "-")]
        assert sups == {1: ("+",)}
        out = counterfactual_complete(psi, 0, "-", tol=1e-9)
        assert out.complete and out.determined == {1: "+"}

    def test_one_site_state(self):
        psi = MultipartiteState(1, 2, np.array([1.0, 1.0]))
        out = counterfactual_complete(psi, 0, "-")
        assert out.complete and out.outcome == "-"
        assert out.determined == {} and out.ambiguous == {}
        with pytest.raises(NullFilterError):
            counterfactual_complete(filter_outcome(psi, 0, "+"), 0, "-")

    def test_checks_in_order(self):
        psi = catalog_state("psi2")
        with pytest.raises(ValueError, match="site 2 out of range"):
            counterfactual_complete(psi, 2, "bogus")
        with pytest.raises(ValueError, match="unknown outcome 'bogus'"):
            counterfactual_complete(psi, 0, "bogus")

    def test_reads_one_slab_of_memory(self):
        # a two-term 12-site spin-1 state: the tensor holds 3^12 amplitudes
        # (8.5 MB), the observed slab 3^11; a gate that copies the whole
        # tensor peaks near 17 MB
        psi = from_terms(12, 3, [(1, "+0-+0-+0-+0-"), (1, "-0+-0+-0+-0+")])
        for site in (0, 5, 11):
            tracemalloc.start()
            try:
                out = counterfactual_complete(psi, site, "+")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.complete and len(out.determined) == 11
            assert peak < 3e6

    def test_bool_outcome_is_refused(self):
        # True is no label, and as level 1 it would mean '0'
        psi = catalog_state("psi2")
        for call in (counterfactual_complete, filter_outcome):
            with pytest.raises(ValueError, match="is a bool"):
                call(psi, 1, True)

    def test_agrees_with_possibility_sets(self):
        # completion succeeds exactly when every possibility set is a singleton
        for name in CATALOG:
            psi = catalog_state(name)
            report = check_uniqueness(psi)
            for (site, outcome), sups in report.possibilities.items():
                out = counterfactual_complete(psi, site, outcome)
                assert out.complete == all(len(v) == 1 for v in sups.values())
                for t, v in sups.items():
                    if len(v) == 1:
                        assert out.determined[t] == v[0]
                    else:
                        assert out.ambiguous[t] == v


def reference_uniqueness(psi, tol=1e-9):
    """Slab-by-slab uniqueness check that takes |amplitude| afresh for every
    site, level and axis; the oracle for the mask-based ``check_uniqueness``.
    Returns (site verdicts, possibility sets, term count)."""
    tens = psi.tensor_view()
    verdicts, possibilities = [], {}
    for s in range(psi.sites):
        site_ok = True
        for level, label in enumerate(psi.labels):
            slab = np.moveaxis(tens, s, 0)[level]
            if np.max(np.abs(slab)) <= tol:
                continue
            sups = {}
            others = [t for t in range(psi.sites) if t != s]
            for axis, t in enumerate(others):
                rest = tuple(ax for ax in range(psi.sites - 1) if ax != axis)
                amax = np.max(np.abs(slab), axis=rest) if rest else np.abs(slab)
                sups[t] = tuple(psi.labels[j] for j in np.flatnonzero(amax > tol))
            possibilities[(s, label)] = sups
            site_ok = site_ok and all(len(v) == 1 for v in sups.values())
        verdicts.append(site_ok)
    return tuple(verdicts), possibilities, int(np.sum(np.abs(psi.coeffs) > tol))


def _sparse_states():
    rng = np.random.default_rng(41)
    for d, n in [(2, 1), (3, 1), (2, 3), (3, 3), (2, 5), (3, 4), (2, 8), (3, 5)]:
        for terms in (1, 2, 3, d, 2 * d, d**n):
            c = np.zeros(d**n, dtype=complex)
            support = rng.choice(d**n, size=min(terms, d**n), replace=False)
            c[support] = rng.standard_normal(support.size) + 1j
            # amplitudes straddling the tolerance exercise the comparison
            c[rng.integers(d**n)] += 1e-9 * rng.choice([0.5, 1.0, 2.0])
            yield MultipartiteState(n, d, c)


class TestAgainstReference:
    def _agree(self, psi, tol=1e-9):
        report = check_uniqueness(psi, tol)
        verdicts, possibilities, count = reference_uniqueness(psi, tol)
        assert report.site_verdicts == verdicts
        assert report.possibilities == possibilities
        assert list(report.possibilities) == list(possibilities)
        assert report.term_count == count

    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog(self, name):
        self._agree(catalog_state(name))

    def test_sparse_random_states(self):
        for psi in _sparse_states():
            for tol in (1e-9, 1e-3, 0.0):
                self._agree(psi, tol)

    def test_rotated_states(self):
        for name in CATALOG:
            for entry in check_uniqueness_rotated(catalog_state(name), 3, seed=5):
                rotated = apply_identical_local(catalog_state(name),
                                                entry.rotation.unitary)
                self._agree(rotated)

    def test_benchmark_sized_rotated_states(self):
        # the shapes the spin benchmark checks: a 12-site spin-1/2 GHZ state
        # and a 7-site spin-1 product state, each rotated to a dense state
        rng = np.random.default_rng(17)
        ghz = from_terms(12, 2, [(1, "+" * 12), (1, "-" * 12)])
        product = from_terms(7, 3, [(1, "+0-+0-+")])
        for psi in (ghz, product):
            u = sample_rotation(psi.site_dim, rng).unitary
            rotated = apply_identical_local(psi, u)
            assert check_uniqueness(rotated).term_count == psi.site_dim**psi.sites
            self._agree(rotated)
            self._agree(psi)

    def test_zero_tolerance_on_dense_state(self):
        rng = np.random.default_rng(23)
        psi = apply_identical_local(from_terms(5, 3, [(1, "+0-0+")]),
                                    sample_rotation(3, rng).unitary)
        for tol in (0.0, 1e-3, 0.05):
            self._agree(psi, tol)

    def test_counterfactual_matches_reference_possibilities(self):
        # completion thresholds the amplitudes of psi, as check_uniqueness
        # does, so the oracle runs on psi; the sparse states put amplitudes
        # on both sides of the tolerance, and the rotated 12-site spin-1/2
        # GHZ state is dense
        ghz = from_terms(12, 2, [(1, "+" * 12), (1, "-" * 12)])
        rotated = apply_identical_local(
            ghz, sample_rotation(2, np.random.default_rng(17)).unitary)
        for psi in [*_sparse_states(), rotated]:
            for (site, outcome), want in reference_uniqueness(psi)[1].items():
                done = counterfactual_complete(psi, site, outcome)
                forced = {t: (v,) for t, v in done.determined.items()}
                assert {**forced, **done.ambiguous} == want
