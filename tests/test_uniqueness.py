import numpy as np
import pytest

from qlctx.states import (
    MultipartiteState,
    apply_identical_local,
    catalog_state,
    from_terms,
)
from qlctx.uniqueness import (
    NullFilterError,
    check_uniqueness,
    check_uniqueness_rotated,
    counterfactual_complete,
    filter_outcome,
)

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

    def test_counterfactual_matches_reference_possibilities(self):
        # completion reads the renormalized filtered state, so the oracle
        # runs on that state too
        for psi in _sparse_states():
            for site, outcome in reference_uniqueness(psi)[1]:
                filtered = filter_outcome(psi, site, outcome)
                want = reference_uniqueness(filtered)[1][(site, outcome)]
                done = counterfactual_complete(psi, site, outcome)
                forced = {t: (v,) for t, v in done.determined.items()}
                assert {**forced, **done.ambiguous} == want
