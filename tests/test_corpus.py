import json
from pathlib import Path

import numpy as np
import pytest

from qlctx import corpus
from qlctx.logic import GreechieDiagram, make_diagram, two_valued_states
from qlctx.realizability import saturate_orthogonality
from qlctx.states import MultipartiteState, catalog_state

from oracles import oracle_two_valued, random_diagram

GOLDEN = Path(__file__).parent / "golden"


class TestEntries:
    def test_every_entry_parses(self):
        for entry_id in corpus.DIAGRAM_IDS:
            assert isinstance(corpus.load(entry_id), GreechieDiagram)
        for entry_id in corpus.STATE_IDS:
            assert isinstance(corpus.load(entry_id), MultipartiteState)

    def test_fig1_shape(self):
        d = corpus.load("fig1")
        assert len(d.atoms) == 5
        assert len(d.contexts) == 2

    def test_fig3_context_count(self):
        assert len(corpus.load("fig3").contexts) == 16

    @pytest.mark.parametrize(
        "name", ["psi2", "psi3", "psi4_1", "psi4_2", "psi4_3", "ghzm"]
    )
    def test_state_files_match_catalog(self, name):
        # the corpus file is the catalog: it loads bit for bit to the
        # normalized amplitudes pinned by the `catalog` golden
        psi = catalog_state(name)
        if name == "psi2":
            rows = (GOLDEN / "catalog_psi2.qs").read_text().splitlines()[3:]
            terms = [(complex(float(re), float(im)), tuple(map(int, digits)))
                     for re, im, *digits in map(str.split, rows)]
        else:
            pinned = json.loads((GOLDEN / f"catalog_{name}.json").read_text())
            terms = [(complex(t["re"], t["im"]), tuple(t["indices"]))
                     for t in pinned["terms"]]
        want = np.zeros((psi.site_dim,) * psi.sites, dtype=complex)
        for amp, digits in terms:
            want[digits] = amp
        assert psi.coeffs.tobytes() == want.reshape(-1).tobytes()
        assert corpus.load(name).coeffs.tobytes() == psi.coeffs.tobytes()

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown corpus id"):
            corpus.load("fig9")

    def test_data_path_exists(self):
        import pathlib

        assert pathlib.Path(corpus.data_path("fig1")).is_file()


class TestOracle:
    def test_single_context(self):
        d = make_diagram([("A", "B", "C")])
        assert len(oracle_two_valued(d)) == 3

    def test_fig1_five_states(self):
        states = oracle_two_valued(corpus.load("fig1"))
        assert len(states) == 5

    def test_fig2b_has_classical_states(self):
        # assignment with B, D, L true satisfies all three contexts
        states = oracle_two_valued(corpus.load("fig2b"))
        assert frozenset({"B", "D", "L"}) in states

    @pytest.mark.parametrize("name", ["fig1", "fig2a", "fig2b"])
    def test_matches_backtracking(self, name):
        d = corpus.load(name)
        assert oracle_two_valued(d) == two_valued_states(d)

    def test_too_many_atoms(self):
        contexts = [(f"a{i}", f"b{i}", f"c{i}") for i in range(10)]  # 30 atoms
        d = make_diagram(contexts)
        with pytest.raises(ValueError, match="too many atoms"):
            oracle_two_valued(d)


class TestIndependence:
    def test_fig2b_classically_consistent_but_hilbert_refuted(self):
        d = corpus.load("fig2b")
        assert two_valued_states(d)  # abstract logic is consistent
        assert saturate_orthogonality(d).verdict == "contradiction"


class TestRandomDiagrams:
    def test_generator_produces_valid_diagrams(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = random_diagram(rng, max_atoms=18)
            assert len(d.atoms) <= 18
            assert d.dim == 3
            used = {a for ctx in d.contexts for a in ctx}
            assert used == set(d.atoms)

    def test_generator_deterministic(self):
        a = random_diagram(np.random.default_rng(42))
        b = random_diagram(np.random.default_rng(42))
        assert a == b
