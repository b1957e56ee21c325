import codecs
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qlctx import corpus
from qlctx.cli import _terms_payload, main
from qlctx.realizability import load_realization, verify_realization
from qlctx.states import catalog_state, read_qs, singlet_subspace, write_qs

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


class _Tee(io.StringIO):
    """A stream that also writes everything into ``both``."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


def run(*args):
    """``main`` on ``args`` in this process: its exit code, ``stdout``,
    ``output`` (stdout and stderr in write order) and the ``exception`` that
    ended it (a SystemExit for a clean exit; any other one is exit code 1)."""
    both = io.StringIO()
    out, err = _Tee(both), _Tee(both)
    code, exception = 0, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc
        except Exception as exc:
            code, exception = 1, exc
    return SimpleNamespace(exit_code=code, stdout=out.getvalue(),
                           output=both.getvalue(), exception=exception)


def check_golden(name, text):
    path = GOLDEN / name
    if os.environ.get("QLCTX_REGEN_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert path.read_text() == text


class TestStatesCommands:
    def test_enumerate_fig1_json(self):
        result = run("states", "enumerate", corpus.data_path("fig1"), "--json")
        assert result.exit_code == 0
        check_golden("states_enumerate_fig1.json", result.output)

    def test_classify_fig3_json_negative_exit(self):
        result = run("states", "classify", corpus.data_path("fig3"), "--json")
        assert result.exit_code == 1
        check_golden("states_classify_fig3.json", result.output)

    def test_classify_fig1_text(self):
        result = run("states", "classify", corpus.data_path("fig1"))
        assert result.exit_code == 0
        check_golden("states_classify_fig1.txt", result.output)

    def test_enumerate_empty_diagram_exits_1(self, tmp_path):
        gd = tmp_path / "cycle.gd"
        gd.write_text("context a b\ncontext b c\ncontext c a\n")
        result = run("states", "enumerate", gd)
        assert result.exit_code == 1


class TestHullCommand:
    def test_vertex_inside(self):
        result = run("hull", corpus.data_path("fig1"), "--p", "A=1", "--json")
        assert result.exit_code == 0
        check_golden("hull_inside_fig1.json", result.output)

    def test_outside_with_functional(self):
        result = run(
            "hull", corpus.data_path("fig1"), "--p", "A=1,B=1/2", "--json"
        )
        assert result.exit_code == 1
        check_golden("hull_outside_fig1.json", result.output)

    def test_bad_assignment_usage_error(self):
        result = run("hull", corpus.data_path("fig1"), "--p", "A;1")
        assert result.exit_code == 2

    def test_out_of_range_usage_error(self):
        result = run("hull", corpus.data_path("fig1"), "--p", "A=2")
        assert result.exit_code == 2

    def test_decimal_tol_keeps_decimal_weights(self, tmp_path):
        # the atoms sum to 1 + 10^-10, inside only within the band; read as
        # a float, the default 1e-9 gave weights with 32-digit denominators
        gd = tmp_path / "abc.gd"
        gd.write_text("context A B C\n")
        p = "A=3/10,B=3/10,C=4000000001/10000000000"
        result = run("hull", gd, "--p", p, "--json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["verdict"] == "inside"
        assert "tol" not in payload
        weights = [Fraction(w["weight"]) for w in payload["weights"]]
        assert sum(weights) == 1
        assert all(10**10 % w.denominator == 0 for w in weights)
        result = run("hull", gd, "--p", p, "--tol", "1/100000000000")
        assert result.exit_code == 1


class TestRealizabilityCommands:
    def test_saturate_fig2b_refuted(self):
        result = run("saturate", corpus.data_path("fig2b"))
        assert result.exit_code == 1
        check_golden("saturate_fig2b.txt", result.output)

    def test_saturate_fig2a_json(self):
        result = run("saturate", corpus.data_path("fig2a"), "--json")
        assert result.exit_code == 0
        check_golden("saturate_fig2a.json", result.output)

    def test_realize_fig2a_success_and_deterministic(self):
        args = ("realize", corpus.data_path("fig2a"), "--dim", "3",
                "--seed", "0", "--restarts", "4", "--json")
        first = run(*args)
        second = run(*args)
        assert first.exit_code == 0
        assert first.output == second.output  # byte-identical given --seed
        assert '"success": true' in first.output

    def test_realize_fig2a_exact_json(self, monkeypatch):
        from qlctx import realizability

        monkeypatch.setattr(realizability, "minimize", None)
        result = run("realize", corpus.data_path("fig2a"), "--dim", "3",
                     "--json")
        assert result.exit_code == 0
        got = json.loads(result.output)
        assert list(got) == ["success", "penalty", "best_restart",
                             "restart_penalties", "vectors", "space",
                             "certificate", "integer_vectors"]
        assert got["success"] is True and got["penalty"] == 0.0
        assert got["best_restart"] is None and got["restart_penalties"] == []
        assert got["space"] == "real" and got["certificate"] == "exact"
        fig2a = corpus.load("fig2a")
        assert list(got["integer_vectors"]) == list(fig2a.atoms)
        for atom, coords in got["integer_vectors"].items():
            assert all(isinstance(c, str) for c in coords)
            v = np.array([int(c) for c in coords], dtype=float)
            floats = np.array([complex(re, im) for re, im in got["vectors"][atom]])
            assert np.allclose(floats, v / np.linalg.norm(v), rtol=0, atol=1e-15)

    def test_realize_exact_text_and_file(self, monkeypatch, tmp_path):
        from qlctx import realizability

        monkeypatch.setattr(realizability, "minimize", None)
        out = tmp_path / "fig2a.real"
        result = run("realize", corpus.data_path("fig2a"), "--dim", "3",
                     "--complex", "-o", out)
        assert result.exit_code == 0
        first, rest = result.output.split("\n", 1)
        assert first == "realized exactly (integer witness, no restart run)"
        assert rest == out.read_text()
        real = load_realization(out.read_text())
        assert real.space == "real"
        assert verify_realization(corpus.load("fig2a"), real)[0]

    def test_realize_json_does_not_depend_on_hash_seed(self):
        code = ("from qlctx.cli import main\n"
                f"main(['realize', {str(corpus.data_path('fig2a'))!r}, '--dim', '3',"
                " '--json'])")
        outputs = [subprocess.run(
            [sys.executable, "-c", code], capture_output=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed),
        ).stdout for hash_seed in ("0", "1")]
        assert outputs[0] == outputs[1]
        assert b'"certificate": "exact"' in outputs[0]

    def test_saturate_ring4_refuted(self, tmp_path):
        # c1 and c3 share the neighbours c0 and c2, which are not orthogonal
        gd = tmp_path / "ring4.gd"
        gd.write_text("context c0 m0 c1\ncontext c1 m1 c2\n"
                      "context c2 m2 c3\ncontext c3 m3 c0\n")
        result = run("saturate", gd)
        assert result.exit_code == 1
        check_golden("saturate_ring4.txt", result.output)
        result = run("saturate", gd, "--json")
        assert result.exit_code == 1
        check_golden("saturate_ring4.json", result.output)
        assert "orthogonal_pair" not in result.output
        realized = run("realize", gd, "--dim", "3", "--json")
        assert realized.exit_code == 1
        got = json.loads(realized.output)
        assert got["restart_penalties"] == []
        assert got["refutation"]["derivation"] == \
            json.loads(result.output)["derivation"]

    def test_realize_fig2b_fails(self):
        result = run("realize", corpus.data_path("fig2b"), "--dim", "3",
                     "--seed", "0", "--restarts", "4")
        assert result.exit_code == 1
        # refuted by the saturation derivation, before any search
        assert result.output == (GOLDEN / "saturate_fig2b.txt").read_text()

    def test_realize_fig2b_json_holds_the_derivation(self, monkeypatch):
        from qlctx import realizability

        monkeypatch.setattr(realizability, "minimize", None)
        result = run("realize", corpus.data_path("fig2b"), "--dim", "3",
                     "--json")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        got = json.loads(result.output)
        saturated = json.loads(run("saturate", corpus.data_path("fig2b"),
                                   "--json").output)
        assert got == {"success": False, "penalty": None, "best_restart": None,
                       "restart_penalties": [], "vectors": None,
                       "refutation": {"rule": "saturation",
                                      "derivation": saturated["derivation"]}}

    @pytest.mark.parametrize("as_json", [False, True])
    def test_realize_below_the_context_size(self, monkeypatch, tmp_path,
                                            as_json):
        from qlctx import realizability

        monkeypatch.setattr(realizability, "minimize", None)
        out = tmp_path / "fig1.real"
        result = run("realize", corpus.data_path("fig1"), "--dim", "2",
                     "-o", out, *(["--json"] if as_json else []))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()
        if as_json:
            got = json.loads(result.output)
            assert got["penalty"] is None and got["restart_penalties"] == []
            assert got["refutation"] == {"rule": "context_size", "context": 1,
                                         "atoms": ["B", "C", "A"], "dim": 2}
        else:
            assert result.output == (
                "context 1 (B C A) has 3 atoms, which need 3 mutually "
                "orthogonal vectors\n"
                "refuted: dimension 2 holds at most 2 mutually orthogonal "
                "vectors\n")

    def test_realize_writes_loadable_file(self, tmp_path):
        out = tmp_path / "fig1.real"
        result = run("realize", corpus.data_path("fig1"), "--dim", "3",
                     "--restarts", "3", "-o", out)
        assert result.exit_code == 0
        real = load_realization(out.read_text())
        ok, _ = verify_realization(corpus.load("fig1"), real)
        assert ok

    def test_realize_numerical_witness_to_file(self, tmp_path):
        # fig1 in dimension 4 is left open by the exact stage: L-BFGS finds it
        out = tmp_path / "fig1.real"
        result = run("realize", corpus.data_path("fig1"), "--dim", "4",
                     "--restarts", "2", "-o", out)
        assert result.exit_code == 0
        real = load_realization(out.read_text())
        assert {len(v) for v in real.vectors.values()} == {4}
        assert verify_realization(corpus.load("fig1"), real)[0]

    def test_realize_fig3_searches_without_a_witness(self):
        result = run("realize", corpus.data_path("fig3"), "--dim", "3",
                     "--restarts", "2", "--json")
        assert result.exit_code == 1
        got = json.loads(result.output)
        assert got["success"] is False
        assert len(got["restart_penalties"]) == 2

    def test_realize_exits_1_when_the_verifier_rejects(self, monkeypatch,
                                                       tmp_path):
        from qlctx import realizability

        monkeypatch.setattr(realizability, "verify_realization",
                            lambda *args, **kwargs: (False, []))
        out = tmp_path / "fig1.real"
        result = run("realize", corpus.data_path("fig1"), "--dim", "3",
                     "--restarts", "3", "-o", out)
        assert result.exit_code == 1
        assert "no witness found" in result.output
        assert not out.exists()


class TestRenderCommand:
    def test_tkadlec_fig1(self):
        result = run("render", corpus.data_path("fig1"), "--style", "tkadlec")
        assert result.exit_code == 0
        check_golden("render_fig1_tkadlec.dot", result.output)

    def test_dot_fig1(self):
        result = run("render", corpus.data_path("fig1"), "--style", "dot")
        assert result.exit_code == 0
        check_golden("render_fig1_dot.dot", result.output)

    def test_greechie_fig2a(self):
        result = run("render", corpus.data_path("fig2a"), "--style", "greechie")
        assert result.exit_code == 0
        check_golden("render_fig2a_greechie.dot", result.output)

    def test_render_json_wrapper(self):
        result = run("render", corpus.data_path("fig1"), "--style", "tkadlec",
                     "--json")
        assert result.exit_code == 0
        check_golden("render_fig1_tkadlec.json", result.output)

    def test_tkadlec_dim2_usage_error(self, tmp_path):
        gd = tmp_path / "pair.gd"
        gd.write_text("context a b\ncontext b c\n")
        result = run("render", gd, "--style", "tkadlec")
        assert result.exit_code == 2

    def test_output_file(self, tmp_path):
        out = tmp_path / "fig1.dot"
        result = run("render", corpus.data_path("fig1"), "-o", out)
        assert result.exit_code == 0
        assert out.read_text().startswith("graph")


class TestUniqCommand:
    def test_psi2_unique(self):
        result = run("uniq", "check", corpus.data_path("psi2"))
        assert result.exit_code == 0
        check_golden("uniq_check_psi2.txt", result.output)

    def test_psi3_not_unique_json(self):
        result = run("uniq", "check", corpus.data_path("psi3"), "--json")
        assert result.exit_code == 1
        check_golden("uniq_check_psi3.json", result.output)

    def test_psi2_survives_rotations(self):
        result = run("uniq", "check", corpus.data_path("psi2"),
                     "--rotations", "20", "--seed", "0")
        assert result.exit_code == 0

    def test_ghzm_fails_under_rotations(self):
        result = run("uniq", "check", corpus.data_path("ghzm"),
                     "--rotations", "5", "--seed", "0")
        assert result.exit_code == 1

    def test_rotated_json_deterministic(self):
        args = ("uniq", "check", corpus.data_path("ghzm"),
                "--rotations", "5", "--seed", "7", "--json")
        assert run(*args).output == run(*args).output


class TestStateConstructors:
    def test_catalog_psi2_text(self):
        result = run("catalog", "psi2")
        assert result.exit_code == 0
        check_golden("catalog_psi2.qs", result.output)
        assert np.allclose(
            read_qs(result.output).coeffs, catalog_state("psi2").coeffs
        )

    def test_catalog_to_file(self, tmp_path):
        out = tmp_path / "ghzm.qs"
        result = run("catalog", "ghzm", "-o", out)
        assert result.exit_code == 0
        assert read_qs(out.read_text()).sites == 3

    def test_catalog_json_to_file(self, tmp_path):
        # -o writes the .qs artefact whether or not --json prints the payload
        out = tmp_path / "psi2.qs"
        result = run("catalog", "psi2", "--json", "-o", out)
        assert result.exit_code == 0
        assert json.loads(result.stdout)["name"] == "psi2"
        assert np.allclose(read_qs(out.read_text()).coeffs,
                           catalog_state("psi2").coeffs)

    def test_catalog_unknown_name(self):
        result = run("catalog", "psi9")
        assert_usage_error(result, "Error: unknown catalog state 'psi9'; choose "
                                   f"from {corpus.STATE_IDS}\n")

    @pytest.mark.parametrize("name", corpus.STATE_IDS)
    def test_catalog_prints_what_the_numpy_state_prints(self, tmp_path, name):
        # catalog normalizes in pure Python; on the bundled states its text,
        # JSON and -o file are those of the MultipartiteState that
        # catalog_state builds, whose norm numpy sums in blocks
        psi = catalog_state(name)
        qs = write_qs(psi, comment=f"catalog state {name}")
        payload = {"name": name, "sites": psi.sites, "dim": psi.site_dim,
                   "terms": _terms_payload(psi.terms())}
        assert run("catalog", name).output == qs
        result = run("catalog", name, "--json")
        assert result.output == json.dumps(payload, indent=2) + "\n"
        out = tmp_path / f"{name}.qs"
        result = run("catalog", name, "-o", out)
        assert result.exit_code == 0 and result.output == ""
        assert out.read_text(encoding="utf-8") == qs

    def test_catalog_json(self):
        for name in ("psi3", "psi4_1", "psi4_2", "psi4_3", "ghzm"):
            result = run("catalog", name, "--json")
            assert result.exit_code == 0
            check_golden(f"catalog_{name}.json", result.output)

    def test_singlet_dim3_sites2(self):
        result = run("singlet", "--dim", "3", "--sites", "2")
        assert result.exit_code == 0
        assert "1 singlet state(s)" in result.output
        # the emitted .qs block parses back to the two-site singlet
        block = result.output.split("# state 0\n", 1)[1]
        psi = read_qs(block)
        assert psi.overlap(catalog_state("psi2")) >= 1 - 1e-9

    def test_singlet_deterministic(self):
        args = ("singlet", "--dim", "3", "--sites", "4", "--json")
        assert run(*args).output == run(*args).output

    def test_singlet_json_terms_rebuild_the_basis(self):
        result = run("singlet", "--dim", "3", "--sites", "4", "--json")
        assert result.exit_code == 0
        listed = json.loads(result.output)["states"]
        basis = singlet_subspace(3, 4)
        assert len(listed) == len(basis) == 3
        for terms, psi in zip(listed, basis):
            coeffs = np.zeros(3**4, dtype=complex)
            for term in terms:
                flat = np.ravel_multi_index(term["indices"], (3,) * 4)
                coeffs[flat] = complex(term["re"], term["im"])
            # only amplitudes at or below 1e-12 are left out of the listing
            assert np.max(np.abs(coeffs - psi.coeffs)) <= 1e-12

    def test_singlet_size_guard(self):
        result = run("singlet", "--dim", "3", "--sites", "12")
        assert result.exit_code == 2


class TestContextCommands:
    def test_context_op_json(self):
        result = run("context", "op", "--phi", "0.5", "--json")
        assert result.exit_code == 0
        check_golden("context_op_phi05.json", result.output)

    def test_context_op_degenerate_eigs(self):
        result = run("context", "op", "--phi", "0.5", "--eigs", "1,1,2")
        assert result.exit_code == 2

    def test_split_json(self, tmp_path):
        mat = tmp_path / "matrix.txt"
        mat.write_text("1+2j 3\n0 4j\n")
        result = run("split", "--matrix", mat, "--json")
        assert result.exit_code == 0
        check_golden("split_2x2.json", result.output)

    def test_split_nonsquare_usage_error(self, tmp_path):
        mat = tmp_path / "matrix.txt"
        mat.write_text("1 2 3\n4 5 6\n")
        result = run("split", "--matrix", mat)
        assert result.exit_code == 2


class TestUsageErrors:
    def test_missing_file(self):
        result = run("states", "enumerate", "/nonexistent/thing.gd")
        assert result.exit_code == 2

    def test_parse_error_reported_as_usage(self, tmp_path):
        gd = tmp_path / "bad.gd"
        gd.write_text("context A B C\ncontext D E\n")
        result = run("states", "enumerate", gd)
        assert result.exit_code == 2
        assert "line 2" in result.output

    def test_unknown_subcommand(self):
        result = run("frobnicate")
        assert result.exit_code == 2


def assert_usage_error(result, message):
    # a usage error exits 2 through SystemExit; a traceback would leave the
    # exception itself on the result with exit code 1
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert message in result.output


class TestBadInputExits2:
    def test_realize_dim_1(self):
        result = run("realize", corpus.data_path("fig1"), "--dim", "1")
        assert_usage_error(result, "--dim")

    def test_realize_restarts_0(self):
        result = run("realize", corpus.data_path("fig1"), "--dim", "3",
                     "--restarts", "0")
        assert_usage_error(result, "--restarts")

    def test_uniq_rotations_negative(self):
        result = run("uniq", "check", corpus.data_path("psi2"),
                     "--rotations", "-3")
        assert_usage_error(result, "--rotations")

    def test_qs_negative_sites(self, tmp_path):
        qs = tmp_path / "neg.qs"
        qs.write_text("# no sites\nsites -1\ndim 3\n1 0\n")
        result = run("uniq", "check", qs)
        assert_usage_error(result, "line 2: sites must be >= 1")

    def test_qs_over_size_limit(self, tmp_path):
        qs = tmp_path / "big.qs"
        qs.write_text("sites 9\ndim 3\n1 0 0 0 0 0 0 0 0 0 0\n")
        result = run("uniq", "check", qs)
        assert_usage_error(result, "line 2: 9 sites of dimension 3 exceed "
                                   "the total dimension limit 10000")

    @pytest.mark.parametrize(
        "terms,message",
        [
            # the two amplitudes of one ket sum past the largest float
            ("1e308 0 0\n1e308 0 0\n", "state norm overflows"),
            # a nonzero amplitude whose square underflows to zero
            ("1e-320 0 0\n", "state norm underflows to zero"),
        ],
        ids=["overflow", "underflow"],
    )
    def test_qs_norm_out_of_range(self, tmp_path, terms, message):
        qs = tmp_path / "range.qs"
        qs.write_text("sites 1\ndim 2\n" + terms)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would raise
            result = run("uniq", "check", qs)
        assert_usage_error(result, message)
        assert "zero norm" not in result.output

    def test_uniq_negative_tol(self):
        # a negative tolerance would count every amplitude as nonzero and
        # turn psi2's positive verdict into a negative one
        result = run("uniq", "check", corpus.data_path("psi2"), "--tol", "-1")
        assert_usage_error(result, "--tol")

    def test_uniq_nan_tol(self):
        # NaN passes a range check, since nan < 0 is False: the engine
        # refuses it with its own words
        result = run("uniq", "check", corpus.data_path("psi2"), "--tol", "nan")
        assert_usage_error(result, "Error: tolerance must be nonnegative, got nan\n")

    def test_hull_repeated_atom(self):
        # keeping the last value would give a verdict on an input never given
        result = run("hull", corpus.data_path("fig1"), "--p", "A=1,A=0")
        assert_usage_error(result, "atom 'A' is assigned more than once")

    def test_hull_negative_tol(self):
        result = run("hull", corpus.data_path("fig1"), "--p", "A=1",
                     "--tol", "-1")
        assert_usage_error(result, "--tol")

    def test_hull_non_numeric_tol(self):
        result = run("hull", corpus.data_path("fig1"), "--p", "A=1",
                     "--tol", "tiny")
        assert_usage_error(result, "not a finite number")

    def test_hull_non_finite_tol(self):
        # inf and nan pass a min=0 range check; the hull refuses them
        for tol in ("inf", "nan"):
            result = run("hull", corpus.data_path("fig1"), "--p", "A=1",
                         "--tol", tol)
            assert_usage_error(result, "not a finite number")

    def test_hull_exponent_beyond_the_bound(self):
        # Fraction builds 10**exponent: the text is refused before that,
        # so a huge exponent cannot stall the command
        fig1 = corpus.data_path("fig1")
        for args, message in (
                (("--p", "A=1e-1000000"), "probability value '1e-1000000' has "
                 "a decimal exponent beyond 1000 in magnitude"),
                (("--p", "A=1/2,B=1/2", "--tol", "1e-1000000"),
                 "tolerance '1e-1000000' has a decimal exponent beyond "
                 "1000 in magnitude")):
            start = time.perf_counter()
            result = run("hull", fig1, *args)
            assert time.perf_counter() - start < 1
            assert_usage_error(result, message)
        assert_usage_error(run("hull", fig1, "--p", "A=1e-5000"),
                           "'1e-5000' has a decimal exponent")
        # the bound itself is allowed
        assert run("hull", fig1, "--p", "A=1e-1000").exit_code == 1

    def test_default_tol_enters_the_lp_exactly(self, monkeypatch):
        from qlctx import logic

        seen = []
        feasibility = logic.feasibility

        def spy(rows, rhs):
            seen.append(rhs)
            return feasibility(rows, rhs)

        monkeypatch.setattr(logic, "feasibility", spy)
        # A and B share a context, so the exact LP fails and the band LP,
        # whose rows w_i + r_i = 2 tol follow the five atom rows, runs
        result = run("hull", corpus.data_path("fig1"), "--p", "A=1,B=1")
        assert result.exit_code == 1
        assert len(seen) == 2
        assert seen[1][5:10] == [Fraction(2, 10**9)] * 5

    def test_hull_margin_beyond_the_int_string_limit(self):
        # every denominator fits the limit on digits of int-to-str, but the
        # margin's does not: that exits 2, is not read as an "outside"
        # verdict, and names no interpreter call the user cannot make
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            two, three = 2**13000, 3**8000
            p = f"B=1/{two},D=1/{two},C=1/{three},K=1/{three}"
            result = run("hull", corpus.data_path("fig1"), "--p", p)
        finally:
            sys.set_int_max_str_digits(limit)
        assert_usage_error(result, "Error: the exact result has a number of "
                           "more than 4300 digits and is too long to print\n")
        assert "set_int_max_str_digits" not in result.output

    @pytest.mark.parametrize("command,file,options", [
        ("realize", "fig1", "--dim 1"),
        ("realize", "fig1", "--dim 3 --restarts 0"),
        ("realize", "fig1", "--dim 3 --seed -1"),
        ("uniq check", "psi2", "--rotations -3"),
        ("uniq check", "psi2", "--rotations 2 --seed -1"),
        ("uniq check", "psi2", "--tol -1"),
        ("uniq check", "psi2", "--tol nan"),
        ("hull", "fig1", "--p A=1 --tol -1"),
        ("hull", "fig1", "--p A=1 --tol tiny"),
        ("hull", "fig1", "--p A=1 --tol 1e-1000000"),
        ("hull", "fig1", "--p A=1/0"),
    ])
    def test_engine_refuses_the_option_value(self, command, file, options):
        # the command passes the option on as int, float or text, and the
        # engine's ValueError exits 2 under the command's usage line
        result = run(*command.split(), corpus.data_path(file), *options.split())
        assert_usage_error(result, "\nError: ")
        assert result.output.startswith(f"usage: qlctx {command} ")
        assert "Traceback" not in result.output

    def test_uniq_tol_leaves_no_amplitude(self):
        # psi3 is not unique; a tolerance above every amplitude must not
        # turn that into "unique: true" with no terms
        for name in ("psi3", "psi4_1"):
            for tol in ("5", "inf"):
                result = run("uniq", "check", corpus.data_path(name),
                             "--tol", tol)
                assert_usage_error(result, "no nonzero amplitude")
        result = run("uniq", "check", corpus.data_path("psi2"),
                     "--rotations", "2", "--tol", "5")
        assert_usage_error(result, "no nonzero amplitude")

    def test_singlet_negative_sites(self):
        result = run("singlet", "--dim", "3", "--sites", "-1")
        assert_usage_error(result, "at least one site")

    def test_realize_unwritable_output(self, tmp_path):
        out = tmp_path / "missing" / "fig1.real"
        for mode in ((), ("--json",)):
            result = run("realize", corpus.data_path("fig1"), "--dim", "3",
                         "--restarts", "3", "-o", out, *mode)
            assert_usage_error(result, f"cannot write {out}")
            assert result.stdout == ""  # no report before the error

    def test_render_unwritable_output(self, tmp_path):
        out = tmp_path / "missing" / "fig1.dot"
        result = run("render", corpus.data_path("fig1"), "-o", out)
        assert_usage_error(result, f"cannot write {out}")

    def test_seed_negative(self):
        result = run("realize", corpus.data_path("fig1"), "--dim", "3",
                     "--seed", "-1")
        assert_usage_error(result, "--seed")
        result = run("uniq", "check", corpus.data_path("psi2"),
                     "--rotations", "2", "--seed", "-1")
        assert_usage_error(result, "--seed")

    def test_more_contexts_than_recursion_depth(self, tmp_path):
        # depth alone is no limit: 1,200 sliding windows have three states
        n = 1200
        assert n > sys.getrecursionlimit()
        gd = tmp_path / "windows.gd"
        gd.write_text("".join(f"context p{i} p{i + 1} p{i + 2}\n"
                              for i in range(n)))
        result = run("states", "enumerate", gd, "--json")
        assert result.exit_code == 0
        assert json.loads(result.output)["count"] == 3
        # a 1,200-tripod chain has F(1203) states: the state cap refuses it
        gd = tmp_path / "chain.gd"
        gd.write_text("".join(f"context c{i} m{i} c{i + 1}\n" for i in range(n)))
        for args in (("states", "enumerate", gd), ("states", "classify", gd),
                     ("hull", gd, "--p", "c0=1")):
            assert_usage_error(run(*args), "more than 1048576 two-valued states")

    def test_more_states_than_the_cap(self, tmp_path):
        gd = tmp_path / "chain.gd"
        gd.write_text("".join(f"context c{i} m{i} c{i + 1}\n" for i in range(40)))
        assert_usage_error(run("states", "classify", gd),
                           "more than 1048576 two-valued states")

    def test_realize_more_coordinates_than_the_cap(self):
        result = run("realize", corpus.data_path("fig1"), "--dim", "100000000")
        assert_usage_error(result, "more than the 262144 a search may hold")
        assert "Traceback" not in result.output

    def test_split_non_finite_entry(self, tmp_path):
        mat = tmp_path / "matrix.txt"
        for entry in ("nan", "inf", "1+infj"):
            mat.write_text(f"1 2\n3 {entry}\n")
            result = run("split", "--matrix", mat, "--json")
            assert_usage_error(result, f"line 2: {entry!r} is not a finite number")

    def test_context_op_non_finite(self):
        result = run("context", "op", "--phi", "0.5", "--eigs", "nan,1,2",
                     "--json")
        assert_usage_error(result, "--eigs: 'nan' is not a finite number")
        for phi in ("nan", "inf"):
            result = run("context", "op", "--phi", phi)
            assert_usage_error(result, f"--phi: {phi} is not a finite number")

    # a warning fails these two tests: none may reach stderr
    @pytest.mark.filterwarnings("error")
    def test_json_overflow_refused(self):
        # finite eigenvalues near the float limit overflow the commutator;
        # NaN and Infinity are not JSON, so the result is refused
        result = run("context", "op", "--phi", "0.7", "--eigs",
                     "1.7e308,1.6e308,0", "--json")
        assert_usage_error(result, "result out of floating-point range")

    @pytest.mark.filterwarnings("error")
    def test_text_overflow_refused(self):
        # text mode refuses it too, with the same message, and prints no nan
        result = run("context", "op", "--phi", "0.7", "--eigs",
                     "1.7e308,1.6e308,0")
        assert_usage_error(result, "Error: result out of floating-point range\n")
        assert "nan" not in result.output

    @pytest.mark.filterwarnings("error")
    def test_split_near_the_float_limit(self, tmp_path):
        # halving before adding keeps A/2 + A†/2 in range: text and JSON
        # both print the finite parts, with no warning
        mat = tmp_path / "matrix.txt"
        mat.write_text("1e308 1e308\n1e308 1e308\n")
        result = run("split", "--matrix", mat)
        assert result.exit_code == 0
        assert "inf" not in result.output and "nan" not in result.output
        # a part from 1e15 on is printed in exponent form, not as a
        # 309-digit integer
        a1_row = result.output.splitlines()[1]
        assert a1_row.split() == ["1.000000000000e+308+0.000000000000j"] * 2
        result = run("split", "--matrix", mat, "--json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["real_part"] == [[[1e308, 0.0]] * 2] * 2
        assert payload["imag_part"] == [[[0.0, 0.0]] * 2] * 2

    def test_matrix_text_switches_to_exponent_form_at_1e15(self, tmp_path):
        mat = tmp_path / "matrix.txt"
        mat.write_text("999999999999999 1e15\n1e15 -1e15\n")
        result = run("split", "--matrix", mat)
        assert result.exit_code == 0
        assert result.output.splitlines()[1:3] == [
            "   999999999999999.000000000000+0.000000000000j"
            "   1.000000000000e+15+0.000000000000j",
            "   1.000000000000e+15+0.000000000000j"
            "  -1.000000000000e+15+0.000000000000j"]
        result = run("context", "op", "--phi", "0.5", "--eigs", "1e300,2,3")
        assert result.exit_code == 0
        rows = result.output.splitlines()[1:4]
        assert all(len(row) < 120 for row in rows)
        assert rows[0].split()[:2] == ["7.701511529341e+299+0.000000000000j",
                                       "4.207354924039e+299+0.000000000000j"]

    @pytest.mark.parametrize("args", [
        ("states", "enumerate", "{}"), ("states", "classify", "{}"),
        ("hull", "{}", "--p", "A=1"), ("realize", "{}", "--dim", "3"),
        ("saturate", "{}"), ("render", "{}"), ("uniq", "check", "{}"),
        ("split", "--matrix", "{}"),
    ])
    def test_input_not_utf8(self, tmp_path, args):
        bad = tmp_path / "bad.gd"
        bad.write_bytes(b"\xff\xfe\x00bad")
        result = run(*(a.format(bad) for a in args))
        assert_usage_error(result, f"cannot read {bad}: 'utf-8' codec")
        assert "Traceback" not in result.output

    def test_files_are_utf8_in_an_ascii_locale(self, tmp_path):
        # with C-locale coercion and UTF-8 mode off, the locale's encoding
        # is ASCII; inputs and -o files are UTF-8 all the same
        gd = tmp_path / "greek.gd"
        gd.write_bytes("context α β γ\n".encode())
        out = tmp_path / "greek.dot"
        env = dict(os.environ, PYTHONPATH=str(SRC), LC_ALL="C",
                   PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        proc = subprocess.run(
            [sys.executable, "-m", "qlctx.cli", "render", str(gd), "-o", str(out)],
            capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert '"α" -- "β";' in out.read_bytes().decode("utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "qlctx.cli", "states", "enumerate", str(gd)],
            capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode("utf-8").startswith("atoms: α β γ\n")

    @pytest.mark.parametrize("args,entry", [
        (("states", "enumerate", "{}", "--json"), "fig1"),
        (("uniq", "check", "{}", "--json"), "psi2"),
    ])
    def test_input_with_a_byte_order_mark(self, tmp_path, args, entry):
        # some editors start a UTF-8 file with a byte order mark; it is not
        # part of the first directive
        plain = corpus.data_path(entry)
        marked = tmp_path / Path(plain).name
        marked.write_bytes(codecs.BOM_UTF8 + Path(plain).read_bytes())
        result = run(*(a.format(marked) for a in args))
        assert result.exit_code == 0, result.output
        assert result.output == run(*(a.format(plain) for a in args)).output

    def test_catalog_unwritable_output(self, tmp_path):
        out = tmp_path / "missing" / "psi2.qs"
        result = run("catalog", "psi2", "-o", out)
        assert_usage_error(result, f"cannot write {out}")


# each subcommand and the engine function it calls, which a test makes
# raise ValueError; the prefix its message gets ({} is the file)
GATE = [
    (("states", "enumerate", "@fig1"), "logic.two_valued_states", "{}: "),
    (("states", "classify", "@fig1"), "logic.classify", "{}: "),
    (("hull", "@fig1", "--p", "A=1"), "logic.hull_membership", ""),
    (("realize", "@fig2a", "--dim", "3"), "realizability.save_realization", ""),
    (("saturate", "@fig2a"), "saturation.saturate_orthogonality", ""),
    (("render", "@fig1"), "logic.render", ""),
    (("uniq", "check", "@psi2"), "uniqueness.check_uniqueness_rotated", ""),
    (("catalog", "psi2"), "corpus.catalog_text", ""),
    (("singlet", "--dim", "2", "--sites", "2"), "states.singlet_subspace", ""),
    (("context", "op", "--phi", "0.5"), "contexts.link_observables", ""),
    (("split", "--matrix", "matrix.txt"), "contexts.split_selfadjoint", ""),
]


@pytest.mark.parametrize("args,engine,prefix", GATE,
                         ids=[" ".join(w for w in a[:2] if w.isalpha())
                              for a, _, _ in GATE])
def test_every_value_error_exits_2(tmp_path, monkeypatch, args, engine, prefix):
    # main turns a ValueError from anywhere in a command into exit 2, so
    # bad input never ends in a traceback, whose exit 1 reads as a verdict
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("qlctx." + engine, boom)
    args = _contract_args(args, tmp_path)
    file = next((a for a in args if os.sep in a), "")
    result = run(*args)
    assert_usage_error(result, "Error: " + prefix.format(file) + "boom\n")
    assert "Traceback" not in result.output


EXIT_CONTRACT = [
    (("states", "enumerate", "@fig1"), 0),
    (("states", "enumerate", "cycle.gd"), 1),
    (("states", "classify", "@fig1"), 0),
    (("states", "classify", "@fig3"), 1),
    (("states", "classify", "missing.gd"), 2),
    (("hull", "@fig1", "--p", "A=1"), 0),
    (("hull", "@fig1", "--p", "A=1,B=1/2"), 1),
    (("hull", "@fig1", "--p", "A=1,A=0"), 2),
    (("realize", "@fig2a", "--dim", "3", "--restarts", "2"), 0),
    (("realize", "@fig2b", "--dim", "3", "--restarts", "2"), 1),
    (("realize", "@fig1", "--dim", "1"), 2),
    (("realize", "@fig1", "--dim", "2"), 1),
    (("saturate", "@fig2a"), 0),
    (("saturate", "@fig2b"), 1),
    (("saturate", "cycle.gd"), 2),
    (("render", "@fig1", "--style", "greechie"), 0),
    (("render", "cycle.gd", "--style", "tkadlec"), 2),
    (("uniq", "check", "@psi2"), 0),
    (("uniq", "check", "@psi3"), 1),
    (("uniq", "check", "@psi3", "--tol", "5"), 2),
    (("catalog", "psi3"), 0),
    (("catalog", "psi9"), 2),
    (("singlet", "--dim", "3", "--sites", "2"), 0),
    (("singlet", "--dim", "3", "--sites", "12"), 2),
    (("context", "op", "--phi", "0.5"), 0),
    (("context", "op", "--phi", "0.5", "--eigs", "1,1,2"), 2),
    (("split", "--matrix", "matrix.txt"), 0),
    (("split", "--matrix", "missing.txt"), 2),
]


def _contract_args(args, folder):
    """An ``EXIT_CONTRACT`` row's arguments, run in ``folder``: writes the
    files the rows name and resolves ``@name`` to a corpus file."""
    (folder / "cycle.gd").write_text("context a b\ncontext b c\ncontext c a\n")
    (folder / "matrix.txt").write_text("1+2j 3\n0 4j\n")
    return [str(corpus.data_path(a[1:])) if a.startswith("@") else a for a in args]


class TestExitContract:
    """Text and --json give the same exit code; --json prints JSON or, on
    a usage error, nothing on stdout.  ``@name`` is a corpus file."""

    @pytest.mark.parametrize("args,code", EXIT_CONTRACT,
                             ids=[" ".join(a) for a, _ in EXIT_CONTRACT])
    def test_text_and_json_agree(self, tmp_path, monkeypatch, args, code):
        monkeypatch.chdir(tmp_path)
        args = _contract_args(args, tmp_path)
        text, as_json = run(*args), run(*args, "--json")
        assert text.exit_code == as_json.exit_code == code
        if code == 2:
            assert as_json.stdout == ""
        else:
            json.loads(as_json.stdout)


def _python(code, cwd=None, flags=()):
    """``code`` run in a new interpreter, started with ``flags``, that finds
    the package."""
    return subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))


def _heavy_modules_after(code, names=("numpy", "scipy", "click")):
    """Those of ``names`` (by default numpy, scipy and click) loaded by
    running ``code`` in a new interpreter."""
    probe = (code + "\nimport sys\nprint(' '.join(m for m in "
             f"{tuple(names)!r} if m in sys.modules), file=sys.stderr)")
    proc = _python(probe)
    proc.check_returncode()
    return proc.stderr.split()


class TestLeanImports:
    def test_cli_import_leaves_out_scipy(self):
        loaded = _heavy_modules_after("import qlctx.cli")
        assert "scipy" not in loaded and "click" not in loaded

    def test_enumerate_leaves_out_numpy_and_scipy(self):
        code = ("from qlctx.cli import main\n"
                f"main(['states', 'enumerate', {str(corpus.data_path('fig1'))!r}])")
        assert _heavy_modules_after(code) == []

    def test_corpus_diagram_leaves_out_numpy_and_scipy(self):
        code = "from qlctx import corpus\ncorpus.load('fig1')"
        assert _heavy_modules_after(code) == []

    def test_saturate_leaves_out_numpy_and_scipy(self):
        code = ("from qlctx.cli import main\n"
                f"main(['saturate', {str(corpus.data_path('fig2a'))!r}])")
        assert _heavy_modules_after(code) == []

    def test_realize_leaves_out_scipy(self):
        code = ("from qlctx.cli import main\n"
                f"main(['realize', {str(corpus.data_path('fig2a'))!r}, '--dim', '3',"
                " '--restarts', '2', '--json'])")
        assert _heavy_modules_after(code) == []

    @staticmethod
    def _matrix_file(tmp_path):
        mat = tmp_path / "matrix.txt"
        mat.write_text("1+2j 3\n0 4j\n")
        return str(mat)

    def test_context_op_and_split_leave_out_numpy(self, tmp_path):
        for args in (["context", "op", "--phi", "0.5", "--json"],
                     ["split", "--matrix", self._matrix_file(tmp_path), "--json"]):
            code = f"from qlctx.cli import main\nmain({args!r})"
            assert _heavy_modules_after(code) == []

    def test_commands_without_a_diagram_leave_out_logic(self, tmp_path):
        for args in (["context", "op", "--phi", "0.5"],
                     ["split", "--matrix", self._matrix_file(tmp_path)],
                     ["singlet", "--dim", "2", "--sites", "2"],
                     ["uniq", "check", str(corpus.data_path("psi2"))],
                     ["catalog", "psi2"]):
            code = f"from qlctx.cli import main\nmain({args!r})"
            assert _heavy_modules_after(code, ["qlctx.logic"]) == [], args

    def test_context_op_and_split_run_with_numpy_unimportable(self, tmp_path):
        for args, golden in (
                (["context", "op", "--phi", "0.5", "--json"],
                 "context_op_phi05.json"),
                (["split", "--matrix", self._matrix_file(tmp_path), "--json"],
                 "split_2x2.json")):
            proc = _python("import sys\nsys.modules['numpy'] = None\n"
                           f"from qlctx.cli import main\nmain({args!r})")
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == (GOLDEN / golden).read_text()

    def test_cli_import_leaves_out_pathlib(self):
        # files are read and written with open; -S keeps a site hook from
        # loading pathlib first and hiding the cost
        proc = _python("import qlctx.cli, sys\nprint('pathlib' in sys.modules)",
                       flags=["-S"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_corpus_import_leaves_out_importlib_resources(self):
        # importlib.resources loads typing and tempfile; -S keeps a site
        # hook from loading it first and hiding the cost
        proc = _python("import qlctx.corpus, sys\n"
                       "print('importlib.resources' in sys.modules)",
                       flags=["-S"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_catalog_leaves_out_numpy_and_states(self, tmp_path):
        for args in (["catalog", "psi3", "--json"],
                     ["catalog", "psi2", "-o", str(tmp_path / "psi2.qs")]):
            code = f"from qlctx.cli import main\nmain({args!r})"
            assert _heavy_modules_after(code, ["numpy", "qlctx.states"]) == [], args

    def test_catalog_runs_with_numpy_unimportable(self):
        for args, golden in ((["catalog", "psi3", "--json"], "catalog_psi3.json"),
                             (["catalog", "psi2"], "catalog_psi2.qs")):
            proc = _python("import sys\nsys.modules['numpy'] = None\n"
                           f"from qlctx.cli import main\nmain({args!r})")
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == (GOLDEN / golden).read_text()

    def test_pure_python_commands_leave_out_dataclasses(self, tmp_path):
        # dataclasses imports inspect, ast, dis and tokenize: the records
        # are named tuples, so no command pays for that at start-up
        for args in (["states", "enumerate", "@fig1"],
                     ["states", "classify", "@fig1"],
                     ["hull", "@fig1", "--p", "A=1"],
                     ["render", "@fig1"],
                     ["saturate", "@fig2a"],
                     ["realize", "@fig2a", "--dim", "3", "--json"],
                     ["context", "op", "--phi", "0.5"],
                     ["split", "--matrix", self._matrix_file(tmp_path)],
                     ["catalog", "psi3", "--json"]):
            args = [corpus.data_path(a[1:]) if a.startswith("@") else a
                    for a in args]
            code = f"from qlctx.cli import main\nmain({args!r})"
            assert _heavy_modules_after(code, ["dataclasses"]) == [], args

    def test_realizability_import_leaves_out_numpy(self):
        assert _heavy_modules_after("import qlctx.realizability") == []

    def test_numerical_stage_loads_numpy_and_finds_a_witness(self):
        # fig1 in dimension 4 is neither refuted nor propagated: L-BFGS runs
        code = ("from qlctx.cli import main\n"
                f"main(['realize', {str(corpus.data_path('fig1'))!r}, '--dim', '4',"
                " '--restarts', '2', '--json'])")
        proc = _python(code + "\nimport sys\nprint('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        payload, loaded = proc.stdout.rsplit("\n", 2)[:2]
        assert loaded == "True"
        assert json.loads(payload)["success"] is True

    def test_realize_runs_with_numpy_unimportable(self, tmp_path):
        # the proof and exact stages, the -o file and its check are pure
        # Python
        block = "import sys\nsys.modules['numpy'] = None\n"

        def realize(name, dim, *extra):
            return _python(block + "from qlctx.cli import main\n"
                           f"main(['realize', {str(corpus.data_path(name))!r}, "
                           f"'--dim', '{dim}', *{list(extra)!r}])")

        proc = realize("fig2a", 3, "--json")
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["success"] is True and got["certificate"] == "exact"
        out = tmp_path / "fig2a.real"
        proc = realize("fig2a", 3, "-o", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("realized exactly")
        check = _python(
            block + "from pathlib import Path\nfrom qlctx import corpus\n"
            "from qlctx.realizability import load_realization, "
            "verify_realization\n"
            f"real = load_realization(Path({str(out)!r}).read_text())\n"
            "print(verify_realization(corpus.load('fig2a'), real)[0])")
        assert check.returncode == 0, check.stderr
        assert check.stdout == "True\n"
        proc = realize("fig2b", 3)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == (GOLDEN / "saturate_fig2b.txt").read_text()
        proc = realize("fig1", 2)
        assert proc.returncode == 1, proc.stderr
        assert "refuted: dimension 2" in proc.stdout

    def test_realize_runs_with_scipy_unimportable(self):
        # fig2a is decided exactly; fig1 in dimension 4 runs L-BFGS
        for name, dim in (("fig2a", "3"), ("fig1", "4")):
            code = ("import sys\nsys.modules['scipy'] = None\n"
                    "from qlctx.cli import main\n"
                    f"main(['realize', {str(corpus.data_path(name))!r}, "
                    f"'--dim', '{dim}', '--restarts', '2', '--json'])")
            proc = _python(code)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["success"] is True

    def test_cli_runs_with_click_unimportable(self, tmp_path):
        rows = [_contract_args(args, tmp_path) for args, _ in EXIT_CONTRACT]
        code = ("import io, json, sys\n"
                "from contextlib import redirect_stderr, redirect_stdout\n"
                "sys.modules['click'] = None\n"
                "from qlctx.cli import main\n"
                "codes = []\n"
                f"for args in {rows!r}:\n"
                "    with redirect_stdout(io.StringIO()), \\\n"
                "            redirect_stderr(io.StringIO()):\n"
                "        try:\n"
                "            main(args)\n"
                "            codes.append(0)\n"
                "        except SystemExit as exc:\n"
                "            codes.append(exc.code)\n"
                "print(json.dumps(codes))")
        proc = _python(code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [want for _, want in EXIT_CONTRACT]


# every option and subcommand that ``-h`` must name, by command
HELP = {
    (): ("states", "hull", "realize", "saturate", "render", "uniq", "catalog",
         "singlet", "context", "split"),
    ("states",): ("enumerate", "classify"),
    ("states", "enumerate"): ("--json",),
    ("states", "classify"): ("--json",),
    ("hull",): ("--p", "--tol", "--json"),
    ("realize",): ("--dim", "--seed", "--restarts", "--complex", "-o", "--json"),
    ("saturate",): ("--json",),
    ("render",): ("--style", "-o", "--json"),
    ("uniq",): ("check",),
    ("uniq", "check"): ("--rotations", "--seed", "--tol", "--json"),
    ("catalog",): ("-o", "--json"),
    ("singlet",): ("--dim", "--sites", "--json"),
    ("context",): ("op",),
    ("context", "op"): ("--phi", "--eigs", "--json"),
    ("split",): ("--matrix", "--json"),
}


class TestHelpAndParseErrors:
    @pytest.mark.parametrize("command", HELP, ids=lambda c: " ".join(c) or "qlctx")
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_names_every_option(self, command, flag):
        result = run(*command, flag)
        assert result.exit_code == 0
        assert result.output == result.stdout
        assert result.stdout.startswith(" ".join(("usage: qlctx", *command)))
        for name in HELP[command]:
            assert re.search(rf"^ +{re.escape(name)}\b", result.stdout, re.M), name

    @pytest.mark.parametrize("args,named", [
        (("frobnicate",), "'frobnicate'"),
        (("states", "enumerate", "@fig1", "--bogus"), "--bogus"),
        (("realize", "@fig1"), "--dim"),
        (("realize", "@fig1", "--dim", "3", "--restarts", "x"), "--restarts"),
        (("singlet", "--dim", "3", "--sites", "two"), "--sites"),
        (("render", "@fig1", "--style", "svg"), "--style"),
    ])
    def test_parse_error_names_the_option(self, tmp_path, args, named):
        result = run(*_contract_args(args, tmp_path))
        assert_usage_error(result, named)
        assert result.stdout == ""
        lines = result.output.splitlines()
        assert lines[0].startswith("usage: qlctx")
        assert [line for line in lines if line.startswith("Error:")] == [lines[-1]]
        assert named in lines[-1]

    def test_values_may_start_with_a_minus(self):
        result = run("context", "op", "--phi", "-1e-3", "--eigs", "-1,2,3", "--json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["phi"] == -1e-3 and payload["eigenvalues"] == [-1.0, 2.0, 3.0]

    @pytest.mark.parametrize("lines_read", [0, 1])
    def test_reader_closing_stdout_early(self, tmp_path, lines_read):
        # a 20-tripod chain has 28,657 states, far more text than a pipe
        # holds: the reader is gone before the report is written (0) or
        # while it is being written (1); neither is an error
        gd = tmp_path / "chain.gd"
        gd.write_text("".join(f"context c{i} m{i} c{i + 1}\n" for i in range(20)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qlctx.cli", "states", "enumerate", str(gd)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        for _ in range(lines_read):
            assert proc.stdout.readline().startswith(b"atoms: c0 m0 c1")
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert stderr == b""
