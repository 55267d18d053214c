"""Command-line front end: pipelines, exit codes, determinism, verify."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import dforge
from conftest import geometric_series
from dforge import grammar, transforms
from dforge.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_REFUTATION,
    AnalysisConfig,
    AnalysisInputs,
    main,
    run_analysis,
    verify_certificate,
)
from dforge.errors import SchemaError
from dforge.io import MAX_RATIONAL_DIGITS, dump_series, load_series, parse_frac, series_to_obj
from dforge.numeric import MAX_PRECISION
from dforge.wronskian import MAX_SUBSETS


def _run_cli(argv):
    """``dforge argv`` in a fresh interpreter, killed after 20 s."""
    src = str(Path(dforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "dforge.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=20)


@pytest.fixture()
def zeta_corpus(tmp_path):
    path = tmp_path / "zeta.txt"
    path.write_text("\n".join(str(n) for n in range(1, 101)) + "\n")
    return path


@pytest.fixture()
def geometric_file(tmp_path, lam_basis):
    phi = geometric_series(lam_basis, 15)
    path = tmp_path / "geometric.series.json"
    dump_series(phi, path)
    return path


_PARSE_ERROR_PREFIX = {"eq": "error[syntax-error]: ", "series": "error[syntax-error]: ",
                       "cert": "error[schema-error]: unreadable FormalSatisfaction payload: "}


def _parsing_paths(via, geometric_file, tmp_path):
    """``argv(text)``: a command line that parses ``text`` as an equation
    term (``eq``), a series coefficient (``series``) or a term of a
    substitution certificate's edited equation (``cert``)."""
    cert = tmp_path / "sub.cert.json"
    assert main(["substitute", "--series", str(geometric_file),
                 "--eq", "f' + lam*f + lam*f^2", "--out", str(cert)]) == EXIT_OK

    def argv(text):
        if via == "eq":
            return ["eliminate-x", "--eq", text + " + f + x^2"]
        if via == "series":
            obj = json.loads(geometric_file.read_text())
            obj["terms"][0]["coeff"] = text
            path = tmp_path / "wide.series.json"
            path.write_text(json.dumps(obj))
            return ["substitute", "--series", str(path), "--eq", "f' + lam*f + lam*f^2"]
        obj = json.loads(cert.read_text())
        obj["evidence"]["equation"] = text + " + " + obj["evidence"]["equation"]
        path = tmp_path / "wide.cert.json"
        path.write_text(json.dumps(obj))
        return ["verify", "cert", str(path)]

    return argv


class TestRunAnalysis:
    def test_zeta_corpus_refutation_exit(self, zeta_corpus, tmp_path):
        config = AnalysisConfig(rank_bound=10, output=str(tmp_path / "certs"))
        code, certs, summary = run_analysis(config, AnalysisInputs(corpus=str(zeta_corpus)))
        assert code == EXIT_REFUTATION
        kinds = [c.kind for c in certs]
        assert kinds == ["FiniteBasisRefutation", "GapCriterion"]
        assert certs[0].evidence["final_rank"] == 25
        assert summary["prime_support"]["primes"][:4] == [2, 3, 5, 7]
        for path in summary["written"]:
            assert verify_certificate(path).ok

    def test_geometric_fixture_satisfaction(self, geometric_file):
        config = AnalysisConfig()
        inputs = AnalysisInputs(series=str(geometric_file),
                                equation="f' + lam*f + lam*f^2")
        code, certs, summary = run_analysis(config, inputs)
        assert code == EXIT_OK
        (cert,) = certs
        assert cert.kind == "FormalSatisfaction"
        assert "threshold_report" in cert.evidence
        assert cert.evidence["threshold_report"]["verified_indices"]

    def test_series_round_trip(self, geometric_file, lam_basis):
        phi = load_series(geometric_file)
        assert phi == geometric_series(lam_basis, 15)
        assert series_to_obj(phi) == series_to_obj(geometric_series(lam_basis, 15))


class TestMain:
    def test_analyze_exit_codes(self, zeta_corpus, tmp_path, capsys):
        code = main(["analyze", "--corpus", str(zeta_corpus), "--rank-bound", "10",
                     "--out", str(tmp_path / "c")])
        assert code == EXIT_REFUTATION
        summary = json.loads(capsys.readouterr().out)
        assert summary["exit_code"] == EXIT_REFUTATION

    def test_malformed_series_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["substitute", "--series", str(bad), "--eq", "f'"])
        assert code == EXIT_ERROR

    def test_syntax_error_exit(self, geometric_file, capsys):
        code = main(["substitute", "--series", str(geometric_file), "--eq", "f' +"])
        assert code == EXIT_ERROR
        assert "syntax-error" in capsys.readouterr().err

    def test_substitute_and_verify_cert(self, geometric_file, tmp_path, capsys):
        out = tmp_path / "sub.cert.json"
        code = main(["substitute", "--series", str(geometric_file),
                     "--eq", "f' + lam*f + lam*f^2", "--with-threshold",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert verify_certificate(out).ok
        assert main(["verify", "cert", str(out)]) == EXIT_OK

    def test_horizon_threshold_cert_verifies(self, geometric_file, tmp_path, capsys):
        out = tmp_path / "sub.cert.json"
        assert main(["substitute", "--series", str(geometric_file),
                     "--eq", "f' + lam*f + lam*f^2", "--horizon", '{"lam": "12"}',
                     "--with-threshold", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["evidence"]["threshold_report"]["horizon"] \
            == {"lam": "12"}
        capsys.readouterr()
        assert main(["verify", "cert", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "OK"

    def test_verify_missing_key_is_schema_error(self, geometric_file, tmp_path, capsys):
        out = tmp_path / "sub.cert.json"
        main(["substitute", "--series", str(geometric_file),
              "--eq", "f' + lam*f + lam*f^2", "--out", str(out)])
        obj = json.loads(out.read_text())
        del obj["evidence"]["residual"]
        out.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", "cert", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error[schema-error]:") and "Traceback" not in err

    def test_verify_detects_tampering(self, geometric_file, tmp_path, capsys):
        out = tmp_path / "sub.cert.json"
        main(["substitute", "--series", str(geometric_file),
              "--eq", "f' + lam*f + lam*f^2", "--out", str(out)])
        obj = json.loads(out.read_text())
        obj["evidence"]["residual"] = "nonzero"
        out.write_text(json.dumps(obj))
        assert main(["verify", "cert", str(out)]) == EXIT_ERROR

    def test_eliminate_x(self, capsys):
        assert main(["eliminate-x", "--eq", "f - x^2"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "4*f - f'^2"

    def test_eliminate_x_content_split(self, capsys):
        assert main(["eliminate-x", "--eq", "x*f' + x*f", "--split-x-content"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "f + f'"

    def test_basis_subcommand(self, geometric_file, capsys):
        assert main(["basis", "--series", str(geometric_file)]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["rank"] == 1

    def test_derive_ade_cli(self, geometric_file, tmp_path, capsys):
        out = tmp_path / "ade.cert.json"
        assert main(["derive-ade", "--series", str(geometric_file),
                     "--max-weight", "3", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "lam*f + lam*f^2 + f'"
        cert = json.loads(out.read_text())
        assert cert["kind"] == "FormalSatisfaction"
        assert verify_certificate(out).ok

    def test_rescale_cli(self, geometric_file, capsys):
        assert main(["rescale", "--series", str(geometric_file), "--c", "1/2"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        coeffs = [t["coeff"] for t in obj["terms"]]
        assert coeffs[0] == "1/2" and coeffs[1] == "1/4"

    def test_ode_to_pde_cli(self, capsys):
        assert main(["ode-to-pde", "--eq", "f' + lam*f + lam*f^2", "--mu", "1",
                     "--lambda-names", "lam"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "G_x1" in out and "lam" in out

    def test_derive_ade_reads_config_max_weight(self, geometric_file, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_weight": 1}))
        args = ["derive-ade", "--series", str(geometric_file), "--config", str(config)]
        assert main(args) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error[bad-input]: max weight")
        assert main(args + ["--max-weight", "3"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "lam*f + lam*f^2 + f'"

    @pytest.mark.parametrize("max_k", ["0", "1", "-2"])
    def test_derive_ade_max_k_below_two_is_bad_input(self, geometric_file, max_k, capsys):
        # nothing would be searched: no NotFoundWithinW may claim otherwise
        assert main(["derive-ade", "--series", str(geometric_file),
                     "--max-k", max_k]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error[bad-input]: max k must be at least 2\n"

    def test_derive_ade_huge_weight_is_bad_input_at_once(self, geometric_file):
        # refused before any product is built: at once, not after hours;
        # weight 18 brings 1596 products, C(1596, 2) pairs
        out = _run_cli(["derive-ade", "--series", str(geometric_file),
                        "--max-weight", "1000000000"])
        assert out.returncode == EXIT_ERROR and out.stdout == ""
        assert out.stderr == (
            f"error[bad-input]: max weight 1000000000 would search more than "
            f"{MAX_SUBSETS} product subsets (1272810 up to size 2); lower it or set max k\n")

    @pytest.mark.parametrize("limits", [["--max-weight", "7"],
                                        ["--max-weight", "6", "--max-k", "3"]])
    def test_derive_ade_inside_the_cap_finds_the_equation(self, geometric_file, limits):
        # the equation is a 3-subset: weight 7 visits at most C(44, 2) + C(44, 3)
        # = 14190 subsets before it, weight 6 with max k 3 C(29, 2) + C(29, 3) = 4060
        out = _run_cli(["derive-ade", "--series", str(geometric_file), *limits])
        assert out.returncode == EXIT_OK and out.stderr == ""
        assert out.stdout == "lam*f + lam*f^2 + f'\n"

    def test_derive_ade_on_a_series_known_in_full(self, tmp_path):
        # 2e^(-(a+b+1)s) + e^(-(2a+b+1)s) - 3/2 e^(-(2b+1)s) with no bound:
        # every subset up to size 6 is decided by its term matrix alone, well
        # inside the 20 s the runner allows
        symbols = [{"name": "a", "value_decimal_string": "0.53"},
                   {"name": "b", "value_decimal_string": "1.37"}]
        terms = [({"a": "1", "b": "1", "ONE": "1"}, "2"),
                 ({"a": "2", "b": "1", "ONE": "1"}, "1"),
                 ({"b": "2", "ONE": "1"}, "-3/2")]
        path = tmp_path / "x3.json"
        path.write_text(json.dumps({
            "basis": {"symbols": symbols, "precision_bits": 128,
                      "independence_assumed": True},
            "terms": [{"exponent": e, "coeff": c} for e, c in terms],
            "truncation": None}))
        out = _run_cli(["derive-ade", "--series", str(path), "--max-weight", "3"])
        assert out.returncode == EXIT_OK and out.stderr == ""
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == \
            "e3b11ca17814c076488119ed6b0eb41a1cd5332f25ef32bc3e9004d518481ac4"

    def test_derive_ade_on_the_zero_series_known_in_full(self, tmp_path, capsys):
        # no term and no bound: every product is the exact zero, so f = 0
        # is the first relation, and its certificate re-verifies
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "basis": {"symbols": [], "precision_bits": 128, "independence_assumed": True},
            "terms": [], "truncation": None}))
        out = tmp_path / "zero.cert.json"
        assert main(["derive-ade", "--series", str(path), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "f\n"
        assert json.loads(out.read_text())["evidence"]["residual"] == "zero"
        assert main(["verify", "cert", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "OK\n"

    def test_corpus_drops_the_indices_it_cannot_factor(self, tmp_path, capsys):
        # 1022117 = 1009 * 1013 has no factor below the limit 10: it is
        # dropped, said so, and the rest is scanned
        corpus = tmp_path / "c.txt"
        corpus.write_text("1 1\n2 1\n3 1\n1022117 1\n6 1\n")
        assert main(["analyze", "--corpus", str(corpus), "--factor-limit", "10",
                     "--out", str(tmp_path / "certs")]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["dropped_unfactored"] == [1022117]
        assert summary["prime_support"] == {"primes": [2, 3], "sample_size": 5,
                                            "unfactored": [1022117]}
        assert summary["certificates"] == ["FiniteBasisRefutation", "GapCriterion"]
        for path in summary["written"]:
            cert = json.loads(Path(path).read_text())
            assert cert["scanned"] == 4
            assert verify_certificate(path).ok
        corpus.write_text("1022117 1\n")
        assert main(["analyze", "--corpus", str(corpus), "--factor-limit", "10"]) == EXIT_ERROR
        assert capsys.readouterr().err == \
            "error[factor-limit]: could not factor 1022117 within the trial-division limit\n"

    def test_config_key_the_command_does_not_read(self, geometric_file, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rank_bound": 5}))
        assert main(["substitute", "--series", str(geometric_file), "--eq", "f",
                     "--config", str(config)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error[config]:")
        assert "rank_bound" in err and "substitute" in err

    def test_ode_to_pde_out_writes_the_file(self, tmp_path, capsys):
        args = ["ode-to-pde", "--eq", "f' + lam*f + lam*f^2", "--mu", "1",
                "--lambda-names", "lam"]
        assert main(args) == EXIT_OK
        printed = capsys.readouterr().out
        out = tmp_path / "pde.txt"
        assert main(args + ["--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

    def test_verify_hilbert_cli(self, tmp_path, capsys):
        out = tmp_path / "hilbert.cert.json"
        assert main(["verify", "hilbert", "--n", "8", "--max-mu", "2",
                     "--max-nu", "2", "--out", str(out)]) == EXIT_OK
        assert verify_certificate(out).ok

    @pytest.mark.parametrize("flag", ["--max-mu", "--max-nu", "--max-ds"])
    def test_verify_hilbert_negative_count(self, flag, capsys):
        assert main(["verify", "hilbert", "--n", "3", flag, "-1"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[bad-input]: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flags", [["--n", "1000000000"], ["--max-mu", "1000000000"],
                                       ["--max-nu", "1000000000"],
                                       ["--max-ds", "1000000000"]])
    def test_verify_hilbert_past_the_caps_is_bad_input(self, flags, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a prefix basis built past the caps")

        monkeypatch.setattr(transforms, "log_basis_for_indices", refuse)
        argv = ["verify", "hilbert", "--n", "6", "--max-mu", "1", "--max-nu", "1", *flags]
        assert main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[bad-input]: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("key", ["n", "max_weight_ops", "max_shift", "max_s_derivatives"])
    def test_verify_cert_refuses_a_hilbert_grid_past_the_caps(self, key, monkeypatch,
                                                              tmp_path, capsys):
        out = tmp_path / "hilbert.cert.json"
        assert main(["verify", "hilbert", "--n", "6", "--max-mu", "1", "--max-nu", "1",
                     "--out", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        obj["evidence"][key] = 10 ** 9
        out.write_text(json.dumps(obj))

        def refuse(*args, **kwargs):
            raise AssertionError("a prefix basis built past the caps")

        monkeypatch.setattr(transforms, "log_basis_for_indices", refuse)
        assert main(["verify", "cert", str(out)]) == EXIT_ERROR
        assert "rebuild failed" in capsys.readouterr().out

    def test_verify_cert_refuses_an_empty_hilbert_grid(self, tmp_path, capsys):
        out = tmp_path / "hilbert.cert.json"
        assert main(["verify", "hilbert", "--n", "3", "--max-mu", "1", "--max-nu", "1",
                     "--out", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        obj["evidence"].update(max_weight_ops=-1, checks=0)
        out.write_text(json.dumps(obj))
        assert main(["verify", "cert", str(out)]) == EXIT_ERROR
        assert "rebuild failed" in capsys.readouterr().out

    def test_verify_rescale_cli(self, geometric_file, capsys):
        assert main(["verify", "rescale", "--series", str(geometric_file),
                     "--eq", "f' + lam*f + lam*f^2", "--c", "1/2"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["evidence"]["rescaled_residual"] == "zero"


class TestDeterminism:
    def test_identical_runs_byte_identical(self, zeta_corpus, tmp_path):
        config1 = AnalysisConfig(rank_bound=10, output=str(tmp_path / "a"))
        config2 = AnalysisConfig(rank_bound=10, output=str(tmp_path / "b"))
        run_analysis(config1, AnalysisInputs(corpus=str(zeta_corpus)))
        run_analysis(config2, AnalysisInputs(corpus=str(zeta_corpus)))
        for name in ("00_FiniteBasisRefutation.cert.json", "01_GapCriterion.cert.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestConfig:
    def test_file_round_trip(self, tmp_path):
        config = AnalysisConfig(precision_bits=96, rank_bound=7,
                                ratio_threshold="7/2", max_weight=4,
                                factor_limit=10 ** 5,
                                horizon={"lam": "5"})
        path = tmp_path / "config.json"
        config.to_file(path)
        assert AnalysisConfig.from_file(path) == config

    def test_env_precision_override(self, monkeypatch, zeta_corpus, tmp_path, capsys):
        monkeypatch.setenv("DFORGE_PRECISION", "96")
        code = main(["analyze", "--corpus", str(zeta_corpus), "--rank-bound", "30",
                     "--out", str(tmp_path / "c")])
        assert code == EXIT_OK
        cert = json.loads((tmp_path / "c" / "00_FiniteBasisRefutation.cert.json").read_text())
        assert cert["basis"]["precision_bits"] == 96

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            AnalysisConfig(rank_bound=0)

    def test_retired_seed_key_ignored(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"rank_bound": 7, "seed": 3}))
        assert AnalysisConfig.from_file(path) == AnalysisConfig(rank_bound=7)

    def test_bad_env_precision(self, monkeypatch, zeta_corpus, capsys):
        monkeypatch.setenv("DFORGE_PRECISION", "abc")
        assert main(["analyze", "--corpus", str(zeta_corpus)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error[config]:")

    @pytest.mark.parametrize("obj", [{"rank_bound": 7, "colour": "red"},
                                     {"rank_bound": "7"},
                                     {"ratio_threshold": 3},
                                     {"precision_bits": 1.5},
                                     {"ratio_threshold": "x/y"},
                                     [1, 2]])
    def test_bad_config_file(self, obj, tmp_path, zeta_corpus, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        code = main(["analyze", "--corpus", str(zeta_corpus), "--config", str(path)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error[config]:") and "Traceback" not in err

    @pytest.mark.parametrize("horizon", ['{bad', '{"lam": "x"}', '{"lam": 1}'])
    def test_bad_horizon_is_config_error(self, horizon, geometric_file, capsys):
        code = main(["substitute", "--series", str(geometric_file),
                     "--eq", "f' + lam*f + lam*f^2", "--horizon", horizon])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error[config]:") and "Traceback" not in err


class TestErrorCodes:
    @pytest.mark.parametrize("argv", [["substitute", "--bogus"],
                                      ["derive-ade", "--series", "s.json", "--max-weight", "x"],
                                      ["frobnicate"],
                                      ["eliminate-x", "--eq", "f", "--config", "c.json"]])
    def test_bad_command_line_is_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error[usage]: ") and err.count("\n") == 1

    def test_rescaled_residual_precondition_is_bad_input(self, geometric_file, capsys):
        assert main(["verify", "rescale", "--series", str(geometric_file),
                     "--eq", "f' + lam*f", "--c", "1/2"]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error[bad-input]: precondition")

    def test_zero_mu_is_bad_input(self, capsys):
        assert main(["ode-to-pde", "--eq", "f' + lam*f", "--mu", "0"]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error[bad-input]:")

    def test_scalar_count_is_bad_input(self, geometric_file, capsys):
        assert main(["rescale", "--series", str(geometric_file), "--c", "1/2,3"]) == EXIT_ERROR
        assert capsys.readouterr().err == "error[bad-input]: expected 1 scalars, got 2\n"

    def test_non_decimal_digit_is_syntax_error(self, capsys):
        assert main(["eliminate-x", "--eq", "f^\u00b2"]) == EXIT_ERROR
        assert capsys.readouterr().err == \
            "error[syntax-error]: unexpected character '\u00b2' (line 1, column 3)\n"

    @pytest.mark.parametrize("via", ["eq", "series", "cert"])
    def test_equation_nesting_cap(self, via, geometric_file, tmp_path, capsys):
        # each path that parses an equation or a coefficient: at the cap the
        # text parses, past it (400 levels as well) it is one error line
        # rather than a RecursionError
        cert = tmp_path / "sub.cert.json"
        assert main(["substitute", "--series", str(geometric_file),
                     "--eq", "f' + lam*f + lam*f^2", "--out", str(cert)]) == EXIT_OK

        def run(opening, depth):
            def wrap(text):
                return opening * depth + text + ")" * depth
            if via == "eq":
                argv = ["eliminate-x", "--eq", wrap("f + x^2")]
            elif via == "series":
                obj = json.loads(geometric_file.read_text())
                obj["terms"][0]["coeff"] = wrap("1" if opening == "(" else "lam")
                path = tmp_path / "deep.series.json"
                path.write_text(json.dumps(obj))
                argv = ["substitute", "--series", str(path), "--eq", "f' + lam*f + lam*f^2"]
            else:
                obj = json.loads(cert.read_text())
                obj["evidence"]["equation"] = wrap(obj["evidence"]["equation"]
                                                   if opening == "(" else "lam")
                path = tmp_path / "deep.cert.json"
                path.write_text(json.dumps(obj))
                argv = ["verify", "cert", str(path)]
            capsys.readouterr()
            code = main(argv)
            return code, capsys.readouterr()

        depth = grammar.MAX_NESTING
        code, out = run("(", depth)
        if via == "cert":   # parsed, then refused for its reworded equation
            assert code == EXIT_ERROR and out.err == ""
            assert out.out.startswith("Mismatch:\n  equation: recomputed ")
        else:
            assert code == EXIT_OK and "error" not in out.err
        prefix = "error[schema-error]: unreadable FormalSatisfaction payload: " \
            if via == "cert" else "error[syntax-error]: "
        for opening, deep in [("(", depth + 1), ("(", 400), ("exp(", 300)]:
            code, out = run(opening, deep)
            assert code == EXIT_ERROR
            assert out.err == (f"{prefix}parentheses nest deeper than {depth} "
                               f"(line 1, column {len(opening) * (depth + 1)})\n")

    @pytest.mark.parametrize("via", ["eq", "series", "cert"])
    def test_wide_constant_power(self, via, geometric_file, tmp_path, capsys):
        # 9^99999999 has 95 million digits: on each path that parses an
        # equation or a coefficient it is refused from the bit lengths, at
        # once and in one error line, before it is formed; 9^1000 reads as
        # its digits written out do
        argv = _parsing_paths(via, geometric_file, tmp_path)
        prefix = _PARSE_ERROR_PREFIX[via]
        want = (f"{prefix}the power has a coefficient of more than {MAX_RATIONAL_DIGITS} "
                "digits (line 1, column 3)\n")
        out = _run_cli(argv("9^99999999"))
        assert (out.returncode, out.stdout, out.stderr) == (EXIT_ERROR, "", want)
        capsys.readouterr()
        start = time.process_time()
        assert main(argv("9^99999999")) == EXIT_ERROR
        assert time.process_time() - start < 1
        assert capsys.readouterr().err == want
        outputs = []
        for text in ("9^1000", str(9 ** 1000)):
            code = main(argv(text))
            out = capsys.readouterr()
            # a certificate's equation mismatches its claimed text unless that
            # is printed as the canonical form prints it
            lines = [line for line in out.out.splitlines() if not line.startswith("  equation:")]
            outputs.append((code, lines, out.err))
        assert outputs[0] == outputs[1]
        assert "error" not in outputs[0][2]

    @pytest.mark.parametrize("via", ["eq", "series", "cert"])
    @pytest.mark.parametrize("text, column", [("1" * 4400, 1), ("2^" + "1" * 4400, 3)],
                             ids=["rational", "power"])
    def test_long_integer_literal(self, via, text, column, geometric_file, tmp_path, capsys):
        # a literal of more than 4300 digits, as a rational or as a power's
        # exponent, is refused at its token in one error line, not by int()
        argv = _parsing_paths(via, geometric_file, tmp_path)
        capsys.readouterr()
        want = (f"{_PARSE_ERROR_PREFIX[via]}an integer of more than {MAX_RATIONAL_DIGITS} "
                f"digits (line 1, column {column})\n")
        assert main(argv(text)) == EXIT_ERROR
        assert capsys.readouterr() == ("", want)

    @pytest.mark.parametrize("via, error", [("series", "io"), ("cert", "schema-error"),
                                            ("config", "config"), ("horizon", "config")])
    def test_json_nested_past_the_decoder_limit(self, via, error, geometric_file, tmp_path,
                                                capsys):
        deep = "[" * 100000
        path = tmp_path / "deep.json"
        path.write_text('{"horizon": ' + deep if via == "config" else deep)
        substitute = ["substitute", "--series", str(geometric_file), "--eq", "f"]
        argv = {"series": ["substitute", "--series", str(path), "--eq", "f"],
                "cert": ["verify", "cert", str(path)],
                "config": substitute + ["--config", str(path)],
                "horizon": substitute + ["--horizon", deep]}[via]
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error[{error}]: ") and err.count("\n") == 1
        assert "nested too deeply" in err

    def test_missing_file_stays_io(self, tmp_path, capsys):
        assert main(["substitute", "--series", str(tmp_path / "none.json"),
                     "--eq", "f"]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error[io]: ")

    def test_zero_gap_in_corpus_is_bad_input(self, tmp_path, capsys):
        # log 1 = 0 after log 2 > 0: the gap ratio log 3 / log 1 is undefined
        corpus = tmp_path / "c.txt"
        corpus.write_text("2\n1\n3\n")
        assert main(["analyze", "--corpus", str(corpus)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error[bad-input]: exponent 1 ") and err.count("\n") == 1

    @pytest.mark.parametrize("block, key, value", [
        ("basis", "precision_bits", True),
        ("basis", "independence_assumed", "false"),
        ("basis", "independence_assumed", 0),
        ("symbol", "value_decimal_string", 0.69314718055994530941723212145818),
        ("term", "xdegree", True),
        ("term", "xdegree", "2"),
        ("term", "xdegree", 2.7),
    ])
    def test_mistyped_series_field_is_schema_error(self, block, key, value, lam_basis,
                                                   tmp_path, capsys):
        obj = series_to_obj(geometric_series(lam_basis, 8))
        target = {"basis": obj["basis"], "symbol": obj["basis"]["symbols"][0],
                  "term": obj["terms"][0]}[block]
        target[key] = value
        path = tmp_path / "typed.series.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "c.json"
        assert main(["substitute", "--series", str(path), "--eq", "f' + lam*f + lam*f^2",
                     "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error[schema-error]: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [["substitute", "--eq", "f' + lam*f + lam*f^2"],
                                         ["derive-ade"]])
    def test_nan_symbol_value_is_bad_basis(self, command, lam_basis, tmp_path, capsys):
        obj = series_to_obj(geometric_series(lam_basis, 8))
        obj["basis"]["symbols"][0]["value_decimal_string"] = "nan"
        path = tmp_path / "nan.series.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "c.json"
        assert main([*command, "--series", str(path), "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error[bad-basis]: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [["substitute", "--eq", "f' + lam*f + lam*f^2"],
                                         ["derive-ade"]])
    def test_unparsed_symbol_value_is_bad_basis(self, command, lam_basis, tmp_path, capsys):
        # mpmath reads "1/0" as a ratio and divides by zero
        obj = series_to_obj(geometric_series(lam_basis, 6))
        obj["basis"]["symbols"][0]["value_decimal_string"] = "1/0"
        path = tmp_path / "ratio.series.json"
        path.write_text(json.dumps(obj))
        assert main([*command, "--series", str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error[bad-basis]: symbol 'lam' has value '1/0', not a decimal number\n"

    def test_unparsed_symbol_value_in_certificate_is_schema_error(self, geometric_file,
                                                                  tmp_path, capsys):
        path = tmp_path / "sub.cert.json"
        assert main(["substitute", "--series", str(geometric_file),
                     "--eq", "f' + lam*f + lam*f^2", "--out", str(path)]) == EXIT_OK
        obj = json.loads(path.read_text())
        # the basis block the rebuild reads: the substituted series'
        obj["evidence"]["series"]["basis"]["symbols"][0]["value_decimal_string"] = "1/0"
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", "cert", str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[schema-error]: ")
        assert captured.err.endswith("symbol 'lam' has value '1/0', not a decimal number\n")
        assert captured.err.count("\n") == 1

    def test_residual_too_wide_to_write_is_bad_input(self, lam_basis, tmp_path, capsys):
        # 9^4000 has 3817 digits and parses; the residual's 9^8000 has 7634,
        # past Python's int-to-str limit, and is refused where it is written
        obj = series_to_obj(geometric_series(lam_basis, 6))
        obj["terms"][0]["coeff"] = str(9 ** 4000)
        path = tmp_path / "wide.series.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "c.json"
        assert main(["substitute", "--series", str(path), "--eq", "f' + lam*f + lam*f^2",
                     "--out", str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error[bad-input]: a rational of more than "
                                f"{MAX_RATIONAL_DIGITS} digits cannot be written\n")
        assert not out.exists()

    def test_non_string_symbol_name_is_schema_error(self, lam_basis, tmp_path, capsys):
        obj = series_to_obj(geometric_series(lam_basis, 8))
        obj["basis"]["symbols"][0]["name"] = 5
        path = tmp_path / "named.series.json"
        path.write_text(json.dumps(obj))
        assert main(["derive-ade", "--series", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err == \
            "error[schema-error]: basis symbol name must be str, not 5\n"

    def test_series_precision_above_the_cap_is_bad_basis(self, lam_basis, tmp_path, capsys):
        obj = series_to_obj(geometric_series(lam_basis, 8))
        obj["basis"]["precision_bits"] = MAX_PRECISION + 1
        path = tmp_path / "fine.series.json"
        path.write_text(json.dumps(obj))
        assert main(["substitute", "--series", str(path), "--eq", "f' + lam*f"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error[bad-basis]: precision ") and err.count("\n") == 1

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_precision_above_the_cap_is_config_error(self, via, monkeypatch, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("2\n3\n")
        argv = ["basis", "--corpus", str(corpus)]
        if via == "flag":
            argv += ["--precision", str(MAX_PRECISION + 1)]
        else:
            monkeypatch.setenv("DFORGE_PRECISION", str(MAX_PRECISION + 1))
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == \
            f"error[config]: precision_bits must be at most {MAX_PRECISION}\n"
        monkeypatch.delenv("DFORGE_PRECISION", raising=False)
        assert main(["basis", "--corpus", str(corpus), "--precision",
                     str(MAX_PRECISION)]) == EXIT_OK

    def test_huge_decimal_exponent_in_corpus_is_schema_error(self, tmp_path, capsys):
        # 16 bytes that would make Fraction build 10**(10**8) before any check
        corpus = tmp_path / "c.txt"
        corpus.write_text("2 1e100000000\n3\n")
        assert main(["analyze", "--corpus", str(corpus)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error[schema-error]: {corpus}:1: rational '1e100000000' "
                              "has more than 4300 digits") and err.count("\n") == 1

    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_huge_ratio_threshold_is_config_error(self, via, zeta_corpus, tmp_path, capsys):
        argv = ["analyze", "--corpus", str(zeta_corpus)]
        if via == "flag":
            argv += ["--ratio-threshold", "1e-100000000"]
        else:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"ratio_threshold": "1e-100000000"}))
            argv += ["--config", str(path)]
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error[config]: config value 'ratio_threshold': ") and \
            "more than 4300 digits" in err and err.count("\n") == 1

    @pytest.mark.parametrize("field", ["ratio_threshold", "exponent"])
    def test_huge_rational_in_certificate_is_schema_error(self, field, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("2\n3\n5\n")
        assert main(["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "c")]) \
            == EXIT_OK
        path = tmp_path / "c" / "01_GapCriterion.cert.json"
        cert = json.loads(path.read_text())
        if field == "ratio_threshold":
            cert["evidence"]["ratio_threshold"] = "1e100000000"
        else:
            cert["evidence"]["exponents"][1] = {"L3": "3e100000000"}
        path.write_text(json.dumps(cert))
        capsys.readouterr()
        assert main(["verify", "cert", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error[schema-error]: ") and "more than 4300 digits" in err \
            and err.count("\n") == 1

    def test_rationals_at_the_digit_cap_still_parse(self):
        assert parse_frac("1e4299") == 10 ** 4299
        assert parse_frac("-25e-4298") == Fraction(-1, 4 * 10 ** 4296)
        assert parse_frac("1.5e4299") == 15 * 10 ** 4298
        assert parse_frac("7" * 4300 + "/3") == Fraction(int("7" * 4300), 3)
        for text in ("1e4300", "1e-4300", "0e100000000", "1.5e4300", "7" * 4301 + "/3",
                     "1/" + "3" * 4301, "1" * 4301 + "e-200"):
            with pytest.raises(SchemaError, match="more than 4300 digits"):
                parse_frac(text)

    def test_parse_frac_agrees_with_fraction(self):
        # digit text skips Fraction: the accepted texts, the values and the
        # two failure reasons must stay exactly Fraction(text)'s, and a value
        # is an int exactly when it is integral; the digit cap refuses only
        # a text that Fraction accepts and would widen
        fixed = ["+1", " 1 ", "1_0", "007", "-0", "-", "--1", "\u0661", "1\u0662",
                 "\u00b2", "", "1/0", "0/0", "-7/14", "4/2", "1.50", "1e3", "2e-1",
                 "1 /2", "12345678901234567890"]
        rng = random.Random(20261019)
        alphabet = "0123456789" * 3 + "-+/._e \u0661\u00b2"
        texts = fixed + ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
                         for _ in range(3000)]
        for text in texts:
            try:
                want, reason = Fraction(text), None
            except ValueError:
                want, reason = None, 'not "p/q" or decimal text'
            except ZeroDivisionError:
                want, reason = None, "zero denominator"
            try:
                got = parse_frac(text)
            except SchemaError as exc:
                if "more than 4300 digits" in str(exc):
                    assert reason is None and \
                        max(want.numerator, want.denominator) > 10 ** 4300, text
                else:
                    assert reason is not None and str(exc).endswith(reason), text
                continue
            assert reason is None and got == want, text
            assert type(got) is (int if want.denominator == 1 else Fraction), text

    @pytest.mark.parametrize("bad", ["e85631", "-e9999", ".e5000", "\u00b2e9999"])
    def test_rational_without_mantissa_is_bad_not_wide(self, bad, tmp_path, capsys):
        # the exponent's digits alone never make a text too wide: with no
        # mantissa digit it is no rational at all
        path = tmp_path / "bad.series.json"
        path.write_text(json.dumps({
            "basis": {"symbols": [{"name": "lam", "value_decimal_string": "0.7"}],
                      "precision_bits": 128, "independence_assumed": True},
            "terms": [{"exponent": {"lam": bad}, "coeff": "1"}],
            "truncation": None}))
        assert main(["substitute", "--series", str(path), "--eq", "f' + lam*f"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error[schema-error]: bad rational {bad!r}: not \"p/q\" or decimal text\n"

    def test_long_bad_rational_gives_one_short_line(self, tmp_path, capsys):
        # the exponent's 4998 digits defeat the width check, so Fraction
        # rejects the text, and the message quotes 40 characters of it
        bad = "1e" + "9" * 4998
        path = tmp_path / "bad.series.json"
        path.write_text(json.dumps({
            "basis": {"symbols": [{"name": "lam", "value_decimal_string": "0.7"}],
                      "precision_bits": 128, "independence_assumed": True},
            "terms": [{"exponent": {"lam": bad}, "coeff": "1"}],
            "truncation": None}))
        assert main(["substitute", "--series", str(path), "--eq", "f' + lam*f"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error[schema-error]: bad rational {bad[:40]!r}: ")
        assert err.count("\n") == 1 and len(err) < 200
