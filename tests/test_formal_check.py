"""The formal check end to end: certificate bytes pinned by digest, and one
full-equation substitution per CLI path and per `verify cert`."""

import hashlib
import sys

import pytest

from conftest import geometric_series
from dforge import formal_eval
from dforge.cli import EXIT_OK, EXIT_REFUTATION, main
from dforge.grammar import parse_diffpoly
from dforge.io import dump_series, load_series
from dforge.obstruction import residual_certificate, substitution_certificate
from dforge.series import Exponent, make_series, prefix

EQ = "f' + lam*f + lam*f^2"


@pytest.fixture()
def geometric_file(tmp_path, lam_basis):
    path = tmp_path / "geometric.series.json"
    dump_series(geometric_series(lam_basis, 15), path)
    return path


@pytest.fixture()
def perturbed_file(tmp_path, lam_basis):
    """The 15-term geometric series with its fifth coefficient doubled."""
    lam = Exponent.of("lam")
    phi = make_series([(lam * n, 2 if n == 5 else 1) for n in range(1, 16)],
                      lam_basis, lam * 15)
    path = tmp_path / "perturbed.series.json"
    dump_series(phi, path)
    return path


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestCertificateGoldens:
    """sha256 of the certificate files, recorded with the code that
    substituted once per consumer: sharing one residual changes no byte."""

    def test_substitute_with_threshold(self, geometric_file, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["substitute", "--series", str(geometric_file), "--eq", EQ,
                     "--with-threshold", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == "residual: ZeroUpToT(15*lam)\n"
        assert _digest(out) == \
            "eb9731429bc3a52b3de22c8e10da1921cba90df81ab96e0acee8be898d547f42"

    def test_substitute_with_threshold_at_horizon(self, geometric_file, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["substitute", "--series", str(geometric_file), "--eq", EQ,
                     "--horizon", '{"lam": "12"}', "--with-threshold",
                     "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == "residual: ZeroUpToT(12*lam)\n"
        assert _digest(out) == \
            "fb4519513eec068bd94905e8620973ef5d7365d535fc6e91e61e233e5563c256"

    def test_analyze_series_eq(self, geometric_file, tmp_path, capsys):
        outdir = tmp_path / "certs"
        assert main(["analyze", "--series", str(geometric_file), "--eq", EQ,
                     "--out", str(outdir)]) == EXIT_OK
        assert _digest(outdir / "00_FormalSatisfaction.cert.json") == \
            "eb9731429bc3a52b3de22c8e10da1921cba90df81ab96e0acee8be898d547f42"

    def test_perturbed_refutation(self, perturbed_file, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["substitute", "--series", str(perturbed_file), "--eq", EQ,
                     "--with-threshold", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == \
            "residual: NonzeroWithLeading((-4*lam) e^(-(5*lam)s))\n"
        assert _digest(out) == \
            "e1f09e085cea2236d96d4c35fd80d2403d4bc70c983df71db5cdff3fc76adc6d"
        outdir = tmp_path / "certs"
        assert main(["analyze", "--series", str(perturbed_file), "--eq", EQ,
                     "--out", str(outdir)]) == EXIT_REFUTATION
        assert _digest(outdir / "00_FormalRefutation.cert.json") == _digest(out)

    @pytest.mark.parametrize("horizon,digest", [
        ([], "d4b19e08ce03fe357d293c4837bd7e423d4d1e944e0ac1eee3a4635541ecd2a1"),
        (["--horizon", '{"lam": "10"}'],
         "b3226a7a1832a4f366fa2923d052dcece2391fd40fe2ff592226d23f60baebc3"),
    ])
    def test_derive(self, horizon, digest, geometric_file, tmp_path, capsys):
        out = tmp_path / "d.json"
        assert main(["derive-ade", "--series", str(geometric_file), "--out", str(out),
                     *horizon]) == EXIT_OK
        assert capsys.readouterr().out == "lam*f + lam*f^2 + f'\n"
        assert _digest(out) == digest
        outdir = tmp_path / "certs"
        assert main(["analyze", "--series", str(geometric_file), "--derive",
                     "--out", str(outdir), *horizon]) == EXIT_OK
        assert _digest(outdir / "00_FormalSatisfaction.cert.json") == digest


@pytest.fixture()
def full_equation_calls(monkeypatch, lam_basis):
    """Count `substitute` calls on the full equation, whichever module's
    binding of the name the call goes through."""
    original = formal_eval.substitute
    full = parse_diffpoly(EQ, lam_basis)
    calls = []

    def counting(F, phi, horizon=None):
        if F == full:
            calls.append(horizon)
        return original(F, phi, horizon)

    bound = [m for name, m in sys.modules.items()
             if name.split(".")[0] == "dforge" and getattr(m, "substitute", None) is original]
    assert formal_eval in bound
    for module in bound:
        monkeypatch.setattr(module, "substitute", counting)
    return calls


class TestOneSubstitutionPerCertificate:
    @pytest.mark.parametrize("horizon", [[], ["--horizon", '{"lam": "12"}']])
    def test_substitute_with_threshold(self, horizon, geometric_file, tmp_path,
                                       full_equation_calls, capsys):
        out = tmp_path / "c.json"
        assert main(["substitute", "--series", str(geometric_file), "--eq", EQ,
                     "--with-threshold", "--out", str(out), *horizon]) == EXIT_OK
        assert len(full_equation_calls) == 1
        full_equation_calls.clear()
        assert main(["verify", "cert", str(out)]) == EXIT_OK
        assert len(full_equation_calls) == 1

    def test_analyze_series_eq(self, geometric_file, tmp_path, full_equation_calls, capsys):
        assert main(["analyze", "--series", str(geometric_file), "--eq", EQ,
                     "--out", str(tmp_path / "certs")]) == EXIT_OK
        assert len(full_equation_calls) == 1

    @pytest.mark.parametrize("horizon", [[], ["--horizon", '{"lam": "10"}']])
    def test_derive(self, horizon, geometric_file, tmp_path, full_equation_calls, capsys):
        # the search's own residual at full validity serves the certificate
        out = tmp_path / "d.json"
        assert main(["derive-ade", "--series", str(geometric_file), "--out", str(out),
                     *horizon]) == EXIT_OK
        assert full_equation_calls == [None]
        full_equation_calls.clear()
        assert main(["analyze", "--series", str(geometric_file), "--derive",
                     "--out", str(tmp_path / "certs"), *horizon]) == EXIT_OK
        assert full_equation_calls == [None]

    def test_refutation(self, perturbed_file, tmp_path, full_equation_calls, capsys):
        out = tmp_path / "c.json"
        assert main(["substitute", "--series", str(perturbed_file), "--eq", EQ,
                     "--with-threshold", "--out", str(out)]) == EXIT_OK
        assert main(["verify", "cert", str(out)]) == EXIT_OK
        assert len(full_equation_calls) == 2


class TestReportKeepsItsResidual:
    def test_certificate_reuses_the_report(self, geometric_file, full_equation_calls):
        phi = load_series(geometric_file)
        F = parse_diffpoly(EQ, phi.basis)
        report = formal_eval.forcing_threshold(F, phi)
        cert = substitution_certificate(F, phi, None, report)
        assert cert.evidence["threshold_report"]["verified_indices"]
        assert len(full_equation_calls) == 1
        assert cert == residual_certificate(formal_eval.substitute(F, phi), report)

    def test_report_for_another_substitution_raises(self, geometric_file):
        phi = load_series(geometric_file)
        F = parse_diffpoly(EQ, phi.basis)
        lam = Exponent.of("lam")
        report = formal_eval.forcing_threshold(F, phi)
        for args in ((F, phi, lam * 12),
                     (F, prefix(phi, 12), None),
                     (parse_diffpoly("2*f' + 2*lam*f + 2*lam*f^2", phi.basis), phi, None)):
            with pytest.raises(ValueError, match="different"):
                substitution_certificate(*args, report)
        at_12 = formal_eval.forcing_threshold(F, phi, lam * 12)
        with pytest.raises(ValueError, match="different"):
            substitution_certificate(F, phi, None, at_12)
        assert substitution_certificate(F, phi, lam * 12, at_12).evidence["horizon"] \
            == {"lam": "12"}
