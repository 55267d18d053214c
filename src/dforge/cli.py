"""Command-line front end.

Subcommands: analyze, substitute, eliminate-x, basis, derive-ade, rescale,
ode-to-pde, verify (with cert / hilbert / rescale forms).  Exit codes:
0 analysis completed, 2 obstruction evidence found (greppable), 1 error
(``error[<code>]`` on stderr; ``error[usage]`` for a bad command line,
flags that need another, such as ``analyze --eq`` or ``--derive`` without
``--series``, and ``basis`` without exactly one of ``--corpus`` and
``--series``).
Configuration is JSON (one format); the DFORGE_PRECISION environment
variable overrides the precision of the bases dforge builds itself (corpus
pipelines and ``verify hilbert``); a series file carries its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union, get_type_hints

from . import diffpoly as dp
from . import obstruction as ob
from . import transforms as tf
from .errors import ConfigError, DforgeError, FactorLimitExceeded, SchemaError, UsageError
from .formal_eval import Residual, at_horizon, substitute, threshold_of
from .grammar import parse_diffpoly, pretty
from .io import (
    canonical_json,
    exponent_to_obj,
    load_series,
    obj_to_exponent,
    parse_frac,
    parse_json,
    read_corpus,
    series_to_obj,
)
from .lattice import integer_basis, log_basis_for_indices, prime_support
from .numeric import DEFAULT_PRECISION, MAX_PRECISION
from .obstruction import Certificate, VerifyResult, recheck
from .series import Exponent, FormalSeries
from .wronskian import NotFoundWithinW, search_ade

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUTATION = 2


@dataclass
class AnalysisConfig:
    """Tool-wide knobs; round-trips losslessly through its JSON file form.
    Invalid values raise :class:`ConfigError`."""

    precision_bits: int = DEFAULT_PRECISION
    horizon: dict | None = None             # exponent object, or null
    rank_bound: int = 10
    ratio_threshold: str = "100"            # exact rational as p/q text
    max_weight: int = 3
    factor_limit: int = 10 ** 6
    output: str | None = None

    def __post_init__(self):
        for name, kind in get_type_hints(AnalysisConfig).items():
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ConfigError(f"config value {name!r} must not be a "
                                  f"{type(value).__name__}")
        if self.precision_bits <= 0 or self.rank_bound <= 0 or \
                self.max_weight <= 0 or self.factor_limit <= 0:
            raise ConfigError("all bounds must be positive")
        if self.precision_bits > MAX_PRECISION:
            raise ConfigError(f"precision_bits must be at most {MAX_PRECISION}")
        for name, parse in (("ratio_threshold", parse_frac), ("horizon", obj_to_exponent)):
            value = getattr(self, name)
            try:
                if value is not None:
                    parse(value)
            except SchemaError as exc:
                raise ConfigError(f"config value {name!r}: {exc}") from None

    @staticmethod
    def from_file(path, command: str = "analyze") -> "AnalysisConfig":
        """The config in ``path``; a key that ``command`` never reads is an
        error rather than a silent no-op."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = parse_json(fh.read())
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: {exc}") from None
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: a config file must hold a JSON object")
        obj.pop("seed", None)  # retired key: older files still load
        unknown = sorted(set(obj) - {f.name for f in fields(AnalysisConfig)})
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {unknown}")
        unread = sorted(set(obj) - CONFIG_READS[command])
        if unread:
            raise ConfigError(f"{path}: {command} does not read config keys {unread}")
        return AnalysisConfig(**obj)

    def to_file(self, path) -> None:
        Path(path).write_text(canonical_json(asdict(self)) + "\n", encoding="utf-8")

    @property
    def horizon_exponent(self) -> Optional[Exponent]:
        return None if self.horizon is None else obj_to_exponent(self.horizon)


# The config fields each command that takes ``--config`` reads.
CONFIG_READS = {
    "analyze": {f.name for f in fields(AnalysisConfig)},
    "substitute": {"horizon", "output"},
    "basis": {"precision_bits", "factor_limit", "output"},
    "derive-ade": {"max_weight", "horizon", "output"},
    "rescale": {"output"},
    "verify hilbert": {"precision_bits", "output"},
    "verify rescale": {"horizon", "output"},
}


@dataclass
class AnalysisInputs:
    corpus: Optional[str] = None
    series: Optional[str] = None
    equation: Optional[str] = None
    derive: bool = False


def run_analysis(config: AnalysisConfig, inputs: AnalysisInputs
                 ) -> tuple[int, list[Certificate], dict]:
    """Execute the requested pipeline and return (exit code, certificates,
    summary).  Certificates are also written under ``config.output``."""
    certificates: list[Certificate] = []
    summary: dict = {"pipeline": []}

    if inputs.corpus:
        corpus = read_corpus(inputs.corpus)
        indices = [n for n, a in corpus if a != 0]
        support = prime_support(indices, config.factor_limit)
        summary["prime_support"] = {
            "primes": list(support.primes),
            "sample_size": support.sample_size,
            "unfactored": list(support.unfactored),
        }
        summary["pipeline"].append("prime-support")
        if support.unfactored:
            # degrade gracefully: scan the factorable prefix, say so loudly
            dropped = set(support.unfactored)
            indices = [n for n in indices if n not in dropped]
            summary["dropped_unfactored"] = sorted(dropped)
            if not indices:
                raise FactorLimitExceeded(support.unfactored[0])
        basis, exponents = log_basis_for_indices(indices, config.precision_bits,
                                                 config.factor_limit)
        stream = [exponents[n] for n in indices]
        certificates.append(ob.finite_basis_certificate(stream, config.rank_bound, basis))
        summary["pipeline"].append("lattice")
        certificates.append(ob.gap_certificate(
            stream, parse_frac(config.ratio_threshold), basis))
        summary["pipeline"].append("gap")

    phi: Optional[FormalSeries] = None
    if inputs.series:
        phi = load_series(inputs.series)

    if inputs.equation:
        if phi is None:
            raise UsageError("--eq requires --series")
        certificates.append(_formal_check(config, phi, inputs.equation, True)[1])
        summary["pipeline"].append("substitute")

    if inputs.derive:
        if phi is None:
            raise UsageError("--derive requires --series")
        found, cert = _derive(config, phi)
        if cert is None:
            summary["derive_ade"] = _not_found_obj(found)
        else:
            summary["derive_ade"] = {"found": pretty(found)}
            certificates.append(cert)
        summary["pipeline"].append("derive-ade")

    if config.output:
        outdir = Path(config.output)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, cert in enumerate(certificates):
            name = f"{i:02d}_{cert.kind}.cert.json"
            cert.save(outdir / name)
            summary.setdefault("written", []).append(str(outdir / name))

    code = EXIT_REFUTATION if any(c.is_refutation for c in certificates) else EXIT_OK
    return code, certificates, summary


def _formal_check(config: AnalysisConfig, phi: FormalSeries, equation: str,
                  with_threshold: bool) -> tuple[Residual, Certificate]:
    """One residual at the config's horizon, then the forcing-threshold
    report made from it if asked and the residual is zero, then the
    certificate."""
    residual = substitute(parse_diffpoly(equation, phi.basis), phi, config.horizon_exponent)
    report = threshold_of(residual) if with_threshold and residual.is_zero else None
    return residual, ob.residual_certificate(residual, report)


def _derive(config: AnalysisConfig, phi: FormalSeries, max_k: Optional[int] = None
            ) -> tuple[Union[dp.DiffPolynomial, NotFoundWithinW], Optional[Certificate]]:
    """The equation search at the config's weight and horizon, then the
    certificate of the search's own zero residual restricted to that
    horizon (None when no equation is found)."""
    found = search_ade(phi, config.max_weight, config.horizon_exponent, max_k)
    if isinstance(found, NotFoundWithinW):
        return found, None
    return found.polynomial, ob.residual_certificate(
        at_horizon(found, config.horizon_exponent))


def _not_found_obj(found: NotFoundWithinW) -> dict:
    return {
        "found": None,
        "max_weight": found.max_weight,
        "subsets_searched": found.subsets_searched,
        "candidates_refuted": list(found.candidates_refuted),
        "skipped_underdetermined": list(found.skipped_underdetermined),
        "skipped_inconclusive": list(found.skipped_inconclusive),
    }


def verify_certificate(path) -> VerifyResult:
    """Re-check a certificate file against its own payload."""
    return recheck(Certificate.load(path))


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as :class:`UsageError`, exit 1: argparse's
    own exit status 2 means obstruction evidence here."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dforge",
        description="Exact Dirichlet-series analysis: formal residuals, "
                    "exponent lattices, obstruction certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, precision=False):
        if config:
            p.add_argument("--config", help="JSON config file")
        if precision:
            p.add_argument("--precision", type=int, dest="precision_bits", metavar="BITS",
                           help="precision bits of the basis built here (default 128)")
        p.add_argument("--out", dest="output", metavar="PATH",
                       help="output directory or file")

    p = sub.add_parser("analyze", help="corpus / series pipeline with certificates")
    common(p, precision=True)
    p.add_argument("--corpus", help="newline-delimited 'n a_n' file (gzip ok)")
    p.add_argument("--series", help="series specification JSON")
    p.add_argument("--eq", help="equation text to substitute")
    p.add_argument("--derive", action="store_true", help="search for an equation")
    p.add_argument("--rank-bound", type=int)
    p.add_argument("--ratio-threshold")
    p.add_argument("--factor-limit", type=int)
    p.add_argument("--max-weight", type=int)
    p.add_argument("--horizon", help="exponent object JSON text")

    p = sub.add_parser("substitute", help="residual of a series in an equation")
    common(p)
    p.add_argument("--series", required=True)
    p.add_argument("--eq", required=True)
    p.add_argument("--horizon", help="exponent object JSON text")
    p.add_argument("--with-threshold", action="store_true",
                   help="attach the forcing-threshold report on zero residuals")

    p = sub.add_parser("eliminate-x", help="remove explicit x by resultants")
    common(p, config=False)
    p.add_argument("--eq", required=True)
    p.add_argument("--split-x-content", action="store_true",
                   help="factor out monomial x-content before eliminating")

    p = sub.add_parser("basis", help="integer lattice basis of exponents")
    common(p, precision=True)
    p.add_argument("--corpus")
    p.add_argument("--series")

    p = sub.add_parser("derive-ade", help="search power products for an equation")
    common(p)
    p.add_argument("--series", required=True)
    p.add_argument("--max-weight", type=int, help="default: the config's max_weight (3)")
    p.add_argument("--horizon", help="exponent object JSON text")
    p.add_argument("--max-k", type=int)

    p = sub.add_parser("rescale", help="apply weight-vector coefficient rescaling")
    common(p)
    p.add_argument("--series", required=True)
    p.add_argument("--c", required=True, help="comma-separated rationals, e.g. 1/2,3")

    p = sub.add_parser("ode-to-pde", help="expand an ODE at s=0 into a PDE")
    common(p, config=False)
    p.add_argument("--eq", required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--lambda-names", help="comma-separated rate symbol names")

    pv = sub.add_parser("verify", help="re-check certificates and identities")
    vsub = pv.add_subparsers(dest="verify_command", required=True)

    p = vsub.add_parser("cert", help="re-verify a certificate file")
    p.add_argument("file")

    p = vsub.add_parser("hilbert", help="functional-equation checks on the zeta prefix")
    common(p, precision=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-mu", type=int, default=3)
    p.add_argument("--max-nu", type=int, default=3)
    p.add_argument("--max-ds", type=int)

    p = vsub.add_parser("rescale", help="verify rescaling invariance of a fixture")
    common(p)
    p.add_argument("--series", required=True)
    p.add_argument("--eq", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--horizon", help="exponent object JSON text")

    return parser


def _load_config(args) -> AnalysisConfig:
    """The config file, overridden by flags, overridden by DFORGE_PRECISION."""
    command = args.command if args.command != "verify" else f"verify {args.verify_command}"
    config = AnalysisConfig.from_file(args.config, command) if args.config else AnalysisConfig()
    overrides = {f.name: getattr(args, f.name, None) for f in fields(AnalysisConfig)
                 if f.name != "horizon"}   # flags are named after the fields
    if getattr(args, "horizon", None):
        try:
            overrides["horizon"] = parse_json(args.horizon)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--horizon is not JSON: {exc}") from None
    env = os.environ.get("DFORGE_PRECISION")
    if env:
        try:
            overrides["precision_bits"] = int(env)
        except ValueError:
            raise ConfigError(f"DFORGE_PRECISION={env!r} is not an integer") from None
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _scalars(text: str) -> list[Fraction]:
    return [parse_frac(chunk.strip()) for chunk in text.split(",") if chunk.strip()]


def main(argv=None) -> int:
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except DforgeError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error[bad-input]: {exc}", file=sys.stderr)
    return EXIT_ERROR


def _dispatch(args) -> int:
    if args.command == "analyze":
        config = _load_config(args)
        inputs = AnalysisInputs(corpus=args.corpus, series=args.series,
                                equation=args.eq, derive=args.derive)
        code, certs, summary = run_analysis(config, inputs)
        summary["certificates"] = [c.kind for c in certs]
        summary["exit_code"] = code
        print(canonical_json(summary))
        return code

    if args.command == "substitute":
        config = _load_config(args)
        residual, cert = _formal_check(config, load_series(args.series), args.eq,
                                       args.with_threshold)
        _write_or_print(cert.to_json(), config.output)
        print(f"residual: {residual.describe()}", file=sys.stderr)
        return EXIT_OK

    if args.command == "eliminate-x":
        F = parse_diffpoly(args.eq)
        if args.split_x_content:
            shed, F = dp.split_x_monomial_content(F)
            if shed:
                print(f"removed x^{shed} monomial content", file=sys.stderr)
        _write_or_print(pretty(dp.eliminate_x(F)), args.output)
        return EXIT_OK

    if args.command == "basis":
        config = _load_config(args)
        if bool(args.corpus) == bool(args.series):
            raise UsageError("exactly one of --corpus / --series is required")
        if args.corpus:
            corpus = read_corpus(args.corpus)
            indices = [n for n, a in corpus if a != 0]
            basis, exponents = log_basis_for_indices(indices, config.precision_bits,
                                                     config.factor_limit)
            stream = [exponents[n] for n in indices]
        else:
            phi = load_series(args.series)
            basis = phi.basis
            stream = [e for e, _ in phi.terms]
        B = integer_basis(stream, basis)
        obj = {
            "rank": B.rank,
            "generators": [exponent_to_obj(g) for g in B.generators],
            "change_of_basis": [list(r) for r in B.change_of_basis],
            "input_subset": None if B.input_subset is None else list(B.input_subset),
        }
        _write_or_print(canonical_json(obj), config.output)
        return EXIT_OK

    if args.command == "derive-ade":
        config = _load_config(args)
        found, cert = _derive(config, load_series(args.series), args.max_k)
        print(canonical_json(_not_found_obj(found)) if cert is None else pretty(found))
        if cert is not None and config.output:
            cert.save(config.output)
        return EXIT_OK

    if args.command == "rescale":
        config = _load_config(args)
        phi = load_series(args.series)
        B = integer_basis([e for e, _ in phi.terms], phi.basis)
        psi = tf.rescale(phi, B, _scalars(args.c))
        _write_or_print(canonical_json(series_to_obj(psi)), config.output)
        return EXIT_OK

    if args.command == "ode-to-pde":
        F = parse_diffpoly(args.eq)
        names = args.lambda_names.split(",") if args.lambda_names else None
        _write_or_print(str(tf.ode_to_pde(F, args.mu, names)), args.output)
        return EXIT_OK

    return _dispatch_verify(args)


def _dispatch_verify(args) -> int:
    if args.verify_command == "cert":
        result = verify_certificate(args.file)
        if result.ok:
            print("OK" if result.note is None else f"OK ({result.note})")
            return EXIT_OK
        print("Mismatch:")
        for line in result.mismatches:
            print(f"  {line}")
        return EXIT_ERROR

    if args.verify_command == "hilbert":
        config = _load_config(args)
        cert = tf.verify_hilbert_zeta(args.n, args.max_nu, args.max_mu,
                                      ds_max=args.max_ds,
                                      precision=config.precision_bits)
        _write_or_print(cert.to_json(), config.output)
        return EXIT_OK

    config = _load_config(args)   # verify rescale
    phi = load_series(args.series)
    F = parse_diffpoly(args.eq, phi.basis)
    B = integer_basis([e for e, _ in phi.terms], phi.basis)
    cert = tf.verify_rescale_invariance(F, phi, B, _scalars(args.c), config.horizon_exponent)
    _write_or_print(cert.to_json(), config.output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
