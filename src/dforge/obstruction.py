"""Obstruction and satisfaction certificates.

A certificate packages the evidence of one analysis over a *scanned prefix*
of a series: lattice-rank growth, gap-ratio exceedances, coefficient-field
structure, bivariate degree/exponent statistics, a sign-flip construction,
or a substitution residual.  Verdicts never claim anything about unseen
terms; a standalone checker (:func:`recheck`) rebuilds the whole
certificate from its own payload with the builder that made it and must
agree field for field.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from typing import Callable, Iterable, Optional, Sequence, Union

import mpmath

from .errors import DforgeError, InsufficientNonzeroTerms, SchemaError, UnknownFamily
from .formal_eval import forcing_threshold, substitute
from .grammar import parse_diffpoly, pretty
from .io import (
    TOOL_VERSION,
    basis_to_obj,
    canonical_json,
    exponent_to_obj,
    frac_str,
    obj_to_basis,
    obj_to_exponent,
    obj_to_series,
    parse_frac,
    series_to_obj,
)
from .lattice import Lattice, factorize, gap_ratios, integer_basis
from .numeric import workprec
from .series import Exponent, FormalSeries, SymbolBasis

FINITE_BASIS_REFUTATION = "FiniteBasisRefutation"
GAP_CRITERION = "GapCriterion"
COEFFICIENT_FIELD = "CoefficientField"
BIVARIATE_CRITERION = "BivariateCriterion"
SIGNFLIP_CONSTRUCTION = "SignFlipConstruction"
FORMAL_SATISFACTION = "FormalSatisfaction"
FORMAL_REFUTATION = "FormalRefutation"

KINDS = {
    FINITE_BASIS_REFUTATION, GAP_CRITERION, COEFFICIENT_FIELD,
    BIVARIATE_CRITERION, SIGNFLIP_CONSTRUCTION, FORMAL_SATISFACTION,
    FORMAL_REFUTATION,
}

VERDICT_SCOPE = "all claims are about the scanned prefix only"


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable evidence bundle; see :func:`recheck`."""

    kind: str
    scanned: int
    evidence: dict
    basis: Optional[dict] = None
    tool_version: str = TOOL_VERSION
    verdict_scope: str = VERDICT_SCOPE

    @property
    def is_refutation(self) -> bool:
        if self.kind in (GAP_CRITERION, BIVARIATE_CRITERION, SIGNFLIP_CONSTRUCTION):
            return False
        if self.kind == FORMAL_REFUTATION:
            return True
        return self.evidence.get("outcome") in ("rank_exceeded", "refuted")

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "scanned": self.scanned,
            "evidence": self.evidence,
            "basis": self.basis,
            "tool_version": self.tool_version,
            "verdict_scope": self.verdict_scope,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_obj())

    @staticmethod
    def from_obj(obj: dict) -> "Certificate":
        if not isinstance(obj, dict):
            raise SchemaError("a certificate must be a JSON object")
        kind = _get(obj, "kind", str)
        if kind not in KINDS:
            raise SchemaError(f"unknown certificate kind {kind!r}")
        return Certificate(kind, _get(obj, "scanned", int),
                           dict(_get(obj, "evidence", dict)),
                           _get(obj, "basis", (dict, type(None))),
                           _get(obj, "tool_version", str),
                           _get(obj, "verdict_scope", str))

    @staticmethod
    def load(path) -> "Certificate":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"not a certificate file: {exc}") from None
        return Certificate.from_obj(obj)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


def _nstr(x, precision: int) -> str:
    with workprec(precision):
        return mpmath.nstr(mpmath.mpf(x), 12)


# ---------------------------------------------------------------------------
# Payload reading: a missing key or a wrong type is a SchemaError
# ---------------------------------------------------------------------------

def _typed(value, kind, where: str):
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is int):
        raise SchemaError(f"{where}: unexpected {type(value).__name__}")
    return value


def _get(obj: dict, key: str, kind):
    if key not in obj:
        raise SchemaError(f"missing key {key!r}")
    return _typed(obj[key], kind, f"key {key!r}")


def _list(obj: dict, key: str, kind) -> list:
    return [_typed(v, kind, f"item of {key!r}") for v in _get(obj, key, list)]


def _exponents(obj: dict) -> list[Exponent]:
    return [obj_to_exponent(o) for o in _get(obj, "exponents", list)]


def _counts(obj: dict, key: str) -> list[list[int]]:
    pairs = _list(obj, key, list)
    if any(len(p) != 2 or any(type(v) is not int for v in p) for p in pairs):
        raise SchemaError(f"key {key!r}: expected [value, count] integer pairs")
    return pairs


# ---------------------------------------------------------------------------
# Finite-basis scan
# ---------------------------------------------------------------------------

def finite_basis_certificate(exponents: Sequence[Exponent], rank_bound: int,
                             basis: SymbolBasis) -> Certificate:
    """Scan the exponent stream tracking lattice rank against the bound.

    Rank exceeding the bound is refutation evidence (no series over these
    exponents can formally satisfy any difference-differential equation,
    modulo the scanned-prefix caveat); otherwise the certificate records
    where the rank stabilized.  The rank is taken over the symbol
    coordinates, which equals the rank of the numeric exponents only when
    the basis assumes the symbol values independent; without that
    assumption an exceeded bound is reported as ``rank_exceeded_unassumed``
    and refutes nothing.
    """
    scan = Lattice(basis)
    exceeded_at = None
    for e in exponents:
        rank = scan.add(e)
        if rank > rank_bound and exceeded_at is None:
            exceeded_at = len(scan.exponents)
    if exceeded_at is None:
        outcome = "rank_stabilized"
    elif basis.independence_assumed:
        outcome = "rank_exceeded"
    else:
        outcome = "rank_exceeded_unassumed"
    evidence = {
        "rank_bound": rank_bound,
        "exponents": [exponent_to_obj(e) for e in scan.exponents],
        "rank_history": [list(h) for h in scan.history],
        "final_rank": scan.rank,
        "generators": [exponent_to_obj(g) for g in scan.generators()],
        "outcome": outcome,
        "exceeded_at": exceeded_at,
        "stable_since": scan.history[-1][0] if scan.history else 0,
    }
    return Certificate(FINITE_BASIS_REFUTATION, len(scan.exponents), evidence,
                       basis_to_obj(basis))


def _finite_basis_from_payload(cert: Certificate) -> Callable[[], Certificate]:
    ev = cert.evidence
    return partial(finite_basis_certificate, _exponents(ev),
                   _get(ev, "rank_bound", int), obj_to_basis(cert.basis))


# ---------------------------------------------------------------------------
# Gap-ratio criterion
# ---------------------------------------------------------------------------

def gap_certificate(exponents: Sequence[Exponent], ratio_threshold: Fraction,
                    basis: SymbolBasis) -> Certificate:
    """Ratio envelope of consecutive exponents with threshold exceedances."""
    stats = gap_ratios(exponents, basis)
    with workprec(basis.precision):
        thr = mpmath.mpf(ratio_threshold.numerator) / ratio_threshold.denominator
        exceed = [i for i, r in enumerate(stats.ratios) if r > thr]
    evidence = {
        "ratio_threshold": frac_str(Fraction(ratio_threshold)),
        "exponents": [exponent_to_obj(e) for e in exponents],
        "dropped_prefix": stats.dropped_prefix,
        "ratios": [_nstr(r, basis.precision) for r in stats.ratios],
        "exact_ratios": [None if q is None else frac_str(q) for q in stats.exact],
        "envelope": [_nstr(r, basis.precision) for r in stats.envelope],
        "exceedances": exceed,
    }
    return Certificate(GAP_CRITERION, len(exponents), evidence, basis_to_obj(basis))


def _gap_from_payload(cert: Certificate) -> Callable[[], Certificate]:
    ev = cert.evidence
    return partial(gap_certificate, _exponents(ev),
                   parse_frac(_get(ev, "ratio_threshold", str)),
                   obj_to_basis(cert.basis))


# ---------------------------------------------------------------------------
# Coefficient-field families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootOfUnity:
    order: int


@dataclass(frozen=True)
class PrimeSquareRoot:
    prime: int


@dataclass(frozen=True)
class RationalCoeff:
    value: Fraction


@dataclass(frozen=True)
class UserAsserted:
    note: str


CoefficientTag = Union[RootOfUnity, PrimeSquareRoot, RationalCoeff, UserAsserted]


def coefficient_field_certificate(tags: Iterable[CoefficientTag],
                                  distinct_bound: int = 8) -> Certificate:
    """Field-theoretic obstruction evidence from tagged coefficient families.

    Unboundedly many distinct root-of-unity orders (or distinct prime square
    roots) cannot lie in one finitely generated field; at scan scale,
    "unbounded" means more distinct values than ``distinct_bound``.  Streams
    of plain rationals yield no obstruction from this test.  The evidence
    counts each order and each prime, so the scan can be rebuilt from it.
    """
    orders: Counter[int] = Counter()
    primes: Counter[int] = Counter()
    asserted: list[str] = []
    rational_count = 0
    count = 0
    for tag in tags:
        count += 1
        if isinstance(tag, RootOfUnity):
            if tag.order < 1:
                raise UnknownFamily(f"bad root-of-unity order {tag.order}")
            if tag.order > 2:
                orders[tag.order] += 1
            else:
                rational_count += 1  # orders 1 and 2 are just +-1
        elif isinstance(tag, PrimeSquareRoot):
            factors, _ = factorize(tag.prime)
            if list(factors.items()) != [(tag.prime, 1)]:
                raise UnknownFamily(f"{tag.prime} is not prime")
            primes[tag.prime] += 1
        elif isinstance(tag, RationalCoeff):
            rational_count += 1
        elif isinstance(tag, UserAsserted):
            asserted.append(tag.note)
        else:
            raise UnknownFamily(f"untagged coefficient {tag!r}")
    refuted = (len(orders) > distinct_bound or len(primes) > distinct_bound
               or bool(asserted))
    if asserted:
        reason = "user-asserted basis-free subsystem"
    elif len(orders) > distinct_bound:
        reason = (f"{len(orders)} distinct root-of-unity orders exceed the "
                  f"bound {distinct_bound}")
    elif len(primes) > distinct_bound:
        reason = (f"{len(primes)} distinct prime square roots exceed the "
                  f"bound {distinct_bound}")
    else:
        reason = "no obstruction from this test"
    evidence = {
        "distinct_bound": distinct_bound,
        "root_of_unity_orders": sorted(orders),
        "prime_square_roots": sorted(primes),
        "root_of_unity_order_counts": sorted([o, c] for o, c in orders.items()),
        "prime_square_root_counts": sorted([p, c] for p, c in primes.items()),
        "rational_count": rational_count,
        "user_asserted": asserted,
        "outcome": "refuted" if refuted else "no_obstruction",
        "reason": reason,
    }
    return Certificate(COEFFICIENT_FIELD, count, evidence)


def _coefficient_field_from_payload(cert: Certificate) -> Callable[[], Certificate]:
    # orders 1 and 2 were counted as rationals; rebuilding them as rationals
    # reproduces the same evidence
    ev = cert.evidence
    tags = chain(
        repeat(RationalCoeff(Fraction(0)), _get(ev, "rational_count", int)),
        *(repeat(RootOfUnity(o), c) for o, c in _counts(ev, "root_of_unity_order_counts")),
        *(repeat(PrimeSquareRoot(p), c) for p, c in _counts(ev, "prime_square_root_counts")),
        (UserAsserted(note) for note in _list(ev, "user_asserted", str)))
    return partial(coefficient_field_certificate, tags, _get(ev, "distinct_bound", int))


# ---------------------------------------------------------------------------
# Bivariate degree/exponent criterion
# ---------------------------------------------------------------------------

def bivariate_certificate(degrees: Sequence[int], exponents: Sequence,
                          basis: Optional[SymbolBasis] = None,
                          ratio_threshold: Fraction = Fraction(100),
                          precision: int = 128) -> Certificate:
    """Cluster diagnostics for log(degree)/log(exponent) plus gap evidence.

    The criterion needs (a) no nonzero rational accumulation point of the
    ratio sequence, and (b) either unbounded lattice rank or unbounded
    exponent gaps at scan scale.  Everything is reported honestly even when
    the criterion fails.  Symbolic exponents are recorded exactly; other
    inputs are recorded as the decimal text they were read from.
    """
    if len(degrees) != len(exponents):
        raise ValueError("degrees and exponents must align")
    symbolic = all(isinstance(e, Exponent) for e in exponents) and basis is not None
    with workprec(precision):
        if symbolic:
            values = [basis.exponent_value(e) for e in exponents]
        else:
            values = [mpmath.mpf(str(e)) for e in exponents]
        ratios = []
        skipped = []
        for i, (m, lam) in enumerate(zip(degrees, values)):
            if m < 1:
                raise ValueError("degrees must be positive integers")
            if lam <= 0 or abs(mpmath.log(lam)) < mpmath.mpf(2) ** (-precision // 2):
                skipped.append(i)
                continue
            ratios.append(float(mpmath.log(m) / mpmath.log(lam)))
        tail = ratios[max(0, len(ratios) * 3 // 4):]
        accumulation = None
        if tail:
            mean = sum(tail) / len(tail)
            spread = max(tail) - min(tail)
            if spread < 0.05:
                cand = Fraction(mean).limit_denominator(12)
                if cand != 0 and abs(float(cand) - mean) < 0.01:
                    accumulation = cand
        drift = None
        if len(tail) >= 3 and all(b > a for a, b in zip(tail, tail[1:])):
            drift = "to_infinity"
        elif len(tail) >= 3 and all(b < a for a, b in zip(tail, tail[1:])) and tail[-1] < 0.5:
            drift = "to_zero"
        hist: dict[str, int] = {}
        for r in ratios:
            key = f"{r:.1f}"
            hist[key] = hist.get(key, 0) + 1
    rank_unbounded = gap_exceeded = False
    rank_history = []
    if symbolic:
        scan = Lattice(basis)
        for e in exponents:
            scan.add(e)
        rank_history = [list(h) for h in scan.history]
        # rank still growing in the last half of the scan; symbol-coordinate
        # rank says nothing about the numeric rank unless independence is assumed
        rank_unbounded = basis.independence_assumed and bool(scan.history) and \
            scan.history[-1][0] > len(exponents) // 2
        stats = gap_ratios(list(exponents), basis)
        with workprec(precision):
            thr = mpmath.mpf(ratio_threshold.numerator) / ratio_threshold.denominator
            gap_exceeded = any(r > thr for r in stats.ratios)
    criterion_met = accumulation is None and (rank_unbounded or gap_exceeded)
    evidence = {
        "degrees": list(degrees),
        "exponent_values": [_nstr(v, precision) for v in values],
        "log_ratios": [f"{r:.6f}" for r in ratios],
        "skipped_indices": skipped,
        "histogram": dict(sorted(hist.items())),
        "rational_accumulation": None if accumulation is None else frac_str(accumulation),
        "drift": drift,
        "rank_history": rank_history,
        "condition_no_finite_basis_at_scan": rank_unbounded,
        "condition_gap_at_scan": gap_exceeded,
        "criterion_met": criterion_met,
        "note": "purely formal data; convergence is not modelled",
        "ratio_threshold": frac_str(Fraction(ratio_threshold)),
        "precision_bits": precision,
    }
    payload_basis = basis_to_obj(basis) if symbolic else None
    if symbolic:
        evidence["exponents"] = [exponent_to_obj(e) for e in exponents]
    else:
        evidence["input_values"] = [str(e) for e in exponents]
    return Certificate(BIVARIATE_CRITERION, len(degrees), evidence, payload_basis)


def _bivariate_from_payload(cert: Certificate) -> Callable[[], Certificate]:
    ev = cert.evidence
    if "input_values" in ev:
        basis, exponents = None, _list(ev, "input_values", str)
    else:
        basis, exponents = obj_to_basis(cert.basis), _exponents(ev)
    return partial(bivariate_certificate, _list(ev, "degrees", int), exponents, basis,
                   parse_frac(_get(ev, "ratio_threshold", str)),
                   _get(ev, "precision_bits", int))


# ---------------------------------------------------------------------------
# Sign-flip construction
# ---------------------------------------------------------------------------

def default_gap_rule(i: int) -> int:
    """Target positions 2^(i*i): consecutive ratios 2^(2i-1) grow unboundedly."""
    return 2 ** (i * i)


def signflip_construct(coefficients: Sequence[Fraction]
                       ) -> tuple[list[Fraction], list[tuple[int, Fraction]], Certificate]:
    """Select a gap subseries Q and flip its signs inside P.

    Returns (P1, Q, certificate) with P1 = P - 2Q exactly on the scan.  Q
    sits at the :func:`default_gap_rule` positions; when one lands on a zero
    coefficient the selection advances to the next nonzero position.
    """
    coeffs = [Fraction(c) for c in coefficients]
    scan = len(coeffs)
    positions: list[int] = []
    i = 1
    while True:
        target = default_gap_rule(i)
        if positions and target <= positions[-1]:
            target = positions[-1] + 1
        pos = next((p for p in range(target, scan) if coeffs[p] != 0), None)
        if pos is None:
            break
        positions.append(pos)
        i += 1
    if len(positions) < 2:
        raise InsufficientNonzeroTerms(
            f"gap rule selected only {len(positions)} nonzero positions in a "
            f"scan of {scan}")
    flipped = list(coeffs)
    q_terms = []
    for p in positions:
        q_terms.append((p, coeffs[p]))
        flipped[p] = -coeffs[p]
    for p, a in q_terms:
        assert flipped[p] + 2 * a == coeffs[p]
    ratios = [frac_str(Fraction(positions[j], positions[j - 1]))
              for j in range(1, len(positions))]
    evidence = {
        "original": [frac_str(c) for c in coeffs],
        "positions": positions,
        "flipped_values": [frac_str(flipped[p]) for p in positions],
        "identity": "P1 = P - 2Q checked exactly on the scan",
        "position_ratios": ratios,
        "outcome": "constructed",
    }
    cert = Certificate(SIGNFLIP_CONSTRUCTION, scan, evidence)
    return flipped, q_terms, cert


def _signflip_from_payload(cert: Certificate) -> Callable[[], Certificate]:
    original = [parse_frac(c) for c in _get(cert.evidence, "original", list)]
    return lambda: signflip_construct(original)[2]


# ---------------------------------------------------------------------------
# Substitution residuals
# ---------------------------------------------------------------------------

def substitution_certificate(F, phi: FormalSeries, horizon=None,
                             threshold_report=None) -> Certificate:
    """FormalSatisfaction / FormalRefutation evidence for one substitution."""
    residual = substitute(F, phi, horizon)
    evidence = {
        "check": "substitute",
        "series": series_to_obj(phi),
        "equation": pretty(F),
        "horizon": None if residual.horizon is None else exponent_to_obj(residual.horizon),
        "residual": "zero" if residual.is_zero else "nonzero",
    }
    if not residual.is_zero:
        e, p = residual.leading
        evidence["leading"] = {"exponent": exponent_to_obj(e), "coeff": str(p.constant())}
    if threshold_report is not None:
        evidence["threshold_report"] = threshold_report_obj(threshold_report)
    kind = FORMAL_SATISFACTION if residual.is_zero else FORMAL_REFUTATION
    return Certificate(kind, len(phi.terms), evidence, basis_to_obj(phi.basis))


def threshold_report_obj(report) -> dict:
    """Exact JSON form of a forcing-threshold report."""
    return {
        "stability_exponent": exponent_to_obj(report.stability_exponent),
        "stability_prefix": report.stability_prefix,
        "min_partial_exponent": exponent_to_obj(report.min_partial_exponent),
        "root_bound": frac_str(report.root_bound),
        "total_degree": report.total_degree,
        "first_exponent": exponent_to_obj(report.first_exponent),
        "threshold": report.threshold,
        "verified_indices": list(report.verified_indices),
        "horizon": None if report.horizon is None else exponent_to_obj(report.horizon),
    }


# ---------------------------------------------------------------------------
# Standalone re-verification: rebuild from the payload, then compare
# ---------------------------------------------------------------------------

def _equation_payload(ev: dict):
    phi = obj_to_series(_get(ev, "series", dict))
    horizon = _get(ev, "horizon", (dict, type(None)))
    return (parse_diffpoly(_get(ev, "equation", str), phi.basis), phi,
            None if horizon is None else obj_to_exponent(horizon))


def _substitution_from_payload(cert: Certificate) -> Callable[[], Certificate]:
    F, phi, horizon = _equation_payload(cert.evidence)
    if "threshold_report" not in cert.evidence:
        return partial(substitution_certificate, F, phi, horizon)
    return lambda: substitution_certificate(F, phi, horizon,
                                            forcing_threshold(F, phi, horizon))


def _hilbert_from_payload(cert: Certificate) -> Callable[[], Certificate]:
    from .transforms import verify_hilbert_zeta
    ev = cert.evidence
    return partial(verify_hilbert_zeta, _get(ev, "n", int), _get(ev, "max_shift", int),
                   _get(ev, "max_weight_ops", int),
                   ds_max=_get(ev, "max_s_derivatives", int),
                   precision=_get(ev, "precision_bits", int))


def _rescale_from_payload(cert: Certificate) -> Callable[[], Certificate]:
    from .transforms import verify_rescale_invariance
    F, phi, horizon = _equation_payload(cert.evidence)
    scalars = [parse_frac(c) for c in _get(cert.evidence, "scalars", list)]
    return lambda: verify_rescale_invariance(
        F, phi, integer_basis([e for e, _ in phi.terms], phi.basis), scalars, horizon)


# payload readers: each returns the rebuild as a zero-argument call
_FROM_PAYLOAD = {
    FINITE_BASIS_REFUTATION: _finite_basis_from_payload,
    GAP_CRITERION: _gap_from_payload,
    COEFFICIENT_FIELD: _coefficient_field_from_payload,
    BIVARIATE_CRITERION: _bivariate_from_payload,
    SIGNFLIP_CONSTRUCTION: _signflip_from_payload,
}
_FORMAL_FROM_PAYLOAD = {
    "substitute": _substitution_from_payload,
    "hilbert": _hilbert_from_payload,
    "rescale": _rescale_from_payload,
}
_HEADER = ("kind", "scanned", "basis", "verdict_scope")


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    mismatches: tuple[str, ...] = ()
    note: Optional[str] = None


def recheck(cert: Certificate) -> VerifyResult:
    """Rebuild the certificate from its payload with the builder that made
    it, then compare the header (kind, scanned, basis, verdict_scope) and
    every evidence key; a different ``tool_version`` only yields a note.

    A builder failing during the rebuild is a mismatch.  A malformed payload
    (missing key, wrong type, evidence not fitting its kind) raises
    :class:`SchemaError`.
    """
    if cert.kind in (FORMAL_SATISFACTION, FORMAL_REFUTATION):
        reader = _FORMAL_FROM_PAYLOAD.get(_get(cert.evidence, "check", str))
    else:
        reader = _FROM_PAYLOAD.get(cert.kind)
    if reader is None:
        raise SchemaError(f"no {cert.kind} certificate has this evidence block")
    try:
        rebuild = reader(cert)
    except (KeyError, TypeError, ValueError, DforgeError) as exc:
        raise SchemaError(f"unreadable {cert.kind} payload: {exc}") from None
    note = None if cert.tool_version == TOOL_VERSION else (
        f"certificate written by {cert.tool_version!r}, verified by {TOOL_VERSION!r}")
    try:
        fresh = rebuild()
    except (DforgeError, ValueError) as exc:
        return VerifyResult(False, (f"rebuild failed: {exc}",), note)
    if fresh.kind == cert.kind and fresh.evidence.keys() != cert.evidence.keys():
        raise SchemaError(
            f"{cert.kind} evidence: missing keys "
            f"{sorted(fresh.evidence.keys() - cert.evidence.keys())}, unexpected keys "
            f"{sorted(cert.evidence.keys() - fresh.evidence.keys())}")
    problems = (_diff({f: getattr(fresh, f) for f in _HEADER},
                      {f: getattr(cert, f) for f in _HEADER})
                + _diff(fresh.evidence, cert.evidence))
    return VerifyResult(not problems, problems, note)


def _diff(rebuilt: dict, claimed: dict) -> tuple[str, ...]:
    return tuple(f"{key}: recomputed {rebuilt.get(key)!r} != claimed {claimed.get(key)!r}"
                 for key in sorted(rebuilt.keys() | claimed.keys())
                 if rebuilt.get(key) != claimed.get(key))
