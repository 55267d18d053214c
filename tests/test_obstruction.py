"""Certificates: finite-basis scans, gap criteria, coefficient fields,
bivariate diagnostics, sign flips, and standalone re-verification."""

import copy
import json
import math
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import PREC, geometric_series
from dforge import numeric
from dforge.cli import verify_certificate
from dforge.errors import InsufficientNonzeroTerms, SchemaError, UnknownFamily
from dforge.formal_eval import forcing_threshold
from dforge.grammar import parse_diffpoly
from dforge.lattice import integer_basis, log_basis_for_indices
from dforge.obstruction import (
    KINDS,
    Certificate,
    PrimeSquareRoot,
    RationalCoeff,
    RootOfUnity,
    UserAsserted,
    bivariate_certificate,
    coefficient_field_certificate,
    default_gap_rule,
    finite_basis_certificate,
    gap_certificate,
    recheck,
    signflip_construct,
    substitution_certificate,
)
from dforge.series import Exponent, SymbolBasis
from dforge.transforms import verify_hilbert_zeta, verify_rescale_invariance


def _unassumed(basis: SymbolBasis) -> SymbolBasis:
    """The same symbols and values, without assuming their independence."""
    return SymbolBasis.from_pairs(zip(basis.symbols, basis.values), basis.precision,
                                  independence_assumed=False)


class TestFiniteBasis:
    def test_zeta_100_rank_25(self):
        basis, vecs = log_basis_for_indices(range(1, 101), PREC)
        stream = [vecs[n] for n in range(1, 101)]
        cert = finite_basis_certificate(stream, 10, basis)
        assert cert.evidence["final_rank"] == 25  # primes up to 100
        assert cert.evidence["outcome"] == "rank_exceeded"
        assert cert.is_refutation
        assert recheck(cert).ok

    def test_smooth_indices_stabilize(self):
        indices = sorted({2 ** a * 3 ** b for a in range(5) for b in range(4)})[:20]
        basis, vecs = log_basis_for_indices(indices, PREC)
        cert = finite_basis_certificate([vecs[n] for n in indices], 10, basis)
        assert cert.evidence["final_rank"] == 2
        assert cert.evidence["outcome"] == "rank_stabilized"
        assert not cert.is_refutation

    def test_single_exponential(self, lam_basis):
        cert = finite_basis_certificate([Exponent.of("lam")], 10, lam_basis)
        assert cert.evidence["final_rank"] == 1

    def test_unassumed_independence_refutes_nothing(self):
        basis, vecs = log_basis_for_indices(range(1, 40), PREC)
        stream = [vecs[n] for n in range(1, 40)]
        assumed = finite_basis_certificate(stream, 4, basis)
        assert assumed.evidence["outcome"] == "rank_exceeded"
        unassumed = finite_basis_certificate(stream, 4, _unassumed(basis))
        assert unassumed.evidence["outcome"] == "rank_exceeded_unassumed"
        assert unassumed.evidence["exceeded_at"] == assumed.evidence["exceeded_at"]
        assert not unassumed.is_refutation
        assert recheck(unassumed).ok


class TestGap:
    def test_factorials_exceed_five(self, unit_basis):
        exps = [Exponent.constant(math.factorial(i)) for i in range(1, 9)]
        cert = gap_certificate(exps, Fraction(5), unit_basis)
        ratios = [Fraction(q) for q in cert.evidence["exact_ratios"]]
        exceed = cert.evidence["exceedances"]
        assert [ratios[i] for i in exceed] == [Fraction(6), Fraction(7), Fraction(8)]
        assert recheck(cert).ok

    def test_powers_of_two_never_exceed(self, unit_basis):
        exps = [Exponent.constant(2 ** i) for i in range(1, 12)]
        cert = gap_certificate(exps, Fraction(5), unit_basis)
        assert cert.evidence["exceedances"] == []

    def test_super_exponential_threshold_100(self, unit_basis):
        exps = [Exponent.constant(2 ** (i * i)) for i in range(1, 7)]
        cert = gap_certificate(exps, Fraction(100), unit_basis)
        # ratios 2^(2i-1) exceed 100 from i = 4 on
        exceed = cert.evidence["exceedances"]
        assert [Fraction(cert.evidence["exact_ratios"][i]) for i in exceed] == \
            [Fraction(128), Fraction(512), Fraction(2048)]


class TestCoefficientField:
    def test_roots_of_unity_unbounded(self):
        tags = [RootOfUnity(n) for n in range(1, 51)]
        cert = coefficient_field_certificate(tags, distinct_bound=8)
        assert cert.evidence["outcome"] == "refuted"
        assert cert.is_refutation
        assert recheck(cert).ok

    def test_rationals_no_obstruction(self):
        tags = [RationalCoeff(Fraction(1, n)) for n in range(1, 30)]
        cert = coefficient_field_certificate(tags)
        assert cert.evidence["outcome"] == "no_obstruction"
        assert not cert.is_refutation

    def test_prime_square_roots(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        cert = coefficient_field_certificate([PrimeSquareRoot(p) for p in primes],
                                             distinct_bound=9)
        assert cert.evidence["outcome"] == "refuted"
        # Galois-degree oracle: no product of distinct primes is a square,
        # so each new sqrt doubles the field degree (degree 2^k growth)
        for r in range(1, 4):
            for combo in combinations(primes, r):
                prod = math.prod(combo)
                assert math.isqrt(prod) ** 2 != prod

    def test_user_asserted(self):
        cert = coefficient_field_certificate([UserAsserted("period-like family")])
        assert cert.is_refutation

    def test_unknown_family_rejected(self):
        with pytest.raises(UnknownFamily):
            coefficient_field_certificate([object()])

    def test_non_prime_rejected(self):
        with pytest.raises(UnknownFamily):
            coefficient_field_certificate([PrimeSquareRoot(12)])


class TestBivariate:
    def test_zeta_xs_profile(self):
        # degrees m_i = i against exponents log i: ratios drift upward
        degrees = list(range(2, 400))
        values = [math.log(i) for i in range(2, 400)]
        cert = bivariate_certificate(degrees, values)
        assert cert.evidence["rational_accumulation"] is None
        tail = [float(r) for r in cert.evidence["log_ratios"][-20:]]
        assert tail == sorted(tail)  # increasing within the scan

    def test_square_degrees_accumulate_at_two(self):
        degrees = [i * i for i in range(2, 200)]
        values = list(range(2, 200))
        cert = bivariate_certificate(degrees, values)
        assert cert.evidence["rational_accumulation"] == "2"
        assert cert.evidence["criterion_met"] is False

    def test_exponential_degrees(self):
        degrees = [2 ** i for i in range(2, 60)]
        values = list(range(2, 60))
        cert = bivariate_certificate(degrees, values)
        assert cert.evidence["rational_accumulation"] is None
        assert cert.evidence["drift"] == "to_infinity"
        assert recheck(cert).ok

    def test_rank_condition_needs_assumed_independence(self):
        basis, vecs = log_basis_for_indices(range(2, 40), PREC)
        exponents = [vecs[n] for n in range(2, 40)]
        degrees = list(range(2, 40))
        assumed = bivariate_certificate(degrees, exponents, basis)
        assert assumed.evidence["condition_no_finite_basis_at_scan"] is True
        unassumed = bivariate_certificate(degrees, exponents, _unassumed(basis))
        assert unassumed.evidence["condition_no_finite_basis_at_scan"] is False
        assert unassumed.evidence["rank_history"] == assumed.evidence["rank_history"]
        assert recheck(unassumed).ok

    def test_float_inputs_recorded_exactly(self):
        values = [math.log(i) for i in range(2, 40)]
        cert = bivariate_certificate(list(range(2, 40)), values)
        assert cert.evidence["input_values"] == [repr(v) for v in values]
        assert recheck(cert).ok


class TestSignFlip:
    def test_all_ones(self):
        coeffs = [Fraction(1)] * 600
        p1, q, cert = signflip_construct(coeffs)
        assert cert.evidence["positions"] == [2, 16, 512]
        for pos, a in q:
            assert p1[pos] == -1 and coeffs[pos] == a
        # P1 = P - 2Q exactly
        rebuilt = list(p1)
        for pos, a in q:
            rebuilt[pos] += 2 * a
        assert rebuilt == coeffs
        assert recheck(cert).ok

    def test_rule_advances_over_zeros(self):
        coeffs = [Fraction(1)] * 600
        coeffs[2] = Fraction(0)
        p1, q, cert = signflip_construct(coeffs)
        assert cert.evidence["positions"] == [3, 16, 512]

    def test_exponential_series_coefficients(self):
        coeffs = [Fraction(1, math.factorial(min(n, 30))) for n in range(600)]
        p1, q, cert = signflip_construct(coeffs)
        assert cert.evidence["positions"] == [2, 16, 512]
        for pos, a in q:
            assert p1[pos] == -a

    def test_insufficient_terms(self):
        with pytest.raises(InsufficientNonzeroTerms):
            signflip_construct([Fraction(1)] * 10)

    def test_default_rule_values(self):
        assert [default_gap_rule(i) for i in (1, 2, 3)] == [2, 16, 512]


class TestSatisfactionConsistency:
    def test_satisfying_series_have_stable_rank(self, lam_basis, log_basis):
        # a series formally satisfying a nontrivial equation must show
        # stabilized lattice rank on the same scan
        from conftest import geometric_series
        from dforge.formal_eval import substitute
        from dforge.grammar import parse_diffpoly
        from dforge.series import FormalSeries, XPoly
        from dforge.series import Coefficient as C

        fixtures = []
        geom = geometric_series(lam_basis, 20)
        fixtures.append((parse_diffpoly("f' + lam*f + lam*f^2", lam_basis), geom, 1))
        double = FormalSeries(log_basis, (
            (Exponent.of("L2"), XPoly.from_coefficient(C.one())),
            (Exponent.of("L3"), XPoly.from_coefficient(C.one()))), None)
        eq = parse_diffpoly("f'' + L2*f' + L3*f' + L2*L3*f", log_basis)
        fixtures.append((eq, double, 2))
        for F, phi, expected_rank in fixtures:
            assert substitute(F, phi).is_zero
            cert = finite_basis_certificate([e for e, _ in phi.terms],
                                            rank_bound=5, basis=phi.basis)
            assert cert.evidence["outcome"] == "rank_stabilized"
            assert cert.evidence["final_rank"] == expected_rank


class TestCertificateIO:
    def test_json_round_trip(self, unit_basis, tmp_path):
        exps = [Exponent.constant(2 ** i) for i in range(1, 8)]
        cert = gap_certificate(exps, Fraction(3), unit_basis)
        path = tmp_path / "gap.cert.json"
        cert.save(path)
        loaded = Certificate.load(path)
        assert loaded == cert
        assert recheck(loaded).ok

    def test_tampered_rank_detected(self, tmp_path):
        basis, vecs = log_basis_for_indices(range(1, 20), PREC)
        cert = finite_basis_certificate([vecs[n] for n in range(1, 20)], 4, basis)
        obj = cert.to_obj()
        obj["evidence"]["final_rank"] = 3
        tampered = Certificate.from_obj(obj)
        result = recheck(tampered)
        assert not result.ok and any("final_rank" in m for m in result.mismatches)

    def test_version_note(self):
        cert = coefficient_field_certificate([RationalCoeff(Fraction(1))])
        obj = cert.to_obj()
        obj["tool_version"] = "dforge 0.0.9"
        result = recheck(Certificate.from_obj(obj))
        assert result.ok and "0.0.9" in result.note

    def test_bad_kind_rejected(self):
        with pytest.raises(SchemaError):
            Certificate.from_obj({"kind": "Nonsense", "scanned": 1, "evidence": {}})

    def test_deterministic_serialization(self, unit_basis):
        exps = [Exponent.constant(i) for i in range(1, 10)]
        a = gap_certificate(exps, Fraction(2), unit_basis).to_json()
        b = gap_certificate(exps, Fraction(2), unit_basis).to_json()
        assert a == b


# ---------------------------------------------------------------------------
# Tamper suite: one genuine certificate per kind and formal check
# ---------------------------------------------------------------------------

def _genuine():
    """name -> (certificate, keys left unedited).

    The unedited keys are builder inputs (the header ``basis`` included for
    the kinds that take a basis): an edit there describes another input,
    whose certificate may well be genuine.  CoefficientField's counts are
    inputs too, but any edit to them changes the header's ``scanned``, so
    they are edited like derived keys.
    """
    lam_basis = SymbolBasis.from_pairs([("lam", "0.7")], precision=PREC)
    unit = SymbolBasis.unit(PREC)
    geo = geometric_series(lam_basis, 15)
    F = parse_diffpoly("f' + lam*f + lam*f^2", lam_basis)
    horizon = Exponent.of("lam") * 12
    basis, vecs = log_basis_for_indices(range(1, 20), PREC)
    tags = [RootOfUnity(3), RootOfUnity(3), RootOfUnity(1),
            *map(RootOfUnity, range(5, 15)), PrimeSquareRoot(2), PrimeSquareRoot(2),
            PrimeSquareRoot(3), RationalCoeff(Fraction(1, 2))]
    equation = {"series", "equation", "horizon"}
    return {
        "finite_basis": (finite_basis_certificate(
            [vecs[n] for n in range(1, 20)], 4, basis),
            {"basis", "exponents", "rank_bound"}),
        "gap": (gap_certificate(
            [Exponent.constant(math.factorial(i)) for i in range(1, 9)], Fraction(5), unit),
            {"basis", "exponents", "ratio_threshold"}),
        "coefficient_field": (coefficient_field_certificate(tags, distinct_bound=8),
                              {"distinct_bound", "user_asserted"}),
        "coefficient_field_asserted": (coefficient_field_certificate(
            [UserAsserted("period-like family"), RationalCoeff(Fraction(1))]),
            {"distinct_bound", "user_asserted"}),
        # a non-default threshold: it must travel in the payload
        "bivariate_symbolic": (bivariate_certificate(
            list(range(2, 12)), [Exponent.constant(2 ** i) for i in range(2, 12)], unit,
            Fraction(101, 100)),
            {"basis", "degrees", "exponents", "ratio_threshold", "precision_bits"}),
        "bivariate_numeric": (bivariate_certificate(
            [2 ** i for i in range(2, 30)], [math.log(i) for i in range(2, 30)]),
            {"degrees", "input_values", "ratio_threshold", "precision_bits"}),
        "signflip": (signflip_construct([Fraction(1, n + 1) for n in range(600)])[2],
                     {"original"}),
        "substitute_satisfied": (substitution_certificate(
            F, geo, horizon, forcing_threshold(F, geo, horizon)), equation),
        "substitute_refuted": (substitution_certificate(
            parse_diffpoly("f' + lam*f", lam_basis), geo), equation),
        "hilbert": (verify_hilbert_zeta(6, 2, 2),
                    {"n", "max_shift", "max_weight_ops", "max_s_derivatives",
                     "precision_bits"}),
        "rescale": (verify_rescale_invariance(
            F, geo, integer_basis([e for e, _ in geo.terms], lam_basis), [Fraction(1, 2)]),
            equation | {"scalars"}),
    }


@pytest.fixture(scope="module")
def genuine():
    certs = _genuine()
    assert sorted(certs) == sorted(CASES)
    return certs


def _leaves(obj, path=()):
    if isinstance(obj, dict) and obj:
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list) and obj:
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def _edited(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if value is None:
        return 1
    if isinstance(value, str):
        try:
            return str(Fraction(value) + 1)
        except (ValueError, ZeroDivisionError):
            return value + " (edited)"
    return [0] if isinstance(value, list) else {"edited": 0}


def _rejected(obj) -> bool:
    try:
        return not recheck(Certificate.from_obj(obj)).ok
    except SchemaError:
        return True


def _tamper_paths(obj, unedited):
    for path in _leaves({k: v for k, v in obj.items() if k != "tool_version"}):
        if path[0] == "evidence" and len(path) > 1 and path[1] in unedited:
            continue
        if path[0] == "basis" and "basis" in unedited:
            continue
        yield path


CASES = [
    "finite_basis", "gap", "coefficient_field", "coefficient_field_asserted",
    "bivariate_symbolic", "bivariate_numeric", "signflip", "substitute_satisfied",
    "substitute_refuted", "hilbert", "rescale"]


class TestTamper:
    @pytest.mark.parametrize("name", CASES)
    def test_genuine_rechecks(self, genuine, name):
        cert, _ = genuine[name]
        result = recheck(Certificate.from_obj(cert.to_obj()))
        assert result.ok, result.mismatches

    @pytest.mark.parametrize("name", CASES)
    def test_every_edited_leaf_is_rejected(self, genuine, name):
        cert, unedited = genuine[name]
        base = cert.to_obj()
        accepted = []
        for path in _tamper_paths(base, unedited):
            obj = copy.deepcopy(base)
            node = obj
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = _edited(node[path[-1]])
            if not _rejected(obj):
                accepted.append(path)
        assert not accepted

    @pytest.mark.parametrize("name", CASES)
    def test_every_other_kind_is_rejected(self, genuine, name):
        cert, _ = genuine[name]
        for kind in sorted(KINDS - {cert.kind}):
            obj = cert.to_obj()
            obj["kind"] = kind
            assert _rejected(obj), kind

    @pytest.mark.parametrize("name", CASES)
    def test_every_missing_key_is_a_schema_error(self, genuine, name):
        cert, _ = genuine[name]
        for key in cert.evidence:
            obj = copy.deepcopy(cert.to_obj())
            del obj["evidence"][key]
            if key == "threshold_report":
                # optional: without it the payload is the genuine certificate
                # of the bare substitution
                assert recheck(Certificate.from_obj(obj)).ok
                continue
            with pytest.raises(SchemaError):
                recheck(Certificate.from_obj(obj))

    def test_wrong_types_are_schema_errors(self, genuine):
        cert, _ = genuine["finite_basis"]
        for key, value in (("rank_bound", "4"), ("rank_bound", True),
                           ("exponents", {}), ("exponents", [{"L2": 1}])):
            obj = cert.to_obj()
            obj["evidence"] = dict(obj["evidence"], **{key: value})
            with pytest.raises(SchemaError):
                recheck(Certificate.from_obj(obj))
        for key, value in (("scanned", "19"), ("scanned", 19.0), ("evidence", []),
                           ("basis", []), ("verdict_scope", None)):
            obj = dict(cert.to_obj(), **{key: value})
            with pytest.raises(SchemaError):
                Certificate.from_obj(obj)

    def test_rank_bound_below_one_is_rejected(self, genuine):
        # the evidence the builder would give for bound 0: exceeded at the
        # first rank step, a refutation if the bound were accepted
        cert, _ = genuine["finite_basis"]
        obj = cert.to_obj()
        ev = obj["evidence"]
        ev.update(rank_bound=0, exceeded_at=ev["rank_history"][0][0])
        assert ev["outcome"] == "rank_exceeded"
        result = recheck(Certificate.from_obj(obj))
        assert not result.ok and result.mismatches[0].startswith("rebuild failed")
        basis, vecs = log_basis_for_indices(range(1, 20), PREC)
        for bound in (0, -1):
            with pytest.raises(ValueError, match="positive"):
                finite_basis_certificate([vecs[n] for n in range(1, 20)], bound, basis)

    def test_failing_rebuild_is_a_mismatch(self, genuine):
        cert, _ = genuine["signflip"]
        obj = cert.to_obj()
        obj["evidence"]["original"] = ["1"] * 10
        result = recheck(Certificate.from_obj(obj))
        assert not result.ok and result.mismatches[0].startswith("rebuild failed")


class TestPrecisionCap:
    """A certificate's own precision is capped before any evaluation at it."""

    def test_bivariate_rejects_precision_outside_the_cap(self):
        for bits in (0, numeric.MAX_PRECISION + 1):
            with pytest.raises(ValueError, match="at most"):
                bivariate_certificate([2, 4, 8], ["1.5", "2.5", "3.5"], precision=bits)

    def test_bivariate_payload_above_the_cap_is_a_mismatch(self):
        cert = bivariate_certificate([2 ** i for i in range(2, 8)],
                                     [math.log(i) for i in range(2, 8)])
        obj = cert.to_obj()
        obj["evidence"]["precision_bits"] = numeric.MAX_PRECISION + 1
        result = recheck(Certificate.from_obj(obj))
        assert not result.ok and result.mismatches[0].startswith("rebuild failed")

    def test_hilbert_payload_above_the_cap_is_a_mismatch(self, tmp_path, monkeypatch):
        obj = verify_hilbert_zeta(6, 1, 1).to_obj()
        obj["evidence"]["precision_bits"] = 10 ** 7
        path = tmp_path / "hilbert.cert.json"
        path.write_text(json.dumps(obj))
        real = numeric.log_decimal_string

        def capped(n, bits):
            if bits > numeric.MAX_PRECISION:
                raise AssertionError(f"log({n}) evaluated at {bits} bits")
            return real(n, bits)

        monkeypatch.setattr(numeric, "log_decimal_string", capped)
        result = verify_certificate(path)
        assert not result.ok
        assert result.mismatches == (
            f"rebuild failed: precision must be positive and at most {numeric.MAX_PRECISION}",)
