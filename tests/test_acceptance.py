"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is exact unless stated otherwise;
runtime budgets are asserted where the criterion fixes one.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from conftest import PREC, exact_exponential, geometric_series, not_found_digest
from oracles import (
    determinant_leibniz,
    evaluate_on_xpolynomial,
    exp_poly_value,
    substitute_power_series,
)
from dforge.diffpoly import (
    DiffIndeterminate,
    DiffPolynomial,
    eliminate_x,
    sylvester_matrix,
    sylvester_resultant,
    total_derivative_x,
)
from dforge.formal_eval import (
    ExpPolynomial,
    certify_root_bound,
    exp_poly_root_bound,
    forcing_threshold,
    substitute,
)
from dforge.grammar import parse_diffpoly, pretty
from dforge.lattice import (
    express,
    integer_basis,
    log_basis_for_indices,
    reconstruct,
)
from dforge.linalg import rational_rank
from dforge.numeric import workprec
from dforge.obstruction import finite_basis_certificate, recheck
from dforge.series import (
    Coefficient,
    Exponent,
    FormalSeries,
    SymbolBasis,
    XPoly,
    make_series,
)
from dforge.transforms import (
    ode_to_pde,
    verify_hilbert_zeta,
    verify_rescale_invariance,
)
from dforge.wronskian import NotFoundWithinW, derive_ade

#: certificates emitted while the suite runs; criterion 10 re-verifies them
EMITTED = []


def _report(number, description, started, budget=None):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number:>2}: PASS  {description}  ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


@pytest.fixture(scope="module")
def lam_basis():
    return SymbolBasis.from_pairs([("lam", "0.7")], precision=PREC)


def test_01_hilbert_functional_equation():
    started = time.monotonic()
    for n in (2, 5, 17, 50):
        cert = verify_hilbert_zeta(n, 3, 3)
        assert cert.evidence["residuals_all_zero"] is True
        EMITTED.append(cert)
    _report(1, "functional equation exact on prefixes up to N=50, mu,nu <= 3",
            started, budget=10)


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        xdeg = rng.randint(0, 3)
        powers = {}
        for _k in range(rng.randint(0, 2)):
            ind = DiffIndeterminate.make(rng.randint(0, 2))
            powers[ind] = powers.get(ind, 0) + 1
        if sum(powers.values()) > 3:
            continue
        mono = (xdeg, tuple(sorted(powers.items())))
        c = Coefficient.from_fraction(rng.randint(-3, 3))
        terms[mono] = terms.get(mono, Coefficient.zero()) + c
    return DiffPolynomial.collect(terms.items())


def test_02_elimination_soundness():
    started = time.monotonic()
    F = parse_diffpoly("f - x^2")
    R = eliminate_x(F)
    target = parse_diffpoly("f'^2 - 4*f")
    assert R == target or R == -target
    phi = XPoly.monomial(2, 1)
    assert evaluate_on_xpolynomial(F, phi).is_zero
    assert evaluate_on_xpolynomial(R, phi).is_zero
    rng = random.Random(20260811)
    checked = 0
    while checked < 100:
        A = _random_poly(rng)
        if A.is_zero or A.x_degree == 0:
            continue
        B = total_derivative_x(A)
        if B.is_zero:
            continue
        fast = sylvester_resultant(A, B)
        oracle = determinant_leibniz(sylvester_matrix(A, B))
        assert fast == oracle
        checked += 1
    _report(2, "x-elimination exact; 100 resultants match the Leibniz oracle",
            started, budget=30)


def test_03_threshold_pipeline(lam_basis):
    started = time.monotonic()
    phi = geometric_series(lam_basis, 40)
    F = parse_diffpoly("f' + lam*f + lam*f^2", lam_basis)
    report = forcing_threshold(F, phi)
    assert report.total_degree == 2
    with workprec(PREC):
        thr = mpmath.mpf(report.threshold)
        above = [i for i, (e, _) in enumerate(phi.terms)
                 if lam_basis.exponent_value(e) > thr]
    assert above and tuple(above) == report.verified_indices
    _report(3, f"threshold {report.threshold}; all {len(above)} exponents above "
               "it verified as integer combinations", started, budget=20)


def test_04_root_bound_soundness():
    started = time.monotonic()
    basis = SymbolBasis.unit(PREC)
    rng = random.Random(424243)
    done = 0
    while done < 50:
        terms = []
        for _ in range(rng.randint(1, 4)):
            t = rng.randint(0, 3)
            k = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            if c:
                terms.append((t, k, c))
        L = ExpPolynomial.make(terms, basis)
        if L.is_zero:
            continue
        rb = exp_poly_root_bound(L)
        assert certify_root_bound(L, rb.bound)
        with workprec(PREC):
            b = mpmath.mpf(rb.bound.numerator) / rb.bound.denominator
            sign = None
            for j in range(1, 1001):
                v = exp_poly_value(L, b + j)
                assert v != 0
                s = 1 if v > 0 else -1
                sign = sign or s
                assert s == sign
        done += 1
    _report(4, "50 certified bounds; sign constant on 1000-point grids",
            started, budget=20)


def test_05_lattice_correctness():
    started = time.monotonic()
    rng = random.Random(55051)
    basis = SymbolBasis.from_pairs(
        [("a", "1.1"), ("b", "2.3"), ("c", "3.7"), ("d", "5.1")], precision=PREC)
    names = basis.symbols
    for _ in range(1000):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        exps = [Exponent.make({names[j]: rows[i][j] for j in range(ncols)})
                for i in range(nrows)]
        B = integer_basis(exps, basis)
        assert B.rank == rational_rank([[Fraction(v) for v in r] for r in rows])
        for e, coords in zip(exps, B.change_of_basis):
            assert reconstruct(B, coords) == e
            assert express(e, B) == coords
    # exhaustive small-combination membership on a 3x3 subsample
    for _ in range(40):
        nrows, ncols = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        exps = [Exponent.make({names[j]: rows[i][j] for j in range(ncols)})
                for i in range(nrows)]
        B = integer_basis(exps, basis)
        for g in B.generators:
            target = [g.coord(names[j]) for j in range(ncols)]
            found = False
            for bound in (9, 27, 81):
                for combo in itertools.product(range(-bound, bound + 1), repeat=nrows):
                    if all(sum(c * rows[i][j] for i, c in enumerate(combo)) == target[j]
                           for j in range(ncols)):
                        found = True
                        break
                if found:
                    break
            assert found, (rows, target)
    _report(5, "1000 matrices match the rank oracle; reconstruction exact; "
               "generators reachable by small combinations", started, budget=30)


def test_06_zeta_obstruction_evidence():
    started = time.monotonic()
    basis, vecs = log_basis_for_indices(range(1, 101), PREC)
    stream = [vecs[n] for n in range(1, 101)]
    cert = finite_basis_certificate(stream, 10, basis)
    assert cert.evidence["final_rank"] == 25  # pi(100)
    assert cert.is_refutation
    EMITTED.append(cert)
    phi = make_series([(vecs[n], 1) for n in range(1, 101)], basis, vecs[100])
    result = derive_ade(phi, 4, horizon=vecs[6])
    assert isinstance(result, NotFoundWithinW)
    # every dependence candidate that reached the cross-check was refuted;
    # windows too thin to certify anything are reported, never guessed at
    assert result.subsets_searched == 2036
    # the three subset lists, recorded with a fresh minor table per determinant
    assert not_found_digest(result) == \
        "23113f7364fa06feab8b26da2aa477a2a7c1aeacdd418fc37e6a2baf9308b646"
    _report(6, "rank 25 refutation certificate; no equation of weight <= 4 "
               f"survives ({len(result.candidates_refuted)} refuted, "
               f"{len(result.skipped_underdetermined)} windows honestly skipped)",
            started)


def test_07_rescale_invariance(lam_basis, log_basis):
    started = time.monotonic()
    rng = random.Random(20260812)
    fixtures = []
    geom = geometric_series(lam_basis, 15)
    fixtures.append((parse_diffpoly("f' + lam*f + lam*f^2", lam_basis), geom))
    single = exact_exponential(SymbolBasis.unit(PREC), Exponent.constant(1))
    fixtures.append((parse_diffpoly("f + f'"), single))
    double = FormalSeries(log_basis, (
        (Exponent.of("L2"), XPoly.from_coefficient(Coefficient.one())),
        (Exponent.of("L3"), XPoly.from_coefficient(Coefficient.one()))), None)
    derived = derive_ade(double, 3)
    assert not isinstance(derived, NotFoundWithinW)
    fixtures.append((derived, double))
    for F, phi in fixtures:
        B = integer_basis([e for e, _ in phi.terms], phi.basis)
        for _ in range(10):
            scalars = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                       * rng.choice([1, -1]) for _ in range(B.rank)]
            cert = verify_rescale_invariance(F, phi, B, scalars)
            assert cert.evidence["rescaled_residual"] == "zero"
        EMITTED.append(cert)
    _report(7, "3 satisfaction fixtures x 10 random scalar tuples all invariant",
            started, budget=10)


def test_08_ode_to_pde_fixture(lam_basis):
    started = time.monotonic()
    F = parse_diffpoly("f' + lam*f + lam*f^2", lam_basis)
    result = ode_to_pde(F, 1, ["lam"])
    from dforge.transforms import PdePolynomial
    lam = Coefficient.from_symbol("lam")
    G = PdePolynomial.g_value(1)
    gx = ((((1,), 1),), (1,))
    expected = (G + G * G).scale(lam) + PdePolynomial(1, ((gx, -lam),))
    assert result.poly == expected or result.poly == -expected
    coeffs = [Fraction(0)] + [Fraction(1)] * 30
    residual = substitute_power_series(result, coeffs, 30)
    assert all(c.is_zero for c in residual)
    _report(8, "emitted x*G' = G + G^2; x/(1-x) satisfies it to order 30",
            started, budget=5)


def test_09_wronskian_recoveries(lam_basis):
    started = time.monotonic()
    single = exact_exponential(SymbolBasis.unit(PREC), Exponent.constant(1))
    F1 = derive_ade(single, 2)
    assert pretty(F1) == "f + f'"
    assert substitute(F1, single).is_zero
    geom = geometric_series(lam_basis, 20)
    F2 = derive_ade(geom, 3)
    assert F2 == parse_diffpoly("lam*f + lam*f^2 + f'", lam_basis)
    assert substitute(F2, geom).is_zero
    _report(9, "recovered f + f' and f' + lam*(f + f^2), both residual-zero",
            started, budget=10)


def test_10_certificate_round_trip(tmp_path):
    started = time.monotonic()
    assert EMITTED, "earlier criteria must have emitted certificates"
    for i, cert in enumerate(EMITTED):
        path = tmp_path / f"cert_{i}.json"
        cert.save(path)
        from dforge.obstruction import Certificate
        loaded = Certificate.load(path)
        assert loaded == cert
        result = recheck(loaded)
        assert result.ok, result.mismatches
    _report(10, f"{len(EMITTED)} certificates re-verified bit-exactly",
            started)
