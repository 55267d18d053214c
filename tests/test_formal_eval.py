"""Substitution residuals, partial leading terms, root bounds, thresholds."""

import random
from fractions import Fraction

import mpmath
import pytest

from conftest import PREC, exact_exponential, geometric_series, rand_fraction
from oracles import exp_poly_value
from dforge.diffpoly import DiffIndeterminate, DiffPolynomial, partial_wrt
from dforge import formal_eval
from dforge.errors import (
    HorizonTooShort,
    PartialVanishes,
    PrecisionTieWarning,
    VerificationFailed,
)
from dforge.formal_eval import (
    ExpPolynomial,
    certify_root_bound,
    exp_poly_root_bound,
    forcing_threshold,
    initial_terms_of_partials,
    substitute,
)
from dforge.grammar import parse_diffpoly
from dforge.lattice import express, integer_basis, log_basis_for_indices
from dforge.numeric import workprec
from dforge.series import (
    Coefficient,
    Exponent,
    SymbolBasis,
    XPoly,
    constant_series,
    differentiate_s,
    make_series,
    series_add,
    series_mul,
    shift_s,
    zero_series,
)


class TestSubstitute:
    def test_geometric_satisfies_its_equation(self, lam_basis):
        phi = geometric_series(lam_basis, 25)
        F = parse_diffpoly("f' + lam*f + lam*f^2", lam_basis)
        res = substitute(F, phi)
        assert res.is_zero
        assert res.horizon == Exponent.of("lam") * 25

    def test_exact_prefix_leading_beyond(self, lam_basis):
        # treat the prefix as an exact finite sum: the first surviving term
        # of f' + lam f + lam f^2 sits at (N+1)*lam with coefficient N*lam
        N = 8
        lam = Exponent.of("lam")
        from dforge.series import FormalSeries, XPoly
        phi = FormalSeries(lam_basis, tuple(
            (lam * n, XPoly.from_coefficient(Coefficient.one()))
            for n in range(1, N + 1)), None)
        F = parse_diffpoly("f' + lam*f + lam*f^2", lam_basis)
        res = substitute(F, phi)
        e, p = res.leading
        assert e == lam * (N + 1)
        assert p.constant() == Coefficient.from_symbol("lam").scale(N)

    def test_zeta_prefix_derivative_leading(self):
        basis, vecs = log_basis_for_indices(range(1, 7), PREC)
        phi = make_series([(vecs[n], 1) for n in range(1, 7)], basis, vecs[6])
        res = substitute(parse_diffpoly("f'"), phi)
        e, p = res.leading
        assert e == vecs[2]
        assert p.constant() == -Coefficient.from_symbol("L2")

    def test_zero_polynomial_always_zero(self, lam_basis):
        phi = geometric_series(lam_basis, 5)
        res = substitute(DiffPolynomial.zero(), phi, Exponent.of("lam") * 5)
        assert res.is_zero

    def test_horizon_too_short_reports_max_safe(self, lam_basis):
        phi = geometric_series(lam_basis, 5)
        F = parse_diffpoly("f' + lam*f + lam*f^2", lam_basis)
        with pytest.raises(HorizonTooShort) as err:
            substitute(F, phi, Exponent.of("lam") * 7)
        assert err.value.max_safe == Exponent.of("lam") * 5
        assert substitute(F, phi).horizon == Exponent.of("lam") * 5

    def test_matches_plain_product_oracle(self, lam_basis):
        rng = random.Random(909)
        lam = Exponent.of("lam")
        for _ in range(12):
            phi = make_series([(lam * n, rand_fraction(rng) or 1) for n in range(1, 8)],
                              lam_basis, lam * 8)
            F = _random_poly(rng)
            assert substitute(F, phi).series == _substitute_oracle(F, phi)

    def test_linearity(self, lam_basis):
        rng = random.Random(6021)
        phi = geometric_series(lam_basis, 6)
        for _ in range(10):
            F = _random_shiftfree_poly(rng, lam_basis)
            G = _random_shiftfree_poly(rng, lam_basis)
            bound = Exponent.of("lam") * 3
            lhs = substitute(F + G, phi, bound).series
            rhs = series_add(substitute(F, phi, bound).series,
                             substitute(G, phi, bound).series)
            assert lhs == rhs


class TestTaylorSplit:
    def test_split_consistency(self, lam_basis):
        # residual(F, A+R) minus [residual(F, A) + sum_z residual(dF/dz, A)*R_z]
        # has all exponents >= 2*lambda_i - (n-2)*|lambda_0|
        rng = random.Random(314159)
        lam = Exponent.of("lam")
        for _ in range(8):
            F = _random_shiftfree_poly(rng, lam_basis, max_order=1, max_terms=3)
            n = F.total_degree
            if n < 2:
                continue
            phi = geometric_series(lam_basis, 6)
            for i in (2, 3):
                head_terms = phi.terms[:i]
                tail_terms = phi.terms[i:]
                from dforge.series import FormalSeries
                A = FormalSeries(lam_basis, head_terms, phi.truncation)
                R = FormalSeries(lam_basis, tail_terms, phi.truncation)
                lam_i = tail_terms[0][0]
                full = substitute(F, phi).series
                base = substitute(F, A).series
                linear = None
                for z in F.indeterminates():
                    Rz = shift_s(differentiate_s(R, z.order), z.shift)
                    part = series_mul(substitute(partial_wrt(F, z), A).series, Rz)
                    linear = part if linear is None else series_add(linear, part)
                approx = base if linear is None else series_add(base, linear)
                from dforge.series import series_sub
                diff = series_sub(full, approx)
                # lambda_0 > 0 here, so the bound is an exact exponent
                bound_exp = lam_i * 2 - phi.terms[0][0] * (n - 2)
                for e, _ in diff.terms:
                    assert lam_basis.compare(e, bound_exp) >= 0


class TestInitialTerms:
    def test_parabola_partials(self, unit_basis):
        phi = make_series([(Exponent.constant(1), 1), (Exponent.constant(2), 1)],
                          unit_basis, Exponent.constant(2))
        F = parse_diffpoly("f'^2 - 4*f")
        info = initial_terms_of_partials(F, phi)
        table = {ind: (b, lam) for ind, b, lam in info.entries}
        b_f, lam_f = table[DiffIndeterminate.make(0)]
        assert b_f.as_fraction() == -4 and lam_f == Exponent.zero()
        b_f1, lam_f1 = table[DiffIndeterminate.make(1)]
        assert b_f1.as_fraction() == -2 and lam_f1 == Exponent.constant(1)
        assert info.min_exponent == Exponent.zero()
        assert info.argmin == (DiffIndeterminate.make(0),)

    def test_constant_partial(self, unit_basis):
        phi = exact_exponential(unit_basis, Exponent.constant(1))
        info = initial_terms_of_partials(parse_diffpoly("f"), phi)
        ((ind, b, lam),) = info.entries
        assert b.as_fraction() == 1 and lam == Exponent.zero()

    def test_shifted_partial_carries_multiplier(self, unit_basis):
        phi = exact_exponential(unit_basis, Exponent.constant(1))
        F = parse_diffpoly("f*f(s+1)")
        info = initial_terms_of_partials(F, phi)
        b, lam = {ind: (b, lam) for ind, b, lam in info.entries}[DiffIndeterminate.make(0)]
        assert b == Coefficient.damping(Exponent.constant(1))
        assert lam == Exponent.constant(1)

    def test_partial_vanishes(self, unit_basis):
        phi = exact_exponential(unit_basis, Exponent.constant(1))
        F = parse_diffpoly("f^2 + 2*f*f'")  # dF/df = 2f + 2f' dies on e^-s
        with pytest.raises(PartialVanishes):
            initial_terms_of_partials(F, phi)


class TestRootBound:
    def test_quadratic(self, unit_basis):
        L = ExpPolynomial.make([(2, Fraction(0), 1), (0, Fraction(0), -4)], unit_basis)
        rb = exp_poly_root_bound(L)
        assert rb.bound >= 2
        assert certify_root_bound(L, rb.bound)
        _assert_sign_constant(L, rb.bound, 10 ** 6)

    def test_ratio_sum_once_per_tried_bound(self, unit_basis, monkeypatch):
        # l^2 - 4: the ratio sum 4/B^2 first meets 1/2 at B = 4; the sum
        # accepted there is the one the bound prints, not summed again
        calls = []
        ratio_sum = formal_eval._ratio_sum
        monkeypatch.setattr(formal_eval, "_ratio_sum",
                            lambda *args: calls.append(args[-1]) or ratio_sum(*args))
        L = ExpPolynomial.make([(2, Fraction(0), 1), (0, Fraction(0), -4)], unit_basis)
        rb = exp_poly_root_bound(L)
        assert calls == [1, 2, 4]
        assert (rb.bound, rb.ratio_sum_at_bound) == (4, "0.25")

    def test_exponential_dominates_linear(self, unit_basis):
        # e^l - l has no real roots at all: minimum value 1 at l = 0
        L = ExpPolynomial.make([(0, Fraction(1), 1), (1, Fraction(0), -1)], unit_basis)
        rb = exp_poly_root_bound(L)
        assert certify_root_bound(L, rb.bound)
        with workprec(PREC):
            for t in range(-50, 51):
                assert exp_poly_value(L, Fraction(t, 5)) > 0

    def test_constant(self, unit_basis):
        L = ExpPolynomial.make([(0, Fraction(0), 7)], unit_basis)
        assert exp_poly_root_bound(L).bound == 0

    def test_randomized_soundness(self, unit_basis):
        rng = random.Random(160218)
        for _ in range(25):
            terms = []
            for _k in range(rng.randint(1, 4)):
                t = rng.randint(0, 3)
                k = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                c = rand_fraction(rng)
                if c:
                    terms.append((t, k, c))
            L = ExpPolynomial.make(terms, unit_basis)
            if L.is_zero:
                continue
            rb = exp_poly_root_bound(L)
            assert certify_root_bound(L, rb.bound)
            _assert_sign_constant(L, rb.bound, 1000)


def _assert_sign_constant(L, bound, span, points=1000):
    with workprec(PREC):
        b = mpmath.mpf(bound.numerator) / bound.denominator
        sign = None
        for j in range(1, points + 1):
            v = exp_poly_value(L, b + mpmath.mpf(span) * j / points)
            assert v != 0
            s = 1 if v > 0 else -1
            if sign is None:
                sign = s
            assert s == sign


class TestForcingThreshold:
    def test_geometric_pipeline(self, lam_basis):
        phi = geometric_series(lam_basis, 12)
        F = parse_diffpoly("f' + lam*f + lam*f^2", lam_basis)
        report = forcing_threshold(F, phi)
        assert report.total_degree == 2
        assert report.first_exponent == Exponent.of("lam")
        assert report.min_partial_exponent == Exponent.zero()
        # every exponent above the threshold is i*lam, an integer multiple
        assert report.verified_indices
        with workprec(PREC):
            thr = mpmath.mpf(report.threshold)
            for i, (e, _) in enumerate(phi.terms):
                above = lam_basis.exponent_value(e) > thr
                assert (i in report.verified_indices) == above

    def test_single_exponential_empty_verification(self, lam_basis):
        phi = make_series([(Exponent.of("lam"), 1)], lam_basis, Exponent.of("lam"))
        F = parse_diffpoly("f' + lam*f", lam_basis)
        report = forcing_threshold(F, phi)
        assert report.verified_indices == ()

    def test_two_symbol_family(self, log_basis):
        # sum of two exponentials satisfying the product of first-order laws
        e2, e3 = Exponent.of("L2"), Exponent.of("L3")
        from dforge.series import FormalSeries, XPoly
        phi = FormalSeries(log_basis, (
            (e2, XPoly.from_coefficient(Coefficient.one())),
            (e3, XPoly.from_coefficient(Coefficient.one()))), None)
        F = parse_diffpoly("f'' + L2*f' + L3*f' + L2*L3*f", log_basis)
        assert substitute(F, phi).is_zero
        report = forcing_threshold(F, phi)
        assert report.total_degree == 1

    def test_requires_formal_satisfaction(self, lam_basis):
        phi = geometric_series(lam_basis, 6)
        with pytest.raises(ValueError):
            forcing_threshold(parse_diffpoly("f'"), phi)

    def test_truncation_stability(self, lam_basis):
        # substituting any prefix at least as long as the stability prefix
        # reproduces every recorded leading term
        phi = geometric_series(lam_basis, 12)
        F = parse_diffpoly("f' + lam*f + lam*f^2", lam_basis)
        report = forcing_threshold(F, phi)
        reference = {ind: (b, lam) for ind, b, lam in report.partials.entries}
        from dforge.series import prefix
        for m in range(report.stability_prefix, len(phi.terms) + 1):
            sub = prefix(phi, m)
            for ind, (b, lam) in reference.items():
                res = substitute(partial_wrt(F, ind), sub)
                e, p = res.leading
                assert (e, p.constant()) == (lam, b)


def _prefix_oracle(exponents, checked, basis):
    """The per-index construction: a fresh lattice of ``exponents[:i]``."""
    verified = []
    for i, (e, check) in enumerate(zip(exponents, checked)):
        if check:
            if express(e, integer_basis(exponents[:i], basis)) is None:
                raise VerificationFailed(i)
            verified.append(i)
    return verified


def _outcome(fn, *args):
    try:
        return ("verified", fn(*args))
    except VerificationFailed as exc:
        return ("failed", exc.index)


class TestIncrementalLatticeCheck:
    """One lattice grown with the index against a fresh lattice per index."""

    def test_matches_prefix_oracle_on_random_families(self):
        basis = SymbolBasis.from_pairs([("a", "1.1"), ("b", "2.3")], precision=PREC)
        rng = random.Random(20261018)
        seen = set()
        # 3a - b - 1 = 0: a lattice generator within 2^-P of zero warns
        with pytest.warns(PrecisionTieWarning, match=r"\(-3\*a \+ b \+ 1\) vs \(0\)"):
            for _ in range(300):
                exps = []
                for _ in range(rng.randint(0, 9)):
                    if exps and rng.random() < 0.6:
                        # an integer combination of earlier exponents
                        e = Exponent.zero()
                        for g in rng.sample(exps, min(len(exps), 2)):
                            e = e + g * rng.randint(-3, 3)
                    else:
                        e = Exponent.make({"a": rand_fraction(rng, -3, 3, 3),
                                           "b": rand_fraction(rng, -3, 3, 2)},
                                          rand_fraction(rng, -2, 2, 2))
                    exps.append(e)
                checked = [rng.random() < 0.5 for _ in exps]
                got = _outcome(formal_eval._verify_in_earlier_lattice, exps, checked, basis)
                assert got == _outcome(_prefix_oracle, exps, checked, basis)
                seen.add(got[0])
        assert seen == {"verified", "failed"}

    def test_forcing_threshold_matches_prefix_oracle(self, monkeypatch):
        rng = random.Random(4)
        reports = []
        for _ in range(12):
            basis = SymbolBasis.from_pairs(
                [("lam", str(Fraction(rng.randint(2, 19), 10)))], precision=PREC)
            lam = Exponent.of("lam")
            n = rng.randint(6, 16)
            a, r = rand_fraction(rng, 1, 3, 2), rand_fraction(rng, -3, 3, 2) or Fraction(1)
            phi = make_series([(lam * k, a * r ** (k - 1)) for k in range(1, n + 1)],
                              basis, lam * n)
            c = r / a
            F = parse_diffpoly(f"f' + lam*f {'+' if c > 0 else '-'} {abs(c)}*lam*f^2", basis)
            horizon = rng.choice((None, lam * rng.randint(2, n)))
            reports.append((F, phi, horizon, forcing_threshold(F, phi, horizon)))
        monkeypatch.setattr(formal_eval, "_verify_in_earlier_lattice", _prefix_oracle)
        assert any(report.verified_indices for *_, report in reports)
        for F, phi, horizon, report in reports:
            assert forcing_threshold(F, phi, horizon) == report


def _random_shiftfree_poly(rng, basis, max_order=2, max_terms=3):
    d = {}
    for _ in range(rng.randint(1, max_terms)):
        powers = {}
        for _k in range(rng.randint(1, 2)):
            ind = DiffIndeterminate.make(rng.randint(0, max_order))
            powers[ind] = powers.get(ind, 0) + 1
        mono = (0, tuple(sorted(powers.items())))
        c = Coefficient.from_fraction(rand_fraction(rng))
        if rng.random() < 0.5:
            c = c * Coefficient.from_symbol("lam" if basis.has_symbol("lam") else "L2")
        if not c.is_zero:
            d[mono] = d.get(mono, Coefficient.zero()) + c
    F = DiffPolynomial.collect(d.items())
    return F if not F.is_zero else DiffPolynomial.from_indeterminate(
        DiffIndeterminate.make(0))


def _random_poly(rng):
    """Terms with shifts, x-degree 0..2, repeated factors and, at times, a
    constant term."""
    d = {}
    for _ in range(rng.randint(1, 4)):
        powers = {}
        for _k in range(rng.randint(0, 3)):
            ind = DiffIndeterminate.make(rng.randint(0, 2), rng.choice((0, 0, 1, Fraction(1, 2))))
            powers[ind] = powers.get(ind, 0) + rng.randint(1, 2)
        mono = (rng.randint(0, 2), tuple(sorted(powers.items())))
        c = Coefficient.from_fraction(rand_fraction(rng))
        if rng.random() < 0.5:
            c = c * Coefficient.from_symbol("lam")
        d[mono] = d.get(mono, Coefficient.zero()) + c
    return DiffPolynomial.collect(d.items())


def _substitute_oracle(F, phi):
    """Each monomial multiplied out factor by factor, with no memo."""
    total = zero_series(phi.basis)
    for (xdeg, powers), c in F.terms:
        part = constant_series(phi.basis, 1)
        for ind, k in powers:
            for _ in range(k):
                part = series_mul(part, shift_s(differentiate_s(phi, ind.order), ind.shift))
        part = series_mul(part, constant_series(phi.basis, XPoly.monomial(xdeg, c)))
        total = series_add(total, part)
    return total
