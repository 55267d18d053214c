"""Series arithmetic: construction, products, derivatives, shifts, order."""

import itertools
import random
import warnings
from fractions import Fraction
from functools import cmp_to_key

import mpmath
import pytest

from conftest import PREC, convolve_oracle, rand_fraction
from dforge.diffpoly import DiffIndeterminate, DiffPolynomial
from dforge.errors import BadBasis, BadBound, BasisMismatch, PrecisionTieWarning
from dforge.numeric import tie_threshold, workprec
from dforge.series import (
    Coefficient,
    Exponent,
    SymbolBasis,
    XPoly,
    _sorted_terms,
    differentiate_s,
    leading_term,
    make_series,
    series_add,
    series_mul,
    shift_s,
    truncate,
    zero_series,
)
from dforge.transforms import PdePolynomial


class TestMakeSeries:
    def test_single_term(self, log_basis):
        e2 = Exponent.of("L2")
        s = make_series([(e2, 1)], log_basis, e2 * 10)
        assert s.terms == ((e2, XPoly.from_coefficient(Coefficient.one())),)

    def test_empty_spec_is_zero(self, log_basis):
        s = make_series([], log_basis, Exponent.of("L2"))
        assert s.is_zero and leading_term(s) is None

    def test_merge_cancellation(self, log_basis):
        e = Exponent.of("L2") * 2
        s = make_series([(e, 3), (e, -3)], log_basis, e * 2)
        assert s.is_zero

    def test_unknown_symbol_rejected(self, log_basis):
        with pytest.raises(BadBasis):
            make_series([(Exponent.of("L7"), 1)], log_basis, Exponent.of("L2"))

    def test_term_beyond_bound_rejected(self, log_basis):
        e = Exponent.of("L3")
        with pytest.raises(BadBound):
            make_series([(e, 1)], log_basis, Exponent.of("L2"))


class TestMul:
    def test_exponent_addition(self, log_basis):
        a = make_series([(Exponent.of("L2"), 1)], log_basis, Exponent.make({"L2": 10}))
        b = make_series([(Exponent.of("L3"), 1)], log_basis, Exponent.make({"L2": 10}))
        prod = series_mul(a, b)
        assert prod.exponents() == (Exponent.make({"L2": 1, "L3": 1}),)

    def test_binomial_square(self, unit_basis):
        one = Exponent.zero()
        s = make_series([(one, 1), (Exponent.constant(1), 1)], unit_basis,
                        Exponent.constant(10))
        sq = series_mul(s, s)
        coeffs = {e.const: p.constant().as_fraction() for e, p in sq.terms}
        assert coeffs == {0: 1, 1: 2, 2: 1}

    def test_zeta_prefix_square_against_convolution_oracle(self, log_basis):
        # leading coefficients of (sum_{n=1..4} n^-s)^2: 1, 2, 2, 3, ...
        vecs = {1: Exponent.zero(), 2: Exponent.of("L2"), 3: Exponent.of("L3"),
                4: Exponent.make({"L2": 2})}
        s = make_series([(vecs[n], 1) for n in (1, 2, 3, 4)], log_basis, vecs[4])
        sq = series_mul(s, s)
        expected = convolve_oracle(s, s)
        bound = sq.truncation
        for e, p in expected.items():
            if log_basis.compare(e, bound) <= 0:
                assert dict(sq.terms)[e] == p
        got = {e: p.constant().as_fraction() for e, p in sq.terms}
        assert got[Exponent.zero()] == 1
        assert got[vecs[2]] == 2
        assert got[vecs[3]] == 2
        assert got[vecs[4]] == 3  # 2*2 and 1*4 + 4*1

    def test_basis_mismatch(self, log_basis, unit_basis):
        a = zero_series(log_basis)
        b = zero_series(unit_basis)
        with pytest.raises(BasisMismatch):
            series_mul(a, b)

    def test_products_with_rational_basis_values(self):
        # distinct vectors can collide numerically on a rational-valued
        # basis; ordering falls back lexicographically, products stay exact
        basis = SymbolBasis.from_pairs([("a", "0.5"), ("b", "1.0")], precision=PREC)
        rng = random.Random(1618)
        bound = Exponent.make({"a": 40, "b": 40})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionTieWarning)
            for _ in range(30):
                def rand_series():
                    terms = [(Exponent.make({"a": rng.randint(0, 4),
                                             "b": rng.randint(0, 4)}),
                              rand_fraction(rng)) for _ in range(rng.randint(1, 6))]
                    return make_series(terms, basis, bound)
                x, y = rand_series(), rand_series()
                prod = series_mul(x, y)
                oracle = convolve_oracle(x, y)
                for e, p in prod.terms:
                    assert oracle[e] == p

    def test_random_products_match_oracle(self, log_basis):
        rng = random.Random(20260811)
        names = ("L2", "L3", "L5")
        for _ in range(40):
            def rand_series():
                terms = []
                for _k in range(rng.randint(1, 6)):
                    e = Exponent.make({n: rand_fraction(rng, 0, 3) for n in names})
                    terms.append((e, rand_fraction(rng)))
                bound = Exponent.make({n: 12 for n in names})
                return make_series(terms, log_basis, bound)
            a, b = rand_series(), rand_series()
            prod = series_mul(a, b)
            oracle = convolve_oracle(a, b)
            for e, p in prod.terms:
                assert oracle[e] == p
            for e, p in oracle.items():
                if prod.truncation is None or log_basis.compare(e, prod.truncation) <= 0:
                    assert dict(prod.terms).get(e) == p


class TestDifferentiate:
    def test_chain_rule_single(self, log_basis):
        e2 = Exponent.of("L2")
        s = make_series([(e2, 1)], log_basis, e2 * 10)
        d = differentiate_s(s)
        assert dict(d.terms)[e2].constant() == -Coefficient.from_symbol("L2")

    def test_order_zero_is_identity(self, log_basis):
        s = make_series([(Exponent.of("L3"), 5)], log_basis, Exponent.of("L3") * 2)
        assert differentiate_s(s, 0) is s

    def test_constant_term_killed(self, log_basis):
        vecs = {1: Exponent.zero(), 2: Exponent.of("L2"), 3: Exponent.of("L3")}
        s = make_series([(vecs[n], 1) for n in (1, 2, 3)], log_basis, vecs[3])
        d = differentiate_s(s)
        assert d.exponents() == (vecs[2], vecs[3])
        assert dict(d.terms)[vecs[2]].constant() == -Coefficient.from_symbol("L2")
        assert dict(d.terms)[vecs[3]].constant() == -Coefficient.from_symbol("L3")

    def test_commutes_with_shift(self, log_basis):
        rng = random.Random(7)
        for _ in range(20):
            e = Exponent.make({"L2": rand_fraction(rng, 0, 3),
                               "L3": rand_fraction(rng, 0, 3)})
            s = make_series([(e, rand_fraction(rng))], log_basis, e * 2)
            h = rand_fraction(rng)
            assert differentiate_s(shift_s(s, h)) == shift_s(differentiate_s(s), h)


class TestShift:
    def test_zero_shift_identity(self, log_basis):
        s = make_series([(Exponent.of("L2"), 1)], log_basis, Exponent.of("L2"))
        assert shift_s(s, 0) is s

    def test_shift_numeric_value_is_half(self, log_basis):
        e2 = Exponent.of("L2")
        s = make_series([(e2, 1)], log_basis, e2)
        shifted = shift_s(s, 1)
        c = dict(shifted.terms)[e2].constant()
        val = c.numeric(log_basis)
        with mpmath.workprec(PREC):
            assert abs(val - mpmath.mpf(1) / 2) < mpmath.mpf(2) ** (-100)

    def test_shift_group_law(self, log_basis):
        e = Exponent.make({"L2": 2, "L3": Fraction(1, 2)})
        s = make_series([(e, 7)], log_basis, e)
        assert shift_s(shift_s(s, Fraction(3, 2)), Fraction(-3, 2)) == s


class TestLeadingAndTruncate:
    def test_leading_sorts_exponents(self, unit_basis):
        # input 3e^{-2s} + e^{-s}: the least exponent leads, giving (1, 1)
        s = make_series([(Exponent.constant(2), 3), (Exponent.constant(1), 1)],
                        unit_basis, Exponent.constant(5))
        e, p = leading_term(s)
        assert e == Exponent.constant(1)
        assert p.constant().as_fraction() == 1

    def test_zero_series_distinguishes_bound(self, unit_basis):
        s = zero_series(unit_basis, Exponent.constant(3))
        assert leading_term(s) is None
        assert s.truncation == Exponent.constant(3)

    def test_truncate_below_first_exponent(self, unit_basis):
        s = make_series([(Exponent.constant(2), 1)], unit_basis, Exponent.constant(4))
        t = truncate(s, Exponent.constant(1))
        assert t.is_zero and t.truncation == Exponent.constant(1)

    def test_truncate_at_bound_is_identity(self, unit_basis):
        s = make_series([(Exponent.constant(2), 1)], unit_basis, Exponent.constant(4))
        assert truncate(s, Exponent.constant(4)).terms == s.terms

    def test_truncate_beyond_bound_rejected(self, unit_basis):
        s = make_series([(Exponent.constant(2), 1)], unit_basis, Exponent.constant(4))
        with pytest.raises(BadBound):
            truncate(s, Exponent.constant(5))

    def test_truncate_zeta_prefix_at_log5(self, log_basis):
        from dforge.lattice import log_basis_for_indices
        basis, vecs = log_basis_for_indices(range(1, 9), PREC)
        s = make_series([(vecs[n], 1) for n in range(1, 9)], basis, vecs[8])
        t = truncate(s, vecs[5])
        kept = sorted(n for n in range(1, 9) if vecs[n] in dict(t.terms))
        assert kept == [1, 2, 3, 4, 5]  # log 6 > log 5


class TestRingLaws:
    def test_add_mul_laws_randomized(self, log_basis):
        rng = random.Random(424242)
        names = ("L2", "L3")
        bound = Exponent.make({"L2": 8, "L3": 8})

        def rand_series():
            terms = [(Exponent.make({n: rand_fraction(rng, 0, 2) for n in names}),
                      rand_fraction(rng)) for _ in range(rng.randint(0, 4))]
            return make_series(terms, log_basis, bound)

        for _ in range(25):
            a, b, c = rand_series(), rand_series(), rand_series()
            assert series_add(series_add(a, b), c) == series_add(a, series_add(b, c))
            assert series_mul(a, b) == series_mul(b, a)
            lhs = series_mul(a, series_add(b, c))
            rhs = series_add(series_mul(a, b), series_mul(a, c))
            assert lhs == rhs


class TestExponentOrder:
    def test_order_consistent_across_precision(self):
        from dforge.numeric import log_decimal_string
        rng = random.Random(99)
        low = SymbolBasis.from_pairs(
            [(f"L{p}", log_decimal_string(p, PREC)) for p in (2, 3, 5)], precision=PREC)
        high = SymbolBasis.from_pairs(
            [(f"L{p}", log_decimal_string(p, 2 * PREC)) for p in (2, 3, 5)],
            precision=2 * PREC)
        names = ("L2", "L3", "L5")
        ties = 0
        for _ in range(10_000):
            a = Exponent.make({n: rand_fraction(rng, -3, 3) for n in names})
            b = Exponent.make({n: rand_fraction(rng, -3, 3) for n in names})
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                low_cmp = low.compare(a, b)
                tied = any(issubclass(w.category, PrecisionTieWarning) for w in caught)
            if tied:
                ties += 1
                continue
            assert low_cmp == high.compare(a, b)
        assert ties < 100  # ties only when vectors coincide numerically

    def test_equal_vectors_compare_equal(self, log_basis):
        a = Exponent.make({"L2": Fraction(3, 2)})
        assert log_basis.compare(a, Exponent.make({"L2": Fraction(3, 2)})) == 0

    def test_replace_starts_with_empty_cache(self):
        # a basis made by dataclasses.replace must not serve values that
        # were cached at the old precision
        from dataclasses import replace
        third = "0.33333333333333333333333333333333333333333333333333333333333"
        low = SymbolBasis.from_pairs([("a", third)], precision=64)
        low.value_of("a")
        high = replace(low, precision=256)
        assert high._cache is not low._cache
        fresh = SymbolBasis.from_pairs([("a", third)], precision=256)
        assert high.value_of("a") == fresh.value_of("a") != low.value_of("a")


class TestCheapExponentArithmetic:
    def test_zero_operand_returns_the_other(self):
        e = Exponent.make({"L2": Fraction(3, 2)}, Fraction(-1, 3))
        zero = Exponent.make({"L3": 0}, 0)
        assert (zero + e) is e and (e + zero) is e
        assert (zero + zero).is_zero

    def test_sums_table(self, log_basis):
        rng = random.Random(5)
        sums = log_basis.exponent_sums()
        assert log_basis.exponent_sums() is sums
        exps = [Exponent.make({n: rand_fraction(rng, -2, 2) for n in ("L2", "L3")},
                              rand_fraction(rng, -1, 1)) for _ in range(12)]
        for a in exps:
            for b in exps:
                assert sums[a, b] == a + b
                assert sums[a, b] is sums[b, a]  # one object per distinct sum

    @pytest.mark.parametrize("pairs,precision", [
        ([("a", "0.5"), ("b", "1.0")], PREC),             # exact ties
        ([("a", "1"), ("b", "1.0000000000001")], PREC),  # gaps below the float margin
        ([("a", "1"), ("b", "1.0000001")], 20),          # tie window above the margin
        ([("a", "1.00000000000000000001"), ("b", "1")], PREC),  # equal float shadows
        ([("a", "0.6931471805599453"), ("b", "1.0986122886681098")], PREC),
    ])
    def test_sorted_terms_matches_ordering_key_oracle(self, pairs, precision):
        basis = SymbolBasis.from_pairs(pairs, precision=precision)
        rng = random.Random(precision + len(pairs[1][1]))
        one = XPoly.from_coefficient(Coefficient.one())
        thr = tie_threshold(precision)
        for _ in range(40):
            accum = {Exponent.make({"a": rng.randint(-3, 3), "b": rng.randint(-3, 3)},
                                   rng.randint(-2, 2)): one for _ in range(rng.randint(1, 12))}
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = _sorted_terms(basis, accum)
            ordered = sorted(accum, key=basis.ordering_key)
            assert [e for e, _ in got] == ordered
            with workprec(precision):
                ties = sum(abs(basis.exponent_value(b) - basis.exponent_value(a)) <= thr
                           for a, b in zip(ordered, ordered[1:]))
            assert len(caught) == ties
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert all(basis.compare(a, b) == -1 and basis.compare(b, a) == 1
                           for a, b in zip(ordered, ordered[1:]))
            assert len(caught) == 2 * ties


class TestOneExponentOrder:
    """compare, sorting and truncation agree inside the tie window."""

    @pytest.mark.parametrize("value,precision", [
        ("1.0000000001", 20),
        ("1." + "0" * 40 + "1", 128),   # 1 + 10^-41
    ])
    def test_bound_inside_the_tie_window(self, value, precision):
        basis = SymbolBasis.from_pairs([("a", value)], precision=precision)
        a, b = Exponent.of("a"), Exponent.constant(1)
        with pytest.warns(PrecisionTieWarning):
            assert basis.compare(a, b) == 1
        with pytest.warns(PrecisionTieWarning), pytest.raises(BadBound):
            make_series([(a, 1), (b, 1)], basis, b)
        with pytest.warns(PrecisionTieWarning):
            s = make_series([(a, 1), (b, 1)], basis, None)
            assert [e for e, _ in s.terms] == [b, a]
            assert [e for e, _ in truncate(s, a).terms] == [b, a]

    def test_compare_is_transitive(self):
        basis = SymbolBasis.from_pairs([("x", "1.0000000012"), ("y", "1.0000000006")],
                                       precision=20)
        x, y, z = Exponent.of("x"), Exponent.of("y"), Exponent.constant(1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionTieWarning)
            assert (basis.compare(z, y), basis.compare(y, x), basis.compare(z, x)) \
                == (-1, -1, -1)
            ordered = sorted([x, y, z], key=basis.ordering_key)
            assert ordered == [z, y, x]
            for perm in itertools.permutations([x, y, z]):
                assert sorted(perm, key=cmp_to_key(basis.compare)) == ordered

    def test_one_warning_per_tie(self):
        basis = SymbolBasis.from_pairs([("a", "1.0000001")], precision=20)
        a, b = Exponent.of("a"), Exponent.constant(1)
        for check in (lambda: basis.compare(a, b),
                      lambda: make_series([(a, 1), (b, 1)], basis, None)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                check()
            assert [w.category for w in caught] == [PrecisionTieWarning]


class TestCoefficientNormalForm:
    def test_multiplier_group_law(self):
        e1 = Exponent.make({"L2": 1})
        e2 = Exponent.make({"L3": Fraction(1, 2)})
        m1 = Coefficient.damping(e1)
        m2 = Coefficient.damping(e2)
        assert m1 * m2 == Coefficient.damping(e1 + e2)
        assert m1 * Coefficient.damping(-e1) == Coefficient.one()

    def test_zero_is_empty(self):
        assert (Coefficient.from_fraction(2) - Coefficient.from_fraction(2)).is_zero

    def test_numeric_evaluation(self, log_basis):
        c = Coefficient.from_symbol("L2") * Coefficient.damping(Exponent.of("L3"))
        val = c.numeric(log_basis)
        with mpmath.workprec(PREC):
            expected = mpmath.log(2) * mpmath.exp(-mpmath.log(3))
            assert abs(val - expected) < mpmath.mpf(2) ** (-100)


def _powers(rng, factors, most=2):
    """A canonical sorted ((factor, positive power), ...) tuple."""
    chosen = rng.sample(factors, rng.randint(0, len(factors)))
    return tuple(sorted((f, rng.randint(1, most)) for f in chosen))


_DAMPINGS = [Exponent(), Exponent.of("L2"), Exponent.make({"L3": Fraction(-1, 2)}, 1)]


def _coefficient_pair(rng):
    return (_powers(rng, ["L2", "L3"]), rng.choice(_DAMPINGS)), rand_fraction(rng)


def _rand_coefficient(rng, size):
    return Coefficient.collect(_coefficient_pair(rng) for _ in range(rng.randint(0, size)))


_INDETERMINATES = [DiffIndeterminate.make(0), DiffIndeterminate.make(1),
                   DiffIndeterminate.make(0, 1)]
_BETAS = [(0, 0), (1, 0), (0, 1)]

# name -> (random (monomial, coefficient) pair, canonical key, class, extra fields)
_KERNEL_CASES = {
    "Coefficient": (_coefficient_pair, lambda m: (m[0], m[1].sort_key()), Coefficient, ()),
    "XPoly": (
        lambda rng: (rng.randint(0, 3), _rand_coefficient(rng, 2)),
        lambda m: m, XPoly, ()),
    "DiffPolynomial": (
        lambda rng: ((rng.randint(0, 1), _powers(rng, _INDETERMINATES)),
                     _rand_coefficient(rng, 2)),
        lambda m: m, DiffPolynomial, ()),
    "PdePolynomial": (
        lambda rng: ((_powers(rng, _BETAS), (rng.randint(0, 1), rng.randint(0, 1))),
                     _rand_coefficient(rng, 2)),
        lambda m: m, PdePolynomial, (2,)),
}


@pytest.mark.parametrize("name", sorted(_KERNEL_CASES))
class TestSparseKernel:
    """Canonical form and ring laws shared by every sparse polynomial class."""

    def _elements(self, name, count, most=3):
        pair, _, cls, fields = _KERNEL_CASES[name]
        rng = random.Random(sum(map(ord, name)))
        out = []
        for _ in range(count):
            pairs = [pair(rng) for _ in range(rng.randint(0, most))]
            out.append((cls.collect(pairs, *fields), pairs))
        return cls, fields, out

    def test_canonical_terms(self, name):
        key = _KERNEL_CASES[name][1]
        cls, fields, elements = self._elements(name, 30, most=6)
        rng = random.Random(5)
        for p, pairs in elements:
            assert all(c != type(c)() for _, c in p.terms)
            keys = [key(m) for m, _ in p.terms]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            shuffled = pairs[:]
            rng.shuffle(shuffled)
            assert cls.collect(shuffled, *fields).terms == p.terms
            summed = cls.zero(*fields)
            for pair in reversed(pairs):
                summed = summed + cls.collect([pair], *fields)
            assert summed.terms == p.terms

    def test_ring_laws(self, name):
        cls, fields, elements = self._elements(name, 24)
        values = [p for p, _ in elements]
        one = cls.one(*fields)
        for a, b, c in zip(values[0::3], values[1::3], values[2::3]):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a - a).is_zero and (a - a).terms == ()
            assert a ** 0 == one
            assert a ** 3 == a * a * a
            assert a * one == a
