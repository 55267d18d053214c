"""Series arithmetic: construction, products, derivatives, shifts, order."""

import copy
import dataclasses
import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path

import mpmath
import pytest

from conftest import PREC, convolve_oracle, geometric_series, rand_fraction, residue_series
from oracles import determinant_leibniz
from dforge import series
from dforge.diffpoly import DiffIndeterminate, DiffPolynomial
from dforge.errors import BadBasis, BadBound, BasisMismatch, PrecisionTieWarning
from dforge.formal_eval import forcing_threshold, substitute
from dforge.grammar import parse_diffpoly, pretty
from dforge.io import canonical_json, dump_series, exponent_to_obj, load_series, series_to_obj
from dforge.linalg import determinant
from dforge.lattice import gap_ratios, integer_basis, log_basis_for_indices
from dforge.obstruction import (
    finite_basis_certificate,
    gap_certificate,
    residual_certificate,
    substitution_certificate,
)
from dforge.transforms import verify_hilbert_zeta, verify_rescale_invariance
from dforge.wronskian import _Screen, search_ade
from dforge.numeric import (
    decimal_str_to_mpf,
    decimal_text,
    fraction_to_mpf,
    log_decimal_string,
    tie_threshold,
    workprec,
)
from dforge.series import (
    Coefficient,
    Exponent,
    SymbolBasis,
    XPoly,
    _sorted_terms,
    differentiate_s,
    leading_term,
    make_series,
    power_product,
    product_bound,
    series_add,
    series_mul,
    series_neg,
    series_scale_xpoly,
    series_sub,
    series_sum,
    shift_s,
    truncate,
    x_log_derivative,
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
            assert a + b == series_add(a, b) and a * b == series_mul(a, b)
            assert a + -a == series_add(a, series_neg(a))

    def test_only_the_exact_zero_is_falsy(self, log_basis):
        # a series with no term but a finite bound is zero only up to that
        # bound: truthy, though is_zero (no stored term) holds
        bounded = zero_series(log_basis, Exponent.of("L2"))
        assert bounded.is_zero and bounded
        assert not zero_series(log_basis)
        one = make_series([(Exponent.zero(), 1)], log_basis, None)
        matrix = [[bounded, one], [one, one]]
        for det in (determinant(matrix), determinant_leibniz(matrix)):
            assert det == series_neg(make_series([(Exponent.zero(), 1)], log_basis,
                                                 Exponent.of("L2")))


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
                assert sums[a][b] == a + b
                assert sums[a][b] is sums[b][a]  # one object per distinct sum

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


# Exponents are hash-consed: one live object per value, equality and hashing
# by identity, and a weak table.

_SEARCH_DIGEST = """
import gc, hashlib, sys
from dforge.lattice import log_basis_for_indices
from dforge.series import Exponent, make_series
from dforge.wronskian import derive_ade
if sys.argv[1] == "churn":
    # other exponents first, some of them freed: the search's exponents
    # land at other addresses and in another table order
    keep = [Exponent.make({f"x{i}": i}, i) for i in range(3000)]
    del keep[::2]
    gc.collect()
basis, vecs = log_basis_for_indices(range(1, 31), 128)
phi = make_series([(vecs[n], 1) for n in range(1, 31)], basis, vecs[30])
result = derive_ade(phi, 3, horizon=vecs[12])
print(hashlib.sha256(repr(result).encode()).hexdigest())
"""


class TestInterning:
    def test_one_object_per_value(self):
        e = Exponent((("L2", Fraction(2, 2)),), Fraction(0))
        assert e is Exponent.make({"L2": 1})
        assert type(e.coords[0][1]) is int and type(e.const) is int
        assert Exponent() is Exponent.zero() is Exponent.make({"L3": 0}, Fraction(0))
        half = Exponent.make({"L2": Fraction(1, 2)})
        assert half + half is e and e * Fraction(1, 2) is half and -(-half) is half
        assert e - e is Exponent.zero() and (half == e) is False

    def test_copies_return_the_interned_object(self):
        e = Exponent.make({"L2": Fraction(3, 2), "L3": -1}, 2)
        assert copy.copy(e) is e and copy.deepcopy(e) is e
        assert copy.deepcopy([e, {e: e}])[1] == {e: e}
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(e, protocol)) is e
        assert dataclasses.replace(e) is e
        assert dataclasses.replace(e, const=Fraction(4, 2)) is e
        assert dataclasses.replace(e, const=0) is Exponent.make({"L2": Fraction(3, 2), "L3": -1})
        # a table hit keeps the fields it was built with
        assert e.coords == (("L2", Fraction(3, 2)), ("L3", -1)) and e.const == 2

    def test_table_entry_freed_with_the_last_reference(self):
        key = ((("interning_probe", 7, 3),), 5, 1)
        e = Exponent.make({"interning_probe": Fraction(7, 3)}, 5)
        assert series._EXPONENTS.get(key) is e
        del e
        gc.collect()
        assert series._EXPONENTS.get(key) is None
        again = Exponent.make({"interning_probe": Fraction(7, 3)}, 5)
        assert series._EXPONENTS.get(key) is again and again._key == key

    def test_threads_building_one_value_get_one_object(self):
        barrier = threading.Barrier(4)
        built = [None] * 4

        def build(i):
            barrier.wait()
            built[i] = [Exponent.make({"thread_probe": k}, i % 2) for k in range(1, 3001)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # switch threads between a miss and its insert
        try:
            threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert all(x is y for x, y in zip(built[0], built[2]))
        assert all(x is y for x, y in zip(built[1], built[3]))

    def test_search_result_independent_of_hash_seed_and_addresses(self):
        src = str(Path(series.__file__).resolve().parents[1])
        digests = set()
        for seed, mode in (("0", "plain"), ("1", "plain"), ("1", "churn")):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = subprocess.run([sys.executable, "-c", _SEARCH_DIGEST, mode], env=env,
                                 capture_output=True, text=True, check=True, timeout=120)
            digests.add(out.stdout)
        assert len(digests) == 1


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


class TestSymbolValues:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(BadBasis, match="finite"):
            SymbolBasis.from_pairs([("lam", value)], precision=PREC)


class _Logged:
    """An integer whose products are appended to a shared log."""

    def __init__(self, n, log):
        self.n, self.log = n, log

    def __mul__(self, other):
        self.log.append((self.n, other.n))
        return _Logged(self.n * other.n, self.log)


class TestPowerProduct:
    def test_each_value_and_each_prefix_once(self):
        values, products = [], []

        def value(n):
            values.append(n)
            return _Logged(n, products)

        memo = {}
        cases = [((2, 1),), ((2, 2), (3, 1)), ((2, 2), (3, 2)), ((2, 1), (5, 1)),
                 ((3, 3),), ((2, 2), (3, 1))]
        assert [power_product(p, value, memo).n for p in cases] == [2, 12, 36, 10, 27, 12]
        assert values == [2, 3, 5]
        # one product per distinct prefix of two or more factors, in prefix order
        assert products == [(2, 2), (4, 3), (12, 3), (2, 5), (3, 3), (9, 3)]
        assert power_product((), value, memo) is None
        assert power_product(((3, 2),), value, {}).n == 9
        assert values == [2, 3, 5, 3] and products[-1] == (3, 3)


def _rand_xpoly(rng):
    """A polynomial in x of degree at most 2, with a symbol factor at times;
    zero about one time in five."""
    pairs = []
    for k in range(3):
        if rng.random() < 0.4:
            c = Coefficient.from_fraction(rand_fraction(rng))
            if rng.random() < 0.3:
                c = c * Coefficient.from_symbol("L3")
            pairs.append((k, c))
    return XPoly.collect(pairs)


def _rand_series(rng, basis, size=6):
    """A random series over the prime-log basis with a term at exponent 0,
    cut at a bound that is None, one of its exponents or beyond them all."""
    exps = {Exponent.zero()} | {
        Exponent.make({"L2": rng.randint(0, 3), "L3": rng.randint(0, 2),
                       "L5": rng.randint(0, 1)}) for _ in range(size)}
    bound = rng.choice([None, rng.choice(sorted(exps, key=basis.ordering_key)),
                        Exponent.make({"L2": 4, "L3": 2, "L5": rng.randint(1, 2)})])
    return make_series([(e, XPoly.monomial(0, 1) + _rand_xpoly(rng))
                        for e in sorted(exps, key=Exponent.sort_key)
                        if bound is None or basis.compare(e, bound) <= 0], basis, bound)


def _add_oracle(basis, a, b):
    """(terms dict, bound) of a + b: dict sum, least bound, cut there."""
    terms, bound = dict(a[0]), a[1]
    for e, p in b[0].items():
        terms[e] = terms[e] + p if e in terms else p
    if b[1] is not None and (bound is None or basis.compare(b[1], bound) < 0):
        bound = b[1]
    return ({e: p for e, p in terms.items() if not p.is_zero and
             (bound is None or basis.compare(e, bound) <= 0)}, bound)


class TestOrderedOnce:
    """A series is ordered where its exponents are made: the termwise maps
    keep the order they are given, and a sum builds once."""

    @staticmethod
    def _maps(rng):
        k = rng.randint(1, 3)
        h = rand_fraction(rng) or Fraction(1, 2)
        poly = _rand_xpoly(rng)
        return [
            (lambda a: differentiate_s(a, k),
             lambda e, p: p.scale(Coefficient.from_exponent(-e) ** k)),
            (lambda a: shift_s(a, h), lambda e, p: p.scale(Coefficient.damping(e * h))),
            (x_log_derivative, lambda e, p: p.x_log_derivative()),
            (lambda a: series_scale_xpoly(a, poly), lambda e, p: p * poly),
            (series_neg, lambda e, p: -p),
        ]

    def test_maps_equal_make_series_of_mapped_items(self, log_basis):
        rng = random.Random(12)
        for _ in range(30):
            a = _rand_series(rng, log_basis)
            for op, f in self._maps(rng):
                got = op(a)
                want = make_series([(e, f(e, p)) for e, p in a.terms], log_basis,
                                   a.truncation)
                assert got.terms == want.terms
                assert got.truncation == a.truncation

    def test_zero_results_dropped(self, log_basis):
        e2 = Exponent.of("L2")
        a = make_series([(Exponent.zero(), 3), (e2, XPoly.monomial(1, 2))], log_basis, e2)
        assert differentiate_s(a).exponents() == (e2,)
        assert x_log_derivative(a).exponents() == (e2,)
        assert series_scale_xpoly(a, XPoly()).terms == ()

    def test_sum_equals_fold_of_dict_sums(self, log_basis):
        rng = random.Random(13)
        for _ in range(30):
            parts = [_rand_series(rng, log_basis) for _ in range(rng.randint(1, 4))]
            # cancellations: the negative of a part, cut at a bound of its own
            victim = rng.choice(parts)
            cut = rng.choice([None, Exponent.make({"L2": 2, "L3": 1})])
            neg = series_neg(victim)
            if cut is not None and (victim.truncation is None or
                                    log_basis.compare(cut, victim.truncation) <= 0):
                neg = truncate(neg, cut)
            parts.insert(rng.randint(0, len(parts)), neg)
            want = ({}, None)
            for s in parts:
                want = _add_oracle(log_basis, want, (dict(s.terms), s.truncation))
            got = series_sum(log_basis, parts)
            assert dict(got.terms) == want[0] and got.truncation == want[1]
            assert list(got.exponents()) == sorted(got.exponents(),
                                                   key=log_basis.ordering_key)
            folded = zero_series(log_basis)
            for s in parts:
                folded = series_add(folded, s)
            assert folded == got

    def test_sum_of_nothing_and_basis_mismatch(self, log_basis, lam_basis):
        assert series_sum(log_basis, []) == zero_series(log_basis)
        with pytest.raises(BasisMismatch):
            series_sum(log_basis, [zero_series(log_basis), zero_series(lam_basis)])

    def test_maps_never_build(self, log_basis, monkeypatch):
        a = _rand_series(random.Random(14), log_basis)
        expected = [op(a) for op, _ in self._maps(random.Random(15))]

        def refuse(*args):
            raise AssertionError("a termwise map sorted its terms")

        monkeypatch.setattr(series, "_build", refuse)
        assert [op(a) for op, _ in self._maps(random.Random(15))] == expected

    def test_substitute_builds_products_and_one_sum(self, lam_basis, monkeypatch):
        phi = make_series([(Exponent.of("lam") * n, 1) for n in range(1, 7)],
                          lam_basis, Exponent.of("lam") * 6)
        F = parse_diffpoly("f' + lam*f + lam*f^2 + x*f*f' + 3*f(s+1)^2 - 2", lam_basis)
        counts = {"build": 0, "mul": 0}
        build, mul = series._build, series.series_mul

        def counted_build(*args):
            counts["build"] += 1
            return build(*args)

        def counted_mul(*args):
            counts["mul"] += 1
            return mul(*args)

        want = substitute(F, phi)
        monkeypatch.setattr(series, "_build", counted_build)
        monkeypatch.setattr(series, "series_mul", counted_mul)
        assert substitute(F, phi) == want
        assert counts["mul"] > 0 and counts["build"] == counts["mul"] + 1


# The context-manager formulas the libmp kernel replaced, kept verbatim as
# the reference: each value must match them bit for bit.

def _context_fraction_to_mpf(q, precision_bits):
    with workprec(precision_bits):
        return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)


def _context_ordering_key(basis, e):
    with workprec(basis.precision):
        total = _context_fraction_to_mpf(e.const, basis.precision)
        for n, q in e.coords:
            total += _context_fraction_to_mpf(q, basis.precision) * basis.value_of(n)
    return (float(total), total, e.sort_key())


def _context_decimal_str_to_mpf(text, precision_bits):
    with workprec(precision_bits):
        return mpmath.mpf(text)


def _context_exact_ratio(a, b):
    if b.is_zero:
        return None
    if b.const != 0:
        q = Fraction(a.const, b.const)
    else:
        if a.const != 0:
            return None
        name, val = b.coords[0]
        q = Fraction(a.coord(name), val)
    return q if a == b * q else None


def _context_gap_ratios(exponents, basis):
    values = [_context_ordering_key(basis, e)[1] for e in exponents]
    start = 0
    while start < len(values) and values[start] <= 0:
        start += 1
    tail = exponents[start:]
    tail_values = values[start:]
    ratios = []
    exact = []
    envelope = []
    best = None
    with workprec(basis.precision):
        for i in range(1, len(tail)):
            num = tail_values[i] / tail_values[i - 1]
            ratios.append(num)
            exact.append(_context_exact_ratio(tail[i], tail[i - 1]))
            best = num if best is None else max(best, num)
            envelope.append(best)
    return ratios, exact, envelope, start


def _context_nstr(x, precision):
    with workprec(precision):
        return mpmath.nstr(mpmath.mpf(x), 12)


def _wide_fraction(rng, precision):
    """A signed rational whose numerator and denominator are drawn from
    widths below, at and above the P + 16 working bits (zero included)."""
    widths = (1, 3, 20, precision, precision + 15, precision + 16, precision + 17,
              2 * precision + 40)
    num = rng.getrandbits(rng.choice(widths))
    den = rng.getrandbits(rng.choice(widths)) or 1
    return Fraction(-num if rng.random() < 0.4 else num, den)


def _same_value(got, want):
    """Identical raw mpf tuples and float shadows (the sign of zero too)."""
    return got._mpf_ == want._mpf_ and repr(float(got)) == repr(float(want))


class TestLibmpKernel:
    """The libmp kernel rounds exactly as the context formulas above: the
    same ``_mpf_`` tuples, float shadows and decimal strings."""

    PRECISIONS = (20, 53, 128, 4096)

    @staticmethod
    def _basis(precision):
        # two logarithms plus values that are exact, tiny and huge in binary
        return SymbolBasis.from_pairs(
            [("L2", log_decimal_string(2, precision)), ("L3", log_decimal_string(3, precision)),
             ("h", "0.5"), ("t", "0.0000000123456789"), ("w", "98765432109876543.21")],
            precision=precision)

    @staticmethod
    def _exponent(rng, basis, precision):
        r = rng.random()
        if r < 0.08:
            return Exponent.zero()
        const = _wide_fraction(rng, precision) if rng.random() < 0.6 else 0
        if r < 0.2:
            return Exponent.constant(const or _wide_fraction(rng, precision))
        coords = {n: _wide_fraction(rng, precision) if rng.random() < 0.5
                  else Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                  for n in rng.sample(basis.symbols, rng.randint(1, len(basis.symbols)))}
        return Exponent.make(coords, const)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_fraction_to_mpf(self, precision):
        rng = random.Random(1400 + precision)
        cases = [Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(2 ** (precision + 17) - 1),
                 Fraction(1, 2 ** (precision + 17) + 1), Fraction(-(3 ** 200), 7 ** 90)]
        cases += [_wide_fraction(rng, precision) for _ in range(300)]
        for q in cases:
            got = fraction_to_mpf(q, precision)
            assert _same_value(got, _context_fraction_to_mpf(q, precision)), q

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_decimal_str_to_mpf(self, precision):
        rng = random.Random(1405 + precision)
        texts = ["0.7", "-0.0", "nan", "inf", "1e500", "-2.5e-450", "1/3",
                 log_decimal_string(5, precision), log_decimal_string(5, precision + 200)]
        texts += [f"{rng.getrandbits(2 * precision + 40)}e{rng.randint(-60, 60)}"
                  for _ in range(100)]
        for text in texts:
            got = decimal_str_to_mpf(text, precision)
            assert _same_value(got, _context_decimal_str_to_mpf(text, precision)), text

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_ordering_key(self, precision):
        rng = random.Random(1410 + precision)
        basis = self._basis(precision)
        exps = [Exponent.zero(), Exponent.constant(Fraction(-5, 3)),
                Exponent.make({"L2": -1, "L3": 1}), Exponent.make({"w": Fraction(-1, 9)}, 7)]
        exps += [self._exponent(rng, basis, precision) for _ in range(150)]
        for e in exps:
            (fg, vg, kg), (fw, vw, kw) = basis.ordering_key(e), _context_ordering_key(basis, e)
            assert (repr(fg), vg._mpf_, kg) == (repr(fw), vw._mpf_, kw), e
        assert any(basis.ordering_key(e)[0] < 0 for e in exps)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_gap_ratios(self, precision):
        rng = random.Random(1420 + precision)
        basis = self._basis(precision)
        L2, L3 = Exponent.of("L2"), Exponent.of("L3")
        zero = Exponent.zero()
        families = [[L2, zero], [L2, zero, L3], [-L2, zero, L3, L3 * 2, L3 * 2],
                    [Exponent.constant(Fraction(1, 3)), L2 + Exponent.constant(2), L2 * 5]]
        for _ in range(12):
            family = [self._exponent(rng, basis, precision) for _ in range(rng.randint(0, 3))]
            for _ in range(rng.randint(2, 12)):
                e = rng.choice((L2, L3, Exponent.of("h")))
                base = family[-1] if family and rng.random() < 0.5 else e
                family.append(base * Fraction(rng.randint(1, 30), rng.randint(1, 4)) + e)
            families.append(family)
        for family in families:
            values = [basis.exponent_value(e) for e in family]
            start = next((i for i, v in enumerate(values) if v > 0), len(values))
            if not all(values[start:-1]):
                # a zero inside the positive tail is an error, not data
                with pytest.raises(ValueError, match="zero inside"):
                    gap_ratios(family, basis)
                continue
            stats = gap_ratios(family, basis)
            ratios, exact, envelope, start = _context_gap_ratios(family, basis)
            assert stats.dropped_prefix == start
            assert [r._mpf_ for r in stats.ratios] == [r._mpf_ for r in ratios]
            assert [r._mpf_ for r in stats.envelope] == [r._mpf_ for r in envelope]
            assert list(stats.exact) == exact
            assert [decimal_text(r, precision) for r in stats.ratios] == \
                [_context_nstr(r, precision) for r in ratios]
        assert gap_ratios(families[0], basis).exact == (Fraction(0),)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_decimal_text(self, precision):
        rng = random.Random(1430 + precision)
        basis = self._basis(precision)
        values = [mpmath.mpf(0), mpmath.mpf(-1), mpmath.inf]
        values += [basis.exponent_value(self._exponent(rng, basis, precision))
                   for _ in range(100)]
        # wider than P + 16 bits: the string rounds them first
        with workprec(3 * precision):
            values += [mpmath.mpf(1) / 3, -mpmath.sqrt(2) * 10 ** 20, mpmath.mpf(2) ** -70 / 7]
        for x in values:
            assert decimal_text(x, precision) == _context_nstr(x, precision), x


# Integral rationals are stored as Python ints.  The same operands with every
# stored rational a Fraction (as Fraction arithmetic may leave them) must give
# the same terms, printed forms, JSON and hashes, and no float may reach any
# exact field.

def _fraction_exponent(e):
    return Exponent(tuple((n, Fraction(q)) for n, q in e.coords), Fraction(e.const))


def _fraction_coefficient(c):
    return Coefficient(tuple(((syms, _fraction_exponent(damp)), Fraction(q))
                             for (syms, damp), q in c.terms))


def _fraction_xpoly(p):
    return XPoly(tuple((k, _fraction_coefficient(c)) for k, c in p.terms))


def _fraction_diffpoly(F):
    return DiffPolynomial(tuple(
        ((xdeg, tuple((DiffIndeterminate(Fraction(ind.shift), ind.order), k)
                      for ind, k in powers)), _fraction_coefficient(c))
        for (xdeg, powers), c in F.terms))


def _fraction_series(s):
    return series.FormalSeries(
        s.basis, tuple((_fraction_exponent(e), _fraction_xpoly(p)) for e, p in s.terms),
        None if s.truncation is None else _fraction_exponent(s.truncation))


def _integral_or_half(rng):
    return rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2)])


def _int_exponent(rng, names):
    return Exponent.make({n: _integral_or_half(rng) for n in rng.sample(names, 2)},
                         _integral_or_half(rng))


def _int_coefficient(rng, size=3):
    def damping():
        return rng.choice([Exponent(), _int_exponent(rng, ["L2", "L3"])])
    return Coefficient.collect(((_powers(rng, ["L2", "L3"]), damping()), _integral_or_half(rng))
                               for _ in range(rng.randint(1, size)))


def _int_xpoly(rng):
    return XPoly.collect((rng.randint(0, 2), _int_coefficient(rng))
                         for _ in range(rng.randint(1, 3)))


def _int_diffpoly(rng):
    inds = [DiffIndeterminate.make(0), DiffIndeterminate.make(1),
            DiffIndeterminate.make(0, rng.choice([1, -2, Fraction(1, 2)]))]
    return DiffPolynomial.collect(
        ((rng.randint(0, 1), _powers(rng, inds)), _int_coefficient(rng, 2))
        for _ in range(rng.randint(1, 3)))


def _int_series(rng, basis):
    exps = {Exponent.make({"L2": rng.randint(0, 3), "L3": rng.randint(0, 2)}) for _ in range(5)}
    bound = rng.choice([None, Exponent.make({"L2": 4, "L3": 2})])
    return make_series([(e, _int_xpoly(rng)) for e in sorted(exps, key=Exponent.sort_key)],
                       basis, bound)


def _exact_leaves(obj):
    """Every leaf of an exact object: dataclass fields, tuples, lists and
    dicts are walked; a basis holds numeric values, not exact data."""
    if isinstance(obj, SymbolBasis):
        return
    if isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _exact_leaves(x)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _exact_leaves(k)
            yield from _exact_leaves(v)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _exact_leaves(getattr(obj, f.name))
    else:
        yield obj


def _assert_exact(obj):
    for leaf in _exact_leaves(obj):
        assert leaf is None or type(leaf) in (int, bool, Fraction, str), (type(leaf), obj)


def _assert_same(got_int, got_fraction):
    assert got_int == got_fraction and hash(got_int) == hash(got_fraction)
    assert got_int.terms == got_fraction.terms
    assert str(got_int) == str(got_fraction)
    _assert_exact(got_int)
    _assert_exact(got_fraction)


class TestIntegralRationals:
    def test_constructors_store_integral_values_as_ints(self):
        e = Exponent.make({"a": Fraction(4, 2), "b": Fraction(1, 2), series.ONE: Fraction(1, 2)},
                          Fraction(1, 2))
        assert e.coords == (("a", 2), ("b", Fraction(1, 2))) and e.const == 1
        assert [type(q) for _, q in e.coords] == [int, Fraction] and type(e.const) is int
        assert type((e + e).coord("b")) is int and type((e * Fraction(2)).coord("b")) is int
        assert type(Coefficient.from_fraction(Fraction(6, 3)).as_fraction()) is int
        assert type(Coefficient.from_fraction("-4").as_fraction()) is int
        assert {type(q) for _, q in Coefficient.from_exponent(_fraction_exponent(e)).terms} \
            == {int, Fraction}
        assert type(DiffIndeterminate.make(1, Fraction(-3, 1)).shift) is int
        assert type(parse_diffpoly("f(s+4/2)").terms[0][0][1][0][0].shift) is int
        with pytest.raises(TypeError):
            Exponent.make({"a": 0.5})

    def test_polynomial_operations_agree(self):
        rng = random.Random(1501)
        makers = [_int_coefficient, _int_xpoly, _int_diffpoly]
        to_fraction = [_fraction_coefficient, _fraction_xpoly, _fraction_diffpoly]
        for make, fraction in zip(makers, to_fraction):
            for _ in range(25):
                a, b = make(rng), make(rng)
                fa, fb = fraction(a), fraction(b)
                q = _integral_or_half(rng) or 1
                k = rng.randint(0, 3)
                _assert_same(a + b, fa + fb)
                _assert_same(a * b, fa * fb)
                _assert_same(a ** k, fa ** k)
                _assert_same(a.scale(q), fa.scale(Fraction(q)))
                _assert_same(a - b, fa - fb)
                if isinstance(a, DiffPolynomial):
                    assert pretty(a * b) == pretty(fa * fb)

    def test_exponent_operations_agree(self):
        rng = random.Random(1502)
        names = ["L2", "L3", "L5"]
        for _ in range(200):
            a, b = _int_exponent(rng, names), _int_exponent(rng, names)
            fa, fb = _fraction_exponent(a), _fraction_exponent(b)
            q = _integral_or_half(rng)
            for got, want in ((a + b, fa + fb), (a - b, fa - fb), (-a, -fa),
                              (a * q, fa * Fraction(q))):
                assert got == want and hash(got) == hash(want) and got._key == want._key
                assert str(got) == str(want) and got.sort_key() == want.sort_key()
                assert canonical_json(exponent_to_obj(got)) == \
                    canonical_json(exponent_to_obj(want))
                # on int operands, an integral result is stored as an int
                assert all(type(q) is int or q.denominator != 1
                           for q in (got.const, *(q for _, q in got.coords)))
                _assert_exact(got)
                _assert_exact(want)

    def test_series_operations_agree(self, log_basis):
        rng = random.Random(1503)
        for _ in range(12):
            a, b = _int_series(rng, log_basis), _int_series(rng, log_basis)
            fa, fb = _fraction_series(a), _fraction_series(b)
            k = rng.randint(1, 2)
            h = rng.choice([2, -1, Fraction(1, 2)])
            for got, want in ((series_mul(a, b), series_mul(fa, fb)),
                              (differentiate_s(a, k), differentiate_s(fa, k)),
                              (shift_s(a, h), shift_s(fa, Fraction(h)))):
                assert got == want and got.terms == want.terms and str(got) == str(want)
                assert canonical_json(series_to_obj(got)) == canonical_json(series_to_obj(want))
                _assert_exact(got)
                _assert_exact(want)

    def test_no_float_in_golden_objects(self, lam_basis, tmp_path):
        # the series, reports, lattices and certificates behind the goldens
        path = tmp_path / "g.series.json"
        dump_series(geometric_series(lam_basis, 15), path)
        phi = load_series(path)
        F = parse_diffpoly("f' + lam*f + lam*f^2", lam_basis)
        lam = Exponent.of("lam")
        perturbed = make_series([(lam * n, 2 if n == 5 else 1) for n in range(1, 16)],
                                lam_basis, lam * 15)
        report = forcing_threshold(F, phi)
        found = search_ade(phi, 3)
        indices = list(range(1, 101))
        basis, exps = log_basis_for_indices(indices, PREC)
        stream = [exps[n] for n in indices]
        B = integer_basis([e for e, _ in phi.terms], lam_basis)
        objects = [
            phi, report, substitution_certificate(F, phi, None, report),
            substitution_certificate(F, perturbed), found, residual_certificate(found),
            verify_rescale_invariance(F, phi, B, [Fraction(1, 2)]),
            verify_hilbert_zeta(12, 2, 2), finite_basis_certificate(stream, 12, basis),
            gap_certificate(stream, Fraction(100), basis), integer_basis(stream, basis),
        ]
        for obj in objects:
            _assert_exact(obj)
        with pytest.raises(AssertionError):
            _assert_exact([phi.terms, {"lam": 0.5}])


# The pairwise product kernel that the flat accumulator replaced, kept
# verbatim as the reference: one Coefficient per term pair, summed one
# Coefficient at a time, and a bound test per term pair.

def _pairwise_mul(self, other):
    mono_mul = self._mono_mul
    acc: dict = {}
    for ma, ca in self.terms:
        for mb, cb in other.terms:
            m = mono_mul(ma, mb)
            c = _pairwise_mul(ca, cb) if isinstance(ca, Coefficient) else ca * cb
            prev = acc.get(m)
            acc[m] = c if prev is None else prev + c
    return self._new(self._canonical(acc))


def _pairwise_series_mul(a, b):
    basis = a.basis
    if a.is_zero and a.is_exact or b.is_zero and b.is_exact:
        return zero_series(basis)
    bound = product_bound(basis, a.truncation, series._effective_min(a),
                          b.truncation, series._effective_min(b))
    sums = basis.exponent_sums()
    accum: dict = {}
    for ea, pa in a.terms:
        for eb, pb in b.terms:
            e = sums[ea][eb]
            if bound is not None and basis.compare(e, bound) > 0:
                continue
            accum.setdefault(e, []).extend(
                (ka + kb, _pairwise_mul(ca, cb)) for ka, ca in pa.terms for kb, cb in pb.terms)
    terms = _sorted_terms(basis, series._group(accum))
    if bound is not None:
        terms = tuple((e, p) for e, p in terms if basis.compare(e, bound) <= 0)
    return series.FormalSeries(basis, terms, bound)


def _mixed_rational(rng):
    """An int, a Fraction, or an integral Fraction such as Fraction(2, 1)."""
    q = rand_fraction(rng)
    return rng.choice([q, Fraction(q.numerator), q.numerator]) if rng.random() < 0.5 else q


# damping exponents whose sums meet again, and cancel to e^0
_MUL_DAMPINGS = [Exponent(), Exponent.of("L2"), Exponent.make({"L2": -1}),
                 Exponent.make({"L3": Fraction(1, 2)}, -1),
                 Exponent.make({"L3": Fraction(-1, 2)}, 1)]


def _mul_coefficient(rng, most=3):
    return Coefficient.collect(((_powers(rng, ["L2", "L3"]), rng.choice(_MUL_DAMPINGS)),
                                _mixed_rational(rng)) for _ in range(rng.randint(1, most)))


_MUL_MAKERS = {
    "Coefficient": _mul_coefficient,
    "XPoly": lambda rng: XPoly.collect((rng.randint(0, 2), _mul_coefficient(rng, 2))
                                       for _ in range(rng.randint(1, 3))),
    "DiffPolynomial": lambda rng: DiffPolynomial.collect(
        ((rng.randint(0, 1), _powers(rng, _INDETERMINATES)), _mul_coefficient(rng, 2))
        for _ in range(rng.randint(1, 3))),
    "PdePolynomial": lambda rng: PdePolynomial.collect(
        (((_powers(rng, _BETAS), (rng.randint(0, 1), rng.randint(0, 1))),
          _mul_coefficient(rng, 2)) for _ in range(rng.randint(1, 3))), 2),
}


def _mul_series(rng, basis):
    """A truncated or exact series whose terms carry damping monomials and
    x-degrees, at exponents that products reach more than once."""
    exps = {Exponent.make({"L2": rng.randint(0, 2), "L3": rng.randint(0, 1)}) for _ in range(4)}
    bound = rng.choice([None, Exponent.make({"L2": 2, "L3": 1}), Exponent.make({"L2": 3})])
    return make_series([(e, _MUL_MAKERS["XPoly"](rng)) for e in sorted(exps, key=Exponent.sort_key)
                        if bound is None or basis.compare(e, bound) <= 0], basis, bound)


def _poly_json(p):
    return canonical_json([[repr(m), str(c)] for m, c in p.terms])


def _series_json(s):
    return canonical_json(series_to_obj(s))


def _assert_same_product(got, want, as_json):
    assert got.terms == want.terms
    assert str(got) == str(want)
    assert as_json(got) == as_json(want)


class TestFlatAccumulator:
    """Products through the flat ``monomial -> rational`` accumulator against
    the pairwise kernel: the same terms, printed forms and JSON bytes."""

    @pytest.mark.parametrize("name", sorted(_MUL_MAKERS))
    def test_polynomial_products(self, name):
        rng = random.Random(1701 + sum(map(ord, name)))
        make = _MUL_MAKERS[name]
        for _ in range(30):
            u, v = make(rng), make(rng)
            # (u + v)(u - v) must cancel its u*v terms: coefficients, and
            # whole monomials wherever u*u and v*v do not reach
            for a, b in ((u, v), (u + v, u - v)):
                got, want = a * b, _pairwise_mul(a, b)
                _assert_same_product(got, want, _poly_json)
                _assert_same_product(b * a, want, _poly_json)
            assert (u + v) * (u - v) == _pairwise_mul(u, u) - _pairwise_mul(v, v)

    def test_planted_cancellations(self):
        u = Coefficient.from_symbol("L2") * Coefficient.damping(Exponent.of("L3"))
        v = Coefficient.from_fraction(Fraction(3, 2)) * Coefficient.damping(-Exponent.of("L3"))
        # a coefficient monomial: (u + v)(u - v) = u^2 - v^2
        assert (u + v) * (u - v) == _pairwise_mul(u + v, u - v) == u * u - v * v
        assert len(((u + v) * (u - v)).terms) == 2
        # an x-degree: (u + v x)(u - v x) has no x term
        p, q = XPoly.collect([(0, u), (1, v)]), XPoly.collect([(0, u), (1, -v)])
        assert (p * q).terms == _pairwise_mul(p, q).terms
        assert [k for k, _ in (p * q).terms] == [0, 2]
        # and the whole product: (u + v x)(u - v x) - (u^2 - v^2 x^2) is zero
        assert (p * q - XPoly.collect([(0, u * u), (2, -(v * v))])).terms == ()

    def test_series_products(self, log_basis):
        rng = random.Random(1702)
        for _ in range(40):
            a, b = _mul_series(rng, log_basis), _mul_series(rng, log_basis)
            if rng.random() < 0.5:
                # (a + b)(a - b): the cross terms cancel, whole exponents too
                a, b = series_add(a, b), series_sub(a, b)
            got, want = series_mul(a, b), _pairwise_series_mul(a, b)
            assert got.truncation is want.truncation
            _assert_same_product(got, want, _series_json)

    def test_planted_vanishing_exponent(self, log_basis):
        e2, e3 = Exponent.of("L2"), Exponent.of("L3")
        s = make_series([(Exponent(), 1)], log_basis, None)
        t = make_series([(e2, Coefficient.damping(e3)), (e3, Fraction(1, 2))], log_basis, None)
        got = series_mul(series_add(s, t), series_sub(s, t))
        want = _pairwise_series_mul(series_add(s, t), series_sub(s, t))
        assert got.terms == want.terms and str(got) == str(want)
        # the cross terms at L2 and L3 cancel; the square of t leaves L2 + L3
        assert e2 not in got.exponents() and e3 not in got.exponents()
        assert e2 + e3 in got.exponents()


class TestOneBoundTest:
    """A product exponent inside the 2^-P window of the bound: the product
    keeps what ``compare`` keeps, and warns once."""

    @pytest.mark.parametrize("value,precision", [
        ("1.0000000001", 20),
        ("1." + "0" * 40 + "1", 128),   # 1 + 10^-41: a is past the bound
        ("0.9999999999", 20),
        ("0." + "9" * 41, 128),          # 1 - 10^-41: a is kept
    ])
    def test_tie_with_the_bound(self, value, precision):
        basis = SymbolBasis.from_pairs([("a", value)], precision=precision)
        a, one = Exponent.of("a"), Exponent.constant(1)
        fifth = [Exponent.constant(Fraction(k, 5)) for k in range(3)]
        left = make_series([(e, 1) for e in fifth], basis, None)
        right = make_series([(Exponent(), 1), (a - fifth[2], 1), (a - fifth[1], 1)], basis, one)
        # a is reached twice (1/5 + (a - 1/5), 2/5 + (a - 2/5)); the bound is 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionTieWarning)
            sums = {ea + eb for ea in left.exponents() for eb in right.exponents()}
            expected = sorted((e for e in sums if basis.compare(e, one) <= 0),
                              key=basis.ordering_key)
            want = _pairwise_series_mul(left, right)
        for multiply in (series_mul, lambda x, y: series_mul(y, x)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = multiply(left, right)
            assert [w.category for w in caught] == [PrecisionTieWarning]
            assert list(got.exponents()) == expected and got.truncation is one
            assert got.terms == want.terms
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            screen = _Screen(basis)
            num = residue_series(left, screen) * residue_series(right, screen)
        assert [w.category for w in caught] == [PrecisionTieWarning]
        assert sorted(num.terms, key=basis.ordering_key) == expected

    def test_no_coefficient_product_past_the_bound(self, log_basis, monkeypatch):
        # every term pair whose exponent is past the bound is skipped before
        # its coefficients are multiplied, however often the exponent recurs
        calls = []
        mul_into = series._mul_into

        def counted(*args):
            calls.append(1)
            return mul_into(*args)

        monkeypatch.setattr(series, "_mul_into", counted)
        rng = random.Random(1703)
        for _ in range(40):
            a, b = _mul_series(rng, log_basis), _mul_series(rng, log_basis)
            bound = product_bound(log_basis, a.truncation, series._effective_min(a),
                                  b.truncation, series._effective_min(b))
            want = sum(len(pa.terms) * len(pb.terms)
                       for ea, pa in a.terms for eb, pb in b.terms
                       if bound is None or log_basis.compare(ea + eb, bound) <= 0)
            calls.clear()
            series_mul(a, b)
            assert len(calls) == want


def _row_major_warnings(basis, multiply, a, b):
    """``multiply(a, b)`` and its warnings, with ``basis.compare`` keeping
    each answer for the call, as ``series_mul``'s ``past`` memo keeps the
    bound test's: the oracle then warns what the full product does."""
    answers: dict = {}
    compare = basis.compare

    def once(x, y):
        if (x, y) not in answers:
            answers[x, y] = compare(x, y)
        return answers[x, y]

    object.__setattr__(basis, "compare", once)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = multiply(a, b)
    finally:
        object.__delattr__(basis, "compare")
    return out, [(w.category, str(w.message)) for w in caught]


def _staircase_series(rng, basis, exponent, most=12):
    """A truncated (or, one time in five, exact) series of up to ``most``
    terms at ``exponent(rng)``, with damped coefficients and x-degrees,
    truncated at its last exponent or at a random one past it."""
    exps = sorted({exponent(rng) for _ in range(rng.randint(1, most))}, key=basis.ordering_key)
    bound = None
    if rng.random() < 0.8:
        bound = max([exps[-1], exponent(rng)], key=basis.ordering_key)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionTieWarning)
        return make_series([(e, _MUL_MAKERS["XPoly"](rng)) for e in exps], basis, bound)


def _geometric_product_counts(monkeypatch, n_terms, m_terms):
    """The product of the ``n_terms`` and ``m_terms`` geometric series on a
    fresh basis, its sums-table lookups and its ``Exponent.__add__`` calls."""
    basis = SymbolBasis.from_pairs([("lam", "0.7")], precision=PREC)
    g, h = geometric_series(basis, n_terms), geometric_series(basis, m_terms)
    counts = {"lookups": 0, "adds": 0}
    add = Exponent.__add__

    def counted_add(x, y):
        counts["adds"] += 1
        return add(x, y)

    class Row:
        def __init__(self, row):
            self.row = row

        def __getitem__(self, e):
            counts["lookups"] += 1
            return self.row[e]

    class Table:
        def __getitem__(self, e):
            return Row(basis._sums[e])

    monkeypatch.setattr(Exponent, "__add__", counted_add)
    monkeypatch.setattr(SymbolBasis, "exponent_sums", lambda self: Table())
    product = series_mul(g, h)
    monkeypatch.undo()
    return product, counts


class TestStaircase:
    """``series_mul`` stops each row at its first sum past the bound by the
    margin, and narrows the later rows: the same terms, printed forms, JSON
    bytes and warnings as the pairwise oracle, with less work."""

    def _check(self, basis, a, b):
        for x, y in ((a, b), (b, a)):
            want, want_warnings = _row_major_warnings(basis, _pairwise_series_mul, x, y)
            got, got_warnings = _row_major_warnings(basis, series_mul, x, y)
            assert got.truncation is want.truncation
            _assert_same_product(got, want, _series_json)
            assert got_warnings == want_warnings

    def test_seeded_truncated_series(self, log_basis):
        rng = random.Random(2701)

        def exponent(rng):
            # mostly positive coordinates; now and then a negative one or a
            # constant, so that a sum's value is not the sum of its sizes
            return Exponent.make({n: rng.choice([0, 1, 2, 3, Fraction(1, 2), -1])
                                  for n in ("L2", "L3", "L5")}, rng.choice([0, 0, 0, 1, -1]))

        for _ in range(60):
            self._check(log_basis, _staircase_series(rng, log_basis, exponent),
                        _staircase_series(rng, log_basis, exponent))

    @pytest.mark.parametrize("precision", [20, 128])
    @pytest.mark.parametrize("gap", [1, 2, 3, 5, 6, 7, 8, 10, 41])
    def test_near_tie_operands_and_bounds(self, precision, gap):
        # a = 1 + 10^-gap or 1 - 10^-gap: at P = 20 the ties start near
        # gap = 7, at P = 128 near gap = 39; between, shadows are not apart
        rng = random.Random(2702 + 100 * precision + gap)
        for value in ("1." + "0" * (gap - 1) + "1", "0." + "9" * gap):
            basis = SymbolBasis.from_pairs([("a", value)], precision=precision)

            def exponent(rng):
                return Exponent.make({"a": rng.choice([0, 0, 1, 1, 2, -1])},
                                     Fraction(rng.randint(-10, 10), 5))

            for _ in range(12):
                self._check(basis, _staircase_series(rng, basis, exponent, 8),
                            _staircase_series(rng, basis, exponent, 8))

    @pytest.mark.parametrize("value,precision", [("1." + "0" * 40 + "1", 128),
                                                 ("1.0000001", 20)])
    def test_a_tie_past_the_bound_stops_no_row(self, value, precision):
        # d = a - 1 is the bound; 2d in row 0 and 3d in row 1 are past it
        # inside the 2^-P window, so each warns and neither may stop a row
        basis = SymbolBasis.from_pairs([("a", value)], precision=precision)
        d = Exponent.of("a") - Exponent.constant(1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionTieWarning)
            left = make_series([(Exponent(), 1), (d, 1)], basis, d)
            right = make_series([(Exponent(), 1), (d * 2, 1)], basis, None)
        self._check(basis, left, right)
        got, caught = _row_major_warnings(basis, series_mul, left, right)
        assert got.exponents() == (Exponent(), d)
        assert [m for _, m in caught if "(3*a - 3) vs (a - 1)" in m]

    def test_operands_rounded_far_from_their_values(self):
        # s - t + 1/10^4 is 0 up to the rounding of t, yet at P = 20 the
        # shadow of 10^6 or 10^7 times it is off by about 10^-4, far past the
        # margin 2^-19, while a sum whose multiples cancel has an exact
        # shadow: the cut must allow for the operands' own rounding (with no
        # slack, 12 of these 300 products lose a kept term)
        rng = random.Random(2714)
        basis = SymbolBasis.from_pairs([("s", "1"), ("t", "1.0001")], precision=20)
        scale = 10 ** rng.randint(6, 7)

        def exponent(rng):
            k = rng.choice([-1, 0, 1]) * scale
            return Exponent.make({"s": k, "t": -k},
                                 Fraction(rng.randint(0, 40), 10) + Fraction(k, 10 ** 4))

        for _ in range(150):
            scale = 10 ** rng.randint(6, 7)
            self._check(basis, _staircase_series(rng, basis, exponent, 10),
                        _staircase_series(rng, basis, exponent, 10))

    def test_square_of_a_geometric_series_works_the_kept_pairs(self, monkeypatch):
        n = 30
        product, counts = _geometric_product_counts(monkeypatch, n, n)
        # (i + j) lam with i, j in 1..30 is kept up to the bound 31 lam
        kept = sum(1 for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n + 1)
        assert kept == 465
        assert [e for e, _ in product.terms] == [Exponent.of("lam") * k for k in range(2, n + 2)]
        # one sum past the bound per row at most, plus product_bound's two
        assert counts["lookups"] - 2 <= kept + n

    def test_rows_past_the_bound_are_not_visited(self, monkeypatch):
        # 30 by 5 terms, bound 6 lam: rows 2 to 6 each stop at the sum
        # 7 lam, narrowing the later rows until row 6 has no column left
        product, counts = _geometric_product_counts(monkeypatch, 30, 5)
        kept = sum(1 for i in range(1, 31) for j in range(1, 6) if i + j <= 6)
        assert kept == 15 and product.truncation == Exponent.of("lam", 6)
        assert counts["lookups"] - 2 == kept + 5

    def test_square_adds_each_unordered_pair_once(self, monkeypatch):
        n = 30
        product, counts = _geometric_product_counts(monkeypatch, n, n)
        # the pairs worked: those kept, up to (n + 1) lam, and one past the
        # bound per row, at (n + 2) lam; product_bound adds the bound and the
        # least exponent once
        unordered = {frozenset((i, j)) for i in range(1, n + 1) for j in range(1, n + 1)
                     if i + j <= n + 2}
        assert counts["adds"] <= len(unordered) + 1

    def test_reversed_pair_reads_the_same_sum(self, monkeypatch):
        basis = SymbolBasis.from_pairs([("L2", "0.69"), ("L3", "1.09")], precision=PREC)
        sums = basis.exponent_sums()
        a, b = Exponent.of("L2", Fraction(1, 2)), Exponent.make({"L3": 2}, -1)
        adds = []
        add = Exponent.__add__
        monkeypatch.setattr(Exponent, "__add__", lambda x, y: adds.append(1) or add(x, y))
        ab = sums[a][b]
        assert sums[b][a] is ab and ab == add(a, b)
        assert len(adds) == 1
        # the rows reach their table weakly: the basis is freed with no cycle
        gc.collect()
        gc.disable()
        try:
            del basis, sums
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTermwiseMaps:
    """The per-basis derivative factors and the termwise x log-derivative
    against the formulas they replace."""

    def test_derivative_factor_table_matches_the_formula(self):
        basis = SymbolBasis.from_pairs([("L2", "0.69"), ("L3", "1.09")], precision=PREC)
        assert basis._factors == {}
        exps = [Exponent.zero(), Exponent.constant(Fraction(3, 4)),
                Exponent.of("L2", Fraction(1, 2)),
                Exponent.make({"L2": Fraction(-2, 3), "L3": 3}, Fraction(5, 7))]
        for e in exps:
            for k in (1, 2, 3):
                want = (-Coefficient.from_exponent(e)) ** k
                got = basis.derivative_factor(e, k)
                assert got.terms == want.terms and str(got) == str(want)
                assert basis.derivative_factor(e, k) is got
        assert basis.derivative_factor(Exponent.zero(), 2).is_zero
        assert len(basis._factors) == 3 * len(exps)
        # the table belongs to one basis instance, equal bases included
        assert SymbolBasis.from_pairs([("L2", "0.69"), ("L3", "1.09")],
                                      precision=PREC)._factors == {}

    def test_x_log_derivative_matches_collect(self):
        rng = random.Random(1801)
        constants = 0
        for _ in range(200):
            p = XPoly.collect((rng.randint(0, 3), _rand_coefficient(rng, 3))
                              for _ in range(rng.randint(0, 4)))
            constants += p.degree is not None and p.terms[0][0] == 0
            want = XPoly.collect((k, c.scale(k)) for k, c in p.terms)
            got = p.x_log_derivative()
            assert got.terms == want.terms and str(got) == str(want)
        assert constants > 50
