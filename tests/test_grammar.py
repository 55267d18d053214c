"""Expression grammar: parsing, errors, canonical print round-trips."""

import random
from fractions import Fraction

import pytest

from conftest import PREC
from dforge import grammar
from dforge.diffpoly import DiffIndeterminate, DiffPolynomial
from dforge.errors import ExprSyntaxError, UnknownSymbol
from dforge.io import MAX_RATIONAL_DIGITS
from dforge.grammar import _tokenize, parse_coefficient, parse_diffpoly, pretty
from dforge.series import Coefficient, Exponent, SymbolBasis


class TestParsing:
    def test_parabola_derivative_polynomial(self):
        F = parse_diffpoly("f'^2 - 4*f")
        z1 = DiffIndeterminate.make(1)
        assert F == (DiffPolynomial.from_indeterminate(z1, 2)
                     - DiffPolynomial.from_indeterminate(DiffIndeterminate.make(0)).scale(4))

    def test_shift(self):
        F = parse_diffpoly("f(s+1) - 2*f")
        inds = F.indeterminates()
        assert DiffIndeterminate.make(0, 1) in inds

    def test_negative_fraction_shift(self):
        F = parse_diffpoly("f''(s-1/2)")
        (ind,) = F.indeterminates()
        assert ind.order == 2 and ind.shift == Fraction(-1, 2)

    def test_bivariate(self):
        F = parse_diffpoly("x^2*f'' + f")
        assert F.x_degree == 2 and F.total_degree == 1

    def test_parentheses_and_powers(self):
        F = parse_diffpoly("(f + 1)^2 - f^2 - 2*f - 1")
        assert F.is_zero

    def test_leading_minus(self):
        assert parse_diffpoly("-f + f").is_zero

    def test_exp_factor(self):
        F = parse_diffpoly("exp(-(L2 + 1/2*L3))*f")
        ((mono, coeff),) = F.terms
        nu = Exponent.make({"L2": 1, "L3": Fraction(1, 2)})
        assert coeff == Coefficient.damping(nu)


class TestErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_diffpoly("f' + \n  * 2")
        assert err.value.line == 2

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_diffpoly("f' 2")

    def test_unknown_symbol_with_basis(self):
        basis = SymbolBasis.from_pairs([("L2", "0.69")], precision=PREC)
        with pytest.raises(UnknownSymbol):
            parse_diffpoly("f + Q3", basis)
        assert not parse_diffpoly("f + L2", basis).is_zero

    def test_bare_s_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_diffpoly("s + f")

    def test_zero_denominator(self):
        with pytest.raises(ExprSyntaxError):
            parse_diffpoly("1/0")

    @pytest.mark.parametrize("parse, text, column", [(parse_diffpoly, "f^\u00b2", 3),
                                                     (parse_coefficient, "3\u00b2", 2),
                                                     (parse_diffpoly, "\u2460 + f", 1)])
    def test_non_decimal_digit_is_an_unexpected_character(self, parse, text, column):
        # str.isdigit accepts superscripts and circled digits, int() does not
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert str(err.value) == \
            f"unexpected character {text[column - 1]!r} (line 1, column {column})"

    @pytest.mark.parametrize("opening", ["(", "exp("])
    def test_nesting_cap(self, opening):
        depth = grammar.MAX_NESTING
        assert not parse_diffpoly("(" * depth + "f" + ")" * depth).is_zero
        with pytest.raises(ExprSyntaxError) as err:
            parse_diffpoly(opening * (depth + 1) + "L" + ")" * (depth + 1))
        assert str(err.value) == (f"parentheses nest deeper than {depth} "
                                  f"(line 1, column {len(opening) * (depth + 1)})")

    @pytest.mark.parametrize("text, column", [
        ("10^4300*x + f", 4),        # 4301 digits
        ("2^14285", 3),              # 4301 digits, settled by the bit lengths
        ("(1/10)^4300", 8),          # the denominator
        ("(-3*f)^9100", 8),          # one term: its coefficient
        ("exp(2^14285*L2)", 7),
        ("2^2^7143", 5),             # 4^7143
    ])
    def test_power_past_the_digit_cap(self, text, column):
        with pytest.raises(ExprSyntaxError) as err:
            parse_diffpoly(text)
        assert str(err.value) == (
            f"the power has a coefficient of more than {MAX_RATIONAL_DIGITS} digits "
            f"(line 1, column {column})")

    @pytest.mark.parametrize("text, column", [
        ("1" * 4301 + "*f", 1),
        ("1/" + "3" * 4301, 3),
        ("f^" + "1" * 4301, 3),
        ("f(s+" + "1" * 4301 + ")", 5),
    ], ids=["rational", "denominator", "power", "shift"])
    def test_literal_past_the_digit_cap(self, text, column):
        with pytest.raises(ExprSyntaxError) as err:
            parse_diffpoly(text)
        assert str(err.value) == (f"an integer of more than {MAX_RATIONAL_DIGITS} digits "
                                  f"(line 1, column {column})")

    def test_literal_at_the_digit_cap(self):
        assert parse_coefficient("1" * 4300) == Coefficient.from_fraction(int("1" * 4300))

    @pytest.mark.parametrize("text, value", [
        ("10^4299", 10 ** 4299), ("2^14284", 2 ** 14284), ("(-1/9)^4000", Fraction(1, 9 ** 4000)),
        ("1^99999999", 1), ("0^99999999", 0), ("(-1)^99999999", -1)])
    def test_power_inside_the_digit_cap(self, text, value):
        assert parse_coefficient(text) == Coefficient.from_fraction(value)
        assert parse_coefficient(f"({text})*L2^99999999") == \
            Coefficient.from_fraction(value) * Coefficient.from_symbol("L2", 99999999)

    def test_deep_exp_is_refused_as_nested_exp_inside_the_cap(self):
        depth = grammar.MAX_NESTING
        with pytest.raises(ExprSyntaxError, match="must not nest exp"):
            parse_diffpoly("exp(" * depth + "L" + ")" * depth)


class TestTokens:
    @pytest.mark.parametrize("text, tokens", [
        ("f +\r\n2", [("ident", "f", 1, 1), ("op", "+", 1, 3), ("uint", "2", 2, 1),
                       ("end", "", 2, 2)]),
        ("\tf\t*\tx", [("ident", "f", 1, 2), ("op", "*", 1, 4), ("ident", "x", 1, 6),
                       ("end", "", 1, 7)]),
        ("f\u00a0+\u3000x", [("ident", "f", 1, 1), ("op", "+", 1, 3), ("ident", "x", 1, 5),
                            ("end", "", 1, 6)]),
        ("lam2*f'", [("ident", "lam2", 1, 1), ("op", "*", 1, 5), ("ident", "f", 1, 6),
                     ("quote", "'", 1, 7), ("end", "", 1, 8)]),
        ("\u00e9", [("ident", "\u00e9", 1, 1), ("end", "", 1, 2)]),
        ("a\u00b2", [("ident", "a\u00b2", 1, 1), ("end", "", 1, 3)]),
        ("_b1 + f", [("ident", "_b1", 1, 1), ("op", "+", 1, 5), ("ident", "f", 1, 7),
                     ("end", "", 1, 8)]),
        ("\u0663*f", [("uint", "\u0663", 1, 1), ("op", "*", 1, 2), ("ident", "f", 1, 3),
                      ("end", "", 1, 4)]),
        ("f\n", [("ident", "f", 1, 1), ("end", "", 2, 1)]),
        ("", [("end", "", 1, 1)]),
    ])
    def test_kinds_texts_and_positions(self, text, tokens):
        assert [(t.kind, t.text, t.line, t.column) for t in _tokenize(text)] == tokens

    @pytest.mark.parametrize("text, line, column", [("e\u0301", 1, 2), ("f +\n  # 2", 2, 3),
                                                    ("\u00bd", 1, 1)])
    def test_unexpected_character_position(self, text, line, column):
        with pytest.raises(ExprSyntaxError) as err:
            _tokenize(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_arabic_indic_digit_reads_as_decimal(self):
        assert parse_coefficient("\u0663/2").as_fraction() == Fraction(3, 2)


class TestCoefficientParsing:
    def test_plain(self):
        assert parse_coefficient("3/2").as_fraction() == Fraction(3, 2)

    def test_symbolic(self):
        c = parse_coefficient("L2^2 - 1/3")
        assert c == (Coefficient.from_symbol("L2", 2)
                     - Coefficient.from_fraction(Fraction(1, 3)))

    def test_rejects_f(self):
        with pytest.raises(ExprSyntaxError):
            parse_coefficient("f + 1")


def _random_diffpoly(rng):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        xdeg = rng.randint(0, 2)
        powers = {}
        for _k in range(rng.randint(0, 3)):
            ind = DiffIndeterminate.make(rng.randint(0, 3),
                                         Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
            powers[ind] = powers.get(ind, 0) + rng.randint(1, 2)
        mono = (xdeg, tuple(sorted(powers.items())))
        c = Coefficient.zero()
        for _j in range(rng.randint(1, 2)):
            part = Coefficient.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            if rng.random() < 0.4:
                part = part * Coefficient.from_symbol(rng.choice(["L2", "L3"]),
                                                      rng.randint(1, 2))
            if rng.random() < 0.2:
                part = part * Coefficient.damping(
                    Exponent.make({"L2": Fraction(rng.randint(-2, 2))},
                                  Fraction(rng.randint(-1, 1))))
            c = c + part
        terms[mono] = terms.get(mono, Coefficient.zero()) + c
    return DiffPolynomial.collect(terms.items())


class TestRoundTrip:
    def test_thousand_random_polynomials(self):
        rng = random.Random(20260811)
        for _ in range(1000):
            F = _random_diffpoly(rng)
            text = pretty(F)
            assert parse_diffpoly(text) == F, text

    def test_zero(self):
        assert parse_diffpoly(pretty(DiffPolynomial.zero())).is_zero
