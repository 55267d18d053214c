"""Difference-differential polynomials: partials, total derivatives,
Sylvester resultants, x-elimination."""

import random
from fractions import Fraction

import pytest

import dforge.diffpoly
from oracles import determinant_leibniz, evaluate_on_xpolynomial
from dforge.diffpoly import (
    DiffIndeterminate,
    DiffPolynomial,
    eliminate_x,
    partial_wrt,
    split_x_monomial_content,
    sylvester_matrix,
    sylvester_resultant,
    total_derivative_s,
    total_derivative_x,
    x_coefficients,
    _pivoted_determinant,
)
from dforge.errors import DegenerateInput, ResultantVanished
from dforge.grammar import parse_diffpoly, pretty
from dforge.linalg import determinant
from dforge.series import Coefficient, XPoly


def P(text):
    return parse_diffpoly(text)


class TestPartial:
    def test_power_rule(self):
        assert partial_wrt(P("f'^2 - 4*f"), DiffIndeterminate.make(1)) == P("2*f'")

    def test_shifted_argument(self):
        F = P("f*f(s+1)")
        assert partial_wrt(F, DiffIndeterminate.make(0, 1)) == P("f")

    def test_termwise(self):
        F = P("f' + lam*f + lam*f^2")
        assert partial_wrt(F, DiffIndeterminate.make(0)) == P("lam + 2*lam*f")

    def test_degree_never_grows(self):
        rng = random.Random(5150)
        for _ in range(50):
            F = _random_poly(rng)
            for z in F.indeterminates():
                assert partial_wrt(F, z).total_degree <= F.total_degree


class TestTotalDerivative:
    def test_product_rule(self):
        assert total_derivative_s(P("f^2")) == P("2*f*f'")

    def test_shift_preserved(self):
        assert total_derivative_s(P("f(s+1)")) == P("f'(s+1)")

    def test_x_variant_chain(self):
        assert total_derivative_x(P("f - x^2")) == P("f' - 2*x")

    def test_s_variant_ignores_x(self):
        assert total_derivative_s(P("f - x^2")) == P("f'")

    def test_new_indeterminate_appears(self):
        F = P("f^2 + f'*f(s+1)")
        new = set(total_derivative_s(F).indeterminates()) - set(F.indeterminates())
        assert new  # the proof's key observation: differentiation adds one


class TestSylvester:
    def test_linear_convention(self):
        # documented sign: Res(x - a, x - b) = a - b
        res = sylvester_resultant(P("x - a"), P("x - b"))
        assert res == P("a - b")

    def test_three_by_three_against_leibniz_oracle(self):
        A, B = P("x^2 - f"), P("2*x - f'")
        res = sylvester_resultant(A, B)
        assert res == P("f'^2 - 4*f")
        oracle = determinant_leibniz(sylvester_matrix(A, B))
        assert res == oracle

    def test_shared_roots_vanish(self):
        A = P("x^2 - f")
        assert sylvester_resultant(A, A).is_zero

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            sylvester_resultant(P("f"), P("f'"))

    def test_swap_symmetry_and_multiplicativity(self):
        rng = random.Random(777)
        for _ in range(20):
            A = _random_poly(rng, max_xdeg=2, force_x=True)
            B = _random_poly(rng, max_xdeg=2, force_x=True)
            C = _random_poly(rng, max_xdeg=1, force_x=True)
            rab = sylvester_resultant(A, B)
            rba = sylvester_resultant(B, A)
            assert rab == rba or rab == -rba
            lhs = sylvester_resultant(A, B * C)
            rhs = sylvester_resultant(A, B) * sylvester_resultant(A, C)
            assert lhs == rhs


def _units_at(matrix):
    return [(i, j) for i, row in enumerate(matrix) for j, e in enumerate(row)
            if len(e.terms) == 1 and e.terms[0][0] == (0, ()) and e.terms[0][1].is_rational]


def _random_rational(rng):
    n = rng.choice([k for k in range(-6, 7) if k])
    return n if rng.random() < 0.6 else Fraction(n, rng.randint(2, 5))


def _random_x_coefficient(rng, leading=False):
    """Rational constant, a-multiples and f, f', f(s+1) terms; a leading
    coefficient is nonzero and carries f or a about a third of the time."""
    inds = [DiffPolynomial.from_indeterminate(DiffIndeterminate.make(o, h))
            for o, h in ((0, 0), (1, 0), (0, 1))]
    a = DiffPolynomial.from_coefficient(Coefficient.from_symbol("a"))
    while True:
        c = DiffPolynomial.zero()
        if rng.random() < (0.6 if leading else 0.5):
            c = c + DiffPolynomial.from_coefficient(_random_rational(rng))
        if rng.random() < (0.35 if leading else 0.2):
            c = c + rng.choice(inds + [a]).scale(_random_rational(rng))
        if rng.random() < 0.1:
            c = c + (a * rng.choice(inds)).scale(_random_rational(rng))
        if c or not leading:
            return c


def _random_in_x(rng, degree):
    F = DiffPolynomial.x_power(degree) * _random_x_coefficient(rng, leading=True)
    for k in range(degree):
        F = F + DiffPolynomial.x_power(k) * _random_x_coefficient(rng)
    return F


def _random_pair(rng, derivative):
    """(F, dF/dx) or two independent polynomials, x-degrees 1 to 5, at most
    9 Sylvester rows: the oracle's minor expansion grows as n * 2^n."""
    while True:
        if derivative:
            A = _random_in_x(rng, rng.randint(1, 5))
            B = total_derivative_x(A)
        else:
            da = rng.randint(1, 5)
            A, B = _random_in_x(rng, da), _random_in_x(rng, rng.randint(1, 6 - da))
        if A.x_degree + B.x_degree <= 9:
            return A, B


def _record_blocks(monkeypatch):
    """Sizes of the blocks the resultant leaves to the minor expansion."""
    sizes = []

    def recording(matrix, *args):
        sizes.append(len(matrix))
        return determinant(matrix, *args)

    monkeypatch.setattr(dforge.diffpoly, "determinant", recording)
    return sizes


class TestUnitPivotResultant:
    """Gaussian steps on rational pivots against the full minor expansion."""

    def test_random_pairs_match_the_minor_expansion(self, monkeypatch):
        rng = random.Random(2323)
        sizes = _record_blocks(monkeypatch)
        leibniz = pivoted_down = left_over = 0
        for case in range(200):
            A, B = _random_pair(rng, derivative=case % 2)
            matrix = sylvester_matrix(A, B)
            res = sylvester_resultant(A, B)
            assert res == determinant(matrix), (A, B)
            if len(matrix) <= 6:
                assert res == determinant_leibniz(matrix), (A, B)
                leibniz += 1
            if sizes[-1] == 1:
                pivoted_down += 1
            elif sizes[-1] < len(matrix):
                left_over += 1
        assert leibniz >= 100 and pivoted_down >= 40 and left_over >= 40

    def test_anti_diagonal_units(self):
        rng = random.Random(61)
        f = P("f")
        for n in range(2, 7):
            for filled in (False, True):
                M = [[f.scale(_random_rational(rng)) if filled and i + j < n - 1
                      else DiffPolynomial.zero() for j in range(n)] for i in range(n)]
                for i in range(n):
                    M[i][n - 1 - i] = DiffPolynomial.from_coefficient(_random_rational(rng))
                assert _units_at(M)[0] == (0, n - 1)
                assert _pivoted_determinant(M) == determinant_leibniz(M) == determinant(M)

    def test_first_unit_off_the_diagonal(self):
        M = [[P("f"), P("a"), P("f' + 1"), P("2*f(s+1)")],
             [P("a*f"), P("f - 3"), P("5/2"), P("f'")],
             [P("7"), P("f"), P("-1"), P("a")],
             [P("f'"), P("0"), P("f*f'"), P("-4")]]
        assert _units_at(M)[0] == (1, 2)
        assert _pivoted_determinant(M) == determinant_leibniz(M) == determinant(M)

    def test_no_unit_expands_the_whole_matrix(self, monkeypatch):
        sizes = _record_blocks(monkeypatch)
        M = [[P("f"), P("a"), P("f' + 1")],
             [P("a*f"), P("0"), P("2*a")],
             [P("f(s+1) - 1"), P("f'"), P("f^2")]]
        assert _units_at(M) == []
        assert _pivoted_determinant(M) == determinant_leibniz(M)
        assert sizes == [3]

    def test_input_matrix_is_left_as_it_was(self):
        M = [[P("f"), P("2")], [P("3"), P("f'")]]
        before = [list(row) for row in M]
        assert _pivoted_determinant(M) == P("f*f' - 6")
        assert M == before

    def test_degree_five_elimination_expands_at_most_four_rows(self, monkeypatch):
        sizes = _record_blocks(monkeypatch)
        F = P("2*f + f' + 7 + 4*x - 11*x^2 - 6*x^3 + 10*x^4 + 4*x^5")
        R = eliminate_x(F)
        matrix = sylvester_matrix(F, total_derivative_x(F))
        assert len(matrix) == 9 and sizes and max(sizes) <= 4
        assert R == determinant(matrix)


class TestEliminateX:
    def test_classic_parabola(self):
        R = eliminate_x(P("f - x^2"))
        assert R == P("f'^2 - 4*f") or R == -P("f'^2 - 4*f")

    def test_x_free_returned_unchanged(self):
        F = P("f'' - f")
        assert eliminate_x(F) is F

    def test_monomial_content_case(self):
        # Res_x(x*f, f + x*f') = f^2 by the 2x2 determinant
        R = eliminate_x(P("x*f"))
        assert R == P("f^2")

    def test_solution_annihilation(self):
        F = P("f - x^2")
        R = eliminate_x(F)
        phi = XPoly.monomial(2, 1)  # x^2
        assert evaluate_on_xpolynomial(F, phi).is_zero
        assert evaluate_on_xpolynomial(R, phi).is_zero

    def test_random_solution_families(self):
        # F = (f - p(x)) * A vanishes on f = p(x); so must the eliminated form
        rng = random.Random(31337)
        checked = 0
        for _ in range(60):
            deg = rng.randint(1, 3)
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(deg + 1)]
            if all(c == 0 for c in coeffs[1:]):
                coeffs[deg] = Fraction(1)
            p_str = " + ".join(f"{c}*x^{k}" if c >= 0 else f"0 - {-c}*x^{k}"
                               for k, c in enumerate(coeffs) if c != 0) or "0"
            sol = P(p_str.replace("x^0", "1"))
            F = (P("f") - sol) * _random_poly(rng, max_xdeg=1, max_terms=2, nonzero=True)
            if F.x_degree == 0:
                continue
            try:
                R = eliminate_x(F)
            except ResultantVanished:
                continue
            phi = XPoly.zero()
            for k, c in enumerate(coeffs):
                phi = phi + XPoly.monomial(k, c)
            assert evaluate_on_xpolynomial(R, phi).is_zero
            checked += 1
        assert checked >= 30

    def test_split_x_content(self):
        m, G = split_x_monomial_content(P("x^2*f + x^3*f'"))
        assert m == 2 and G == P("f + x*f'")

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            eliminate_x(DiffPolynomial.zero())


class TestXCoefficients:
    def test_round_trip(self):
        F = P("x^2*f'' + x*f' + f + 1")
        parts = x_coefficients(F)
        rebuilt = DiffPolynomial.zero()
        for k, c in enumerate(parts):
            rebuilt = rebuilt + DiffPolynomial.x_power(k) * c
        assert rebuilt == F


def _random_poly(rng, max_xdeg=3, max_terms=4, nonzero=False, force_x=False):
    """Sparse random polynomial: x-degree <= 3, f-degree <= 3, small coeffs."""
    while True:
        terms = []
        for _ in range(rng.randint(1, max_terms)):
            xdeg = rng.randint(0, max_xdeg)
            powers = {}
            for _k in range(rng.randint(0, 2)):
                ind = DiffIndeterminate.make(rng.randint(0, 2))
                powers[ind] = powers.get(ind, 0) + 1
            if sum(powers.values()) > 3:
                continue
            mono = (xdeg, tuple(sorted(powers.items())))
            terms.append((mono, Coefficient.from_fraction(rng.randint(-3, 3))))
        d = {}
        for m, c in terms:
            d[m] = d.get(m, Coefficient.zero()) + c
        F = DiffPolynomial.collect(d.items())
        if nonzero and F.is_zero:
            continue
        if force_x and F.x_degree == 0:
            continue
        return F


class TestPrinterRoundTrip:
    def test_examples(self):
        for text in ("f'' - 1", "f'^2 - 4*f", "f(s+1) - 2*f", "x^2*f'' + f",
                     "f' + lam*f + lam*f^2"):
            F = P(text)
            assert parse_diffpoly(pretty(F)) == F
