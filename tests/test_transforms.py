"""Rescaling invariance, ODE-to-PDE conversion, functional-equation checks."""

import gc
from fractions import Fraction

import pytest

from conftest import PREC, geometric_series
from oracles import substitute_power_series
from dforge import transforms
from dforge.errors import DforgeError, NotInLatticeError, ShiftPresent, ZeroScalar
from dforge.grammar import parse_diffpoly
from dforge.lattice import integer_basis, log_basis_for_indices
from dforge.obstruction import Certificate, recheck
from dforge.series import (
    Coefficient,
    Exponent,
    FormalSeries,
    XPoly,
    make_series,
    series_mul,
)
from dforge.transforms import (
    PdePolynomial,
    ode_to_pde,
    rescale,
    verify_hilbert_zeta,
    verify_rescale_invariance,
    zeta_xs_prefix,
)


class TestRescale:
    def test_unit_scalars_identity(self, lam_basis):
        phi = geometric_series(lam_basis, 6)
        B = integer_basis([e for e, _ in phi.terms], lam_basis)
        assert rescale(phi, B, [Fraction(1)]) == phi

    def test_geometric_weights(self, lam_basis):
        phi = geometric_series(lam_basis, 5)
        B = integer_basis([e for e, _ in phi.terms], lam_basis)
        gamma = Fraction(2, 3)
        psi = rescale(phi, B, [gamma])
        for n, (e, p) in enumerate(psi.terms, start=1):
            assert p.constant().as_fraction() == gamma ** n

    def test_multi_symbol_weights(self):
        basis, vecs = log_basis_for_indices(range(1, 7), PREC)
        phi = make_series([(vecs[n], 1) for n in range(1, 7)], basis, vecs[6])
        B = integer_basis([e for e, _ in phi.terms], basis)
        # generators are L2, L3, L5; scale only the L2 direction
        scalars = []
        for g in B.generators:
            scalars.append(Fraction(2) if g == Exponent.of("L2") else Fraction(1))
        psi = rescale(phi, B, scalars)
        coeff = {e: p.constant().as_fraction() for e, p in psi.terms}
        assert coeff[vecs[4]] == 4   # 4 = 2^2
        assert coeff[vecs[6]] == 2   # 6 = 2*3
        assert coeff[vecs[3]] == 1

    def test_zero_scalar_rejected(self, lam_basis):
        phi = geometric_series(lam_basis, 3)
        B = integer_basis([e for e, _ in phi.terms], lam_basis)
        with pytest.raises(ZeroScalar):
            rescale(phi, B, [Fraction(0)])

    def test_not_in_lattice(self, lam_basis):
        lam = Exponent.of("lam")
        phi = make_series([(lam * Fraction(1, 2), 1)], lam_basis, lam)
        B = integer_basis([lam], lam_basis)
        with pytest.raises(NotInLatticeError):
            rescale(phi, B, [Fraction(2)])

    def test_composition_law(self, lam_basis):
        phi = geometric_series(lam_basis, 6)
        B = integer_basis([e for e, _ in phi.terms], lam_basis)
        c1, c2 = Fraction(2), Fraction(3, 5)
        assert rescale(rescale(phi, B, [c1]), B, [c2]) == rescale(phi, B, [c1 * c2])

    def test_multiplicative_over_products(self, lam_basis):
        lam = Exponent.of("lam")
        bound = lam * 8
        a = make_series([(lam, 1), (lam * 2, 3)], lam_basis, bound)
        b = make_series([(lam, 2), (lam * 3, 1)], lam_basis, bound)
        B = integer_basis([lam], lam_basis)
        c = [Fraction(5, 7)]
        lhs = rescale(series_mul(a, b), B, c)
        rhs = series_mul(rescale(a, B, c), rescale(b, B, c))
        assert lhs == rhs


class TestRescaleInvariance:
    def test_geometric_half(self, lam_basis):
        phi = geometric_series(lam_basis, 15)
        F = parse_diffpoly("f' + lam*f + lam*f^2", lam_basis)
        B = integer_basis([e for e, _ in phi.terms], lam_basis)
        cert = verify_rescale_invariance(F, phi, B, [Fraction(1, 2)])
        assert cert.evidence["rescaled_residual"] == "zero"
        assert recheck(cert).ok

    def test_trivial_scalars(self, lam_basis):
        phi = geometric_series(lam_basis, 8)
        F = parse_diffpoly("f' + lam*f + lam*f^2", lam_basis)
        B = integer_basis([e for e, _ in phi.terms], lam_basis)
        assert verify_rescale_invariance(F, phi, B, [Fraction(1)]).kind == \
            "FormalSatisfaction"

    def test_two_symbol_derived_equation(self, log_basis):
        from dforge.wronskian import derive_ade
        phi = FormalSeries(log_basis, (
            (Exponent.of("L2"), XPoly.from_coefficient(Coefficient.one())),
            (Exponent.of("L3"), XPoly.from_coefficient(Coefficient.one()))), None)
        F = derive_ade(phi, 3)
        B = integer_basis([e for e, _ in phi.terms], log_basis)
        cert = verify_rescale_invariance(F, phi, B, [Fraction(2), Fraction(3)])
        assert cert.evidence["rescaled_residual"] == "zero"


class TestOdeToPde:
    def test_riccati_fixture(self, lam_basis):
        F = parse_diffpoly("f' + lam*f + lam*f^2", lam_basis)
        result = ode_to_pde(F, 1, ["lam"])
        lam = Coefficient.from_symbol("lam")
        G = PdePolynomial.g_value(1)
        # expected: lam*(G + G^2 - x*G')
        gx_mono = ((((1,), 1),), (1,))
        expected = (G + G * G).scale(lam) + PdePolynomial(
            1, ((gx_mono, -lam),))
        assert result.poly == expected or result.poly == -expected

    def test_riccati_solution_series(self, lam_basis):
        # G = x/(1-x) satisfies x*G' = G + G^2: residual zero to order 30
        F = parse_diffpoly("f' + lam*f + lam*f^2", lam_basis)
        result = ode_to_pde(F, 1, ["lam"])
        coeffs = [Fraction(0)] + [Fraction(1)] * 30
        residual = substitute_power_series(result, coeffs, 30)
        assert all(c.is_zero for c in residual)

    def test_euler_equation(self, lam_basis):
        # f' + lam*f on G(x e^{-lam s}): lam*(G - x G'), solved by G = x
        F = parse_diffpoly("f' + lam*f", lam_basis)
        result = ode_to_pde(F, 1, ["lam"])
        residual = substitute_power_series(result, [Fraction(0), Fraction(1)], 10)
        assert all(c.is_zero for c in residual)

    def test_second_order_symbolic_rates(self):
        F = parse_diffpoly("f'' - f'")
        result = ode_to_pde(F, 1)
        # l1^2*x^2*G'' + (l1^2 + l1)*x*G' with the rate symbol kept free
        l1 = Coefficient.from_symbol("l1")
        gx = ((((1,), 1),), (1,))
        gxx = ((((2,), 1),), (2,))
        expected = PdePolynomial(1, ((gx, l1 * l1 + l1), (gxx, l1 * l1)))
        assert result.poly == expected

    def test_shift_rejected(self):
        with pytest.raises(ShiftPresent):
            ode_to_pde(parse_diffpoly("f(s+1) - 2*f"), 1)

    def test_explicit_x_rejected(self):
        with pytest.raises(ValueError):
            ode_to_pde(parse_diffpoly("x*f' + f"), 1)


class TestHilbert:
    def test_small_grid(self):
        cert = verify_hilbert_zeta(12, 2, 2)
        assert cert.evidence["residuals_all_zero"] is True
        assert cert.evidence["checks"] == 27
        assert recheck(cert).ok

    @pytest.mark.parametrize("counts", [(-1, 2, 1), (2, -1, 1), (2, 2, -1)])
    def test_negative_count_raises(self, counts):
        # a negative count would make an empty grid, 0 checks "all zero"
        nu, mu, ds = counts
        with pytest.raises(ValueError, match="non-negative"):
            verify_hilbert_zeta(6, nu, mu, ds)

    @pytest.mark.parametrize("args, match", [
        ((1001, 1, 1, 1), "prefix bound"),
        ((10 ** 9, 1, 1, 1), "prefix bound"),
        ((6, 10 ** 9, 1, 1), "more than 100 checks"),
        ((6, 1, 10 ** 9, 1), "more than 100 checks"),
        ((6, 1, 1, 10 ** 9), "more than 100 checks"),
        ((6, 4, 4, 4), "more than 100 checks"),   # 125 checks
        ((6, 0, 0, 5), "max_s_derivatives=5"),
    ])
    def test_grid_past_the_caps_is_refused_before_any_prefix(self, args, match, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a prefix basis built past the caps")

        monkeypatch.setattr(transforms, "log_basis_for_indices", refuse)
        with pytest.raises(ValueError, match=match):
            verify_hilbert_zeta(*args)

    def test_grids_at_the_caps_are_checked(self):
        # the caps the README documents; nu = mu = 4, d <= 3 is 100 checks,
        # and d = 4 alone is inside its cap
        assert (transforms.MAX_HILBERT_N, transforms.MAX_HILBERT_CHECKS,
                transforms.MAX_HILBERT_S_DERIVATIVES) == (1000, 100, 4)
        assert verify_hilbert_zeta(6, 4, 4, 3).evidence["checks"] == 100
        assert verify_hilbert_zeta(6, 0, 0, 4).evidence["checks"] == 5

    def test_certificate_of_an_empty_grid_fails_its_rebuild(self):
        cert = verify_hilbert_zeta(6, 1, 1)
        obj = cert.to_obj()
        obj["evidence"].update(max_weight_ops=-1, checks=0)
        result = recheck(Certificate.from_obj(obj))
        assert not result.ok and result.mismatches[0].startswith("rebuild failed")

    def test_each_prefix_derivative_taken_once(self, monkeypatch):
        # mu = nu = 2 and d <= 1 give 18 checks over shifts 0..4: ten
        # distinct (shift, d) derivatives, each taken once
        calls = []
        real = transforms.differentiate_s

        def counted(a, k=1):
            calls.append((id(a), k))
            return real(a, k)

        monkeypatch.setattr(transforms, "differentiate_s", counted)
        cert = verify_hilbert_zeta(12, 2, 2, 1)
        assert cert.evidence["checks"] == 18
        assert len(calls) == len(set(calls)) == 10

    def test_passing_grid_builds_no_difference(self, monkeypatch):
        # each identity is decided by equality of its canonical sides; the
        # difference series is built only for a failure's message
        def refuse(a, b):
            raise AssertionError("difference built on a passing check")

        monkeypatch.setattr(transforms, "series_sub", refuse)
        assert verify_hilbert_zeta(12, 2, 2, 1).evidence["checks"] == 18

    def test_first_failure_in_grid_order(self, monkeypatch):
        # with x d/dx as the identity the first failing check is the first
        # with mu = 1: nu = 0, d = 0
        monkeypatch.setattr(transforms, "x_log_derivative", lambda s: s)
        with pytest.raises(DforgeError, match=r"nonzero at mu=1, nu=0, d=0: "):
            verify_hilbert_zeta(12, 2, 2, 1)

    def test_frees_by_reference_counting(self):
        # the derivative table leaves no reference cycle for the cyclic GC
        gc.collect()
        gc.disable()
        try:
            verify_hilbert_zeta(12, 2, 2, 1)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_weight_operator_matches_shift(self):
        # x d/dx of the prefix equals the shift-by-one prefix exactly
        from dforge.series import series_sub, x_log_derivative
        lhs = x_log_derivative(zeta_xs_prefix(5, 0, PREC))
        rhs = zeta_xs_prefix(5, 1, PREC)
        assert series_sub(lhs, rhs).is_zero

    def test_double_weight(self):
        from dforge.series import series_sub, x_log_derivative
        lhs = x_log_derivative(x_log_derivative(zeta_xs_prefix(4, 0, PREC)))
        assert series_sub(lhs, zeta_xs_prefix(4, 2, PREC)).is_zero

    def test_s_derivative_commutes(self):
        from dforge.series import differentiate_s, series_sub, x_log_derivative
        lhs = x_log_derivative(differentiate_s(zeta_xs_prefix(6, 0, PREC)))
        rhs = differentiate_s(zeta_xs_prefix(6, 1, PREC))
        assert series_sub(lhs, rhs).is_zero

    def test_prefix_shape(self):
        s = zeta_xs_prefix(6, 0, PREC)
        assert len(s.terms) == 6
        assert s.degrees() == (1, 2, 3, 4, 5, 6)
