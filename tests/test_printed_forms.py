"""Printed forms pinned byte for byte: they expose each class's canonical
term order, which certificates, series files and CLI output depend on."""

from fractions import Fraction

from dforge.diffpoly import eliminate_x
from dforge.grammar import parse_diffpoly, pretty
from dforge.series import Coefficient, Exponent, XPoly, make_series
from dforge.transforms import ode_to_pde
from oracles import substitute_power_series

COEFF = ("-7/3 + L2*L3 - 3/2*L2^2 - L3*exp(-(-2*L2)) + L5*exp(-(1/2*L3 - 1))")


def _coefficient():
    L2, L3, L5 = (Coefficient.from_symbol(n) for n in ("L2", "L3", "L5"))
    return (L2 ** 2).scale(Fraction(-3, 2)) \
        + L5 * Coefficient.damping(Exponent.make({"L3": Fraction(1, 2)}, -1)) \
        + Coefficient.from_fraction(Fraction(-7, 3)) \
        - L3 * Coefficient.damping(Exponent.make({"L2": -2})) + L2 * L3


def test_coefficient():
    assert str(_coefficient()) == COEFF


def test_xpoly():
    p = XPoly.monomial(3, _coefficient()) - XPoly.monomial(1, 1) \
        + XPoly.monomial(0, Coefficient.from_symbol("L5").scale(Fraction(-1, 4))) \
        + XPoly.monomial(2, 1)
    assert str(p) == f"-1/4*L5 + (-1)*x + x^2 + ({COEFF})*x^3"


def test_formal_series(log_basis):
    e2, e3 = Exponent.of("L2"), Exponent.of("L3")
    s = make_series([(e3, _coefficient(), 1), (e2, -2), (e2, Coefficient.from_symbol("L5"), 2),
                     (e2 + e3, Fraction(1, 3))], log_basis, e2 * 3)
    assert str(s) == (f"(-2 + (L5)*x^2) e^(-(L2)s) + (({COEFF})*x) e^(-(L3)s)"
                      " + (1/3) e^(-(L2 + L3)s)  [valid to 3*L2]")


def test_ode_to_pde_one_variable(lam_basis):
    F = parse_diffpoly("f'' + lam*f'*f - 2*f^2 + 3", lam_basis)
    assert str(ode_to_pde(F, 1, ["lam"])) == (
        "(3)*1 + (-lam^2)*x1*G*G_x1 + (-2)*G^2 + (lam^2)*x1*G_x1"
        " + (lam^2)*x1^2*G_x1x1 = 0")


def test_ode_to_pde_two_variables():
    F = parse_diffpoly("f''*f - 2*f'^2 + f")
    assert str(ode_to_pde(F, 2)) == (
        "G + (l2^2)*x2*G*G_x2 + (l2^2)*x2^2*G*G_x2x2 + (l1^2)*x1*G*G_x1"
        " + (2*l1*l2)*x1*x2*G*G_x1x2 + (l1^2)*x1^2*G*G_x1x1"
        " + (-4*l1*l2)*x1*x2*G_x2*G_x1 + (-2*l2^2)*x2^2*G_x2^2"
        " + (-2*l1^2)*x1^2*G_x1^2 = 0")


def test_eliminate_x():
    assert pretty(eliminate_x(parse_diffpoly("x^2*f' - f^2 + x"))) == (
        "-2*f*f'*f'' + 4*f^2*f'*f'' - 4*f^2*f'^3 + 4*f^2*f'^4 - 4*f^3*f'^2*f''"
        " + f^4*f''^2 - f'^2 + f''")


def test_substitute_power_series(lam_basis):
    F = parse_diffpoly("f' + lam*f + lam*f^2", lam_basis)
    residual = substitute_power_series(
        ode_to_pde(F, 1, ["lam"]), [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3)], 5)
    assert [str(c) for c in residual] == ["0", "0", "3/2*lam", "-7*lam", "25/4*lam", "-3*lam"]
