"""Independent oracles that only tests call.

Each is a plain, slow path to a value the package computes another way:
a permutation-sum determinant, a sieve, a power-series substitution into
a PDE, polynomial solutions of difference-differential equations and the
point value of an exponential polynomial.
"""

import itertools
import math
from fractions import Fraction
from typing import Sequence

import mpmath

from dforge.diffpoly import DiffIndeterminate, DiffPolynomial
from dforge.formal_eval import ExpPolynomial
from dforge.numeric import fraction_to_mpf, workprec
from dforge.series import Coefficient, RationalLike, XPoly, power_product
from dforge.transforms import PdeResult


def determinant_leibniz(matrix: Sequence[Sequence[object]]):
    """Plain permutation-sum determinant (independent oracle path)."""
    n = len(matrix)
    if n == 0:
        raise ValueError("determinant requires a non-empty matrix")
    total = None
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        prod = matrix[0][perm[0]]
        for i in range(1, n):
            if not prod:
                break
            prod = prod * matrix[i][perm[i]]
        if inversions % 2:
            prod = -prod
        total = prod if total is None else total + prod
    return total


def primes_up_to(n: int) -> list[int]:
    """Plain sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(math.isqrt(n)) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytearray(len(sieve[p * p:: p]))
    return [i for i, flag in enumerate(sieve) if flag]


def substitute_power_series(result: PdeResult, g_coeffs: Sequence[Fraction],
                            order: int) -> list[Coefficient]:
    """Evaluate a single-variable PDE on G given as a power-series prefix.

    Returns the residual coefficients up to x-degree ``order`` (inclusive);
    all-zero entries mean the series satisfies the equation to that order.
    Rate symbols stay symbolic inside the returned coefficients.
    """
    if result.mu != 1:
        raise ValueError("series substitution is implemented for one variable")

    def cut(p: XPoly) -> XPoly:
        return XPoly(tuple(t for t in p.terms if t[0] <= order))

    partials = [XPoly.collect((k, Coefficient.from_fraction(Fraction(c)))
                              for k, c in enumerate(g_coeffs))]

    def partial(a: int) -> XPoly:
        while len(partials) <= a:
            partials.append(xpoly_derivative(partials[-1]))
        return partials[a]

    total = XPoly.zero()
    for (betas, xpow), c in result.poly.terms:
        term = cut(XPoly.monomial(xpow[0], c))
        for beta, k in betas:
            for _ in range(k):
                term = cut(term * partial(beta[0]))
        total = total + term
    return [total.coefficient(j) for j in range(order + 1)]


# ---------------------------------------------------------------------------
# Evaluation on concrete polynomial solutions (used by elimination checks)
# ---------------------------------------------------------------------------

def xpoly_derivative(p: XPoly) -> XPoly:
    return XPoly.collect((k - 1, c.scale(k)) for k, c in p.terms if k >= 1)


def xpoly_shift(p: XPoly, h: RationalLike) -> XPoly:
    """Substitute x -> x + h by binomial expansion."""
    if h == 0:
        return p
    from math import comb
    return XPoly.collect((j, c.scale(comb(k, j) * h ** (k - j)))
                         for k, c in p.terms for j in range(k + 1))


def evaluate_on_xpolynomial(F: DiffPolynomial, phi: XPoly) -> XPoly:
    """Substitute the concrete polynomial phi(x) for f, x staying explicit."""
    def value(ind: DiffIndeterminate) -> XPoly:
        p = phi
        for _ in range(ind.order):
            p = xpoly_derivative(p)
        return xpoly_shift(p, ind.shift)

    memo: dict = {}
    total = XPoly.zero()
    for (xdeg, powers), c in F.terms:
        part = XPoly.monomial(xdeg, c)
        product = power_product(powers, value, memo)
        total = total + (part if product is None else part * product)
    return total


def exp_poly_value(L: ExpPolynomial, lam) -> mpmath.mpf:
    with workprec(L.basis.precision):
        lam = mpmath.mpf(str(lam)) if isinstance(lam, (int, float, str)) \
            else (fraction_to_mpf(lam, L.basis.precision)
                  if isinstance(lam, Fraction) else lam)
        total = mpmath.mpf(0)
        for t, k, c in L.terms:
            total += c.numeric(L.basis) * lam ** t * mpmath.exp(lam * L.rate_value(k))
        return total
