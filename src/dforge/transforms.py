"""Coefficient rescaling, ODE-to-PDE conversion, and the functional-equation
verifier for the bivariate zeta prefix.

Rescaling multiplies each coefficient by a product of scalar powers given by
the term's integer weight vector over a lattice basis; a series formal-
satisfying an equation keeps satisfying it under any such rescaling, and the
certificate re-checks both the residual and the homogeneity mechanism behind
it.  The ODE-to-PDE conversion expands s-derivatives of G(c1 e^(-l1 s), ...)
through the multivariate chain rule and reads the result at s = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .diffpoly import DiffPolynomial, partial_wrt
from .errors import (
    DforgeError,
    InvarianceViolated,
    NotInLatticeError,
    ShiftPresent,
    ZeroScalar,
)
from .formal_eval import substitute
from .grammar import pretty
from .io import basis_to_obj, exponent_to_obj, frac_str, series_to_obj
from .lattice import LatticeBasis, express, log_basis_for_indices
from .obstruction import FORMAL_SATISFACTION, Certificate
from .series import (
    Coefficient,
    Exponent,
    FormalSeries,
    SymbolBasis,
    differentiate_s,
    make_series,
    series_sub,
    x_log_derivative,
)


# ---------------------------------------------------------------------------
# Rescaling
# ---------------------------------------------------------------------------

def rescale(phi: FormalSeries, B: LatticeBasis, scalars: Sequence[Fraction]) -> FormalSeries:
    """Multiply each coefficient by prod scalars[k] ** weight_k(exponent).

    The weight vector is the exact integer expression of the term's exponent
    over the lattice generators; exponents outside the lattice raise
    :class:`NotInLatticeError`, zero scalars raise :class:`ZeroScalar`.
    """
    scalars = [Fraction(c) for c in scalars]
    if len(scalars) != B.rank:
        raise ValueError(f"expected {B.rank} scalars, got {len(scalars)}")
    if any(c == 0 for c in scalars):
        raise ZeroScalar("rescaling constants must be nonzero")
    new_terms = []
    for e, p in phi.terms:
        vec = express(e, B)
        if vec is None:
            raise NotInLatticeError(e)
        factor = Fraction(1)
        for c, a in zip(scalars, vec):
            factor *= c ** a
        new_terms.append((e, p.scale(Coefficient.from_fraction(factor))))
    return FormalSeries(phi.basis, tuple(new_terms), phi.truncation)


def verify_rescale_invariance(F: DiffPolynomial, phi: FormalSeries, B: LatticeBasis,
                              scalars: Sequence[Fraction],
                              horizon: Optional[Exponent] = None) -> Certificate:
    """Certificate that the rescaled series still satisfies F, plus the
    homogeneity mechanism: the residual of any first partial transforms
    exactly by the weight-vector rescaling.

    A nonzero rescaled residual or a mechanism mismatch raises
    :class:`InvarianceViolated` (it would contradict the invariance law).
    """
    base = substitute(F, phi, horizon)
    if not base.is_zero:
        raise ValueError("precondition: the original series must satisfy the "
                         f"equation up to the horizon ({base.describe()})")
    psi = rescale(phi, B, scalars)
    rescaled = substitute(F, psi, horizon)
    if not rescaled.is_zero:
        raise InvarianceViolated(
            f"rescaled series fails the equation: {rescaled.describe()}")
    mechanism_checks = 0
    for ind in F.indeterminates():
        Fz = partial_wrt(F, ind)
        ra = substitute(Fz, phi, horizon)
        rb = substitute(Fz, psi, horizon)
        expected = rescale(ra.series, B, scalars)
        if rb.series != expected:
            raise InvarianceViolated(
                f"homogeneity mechanism mismatch on the partial wrt "
                f"f^({ind.order})(s+{ind.shift})")
        mechanism_checks += 1
    evidence = {
        "check": "rescale",
        "series": series_to_obj(phi),
        "equation": pretty(F),
        "scalars": [frac_str(c) for c in scalars],
        "horizon": None if base.horizon is None else exponent_to_obj(base.horizon),
        "residual": "zero",
        "rescaled_residual": "zero",
        "mechanism_checks": mechanism_checks,
    }
    return Certificate(FORMAL_SATISFACTION, len(phi.terms), evidence,
                       basis_to_obj(phi.basis))


# ---------------------------------------------------------------------------
# ODE -> PDE at s = 0
# ---------------------------------------------------------------------------

# PDE monomial: (partials, xpowers) where partials is a sorted tuple of
# (multi-index, power) over the arguments of G and xpowers is a tuple of
# per-variable exponents.
PdeMonomial = tuple[tuple[tuple[tuple[int, ...], int], ...], tuple[int, ...]]


@dataclass(frozen=True)
class PdePolynomial:
    """Polynomial in the partial derivatives of G, the x variables, and the
    rate symbols, with exact coefficients."""

    mu: int
    terms: tuple[tuple[PdeMonomial, Coefficient], ...] = ()

    @staticmethod
    def _from_dict(mu: int, d: dict) -> "PdePolynomial":
        return PdePolynomial(mu, tuple(sorted(
            ((m, c) for m, c in d.items() if not c.is_zero))))

    @staticmethod
    def zero(mu: int) -> "PdePolynomial":
        return PdePolynomial(mu)

    @staticmethod
    def g_value(mu: int) -> "PdePolynomial":
        mono = ((((0,) * mu), 1),), (0,) * mu
        return PdePolynomial(mu, ((mono, Coefficient.one()),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PdePolynomial") -> "PdePolynomial":
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, Coefficient.zero()) + c
        return PdePolynomial._from_dict(self.mu, d)

    def __neg__(self) -> "PdePolynomial":
        return PdePolynomial(self.mu, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "PdePolynomial") -> "PdePolynomial":
        return self + (-other)

    def __mul__(self, other: "PdePolynomial") -> "PdePolynomial":
        d: dict = {}
        for (pa, xa), ca in self.terms:
            for (pb, xb), cb in other.terms:
                powers = dict(pa)
                for beta, k in pb:
                    powers[beta] = powers.get(beta, 0) + k
                mono = (tuple(sorted(powers.items())),
                        tuple(a + b for a, b in zip(xa, xb)))
                prod = ca * cb
                d[mono] = d.get(mono, Coefficient.zero()) + prod
        return PdePolynomial._from_dict(self.mu, d)

    def scale(self, c: Coefficient) -> "PdePolynomial":
        return PdePolynomial._from_dict(self.mu, {m: v * c for m, v in self.terms})

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        chunks = []
        for (partials, xpow), c in self.terms:
            bits = []
            for i, a in enumerate(xpow):
                if a:
                    bits.append(f"x{i + 1}" if a == 1 else f"x{i + 1}^{a}")
            for beta, k in partials:
                name = "G" if not any(beta) else \
                    "G_" + "".join(f"x{i + 1}" * a for i, a in enumerate(beta))
                bits.append(name if k == 1 else f"{name}^{k}")
            body = "*".join(bits) if bits else "1"
            cs = str(c)
            chunks.append(body if cs == "1" else f"({cs})*{body}")
        return " + ".join(chunks)


def _chain_derivative(p: PdePolynomial, lambda_names: Sequence[str]) -> PdePolynomial:
    """d/ds of p evaluated on arguments x_i(s) with x_i' = -lambda_i * x_i."""
    mu = p.mu
    d: dict = {}

    def add(mono, coeff):
        d[mono] = d.get(mono, Coefficient.zero()) + coeff

    for (partials, xpow), c in p.terms:
        for idx, (beta, k) in enumerate(partials):
            for i in range(mu):
                up = tuple(b + (1 if j == i else 0) for j, b in enumerate(beta))
                powers = dict(partials)
                if k == 1:
                    del powers[beta]
                else:
                    powers[beta] = k - 1
                powers[up] = powers.get(up, 0) + 1
                new_x = tuple(a + (1 if j == i else 0) for j, a in enumerate(xpow))
                factor = Coefficient.from_symbol(lambda_names[i]).scale(-k)
                add((tuple(sorted(powers.items())), new_x), c * factor)
        for i, q in enumerate(xpow):
            if q:
                factor = Coefficient.from_symbol(lambda_names[i]).scale(-q)
                add((partials, xpow), c * factor)
    return PdePolynomial._from_dict(mu, d)


@dataclass(frozen=True)
class PdeResult:
    """Emitted partial differential equation with its generating data."""

    poly: PdePolynomial
    mu: int
    lambda_names: tuple[str, ...]
    order: int

    def __str__(self) -> str:
        return f"{self.poly} = 0"


def ode_to_pde(F: DiffPolynomial, mu: int,
               lambda_names: Optional[Sequence[str]] = None) -> PdeResult:
    """Expand F on G(c1 e^(-l1 s), ..., c_mu e^(-l_mu s)) and set s = 0.

    The rate symbols stay free in the emitted polynomial (the identity must
    hold coefficient-wise in them); shifts have no s = 0 analogue here and
    raise :class:`ShiftPresent`.
    """
    if F.has_shifts():
        raise ShiftPresent("difference terms have no s=0 partial-differential analogue")
    if F.x_degree != 0:
        raise ValueError("the equation must not involve the explicit variable x")
    if mu < 1:
        raise ValueError("variable count must be positive")
    names = tuple(lambda_names) if lambda_names is not None else \
        tuple(f"l{i + 1}" for i in range(mu))
    if len(names) != mu:
        raise ValueError("one rate symbol per variable required")
    order = max((ind.order for ind in F.indeterminates()), default=0)
    derivs = [PdePolynomial.g_value(mu)]
    for _ in range(order):
        derivs.append(_chain_derivative(derivs[-1], names))
    total = PdePolynomial.zero(mu)
    for (xdeg, powers), c in F.terms:
        part = None
        for ind, k in powers:
            factor = derivs[ind.order]
            for _ in range(k):
                part = factor if part is None else part * factor
        if part is None:
            part = PdePolynomial(mu, (((() , (0,) * mu), Coefficient.one()),))
        total = total + part.scale(c)
    return PdeResult(total, mu, names, order)


def substitute_power_series(result: PdeResult, g_coeffs: Sequence[Fraction],
                            order: int) -> list[Coefficient]:
    """Evaluate a single-variable PDE on G given as a power-series prefix.

    Returns the residual coefficients up to x-degree ``order`` (inclusive);
    all-zero entries mean the series satisfies the equation to that order.
    Rate symbols stay symbolic inside the returned coefficients.
    """
    if result.mu != 1:
        raise ValueError("series substitution is implemented for one variable")
    base = [Coefficient.from_fraction(Fraction(c)) for c in g_coeffs]

    def derivative(series: list[Coefficient]) -> list[Coefficient]:
        return [series[j + 1].scale(j + 1) for j in range(len(series) - 1)]

    partial_cache: dict[int, list[Coefficient]] = {0: base}

    def partial(a: int) -> list[Coefficient]:
        if a not in partial_cache:
            partial_cache[a] = derivative(partial(a - 1))
        return partial_cache[a]

    def mul(a: list[Coefficient], b: list[Coefficient]) -> list[Coefficient]:
        out = [Coefficient.zero()] * (order + 1)
        for i, ca in enumerate(a[: order + 1]):
            if ca.is_zero:
                continue
            for j, cb in enumerate(b[: order + 1 - i]):
                if cb.is_zero:
                    continue
                out[i + j] = out[i + j] + ca * cb
        return out

    total = [Coefficient.zero()] * (order + 1)
    for (partials, xpow), c in result.poly.terms:
        term = [Coefficient.zero()] * (order + 1)
        term[0] = Coefficient.one()
        for beta, k in partials:
            p = partial(beta[0])
            for _ in range(k):
                term = mul(term, p)
        shift = xpow[0]
        if shift:
            term = ([Coefficient.zero()] * shift + term)[: order + 1]
        for j in range(order + 1):
            if not term[j].is_zero:
                total[j] = total[j] + term[j] * c
    return total


# ---------------------------------------------------------------------------
# Hilbert functional equation for the bivariate zeta prefix
# ---------------------------------------------------------------------------

def zeta_xs_prefix(N: int, shift: int, precision: int = 128,
                   basis: Optional[SymbolBasis] = None,
                   exponents: Optional[dict] = None) -> FormalSeries:
    """The prefix sum over n <= N of x^n * n^shift * n^(-s).

    Integer s-shifts act as exact coefficient factors n^shift, so the
    object stays in the rational-coefficient domain.
    """
    if N < 2:
        raise ValueError("prefix bound must be at least 2")
    if basis is None or exponents is None:
        basis, exponents = log_basis_for_indices(range(1, N + 1), precision)
    spec = []
    for n in range(1, N + 1):
        spec.append((exponents[n], Coefficient.from_fraction(Fraction(n) ** shift), n))
    return make_series(spec, basis, exponents[N])


def verify_hilbert_zeta(N: int, nu_max: int, mu_max: int,
                        ds_max: Optional[int] = None,
                        precision: int = 128) -> Certificate:
    """Exact residual checks of the functional-equation family on the prefix.

    Verifies (x d/dx)^mu zeta(x, s-nu) = zeta(x, s-mu-nu) together with its
    s-derivative variants for the whole parameter grid; every residual must
    be identically zero on the prefix.
    """
    if ds_max is None:
        ds_max = nu_max
    basis, exponents = log_basis_for_indices(range(1, N + 1), precision)
    cache: dict[int, FormalSeries] = {}

    def prefix_series(shift: int) -> FormalSeries:
        if shift not in cache:
            cache[shift] = zeta_xs_prefix(N, shift, precision, basis, exponents)
        return cache[shift]

    checks = 0
    for mu in range(mu_max + 1):
        for nu in range(nu_max + 1):
            for d in range(ds_max + 1):
                lhs = prefix_series(nu)
                if d:
                    lhs = differentiate_s(lhs, d)
                for _ in range(mu):
                    lhs = x_log_derivative(lhs)
                rhs = prefix_series(mu + nu)
                if d:
                    rhs = differentiate_s(rhs, d)
                diff = series_sub(lhs, rhs)
                if not diff.is_zero:
                    raise DforgeError(
                        f"functional equation residual nonzero at mu={mu}, "
                        f"nu={nu}, d={d}: {diff}")
                checks += 1
    evidence = {
        "check": "hilbert",
        "n": N,
        "max_weight_ops": mu_max,
        "max_shift": nu_max,
        "max_s_derivatives": ds_max,
        "precision_bits": precision,
        "checks": checks,
        "residuals_all_zero": True,
        "horizon": exponent_to_obj(exponents[N]),
    }
    return Certificate(FORMAL_SATISFACTION, N, evidence, basis_to_obj(basis))
