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

from dataclasses import dataclass, replace
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
from .io import basis_to_obj, exponent_to_obj
from .lattice import LatticeBasis, express, log_basis_for_indices
from .numeric import frac_str
from .obstruction import FORMAL_SATISFACTION, Certificate, residual_certificate
from .series import (
    Coefficient,
    Exponent,
    FormalSeries,
    SparsePoly,
    SymbolBasis,
    _as_coefficient,
    differentiate_s,
    drop_power,
    make_series,
    merge_powers,
    power_product,
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
    cert = residual_certificate(base)
    return replace(cert, evidence=dict(
        cert.evidence, check="rescale", scalars=[frac_str(c) for c in scalars],
        rescaled_residual="zero", mechanism_checks=mechanism_checks))


# ---------------------------------------------------------------------------
# ODE -> PDE at s = 0
# ---------------------------------------------------------------------------

# PDE monomial: (partials, xpowers) where partials is a sorted tuple of
# (multi-index, power) over the arguments of G and xpowers is a tuple of
# per-variable exponents.
PdeMonomial = tuple[tuple[tuple[tuple[int, ...], int], ...], tuple[int, ...]]


@dataclass(frozen=True)
class PdePolynomial(SparsePoly):
    """Polynomial in the partial derivatives of G, the x variables, and the
    rate symbols, with exact coefficients."""

    mu: int
    terms: tuple[tuple[PdeMonomial, Coefficient], ...] = ()

    _coerce = staticmethod(_as_coefficient)

    @staticmethod
    def _mono_mul(a: PdeMonomial, b: PdeMonomial) -> PdeMonomial:
        (pa, xa), (pb, xb) = a, b
        return (merge_powers(pa, pb), tuple(p + q for p, q in zip(xa, xb)))

    @property
    def _UNIT(self) -> PdeMonomial:
        return ((), (0,) * self.mu)

    def _new(self, terms: tuple) -> "PdePolynomial":
        return PdePolynomial(self.mu, terms)

    @staticmethod
    def g_value(mu: int) -> "PdePolynomial":
        mono = ((((0,) * mu), 1),), (0,) * mu
        return PdePolynomial(mu, ((mono, Coefficient.one()),))

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
    rates = [Coefficient.from_symbol(name) for name in lambda_names]

    def bump(t: tuple, i: int) -> tuple:
        return tuple(a + (1 if j == i else 0) for j, a in enumerate(t))

    def pairs():
        for (partials, xpow), c in p.terms:
            for idx, (beta, k) in enumerate(partials):
                rest = drop_power(partials, idx)
                for i in range(mu):
                    mono = (merge_powers(rest, ((bump(beta, i), 1),)), bump(xpow, i))
                    yield mono, c * rates[i].scale(-k)
            for i, q in enumerate(xpow):
                if q:
                    yield (partials, xpow), c * rates[i].scale(-q)

    return PdePolynomial.collect(pairs(), mu)


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
    memo: dict = {}
    total = PdePolynomial.zero(mu)
    for (xdeg, powers), c in F.terms:
        part = power_product(powers, lambda ind: derivs[ind.order], memo)
        total = total + (PdePolynomial.one(mu) if part is None else part).scale(c)
    return PdeResult(total, mu, names, order)


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


#: The longest prefix a Hilbert grid may check.  The tests, CI and the
#: benchmark stay at N <= 80.
MAX_HILBERT_N = 1000

#: The most checks, (max_weight_ops + 1)(max_shift + 1)(max_s_derivatives + 1),
#: one grid may make.  Apart from the tests of the caps, the largest grid
#: the tests use has 64, CI's and the benchmark's 18; the costliest within
#: the caps, N = 1000 with mu = 19 and four s-derivatives, takes about 5 s
#: and 150 MB.
MAX_HILBERT_CHECKS = 100

#: The highest s-derivative a grid may take: the d-th derivative's
#: coefficients are (-log n)^d, whose monomials in the prime logs grow like
#: d^(k-1) for n with k prime factors.  The tests use at most 3.
MAX_HILBERT_S_DERIVATIVES = 4


def verify_hilbert_zeta(N: int, nu_max: int, mu_max: int,
                        ds_max: Optional[int] = None,
                        precision: int = 128) -> Certificate:
    """Exact residual checks of the functional-equation family on the prefix.

    Verifies (x d/dx)^mu zeta(x, s-nu) = zeta(x, s-mu-nu) together with its
    s-derivative variants for the whole parameter grid; every residual must
    be identically zero on the prefix.  A grid past ``MAX_HILBERT_N``,
    ``MAX_HILBERT_CHECKS`` or ``MAX_HILBERT_S_DERIVATIVES``, or with a
    negative count, is refused with ``ValueError`` before any prefix is built.
    """
    if ds_max is None:
        ds_max = nu_max
    counts = (f"max_shift={nu_max}, max_weight_ops={mu_max}, "
              f"max_s_derivatives={ds_max}")
    if min(nu_max, mu_max, ds_max) < 0:
        raise ValueError(f"the grid counts must be non-negative: {counts}")
    if N > MAX_HILBERT_N:
        raise ValueError(f"prefix bound {N} is above {MAX_HILBERT_N}")
    if (mu_max + 1) * (nu_max + 1) * (ds_max + 1) > MAX_HILBERT_CHECKS:
        raise ValueError(f"the grid would make more than {MAX_HILBERT_CHECKS} checks: {counts}")
    if ds_max > MAX_HILBERT_S_DERIVATIVES:
        raise ValueError(f"max_s_derivatives={ds_max} is above {MAX_HILBERT_S_DERIVATIVES}")
    basis, exponents = log_basis_for_indices(range(1, N + 1), precision)
    # d-th s-derivative of the shift's prefix, keyed (shift, d); (shift, 0)
    # is the prefix itself, so each prefix is built and differentiated once
    derived: dict[tuple[int, int], FormalSeries] = {}

    def derivative(shift: int, d: int) -> FormalSeries:
        if (shift, d) not in derived:
            base = derived.get((shift, 0))
            if base is None:
                base = derived[shift, 0] = zeta_xs_prefix(N, shift, precision, basis, exponents)
            derived[shift, d] = differentiate_s(base, d)
        return derived[shift, d]

    # (x d/dx)^mu of derivative(nu, d) under (nu, d), one step per mu
    sides: dict[tuple[int, int], FormalSeries] = {}
    checks = 0
    for mu in range(mu_max + 1):
        for nu in range(nu_max + 1):
            for d in range(ds_max + 1):
                lhs = sides[nu, d] = (derivative(nu, d) if mu == 0
                                      else x_log_derivative(sides[nu, d]))
                rhs = derivative(mu + nu, d)
                # canonical over one basis and bound: equal iff no difference
                if lhs != rhs:
                    raise DforgeError(
                        f"functional equation residual nonzero at mu={mu}, "
                        f"nu={nu}, d={d}: {series_sub(lhs, rhs)}")
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
