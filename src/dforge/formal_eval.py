"""Formal substitution of series into difference-differential polynomials.

The residual of a substitution is itself a formal series with an explicit
validity horizon.  On top of the residual machinery this module provides
the two constructive kernels of the leading-term argument: certified upper
bounds on the real roots of exponential polynomials, and the threshold
beyond which every exponent of a formally-satisfying series is forced to be
an integer combination of its predecessors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import mpmath

from .diffpoly import DiffIndeterminate, DiffPolynomial, partial_wrt
from .errors import HorizonTooShort, PartialVanishes, PrecisionTie, VerificationFailed
# integer_basis stays bound here: perfbench's tracer test checks that the
# name is wrapped and restored in every dforge module that binds it
from .lattice import Lattice, integer_basis  # noqa: F401
from .numeric import fraction_to_mpf, workprec
from .series import (
    Coefficient,
    Exponent,
    FormalSeries,
    SymbolBasis,
    XPoly,
    constant_series,
    differentiate_s,
    leading_term,
    prefix,
    series_add,
    series_mul,
    series_scale,
    series_scale_xpoly,
    shift_s,
    truncate,
    zero_series,
)

ZERO_UP_TO = "ZeroUpToT"
NONZERO = "NonzeroWithLeading"


@dataclass(frozen=True)
class Residual:
    """Outcome of substituting a series into a polynomial: the residual
    series valid up to ``horizon``, for the ``requested`` horizon (None: as
    far as the argument supports)."""

    series: FormalSeries
    polynomial: DiffPolynomial
    argument: FormalSeries
    horizon: Optional[Exponent]
    requested: Optional[Exponent] = None

    @property
    def is_zero(self) -> bool:
        return self.series.is_zero

    @property
    def leading(self):
        return leading_term(self.series)

    def describe(self) -> str:
        if self.is_zero:
            bound = "inf" if self.horizon is None else str(self.horizon)
            return f"{ZERO_UP_TO}({bound})"
        e, p = self.leading
        return f"{NONZERO}(({p}) e^(-({e})s))"


def _evaluate_monomials(F: DiffPolynomial, phi: FormalSeries) -> FormalSeries:
    basis = phi.basis
    cache: dict[DiffIndeterminate, FormalSeries] = {}
    power_cache: dict[tuple[DiffIndeterminate, int], FormalSeries] = {}

    def argument_series(ind: DiffIndeterminate) -> FormalSeries:
        if ind not in cache:
            cache[ind] = shift_s(differentiate_s(phi, ind.order), ind.shift)
        return cache[ind]

    def argument_power(ind: DiffIndeterminate, k: int) -> FormalSeries:
        key = (ind, k)
        if key not in power_cache:
            if k == 1:
                power_cache[key] = argument_series(ind)
            else:
                power_cache[key] = series_mul(argument_power(ind, k - 1),
                                              argument_series(ind))
        return power_cache[key]

    total = zero_series(basis)
    for (xdeg, powers), coeff in F.terms:
        part: Optional[FormalSeries] = None
        for ind, k in powers:
            factor = argument_power(ind, k)
            part = factor if part is None else series_mul(part, factor)
        if part is None:
            part = constant_series(basis, 1)
        part = series_scale(part, coeff)
        if xdeg:
            part = series_scale_xpoly(part, XPoly.monomial(xdeg, 1))
        total = series_add(total, part)
    return total


def max_safe_horizon(F: DiffPolynomial, phi: FormalSeries) -> Optional[Exponent]:
    """Largest horizon the substitution residual can be certified to."""
    return _evaluate_monomials(F, phi).truncation


def substitute(F: DiffPolynomial, phi: FormalSeries,
               horizon: Optional[Exponent] = None) -> Residual:
    """Exact residual series of F under phi, valid up to the horizon.

    Raises :class:`HorizonTooShort` (carrying the maximal safe bound) when
    the requested horizon exceeds what the argument's truncation supports.
    """
    raw = _evaluate_monomials(F, phi)
    return at_horizon(Residual(raw, F, phi, raw.truncation), horizon)


def at_horizon(residual: Residual, horizon: Optional[Exponent]) -> Residual:
    """The residual restricted to ``horizon`` (None: as it is); raises
    :class:`HorizonTooShort` beyond the residual's validity."""
    if horizon is None:
        return residual
    raw = residual.series
    if raw.truncation is not None and raw.basis.compare(horizon, raw.truncation) > 0:
        raise HorizonTooShort(
            f"requested horizon ({horizon}) exceeds the safe bound ({raw.truncation})",
            max_safe=raw.truncation)
    return Residual(truncate(raw, horizon), residual.polynomial, residual.argument,
                    horizon, horizon)


# ---------------------------------------------------------------------------
# Leading terms of the first partial derivatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialLeadingTerms:
    """Leading residual term of each first partial derivative of F."""

    entries: tuple[tuple[DiffIndeterminate, Coefficient, Exponent], ...]
    min_exponent: Exponent
    argmin: tuple[DiffIndeterminate, ...]

    def as_dict(self) -> dict:
        return {ind: (b, lam) for ind, b, lam in self.entries}


def initial_terms_of_partials(F: DiffPolynomial, phi: FormalSeries,
                              horizon: Optional[Exponent] = None) -> PartialLeadingTerms:
    """Leading term of dF/dz substituted with phi, for every z occurring in F.

    Raises :class:`PartialVanishes` when a partial substitutes to zero up to
    the working horizon; the caller should restart with that lower-degree
    polynomial, mirroring the minimal-degree assumption of the argument.
    """
    entries = []
    for ind in F.indeterminates():
        Fz = partial_wrt(F, ind)
        res = substitute(Fz, phi, horizon)
        if res.is_zero:
            raise PartialVanishes(ind.order, ind.shift)
        e, p = res.leading
        if p.degree not in (0, None):
            raise ValueError("threshold analysis expects univariate data (x-degree 0)")
        entries.append((ind, p.constant(), e))
    if not entries:
        raise ValueError("polynomial has no f-indeterminates")
    lam_min = min((lam for _, _, lam in entries), key=phi.basis.ordering_key)
    argmin = tuple(ind for ind, _, lam in entries if lam == lam_min)
    return PartialLeadingTerms(tuple(entries), lam_min, argmin)


# ---------------------------------------------------------------------------
# Exponential polynomials and certified root bounds
# ---------------------------------------------------------------------------

RateLike = Union[Fraction, Exponent]


@dataclass(frozen=True)
class ExpPolynomial:
    """L(lam) = sum c * lam^t * e^(lam*k) with exact (t, k, c) data."""

    terms: tuple[tuple[int, RateLike, Coefficient], ...]
    basis: SymbolBasis

    @staticmethod
    def make(terms, basis: SymbolBasis) -> "ExpPolynomial":
        merged: dict = {}
        for t, k, c in terms:
            if isinstance(k, int):
                k = Fraction(k)
            if isinstance(k, Exponent) and not k.coords:
                k = k.const
            if not isinstance(c, Coefficient):
                c = Coefficient.from_fraction(c)
            key = (t, isinstance(k, Exponent), k)
            merged[key] = (k, merged[key][1] + c) if key in merged else (k, c)
        out = [(t, k, c) for (t, _, _), (k, c) in merged.items() if not c.is_zero]
        out.sort(key=lambda item: (item[0], _rate_sort_key(item[1])))
        return ExpPolynomial(tuple(out), basis)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def rate_value(self, k: RateLike):
        if isinstance(k, Fraction):
            return fraction_to_mpf(k, self.basis.precision)
        return self.basis.exponent_value(k)

    def evaluate(self, lam) -> mpmath.mpf:
        with workprec(self.basis.precision):
            lam = mpmath.mpf(str(lam)) if isinstance(lam, (int, float, str)) \
                else (fraction_to_mpf(lam, self.basis.precision)
                      if isinstance(lam, Fraction) else lam)
            total = mpmath.mpf(0)
            for t, k, c in self.terms:
                total += c.numeric(self.basis) * lam ** t * mpmath.exp(lam * self.rate_value(k))
            return total


def _rate_sort_key(k: RateLike):
    if isinstance(k, Fraction):
        return (0, k, ())
    return (1, k.const, k.coords)


@dataclass(frozen=True)
class RootBound:
    """Certified upper bound on the real roots of an exponential polynomial.

    Beyond ``bound`` the dominant term exceeds the sum of the absolute
    values of all others: each ratio is monotonically decreasing from
    ``bound`` on and their sum at ``bound`` is at most ``sum_limit``.
    """

    bound: Fraction
    dominant: tuple[int, RateLike]
    ratio_sum_at_bound: str
    sum_limit: Fraction
    precision: int


_SUM_LIMIT = Fraction(1, 2)


def _dominant(L: ExpPolynomial):
    """The dominant term of a nonzero L (maximal rate, then maximal power)
    as (rate value, power, rate, |coefficient|), and the other terms as
    (rate value, power, rate, coefficient).  Call under L's precision;
    raises :class:`PrecisionTie` when the choice is not certain there."""
    basis = L.basis
    tiny = mpmath.mpf(2) ** (-basis.precision // 2)
    rates = [(L.rate_value(k), t, k, c) for t, k, c in L.terms]
    best = rates[0]
    for kv, t, k, c in rates[1:]:
        if kv > best[0] + tiny or (abs(kv - best[0]) <= tiny and
                                   _same_rate(k, best[2]) and t > best[1]):
            best = (kv, t, k, c)
        elif abs(kv - best[0]) <= tiny and not _same_rate(k, best[2]):
            raise PrecisionTie(f"exponential rates ({k}) and ({best[2]}) tie "
                               f"at precision {basis.precision}")
    kv_star, t_star, k_star, c_star = best
    c_star_abs = abs(c_star.numeric(basis))
    if c_star_abs <= tiny:
        raise PrecisionTie("dominant coefficient is numerically indistinct from zero")
    others = [(kv, t, k, c) for kv, t, k, c in rates
              if not (t == t_star and _same_rate(k, k_star))]
    return (kv_star, t_star, k_star, c_star_abs), others


def exp_poly_root_bound(L: ExpPolynomial) -> RootBound:
    """Dominance-certified B with no real root of L above B."""
    if L.is_zero:
        raise ValueError("the zero exponential polynomial has no root bound")
    prec = L.basis.precision
    with workprec(prec):
        (kv_star, t_star, k_star, c_star_abs), others = _dominant(L)
        if not others:
            return RootBound(Fraction(0), (t_star, k_star), "0", _SUM_LIMIT, prec)
        B = Fraction(1)
        for _ in range(512):
            if _dominance_holds(L, others, kv_star, t_star, c_star_abs, B):
                total = _ratio_sum(L, others, kv_star, t_star, c_star_abs, B)
                return RootBound(B, (t_star, k_star), mpmath.nstr(total, 12),
                                 _SUM_LIMIT, prec)
            B *= 2
        raise PrecisionTie("dominance could not be certified within 512 doublings")


def _same_rate(a: RateLike, b: RateLike) -> bool:
    return type(a) is type(b) and a == b


def _ratio_sum(L: ExpPolynomial, others, kv_star, t_star, c_star_abs, B: Fraction):
    basis = L.basis
    with workprec(basis.precision):
        Bv = fraction_to_mpf(B, basis.precision)
        total = mpmath.mpf(0)
        for kv, t, k, c in others:
            r = abs(c.numeric(basis)) / c_star_abs
            r *= Bv ** (t - t_star)
            r *= mpmath.exp(Bv * (kv - kv_star))
            total += r
        return total


def _dominance_holds(L, others, kv_star, t_star, c_star_abs, B: Fraction) -> bool:
    basis = L.basis
    with workprec(basis.precision):
        Bv = fraction_to_mpf(B, basis.precision)
        for kv, t, k, c in others:
            delta = kv_star - kv
            d = t - t_star
            if delta == 0:
                # same rate, smaller power: ratio B^(t-t*) decreasing for B>0
                if d >= 0:
                    return False
            else:
                # need B*delta >= d+1 so each ratio decreases beyond B
                if Bv * delta < d + 1:
                    return False
        return _ratio_sum(L, others, kv_star, t_star, c_star_abs, B) <= \
            fraction_to_mpf(_SUM_LIMIT, basis.precision)


def certify_root_bound(L: ExpPolynomial, bound: Fraction) -> bool:
    """Re-check the dominance inequality chain at a claimed bound."""
    if L.is_zero:
        return False
    with workprec(L.basis.precision):
        try:
            (kv_star, t_star, _, c_star_abs), others = _dominant(L)
        except PrecisionTie:
            return False
        return not others or (bound > 0 and _dominance_holds(
            L, others, kv_star, t_star, c_star_abs, bound))


# ---------------------------------------------------------------------------
# The forcing threshold: beyond it, exponents join the lattice of their
# predecessors whenever the series formally satisfies the equation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdReport:
    """Evidence bundle for the lattice-forcing threshold of (F, phi).

    The threshold is the numeric value of

        stability + |min partial exponent| + |root bound| + n*|first exponent|

    where ``stability`` is the exponent of the last prefix term needed to
    reproduce every partial's leading term (clamped to be non-negative).
    """

    stability_exponent: Exponent       # last exponent of the stable prefix
    stability_prefix: int              # terms needed for stable partial leading terms
    min_partial_exponent: Exponent     # least leading exponent over the partials
    root_bound: Fraction               # certified root bound of the term sum
    total_degree: int                  # degree of F in the f-indeterminates
    first_exponent: Exponent           # least exponent of phi
    threshold: str                     # numeric value of the combined bound
    verified_indices: tuple[int, ...]
    partials: PartialLeadingTerms
    exp_polynomial: ExpPolynomial
    horizon: Optional[Exponent]
    residual: Residual = field(compare=False, repr=False)   # the zero residual checked

    def residual_for(self, F: DiffPolynomial, phi: FormalSeries,
                     horizon: Optional[Exponent]) -> Residual:
        """The residual this report checked, which must be the one
        ``substitute(F, phi, horizon)`` gives; another raises ValueError."""
        r = self.residual
        if (r.polynomial, r.argument, r.requested) != (F, phi, horizon):
            raise ValueError("the threshold report was made for a different "
                             "(equation, series, horizon)")
        return r


def _abs_numeric(basis: SymbolBasis, value) -> mpmath.mpf:
    if isinstance(value, Exponent):
        return abs(basis.exponent_value(value))
    return abs(fraction_to_mpf(value, basis.precision))


def _verify_in_earlier_lattice(exponents: list[Exponent], checked: list[bool],
                               basis: SymbolBasis) -> list[int]:
    """Indices ``i`` with ``checked[i]``, each verified to lie in the integer
    lattice of ``exponents[:i]``; the first that does not raises
    :class:`VerificationFailed`.  One lattice grows with ``i``."""
    verified: list[int] = []
    lattice = Lattice(basis)
    last = max((i for i, check in enumerate(checked) if check), default=-1)
    for i, e in enumerate(exponents[:last + 1]):
        if checked[i]:
            if not lattice.contains(e):
                raise VerificationFailed(i)
            verified.append(i)
        lattice.add(e)
    return verified


def forcing_threshold(F: DiffPolynomial, phi: FormalSeries,
                      horizon: Optional[Exponent] = None) -> ThresholdReport:
    """:func:`threshold_of` the residual of F under phi."""
    return threshold_of(substitute(F, phi, horizon))


def threshold_of(residual: Residual) -> ThresholdReport:
    """Certified threshold above which each exponent of the residual's
    argument phi must lie in the integer lattice of the earlier ones, plus
    the verification that it does.

    Requires a zero residual (phi formally satisfies F up to the working
    horizon); every exponent in (threshold, horizon] is checked and a
    failure raises :class:`VerificationFailed` (it would contradict the
    leading-term argument underpinning the construction).
    """
    F, phi = residual.polynomial, residual.argument
    basis = phi.basis
    if phi.is_zero:
        raise ValueError("threshold analysis needs a nonzero series")
    if not residual.is_zero:
        raise ValueError("series does not formally satisfy the equation "
                         f"up to the horizon: {residual.describe()}")
    horizon_eff = residual.horizon
    if horizon_eff is not None and phi.truncation is not None and \
            basis.compare(phi.truncation, horizon_eff) < 0:
        horizon_eff = phi.truncation

    partials = initial_terms_of_partials(F, phi)
    n = F.total_degree
    lam0 = phi.min_exponent()
    exponents = [e for e, _ in phi.terms]

    # stability: smallest doubled prefix reproducing all partial leading
    # terms; the whole series when no shorter one does
    stability_prefix = 1
    while stability_prefix < len(exponents) and \
            not _partials_match(F, prefix(phi, stability_prefix), partials):
        stability_prefix = min(2 * stability_prefix, len(exponents))
    stable_exp = exponents[stability_prefix - 1]

    exp_poly = ExpPolynomial.make(
        [(ind.order, -ind.shift, b.scale(Fraction((-1) ** ind.order)))
         for ind, b, lam in partials.entries if ind in partials.argmin],
        basis)
    bound = exp_poly_root_bound(exp_poly)

    with workprec(basis.precision):
        threshold_value = (max(basis.exponent_value(stable_exp), mpmath.mpf(0))
                           + _abs_numeric(basis, partials.min_exponent)
                           + _abs_numeric(basis, bound.bound)
                           + n * _abs_numeric(basis, lam0))
        threshold_str = mpmath.nstr(threshold_value, 12)
        above = [basis.exponent_value(e) > threshold_value for e in exponents]
    checked = [a and (horizon_eff is None or basis.compare(e, horizon_eff) <= 0)
               for a, e in zip(above, exponents)]
    verified = _verify_in_earlier_lattice(exponents, checked, basis)

    return ThresholdReport(
        stability_exponent=stable_exp,
        stability_prefix=stability_prefix,
        min_partial_exponent=partials.min_exponent,
        root_bound=bound.bound,
        total_degree=n,
        first_exponent=lam0,
        threshold=threshold_str,
        verified_indices=tuple(verified),
        partials=partials,
        exp_polynomial=exp_poly,
        horizon=horizon_eff,
        residual=residual,
    )


def _partials_match(F: DiffPolynomial, sub: FormalSeries,
                    partials: PartialLeadingTerms) -> bool:
    for ind, b, lam in partials.entries:
        try:
            res = substitute(partial_wrt(F, ind), sub)
        except HorizonTooShort:
            return False
        if res.is_zero:
            return False
        e, p = res.leading
        if e != lam or p.constant() != b:
            return False
    return True
