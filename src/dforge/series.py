"""Exact generalized Dirichlet series arithmetic.

A series is a finite, exponent-sorted list of terms

    sum_i  p_i(x) * e^(-lambda_i * s)

where every exponent ``lambda_i`` is a rational linear combination of the
positive generators of a :class:`SymbolBasis` plus a rational constant, and
every coefficient ``p_i(x)`` is a polynomial in ``x`` whose coefficients are
exact multivariate polynomials over the basis symbols and damping factors
``e^(-nu)``.  The plain (univariate) case is the x-degree-0 special case.

Each series carries a truncation bound: terms with larger exponents are
unknown, and every operation propagates the bound it can actually justify.
A ``None`` bound means the series is known in full (e.g. a finite prefix
treated as an exact object, or a constant).
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .errors import BadBasis, BadBound, BasisMismatch, PrecisionTieWarning
from .numeric import (
    DEFAULT_PRECISION,
    decimal_str_to_mpf,
    fraction_to_mpf,
    tie_threshold,
    workprec,
)

RationalLike = Union[int, Fraction]

#: Reserved name for the constant coordinate of an exponent (numeric value 1).
ONE = "ONE"


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"expected an exact rational, got {type(v).__name__}")


def _join_signed(pieces: list) -> str:
    """Join ``(sign, body)`` pairs as ``a + b - c``; only a leading minus shows."""
    sign, first = pieces[0]
    text = ("-" if sign == "-" else "") + first
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# Exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Exponent:
    """Rational lattice vector over the basis symbols plus a rational constant.

    The constant part is the coordinate of the distinguished unit symbol
    ``ONE``; it encodes integer exponents of plain power series so that
    power series and Dirichlet series share one representation.
    """

    coords: tuple[tuple[str, Fraction], ...] = ()
    const: Fraction = Fraction(0)

    def __post_init__(self):
        # exponents key every hot dict in the package; precompute an
        # int-tuple identity key so hashing and equality avoid Fraction's
        # slow numeric-tower dispatch
        key = (tuple((n, q.numerator, q.denominator) for n, q in self.coords),
               self.const.numerator, self.const.denominator)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Exponent):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    @staticmethod
    def make(coords: Mapping[str, RationalLike] | None = None,
             const: RationalLike = 0) -> "Exponent":
        c = _as_fraction(const)
        items = {}
        for name, q in (coords or {}).items():
            q = _as_fraction(q)
            if name == ONE:
                c += q
                continue
            if q != 0:
                items[name] = items.get(name, Fraction(0)) + q
        canon = tuple(sorted((n, q) for n, q in items.items() if q != 0))
        return Exponent(canon, c)

    @staticmethod
    def zero() -> "Exponent":
        return Exponent()

    @staticmethod
    def of(name: str, q: RationalLike = 1) -> "Exponent":
        return Exponent.make({name: q})

    @staticmethod
    def constant(q: RationalLike) -> "Exponent":
        return Exponent.make({}, q)

    @property
    def is_zero(self) -> bool:
        return not self.coords and self.const == 0

    def coord(self, name: str) -> Fraction:
        if name == ONE:
            return self.const
        for n, q in self.coords:
            if n == name:
                return q
        return Fraction(0)

    def symbols(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.coords)

    def sort_key(self):
        """Exact total order key used for lexicographic tie-breaking."""
        return (self.const, self.coords)

    def __add__(self, other: "Exponent") -> "Exponent":
        # zero is the commonest operand (undamped coefficient monomials)
        if not self.coords and not self._key[1]:
            return other
        if not other.coords and not other._key[1]:
            return self
        items = dict(self.coords)
        for n, q in other.coords:
            items[n] = items.get(n, Fraction(0)) + q
        canon = tuple(sorted((n, q) for n, q in items.items() if q != 0))
        return Exponent(canon, self.const + other.const)

    def __neg__(self) -> "Exponent":
        return Exponent(tuple((n, -q) for n, q in self.coords), -self.const)

    def __sub__(self, other: "Exponent") -> "Exponent":
        return self + (-other)

    def __mul__(self, scalar: RationalLike) -> "Exponent":
        q = _as_fraction(scalar)
        if q == 0:
            return Exponent()
        return Exponent(tuple((n, c * q) for n, c in self.coords), self.const * q)

    __rmul__ = __mul__

    def __str__(self) -> str:
        pieces = []
        for n, q in self.coords:
            body = n if abs(q) == 1 else f"{abs(q)}*{n}"
            pieces.append(("-" if q < 0 else "+", body))
        if self.const != 0 or not pieces:
            pieces.append(("-" if self.const < 0 else "+", str(abs(self.const))))
        return _join_signed(pieces)


class _ExponentSums(dict):
    """Memo ``sums[a, b] == a + b`` that hands out one object per distinct sum.

    Products add the same exponent pairs over and over; a shared object per
    value also turns later dict lookups into identity hits.
    """

    __slots__ = ("_canon",)

    def __init__(self):
        super().__init__()
        self._canon: dict = {}

    def __missing__(self, key):
        a, b = key
        e = a + b
        e = self[key] = self._canon.setdefault(e, e)
        return e


# ---------------------------------------------------------------------------
# Symbol basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolBasis:
    """Named positive generators with arbitrary-precision numeric values.

    ``independence_assumed`` documents (it does not verify) that the numeric
    values are linearly independent over the rationals together with 1.
    The reserved unit symbol ``ONE`` is always available implicitly through
    an exponent's constant part and may not be declared.

    It keeps write-once memo tables, fresh per instance: the symbol values
    at precision P, each exponent's ``ordering_key`` and the exponent sums.
    """

    symbols: tuple[str, ...]
    values: tuple[str, ...]
    precision: int = DEFAULT_PRECISION
    independence_assumed: bool = True
    _symbol_values: dict = field(init=False, compare=False, repr=False)
    _sums: _ExponentSums = field(init=False, compare=False, repr=False)
    _cache: dict = field(init=False, compare=False, repr=False)   # Exponent -> key

    def __post_init__(self):
        if len(self.symbols) != len(set(self.symbols)):
            raise BadBasis("symbol names must be unique")
        if ONE in self.symbols:
            raise BadBasis(f"{ONE!r} is reserved for the constant coordinate")
        if len(self.values) != len(self.symbols):
            raise BadBasis("one numeric value per symbol required")
        if self.precision <= 0:
            raise BadBasis("precision must be positive")
        values = {n: decimal_str_to_mpf(v, self.precision)
                  for n, v in zip(self.symbols, self.values)}
        for name, value in values.items():
            if value <= 0:
                raise BadBasis(f"symbol {name!r} must have a strictly positive value")
        object.__setattr__(self, "_symbol_values", values)
        object.__setattr__(self, "_sums", _ExponentSums())
        object.__setattr__(self, "_cache", {})

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[str, str]],
                   precision: int = DEFAULT_PRECISION,
                   independence_assumed: bool = True) -> "SymbolBasis":
        pairs = list(pairs)
        return SymbolBasis(tuple(n for n, _ in pairs), tuple(str(v) for _, v in pairs),
                           precision, independence_assumed)

    @staticmethod
    def unit(precision: int = DEFAULT_PRECISION) -> "SymbolBasis":
        """Basis with no generators; exponents are plain rationals."""
        return SymbolBasis((), (), precision)

    def value_of(self, name: str):
        try:
            return self._symbol_values[name]
        except KeyError:
            raise BadBasis(f"unknown symbol {name!r}") from None

    def has_symbol(self, name: str) -> bool:
        return name in self.symbols

    def ordering_key(self, e: Exponent) -> tuple:
        """The one exponent order: ``(float shadow, value at P, exact key)``;
        float shadows round monotonically, so they never contradict values."""
        key = self._cache.get(e)
        if key is None:
            with workprec(self.precision):
                total = fraction_to_mpf(e.const, self.precision)
                for n, q in e.coords:
                    total += fraction_to_mpf(q, self.precision) * self.value_of(n)
            key = self._cache[e] = (float(total), total, e.sort_key())
        return key

    def exponent_value(self, e: Exponent):
        return self.ordering_key(e)[1]

    def validate_exponent(self, e: Exponent) -> None:
        for n, _ in e.coords:
            if n not in self.symbols:
                raise BadBasis(f"exponent references unknown symbol {n!r}")

    def _apart(self, fa: float, fb: float) -> bool:
        """Shadows this far apart order their values with no tie: the margin
        dwarfs the double rounding and is at least twice 2^-P."""
        return abs(fa - fb) > max(1e-9 * max(1.0, abs(fa), abs(fb)), 2.0 ** (1 - self.precision))

    def check_tie(self, a: Exponent, b: Exponent) -> None:
        """Warn when distinct ``a`` and ``b`` have values within 2^-P: the one
        source of :class:`PrecisionTieWarning` for exponent order."""
        (fa, va, _), (fb, vb, _) = self.ordering_key(a), self.ordering_key(b)
        if self._apart(fa, fb):
            return
        with workprec(self.precision):
            near = abs(va - vb) <= tie_threshold(self.precision)
        if near:
            warnings.warn(
                f"exponent order tie within 2^-{self.precision}: ({a}) vs ({b}); "
                "ordered by the value, then the exact key",
                PrecisionTieWarning, stacklevel=3)

    def compare(self, a: Exponent, b: Exponent) -> int:
        """The sign of ``ordering_key(a)`` against ``ordering_key(b)``; pairs
        whose shadows are not ``_apart`` go through :meth:`check_tie`."""
        if a is b or (a._hash == b._hash and a._key == b._key):
            return 0
        ka, kb = self.ordering_key(a), self.ordering_key(b)
        if self._apart(ka[0], kb[0]):
            return 1 if ka[0] > kb[0] else -1
        self.check_tie(a, b)
        return 1 if ka > kb else -1

    def exponent_sums(self) -> _ExponentSums:
        """The table of exponent sums shared by every product over this basis."""
        return self._sums


def compare_bounds(basis: SymbolBasis, a: Optional[Exponent], b: Optional[Exponent]) -> int:
    """Compare truncation bounds where ``None`` means plus infinity."""
    if a is None and b is None:
        return 0
    if a is None:
        return 1
    if b is None:
        return -1
    return basis.compare(a, b)


def meet_bounds(basis: SymbolBasis, a: Optional[Exponent], b: Optional[Exponent]) -> Optional[Exponent]:
    return a if compare_bounds(basis, a, b) <= 0 else b


# ---------------------------------------------------------------------------
# Sparse polynomial kernel
# ---------------------------------------------------------------------------

def _accumulate(acc: dict, pairs) -> dict:
    for m, c in pairs:
        prev = acc.get(m)
        acc[m] = c if prev is None else prev + c
    return acc


def merge_powers(a: tuple, b: tuple) -> tuple:
    """Product of two sorted ``((factor, power), ...)`` tuples."""
    powers = dict(a)
    for n, k in b:
        powers[n] = powers.get(n, 0) + k
    return tuple(sorted((n, k) for n, k in powers.items() if k != 0))


def drop_power(powers: tuple, idx: int) -> tuple:
    """Lower the power at position ``idx`` by one, dropping it at zero."""
    n, k = powers[idx]
    if k == 1:
        return powers[:idx] + powers[idx + 1:]
    return powers[:idx] + ((n, k - 1),) + powers[idx + 1:]


class SparsePoly:
    """Sparse map from monomials to nonzero coefficients.

    ``terms`` holds ``(monomial, coefficient)`` pairs with distinct
    monomials and no zero coefficient, sorted by ``_mono_key``, so equal
    values have equal ``terms``.  Coefficients are ``Fraction`` or
    :class:`Coefficient`; both are false exactly when zero.

    A subclass is a frozen dataclass whose last field is ``terms``.  It
    supplies the monomial product ``_mono_mul``, the unit monomial
    ``_UNIT``, the scalar coercion ``_coerce`` and, when the monomials do
    not sort by themselves, ``_mono_key``.  Any fields before ``terms``
    are passed through ``collect``, ``zero`` and ``one`` and kept by the
    ``_new`` hook.
    """

    _mono_key = None

    @classmethod
    def _canonical(cls, acc: dict) -> tuple:
        items = [(m, c) for m, c in acc.items() if c]
        key = cls._mono_key
        items.sort(key=operator.itemgetter(0) if key is None else (lambda t: key(t[0])))
        return tuple(items)

    @classmethod
    def collect(cls, pairs, *fields):
        """Merge equal monomials, drop zero coefficients and sort."""
        return cls(*fields, cls._canonical(_accumulate({}, pairs)))

    @classmethod
    def _from_dict(cls, d: dict):
        return cls.collect(d.items())

    @classmethod
    def zero(cls, *fields):
        return cls(*fields, ())

    @classmethod
    def one(cls, *fields):
        return cls.zero(*fields)._unit()

    def _new(self, terms: tuple):
        """An instance of this class, with this instance's other fields."""
        return type(self)(terms)

    def _unit(self):
        return self._new(((self._UNIT, self._coerce(1)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        if not self.terms:
            return other
        if not other.terms:
            return self
        return self._new(self._canonical(_accumulate(dict(self.terms), other.terms)))

    def __neg__(self):
        return self._new(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        mono_mul = self._mono_mul
        acc: dict = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                m = mono_mul(ma, mb)
                c = ca * cb
                prev = acc.get(m)
                acc[m] = c if prev is None else prev + c
        return self._new(self._canonical(acc))

    def scale(self, c):
        """Multiply every coefficient by the scalar ``c``."""
        c = self._coerce(c)
        return self._new(tuple((m, w) for m, v in self.terms if (w := v * c)))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined")
        out = self._unit()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------

# A coefficient monomial is a pair (symbol powers, damping exponent):
#   * symbol powers: sorted tuple of (name, positive int) for plain symbol
#     factors such as L2^2;
#   * damping exponent nu: the factor e^(-nu), the multiplicative normal
#     form of all shift multipliers.  e^(-nu1) * e^(-nu2) = e^(-(nu1+nu2))
#     is applied eagerly, so inverse shifts cancel exactly.
Monomial = tuple[tuple[tuple[str, int], ...], Exponent]

_UNIT_MONO: Monomial = ((), Exponent())


def _mono_key(m: Monomial):
    syms, damp = m
    return (syms, damp.sort_key())


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    pa, da = a
    pb, db = b
    return (merge_powers(pa, pb), da + db)


def _mono_str(m: Monomial) -> str:
    syms, damp = m
    parts = []
    for n, k in syms:
        parts.append(n if k == 1 else f"{n}^{k}")
    if not damp.is_zero:
        parts.append(f"exp(-({damp}))")
    return "*".join(parts)


@dataclass(frozen=True)
class Coefficient(SparsePoly):
    """Sparse polynomial over the basis symbols and damping factors."""

    terms: tuple[tuple[Monomial, Fraction], ...] = ()

    _UNIT = _UNIT_MONO
    _mono_key = staticmethod(_mono_key)
    _mono_mul = staticmethod(_mono_mul)
    _coerce = staticmethod(_as_fraction)

    @staticmethod
    def from_fraction(q: RationalLike) -> "Coefficient":
        q = _as_fraction(q)
        if q == 0:
            return Coefficient()
        return Coefficient(((_UNIT_MONO, q),))

    @staticmethod
    def from_symbol(name: str, power: int = 1) -> "Coefficient":
        if power == 0:
            return Coefficient.one()
        return Coefficient((((((name, power),), Exponent()), Fraction(1)),))

    @staticmethod
    def from_exponent(e: Exponent) -> "Coefficient":
        """The exponent as a linear polynomial in the symbols (exact)."""
        pairs = [(_UNIT_MONO, e.const)]
        pairs += [((((n, 1),), Exponent()), q) for n, q in e.coords]
        return Coefficient.collect(pairs)

    @staticmethod
    def damping(nu: Exponent) -> "Coefficient":
        """The factor e^(-nu); the multiplier M(lam, h) is damping(h*lam)."""
        return Coefficient((((() , nu), Fraction(1)),))

    @property
    def is_rational(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == _UNIT_MONO)

    def as_fraction(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_rational:
            raise ValueError("coefficient is not a plain rational")
        return self.terms[0][1]

    def symbols(self) -> set:
        out = set()
        for (syms, damp), _ in self.terms:
            out.update(n for n, _ in syms)
            out.update(damp.symbols())
        return out

    def numeric(self, basis: SymbolBasis):
        """Explicitly lossy evaluation at the basis values, precision P."""
        import mpmath

        with workprec(basis.precision):
            total = mpmath.mpf(0)
            for (syms, damp), q in self.terms:
                v = fraction_to_mpf(q, basis.precision)
                for n, k in syms:
                    v *= basis.value_of(n) ** k
                if not damp.is_zero:
                    v *= mpmath.exp(-basis.exponent_value(damp))
                total += v
            return total

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for m, q in self.terms:
            ms = _mono_str(m)
            if ms:
                body = ms if abs(q) == 1 else f"{abs(q)}*{ms}"
            else:
                body = str(abs(q))
            parts.append(("-" if q < 0 else "+", body))
        return _join_signed(parts)


def _as_coefficient(v) -> Coefficient:
    if isinstance(v, Coefficient):
        return v
    return Coefficient.from_fraction(_as_fraction(v))


# ---------------------------------------------------------------------------
# Polynomials in x with Coefficient entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XPoly(SparsePoly):
    """Univariate polynomial in x over :class:`Coefficient` entries.

    ``terms`` holds ``(x-degree, coefficient)`` pairs in ascending degree.
    """

    terms: tuple[tuple[int, Coefficient], ...] = ()

    _UNIT = 0
    _mono_mul = staticmethod(operator.add)
    _coerce = staticmethod(_as_coefficient)

    @staticmethod
    def from_coefficient(c) -> "XPoly":
        return XPoly.monomial(0, c)

    @staticmethod
    def monomial(degree: int, c) -> "XPoly":
        c = _as_coefficient(c)
        if degree < 0:
            raise ValueError("x-degree must be non-negative")
        if c.is_zero:
            return XPoly()
        return XPoly(((degree, c),))

    @property
    def degree(self) -> Optional[int]:
        """Exact x-degree, ``None`` for the zero polynomial."""
        return self.terms[-1][0] if self.terms else None

    def coefficient(self, degree: int) -> Coefficient:
        for k, c in self.terms:
            if k == degree:
                return c
        return Coefficient.zero()

    def constant(self) -> Coefficient:
        return self.coefficient(0)

    def x_log_derivative(self) -> "XPoly":
        """x * d/dx, the degree-weighting operator."""
        return XPoly.collect((k, c.scale(k)) for k, c in self.terms)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in self.terms:
            cs = str(c)
            if k == 0:
                parts.append(cs)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                parts.append(xs if cs == "1" else f"({cs})*{xs}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Formal series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormalSeries:
    """Exponent-sorted term list with an explicit validity horizon."""

    basis: SymbolBasis
    terms: tuple[tuple[Exponent, XPoly], ...]
    truncation: Optional[Exponent]

    @property
    def is_zero(self) -> bool:
        """True when no term is stored (zero up to the truncation bound)."""
        return not self.terms

    @property
    def is_exact(self) -> bool:
        return self.truncation is None

    def exponents(self) -> tuple[Exponent, ...]:
        return tuple(e for e, _ in self.terms)

    def min_exponent(self) -> Optional[Exponent]:
        return self.terms[0][0] if self.terms else None

    def degrees(self) -> tuple[int, ...]:
        """Exact x-degrees m_i of the stored coefficients."""
        return tuple(p.degree for _, p in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            bound = "inf" if self.truncation is None else str(self.truncation)
            return f"0 (up to {bound})"
        chunks = [f"({p}) e^(-({e})s)" for e, p in self.terms]
        bound = "inf" if self.truncation is None else str(self.truncation)
        return " + ".join(chunks) + f"  [valid to {bound}]"


def _effective_min(s: FormalSeries) -> Optional[Exponent]:
    """Least exponent any true term of ``s`` can have (None = series is 0)."""
    if s.terms:
        return s.terms[0][0]
    return s.truncation  # zero up to T: true terms all exceed T


def _sorted_terms(basis: SymbolBasis, accum: dict) -> tuple:
    key = basis.ordering_key
    terms = sorted(((e, p) for e, p in accum.items() if not p.is_zero),
                   key=lambda t: key(t[0]))
    for (a, _), (b, _) in zip(terms, terms[1:]):
        basis.check_tie(a, b)
    return tuple(terms)


def _group(accum: dict) -> dict:
    """Exponent -> XPoly from exponent -> list of (x-degree, coefficient)."""
    return {e: XPoly.collect(pairs) for e, pairs in accum.items()}


def _build(basis: SymbolBasis, accum: dict, truncation: Optional[Exponent]) -> FormalSeries:
    terms = _sorted_terms(basis, accum)
    if truncation is not None:
        terms = tuple((e, p) for e, p in terms if basis.compare(e, truncation) <= 0)
    return FormalSeries(basis, terms, truncation)


def make_series(spec, basis: SymbolBasis, truncation: Optional[Exponent]) -> FormalSeries:
    """Build the canonical series from (exponent, coefficient[, x-degree]) items.

    Items with equal exponents are merged by addition; zero results are
    pruned.  Raises :class:`BadBasis` for unknown symbols and
    :class:`BadBound` for terms beyond the truncation bound.
    """
    accum: dict = {}
    for item in spec:
        if len(item) == 2:
            e, c = item
            xdeg = 0
        else:
            e, c, xdeg = item
        basis.validate_exponent(e)
        if isinstance(c, XPoly):
            poly = c
            if xdeg:
                poly = poly * XPoly.monomial(xdeg, 1)
        else:
            c = _as_coefficient(c)
            for n in c.symbols():
                if not basis.has_symbol(n):
                    raise BadBasis(f"coefficient references unknown symbol {n!r}")
            poly = XPoly.monomial(xdeg, c)
        if truncation is not None and basis.compare(e, truncation) > 0:
            raise BadBound(f"term exponent ({e}) exceeds the truncation bound ({truncation})")
        accum.setdefault(e, []).extend(poly.terms)
    return _build(basis, _group(accum), truncation)


def zero_series(basis: SymbolBasis, truncation: Optional[Exponent] = None) -> FormalSeries:
    return FormalSeries(basis, (), truncation)


def constant_series(basis: SymbolBasis, c, xdegree: int = 0) -> FormalSeries:
    """An exactly known one-term series at exponent zero."""
    poly = XPoly.monomial(xdegree, c) if not isinstance(c, XPoly) else c
    if poly.is_zero:
        return zero_series(basis)
    return FormalSeries(basis, ((Exponent.zero(), poly),), None)


def _require_same_basis(a: FormalSeries, b: FormalSeries) -> None:
    if a.basis != b.basis:
        raise BasisMismatch("series are defined over different symbol bases")


def series_add(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    _require_same_basis(a, b)
    accum: dict = {}
    for e, p in a.terms + b.terms:
        accum.setdefault(e, []).extend(p.terms)
    bound = meet_bounds(a.basis, a.truncation, b.truncation)
    return _build(a.basis, _group(accum), bound)


def series_neg(a: FormalSeries) -> FormalSeries:
    return FormalSeries(a.basis, tuple((e, -p) for e, p in a.terms), a.truncation)


def series_sub(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    return series_add(a, series_neg(b))


def series_scale(a: FormalSeries, c) -> FormalSeries:
    """Multiply every term by a constant Coefficient (or rational)."""
    c = _as_coefficient(c)
    accum = {e: p.scale(c) for e, p in a.terms}
    return _build(a.basis, accum, a.truncation)


def series_scale_xpoly(a: FormalSeries, poly: XPoly) -> FormalSeries:
    """Multiply every term by a fixed polynomial in x (exponents unchanged)."""
    accum = {e: p * poly for e, p in a.terms}
    return _build(a.basis, accum, a.truncation)


def product_bound(basis: SymbolBasis, a_bound: Optional[Exponent], a_least: Optional[Exponent],
                  b_bound: Optional[Exponent], b_least: Optional[Exponent]) -> Optional[Exponent]:
    """Provable bound of a truncated product: min(T_a + least_b, T_b + least_a).

    A ``None`` bound is plus infinity; a ``None`` least exponent (a factor
    with no true terms) yields no candidate.
    """
    bound: Optional[Exponent] = None
    for t, least in ((a_bound, b_least), (b_bound, a_least)):
        if t is not None and least is not None:
            candidate = basis.exponent_sums()[t, least]
            bound = candidate if bound is None else meet_bounds(basis, bound, candidate)
    return bound


def series_mul(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    """Cauchy product by exponent addition, truncated to the provable bound."""
    _require_same_basis(a, b)
    basis = a.basis
    # An exactly-zero factor annihilates everything, with full knowledge.
    if a.is_zero and a.is_exact or b.is_zero and b.is_exact:
        return zero_series(basis)
    bound = product_bound(basis, a.truncation, _effective_min(a),
                          b.truncation, _effective_min(b))
    sums = basis.exponent_sums()
    accum: dict = {}
    for ea, pa in a.terms:
        for eb, pb in b.terms:
            e = sums[ea, eb]
            if bound is not None and basis.compare(e, bound) > 0:
                continue
            accum.setdefault(e, []).extend(
                (ka + kb, ca * cb) for ka, ca in pa.terms for kb, cb in pb.terms)
    return _build(basis, _group(accum), bound)


def differentiate_s(a: FormalSeries, k: int = 1) -> FormalSeries:
    """Termwise d^k/ds^k: coefficients pick up the exact factor (-lambda)^k."""
    if k < 0:
        raise ValueError("derivative order must be non-negative")
    if k == 0:
        return a
    accum = {}
    for e, p in a.terms:
        factor = Coefficient.from_exponent(-e) ** k
        accum[e] = p.scale(factor)
    return _build(a.basis, accum, a.truncation)


def shift_s(a: FormalSeries, h: RationalLike) -> FormalSeries:
    """Substitute s -> s + h; coefficients pick up the multiplier e^(-h*lambda)."""
    h = _as_fraction(h)
    if h == 0:
        return a
    accum = {}
    for e, p in a.terms:
        accum[e] = p.scale(Coefficient.damping(e * h))
    return _build(a.basis, accum, a.truncation)


def x_log_derivative(a: FormalSeries) -> FormalSeries:
    """Apply x*d/dx termwise (acts on the XPoly part only)."""
    accum = {e: p.x_log_derivative() for e, p in a.terms}
    return _build(a.basis, accum, a.truncation)


def leading_term(a: FormalSeries):
    """The least-exponent stored term, or ``None`` for a zero series.

    ``None`` means "zero up to the truncation bound"; consult
    ``a.truncation`` for the bound itself (``None`` = exactly zero).
    """
    return a.terms[0] if a.terms else None


def truncate(a: FormalSeries, new_bound: Exponent) -> FormalSeries:
    """Restrict the series to exponents <= ``new_bound``."""
    if a.truncation is not None and a.basis.compare(new_bound, a.truncation) > 0:
        raise BadBound(
            f"cannot extend validity: requested ({new_bound}) exceeds known ({a.truncation})")
    kept = tuple((e, p) for e, p in a.terms if a.basis.compare(e, new_bound) <= 0)
    return FormalSeries(a.basis, kept, new_bound)


def prefix(a: FormalSeries, count: int) -> FormalSeries:
    """The sub-series of the first ``count`` stored terms, truncated there."""
    if count <= 0:
        raise ValueError("prefix length must be positive")
    kept = a.terms[:count]
    if not kept:
        return a
    return FormalSeries(a.basis, kept, kept[-1][0])
