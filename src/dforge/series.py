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
import threading
import warnings
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping, Optional, Union

from .errors import BadBasis, BadBound, BasisMismatch, PrecisionTieWarning
from .numeric import (
    DEFAULT_PRECISION,
    GUARD_BITS,
    check_precision,
    decimal_str_to_mpf,
    frac_str,
    fraction_to_mpf,
    magnitude,
    scaled_value,
    sum_value,
    tie_threshold,
    workprec,
)

RationalLike = Union[int, Fraction]

#: Reserved name for the constant coordinate of an exponent (numeric value 1).
ONE = "ONE"


def damping_key(name: str) -> str:
    """The key of the damping factor e^(-name) in a ``Coefficient.residue``
    point; ``damping_key(ONE)`` is the key of e^(-1)."""
    return "exp:" + name


def _as_rational(v) -> RationalLike:
    """The exact rational ``v`` as stored: an ``int`` when it is integral,
    else a ``Fraction`` (an integral value needs no gcd per operation)."""
    if type(v) is int:
        return v
    if isinstance(v, (int, str)):
        v = Fraction(v)
    elif not isinstance(v, Fraction):
        raise TypeError(f"expected an exact rational, got {type(v).__name__}")
    return v.numerator if v.denominator == 1 else v


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

@dataclass(frozen=True, eq=False, init=False)
class Exponent:
    """Rational lattice vector over the basis symbols plus a rational constant.

    The constant part is the coordinate of the distinguished unit symbol
    ``ONE``; it encodes integer exponents of plain power series so that
    power series and Dirichlet series share one representation.

    Exponents are hash-consed (Ershov 1958; Filliatre and Conchon 2006): the
    constructor stores canonical rationals and returns the one live object
    per value from a weak table, so equality and hashing are identity.
    """

    __slots__ = ("coords", "const", "_key", "__weakref__")
    coords: tuple[tuple[str, RationalLike], ...]
    const: RationalLike

    def __new__(cls, coords=(), const=0):
        return _interned(tuple((n, _as_rational(q)) for n, q in coords), _as_rational(const))

    def __reduce__(self):
        return (Exponent, (self.coords, self.const))

    @staticmethod
    def make(coords: Mapping[str, RationalLike] | None = None,
             const: RationalLike = 0) -> "Exponent":
        # a mapping's names are unique: nothing to sum, and the sort never
        # compares two rationals
        c = _as_rational(const)
        items = []
        for name, q in (coords or {}).items():
            q = _as_rational(q)
            if name == ONE:
                c = _as_rational(c + q)
            elif q:
                items.append((name, q))
        items.sort()
        return _interned(tuple(items), c)

    @staticmethod
    def zero() -> "Exponent":
        return _ZERO

    @staticmethod
    def of(name: str, q: RationalLike = 1) -> "Exponent":
        return Exponent.make({name: q})

    @staticmethod
    def constant(q: RationalLike) -> "Exponent":
        return Exponent.make({}, q)

    @property
    def is_zero(self) -> bool:
        return self is _ZERO

    def coord(self, name: str) -> RationalLike:
        if name == ONE:
            return self.const
        for n, q in self.coords:
            if n == name:
                return q
        return 0

    def symbols(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.coords)

    def sort_key(self):
        """Exact total order key used for lexicographic tie-breaking."""
        return (self.const, self.coords)

    def __add__(self, other: "Exponent") -> "Exponent":
        # zero is the commonest operand (undamped coefficient monomials)
        if self is _ZERO:
            return other
        if other is _ZERO:
            return self
        items = dict(self.coords)
        for n, q in other.coords:
            items[n] = items.get(n, 0) + q
        canon = tuple(sorted((n, _as_rational(q)) for n, q in items.items() if q != 0))
        return _interned(canon, _as_rational(self.const + other.const))

    def __neg__(self) -> "Exponent":
        return _interned(tuple((n, -q) for n, q in self.coords), -self.const)

    def __sub__(self, other: "Exponent") -> "Exponent":
        return self + (-other)

    def __mul__(self, scalar: RationalLike) -> "Exponent":
        q = _as_rational(scalar)
        if q == 0:
            return _ZERO
        return _interned(tuple((n, _as_rational(c * q)) for n, c in self.coords),
                         _as_rational(self.const * q))

    __rmul__ = __mul__

    def __str__(self) -> str:
        pieces = []
        for n, q in self.coords:
            body = n if abs(q) == 1 else f"{abs(q)}*{n}"
            pieces.append(("-" if q < 0 else "+", body))
        if self.const != 0 or not pieces:
            pieces.append(("-" if self.const < 0 else "+", str(abs(self.const))))
        return _join_signed(pieces)


_EXPONENTS = weakref.WeakValueDictionary()
_INTERNING = threading.RLock()


def _interned(coords: tuple, const: RationalLike) -> Exponent:
    """The one live Exponent of canonical ``coords`` and ``const``, found by
    an int-tuple key, so a lookup never hashes a Fraction."""
    key = (tuple((n, q.numerator, q.denominator) for n, q in coords),
           const.numerator, const.denominator)
    e = _EXPONENTS.get(key)
    if e is None:
        with _INTERNING:   # threads that miss one value at once make one object
            e = _EXPONENTS.get(key)
            if e is None:
                e = object.__new__(Exponent)
                object.__setattr__(e, "coords", coords)
                object.__setattr__(e, "const", const)
                object.__setattr__(e, "_key", key)
                _EXPONENTS[key] = e
    return e


_ZERO = _interned((), 0)


class _Memo(dict):
    """``memo[key] == fn(key)``, each value computed once."""

    __slots__ = ("_fn",)

    def __init__(self, fn):
        self._fn = fn

    def __missing__(self, key):
        value = self[key] = self._fn(key)
        return value


class _Sums(dict):
    """``sums[a][b] == a + b``, one row per left operand.  A miss in row
    ``a`` takes row ``b``'s entry for ``a`` when there is one: sums are
    interned, so it is the same object, and each unordered pair is added
    once.  Rows reach the table through a weak reference, so a row and the
    table make no reference cycle."""

    __slots__ = ("__weakref__",)

    def __missing__(self, a):
        row = self[a] = _Memo(partial(_sum, a, weakref.ref(self)))
        return row


def _sum(a: "Exponent", table: weakref.ref, b: "Exponent") -> "Exponent":
    other = (table() or {}).get(b)
    e = None if other is None else other.get(a)
    return a + b if e is None else e


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
    at precision P, each coordinate's raw value, each exponent's
    ``ordering_key`` and ``_weight``, the exponent sums (one per unordered
    pair) and the derivative factors ``(-e)^k``; and, computed once, the
    float margin floor 2^(1-P) and ``_shadow_error``.
    """

    symbols: tuple[str, ...]
    values: tuple[str, ...]
    precision: int = DEFAULT_PRECISION
    independence_assumed: bool = True
    _symbol_values: dict = field(init=False, compare=False, repr=False)
    _sums: _Sums = field(init=False, compare=False, repr=False)   # a -> b -> a + b
    _cache: dict = field(init=False, compare=False, repr=False)   # Exponent -> key
    _weights: dict = field(init=False, compare=False, repr=False)   # Exponent -> _weight
    _terms: dict = field(init=False, compare=False, repr=False)   # coordinate -> raw value
    _factors: dict = field(init=False, compare=False, repr=False)   # (Exponent, k) -> (-e)^k
    _floor: float = field(init=False, compare=False, repr=False)   # 2^(1-P), _apart's least margin
    # A shadow is within _shadow_error * _weight(e) of the value of e over the
    # reals at the symbol values: 4 roundings per term and one per addition
    # at P + GUARD_BITS (at most one per symbol), then one to a double.
    _shadow_error: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.symbols) != len(set(self.symbols)):
            raise BadBasis("symbol names must be unique")
        if ONE in self.symbols:
            raise BadBasis(f"{ONE!r} is reserved for the constant coordinate")
        if len(self.values) != len(self.symbols):
            raise BadBasis("one numeric value per symbol required")
        check_precision(self.precision, BadBasis)
        values = {}
        for name, text in zip(self.symbols, self.values):
            try:
                values[name] = decimal_str_to_mpf(text, self.precision)
            except (ValueError, ZeroDivisionError):   # mpmath reads "1/0" as a ratio
                raise BadBasis(f"symbol {name!r} has value {text[:40]!r}, "
                               f"not a decimal number") from None
        for name, value in values.items():
            if not 0 < value < float("inf"):
                raise BadBasis(f"symbol {name!r} must have a finite, strictly positive value")
        object.__setattr__(self, "_symbol_values", values)
        object.__setattr__(self, "_sums", _Sums())
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_weights", {})
        object.__setattr__(self, "_terms", {})
        object.__setattr__(self, "_factors", {})
        object.__setattr__(self, "_floor", 2.0 ** (1 - self.precision))
        object.__setattr__(self, "_shadow_error", (len(self.symbols) + 5)
                           * 2.0 ** -(self.precision + GUARD_BITS) + 2.0 ** -52)

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
        return name in self._symbol_values

    def ordering_key(self, e: Exponent) -> tuple:
        """The one exponent order: ``(float shadow, value at P, exact key)``;
        float shadows round monotonically, so they never contradict values."""
        key = self._cache.get(e)
        if key is None:
            # const + sum(q * value): as mpf arithmetic under workprec(P) does
            shadow, value = sum_value(self._raw_terms(e), self.precision)
            key = self._cache[e] = (shadow, value, e.sort_key())
        return key

    def _weight(self, e: Exponent) -> float:
        """|const| + sum of |q * value| over the coordinates of ``e``, a
        double: it scales the rounding ``_shadow_error`` bounds, and it is
        subadditive, ``_weight(a + b) <= _weight(a) + _weight(b)``."""
        w = self._weights.get(e)
        if w is None:
            w = self._weights[e] = magnitude(self._raw_terms(e))
        return w

    def _raw_terms(self, e: Exponent) -> list:
        coords, num, den = e._key
        return [self._term(None, num, den)] + [self._term(*c) for c in coords]

    def _term(self, name: Optional[str], num: int, den: int) -> tuple:
        """Raw value of the coordinate ``num/den`` of ``name`` (the rational
        alone for the constant, ``name`` None), computed once per basis."""
        t = self._terms.get((name, num, den))
        if t is None:
            value = None if name is None else self.value_of(name)
            t = self._terms[name, num, den] = scaled_value(num, den, value, self.precision)
        return t

    def exponent_value(self, e: Exponent):
        return self.ordering_key(e)[1]

    def validate_exponent(self, e: Exponent) -> None:
        for n, _ in e.coords:
            if n not in self._symbol_values:
                raise BadBasis(f"exponent references unknown symbol {n!r}")

    def _apart(self, fa: float, fb: float) -> bool:
        """Shadows this far apart order their values with no tie: the margin
        dwarfs the double rounding and is at least twice 2^-P."""
        return abs(fa - fb) > self._margin(fa, fb)

    def _margin(self, fa: float, fb: float) -> float:
        return max(1e-9 * max(1.0, abs(fa), abs(fb)), self._floor)

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
        if a is b:
            return 0
        ka, kb = self.ordering_key(a), self.ordering_key(b)
        if self._apart(ka[0], kb[0]):
            return 1 if ka[0] > kb[0] else -1
        self.check_tie(a, b)
        return 1 if ka > kb else -1

    def exponent_sums(self) -> _Sums:
        """The memo ``sums[a][b] == a + b`` shared by every product over this
        basis, the screen's and ``product_bound``'s too; ``sums[a][b]`` and
        ``sums[b][a]`` are one addition and one object."""
        return self._sums

    def derivative_factor(self, e: Exponent, k: int) -> "Coefficient":
        """``(-e)^k``, the exact factor ``d^k/ds^k`` puts on the term at ``e``,
        built once per basis."""
        factor = self._factors.get((e, k))
        if factor is None:
            factor = self._factors[e, k] = (-Coefficient.from_exponent(e)) ** k
        return factor


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
    """Product of two sorted ``((factor, power), ...)`` tuples.  Both are
    canonical (sorted, no zero power), so when one is empty, a bare
    monomial such as an undamped coefficient's or an f-free term's, the
    other is the product as it stands."""
    if not a:
        return b
    if not b:
        return a
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


def power_product(powers: tuple, value, memo: dict):
    """Product of ``value(n) ** k`` over ``((n, k), ...)``, one factor at a
    time (None for no factor).  ``memo`` keeps each value, keyed by ``n``, and
    each partial product, keyed by the tuple of factors so far, so products
    sharing a memo compute each value once and reuse a common prefix."""
    out = None
    done = ()
    for n, k in powers:
        factor = memo.get(n)
        if factor is None:
            factor = memo[n] = value(n)
        for _ in range(k):
            done += (n,)
            prev, out = out, memo.get(done)
            if out is None:
                out = memo[done] = factor if prev is None else prev * factor
    return out


class SparsePoly:
    """Sparse map from monomials to nonzero coefficients.

    ``terms`` holds ``(monomial, coefficient)`` pairs with distinct
    monomials and no zero coefficient, sorted by ``_mono_key``, so equal
    values have equal ``terms``.  Coefficients are exact rationals in
    :class:`Coefficient` and :class:`Coefficient` in every other class; both
    are false exactly when zero.  Products of either kind multiply rationals
    into flat ``monomial -> rational`` dicts through ``_mul_into``.  A rational
    is built as an ``int`` when it is integral (``_as_rational``), and as
    a ``Fraction`` only when its denominator is not 1; arithmetic on two
    ``Fraction`` values may still return an integral ``Fraction``, which is
    equal to, hashes like and prints like the ``int``.

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
        if len(items) > 1:   # most products have one term: no key to compute
            key = cls._mono_key
            items.sort(key=operator.itemgetter(0) if key is None else (lambda t: key(t[0])))
        return tuple(items)

    @classmethod
    def collect(cls, pairs, *fields):
        """Merge equal monomials, drop zero coefficients and sort."""
        return cls(*fields, cls._canonical(_accumulate({}, pairs)))

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
        # Coefficient-valued classes: one flat accumulator per monomial, so
        # no Coefficient is built per term pair (Coefficient overrides this)
        mono_mul = self._mono_mul
        memo: dict = {}
        accs: dict = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                m = mono_mul(ma, mb)
                acc = accs.get(m)
                if acc is None:
                    acc = accs[m] = {}
                _mul_into(acc, ca, cb, memo)
        return self._new(self._canonical(_coefficients(accs)))

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

_UNIT_MONO: Monomial = ((), _ZERO)


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

    terms: tuple[tuple[Monomial, RationalLike], ...] = ()

    _UNIT = _UNIT_MONO
    _mono_key = staticmethod(_mono_key)
    _mono_mul = staticmethod(_mono_mul)
    _coerce = staticmethod(_as_rational)

    @staticmethod
    def from_fraction(q: RationalLike) -> "Coefficient":
        q = _as_rational(q)
        if q == 0:
            return Coefficient()
        return Coefficient(((_UNIT_MONO, q),))

    @staticmethod
    def from_symbol(name: str, power: int = 1) -> "Coefficient":
        if power == 0:
            return Coefficient.one()
        return Coefficient((((((name, power),), _ZERO), 1),))

    @staticmethod
    def from_exponent(e: Exponent) -> "Coefficient":
        """The exponent as a linear polynomial in the symbols (exact)."""
        pairs = [(_UNIT_MONO, _as_rational(e.const))]
        pairs += [((((n, 1),), _ZERO), _as_rational(q)) for n, q in e.coords]
        return Coefficient.collect(pairs)

    @staticmethod
    def damping(nu: Exponent) -> "Coefficient":
        """The factor e^(-nu); the multiplier M(lam, h) is damping(h*lam)."""
        return Coefficient((((() , nu), 1),))

    @property
    def is_rational(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == _UNIT_MONO)

    def as_fraction(self) -> RationalLike:
        """The plain rational (an ``int`` when integral)."""
        if self.is_zero:
            return 0
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

    def residue(self, point: Mapping[str, int], p: int) -> Optional[int]:
        """The value mod the prime ``p`` with each symbol at ``point[name]``
        and each damping factor e^(-nu) at the product over nu's coordinates
        ``q`` of ``point[damping_key(name)] ** q`` (``damping_key(ONE)`` for
        the constant), a negative power an inverse.  None when a symbol or
        damping key not in ``point``, a rational damping coordinate, a
        point with no inverse or a denominator that ``p`` divides leaves it
        without one.  Over the coefficients with an image this is a ring
        map, so a nonzero image proves a nonzero coefficient."""
        total = 0
        for (syms, damp), q in self.terms:
            if q.denominator % p == 0:
                return None
            v = q.numerator * pow(q.denominator, -1, p)
            for n, k in syms:
                t = point.get(n)
                if t is None:
                    return None
                v = v * pow(t, k, p) % p
            if damp is not _ZERO:
                const = ((ONE, damp.const),) if damp.const else ()
                for n, k in damp.coords + const:
                    t = point.get(damping_key(n))
                    if t is None or k.denominator != 1 or k < 0 and t % p == 0:
                        return None
                    v = v * pow(t, k, p) % p
            total += v
        return total % p

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        acc: dict = {}
        _mul_into(acc, self, other)
        return Coefficient(self._canonical(acc))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for m, q in self.terms:
            ms = _mono_str(m)
            if ms:
                body = ms if abs(q) == 1 else f"{frac_str(abs(q))}*{ms}"
            else:
                body = frac_str(abs(q))
            parts.append(("-" if q < 0 else "+", body))
        return _join_signed(parts)


def _mul_into(acc: dict, a: Coefficient, b: Coefficient,
              memo: Optional[dict] = None) -> None:
    """Add ``a * b`` into ``acc``, a flat ``monomial -> rational`` dict, one
    rational product per monomial pair (Johnson 1974): no Coefficient is
    built until a product is done.  ``memo``, when given, keeps the monomial
    products of one product call, keyed by the monomial pair: products of
    polynomials and series multiply the same coefficients again and again,
    while one ``Coefficient * Coefficient`` never meets a pair twice."""
    for ma, qa in a.terms:
        for mb, qb in b.terms:
            if memo is None:
                m = _mono_mul(ma, mb)
            else:
                m = memo.get((ma, mb))
                if m is None:
                    m = memo[ma, mb] = _mono_mul(ma, mb)
            q = qa * qb
            prev = acc.get(m)
            acc[m] = q if prev is None else prev + q


def _coefficients(accs: dict) -> dict:
    """``key -> Coefficient`` from ``key -> flat accumulator``; a zero
    Coefficient is false, so ``_canonical`` drops it."""
    return {k: Coefficient(Coefficient._canonical(acc)) for k, acc in accs.items()}


def _as_coefficient(v) -> Coefficient:
    if isinstance(v, Coefficient):
        return v
    return Coefficient.from_fraction(v)


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
        """x * d/dx, the degree-weighting operator, term by term: degrees stay
        distinct and a scale by k != 0 keeps a coefficient nonzero."""
        return XPoly(tuple((k, c.scale(k)) for k, c in self.terms if k))

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

    def __bool__(self) -> bool:
        """False only for the exact zero: no term and no truncation bound."""
        return bool(self.terms) or self.truncation is not None

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        return series_add(self, other)

    def __neg__(self) -> "FormalSeries":
        return series_neg(self)

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        return series_mul(self, other)

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


def _build(basis: SymbolBasis, accum: dict, truncation: Optional[Exponent],
           past=None) -> FormalSeries:
    """The one step that orders a series: sort, check ties, cut at the bound
    with ``past``, the bound test ``_past(basis, truncation)`` unless one is
    given: ``series_mul`` and ``make_series`` pass the one they tested each
    exponent with, whose kept answers make a tie warn once."""
    terms = _sorted_terms(basis, accum)
    if truncation is not None:
        if past is None:
            past = _past(basis, truncation)
        terms = tuple((e, p) for e, p in terms if not past[e])
    return FormalSeries(basis, terms, truncation)


def make_series(spec, basis: SymbolBasis, truncation: Optional[Exponent]) -> FormalSeries:
    """Build the canonical series from (exponent, coefficient[, x-degree]) items.

    Items with equal exponents are merged by addition; zero results are
    pruned.  Raises :class:`BadBasis` for unknown symbols and
    :class:`BadBound` for terms beyond the truncation bound.
    """
    accum: dict = {}
    past = None if truncation is None else _past(basis, truncation)
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
        if past is not None and past[e]:
            raise BadBound(f"term exponent ({e}) exceeds the truncation bound ({truncation})")
        accum.setdefault(e, []).extend(poly.terms)
    return _build(basis, _group(accum), truncation, past)


def zero_series(basis: SymbolBasis, truncation: Optional[Exponent] = None) -> FormalSeries:
    return FormalSeries(basis, (), truncation)


def constant_series(basis: SymbolBasis, c, xdegree: int = 0) -> FormalSeries:
    """An exactly known one-term series at exponent zero."""
    poly = XPoly.monomial(xdegree, c) if not isinstance(c, XPoly) else c
    if poly.is_zero:
        return zero_series(basis)
    return FormalSeries(basis, ((Exponent.zero(), poly),), None)


def _require_basis(basis: SymbolBasis, s: FormalSeries) -> None:
    if s.basis != basis:
        raise BasisMismatch("series are defined over different symbol bases")


def series_sum(basis: SymbolBasis, parts: Iterable[FormalSeries]) -> FormalSeries:
    """Sum of the parts over ``basis`` in one build, valid to the least of
    their bounds (the exact zero for no part)."""
    accum: dict = {}
    bound = None
    for s in parts:
        _require_basis(basis, s)
        for e, p in s.terms:
            accum.setdefault(e, []).extend(p.terms)
        bound = meet_bounds(basis, bound, s.truncation)
    return _build(basis, _group(accum), bound)


def series_add(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    return series_sum(a.basis, (a, b))


def _map_terms(a: FormalSeries, f) -> FormalSeries:
    """The terms ``(e, f(e, p))`` with zero results dropped.  Exponents stay,
    so the order and the truncation bound stay: nothing is sorted."""
    return FormalSeries(a.basis, tuple((e, q) for e, p in a.terms if (q := f(e, p))),
                        a.truncation)


def series_neg(a: FormalSeries) -> FormalSeries:
    return _map_terms(a, lambda e, p: -p)


def series_sub(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    return series_add(a, series_neg(b))


def series_scale_xpoly(a: FormalSeries, poly: XPoly) -> FormalSeries:
    """Multiply every term by a fixed polynomial in x (exponents unchanged)."""
    return _map_terms(a, lambda e, p: p * poly)


def product_bound(basis: SymbolBasis, a_bound: Optional[Exponent], a_least: Optional[Exponent],
                  b_bound: Optional[Exponent], b_least: Optional[Exponent]) -> Optional[Exponent]:
    """Provable bound of a truncated product: min(T_a + least_b, T_b + least_a).

    A ``None`` bound is plus infinity; a ``None`` least exponent (a factor
    with no true terms) yields no candidate.
    """
    bound: Optional[Exponent] = None
    for t, least in ((a_bound, b_least), (b_bound, a_least)):
        if t is not None and least is not None:
            candidate = basis.exponent_sums()[t][least]
            bound = candidate if bound is None else meet_bounds(basis, bound, candidate)
    return bound


def series_mul(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    """Cauchy product by exponent addition, truncated to the provable bound.

    Only the kept part is worked, as in a short product (Mulders 2000).
    Terms are sorted by ``ordering_key``, so once the sum of row ``ea`` and
    column ``eb`` is past the bound, so are the later columns of that row
    and those columns in every later row.  A sum whose shadow exceeds the
    bound's by twice ``SymbolBasis._apart``'s margin plus the ``slack`` of
    ``_clear_of`` stops its row and narrows every later row to the columns
    before it.  A sum
    past the bound but nearer to it is skipped alone, by the ``past`` memo.

    A skipped pair (a', b') is one ``compare`` puts past the bound from the
    shadows alone, with no ``check_tie``, so the kept terms and the tie
    warnings stay those of the full product.  Let (a, b) be the pair that
    stopped the row, V(e) the value of e over the reals at the symbol
    values, additive in e, and d(e) = ``_shadow_error * _weight(e)``, which
    bounds |shadow(e) - V(e)| with the rounding of the operands' own
    shadows included.  Since a <= a' and b <= b' in the sorted order, so
    are their shadows, and

        shadow(a' + b') >= V(a') + V(b') - d(a' + b')
                        >= shadow(a) + shadow(b) - d(a') - d(b') - d(a' + b')
                        >= shadow(a + b) - D,

    D the sum of the six d's of a, b, a', b', a + b and a' + b'.  The weight
    is subadditive, so D is at most 4 * ``_shadow_error`` * (the greatest
    weight in ``a`` + the greatest in ``b``), half of ``slack``.  The shadow
    of a' + b' thus exceeds the bound's by more than twice the margin at
    (a + b) plus D, and the margin grows by only 10^-9 per unit of shadow;
    the doubling absorbs the rounding of the doubles that compute the test.
    At P = 20 the margin is at least 2^-19, and ``slack`` about 2^-30 per
    unit of weight over one symbol.
    """
    basis = a.basis
    _require_basis(basis, b)
    # An exactly-zero factor annihilates everything, with full knowledge.
    if a.is_zero and a.is_exact or b.is_zero and b.is_exact:
        return zero_series(basis)
    bound = product_bound(basis, a.truncation, _effective_min(a),
                          b.truncation, _effective_min(b))
    past = None if bound is None else _past(basis, bound)
    clear = None if bound is None else _clear_of(basis, bound, a, b)
    sums = basis.exponent_sums()
    memo: dict = {}
    # exponent -> x-degree -> flat accumulator; None: past the bound; False:
    # past it by the margin, so the rows stop there
    accum: dict = {}
    width = len(b.terms)   # later columns are past the bound in every later row
    for ea, pa in a.terms:
        sums_a = sums[ea]
        for j, (eb, pb) in enumerate(b.terms[:width]):
            e = sums_a[eb]
            polys = accum.get(e, _UNSEEN)
            if polys is _UNSEEN:   # the bound test, once per exponent
                if past is None or not past[e]:
                    polys = accum[e] = {}
                else:
                    polys = accum[e] = False if clear(e) else None
            if polys is None:
                continue
            if polys is False:
                width = j
                break
            for ka, ca in pa.terms:
                for kb, cb in pb.terms:
                    acc = polys.get(ka + kb)
                    if acc is None:
                        acc = polys[ka + kb] = {}
                    _mul_into(acc, ca, cb, memo)
        if not width:
            break
    polys = {e: XPoly(XPoly._canonical(_coefficients(d)))
             for e, d in accum.items() if d}
    return _build(basis, polys, bound, past)


_UNSEEN = object()


def _clear_of(basis: SymbolBasis, bound: Exponent, a: FormalSeries, b: FormalSeries):
    """The test that a sum of a term of ``a`` and one of ``b`` has a shadow
    past the bound's by twice ``_apart``'s margin plus ``slack``, which
    covers the rounding of every shadow involved (see ``series_mul``)."""
    fb = basis.ordering_key(bound)[0]
    slack = 8 * basis._shadow_error * sum(max(map(basis._weight, s.exponents()), default=0.0)
                                          for s in (a, b))

    def clear(e: Exponent) -> bool:
        f = basis.ordering_key(e)[0]
        return f - fb > 2 * basis._margin(f, fb) + slack
    return clear


def _past(basis: SymbolBasis, bound: Exponent) -> _Memo:
    """``past[e] == basis.compare(e, bound) > 0``, each answer kept: a tie
    within 2^-P warns once per memo, as it does in ``compare``."""
    return _Memo(lambda e: basis.compare(e, bound) > 0)


def differentiate_s(a: FormalSeries, k: int = 1) -> FormalSeries:
    """Termwise d^k/ds^k: coefficients pick up the exact factor (-lambda)^k."""
    if k < 0:
        raise ValueError("derivative order must be non-negative")
    if k == 0:
        return a
    factor = a.basis.derivative_factor
    return _map_terms(a, lambda e, p: p.scale(factor(e, k)))


def shift_s(a: FormalSeries, h: RationalLike) -> FormalSeries:
    """Substitute s -> s + h; coefficients pick up the multiplier e^(-h*lambda)."""
    h = _as_rational(h)
    if h == 0:
        return a
    return _map_terms(a, lambda e, p: p.scale(Coefficient.damping(e * h)))


def x_log_derivative(a: FormalSeries) -> FormalSeries:
    """Apply x*d/dx termwise (acts on the XPoly part only)."""
    return _map_terms(a, lambda e, p: p.x_log_derivative())


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
