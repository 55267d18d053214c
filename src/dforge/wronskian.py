"""Products of a function and its derivatives, Wronskian dependence testing
over formal series, and derivation of a differential equation from a
detected dependence.  A product is a one-monomial ``DiffPolynomial`` with
coefficient 1, evaluated by ``formal_eval.evaluate_powers`` as in
``substitute``.

On truncated data, the Wronskian determinant of a subset's leading window,
at precision P, screens for independence.  Past it, and at once for a series
known in full, the decision is exact: a full-rank image of the term matrix
mod a prime proves there is no relation, and otherwise exact elimination
finds one or proves there is none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256
from math import comb, gcd
from typing import Optional, Sequence, Union

from .diffpoly import DiffIndeterminate, DiffPolynomial
from .errors import HorizonTooShort
from .formal_eval import Residual, evaluate_powers, substitute
from .grammar import pretty
from .linalg import determinant, ring_echelon, ring_nullspace_vector
from .series import (
    Coefficient,
    Exponent,
    FormalSeries,
    _mul_into,
    _past,
    meet_bounds,
    product_bound,
    truncate,
)


def enumerate_products(max_weight: int) -> list[DiffPolynomial]:
    """All products of f and its derivatives of weight <= max_weight, as
    one-monomial polynomials with coefficient 1, graded then lexicographic.

    Within one weight the listing puts more multiplicity on lower derivative
    orders first (f^3 before f*f', before f'').  The count per weight equals
    the number of integer partitions of that weight.
    """
    if max_weight < 1:
        raise ValueError("max weight must be at least 1")
    one = Coefficient.one()
    out: list[DiffPolynomial] = []
    for w in range(1, max_weight + 1):
        for orders in sorted(_partitions_as_orders(w), key=_graded_lex_key):
            mono = (0, tuple((DiffIndeterminate(0, o), k) for o, k in orders))
            out.append(DiffPolynomial(((mono, one),)))
    return out


def weight(product: DiffPolynomial) -> int:
    """The weight of a one-monomial product: order + 1 per factor of f, so
    only finitely many products exist below any weight."""
    (_, powers), _ = product.terms[0]
    return sum((ind.order + 1) * k for ind, k in powers)


def _partitions_as_orders(w: int) -> list[tuple[tuple[int, int], ...]]:
    """Partitions of w encoded as (derivative order, multiplicity) pairs.

    A part of size p stands for one factor of derivative order p-1.
    """
    results: list = []
    _extend_partitions(w, w, {}, results)
    return results


def _extend_partitions(remaining: int, max_part: int, acc: dict, results: list) -> None:
    # module-level, since a recursive closure is a reference cycle
    if remaining == 0:
        results.append(tuple(sorted((p - 1, k) for p, k in acc.items())))
        return
    for p in range(min(remaining, max_part), 0, -1):
        acc[p] = acc.get(p, 0) + 1
        _extend_partitions(remaining - p, p, acc, results)
        acc[p] -= 1
        if not acc[p]:
            del acc[p]


def _graded_lex_key(orders: tuple[tuple[int, int], ...]):
    dense = [0] * (orders[-1][0] + 1)
    for o, k in orders:
        dense[o] = k
    return tuple(-k for k in dense)


# ---------------------------------------------------------------------------
# Dependence verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Independent:
    """Independence, certified within a validity.

    On truncated data the precision-P Wronskian screen certifies it:
    ``witness_exponent`` is the least exponent at which the determinant
    clears 2^(-P/2).  On a series known in full the term matrix's full
    column rank over every exponent certifies it, and the witness is None.
    """

    witness_exponent: Optional[Exponent]


@dataclass(frozen=True)
class Dependent:
    """Exact linear relation among the evaluated products.

    ``coefficients`` solve the term matrix exactly; ``complete`` marks that
    every known exponent participated (exact inputs), as opposed to the
    leading-window decision backed by the vanished determinant.
    """

    coefficients: tuple[Coefficient, ...]
    complete: bool


_ROW_MARGIN = 4  # leading-exponent window: k columns need k + margin rows
_PROBE_TERMS = 3


class _Column:
    """One evaluated product with its derivative table, grown lazily.

    Entry (j, i) of the table is the order-j coefficient of the evaluated
    series' i-th term, derived once from entry (j-1, i), and beside it the
    precision-P mantissa of that coefficient, made when the screen first
    reads it.  A stage m cuts at base positions, not at the terms of each
    row: row (m, j) holds the nonzero entries among the first m positions
    and is valid to the exponent of position m-1, as ``prefix`` gives it.
    A term at exponent 0 vanishes at every order >= 1, so an order-j row
    may hold fewer than m terms.  Dyadic rows and the exponents up to each
    common bound are kept, so a search makes each once per column.
    """

    def __init__(self, evaluated: FormalSeries):
        self.evaluated = evaluated
        self._orders: list = [[p for _, p in evaluated.terms]]   # order -> entries
        self._mantissas: list = []   # order -> (mantissa, binary exponent) or None
        self._dyadic: dict = {}
        self._upto: dict = {}

    def exponents_upto(self, bound: Optional[Exponent]) -> list[Exponent]:
        """Exponents of the evaluated series up to ``bound`` (all if None)."""
        kept = self._upto.get(bound)
        if kept is None:
            compare = self.evaluated.basis.compare
            kept = self._upto[bound] = [e for e, _ in self.evaluated.terms
                                        if bound is None or compare(e, bound) <= 0]
        return kept

    def _entries(self, order: int, m: int) -> list:
        """The order-``order`` coefficients of the first ``m`` positions."""
        orders = self._orders
        if order < len(orders) and len(orders[order]) >= m:
            return orders[order]
        below = self._entries(order - 1, m)
        if order == len(orders):
            orders.append([])
        out = orders[order]
        factor = self.evaluated.basis.derivative_factor
        terms = self.evaluated.terms
        out.extend(p.scale(factor(terms[i][0], 1)) if p else p
                   for i, p in enumerate(below[len(out):m], len(out)))
        return out

    def _mantissas_of(self, order: int, m: int) -> list:
        """The mantissas of the first ``m`` order-``order`` entries; None
        marks an entry that is exactly zero."""
        mantissas = self._mantissas
        while len(mantissas) <= order:
            mantissas.append([])
        out = mantissas[order]
        if len(out) < m:
            basis = self.evaluated.basis
            out.extend(_mantissa(p, basis) if p else None
                       for p in self._entries(order, m)[len(out):m])
        return out

    def dyadic_rows(self, stage: int, count: int) -> list["_NumSeries"]:
        kept = self._dyadic.setdefault(stage, [])
        if len(kept) < count:
            basis, terms = self.evaluated.basis, self.evaluated.terms
            m = min(stage, len(terms))
            bound = terms[m - 1][0] if m else self.evaluated.truncation
            for order in range(len(kept), count):
                mantissas = self._mantissas_of(order, m)
                kept.append(_NumSeries.from_mantissas(
                    [(terms[i][0], v) for i, v in enumerate(mantissas[:m]) if v is not None],
                    bound, basis))
        return kept[:count]


def _wronskian_determinant(columns: Sequence[_Column], stage: int, screen: "_Screen"):
    """The Wronskian determinant of the dyadic rows for ``stage``, over the
    search's minor table for that stage."""
    k = len(columns)
    rows = [col.dyadic_rows(stage, k) for col in columns]
    matrix = [[col_rows[i] for col_rows in rows] for i in range(k)]
    return determinant(matrix, screen.table(stage), columns)


def _mantissa(p, basis) -> tuple[int, int]:
    """The precision-P value of ``p``'s constant coefficient as an exact
    pair ``(signed mantissa, binary exponent)``."""
    sign, man, exp, _ = p.constant().numeric(basis)._mpf_
    return -int(man) if sign else int(man), exp


_UNKNOWN = object()


class _NumSeries:
    """Leading-window series with exact dyadic coefficients, for the screen.

    Coefficients are evaluated numerically once (precision P); after that
    every operation is exact integer arithmetic: the coefficient at ``e`` is
    ``terms[e] / 2**scale``, with one scale per series.  So the determinant
    screen is deterministic and free of any global floating-point context.
    """

    __slots__ = ("terms", "scale", "bound", "basis", "_least")

    def __init__(self, terms: dict, scale: int, bound: Optional[Exponent], basis):
        self.terms = terms  # Exponent -> int mantissa
        self.scale = scale  # >= 0
        self.bound = bound
        self.basis = basis
        self._least = _UNKNOWN

    @staticmethod
    def from_mantissas(parts: list, bound: Optional[Exponent], basis) -> "_NumSeries":
        """The series of ``(exponent, (mantissa, binary exponent))`` parts,
        kept exactly: each mantissa shifted onto the least power of two they
        all share."""
        scale = max([0] + [-exp for _, (_, exp) in parts])
        return _NumSeries({e: m << (exp + scale) for e, (m, exp) in parts}, scale,
                          bound, basis)

    def least(self) -> Optional[Exponent]:
        """Least stored exponent, or the bound when no term is stored."""
        if self._least is _UNKNOWN:
            self._least = (min(self.terms, key=self.basis.ordering_key) if self.terms
                           else self.bound)
        return self._least

    def hits(self) -> list[Exponent]:
        """Exponents whose coefficient exceeds 2^(-P/2) in absolute value:
        |m| / 2^scale > 2^-(P//2) as an int compare."""
        half, one = self.basis.precision // 2, 1 << self.scale
        return [e for e, m in self.terms.items() if abs(m) << half > one]

    def __bool__(self) -> bool:
        """False only for the exact zero: no term and no bound."""
        return bool(self.terms) or self.bound is not None

    def __add__(self, other: "_NumSeries") -> "_NumSeries":
        basis = self.basis
        bound = meet_bounds(basis, self.bound, other.bound)
        scale = max(self.scale, other.scale)
        shift = scale - self.scale
        out = {e: m << shift for e, m in self.terms.items()}
        shift = scale - other.scale
        for e, m in other.terms.items():
            m <<= shift
            out[e] = out[e] + m if e in out else m
        if bound is not None:
            past = _past(basis, bound)
            out = {e: m for e, m in out.items() if not past(e)}
        return _NumSeries(out, scale, bound, basis)

    def __neg__(self) -> "_NumSeries":
        return _NumSeries({e: -m for e, m in self.terms.items()}, self.scale,
                          self.bound, self.basis)

    def __mul__(self, other: "_NumSeries") -> "_NumSeries":
        basis = self.basis
        if not self or not other:
            return _NumSeries({}, 0, None, basis)
        bound = product_bound(basis, self.bound, self.least(), other.bound, other.least())
        past = None if bound is None else _past(basis, bound)
        sums = basis.exponent_sums()
        out: dict = {}
        for ea, ma in self.terms.items():
            for eb, mb in other.terms.items():
                e = sums[ea, eb]
                if e in out:
                    out[e] += ma * mb
                elif past is None or not past(e):
                    out[e] = ma * mb
        return _NumSeries(out, self.scale + other.scale, bound, basis)


_MODULUS = 2 ** 61 - 1  # a Mersenne prime


class _ModP(int):
    """An integer mod ``_MODULUS`` with the arithmetic ``ring_echelon`` uses;
    like any int, it is false only at 0."""

    __slots__ = ()

    def __add__(self, other):
        return _ModP(int.__add__(self, other) % _MODULUS)

    def __neg__(self):
        return _ModP(-int(self) % _MODULUS)

    def __mul__(self, other):
        return _ModP(int.__mul__(self, other) % _MODULUS)


class _Screen:
    """State of the screens for one search: the precision-P determinant, and
    the image mod ``_MODULUS`` with each symbol at the sha256 of its name.

    A search makes one and drops it when it returns, so nothing outlives
    the search.  It holds one minor table per stage, shared by the
    determinants of every subset: subsets with a common column suffix share
    those minors.  The probe stage serves every subset size; a window stage
    serves one size and its table is dropped when the search moves to the
    next size.
    """

    def __init__(self, basis):
        self.basis = basis
        self.point = {n: int.from_bytes(sha256(n.encode()).digest(), "big") % _MODULUS
                      for n in basis.symbols}
        self._tables: dict = {}

    def table(self, stage: int) -> dict:
        table = self._tables.get(stage)
        if table is None:
            # subsets come by increasing size, and a window stage serves one
            # size: a new one means the previous window table is done with
            for old in [s for s in self._tables if s != _PROBE_TERMS]:
                del self._tables[old]
            table = self._tables[stage] = {}
        return table

    def full_rank_image(self, matrix) -> bool:
        """Whether the image of ``matrix`` mod ``_MODULUS`` has full column
        rank.  Specializing the symbols can only lower the rank, and so can
        leaving out the rows with an entry that has no image: True proves
        full column rank over the fraction field."""
        image = []
        for row in matrix:
            residues = [entry.residue(self.point, _MODULUS) for entry in row]
            if None not in residues:
                image.append([_ModP(v) for v in residues])
        return len(ring_echelon(image)[1]) == len(matrix[0])


def _decide(columns: Sequence[_Column], screen: _Screen) -> Union[Independent, Dependent]:
    basis = screen.basis
    k = len(columns)
    evaluated = [col.evaluated for col in columns]
    common: Optional[Exponent] = None
    exact = True
    for s in evaluated:
        if s.truncation is not None:
            exact = False
            common = s.truncation if common is None else meet_bounds(basis, common, s.truncation)

    exponents: dict = {}
    for col in columns:
        exponents.update(dict.fromkeys(col.exponents_upto(common)))
    ordered = sorted(exponents, key=basis.ordering_key)

    if exact:
        # complete data: the term matrix over every exponent decides
        window = ordered
    else:
        window = ordered[: k + _ROW_MARGIN]
        if len(window) < k:
            raise HorizonTooShort(
                f"only {len(window)} exponents available below the common bound; "
                f"{k} products cannot be tested", max_safe=common,
                details="underdetermined")

        # Precision-P screen of the window determinant: the entries are
        # precision-P evaluations, all arithmetic on them is exact, and the
        # least exponent whose coefficient clears 2^(-P/2) is the witness.
        for stage in (_PROBE_TERMS, k + _ROW_MARGIN):
            det = _wronskian_determinant(columns, stage, screen)
            hits = det.hits()
            if hits:
                return Independent(min(hits, key=basis.ordering_key))

        if len(window) < k + _ROW_MARGIN:
            # A relation certified by barely more constraints than unknowns is
            # interpolation, not evidence; the margin is not negotiable.
            raise HorizonTooShort(
                f"only {len(window)} exponents below the common bound; "
                f"certifying a relation among {k} products needs "
                f"{k + _ROW_MARGIN}", max_safe=common,
                details="underdetermined")

    # every returned relation holds on all rows: a window relation that
    # fails beyond the window is replaced by one solved on every row
    full = [[_coeff_at(s, e) for s in evaluated] for e in ordered]
    coeffs = _relation(full[: len(window)], screen) if window else None
    if coeffs is not None and not _relation_holds(full, coeffs):
        coeffs = _relation(full, screen)
        if coeffs is not None and not _relation_holds(full, coeffs):
            raise AssertionError("null vector failed exact re-verification")
    if coeffs is None:
        if exact and window:
            # full column rank on complete data proves independence
            return Independent(None)
        where = "identically" if exact else "up to the horizon"
        raise HorizonTooShort(
            f"determinant vanished {where} but the term matrix has full column "
            "rank", max_safe=common, details="determinant-vanished")
    return Dependent(tuple(coeffs), exact)


def _working_series(phi: FormalSeries, horizon: Optional[Exponent]) -> FormalSeries:
    if horizon is None:
        return phi
    bound = phi.truncation if phi.truncation is not None else horizon
    bound = meet_bounds(phi.basis, bound, horizon)
    return truncate(phi, bound)


def _columns(products: Sequence[DiffPolynomial], phi: FormalSeries,
             horizon: Optional[Exponent]) -> list[_Column]:
    """The products evaluated on ``phi`` cut to ``horizon``, over one memo."""
    work = _working_series(phi, horizon)
    memo: dict = {}
    columns = [_Column(evaluate_powers(p.terms[0][0][1], work, memo)) for p in products]
    if any(q.degree not in (0, None) for col in columns for _, q in col.evaluated.terms):
        raise ValueError("equation search expects univariate series")
    return columns


def wronskian_dependence(products: Sequence[DiffPolynomial], phi: FormalSeries,
                         horizon: Optional[Exponent] = None) -> Union[Independent, Dependent]:
    """Decide linear dependence of the products evaluated on ``phi``.

    Each product is one monomial in f and its derivatives, shifted or not,
    with coefficient 1 and no ``x``; another raises ``ValueError``.  Raises
    :class:`HorizonTooShort` when the determinant vanished on the available
    data but the term matrix cannot settle a relation (full rank within the
    window, or too few exponents to test at all).
    """
    if len(products) < 2:
        raise ValueError("dependence testing needs at least two products")
    one = Coefficient.one()
    for p in products:
        powers = p.terms[0][0][1] if p.terms else ()
        if not powers or p.terms != (((0, powers), one),):
            raise ValueError(f"a product must be one monomial in f with coefficient 1 "
                             f"and no x, not {pretty(p)}")
    return _decide(_columns(products, phi, horizon), _Screen(phi.basis))


def _coeff_at(s: FormalSeries, e: Exponent) -> Coefficient:
    for ee, p in s.terms:
        if ee == e:
            return p.constant()
    return Coefficient.zero()


def _relation_holds(matrix, coeffs) -> bool:
    memo: dict = {}
    for row in matrix:
        total: dict = {}
        for entry, c in zip(row, coeffs):
            _mul_into(total, entry, c, memo)
        if any(total.values()):
            return False
    return True


def _relation(matrix, screen: _Screen) -> Optional[list[Coefficient]]:
    """A normalized kernel vector of ``matrix``, or None at full column rank.
    A full-rank image settles None without exact elimination; a deficient
    one, from a relation or an unlucky point, is left to the elimination."""
    if screen.full_rank_image(matrix):
        return None
    vec = ring_nullspace_vector(matrix)
    return None if vec is None else _normalize(vec)


def _normalize(vec: list[Coefficient]) -> list[Coefficient]:
    """Divide by the rational content and fix the sign deterministically."""
    fracs = [q for c in vec for _, q in c.terms]
    if not fracs:
        return vec
    num = 0
    den = 1
    for q in fracs:
        num = gcd(num, q.numerator)
        den = den * q.denominator // gcd(den, q.denominator)
    content = Fraction(num, den) if num else Fraction(1)
    lead = next((c for c in vec if not c.is_zero), None)
    if lead is not None and lead.terms[0][1] < 0:
        content = -content
    return [c.scale(1 / content) for c in vec]


# ---------------------------------------------------------------------------
# Equation search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NotFoundWithinW:
    """Honest budget exhaustion: no verified relation below the weight bound.

    Subsets the horizon could not settle are listed rather than hidden:
    ``skipped_underdetermined`` had fewer usable exponents than products,
    ``skipped_inconclusive`` had a vanished determinant against a full-rank
    term matrix.
    """

    max_weight: int
    horizon: Optional[Exponent]
    subsets_searched: int
    candidates_refuted: tuple[str, ...]
    skipped_underdetermined: tuple[str, ...]
    skipped_inconclusive: tuple[str, ...] = ()


#: The most product subsets one search may visit.  Weight 5 with every
#: subset size visits 262,125; weight 6 would visit about 5.4e8, so a search
#: at weight 6 or more returns an equation found among small subsets and is
#: refused before a subset size that would pass the cap.
MAX_SUBSETS = 10 ** 6


def _too_many_subsets(max_weight: int, count: int, k: int) -> ValueError:
    return ValueError(
        f"max weight {max_weight} would search more than {MAX_SUBSETS} "
        f"product subsets ({count} up to size {k}); lower it or set max k")


def derive_ade(phi: FormalSeries, max_weight: int,
               horizon: Optional[Exponent] = None,
               max_k: Optional[int] = None) -> Union[DiffPolynomial, NotFoundWithinW]:
    """The equation :func:`search_ade` finds, or its NotFoundWithinW."""
    found = search_ade(phi, max_weight, horizon, max_k)
    return found.polynomial if isinstance(found, Residual) else found


def search_ade(phi: FormalSeries, max_weight: int,
               horizon: Optional[Exponent] = None,
               max_k: Optional[int] = None) -> Union[Residual, NotFoundWithinW]:
    """Search product subsets for a differential equation phi satisfies.

    Subsets are visited by increasing size, then total weight, then the
    graded enumeration order.  The horizon caps the dependence-detection
    window only; every detected relation is cross-checked by substitution
    against the argument's full validity, so a relation that merely
    interpolates the window is refuted by the data beyond it.  Refuted
    candidates are recorded, not returned; the equation found comes with
    its zero residual at the argument's full validity.  A search is refused
    with ``ValueError`` before the subset size at which its visits would
    pass ``MAX_SUBSETS``, and before any product is built when the pairs
    alone would.
    """
    if max_weight < 2:
        raise ValueError("max weight must be at least 2")
    if max_k is not None and max_k < 2:
        raise ValueError("max k must be at least 2")
    n = 0
    for w in range(1, max_weight + 1):   # count the products before building them
        n += len(_partitions_as_orders(w))
        if comb(n, 2) > MAX_SUBSETS:      # so a huge weight is refused at once
            raise _too_many_subsets(max_weight, comb(n, 2), 2)
    products = enumerate_products(max_weight)
    top = len(products) if max_k is None else min(max_k, len(products))
    columns = _columns(products, phi, horizon)
    searched = 0
    decided = 0
    refuted: list[str] = []
    skipped: list[str] = []
    inconclusive: list[str] = []
    screen = _Screen(phi.basis)
    names = [pretty(p) for p in products]
    weights = [weight(p) for p in products]
    visits = 0
    for k in range(2, top + 1):
        visits += comb(len(products), k)
        if visits > MAX_SUBSETS:
            raise _too_many_subsets(max_weight, visits, k)
        combos = sorted(itertools.combinations(range(len(products)), k),
                        key=lambda idx: (sum(weights[i] for i in idx), idx))
        for idx in combos:
            label = " , ".join(names[i] for i in idx)
            searched += 1
            try:
                verdict = _decide([columns[i] for i in idx], screen)
            except HorizonTooShort as exc:
                if exc.details == "underdetermined":
                    skipped.append(label)
                else:
                    inconclusive.append(label)
                continue
            decided += 1
            if isinstance(verdict, Independent):
                continue
            candidate = DiffPolynomial.collect(
                (products[i].terms[0][0], c) for i, c in zip(idx, verdict.coefficients))
            residual = substitute(candidate, phi)
            if residual.is_zero:
                return residual
            refuted.append(label)
    if decided == 0 and (skipped or inconclusive):
        raise HorizonTooShort(
            "no product subset could be decided at this horizon",
            max_safe=None, details="all-subsets-unresolved")
    return NotFoundWithinW(max_weight, horizon, searched,
                           tuple(refuted), tuple(skipped), tuple(inconclusive))
