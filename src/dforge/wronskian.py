"""Power products of a function and its derivatives, Wronskian dependence
testing over formal series, and derivation of a differential equation from a
detected dependence.

Dependence over truncated series is decided by exact linear algebra on the
coefficient matrix of the leading exponents; the Wronskian determinant of
the evaluated products is computed as corroborating evidence, since finite
data alone cannot certify that a determinant vanishes identically.  Both
artifacts appear in the verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence, Union

from .diffpoly import DiffIndeterminate, DiffPolynomial
from .errors import HorizonTooShort
from .formal_eval import Residual, substitute
from .linalg import Ring, determinant, operator_ring, ring_nullspace_vector
from .series import (
    Coefficient,
    Exponent,
    FormalSeries,
    constant_series,
    differentiate_s,
    meet_bounds,
    prefix,
    product_bound,
    series_add,
    series_mul,
    series_neg,
    truncate,
    zero_series,
)

_COEFF_RING = operator_ring(Coefficient.zero(), Coefficient.one())


def _series_ring(basis) -> Ring:
    return Ring(zero=zero_series(basis), one=constant_series(basis, 1),
                add=series_add, neg=series_neg, mul=series_mul,
                is_zero=lambda s: s.is_zero)


@dataclass(frozen=True)
class PowerProduct:
    """Monomial in a function and its derivatives, graded by weight.

    ``powers`` maps derivative order to a positive multiplicity; the weight
    of one factor of order i is i+1, so only finitely many products exist
    below any weight.
    """

    powers: tuple[tuple[int, int], ...]

    @staticmethod
    def make(powers: dict[int, int]) -> "PowerProduct":
        canon = tuple(sorted((o, k) for o, k in powers.items() if k))
        if not canon:
            raise ValueError("a power product must contain at least one factor")
        if any(o < 0 or k < 0 for o, k in canon):
            raise ValueError("orders and powers must be non-negative")
        return PowerProduct(canon)

    @property
    def weight(self) -> int:
        return sum((o + 1) * k for o, k in self.powers)

    def evaluate(self, phi: FormalSeries, memo: Optional[dict] = None) -> FormalSeries:
        """The product on ``phi``, multiplied out factor by factor.

        A ``memo`` shared by products over the same ``phi`` keeps every
        derivative (keyed by order) and every partial product (keyed by the
        tuple of factor orders multiplied so far), so products reuse a
        common prefix; the operations are the same as without one.
        """
        memo = {} if memo is None else memo
        out = None
        done = ()
        for order, k in self.powers:
            factor = memo.get(order)
            if factor is None:
                factor = memo[order] = differentiate_s(phi, order)
            for _ in range(k):
                done += (order,)
                prev, out = out, memo.get(done)
                if out is None:
                    out = memo[done] = factor if prev is None else series_mul(prev, factor)
        return out

    def as_diffpoly(self, coefficient=None) -> DiffPolynomial:
        mono = (0, tuple((DiffIndeterminate(Fraction(0), o), k) for o, k in self.powers))
        c = Coefficient.one() if coefficient is None else coefficient
        return DiffPolynomial(((mono, c),))

    def __str__(self) -> str:
        parts = []
        for o, k in self.powers:
            body = "f" + "'" * o
            parts.append(body if k == 1 else f"{body}^{k}")
        return "*".join(parts)


def enumerate_products(max_weight: int) -> list[PowerProduct]:
    """All power products of weight <= max_weight, graded then lexicographic.

    Within one weight the listing puts more multiplicity on lower derivative
    orders first (f^3 before f*f', before f'').  The count per weight equals
    the number of integer partitions of that weight.
    """
    if max_weight < 1:
        raise ValueError("max weight must be at least 1")
    out: list[PowerProduct] = []
    for w in range(1, max_weight + 1):
        bucket = [PowerProduct.make(dict(p)) for p in _partitions_as_orders(w)]
        bucket.sort(key=_graded_lex_key)
        out.extend(bucket)
    return out


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


def _graded_lex_key(p: PowerProduct):
    max_order = p.powers[-1][0]
    dense = [0] * (max_order + 1)
    for o, k in p.powers:
        dense[o] = k
    return tuple(-k for k in dense)


# ---------------------------------------------------------------------------
# Dependence verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Independent:
    """The Wronskian determinant certifies independence within its validity."""

    witness_exponent: Exponent
    valid_to: Optional[Exponent]


@dataclass(frozen=True)
class Dependent:
    """Exact linear relation among the evaluated products.

    ``coefficients`` solve the term matrix exactly; ``complete`` marks that
    every known exponent participated (exact inputs), as opposed to the
    leading-window decision backed by the vanished determinant.
    """

    coefficients: tuple[Coefficient, ...]
    wronskian_valid_to: Optional[Exponent]
    rows_used: int
    complete: bool


_ROW_MARGIN = 4  # leading-exponent window: k columns need k + margin rows
_PROBE_TERMS = 3


class _Column:
    """One evaluated product with lazily grown derivative rows per stage.

    A stage caps the evaluated series at its first m terms; derivative rows
    commute with that cap (derivatives keep exponents), so each stage's rows
    are exact leading-window data.  The screen's dyadic form of each row,
    and the exponents up to each common bound, are kept beside them, so a
    search computes them once per column.
    """

    def __init__(self, evaluated: FormalSeries):
        self.evaluated = evaluated
        self._rows: dict = {}
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

    def rows(self, stage: Optional[int], count: int) -> list[FormalSeries]:
        chain = self._rows.get(stage)
        if chain is None:
            base = self.evaluated
            if stage is not None and base.terms:
                base = prefix(base, stage)
            chain = [base]
            self._rows[stage] = chain
        while len(chain) < count:
            chain.append(differentiate_s(chain[-1]))
        return chain[:count]

    def dyadic_rows(self, stage: int, count: int) -> list["_NumSeries"]:
        chain = self._dyadic.setdefault(stage, [])
        if len(chain) < count:
            chain.extend(_NumSeries.from_series(s) for s in self.rows(stage, count)[len(chain):])
        return chain[:count]


def _wronskian_determinant(columns: Sequence[_Column], stage: Optional[int],
                           basis) -> FormalSeries:
    k = len(columns)
    matrix = [[col.rows(stage, k)[i] for col in columns] for i in range(k)]
    return determinant(matrix, _series_ring(basis))


_UNKNOWN = object()


class _NumSeries:
    """Leading-window series with exact dyadic coefficients, for the screen."""

    __slots__ = ("terms", "bound", "_least")

    def __init__(self, terms: dict, bound: Optional[Exponent]):
        self.terms = terms  # Exponent -> Fraction (dyadic)
        self.bound = bound
        self._least = _UNKNOWN

    @staticmethod
    def from_series(s: FormalSeries) -> "_NumSeries":
        """Precision-P values of the coefficients, kept exactly as dyadics."""
        terms = {e: _as_dyadic(p.constant().numeric(s.basis)) for e, p in s.terms}
        return _NumSeries(terms, s.truncation)

    def least(self, basis) -> Optional[Exponent]:
        """Least stored exponent, or the bound when no term is stored."""
        if self._least is _UNKNOWN:
            self._least = (min(self.terms, key=basis.ordering_key) if self.terms
                           else self.bound)
        return self._least


def _as_dyadic(x) -> Fraction:
    """Exact rational value of an mpf (mantissa times a power of two)."""
    sign, man, exp, _ = x._mpf_
    man = int(man)
    if sign:
        man = -man
    return Fraction(man) * Fraction(2) ** exp if exp < 0 else Fraction(man * 2 ** exp)


def _numeric_ring(basis) -> Ring:
    """Exact arithmetic over precision-P coefficient evaluations.

    Coefficients are evaluated numerically once (precision P); after that
    every ring operation is exact rational arithmetic on those dyadic
    values, so the determinant screen is deterministic and free of any
    global floating-point context.
    """

    def add(a: _NumSeries, b: _NumSeries) -> _NumSeries:
        bound = meet_bounds(basis, a.bound, b.bound)
        out = dict(a.terms)
        for e, c in b.terms.items():
            out[e] = out[e] + c if e in out else c
        if bound is not None:
            out = {e: c for e, c in out.items() if basis.compare(e, bound) <= 0}
        return _NumSeries(out, bound)

    def neg(a: _NumSeries) -> _NumSeries:
        return _NumSeries({e: -c for e, c in a.terms.items()}, a.bound)

    sums = basis.exponent_sums()

    def mul(a: _NumSeries, b: _NumSeries) -> _NumSeries:
        if (not a.terms and a.bound is None) or (not b.terms and b.bound is None):
            return _NumSeries({}, None)
        bound = product_bound(basis, a.bound, a.least(basis), b.bound, b.least(basis))
        out: dict = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                e = sums[ea, eb]
                if bound is not None and basis.compare(e, bound) > 0:
                    continue
                prod = ca * cb
                out[e] = out[e] + prod if e in out else prod
        return _NumSeries(out, bound)

    zero = _NumSeries({}, None)
    one = _NumSeries({Exponent.zero(): Fraction(1)}, None)
    return Ring(zero=zero, one=one, add=add, neg=neg, mul=mul,
                is_zero=lambda s: not s.terms)


class _Screen:
    """State of the precision-P determinant screen for one search.

    A search makes one and drops it when it returns, so nothing outlives
    the search.  It holds the dyadic ring and one minor table per stage,
    shared by the determinants of every subset: subsets with a common
    column suffix share those minors.  The probe stage serves every subset
    size; a window stage serves one size and its table is dropped when the
    search moves to the next size.
    """

    def __init__(self, basis):
        self.basis = basis
        self.ring = _numeric_ring(basis)
        self.tol = Fraction(1, 2 ** (basis.precision // 2))
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


def _numeric_determinant(columns: Sequence[_Column], stage: int, screen: _Screen):
    """Precision-P screen of the window Wronskian determinant.

    Input coefficients are precision-P evaluations; all subsequent
    arithmetic is exact.  Returns (witness exponent, validity bound) when
    some coefficient clears the 2^(-P/2) decision threshold, None
    otherwise.  The exact linear algebra downstream never relies on this
    screen.
    """
    k = len(columns)
    cols = [col.dyadic_rows(stage, k) for col in columns]
    matrix = [[col[i] for col in cols] for i in range(k)]
    det = determinant(matrix, screen.ring, screen.table(stage), columns)
    hits = [e for e, c in det.terms.items() if abs(c) > screen.tol]
    if not hits:
        return None
    return min(hits, key=screen.basis.ordering_key), det.bound


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

    def matrix_for(rows_list):
        return [[_coeff_at(s, e) for s in evaluated] for e in rows_list]

    if exact:
        # complete data: the exact determinant is small and authoritative
        det = _wronskian_determinant(columns, None, basis)
        if not det.is_zero:
            e, _ = det.terms[0]
            return Independent(e, det.truncation)
        vec = ring_nullspace_vector(matrix_for(ordered), _COEFF_RING) if ordered else None
        if vec is None:
            raise HorizonTooShort(
                "determinant vanished identically but the exact term matrix has "
                "full column rank", max_safe=None)
        coeffs = _normalize(vec)
        _check_relation(matrix_for(ordered), coeffs)
        return Dependent(tuple(coeffs), None, len(ordered), True)

    window = ordered[: k + _ROW_MARGIN]
    if len(window) < k:
        raise HorizonTooShort(
            f"only {len(window)} exponents available below the common bound; "
            f"{k} products cannot be tested", max_safe=common,
            details="underdetermined")

    # Corroborating determinant on the leading window, evaluated at
    # precision P (the decision itself is the exact algebra below).
    witness = None
    for stage in (_PROBE_TERMS, k + _ROW_MARGIN):
        witness = _numeric_determinant(columns, stage, screen)
        if witness is not None:
            return Independent(witness[0], witness[1])

    if len(window) < k + _ROW_MARGIN:
        # A relation certified by barely more constraints than unknowns is
        # interpolation, not evidence; the margin is not negotiable.
        raise HorizonTooShort(
            f"only {len(window)} exponents below the common bound; "
            f"certifying a relation among {k} products needs "
            f"{k + _ROW_MARGIN}", max_safe=common,
            details="underdetermined")

    # Numeric screen: confidently full column rank means no relation exists
    # on this window, so the exact nullspace runs only when a relation is
    # numerically present (or the pivots are ambiguous).
    floats = [[float(entry.numeric(basis)) for entry in row]
              for row in matrix_for(window)]
    if _confident_full_rank(floats, k):
        raise HorizonTooShort(
            "determinant vanished up to the horizon but the term matrix has "
            "full column rank; extend the series", max_safe=common,
            details="determinant-vanished")

    vec = ring_nullspace_vector(matrix_for(window), _COEFF_RING)
    if vec is not None:
        coeffs = _normalize(vec)
        if _relation_holds(matrix_for(ordered), coeffs):
            return Dependent(tuple(coeffs), common, len(ordered), False)
        vec = ring_nullspace_vector(matrix_for(ordered), _COEFF_RING)
        if vec is not None:
            coeffs = _normalize(vec)
            _check_relation(matrix_for(ordered), coeffs)
            return Dependent(tuple(coeffs), common, len(ordered), False)
    raise HorizonTooShort(
        "determinant vanished up to the horizon but the term matrix has full "
        "column rank; extend the series", max_safe=common,
        details="determinant-vanished")


def _working_series(phi: FormalSeries, horizon: Optional[Exponent]) -> FormalSeries:
    if horizon is None:
        return phi
    bound = phi.truncation if phi.truncation is not None else horizon
    bound = meet_bounds(phi.basis, bound, horizon)
    return truncate(phi, bound)


def wronskian_dependence(products: Sequence[PowerProduct], phi: FormalSeries,
                         horizon: Optional[Exponent] = None) -> Union[Independent, Dependent]:
    """Decide linear dependence of the products evaluated on ``phi``.

    Raises :class:`HorizonTooShort` when the determinant vanished on the
    available data but the term matrix cannot settle a relation (full rank
    within the window, or too few exponents to test at all).
    """
    if len(products) < 2:
        raise ValueError("dependence testing needs at least two products")
    work = _working_series(phi, horizon)
    memo: dict = {}
    evaluated = [p.evaluate(work, memo) for p in products]
    for s in evaluated:
        if any(p.degree not in (0, None) for _, p in s.terms):
            raise ValueError("dependence testing expects univariate series")
    return _decide([_Column(s) for s in evaluated], _Screen(phi.basis))


def _confident_full_rank(matrix: list[list[float]], k: int) -> bool:
    """Float Gaussian elimination with a wide ambiguity band.

    Returns True only when every column produces a pivot comfortably above
    the noise floor, so a true exact relation (whose float residue is
    essentially zero) can never be screened away; anything ambiguous falls
    back to the exact algebra.
    """
    rows = [row[:] for row in matrix]
    scale = max((abs(v) for row in rows for v in row), default=0.0)
    if scale == 0.0:
        return False
    confident = 1e-6 * scale
    r = 0
    for c in range(k):
        pivot, best = None, 0.0
        for i in range(r, len(rows)):
            if abs(rows[i][c]) > best:
                pivot, best = i, abs(rows[i][c])
        if best <= confident:
            # vanished or ambiguous pivot: not confidently full rank
            return False
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / pv
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r == k


def _coeff_at(s: FormalSeries, e: Exponent) -> Coefficient:
    for ee, p in s.terms:
        if ee == e:
            return p.constant()
    return Coefficient.zero()


def _relation_holds(matrix, coeffs) -> bool:
    for row in matrix:
        total = Coefficient.zero()
        for entry, c in zip(row, coeffs):
            total = total + entry * c
        if not total.is_zero:
            return False
    return True


def _check_relation(matrix, coeffs) -> None:
    if not _relation_holds(matrix, coeffs):
        raise AssertionError("null vector failed exact re-verification")


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


def derive_ade(phi: FormalSeries, max_weight: int,
               horizon: Optional[Exponent] = None,
               max_k: Optional[int] = None) -> Union[DiffPolynomial, NotFoundWithinW]:
    """The equation :func:`search_ade` finds, or its NotFoundWithinW."""
    found = search_ade(phi, max_weight, horizon, max_k)
    return found.polynomial if isinstance(found, Residual) else found


def search_ade(phi: FormalSeries, max_weight: int,
               horizon: Optional[Exponent] = None,
               max_k: Optional[int] = None) -> Union[Residual, NotFoundWithinW]:
    """Search power-product subsets for a differential equation phi satisfies.

    Subsets are visited by increasing size, then total weight, then the
    graded enumeration order.  The horizon caps the dependence-detection
    window only; every detected relation is cross-checked by substitution
    against the argument's full validity, so a relation that merely
    interpolates the window is refuted by the data beyond it.  Refuted
    candidates are recorded, not returned; the equation found comes with
    its zero residual at the argument's full validity.
    """
    if max_weight < 2:
        raise ValueError("max weight must be at least 2")
    products = enumerate_products(max_weight)
    top = len(products) if max_k is None else min(max_k, len(products))
    work = _working_series(phi, horizon)
    memo: dict = {}
    columns = [_Column(p.evaluate(work, memo)) for p in products]
    for col in columns:
        if any(p.degree not in (0, None) for _, p in col.evaluated.terms):
            raise ValueError("equation search expects univariate series")
    searched = 0
    decided = 0
    refuted: list[str] = []
    skipped: list[str] = []
    inconclusive: list[str] = []
    screen = _Screen(phi.basis)
    names = [str(p) for p in products]
    weights = [p.weight for p in products]
    for k in range(2, top + 1):
        combos = sorted(itertools.combinations(range(len(products)), k),
                        key=lambda idx: (sum(weights[i] for i in idx), idx))
        for idx in combos:
            subset = [products[i] for i in idx]
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
            candidate = DiffPolynomial.zero()
            for p, c in zip(subset, verdict.coefficients):
                candidate = candidate + p.as_diffpoly(c)
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
