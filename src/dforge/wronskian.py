"""Products of a function and its derivatives, Wronskian dependence testing
over formal series, and derivation of a differential equation from a
detected dependence.  A product is a one-monomial ``DiffPolynomial`` with
coefficient 1, evaluated by ``formal_eval.evaluate_powers`` as in
``substitute``.

On truncated data, the Wronskian determinant of a subset's leading window
screens for independence, computed mod the prime p = 2^61 - 1 at one point
per search: a nonzero residue is the image of a nonzero exact coefficient
under a ring map, so it certifies independence (Schwartz 1980; Zippel
1979).  The same map builds the rows: each term's coefficient is mapped
once, and a derivative multiplies its residue by that of -e.  Before a
screen determinant is expanded, ``_cannot_hit`` tries a cheap exact
proof, from the Cauchy-Binet expansion of the Wronskian, that it has no
nonzero residue; a proved stage is passed over as one with no hit, so
every verdict is the same.  Past the screen, and at once for a series
known in full, the decision is exact: a full-rank image of the term
matrix mod p proves there is no relation, and otherwise exact
elimination finds one or proves there is none.

A search sorts the exponents of all its products once, into one index
(Knuth, TAOCP 4A, 7.1.3): a subset's exponents up to its common bound are
then the bits of one integer, and a subset with fewer of them than
products is counted out as underdetermined without being decided.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from fractions import Fraction
from hashlib import sha256
from math import comb, gcd
from operator import and_, or_
from typing import Optional, Sequence, Union

from .diffpoly import DiffIndeterminate, DiffPolynomial
from .errors import HorizonTooShort
from .formal_eval import Residual, evaluate_powers, substitute
from .grammar import pretty
from .linalg import determinant, ring_echelon, ring_nullspace_vector
from .series import (
    ONE,
    Coefficient,
    Exponent,
    FormalSeries,
    _Memo,
    _mul_into,
    damping_key,
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
        for orders in _orders(w):
            mono = (0, tuple((DiffIndeterminate(0, o), k) for o, k in orders))
            out.append(DiffPolynomial(((mono, one),)))
    return out


def weight(product: DiffPolynomial) -> int:
    """The weight of a one-monomial product: order + 1 per factor of f, so
    only finitely many products exist below any weight."""
    (_, powers), _ = product.terms[0]
    return sum((ind.order + 1) * k for ind, k in powers)


def _orders(w: int, order: int = 0):
    """Partitions of w into factors of derivative order >= ``order``, a
    factor of order o counting o + 1, as (order, multiplicity) pairs.

    Most factors of the lowest order come first: the listing is
    lexicographic on the negated multiplicity vector.  Module-level, since
    a recursive closure is a reference cycle.
    """
    if w == 0:
        yield ()
    for k in range(w // (order + 1), 0, -1):
        for rest in _orders(w - k * (order + 1), order + 1):
            yield ((order, k),) + rest
    if w > order + 1:   # room left for factors of higher order only
        yield from _orders(w, order + 1)


# ---------------------------------------------------------------------------
# Dependence verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Independent:
    """Independence, certified within a validity.

    On truncated data the Wronskian screen mod p certifies it:
    ``witness_exponent`` is the least exponent at which the determinant's
    residue is nonzero, so its exact coefficient there is nonzero.  On a
    series known in full the term matrix's full column rank over every
    exponent certifies it, and the witness is None.
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
    """One evaluated product: ``coefficients`` maps each exponent e to its
    order-0 coefficient c_e for the term matrix, and the screen's residue
    rows grow lazily.  A stage m cuts at base positions, not at the terms
    of each row: row (m, j) holds the residues of c_e (-e)^j over the first
    m positions and is valid to the exponent of position m-1, as ``prefix``
    then ``differentiate_s`` give it.  Row 0 maps each c_e once; row j is
    row j-1 times the residue of -e, without the exponent 0, whose term
    vanishes at every order >= 1.  An entry whose -e has no residue is
    formed exactly and mapped.  Rows are kept, so a search makes each once
    per column; a column serves one search, and so one screen.

    The screen's exponent index gives a column ``positions``, the index
    position of each term in order, ``mask``, the bits at those positions,
    and ``cut``, the bits of the index exponents up to its truncation (-1,
    every bit, for none).
    """

    def __init__(self, evaluated: FormalSeries):
        self.evaluated = evaluated
        self.coefficients = {e: p.constant() for e, p in evaluated.terms}
        self._residues: list = []   # position -> residue of c_e, None: no image
        self._rows: dict = {}       # stage -> residue rows, None: an entry has no image

    def stage_mask(self, stage: int) -> int:
        """The index bits of the exponents of the order-0 row of ``stage``:
        the first ``stage`` terms."""
        m = min(stage, len(self.positions))
        return self.mask & ((2 << self.positions[m - 1]) - 1) if m else 0

    def screen_rows(self, stage: int, count: int, screen: "_Screen") -> Optional[list]:
        """The first ``count`` rows of ``stage`` as residue series, or None
        when one of their entries has no image.  Every nonzero entry is
        stored, its residue 0 included, so each row holds the exact row's
        exponents."""
        kept = self._rows.setdefault(stage, [])
        if kept is None:
            return None
        terms = self.evaluated.terms
        m = min(stage, len(terms))
        bound = terms[m - 1][0] if m else self.evaluated.truncation
        residues, point = self._residues, screen.point
        residues.extend(self.coefficients[e].residue(point, _MODULUS)
                        for e, _ in terms[len(residues):m])
        for order in range(len(kept), count):
            if order == 0:
                row = {terms[i][0]: residues[i] for i in range(m)}
            else:
                row = {}
                for e, v in kept[-1].terms.items():
                    if e.is_zero:
                        continue
                    negated = screen.negated(e)
                    if negated is None:   # the exact entry may still have an image
                        factor = self.evaluated.basis.derivative_factor(e, order)
                        row[e] = (self.coefficients[e] * factor).residue(point, _MODULUS)
                    else:
                        row[e] = v * negated % _MODULUS
            if None in row.values():
                self._rows[stage] = None
                return None
            kept.append(_NumSeries(row, bound, screen.memos))
        return kept[:count]


def _wronskian_determinant(columns: Sequence[_Column], stage: int, screen: "_Screen"):
    """The Wronskian determinant of the residue rows for ``stage``, over the
    search's minor table for that stage; None when an entry has no image."""
    k = len(columns)
    rows = [col.screen_rows(stage, k, screen) for col in columns]
    if any(r is None for r in rows):
        return None
    matrix = [[col_rows[i] for col_rows in rows] for i in range(k)]
    return determinant(matrix, screen.table(stage), columns)


#: The least subset size whose screen stages are first tried for a proof
#: that they cannot hit: below it the proofs cost about what the
#: determinants do.
_PROOF_MIN_K = 4


def _cannot_hit(columns: Sequence[_Column], stage: int, screen: "_Screen") -> bool:
    """Whether ``_wronskian_determinant(columns, stage, screen)`` provably
    stores no nonzero residue, shown without expanding it.

    Row i of a column holds c_e (-e)^i at each exponent e of its order-0
    row, so by Cauchy-Binet the determinant is the sum over k-sets U of
    distinct exponents in the union of the order-0 rows of
    V(U) det(C_U) e^(-(sum U) s): V the Vandermonde of the -e, C_U the
    order-0 coefficients on U.  Two facts each prove no hit:

    - few exponents: fewer than k union exponents leave no k-set U, so
      every exact coefficient, and each stored residue, is 0;
    - valuation: a nonzero coefficient sits at some sum of U, at least the
      sum L of the k least union exponents, while every stored term is at
      most the expansion's bound.  A product's bound is at most the
      minor's bound plus the entry's least exponent, and a sum's is their
      meet, so that bound is at most the last column's bound T plus the
      least exponent of one row for each other column, rows distinct.  The
      rows of order >= 1 share the least exponent l1 of the order-1 row;
      the order-0 row's, l0 <= l1, goes to one column only:
      UB = T + sum l1 + min(l0 - l1), over the columns before the last.
      L > UB is decided on float shadows only outside
      ``SymbolBasis._apart``'s margin, so no ``compare`` runs and no tie
      warns.

    The union is the OR of the columns' stage masks over the screen's
    exponent index, whose low bits are its least exponents.  No proof is
    given when an entry has no image or is the exact zero.
    """
    k = len(columns)
    rows = [col.screen_rows(stage, k, screen) for col in columns]
    # the rows of a column share its bound: an entry is the exact zero only
    # when that bound is None
    if None in rows or any(col_rows[0].bound is None for col_rows in rows):
        return False
    union = 0
    for col in columns:
        union |= col.stage_mask(stage)
    least = screen.lowest(union, k)
    if len(least) < k:
        return True
    basis, sums = screen.basis, screen.memos.sums
    key = basis.ordering_key
    low = least[0]
    for e in least[1:]:
        low = sums[low][e]
    # UB, with the order-0 row in the column where it reaches lowest by
    # the shadows; any one column would give a bound
    gaps = [key(r[0].least())[0] - key(r[1].least())[0] for r in rows[:-1]]
    lowest = gaps.index(min(gaps))
    high = rows[-1][0].bound
    for c, col_rows in enumerate(rows[:-1]):
        high = sums[high][col_rows[0 if c == lowest else 1].least()]
    fl, fh = key(low)[0], key(high)[0]
    return fl > fh and basis._apart(fl, fh)


_MODULUS = 2 ** 61 - 1  # a Mersenne prime
_UNKNOWN = object()


class _NumSeries:
    """Leading-window series mod ``_MODULUS``, for the screen.

    ``terms`` maps each exponent to the residue of its coefficient at the
    screen's point.  A residue 0 of a nonzero exact entry stays stored, and
    so does a sum that cancels: the stored exponents, ``least`` and so every
    bound follow the exact support, never the image's.  Residues form a
    ring map, so each stored residue is the image of the exact coefficient
    at its exponent.
    """

    __slots__ = ("terms", "bound", "memos", "_least")

    def __init__(self, terms: dict, bound: Optional[Exponent], memos: "_Memos"):
        self.terms = terms  # Exponent -> int in [0, _MODULUS)
        self.bound = bound
        self.memos = memos
        self._least = _UNKNOWN

    def least(self) -> Optional[Exponent]:
        """Least stored exponent, or the bound when no term is stored."""
        if self._least is _UNKNOWN:
            self._least = (min(self.terms, key=self.memos.basis.ordering_key) if self.terms
                           else self.bound)
        return self._least

    def hits(self) -> list[Exponent]:
        """Exponents with a nonzero residue: their exact coefficients are
        nonzero."""
        return [e for e, v in self.terms.items() if v]

    def __bool__(self) -> bool:
        """False only for the exact zero: no term and no bound."""
        return bool(self.terms) or self.bound is not None

    def __add__(self, other: "_NumSeries") -> "_NumSeries":
        memos = self.memos
        bound = meet_bounds(memos.basis, self.bound, other.bound)
        out = dict(self.terms)
        for e, v in other.terms.items():
            out[e] = out[e] + v if e in out else v
        past = memos.past[bound]
        return _NumSeries({e: v % _MODULUS for e, v in out.items() if not past[e]}, bound,
                          memos)

    def __neg__(self) -> "_NumSeries":
        return _NumSeries({e: -v % _MODULUS for e, v in self.terms.items()}, self.bound,
                          self.memos)

    def __mul__(self, other: "_NumSeries") -> "_NumSeries":
        memos = self.memos
        if not self or not other:
            return _NumSeries({}, None, memos)
        bound = product_bound(memos.basis, self.bound, self.least(), other.bound, other.least())
        past = memos.past[bound]
        out: dict = {}
        for ea, va in self.terms.items():
            sums = memos.sums[ea]
            for eb, vb in other.terms.items():
                e = sums[eb]
                if e in out:
                    out[e] += va * vb
                elif not past[e]:
                    out[e] = va * vb
        return _NumSeries({e: v % _MODULUS for e, v in out.items()}, bound, memos)


class _Memos:
    """The exponent work of one search's screen products, each piece done
    once: ``sums``, the basis's ``exponent_sums``, and ``past[bound]``, the
    memo ``series._past`` (never past, for no bound) kept for the search, so
    a tie within 2^-P against a bound warns once per search.  It stays
    apart from ``_Screen``: every screen series holds its memos, and the
    screen holds those series in its rows and minor tables, so memos on the
    screen itself would make a reference cycle."""

    __slots__ = ("basis", "sums", "past")

    def __init__(self, basis):
        self.basis = basis
        self.sums = basis.exponent_sums()
        self.past = _Memo(lambda bound: _Memo(lambda e: False) if bound is None
                          else _past(basis, bound))


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
    """State of the screens for one search: the point mod ``_MODULUS`` where
    the Wronskian screen and the term-matrix image read every coefficient,
    with each symbol, and each damping factor e^(-name) and e^(-1) under
    its ``damping_key``, at the sha256 of its key; the exponent index of its
    columns; the exponent memos of its products; the residue of each
    negated exponent the rows read; and the minor tables.

    The index is the union of the columns' exponents, sorted once by
    ``ordering_key``: bit i of a column's masks stands for ``exponents[i]``.
    A column's ``cut`` holds the index exponents e with
    ``compare(e, truncation) <= 0``, found by bisecting the sorted keys; each
    exponent whose shadow is not ``_apart`` from the truncation's goes
    through ``check_tie``, as ``compare`` would send it, so a tie within
    2^-P still warns.  Cuts are prefixes of one order, so the AND of a
    subset's cuts is the cut at its common bound, and the exponents of a
    subset up to that bound are the OR of its masks ANDed with it.

    A search makes one and drops it when it returns, so nothing outlives
    the search.  It holds one minor table per stage, shared by the
    determinants of every subset: subsets with a common column suffix share
    those minors.  The probe stage serves every subset size; a window stage
    serves one size and its table is dropped when the search moves to the
    next size.
    """

    def __init__(self, basis, columns: Sequence[_Column] = ()):
        self.basis = basis
        keys = basis.symbols + tuple(damping_key(n) for n in basis.symbols + (ONE,))
        self.point = {n: int.from_bytes(sha256(n.encode()).digest(), "big") % _MODULUS
                      for n in keys}
        self.memos = _Memos(basis)
        self._tables: dict = {}
        self._negated: dict = {}   # Exponent -> residue of its negation, None: no image
        key = basis.ordering_key
        self.exponents = sorted({e for col in columns for e, _ in col.evaluated.terms},
                                key=key)
        position = {e: i for i, e in enumerate(self.exponents)}
        sort_keys = [key(e) for e in self.exponents]
        cuts: dict = {None: -1}
        for col in columns:
            col.positions = [position[e] for e, _ in col.evaluated.terms]
            col.mask = sum(1 << i for i in col.positions)
            bound = col.evaluated.truncation
            if bound not in cuts:
                cuts[bound] = (1 << self._count_upto(sort_keys, bound)) - 1
            col.cut = cuts[bound]
        self.masks = [col.mask for col in columns]
        self.cuts = [col.cut for col in columns]

    def _count_upto(self, keys: list, bound: Exponent) -> int:
        """How many index exponents are at most ``bound``, the ties among
        them warned of as ``compare`` warns."""
        basis, exponents = self.basis, self.exponents
        kb = basis.ordering_key(bound)
        count = bisect_right(keys, kb)
        lo = hi = count
        while lo and not basis._apart(keys[lo - 1][0], kb[0]):
            lo -= 1
        while hi < len(keys) and not basis._apart(keys[hi][0], kb[0]):
            hi += 1
        for e in exponents[lo:hi]:
            if e is not bound:
                basis.check_tie(e, bound)
        return count

    def counted_out(self, idx: Sequence[int]) -> bool:
        """Whether the columns at positions ``idx`` have fewer exponents up
        to their common bound than columns, so that ``_decide`` would refuse
        them as underdetermined; never for columns all known in full."""
        cut = reduce(and_, map(self.cuts.__getitem__, idx))
        return cut != -1 and \
            (reduce(or_, map(self.masks.__getitem__, idx)) & cut).bit_count() < len(idx)

    def lowest(self, mask: int, count: Optional[int] = None) -> list[Exponent]:
        """The index exponents of the ``count`` lowest bits of ``mask`` (all
        of them for None), least first."""
        exponents = self.exponents
        out = []
        while mask and len(out) != count:
            low = mask & -mask
            out.append(exponents[low.bit_length() - 1])
            mask ^= low
        return out

    def negated(self, e: Exponent) -> Optional[int]:
        """The residue of -e at the point, the factor one derivative puts on
        the residue of a term at e; None when it has none."""
        if e not in self._negated:
            self._negated[e] = Coefficient.from_exponent(-e).residue(self.point, _MODULUS)
        return self._negated[e]

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
    """The verdict on one subset, whose columns ``screen`` indexes.  On
    truncated data the probe and window stages are screened first: a stage
    of a subset of ``_PROOF_MIN_K`` or more columns that ``_cannot_hit``
    proves to have no hit is passed over unexpanded, and each other stage's
    determinant is formed, its least hit the witness.  With no hit, the term
    matrix decides.  The subset's exponents up to its common bound, least
    first, are the low bits of the OR of its masks ANDed with its cuts."""
    k = len(columns)
    mask, cut = 0, -1
    for col in columns:
        mask |= col.mask
        cut &= col.cut
    exact = cut == -1

    if exact:
        ordered = screen.lowest(mask)
        if not ordered:
            # every column is the exact zero: a term matrix with no rows has
            # rank 0, and every vector is a relation
            return Dependent((Coefficient.one(),) + (Coefficient.zero(),) * (k - 1), True)
        # complete data: the term matrix over every exponent decides
        window = ordered
    else:
        mask &= cut
        window = screen.lowest(mask, k + _ROW_MARGIN)
        if len(window) < k:
            raise HorizonTooShort(
                f"only {len(window)} exponents available below the common bound; "
                f"{k} products cannot be tested", max_safe=_common_bound(columns),
                details="underdetermined")

        # Screen of the window determinant mod p: a nonzero residue is the
        # image of a nonzero exact coefficient, and the least exponent with
        # one is the witness.  A stage proved to have no hit is not
        # expanded.  An entry with no image leaves the subset to the term
        # matrix.
        imaged = True
        for stage in (_PROBE_TERMS, k + _ROW_MARGIN):
            if k >= _PROOF_MIN_K and _cannot_hit(columns, stage, screen):
                continue
            det = _wronskian_determinant(columns, stage, screen)
            if det is None:
                imaged = False
                break
            hits = det.hits()
            if hits:
                return Independent(min(hits, key=screen.basis.ordering_key))

        if len(window) < k + _ROW_MARGIN:
            # A relation certified by barely more constraints than unknowns is
            # interpolation, not evidence; the margin is not negotiable.
            raise HorizonTooShort(
                f"only {len(window)} exponents below the common bound; "
                f"certifying a relation among {k} products needs "
                f"{k + _ROW_MARGIN}", max_safe=_common_bound(columns),
                details="underdetermined")
        ordered = screen.lowest(mask)

    # every returned relation holds on all rows: a window relation that
    # fails beyond the window is replaced by one solved on every row
    zero = Coefficient.zero()
    full = [[col.coefficients.get(e, zero) for col in columns] for e in ordered]
    coeffs = _relation(full[: len(window)], screen)
    if coeffs is not None and not _relation_holds(full, coeffs):
        coeffs = _relation(full, screen)
        if coeffs is not None and not _relation_holds(full, coeffs):
            raise AssertionError("null vector failed exact re-verification")
    if coeffs is None:
        if exact:
            # full column rank on complete data proves independence
            return Independent(None)
        why = "determinant vanished up to the horizon" if imaged else \
            "the screen had no image mod p"
        raise HorizonTooShort(f"{why} but the term matrix has full column rank",
                              max_safe=_common_bound(columns), details="determinant-vanished")
    return Dependent(tuple(coeffs), exact)


def _common_bound(columns: Sequence[_Column]) -> Optional[Exponent]:
    """The least truncation among the columns (None when all are exact)."""
    basis = columns[0].evaluated.basis
    common = None
    for col in columns:
        common = meet_bounds(basis, common, col.evaluated.truncation)
    return common


def _working_series(phi: FormalSeries, horizon: Optional[Exponent]) -> FormalSeries:
    """``phi`` cut to ``horizon``: ``phi`` itself when the horizon does not
    cut below its bound."""
    if horizon is None:
        return phi
    bound = meet_bounds(phi.basis, phi.truncation, horizon)
    return phi if bound is phi.truncation else truncate(phi, bound)


def _columns(products: Sequence[DiffPolynomial], work: FormalSeries,
             memo: dict) -> list[_Column]:
    """The products evaluated on ``work``, over ``memo``."""
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
    columns = _columns(products, _working_series(phi, horizon), {})
    return _decide(columns, _Screen(phi.basis, columns))


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
    """Divide by the rational content and by the common damping factor
    e^(-mu), mu the coordinatewise least damping exponent of the terms, and
    fix the sign deterministically."""
    fracs = [q for c in vec for _, q in c.terms]
    if not fracs:
        return vec
    num = 0
    den = 1
    for q in fracs:
        num = gcd(num, q.numerator)
        den = den * q.denominator // gcd(den, q.denominator)
    content = Fraction(num, den) if num else Fraction(1)
    dampings = {damp for c in vec for (_, damp), _ in c.terms}
    names = {n for damp in dampings for n in damp.symbols()}
    mu = Exponent.make({n: min(damp.coord(n) for damp in dampings) for n in names},
                       min(damp.const for damp in dampings))
    if not mu.is_zero:
        vec = [c * Coefficient.damping(-mu) for c in vec]
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
        n += sum(1 for _ in _orders(w))
        if comb(n, 2) > MAX_SUBSETS:      # so a huge weight is refused at once
            raise _too_many_subsets(max_weight, comb(n, 2), 2)
    products = enumerate_products(max_weight)
    top = len(products) if max_k is None else min(max_k, len(products))
    work = _working_series(phi, horizon)
    memo: dict = {}
    columns = _columns(products, work, memo)
    # the candidate's products are the columns' own when they were made on
    # phi itself
    memo = memo if work is phi else None
    searched = 0
    decided = 0
    refuted: list[str] = []
    skipped: list[str] = []
    inconclusive: list[str] = []
    screen = _Screen(phi.basis, columns)
    names = [pretty(p) for p in products]
    weights = [weight(p) for p in products]
    visits = 0
    for k in range(2, top + 1):
        visits += comb(len(products), k)
        if visits > MAX_SUBSETS:
            raise _too_many_subsets(max_weight, visits, k)
        # combinations come in index order, which the stable sort keeps
        # within a total weight
        combos = sorted(itertools.combinations(range(len(products)), k),
                        key=lambda idx: sum(map(weights.__getitem__, idx)))
        for idx in combos:
            label = " , ".join(map(names.__getitem__, idx))
            searched += 1
            if screen.counted_out(idx):
                skipped.append(label)
                continue
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
            residual = substitute(candidate, phi, memo=memo)
            if residual.is_zero:
                return residual
            refuted.append(label)
    if decided == 0 and (skipped or inconclusive):
        raise HorizonTooShort(
            "no product subset could be decided at this horizon",
            max_safe=None, details="all-subsets-unresolved")
    return NotFoundWithinW(max_weight, horizon, searched,
                           tuple(refuted), tuple(skipped), tuple(inconclusive))
