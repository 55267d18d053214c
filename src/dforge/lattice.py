"""Integer-linear structure of exponent systems.

Exponents are rational vectors over the symbol basis (plus the constant
coordinate).  A :class:`Lattice` keeps the integer row lattice of a growing
family incrementally, one common denominator cleared; its canonical
generators are the Hermite normal form of those rows, which witness minimal
rank and support exact membership tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import FactorLimitExceeded, NotInLatticeError
from .series import (
    Coefficient,
    Exponent,
    FormalSeries,
    SymbolBasis,
)

# The constant coordinate participates in the lattice as a virtual column.
_CONST_COL = None


def _columns(basis: SymbolBasis) -> tuple:
    return (_CONST_COL, *basis.symbols)


def hermite_normal_form(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row-style HNF: echelon, positive pivots, entries above reduced mod pivot."""
    m = [list(map(int, row)) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, nrows) if m[i][c] != 0]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: abs(m[i][c]))
            for i in nz:
                if i == i0:
                    continue
                q = m[i][c] // m[i0][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[i0])]
        nz = [i for i in range(r, nrows) if m[i][c] != 0]
        if not nz:
            continue
        m[r], m[nz[0]] = m[nz[0]], m[r]
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return m[:r]


# ---------------------------------------------------------------------------
# Sparse integer rows: {column index: nonzero int}, column 0 the constant.
# Rows are never mutated in place, so echelons may share them.
# ---------------------------------------------------------------------------

def _int_row(e: Exponent, index: dict, denom: int) -> Optional[dict[int, int]]:
    """The row of ``denom * e``, or None when ``e`` has a symbol outside
    ``index`` or a denominator that does not divide ``denom``."""
    row = {}
    for j, q in ((0, e.const), *((index.get(n), q) for n, q in e.coords)):
        if j is None or denom % q.denominator:
            return None
        if q:
            row[j] = q.numerator * (denom // q.denominator)
    return row


def _minus(u: dict, q: int, v: dict) -> dict:
    """The row ``u - q*v``."""
    out = dict(u)
    for j, x in v.items():
        y = out.get(j, 0) - q * x
        if y:
            out[j] = y
        else:
            out.pop(j, None)
    return out


def _insert(pivots: dict, row: dict) -> bool:
    """Reduce ``row`` into the echelon ``pivots`` (leading column -> row).

    Euclid on the leading entries: subtract the pivot row's multiple and,
    while a remainder is left, swap it in as the pivot row.  Each step is
    unimodular on the pair, so the pivot rows keep generating exactly the
    lattice of all rows inserted.  True when the row survives as a new pivot
    row, that is, when the rank grows.
    """
    while row:
        c = min(row)
        p = pivots.get(c)
        if p is None:
            pivots[c] = row
            return True
        q, r = divmod(row[c], p[c])
        row = _minus(row, q, p)
        if r:
            pivots[c], row = row, p
    return False


def _divide_out(pivots: dict, row: dict) -> Optional[dict[int, int]]:
    """Quotients {pivot column: q} with ``row == sum q * pivots[c]``, or None.

    Exact-division back-substitution: a lattice element's leading entry is
    a multiple of the pivot in its leading column, or it is not in the
    lattice at all.
    """
    quotients = {}
    while row:
        c = min(row)
        p = pivots.get(c)
        if p is None:
            return None
        q, r = divmod(row[c], p[c])
        if r:
            return None
        quotients[c] = q
        row = _minus(row, q, p)
    return quotients


class Lattice:
    """Integer row lattice of a growing exponent family, kept incrementally.

    Rows are sparse integer vectors over the columns ``(const, *symbols)``
    scaled by one common denominator, in echelon form keyed by leading
    column.  ``add`` reduces each new row into the echelon by unimodular
    Euclid steps, so nothing is ever re-eliminated; ``history`` holds
    ``(count added, rank)`` at every rank increase.  ``contains`` decides
    membership exactly, ``generators`` gives the canonical (Hermite normal
    form) generators and ``finish`` the full :class:`LatticeBasis`.
    """

    def __init__(self, basis: SymbolBasis):
        self.basis = basis
        self.cols = _columns(basis)
        self._index = {c: j for j, c in enumerate(self.cols)}
        self.exponents: list[Exponent] = []
        self.history: list[tuple[int, int]] = []
        self.rank = 0
        self._denom = 1
        self._pivots: dict[int, dict[int, int]] = {}
        # echelon of the rank-raising inputs alone, for ``input_subset``
        self._picked: dict[int, dict[int, int]] = {}
        self._finished: Optional[LatticeBasis] = None

    def add(self, e: Exponent) -> int:
        """Add one exponent; returns the rank of everything added so far."""
        self.basis.validate_exponent(e)
        self.exponents.append(e)
        self._finished = None
        self._clear_denominators(e)
        row = _int_row(e, self._index, self._denom)
        if _insert(self._pivots, row):
            _insert(self._picked, row)
            self.rank += 1
            self.history.append((len(self.exponents), self.rank))
        return self.rank

    def _clear_denominators(self, e: Exponent) -> None:
        d = math.lcm(self._denom, e.const.denominator, *(q.denominator for _, q in e.coords))
        if d != self._denom:
            k = d // self._denom
            for pivots in (self._pivots, self._picked):
                for c, row in pivots.items():
                    pivots[c] = {j: k * x for j, x in row.items()}
            self._denom = d

    def contains(self, e: Exponent) -> bool:
        """Exact membership of ``e`` in the lattice."""
        return self._coordinates(e) is not None

    def _coordinates(self, e: Exponent) -> Optional[tuple[int, ...]]:
        """Integer coefficients of ``e`` over the pivot rows in insertion
        order, or None."""
        row = _int_row(e, self._index, self._denom)
        quotients = None if row is None else _divide_out(self._pivots, row)
        if quotients is None:
            return None
        return tuple(quotients.get(c, 0) for c in self._pivots)

    def express(self, e: Exponent) -> Optional[tuple[int, ...]]:
        """Integer coordinates of ``e`` over ``generators()``, or None."""
        return express(e, self.finish())

    def generators(self) -> tuple[Exponent, ...]:
        """Hermite-normal-form generators, each signed to a positive value.

        The HNF of a lattice is unique for a fixed column order, so these do
        not depend on the order in which exponents were added.
        """
        n = len(self.cols)
        rows = [[self._pivots[c].get(j, 0) for j in range(n)] for c in sorted(self._pivots)]
        gens = []
        for row in hermite_normal_form(rows):
            g = Exponent.make({c: Fraction(v, self._denom)
                               for c, v in zip(self.cols[1:], row[1:]) if v},
                              Fraction(row[0], self._denom))
            # a value within 2^-P of zero puts the basis's independence in doubt
            self.basis.check_tie(g, Exponent.zero())
            gens.append(-g if self.basis.exponent_value(g) < 0 else g)
        return tuple(gens)

    def finish(self) -> LatticeBasis:
        """Generators, every input over them, and a generating input subset."""
        if self._finished is None:
            gens = self.generators()
            echelon = _lattice_of(gens, self.basis)
            change = tuple(echelon._coordinates(e) for e in self.exponents)
            if None in change:
                raise AssertionError("input exponent not expressible over its own HNF basis")
            self._finished = LatticeBasis(self.basis, gens, change, self.rank,
                                          self._input_subset())
        return self._finished

    def _input_subset(self) -> Optional[tuple[int, ...]]:
        # The rank-raising inputs span a sublattice S of the same rank; with
        # both in echelon form over the same pivot columns, each pivot of S
        # is a multiple of the matching pivot here and the index of S is the
        # product of the ratios, so S is the whole lattice exactly when the
        # pivots agree up to sign.
        if all(abs(self._picked[c][c]) == abs(p[c]) for c, p in self._pivots.items()):
            return tuple(count - 1 for count, _ in self.history)
        return None


# Name kept for rank-scan callers; perfbench's tracer wraps ``RankScan.add``.
RankScan = Lattice


@dataclass(frozen=True)
class LatticeBasis:
    """Minimal integer generating set for a family of exponents.

    ``change_of_basis`` expresses every input over the generators exactly;
    ``input_subset`` lists indices of original exponents generating the same
    lattice, when such a subset exists within the scanned family.
    """

    basis: SymbolBasis
    generators: tuple[Exponent, ...]
    change_of_basis: tuple[tuple[int, ...], ...]
    rank: int
    input_subset: Optional[tuple[int, ...]] = None

    @cached_property
    def _echelon(self) -> Lattice:
        # HNF generators are in echelon order with distinct leading columns,
        # so each becomes its own pivot row, in generator order.
        return _lattice_of(self.generators, self.basis)


def _lattice_of(exponents: Sequence[Exponent], basis: SymbolBasis) -> Lattice:
    lattice = Lattice(basis)
    for e in exponents:
        lattice.add(e)
    return lattice


def integer_basis(exponents: Sequence[Exponent], basis: SymbolBasis) -> LatticeBasis:
    """Hermite-normal-form lattice basis of the given exponents.

    Generators are returned in the symbol space with positive numeric
    values; empty input gives rank 0.
    """
    return _lattice_of(exponents, basis).finish()


def express(e: Exponent, B: LatticeBasis) -> Optional[tuple[int, ...]]:
    """Exact integer coordinates of ``e`` over the generators, or None."""
    return B._echelon._coordinates(e)


def reconstruct(B: LatticeBasis, coeffs: Sequence[int]) -> Exponent:
    """Exact sum of generators with the given integer coefficients."""
    total = Exponent.zero()
    for c, g in zip(coeffs, B.generators):
        if c:
            total = total + g * c
    return total


# ---------------------------------------------------------------------------
# Prime support of number-theoretic index streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeSupport:
    """Primes dividing any examined index, plus indices that resisted factoring."""

    primes: tuple[int, ...]
    sample_size: int
    unfactored: tuple[int, ...] = ()


DEFAULT_FACTOR_LIMIT = 10 ** 6


def factorize(n: int, limit: int = DEFAULT_FACTOR_LIMIT) -> tuple[dict[int, int], Optional[int]]:
    """Trial division up to ``limit``; returns (factors, unfactored residue)."""
    if n < 1:
        raise ValueError("indices must be positive integers")
    factors: dict[int, int] = {}
    rest = n
    d = 2
    while d <= limit and d * d <= rest:
        while rest % d == 0:
            factors[d] = factors.get(d, 0) + 1
            rest //= d
        d += 1 if d == 2 else 2
    if rest > 1:
        if rest <= limit * limit:
            # every factor <= sqrt(rest) <= limit has been removed, so rest is prime
            factors[rest] = factors.get(rest, 0) + 1
        else:
            return factors, rest
    return factors, None


def prime_support(indices: Iterable[int], limit: int = DEFAULT_FACTOR_LIMIT,
                  strict: bool = False) -> PrimeSupport:
    """Union of prime factors over the index stream.

    Indices whose residue exceeds the certification range are reported in
    ``unfactored``; with ``strict=True`` the first such index raises
    :class:`FactorLimitExceeded` instead.
    """
    primes: set[int] = set()
    unfactored: list[int] = []
    count = 0
    for n in indices:
        count += 1
        factors, residue = factorize(n, limit)
        primes.update(factors)
        if residue is not None:
            if strict:
                raise FactorLimitExceeded(n)
            unfactored.append(n)
    return PrimeSupport(tuple(sorted(primes)), count, tuple(unfactored))


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


def log_basis_for_indices(indices: Iterable[int], precision: int,
                          limit: int = DEFAULT_FACTOR_LIMIT) -> tuple[SymbolBasis, dict[int, Exponent]]:
    """Prime-log symbol basis covering the given indices, with log n vectors.

    Symbols are named ``L<p>`` with numeric value log p; the exponent of the
    index n is then the exact integer vector of its factorization.
    """
    from .numeric import log_decimal_string

    index_list = sorted(set(indices))
    all_primes: set[int] = set()
    factored: dict[int, dict[int, int]] = {}
    for n in index_list:
        factors, residue = factorize(n, limit)
        if residue is not None:
            raise FactorLimitExceeded(n)
        factored[n] = factors
        all_primes.update(factors)
    prime_list = sorted(all_primes)
    basis = SymbolBasis.from_pairs(
        [(f"L{p}", log_decimal_string(p, precision)) for p in prime_list],
        precision=precision)
    exponents = {
        n: Exponent.make({f"L{p}": k for p, k in factored[n].items()})
        for n in index_list
    }
    return basis, exponents


# ---------------------------------------------------------------------------
# Rewriting over lattice generators; gap statistics
# ---------------------------------------------------------------------------

def omega_rewrite(phi: FormalSeries, B: LatticeBasis) -> dict[tuple[int, ...], Coefficient]:
    """Rewrite a univariate series as a multi-index (Laurent) power series.

    Key (n_1..n_alpha) stands for the product of e^(-omega_i s) powers with
    sum n_i*omega_i equal to the term's exponent.
    """
    out: dict[tuple[int, ...], Coefficient] = {}
    for e, p in phi.terms:
        if p.degree not in (0, None):
            raise ValueError("omega rewriting expects a univariate series (x-degree 0)")
        vec = express(e, B)
        if vec is None:
            raise NotInLatticeError(e)
        c = p.constant()
        out[vec] = out.get(vec, Coefficient.zero()) + c
    return {k: v for k, v in out.items() if not v.is_zero}


@dataclass(frozen=True)
class GapRatios:
    """Consecutive exponent ratios with a running maximum envelope."""

    ratios: tuple
    exact: tuple  # Fraction where the ratio is exact, else None
    envelope: tuple
    dropped_prefix: int


def gap_ratios(exponents: Sequence[Exponent], basis: SymbolBasis) -> GapRatios:
    """Ratios lambda_i / lambda_{i-1} over the positive tail of the family."""
    values = [basis.exponent_value(e) for e in exponents]
    start = 0
    while start < len(values) and values[start] <= 0:
        start += 1
    tail = exponents[start:]
    tail_values = values[start:]
    ratios = []
    exact = []
    envelope = []
    best = None
    from .numeric import workprec
    for i in range(1, len(tail)):
        prev, cur = tail[i - 1], tail[i]
        q = _exact_ratio(cur, prev)
        with workprec(basis.precision):
            num = tail_values[i] / tail_values[i - 1]
        ratios.append(num)
        exact.append(q)
        best = num if best is None else max(best, num)
        envelope.append(best)
    return GapRatios(tuple(ratios), tuple(exact), tuple(envelope), start)


def _exact_ratio(a: Exponent, b: Exponent) -> Optional[Fraction]:
    """q with a == q*b when the two vectors are exactly proportional."""
    if b.is_zero:
        return None
    if b.const != 0:
        q = a.const / b.const
    else:
        if a.const != 0:
            return None
        name, val = b.coords[0]
        q = a.coord(name) / val
    return q if a == b * q else None
