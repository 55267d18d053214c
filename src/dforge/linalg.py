"""Small exact linear-algebra kernels shared across modules.

Determinants use memoized minor expansion (matrices here are tiny, and the
entry rings — difference-differential polynomials, formal series — have no
cheap division).  Nullspaces over a polynomial ring use cross-multiplication
elimination, which never divides and therefore stays exact in any integral
domain.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence


@dataclass(frozen=True)
class Ring:
    zero: object
    one: object
    add: Callable
    neg: Callable
    mul: Callable
    is_zero: Callable


def operator_ring(zero, one) -> Ring:
    """Ring of values with ``+``, unary ``-``, ``*`` and an ``is_zero`` property."""
    return Ring(zero=zero, one=one, add=operator.add, neg=operator.neg,
                mul=operator.mul, is_zero=lambda a: a.is_zero)


def determinant(matrix: Sequence[Sequence[object]], ring: Ring,
                table: Optional[dict] = None, keys: Optional[Sequence] = None):
    """Determinant by minor expansion with memoized column-suffix minors.

    The expansion runs down the columns in order, so the minor on rows ``R``
    from column ``c`` on depends only on those rows of columns ``c..n-1``.
    Given a ``table`` and one hashable key per column, that minor is stored
    under ``(R, keys[c:])``: determinants whose matrices agree column for
    column wherever their keys agree share their minors, and each comes out
    exactly as it would over a fresh table.
    """
    n = len(matrix)
    if n == 0:
        return ring.one
    for row in matrix:
        if len(row) != n:
            raise ValueError("determinant requires a square matrix")
    if table is None:
        table, suffixes = {}, range(n)
    else:
        keys = tuple(keys)
        suffixes = [keys[c:] for c in range(n)]
    return _minor(matrix, ring, table, suffixes, tuple(range(n)), 0)


def _minor(matrix, ring: Ring, table: dict, suffixes, rows: tuple, col: int):
    # a module-level recursion: a recursive closure would be a reference
    # cycle holding the table until the cyclic garbage collector ran
    if not rows:
        return ring.one
    key = (rows, suffixes[col])
    total = table.get(key)
    if total is not None:
        return total
    total = ring.zero
    for pos, r in enumerate(rows):
        entry = matrix[r][col]
        if ring.is_zero(entry):
            continue
        sub = _minor(matrix, ring, table, suffixes, rows[:pos] + rows[pos + 1:], col + 1)
        term = ring.mul(entry, sub)
        if pos % 2:
            term = ring.neg(term)
        total = ring.add(total, term)
    table[key] = total
    return total


def determinant_leibniz(matrix: Sequence[Sequence[object]], ring: Ring):
    """Plain permutation-sum determinant (independent oracle path)."""
    import itertools

    n = len(matrix)
    total = ring.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        prod = ring.one
        for i in range(n):
            prod = ring.mul(prod, matrix[i][perm[i]])
            if ring.is_zero(prod):
                break
        if inversions % 2:
            prod = ring.neg(prod)
        total = ring.add(total, prod)
    return total


def ring_echelon(matrix: list[list[object]], ring: Ring) -> tuple[list[list[object]], list[int]]:
    """Cross-multiplication row echelon form; returns (rows, pivot columns).

    Row operations are ``row_i <- p*row_i - a*row_r`` with the pivot p, so no
    division happens; over an integral domain the solution set is unchanged.
    """
    rows = [list(r) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not ring.is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][c]
        for i in range(r + 1, len(rows)):
            a = rows[i][c]
            if ring.is_zero(a):
                continue
            rows[i] = [ring.add(ring.mul(p, rows[i][j]), ring.neg(ring.mul(a, rows[r][j])))
                       for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def ring_nullspace_vector(matrix: Sequence[Sequence[object]], ring: Ring) -> Optional[list]:
    """One nonzero kernel vector of the column map, or None if full column rank.

    Entries of the returned vector live in the ring (denominators cleared).
    """
    if not matrix:
        return None
    ncols = len(matrix[0])
    rows, pivots = ring_echelon([list(r) for r in matrix], ring)
    if len(pivots) == ncols:
        return None
    pivot_set = set(pivots)
    free = next(c for c in range(ncols) if c not in pivot_set)
    # Back-substitute with (numerator, denominator) pairs; v[free] = 1.
    sol: dict[int, tuple] = {free: (ring.one, ring.one)}
    for c in range(ncols):
        if c not in pivot_set and c != free:
            sol[c] = (ring.zero, ring.one)
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        p = rows[r][pc]
        num, den = ring.zero, ring.one
        for c in range(pc + 1, ncols):
            a = rows[r][c]
            if ring.is_zero(a):
                continue
            cn, cd = sol[c]
            num = ring.add(ring.mul(num, cd), ring.mul(den, ring.mul(a, cn)))
            den = ring.mul(den, cd)
        # p * v[pc] = -num/den
        sol[pc] = (ring.neg(num), ring.mul(p, den))
    # Clear denominators across all coordinates.
    common = ring.one
    for c in range(ncols):
        common = ring.mul(common, sol[c][1])
    out = []
    for c in range(ncols):
        n, d = sol[c]
        scale = ring.one
        for c2 in range(ncols):
            if c2 != c:
                scale = ring.mul(scale, sol[c2][1])
        out.append(ring.mul(n, scale))
    if all(ring.is_zero(v) for v in out):
        return None
    return out


def rational_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals by plain Gaussian elimination."""
    rows = [list(map(Fraction, r)) for r in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [v / pv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank
