"""Small exact linear-algebra kernels shared across modules.

Matrix entries bring their own arithmetic: ``+``, unary ``-``, ``*``, and
truthiness that is False only for an exact zero.  A series that is zero
only up to a finite bound is truthy, so its bound reaches the result.
Determinants use memoized minor expansion: the entries, difference-
differential polynomials in a Sylvester matrix and the equation search's
screen series, have no cheap division.  The Sylvester resultant first
eliminates exactly, dividing only by its nonzero rational entries, and
expands minors only on the block left.  Nullspaces over
a polynomial ring use cross-multiplication elimination, which never
divides and therefore stays exact in any integral domain.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def determinant(matrix: Sequence[Sequence[object]], table: Optional[dict] = None,
                keys: Optional[Sequence] = None):
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
        raise ValueError("determinant requires a non-empty matrix")
    for row in matrix:
        if len(row) != n:
            raise ValueError("determinant requires a square matrix")
    if table is None:
        table, suffixes = {}, range(n)
    else:
        keys = tuple(keys)
        suffixes = [keys[c:] for c in range(n)]
    return _minor(matrix, table, suffixes, tuple(range(n)), 0)


def _minor(matrix, table: dict, suffixes, rows: tuple, col: int):
    # a module-level recursion: a recursive closure would be a reference
    # cycle holding the table until the cyclic garbage collector ran
    if len(rows) == 1:
        return matrix[rows[0]][col]
    key = (rows, suffixes[col])
    total = table.get(key)
    if total is not None:
        return total
    for pos, r in enumerate(rows):
        entry = matrix[r][col]
        if not entry:
            continue
        term = entry * _minor(matrix, table, suffixes, rows[:pos] + rows[pos + 1:], col + 1)
        if pos % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:  # the column is exactly zero on these rows
        total = matrix[rows[0]][col]
    table[key] = total
    return total


def ring_echelon(matrix: list[list[object]]) -> tuple[list[list[object]], list[int]]:
    """Cross-multiplication row echelon form; returns (rows, pivot columns).

    Row operations are ``row_i <- p*row_i - a*row_r`` with the pivot p, so no
    division happens; over an integral domain the solution set is unchanged.
    """
    rows = [list(r) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][c]
        for i in range(r + 1, len(rows)):
            a = rows[i][c]
            if a:
                rows[i] = [p * rows[i][j] + -(a * rows[r][j]) for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def ring_nullspace_vector(matrix: Sequence[Sequence[object]]) -> Optional[list]:
    """One nonzero kernel vector of the column map, or None if full column rank.

    Entries are of one type with ``zero()`` and ``one()``; the returned
    vector has entries of that type (denominators cleared).
    """
    if not matrix:
        return None
    ncols = len(matrix[0])
    kind = type(matrix[0][0])
    zero, one = kind.zero(), kind.one()
    rows, pivots = ring_echelon(matrix)
    if len(pivots) == ncols:
        return None
    pivot_set = set(pivots)
    free = next(c for c in range(ncols) if c not in pivot_set)
    # Back-substitute with (numerator, denominator) pairs; v[free] = 1.
    sol: dict[int, tuple] = {c: (zero, one) for c in range(ncols) if c not in pivot_set}
    sol[free] = (one, one)
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        num, den = zero, one
        for c in range(pc + 1, ncols):
            a = rows[r][c]
            if a:
                cn, cd = sol[c]
                num = num * cd + den * (a * cn)
                den = den * cd
        # p * v[pc] = -num/den
        sol[pc] = (-num, rows[r][pc] * den)
    # Clear denominators across all coordinates.
    out = []
    for c in range(ncols):
        scale = one
        for c2 in range(ncols):
            if c2 != c:
                scale = scale * sol[c2][1]
        out.append(sol[c][0] * scale)
    return out if any(out) else None


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
