"""Difference-differential polynomials and resultant elimination.

A :class:`DiffPolynomial` is a sparse polynomial in the indeterminates
``f^(nu)(s + h)`` (derivative order nu, exact rational shift h) and an
optional explicit variable ``x``, with :class:`~dforge.series.Coefficient`
coefficients.  Elimination of the explicit variable goes through the
Sylvester resultant of F and its total derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .errors import DegenerateInput, ResultantVanished
from .linalg import determinant
from .series import (
    Coefficient,
    RationalLike,
    SparsePoly,
    _as_coefficient,
    _as_rational,
    drop_power,
    merge_powers,
)


@dataclass(frozen=True, order=True)
class DiffIndeterminate:
    """One argument slot f^(order)(s + shift); ordered by (shift, order)."""

    shift: RationalLike
    order: int

    @staticmethod
    def make(order: int = 0, shift=0) -> "DiffIndeterminate":
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        return DiffIndeterminate(_as_rational(shift), order)

    def derived(self) -> "DiffIndeterminate":
        return DiffIndeterminate(self.shift, self.order + 1)

    def __str__(self) -> str:
        quotes = "'" * self.order
        if self.shift == 0:
            return f"f{quotes}"
        sign = "+" if self.shift > 0 else "-"
        return f"f{quotes}(s{sign}{abs(self.shift)})"


# Monomial: (x-degree, sorted tuple of (indeterminate, positive power)).
DPMonomial = tuple[int, tuple[tuple[DiffIndeterminate, int], ...]]


def _dpm_mul(a: DPMonomial, b: DPMonomial) -> DPMonomial:
    return (a[0] + b[0], merge_powers(a[1], b[1]))


def _dpm_f_degree(m: DPMonomial) -> int:
    return sum(k for _, k in m[1])


@dataclass(frozen=True)
class DiffPolynomial(SparsePoly):
    """Sparse difference-differential polynomial with exact coefficients."""

    terms: tuple[tuple[DPMonomial, Coefficient], ...] = ()

    _UNIT = (0, ())
    _mono_mul = staticmethod(_dpm_mul)
    _coerce = staticmethod(_as_coefficient)

    @staticmethod
    def from_coefficient(c) -> "DiffPolynomial":
        c = _as_coefficient(c)
        if c.is_zero:
            return DiffPolynomial()
        return DiffPolynomial(((DiffPolynomial._UNIT, c),))

    @staticmethod
    def from_indeterminate(ind: DiffIndeterminate, power: int = 1) -> "DiffPolynomial":
        if power == 0:
            return DiffPolynomial.one()
        return DiffPolynomial((((0, ((ind, power),)), Coefficient.one()),))

    @staticmethod
    def x_power(k: int) -> "DiffPolynomial":
        if k < 0:
            raise ValueError("x-degree must be non-negative")
        return DiffPolynomial((((k, ()), Coefficient.one()),))

    @property
    def total_degree(self) -> int:
        """Total degree in the f-indeterminates (0 for f-free polynomials)."""
        return max((_dpm_f_degree(m) for m, _ in self.terms), default=0)

    @property
    def x_degree(self) -> int:
        return max((m[0] for m, _ in self.terms), default=0)

    def indeterminates(self) -> tuple[DiffIndeterminate, ...]:
        seen = set()
        for (_, powers), _ in self.terms:
            seen.update(ind for ind, _ in powers)
        return tuple(sorted(seen))

    def has_shifts(self) -> bool:
        return any(ind.shift != 0 for ind in self.indeterminates())

    def __str__(self) -> str:
        from .grammar import pretty
        return pretty(self)



def partial_wrt(F: DiffPolynomial, z: DiffIndeterminate) -> DiffPolynomial:
    """Formal partial derivative with respect to one indeterminate."""
    return DiffPolynomial.collect(
        ((xdeg, drop_power(powers, idx)), c.scale(k))
        for (xdeg, powers), c in F.terms
        for idx, (ind, k) in enumerate(powers) if ind == z)


def _total_derivative(F: DiffPolynomial, include_x: bool) -> DiffPolynomial:
    def pairs():
        for (xdeg, powers), c in F.terms:
            # chain rule over the indeterminates: f^(nu) contributes f^(nu+1)
            for idx, (ind, k) in enumerate(powers):
                bumped = merge_powers(drop_power(powers, idx), ((ind.derived(), 1),))
                yield (xdeg, bumped), c.scale(k)
            if include_x and xdeg > 0:
                yield (xdeg - 1, powers), c.scale(xdeg)

    return DiffPolynomial.collect(pairs())


def total_derivative_s(F: DiffPolynomial) -> DiffPolynomial:
    """d/ds; basis symbols and damping factors are constants, x is independent."""
    return _total_derivative(F, include_x=False)


def total_derivative_x(F: DiffPolynomial) -> DiffPolynomial:
    """d/dx when x is the independent variable the f's depend on."""
    return _total_derivative(F, include_x=True)


def x_coefficients(F: DiffPolynomial) -> list[DiffPolynomial]:
    """Coefficients of F viewed as univariate in x, ascending degree."""
    out: list[list] = [[] for _ in range(F.x_degree + 1)]
    for (xdeg, powers), c in F.terms:
        out[xdeg].append(((0, powers), c))
    return [DiffPolynomial.collect(pairs) for pairs in out]


def sylvester_matrix(A: DiffPolynomial, B: DiffPolynomial) -> list[list[DiffPolynomial]]:
    """Sylvester matrix in x with the deg(B) rows of A's coefficients first.

    Sign convention: the resultant is the determinant of this matrix, so
    Res_x(x - a, x - b) = a - b.
    """
    ca = x_coefficients(A)
    cb = x_coefficients(B)
    da, db = len(ca) - 1, len(cb) - 1
    n = da + db
    zero = DiffPolynomial.zero()
    rows = []
    desc_a = list(reversed(ca))
    desc_b = list(reversed(cb))
    for i in range(db):
        rows.append([zero] * i + desc_a + [zero] * (n - i - len(desc_a)))
    for i in range(da):
        rows.append([zero] * i + desc_b + [zero] * (n - i - len(desc_b)))
    return rows


def sylvester_resultant(A: DiffPolynomial, B: DiffPolynomial) -> DiffPolynomial:
    """Res_x(A, B): zero iff A and B share a root over the fraction field.

    Most Sylvester entries are nonzero rational constants (x-coefficients
    with no f): ``_pivoted_determinant`` pivots on them first and expands
    minors only on the block left.  It divides only by nonzero rationals,
    and the determinant is unique, so the terms are the full expansion's.
    """
    da, db = A.x_degree, B.x_degree
    if da == 0 and db == 0:
        raise DegenerateInput("both inputs are constant in x")
    if A.is_zero or B.is_zero:
        raise DegenerateInput("resultant of the zero polynomial is degenerate")
    return _pivoted_determinant(sylvester_matrix(A, B))


def _pivoted_determinant(matrix: list[list[DiffPolynomial]]) -> DiffPolynomial:
    """Exact Gaussian steps on rational pivots, then ``linalg.determinant``.

    While more than one row is left, the first unit p (a nonzero rational
    constant) in row-major order is swapped to the corner, each row or
    column swap flipping the sign, and every other row r becomes
    r - (r[0]/p) * pivot row: a Schur complement, p times whose determinant
    is the matrix's.  The block left with no unit is expanded by minors.
    """
    matrix = [list(row) for row in matrix]
    factor = 1   # the sign of the swaps times the product of the pivots
    while len(matrix) > 1:
        corner = next(((i, j) for i, row in enumerate(matrix) for j, e in enumerate(row)
                       if len(e.terms) == 1 and e.terms[0][0] == DiffPolynomial._UNIT
                       and e.terms[0][1].is_rational), None)
        if corner is None:
            break
        i, j = corner
        if i:
            matrix[0], matrix[i] = matrix[i], matrix[0]
            factor = -factor
        if j:
            for row in matrix:
                row[0], row[j] = row[j], row[0]
            factor = -factor
        pivot, *rest = matrix
        p = pivot[0].terms[0][1].as_fraction()
        factor *= p
        inverse = Fraction(1, 1) / p
        matrix = []
        for row in rest:
            q = row[0].scale(inverse)
            matrix.append([e - q * pe if q and pe else e for e, pe in zip(row[1:], pivot[1:])])
    return determinant(matrix).scale(factor)


def split_x_monomial_content(F: DiffPolynomial) -> tuple[int, DiffPolynomial]:
    """Factor out the largest power of x dividing every monomial."""
    if F.is_zero:
        return 0, F
    m = min(xdeg for (xdeg, _), _ in F.terms)
    if m == 0:
        return 0, F
    return m, DiffPolynomial.collect(((xdeg - m, powers), c) for (xdeg, powers), c in F.terms)


def eliminate_x(F: DiffPolynomial) -> DiffPolynomial:
    """Remove the explicit x by the resultant with the total x-derivative.

    Every function solving F = 0 also solves the returned polynomial, via
    the Sylvester identity Res = M1*F + M2*F'.  Raises
    :class:`ResultantVanished` when F and dF/dx share a factor (reducible
    input); splitting off monomial x-content first often resolves that.
    """
    if F.is_zero:
        raise DegenerateInput("cannot eliminate x from the zero polynomial")
    if F.x_degree == 0:
        return F
    Fstar = total_derivative_x(F)
    result = sylvester_resultant(F, Fstar)
    if result.is_zero:
        raise ResultantVanished(
            "Res_x(F, dF/dx) = 0: F has a repeated or x-content factor; "
            "split the input (e.g. drop monomial x-content) and retry")
    if result.x_degree != 0:
        raise AssertionError("resultant unexpectedly kept explicit x")
    return result

