"""Arbitrary-precision numeric evaluation helpers.

All exact data lives in ``fractions.Fraction``; this module is the one
place where values are turned into mpmath floats.  Every conversion takes
an explicit bit precision so that results are reproducible.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

DEFAULT_PRECISION = 128

# The largest precision a basis may ask for: far above any decision's needs,
# and low enough that evaluations at it stay quick.
MAX_PRECISION = 4096

# Extra working bits so that P-bit decisions are not corrupted by the last
# few rounding steps of an evaluation chain.
GUARD_BITS = 16


def check_precision(precision_bits: int, error=ValueError) -> None:
    """Raise ``error`` unless 0 < ``precision_bits`` <= MAX_PRECISION; call it
    before the first evaluation at a precision read from input."""
    if not 0 < precision_bits <= MAX_PRECISION:
        raise error(f"precision must be positive and at most {MAX_PRECISION}")


def workprec(precision_bits: int):
    """mpmath context manager at ``precision_bits`` plus guard bits."""
    return mpmath.workprec(precision_bits + GUARD_BITS)


def fraction_to_mpf(q: Fraction, precision_bits: int) -> mpmath.mpf:
    with workprec(precision_bits):
        return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)


def decimal_str_to_mpf(text: str, precision_bits: int) -> mpmath.mpf:
    with workprec(precision_bits):
        return mpmath.mpf(text)


def tie_threshold(precision_bits: int) -> mpmath.mpf:
    """Absolute tie window 2^-P used by ordering decisions."""
    with workprec(precision_bits):
        return mpmath.mpf(2) ** (-precision_bits)


def log_decimal_string(n: int, precision_bits: int) -> str:
    """Decimal string for log(n) carrying more digits than ``precision_bits``.

    Used to seed symbol bases whose generators stand for logarithms of
    integers; the string round-trips through ``decimal_str_to_mpf`` without
    losing P-bit accuracy.
    """
    digits = int((precision_bits + 2 * GUARD_BITS) * 0.30103) + 4
    with mpmath.workprec(precision_bits + 4 * GUARD_BITS):
        return mpmath.nstr(mpmath.log(n), digits, strip_zeros=True)
