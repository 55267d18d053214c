"""Arbitrary-precision numeric evaluation helpers.

All exact data is rational: an integral value is a Python ``int``, any
other a ``fractions.Fraction`` (see ``series._as_rational``), and no
``float`` ever holds exact data.  This module converts rationals, decimal
strings and exponents into mpmath floats; ``formal_eval``, ``obstruction``
and ``Coefficient.numeric`` build their other ``mpf`` values (constants,
ratios, a coefficient's sum of terms) inside ``workprec``.  Every
conversion takes an explicit bit precision so that results are
reproducible.

Exponent values go through one kernel on mpmath's raw ``libmp`` tuples,
with no context manager and no temporary ``mpf``: each step rounds to
nearest at P + GUARD_BITS, exactly as ``mpf`` arithmetic does inside
``workprec(P)``, so the values are bit for bit those of the context code.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath.libmp import (
    from_int,
    from_str,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_pos,
    round_nearest,
    to_float,
    to_str,
)

DEFAULT_PRECISION = 128

# The largest precision a basis may ask for: far above any decision's needs,
# and low enough that evaluations at it stay quick.
MAX_PRECISION = 4096

# Python's default int <-> str limit: a rational wider than this could not be
# printed back, so inputs wider than it are refused before they are built.
MAX_RATIONAL_DIGITS = 4300

# the bit length of 10^MAX_RATIONAL_DIGITS, the least integer of more digits
CAP_BITS = (10 ** MAX_RATIONAL_DIGITS).bit_length()

# Extra working bits so that P-bit decisions are not corrupted by the last
# few rounding steps of an evaluation chain.
GUARD_BITS = 16


def check_precision(precision_bits: int, error=ValueError) -> None:
    """Raise ``error`` unless 0 < ``precision_bits`` <= MAX_PRECISION; call it
    before the first evaluation at a precision read from input."""
    if not 0 < precision_bits <= MAX_PRECISION:
        raise error(f"precision must be positive and at most {MAX_PRECISION}")


def frac_str(q) -> str:
    """``str`` of an int or Fraction, "p" or "p/q"; one with a numerator or
    denominator of more than MAX_RATIONAL_DIGITS digits, which Python would
    not write out, is refused with ``ValueError``, decided on bit lengths."""
    if max(q.numerator.bit_length(), q.denominator.bit_length()) >= CAP_BITS \
            and max(abs(q.numerator), q.denominator) >= 10 ** MAX_RATIONAL_DIGITS:
        raise ValueError(f"a rational of more than {MAX_RATIONAL_DIGITS} digits "
                         f"cannot be written")
    return str(q)


def workprec(precision_bits: int):
    """mpmath context manager at ``precision_bits`` plus guard bits."""
    return mpmath.workprec(precision_bits + GUARD_BITS)


_make_mpf = mpmath.mp.make_mpf


def _raw_ratio(num: int, den: int, prec: int) -> tuple:
    """``mpf(num) / mpf(den)`` at ``prec`` bits: both integers rounded, then
    one division."""
    return mpf_div(from_int(num, prec, round_nearest), from_int(den, prec, round_nearest),
                   prec, round_nearest)


def fraction_to_mpf(q: int | Fraction, precision_bits: int) -> mpmath.mpf:
    return _make_mpf(_raw_ratio(q.numerator, q.denominator, precision_bits + GUARD_BITS))


def scaled_value(num: int, den: int, value, precision_bits: int) -> tuple:
    """Raw ``fraction_to_mpf(num/den) * value``: the rational rounded as
    there, then one product at P + GUARD_BITS (none for ``value`` None)."""
    prec = precision_bits + GUARD_BITS
    q = _raw_ratio(num, den, prec)
    return q if value is None else mpf_mul(q, value._mpf_, prec, round_nearest)


def sum_value(terms: list, precision_bits: int) -> tuple:
    """``(float shadow, value)`` of raw ``terms`` added left to right at
    P + GUARD_BITS; the shadow is the sum rounded to the nearest double."""
    prec = precision_bits + GUARD_BITS
    total = terms[0]
    for t in terms[1:]:
        total = mpf_add(total, t, prec, round_nearest)
    return to_float(total, rnd=round_nearest), _make_mpf(total)


def magnitude(terms: list) -> float:
    """The sum of ``|t|`` over raw ``terms``, a double (inf past its range):
    what rounding in ``sum_value`` is relative to, whatever cancels."""
    return sum(abs(to_float(t, rnd=round_nearest)) for t in terms)


def divide(a: mpmath.mpf, b: mpmath.mpf, precision_bits: int) -> mpmath.mpf:
    """``a / b`` rounded to P + GUARD_BITS."""
    return _make_mpf(mpf_div(a._mpf_, b._mpf_, precision_bits + GUARD_BITS, round_nearest))


def decimal_text(x: mpmath.mpf, precision_bits: int) -> str:
    """``mpmath.nstr(mpf(x), 12)`` under ``workprec(precision_bits)``: ``x``
    rounded to P + GUARD_BITS, then printed to 12 significant digits."""
    return to_str(mpf_pos(x._mpf_, precision_bits + GUARD_BITS, round_nearest), 12)


def decimal_str_to_mpf(text: str, precision_bits: int) -> mpmath.mpf:
    """``mpf(text)`` under ``workprec(precision_bits)``: the decimal rounded
    once to P + GUARD_BITS."""
    return _make_mpf(from_str(text, precision_bits + GUARD_BITS, round_nearest))


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
