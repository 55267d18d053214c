"""Serialization: series specification files, corpora, certificate JSON.

All exact rationals travel as "p/q" strings (never floats); numeric values
are decimal strings rendered deterministically at the owning basis
precision, so identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import gzip
import json
from fractions import Fraction
from pathlib import Path
from .errors import SchemaError
from .grammar import parse_coefficient
from .numeric import MAX_RATIONAL_DIGITS, frac_str
from .series import (
    ONE,
    Exponent,
    FormalSeries,
    RationalLike,
    SymbolBasis,
    _as_rational,
    make_series,
)

TOOL_VERSION = "dforge 0.1.0"


def _digits(text: str) -> int:
    return sum(ch.isdecimal() for ch in text)   # the digits Fraction reads


def _too_wide(text: str) -> bool:
    """Whether ``Fraction(text)`` would write out a numerator or denominator
    of more than MAX_RATIONAL_DIGITS digits before reducing."""
    body, e, exp = text.lower().partition("e")
    if not e and len(text) <= MAX_RATIONAL_DIGITS:
        return False   # no exponent: no more digits than characters
    if "/" in body:
        num, _, den = body.partition("/")
        return max(_digits(num), _digits(den)) > MAX_RATIONAL_DIGITS
    whole, _, frac = body.partition(".")
    if not _digits(whole + frac):
        return False   # no mantissa: Fraction rejects the text
    try:
        shift = int(exp or 0) - _digits(frac)   # value = digits * 10**shift
    except ValueError:
        return False   # Fraction rejects the text
    return max(_digits(whole + frac) + max(shift, 0), 1 - shift) > MAX_RATIONAL_DIGITS


def parse_frac(text: str) -> RationalLike:
    """The exact rational of ``text`` ("p/q" or decimal), an ``int`` when
    integral; a number wider than MAX_RATIONAL_DIGITS digits is refused
    before it is built."""
    if not isinstance(text, str):
        raise SchemaError(f"rational {text!r} must be \"p/q\" text")
    if _too_wide(text):
        raise SchemaError(f"rational {text[:40]!r} has more than {MAX_RATIONAL_DIGITS} digits")
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    try:
        return _as_rational(Fraction(text))
    except ValueError:
        reason = "not \"p/q\" or decimal text"
    except ZeroDivisionError:
        reason = "zero denominator"
    raise SchemaError(f"bad rational {text[:40]!r}: {reason}")


def _typed(value, kind: type, what: str):
    """``value`` when it has the JSON type ``kind`` (a bool is no int)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(f"{what} must be {kind.__name__}, not {value!r}")
    return value


def exponent_to_obj(e: Exponent) -> dict:
    out = {n: frac_str(q) for n, q in e.coords}
    if e.const != 0:
        out[ONE] = frac_str(e.const)
    return out


def obj_to_exponent(obj: dict) -> Exponent:
    if not isinstance(obj, dict):
        raise SchemaError("exponent must be an object of symbol -> rational")
    return Exponent.make({n: parse_frac(v) for n, v in obj.items()})


def basis_to_obj(basis: SymbolBasis) -> dict:
    return {
        "symbols": [{"name": n, "value_decimal_string": v}
                    for n, v in zip(basis.symbols, basis.values)],
        "precision_bits": basis.precision,
        "independence_assumed": basis.independence_assumed,
    }


def obj_to_basis(obj: dict) -> SymbolBasis:
    try:
        pairs = [(_typed(s["name"], str, "basis symbol name"),
                  _typed(s["value_decimal_string"], str, "value_decimal_string"))
                 for s in obj["symbols"]]
        return SymbolBasis.from_pairs(
            pairs,
            precision=_typed(obj.get("precision_bits", 128), int, "precision_bits"),
            independence_assumed=_typed(obj.get("independence_assumed", True), bool,
                                        "independence_assumed"))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad basis block: {exc}") from None


def series_to_obj(s: FormalSeries) -> dict:
    terms = []
    for e, p in s.terms:
        for xdeg, c in p.terms:
            entry = {"exponent": exponent_to_obj(e), "coeff": str(c)}
            if xdeg:
                entry["xdegree"] = xdeg
            terms.append(entry)
    return {
        "basis": basis_to_obj(s.basis),
        "terms": terms,
        "truncation": None if s.truncation is None else exponent_to_obj(s.truncation),
    }


def obj_to_series(obj: dict) -> FormalSeries:
    try:
        basis = obj_to_basis(obj["basis"])
        spec = []
        for entry in obj["terms"]:
            e = obj_to_exponent(entry["exponent"])
            c = parse_coefficient(entry["coeff"], basis)
            spec.append((e, c, _typed(entry.get("xdegree", 0), int, "xdegree")))
        trunc = obj.get("truncation")
        bound = None if trunc is None else obj_to_exponent(trunc)
        return make_series(spec, basis, bound)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad series spec: {exc}") from None


def parse_json(text: str):
    """``json.loads``; nesting past the decoder's recursion limit is a
    ``JSONDecodeError`` like any other malformed JSON, not a ``RecursionError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None


def load_series(path) -> FormalSeries:
    with open(path, "r", encoding="utf-8") as fh:
        return obj_to_series(parse_json(fh.read()))


def dump_series(s: FormalSeries, path) -> None:
    Path(path).write_text(canonical_json(series_to_obj(s)) + "\n", encoding="utf-8")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Coefficient corpora: newline-delimited "n a_n" (or bare "n"), gzip accepted
# ---------------------------------------------------------------------------

def read_corpus(path) -> list[tuple[int, RationalLike]]:
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    out: list[tuple[int, RationalLike]] = []
    with opener(path, "rt", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                n = int(parts[0])
                a = parse_frac(parts[1]) if len(parts) > 1 else 1
            except (ValueError, SchemaError) as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
            if n < 1:
                raise SchemaError(f"{path}:{lineno}: indices must be >= 1")
            out.append((n, a))
    return out
