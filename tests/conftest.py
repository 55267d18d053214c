"""Shared fixtures and independent oracle helpers."""

import hashlib
import json
from fractions import Fraction

import pytest

from dforge.numeric import log_decimal_string
from dforge.series import (
    Coefficient,
    Exponent,
    FormalSeries,
    SymbolBasis,
    XPoly,
    make_series,
)

PREC = 128


@pytest.fixture(scope="session")
def unit_basis():
    return SymbolBasis.unit(PREC)


@pytest.fixture(scope="session")
def log_basis():
    return SymbolBasis.from_pairs(
        [(f"L{p}", log_decimal_string(p, PREC)) for p in (2, 3, 5)],
        precision=PREC)


@pytest.fixture(scope="session")
def lam_basis():
    return SymbolBasis.from_pairs([("lam", "0.7")], precision=PREC)


def geometric_series(basis, n_terms):
    """sum_{n=1..N} e^(-n*lam*s), truncated at N*lam."""
    lam = Exponent.of("lam")
    return make_series([(lam * n, 1) for n in range(1, n_terms + 1)],
                       basis, lam * n_terms)


def exact_exponential(basis, exponent):
    """A single exponential known in full (no truncation)."""
    return FormalSeries(basis, ((exponent, XPoly.from_coefficient(Coefficient.one())),),
                        None)


def convolve_oracle(a: FormalSeries, b: FormalSeries):
    """Brute-force double-loop product: dict of exponent -> XPoly, untruncated."""
    out = {}
    for ea, pa in a.terms:
        for eb, pb in b.terms:
            e = ea + eb
            prod = pa * pb
            out[e] = out[e] + prod if e in out else prod
    return {e: p for e, p in out.items() if not p.is_zero}


def series_terms_dict(s: FormalSeries):
    return dict(s.terms)


def rand_fraction(rng, lo=-4, hi=4, max_den=3):
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def not_found_digest(result) -> str:
    """sha256 of a NotFoundWithinW's count and its three subset lists."""
    text = json.dumps([result.subsets_searched, list(result.candidates_refuted),
                       list(result.skipped_underdetermined),
                       list(result.skipped_inconclusive)])
    return hashlib.sha256(text.encode()).hexdigest()
