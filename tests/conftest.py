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
from dforge.wronskian import _MODULUS, _NumSeries, _Screen

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


def residue_series(s: FormalSeries, screen: _Screen) -> _NumSeries:
    """The screen's form of ``s``, converted term by term: the residue of
    each coefficient at the screen's point, stored for every term."""
    return _NumSeries({e: p.constant().residue(screen.point, _MODULUS) for e, p in s.terms},
                      s.truncation, screen.basis, screen.past)


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


def planted_rank_matrix(rng, rows, cols, rank, entry, zero):
    """A rows x cols matrix of rank at most ``rank``: the product of a
    rows x rank and a rank x cols matrix of ``entry(rng)`` values."""
    left = [[entry(rng) for _ in range(rank)] for _ in range(rows)]
    right = [[entry(rng) for _ in range(cols)] for _ in range(rank)]
    return [[sum((left[i][t] * right[t][j] for t in range(rank)), zero)
             for j in range(cols)] for i in range(rows)]


def coefficient_at(c, point) -> Fraction:
    """The value of an undamped Coefficient with each symbol at ``point``."""
    total = Fraction(0)
    for (syms, damp), q in c.terms:
        assert damp.is_zero
        for n, k in syms:
            q = q * Fraction(point[n]) ** k
        total += q
    return total
