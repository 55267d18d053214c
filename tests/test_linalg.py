"""Exact kernels of linalg against the plain rational-rank oracle."""

import random
from fractions import Fraction

import pytest

from conftest import coefficient_at, planted_rank_matrix, rand_fraction
from dforge.linalg import rational_rank, ring_nullspace_vector
from dforge.series import Coefficient

_POINTS = ({"lam": Fraction(1, 2)}, {"lam": Fraction(7, 3)}, {"lam": Fraction(-5, 4)})


def _rational(rng):
    return Coefficient.from_fraction(rand_fraction(rng))


def _linear_in_lam(rng):
    lam = Coefficient.from_symbol("lam")
    return Coefficient.from_fraction(rand_fraction(rng)) + lam.scale(rand_fraction(rng))


def _rank(matrix, symbolic):
    """The rank over the rationals, or for entries in lam the most over a
    few rational points (the rank at a point never exceeds it)."""
    points = _POINTS if symbolic else ({},)
    return max(rational_rank([[coefficient_at(c, p) for c in row] for row in matrix])
               for p in points)


class TestRingNullspaceVector:
    @pytest.mark.parametrize("symbolic", [False, True])
    def test_kernel_vector_against_rank_oracle(self, symbolic):
        rng = random.Random(20261018 + symbolic)
        entry, top = (_linear_in_lam, 4) if symbolic else (_rational, 5)
        outcomes = set()
        for _ in range(60):
            rows, cols = rng.randint(1, top + 1), rng.randint(1, top)
            rank = rng.randint(0, min(rows, cols))
            matrix = planted_rank_matrix(rng, rows, cols, rank, entry, Coefficient.zero())
            vec = ring_nullspace_vector(matrix)
            full = _rank(matrix, symbolic) == cols
            assert (vec is None) == full
            if vec is not None:
                assert len(vec) == cols and any(vec)
                for row in matrix:
                    assert sum((a * v for a, v in zip(row, vec)), Coefficient.zero()).is_zero
            outcomes.add(full)
        assert outcomes == {True, False}

    def test_empty_matrix_has_no_kernel_vector(self):
        assert ring_nullspace_vector([]) is None
