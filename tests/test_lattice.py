"""Integer lattices of exponents: HNF bases, membership, prime support,
multi-index rewriting, gap statistics."""

import hashlib
import math
import random
import warnings
from fractions import Fraction
from itertools import product

import pytest

from conftest import PREC
from dforge.errors import FactorLimitExceeded, PrecisionTieWarning
from dforge.io import canonical_json, exponent_to_obj
from dforge.lattice import (
    Lattice,
    RankScan,
    express,
    factorize,
    gap_ratios,
    hermite_normal_form,
    integer_basis,
    log_basis_for_indices,
    omega_rewrite,
    prime_support,
    primes_up_to,
    reconstruct,
)
from dforge.linalg import rational_rank
from dforge.obstruction import finite_basis_certificate
from dforge.series import Exponent, SymbolBasis, make_series


class TestIntegerBasis:
    def test_dependent_family_rank_two(self, log_basis):
        e2, e3 = Exponent.of("L2"), Exponent.of("L3")
        B = integer_basis([e2, e3, e2 + e3, e2 * 2 + e3], log_basis)
        assert B.rank == 2
        assert set(B.generators) == {e2, e3}
        for e, row in zip([e2, e3, e2 + e3, e2 * 2 + e3], B.change_of_basis):
            assert reconstruct(B, row) == e

    def test_gcd_collapse(self, unit_basis):
        B = integer_basis([Exponent.constant(2), Exponent.constant(3)], unit_basis)
        assert B.rank == 1
        assert B.generators == (Exponent.constant(1),)

    def test_empty(self, unit_basis):
        B = integer_basis([], unit_basis)
        assert B.rank == 0 and B.generators == ()

    def test_idempotent_on_generators(self, log_basis):
        e2, e3 = Exponent.of("L2"), Exponent.of("L3")
        B = integer_basis([e2 * 2 + e3, e3 * 3, e2 + e3], log_basis)
        B2 = integer_basis(list(B.generators), log_basis)
        assert B2.rank == B.rank
        assert B2.change_of_basis == tuple(
            tuple(1 if i == j else 0 for j in range(B.rank)) for i in range(B.rank))

    def test_generators_positive(self, log_basis):
        # a family engineered so raw HNF rows go numerically negative
        e = Exponent.make({"L2": 1, "L3": -5})
        B = integer_basis([e, Exponent.of("L3")], log_basis)
        for g in B.generators:
            assert log_basis.exponent_value(g) > 0


class TestExpress:
    def test_plain_coordinates(self, log_basis):
        B = integer_basis([Exponent.of("L2"), Exponent.of("L3")], log_basis)
        v = express(Exponent.make({"L2": 5, "L3": 2}), B)
        assert v == (5, 2)

    def test_half_integer_outside(self, log_basis):
        B = integer_basis([Exponent.of("L2")], log_basis)
        assert express(Exponent.make({"L2": Fraction(1, 2)}), B) is None

    def test_log12_over_dependent_family(self, log_basis):
        e2, e3 = Exponent.of("L2"), Exponent.of("L3")
        B = integer_basis([e2, e3, e2 + e3, e2 * 2 + e3], log_basis)
        v = express(e2 * 2 + e3, B)  # log 12 as a vector
        assert v is not None and reconstruct(B, v) == e2 * 2 + e3

    def test_unknown_symbol_not_in_lattice(self, log_basis):
        B = integer_basis([Exponent.of("L2")], log_basis)
        assert express(Exponent.of("L5"), B) is None


class TestHNFOracles:
    def test_rank_matches_rational_elimination(self):
        rng = random.Random(1000003)
        basis = SymbolBasis.from_pairs(
            [("a", "1.1"), ("b", "2.3"), ("c", "3.7"), ("d", "5.1")], precision=PREC)
        names = basis.symbols
        for _ in range(300):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
            exps = [Exponent.make({names[j]: rows[i][j] for j in range(ncols)})
                    for i in range(nrows)]
            B = integer_basis(exps, basis)
            assert B.rank == rational_rank([[Fraction(v) for v in r] for r in rows])
            for e, coords in zip(exps, B.change_of_basis):
                assert reconstruct(B, coords) == e

    def test_generators_reachable_by_small_combinations(self):
        # exhaustive small-coefficient search: HNF generators lie in the
        # integer row span of the inputs
        rng = random.Random(2024)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 3), rng.randint(1, 3)
            rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
            hnf = hermite_normal_form(rows)
            bound = 9
            for target in hnf:
                found = False
                for combo in product(range(-bound, bound + 1), repeat=nrows):
                    if all(sum(c * rows[i][j] for i, c in enumerate(combo)) == target[j]
                           for j in range(ncols)):
                        found = True
                        break
                assert found, (rows, target)


class TestPrimeSupport:
    def test_basic_family(self):
        assert prime_support([1, 2, 3, 4, 6, 12]).primes == (2, 3)

    def test_first_twenty(self):
        assert prime_support(range(1, 21)).primes == (2, 3, 5, 7, 11, 13, 17, 19)

    def test_empty(self):
        ps = prime_support([])
        assert ps.primes == () and ps.sample_size == 0

    def test_union_property(self):
        rng = random.Random(8)
        for _ in range(20):
            s1 = [rng.randint(1, 500) for _ in range(10)]
            s2 = [rng.randint(1, 500) for _ in range(10)]
            u = set(prime_support(s1).primes) | set(prime_support(s2).primes)
            assert set(prime_support(s1 + s2).primes) == u

    def test_limit_strict_raises(self):
        big = 1000003 * 1000033
        with pytest.raises(FactorLimitExceeded):
            prime_support([big], limit=100, strict=True)

    def test_limit_degrades_gracefully(self):
        big = 1000003 * 1000033
        ps = prime_support([6, big], limit=100)
        assert ps.primes == (2, 3) and ps.unfactored == (big,)

    def test_factorize_certifies_prime_residue(self):
        # residue 997 <= limit^2 is provably prime once divisors <= 40 fail
        factors, residue = factorize(997 * 4, limit=40)
        assert residue is None and factors == {2: 2, 997: 1}

    def test_primes_up_to(self):
        assert len(primes_up_to(100)) == 25


class TestOmegaRewrite:
    def test_zeta_prefix(self, log_basis):
        vecs = {1: Exponent.zero(), 2: Exponent.of("L2"), 3: Exponent.of("L3")}
        phi = make_series([(vecs[n], 1) for n in (1, 2, 3)], log_basis, vecs[3])
        B = integer_basis([vecs[2], vecs[3]], log_basis)
        out = omega_rewrite(phi, B)
        assert {k: v.as_fraction() for k, v in out.items()} == {
            (0, 0): 1, (1, 0): 1, (0, 1): 1}

    def test_geometric(self, lam_basis):
        lam = Exponent.of("lam")
        phi = make_series([(lam * n, 1) for n in range(1, 6)], lam_basis, lam * 5)
        B = integer_basis([lam], lam_basis)
        out = omega_rewrite(phi, B)
        assert set(out) == {(n,) for n in range(1, 6)}

    def test_product_multi_indices(self, log_basis):
        e2, e3 = Exponent.of("L2"), Exponent.of("L3")
        bound = Exponent.make({"L2": 2, "L3": 2})
        a = make_series([(e2, 1), (e2 * 2, 1)], log_basis, bound)
        b = make_series([(e3, 1), (e3 * 2, 1)], log_basis, bound)
        from dforge.series import series_mul
        prod = series_mul(a, b)
        B = integer_basis([e2, e3], log_basis)
        out = omega_rewrite(prod, B)
        assert set(out) == {(m, k) for m in (1, 2) for k in (1, 2)}


class TestGapRatios:
    def test_factorials(self, unit_basis):
        exps = [Exponent.constant(math.factorial(i)) for i in range(1, 9)]
        g = gap_ratios(exps, unit_basis)
        assert [q for q in g.exact] == [Fraction(i) for i in range(2, 9)]

    def test_linear_ratios_tend_to_one(self, unit_basis):
        exps = [Exponent.constant(i) for i in range(1, 30)]
        g = gap_ratios(exps, unit_basis)
        assert g.exact[-1] == Fraction(29, 28)

    def test_super_exponential(self, unit_basis):
        exps = [Exponent.constant(2 ** (i * i)) for i in range(1, 7)]
        g = gap_ratios(exps, unit_basis)
        assert g.exact == tuple(Fraction(2 ** (2 * i - 1)) for i in range(2, 7))

    def test_nonpositive_prefix_dropped(self, unit_basis):
        exps = [Exponent.constant(q) for q in (-2, 0, 1, 2, 4)]
        g = gap_ratios(exps, unit_basis)
        assert g.dropped_prefix == 2 and len(g.ratios) == 2


class TestRankScan:
    def test_history_matches_batch(self, log_basis):
        e2, e3, e5 = (Exponent.of(n) for n in ("L2", "L3", "L5"))
        scan = RankScan(log_basis)
        for e in (e2, e2 * 2, e3, e2 + e3, e5):
            scan.add(e)
        assert scan.history == [(1, 1), (3, 2), (5, 3)]
        assert scan.finish().rank == 3


class TestLogBasisForIndices:
    def test_vectors_are_factorizations(self):
        basis, vecs = log_basis_for_indices(range(1, 13), PREC)
        assert vecs[12] == Exponent.make({"L2": 2, "L3": 1})
        assert vecs[1] == Exponent.zero()
        assert basis.symbols == ("L2", "L3", "L5", "L7", "L11")

    def test_limit_raises(self):
        with pytest.raises(FactorLimitExceeded):
            log_basis_for_indices([1000003 * 1000033], PREC, limit=100)


def _golden_streams():
    rng = random.Random(4017)
    return {
        "zeta100": list(range(1, 101)),
        "zeta400": list(range(1, 401)),
        "random": [rng.randint(1, 600) for _ in range(150)],
        "sample": random.Random(4019).sample(range(1, 320), 120),
    }


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


class TestGolden:
    """Digests of the corpus outputs, recorded with the re-eliminating
    (dense rational-rank and batch HNF) implementation."""

    # stream: (finite_basis_certificate JSON, basis --corpus object)
    DIGESTS = {
        "zeta100": ("6dc5b39cff1cd928bc742be6", "4ec18c7c1c3d73f974440761"),
        "zeta400": ("735ce51faa7002cfbdc13297", "fe5a4ceb1182173e4d2a0d35"),
        "random": ("5f48928df91405a97fbdd7df", "67082d7d50e618d49bd929b3"),
        "sample": ("8d11d45880ccb3c8187f3112", "a7eb2eedec95b0df7693e09b"),
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_corpus_outputs_unchanged(self, name):
        indices = _golden_streams()[name]
        basis, exps = log_basis_for_indices(indices, PREC)
        stream = [exps[n] for n in indices]
        cert = finite_basis_certificate(stream, 12, basis).to_json()
        B = integer_basis(stream, basis)
        obj = canonical_json({
            "rank": B.rank,
            "generators": [exponent_to_obj(g) for g in B.generators],
            "change_of_basis": [list(r) for r in B.change_of_basis],
            "input_subset": None if B.input_subset is None else list(B.input_subset),
        })
        assert (_digest(cert), _digest(obj)) == self.DIGESTS[name]


_ORACLE_BASIS = SymbolBasis.from_pairs(
    [("a", "1.1"), ("b", "2.3"), ("c", "3.7")], precision=PREC)


def _random_family(rng):
    """Rational exponents with mixed denominators and a constant part,
    salted with zero and repeated rows."""
    names = _ORACLE_BASIS.symbols
    out = []
    for _ in range(rng.randint(0, 8)):
        r = rng.random()
        if r < 0.1:
            out.append(Exponent.zero())
        elif r < 0.2 and out:
            out.append(rng.choice(out))
        else:
            coords = {rng.choice(names): Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))
                      for _ in range(rng.randint(1, 4))}
            const = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) if rng.random() < 0.6 else 0
            out.append(Exponent.make(coords, const))
    return out


def _dense(exps):
    """Integer rows over (const, a, b, c) and their common denominator."""
    rows = [[e.const, *(e.coord(n) for n in _ORACLE_BASIS.symbols)] for e in exps]
    denom = math.lcm(1, *(q.denominator for row in rows for q in row))
    return [[int(q * denom) for q in row] for row in rows], denom


def _dense_hnf_generators(exps):
    rows, denom = _dense(exps)
    gens = []
    for row in hermite_normal_form(rows):
        g = Exponent.make({n: Fraction(v, denom) for n, v in zip(_ORACLE_BASIS.symbols, row[1:])},
                          Fraction(row[0], denom))
        gens.append(-g if _ORACLE_BASIS.exponent_value(g) < 0 else g)
    return tuple(gens)


def _member(e, exps):
    """Exact membership: adding e leaves the HNF of the lattice unchanged."""
    if any(n not in _ORACLE_BASIS.symbols for n in e.symbols()):
        return False
    return _dense_hnf_generators(exps + [e]) == _dense_hnf_generators(exps)


def _greedy_subset(exps, rank):
    """Rank-raising inputs, kept when their HNF equals the family's."""
    picked = []
    for i in range(len(exps)):
        if len(picked) == rank:
            break
        if rational_rank(_dense([exps[j] for j in picked + [i]])[0]) > len(picked):
            picked.append(i)
    if _dense_hnf_generators([exps[j] for j in picked]) != _dense_hnf_generators(exps):
        return None
    return tuple(picked)


class TestLatticeOracles:
    FAMILIES = [_random_family(random.Random(seed)) for seed in range(120)]

    def test_generators_are_dense_hnf(self):
        for exps in self.FAMILIES:
            assert integer_basis(exps, _ORACLE_BASIS).generators == _dense_hnf_generators(exps)

    def test_change_of_basis_reconstructs(self):
        for exps in self.FAMILIES:
            B = integer_basis(exps, _ORACLE_BASIS)
            assert len(B.change_of_basis) == len(exps)
            for e, coords in zip(exps, B.change_of_basis):
                assert len(coords) == B.rank and reconstruct(B, coords) == e

    def test_history_prefix_ranks(self):
        for exps in self.FAMILIES:
            lattice = Lattice(_ORACLE_BASIS)
            for k, e in enumerate(exps, 1):
                rank = lattice.add(e)
                assert rank == rational_rank(_dense(exps[:k])[0])
            ranks = [rational_rank(_dense(exps[:k])[0]) for k in range(len(exps) + 1)]
            assert lattice.history == [(k, ranks[k]) for k in range(1, len(ranks))
                                       if ranks[k] > ranks[k - 1]]

    def test_membership_and_express(self):
        rng = random.Random(77)
        for exps in self.FAMILIES:
            lattice = Lattice(_ORACLE_BASIS)
            for e in exps:
                lattice.add(e)
            B = integer_basis(exps, _ORACLE_BASIS)
            combo = Exponent.zero()
            for e in exps:
                combo = combo + e * rng.randint(-2, 2)
            probes = [combo, combo + Exponent.of("a", Fraction(1, 7)),
                      combo + Exponent.constant(Fraction(1, 2)), Exponent.of("z"),
                      combo + Exponent.of("z"), Exponent.make({"b": 2}, 3)]
            probes += [g * Fraction(1, 2) for g in B.generators]
            for p in probes:
                member = _member(p, exps)
                coords = express(p, B)
                assert lattice.contains(p) == member == (coords is not None)
                assert lattice.express(p) == coords
                if member:
                    assert reconstruct(B, coords) == p

    def test_input_subset_is_greedy(self):
        for exps in self.FAMILIES:
            B = integer_basis(exps, _ORACLE_BASIS)
            assert B.input_subset == _greedy_subset(exps, B.rank)
        assert any(integer_basis(exps, _ORACLE_BASIS).input_subset is None
                   for exps in self.FAMILIES)

    def test_zero_valued_generator_warns(self):
        basis = SymbolBasis.from_pairs([("a", "1.5")], precision=PREC)
        # 2a - 3 vanishes numerically at a = 1.5
        with pytest.warns(PrecisionTieWarning):
            B = integer_basis([Exponent.make({"a": 2}, -3)], basis)
        assert B.rank == 1
        with pytest.warns(PrecisionTieWarning):
            finite_basis_certificate([Exponent.make({"a": 2}, -3)], 3, basis)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionTieWarning)
            integer_basis([Exponent.make({"a": 2}, -1)], basis)
        # within 2^-P of zero but not zero: a = 1.5 + 10^-39 gives 2.0e-39 < 2^-128
        near = SymbolBasis.from_pairs([("a", "1.5" + "0" * 37 + "1")], precision=128)
        with pytest.warns(PrecisionTieWarning):
            B = integer_basis([Exponent.make({"a": 2}, -3)], near)
        assert B.generators == (Exponent.make({"a": 2}, -3),)
