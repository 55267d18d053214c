"""Power products, Wronskian dependence, equation search."""

import gc
import random

import pytest

from conftest import PREC, exact_exponential, geometric_series, not_found_digest
from dforge.errors import HorizonTooShort
from dforge.formal_eval import substitute
from dforge.grammar import parse_diffpoly, pretty
from dforge.lattice import log_basis_for_indices
from dforge.linalg import determinant, determinant_leibniz, operator_ring
from dforge.series import Coefficient, Exponent, SymbolBasis, make_series, series_neg
from dforge.wronskian import (
    _PROBE_TERMS,
    _ROW_MARGIN,
    Dependent,
    Independent,
    NotFoundWithinW,
    PowerProduct,
    _Column,
    _decide,
    _NumSeries,
    _Screen,
    _working_series,
    _wronskian_determinant,
    derive_ade,
    enumerate_products,
    wronskian_dependence,
)


def _partition_count_oracle(w):
    """Number of integer partitions of w by brute-force enumeration."""

    def count(remaining, max_part):
        if remaining == 0:
            return 1
        return sum(count(remaining - p, p) for p in range(min(remaining, max_part), 0, -1))

    return count(w, w)


class TestEnumerate:
    def test_weight_one(self):
        assert [str(p) for p in enumerate_products(1)] == ["f"]

    def test_weight_two(self):
        assert [str(p) for p in enumerate_products(2)] == ["f", "f^2", "f'"]

    def test_weight_three(self):
        assert [str(p) for p in enumerate_products(3)] == [
            "f", "f^2", "f'", "f^3", "f*f'", "f''"]

    def test_counts_match_partition_oracle(self):
        for w in range(1, 9):
            got = len([p for p in enumerate_products(w) if p.weight == w])
            assert got == _partition_count_oracle(w)

    def test_weights(self):
        p = PowerProduct.make({0: 2, 2: 1})
        assert p.weight == 2 * 1 + 1 * 3


class TestDependence:
    def test_exponential_pair_dependent(self, unit_basis):
        phi = exact_exponential(unit_basis, Exponent.constant(1))
        products = [PowerProduct.make({0: 1}), PowerProduct.make({1: 1})]
        verdict = wronskian_dependence(products, phi)
        assert isinstance(verdict, Dependent)
        assert [c.as_fraction() for c in verdict.coefficients] == [1, 1]
        assert verdict.complete

    def test_two_exponentials_independent(self, unit_basis):
        phi = make_series([(Exponent.constant(1), 1), (Exponent.constant(2), 1)],
                          unit_basis, Exponent.constant(2))
        products = [PowerProduct.make({0: 1}), PowerProduct.make({1: 1})]
        verdict = wronskian_dependence(products, phi)
        assert isinstance(verdict, Independent)
        assert verdict.witness_exponent == Exponent.constant(3)

    def test_geometric_riccati_dependence(self, lam_basis):
        phi = geometric_series(lam_basis, 14)
        products = [PowerProduct.make({0: 1}), PowerProduct.make({0: 2}),
                    PowerProduct.make({1: 1})]
        verdict = wronskian_dependence(products, phi)
        assert isinstance(verdict, Dependent)
        lam = Coefficient.from_symbol("lam")
        assert list(verdict.coefficients) == [lam, lam, Coefficient.one()]

    def test_requires_two_products(self, lam_basis):
        with pytest.raises(ValueError):
            wronskian_dependence([PowerProduct.make({0: 1})],
                                 geometric_series(lam_basis, 4))

    def test_underdetermined_horizon(self, unit_basis):
        # one stored exponent cannot settle three products
        phi = make_series([(Exponent.constant(1), 1)], unit_basis, Exponent.constant(1))
        products = [PowerProduct.make({0: 1}), PowerProduct.make({1: 1}),
                    PowerProduct.make({2: 1})]
        with pytest.raises(HorizonTooShort) as err:
            wronskian_dependence(products, phi)
        assert err.value.details == "underdetermined"

    def test_antisymmetry_of_determinant(self, lam_basis):
        from dforge.wronskian import _Column
        phi = geometric_series(lam_basis, 6)
        c1 = _Column(PowerProduct.make({0: 1}).evaluate(phi))
        c2 = _Column(PowerProduct.make({0: 2}).evaluate(phi))
        assert _wronskian_determinant([c1, c2], None, lam_basis) == \
            series_neg(_wronskian_determinant([c2, c1], None, lam_basis))


class TestDeriveAde:
    def test_single_exponential(self, unit_basis):
        phi = exact_exponential(unit_basis, Exponent.constant(1))
        F = derive_ade(phi, 2)
        assert pretty(F) == "f + f'"
        assert substitute(F, phi).is_zero

    def test_geometric(self, lam_basis):
        phi = geometric_series(lam_basis, 20)
        F = derive_ade(phi, 3)
        assert F == parse_diffpoly("lam*f + lam*f^2 + f'", lam_basis)
        assert substitute(F, phi).is_zero

    def test_double_exponential_two_symbols(self, log_basis):
        from dforge.series import FormalSeries, XPoly
        phi = FormalSeries(log_basis, (
            (Exponent.of("L2"), XPoly.from_coefficient(Coefficient.one())),
            (Exponent.of("L3"), XPoly.from_coefficient(Coefficient.one()))), None)
        F = derive_ade(phi, 3)
        assert not isinstance(F, NotFoundWithinW)
        assert substitute(F, phi).is_zero
        # linear second-order law, scaled by a constant symbol polynomial
        orders = sorted(ind.order for ind in F.indeterminates())
        assert orders == [0, 1, 2] and F.total_degree == 1

    def test_zeta_prefix_not_found(self):
        basis, vecs = log_basis_for_indices(range(1, 9), PREC)
        phi = make_series([(vecs[n], 1) for n in range(1, 9)], basis, vecs[8])
        result = derive_ade(phi, 3, horizon=vecs[6])
        assert isinstance(result, NotFoundWithinW)
        # every dependence candidate must have been refuted by substitution
        assert result.subsets_searched > 0

    def test_found_equation_always_rechecks(self, lam_basis):
        # any Dependent that survives must substitute to zero by construction
        phi = geometric_series(lam_basis, 10)
        F = derive_ade(phi, 3)
        assert substitute(F, phi).is_zero

    def test_window_relation_refuted_by_full_data(self, lam_basis):
        # corrupt one coefficient beyond the search window: the dependence
        # detector cannot see it, but the full-data residual cross-check can
        lam = Exponent.of("lam")
        terms = [(lam * n, 1) for n in range(1, 11)]
        terms[9] = (lam * 10, 3)  # break the geometric law at 10*lam
        phi = make_series(terms, lam_basis, lam * 10)
        result = derive_ade(phi, 3, horizon=lam * 8)
        assert isinstance(result, NotFoundWithinW)
        assert any("f'" in label for label in result.candidates_refuted)


def _zeta(n):
    basis, vecs = log_basis_for_indices(range(1, n + 1), PREC)
    return basis, vecs, make_series([(vecs[i], 1) for i in range(1, n + 1)], basis, vecs[n])


def _geometric_family():
    basis = SymbolBasis.from_pairs([("lam", "0.7")], precision=PREC)
    return basis, geometric_series(basis, 14)


class TestEvaluateMemo:
    def test_shared_memo_gives_the_same_products(self, lam_basis):
        phi = geometric_series(lam_basis, 9)
        memo = {}
        for p in enumerate_products(4):
            assert p.evaluate(phi, memo) == p.evaluate(phi)


class TestSharedScreen:
    """The search-wide minor table against a fresh table and the Leibniz
    permutation sum, on seeded subsets and stages."""

    @pytest.mark.parametrize("family", ["zeta", "geometric"])
    def test_shared_table_matches_fresh_and_leibniz(self, family):
        if family == "zeta":
            basis, _, phi = _zeta(40)
        else:
            basis, phi = _geometric_family()
        memo = {}
        columns = [_Column(p.evaluate(phi, memo)) for p in enumerate_products(4)]
        screen = _Screen(basis)
        rng = random.Random(20261018)
        nonzero = 0
        for _ in range(40):
            k = rng.randint(2, 5)
            cols = [columns[i] for i in sorted(rng.sample(range(len(columns)), k))]
            # from stage 2 on no entry is a zero series with a finite bound:
            # minor expansion skips such an entry and the Leibniz sum keeps
            # its bound, so the two bounds would differ there
            stage = rng.choice((_PROBE_TERMS, k + _ROW_MARGIN, rng.randint(2, 9)))
            rows = [col.dyadic_rows(stage, k) for col in cols]
            for col, converted in zip(cols, rows):
                fresh_rows = [_NumSeries.from_series(s) for s in col.rows(stage, k)]
                assert [r.terms for r in converted] == [r.terms for r in fresh_rows]
                assert [r.bound for r in converted] == [r.bound for r in fresh_rows]
            matrix = [[r[i] for r in rows] for i in range(k)]
            shared = determinant(matrix, screen.ring, screen.table(stage), cols)
            for other in (determinant(matrix, screen.ring),
                          determinant_leibniz(matrix, screen.ring)):
                assert shared.terms == other.terms
                assert shared.bound == other.bound
            nonzero += bool(shared.terms)
        assert nonzero > 10

    @pytest.mark.parametrize("family", ["zeta", "geometric"])
    def test_verdicts_match_wronskian_dependence(self, family):
        if family == "zeta":
            basis, vecs, phi = _zeta(40)
            horizons = (vecs[4], vecs[6], vecs[12])
        else:
            basis, phi = _geometric_family()
            lam = Exponent.of("lam")
            horizons = (lam * 6, lam * 9, None)
        products = enumerate_products(4)
        rng = random.Random(7)
        kinds = set()
        for horizon in horizons:
            work = _working_series(phi, horizon)
            memo = {}
            columns = [_Column(p.evaluate(work, memo)) for p in products]
            screen = _Screen(basis)
            subsets = [sorted(rng.sample(range(len(products)), rng.randint(2, 5)))
                       for _ in range(15)]
            for idx in sorted(subsets, key=len):
                outcomes = []
                for run in (lambda: _decide([columns[i] for i in idx], screen),
                            lambda: wronskian_dependence([products[i] for i in idx],
                                                         phi, horizon)):
                    try:
                        outcomes.append(run())
                    except HorizonTooShort as exc:
                        outcomes.append(("skipped", exc.details, str(exc)))
                assert outcomes[0] == outcomes[1]
                first = outcomes[0]
                kinds.add(first[0] if isinstance(first, tuple) else type(first).__name__)
        want = {"Independent", "skipped"} | ({"Dependent"} if family == "geometric" else set())
        assert kinds == want

    def test_search_leaves_nothing_in_the_basis_cache(self):
        basis, vecs, phi = _zeta(12)
        derive_ade(phi, 3, horizon=vecs[8])
        assert ("screen_ring",) not in basis._cache
        assert not any(callable(v) for v in basis._cache.values())

    def test_no_reference_cycles(self):
        # caches must be freed by reference counting alone, as soon as the
        # search returns, not at the next full collection
        gc.collect()
        gc.disable()
        try:
            basis, vecs, phi = _zeta(12)
            derive_ade(phi, 3, horizon=vecs[8])
            wronskian_dependence(enumerate_products(3)[:3], phi, vecs[8])
            ring = operator_ring(Coefficient.zero(), Coefficient.one())
            m = [[Coefficient.from_fraction(i * 3 + j + (i == j)) for j in range(3)]
                 for i in range(3)]
            assert determinant(m, ring) == determinant_leibniz(m, ring)
            del basis, vecs, phi, ring, m
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGolden:
    """Digests of (subsets_searched, candidates_refuted,
    skipped_underdetermined, skipped_inconclusive) for the weight-4 search
    on zeta 1..100, recorded with a fresh minor table per determinant."""

    DIGESTS = {
        3: "688ecf11129df115870188d4122389da70f736980da7aa98830623c3d655a9c1",
        4: "b5de6eb1106e282d14cbe7021fcf78f9672dbd0683af262307e2ee8db1dbe046",
        5: "b5de6eb1106e282d14cbe7021fcf78f9672dbd0683af262307e2ee8db1dbe046",
    }

    @pytest.mark.parametrize("log", sorted(DIGESTS))
    def test_zeta_weight_four(self, log):
        basis, vecs, phi = _zeta(100)
        result = derive_ade(phi, 4, horizon=vecs[log])
        assert isinstance(result, NotFoundWithinW)
        assert result.subsets_searched == 2036
        assert not_found_digest(result) == self.DIGESTS[log]
