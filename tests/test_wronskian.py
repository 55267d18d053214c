"""Products of f and its derivatives, Wronskian dependence, equation search."""

import gc
import itertools
import random
import warnings
from fractions import Fraction

import pytest

from conftest import (
    PREC,
    exact_exponential,
    geometric_series,
    not_found_digest,
    planted_rank_matrix,
    rand_fraction,
    residue_series,
)
from oracles import determinant_leibniz
from dforge import wronskian
from dforge.diffpoly import DiffIndeterminate, DiffPolynomial
from dforge.errors import HorizonTooShort, PrecisionTieWarning
from dforge.formal_eval import evaluate_powers, substitute
from dforge.grammar import parse_diffpoly, pretty
from dforge.lattice import log_basis_for_indices
from dforge.linalg import (
    determinant,
    ring_echelon,
    ring_nullspace_vector,
)
from dforge.series import (
    ONE,
    Coefficient,
    Exponent,
    SymbolBasis,
    compare_bounds,
    constant_series,
    damping_key,
    differentiate_s,
    make_series,
    meet_bounds,
    prefix,
    series_sum,
    zero_series,
)
from dforge.wronskian import (
    _MODULUS,
    _PROBE_TERMS,
    _ROW_MARGIN,
    Dependent,
    Independent,
    NotFoundWithinW,
    _Column,
    _decide,
    _normalize,
    _NumSeries,
    _relation,
    _Screen,
    _working_series,
    _wronskian_determinant,
    derive_ade,
    enumerate_products,
    search_ade,
    weight,
    wronskian_dependence,
)


def _evaluate(p, phi, memo=None):
    """A one-monomial product on ``phi``, through the evaluator ``substitute``
    uses."""
    return evaluate_powers(p.terms[0][0][1], phi, {} if memo is None else memo)


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

    def test_listing_matches_sorted_partitions(self):
        # every multiplicity vector (k_0, ..., k_{w-1}) with sum (o+1) k_o = w,
        # sorted by the negated vector: most factors of the lowest order first
        want = []
        for w in range(1, 11):
            vectors = [v for v in itertools.product(*(range(w // (o + 1) + 1)
                                                      for o in range(w)))
                       if sum((o + 1) * k for o, k in enumerate(v)) == w]
            for v in sorted(vectors, key=lambda v: tuple(-k for k in v)):
                want.append(tuple((DiffIndeterminate.make(o), k)
                                  for o, k in enumerate(v) if k))
        got = enumerate_products(10)
        assert [p.terms[0][0] for p in got] == [(0, powers) for powers in want]
        assert all(p.terms[0][1] == Coefficient.one() for p in got)

    def test_counts_match_partition_oracle(self):
        for w in range(1, 9):
            got = len([p for p in enumerate_products(w) if weight(p) == w])
            assert got == _partition_count_oracle(w)

    def test_weights(self):
        p = parse_diffpoly("f^2*f''")
        assert weight(p) == 2 * 1 + 1 * 3


class TestDependence:
    def test_exponential_pair_dependent(self, unit_basis):
        phi = exact_exponential(unit_basis, Exponent.constant(1))
        products = [parse_diffpoly("f"), parse_diffpoly("f'")]
        verdict = wronskian_dependence(products, phi)
        assert isinstance(verdict, Dependent)
        assert [c.as_fraction() for c in verdict.coefficients] == [1, 1]
        assert verdict.complete

    def test_two_exponentials_independent(self, unit_basis):
        phi = make_series([(Exponent.constant(1), 1), (Exponent.constant(2), 1)],
                          unit_basis, Exponent.constant(2))
        products = [parse_diffpoly("f"), parse_diffpoly("f'")]
        verdict = wronskian_dependence(products, phi)
        assert isinstance(verdict, Independent)
        assert verdict.witness_exponent == Exponent.constant(3)

    def test_geometric_riccati_dependence(self, lam_basis):
        phi = geometric_series(lam_basis, 14)
        products = [parse_diffpoly("f"), parse_diffpoly("f^2"), parse_diffpoly("f'")]
        verdict = wronskian_dependence(products, phi)
        assert isinstance(verdict, Dependent)
        lam = Coefficient.from_symbol("lam")
        assert list(verdict.coefficients) == [lam, lam, Coefficient.one()]

    def test_requires_two_products(self, lam_basis):
        with pytest.raises(ValueError):
            wronskian_dependence([parse_diffpoly("f")],
                                 geometric_series(lam_basis, 4))

    def test_underdetermined_horizon(self, unit_basis):
        # one stored exponent cannot settle three products
        phi = make_series([(Exponent.constant(1), 1)], unit_basis, Exponent.constant(1))
        products = [parse_diffpoly("f"), parse_diffpoly("f'"), parse_diffpoly("f''")]
        with pytest.raises(HorizonTooShort) as err:
            wronskian_dependence(products, phi)
        assert err.value.details == "underdetermined"

    def test_zero_series_known_in_full_is_dependent(self, lam_basis):
        # every column is the exact zero: a term matrix with no rows has
        # rank 0, every vector is a relation, and the first unit vector is
        # returned
        phi = make_series([], lam_basis, None)
        products = [parse_diffpoly("f"), parse_diffpoly("f^2")]
        assert wronskian_dependence(products, phi) == \
            Dependent((Coefficient.one(), Coefficient.zero()), True)
        assert derive_ade(phi, 3) == parse_diffpoly("f")

    @pytest.mark.parametrize("other", ["f''", "f*f'"])
    def test_derivatives_of_an_exact_constant_are_dependent(self, lam_basis, other):
        phi = make_series([(Exponent.zero(), 3)], lam_basis, None)
        products = [parse_diffpoly("f'"), parse_diffpoly(other)]
        assert wronskian_dependence(products, phi) == \
            Dependent((Coefficient.one(), Coefficient.zero()), True)
        assert derive_ade(phi, 3) == parse_diffpoly("3*f - f^2")

    def test_window_relation_failing_beyond_the_window_is_solved_again(
            self, lam_basis, monkeypatch):
        # 2 at n = 10 breaks the geometric law past the 7-row window of f,
        # f^2, f': the window relation is found by one elimination and fails
        # on the 12 rows, whose image has full rank, so no relation holds on
        # every row and the subset is inconclusive
        lam = Exponent.of("lam")
        phi = make_series([(lam * n, 2 if n == 10 else 1) for n in range(1, 13)],
                          lam_basis, lam * 12)
        products = [parse_diffpoly(t) for t in ("f", "f^2", "f'")]
        eliminations, images = [], []
        full_rank_image = _Screen.full_rank_image
        monkeypatch.setattr(wronskian, "ring_nullspace_vector",
                            lambda m: eliminations.append(len(m)) or ring_nullspace_vector(m))
        monkeypatch.setattr(_Screen, "full_rank_image",
                            lambda screen, m: images.append(len(m)) or full_rank_image(screen, m))
        with pytest.raises(HorizonTooShort) as err:
            wronskian_dependence(products, phi)
        assert err.value.details == "determinant-vanished"
        assert eliminations == [3 + _ROW_MARGIN]
        assert images == [3 + _ROW_MARGIN, 12]

    def test_antisymmetry_of_determinant(self, lam_basis):
        from dforge.wronskian import _Column
        phi = geometric_series(lam_basis, 6)
        c1 = _Column(_evaluate(parse_diffpoly("f"), phi))
        c2 = _Column(_evaluate(parse_diffpoly("f^2"), phi))
        screen = _Screen(lam_basis)
        d12 = _wronskian_determinant([c1, c2], 2 + _ROW_MARGIN, screen)
        d21 = _wronskian_determinant([c2, c1], 2 + _ROW_MARGIN, screen)
        assert d12.terms
        assert d12.terms == (-d21).terms
        assert d12.bound == d21.bound


class TestProductInput:
    """What the search and ``wronskian_dependence`` accept: univariate
    series, and products that are one monomial with coefficient 1."""

    @staticmethod
    def _x_series(basis):
        lam = Exponent.of("lam")
        return make_series([(lam, 1), (lam * 2, 1, 1), (lam * 3, 1)], basis, lam * 3)

    def test_series_with_x_refused(self, lam_basis):
        phi = self._x_series(lam_basis)
        with pytest.raises(ValueError, match="univariate"):
            search_ade(phi, 2)
        with pytest.raises(ValueError, match="univariate"):
            wronskian_dependence([parse_diffpoly("f"), parse_diffpoly("f'")], phi)

    @pytest.mark.parametrize("text", ["f + f'", "2*f", "lam*f", "x*f", "1"])
    def test_product_not_one_plain_monomial_refused(self, lam_basis, text):
        products = [parse_diffpoly("f^2"), parse_diffpoly(text, lam_basis)]
        with pytest.raises(ValueError, match="one monomial"):
            wronskian_dependence(products, geometric_series(lam_basis, 12))

    def test_shifted_products_as_substitute_evaluates_them(self, lam_basis):
        # f(s+1) + (1 - e^-lam)*f*f(s+1) - e^-lam*f = 0 on the geometric series
        phi = geometric_series(lam_basis, 12)
        products = [parse_diffpoly(t) for t in ("f(s+1)", "f*f(s+1)", "f")]
        verdict = wronskian_dependence(products, phi)
        assert isinstance(verdict, Dependent)
        F = DiffPolynomial.collect((p.terms[0][0], c)
                                   for p, c in zip(products, verdict.coefficients))
        assert F.has_shifts() and F.total_degree == 2
        assert substitute(F, phi).is_zero

    def test_shifted_window_keeps_every_image_row(self, lam_basis, monkeypatch):
        # each entry of a shifted column carries e^(-n*lam), which has an
        # image: the term-matrix image keeps all k + 4 window rows
        phi = geometric_series(lam_basis, 12)
        products = [parse_diffpoly(t) for t in ("f(s+1)", "f*f(s+1)", "f")]
        images = []
        monkeypatch.setattr(wronskian, "ring_echelon",
                            lambda m: images.append(len(m)) or ring_echelon(m))
        assert isinstance(wronskian_dependence(products, phi), Dependent)
        assert images == [3 + _ROW_MARGIN]

    def test_shifted_relation_has_no_common_damping_factor(self, lam_basis):
        phi = geometric_series(lam_basis, 12)
        products = [parse_diffpoly(t) for t in ("f(s+1)", "f*f(s+1)", "f")]
        verdict = wronskian_dependence(products, phi)
        assert [str(c) for c in verdict.coefficients] == [
            "1", "1 - exp(-(lam))", "-exp(-(lam))"]


class TestNormalize:
    """A relation is divided by its rational content and by e^(-mu), mu the
    coordinatewise least damping exponent of its terms; its first nonzero
    coefficient leads with a positive rational."""

    def test_least_damping_per_coordinate(self):
        lam, one = Exponent.of("lam"), Exponent.constant(1)
        vec = [Coefficient.damping(lam * 2 + one).scale(-2),
               Coefficient.zero(),
               Coefficient.damping(lam + one * 2).scale(6) + Coefficient.damping(lam * 3 + one)]
        assert [str(c) for c in _normalize(vec)] == [
            "2*exp(-(lam))", "0", "-exp(-(2*lam)) - 6*exp(-(1))"]

    def test_undamped_relations_are_only_rescaled(self):
        rng = random.Random(16)
        for _ in range(50):
            vec = [_symbolic_entry(rng, 0) for _ in range(rng.randint(1, 4))]
            normalized = _normalize(vec)
            lead = next(i for i, c in enumerate(vec) if c)
            ratio = Fraction(normalized[lead].terms[0][1]) / vec[lead].terms[0][1]
            assert normalized == [c.scale(ratio) for c in vec]
            assert normalized[lead].terms[0][1] > 0


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


class TestSubsetCap:
    """The cap is checked before each subset size: an equation among small
    subsets is found, and a search stops before the size that passes it."""

    # weight 3 has six products: C(6, k) subsets of size k, 57 in all

    def test_refused_before_the_size_that_passes_the_cap(self, monkeypatch):
        basis, vecs = log_basis_for_indices(range(1, 9), PREC)
        phi = make_series([(vecs[n], 1) for n in range(1, 9)], basis, vecs[8])
        monkeypatch.setattr(wronskian, "MAX_SUBSETS", 57)
        assert derive_ade(phi, 3, horizon=vecs[6]).subsets_searched == 57
        monkeypatch.setattr(wronskian, "MAX_SUBSETS", 56)
        with pytest.raises(ValueError, match=r"\(57 up to size 6\)"):
            derive_ade(phi, 3, horizon=vecs[6])

    def test_equation_below_the_cap_is_found(self, lam_basis, monkeypatch):
        phi = geometric_series(lam_basis, 20)
        monkeypatch.setattr(wronskian, "MAX_SUBSETS", 35)   # sizes 2 and 3
        assert derive_ade(phi, 3) == parse_diffpoly("lam*f + lam*f^2 + f'", lam_basis)
        monkeypatch.setattr(wronskian, "MAX_SUBSETS", 34)
        with pytest.raises(ValueError, match=r"\(35 up to size 3\)"):
            derive_ade(phi, 3)

    def test_huge_weight_builds_no_product(self, lam_basis, monkeypatch):
        def refuse(_):
            raise AssertionError("products built")
        monkeypatch.setattr(wronskian, "enumerate_products", refuse)
        with pytest.raises(ValueError, match=r"\(1272810 up to size 2\)"):
            derive_ade(geometric_series(lam_basis, 5), 10 ** 9)


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
            assert _evaluate(p, phi, memo) == _evaluate(p, phi)


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
        columns = [_Column(_evaluate(p, phi, memo)) for p in enumerate_products(4)]
        screen = _Screen(basis)
        rng = random.Random(20261018)
        nonzero = 0
        for _ in range(40):
            k = rng.randint(2, 5)
            cols = [columns[i] for i in sorted(rng.sample(range(len(columns)), k))]
            stage = rng.choice((_PROBE_TERMS, k + _ROW_MARGIN, rng.randint(1, 9)))
            rows = [col.screen_rows(stage, k, screen) for col in cols]
            for col, converted in zip(cols, rows):
                fresh_rows = [residue_series(s, screen)
                              for s in _chain_rows(col.evaluated, stage, k)]
                assert [r.terms for r in converted] == [r.terms for r in fresh_rows]
                assert [r.bound for r in converted] == [r.bound for r in fresh_rows]
            matrix = [[r[i] for r in rows] for i in range(k)]
            shared = determinant(matrix, screen.table(stage), cols)
            for other in (determinant(matrix), determinant_leibniz(matrix)):
                assert shared.terms == other.terms
                assert shared.bound == other.bound
            nonzero += bool(shared.terms)
        assert nonzero > 10

    def test_entry_zero_up_to_a_bound_keeps_its_bound(self):
        # at stage 1 some entries have no term but a finite bound; they are
        # not exact zeros, so both expansions carry their bounds through
        basis, _, phi = _zeta(40)
        memo = {}
        products = enumerate_products(4)
        cols = [_Column(_evaluate(products[i], phi, memo)) for i in (2, 3, 8, 9, 10)]
        screen = _Screen(basis)
        rows = [col.screen_rows(1, len(cols), screen) for col in cols]
        matrix = [[r[i] for r in rows] for i in range(len(cols))]
        assert any(not entry.terms and entry for row in matrix for entry in row)
        for det in (determinant(matrix, screen.table(1), cols), determinant(matrix),
                    determinant_leibniz(matrix)):
            assert det.bound == Exponent.of("L2", 5)
            assert len(det.terms) == 1

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
            columns = [_Column(_evaluate(p, work, memo)) for p in products]
            screen = _Screen(basis, columns)
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
            lam = SymbolBasis.from_pairs([("lam", "0.7")], precision=PREC)
            found = derive_ade(geometric_series(lam, 12), 3)
            assert found == parse_diffpoly("lam*f + lam*f^2 + f'", lam)
            m = [[Coefficient.from_fraction(i * 3 + j + (i == j)) for j in range(3)]
                 for i in range(3)]
            assert determinant(m) == determinant_leibniz(m)
            del basis, vecs, phi, m, lam, found
            assert gc.collect() == 0
        finally:
            gc.enable()


def _chain_rows(evaluated, stage, count):
    """A stage's rows derived as a chain: the stage's prefix of the evaluated
    series, then one ``differentiate_s`` per order."""
    base = evaluated
    if stage is not None and base.terms:
        base = prefix(base, stage)
    chain = [base]
    while len(chain) < count:
        chain.append(differentiate_s(chain[-1]))
    return chain[:count]


def _residue_rows(evaluated, stage, count, screen):
    """The oracle for a column's screen rows: the exact chain's rows, each
    coefficient imaged at the screen's point; None when one has no image."""
    rows = [residue_series(r, screen) for r in _chain_rows(evaluated, stage, count)]
    return None if any(None in r.terms.values() for r in rows) else rows


class TestColumnTable:
    """A column's residue rows against the residues of the prefix, then
    ``differentiate_s`` chain, for orders 0-5, at stages below, at and past
    the term count."""

    _ORDERS = 6
    _FAMILIES = ["zeta", "geometric", "empty", "shifted", "beyond-p"]

    @staticmethod
    def _columns(family):
        """The family's columns and a screen over its basis.  ``shifted``
        puts damping factors e^(-h*lam) on entries; in ``beyond-p`` the
        negation of the exponent 1/p has no residue, so its entries are
        formed exactly, and some have no image at all."""
        if family == "zeta":
            basis, _, phi = _zeta(12)
        elif family in ("geometric", "shifted"):
            basis, phi = _geometric_family()
        elif family == "beyond-p":
            basis = SymbolBasis.unit(PREC)
            tiny, one, two = (Exponent.constant(q) for q in (Fraction(1, _MODULUS), 1, 2))
            phi = make_series([(tiny, _MODULUS), (one, 1), (two, 3)], basis, two)
        else:
            basis = SymbolBasis.from_pairs([("lam", "0.7")], precision=PREC)
            return [_Column(zero_series(basis, Exponent.of("lam", 3))),
                    _Column(zero_series(basis))], _Screen(basis)
        products = _shifted_products() if family == "shifted" else enumerate_products(3)
        memo = {}
        return [_Column(_evaluate(p, phi, memo)) for p in products], _Screen(basis)

    @staticmethod
    def _check(columns, screen, rng):
        # stages 1, 3, k + 4 and past the term count, asked for in a seeded
        # order and by growing counts
        stages = (1, _PROBE_TERMS, 3 + _ROW_MARGIN, 50)
        counts = (2, 4, TestColumnTable._ORDERS)
        requests = [(stage, count) for stage in stages for count in counts]
        rng.shuffle(requests)
        for col in columns:
            for stage, count in sorted(requests, key=lambda r: r[1]):
                got = col.screen_rows(stage, count, screen)
                want = _residue_rows(col.evaluated, stage, count, screen)
                if want is None:
                    assert got is None
                else:
                    assert [(r.terms, r.bound) for r in got] == \
                        [(r.terms, r.bound) for r in want]

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_rows_match_the_chain(self, family):
        columns, screen = self._columns(family)
        self._check(columns, screen, random.Random(1801))

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_screen_rows_match_fresh_residues(self, family):
        # a point set after the screen is made is the one every row reads
        columns, screen = self._columns(family)
        screen.point = {n: (7 * v + 3) % _MODULUS for n, v in screen.point.items()}
        self._check(columns, screen, random.Random(1802))

    def test_zeta_stage_one_cuts_at_positions(self):
        # n = 1 sits at exponent 0: its derivatives vanish, so at stage 1
        # the rows past order 0 hold no term but keep the finite bound
        columns, screen = self._columns("zeta")
        col = columns[0]
        assert col.evaluated.terms[0][0] is Exponent.zero()
        rows = col.screen_rows(1, self._ORDERS, screen)
        assert len(rows[0].terms) == 1
        for row in rows[1:]:
            assert not row.terms and row.bound is Exponent.zero()
        assert [len(r.terms) for r in col.screen_rows(3, 3, screen)] == [3, 2, 2]

    def test_rows_form_no_exact_entry(self, monkeypatch):
        # every negated exponent of zeta 1..20 has a residue: the rows, the
        # proofs and the determinants of the screen are made of residues
        # alone, with no derivative factor and no Coefficient product
        basis, _, phi = _zeta(20)
        memo = {}
        columns = [_Column(_evaluate(p, phi, memo)) for p in enumerate_products(4)]
        screen = _Screen(basis, columns)

        def refuse(*args):
            raise AssertionError("the screen formed an exact entry")

        monkeypatch.setattr(SymbolBasis, "derivative_factor", refuse)
        monkeypatch.setattr(Coefficient, "__mul__", refuse)
        monkeypatch.setattr(Coefficient, "scale", refuse)
        rng = random.Random(1803)
        hits = 0
        for _ in range(30):
            k = rng.randint(2, 6)
            cols = [columns[i] for i in sorted(rng.sample(range(len(columns)), k))]
            for stage in (_PROBE_TERMS, k + _ROW_MARGIN):
                wronskian._cannot_hit(cols, stage, screen)
                hits += bool(_wronskian_determinant(cols, stage, screen).hits())
        assert hits > 10

    @pytest.mark.parametrize("family", ["zeta", "geometric"])
    def test_one_residue_per_entry(self, family, monkeypatch):
        if family == "zeta":
            basis, vecs, phi = _zeta(20)
            horizon = vecs[12]
        else:
            basis, phi = _geometric_family()
            horizon = None
        calls = []
        residue = Coefficient.residue
        requests = []
        screen_rows = _Column.screen_rows
        full_rank_image = _Screen.full_rank_image
        image_entries = []

        def counted_residue(self, *args):
            calls.append(1)
            return residue(self, *args)

        def recorded(col, stage, count, screen):
            requests.append((col, stage, count))
            return screen_rows(col, stage, count, screen)

        def counted_image(screen, matrix):
            image_entries.append(sum(map(len, matrix)))
            return full_rank_image(screen, matrix)

        def refuse(*args):
            raise AssertionError("the search evaluated a coefficient numerically")

        monkeypatch.setattr(Coefficient, "residue", counted_residue)
        monkeypatch.setattr(Coefficient, "numeric", refuse)
        monkeypatch.setattr(_Column, "screen_rows", recorded)
        monkeypatch.setattr(_Screen, "full_rank_image", counted_image)
        search_ade(phi, 3, horizon)
        terms, negated, per_stage = set(), set(), set()
        for col, stage, count in requests:
            for order, row in enumerate(_chain_rows(col.evaluated, stage, count)):
                if order:
                    negated.update(e for e, _ in row.terms)
                else:
                    terms.update((id(col), e) for e, _ in row.terms)
                per_stage.update((id(col), stage, order, e) for e, _ in row.terms)
        # the term-matrix image maps each of its entries once; the rest are
        # one residue per term a column's order-0 rows hold, and one per
        # exponent whose negation the later rows read, over all columns
        assert len(calls) - sum(image_entries) == len(terms) + len(negated)
        # stages and orders share them: one residue per row entry would make
        # more
        assert len(per_stage) > len(terms) + len(negated)


class TestExactDecision:
    """On series known in full, the term matrix alone decides: a subset is
    Independent, with no witness, exactly when its exact Wronskian
    determinant over the differentiated chain is nonzero."""

    @staticmethod
    def _draw(rng, basis):
        # 1-3 terms at multiples of a plus one constant offset, int and
        # Fraction coefficients, one of them damped by exp(-a)
        n = rng.randint(1, 3)
        offset = rng.choice((0, 1, Fraction(1, 2)))
        damped = rng.randrange(n)
        spec = []
        for t, i in enumerate(rng.sample(range(1, 5), n)):
            c = Coefficient.from_fraction(rng.choice(
                (rng.choice((-2, -1, 1, 3)), Fraction(rng.choice((-3, 1, 3)), 2))))
            if t == damped:
                c = c * Coefficient.damping(Exponent.of("a"))
            spec.append((Exponent.make({"a": i}, offset), c))
        return make_series(spec, basis, None)

    def test_independent_exactly_when_the_wronskian_is_nonzero(self):
        basis = SymbolBasis.from_pairs([("a", "0.53")], precision=PREC)
        products = enumerate_products(3)
        rng = random.Random(8)
        kinds, sizes = set(), set()
        for _ in range(6):
            phi = self._draw(rng, basis)
            sizes.add(len(phi.terms))
            memo = {}
            columns = [_Column(_evaluate(p, phi, memo)) for p in products]
            screen, table = _Screen(basis, columns), {}
            for k in range(2, 5):
                for idx in itertools.combinations(range(len(products)), k):
                    cols = [columns[i] for i in idx]
                    verdict = _decide(cols, screen)
                    rows = [_chain_rows(col.evaluated, None, k) for col in cols]
                    wronskian = determinant([[r[i] for r in rows] for i in range(k)],
                                            table, cols)
                    if wronskian.is_zero:
                        assert isinstance(verdict, Dependent) and verdict.complete
                        combination = series_sum(basis, [
                            constant_series(basis, c) * col.evaluated
                            for c, col in zip(verdict.coefficients, cols)])
                        assert combination.is_zero
                    else:
                        assert verdict == Independent(None)
                    kinds.add(type(verdict).__name__)
        assert kinds == {"Independent", "Dependent"}
        assert sizes == {1, 2, 3}


def _shifted_products():
    """Weight-3 products and shifted ones: every entry of a column with a
    shift carries a damping factor e^(-h*lam) with integer h."""
    shifted = [parse_diffpoly(t) for t in ("f(s+1)", "f*f(s+1)", "f(s+2)", "f'*f(s+1)")]
    return enumerate_products(3) + shifted


class TestResidueScreen:
    """The screen's determinants against the exact Wronskian over the
    differentiated chain: each stored residue is the image of the exact
    coefficient at its exponent, every exact term up to the bound is
    stored, and so a hit, a nonzero residue, is a nonzero exact
    coefficient.  Seeded subsets and stages, damped entries included."""

    @pytest.mark.parametrize("family", ["zeta", "geometric", "shifted"])
    def test_determinants_are_images_of_the_exact_wronskian(self, family):
        if family == "zeta":
            basis, _, phi = _zeta(40)
            products = enumerate_products(4)
        else:
            basis, phi = _geometric_family()
            products = _shifted_products() if family == "shifted" else enumerate_products(4)
        memo = {}
        columns = [_Column(_evaluate(p, phi, memo)) for p in products]
        screen = _Screen(basis)
        rng = random.Random(1302)
        witnesses = damped = 0
        for _ in range(30):
            k = rng.randint(2, 4)
            cols = [columns[i] for i in sorted(rng.sample(range(len(columns)), k))]
            stage = rng.choice((_PROBE_TERMS, k + _ROW_MARGIN, rng.randint(1, 9)))
            det = _wronskian_determinant(cols, stage, screen)
            chains = [_chain_rows(col.evaluated, stage, k) for col in cols]
            exact = determinant([[chain[i] for chain in chains] for i in range(k)])
            coefficients = {e: p.constant() for e, p in exact.terms}
            damped += any(not damp.is_zero for c in coefficients.values()
                          for (_, damp), _ in c.terms)
            # a term that cancels stays stored, so the screen's least
            # exponents, and so its bounds, are never past the exact ones
            assert compare_bounds(basis, det.bound, exact.truncation) <= 0
            assert {e for e in coefficients
                    if compare_bounds(basis, e, det.bound) <= 0} <= set(det.terms)
            for e, v in det.terms.items():
                want = coefficients.get(e, Coefficient.zero()).residue(screen.point, _MODULUS)
                assert v == want
            hits = det.hits()
            assert all(coefficients[e] for e in hits)
            witnesses += bool(hits)
        assert witnesses > 10
        assert (damped > 5) == (family == "shifted")

    @pytest.mark.parametrize("precision", [128, 129, 24])
    def test_tiny_coefficients_hit(self, precision):
        # 10^-30 * i at exponent i: the Wronskian's coefficients are about
        # 10^-60, below 2^(-P/2) at any of these precisions, and nonzero
        # exact, and the verdict does not depend on the precision
        basis = SymbolBasis.unit(precision)
        phi = make_series([(Exponent.constant(i), Fraction(i, 10 ** 30)) for i in range(1, 9)],
                          basis, Exponent.constant(8))
        products = [parse_diffpoly("f"), parse_diffpoly("f^2")]
        assert wronskian_dependence(products, phi) == Independent(Exponent.constant(3))
        found = search_ade(phi, 2)
        assert isinstance(found, NotFoundWithinW)
        assert found.subsets_searched == 4
        assert found.skipped_underdetermined == found.skipped_inconclusive == ()

    def test_an_entry_with_no_image_leaves_the_subset_to_the_term_matrix(
            self, lam_basis, monkeypatch):
        # a damping factor e^(-lam/2) has no image: no screen determinant is
        # formed, and the full-rank term matrix leaves the subset
        # inconclusive, as after a vanished determinant
        phi = geometric_series(lam_basis, 12)
        products = [parse_diffpoly(t) for t in ("f(s+1/2)", "f")]
        calls = []
        monkeypatch.setattr(wronskian, "determinant",
                            lambda *args: calls.append(1) or determinant(*args))
        with pytest.raises(HorizonTooShort) as err:
            wronskian_dependence(products, phi)
        assert err.value.details == "determinant-vanished"
        assert str(err.value) == \
            "the screen had no image mod p but the term matrix has full column rank"
        assert not calls
        products[0] = parse_diffpoly("f(s+1)")
        assert isinstance(wronskian_dependence(products, phi), Independent)
        assert calls


def _proof_family(name):
    """The basis and columns of one family for the screen-proof oracle."""
    rng = random.Random(name)
    if name in ("zeta", "random"):
        basis, vecs = log_basis_for_indices(range(1, 31), PREC)
        coeff = (lambda n: 1) if name == "zeta" else (lambda n: rand_fraction(rng))
        phi = make_series([(vecs[n], coeff(n)) for n in range(1, 31)], basis, vecs[30])
        products = enumerate_products(4)
    elif name == "two-exponential":
        basis = SymbolBasis.from_pairs([("a", "0.53"), ("b", "1.37")], precision=PREC)
        a, b = Exponent.of("a"), Exponent.of("b")
        phi = make_series([(a, 1), (b, rand_fraction(rng) or 1)], basis, b * 4)
        products = enumerate_products(4)
    else:
        basis, phi = _geometric_family()
        products = _shifted_products() if name == "shifted" else enumerate_products(4)
    memo = {}
    return basis, [_Column(_evaluate(p, phi, memo)) for p in products]


class TestScreenProof:
    """``_cannot_hit``, the proof that a screen stage has no hit, against
    the expanded determinant: whenever it fires, the determinant stores no
    nonzero residue.  Seeded subsets at the probe and window stages, and
    planted columns where one side of each argument is needed."""

    @pytest.mark.parametrize("family", ["zeta", "geometric", "two-exponential",
                                        "random", "shifted"])
    def test_a_proof_is_never_followed_by_a_hit(self, family):
        basis, columns = _proof_family(family)
        screen = _Screen(basis, columns)
        rng = random.Random(family)
        fired = hit = 0
        for _ in range(40):
            k = rng.randint(2, 6)
            cols = [columns[i] for i in sorted(rng.sample(range(len(columns)), k))]
            for stage in (_PROBE_TERMS, k + _ROW_MARGIN):
                proved = wronskian._cannot_hit(cols, stage, screen)
                det = _wronskian_determinant(cols, stage, screen)
                hits = det.hits() if det is not None else []
                assert not (proved and hits), (family, k, stage)
                fired += proved
                hit += bool(hits)
        # neither side is vacuous: of the 80 stages, the proof settles at
        # least a quarter, and at least a quarter have a hit it had to leave
        assert fired >= 20 and hit >= 20, (fired, hit)

    @staticmethod
    def _columns(basis, *terms):
        """Columns of series given as {exponent: coefficient}, each cut at
        its last exponent."""
        return [_Column(make_series(list(t.items()), basis, max(t, key=basis.ordering_key)))
                for t in terms]

    @pytest.mark.parametrize("gap, proved", [(Fraction(1), True),
                                             (Fraction(1, 10 ** 12), False)])
    def test_valuation_is_decided_outside_the_margin(self, unit_basis, gap, proved):
        # the two least exponents sum to 2 + gap, and the expansion's bound
        # is at most 1 + 1, the last column's bound plus the first column's
        # least exponent: a gap inside the float margin gives no proof, and
        # the order-0 residues have full rank, so no other argument gives one
        one, two = Exponent.constant(1), Exponent.constant(1 + gap)
        cols = self._columns(unit_basis, {one: 1, two: 1}, {one: 1})
        screen = _Screen(unit_basis, cols)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionTieWarning)
            assert wronskian._cannot_hit(cols, _PROBE_TERMS, screen) is proved
        assert _wronskian_determinant(cols, _PROBE_TERMS, screen).hits() == []

    def test_one_column_takes_its_order_zero_row(self, unit_basis):
        # 1 + e^(-s) against 2 cut at 0: the two least exponents sum to 1,
        # and the expansion's bound is 0 + 0, through the first column's
        # order-0 row, which alone holds the exponent 0; through its order-1
        # row it would be 1.  The exact Wronskian, 2 e^(-s), lies past it.
        zero, one = Exponent.zero(), Exponent.constant(1)
        cols = self._columns(unit_basis, {zero: 1, one: 1}, {zero: 2})
        screen = _Screen(unit_basis, cols)
        assert wronskian._cannot_hit(cols, _PROBE_TERMS, screen)
        det = _wronskian_determinant(cols, _PROBE_TERMS, screen)
        assert det.bound == zero and det.hits() == []

    def test_rank_reads_the_order_zero_rows(self, unit_basis):
        # 1 + e^(-s) against 1 + 2 e^(-s): the order-1 rows are proportional,
        # the order-0 rows are not, and the Wronskian -e^(-s) hits
        zero, one = Exponent.zero(), Exponent.constant(1)
        cols = self._columns(unit_basis, {zero: 1, one: 1}, {zero: 1, one: 2})
        screen = _Screen(unit_basis, cols)
        assert not wronskian._cannot_hit(cols, _PROBE_TERMS, screen)
        assert _wronskian_determinant(cols, _PROBE_TERMS, screen).hits() == [one]

    def test_an_exponent_whose_negation_has_no_image_gives_no_proof(self, unit_basis):
        # p e^(-s/p): its order-0 residue is 0 and its order-1 entry, -1, is
        # not that times the residue of -1/p, which has none; the order-0
        # residues have rank 1, yet the determinant hits
        tiny, one = Exponent.constant(Fraction(1, _MODULUS)), Exponent.constant(1)
        cols = self._columns(unit_basis, {tiny: _MODULUS}, {one: 1})
        screen = _Screen(unit_basis, cols)
        assert Coefficient.from_exponent(-tiny).residue(screen.point, _MODULUS) is None
        assert not wronskian._cannot_hit(cols, _PROBE_TERMS, screen)
        assert _wronskian_determinant(cols, _PROBE_TERMS, screen).hits() == [tiny + one]

    def test_fewer_exponents_than_columns_is_a_proof(self, unit_basis):
        exps = [Exponent.constant(i) for i in (1, 2)]
        cols = self._columns(unit_basis, {exps[0]: 1, exps[1]: 3}, {exps[0]: 2},
                             {exps[1]: 5})
        screen = _Screen(unit_basis, cols)
        assert wronskian._cannot_hit(cols, _PROBE_TERMS, screen)
        assert _wronskian_determinant(cols, _PROBE_TERMS, screen).hits() == []

    def test_an_entry_with_no_image_gives_no_proof(self, lam_basis):
        phi = geometric_series(lam_basis, 12)
        cols = [_Column(_evaluate(parse_diffpoly(t), phi)) for t in ("f(s+1/2)", "f", "f^2")]
        assert not wronskian._cannot_hit(cols, _PROBE_TERMS, _Screen(lam_basis, cols))

    def test_zeta_weight_four_expands_few_determinants(self, monkeypatch):
        # the acceptance-6 search: 2662 screen determinants were expanded
        # before the proofs; the subset lists are unchanged
        basis, vecs, phi = _zeta(100)
        calls = []
        monkeypatch.setattr(wronskian, "determinant",
                            lambda *args: calls.append(1) or determinant(*args))
        result = derive_ade(phi, 4, horizon=vecs[6])
        assert len(calls) == 564
        assert not_found_digest(result) == \
            "23113f7364fa06feab8b26da2aa477a2a7c1aeacdd418fc37e6a2baf9308b646"


class TestBoundTest:
    """The screen's float-shadow bound test against ``compare``: exponents
    far from the bound, inside ``_apart``'s margin and inside the 2^-P tie
    window, kept by a sum and by a product, each exponent tested once per
    search."""

    @staticmethod
    def _exponents(precision, rng):
        # constants at offsets from the bound a = 3/2: far from it, and
        # inside the margin but more than the tie window 2^-P away
        margin = max(1.5e-9, 2.0 ** (1 - precision))
        offsets = [rng.uniform(-1, 1) for _ in range(6)]
        offsets += [rng.uniform(-2 * margin, 2 * margin) for _ in range(12)]
        return [Exponent.constant(Fraction(3, 2) + Fraction(d)) for d in offsets
                if abs(d) > 1.1 * 2.0 ** -precision]

    @staticmethod
    def _added(basis, exps, bound, screen=None):
        past = (screen or _Screen(basis)).past
        ones = _NumSeries({e: 1 for e in exps}, bound, basis, past)
        return list((ones + _NumSeries({}, bound, basis, past)).terms)

    @staticmethod
    def _multiplied(basis, exps, bound, screen=None):
        past = (screen or _Screen(basis)).past
        ones = _NumSeries({e: 1 for e in exps}, bound, basis, past)
        product = ones * _NumSeries({Exponent.zero(): 1}, bound, basis, past)
        assert product.bound == bound
        return list(product.terms)

    @pytest.mark.parametrize("precision", [20, 128])
    def test_kept_terms_match_compare(self, precision):
        basis = SymbolBasis.from_pairs([("a", "1.5")], precision=precision)
        bound = Exponent.of("a")
        exps = self._exponents(precision, random.Random(precision))
        fb = basis.ordering_key(bound)[0]
        near = [e for e in exps if not basis._apart(basis.ordering_key(e)[0], fb)]
        assert near and len(near) < len(exps)
        want = [e for e in exps if basis.compare(e, bound) <= 0]
        assert 0 < len(want) < len(exps)
        assert self._added(basis, exps, bound) == want
        assert self._multiplied(basis, exps, bound) == want

    @pytest.mark.parametrize("precision", [20, 128])
    def test_tie_in_the_window_warns_once(self, precision):
        basis = SymbolBasis.from_pairs([("a", "1.5")], precision=precision)
        bound = Exponent.of("a")
        tie = Exponent.constant(Fraction(3, 2) + Fraction(1, 2 ** (precision + 4)))
        exps = self._exponents(precision, random.Random(precision)) + [tie]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionTieWarning)
            want = [e for e in exps if basis.compare(e, bound) <= 0]
        for kept in (self._added, self._multiplied):
            with pytest.warns(PrecisionTieWarning) as record:
                assert kept(basis, exps, bound) == want
            assert len(record) == 1
        # one search tests each exponent against a bound once: its sums and
        # products warn once in all
        screen = _Screen(basis)
        with pytest.warns(PrecisionTieWarning) as record:
            for kept in (self._added, self._multiplied, self._added):
                assert kept(basis, exps, bound, screen) == want
        assert len(record) == 1


def _triage_family(name):
    """The basis, series, products and horizons of one family for the
    triage oracles: a zeta prefix and one with seeded coefficients over
    log 1..30, two exponentials, and a geometric series with plain or with
    shifted products; the horizon None keeps the series' own bound."""
    rng = random.Random(name)
    if name in ("zeta", "random"):
        basis, vecs = log_basis_for_indices(range(1, 31), PREC)
        coeff = (lambda n: 1) if name == "zeta" else (lambda n: rand_fraction(rng) or 1)
        phi = make_series([(vecs[n], coeff(n)) for n in range(1, 31)], basis, vecs[30])
        return basis, phi, enumerate_products(4), (vecs[3], vecs[4], vecs[6], vecs[9])
    if name == "two-exponential":
        basis = SymbolBasis.from_pairs([("a", "0.53"), ("b", "1.37")], precision=PREC)
        a, b = Exponent.of("a"), Exponent.of("b")
        phi = make_series([(a, 1), (b, rand_fraction(rng) or 1)], basis, b * 4)
        return basis, phi, enumerate_products(4), (a * 2, b * 2, None)
    basis, phi = _geometric_family()
    lam = Exponent.of("lam")
    products = _shifted_products() if name == "shifted" else enumerate_products(4)
    return basis, phi, products, (lam * 3, lam * 5, lam * 8, None)


class TestTriage:
    """The search's exponent index against the per-subset work it replaces:
    a subset's exponents up to its common bound, read from its masks,
    against those ``compare`` keeps; a subset counted out against
    ``_decide``'s refusal; and a search that counts subsets out against one
    that sends every subset to ``_decide``."""

    @pytest.mark.parametrize("family", ["zeta", "random", "geometric", "two-exponential",
                                        "shifted"])
    def test_masks_keep_what_compare_keeps(self, family):
        basis, phi, products, horizons = _triage_family(family)
        rng = random.Random(family)
        counted = reached = 0
        for horizon in horizons:
            columns = wronskian._columns(products, _working_series(phi, horizon), {})
            with warnings.catch_warnings():
                warnings.simplefilter("error", PrecisionTieWarning)
                screen = _Screen(basis, columns)
            for _ in range(40):
                k = rng.randint(2, 6)
                idx = sorted(rng.sample(range(len(columns)), k))
                cols = [columns[i] for i in idx]
                common = None
                for col in cols:
                    common = meet_bounds(basis, common, col.evaluated.truncation)
                want = sorted({e for col in cols for e, _ in col.evaluated.terms
                               if common is None or basis.compare(e, common) <= 0},
                              key=basis.ordering_key)
                mask, cut = 0, -1
                for col in cols:
                    mask, cut = mask | col.mask, cut & col.cut
                assert screen.lowest(mask & cut) == want
                assert (cut == -1) == (common is None)
                out = screen.counted_out(idx)
                assert out == (common is not None and len(want) < k)
                try:
                    _decide(cols, screen)
                    refused = False
                except HorizonTooShort as exc:
                    refused = "cannot be tested" in str(exc)
                    assert exc.details == "underdetermined" or not refused
                assert refused == out
                counted += out
                reached += not out
        assert counted and reached

    @pytest.mark.parametrize("family, max_weight", [
        ("zeta", 4), ("random", 3), ("geometric", 3), ("two-exponential", 3)])
    def test_counted_out_subsets_never_reach_decide(self, family, max_weight, monkeypatch):
        # each search runs twice, once with no subset counted out, as
        # every subset went to _decide before the index: the results are
        # equal, the subsets counted out are exactly the ones the first run
        # missed, and each of them was refused there as underdetermined
        basis, phi, _, horizons = _triage_family(family)
        decide, make_columns = wronskian._decide, wronskian._columns
        runs = []

        def columns(*args):
            runs[-1]["columns"] = make_columns(*args)
            return runs[-1]["columns"]

        def recorded(cols, screen):
            run = runs[-1]
            idx = tuple(next(i for i, c in enumerate(run["columns"]) if c is col)
                        for col in cols)
            try:
                verdict = decide(cols, screen)
            except HorizonTooShort as exc:
                run["calls"].append((idx, exc.details))
                raise
            run["calls"].append((idx, None))
            return verdict

        monkeypatch.setattr(wronskian, "_columns", columns)
        monkeypatch.setattr(wronskian, "_decide", recorded)
        total = 0
        for horizon in horizons:
            results = []
            for count_out in (False, True):
                runs.append({"calls": []})
                with monkeypatch.context() as m:
                    if not count_out:
                        m.setattr(_Screen, "counted_out", lambda self, idx: False)
                    try:
                        results.append(search_ade(phi, max_weight, horizon))
                    except HorizonTooShort as exc:
                        results.append(exc.details)
            every, triaged = runs[-2]["calls"], runs[-1]["calls"]
            assert results[0] == results[1]
            reached = {idx for idx, _ in triaged}
            assert [call for call in every if call[0] in reached] == triaged
            counted = [why for idx, why in every if idx not in reached]
            assert set(counted) <= {"underdetermined"}
            total += len(counted)
        assert total

    @pytest.mark.parametrize("precision", [20, 128])
    def test_a_tie_with_a_column_bound_warns(self, precision):
        # the second column's exponent 3/2 + 2^-(P+4) is within 2^-P of the
        # first column's bound a = 3/2: indexing the two warns, as compare
        # did on the exponents of the pair up to their common bound
        basis = SymbolBasis.from_pairs([("a", "1.5")], precision=precision)
        bound = Exponent.of("a")
        tie = Exponent.constant(Fraction(3, 2) + Fraction(1, 2 ** (precision + 4)))
        one, two = Exponent.constant(1), Exponent.constant(2)
        cols = [_Column(make_series([(one, 1)], basis, bound)),
                _Column(make_series([(one, 2), (tie, 1)], basis, two))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionTieWarning)
            want = [e for e in (one, tie) if basis.compare(e, bound) <= 0]
        with pytest.warns(PrecisionTieWarning, match=r"vs \(a\)") as record:
            screen = _Screen(basis, cols)
        assert len(record) == 1
        assert screen.lowest((cols[0].mask | cols[1].mask) & cols[0].cut) == want


def _symbolic_entry(rng, damped=0.05):
    """A random polynomial of degree at most 1 in lam and L2, with
    probability ``damped`` times a damping factor: e^(-lam) or
    e^(-(2*L2 - lam - 1)), which have an image mod p, or e^(-lam/2), which
    has none."""
    c = Coefficient.from_fraction(rand_fraction(rng))
    for name in ("lam", "L2"):
        c = c + Coefficient.from_symbol(name).scale(rand_fraction(rng))
    if rng.random() < damped:
        c = c * Coefficient.damping(rng.choice(_DAMPINGS))
    return c


_DAMPINGS = (Exponent.of("lam"), Exponent.make({"L2": 2, "lam": -1}, -1),
             Exponent.of("lam", Fraction(1, 2)))


class TestModularImage:
    """The image of a term matrix mod p against exact elimination: only a
    full-rank image is taken as an answer."""

    @pytest.fixture()
    def screen(self):
        return _Screen(SymbolBasis.from_pairs([("lam", "0.7"), ("L2", "0.69")], precision=PREC))

    def test_point_comes_from_the_symbol_names(self, screen):
        again = _Screen(SymbolBasis.from_pairs([("L2", "5"), ("lam", "0.1")], precision=PREC))
        assert again.point == screen.point
        keys = {"lam", "L2", damping_key("lam"), damping_key("L2"), damping_key(ONE)}
        assert set(screen.point) == keys
        assert len(set(screen.point.values())) == len(keys)
        assert all(0 < v < _MODULUS for v in screen.point.values())

    def test_residue_is_a_ring_map(self, screen):
        # sums and products of entries with integer damping coordinates,
        # negative ones included, map to sums and products of the images
        rng = random.Random(14)
        point, p = screen.point, _MODULUS
        imaged = 0
        for _ in range(200):
            a, b = _symbolic_entry(rng, 0.7), _symbolic_entry(rng, 0.7)
            ra, rb = a.residue(point, p), b.residue(point, p)
            if ra is None or rb is None:
                continue
            imaged += 1
            assert (a + b).residue(point, p) == (ra + rb) % p
            assert (a * b).residue(point, p) == ra * rb % p
        assert imaged > 50
        # e^(-(2*L2 - lam - 1)) maps to t_L2^2 / (t_lam * t_1)
        t = {n: point[damping_key(n)] for n in ("lam", "L2", ONE)}
        want = t["L2"] ** 2 * pow(t["lam"] * t[ONE], -1, p) % p
        assert Coefficient.damping(_DAMPINGS[1]).residue(point, p) == want
        assert (Coefficient.damping(_DAMPINGS[0]) * Coefficient.damping(-_DAMPINGS[0])
                ).residue(point, p) == 1

    def test_full_rank_image_means_no_kernel_vector(self, screen):
        rng = random.Random(11)
        full = 0
        for _ in range(80):
            rows, cols = rng.randint(1, 5), rng.randint(1, 3)
            rank = rng.randint(0, min(rows, cols))
            matrix = planted_rank_matrix(rng, rows, cols, rank, _symbolic_entry,
                                         Coefficient.zero())
            if screen.full_rank_image(matrix):
                full += 1
                assert ring_nullspace_vector(matrix) is None
        assert full > 10

    def test_full_rank_damped_image_means_no_kernel_vector(self, screen):
        # every matrix holds damped entries; rank is planted, so both full
        # and deficient images occur
        rng = random.Random(15)
        full = damped_rows = 0
        for _ in range(60):
            rows, cols = rng.randint(2, 5), rng.randint(1, 3)
            rank = rng.randint(1, min(rows, cols))
            matrix = planted_rank_matrix(rng, rows, cols, rank,
                                         lambda r: _symbolic_entry(r, 0.5),
                                         Coefficient.zero())
            damped_rows += sum(
                any(not damp.is_zero for entry in row for (_, damp), _ in entry.terms)
                and None not in [entry.residue(screen.point, _MODULUS) for entry in row]
                for row in matrix)
            if screen.full_rank_image(matrix):
                full += 1
                assert ring_nullspace_vector(matrix) is None
        assert full > 10
        assert damped_rows > 50

    def test_planted_relation_gives_a_deficient_image(self, screen):
        rng = random.Random(12)
        for _ in range(40):
            rows, cols = rng.randint(3, 7), rng.randint(2, 4)
            matrix = [[_symbolic_entry(rng) for _ in range(cols - 1)] for _ in range(rows)]
            weights = [_symbolic_entry(rng) for _ in range(cols - 1)]
            for row in matrix:
                row.append(sum((a * w for a, w in zip(row, weights)), Coefficient.zero()))
            assert not screen.full_rank_image(matrix)

    def test_entries_without_an_image_leave_their_row_out(self, screen):
        one = Coefficient.one()
        damped = Coefficient.damping(Exponent.of("lam", Fraction(1, 2)))
        beyond_p = Coefficient.from_fraction(Fraction(1, _MODULUS))
        assert damped.residue(screen.point, _MODULUS) is None
        assert beyond_p.residue(screen.point, _MODULUS) is None
        assert Coefficient.damping(Exponent.of("mu")).residue(screen.point, _MODULUS) is None
        assert Coefficient.from_symbol("mu").residue(screen.point, _MODULUS) is None
        rows = [[one, Coefficient.zero()], [Coefficient.zero(), one]]
        assert screen.full_rank_image(rows + [[damped, beyond_p]])
        assert not screen.full_rank_image([rows[0], [damped, one]])
        assert _relation([rows[0], [damped, one]], screen) is None

    def test_unlucky_point_leaves_the_verdict(self, screen, monkeypatch):
        # lam - 1 is the only 2 x 2 minor: at lam = 1 the image is deficient,
        # and the exact elimination still finds full rank
        one, lam = Coefficient.one(), Coefficient.from_symbol("lam")
        matrix = [[one, one], [one, lam], [one, lam * lam]]
        assert screen.full_rank_image(matrix)
        monkeypatch.setitem(screen.point, "lam", 1)
        assert not screen.full_rank_image(matrix)
        assert _relation(matrix, screen) is None

    def test_unlucky_point_costs_verdicts_not_soundness(self, monkeypatch):
        # at the point 0 every derivative of zeta 1..20 maps to 0: the
        # screen has no hit, and the term-matrix images of all but the four
        # subsets of f, f^2 and f^3 are deficient, so those subsets go to
        # the exact elimination, which finds full rank; no subset is
        # decided, and the search says so rather than guess
        basis, vecs, phi = _zeta(20)
        want = derive_ade(phi, 3, horizon=vecs[10])
        assert want.subsets_searched == 57 and len(want.skipped_inconclusive) == 7
        init = _Screen.__init__

        def at_zero(self, basis, columns=()):
            init(self, basis, columns)
            self.point = dict.fromkeys(self.point, 0)

        calls = []
        monkeypatch.setattr(_Screen, "__init__", at_zero)
        monkeypatch.setattr(wronskian, "ring_nullspace_vector",
                            lambda m: calls.append(m) or ring_nullspace_vector(m))
        with pytest.raises(HorizonTooShort) as err:
            derive_ade(phi, 3, horizon=vecs[10])
        assert err.value.details == "all-subsets-unresolved"
        assert len(calls) == 57 - 4

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_full_rank_window_needs_no_elimination(self, seed, monkeypatch):
        # (k + 4) x k leading windows of 8 weight-4 products on a 40-term
        # series over log 1..40: cross-multiplication elimination doubles
        # the entries' degree at every step, the image decides alone
        basis, vecs = log_basis_for_indices(range(1, 41), PREC)
        rng = random.Random(seed)
        phi = make_series([(vecs[n], rng.choice((1, -1, 2))) for n in range(1, 41)],
                          basis, vecs[40])
        products = enumerate_products(4)
        columns = [_Column(_evaluate(products[i], phi)) for i in sorted(rng.sample(range(11), 8))]
        exponents = sorted({e for col in columns for e in col.coefficients},
                           key=basis.ordering_key)
        matrix = [[col.coefficients.get(e, Coefficient.zero()) for col in columns]
                  for e in exponents[:8 + _ROW_MARGIN]]

        def refuse(m):
            raise AssertionError("the image should have decided")

        monkeypatch.setattr(wronskian, "ring_nullspace_vector", refuse)
        assert _relation(matrix, _Screen(basis)) is None

    def test_columns_floats_cannot_tell_apart(self, screen, monkeypatch):
        # the second column is the first plus 10^-9 times another: full rank,
        # decided by the image with no exact elimination
        rng = random.Random(13)
        rows = []
        for _ in range(6):
            a, b, c = (Fraction(rng.randint(-9, 9)) for _ in range(3))
            rows.append([a, a + Fraction(b, 10 ** 9), c])
        matrix = [[Coefficient.from_fraction(v) for v in row] for row in rows]
        assert ring_nullspace_vector(matrix) is None

        def refuse(m):
            raise AssertionError("the image should have decided")

        monkeypatch.setattr(wronskian, "ring_nullspace_vector", refuse)
        assert _relation(matrix, screen) is None


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
