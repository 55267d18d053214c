"""Seeded inputs, jobs and oracles for the three dforge benchmark workloads.

A workload is a fixed list of job slots drawn from the seed.  Generation
writes the program's inputs (corpus text files and series specification
JSON) plus a ``jobs.json`` manifest into a work directory; a job reads its
input back through ``dforge.io`` and calls the library functions the
matching CLI command dispatches to.  Oracles are independent of the code
under test: prime counts by the benchmark's own trial division, subset
counts by partition counting, planted relations and planted polynomial
solutions, exact threshold comparisons redone with mpmath.

Job code calls dforge through module attributes (``lattice.integer_basis``,
never a name imported from it) so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath

WORKLOADS = ("corpus", "search", "residual")
PRECISION = 128
RANK_BOUNDS = (4, 6, 8, 10, 12, 14)


# ---------------------------------------------------------------------------
# Small exact helpers shared by generators and oracles
# ---------------------------------------------------------------------------

def frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def factor(n: int) -> dict[int, int]:
    """Trial-division factorization (the benchmark's own, not dforge's)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def distinct_primes(indices) -> list[int]:
    primes: set[int] = set()
    for n in indices:
        primes.update(factor(n))
    return sorted(primes)


def exponent_rank(indices) -> int:
    """Rank over Q of the prime-exponent vectors of the indices.

    The benchmark's own elimination, sharing no code with dforge.linalg.  It
    equals the number of distinct primes only when the stream pins every
    prime down, as zeta prefixes do; [6, 35] has four primes and rank 2.
    """
    primes = distinct_primes(indices)
    rows = [[Fraction(factor(n).get(p, 0)) for p in primes] for n in indices]
    rank = 0
    for col in range(len(primes)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def partition_count(w: int) -> int:
    """Number of integer partitions of w (power products of weight w)."""
    table = [1] + [0] * w
    for part in range(1, w + 1):
        for total in range(part, w + 1):
            table[total] += table[total - part]
    return table[w]


def expected_subsets(max_weight: int) -> int:
    """sum_{k>=2} C(P, k) with P the number of products of weight <= max_weight."""
    p = sum(partition_count(w) for w in range(1, max_weight + 1))
    return 2 ** p - 1 - p


def _log_exponent(n: int) -> dict[str, str]:
    return {f"L{p}": str(k) for p, k in sorted(factor(n).items())}


def _log_symbols(indices) -> list[tuple[str, str]]:
    with mpmath.workdps(60):
        return [(f"L{p}", mpmath.nstr(mpmath.log(p), 50))
                for p in distinct_primes(indices)]


def _random_decimal(rng: random.Random, lo: int, hi: int, digits: int = 24) -> str:
    scale = 10 ** digits
    whole = rng.randrange(lo * scale, hi * scale)
    return f"{whole // scale}.{whole % scale:0{digits}d}"


def _random_rational(rng: random.Random, top: int = 9) -> Fraction:
    q = Fraction(rng.randint(1, top), rng.randint(1, top))
    return q if rng.random() < 0.5 else -q


def _signed(q: Fraction, body: str) -> str:
    """One ' + q*body' chunk of equation text."""
    sign = "-" if q < 0 else "+"
    q = abs(q)
    if not body:
        return f" {sign} {frac_text(q)}"
    return f" {sign} {body}" if q == 1 else f" {sign} {frac_text(q)}*{body}"


def _series_obj(symbols, terms, truncation) -> dict:
    return {
        "basis": {
            "symbols": [{"name": n, "value_decimal_string": v} for n, v in symbols],
            "precision_bits": PRECISION,
            "independence_assumed": True,
        },
        "terms": [{"exponent": e, "coeff": c} for e, c in terms],
        "truncation": truncation,
    }


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _ladder(start: int, step: int, count: int = 10) -> range:
    """Job sizes: the same for every seed, so the seed changes content, not cost."""
    return range(start, start + step * count, step)


# ---------------------------------------------------------------------------
# Input families
# ---------------------------------------------------------------------------

# Ratios of the geometric families, cycled by slot: the size of the
# coefficients (and so the cost) depends on r, the seed draws lam and a.
RATIOS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 2),
          Fraction(3, 2), Fraction(2, 3))


def _geometric(rng: random.Random, n_terms: int, r: Fraction):
    """a * sum r^(n-1) e^(-n*lam*s): solves f' + lam*f + (r/a)*lam*f^2 = 0."""
    lam = _random_decimal(rng, 0, 2)
    while float(lam) < 0.2:
        lam = _random_decimal(rng, 0, 2)
    a = rng.choice((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(3)))
    coeffs = [a * r ** (n - 1) for n in range(1, n_terms + 1)]
    equation = "f' + lam*f" + _signed(r / a, "lam*f^2")
    return lam, coeffs, equation


def _geometric_obj(lam: str, coeffs) -> dict:
    n_terms = len(coeffs)
    return _series_obj([("lam", lam)],
                       [({"lam": str(n)}, frac_text(c)) for n, c in enumerate(coeffs, 1)],
                       {"lam": str(n_terms)})


# Coefficient pairs of the two-exponential families, cycled by slot: the
# search's exact nullspace works on them, so they set its cost; the seed
# draws the generator values.
PAIRS = ((1, 1), (2, -1), (1, 2), (-3, 1), (1, -1), (3, 2), (-1, 2), (2, 3), (1, 3), (-2, 1))


def _two_generator(rng: random.Random, c1: int, c2: int):
    """c1 e^(-a s) + c2 e^(-b s), known in full: solves ab*f + (a+b)*f' + f'' = 0."""
    va = _random_decimal(rng, 0, 1)
    vb = _random_decimal(rng, 1, 3)
    while float(va) < 0.2:
        va = _random_decimal(rng, 0, 1)
    obj = _series_obj([("a", va), ("b", vb)],
                      [({"a": "1"}, str(c1)), ({"b": "1"}, str(c2))], None)
    return obj, "a*b*f + a*f' + b*f' + f''"


def _dirichlet_obj(n_terms: int, coeffs=None) -> dict:
    indices = range(1, n_terms + 1)
    terms = [(_log_exponent(n), "1" if coeffs is None else frac_text(coeffs[n - 1]))
             for n in indices]
    return _series_obj(_log_symbols(indices), terms, _log_exponent(n_terms))


def _sample_with_prime_count(rng: random.Random, pool: list, k: int) -> list[int]:
    """k indices from pool, redrawn until they have as many distinct primes as
    a fixed reference draw: rank sets the cost of a scan, so every seed gets
    the same rank at the same size while the indices themselves differ."""
    target = len(distinct_primes(random.Random(f"reference:{pool[-1]}:{k}").sample(pool, k)))
    while True:
        picked = sorted(rng.sample(pool, k))
        if len(distinct_primes(picked)) == target:
            return picked


def _corpus_streams(rng: random.Random) -> list[tuple[str, list[str]]]:
    """(family, corpus lines) for the four index-stream families."""
    streams = []
    for n in _ladder(16, 5):
        streams.append(("zeta", [str(i) for i in range(1, n + 1)]))
    for k in _ladder(10, 3):
        picked = _sample_with_prime_count(rng, list(range(1, 3 * k)), k)
        lines = [f"{i} {frac_text(_random_rational(rng))}" for i in picked]
        # a few zero coefficients: the pipeline drops those indices
        for _ in range(3):
            lines.insert(rng.randrange(len(lines) + 1), f"{rng.randint(1, 3 * k)} 0")
        streams.append(("random", lines))
    for k in _ladder(10, 3):
        pool = [i for i in range(2, 3 * k) if all(e == 1 for e in factor(i).values())]
        picked = _sample_with_prime_count(rng, pool, k)
        streams.append(("squarefree", [str(i) for i in picked]))
    for i, k in enumerate(_ladder(14, 4)):
        primes = rng.sample((2, 3, 5, 7, 11, 13, 17, 19, 23), 2 + i % 4)
        top = max(4, math.ceil((2 * k) ** (1 / len(primes))))
        found: set[int] = set()
        while len(found) < k:
            n = 1
            for p in primes:
                n *= p ** rng.randint(0, top)
            found.add(n)
        streams.append(("smooth", [str(i) for i in sorted(found)]))
    return streams


def generate(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's inputs under ``workdir``; return the job slots."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"dforge-bench:{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    slots: list[dict] = []

    def add(spec: dict, obj=None, lines=None) -> None:
        slot = len(slots)
        if obj is not None:
            spec["input"] = f"{slot:02d}_{spec['family']}.series.json"
            _write_json(workdir / spec["input"], obj)
        if lines is not None:
            spec["input"] = f"{slot:02d}_{spec['family']}.txt"
            (workdir / spec["input"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
        slots.append(spec)

    if workload == "corpus":
        for family, lines in _corpus_streams(rng):
            add({"job": "corpus", "family": family, "rank_bound": rng.choice(RANK_BOUNDS),
                 "ratio_threshold": "100"}, lines=lines)

    elif workload == "search":
        # zeta prefixes: weight 4 at horizon log 3 (all 2036 subsets of the
        # acceptance-6 search) and weight 3 at horizons log 3 to log 5; weight 4
        # at log 4 (3.3 s) would leave too few repeats per run
        for weight, h in [(4, 3)] * 2 + [(3, 5)] * 3 + [(3, 4)] * 3 + [(3, 3)] * 2:
            add({"job": "search", "family": "zeta", "max_weight": weight,
                 "horizon": _log_exponent(h)}, obj=_dirichlet_obj(rng.randint(h + 2, 40)))
        # 31 found relations: with ten rechecks above the tail, more than 21 keep
        # the tail off the median, and an odd count puts the median on one job
        for i, n in enumerate(_ladder(10, 1, 16)):
            lam, coeffs, equation = _geometric(rng, n, RATIOS[i % len(RATIOS)])
            add({"job": "search", "family": "geometric", "max_weight": 3, "horizon": None,
                 "expected": equation}, obj=_geometric_obj(lam, coeffs))
        for i in range(15):
            obj, equation = _two_generator(rng, *PAIRS[i % len(PAIRS)])
            add({"job": "search", "family": "twogen", "max_weight": 3, "horizon": None,
                 "expected": equation}, obj=obj)
        # most random series at log 3 put the median job inside the dense
        # cluster near the two-exponential jobs rather than at its edge
        for h in (3, 3, 3, 3, 3, 3, 3, 4, 4):
            n = rng.randint(h + 2, 30)
            coeffs = [_random_rational(rng) for _ in range(n)]
            add({"job": "search", "family": "random", "max_weight": 3,
                 "horizon": _log_exponent(h)}, obj=_dirichlet_obj(n, coeffs))

    else:
        for i, n in enumerate(_ladder(10, 4, 8)):
            lam, coeffs, equation = _geometric(rng, n, RATIOS[i % len(RATIOS)])
            add({"job": "satisfy", "family": "satisfy", "equation": equation, "lam": lam},
                obj=_geometric_obj(lam, coeffs))
        for i, n in enumerate(_ladder(10, 4, 8)):
            lam, coeffs, equation = _geometric(rng, n, RATIOS[i % len(RATIOS)])
            j = rng.randint(2, n - 1)
            coeffs[j - 1] += rng.choice((1, -1, Fraction(1, 2)))
            if coeffs[j - 1] == 0:
                coeffs[j - 1] = Fraction(7)
            add({"job": "perturbed", "family": "perturbed", "equation": equation,
                 "perturbed_exponent": {"lam": str(j)}},
                obj=_geometric_obj(lam, coeffs))
        for i in range(8):
            add({"job": "hilbert", "family": "hilbert", "n": 20 + 8 * i,
                 "max_mu": 1 + i % 2, "max_nu": 1 + (i // 2) % 2, "max_ds": 1})
        for i in range(8):
            if i % 2:
                obj, equation = _two_generator(rng, *PAIRS[i])
                rank, indeterminates = 2, 3
            else:
                lam, coeffs, equation = _geometric(rng, 8 + 3 * i, RATIOS[i % len(RATIOS)])
                obj, rank, indeterminates = _geometric_obj(lam, coeffs), 1, 2
            scalars = [frac_text(_random_rational(rng)) for _ in range(rank)]
            add({"job": "rescale", "family": "rescale", "equation": equation,
                 "scalars": scalars, "indeterminates": indeterminates}, obj=obj)
        for degree in (2, 3, 4, 5, 2, 3, 4, 5):
            add(_elimination_spec(rng, degree))

    _write_json(workdir / "jobs.json", slots)
    return slots


def _elimination_spec(rng: random.Random, degree: int) -> dict:
    """F = alpha*(f - p(x)) + beta*(f' - p'(x)) with a planted solution f = p."""
    p = [Fraction(rng.randint(-4, 4)) for _ in range(degree)]
    p.append(Fraction(rng.choice((1, 2, 3, -1, -2))))
    alpha = Fraction(rng.choice((1, 2, 3, -1, -2)))
    beta = Fraction(rng.choice((1, 2, -1, 1, 2)))
    q = [alpha * p[i] + beta * (i + 1) * (p[i + 1] if i + 1 <= degree else 0)
         for i in range(degree + 1)]
    text = f"{frac_text(alpha)}*f" + _signed(beta, "f'")
    for i, c in enumerate(q):
        if c:
            text += _signed(-c, "" if i == 0 else ("x" if i == 1 else f"x^{i}"))
    return {"job": "eliminate", "family": "eliminate", "equation": text,
            "solution": [frac_text(c) for c in p]}


# ---------------------------------------------------------------------------
# Jobs: load (through dforge.io), verdict (the CLI's work), oracle check
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What a job produced: output texts, certificate JSON texts, its basis."""

    outputs: list = field(default_factory=list)
    certificates: list = field(default_factory=list)
    basis: object = None
    facts: dict = field(default_factory=dict)


class Jobs:
    """Job runner bound to an imported dforge package and a work directory."""

    def __init__(self, dforge_modules: dict, workdir: Path):
        self.m = dforge_modules
        self.workdir = workdir

    # -- load -------------------------------------------------------------

    def load(self, spec: dict):
        io = self.m["io"]
        path = spec.get("input")
        if path is None:
            return None
        if path.endswith(".txt"):
            return io.read_corpus(self.workdir / path)
        return io.load_series(self.workdir / path)

    # -- verdict ----------------------------------------------------------

    def verdict(self, spec: dict, loaded) -> Outcome:
        return getattr(self, "_" + spec["job"])(spec, loaded)

    def _corpus(self, spec, corpus) -> Outcome:
        lattice, ob, io = self.m["lattice"], self.m["obstruction"], self.m["io"]
        # analyze --corpus
        indices = [n for n, a in corpus if a != 0]
        support = lattice.prime_support(indices)
        basis, exponents = lattice.log_basis_for_indices(indices, PRECISION)
        stream = [exponents[n] for n in indices]
        certs = [ob.finite_basis_certificate(stream, spec["rank_bound"], basis),
                 ob.gap_certificate(stream, io.parse_frac(spec["ratio_threshold"]), basis)]
        # basis --corpus: a separate invocation with its own basis
        basis2, exponents2 = lattice.log_basis_for_indices(indices, PRECISION)
        stream2 = [exponents2[n] for n in indices]
        B = lattice.integer_basis(stream2, basis2)
        express = [lattice.express(e, B) for e in stream2]
        basis_out = io.canonical_json({
            "rank": B.rank,
            "generators": [io.exponent_to_obj(g) for g in B.generators],
            "change_of_basis": [list(r) for r in B.change_of_basis],
            "input_subset": None if B.input_subset is None else list(B.input_subset),
        })
        return Outcome([basis_out], [c.to_json() for c in certs], basis,
                       {"indices": indices, "primes": list(support.primes),
                        "final_rank": certs[0].evidence["final_rank"],
                        "outcome": certs[0].evidence["outcome"], "lattice": B,
                        "express": express})

    def _search(self, spec, phi) -> Outcome:
        wr, ob, io, grammar = (self.m["wronskian"], self.m["obstruction"],
                               self.m["io"], self.m["grammar"])
        horizon = None if spec["horizon"] is None else io.obj_to_exponent(spec["horizon"])
        found = wr.derive_ade(phi, spec["max_weight"], horizon)
        if isinstance(found, wr.NotFoundWithinW):
            summary = io.canonical_json({
                "found": None,
                "max_weight": found.max_weight,
                "subsets_searched": found.subsets_searched,
                "candidates_refuted": list(found.candidates_refuted),
                "skipped_underdetermined": list(found.skipped_underdetermined),
                "skipped_inconclusive": list(found.skipped_inconclusive),
            })
            return Outcome([summary], [], phi.basis, {"not_found": found})
        cert = ob.substitution_certificate(found, phi, horizon)
        return Outcome([grammar.pretty(found)], [cert.to_json()], phi.basis, {"found": found})

    def _satisfy(self, spec, phi) -> Outcome:
        fe, ob, grammar = self.m["formal_eval"], self.m["obstruction"], self.m["grammar"]
        F = grammar.parse_diffpoly(spec["equation"], phi.basis)
        residual = fe.substitute(F, phi)
        report = fe.forcing_threshold(F, phi) if residual.is_zero else None
        cert = ob.substitution_certificate(F, phi, None, report)
        return Outcome([residual.describe()], [cert.to_json()], phi.basis,
                       {"zero": residual.is_zero, "report": report, "phi": phi})

    _perturbed = _satisfy

    def _hilbert(self, spec, _) -> Outcome:
        cert = self.m["transforms"].verify_hilbert_zeta(
            spec["n"], spec["max_nu"], spec["max_mu"], ds_max=spec["max_ds"],
            precision=PRECISION)
        return Outcome([], [cert.to_json()], None, {})

    def _rescale(self, spec, phi) -> Outcome:
        lattice, tf, grammar, io = (self.m["lattice"], self.m["transforms"],
                                    self.m["grammar"], self.m["io"])
        F = grammar.parse_diffpoly(spec["equation"], phi.basis)
        B = lattice.integer_basis([e for e, _ in phi.terms], phi.basis)
        scalars = [io.parse_frac(s) for s in spec["scalars"]]
        cert = tf.verify_rescale_invariance(F, phi, B, scalars, None)
        return Outcome([], [cert.to_json()], phi.basis, {})

    def _eliminate(self, spec, _) -> Outcome:
        dp, grammar = self.m["diffpoly"], self.m["grammar"]
        F = grammar.parse_diffpoly(spec["equation"])
        result = dp.eliminate_x(F)
        return Outcome([grammar.pretty(result)], [], None, {"F": F, "result": result})

    # -- oracles ----------------------------------------------------------

    def check(self, spec: dict, out: Outcome) -> list[str]:
        """Seed-independent oracle checks; returns the problems found."""
        job = spec["job"]
        certs = [json.loads(text) for text in out.certificates]
        if job == "corpus":
            return self._check_corpus(spec, out)
        if job == "search":
            if "expected" in spec:
                return self._check_found(spec, out, certs)
            return self._check_not_found(spec, out)
        if job == "satisfy":
            return self._check_satisfy(spec, out, certs)
        if job == "perturbed":
            ev = certs[0]["evidence"]
            problems = []
            if certs[0]["kind"] != "FormalRefutation":
                problems.append(f"perturbed series gave {certs[0]['kind']}")
            elif ev["leading"]["exponent"] != spec["perturbed_exponent"]:
                problems.append(f"refuted at {ev['leading']['exponent']}, "
                                f"perturbed {spec['perturbed_exponent']}")
            return problems
        if job == "hilbert":
            ev = certs[0]["evidence"]
            want = (spec["max_mu"] + 1) * (spec["max_nu"] + 1) * (spec["max_ds"] + 1)
            if ev["checks"] != want or ev["residuals_all_zero"] is not True:
                return [f"hilbert checks {ev['checks']} != {want}"]
            return []
        if job == "rescale":
            ev = certs[0]["evidence"]
            if ev["rescaled_residual"] != "zero" or \
                    ev["mechanism_checks"] != spec["indeterminates"]:
                return [f"rescale evidence {ev['rescaled_residual']}, "
                        f"{ev['mechanism_checks']} mechanism checks"]
            return []
        return self._check_eliminate(spec, out)

    def _check_corpus(self, spec, out: Outcome) -> list[str]:
        facts = out.facts
        primes = distinct_primes(facts["indices"])
        rank = exponent_rank(facts["indices"])
        problems = []
        if facts["primes"] != primes:
            problems.append(f"prime support {facts['primes']} != {primes}")
        if spec["family"] == "zeta" and rank != len(primes):
            problems.append(f"zeta prefix rank {rank} != {len(primes)} primes")
        if facts["final_rank"] != rank:
            problems.append(f"final_rank {facts['final_rank']} != {rank}")
        want = "rank_exceeded" if rank > spec["rank_bound"] else "rank_stabilized"
        if facts["outcome"] != want:
            problems.append(f"outcome {facts['outcome']} != {want}")
        B = facts["lattice"]
        if B.rank != rank:
            problems.append(f"basis rank {B.rank} != {rank}")
        gens = [dict(g.coords) for g in B.generators]
        for n, row, expressed in zip(facts["indices"], B.change_of_basis, facts["express"]):
            total: dict = {}
            for c, g in zip(row, gens):
                for name, q in g.items():
                    total[name] = total.get(name, 0) + c * q
            target = {f"L{p}": k for p, k in factor(n).items()}
            if {k: v for k, v in total.items() if v} != target:
                problems.append(f"change_of_basis row for {n} does not reconstruct it")
                break
            if tuple(expressed) != tuple(row):
                problems.append(f"express({n}) disagrees with change_of_basis")
                break
        return problems

    def _check_not_found(self, spec, out: Outcome) -> list[str]:
        found = out.facts.get("not_found")
        if found is None:
            return ["unexpected relation found"]
        want = expected_subsets(spec["max_weight"])
        if found.subsets_searched != want:
            return [f"subsets_searched {found.subsets_searched} != {want}"]
        return []

    def _check_found(self, spec, out: Outcome, certs) -> list[str]:
        found = out.facts.get("found")
        if found is None:
            return ["planted relation not found"]
        expected = self.m["grammar"].parse_diffpoly(spec["expected"])
        problems = []
        if not proportional(found, expected):
            problems.append(f"found {out.outputs[0]!r}, planted {spec['expected']!r}")
        if certs[0]["kind"] != "FormalSatisfaction":
            problems.append(f"found relation gave {certs[0]['kind']}")
        return problems

    def _check_satisfy(self, spec, out: Outcome, certs) -> list[str]:
        if not out.facts["zero"]:
            return ["satisfying series has a nonzero residual"]
        if certs[0]["kind"] != "FormalSatisfaction":
            return [f"satisfying series gave {certs[0]['kind']}"]
        report = out.facts["report"]
        n_terms = len(out.facts["phi"].terms)
        with mpmath.workprec(PRECISION + 64):
            lam = mpmath.mpf(spec["lam"])
            threshold = mpmath.mpf(report.threshold)
            above = tuple(i for i in range(n_terms) if (i + 1) * lam > threshold)
        if above != tuple(report.verified_indices):
            return [f"verified_indices {report.verified_indices} != {above}"]
        return []

    def _check_eliminate(self, spec, out: Outcome) -> list[str]:
        p = [Fraction(c) for c in spec["solution"]]
        problems = []
        if any(evaluate_at_polynomial(out.facts["F"], p)):
            problems.append("generator error: F does not vanish on its planted solution")
        if any(evaluate_at_polynomial(out.facts["result"], p)):
            problems.append("eliminate_x result does not vanish on the planted solution")
        return problems


def proportional(F, G) -> bool:
    """F = c*G for a nonzero coefficient c (cross-multiplied, exact)."""
    tf, tg = dict(F.terms), dict(G.terms)
    if set(tf) != set(tg) or not tf:
        return False
    m0 = next(iter(tf))
    return all((tf[m] * tg[m0] - tg[m] * tf[m0]).is_zero for m in tf)


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_derivative(a: list) -> list:
    return [i * c for i, c in enumerate(a)][1:] or [Fraction(0)]


def evaluate_at_polynomial(F, p: list) -> list:
    """Coefficients of F(x, f = p(x)) with d/dx derivatives; zero list when F(p) = 0.

    Handles unshifted indeterminates with rational coefficients only, which
    is what the elimination family generates.
    """
    derivs = [list(p)]
    total = [Fraction(0)]
    for (xdeg, powers), c in F.terms:
        part = [Fraction(0)] * xdeg + [c.as_fraction()]
        for ind, k in powers:
            if ind.shift != 0:
                raise ValueError("shifted indeterminates are not generated")
            while len(derivs) <= ind.order:
                derivs.append(_poly_derivative(derivs[-1]))
            for _ in range(k):
                part = _poly_mul(part, derivs[ind.order])
        size = max(len(total), len(part))
        total = [(total[i] if i < len(total) else 0) + (part[i] if i < len(part) else 0)
                 for i in range(size)]
    return [c for c in total if c != 0]
