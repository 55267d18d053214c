"""Outside-in tracing of dforge: wrap public functions, record spans, count work.

The tracer replaces each listed function in every ``dforge`` module
namespace that binds it by name (``from .lattice import integer_basis``
binds a second name), and each listed method on its class.  A span records
name, start, end, parent span and job id; spans stay in flat arrays in
memory until the run ends.  Self time is a span's duration minus the
durations of its direct child spans.  Very hot calls (exponent comparison,
mpf conversion) only bump a counter, which keeps the trace affordable.
``uninstall`` restores the original objects, so untraced rounds run the
program unmodified.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# (metric prefix, module, attribute path, work counter, work from (args, kwargs))
SPANS = [
    ("series.series_mul", "series", "series_mul",
     "term_pairs", lambda a, k: len(a[0].terms) * len(a[1].terms)),
    ("series.Coefficient.numeric", "series", "Coefficient.numeric", None, None),
    ("series.make_series", "series", "make_series", None, None),
    ("series.differentiate_s", "series", "differentiate_s", None, None),
    ("lattice.RankScan.add", "lattice", "RankScan.add", None, None),
    ("lattice.integer_basis", "lattice", "integer_basis", "rows", lambda a, k: len(a[0])),
    ("lattice.hermite_normal_form", "lattice", "hermite_normal_form", None, None),
    ("lattice.express", "lattice", "express", None, None),
    ("lattice.prime_support", "lattice", "prime_support", None, None),
    ("lattice.log_basis_for_indices", "lattice", "log_basis_for_indices", None, None),
    ("lattice.gap_ratios", "lattice", "gap_ratios", None, None),
    ("linalg.rational_rank", "linalg", "rational_rank", "rows", lambda a, k: len(a[0])),
    ("linalg.determinant", "linalg", "determinant", "order_sum", lambda a, k: len(a[0])),
    ("linalg.ring_nullspace_vector", "linalg", "ring_nullspace_vector", None, None),
    ("wronskian.derive_ade", "wronskian", "derive_ade", None, None),
    ("formal_eval.substitute", "formal_eval", "substitute", None, None),
    ("formal_eval.forcing_threshold", "formal_eval", "forcing_threshold", None, None),
    ("formal_eval.initial_terms_of_partials", "formal_eval",
     "initial_terms_of_partials", None, None),
    ("formal_eval.exp_poly_root_bound", "formal_eval", "exp_poly_root_bound", None, None),
    ("diffpoly.eliminate_x", "diffpoly", "eliminate_x", None, None),
    ("transforms.verify_hilbert_zeta", "transforms", "verify_hilbert_zeta", None, None),
    ("transforms.verify_rescale_invariance", "transforms",
     "verify_rescale_invariance", None, None),
    ("transforms.rescale", "transforms", "rescale", None, None),
    ("obstruction.finite_basis_certificate", "obstruction",
     "finite_basis_certificate", None, None),
    ("obstruction.gap_certificate", "obstruction", "gap_certificate", None, None),
    ("obstruction.substitution_certificate", "obstruction",
     "substitution_certificate", None, None),
    ("obstruction.recheck", "obstruction", "recheck", None, None),
    ("io.read_corpus", "io", "read_corpus", None, None),
    ("io.load_series", "io", "load_series", None, None),
    ("io.canonical_json", "io", "canonical_json", None, None),
    ("grammar.parse_diffpoly", "grammar", "parse_diffpoly", None, None),
]

COUNTED = [
    ("series.SymbolBasis.compare", "series", "SymbolBasis.compare"),
    ("numeric.fraction_to_mpf", "numeric", "fraction_to_mpf"),
    ("diffpoly.sylvester_resultant", "diffpoly", "sylvester_resultant"),
]

JOB = "job"


class Tracer:
    """Span recorder plus named counters for one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._job_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_job(self, job_id: int, fn, *args):
        """Run ``fn(*args)`` as the root span of one job."""
        self._job_id = job_id
        idx = self._open(self._intern(JOB))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._job_id = -1

    def span_wrapper(self, fn, name: str, work=None, work_of=None, on_result=None):
        name_id = self._intern(name)
        work_key = None if work is None else f"{name}.{work}"
        calls_key = f"{name}.calls"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters[calls_key] += 1
            if work_key is not None:
                tracer.counters[work_key] += work_of(args, kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count_wrapper(self, fn, name: str):
        key = f"{name}.calls"
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _replace(self, module: str, path: str, make) -> None:
        """Swap ``path`` in dforge.<module> and every namespace binding it."""
        owner = sys.modules[f"dforge.{module}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(owner, path)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dforge" or mod_name.startswith("dforge."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def install(self) -> None:
        for name, module, path, work, work_of in SPANS:
            hook = self._derive_result if name == "wronskian.derive_ade" else None
            self._replace(module, path, lambda fn, n=name, w=work, wo=work_of, h=hook:
                          self.span_wrapper(fn, n, w, wo, h))
        for name, module, path in COUNTED:
            self._replace(module, path, lambda fn, n=name: self.count_wrapper(fn, n))
        self._replace("wronskian", "_decide", self._decide_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- equation-search outcome counters -------------------------------------

    def _decide_wrapper(self, fn):
        wr = sys.modules["dforge.wronskian"]
        errors = sys.modules["dforge.errors"]
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters["wronskian.subsets_searched"] += 1
            try:
                verdict = fn(*args, **kwargs)
            except errors.HorizonTooShort as exc:
                key = "underdetermined" if exc.details == "underdetermined" else "inconclusive"
                counters[f"wronskian.subsets_{key}"] += 1
                raise
            counters["wronskian.subsets_decided"] += 1
            if isinstance(verdict, wr.Dependent):
                counters["wronskian.dependent"] += 1
            return verdict

        return wrapper

    def _derive_result(self, result) -> None:
        if not isinstance(result, sys.modules["dforge.wronskian"].NotFoundWithinW):
            self.counters["wronskian.found"] += 1

    # -- analysis -------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def self_times(self, first: int = 0, last: int | None = None) -> Counter:
        """Sum of self time per span name over spans[first:last]."""
        return self_times(self.names, self.name, self.parent, self.start, self.end,
                          first, len(self.start) if last is None else last)

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.name[i]], "start": self.start[i],
                    "end": self.end[i], "parent": self.parent[i], "job": self.job[i],
                }) + "\n")


def self_times(names, name, parent, start, end, first: int, last: int) -> Counter:
    """Self time per name: duration minus the durations of direct children.

    Spans of one thread nest, so a child's interval lies inside its parent's
    and siblings do not overlap.
    """
    child = Counter()
    for i in range(first, last):
        p = parent[i]
        if p >= first:
            child[p] += end[i] - start[i]
    out = Counter()
    for i in range(first, last):
        out[names[name[i]]] += (end[i] - start[i]) - child[i]
    return out
