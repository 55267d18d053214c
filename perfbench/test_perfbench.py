"""Tests of the benchmark itself: generator determinism, self-time arithmetic,
and each oracle against a hand-checked small case.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer, self_times

MODULES = run.import_dforge()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    workloads.generate(workload, 7, tmp_path / "a")
    workloads.generate(workload, 7, tmp_path / "b")
    workloads.generate(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_self_time_of_synthetic_span_tree():
    # job [0, 10] > a [1, 6] > b [2, 3], b [4, 5.5]; job > c [7, 9]
    names = ["job", "a", "b", "c"]
    spans = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 6.0), (2, 1, 2.0, 3.0),
             (2, 1, 4.0, 5.5), (3, 0, 7.0, 9.0)]
    out = self_times(names, array("l", [s[0] for s in spans]),
                     array("l", [s[1] for s in spans]),
                     array("d", [s[2] for s in spans]),
                     array("d", [s[3] for s in spans]), 0, len(spans))
    assert out == {"job": 3.0, "a": 2.5, "b": 2.5, "c": 2.0}
    # a window that starts mid-tree ignores parents outside it
    out = self_times(names, array("l", [s[0] for s in spans]),
                     array("l", [s[1] for s in spans]),
                     array("d", [s[2] for s in spans]),
                     array("d", [s[3] for s in spans]), 2, len(spans))
    assert out == {"b": 2.5, "c": 2.0}


def test_tracer_counts_and_restores():
    lattice = MODULES["lattice"]
    original = lattice.integer_basis
    basis, exps = lattice.log_basis_for_indices([4, 6, 9], 128)
    tracer = Tracer()
    tracer.install()
    try:
        assert lattice.integer_basis is not original
        tracer.run_job(0, lattice.integer_basis, [exps[n] for n in (4, 6, 9)], basis)
    finally:
        tracer.uninstall()
    assert lattice.integer_basis is original
    assert MODULES["formal_eval"].integer_basis is original
    assert tracer.counters["lattice.integer_basis.calls"] == 1
    assert tracer.counters["lattice.integer_basis.rows"] == 3
    selfs = tracer.self_times()
    assert abs(sum(selfs.values()) - (tracer.end[0] - tracer.start[0])) < 1e-9


def test_tracer_writes_the_span_tree_once(tmp_path):
    tracer = Tracer()
    inner = tracer.span_wrapper(lambda: None, "m.inner")
    outer = tracer.span_wrapper(lambda: (inner(), inner()), "m.outer")
    tracer.run_job(7, outer)
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(s["id"], s["name"], s["parent"], s["job"]) for s in spans] == [
        (0, "job", -1, 7), (1, "m.outer", 0, 7), (2, "m.inner", 1, 7), (3, "m.inner", 1, 7)]
    assert all(s["start"] <= s["end"] for s in spans)
    # self times from the written file equal those from memory
    again = self_times([s["name"] for s in spans], range(len(spans)),
                       [s["parent"] for s in spans], [s["start"] for s in spans],
                       [s["end"] for s in spans], 0, len(spans))
    assert again == tracer.self_times()


def test_samples_scale_to_reference_speed():
    ref = run.REFERENCE_S
    assert run.scaled(1.0, ref, ref) == (1.0, True)
    assert run.scaled(3.0, 2 * ref, 4 * ref)[0] == pytest.approx(1.0)
    assert run.scaled(1.0, ref, 1.25 * ref)[1] is True
    assert run.scaled(1.0, 1.3 * ref, ref)[1] is False


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_benchmark_json_lists_the_printed_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        units = {**run.END_TO_END, **run.PER_LAYER}
        assert m["unit"] == units[m["name"]]


# ---------------------------------------------------------------------------
# Oracles against hand-checked cases
# ---------------------------------------------------------------------------

def test_prime_and_subset_counts():
    assert len(workloads.distinct_primes(range(1, 101))) == 25
    assert workloads.distinct_primes([12, 45, 1]) == [2, 3, 5]
    assert workloads.exponent_rank(range(1, 101)) == 25
    assert workloads.exponent_rank([6, 35]) == 2  # four primes, two directions
    assert workloads.exponent_rank([12, 18, 6]) == 2
    assert [workloads.partition_count(w) for w in range(1, 6)] == [1, 2, 3, 5, 7]
    assert workloads.expected_subsets(3) == 57
    assert workloads.expected_subsets(4) == 2036


def _job(tmp_path, spec, files=None):
    for name, text in (files or {}).items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    jobs = workloads.Jobs(MODULES, tmp_path)
    out, _, rechecks = run.run_job(jobs, MODULES["obstruction"], spec)
    assert all(r.ok for _, r in rechecks)
    return jobs, out


def test_zeta_corpus_100_has_rank_25(tmp_path):
    spec = {"job": "corpus", "family": "zeta", "rank_bound": 10,
            "ratio_threshold": "100", "input": "z.txt"}
    jobs, out = _job(tmp_path, spec,
                     {"z.txt": "\n".join(str(n) for n in range(1, 101)) + "\n"})
    assert out.facts["final_rank"] == 25
    assert out.facts["outcome"] == "rank_exceeded"
    assert jobs.check(spec, out) == []
    wrong = dict(spec, rank_bound=30)
    assert any("outcome" in p for p in jobs.check(wrong, out))


def test_change_of_basis_rows_reconstruct(tmp_path):
    spec = {"job": "corpus", "family": "smooth", "rank_bound": 2,
            "ratio_threshold": "100", "input": "s.txt"}
    jobs, out = _job(tmp_path, spec, {"s.txt": "4 1\n6 1/2\n9 -3\n7 0\n"})
    assert out.facts["indices"] == [4, 6, 9]
    assert out.facts["outcome"] == "rank_stabilized"
    assert jobs.check(spec, out) == []
    out.facts["indices"] = [4, 6, 10]
    assert any("reconstruct" in p for p in jobs.check(spec, out))


def test_planted_relation_and_not_found_count(tmp_path):
    obj = workloads._geometric_obj("0.7", [Fraction(1)] * 20)
    (tmp_path / "g.series.json").write_text(json.dumps(obj))
    spec = {"job": "search", "family": "geometric", "max_weight": 3, "horizon": None,
            "expected": "f' + lam*f + lam*f^2", "input": "g.series.json"}
    jobs, out = _job(tmp_path, spec)
    assert out.outputs == ["lam*f + lam*f^2 + f'"]
    assert jobs.check(spec, out) == []
    assert jobs.check(dict(spec, expected="f' + lam*f + 2*lam*f^2"), out)
    (tmp_path / "z.series.json").write_text(json.dumps(workloads._dirichlet_obj(12)))
    spec = {"job": "search", "family": "zeta", "max_weight": 3,
            "horizon": {"L3": "1"}, "input": "z.series.json"}
    jobs, out = _job(tmp_path, spec)
    assert out.facts["not_found"].subsets_searched == 57
    assert jobs.check(spec, out) == []


def test_threshold_indices_and_perturbed_refutation(tmp_path):
    # acceptance 3: lam = 0.7, 40 terms
    obj = workloads._geometric_obj("0.7", [Fraction(1)] * 40)
    (tmp_path / "g.series.json").write_text(json.dumps(obj))
    spec = {"job": "satisfy", "family": "satisfy", "equation": "f' + lam*f + lam*f^2",
            "lam": "0.7", "input": "g.series.json"}
    jobs, out = _job(tmp_path, spec)
    assert out.facts["report"].verified_indices
    assert jobs.check(spec, out) == []
    assert jobs.check(dict(spec, lam="0.3"), out)
    coeffs = [Fraction(1)] * 10
    coeffs[2] += 1  # the term at exponent 3*lam
    obj = workloads._geometric_obj("0.7", coeffs)
    (tmp_path / "p.series.json").write_text(json.dumps(obj))
    spec = {"job": "perturbed", "family": "perturbed", "equation": "f' + lam*f + lam*f^2",
            "perturbed_exponent": {"lam": "3"}, "input": "p.series.json"}
    jobs, out = _job(tmp_path, spec)
    assert jobs.check(spec, out) == []
    assert jobs.check(dict(spec, perturbed_exponent={"lam": "4"}), out)


def test_hilbert_check_count(tmp_path):
    spec = {"job": "hilbert", "family": "hilbert", "n": 10, "max_mu": 1, "max_nu": 2,
            "max_ds": 1}
    jobs, out = _job(tmp_path, spec)
    assert json.loads(out.certificates[0])["evidence"]["checks"] == 12
    assert jobs.check(spec, out) == []


def test_elimination_vanishes_on_planted_solution(tmp_path):
    spec = {"job": "eliminate", "family": "eliminate", "equation": "f - x^2",
            "solution": ["0", "0", "1"]}
    jobs, out = _job(tmp_path, spec)
    assert out.outputs == ["4*f - f'^2"]  # README: eliminate-x prints 4*f - f'^2
    assert jobs.check(spec, out) == []
    assert workloads.evaluate_at_polynomial(out.facts["result"],
                                            [Fraction(0), Fraction(0), Fraction(2)])
    assert jobs.check(dict(spec, solution=["0", "0", "2"]), out)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_family_passes_its_oracle(tmp_path, workload):
    slots = run.prepare(MODULES, workload, run.DEFAULT_SEED, tmp_path)
    jobs = workloads.Jobs(MODULES, tmp_path)
    seen = set()
    for spec in slots:
        key = (spec["family"], "expected" in spec)
        if key in seen or spec.get("max_weight") == 4:
            continue
        seen.add(key)
        out, _, rechecks = run.run_job(jobs, MODULES["obstruction"], spec)
        assert jobs.check(spec, out) == [], spec
        assert all(r.ok for _, r in rechecks), spec
