"""dforge benchmark: one seeded workload per process, closed loop, one job at a time.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up (import dforge, generate the inputs, load them through
``dforge.io``) is timed in fresh child interpreters.  The job list is then
run in rounds until ``--seconds`` have passed (at least two rounds).  Every
job reads its input again, so each builds its own ``SymbolBasis`` with cold
caches, as one CLI invocation does.  Each job is checked right after it
runs, outside its timed region, and then dropped.  With ``--trace 1`` odd
rounds run under the tracer, the per-layer metrics are printed instead of
the end-to-end ones, and the spans are written to
``.perfbench_spans/<workload>-<seed>.jsonl``.

Times are process CPU seconds scaled to a reference machine speed: a fixed
pure-Python gauge loop runs between jobs, and each sample is multiplied by
``REFERENCE_S / gauge``.  A sample whose two bracketing gauges differ by more
than ``STEADY_WITHIN`` is unsteady (the machine changed speed under it) and
is used only for a job that has no steady sample.

The last line of standard output is the JSON result; the line before it
records the environment and the tail definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_spans"

import workloads  # noqa: E402  (benchmark-local, found next to this script)
from tracer import SPANS, Tracer  # noqa: E402

DEFAULT_SEED = 1
MIN_ROUNDS = 2
TAIL_BEYOND = 10
# CPU seconds of gauge() on a quiet host of the kind the baseline was taken
# on (2 shared vCPUs, Python 3.11); it only sets the scale of the times
REFERENCE_S = 0.0050
STEADY_WITHIN = 0.25
MODULES = ("diffpoly", "formal_eval", "grammar", "io", "lattice", "linalg",
           "obstruction", "series", "transforms", "wronskian")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "verdict_s_p50": "s", "verdict_s_tail": "s",
    "recheck_s_p50": "s", "recheck_s_tail": "s", "peak_rss_mb": "MB",
}


def _per_layer_metrics() -> dict:
    units = {"calls": "count", "self_s": "s", "term_pairs": "count", "rows": "count",
             "order_sum": "count"}
    stats = {
        "series.series_mul": ("calls", "self_s", "term_pairs"),
        "series.Coefficient.numeric": ("calls", "self_s"),
        "lattice.RankScan.add": ("calls", "self_s"),
        "lattice.integer_basis": ("calls", "self_s", "rows"),
        "lattice.hermite_normal_form": ("calls", "self_s"),
        "lattice.express": ("calls", "self_s"),
        "linalg.rational_rank": ("calls", "self_s", "rows"),
        "linalg.determinant": ("calls", "self_s", "order_sum"),
        "linalg.ring_nullspace_vector": ("calls", "self_s"),
        "formal_eval.substitute": ("calls", "self_s"),
        "obstruction.recheck": ("calls", "self_s"),
    }
    out = {}
    for name, *_ in SPANS:
        for stat in stats.get(name, ("self_s",)):
            out[f"{name}.{stat}"] = units[stat]
    out.update({
        "series.SymbolBasis.compare.calls": "count",
        "series.basis_cache_entries": "count",
        "numeric.fraction_to_mpf.calls": "count",
        "diffpoly.sylvester_resultant.calls": "count",
        "wronskian.subsets_searched": "count",
        "wronskian.subsets_underdetermined": "count",
        "wronskian.subsets_inconclusive": "count",
        "wronskian.candidates_refuted": "count",
        "wronskian.decided_ratio": "1",
        "trace.job_s": "s",
        "trace.overhead_s": "s",
    })
    return out


PER_LAYER = _per_layer_metrics()


# ---------------------------------------------------------------------------
# Program import, set-up and environment
# ---------------------------------------------------------------------------

def import_dforge() -> dict:
    if not (SRC / "dforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no dforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib
    return {name: importlib.import_module(f"dforge.{name}") for name in MODULES}


def prepare(modules: dict, workload: str, seed: int, inputs: Path) -> list[dict]:
    """Generate the inputs and load each once through dforge.io."""
    slots = workloads.generate(workload, seed, inputs)
    jobs = workloads.Jobs(modules, inputs)
    for spec in slots:
        jobs.load(spec)
    return slots


def _setup_probe(args) -> int:
    prepare(import_dforge(), args.workload, args.seed, Path(args.probe_dir))
    # CPU time of this process since it started: interpreter start-up included
    print(json.dumps({"ready_cpu_s": time.process_time()}))
    return 0


def gauge() -> float:
    """CPU seconds of a fixed pure-Python loop: the machine's speed right now.

    Rational arithmetic and dict stores, like dforge's own inner loops; on a
    shared host it slows down with the jobs around it.
    """
    t0 = time.process_time()
    total = Fraction(0)
    seen = {}
    for i in range(1, 1500):
        total += Fraction(i % 97 + 1, i)
        seen[i % 31] = total
    return time.process_time() - t0


def scaled(seconds: float, before: float, after: float) -> tuple[float, bool]:
    """(seconds at reference speed, steady) from the gauges around a sample."""
    steady = max(before, after) <= (1 + STEADY_WITHIN) * min(before, after)
    return seconds * 2 * REFERENCE_S / (before + after), steady


def measure_setup(workload: str, seed: int, probe_dir: Path) -> tuple[float, bool]:
    """CPU seconds a fresh interpreter spends until it is ready for job one."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe", str(probe_dir)]
    before = gauge()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    after = gauge()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready_cpu_s"]
    shutil.rmtree(probe_dir, ignore_errors=True)
    return scaled(ready, before, after)


def environment(args) -> dict:
    import mpmath.libmp
    return {
        "python": sys.version.split()[0],
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        path = ROOT / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Jobs and rounds
# ---------------------------------------------------------------------------

def digest_of(out: workloads.Outcome) -> str:
    """Digest of a job's output bytes: printed texts and certificate JSON."""
    return hashlib.sha256("\n".join(out.outputs + out.certificates).encode()).hexdigest()[:16]


def run_job(jobs: workloads.Jobs, ob, spec: dict):
    """Load, verdict (timed), then recheck each certificate (timed each)."""
    loaded = jobs.load(spec)
    t0 = time.process_time()
    out = jobs.verdict(spec, loaded)
    verdict_s = time.process_time() - t0
    rechecks = []
    for text in out.certificates:
        cert = ob.Certificate.from_obj(json.loads(text))
        t0 = time.process_time()
        result = ob.recheck(cert)
        rechecks.append((time.process_time() - t0, result))
    return out, verdict_s, rechecks


class Run:
    """Accumulates scaled samples, failures and traced-round statistics."""

    def __init__(self, modules: dict, slots: list[dict], inputs: Path, workload: str,
                 seed: int, tracer):
        self.jobs = workloads.Jobs(modules, inputs)
        self.ob = modules["obstruction"]
        self.slots = slots
        self.tracer = tracer
        # per slot, per repeat: (job_s, verdict_s, recheck_s or None, steady)
        self.samples = {False: [[] for _ in slots], True: [[] for _ in slots]}
        self.digests: list = [None] * len(slots)
        golden = json.loads((HERE / "golden.json").read_text())
        self.golden = golden.get(workload) if seed == golden["seed"] else None
        self.gauges: list[float] = []
        self.layers: list[dict] = []
        self.shares: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []

    def round(self, number: int, traced: bool, deadline: float) -> bool:
        """Run one pass over the slots; False if cut short by the deadline."""
        tracer = self.tracer if traced else None
        if tracer is not None:
            first = tracer.span_count()
            before = tracer.counters.copy()
        cache_entries = []
        g_before = gauge()
        self.gauges.append(g_before)
        for slot, spec in enumerate(self.slots):
            if number >= MIN_ROUNDS and time.monotonic() >= deadline:
                return False
            if tracer is not None:
                tracer.install()
            t0 = time.process_time()
            try:
                if tracer is None:
                    result = run_job(self.jobs, self.ob, spec)
                else:
                    result = tracer.run_job(number * len(self.slots) + slot,
                                            run_job, self.jobs, self.ob, spec)
            except Exception:  # a job failure is a benchmark outcome
                result = traceback.format_exc(limit=3)
            finally:
                job_s = time.process_time() - t0
                if tracer is not None:
                    tracer.uninstall()
            g_after = gauge()
            self.gauges.append(g_after)
            if self._record(slot, result, traced, job_s, g_before, g_after) and traced:
                basis = result[0].basis
                cache_entries.append(0 if basis is None else len(basis._cache))
            del result  # at most one job's state is alive, as in one CLI call
            g_before = g_after
        if tracer is not None:
            self._layer_round(first, before, cache_entries)
        return True

    def _record(self, slot: int, result, traced: bool, job_s: float, g_before: float,
                g_after: float) -> bool:
        """Check one job's outputs; keep its timings only if they are correct."""
        self.attempted += 1
        spec = self.slots[slot]
        label = f"slot {slot} ({spec['job']}/{spec['family']})"
        if isinstance(result, str):
            self.failures.append(f"{label}: {result.strip().splitlines()[-1]}")
            return False
        out, verdict_s, rechecks = result
        problems = []
        try:
            problems = self.jobs.check(spec, out)
        except Exception as exc:  # an oracle that cannot run marks the job failed
            problems = [f"oracle raised {exc!r}"]
        for i, (_, verdict) in enumerate(rechecks):
            if not verdict.ok:
                problems.append(f"certificate {i} failed recheck: {verdict.mismatches[:2]}")
        digest = digest_of(out)
        if self.digests[slot] is None:
            self.digests[slot] = digest
        elif self.digests[slot] != digest:
            problems.append("output bytes differ from an earlier round")
        if self.golden is not None and self.golden[slot] != digest:
            problems.append(f"output digest {digest} != recorded {self.golden[slot]}")
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")
            return False
        scale, steady = scaled(1.0, g_before, g_after)
        recheck_s = sum(t for t, _ in rechecks) * scale if rechecks else None
        self.samples[traced][slot].append((job_s * scale, verdict_s * scale, recheck_s,
                                           steady))
        return True

    def per_job(self, traced: bool, field: int) -> list[float]:
        """Each job's figure: the median of its steady repeats, or of all its
        repeats if none was steady; jobs without the figure are left out."""
        out = []
        for samples in self.samples[traced]:
            use = [s for s in samples if s[3]] or samples
            values = [s[field] for s in use if s[field] is not None]
            if values:
                out.append(statistics.median(values))
        return out

    def pass_time(self, traced: bool) -> float:
        """One pass over the job list: the sum of each job's figure."""
        return sum(self.per_job(traced, 0))

    def unsteady(self) -> int:
        return sum(not s[3] for slots in self.samples.values() for samples in slots
                   for s in samples)

    def _layer_round(self, first: int, before, cache_entries: list[int]) -> None:
        """Per-layer totals of one traced round, from its spans and counters."""
        tracer = self.tracer
        selfs = tracer.self_times(first)
        counts = tracer.counters - before
        values = {}
        for name, unit in PER_LAYER.items():
            if name.endswith(".self_s"):
                values[name] = selfs.get(name[:-len(".self_s")], 0.0)
            elif unit == "count":
                values[name] = counts.get(name, 0)
        values["trace.job_s"] = sum(selfs.values())  # every span lies inside a job
        values["series.basis_cache_entries"] = max(cache_entries, default=0)
        searched = counts.get("wronskian.subsets_searched", 0)
        values["wronskian.candidates_refuted"] = (counts.get("wronskian.dependent", 0)
                                                  - counts.get("wronskian.found", 0))
        values["wronskian.decided_ratio"] = (
            counts.get("wronskian.subsets_decided", 0) / searched if searched else 0.0)
        lattice_s = sum(v for k, v in selfs.items() if k.startswith("lattice.")) + \
            selfs.get("linalg.rational_rank", 0.0)
        job_s = values["trace.job_s"] or 1.0
        self.layers.append(values)
        self.shares.append({
            "lattice_and_rational_rank": lattice_s / job_s,
            "determinant": selfs.get("linalg.determinant", 0.0) / job_s,
        })


def tail(samples: list[float]):
    """(value, percentile): the sample with exactly TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(run: Run, setup: list[tuple[float, bool]]) -> tuple[dict, dict]:
    verdicts = run.per_job(False, 1)
    rechecks = run.per_job(False, 2)
    v_tail, v_pct = tail(verdicts)
    r_tail, r_pct = tail(rechecks)
    values = {
        "setup_s": statistics.median([t for t, steady in setup if steady]
                                     or [t for t, _ in setup]),
        "wall_s": run.pass_time(False),
        "verdict_s_p50": statistics.median(verdicts),
        "verdict_s_tail": v_tail,
        "recheck_s_p50": statistics.median(rechecks),
        "recheck_s_tail": r_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "verdict_s_tail": {"percentile": v_pct, "jobs": len(verdicts)},
        "recheck_s_tail": {"percentile": r_pct, "jobs": len(rechecks)},
        "setup_s_samples": setup,
        "verdict_s_by_slot": [round(v, 5) for v in verdicts],
    }
    return values, notes


def per_layer(run: Run) -> tuple[dict, dict]:
    values = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        values[name] = statistics.median(r[name] for r in run.layers)
    values["trace.overhead_s"] = run.pass_time(True) - run.pass_time(False)
    shares = {k: statistics.median(r[k] for r in run.shares) for k in run.shares[0]}
    return values, {"self_time_share_of_jobs": shares, "traced_rounds": len(run.layers)}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", dest="probe_dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.probe_dir:
        return _setup_probe(args)
    modules = import_dforge()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = [measure_setup(args.workload, args.seed, workdir / "probe")]
        inputs = workdir / "inputs"
        slots = prepare(modules, args.workload, args.seed, inputs)
        tracer = Tracer() if args.trace else None
        run = Run(modules, slots, inputs, args.workload, args.seed, tracer)
        deadline = time.monotonic() + args.seconds
        number = 0
        while number < MIN_ROUNDS or time.monotonic() < deadline:
            complete = run.round(number, bool(args.trace) and number % 2 == 1, deadline)
            number += 1
            if not complete:
                break
            setup.append(measure_setup(args.workload, args.seed, workdir / "probe"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if args.trace:
        metrics, notes = per_layer(run)
        units = PER_LAYER
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"{args.workload}-{args.seed}.jsonl"
        tracer.write(spans)
        notes["spans"] = str(spans.relative_to(ROOT))
    else:
        metrics, notes = end_to_end(run, setup)
        units = END_TO_END
    info = environment(args)
    info.update(notes)
    info.update({"slots": len(slots), "rounds": number,
                 "reference_s": REFERENCE_S, "gauge_s": {
                     "min": min(run.gauges), "median": statistics.median(run.gauges),
                     "max": max(run.gauges)},
                 "unsteady_samples": run.unsteady(),
                 "fail_ratio": len(run.failures) / run.attempted,
                 "failures": run.failures[:10]})
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
