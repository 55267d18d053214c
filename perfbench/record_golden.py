"""Re-record golden.json: the output digest of every job at the default seed.

    python3 perfbench/record_golden.py

The benchmark fails a job at the default seed whose output bytes differ from
the recorded digest, which holds later changes to byte-identical output.
Re-record only for a change that is meant to alter output bytes, or after
changing the generator; every job must pass its oracles first.
"""

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    modules = run.import_dforge()
    golden = {"seed": run.DEFAULT_SEED}
    for workload in workloads.WORKLOADS:
        inputs = run.WORK / f"golden-{workload}"
        try:
            slots = run.prepare(modules, workload, run.DEFAULT_SEED, inputs)
            jobs = workloads.Jobs(modules, inputs)
            digests = []
            for slot, spec in enumerate(slots):
                out, _, rechecks = run.run_job(jobs, modules["obstruction"], spec)
                problems = jobs.check(spec, out) + [
                    "recheck failed" for _, result in rechecks if not result.ok]
                if problems:
                    print(f"{workload} slot {slot}: {problems}", file=sys.stderr)
                    return 1
                digests.append(run.digest_of(out))
            golden[workload] = digests
        finally:
            shutil.rmtree(inputs, ignore_errors=True)
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
