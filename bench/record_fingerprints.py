"""Record the decision fingerprints that bench/run.py compares against.

    python3 bench/record_fingerprints.py

For every workload it runs the job once per seed in check.RECORDED_SEEDS and
stores the fingerprint digest per seed, plus the full fingerprint of
check.REFERENCE_SEED, in bench/fingerprints.json. Rerun it only when a change
is meant to alter the simulated decisions; a speed-only change must leave the
file as it is.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import run


def main() -> int:
    sys.path[:0] = [str(run.ROOT / "src")]
    from qsim import harness

    record = {}
    work = run.ROOT / ".bench_out" / "record"
    for workload in sorted(run.WORKLOADS):
        entry = {"reference_seed": check.REFERENCE_SEED, "reference": None, "digests": {}}
        for seed in check.RECORDED_SEEDS:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            overrides = run.prepare(workload, seed, work)
            _, _, reports = run.run_job(harness, overrides, work / "out")
            fp = check.fingerprint(reports)
            entry["digests"][str(seed)] = check.digest(fp)
            if seed == check.REFERENCE_SEED:
                entry["reference"] = fp
            print(f"{workload} seed {seed}: {entry['digests'][str(seed)]}", flush=True)
        record[workload] = entry
    shutil.rmtree(work, ignore_errors=True)
    check.FINGERPRINTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
