#!/usr/bin/env python3
"""Write perfbench/reference.json from the outputs of the current checkout.

Usage: python3 perfbench/make_reference.py

The committed reference was written at the commit that added the benchmark.
It holds the sha256 of every ``sc`` output and, for every ``verify`` job, the
check names with their status and the ``checks executed`` count; neither
depends on the seed.  Rewrite it only when a change is meant to alter them.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time

import run
from workloads import WORKLOADS

sys.path.insert(0, str(run.ROOT / "src"))


def main():
    reference = {"sc": {}, "verify": {}}
    work = run.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, make_jobs in WORKLOADS.items():
            jobs = [j for j in make_jobs(0) if j.command in reference]
            if not jobs:
                continue
            pass_dir = work / name
            pass_dir.mkdir(parents=True)
            for job in jobs:
                result = run.run_job(job, "time", pass_dir, run.JOB_TIMEOUT_S["time"])
                if result.failure:
                    raise SystemExit(f"{job.name}: {result.failure}")
                text = (pass_dir / f"{job.name}.out").read_text(encoding="utf-8")
                if job.command == "sc":
                    reference["sc"][job.name] = hashlib.sha256(text.encode()).hexdigest()
                else:
                    checks, executed, failed = run.verify_summary(text)
                    if failed != 0:
                        raise SystemExit(f"{job.name}: {failed} checks failed")
                    reference["verify"][job.name] = {"executed": executed, "checks": checks}
                print(f"{job.name}: {result.seconds:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"wrote {run.REFERENCE.name} in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    sys.exit(code)
