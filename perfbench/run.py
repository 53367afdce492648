#!/usr/bin/env python3
"""Benchmark of the ``skewhecke`` CLI: closed loop, one client, one job at a time.

Usage: python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each job is ``skewhecke.cli.main([...])`` in
a fresh interpreter (``perfbench/job.py``); the next job starts when the
previous one has exited, so each job pays its own set-up and no cache survives
between jobs.  A pass runs every job of the workload once.

``--trace 0`` repeats passes until ``--seconds`` have elapsed and reports the
median over passes of the end-to-end metrics:

- ``wall_s``: from spawning the first job of a pass to the exit of its last;
- ``setup_s``: the sum over jobs of the time inside ``cli.build_context``;
- ``job_s``: the sum over jobs of the time inside the ``cli.cmd_*`` subcommand;
- ``peak_rss_mb``: the largest peak RSS of any job process.

``--trace 1`` runs three passes and reports the per-layer metrics: one pass
as above, one with spans at every layer boundary, and one counting scalar
operations and cache hits.  ``trace.overhead_s`` is the traced pass's wall
time minus the first pass's.

Every output is checked after its pass, outside the timed interval.  A job
fails if it times out, exits non-zero, or prints a wrong output; the failed
share is printed as ``failed_ratio``.  The last line of stdout is the result
as one JSON object; a detailed record goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from job import FIELDS, ROOT_SPAN, SCALAR_OPS, SPANS, SUITES
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench"

# Per-job timeout, seconds.  The slowest seed job takes about 11 s untraced.
JOB_TIMEOUT_S = {"time": 60, "trace": 120, "count": 120}
# No job may run past this point of the run, so that the run ends in time.
DEADLINE_S = 170
TRACE_TOLERANCE_S = 1e-6


@dataclass
class JobRun:
    name: str
    mode: str
    timeout_s: float
    seconds: float = 0.0
    exit: int | None = None
    stats: dict = field(default_factory=dict)
    failure: str | None = None


def run_job(job, mode, pass_dir, timeout_s):
    """Run one job in a fresh interpreter; returns a JobRun (output unchecked)."""
    cfg = pass_dir / f"{job.name}.cfg"
    cfg.write_text(job.config)
    out = pass_dir / f"{job.name}.out"
    stats = pass_dir / f"{job.name}.json"
    argv = [sys.executable, str(JOB), mode, str(stats), job.command, *job.args,
            "--config", str(cfg), "--out", str(out)]
    run = JobRun(job.name, mode, timeout_s)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, timeout=timeout_s,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        run.seconds = time.perf_counter() - t0
        run.failure = f"timed out after {timeout_s:.0f} s"
        return run
    run.seconds = time.perf_counter() - t0
    run.exit = proc.returncode
    if stats.is_file():
        run.stats = json.loads(stats.read_text())
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        run.failure = f"exit {proc.returncode}" + (f": {tail[0]}" if tail else "")
    elif not run.stats or not out.is_file():
        run.failure = "no stats or no output"
    return run


def verify_summary(text):
    """(check lines 'name: STATUS', checks executed, failed) of a verify report."""
    checks, executed, failed = [], None, None
    for line in text.splitlines():
        name, sep, rest = line.partition(": ")
        status = rest.split(" ", 1)[0]
        if sep and status in ("PASS", "FAIL", "SKIP") and " " not in name:
            checks.append(f"{name}: {status}")
        elif line.startswith("checks executed = "):
            left, _, right = line.partition(", failed = ")
            executed, failed = int(left.split("= ")[1]), int(right)
    return checks, executed, failed


def check_output(job, text, reference):
    """None if the job's output is right, else the reason it is wrong."""
    if job.command == "sc":
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != reference["sc"][job.name]:
            return f"sc output sha256 {digest[:12]} differs from the reference"
    elif job.command == "verify":
        checks, executed, failed = verify_summary(text)
        ref = reference["verify"][job.name]
        if failed != 0 or executed != ref["executed"] or checks != ref["checks"]:
            return (f"verify report differs: executed {executed} (want "
                    f"{ref['executed']}), failed {failed}, checks match "
                    f"{checks == ref['checks']}")
    elif job.command == "mul":
        fc, expected = job.expected
        try:
            got = fc.parse(text)
        except (ValueError, KeyError) as exc:
            return f"unparsable product: {exc}"
        if got != expected:
            return "product differs from the convolution formula"
    return None


def check_trace(stats):
    """Self times of all spans plus the unwrapped remainder must add up to the job."""
    spans = stats.get("spans", [])
    root = [s for s in spans if s["parent"] is None]
    if len(root) != 1:
        return "trace has no single root span"
    total = sum(s["self_s"] for s in spans)
    if abs(total - root[0]["total_s"]) > TRACE_TOLERANCE_S or \
            min(s["self_s"] for s in spans) < -TRACE_TOLERANCE_S:
        return f"self times add up to {total:.6f} s, job took {root[0]['total_s']:.6f} s"
    return None


def run_pass(jobs, mode, pass_dir, started, reference):
    """Run every job once, then check all outputs; returns (wall seconds, runs)."""
    pass_dir.mkdir(parents=True)
    runs = []
    t0 = time.perf_counter()
    for job in jobs:
        left = DEADLINE_S - (time.perf_counter() - started)
        if left <= 0:
            runs.append(JobRun(job.name, mode, 0, failure="run deadline reached"))
            continue
        runs.append(run_job(job, mode, pass_dir, min(JOB_TIMEOUT_S[mode], left)))
    wall = time.perf_counter() - t0
    for job, run in zip(jobs, runs):
        if run.failure is None:
            text = (pass_dir / f"{job.name}.out").read_text(encoding="utf-8")
            run.failure = check_output(job, text, reference)
        if run.failure is None and mode == "trace":
            run.failure = check_trace(run.stats)
    return wall, runs


def summarize(runs):
    """The result's counts: a job is failed if it has any failure reason."""
    failed = sum(r.failure is not None for r in runs)
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed}


def pass_metrics(wall, runs):
    return {
        "wall_s": wall,
        "setup_s": sum(r.stats.get("setup_s", 0.0) for r in runs),
        "job_s": sum(r.stats.get("job_s", 0.0) for r in runs),
        "peak_rss_mb": max(r.stats.get("peak_rss_kb", 0) for r in runs) / 1024,
    }


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}


def layer_metrics(traced, counted, overhead_s):
    """Per-layer metrics of one traced pass and one counting pass."""
    agg = {}
    for r in traced:
        for s in r.stats.get("spans", []):
            e = agg.setdefault(s["name"], [0, 0.0, 0.0])
            e[0] += s["calls"]
            e[1] += s["total_s"]
            e[2] += s["self_s"]
    get = lambda name: agg.get(name, [0, 0.0, 0.0])
    out = {}
    for name in dict.fromkeys(n for n, _, _ in SPANS if not n.startswith("cli.")):
        out[f"{name}.calls"] = (get(name)[0], "count")
        out[f"{name}.self_s"] = (get(name)[2], "s")
    out["cli.build_context.s"] = (get("cli.build_context")[1], "s")
    out["cli.cmd.s"] = (get("cli.cmd")[1], "s")
    for suite in SUITES:
        out[f"cli.suite.{suite}.s"] = (get(f"cli.suite.{suite}")[1], "s")
    out["unwrapped.self_s"] = (get(ROOT_SPAN)[2], "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    counts = {}
    for r in counted:
        for k, v in r.stats.get("counts", {}).items():
            counts[k] = counts.get(k, 0) + v
    for kind in FIELDS:
        for op in SCALAR_OPS:
            out[f"scalars.{kind}.{op}.calls"] = (counts.get(f"scalars.{kind}.{op}", 0), "count")
    for cache in ("product_cache", "action_cache"):
        lookups = counts.get(f"algebras.{cache}.lookups", 0)
        hits = counts.get(f"algebras.{cache}.hits", 0)
        out[f"algebras.{cache}.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    return out


def metadata(workload, jobs, seed, mode):
    def git_commit():
        if not (ROOT / ".git").exists():
            return None
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return proc.stdout.decode().strip() or None

    def cpu_model():
        try:
            for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    sources = sorted((ROOT / "src").rglob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
        "job_timeout_s": JOB_TIMEOUT_S,
        "run_deadline_s": DEADLINE_S,
        "jobs": [{"name": j.name, "command": j.command, "config": j.config,
                  "args": j.args} for j in jobs],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skewhecke" / "cli.py").is_file():
        print(f"error: no skewhecke sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    reference = json.loads(REFERENCE.read_text())
    jobs = WORKLOADS[args.workload](args.seed)
    meta = metadata(args.workload, jobs, args.seed, "trace" if args.trace else "time")

    work = WORK / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    passes = []   # (mode, wall, runs)
    try:
        if args.trace:
            for mode in ("time", "trace", "count"):
                wall, runs = run_pass(jobs, mode, work / f"{len(passes)}-{mode}",
                                      started, reference)
                passes.append((mode, wall, runs))
        else:
            while True:
                wall, runs = run_pass(jobs, "time", work / str(len(passes)),
                                      started, reference)
                passes.append(("time", wall, runs))
                elapsed = time.perf_counter() - started
                if elapsed >= args.seconds or elapsed + wall > DEADLINE_S:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_runs = [r for _, _, runs in passes for r in runs]
    if args.trace:
        by_mode = {mode: (wall, runs) for mode, wall, runs in passes}
        overhead = by_mode["trace"][0] - by_mode["time"][0]
        metrics = layer_metrics(by_mode["trace"][1], by_mode["count"][1], overhead)
    else:
        per_pass = [pass_metrics(wall, runs) for _, wall, runs in passes]
        metrics = {name: (statistics.median(p[name] for p in per_pass), unit)
                   for name, unit in END_TO_END_UNITS.items()}

    result = dict(summarize(all_runs), metrics={
        k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    record = dict(meta, result=result, passes=[
        {"mode": mode, "wall_s": wall,
         "jobs": [{"name": r.name, "exit": r.exit, "seconds": r.seconds,
                   "timeout_s": r.timeout_s, "failure": r.failure, "stats": r.stats}
                  for r in runs]}
        for mode, wall, runs in passes])
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, "
          f"python {meta['python']}, nproc {meta['nproc']}, src lines {meta['src_lines']}")
    for r in all_runs:
        if r.failure:
            print(f"FAILED {r.mode} {r.name}: {r.failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"failed_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted} jobs)")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
