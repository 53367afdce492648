"""Tests of the benchmark itself: failure accounting, output checks, seeded inputs.

Run from the root of the repository: python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import os
import pathlib
import random
import shutil
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from workloads import (  # noqa: E402
    S5_FUNCTIONS,
    SCRIPT_CONFIGS,
    WORKLOADS,
    Job,
    mul_inputs,
)

S3_FUNCTIONS = SCRIPT_CONFIGS["functions_s3"]


@pytest.fixture
def work():
    path = run.WORK / f"test-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _sc_digest(work):
    job = Job("sc_s3", "sc", S3_FUNCTIONS)
    result = run.run_job(job, "time", work, 60)
    assert result.failure is None
    text = (work / "sc_s3.out").read_text(encoding="utf-8")
    return hashlib.sha256(text.encode()).hexdigest()


def test_failures_are_counted(work, monkeypatch):
    reference = json.loads(run.REFERENCE.read_text())
    reference["sc"]["sc_s3"] = reference["sc"]["sc_s3_corrupted"] = _sc_digest(work)
    phi, psi, expected = mul_inputs(S3_FUNCTIONS, 3)
    jobs = [
        Job("sc_s3", "sc", S3_FUNCTIONS),
        Job("sc_s3_corrupted", "sc", S3_FUNCTIONS),
        Job("verify_functions_s3", "verify", S3_FUNCTIONS, ["all", "--seed", "3"]),
        Job("verify_functions_s3_bad", "verify",
            S3_FUNCTIONS.replace("functions", "nonsense"), ["all", "--seed", "3"]),
        Job("mul_s3", "mul", S3_FUNCTIONS, [phi, psi], expected),
    ]
    real_run_job = run.run_job

    def corrupting_run_job(job, mode, pass_dir, timeout_s):
        result = real_run_job(job, mode, pass_dir, timeout_s)
        if job.name == "sc_s3_corrupted":
            out = pass_dir / f"{job.name}.out"
            text = out.read_text(encoding="utf-8")
            out.write_text(text.replace("\t1\n", "\t2\n", 1), encoding="utf-8")
        return result

    monkeypatch.setattr(run, "run_job", corrupting_run_job)
    started = time.perf_counter()
    _, runs = run.run_pass(jobs, "time", work / "pass", started, reference)
    failures = {r.name: r.failure for r in runs}
    assert failures["sc_s3"] is None
    assert failures["verify_functions_s3"] is None
    assert failures["mul_s3"] is None
    assert "sha256" in failures["sc_s3_corrupted"]
    assert failures["verify_functions_s3_bad"].startswith("exit 2")

    monkeypatch.setitem(run.JOB_TIMEOUT_S, "time", 0.01)
    _, timed_out = run.run_pass(jobs[:1], "time", work / "slow", started, reference)
    assert timed_out[0].failure.startswith("timed out")

    result = run.summarize(runs + timed_out)
    assert result == {"correct": False, "attempted": 6, "failed": 3}


def test_wrong_product_and_wrong_verify_report_fail():
    phi, psi, (fc, expected) = mul_inputs(S3_FUNCTIONS, 0)
    job = Job("mul_s3", "mul", S3_FUNCTIONS, [phi, psi], (fc, expected))
    right = fc.literal(expected)
    assert run.check_output(job, right, {}) is None
    wrong = [dict(v) for v in expected]
    x = next(iter(wrong[0]))
    wrong[0][x] += 1
    assert "formula" in run.check_output(job, fc.literal(wrong), {})
    assert "unparsable" in run.check_output(job, "(1*delta[nowhere])", {})

    reference = json.loads(run.REFERENCE.read_text())
    vjob = Job("verify_functions_s3", "verify", S3_FUNCTIONS)
    ref = reference["verify"]["verify_functions_s3"]
    report = "\n".join(c + " (detail)" for c in ref["checks"])
    ok = report + f"\nchecks executed = {ref['executed']}, failed = 0\n"
    assert run.check_output(vjob, ok, reference) is None
    failing = ok.replace(": PASS", ": FAIL", 1).replace("failed = 0", "failed = 1")
    assert run.check_output(vjob, failing, reference) is not None
    short = ok.replace(f"= {ref['executed']},", f"= {ref['executed'] - 1},")
    assert run.check_output(vjob, short, reference) is not None


def test_mul_literals_are_deterministic_per_seed():
    first = mul_inputs(S5_FUNCTIONS, 11)[:2]
    assert mul_inputs(S5_FUNCTIONS, 11)[:2] == first
    assert mul_inputs(S5_FUNCTIONS, 12)[:2] != first
    assert [j.args for j in WORKLOADS["mul-s5"](11)] == [list(first)]


def test_mul_values_are_stabilizer_invariant():
    _, _, (fc, _) = mul_inputs(S5_FUNCTIONS, 5)
    rng = random.Random(5)
    G = fc.G
    for oi, orbit in enumerate(fc.orbits):
        v = fc.random_value(rng, oi)
        assert len(v) == G.order
        for s in orbit.stabilizer.elements:
            assert all(v[G.mul(s, x)] == v[x] for x in range(G.order))


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    layer = run.layer_metrics([], [], 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]][1] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_trace_accounting_check():
    spans = [
        {"name": "a", "parent": "job", "calls": 2, "total_s": 3.0, "self_s": 1.0},
        {"name": "b", "parent": "a", "calls": 4, "total_s": 2.0, "self_s": 2.0},
        {"name": "job", "parent": None, "calls": 1, "total_s": 3.5, "self_s": 0.5},
    ]
    assert run.check_trace({"spans": spans}) is None
    spans[1]["self_s"] = 1.5
    assert "add up" in run.check_trace({"spans": spans})


def test_missing_sources_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", run.WORK / "nowhere")
    code = run.main(["--workload", "sc-s4", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""

