#!/usr/bin/env python3
"""Run the full CLI verification suite over a battery of job configurations.

Each configuration exercises a different coefficient family and action and is
read from ``tests/data/golden/<name>.cfg``; the reports are written to the
given output directory (default: ./verification).  With seed 0 each report
equals ``tests/data/golden/<name>.verify.txt``.

Usage: python3 scripts/run_verification.py [--seed N] [--outdir DIR]
"""

import argparse
import pathlib
import sys

from skewhecke.cli import main as cli_main

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "golden"
CONFIGS = ("classical_s3", "classical_s4_d4", "functions_s3",
           "group_algebra_conjugation", "polynomial_s3", "functions_s3_gf5")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir", default="verification")
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    failed = []
    for name in CONFIGS:
        report_path = outdir / f"{name}.txt"
        code = cli_main([
            "verify", "all",
            "--config", str(GOLDEN / f"{name}.cfg"),
            "--seed", str(args.seed),
            "--out", str(report_path),
        ])
        status = "ok" if code == 0 else f"FAILED (exit {code})"
        print(f"{name}: {status} -> {report_path}")
        if code != 0:
            failed.append(name)
    if failed:
        print("failures: " + ", ".join(failed))
        return 1
    print("all configurations verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
