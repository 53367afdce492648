#!/usr/bin/env python3
"""Run one ``skewhecke`` CLI command in this process under a peak-RSS bound.

The command's output goes where the CLI sends it; the peak resident set size
of the process is printed on stderr as ``peak RSS <x> MB``.  The exit status
is the CLI's, or 1 when the CLI succeeded but the peak passed the bound.

Usage: python3 scripts/peak_rss.py <max_mb> <cli args...>
"""

import resource
import sys

from skewhecke import cli


def main(argv):
    max_mb = float(argv[0])
    code = cli.main(argv[1:])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.1f} MB", file=sys.stderr)
    return code or int(peak_mb > max_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
