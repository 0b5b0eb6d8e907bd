"""Run one benchmark workload for a fixed number of rounds and print its peak RSS.

    python3 tools/fixed_rounds_rss.py --workload W --rounds N [--seed 1]

perfbench's ``peak_rss_mb`` is read after every round a run fits in its
time budget, and each round keeps its outputs for the checks, so the
figure grows with the round count: a faster revision fits more rounds and
reads as using more memory. This script sets ``workloads.MIN_ROUNDS`` to
``--rounds`` and calls ``workloads.measure`` with no time budget, so the
run is exactly that many untraced rounds, on the workload's CSV written
at the seed (default 1) in a temporary directory. It prints the round
count, the failed-operation count and the process's peak RSS in MB, as
``workloads.measure`` reads it, and exits 1 if an operation failed. The
peak covers the whole process, so each run measures one workload in a
fresh process. It reads ``perfbench/`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import ffsel  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--rounds", type=int, required=True, help="rounds to run (at least 1)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, got {args.rounds}")
    workloads.MIN_ROUNDS = args.rounds
    with tempfile.TemporaryDirectory() as tmp:
        out, *_ = workloads.measure(ffsel, workloads.WORKLOADS[args.workload], args.seed, 0, False, Path(tmp))
    print(f"{args.workload}: rounds {len(out.rounds)} failed {out.failed} peak_rss_mb {out.peak_rss_mb:.2f}")
    return 1 if out.failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
