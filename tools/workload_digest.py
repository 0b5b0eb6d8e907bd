"""Run each benchmark workload's sweep once and digest its records.

    python3 tools/workload_digest.py [--seed N]

For every workload in ``perfbench/workloads.py`` it writes the workload's
CSV with ``perfbench/synth.py`` at the seed (default 1), runs the
workload's ``sweep_config`` through ``ffsel.run_sweep`` in a temporary
directory, and prints the workload name with the ``tools/record_digest.py``
line for its records.  Two revisions whose sweeps differ only in timing
print the same lines.  It reads ``perfbench/`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

import ffsel  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
from record_digest import record_digest  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args(argv)
    for w in workloads.WORKLOADS.values():
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            csv = work / f"{w.dataset}.csv"
            synth.write_csv(csv, synth.make_planted(w.n_rows, w.n_cols, args.seed))
            out_dir = work / "sweep"
            for _ in ffsel.run_sweep(workloads.sweep_config(ffsel, w, csv, out_dir)):
                pass
            count, digest = record_digest([out_dir / "records.jsonl"])
        print(f"{w.name}: {count} records sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
