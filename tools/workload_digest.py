"""Run each benchmark workload's sweep once and digest its records.

    python3 tools/workload_digest.py [--seed N]

For every workload in ``perfbench/workloads.py`` it writes the workload's
CSV with ``perfbench/synth.py`` at the seed (default 1), runs the
workload's ``sweep_config`` through ``ffsel.run_sweep`` in a temporary
directory, and prints the workload name with the ``tools/record_digest.py``
line for its records.  A last line, ``per-fold``, digests a 2-dataset sweep
with selection inside each fold: synth 40x60 and 46x80 at the seed, as
``d40.csv`` and ``d46.csv``; MI, FVALUE and GINI; the default algorithms;
KNN, GNB and RF; alpha 0.5 and 1.3; k 2..7; 3 folds; sweep seed 2.  Two
revisions whose sweeps differ only in timing print the same lines.  It
reads ``perfbench/`` and changes nothing there.
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


def sweep_line(config) -> str:
    """Run `config`'s sweep and return the record_digest line of its records."""
    for _ in ffsel.run_sweep(config):
        pass
    count, digest = record_digest([Path(config.output_dir) / "records.jsonl"])
    return f"{count} records sha256 {digest}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for w in workloads.WORKLOADS.values():
            csv = work / f"{w.dataset}.csv"
            synth.write_csv(csv, synth.make_planted(w.n_rows, w.n_cols, args.seed))
            print(f"{w.name}: {sweep_line(workloads.sweep_config(ffsel, w, csv, work / w.name))}")
        paths = []
        for n_rows, n_cols in ((40, 60), (46, 80)):
            paths.append(work / f"d{n_rows}.csv")
            synth.write_csv(paths[-1], synth.make_planted(n_rows, n_cols, args.seed))
        per_fold = ffsel.SweepConfig(
            datasets=tuple(map(str, paths)),
            output_dir=str(work / "per-fold"),
            estimators=("MI", "FVALUE", "GINI"),
            classifiers=("KNN", "GNB", "RF"),
            alpha_grid=(0.5, 1.3),
            k_min=2,
            k_max=7,
            n_folds=3,
            seed=2,
            select_per_fold=True,
        )
        print(f"per-fold: {sweep_line(per_fold)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
