"""Run each benchmark workload's sweep once and digest its records.

    python3 tools/workload_digest.py [--seed N] [--check FILE]

For every workload in ``perfbench/workloads.py`` it writes the workload's
CSV with ``perfbench/synth.py`` at the seed (default 1), runs the
workload's ``sweep_config`` through ``ffsel.run_sweep`` in a temporary
directory, and prints the workload name with the ``tools/record_digest.py``
line for its records.  The next line, ``per-fold``, digests a 2-dataset sweep
with selection inside each fold: synth 40x60 and 46x80 at the seed, as
``d40.csv`` and ``d46.csv``; MI, FVALUE and GINI; the default algorithms;
KNN, GNB and RF; alpha 0.5 and 1.3; k 2..7; 3 folds; sweep seed 2.  The
next line, ``scale-per-fold``, digests the same sweep with
``scale_per_fold=True``, so each fold's columns are standardized on its own
training rows.  The next line, ``fine-bins``, digests a sweep on a 200x60
synth at the seed with ``mi_bins=16``: MI; KBEST, KGROUPS, MID, MIQ and
MIFS; KNN; alpha 0.5 and 1.3; k 2..10; sweep seed 2.  At 16 bins most of
its pair tables hold more than 128 nonzero cells, so MI scoring splits
their runs of terms as ``np.sum`` does.  The next line, ``coarse-bins``,
digests the same sweep with ``mi_bins=3``, so every label and pair table
has fewer than 8 columns and both marginals of each table sum in a left
fold.  The next line, ``multi-class``,
digests three sweeps over two 3-class designs drawn here with NumPy at the
seed (perfbench's synth is two-class): ``m3.csv``, 60x40 with classes of
24, 21 and 15 rows, and ``m3s.csv``, 49x40 with classes of 26, 22 and 1
row, so the lone row's fold trains without its class.  Each sweep runs MI
and FVALUE; the default algorithms; KNN and GNB; alpha 0.5 and 1.3; k
2..6; sweep seed 2: once pooled, once pooled with ``scale_per_fold=True``
and once with selection inside each fold.  The last line,
``multi-class-rf``, digests the same three sweeps with RF as the only
classifier, so 3-class forests, and a fold's forest trained without a
class, are covered.  Two revisions whose sweeps differ only in timing
print the same lines.  It reads ``perfbench/`` and changes nothing there.

With ``--check FILE`` it also compares the lines with FILE's, by workload
name, and exits 1 naming each line that differs.  ``tools/workload_digests.txt``
holds the seed-1 lines; digests may differ under another BLAS or NumPy.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import warnings
from collections.abc import Iterator
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

import numpy as np  # noqa: E402

import ffsel  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
from record_digest import record_digest  # noqa: E402


def sweep_line(*configs) -> str:
    """Run each config's sweep and return the record_digest line of all
    their records."""
    for config in configs:
        for _ in ffsel.run_sweep(config):
            pass
    count, digest = record_digest([Path(c.output_dir) / "records.jsonl" for c in configs])
    return f"{count} records sha256 {digest}"


def write_multi_class(path: Path, class_sizes, n_cols: int, seed: int) -> None:
    """A CSV of standard normal columns whose first six carry a per-class
    shift, the rows of class c labelled by the c-th letter."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(len(class_sizes)), class_sizes))
    x = rng.normal(size=(labels.size, n_cols))
    x[:, :6] += rng.uniform(-2.5, 2.5, size=(len(class_sizes), 6))[labels]
    lines = [",".join([f"g{j}" for j in range(n_cols)] + ["class"])]
    for row, label in zip(x, labels):
        lines.append(",".join([f"{v:.6g}" for v in row] + ["abc"[label]]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def digest_lines(seed: int) -> Iterator[str]:
    """The line of each workload's sweep, then the per-fold,
    scale-per-fold, fine-bins, coarse-bins, multi-class and multi-class-rf
    lines, at `seed`."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for w in workloads.WORKLOADS.values():
            csv = work / f"{w.dataset}.csv"
            synth.write_csv(csv, synth.make_planted(w.n_rows, w.n_cols, seed))
            yield f"{w.name}: {sweep_line(workloads.sweep_config(ffsel, w, csv, work / w.name))}"
        paths = []
        for n_rows, n_cols in ((40, 60), (46, 80)):
            paths.append(work / f"d{n_rows}.csv")
            synth.write_csv(paths[-1], synth.make_planted(n_rows, n_cols, seed))
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
        yield f"per-fold: {sweep_line(per_fold)}"
        scaled = replace(per_fold, output_dir=str(work / "scale-per-fold"), scale_per_fold=True)
        yield f"scale-per-fold: {sweep_line(scaled)}"
        fine = work / "fine.csv"
        synth.write_csv(fine, synth.make_planted(200, 60, seed))
        fine_bins = ffsel.SweepConfig(
            datasets=(str(fine),),
            output_dir=str(work / "fine-bins"),
            estimators=("MI",),
            algorithms=("KBEST", "KGROUPS", "MID", "MIQ", "MIFS"),
            classifiers=("KNN",),
            alpha_grid=(0.5, 1.3),
            k_min=2,
            k_max=10,
            seed=2,
            mi_bins=16,
        )
        yield f"fine-bins: {sweep_line(fine_bins)}"
        coarse_bins = replace(fine_bins, output_dir=str(work / "coarse-bins"), mi_bins=3)
        yield f"coarse-bins: {sweep_line(coarse_bins)}"
        designs = []
        for name, sizes in (("m3", (24, 21, 15)), ("m3s", (26, 22, 1))):
            designs.append(work / f"{name}.csv")
            write_multi_class(designs[-1], sizes, 40, seed)
        pooled = ffsel.SweepConfig(
            datasets=tuple(map(str, designs)),
            output_dir=str(work / "multi-class"),
            estimators=("MI", "FVALUE"),
            alpha_grid=(0.5, 1.3),
            k_min=2,
            k_max=6,
            seed=2,
        )
        for name, classifiers in (("multi-class", ("KNN", "GNB")), ("multi-class-rf", ("RF",))):
            base = replace(pooled, output_dir=str(work / name), classifiers=classifiers)
            with warnings.catch_warnings():  # m3s's lone row spans one fold of five
                warnings.simplefilter("ignore", UserWarning)
                line = sweep_line(
                    base,
                    replace(base, output_dir=str(work / f"{name}-scaled"), scale_per_fold=True),
                    replace(base, output_dir=str(work / f"{name}-per-fold"), select_per_fold=True),
                )
            yield f"{name}: {line}"


def by_name(lines) -> dict[str, str]:
    """Digest lines keyed by the name before their first ": "."""
    return {name: rest for name, _, rest in (line.partition(": ") for line in lines if line.strip())}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="exit 1, naming each line that differs from FILE's")
    args = parser.parse_args(argv)
    if args.check is not None:
        try:
            want = by_name(args.check.read_text(encoding="utf-8").splitlines())
        except (OSError, UnicodeDecodeError) as exc:
            parser.error(f"cannot read {args.check}: {exc}")
    lines = []
    for line in digest_lines(args.seed):
        print(line, flush=True)
        lines.append(line)
    if args.check is None:
        return 0
    got = by_name(lines)
    differ = [name for name in {**want, **got} if want.get(name) != got.get(name)]
    for name in differ:
        print(f"{name} differs: {args.check} has {want.get(name, 'no line')!r}, "
              f"this run {got.get(name, 'no line')!r}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
