"""In-process A/B of two forest.py files: the GINI fit and 5-fold CV forests, interleaved.

    python3 tools/forest_ab.py --parent DIR [--reps 21] [--seed 1]

DIR is a checkout of the parent revision (made with ``git archive`` or
``git clone``). Its ``src/ffsel/forest.py`` and this tree's are loaded as
two modules in one process; forest.py imports only NumPy and the standard
library. The data are perfbench's planted synth at the seed
(``perfbench/synth.py``), standardized. The cases:

- ``gini RxC``: a default 100-tree ``RandomForest.fit`` on every column of
  the R x C synth, as GINI relevance fits it, for 62x2000 and 200x5000;
- ``cv k=K planted`` / ``cv k=K noise``: ``fit_forests`` with default
  parameters on the 5 stratified folds' training blocks of the K columns of
  62x2000 with the largest / smallest class-mean gap, then each forest's
  vote on its held-out fold, as RF cross-validation runs it, for K = 2, 10
  and 50.

Each rep runs every case once per side, alternating which side goes first,
and times each run in thread CPU. Every run's importances and predictions
must equal the other side's byte for byte; the tool stops at the first
difference and exits 1. It prints per case each side's median in
milliseconds, the change in percent, and in how many reps this tree read
lower. It reads ``perfbench/`` and writes nothing.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ffsel.data import Dataset, make_folds, standardize  # noqa: E402
from synth import make_planted  # noqa: E402


def load(path: Path, name: str):
    """``path`` (a forest.py) imported as a module of its own named ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def gini_case(x, y):
    """A default GINI relevance fit on every column of ``x``."""

    def run(forest):
        fitted = forest.RandomForest(forest.ForestParams(), 2).fit(x, y)
        return [fitted.feature_importances(), fitted.predict(x)]

    return run


def cv_case(x, y, folds):
    """Default forests on each fold's training rows of ``x``, each voting on
    its held-out rows."""
    blocks = [(x[folds != f], y[folds != f]) for f in range(5)]

    def run(forest):
        fitted = forest.fit_forests(forest.ForestParams(), 2, blocks)
        out = [f.feature_importances() for f in fitted]
        return out + [f.predict(x[folds == i]) for i, f in enumerate(fitted)]

    return run


def cases(seed: int, gini_shapes=((62, 2000), (200, 5000)), cv_shape=(62, 2000), ks=(2, 10, 50)):
    """The named cases at ``seed``, as (name, run) with ``run(forest_module)``
    returning the arrays both sides must agree on."""
    out = []
    for n_rows, n_cols in gini_shapes:
        planted = make_planted(n_rows, n_cols, seed)
        (x,) = standardize(planted.features)
        out.append((f"gini {n_rows}x{n_cols}", gini_case(x, planted.labels)))
    planted = make_planted(*cv_shape, seed)
    (x,) = standardize(planted.features)
    y = planted.labels
    names = tuple(f"g{j}" for j in range(x.shape[1]))
    folds = make_folds(Dataset("synth", x, names, y, ("normal", "tumor")), 5).assignments
    gap = np.abs(x[y == 0].mean(axis=0) - x[y == 1].mean(axis=0))
    by_gap = np.argsort(-gap, kind="stable")
    for k in ks:
        for kind, columns in (("planted", by_gap[:k]), ("noise", by_gap[-k:])):
            out.append((f"cv k={k} {kind}", cv_case(np.ascontiguousarray(x[:, columns]), y, folds)))
    return out


def compare(parent, change, named_cases, reps: int) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Per case, the parent's and this tree's thread-CPU seconds over ``reps``
    interleaved reps; raises AssertionError when the sides disagree."""
    sides = {"parent": parent, "change": change}
    times = {(name, side): [] for name, _ in named_cases for side in sides}
    for rep in range(reps):
        for name, run in named_cases:
            got = {}
            for side in ("parent", "change") if rep % 2 == 0 else ("change", "parent"):
                start = time.thread_time()
                got[side] = run(sides[side])
                times[name, side].append(time.thread_time() - start)
            for a, b in zip(got["parent"], got["change"]):
                if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                    raise AssertionError(f"{name}: the two forest.py files disagree at rep {rep}")
    return [(name, np.array(times[name, "parent"]), np.array(times[name, "change"])) for name, _ in named_cases]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent revision")
    parser.add_argument("--reps", type=int, default=21, help="runs per case and side (default 21)")
    parser.add_argument("--seed", type=int, default=1, help="synth seed (default 1)")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error(f"--reps must be at least 1, got {args.reps}")
    parent_file = args.parent.resolve() / "src" / "ffsel" / "forest.py"
    if not parent_file.is_file():
        parser.error(f"{args.parent} holds no src/ffsel/forest.py")
    parent = load(parent_file, "parent_forest")
    change = load(ROOT / "src" / "ffsel" / "forest.py", "change_forest")
    try:
        rows = compare(parent, change, cases(args.seed), args.reps)
    except AssertionError as err:
        print(err, file=sys.stderr)
        return 1
    print(f"seed {args.seed}, {args.reps} reps, thread CPU medians, importances and predictions byte-equal")
    for name, p, c in rows:
        before, after = np.median(p) * 1e3, np.median(c) * 1e3
        print(f"{name}: parent {before:.2f} ms change {after:.2f} ms {100 * (after / before - 1):+.1f}% "
              f"lower in {int((c < p).sum())} of {len(p)} reps")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
