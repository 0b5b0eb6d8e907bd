"""Run a benchmark workload in alternating pairs, parent checkout against this tree.

    python3 tools/ab_pairs.py --parent DIR --workload W --seed S --pairs N --seconds T

DIR is a checkout of the parent revision (made with ``git archive`` or
``git clone``). Each pair runs ``perfbench/run.py --trace 0`` once from DIR
and once from this tree, each in a fresh process; even pairs run the parent
first, odd pairs this tree first. For each end-to-end metric that this
tree's ``BENCHMARK.json`` names, it prints the parent's median with its
quartiles, this tree's median, the change in percent, and in how many pairs
this tree read lower. It exits 1 if any run exited non-zero, printed no
result, was not correct or had a failed operation.

It writes nothing itself: each side's ``run.py`` keeps its run file under
its own ``perfbench/out/``, as every benchmark run does.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_once(root: Path, workload: str, seed: int, seconds: float) -> str:
    """The result line of one untraced ``perfbench/run.py`` run from ``root``,
    or ``""`` if the run exited non-zero."""
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"{root}: run.py exited {done.returncode}: {done.stderr.strip()}", file=sys.stderr)
        return ""
    lines = done.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def summarize(names: list[str], pairs: list[tuple[str, str]]) -> tuple[list[str], bool]:
    """One line per metric of ``names`` over ``pairs`` of (parent, change)
    result lines, and whether every run was correct with no failed operation.

    A result line is the last line ``perfbench/run.py`` prints: JSON with
    ``correct``, ``failed`` and ``metrics``. An empty or unreadable line
    counts as a bad run. A metric is summarized over the pairs in which
    both runs report it; "lower" counts pairs where the change read
    strictly lower.
    """
    ok = True
    results = []
    for pair in pairs:
        parsed = []
        for line in pair:
            try:
                result = json.loads(line)
            except ValueError:
                result = None
            if not isinstance(result, dict) or result.get("correct") is not True or result.get("failed") != 0:
                ok = False
            parsed.append(result.get("metrics", {}) if isinstance(result, dict) else {})
        results.append(parsed)
    out = []
    for name in names:
        both = [(p[name], c[name]) for p, c in results if name in p and name in c]
        if not both:
            out.append(f"{name}: no pair reports it")
            continue
        parent = np.array([p["value"] for p, _ in both], dtype=np.float64)
        change = np.array([c["value"] for _, c in both], dtype=np.float64)
        q1, median, q3 = np.percentile(parent, [25, 50, 75])
        new = np.median(change)
        pct = 100.0 * (new - median) / median
        unit = both[0][0].get("unit", "")
        lower = int((change < parent).sum())
        out.append(
            f"{name} ({unit}): parent {median:.4g} [{q1:.4g}, {q3:.4g}] change {new:.4g} "
            f"{pct:+.1f}% lower in {lower} of {len(both)} pairs"
        )
    return out, ok


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True, help="pairs to run (at least 1)")
    parser.add_argument("--seconds", type=float, required=True, help="run.py --seconds for every run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"{parent} holds no perfbench/run.py")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in benchmark["end_to_end"]]
    pairs = []
    for i in range(args.pairs):
        sides = {}
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            root = parent if side == "parent" else ROOT
            sides[side] = run_once(root, args.workload, args.seed, args.seconds)
            print(f"pair {i + 1}/{args.pairs} {side}: {sides[side]}", file=sys.stderr)
        pairs.append((sides["parent"], sides["change"]))
    lines, ok = summarize(names, pairs)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    for line in lines:
        print(line)
    if not ok:
        print("a run was incorrect, failed an operation or gave no result", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
