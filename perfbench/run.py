"""Run one workload of the ffsel benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep-colon --seed 1 --seconds 50 --trace 0

Run it from anywhere inside a checkout: it imports ffsel from the
checkout's ``src/`` and refuses to run (exit 1, no result) without it. It
writes its inputs under ``perfbench/out/`` and removes them at the end,
keeping one JSON file per run there with the run's metadata and samples.

Standard output ends with two lines: the run metadata, then the result
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

from tracing import PER_LAYER, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("sweep_cpu_s", "s"),
    ("kbest_s", "s"),
    ("kgroups_s", "s"),
    ("mid_s", "s"),
    ("fcd_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_ffsel():
    src = ROOT / "src"
    if not (src / "ffsel" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ffsel package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import ffsel

    if Path(ffsel.__file__).resolve().parent != (src / "ffsel").resolve():
        sys.exit(f"perfbench: imported ffsel from {ffsel.__file__}, not from {src}")
    return ffsel


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_build(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def metadata(np, args, w) -> dict:
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": [w.n_rows, w.n_cols],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(np),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "FFSEL_WORKERS": str(w.workers),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_revision": git_revision(),
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ffsel = import_ffsel()
    import numpy as np

    w = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        out, planted, csv, d = workloads.measure(ffsel, w, args.seed, args.seconds, bool(args.trace), work)
        problems = workloads.verify(ffsel, w, out, planted, csv, d)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = metadata(np, args, w)
    meta["rounds"] = len(out.rounds)
    meta["samples"] = out.samples
    meta["measured"] = out.measured
    meta["recorded_selection_cpu_s"] = workloads.recorded_selection_cpu(out, w)
    if args.trace:
        metrics, units = per_layer(out.setups, out.rounds), dict(PER_LAYER)
        meta["traced_sweep_s"] = workloads.end_to_end(out).get("sweep_s")
    else:
        metrics, units = workloads.end_to_end(out), dict(END_TO_END)
    for line in out.errors + problems:
        print(line, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    record = {"meta": meta, "problems": problems, "errors": out.errors, "result": result}
    if args.trace:
        record["rounds"] = [u.layer_values() for u in out.rounds]
    path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
