"""The two workloads: what each round runs, how it is timed and checked.

A run generates the workload's CSV from the seed, then runs whole rounds
for about ``seconds``, at least ``MIN_ROUNDS`` of them. A round sets up
(load, scale, folds), runs one `run_sweep` from an empty output directory,
then one cold selection of each kind at the sweep's largest k on the
round's set-up. A cold selection is `relevance_all` plus the selector with
a fresh redundancy cache, as ``ffsel select`` runs it. A full garbage
collection precedes every timed operation, so none pays for garbage an
earlier one left. Outputs are kept and checked after the timed part, so the
checks cost no measured time and no peak memory.

Times are reported in reference seconds. The host is shared, and the
share of a core it gives this VM changes from minute to minute: a sweep took
3.4-4.5 s for three minutes, then 1.9-2.5 s, with no other process in the VM
and steal time near zero, in CPU time as in wall time. A fixed pure-Python
loop, `calibrate`, runs before and after every timed operation; it slowed
in step with the operations (the sweep took 175-215 times the loop in both
phases). An operation's reference time is its measured time scaled by
``CALIBRATION_REF_S`` over the mean of the two loop times beside it: the time
it would take on a host that runs the loop in ``CALIBRATION_REF_S``, as the
reference VM does at full speed. The loop is the benchmark's own code, so a
change to ffsel moves a reference time as much as the measured one. Each
metric is the median over the run's repetitions; the measured times are
kept in the run record beside them.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import checks
import synth
from tracing import Tracer, Unit

MIN_ROUNDS = 2
CALIBRATION_LOOPS = 150_000
CALIBRATION_REF_S = 0.0105  # `calibrate` at full speed on the reference VM (README)
N_FOLDS = 5
KGROUPS_ALPHA = 0.5
KINDS = ("kbest", "kgroups", "mid", "fcd")
WIDE_ALGORITHMS = ("KBEST", "KGROUPS", "MID", "MIQ", "FCD", "FCQ")


@dataclass(frozen=True)
class Workload:
    name: str
    n_rows: int
    n_cols: int
    k: int  # k of every cold selection, and the sweep's largest k
    sweep: dict  # SweepConfig fields besides datasets, output_dir, k_max
    workers: int = 1

    @property
    def dataset(self) -> str:
        return f"synth{self.n_rows}x{self.n_cols}"

    def small(self) -> "Workload":
        """The same workload on a 40x100 matrix, for the benchmark's tests."""
        return replace(self, n_rows=40, n_cols=100)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's study on the colon shape: default estimators (MI,
        # FVALUE, GINI), default algorithms, KNN/GNB/RF, one KGroups alpha.
        Workload("sweep-colon", 62, 2000, k=2, sweep={"k_min": 2, "alpha_grid": (KGROUPS_ALPHA,)}),
        # No forest work: MI/FVALUE, per-k greedy reruns over the shared
        # redundancy cache, two pool workers.
        Workload(
            "sweep-wide-threads", 200, 1000, k=4, workers=2,
            sweep={
                "estimators": ("MI", "FVALUE"),
                "algorithms": WIDE_ALGORITHMS,
                "classifiers": ("KNN", "GNB"),
                "k_min": 2,
            },
        ),
    )
}


def cold_select(ffsel, kind: str, d, k: int):
    if kind == "fcd":
        rel = ffsel.relevance_all(d, "FVALUE")
        return rel, ffsel.select_mrmr(d, rel, k, "DIFFERENCE", "ABS_PEARSON")
    rel = ffsel.relevance_all(d, "MI")
    if kind == "kbest":
        return rel, ffsel.select_kbest(rel, k)
    if kind == "kgroups":
        return rel, ffsel.select_kgroups(d, rel, k, KGROUPS_ALPHA, ("COSINE",))
    return rel, ffsel.select_mrmr(d, rel, k, "DIFFERENCE", "MI_PAIR")


def verify_selection(ffsel, ref: checks.Reference, kind: str, rel, selected, k: int) -> None:
    estimator = "FVALUE" if kind == "fcd" else "MI"
    checks.check_relevance(rel, ref.relevance(estimator), f"relevance {estimator}")
    if kind == "kbest":
        checks.check_kbest(selected, rel, k)
    elif kind == "kgroups":
        checks.check_kgroups(selected, rel, k, KGROUPS_ALPHA, ref.relevance("COSINE"))
    else:
        redundancy = "ABS_PEARSON" if kind == "fcd" else "MI_PAIR"
        checks.check_mrmr(selected, rel, k, ref.redundancy(redundancy))


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)  # reference seconds
    measured: dict[str, list[float]] = field(default_factory=dict)  # seconds as measured
    selections: list[tuple] = field(default_factory=list)  # (kind, relevance, picks)
    sweeps: list[list[dict]] = field(default_factory=list)
    setups: list[Unit] = field(default_factory=list)
    rounds: list[Unit] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def add(self, metric: str, seconds: float, scale: float) -> None:
        self.measured.setdefault(metric, []).append(seconds)
        self.samples.setdefault(metric, []).append(seconds * scale)

    def attempt(self, what: str, fn):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            self.errors.append(f"{what}: {traceback.format_exc(limit=3)}")
            return None


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


class Clock:
    """Scale factors from measured to reference seconds (module docstring)."""

    def __init__(self, calibrate=calibrate):
        self.calibrate = calibrate
        self.last = calibrate()

    def scale(self) -> float:
        """Call right after an operation: the factor for the time it took."""
        now = self.calibrate()
        factor = 2 * CALIBRATION_REF_S / (self.last + now)
        self.last = now
        return factor


def sweep_config(ffsel, w: Workload, csv: Path, out_dir: Path):
    return ffsel.SweepConfig(datasets=(str(csv),), output_dir=str(out_dir), seed=0, k_max=w.k, **w.sweep)


def measure(ffsel, w: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """Generate, set up and run rounds; returns (outcome, planted, csv, d)."""
    planted = synth.make_planted(w.n_rows, w.n_cols, seed)
    csv = work / f"{w.dataset}.csv"
    synth.write_csv(csv, planted)
    workers_before = os.environ.get("FFSEL_WORKERS")
    os.environ["FFSEL_WORKERS"] = str(w.workers)
    out = Outcome()
    tracer = Tracer(ffsel) if trace else None
    if tracer:
        tracer.install()
    try:
        clock = Clock()
        start = time.perf_counter()
        while len(out.rounds) < MIN_ROUNDS or ends_in_time(time.perf_counter() - start, len(out.rounds), seconds):
            gc.collect()
            with Unit(tracer) as unit:
                t0 = time.perf_counter()
                d = ffsel.standard_scale(ffsel.load_csv(csv))
                ffsel.make_folds(d, N_FOLDS, seed=0)
                t1 = time.perf_counter()
            out.add("setup_s", t1 - t0, clock.scale())
            out.setups.append(unit)
            with Unit(tracer) as unit:
                run_sweep_op(ffsel, w, csv, work / "sweep", out, unit, clock)
                for kind in KINDS:
                    gc.collect()
                    t0 = time.perf_counter()
                    got = out.attempt(kind, lambda: cold_select(ffsel, kind, d, w.k))
                    t1 = time.perf_counter()
                    scale = clock.scale()
                    if got is not None:
                        out.add(f"{kind}_s", t1 - t0, scale)
                        out.selections.append((kind, got[0].values, got[1].selected))
            out.rounds.append(unit)
    finally:
        if tracer:
            tracer.uninstall()
        if workers_before is None:
            del os.environ["FFSEL_WORKERS"]
        else:
            os.environ["FFSEL_WORKERS"] = workers_before
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out, planted, csv, d


def ends_in_time(elapsed: float, rounds: int, seconds: float) -> bool:
    """Whether one more round, as long as the mean so far, would end no
    more than half a round past the deadline."""
    return elapsed + 0.5 * elapsed / rounds < seconds


def run_sweep_op(ffsel, w: Workload, csv: Path, out_dir: Path, out: Outcome, unit: Unit, clock: Clock) -> None:
    """One sweep from an empty output directory.

    With one worker, `run_sweep` computes each cell inside the generator's
    ``next``, so an untraced run times the cells apart and scales each by
    the calibrations beside it, which follows a host whose speed changes
    within the sweep. Pool workers would run on while the main thread
    calibrates, and a traced run's ``sweep.self_s`` would count the loops, so
    those sweeps are scaled once, by the calibrations around the whole.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = sweep_config(ffsel, w, csv, out_dir)
    per_cell = w.workers == 1 and unit.tracer is None
    totals = dict.fromkeys(("wall", "cpu", "ref_wall", "ref_cpu"), 0.0)

    def sweep() -> list:
        records, wall, cpu = [], 0.0, 0.0
        sweep_gen = ffsel.run_sweep(cfg)
        while True:
            t0, c0 = time.perf_counter(), time.process_time()
            record = next(sweep_gen, None)
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            if per_cell or record is None:
                scale = clock.scale()
                totals["wall"] += wall
                totals["cpu"] += cpu
                totals["ref_wall"] += wall * scale
                totals["ref_cpu"] += cpu * scale
                wall = cpu = 0.0
            if record is None:
                return records
            records.append(record)

    gc.collect()
    start = time.perf_counter()
    records = out.attempt("sweep", sweep)
    if records is None:
        return
    out.add("sweep_s", totals["wall"], totals["ref_wall"] / totals["wall"])
    out.add("sweep_cpu_s", totals["cpu"], totals["ref_cpu"] / totals["cpu"])
    # Traced sweeps are one stretch, so this is their interval without the loop.
    unit.sweep, unit.records = (start, start + totals["wall"]), len(records)
    out.sweeps.append([r.as_dict() for r in records])


def verify(ffsel, w: Workload, out: Outcome, planted, csv: Path, d) -> list[str]:
    """Check every kept output; returns the failures, first per kind."""
    problems: list[str] = []

    def guard(what: str, fn) -> None:
        try:
            fn()
        except checks.CheckFailed as exc:
            problems.append(f"{what}: {exc}")

    guard("load", lambda: checks.check_dataset(d, csv))
    ref = checks.Reference(d)
    guard("cosine", lambda: checks.check_relevance(
        ffsel.relevance_all(d, "COSINE").values, ref.relevance("COSINE"), "relevance COSINE"))
    first: dict[str, tuple] = {}
    for kind, rel, picks in out.selections:
        if kind not in first:
            first[kind] = (rel, picks)
            guard(kind, lambda: verify_selection(ffsel, ref, kind, rel, picks, w.k))
        elif picks != first[kind][1] or not (rel == first[kind][0]).all():
            problems.append(f"{kind}: output changed between rounds")
    if out.sweeps:
        cfg = sweep_config(ffsel, w, csv, csv.parent)
        guard("sweep", lambda: checks.check_sweep(out.sweeps[0], cfg, planted.majority_rate))
        base = checks.comparable(out.sweeps[0])
        for rows in out.sweeps[1:]:
            if checks.comparable(rows) != base:
                problems.append("sweep: records differ between rounds beyond timing fields")
    return problems


def recorded_selection_cpu(out: Outcome, w: Workload) -> dict[str, float]:
    """Median `selection_cpu_seconds` the sweep recorded for each greedy
    variant at the largest k, to set beside the cold cost of the same pick."""
    costs: dict[str, list[float]] = {}
    for rows in out.sweeps:
        for row in rows:
            if row["algorithm"].startswith("MRMR") and row["k"] == w.k and row["classifier"] == rows[0]["classifier"]:
                costs.setdefault(row["variant"], []).append(row["selection_cpu_seconds"])
    return {variant: statistics.median(v) for variant, v in sorted(costs.items())}


def end_to_end(out: Outcome) -> dict[str, float]:
    metrics = {name: statistics.median(values) for name, values in out.samples.items()}
    metrics["peak_rss_mb"] = out.peak_rss_mb
    return metrics
