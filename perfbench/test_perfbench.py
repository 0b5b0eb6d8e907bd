"""Tests of the benchmark itself: each output check bites, small runs pass.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ffsel  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, per_layer  # noqa: E402

K = 6


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    planted = synth.make_planted(40, 100, seed=5)
    path = tmp_path_factory.mktemp("data") / "small.csv"
    synth.write_csv(path, planted)
    d = ffsel.standard_scale(ffsel.load_csv(path))
    return planted, path, d, checks.Reference(d)


def fails(fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckFailed:
        return True
    return False


def test_load_check_rejects_another_matrix(data):
    planted, path, d, _ = data
    checks.check_dataset(d, path)
    other = synth.make_planted(40, 100, seed=6)
    other_path = path.with_name("other.csv")
    synth.write_csv(other_path, other)
    assert fails(checks.check_dataset, d, other_path)


@pytest.mark.parametrize("estimator", ["MI", "FVALUE", "COSINE"])
def test_relevance_matches_reference_and_a_nudge_fails(data, estimator):
    _, _, d, ref = data
    got = ffsel.relevance_all(d, estimator).values
    checks.check_relevance(got, ref.relevance(estimator), estimator)
    nudged = got.copy()
    nudged[7] += 1e-6 * max(1.0, abs(nudged[7]))
    assert fails(checks.check_relevance, nudged, ref.relevance(estimator), estimator)


def swap_in_worst(selected, rel):
    """Replace the last pick with the least relevant feature."""
    worst = int(np.argmin(rel))
    assert worst not in selected
    return tuple(selected[:-1]) + (worst,)


def test_kbest_with_one_pick_swapped_fails(data):
    _, _, d, _ = data
    rel = ffsel.relevance_all(d, "MI").values
    picks = ffsel.select_kbest(ffsel.relevance_all(d, "MI"), K).selected
    checks.check_kbest(picks, rel, K)
    assert fails(checks.check_kbest, swap_in_worst(picks, rel), rel, K)


def test_kgroups_with_two_picks_from_one_bin_fails(data):
    _, _, d, ref = data
    rel_vec = ffsel.relevance_all(d, "MI")
    rel = rel_vec.values
    alpha = workloads.KGROUPS_ALPHA
    picks = ffsel.select_kgroups(d, rel_vec, K, alpha, ("COSINE",)).selected
    breaker = ref.relevance("COSINE")
    checks.check_kgroups(picks, rel, K, alpha, breaker)
    bins = checks.kgroups_bins(rel, K, alpha)
    crowded = max(np.unique(bins), key=lambda b: np.count_nonzero(bins == b))
    runner_up = next(int(i) for i in np.argsort(-rel) if bins[i] == crowded and int(i) not in picks)
    extra = tuple(sorted(picks + (runner_up,), key=lambda i: -rel[i]))
    assert fails(checks.check_kgroups, extra, rel, K, alpha, breaker)
    assert fails(checks.check_kgroups, swap_in_worst(picks, rel), rel, K, alpha, breaker)


@pytest.mark.parametrize("estimator,redundancy", [("MI", "MI_PAIR"), ("FVALUE", "ABS_PEARSON")])
def test_mrmr_with_one_pick_swapped_fails(data, estimator, redundancy):
    _, _, d, ref = data
    rel_vec = ffsel.relevance_all(d, estimator)
    picks = ffsel.select_mrmr(d, rel_vec, K, "DIFFERENCE", redundancy).selected
    replay = ref.redundancy(redundancy)
    checks.check_mrmr(picks, rel_vec.values, K, replay)
    assert fails(checks.check_mrmr, swap_in_worst(picks, rel_vec.values), rel_vec.values, K, replay)
    swapped = (picks[0], picks[2], picks[1]) + tuple(picks[3:])
    assert fails(checks.check_mrmr, swapped, rel_vec.values, K, replay)


def test_sweep_with_a_missing_or_duplicated_cell_fails(data, tmp_path):
    planted, path, _, _ = data
    w = workloads.WORKLOADS["sweep-wide-threads"].small()
    cfg = workloads.sweep_config(ffsel, w, path, tmp_path / "sweep")
    rows = [r.as_dict() for r in ffsel.run_sweep(cfg)]
    checks.check_sweep(rows, cfg, planted.majority_rate)
    assert fails(checks.check_sweep, rows[:-1], cfg, planted.majority_rate)
    assert fails(checks.check_sweep, rows + rows[:1], cfg, planted.majority_rate)
    shifted = [dict(rows[0], k=rows[0]["k"] + 1)] + rows[1:]
    assert fails(checks.check_sweep, shifted, cfg, planted.majority_rate)
    blind = [dict(row, cv_mean_accuracy=planted.majority_rate) for row in rows]
    assert fails(checks.check_sweep, blind, cfg, planted.majority_rate)


def test_clock_scales_by_the_calibrations_beside_an_operation():
    loops = iter([0.02, 0.04, 0.01])
    clock = workloads.Clock(lambda: next(loops))
    assert clock.scale() == pytest.approx(workloads.CALIBRATION_REF_S / 0.03)
    assert clock.scale() == pytest.approx(workloads.CALIBRATION_REF_S / 0.025)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_traced_run_passes_every_check(name, tmp_path):
    w = workloads.WORKLOADS[name].small()
    originals = (ffsel.sweep.load_csv, ffsel.RandomForest.fit, ffsel.RedundancyCache.get)
    workers = os.environ.get("FFSEL_WORKERS")
    out, planted, csv, d = workloads.measure(ffsel, w, 3, 0.0, True, tmp_path)
    assert os.environ.get("FFSEL_WORKERS") == workers
    assert (ffsel.sweep.load_csv, ffsel.RandomForest.fit, ffsel.RedundancyCache.get) == originals
    assert out.failed == 0, out.errors
    assert workloads.verify(ffsel, w, out, planted, csv, d) == []
    e2e = workloads.end_to_end(out)
    assert all(e2e[metric] > 0 for metric, _ in run.END_TO_END)
    layers = per_layer(out.setups, out.rounds)
    assert set(layers) == {metric for metric, _ in PER_LAYER}
    assert layers["data.load_csv_s"] > 0 and layers["relevance.mi_s"] > 0
    assert layers["sweep.records"] == len(checks.expected_cells(workloads.sweep_config(ffsel, w, csv, tmp_path)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_untraced_run_passes_every_check(name, tmp_path):
    w = workloads.WORKLOADS[name].small()
    out, planted, csv, d = workloads.measure(ffsel, w, 3, 0.0, False, tmp_path)
    assert out.failed == 0, out.errors
    assert workloads.verify(ffsel, w, out, planted, csv, d) == []
    e2e = workloads.end_to_end(out)
    assert all(e2e[metric] > 0 for metric, _ in run.END_TO_END)
    assert out.measured.keys() == out.samples.keys()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep-colon", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
