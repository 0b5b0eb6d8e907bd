"""Report tables from benchmark records, each a list of rows."""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .records import BenchmarkRecord
from .selectors import MRMR_D, MRMR_Q

__all__ = ["REPORT_COLUMNS", "algorithm_label", "best_config_report", "n_selected_distributions"]

# The columns of each `best_config_report` table, in row-key order; a CSV
# of a table with no rows still carries this header.
REPORT_COLUMNS: dict[str, tuple[str, ...]] = {
    "best_overall": (
        "dataset", "estimator", "algorithm", "best_accuracy", "cv_sd_across_folds",
        "k", "alpha", "classifier", "n_selected",
    ),
    "per_classifier_best": (
        "dataset", "estimator", "algorithm", "classifier", "best_accuracy", "k", "alpha", "n_selected",
    ),
    "per_classifier_summary": (
        "dataset", "estimator", "algorithm", "mean_best_accuracy", "sd_across_classifiers", "n_classifiers",
    ),
    "pairwise_wins": ("estimator", "algorithm_a", "algorithm_b", "wins_a", "wins_b", "draws"),
}


def algorithm_label(rec: BenchmarkRecord) -> str:
    """Table label: named greedy variants keep their short name."""
    if rec.algorithm in (MRMR_D, MRMR_Q) and rec.variant:
        return rec.variant
    return rec.algorithm


def _alpha_key(alpha: float | None) -> float:
    return -1.0 if alpha is None else alpha


def _pick_best(cells: Sequence[BenchmarkRecord]) -> BenchmarkRecord:
    # Best accuracy; ties resolved toward the smallest k, then smallest
    # alpha, then classifier name, so reports are reproducible.
    return min(
        cells,
        key=lambda r: (-r.cv_mean_accuracy, r.k, _alpha_key(r.alpha), r.classifier),
    )


def _by_classifier(records: Iterable[BenchmarkRecord]) -> dict[tuple[str, str, str, str], list[BenchmarkRecord]]:
    """Records grouped by (dataset, estimator, algorithm label, classifier), in key order."""
    groups: dict[tuple[str, str, str, str], list[BenchmarkRecord]] = {}
    for rec in records:
        key = (rec.dataset, rec.estimator, algorithm_label(rec), rec.classifier)
        groups.setdefault(key, []).append(rec)
    return {key: groups[key] for key in sorted(groups)}


def best_config_report(records: Iterable[BenchmarkRecord]) -> dict[str, list[dict]]:
    """Aggregate records into best-configuration and win/draw tables.

    Accuracies are compared for wins and draws after rounding to two
    decimals of percent.  Among equal-accuracy cells the smallest k (then
    smallest alpha) is reported.
    """
    groups = _by_classifier(records)
    if not groups:
        raise ValueError("no records to report on")

    per_classifier_best = []
    bests: dict[tuple[str, str, str], list[BenchmarkRecord]] = {}  # one per classifier
    for (dataset, estimator, label, clf), cells in groups.items():
        best = _pick_best(cells)
        bests.setdefault((dataset, estimator, label), []).append(best)
        per_classifier_best.append(
            {
                "dataset": dataset,
                "estimator": estimator,
                "algorithm": label,
                "classifier": clf,
                "best_accuracy": best.cv_mean_accuracy,
                "k": best.k,
                "alpha": best.alpha,
                "n_selected": best.n_selected,
            }
        )

    best_overall = []
    per_classifier_summary = []
    for (dataset, estimator, label), clf_bests in bests.items():
        best = _pick_best(clf_bests)
        best_overall.append(
            {
                "dataset": dataset,
                "estimator": estimator,
                "algorithm": label,
                "best_accuracy": best.cv_mean_accuracy,
                "cv_sd_across_folds": best.cv_sd,
                "k": best.k,
                "alpha": best.alpha,
                "classifier": best.classifier,
                "n_selected": best.n_selected,
            }
        )
        arr = np.asarray([r.cv_mean_accuracy for r in clf_bests])
        per_classifier_summary.append(
            {
                "dataset": dataset,
                "estimator": estimator,
                "algorithm": label,
                "mean_best_accuracy": float(arr.mean()),
                "sd_across_classifiers": float(arr.std()),
                "n_classifiers": int(arr.size),
            }
        )

    # Win/draw tallies between algorithm labels sharing an estimator, over
    # the datasets both labels have records on.
    rounded: dict[str, dict[str, dict[str, float]]] = {}  # estimator -> label -> dataset
    for row in best_overall:
        by_dataset = rounded.setdefault(row["estimator"], {}).setdefault(row["algorithm"], {})
        by_dataset[row["dataset"]] = round(100 * row["best_accuracy"], 2)
    pairwise = []
    for estimator, by_label in sorted(rounded.items()):
        for a, b in itertools.combinations(sorted(by_label), 2):
            shared = by_label[a].keys() & by_label[b].keys()
            wins_a = sum(by_label[a][ds] > by_label[b][ds] for ds in shared)
            wins_b = sum(by_label[a][ds] < by_label[b][ds] for ds in shared)
            pairwise.append(
                {
                    "estimator": estimator,
                    "algorithm_a": a,
                    "algorithm_b": b,
                    "wins_a": wins_a,
                    "wins_b": wins_b,
                    "draws": len(shared) - wins_a - wins_b,
                }
            )

    return {
        "best_overall": best_overall,
        "per_classifier_best": per_classifier_best,
        "per_classifier_summary": per_classifier_summary,
        "pairwise_wins": pairwise,
    }


def n_selected_distributions(records: Iterable[BenchmarkRecord]) -> list[dict]:
    """Boxplot-ready n_selected distributions per classifier and algorithm."""
    return [
        {
            "dataset": dataset,
            "estimator": estimator,
            "algorithm": label,
            "classifier": clf,
            "n_selected": [
                r.n_selected for r in sorted(cells, key=lambda r: (r.k, _alpha_key(r.alpha)))
            ],
        }
        for (dataset, estimator, label, clf), cells in _by_classifier(records).items()
    ]
