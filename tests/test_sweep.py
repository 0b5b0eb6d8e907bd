"""Benchmark sweep: configuration, resumable runs, and report aggregation."""

import json
import logging

import numpy as np
import pytest

from conftest import write_csv
from ffsel import (
    BenchmarkRecord,
    DataError,
    SweepConfig,
    algorithm_label,
    best_config_report,
    n_selected_distributions,
    read_records,
    run_sweep,
)
from ffsel.selectors import KBEST, KGROUPS, MRMR_D, MRMR_Q
from ffsel.sweep import WORKERS_ENV


def blob_csv(tmp_path, name="blobs.csv", n_rows=20, n_cols=6, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], n_rows // 2)
    x = rng.normal(size=(n_rows, n_cols))
    x[:, 0] += 3.0 * labels  # one informative column keeps accuracy non-trivial
    return write_csv(tmp_path / name, x, labels)


def tiny_config(tmp_path, **over):
    cfg = dict(
        datasets=(str(blob_csv(tmp_path)),),
        output_dir=str(tmp_path / "out"),
        estimators=("MI",),
        algorithms=(KBEST, "MID", KGROUPS, "FCQ"),
        k_min=2,
        k_max=3,
        alpha_grid=(1.0,),
        classifiers=("KNN", "GNB"),
        n_folds=3,
        seed=1,
    )
    cfg.update(over)
    return SweepConfig(**cfg)


def mk_record(**over):
    base = dict(dataset="d1", algorithm=KGROUPS, variant="alpha=1",
                estimator="MI", classifier="KNN", k=5, alpha=1.0,
                n_selected=5, cv_mean_accuracy=0.9, cv_sd=0.01,
                selection_cpu_seconds=0.1, training_cpu_seconds=0.1, seed=0)
    base.update(over)
    return BenchmarkRecord(**base)


class TestSweepConfig:
    """Mapping-based construction and validation."""

    def test_from_mapping_normalizes(self, tmp_path):
        cfg = SweepConfig.from_mapping({
            "datasets": ["a.csv"],
            "output_dir": str(tmp_path),
            "estimators": ["mi", "fvalue"],
            "algorithms": ["kbest", "mid"],
            "k_range": [2, 9],
            "alpha_grid": [0.5, 1],
            "classifiers": ["knn"],
        })
        assert cfg.estimators == ("MI", "FVALUE")
        assert cfg.algorithms == (KBEST, "MID")
        assert cfg.k_min == 2 and cfg.k_max == 9
        assert cfg.alpha_grid == (0.5, 1.0)
        assert cfg.classifiers == ("KNN",)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SweepConfig.from_mapping({
                "datasets": ["a.csv"], "output_dir": str(tmp_path),
                "n_nieghbors": 3,
            })

    def test_validate_rejects_bad_values(self, tmp_path):
        base = dict(datasets=("a.csv",), output_dir=str(tmp_path))
        with pytest.raises(ValueError):
            SweepConfig(**base, estimators=("CHI2",)).validate()
        with pytest.raises(ValueError):
            SweepConfig(**base, k_min=5, k_max=2).validate()
        with pytest.raises(ValueError):
            SweepConfig(**base, algorithms=("LASSO",)).validate()
        with pytest.raises(ValueError):
            SweepConfig(**base, n_folds=1).validate()
        with pytest.raises(ValueError):
            SweepConfig(**base, alpha_grid=(0.0,)).validate()
        with pytest.raises(ValueError):
            SweepConfig(**base, mi_bins=0).validate()
        with pytest.raises(ValueError):
            SweepConfig(**base, k_neighbors=0).validate()

    def test_as_dict_round_trips(self, tmp_path):
        cfg = tiny_config(tmp_path)
        again = SweepConfig.from_mapping(cfg.as_dict())
        assert again == cfg

    def test_defaults_cover_protocol_grid(self, tmp_path):
        cfg = SweepConfig(datasets=("a.csv",), output_dir=str(tmp_path))
        assert cfg.k_min == 2 and cfg.k_max == 100
        assert len(cfg.alpha_grid) == 7
        assert cfg.n_folds == 5
        assert cfg.tie_breaker_map["MI"] == ("COSINE",)
        assert cfg.tie_breaker_map["FVALUE"] == ("MI",)
        assert cfg.tie_breaker_map["GINI"] == ("MI",)


class TestRunSweep:
    """End-to-end sweep over a small on-disk dataset."""

    def test_record_count_and_fields(self, tmp_path):
        cfg = tiny_config(tmp_path)
        stats = {}
        records = list(run_sweep(cfg, stats))
        # 4 algorithm cells per k (KBEST, MID, KGROUPS, FCQ), 2 ks, 2 classifiers
        assert len(records) == 16
        assert stats["cells_run"] == 16
        assert stats["datasets_loaded"] == 1
        assert stats["relevance_estimations"] == 2  # MI + FVALUE (for FCQ)
        for rec in records:
            assert rec.k in (2, 3)
            assert rec.n_selected >= 1
            assert 0.0 <= rec.cv_mean_accuracy <= 1.0
            assert rec.selection_cpu_seconds >= 0.0
            assert rec.settings["n_folds"] == 3
        fcq = [r for r in records if r.variant == "FCQ"]
        assert fcq and all(r.algorithm == MRMR_Q and r.estimator == "FVALUE"
                           for r in fcq)
        mid = [r for r in records if r.variant == "MID"]
        assert mid and all(r.algorithm == MRMR_D for r in mid)
        kg = [r for r in records if r.algorithm == KGROUPS]
        assert kg and all(r.alpha == 1.0 for r in kg)
        assert all(r.alpha is None for r in records
                   if r.algorithm not in (KGROUPS,))

    def test_output_files_written(self, tmp_path):
        cfg = tiny_config(tmp_path)
        records = list(run_sweep(cfg))
        out = tmp_path / "out"
        stored = read_records(out / "records.jsonl")
        assert [r.cell_key() for r in stored] == [r.cell_key() for r in records]
        echoed = json.loads((out / "config.json").read_text())
        assert SweepConfig.from_mapping(echoed) == cfg

    def test_resume_skips_completed_cells(self, tmp_path):
        cfg = tiny_config(tmp_path)
        first = list(run_sweep(cfg))
        stats = {}
        second = list(run_sweep(cfg, stats))
        assert second == []
        assert stats["cells_skipped"] == len(first)
        assert stats["cells_run"] == 0
        assert len(read_records(tmp_path / "out" / "records.jsonl")) == len(first)

    def test_resume_recomputes_missing_and_skips_garbage(self, tmp_path, caplog):
        cfg = tiny_config(tmp_path)
        list(run_sweep(cfg))
        path = tmp_path / "out" / "records.jsonl"
        lines = path.read_text().strip().split("\n")
        keep = lines[:5]
        path.write_text("\n".join(keep + ["{not json"]) + "\n")
        stats = {}
        with caplog.at_level(logging.WARNING, logger="ffsel.sweep"):
            redone = list(run_sweep(cfg, stats))
        assert any("records.jsonl" in msg or "line" in msg.lower()
                   for msg in caplog.messages)
        assert stats["cells_skipped"] == 5
        assert len(redone) == 11

    @pytest.mark.parametrize("line", ['{"dataset":"t"}', "[1,2]"])
    def test_resume_rejects_non_record_line(self, tmp_path, line):
        cfg = tiny_config(tmp_path)
        list(run_sweep(cfg))
        path = tmp_path / "out" / "records.jsonl"
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(DataError, match="line 17"):
            list(run_sweep(cfg))

    def test_deterministic_modulo_cpu_time(self, tmp_path):
        csv = blob_csv(tmp_path)
        runs = []
        for sub in ("a", "b"):
            cfg = tiny_config(tmp_path, datasets=(str(csv),),
                              output_dir=str(tmp_path / sub))
            runs.append([r.comparable_dict() for r in run_sweep(cfg)])
        assert runs[0] == runs[1]

    def test_worker_pool_matches_sequential(self, tmp_path, monkeypatch):
        csv = blob_csv(tmp_path)
        cfg_seq = tiny_config(tmp_path, datasets=(str(csv),),
                              output_dir=str(tmp_path / "seq"))
        seq = [r.comparable_dict() for r in run_sweep(cfg_seq)]
        monkeypatch.setenv(WORKERS_ENV, "3")
        cfg_par = tiny_config(tmp_path, datasets=(str(csv),),
                              output_dir=str(tmp_path / "par"))
        par = [r.comparable_dict() for r in run_sweep(cfg_par)]
        assert par == seq

    def test_k_range_clamped_to_dataset_width(self, tmp_path, caplog):
        cfg = tiny_config(tmp_path, k_max=50, algorithms=(KBEST,))
        with caplog.at_level(logging.WARNING, logger="ffsel.sweep"):
            records = list(run_sweep(cfg))
        assert any("clamp" in m.lower() or "k_max" in m for m in caplog.messages)
        assert {r.k for r in records} == {2, 3, 4, 5, 6}

    def test_unloadable_dataset_skipped(self, tmp_path, caplog):
        cfg = tiny_config(tmp_path,
                          datasets=(str(tmp_path / "missing.csv"),))
        stats = {}
        with caplog.at_level(logging.ERROR, logger="ffsel.sweep"):
            records = list(run_sweep(cfg, stats))
        assert records == []
        assert stats["datasets_loaded"] == 0
        assert any("missing.csv" in m for m in caplog.messages)

    def test_select_per_fold_protocol(self, tmp_path):
        cfg = tiny_config(tmp_path, algorithms=(KBEST, KGROUPS),
                          select_per_fold=True, k_max=2)
        records = list(run_sweep(cfg))
        assert records
        for rec in records:
            assert rec.n_selected >= 1
            assert rec.settings["select_per_fold"] is True

    def test_smoothing_flag_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="bin_smoothing"):
            SweepConfig.from_mapping({
                "datasets": ["a.csv"], "output_dir": str(tmp_path),
                "bin_smoothing": True,
            })


class TestReports:
    """Best-configuration aggregation and win/draw tallies."""

    def test_labels(self):
        assert algorithm_label(mk_record(algorithm=MRMR_D, variant="MID")) == "MID"
        assert algorithm_label(mk_record(algorithm=KGROUPS,
                                         variant="alpha=1")) == KGROUPS
        assert algorithm_label(mk_record(algorithm=KBEST, variant="",
                                         alpha=None)) == KBEST

    def test_best_prefers_accuracy_then_small_k(self):
        records = [
            mk_record(k=5, cv_mean_accuracy=0.90, classifier="KNN"),
            mk_record(k=3, cv_mean_accuracy=0.90, classifier="GNB"),
            mk_record(k=9, cv_mean_accuracy=0.95, classifier="KNN"),
        ]
        report = best_config_report(records)
        row = report["best_overall"][0]
        assert row["best_accuracy"] == 0.95
        assert row["k"] == 9
        rows2 = best_config_report(records[:2])["best_overall"][0]
        assert rows2["k"] == 3
        assert rows2["classifier"] == "GNB"

    def test_classifier_name_breaks_exact_ties(self):
        records = [
            mk_record(k=4, cv_mean_accuracy=0.9, classifier="KNN"),
            mk_record(k=4, cv_mean_accuracy=0.9, classifier="GNB"),
        ]
        row = best_config_report(records)["best_overall"][0]
        assert row["classifier"] == "GNB"

    def test_per_classifier_tables(self):
        records = [
            mk_record(classifier="KNN", cv_mean_accuracy=0.8),
            mk_record(classifier="GNB", cv_mean_accuracy=0.6),
        ]
        report = best_config_report(records)
        best = {r["classifier"]: r["best_accuracy"]
                for r in report["per_classifier_best"]}
        assert best == {"KNN": 0.8, "GNB": 0.6}
        summary = report["per_classifier_summary"][0]
        np.testing.assert_allclose(summary["mean_best_accuracy"], 0.7)
        np.testing.assert_allclose(summary["sd_across_classifiers"], 0.1)
        assert summary["n_classifiers"] == 2

    def test_pairwise_wins_and_two_decimal_draws(self):
        records = [
            mk_record(dataset="d1", algorithm=KBEST, variant="", alpha=None,
                      cv_mean_accuracy=0.90),
            mk_record(dataset="d1", algorithm=MRMR_D, variant="MID",
                      alpha=None, cv_mean_accuracy=0.90004),
            mk_record(dataset="d2", algorithm=KBEST, variant="", alpha=None,
                      cv_mean_accuracy=0.95),
            mk_record(dataset="d2", algorithm=MRMR_D, variant="MID",
                      alpha=None, cv_mean_accuracy=0.85),
        ]
        report = best_config_report(records)
        (row,) = report["pairwise_wins"]
        assert row["algorithm_a"] == KBEST
        assert row["algorithm_b"] == "MID"
        assert row["wins_a"] == 1
        assert row["wins_b"] == 0
        assert row["draws"] == 1  # 90.004% rounds to 90.0%

    def test_pairs_scoped_to_shared_estimator(self):
        records = [
            mk_record(estimator="MI", algorithm=KBEST, variant="", alpha=None),
            mk_record(estimator="FVALUE", algorithm=MRMR_D, variant="FCD",
                      alpha=None),
        ]
        report = best_config_report(records)
        assert report["pairwise_wins"] == []

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            best_config_report([])

    def test_n_selected_distributions_sorted_by_k(self):
        records = [
            mk_record(k=4, alpha=1.0, n_selected=6),
            mk_record(k=2, alpha=1.0, n_selected=2),
            mk_record(k=4, alpha=0.5, n_selected=5),
        ]
        (row,) = n_selected_distributions(records)
        assert row["n_selected"] == [2, 5, 6]
        assert row["algorithm"] == KGROUPS
