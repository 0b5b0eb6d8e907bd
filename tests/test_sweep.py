"""Benchmark sweep: configuration, resumable runs, and report aggregation."""

import dataclasses
import importlib.util
import json
import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ffsel.selectors
import ffsel.sweep
from conftest import make_dataset, same_stem_csvs, write_csv
from ffsel import (
    BenchmarkRecord,
    DataError,
    ForestParams,
    RedundancyCache,
    SweepConfig,
    algorithm_label,
    best_config_report,
    classify,
    load_csv,
    make_folds,
    n_selected_distributions,
    read_records,
    relevance_all,
    run_sweep,
    select_kbest,
    select_kgroups,
    select_mrmr,
    standard_scale,
)
from ffsel.cli import main
from ffsel.relevance import MI, MI_PAIR
from ffsel.selectors import DIFFERENCE, KBEST, KGROUPS, MRMR_D, MRMR_Q, QUOTIENT


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


def count_relevance(monkeypatch):
    """Names of the datasets `run_sweep` estimates relevance on, one per call."""
    calls = []
    estimate = ffsel.sweep.relevance_all

    def counting(d, *args, **kwargs):
        calls.append(d.name)
        return estimate(d, *args, **kwargs)

    monkeypatch.setattr(ffsel.sweep, "relevance_all", counting)
    return calls


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

    @pytest.mark.parametrize("key, value", [
        ("datasets", "data/colon.csv"),
        ("estimators", "mi"),
        ("algorithms", "kbest"),
        ("classifiers", "knn"),
        ("alpha_grid", "0.5"),
        ("k_range", "25"),
        ("tie_breaker_map", {"mi": "cosine"}),
        ("tie_breaker_map", "mi"),
    ])
    def test_string_for_list_rejected(self, tmp_path, key, value):
        raw = {"datasets": ["a.csv"], "output_dir": str(tmp_path), key: value}
        with pytest.raises(ValueError, match=f"config key '{key}' needs a list"):
            SweepConfig.from_mapping(raw)

    @pytest.mark.parametrize("k_range", [[5], [2, 5, 9]])
    def test_k_range_needs_two_entries(self, tmp_path, k_range):
        with pytest.raises(ValueError, match="'k_range' needs"):
            SweepConfig.from_mapping({"datasets": ["a.csv"], "output_dir": str(tmp_path),
                                      "k_range": k_range})

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SweepConfig.from_mapping({
                "datasets": ["a.csv"], "output_dir": str(tmp_path),
                "n_nieghbors": 3,
            })

    @pytest.mark.parametrize("key, entries, repeat", [
        ("estimators", ["mi", "MI"], "'MI'"),
        ("algorithms", ["kbest", "kgroups", "KBest"], "'KBEST'"),
        ("classifiers", ["knn", "gnb", "knn"], "'KNN'"),
        ("alpha_grid", [0.5, 1, 0.50], "0.5"),
        ("tie_breaker_map", {"mi": ["fvalue", "FVALUE"]}, "'FVALUE' for 'MI'"),
    ], ids=["estimators", "algorithms", "classifiers", "alpha_grid", "tie_breaker_map"])
    def test_repeated_entry_rejected(self, tmp_path, key, entries, repeat):
        cfg = SweepConfig.from_mapping({"datasets": ["a.csv"], "output_dir": str(tmp_path),
                                        key: entries})
        with pytest.raises(ValueError, match=f"config key '{key}' repeats {repeat}"):
            cfg.validate()

    def test_tie_breaker_map_key_repeated_in_another_case_rejected(self, tmp_path):
        raw = {"datasets": ["a.csv"], "output_dir": str(tmp_path),
               "tie_breaker_map": {"mi": ["cosine"], "MI": ["fvalue"]}}
        with pytest.raises(ValueError, match="config key 'tie_breaker_map' repeats 'MI'"):
            SweepConfig.from_mapping(raw)

    @pytest.mark.parametrize("key, value", [
        ("k_range", 25),
        ("datasets", 5),
        ("alpha_grid", ["x"]),
        ("tie_breaker_map", {"MI": 5}),
        ("datasets", [5]),
        ("alpha_grid", [True]),
        ("alpha_grid", ["0.5"]),
        ("estimators", {"mi": 1}),
    ])
    def test_list_of_wrong_entries_rejected(self, tmp_path, key, value):
        raw = {"datasets": ["a.csv"], "output_dir": str(tmp_path), key: value}
        with pytest.raises(ValueError, match=f"config key '{key}' needs a list") as info:
            SweepConfig.from_mapping(raw)
        assert repr(value) in str(info.value)

    def test_later_document_overrides_k_range(self, tmp_path):
        base = {"datasets": ["a.csv"], "output_dir": str(tmp_path), "k_range": [2, 5]}
        cfg = SweepConfig.from_mapping(base, {"k_min": 3})
        assert (cfg.k_min, cfg.k_max) == (3, 5)

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
        with pytest.raises(ValueError, match="alpha"):
            SweepConfig(**base, alpha_grid=(1.0, float("nan"))).validate()
        with pytest.raises(ValueError):
            SweepConfig(**base, mi_bins=0).validate()
        with pytest.raises(ValueError):
            SweepConfig(**base, k_neighbors=0).validate()
        with pytest.raises(ValueError):
            SweepConfig(**base, algorithms=()).validate()
        with pytest.raises(ValueError):
            SweepConfig(**base, classifiers=()).validate()
        with pytest.raises(ValueError):
            SweepConfig(**base, estimators=(), algorithms=(KBEST,)).validate()
        with pytest.raises(ValueError):
            SweepConfig(**base, estimators=(), algorithms=(KGROUPS,)).validate()
        with pytest.raises(ValueError):
            SweepConfig(**base, alpha_grid=(), algorithms=(KGROUPS,)).validate()
        # mRMR variants carry their own estimator, and only KGroups uses alphas.
        SweepConfig(**base, estimators=(), alpha_grid=(), algorithms=("MID",)).validate()

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

    def test_record_count_and_fields(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        estimated = count_relevance(monkeypatch)
        stats = {}
        records = list(run_sweep(cfg, stats))
        # 4 algorithm cells per k (KBEST, MID, KGROUPS, FCQ), 2 ks, 2 classifiers
        assert len(records) == 16
        assert stats["cells_run"] == 16
        assert estimated == ["blobs", "blobs"]  # MI + FVALUE (for FCQ)
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

    def test_datasets_sharing_a_file_stem_rejected(self, tmp_path):
        a, b = same_stem_csvs(tmp_path)
        cfg = tiny_config(tmp_path, datasets=(a, b), algorithms=(KBEST,), k_min=1, k_max=1)
        with pytest.raises(ValueError, match="share the name 'x'") as err:
            list(run_sweep(cfg))
        assert a in str(err.value) and b in str(err.value)
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("at", [3, 6], ids=["mid-file", "last-line"])
    def test_resume_rejects_a_whole_non_json_line(self, tmp_path, at):
        cfg = tiny_config(tmp_path)
        list(run_sweep(cfg))
        path = tmp_path / "out" / "records.jsonl"
        lines = path.read_text().split("\n")[:5]
        path.write_text("\n".join(lines[: at - 1] + ["{not json"] + lines[at - 1 :]) + "\n")
        stored, echoed = path.read_bytes(), (tmp_path / "out" / "config.json").read_bytes()
        with pytest.raises(DataError, match=f"records.jsonl line {at} is not valid JSON"):
            list(run_sweep(cfg))
        assert path.read_bytes() == stored
        assert (tmp_path / "out" / "config.json").read_bytes() == echoed

    def test_resume_rejects_other_settings(self, tmp_path):
        list(run_sweep(tiny_config(tmp_path, mi_bins=10)))
        config_path = tmp_path / "out" / "config.json"
        echoed = config_path.read_text()
        with pytest.raises(DataError, match=r"records\.jsonl.*'KNN'.*mi_bins 10 stored, 3 now"):
            list(run_sweep(tiny_config(tmp_path, mi_bins=3)))
        assert config_path.read_text() == echoed
        # Equal settings with more k values still resume.
        stats = {}
        added = list(run_sweep(tiny_config(tmp_path, mi_bins=10, k_max=4), stats))
        assert {r.k for r in added} == {4}
        assert stats["cells_skipped"] == 16

    def test_resume_drops_a_torn_last_line(self, tmp_path, caplog):
        cfg = tiny_config(tmp_path)
        first = list(run_sweep(cfg))
        path = tmp_path / "out" / "records.jsonl"
        lines = path.read_text().split("\n")
        path.write_text("\n".join(lines[:4]) + "\n" + lines[4][: len(lines[4]) // 2])
        with caplog.at_level(logging.WARNING, logger="ffsel.sweep"):
            redone = list(run_sweep(cfg))
        assert any("records.jsonl" in msg for msg in caplog.messages)
        assert [r.cell_key() for r in redone] == [r.cell_key() for r in first[4:]]
        stored = read_records(path)
        assert [r.cell_key() for r in stored] == [r.cell_key() for r in first]
        assert path.read_text().split("\n")[:4] == lines[:4]

    def test_resume_ends_a_whole_last_record_with_a_newline(self, tmp_path):
        cfg = tiny_config(tmp_path)
        first = list(run_sweep(cfg))
        path = tmp_path / "out" / "records.jsonl"
        lines = path.read_text().split("\n")
        path.write_text("\n".join(lines[:5]))
        redone = list(run_sweep(cfg))
        assert [r.cell_key() for r in redone] == [r.cell_key() for r in first[5:]]
        assert path.read_text().split("\n")[:5] == lines[:5]
        stored = read_records(path)
        assert [r.cell_key() for r in stored] == [r.cell_key() for r in first]

    @pytest.mark.parametrize("line", ['{"dataset":"t"}', "[1,2]"])
    def test_resume_rejects_non_record_line(self, tmp_path, line):
        cfg = tiny_config(tmp_path)
        list(run_sweep(cfg))
        path = tmp_path / "out" / "records.jsonl"
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(DataError, match="line 17"):
            list(run_sweep(cfg))

    def test_knn_needing_more_rows_than_a_fold_trains_on_rejected(self, tmp_path):
        # 20 rows in 5 folds leave 16 training rows in each fold.
        cfg = tiny_config(tmp_path, classifiers=("GNB", "KNN"), n_folds=5, k_neighbors=17)
        with pytest.raises(ValueError, match=r"blobs: k_neighbors must lie in \[1, 16\]"):
            list(run_sweep(cfg))
        assert not (tmp_path / "out" / "config.json").exists()

    def test_per_fold_selection_on_a_one_class_fold_rejected(self, tmp_path):
        labels = np.array([0] * 19 + [1])
        csv = write_csv(tmp_path / "one_b.csv", np.random.default_rng(0).normal(size=(20, 6)),
                        labels, class_names=("a", "b"))
        cfg = tiny_config(tmp_path, datasets=(str(csv),), n_folds=5, select_per_fold=True)
        with pytest.warns(UserWarning, match="span only 1 folds"):
            with pytest.raises(DataError, match=r"one_b#fold\d: training rows hold only one class"):
                list(run_sweep(cfg))
        assert not (tmp_path / "out" / "config.json").exists()

    def test_deterministic_modulo_cpu_time(self, tmp_path):
        csv = blob_csv(tmp_path)
        runs = []
        for sub in ("a", "b"):
            cfg = tiny_config(tmp_path, datasets=(str(csv),),
                              output_dir=str(tmp_path / sub))
            runs.append([r.comparable_dict() for r in run_sweep(cfg)])
        assert runs[0] == runs[1]

    def test_k_range_clamped_to_dataset_width(self, tmp_path, caplog):
        cfg = tiny_config(tmp_path, k_max=50, algorithms=(KBEST,))
        with caplog.at_level(logging.WARNING, logger="ffsel.sweep"):
            records = list(run_sweep(cfg))
        assert any("clamp" in m.lower() or "k_max" in m for m in caplog.messages)
        assert {r.k for r in records} == {2, 3, 4, 5, 6}

    def test_k_range_beyond_every_dataset_rejected(self, tmp_path):
        cfg = tiny_config(tmp_path, k_min=10, k_max=12, algorithms=(KBEST,))
        with pytest.raises(ValueError, match=r"k range \[10, 12\].*6 features"):
            list(run_sweep(cfg))
        assert not (tmp_path / "out" / "config.json").exists()

    def test_unloadable_dataset_stops_the_sweep(self, tmp_path):
        cfg = tiny_config(tmp_path,
                          datasets=(str(tmp_path / "missing.csv"),))
        with pytest.raises(OSError, match="missing.csv"):
            list(run_sweep(cfg))
        assert not (tmp_path / "out" / "config.json").exists()

    def test_select_per_fold_protocol(self, tmp_path):
        cfg = tiny_config(tmp_path, algorithms=(KBEST, KGROUPS, "MID", "FCQ"),
                          select_per_fold=True, k_max=3)
        records = list(run_sweep(cfg))
        assert {r.variant for r in records} >= {"MID", "FCQ"}
        for rec in records:
            assert rec.n_selected >= 1
            assert rec.settings["select_per_fold"] is True
            if rec.algorithm in (MRMR_D, MRMR_Q):
                assert rec.n_selected == rec.k

    @pytest.mark.parametrize("scale_per_fold", [False, True])
    def test_select_per_fold_matches_independent_loop(self, tmp_path, scale_per_fold):
        csv = blob_csv(tmp_path, n_cols=8)
        cfg = tiny_config(tmp_path, datasets=(str(csv),), algorithms=(KBEST, KGROUPS, "MID"),
                          alpha_grid=(0.5, 1.0), select_per_fold=True,
                          scale_per_fold=scale_per_fold, k_max=4)
        records = list(run_sweep(cfg))
        assert {r.algorithm for r in records} == {KBEST, KGROUPS, MRMR_D}
        d = standard_scale(load_csv(csv))
        folds = make_folds(d, cfg.n_folds, cfg.seed)
        forest = ForestParams(seed=cfg.seed)
        breakers = cfg.tie_breaker_map[MI]
        for rec in records:
            accs, n_sel = [], []
            for f in range(cfg.n_folds):
                tr = np.flatnonzero(folds.assignments != f)
                te = np.flatnonzero(folds.assignments == f)
                train_x, test_x = d.features[tr], d.features[te]
                if scale_per_fold:
                    mean, sd = train_x.mean(axis=0), train_x.std(axis=0)
                    safe = np.where(sd == 0.0, 1.0, sd)
                    train_x, test_x = (train_x - mean) / safe, (test_x - mean) / safe
                    train_x[:, sd == 0.0] = 0.0
                    test_x[:, sd == 0.0] = 0.0
                view = make_dataset(train_x, d.labels[tr], f"fold{f}")
                rel = relevance_all(view, MI, mi_bins=cfg.mi_bins, forest=forest)
                if rec.algorithm == KBEST:
                    picked = select_kbest(rel, rec.k)
                elif rec.algorithm == KGROUPS:
                    picked = select_kgroups(view, rel, rec.k, rec.alpha, breakers,
                                            mi_bins=cfg.mi_bins, forest=forest)
                else:
                    picked = select_mrmr(view, rel, rec.k, DIFFERENCE, MI_PAIR,
                                         mi_bins=cfg.mi_bins)
                cols = np.asarray(picked.selected)
                n_sel.append(cols.size)
                pred = classify(rec.classifier, train_x[:, cols], d.labels[tr],
                                test_x[:, cols], n_classes=d.n_classes,
                                k_neighbors=cfg.k_neighbors, forest=forest)
                accs.append(float(np.mean(pred == d.labels[te])))
            cell = (rec.algorithm, rec.alpha, rec.k, rec.classifier)
            assert rec.cv_mean_accuracy == np.mean(accs), cell
            assert rec.cv_sd == np.std(accs), cell
            assert rec.n_selected == round(float(np.mean(n_sel))), cell

    def test_select_per_fold_builds_each_fold_view_once(self, tmp_path, monkeypatch):
        built = []
        subset = ffsel.sweep._subset_dataset

        def counting_subset(d, rows, features, tag):
            built.append((d.name, tag))
            return subset(d, rows, features, tag)

        monkeypatch.setattr(ffsel.sweep, "_subset_dataset", counting_subset)
        csvs = (blob_csv(tmp_path, "a.csv"), blob_csv(tmp_path, "b.csv", seed=1))
        cfg = tiny_config(tmp_path, datasets=tuple(map(str, csvs)), select_per_fold=True,
                          scale_per_fold=True)
        assert len(list(run_sweep(cfg))) == 2 * 16
        assert sorted(built) == [(n, f"#fold{f}") for n in ("a", "b") for f in range(3)]

    def test_select_per_fold_estimates_relevance_once_per_fold(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, algorithms=(KBEST, KGROUPS, "MID"),
                          estimators=("MI", "COSINE"), alpha_grid=(0.5, 1.0),
                          select_per_fold=True, k_max=4)
        estimated = count_relevance(monkeypatch)
        records = list(run_sweep(cfg))
        # 2 classifiers x 3 ks x (KBest and 2 KGroups alphas per estimator, MID)
        assert len(records) == 2 * 3 * (2 * (1 + 2) + 1)
        # 3 folds for each of MI (KBest, KGroups, MID) and COSINE, never the whole dataset.
        assert sorted(estimated) == sorted(f"blobs#fold{f}" for f in range(3) for _ in range(2))

    def test_smoothing_flag_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="bin_smoothing"):
            SweepConfig.from_mapping({
                "datasets": ["a.csv"], "output_dir": str(tmp_path),
                "bin_smoothing": True,
            })


class TestSelectionCost:
    """A greedy record costs what a cold run to its k costs, in any cell order."""

    def test_greedy_cost_equals_cold_pair_count(self, tmp_path, monkeypatch):
        # With a clock that reads the number of redundancy pairs computed so
        # far, costs are exact counts that machine load cannot move.
        computed = [0]
        get = RedundancyCache.get

        def counting_get(cache, i, j):
            before = len(cache)
            value = get(cache, i, j)
            computed[0] += len(cache) - before
            return value

        def pair_clock():
            return float(computed[0])

        monkeypatch.setattr(RedundancyCache, "get", counting_get)
        monkeypatch.setattr(ffsel.selectors, "thread_time", pair_clock)
        monkeypatch.setattr(ffsel.sweep, "thread_time", pair_clock)
        csv = blob_csv(tmp_path, name="wide.csv", n_cols=8)
        cfg = tiny_config(tmp_path, datasets=(str(csv),), algorithms=("MID", "MIQ"),
                          k_max=5, classifiers=("GNB",))
        records = list(run_sweep(cfg))
        assert [(r.variant, r.k) for r in records] == [
            (v, k) for v in ("MID", "MIQ") for k in (2, 3, 4, 5)
        ]
        d = standard_scale(load_csv(csv))
        rel = relevance_all(d, MI)
        for rec in records:
            form = DIFFERENCE if rec.variant == "MID" else QUOTIENT
            cold = select_mrmr(d, rel, rec.k, form, MI_PAIR)
            assert cold.cpu_time_seconds == sum(8 - t for t in range(1, rec.k))
            assert rec.selection_cpu_seconds == cold.cpu_time_seconds, (rec.variant, rec.k)


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

    def test_pairs_count_only_datasets_both_labels_have(self):
        records = [
            mk_record(dataset="d1", algorithm=KBEST, variant="", alpha=None,
                      cv_mean_accuracy=0.80),
            mk_record(dataset="d2", algorithm=KBEST, variant="", alpha=None,
                      cv_mean_accuracy=0.70),
            mk_record(dataset="d1", algorithm=MRMR_D, variant="MID",
                      alpha=None, cv_mean_accuracy=0.90),
        ]
        report = best_config_report(records)
        assert report["pairwise_wins"] == [{
            "estimator": "MI", "algorithm_a": KBEST, "algorithm_b": "MID",
            "wins_a": 0, "wins_b": 1, "draws": 0,
        }]

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

    def test_report_and_plotdata_files_pinned(self, tmp_path, capsys):
        kbest = dict(algorithm=KBEST, variant="", alpha=None)
        mid = dict(algorithm=MRMR_D, variant="MID", alpha=None)
        records = [
            # KBEST ties at 0.9 on d1: k=3 under GNB, k=2 under KNN.
            mk_record(**kbest, k=3, n_selected=3, cv_mean_accuracy=0.9, classifier="GNB"),
            mk_record(**kbest, k=2, n_selected=2, cv_mean_accuracy=0.9),
            mk_record(**kbest, k=2, n_selected=2, cv_mean_accuracy=0.75, classifier="GNB"),
            # Two KGroups alphas tie at 0.95; the smaller alpha is reported.
            mk_record(variant="alpha=1", alpha=1.0, k=2, n_selected=2, cv_mean_accuracy=0.95),
            mk_record(variant="alpha=0.5", alpha=0.5, k=2, n_selected=3, cv_mean_accuracy=0.95),
            mk_record(**mid, k=2, n_selected=2, cv_mean_accuracy=0.85, cv_sd=0.05),
            mk_record(**kbest, dataset="d2", k=2, n_selected=2, cv_mean_accuracy=0.8),
            mk_record(**mid, dataset="d2", k=2, n_selected=2, cv_mean_accuracy=0.8),
            mk_record(**mid, dataset="d2", k=2, n_selected=2, cv_mean_accuracy=0.7, classifier="GNB"),
        ]
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json.dumps(r.as_dict()) + "\n" for r in records))
        assert main(["report", "--records", str(path), "--out-dir", str(tmp_path / "t")]) == 0
        assert main(["plotdata", "--records", str(path), "--out", str(tmp_path / "plot.json")]) == 0
        capsys.readouterr()
        tables = {
            "best_overall": [
                "dataset,estimator,algorithm,best_accuracy,cv_sd_across_folds,k,alpha,classifier,n_selected",
                "d1,MI,KBEST,0.9,0.01,2,,KNN,2",
                "d1,MI,KGROUPS,0.95,0.01,2,0.5,KNN,3",
                "d1,MI,MID,0.85,0.05,2,,KNN,2",
                "d2,MI,KBEST,0.8,0.01,2,,KNN,2",
                "d2,MI,MID,0.8,0.01,2,,KNN,2",
            ],
            "per_classifier_best": [
                "dataset,estimator,algorithm,classifier,best_accuracy,k,alpha,n_selected",
                "d1,MI,KBEST,GNB,0.9,3,,3",
                "d1,MI,KBEST,KNN,0.9,2,,2",
                "d1,MI,KGROUPS,KNN,0.95,2,0.5,3",
                "d1,MI,MID,KNN,0.85,2,,2",
                "d2,MI,KBEST,KNN,0.8,2,,2",
                "d2,MI,MID,GNB,0.7,2,,2",
                "d2,MI,MID,KNN,0.8,2,,2",
            ],
            "per_classifier_summary": [
                "dataset,estimator,algorithm,mean_best_accuracy,sd_across_classifiers,n_classifiers",
                "d1,MI,KBEST,0.9,0.0,2",
                "d1,MI,KGROUPS,0.95,0.0,1",
                "d1,MI,MID,0.85,0.0,1",
                "d2,MI,KBEST,0.8,0.0,1",
                "d2,MI,MID,0.75,0.050000000000000044,2",
            ],
            "pairwise_wins": [
                "estimator,algorithm_a,algorithm_b,wins_a,wins_b,draws",
                "MI,KBEST,KGROUPS,0,1,0",
                "MI,KBEST,MID,1,0,1",
                "MI,KGROUPS,MID,1,0,0",
            ],
        }
        assert sorted(p.name for p in (tmp_path / "t").iterdir()) == sorted(f"{t}.csv" for t in tables)
        for name, lines in tables.items():
            assert (tmp_path / "t" / f"{name}.csv").read_bytes() == "".join(f"{x}\r\n" for x in lines).encode()

        def dist(dataset, label, clf, sizes):
            return {"dataset": dataset, "estimator": "MI", "algorithm": label,
                    "classifier": clf, "n_selected": sizes}

        plot = [
            dist("d1", KBEST, "GNB", [2, 3]),
            dist("d1", KBEST, "KNN", [2]),
            dist("d1", KGROUPS, "KNN", [3, 2]),  # k 2 at alpha 0.5, then at alpha 1
            dist("d1", "MID", "KNN", [2]),
            dist("d2", KBEST, "KNN", [2]),
            dist("d2", "MID", "GNB", [2]),
            dist("d2", "MID", "KNN", [2]),
        ]
        assert (tmp_path / "plot.json").read_text() == json.dumps(plot, indent=2) + "\n"


class TestRecordDigest:
    """`tools/record_digest.py` digests record content, not timing or order."""

    def test_timing_and_order_ignored_content_not(self, tmp_path, capsys):
        path = Path(__file__).resolve().parent.parent / "tools" / "record_digest.py"
        spec = importlib.util.spec_from_file_location("record_digest", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        records = [mk_record(k=2), mk_record(k=3)]
        variants = {
            "base": records,
            "retimed": [dataclasses.replace(r, selection_cpu_seconds=9.0) for r in records[::-1]],
            "changed": [records[0], dataclasses.replace(records[1], cv_mean_accuracy=0.8)],
        }
        for name, recs in variants.items():
            (tmp_path / f"{name}.jsonl").write_text(
                "".join(json.dumps(r.as_dict()) + "\n" for r in recs)
            )
        lines = {}
        for name in variants:
            assert tool.main([str(tmp_path / f"{name}.jsonl")]) == 0
            lines[name] = capsys.readouterr().out
        assert lines["base"].startswith("2 records sha256 ")
        assert lines["retimed"] == lines["base"]
        assert lines["changed"] != lines["base"]

    def test_rejected_file_exits_2_without_traceback(self, tmp_path):
        path = Path(__file__).resolve().parent.parent / "tools" / "record_digest.py"
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(json.dumps(mk_record().as_dict()).encode() + b"\n\xff\xfe garbage\n")
        run = subprocess.run([sys.executable, str(path), str(bad)], capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr.startswith("error: ") and "bad.jsonl line 2 is not UTF-8" in run.stderr
        assert "Traceback" not in run.stderr

    def test_missing_file_exits_2_without_traceback(self, tmp_path):
        path = Path(__file__).resolve().parent.parent / "tools" / "record_digest.py"
        gone = tmp_path / "gone.jsonl"
        run = subprocess.run([sys.executable, str(path), str(gone)], capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr.startswith("error: ") and "gone.jsonl" in run.stderr
        assert "Traceback" not in run.stderr
