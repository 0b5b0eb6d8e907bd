"""Command-line interface: subcommands, JSON output, and exit codes."""

import dataclasses
import json

import numpy as np
import pytest

from conftest import same_stem_csvs, two_label_csv, write_csv
from ffsel import (
    MRMR_VARIANTS,
    ForestParams,
    load_csv,
    read_records,
    relevance_all,
    select_mrmr,
    standard_scale,
)
from ffsel.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from ffsel.selectors import DIFFERENCE, MRMR_D, MRMR_Q

CPU_FIELDS = ("cpu_seconds", "cpu_time_seconds", "relevance_cpu_seconds")


def run_json(argv, capsys):
    """Exit code and printed JSON of one command, CPU fields dropped."""
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    return code, {key: v for key, v in payload.items() if key not in CPU_FIELDS}


@pytest.fixture()
def data_csv(tmp_path):
    rng = np.random.default_rng(100)
    labels = np.repeat([0, 1], 12)
    x = rng.normal(size=(24, 5))
    x[:, 1] += 2.5 * labels
    return str(write_csv(tmp_path / "data.csv", x, labels,
                         class_names=("neg", "pos")))


def label_first_csv(tmp_path):
    """A 24-row CSV whose first column, "cls", holds the label; f2 carries it."""
    rng = np.random.default_rng(5)
    labels = np.repeat(["neg", "pos"], 12)
    x = rng.normal(size=(24, 3))
    x[:, 2] += 3.0 * (labels == "pos")
    lines = ["cls,f0,f1,f2"] + [f"{lab}," + ",".join(map(repr, row)) for lab, row in zip(labels, x.tolist())]
    path = tmp_path / "first.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def latin1_csv(tmp_path):
    """A 4-row CSV whose first header cell is Latin-1, not UTF-8."""
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"g\xe8ne1,g2,label\n1,2,a\n2,3,b\n3,1,a\n4,4,b\n")
    return str(path)


class TestEstimate:
    """`estimate` scores every feature."""

    def test_json_to_stdout(self, data_csv, capsys):
        code = main(["estimate", "--data", data_csv, "--estimator", "mi"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimator"] == "MI"
        assert len(payload["values"]) == 5
        assert payload["params"] == {"mi_bins": 10}
        assert all(v >= 0.0 for v in payload["values"])
        # the shifted column should dominate
        assert int(np.argmax(payload["values"])) == 1

    def test_output_file(self, data_csv, tmp_path):
        out = tmp_path / "rel.json"
        code = main(["estimate", "--data", data_csv, "--estimator", "fvalue",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["estimator"] == "FVALUE"

    def test_missing_data_file_exits_2(self, tmp_path):
        code = main(["estimate", "--data", str(tmp_path / "nope.csv"),
                     "--estimator", "mi"])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("label_col", ["0", "cls"])
    def test_label_col_by_index_or_name(self, tmp_path, label_col, capsys):
        csv = str(label_first_csv(tmp_path))
        code = main(["estimate", "--data", csv, "--estimator", "fvalue", "--label-col", label_col])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["feature_names"] == ["f0", "f1", "f2"]
        # the shifted column scores highest only if the label was read right
        assert int(np.argmax(payload["values"])) == 2

    def test_unknown_estimator_exits_1(self, data_csv, capsys):
        code = main(["estimate", "--data", data_csv, "--estimator", "chi2"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_params_name_the_estimators_settings(self, data_csv, capsys):
        base = ["estimate", "--data", data_csv, "--mi-bins", "7", "--trees", "3", "--seed", "2"]
        params = {}
        for est in ("mi", "gini", "fvalue", "cosine"):
            code, payload = run_json(base + ["--estimator", est], capsys)
            assert code == EXIT_OK
            params[est] = payload["params"]
        assert params["mi"] == {"mi_bins": 7}
        assert params["gini"] == dataclasses.asdict(ForestParams(n_trees=3, seed=2))
        assert params["fvalue"] == params["cosine"] == {}

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-3", "forest seed must be >= 0, got -3"),
        ("--trees", "0", "n_trees must be positive, got 0"),
    ])
    def test_bad_forest_params_exit_1(self, data_csv, capsys, flag, value, message):
        code = main(["estimate", "--data", data_csv, "--estimator", "gini", flag, value])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("bins", ["0", "-2"])
    def test_mi_bins_below_one_exits_1_before_loading(self, tmp_path, capsys, bins):
        # FVALUE never reads the bin count, so only the flag check refuses
        # it; the CSV is absent, so loading it first would exit 2.
        argv = ["estimate", "--data", str(tmp_path / "absent.csv"), "--estimator", "fvalue", "--mi-bins", bins]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert f"--mi-bins must be >= 1, got {bins}" in captured.err

    def test_label_col_int_cannot_read_exits_2(self, data_csv, capsys):
        code = main(["estimate", "--data", data_csv, "--estimator", "mi", "--label-col=--1"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert "no column named '--1'" in err

    def test_non_utf8_csv_exits_2(self, tmp_path, capsys):
        csv = latin1_csv(tmp_path)
        code = main(["estimate", "--data", csv, "--estimator", "mi"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert f"{csv}: not UTF-8 text" in err


class TestSelect:
    """`select` runs one configuration and reports the picked features."""

    def test_kbest(self, data_csv, capsys):
        code = main(["select", "--data", data_csv, "--algo", "kbest",
                     "--estimator", "mi", "--k", "2"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "KBEST"
        assert len(payload["selected"]) == 2
        assert 1 in payload["selected"]
        assert payload["selected_names"][0].startswith("f")
        assert payload["cpu_time_seconds"] >= 0.0

    def test_mrmr_variants(self, data_csv, capsys):
        code = main(["select", "--data", data_csv, "--algo", "miq", "--k", "3"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "MRMR_Q"
        assert payload["estimator"] == "MI"
        assert payload["hyperparams"]["redundancy"] == "MI_PAIR"
        code = main(["select", "--data", data_csv, "--algo", "fcd",
                     "--estimator", "fvalue", "--k", "3", "--beta", "0.5"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["hyperparams"]["redundancy"] == "ABS_PEARSON"
        assert payload["hyperparams"]["beta"] == 0.5

    @pytest.mark.parametrize("name", list(MRMR_VARIANTS))
    def test_variant_runs_its_table_row(self, data_csv, name, capsys):
        code, payload = run_json(["select", "--data", data_csv, "--algo", name.lower(), "--k", "4",
                                  "--beta", "0.5", "--mi-bins", "5", "--trees", "10"], capsys)
        assert code == EXIT_OK
        est, form, red, meann = MRMR_VARIANTS[name]
        d = standard_scale(load_csv(data_csv))
        rel = relevance_all(d, est, mi_bins=5, forest=ForestParams(n_trees=10))
        direct = select_mrmr(d, rel, 4, form, red, beta=0.5, mean_normalized=meann, mi_bins=5)
        assert payload["selected"] == list(direct.selected)
        assert payload["algorithm"] == (MRMR_D if form == DIFFERENCE else MRMR_Q)
        assert payload["estimator"] == est
        row = {"form": form, "redundancy": red, "mean_normalized": meann}
        assert payload["hyperparams"] == (row | {"beta": 0.5} if form == DIFFERENCE else row)

    def test_names_ignore_case(self, data_csv, capsys):
        for argv in (["--algo", "fcq", "--estimator", "fvalue"],
                     ["--algo", "kgroups", "--estimator", "mi", "--tie-breakers", "cosine,fvalue"]):
            lower = run_json(["select", "--data", data_csv, "--k", "3", *argv], capsys)
            shouted = [a if a.startswith("--") else a.upper() for a in argv]
            upper = run_json(["select", "--data", data_csv, "--k", "3", *shouted], capsys)
            assert lower[0] == EXIT_OK
            assert lower == upper

    @pytest.mark.parametrize("argv", [
        ["--algo", "mid", "--estimator", "fvalue"],  # not the variant's estimator
        ["--algo", "kbest"],  # no estimator
        ["--algo", "mrmr", "--estimator", "mi"],
        ["--algo", "mid", "--form", "quot"],
        ["--algo", "mid", "--redundancy", "pearson"],
        ["--algo", "mid", "--no-mean-normalized"],
    ])
    def test_off_table_selection_exits_1(self, data_csv, argv, capsys):
        code = main(["select", "--data", data_csv, "--k", "2", *argv])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_kgroups_with_breakers(self, data_csv, capsys):
        code = main(["select", "--data", data_csv, "--algo", "kgroups",
                     "--estimator", "mi", "--k", "3", "--alpha", "0.7",
                     "--tie-breakers", "cosine,fvalue"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "KGROUPS"
        assert payload["hyperparams"]["alpha"] == 0.7
        assert payload["hyperparams"]["tie_breakers"] == ["COSINE", "FVALUE"]

    def test_kgroups_default_breakers_follow_estimator(self, data_csv, capsys):
        code = main(["select", "--data", data_csv, "--algo", "kgroups",
                     "--estimator", "mi", "--k", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["hyperparams"]["tie_breakers"] == ["COSINE"]

    def test_k_too_large_exits_1(self, data_csv, capsys):
        code = main(["select", "--data", data_csv, "--algo", "kbest",
                     "--estimator", "mi", "--k", "99"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_bad_tie_breaker_exits_1(self, data_csv, capsys):
        code = main(["select", "--data", data_csv, "--algo", "kgroups",
                     "--estimator", "mi", "--k", "2",
                     "--tie-breakers", "chi2"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_repeated_tie_breaker_exits_1(self, data_csv, capsys):
        code = main(["select", "--data", data_csv, "--algo", "kgroups",
                     "--estimator", "mi", "--k", "2",
                     "--tie-breakers", "mi,cosine,MI"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "--tie-breakers repeats 'MI'" in captured.err

    @pytest.mark.parametrize("bins", ["0", "-2"])
    def test_mi_bins_below_one_exits_1_before_loading(self, tmp_path, capsys, bins):
        # Only a relevance tie would send KGroups on FVALUE to the MI
        # tie-breaker; the flag is refused before the absent CSV is read.
        code = main(["select", "--data", str(tmp_path / "absent.csv"), "--algo", "kgroups",
                     "--estimator", "fvalue", "--k", "3", "--mi-bins", bins])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert f"--mi-bins must be >= 1, got {bins}" in captured.err

    def test_infinite_alpha_exits_1(self, data_csv, capsys):
        code = main(["select", "--data", data_csv, "--algo", "kgroups",
                     "--estimator", "mi", "--k", "2", "--alpha", "inf"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "alpha must be > 0 and finite, got inf" in captured.err


class TestBenchmark:
    """`benchmark` drives the sweep from a config file plus overrides."""

    def test_config_file_run(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = {
            "datasets": [data_csv],
            "output_dir": str(out_dir),
            "estimators": ["mi"],
            "algorithms": ["kbest", "kgroups"],
            "k_range": [2, 3],
            "alpha_grid": [1.0],
            "classifiers": ["knn"],
            "n_folds": 3,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["benchmark", "--config", str(cfg_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        lines = (out_dir / "records.jsonl").read_text().strip().split("\n")
        assert len(lines) == 4  # (kbest + kgroups) x k in {2,3} x knn
        assert (out_dir / "config.json").exists()

    def test_cli_overrides_config(self, data_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "datasets": [data_csv],
            "output_dir": str(tmp_path / "a"),
            "estimators": ["mi"],
            "algorithms": ["kbest"],
            "k_range": [2, 2],
            "classifiers": ["knn"],
            "n_folds": 3,
        }))
        code = main(["benchmark", "--config", str(cfg_path),
                     "--output-dir", str(tmp_path / "b"),
                     "--k-max", "3"])
        capsys.readouterr()
        assert code == EXIT_OK
        assert not (tmp_path / "a").exists()
        lines = (tmp_path / "b" / "records.jsonl").read_text().strip().split("\n")
        assert len(lines) == 2  # k in {2,3}

    def test_flags_only_run(self, data_csv, tmp_path, capsys):
        code = main(["benchmark", "--datasets", data_csv,
                     "--output-dir", str(tmp_path / "o"),
                     "--estimators", "mi", "--algorithms", "kbest",
                     "--k-min", "2", "--k-max", "2",
                     "--classifiers", "gnb", "--n-folds", "3"])
        capsys.readouterr()
        assert code == EXIT_OK

    def test_missing_datasets_exits_1(self, tmp_path, capsys):
        code = main(["benchmark", "--output-dir", str(tmp_path / "o")])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_unreadable_datasets_exit_2(self, tmp_path, capsys):
        code = main(["benchmark", "--datasets", str(tmp_path / "gone.csv"),
                     "--output-dir", str(tmp_path / "o"),
                     "--estimators", "mi", "--algorithms", "kbest",
                     "--k-min", "2", "--k-max", "2", "--classifiers", "knn",
                     "--n-folds", "3"])
        capsys.readouterr()
        assert code == EXIT_DATA

    def test_negative_seed_exits_1_before_loading(self, tmp_path, capsys):
        # The dataset does not exist: the seed is checked before any load.
        code = main(["benchmark", "--datasets", str(tmp_path / "gone.csv"),
                     "--output-dir", str(tmp_path / "o"), "--seed", "-1"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "seed must be >= 0, got -1" in err
        assert not (tmp_path / "o").exists()

    def test_resume_under_other_settings_exits_2(self, data_csv, tmp_path, capsys):
        args = ["benchmark", "--datasets", data_csv,
                "--output-dir", str(tmp_path / "o"),
                "--estimators", "mi", "--algorithms", "kbest",
                "--k-min", "2", "--k-max", "2", "--classifiers", "knn",
                "--n-folds", "3"]
        assert main(args + ["--mi-bins", "10"]) == EXIT_OK
        capsys.readouterr()
        code = main(args + ["--mi-bins", "3"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert "mi_bins 10 stored, 3 now" in err

    def test_resume_with_another_label_column_exits_2(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        args = ["benchmark", "--datasets", str(two_label_csv(tmp_path)), "--output-dir", str(out_dir),
                "--estimators", "mi", "--algorithms", "kbest", "--k-min", "2", "--k-max", "2",
                "--classifiers", "gnb", "--n-folds", "3"]
        assert main(args + ["--label-col", "y"]) == EXIT_OK
        capsys.readouterr()
        echoed = (out_dir / "config.json").read_bytes()
        assert main(args + ["--label-col", "z"]) == EXIT_DATA
        assert "label column 'y', not 'z'" in capsys.readouterr().err
        assert (out_dir / "config.json").read_bytes() == echoed

    def test_resume_over_non_utf8_records_exits_2(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "o"
        args = ["benchmark", "--datasets", data_csv, "--output-dir", str(out_dir),
                "--estimators", "mi", "--algorithms", "kbest",
                "--k-min", "2", "--k-max", "2", "--classifiers", "knn",
                "--n-folds", "3"]
        assert main(args) == EXIT_OK
        records = out_dir / "records.jsonl"
        with records.open("ab") as f:
            f.write(b"\xff\xfe garbage\n")
        (out_dir / "config.json").unlink()
        capsys.readouterr()
        assert main(args) == EXIT_DATA
        assert "records.jsonl line 2 is not UTF-8" in capsys.readouterr().err
        assert not (out_dir / "config.json").exists()
        assert main(["report", "--records", str(records),
                     "--out-dir", str(tmp_path / "t")]) == EXIT_DATA
        capsys.readouterr()

    @pytest.mark.parametrize("at", [2, 3], ids=["mid-file", "last-line"])
    def test_resume_over_a_whole_non_json_line_exits_2(self, data_csv, tmp_path, capsys, at):
        out_dir = tmp_path / "o"
        args = ["benchmark", "--datasets", data_csv, "--output-dir", str(out_dir),
                "--estimators", "mi", "--algorithms", "kbest",
                "--k-min", "2", "--k-max", "3", "--classifiers", "knn",
                "--n-folds", "3"]
        assert main(args) == EXIT_OK
        records, config = out_dir / "records.jsonl", out_dir / "config.json"
        lines = records.read_text().split("\n")[:2]
        records.write_text("\n".join(lines[: at - 1] + ['{"garbage'] + lines[at - 1 :]) + "\n")
        stored, echoed = records.read_bytes(), config.read_bytes()
        capsys.readouterr()
        assert main(args) == EXIT_DATA
        assert f"records.jsonl line {at} is not valid JSON" in capsys.readouterr().err
        assert records.read_bytes() == stored
        assert config.read_bytes() == echoed

    def test_repeated_entries_exit_1(self, data_csv, tmp_path, capsys):
        code = main(["benchmark", "--datasets", data_csv, "--output-dir", str(tmp_path / "o"),
                     "--estimators", "mi,MI", "--algorithms", "kbest,kgroups",
                     "--alpha-grid", "0.5,0.50", "--classifiers", "knn,knn",
                     "--k-min", "2", "--k-max", "2", "--n-folds", "3"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "config key 'estimators' repeats 'MI'" in err
        assert not (tmp_path / "o" / "config.json").exists()

    @pytest.mark.parametrize("tie_map, message", [
        ({"mi": ["cosine"], "MI": ["fvalue"]}, "config key 'tie_breaker_map' repeats 'MI'"),
        ({"mi": ["fvalue", "FVALUE"]}, "config key 'tie_breaker_map' repeats 'FVALUE' for 'MI'"),
    ], ids=["estimator", "tie-breaker"])
    def test_repeated_tie_breaker_entries_exit_1(self, data_csv, tmp_path, capsys, tie_map, message):
        config = {"datasets": [data_csv], "output_dir": str(tmp_path / "o"),
                  "estimators": ["mi"], "algorithms": ["kgroups"], "k_range": [2, 2],
                  "classifiers": ["knn"], "n_folds": 3, "tie_breaker_map": tie_map}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["benchmark", "--config", str(cfg_path)])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "config.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("mi_bins", 2.5),
        ("k_neighbors", 2.5),
        ("n_folds", 2.5),
        ("k_min", 2.0),
        ("k_max", True),
        ("seed", "x"),
        ("seed", True),
        ("output_dir", 5),
        ("scale", "no"),
        ("scale_per_fold", 1),
        ("select_per_fold", "yes"),
        ("k_range", [2, 3.7]),
        ("k_range", ["2", 3]),
        ("k_range", [False, 3]),
        ("beta", "0.5"),
        ("beta", True),
        ("label_column", 1.5),
        ("label_column", True),
    ])
    def test_config_value_of_wrong_type_exits_1(self, data_csv, tmp_path, capsys, key, value):
        config = {"datasets": [data_csv], "output_dir": str(tmp_path / "o"),
                  "estimators": ["mi"], "algorithms": ["kbest"], "k_range": [2, 2],
                  "classifiers": ["knn"], "n_folds": 3, key: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["benchmark", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert f"config key {key!r}" in err and repr(value) in err
        assert not (tmp_path / "o").exists()

    def test_knn_needing_more_rows_than_a_fold_trains_on_exits_1(self, data_csv, tmp_path, capsys):
        # 24 rows in 4 folds leave 18 training rows in each fold.
        code = main(["benchmark", "--datasets", data_csv,
                     "--output-dir", str(tmp_path / "o"), "--estimators", "mi",
                     "--algorithms", "kbest", "--k-min", "2", "--k-max", "2",
                     "--classifiers", "gnb,knn", "--n-folds", "4", "--k-neighbors", "19"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "k_neighbors must lie in [1, 18]" in err
        assert not (tmp_path / "o" / "config.json").exists()

    def test_per_fold_selection_on_a_one_class_fold_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        csv = write_csv(tmp_path / "one_b.csv", rng.normal(size=(20, 4)),
                        np.array([0] * 19 + [1]), class_names=("a", "b"))
        with pytest.warns(UserWarning, match="span only 1 folds"):
            code = main(["benchmark", "--datasets", str(csv),
                         "--output-dir", str(tmp_path / "o"), "--estimators", "mi",
                         "--algorithms", "kbest", "--k-min", "2", "--k-max", "2",
                         "--classifiers", "gnb", "--n-folds", "5", "--select-per-fold"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert "one_b#fold" in err
        assert not (tmp_path / "o" / "config.json").exists()

    def test_label_col_flag_and_config_key_agree(self, tmp_path, capsys):
        csv = str(label_first_csv(tmp_path))
        common = {"estimators": ["mi"], "algorithms": ["kbest"], "k_range": [1, 2],
                  "classifiers": ["gnb"], "n_folds": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**common, "datasets": [csv],
                                        "output_dir": str(tmp_path / "a"),
                                        "label_column": "0"}))
        assert main(["benchmark", "--config", str(cfg_path)]) == EXIT_OK
        cfg_path.write_text(json.dumps({**common, "datasets": [csv],
                                        "output_dir": str(tmp_path / "b")}))
        assert main(["benchmark", "--config", str(cfg_path), "--label-col", "0"]) == EXIT_OK
        capsys.readouterr()
        runs = [read_records(tmp_path / sub / "records.jsonl") for sub in ("a", "b")]
        assert [r.comparable_dict() for r in runs[0]] == [r.comparable_dict() for r in runs[1]]
        assert len(runs[0]) == 2
        for sub in ("a", "b"):
            assert json.loads((tmp_path / sub / "config.json").read_text())["label_column"] == "0"

    def test_bin_smoothing_exits_1(self, data_csv, tmp_path, capsys):
        code = main(["benchmark", "--datasets", data_csv,
                     "--output-dir", str(tmp_path / "o"),
                     "--estimators", "mi", "--algorithms", "kgroups",
                     "--k-min", "2", "--k-max", "2", "--classifiers", "knn",
                     "--n-folds", "3", "--bin-smoothing"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --bin-smoothing" in err

    def test_string_datasets_exits_1(self, data_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"datasets": data_csv,
                                        "output_dir": str(tmp_path / "o")}))
        code = main(["benchmark", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "config key 'datasets' needs a list" in err
        assert not (tmp_path / "o" / "config.json").exists()

    def test_datasets_sharing_a_file_stem_exit_1(self, tmp_path, capsys):
        a, b = same_stem_csvs(tmp_path)
        code = main(["benchmark", "--datasets", f"{a},{b}",
                     "--output-dir", str(tmp_path / "o"), "--estimators", "mi",
                     "--algorithms", "kbest", "--k-min", "1", "--k-max", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert a in err and b in err
        assert not (tmp_path / "o" / "config.json").exists()

    def test_nan_alpha_exits_1(self, data_csv, tmp_path, capsys):
        code = main(["benchmark", "--datasets", data_csv,
                     "--output-dir", str(tmp_path / "o"), "--estimators", "mi",
                     "--algorithms", "kgroups", "--k-min", "2", "--k-max", "2",
                     "--classifiers", "knn", "--n-folds", "3", "--alpha-grid", "nan"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "alpha values must be > 0" in err
        assert not (tmp_path / "o" / "config.json").exists()

    def test_label_col_int_cannot_read_exits_2(self, data_csv, tmp_path, capsys):
        code = main(["benchmark", "--datasets", data_csv, "--output-dir", str(tmp_path / "o"),
                     "--estimators", "mi", "--algorithms", "kbest", "--k-min", "2",
                     "--k-max", "2", "--classifiers", "gnb", "--n-folds", "3", "--label-col=--1"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert "no column named '--1'" in err

    @pytest.mark.parametrize("bad", ["missing", "latin1"])
    def test_unloadable_dataset_beside_a_loadable_one_exits_2(self, data_csv, tmp_path, capsys, bad):
        path = str(tmp_path / "missing.csv") if bad == "missing" else latin1_csv(tmp_path)
        out_dir = tmp_path / "o"
        code = main(["benchmark", "--datasets", f"{data_csv},{path}", "--output-dir", str(out_dir),
                     "--estimators", "mi", "--algorithms", "kbest", "--k-min", "2",
                     "--k-max", "2", "--classifiers", "gnb", "--n-folds", "3"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert path in err
        assert not (out_dir / "config.json").exists()
        assert not (out_dir / "records.jsonl").exists()

    def test_infinite_alpha_exits_1(self, data_csv, tmp_path, capsys):
        code = main(["benchmark", "--datasets", data_csv,
                     "--output-dir", str(tmp_path / "o"), "--estimators", "mi",
                     "--algorithms", "kgroups", "--k-min", "2", "--k-max", "2",
                     "--classifiers", "knn", "--n-folds", "3", "--alpha-grid", "0.5,inf"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "alpha values must be > 0" in err
        assert not (tmp_path / "o" / "config.json").exists()

    @pytest.mark.parametrize("bounds, keys", [
        ({"k_range": [2, 5], "k_min": 3}, "'k_range' and 'k_min'"),
        ({"k_min": 3, "k_range": [2, 5]}, "'k_range' and 'k_min'"),
        ({"k_max": 4, "k_min": 3, "k_range": [2, 5]}, "'k_range' and 'k_min' and 'k_max'"),
    ], ids=["k_range first", "k_min first", "both bounds"])
    def test_k_range_beside_k_min_or_k_max_exits_1(self, data_csv, tmp_path, capsys, bounds, keys):
        config = {"datasets": [data_csv], "output_dir": str(tmp_path / "o"),
                  "estimators": ["mi"], "algorithms": ["kbest"], "classifiers": ["knn"],
                  "n_folds": 3, **bounds}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["benchmark", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert keys in err
        assert not (tmp_path / "o").exists()

    def test_k_range_beyond_every_dataset_exits_1(self, data_csv, tmp_path, capsys):
        code = main(["benchmark", "--datasets", data_csv, "--output-dir", str(tmp_path / "o"),
                     "--estimators", "mi", "--algorithms", "kbest", "--k-min", "10",
                     "--k-max", "12", "--classifiers", "gnb", "--n-folds", "3"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "k range [10, 12]" in err
        assert not (tmp_path / "o" / "config.json").exists()

    def test_bad_config_json_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text("{nope")
        code = main(["benchmark", "--config", str(cfg_path)])
        capsys.readouterr()
        assert code == EXIT_USAGE


class TestReportAndPlotdata:
    """Aggregation commands over a records file."""

    @pytest.fixture()
    def records_file(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(["benchmark", "--datasets", data_csv,
              "--output-dir", str(out_dir),
              "--estimators", "mi", "--algorithms", "kbest,kgroups,mid",
              "--k-min", "2", "--k-max", "3", "--alpha-grid", "1.0",
              "--classifiers", "knn,gnb", "--n-folds", "3"])
        capsys.readouterr()
        return str(out_dir / "records.jsonl")

    def test_report_writes_four_tables(self, records_file, tmp_path, capsys):
        out_dir = tmp_path / "tables"
        code = main(["report", "--records", records_file,
                     "--out-dir", str(out_dir)])
        capsys.readouterr()
        assert code == EXIT_OK
        names = sorted(p.name for p in out_dir.glob("*.csv"))
        assert names == ["best_overall.csv", "pairwise_wins.csv",
                         "per_classifier_best.csv",
                         "per_classifier_summary.csv"]
        header = (out_dir / "best_overall.csv").read_text().splitlines()[0]
        assert "best_accuracy" in header

    def test_empty_table_keeps_its_header(self, data_csv, tmp_path, capsys):
        # One label per estimator: no pair of labels to tally wins between.
        main(["benchmark", "--datasets", data_csv, "--output-dir", str(tmp_path / "out"),
              "--estimators", "mi", "--algorithms", "kbest",
              "--k-min", "2", "--k-max", "2", "--classifiers", "gnb", "--n-folds", "3"])
        code = main(["report", "--records", str(tmp_path / "out" / "records.jsonl"),
                     "--out-dir", str(tmp_path / "tables")])
        capsys.readouterr()
        assert code == EXIT_OK
        assert ((tmp_path / "tables" / "pairwise_wins.csv").read_bytes()
                == b"estimator,algorithm_a,algorithm_b,wins_a,wins_b,draws\r\n")

    def test_plotdata_json(self, records_file, capsys):
        code = main(["plotdata", "--records", records_file])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert rows
        assert all("n_selected" in row for row in rows)

    def test_empty_records_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", "--records", str(empty),
                     "--out-dir", str(tmp_path / "t")]) == EXIT_DATA
        assert main(["plotdata", "--records", str(empty)]) == EXIT_DATA
        capsys.readouterr()

    def test_corrupt_records_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert main(["plotdata", "--records", str(bad)]) == EXIT_DATA
        capsys.readouterr()

    @pytest.mark.parametrize("line", ['{"dataset":"t"}', "[1,2]"])
    def test_non_record_line_exits_2(self, records_file, tmp_path, line, capsys):
        with open(records_file, "a") as f:
            f.write(line + "\n")
        assert main(["report", "--records", records_file,
                     "--out-dir", str(tmp_path / "t")]) == EXIT_DATA
        assert main(["plotdata", "--records", records_file]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "records.jsonl line 13 is not a benchmark record" in err


class TestParsing:
    """Top-level argument handling."""

    def test_no_arguments_exits_1(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_flag_exits_1(self, data_csv, capsys):
        assert main(["estimate", "--data", data_csv, "--estimator", "mi",
                     "--bogus"]) == EXIT_USAGE
        capsys.readouterr()
