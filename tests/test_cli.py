"""Command-line interface: subcommands, JSON output, and exit codes."""

import json

import numpy as np
import pytest

from conftest import write_csv
from ffsel.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main


@pytest.fixture()
def data_csv(tmp_path):
    rng = np.random.default_rng(100)
    labels = np.repeat([0, 1], 12)
    x = rng.normal(size=(24, 5))
    x[:, 1] += 2.5 * labels
    return str(write_csv(tmp_path / "data.csv", x, labels,
                         class_names=("neg", "pos")))


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

    def test_unknown_estimator_exits_1(self, data_csv, capsys):
        code = main(["estimate", "--data", data_csv, "--estimator", "chi2"])
        capsys.readouterr()
        assert code == EXIT_USAGE


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
        code = main(["select", "--data", data_csv, "--algo", "mrmr",
                     "--estimator", "mi", "--k", "3", "--form", "quot"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "MRMR_Q"
        assert payload["hyperparams"]["redundancy"] == "MI_PAIR"
        code = main(["select", "--data", data_csv, "--algo", "mrmr",
                     "--estimator", "fvalue", "--k", "3", "--beta", "0.5"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["hyperparams"]["redundancy"] == "ABS_PEARSON"
        assert payload["hyperparams"]["beta"] == 0.5

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

    def test_bin_smoothing_exits_1(self, data_csv, tmp_path, capsys):
        code = main(["benchmark", "--datasets", data_csv,
                     "--output-dir", str(tmp_path / "o"),
                     "--estimators", "mi", "--algorithms", "kgroups",
                     "--k-min", "2", "--k-max", "2", "--classifiers", "knn",
                     "--n-folds", "3", "--bin-smoothing"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --bin-smoothing" in err

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
