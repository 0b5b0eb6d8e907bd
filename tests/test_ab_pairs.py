"""`tools/ab_pairs.py`'s summary of alternating benchmark pairs."""

import importlib.util
import json
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
    spec = importlib.util.spec_from_file_location("ab_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(correct=True, failed=0, **metrics):
    """A result line as perfbench/run.py prints it, metrics in seconds."""
    return json.dumps({
        "correct": correct,
        "attempted": 12,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()},
    })


class TestSummarize:
    def test_medians_quartiles_change_and_pairs_lower(self, tool):
        parent = [0.20, 0.21, 0.22, 0.23, 0.24]
        change = [0.18, 0.19, 0.225, 0.23, 0.20]  # lower, lower, higher, tie, lower
        pairs = [(result(sweep_s=p, setup_s=0.01), result(sweep_s=c, setup_s=0.01)) for p, c in zip(parent, change)]
        lines, ok = tool.summarize(["sweep_s", "setup_s"], pairs)
        assert ok
        assert lines == [
            "sweep_s (s): parent 0.22 [0.21, 0.23] change 0.2 -9.1% lower in 3 of 5 pairs",
            "setup_s (s): parent 0.01 [0.01, 0.01] change 0.01 +0.0% lower in 0 of 5 pairs",
        ]

    def test_metric_missing_from_a_run_counts_only_full_pairs(self, tool):
        pairs = [
            (result(sweep_s=0.3), result(sweep_s=0.2)),
            (result(sweep_s=0.3), result()),
            (result(sweep_s=0.5), result(sweep_s=0.6)),
        ]
        lines, ok = tool.summarize(["sweep_s", "peak_rss_mb"], pairs)
        assert ok
        assert lines == [
            "sweep_s (s): parent 0.4 [0.35, 0.45] change 0.4 +0.0% lower in 1 of 2 pairs",
            "peak_rss_mb: no pair reports it",
        ]

    @pytest.mark.parametrize("bad", [
        result(correct=False, sweep_s=0.2),
        result(failed=1, sweep_s=0.2),
        "",
        "not json",
        "[1, 2]",
    ])
    @pytest.mark.parametrize("side", [0, 1])
    def test_any_bad_run_fails_the_comparison(self, tool, bad, side):
        pair = [result(sweep_s=0.2), result(sweep_s=0.2)]
        pair[side] = bad
        lines, ok = tool.summarize(["sweep_s"], [(result(sweep_s=0.2), result(sweep_s=0.2)), tuple(pair)])
        assert not ok
        assert len(lines) == 1
