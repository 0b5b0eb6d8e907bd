"""`tools/forest_ab.py` on tiny shapes: interleaved runs, and a stop at the first difference."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FOREST = ROOT / "src" / "ffsel" / "forest.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("forest_ab", ROOT / "tools" / "forest_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_cases(tool):
    return tool.cases(1, gini_shapes=((30, 60),), cv_shape=(30, 60), ks=(2, 5))


class TestForestAb:
    def test_two_loads_of_one_file_agree_and_are_timed(self, tool):
        parent, change = tool.load(FOREST, "forest_ab_parent"), tool.load(FOREST, "forest_ab_change")
        assert parent is not change
        rows = tool.compare(parent, change, tiny_cases(tool), reps=3)
        assert [name for name, _, _ in rows] == [
            "gini 30x60", "cv k=2 planted", "cv k=2 noise", "cv k=5 planted", "cv k=5 noise",
        ]
        for name, p, c in rows:
            assert p.shape == c.shape == (3,), name
            assert (p > 0).all() and (c > 0).all(), name

    def test_a_forest_that_grows_other_trees_is_refused(self, tool, tmp_path):
        # Node impurity lowered by 0.5 makes every gain negative: no splits.
        source = FOREST.read_text(encoding="utf-8")
        broken = source.replace("return 1.0 - np.matmul(", "return 0.5 - np.matmul(")
        assert broken != source
        (tmp_path / "forest.py").write_text(broken, encoding="utf-8")
        parent, change = tool.load(FOREST, "forest_ab_good"), tool.load(tmp_path / "forest.py", "forest_ab_broken")
        with pytest.raises(AssertionError, match="gini 30x60: the two forest.py files disagree at rep 0"):
            tool.compare(parent, change, tiny_cases(tool), reps=1)
