"""Shared dataset builders for the test suite."""

import numpy as np

import ffsel.forest
import ffsel.relevance
from ffsel import Dataset, RandomForest
from ffsel.classifiers import GNB, KNN, RF, gaussian_nb_classify, knn_classify


def make_dataset(features, labels, name="toy"):
    """Wrap raw arrays in a Dataset, inventing feature and class names."""
    features = np.ascontiguousarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1
    feature_names = tuple(f"f{i}" for i in range(features.shape[1]))
    class_names = tuple(f"c{i}" for i in range(n_classes))
    return Dataset(name, features, feature_names, labels, class_names)


def count_discretizations(monkeypatch):
    """The bin count of each `discretize_columns` call, one entry per call."""
    calls = []
    code = ffsel.relevance.discretize_columns

    def counting(x, bins):
        calls.append(bins)
        return code(x, bins)

    monkeypatch.setattr(ffsel.relevance, "discretize_columns", counting)
    return calls


def predict(name, train_x, train_y, test_x, *, n_classes, k_neighbors, forest):
    """The lone classifier ``name`` trained on one block; RF is the vote of
    one forest fitted on it, the fit cross-validation grows for each fold."""
    if name == RF:
        return RandomForest(forest, n_classes).fit(train_x, train_y).predict(test_x)
    lone = {
        KNN: lambda: knn_classify(train_x, train_y, test_x, n_classes=n_classes, k_neighbors=k_neighbors),
        GNB: lambda: gaussian_nb_classify(train_x, train_y, test_x, n_classes=n_classes),
    }
    return lone[name]()


def grow_whole(x, y, n_classes, draws):
    """One tree grown by `forest._lockstep` on every row of ``x``, in row
    order, its s-th searched node scoring the one candidate column
    ``draws[s]``: its split count, root class and split records."""
    n = len(y)
    draws = np.array([list(draws) + [0] * (2 * n - 1 - len(draws))])
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y)
    return ffsel.forest._lockstep(x, y, n_classes, 1, np.arange(n), draws, np.array([n]))


def random_dataset(rng, n_rows, n_cols, n_classes=2, name="rand"):
    """Gaussian features with labels guaranteed to cover every class."""
    features = rng.normal(size=(n_rows, n_cols))
    labels = rng.integers(0, n_classes, size=n_rows)
    labels[:n_classes] = np.arange(n_classes)
    return make_dataset(features, labels, name)


def separable_dataset(rng, n_rows=60, n_cols=6, shift=4.0, name="sep"):
    """Two well-separated Gaussian blobs; every column carries the signal."""
    half = n_rows // 2
    labels = np.repeat([0, 1], (half, n_rows - half))
    features = rng.normal(size=(n_rows, n_cols)) + shift * labels[:, None]
    return make_dataset(features, labels, name)


def write_csv(path, features, labels, label_name="label", class_names=None):
    """Write a small labeled CSV the loader should accept."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    header = [f"f{i}" for i in range(features.shape[1])] + [label_name]
    lines = [",".join(header)]
    for row, lab in zip(features, labels):
        if class_names is not None:
            lab = class_names[int(lab)]
        lines.append(",".join(repr(float(v)) for v in row) + f",{lab}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def same_stem_csvs(tmp_path):
    """Two 20x6 files named x.csv in sibling directories, the class signal in
    column 0 of the first and column 5 of the second."""
    paths = []
    for sub, col in (("a", 0), ("b", 5)):
        rng = np.random.default_rng(7)
        labels = np.repeat([0, 1], 10)
        x = rng.normal(size=(20, 6))
        x[:, col] += 3.0 * labels
        (tmp_path / sub).mkdir()
        paths.append(str(write_csv(tmp_path / sub / "x.csv", x, labels)))
    return paths


def two_label_csv(tmp_path):
    """A 12-row CSV with two columns that can serve as the label: y splits
    the rows in halves, z alternates."""
    rng = np.random.default_rng(12)
    x = rng.normal(size=(12, 3))
    y, z = np.repeat([0, 1], 6), np.tile([0, 1], 6)
    lines = ["a,b,c,y,z"] + [",".join(map(repr, row)) + f",{yi},{zi}" for row, yi, zi in zip(x.tolist(), y, z)]
    path = tmp_path / "yz.csv"
    path.write_text("\n".join(lines) + "\n")
    return path
