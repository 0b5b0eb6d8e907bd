"""CSV loading, scaling, and stratified fold construction."""

import warnings

import numpy as np
import pytest

import ffsel.data
from conftest import make_dataset, random_dataset, write_csv
from ffsel import DataError, Dataset, load_csv, make_folds, standard_scale

# Files the loader accepts: (id, text, label_column).  NumPy's reader and
# the csv module must load each one alike, whichever of them parses it.
ACCEPTED = [
    ("quoted-cells", 'x,y,label\n"1.5","2",a\n3,"4e1","b"\n', None),
    ("comma-in-label", 'x,label\n1,"a,b"\n2,c\n', None),
    ("doubled-quotes", 'x,label\n1,"say ""hi"""\n2,b\n', None),
    ("newline-in-label", 'x,label\n1,"two\nlines"\n2,b\n3,"two\nlines"\n', None),
    ("nul-in-label", "x,label\n1,a\x00\n2,b\n", None),
    ("spaces-around-cells", "x,y,label\n 1 ,\t2, a \n3,4 ,b\n", None),
    ("crlf", "x,y,label\r\n1,2,a\r\n3,4,b\r\n", None),
    ("cr-only", "x,y,label\r1,2,a\r3,4,b\r", None),
    ("blank-lines", "x,label\n\n1,a\n\n\n2,b\n\n", None),
    ("whitespace-lines", "x,label\n1,a\n   \n\t\n2,b\n", None),
    ("whitespace-line-in-quotes", 'x,label\n1,"x\n  \ny"\n2,b\n', None),
    ("whitespace-line-after-quote", 'x,label\n1,"a"\n  \n2,b\n', None),
    ("no-final-newline", "x,label\n1,a\n2,b", None),
    ("label-first", "lab,x,y\na,1,2\nb,3,4\n", 0),
    ("label-middle", "x,lab,y\n1,a,2\n3,b,4\n", 1),
    ("label-named", "x,lab,y\n1,a,2\n3,b,4\n", "lab"),
    ("underscore-digits", "x,label\n1_0,a\n2,b\n", None),
    ("arabic-indic-digits", "x,label\n\u0661\u0662,a\n2,b\n", None),
    ("underflow-and-negative-zero", "x,y,label\n1e-400,-0,a\n-0.0,5e-324,b\n", None),
]

# Files the loader rejects: (id, text, label_column, the DataError after the path).
REJECTED = [
    ("non-numeric", "x,label\n1.0,a\noops,b\n", None, "row 3, column 'x': cannot parse 'oops' as a real number"),
    ("empty-cell", "x,y,label\n1,,a\n2,3,b\n", None, "row 2, column 'y': cannot parse '' as a real number"),
    ("trailing-comma", "x,label\n1,a,\n2,b,\n", None, "row 2 has 3 cells, expected 2"),
    ("cell-count", "x,y,label\n1,2,a\n3,b\n", None, "row 3 has 2 cells, expected 3"),
    ("every-row-short", "lab,x,y\na,1\nb,2\n", 0, "row 2 has 2 cells, expected 3"),
    ("inf", "x,y,label\n1,2,a\n3,inf,b\n", None, "row 3, column 'y': non-finite value 'inf'"),
    ("nan", "x,y,label\n1,2,a\n3,4,b\nNaN,5,a\n", None, "row 4, column 'x': non-finite value 'NaN'"),
    ("overflow", "x,y,label\n1e400,2,a\n3,4,b\n", None, "row 2, column 'x': non-finite value '1e400'"),
    ("header-only", "x,label\n", None, "need at least 2 data rows, got 0"),
    ("one-row", "x,label\n1,a\n", None, "need at least 2 data rows, got 1"),
    ("constant-label", "x,label\n1,a\n2,a\n", None, "label column is constant ('a'); need at least 2 classes"),
]


class TestLoadCsv:
    """Parsing, label-column resolution, and rejection of bad input."""

    def test_string_labels_encoded_by_first_appearance(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("x,y,label\n1.0,2.0,b\n3.0,4.0,a\n5.0,6.0,b\n")
        d = load_csv(p)
        assert d.n_rows == 3
        assert d.n_cols == 2
        assert d.n_classes == 2
        # "b" appears first so it becomes class 0
        assert list(d.labels) == [0, 1, 0]
        assert tuple(d.class_names) == ("b", "a")
        assert tuple(d.feature_names) == ("x", "y")

    def test_label_column_by_name_and_by_index(self, tmp_path):
        p = tmp_path / "named.csv"
        p.write_text("lab,u,v\na,1.0,2.0\nb,3.0,4.0\n")
        by_name = load_csv(p, label_column="lab")
        by_index = load_csv(p, label_column=0)
        assert tuple(by_name.feature_names) == ("u", "v")
        np.testing.assert_array_equal(by_name.features, by_index.features)
        np.testing.assert_array_equal(by_name.labels, by_index.labels)

    def test_default_label_is_last_column(self, tmp_path):
        rng = np.random.default_rng(0)
        p = write_csv(tmp_path / "gen.csv", rng.normal(size=(8, 3)),
                      [0, 1, 0, 1, 0, 1, 0, 1])
        d = load_csv(p)
        assert d.n_cols == 3
        assert d.n_classes == 2

    def test_values_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 4))
        p = write_csv(tmp_path / "rt.csv", x, [0, 0, 1, 1, 1])
        d = load_csv(p)
        np.testing.assert_array_equal(d.features, x)

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises((DataError, OSError)):
            load_csv(tmp_path / "absent.csv")

    def test_non_numeric_feature_cell_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,label\n1.0,a\noops,b\n")
        with pytest.raises(DataError):
            load_csv(p)

    def test_nan_cell_rejected_with_location(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("x,y,label\n1.0,2.0,a\n3.0,NaN,b\n")
        with pytest.raises(DataError) as err:
            load_csv(p)
        msg = str(err.value).lower()
        assert "nan" in msg or "row" in msg

    def test_unknown_label_column_rejected(self, tmp_path):
        p = tmp_path / "lab.csv"
        p.write_text("x,label\n1.0,a\n2.0,b\n")
        with pytest.raises(DataError):
            load_csv(p, label_column="nope")

    @pytest.mark.parametrize("name", ["--1", "\u00b2"])
    def test_digit_like_strings_int_rejects_are_header_names(self, tmp_path, name):
        # A superscript two is a digit but not a decimal, and "--1" is no number.
        p = tmp_path / "lab.csv"
        p.write_text("x,label\n1.0,a\n2.0,b\n")
        with pytest.raises(DataError, match="no column named"):
            load_csv(p, label_column=name)

    @pytest.mark.parametrize("text,label_column", [c[1:] for c in ACCEPTED], ids=[c[0] for c in ACCEPTED])
    def test_accepted_files_load_as_the_csv_module_parses_them(self, tmp_path, monkeypatch, text, label_column):
        p = tmp_path / "in.csv"
        p.write_bytes(text.encode("utf-8"))
        got = load_csv(p, label_column=label_column)
        monkeypatch.setattr(ffsel.data, "_read_table", lambda *args: None)
        want = load_csv(p, label_column=label_column)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.features.shape == want.features.shape
        assert got.labels.tolist() == want.labels.tolist()
        assert got.class_names == want.class_names
        assert got.feature_names == want.feature_names

    def test_plain_file_skips_the_csv_module(self, tmp_path, monkeypatch):
        # A loader that always fell back would pass the corpus above.
        def refuse(*args):
            raise AssertionError("a plain file reached _read_cells")

        monkeypatch.setattr(ffsel.data, "_read_cells", refuse)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 4))
        d = load_csv(write_csv(tmp_path / "plain.csv", x, [0, 1, 0, 1, 1, 0]))
        assert d.features.tobytes() == np.asfortranarray(x).tobytes()

    def test_whitespace_only_lines_skip_the_csv_module(self, tmp_path, monkeypatch):
        # The corpus above compares such files with the csv module's parse,
        # with the quoted cases where such a line must be kept.
        def refuse(*args):
            raise AssertionError("a file with whitespace-only lines reached _read_cells")

        monkeypatch.setattr(ffsel.data, "_read_cells", refuse)
        p = tmp_path / "in.csv"
        p.write_bytes("x,y,label\n1,2,a\n   \n\t\n3,4,b\n \x0c\r\n5,6,a\n".encode("utf-8"))
        d = load_csv(p)
        assert d.features.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        assert d.labels.tolist() == [0, 1, 0]
        assert d.class_names == ["a", "b"]

    @pytest.mark.parametrize("text,label_column,message", [c[1:] for c in REJECTED], ids=[c[0] for c in REJECTED])
    def test_rejected_files_name_the_fault(self, tmp_path, text, label_column, message):
        p = tmp_path / "in.csv"
        p.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # NumPy's "input contained no data" must not escape
            with pytest.raises(DataError) as err:
                load_csv(p, label_column=label_column)
        assert str(err.value) == f"{p}: {message}"

    def test_non_utf8_byte_past_64_kib_names_its_position(self, tmp_path):
        rows = "".join(f"{i % 7}.{i % 13},{i % 3},{'ab'[i % 2]}\n" for i in range(9000))
        data = ("x,y,label\n" + rows).encode()
        p = tmp_path / "latin.csv"
        p.write_bytes(data[:70001] + b"\xff" + data[70001:])
        with pytest.raises(DataError) as err:
            load_csv(p)
        assert str(err.value) == (
            f"{p}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 4465: invalid start byte"
        )


class TestDataset:
    """Container invariants and accessors."""

    def test_shape_accessors(self):
        rng = np.random.default_rng(2)
        d = random_dataset(rng, 12, 5, n_classes=3)
        assert d.n_rows == 12
        assert d.n_cols == 5
        assert d.n_classes == 3

    def test_labels_must_cover_every_class(self):
        x = np.zeros((4, 2))
        with pytest.raises((ValueError, DataError)):
            # class 1 missing
            Dataset("bad", x, ("a", "b"), np.array([0, 0, 2, 2]),
                    ("c0", "c1", "c2"))

    def test_row_count_mismatch_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises((ValueError, DataError)):
            Dataset("bad", x, ("a", "b"), np.array([0, 1, 0]), ("c0", "c1"))


class TestStandardScale:
    """Per-column z-scoring with the population standard deviation."""

    def test_analytic_column(self):
        d = make_dataset(np.array([[1.0], [2.0], [3.0]]), [0, 1, 0])
        s = standard_scale(d)
        expect = np.array([-1.0, 0.0, 1.0]) * np.sqrt(3.0 / 2.0)
        np.testing.assert_allclose(s.features[:, 0], expect, atol=1e-12)

    def test_constant_column_maps_to_zeros(self):
        d = make_dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]),
                         [0, 1, 0])
        s = standard_scale(d)
        np.testing.assert_array_equal(s.features[:, 0], np.zeros(3))

    def test_moments_after_scaling(self):
        rng = np.random.default_rng(3)
        d = random_dataset(rng, 40, 6)
        s = standard_scale(d)
        np.testing.assert_allclose(s.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(s.features.std(axis=0), 1.0, atol=1e-12)

    def test_original_untouched_and_metadata_kept(self):
        rng = np.random.default_rng(4)
        d = random_dataset(rng, 10, 3)
        before = d.features.copy()
        s = standard_scale(d)
        np.testing.assert_array_equal(d.features, before)
        assert tuple(s.feature_names) == tuple(d.feature_names)
        np.testing.assert_array_equal(s.labels, d.labels)


class TestMakeFolds:
    """Stratified, seeded, near-equal fold assignment."""

    def test_exact_stratification_on_balanced_toy(self):
        d = make_dataset(np.arange(20.0).reshape(10, 2),
                         [0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
        plan = make_folds(d, 5, seed=0)
        for f in range(5):
            rows = plan.fold_rows(f)
            assert len(rows) == 2
            assert sorted(d.labels[rows]) == [0, 1]

    def test_fold_sizes_balanced_within_one_per_class(self):
        rng = np.random.default_rng(5)
        d = random_dataset(rng, 47, 3, n_classes=3)
        plan = make_folds(d, 4, seed=9)
        for c in range(3):
            per_fold = [int(np.sum(d.labels[plan.fold_rows(f)] == c))
                        for f in range(4)]
            assert max(per_fold) - min(per_fold) <= 1

    def test_62_rows_5_folds_size_multiset(self):
        # 40/22 class split: per-class balance forces sizes 13,13,12,12,12
        labels = np.array([0] * 40 + [1] * 22)
        rng = np.random.default_rng(6)
        d = make_dataset(rng.normal(size=(62, 4)), labels)
        plan = make_folds(d, 5, seed=1)
        sizes = sorted(len(plan.fold_rows(f)) for f in range(5))
        assert sizes == [12, 12, 12, 13, 13]

    def test_folds_partition_the_rows(self):
        rng = np.random.default_rng(7)
        d = random_dataset(rng, 33, 2, n_classes=2)
        plan = make_folds(d, 6, seed=3)
        seen = np.concatenate([plan.fold_rows(f) for f in range(6)])
        assert sorted(seen.tolist()) == list(range(33))
        for f in range(6):
            train = set(plan.train_rows(f).tolist())
            test = set(plan.fold_rows(f).tolist())
            assert not train & test
            assert train | test == set(range(33))

    def test_same_seed_reproduces_different_seed_moves(self):
        rng = np.random.default_rng(8)
        d = random_dataset(rng, 60, 2, n_classes=2)
        a = make_folds(d, 5, seed=11)
        b = make_folds(d, 5, seed=11)
        c = make_folds(d, 5, seed=12)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_bad_fold_counts_rejected(self):
        rng = np.random.default_rng(9)
        d = random_dataset(rng, 10, 2)
        with pytest.raises(ValueError):
            make_folds(d, 0)
        with pytest.raises(ValueError):
            make_folds(d, 11)

    def test_tiny_class_spans_fewer_folds_with_warning(self):
        labels = np.array([0] * 9 + [1] * 3)
        rng = np.random.default_rng(10)
        d = make_dataset(rng.normal(size=(12, 2)), labels)
        with pytest.warns(UserWarning):
            plan = make_folds(d, 4, seed=0)
        minority_folds = {int(plan.assignments[r])
                          for r in np.flatnonzero(d.labels == 1)}
        assert len(minority_folds) == 3
