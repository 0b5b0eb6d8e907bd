"""Acceptance checks: selection correctness, cost ordering, classifier quality.

Each test pins one end-to-end guarantee of the toolkit, so a run of this
module doubles as a release checklist.
"""

import json
import os
import time

import numpy as np
import pytest

from conftest import make_dataset, write_csv
from oracles import oracle_kbest, oracle_kgroups, oracle_mrmr
from ffsel import (
    RelevanceVector,
    SweepConfig,
    compute_bins,
    cross_validate,
    load_csv,
    make_folds,
    relevance_all,
    run_sweep,
    select_kbest,
    select_kgroups,
    select_mrmr,
    standard_scale,
)
from ffsel.evaluate import TIMING_FIELDS
from ffsel.forest import ForestParams
from ffsel.relevance import ABS_PEARSON, FVALUE, MI, MI_PAIR
from ffsel.selectors import DIFFERENCE, KBEST, KGROUPS, QUOTIENT

CLASSIFIERS = ("KNN", "GNB", "RF")


class TestFastPathsMatchReferences:
    """Optimized selectors reproduce brute-force reference outputs exactly."""

    def test_randomized_instances_match_all_reference_selectors(self):
        rng = np.random.default_rng(20)
        combos = (
            (DIFFERENCE, MI_PAIR),
            (DIFFERENCE, ABS_PEARSON),
            (QUOTIENT, MI_PAIR),
            (QUOTIENT, ABS_PEARSON),
        )
        breaker_choices = ((), ("COSINE",), ("COSINE", "FVALUE"))
        start = time.monotonic()
        for trial in range(500):
            n_rows = int(rng.integers(12, 41))
            if rng.random() < 0.95:
                n_cols = int(rng.integers(4, 29))
            else:
                n_cols = int(rng.integers(29, 201))
            x = rng.normal(size=(n_rows, n_cols))
            for _ in range(int(rng.integers(0, 3))):
                src, dst = rng.integers(0, n_cols, size=2)
                x[:, dst] = x[:, src]
            labels = rng.integers(0, 2, size=n_rows)
            labels[:2] = [0, 1]
            d = make_dataset(x, labels, "rand")
            values = rng.random(n_cols)
            if rng.random() < 0.5:
                values = values.round(1)  # coarse grid forces exact score ties
            rel = RelevanceVector(MI, values)
            k = int(rng.integers(1, n_cols + 1))

            assert select_kbest(rel, k).selected == oracle_kbest(rel, k).selected

            k_greedy = min(k, 8) if n_cols <= 60 else min(k, 4)
            beta = float(rng.choice([0.0, 0.3, 1.0]))
            mean_norm = bool(rng.integers(0, 2))
            for form, redundancy in combos:
                got = select_mrmr(d, rel, k_greedy, form=form, redundancy=redundancy,
                                  beta=beta, mean_normalized=mean_norm)
                ref = oracle_mrmr(d, rel, k_greedy, form=form, redundancy=redundancy,
                                  beta=beta, mean_normalized=mean_norm)
                assert got.selected == ref.selected

            alpha = float(rng.uniform(0.1, 2.5))
            breakers = breaker_choices[trial % 3]
            got = select_kgroups(d, rel, k, alpha, breakers)
            ref = oracle_kgroups(d, rel, k, alpha, breakers)
            assert set(got.selected) == set(ref.selected)
        assert time.monotonic() - start < 120.0


class TestPowerLawBinEdges:
    """Bin edge arithmetic matches hand values and is monotone in alpha."""

    def test_hand_derived_edges_and_alpha_monotonicity(self):
        rel = RelevanceVector(MI, np.array([0.0, 1.0]))
        expected = {
            0.5: (0.5, 0.7071067811865476, 0.8660254037844386, 1.0),
            1.0: (0.25, 0.5, 0.75, 1.0),
            2.0: (0.0625, 0.25, 0.5625, 1.0),
        }
        for alpha, edges in expected.items():
            got, _ = compute_bins(rel, 4, alpha)
            np.testing.assert_allclose(got, edges, rtol=0.0, atol=1e-12)

        rng = np.random.default_rng(26)
        for _ in range(10_000):
            lo = float(rng.uniform(0.0, 5.0))
            span = float(rng.uniform(1e-6, 10.0))
            rel = RelevanceVector(MI, np.array([lo, lo + span]))
            k = int(rng.integers(1, 33))
            a_lo, a_hi = np.sort(rng.uniform(0.05, 3.0, size=2))
            e_lo, _ = compute_bins(rel, k, float(a_lo))
            e_hi, _ = compute_bins(rel, k, float(a_hi))
            slack = 1e-12 * max(1.0, abs(lo) + span)
            assert np.all(e_lo >= e_hi - slack)


class TestDuplicateFeatureElimination:
    """Binned selection spreads prototypes where plain top-k picks duplicates."""

    # Signal strengths chosen so expected relevance values land near the ten
    # equal-width bin centers; the last one saturates the estimator, which
    # pins the top of the binning range.
    STRENGTHS = (0.505, 0.944, 1.273, 1.574, 1.870, 2.189, 2.536, 2.965, 3.569, 8.0)

    def _grouped_instance(self, seed, n_rows=1000, n_dup=5, n_noise=40):
        rng = np.random.default_rng(seed)
        labels = np.repeat([0, 1], n_rows // 2)
        cols, owner = [], []
        for group, strength in enumerate(self.STRENGTHS):
            proto = strength * labels + rng.normal(size=n_rows)
            for _ in range(1 + n_dup):
                cols.append(proto + rng.normal(0.0, 0.01, size=n_rows))
                owner.append(group)
        for _ in range(n_noise):
            cols.append(rng.normal(size=n_rows))
            owner.append(-1)
        d = make_dataset(np.column_stack(cols), labels, "grouped")
        return d, np.asarray(owner)

    def test_group_coverage_and_duplicate_pairs_over_twenty_seeds(self):
        passes = 0
        for seed in range(20):
            d, owner = self._grouped_instance(seed)
            rel = relevance_all(d, MI)

            grouped = select_kgroups(d, rel, 10, 1.0, ("COSINE", "FVALUE"))
            picked = np.asarray(grouped.selected)
            distinct = len({int(owner[i]) for i in picked if owner[i] >= 0})

            top = np.asarray(select_kbest(rel, 10).selected)
            members = owner[top]
            members = members[members >= 0]
            _, counts = np.unique(members, return_counts=True)
            pairs = int(sum(c * (c - 1) // 2 for c in counts))

            if picked.size <= 12 and distinct >= 8 and pairs >= 3:
                passes += 1
        assert passes >= 18


class TestZeroBetaReduction:
    """Greedy difference form with beta 0 collapses to plain top-k selection."""

    def test_zero_beta_returns_top_k_set_on_random_instances(self):
        rng = np.random.default_rng(4)
        for trial in range(200):
            n_rows = int(rng.integers(10, 31))
            n_cols = int(rng.integers(3, 25))
            labels = rng.integers(0, 2, size=n_rows)
            labels[:2] = [0, 1]
            d = make_dataset(rng.normal(size=(n_rows, n_cols)), labels, "rand")
            values = rng.random(n_cols)
            if rng.random() < 0.5:
                values = values.round(1)
            rel = RelevanceVector(MI, values)
            k = int(rng.integers(1, min(n_cols, 12) + 1))
            redundancy = MI_PAIR if trial % 2 == 0 else ABS_PEARSON
            got = select_mrmr(d, rel, k, form=DIFFERENCE, redundancy=redundancy, beta=0.0)
            assert set(got.selected) == set(select_kbest(rel, k).selected)


class TestCpuCostOrdering:
    """Binned selection costs about as much as top-k; pairwise greedy dominates."""

    def test_cost_ratios_on_wide_matrix(self):
        rng = np.random.default_rng(55)
        n_rows, n_cols, k = 200, 5000, 100
        labels = np.repeat([0, 1], n_rows // 2)
        d = make_dataset(rng.normal(size=(n_rows, n_cols)), labels, "wide")

        t0 = time.thread_time()
        rel = relevance_all(d, MI)
        select_kbest(rel, k)
        t_top = time.thread_time() - t0
        t0 = time.thread_time()
        rel = relevance_all(d, MI)
        select_kgroups(d, rel, k, 1.0)
        t_grouped = time.thread_time() - t0
        t0 = time.thread_time()
        rel = relevance_all(d, MI)
        select_mrmr(d, rel, k, form=DIFFERENCE, redundancy=MI_PAIR)
        t_greedy_mi = time.thread_time() - t0
        t0 = time.thread_time()
        rel = relevance_all(d, FVALUE)
        select_mrmr(d, rel, k, form=DIFFERENCE, redundancy=ABS_PEARSON)
        t_greedy_f = time.thread_time() - t0

        def detail(name, num, den, op, bound):
            ratio = num / max(den, 1e-9)
            return (f"{name} ratio {ratio:.2f} {op} bound {bound}: "
                    f"{num:.3f} s / {den:.3f} s")

        assert t_grouped <= 3.0 * t_top, detail(
            "grouped/top", t_grouped, t_top, "<=", 3.0)
        assert t_greedy_mi >= 20.0 * t_grouped, detail(
            "greedy-MI/grouped", t_greedy_mi, t_grouped, ">=", 20.0)
        assert t_greedy_mi >= 3.0 * t_greedy_f, detail(
            "greedy-MI/greedy-F", t_greedy_mi, t_greedy_f, ">=", 3.0)


class TestClassifierSanity:
    """Built-in classifiers separate clean blobs and drop to chance when labels shuffle."""

    def _blobs(self, seed=7, shuffle_seed=None, shift=6.0):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=200)
        labels[:2] = [0, 1]
        x = rng.normal(size=(200, 20))
        x[:, 0] += shift * labels
        x[:, 1] -= shift * labels
        if shuffle_seed is not None:
            labels = np.random.default_rng(shuffle_seed).permutation(labels)
        return standard_scale(make_dataset(x, labels, "blobs"))

    def test_separable_accuracy_and_shuffled_label_baseline(self):
        sel = list(range(20))
        d = self._blobs()
        folds = make_folds(d, 5, seed=0)
        for clf in CLASSIFIERS:
            mean, _ = cross_validate(d, sel, clf, folds,
                                     forest=ForestParams(n_trees=25, seed=0))
            assert mean >= 0.95, clf

        shuffled = {clf: [] for clf in CLASSIFIERS}
        for seed in range(20):
            d = self._blobs(shuffle_seed=100 + seed)
            folds = make_folds(d, 5, seed=seed)
            for clf in CLASSIFIERS:
                mean, _ = cross_validate(d, sel, clf, folds,
                                         forest=ForestParams(n_trees=15, seed=seed))
                shuffled[clf].append(mean)
        for clf, means in shuffled.items():
            assert float(np.mean(means)) <= 0.65, clf


class TestUserSuppliedExpressionData:
    """Some binned-MI configuration clears the accuracy bar on a real dataset."""

    ALPHA_GRID = (0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 3.0)
    BAR = 0.88

    def test_best_grouped_configuration_reaches_bar(self):
        path = os.environ.get(
            "FFSEL_COLON_CSV",
            os.path.join(os.path.dirname(__file__), os.pardir, "data", "colon.csv"),
        )
        if not os.path.exists(path):
            pytest.skip("expression dataset CSV not provided")
        d = standard_scale(load_csv(path))
        rel = relevance_all(d, MI)
        folds = make_folds(d, 5, seed=0)
        # The grid maximum is at least any member, so stop at the first hit.
        for k in range(2, 101):
            for alpha in self.ALPHA_GRID:
                picked = select_kgroups(d, rel, k, alpha, ("COSINE",)).selected
                for clf in CLASSIFIERS:
                    mean, _ = cross_validate(d, picked, clf, folds)
                    if mean >= self.BAR:
                        return
        pytest.fail(f"no configuration reached mean CV accuracy {self.BAR}")


class TestBenchmarkDeterminism:
    """Two identical benchmark runs differ only in CPU-time fields."""

    def _canonical_records(self, csv_path, out_dir):
        cfg = SweepConfig(
            datasets=(str(csv_path),),
            output_dir=str(out_dir),
            estimators=("MI",),
            algorithms=(KBEST, "MID", KGROUPS),
            k_min=2,
            k_max=3,
            alpha_grid=(0.5, 1.0),
            classifiers=("KNN", "GNB"),
            n_folds=3,
            seed=1,
        )
        list(run_sweep(cfg))
        lines = (out_dir / "records.jsonl").read_text().splitlines()
        canonical = []
        for line in lines:
            record = json.loads(line)
            for field in TIMING_FIELDS:
                record.pop(field)
            canonical.append(json.dumps(record, sort_keys=True))
        return canonical

    def test_repeat_runs_identical_modulo_timing(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = np.repeat([0, 1], 10)
        x = rng.normal(size=(20, 6))
        x[:, 0] += 3.0 * labels
        csv_path = write_csv(tmp_path / "blobs.csv", x, labels)

        first = self._canonical_records(csv_path, tmp_path / "a")
        second = self._canonical_records(csv_path, tmp_path / "b")
        assert first
        assert first == second
