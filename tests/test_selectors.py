"""Selection algorithms: top-k, greedy relevance-redundancy, and binning."""

import math

import numpy as np
import pytest

from conftest import count_discretizations, make_dataset, random_dataset
from ffsel import (
    MRMR_VARIANTS,
    RelevanceVector,
    SelectionResult,
    compute_bins,
    relevance_all,
    select_kbest,
    select_kgroups,
    select_mrmr,
)
from ffsel.relevance import ABS_PEARSON, COSINE, DEFAULT_MI_BINS, FVALUE, MI, MI_PAIR
from ffsel.selectors import DIFFERENCE, KBEST, KGROUPS, MRMR_D, MRMR_Q, QUOTIENT


def rel_vec(values, estimator=MI):
    return RelevanceVector(estimator, np.asarray(values, dtype=np.float64))


class TestSelectKBest:
    """Top-k by relevance with index tie-breaking."""

    def test_top_two(self):
        r = select_kbest(rel_vec([0.1, 0.9, 0.5]), 2)
        assert r.selected == (1, 2)
        assert r.algorithm == KBEST

    def test_k_equals_n_cols_sorts_everything(self):
        r = select_kbest(rel_vec([0.3, 0.7, 0.1, 0.9]), 4)
        assert r.selected == (3, 1, 0, 2)

    def test_duplicate_values_break_toward_lower_index(self):
        r = select_kbest(rel_vec([0.5, 0.5, 0.1]), 1)
        assert r.selected == (0,)

    def test_matches_full_sort_on_random_vectors(self):
        rng = np.random.default_rng(40)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            values = np.round(rng.uniform(0, 1, size=n), int(rng.integers(1, 8)))
            k = int(rng.integers(1, n + 1))
            got = select_kbest(rel_vec(values), k).selected
            expect = sorted(range(n), key=lambda i: (-values[i], i))[:k]
            assert list(got) == expect

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            select_kbest(rel_vec([0.1, 0.2]), 0)
        with pytest.raises(ValueError):
            select_kbest(rel_vec([0.1, 0.2]), 3)


class TestComputeBins:
    """Power-law bin edges over the relevance range."""

    def test_unit_range_alpha_one(self):
        edges, _ = compute_bins(rel_vec([0.0, 1.0]), 4, 1.0)
        np.testing.assert_allclose(edges, [0.25, 0.5, 0.75, 1.0],
                                   atol=1e-15)

    def test_unit_range_alpha_half(self):
        edges, _ = compute_bins(rel_vec([0.0, 1.0]), 4, 0.5)
        np.testing.assert_allclose(
            edges,
            [0.5, math.sqrt(2.0) / 2.0, math.sqrt(3.0) / 2.0, 1.0],
            atol=1e-15)

    def test_hand_assignment_case(self):
        edges, bins = compute_bins(rel_vec([0.1, 0.2, 0.9, 0.85]), 2, 1.0)
        np.testing.assert_allclose(edges, [0.5, 0.9], atol=1e-15)
        np.testing.assert_array_equal(bins, [0, 0, 1, 1])
        assert edges[-1] == 0.9

    def test_degenerate_equal_relevance(self):
        edges, bins = compute_bins(rel_vec([0.4, 0.4, 0.4]), 3, 1.0)
        np.testing.assert_array_equal(bins, [0, 0, 0])
        assert edges[-1] == 0.4

    def test_minimum_value_joins_first_cluster(self):
        _, bins = compute_bins(rel_vec([0.2, 0.6, 1.0]), 5, 1.0)
        assert bins[0] == 0

    def test_membership_invariants_random(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            values = rng.uniform(0, 1, size=n)
            if rng.random() < 0.3:
                values = np.round(values, 1)
            k = int(rng.integers(1, 12))
            alpha = float(rng.uniform(0.05, 3.0))
            edges, bins = compute_bins(rel_vec(values), k, alpha)
            assert (np.diff(edges) >= 0).all()
            assert edges[-1] == values.max()
            for i, j in enumerate(bins):
                assert values[i] <= edges[j]
                if j > 0:
                    assert values[i] > edges[j - 1]

    def test_edges_decrease_as_alpha_shrinks(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            values = rng.uniform(0, 1, size=10)
            k = int(rng.integers(1, 9))
            a1, a2 = sorted(rng.uniform(0.05, 3.0, size=2))
            lo, _ = compute_bins(rel_vec(values), k, a1)
            hi, _ = compute_bins(rel_vec(values), k, a2)
            assert (lo >= hi - 1e-15).all()

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            compute_bins(rel_vec([0.1, 0.9]), 2, 0.0)
        with pytest.raises(ValueError):
            compute_bins(rel_vec([0.1, 0.9]), 2, -1.0)
        with pytest.raises(ValueError, match="finite"):
            compute_bins(rel_vec([0.1, 0.9]), 2, float("inf"))


class TestSelectMrmr:
    """Greedy relevance-minus/over-redundancy selection."""

    def test_first_pick_is_argmax_both_forms(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            d = random_dataset(rng, 20, 6)
            values = rng.uniform(0, 1, size=6)
            for form in (DIFFERENCE, QUOTIENT):
                r = select_mrmr(d, rel_vec(values), 3, form=form,
                                redundancy=ABS_PEARSON)
                assert r.selected[0] == int(np.argmax(values))

    def test_beta_zero_reduces_to_kbest(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            d = random_dataset(rng, 18, 7)
            values = rng.uniform(0, 1, size=7)
            k = int(rng.integers(1, 8))
            got = select_mrmr(d, rel_vec(values), k, form=DIFFERENCE,
                              redundancy=MI_PAIR, beta=0.0)
            assert set(got.selected) == set(select_kbest(rel_vec(values), k).selected)

    def test_duplicate_column_penalized(self):
        rng = np.random.default_rng(45)
        x = rng.normal(size=20)
        third = rng.normal(size=20)
        d = make_dataset(np.column_stack([x, x, third]), [0] * 10 + [1] * 10)
        r = select_mrmr(d, rel_vec([0.9, 0.89, 0.5], FVALUE), 2,
                        form=DIFFERENCE, redundancy=ABS_PEARSON)
        assert r.selected == (0, 2)

    def test_quotient_favors_zero_redundancy(self):
        # column 2 is orthogonal to column 0, column 1 is a near copy
        base = np.array([1.0, -1.0, 1.0, -1.0])
        ortho = np.array([1.0, 1.0, -1.0, -1.0])
        d = make_dataset(np.column_stack([base, base * 0.9 + ortho * 0.1,
                                          ortho]), [0, 1, 0, 1])
        r = select_mrmr(d, rel_vec([0.9, 0.8, 0.2]), 2, form=QUOTIENT,
                        redundancy=ABS_PEARSON)
        assert r.selected == (0, 2)

    def test_mean_normalization_changes_third_pick(self):
        # orthonormal-basis construction: column correlations are exact, so
        # the running-sum score picks column 3 while the mean score picks 2
        c0 = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        ca = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
        cb = np.array([1.0, -1.0, -1.0, 1.0]) / 2.0
        col0 = c0
        col1 = 0.1 * c0 + math.sqrt(0.99) * ca
        a1 = (0.4 - 0.1 * 0.4) / math.sqrt(0.99)
        col2 = 0.4 * c0 + a1 * ca + math.sqrt(1 - 0.16 - a1 ** 2) * cb
        b1 = (0.1 - 0.1 * 0.1) / math.sqrt(0.99)
        col3 = 0.1 * c0 + b1 * ca + math.sqrt(1 - 0.01 - b1 ** 2) * cb
        d = make_dataset(np.column_stack([col0, col1, col2, col3]),
                         [0, 1, 0, 1])
        values = rel_vec([1.0, 0.95, 0.9, 0.55])
        mean_form = select_mrmr(d, values, 3, form=DIFFERENCE,
                                redundancy=ABS_PEARSON, mean_normalized=True)
        sum_form = select_mrmr(d, values, 3, form=DIFFERENCE,
                               redundancy=ABS_PEARSON, mean_normalized=False)
        assert mean_form.selected == (0, 1, 2)
        assert sum_form.selected == (0, 1, 3)

    def test_k_equals_n_cols_is_a_permutation(self):
        rng = np.random.default_rng(46)
        d = random_dataset(rng, 15, 5)
        r = select_mrmr(d, rel_vec(rng.uniform(0, 1, 5)), 5,
                        redundancy=ABS_PEARSON)
        assert sorted(r.selected) == [0, 1, 2, 3, 4]

    def test_form_names_the_algorithm(self):
        rng = np.random.default_rng(47)
        d = random_dataset(rng, 12, 4)
        values = rel_vec(rng.uniform(0, 1, 4))
        diff = select_mrmr(d, values, 2, form=DIFFERENCE, redundancy=MI_PAIR,
                           beta=0.7)
        assert diff.algorithm == MRMR_D
        quot = select_mrmr(d, values, 2, form=QUOTIENT, redundancy=MI_PAIR)
        assert quot.algorithm == MRMR_Q

    @pytest.mark.parametrize("form", [DIFFERENCE, QUOTIENT])
    @pytest.mark.parametrize("redundancy", [MI_PAIR, ABS_PEARSON])
    def test_runs_nest_as_prefixes_with_per_pick_cpu(self, form, redundancy):
        rng = np.random.default_rng(48)
        d = random_dataset(rng, 16, 9)
        values = rel_vec(rng.uniform(0, 1, 9))
        full = select_mrmr(d, values, 9, form=form, redundancy=redundancy)
        for k in range(1, 9):
            part = select_mrmr(d, values, k, form=form, redundancy=redundancy)
            assert part.selected == full.selected[:k]
        assert len(full.pick_cpu_seconds) == 9
        assert all(0.0 <= a <= b for a, b in zip(full.pick_cpu_seconds, full.pick_cpu_seconds[1:]))
        assert full.pick_cpu_seconds[-1] <= full.cpu_time_seconds

    def test_invalid_arguments_rejected(self):
        rng = np.random.default_rng(50)
        d = random_dataset(rng, 10, 3)
        values = rel_vec([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            select_mrmr(d, values, 0)
        with pytest.raises(ValueError):
            select_mrmr(d, values, 4)
        with pytest.raises(ValueError):
            select_mrmr(d, values, 2, form="SUM")
        with pytest.raises(ValueError):
            select_mrmr(d, values, 2, redundancy="TAU")
        with pytest.raises(ValueError, match="relevance length 2 does not match dataset with 3 features"):
            select_mrmr(d, rel_vec([0.1, 0.2]), 1)


class TestSharedMiCodes:
    """MI redundancy reuses the code rows MI relevance kept, and only those
    made from the same matrix with the same bins."""

    @pytest.mark.parametrize("variant", ["MID", "MIQ", "MIFS"])
    def test_cold_selection_discretizes_once(self, monkeypatch, variant):
        d = random_dataset(np.random.default_rng(5), 40, 24)
        calls = count_discretizations(monkeypatch)
        _, form, redundancy, mean_normalized = MRMR_VARIANTS[variant]
        rel = relevance_all(d, MI)
        r = select_mrmr(d, rel, 8, form, redundancy, mean_normalized=mean_normalized)
        assert calls == [DEFAULT_MI_BINS]
        assert r.selected == select_mrmr(
            d, rel_vec(rel.values), 8, form, redundancy, mean_normalized=mean_normalized
        ).selected

    def test_codes_reused_only_from_same_matrix_and_bins(self):
        d = random_dataset(np.random.default_rng(5), 40, 24)
        noisy = make_dataset(d.features + 0.5 * np.random.default_rng(6).normal(size=d.features.shape), d.labels)

        def picks(data, rel, **kwargs):
            return select_mrmr(data, rel, 8, **kwargs).selected

        # (a) same matrix and bins: the kept codes are the ones the cache would make.
        rel = relevance_all(d, MI)
        assert picks(d, rel) == picks(d, rel_vec(rel.values))
        assert repr(rel) == repr(rel_vec(rel.values))
        # (b) codes kept at 5 bins, redundancy at the default 10.
        rel5 = relevance_all(d, MI, mi_bins=5)
        right = picks(d, rel_vec(rel5.values))
        assert right != picks(d, rel_vec(rel5.values), mi_bins=5)  # what 5-bin codes would pick
        assert picks(d, rel5) == right
        # (c) codes kept for another matrix of the same shape.
        rel_noisy = relevance_all(noisy, MI)
        right = picks(d, rel_vec(rel_noisy.values))
        assert right != picks(noisy, rel_vec(rel_noisy.values))  # what the other codes would pick
        assert picks(d, rel_noisy) == right


class TestSelectKGroups:
    """Bin-then-pick selection with sequential tie-breaking."""

    def test_per_cluster_argmax(self):
        rng = np.random.default_rng(51)
        d = random_dataset(rng, 12, 4)
        r = select_kgroups(d, rel_vec([0.1, 0.2, 0.9, 0.85]), 2, 1.0)
        assert r.selected == (2, 1)
        assert r.algorithm == KGROUPS

    def test_all_equal_with_no_breakers_returns_everything(self):
        rng = np.random.default_rng(52)
        d = random_dataset(rng, 12, 3)
        r = select_kgroups(d, rel_vec([0.4, 0.4, 0.4]), 1, 1.0)
        assert set(r.selected) == {0, 1, 2}
        assert len(r.selected) == 3

    def test_identical_columns_exhaust_identical_breakers(self):
        rng = np.random.default_rng(53)
        x = rng.normal(size=20)
        other = rng.normal(size=20)
        d = make_dataset(np.column_stack([x, x, other]), [0] * 10 + [1] * 10)
        values = rel_vec([0.8, 0.8, 0.1])
        for breakers in ((), (COSINE,), (COSINE, FVALUE)):
            r = select_kgroups(d, values, 2, 1.0, breakers)
            assert set(r.selected) >= {0, 1}

    def test_distinguishing_breaker_collapses_tie(self):
        rng = np.random.default_rng(54)
        x = rng.normal(size=30)
        jittered = x + rng.normal(0, 0.05, size=30)
        d = make_dataset(np.column_stack([x, jittered, rng.normal(size=30)]),
                         [0] * 15 + [1] * 15)
        cos0 = float(np.abs(d.features[:, 0] @ d.labels) /
                     (np.linalg.norm(d.features[:, 0]) *
                      np.linalg.norm(d.labels.astype(float))))
        cos1 = float(np.abs(d.features[:, 1] @ d.labels) /
                     (np.linalg.norm(d.features[:, 1]) *
                      np.linalg.norm(d.labels.astype(float))))
        assert not math.isclose(cos0, cos1, rel_tol=1e-9)
        winner = 0 if cos0 > cos1 else 1
        r = select_kgroups(d, rel_vec([0.8, 0.8, 0.1]), 2, 1.0, (COSINE,))
        assert set(r.selected) == {winner, 2}

    def test_k_above_n_cols_allowed(self):
        rng = np.random.default_rng(55)
        d = random_dataset(rng, 10, 2)
        r = select_kgroups(d, rel_vec([0.3, 0.9]), 7, 1.0)
        assert set(r.selected) <= {0, 1}

    def test_output_sorted_by_descending_relevance(self):
        rng = np.random.default_rng(56)
        for _ in range(50):
            n = int(rng.integers(2, 25))
            d = random_dataset(rng, 14, n)
            values = rng.uniform(0, 1, size=n)
            k = int(rng.integers(1, 12))
            r = select_kgroups(d, rel_vec(values), k, 1.0)
            picked = np.asarray(r.selected)
            assert (np.diff(values[picked]) <= 1e-15).all()

    def test_one_winner_per_cluster_without_ties(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            d = random_dataset(rng, 12, n)
            # distinct values guarantee tie-free clusters
            values = rng.permutation(np.linspace(0.05, 0.95, n))
            k = int(rng.integers(1, 10))
            alpha = float(rng.uniform(0.3, 2.0))
            r = select_kgroups(d, rel_vec(values), k, alpha)
            _, bins = compute_bins(rel_vec(values), k, alpha)
            clusters = bins[np.asarray(r.selected)]
            assert len(set(clusters.tolist())) == len(r.selected)
            for feat in r.selected:
                members = bins == bins[feat]
                assert values[feat] == values[members].max()
            assert len(r.selected) == len(set(bins.tolist()))

    def test_scaling_invariance_of_selected_sets(self):
        rng = np.random.default_rng(58)
        for _ in range(30):
            n = int(rng.integers(3, 15))
            d = random_dataset(rng, 12, n)
            values = rng.uniform(0, 1, size=n)
            a = float(rng.uniform(0.5, 3.0))
            b = float(rng.uniform(0.0, 2.0))
            k = int(rng.integers(1, 8))
            base = select_kgroups(d, rel_vec(values), k, 1.3)
            moved = select_kgroups(d, rel_vec(a * values + b), k, 1.3)
            assert set(base.selected) == set(moved.selected)
            kb = select_kbest(rel_vec(values), min(k, n))
            kb2 = select_kbest(rel_vec(a * values + b), min(k, n))
            assert set(kb.selected) == set(kb2.selected)

    def test_smoothing_flag_not_implemented(self):
        rng = np.random.default_rng(59)
        d = random_dataset(rng, 10, 3)
        with pytest.raises(TypeError):  # no smoothing argument exists
            select_kgroups(d, rel_vec([0.1, 0.5, 0.9]), 2, 1.0,
                           smoothing=True)

    def test_unknown_tie_breaker_rejected(self):
        rng = np.random.default_rng(60)
        d = random_dataset(rng, 10, 3)
        with pytest.raises(ValueError):
            select_kgroups(d, rel_vec([0.1, 0.5, 0.9]), 2, 1.0, ("CHI2",))

    def test_relevance_length_mismatch_rejected(self):
        d = random_dataset(np.random.default_rng(61), 10, 3)
        with pytest.raises(ValueError, match="relevance length 4 does not match dataset with 3 features"):
            select_kgroups(d, rel_vec([0.1, 0.5, 0.9, 0.2]), 2, 1.0)


class TestVariantNames:
    """Published names of the greedy variant grid."""

    def test_named_grid(self):
        assert MRMR_VARIANTS == {
            "MID": (MI, DIFFERENCE, MI_PAIR, True),
            "MIQ": (MI, QUOTIENT, MI_PAIR, True),
            "FCD": (FVALUE, DIFFERENCE, ABS_PEARSON, True),
            "FCQ": (FVALUE, QUOTIENT, ABS_PEARSON, True),
            "RFCQ": ("GINI", QUOTIENT, ABS_PEARSON, True),
            "RFCD": ("GINI", DIFFERENCE, ABS_PEARSON, True),
            "MIFS": (MI, DIFFERENCE, MI_PAIR, False),
        }


class TestSelectionResult:
    """Result container validation."""

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            SelectionResult(KBEST, (1, 1), 0.0)

    def test_negative_cpu_time_rejected(self):
        with pytest.raises(ValueError):
            SelectionResult(KBEST, (0,), -0.5)
