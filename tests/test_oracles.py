"""Reference reimplementations must agree with the fast selection paths."""

import numpy as np

from conftest import make_dataset, random_dataset
from oracles import oracle_kbest, oracle_kgroups, oracle_mrmr
from ffsel import (
    RelevanceVector,
    select_kbest,
    select_kgroups,
    select_mrmr,
)
from ffsel.relevance import ABS_PEARSON, COSINE, FVALUE, MI, MI_PAIR
from ffsel.selectors import DIFFERENCE, QUOTIENT


def rel_vec(values, estimator=MI):
    return RelevanceVector(estimator, np.asarray(values, dtype=np.float64))


def messy_instance(rng, max_cols=25):
    """Random dataset with injected duplicate columns and tied relevance."""
    n_rows = int(rng.integers(12, 40))
    n_cols = int(rng.integers(3, max_cols))
    x = rng.normal(size=(n_rows, n_cols))
    for _ in range(int(rng.integers(0, 3))):
        i, j = rng.integers(0, n_cols, size=2)
        x[:, j] = x[:, i]
    d = random_dataset(rng, n_rows, n_cols)
    d = make_dataset(x, d.labels)
    values = rng.uniform(0, 1, size=n_cols)
    if rng.random() < 0.5:
        values = np.round(values, 1)  # force exact relevance ties
    return d, values


class TestKBestOracle:
    """Full-sort reference."""

    def test_spec_examples(self):
        assert oracle_kbest(rel_vec([0.1, 0.9, 0.5]), 2).selected == (1, 2)
        assert oracle_kbest(rel_vec([0.5, 0.5, 0.1]), 1).selected == (0,)

    def test_matches_fast_path_ordered(self):
        rng = np.random.default_rng(70)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            values = np.round(rng.uniform(0, 1, size=n), int(rng.integers(1, 6)))
            k = int(rng.integers(1, n + 1))
            assert (select_kbest(rel_vec(values), k).selected
                    == oracle_kbest(rel_vec(values), k).selected)


class TestMrmrOracle:
    """Per-step full-rescan greedy reference."""

    def test_matches_fast_path_all_forms(self):
        rng = np.random.default_rng(71)
        for trial in range(60):
            d, values = messy_instance(rng)
            k = int(rng.integers(1, min(7, d.n_cols) + 1))
            form = (DIFFERENCE, QUOTIENT)[trial % 2]
            redundancy = (MI_PAIR, ABS_PEARSON)[(trial // 2) % 2]
            beta = float(rng.choice([0.0, 0.3, 1.0]))
            mean_norm = bool(trial % 3)
            fast = select_mrmr(d, rel_vec(values), k, form=form,
                               redundancy=redundancy, beta=beta,
                               mean_normalized=mean_norm)
            slow = oracle_mrmr(d, rel_vec(values), k, form=form,
                               redundancy=redundancy, beta=beta,
                               mean_normalized=mean_norm)
            assert fast.selected == slow.selected

    def test_k_equals_n_cols_permutation(self):
        rng = np.random.default_rng(72)
        d, values = messy_instance(rng, max_cols=10)
        fast = select_mrmr(d, rel_vec(values), d.n_cols,
                           redundancy=ABS_PEARSON)
        slow = oracle_mrmr(d, rel_vec(values), d.n_cols,
                           redundancy=ABS_PEARSON)
        assert fast.selected == slow.selected
        assert sorted(fast.selected) == list(range(d.n_cols))


class TestKGroupsOracle:
    """Direct interval-scan binning reference."""

    def test_spec_example(self):
        rng = np.random.default_rng(73)
        d = random_dataset(rng, 10, 4)
        got = oracle_kgroups(d, rel_vec([0.1, 0.2, 0.9, 0.85]), 2, 1.0)
        assert got.selected == (2, 1)

    def test_matches_fast_path_with_ties_and_breakers(self):
        rng = np.random.default_rng(74)
        breaker_pool = (COSINE, FVALUE, MI)
        for trial in range(60):
            d, values = messy_instance(rng)
            k = int(rng.integers(1, 12))
            alpha = float(rng.choice([0.3, 0.5, 1.0, 1.5, 2.0]))
            n_breakers = int(rng.integers(0, 4))
            breakers = tuple(rng.choice(breaker_pool, size=n_breakers,
                                        replace=False))
            fast = select_kgroups(d, rel_vec(values), k, alpha, breakers)
            slow = oracle_kgroups(d, rel_vec(values), k, alpha, breakers)
            assert set(fast.selected) == set(slow.selected)
            assert fast.selected == slow.selected  # shared ordering rule

    def test_alpha_one_distinct_values(self):
        rng = np.random.default_rng(75)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            d = random_dataset(rng, 12, n)
            values = rng.permutation(np.linspace(0.1, 0.9, n))
            k = int(rng.integers(1, 10))
            fast = select_kgroups(d, rel_vec(values), k, 1.0)
            slow = oracle_kgroups(d, rel_vec(values), k, 1.0)
            assert set(fast.selected) == set(slow.selected)
