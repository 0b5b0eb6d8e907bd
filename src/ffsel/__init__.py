"""ffsel: filter feature selection with relevance binning, ranking, and mRMR."""

from .data import DataError, Dataset, FoldPlan, load_csv, make_folds, standard_scale
from .forest import ForestParams, RandomForest
from .relevance import (
    ABS_PEARSON,
    COSINE,
    DEFAULT_MI_BINS,
    ESTIMATORS,
    FVALUE,
    GINI,
    MI,
    MI_PAIR,
    REDUNDANCY_MEASURES,
    RedundancyCache,
    RelevanceVector,
    relevance_all,
)
from .selectors import (
    DIFFERENCE,
    KBEST,
    KGROUPS,
    MRMR_D,
    MRMR_Q,
    MRMR_VARIANTS,
    QUOTIENT,
    SelectionResult,
    compute_bins,
    select_kbest,
    select_kgroups,
    select_mrmr,
)
from .classifiers import (
    CLASSIFIERS,
    GNB,
    KNN,
    RF,
    classify,
    gaussian_nb_classify,
    knn_classify,
    rf_classify,
)
from .evaluate import accuracy, cross_validate
from .records import BenchmarkRecord, read_records
from .report import algorithm_label, best_config_report, n_selected_distributions
from .sweep import SweepConfig, run_sweep

__version__ = "0.1.0"
