"""ffsel: filter feature selection with relevance binning, ranking, and mRMR."""

from .data import DataError, Dataset, FoldPlan, load_csv, make_folds, standard_scale
from .forest import ForestParams, RandomForest, gini_index
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
    abs_pearson_value,
    cosine_with_label,
    discretize_equal_frequency,
    f_value_with_label,
    gini_importance,
    mi_pair_value,
    mutual_info_with_label,
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
    BinningScheme,
    SelectionResult,
    compute_bins,
    select_kbest,
    select_kgroups,
    select_mrmr,
    variant_name,
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
from .evaluate import BenchmarkRecord, accuracy, cross_validate
from .timing import cpu_timer
from .sweep import (
    SweepConfig,
    WORKERS_ENV,
    algorithm_label,
    best_config_report,
    n_selected_distributions,
    read_records,
    run_sweep,
)

__version__ = "0.1.0"
