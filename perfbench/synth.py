"""Seeded synthetic expression matrices with planted signal.

The colon tumour data (Alon et al., 1999) has 62 samples, 22 normal and 40
tumour, over 2000 genes. The generator keeps that class balance at any row
count and plants three kinds of column:

- informative columns, shifted in the normal class by an effect size that
  runs from ``EFFECT_MIN`` to ``EFFECT_MAX`` noise standard deviations;
- near-duplicates, one per informative column: a copy plus a little noise,
  the redundancy that mRMR and KGroups are meant to drop;
- standard normal noise columns.

The values are drawn once per shape from ``BASE_SEED``; the workload seed
only permutes the columns, so planted columns sit at seed-dependent
positions while every seed holds the same values. The random forest's
work grows with how well the drawn values separate the classes: over eight
seeds, one 62x2000 sweep with the default alpha grid grew 69.5k to 96.5k
tree nodes with a fresh draw per seed, and 70.6k to 78.4k with this one
draw in permuted column order; the sweep-colon sweep (one alpha) grew 25.3k
to 29.8k over ten seeds.
The same (shape, seed) always gives the same file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

NORMAL_ROWS, TUMOR_ROWS = 22, 40
CLASS_NAMES = ("normal", "tumor")
N_INFORMATIVE = 20
EFFECT_MIN, EFFECT_MAX = 1.5, 3.5
DUPLICATE_NOISE = 0.1
BASE_SEED = 0


@dataclass(frozen=True)
class Planted:
    """A generated matrix and its labels (0 = normal, 1 = tumor)."""

    features: np.ndarray
    labels: np.ndarray

    @property
    def majority_rate(self) -> float:
        return float(np.bincount(self.labels).max() / self.labels.size)


def make_planted(n_rows: int, n_cols: int, seed: int) -> Planted:
    if n_cols < 2 * N_INFORMATIVE + 1:
        raise ValueError(f"need more than {2 * N_INFORMATIVE} columns, got {n_cols}")
    rng = np.random.default_rng(BASE_SEED)
    n_normal = round(n_rows * NORMAL_ROWS / (NORMAL_ROWS + TUMOR_ROWS))
    labels = rng.permutation(np.repeat([0, 1], (n_normal, n_rows - n_normal)))
    x = rng.normal(size=(n_rows, n_cols))
    effects = np.linspace(EFFECT_MIN, EFFECT_MAX, N_INFORMATIVE)
    effects *= rng.choice([-1.0, 1.0], size=N_INFORMATIVE)
    normal = (labels == 0).astype(np.float64)
    for i in range(N_INFORMATIVE):
        x[:, i] += effects[i] * normal
        x[:, N_INFORMATIVE + i] = x[:, i] + DUPLICATE_NOISE * rng.normal(size=n_rows)
    order = np.random.default_rng(seed).permutation(n_cols)
    return Planted(features=x[:, order], labels=labels)


def write_csv(path: Path, planted: Planted) -> None:
    """One header row of gene names, the class name in the last column."""
    n_cols = planted.features.shape[1]
    lines = [",".join([f"g{j}" for j in range(n_cols)] + ["class"])]
    for row, label in zip(planted.features, planted.labels):
        lines.append(",".join([f"{v:.6g}" for v in row] + [CLASS_NAMES[label]]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
