"""Reference CART split search: one ``np.var`` pair per candidate threshold.

This is the straightforward loop :meth:`RegressionTree._best_split` is
defined against. The production search screens every candidate with
prefix sums and re-checks the near-best ones with this exact formula; the
differential tests assert the two always choose the same
``(feature, threshold)``.
"""

from __future__ import annotations

import numpy as np

from repro.subspace.tree import RegressionTree


def reference_best_split(
    tree: RegressionTree, x: np.ndarray, y: np.ndarray
) -> tuple[int, float] | None:
    n = len(y)
    base_var = float(np.var(y))
    best_gain = tree.min_variance_decrease
    best: tuple[int, float] | None = None
    for feature in range(x.shape[1]):
        column = x[:, feature]
        values = np.unique(column)
        if len(values) < 2:
            continue
        if len(values) > tree.max_candidate_splits:
            qs = np.linspace(0, 1, tree.max_candidate_splits + 2)[1:-1]
            candidates = np.unique(np.quantile(column, qs))
        else:
            candidates = (values[:-1] + values[1:]) / 2.0
        for threshold in candidates:
            mask = column <= threshold
            n_left = int(mask.sum())
            if n_left < tree.min_samples_leaf or n - n_left < tree.min_samples_leaf:
                continue
            var_left = float(np.var(y[mask]))
            var_right = float(np.var(y[~mask]))
            weighted = (n_left * var_left + (n - n_left) * var_right) / n
            gain = base_var - weighted
            if gain > best_gain:
                best_gain = gain
                best = (feature, float(threshold))
    return best
