"""A from-scratch CART regression tree (§5.2, Fig. 5b).

The paper refines the rough subspace "based on an idea from prior work in
diagnosis [Chen et al. 2004]: we train a regression tree that predicts the
performance gap on samples in our rough subspace. The predicates that form
the path that starts at the root of this tree and reaches the leaf that
contains the initial bad sample more accurately describe the subspace."

The tree is a standard variance-reduction CART over arbitrary feature
matrices. When the features are the raw inputs, the root-to-leaf path maps
directly onto :class:`~repro.subspace.region.Halfspace` rows (the ``T_i X
<= V_i`` block of Fig. 5c); for derived features F(I) the path is reported
as named predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SubspaceError
from repro.subspace.region import Halfspace


@dataclass
class TreePredicate:
    """One edge of a root-to-leaf path: ``feature <= t`` or ``feature > t``."""

    feature_index: int
    threshold: float
    below: bool  # True for <=, False for >
    feature_name: str = ""

    def holds(self, features: np.ndarray) -> bool:
        value = features[self.feature_index]
        return value <= self.threshold if self.below else value > self.threshold

    def describe(self) -> str:
        name = self.feature_name or f"x{self.feature_index}"
        op = "<=" if self.below else ">"
        return f"{name} {op} {self.threshold:.4g}"

    def to_halfspace(self, total_dims: int) -> Halfspace:
        return Halfspace.axis(
            self.feature_index, total_dims, self.threshold, self.below
        )


@dataclass
class _Node:
    prediction: float
    count: int
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class RegressionTree:
    """CART with variance-reduction splits."""

    max_depth: int = 4
    min_samples_leaf: int = 8
    min_variance_decrease: float = 1e-6
    #: candidate thresholds per feature (quantile grid; keeps fitting cheap)
    max_candidate_splits: int = 32
    feature_names: list[str] = field(default_factory=list)
    _root: _Node | None = field(default=None, repr=False)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RegressionTree":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        if len(x) != len(y):
            raise SubspaceError("X/y length mismatch")
        if len(x) == 0:
            raise SubspaceError("cannot fit a tree on zero samples")
        if not self.feature_names:
            self.feature_names = [f"x{i}" for i in range(x.shape[1])]
        self._root = self._build(x, y, depth=0)
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(prediction=float(y.mean()), count=len(y))
        if (
            depth >= self.max_depth
            or len(y) < 2 * self.min_samples_leaf
            or np.ptp(y) < 1e-12
        ):
            return node
        best = self._best_split(x, y)
        if best is None:
            return node
        feature, threshold = best
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(x[mask], y[mask], depth + 1)
        node.right = self._build(x[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, x: np.ndarray, y: np.ndarray) -> tuple[int, float] | None:
        """The first ``(feature, threshold)`` of maximal variance reduction.

        Candidates run feature-major, threshold-minor. A split must leave
        ``min_samples_leaf`` rows on each side and gain strictly more than
        ``min_variance_decrease`` (the floor), where the gain of a threshold
        is the exact formula of :meth:`_exact_gain` and the first maximum
        wins.

        One pass per feature screens all its candidates: with ``y`` centred
        and sorted by the feature, prefix sums of ``yc`` and ``yc**2`` give
        the left side's squared error as ``Q - S**2 / k`` and suffix sums
        give the right side's. A sequential sum of ``k`` terms is off by at
        most ``k * eps`` of its absolute sum, so a screened gain lies within
        about ``4 * n * eps * base_var`` of the exact one; ``np.var`` rounds
        its means, which biases each variance by at most
        ``(n * eps)**2 * (base_var + mean**2)``. ``tol`` is more than twice
        both. Every candidate whose screened gain is within ``tol`` of
        ``max(best screened gain, floor)``, or is not finite, is re-scored
        exactly in candidate order. The exact winner is always among them,
        so the choice is bit-identical to scoring every candidate exactly,
        while about one candidate per node is. Memory is O(n) per feature.
        """
        n = len(y)
        base_var = float(np.var(y))
        floor = self.min_variance_decrease
        # An empty side has a NaN exact gain and can never win.
        leaf = max(self.min_samples_leaf, 1)
        n_eps = n * np.finfo(float).eps
        mean = y.mean()
        tol = max(1e-9, 16 * n_eps) * base_var + max(1e-12, 4 * (n_eps * mean) ** 2)
        yc = y - mean
        screened: list[tuple[int, np.ndarray, np.ndarray]] = []
        for feature, candidates in enumerate(self._candidates(x)):
            if candidates is None:
                continue
            column = x[:, feature]
            order = np.argsort(column, kind="stable")
            # NaN sorts last, so a sorted prefix is ``column <= t``. A NaN
            # threshold (no row is ``<= nan``) leaves the right side empty
            # here instead of the left; both are dropped.
            n_left = np.searchsorted(column[order], candidates, side="right")
            keep = (n_left >= leaf) & (n - n_left >= leaf)
            if not keep.any():
                continue
            candidates, n_left = candidates[keep], n_left[keep]
            ys = yc[order]
            squares = ys * ys
            s_left, q_left = np.cumsum(ys)[n_left - 1], np.cumsum(squares)[n_left - 1]
            right = n - 1 - n_left  # suffix sums, accumulated from the last row
            s_right = np.cumsum(ys[::-1])[right]
            q_right = np.cumsum(squares[::-1])[right]
            sse_left = q_left - s_left**2 / n_left
            sse_right = q_right - s_right**2 / (n - n_left)
            gains = base_var - (sse_left + sse_right) / n
            screened.append((feature, candidates, gains))
        top = max(
            (float(g[np.isfinite(g)].max(initial=-np.inf)) for _, _, g in screened),
            default=-np.inf,
        )
        bar = max(top, floor) - tol
        best_gain = floor
        best: tuple[int, float] | None = None
        for feature, candidates, gains in screened:
            column = x[:, feature]
            for threshold in candidates[(gains >= bar) | ~np.isfinite(gains)]:
                gain = self._exact_gain(column, y, threshold, base_var)
                if gain > best_gain:
                    best_gain = gain
                    best = (feature, float(threshold))
        return best

    def _candidates(self, x: np.ndarray) -> list[np.ndarray | None]:
        """Each feature's sorted candidate thresholds, None if constant.

        Midpoints of the distinct values, or the distinct quantiles of a
        ``max_candidate_splits`` grid for wider columns. The grid of all
        wide columns is one ``np.quantile`` call along axis 0, which is
        bitwise the per-column quantile.
        """
        values = [np.unique(x[:, feature]) for feature in range(x.shape[1])]
        wide = [f for f, v in enumerate(values) if len(v) > self.max_candidate_splits]
        grid: dict[int, np.ndarray] = {}
        if wide:
            qs = np.linspace(0, 1, self.max_candidate_splits + 2)[1:-1]
            grid = dict(zip(wide, np.quantile(x[:, wide], qs, axis=0).T))
        candidates: list[np.ndarray | None] = []
        for feature, distinct in enumerate(values):
            if len(distinct) < 2:
                candidates.append(None)
            elif feature in grid:
                candidates.append(np.unique(grid[feature]))
            else:
                candidates.append((distinct[:-1] + distinct[1:]) / 2.0)
        return candidates

    @staticmethod
    def _exact_gain(
        column: np.ndarray, y: np.ndarray, threshold: float, base_var: float
    ) -> float:
        """``base_var`` minus the size-weighted variance of the two sides."""
        n = len(y)
        mask = column <= threshold
        n_left = int(mask.sum())
        var_left = float(np.var(y[mask]))
        var_right = float(np.var(y[~mask]))
        weighted = (n_left * var_left + (n - n_left) * var_right) / n
        return base_var - weighted

    # -- inference -----------------------------------------------------------
    def _require_fit(self) -> _Node:
        if self._root is None:
            raise SubspaceError("tree is not fitted")
        return self._root

    def predict_one(self, x: np.ndarray) -> float:
        return float(self.predict(np.asarray(x, dtype=float)[None, :])[0])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Leaf predictions for every row, routed down the tree by masks."""
        node = self._require_fit()
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty(len(x))
        pending = [(node, np.arange(len(x)))]
        while pending:
            node, rows = pending.pop()
            if node.is_leaf:
                out[rows] = node.prediction
                continue
            below = x[rows, node.feature] <= node.threshold
            assert node.left is not None and node.right is not None
            pending.append((node.left, rows[below]))
            pending.append((node.right, rows[~below]))
        return out

    def path_to(self, x: np.ndarray) -> list[TreePredicate]:
        """Root-to-leaf predicates for the leaf containing ``x`` (Fig. 5b)."""
        node = self._require_fit()
        x = np.asarray(x, dtype=float)
        path: list[TreePredicate] = []
        while not node.is_leaf:
            below = x[node.feature] <= node.threshold
            path.append(
                TreePredicate(
                    feature_index=node.feature,
                    threshold=node.threshold,
                    below=bool(below),
                    feature_name=self.feature_names[node.feature],
                )
            )
            node = node.left if below else node.right
            assert node is not None
        return path

    def leaf_prediction(self, x: np.ndarray) -> float:
        return self.predict_one(x)

    def root_split(self) -> tuple[int, float] | None:
        """The fitted root's ``(feature, threshold)``, or None for a stump.

        The adaptive search engine (:mod:`repro.search`) refines a
        promising cell by cutting it at the single best variance-reduction
        split of the cell's own samples — exactly the root split a
        depth-1 fit finds.
        """
        root = self._require_fit()
        if root.is_leaf:
            return None
        return root.feature, float(root.threshold)

    def depth(self) -> int:
        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._require_fit())

    def num_leaves(self) -> int:
        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 1
            assert node.left is not None and node.right is not None
            return walk(node.left) + walk(node.right)

        return walk(self._require_fit())

    def render(self) -> str:
        """ASCII rendering of the tree (Fig. 5b style, for reports)."""
        lines: list[str] = []

        def walk(node: _Node, indent: str) -> None:
            if node.is_leaf:
                lines.append(f"{indent}gap = {node.prediction:.4g}  (n={node.count})")
                return
            name = self.feature_names[node.feature]
            lines.append(f"{indent}{name} <= {node.threshold:.4g}?")
            walk(node.left, indent + "  yes: ")
            walk(node.right, indent + "  no:  ")

        walk(self._require_fit(), "")
        return "\n".join(lines)


def path_to_halfspaces(path: list[TreePredicate], total_dims: int) -> list[Halfspace]:
    """Convert a raw-input tree path to Fig. 5c halfspace rows."""
    return [p.to_halfspace(total_dims) for p in path]
