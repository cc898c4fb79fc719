"""Differential tests: the screened CART split search against the reference.

:meth:`RegressionTree._best_split` screens every candidate threshold with
prefix sums and re-checks only the near-best ones exactly. These tests
assert that it always picks the split the one-``np.var``-per-candidate
reference loop in ``_tree_reference.py`` picks, that whole trees agree,
and that full analyses produce the same deterministic report either way.
"""

from functools import partial

import numpy as np
import pytest
from _tree_reference import reference_best_split
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains.registry import smoke_campaign_spec
from repro.parallel.campaign import CampaignSpec, deterministic_view, run_campaign
from repro.subspace.tree import RegressionTree, _Node

FAMILIES = ("ties", "duplicate", "offset", "near_floor", "nonfinite", "wide")


def exact_gain(x, y, feature, threshold):
    """The reference loop's gain of one split, spelled out."""
    n = len(y)
    mask = x[:, feature] <= threshold
    n_left = int(mask.sum())
    var_left, var_right = float(np.var(y[mask])), float(np.var(y[~mask]))
    weighted = (n_left * var_left + (n - n_left) * var_right) / n
    return float(np.var(y)) - weighted


@st.composite
def split_cases(draw):
    """``(tree, x, y, family)`` drawn from the edge-case families."""
    family = draw(st.sampled_from(FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 160))
    d = draw(st.integers(1, 4))
    max_splits = draw(st.sampled_from([2, 4, 8, 32]))
    few = rng.integers(0, draw(st.integers(2, 6)), size=(n, d)).astype(float)
    many = rng.uniform(0.0, 1.0, size=(n, d))
    x = few if draw(st.booleans()) else many
    y = rng.integers(0, draw(st.integers(2, 5)), size=n).astype(float)
    floor = 1e-6
    if family == "duplicate":
        x = np.hstack([x, x[:, :1]])
    elif family == "offset":
        y = y + draw(st.sampled_from([1e3, 1e5, 1e7]))
    elif family == "near_floor":
        y = np.where(x[:, 0] > np.median(x[:, 0]), 1.0, 0.0) + 0.01 * y
        # Put the floor within 1e-9 (relative) of the best exact gain.
        probe = RegressionTree(
            min_samples_leaf=1,
            min_variance_decrease=-np.inf,
            max_candidate_splits=max_splits,
        )
        best = reference_best_split(probe, x, y)
        if best is not None:
            gain = exact_gain(x, y, *best)
            floor = gain * (1.0 + draw(st.sampled_from([-1e-9, 0.0, 1e-9])))
    elif family == "nonfinite":
        y = rng.normal(size=n)
        y[rng.integers(0, n)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif family == "wide":
        x = many
        y = np.where(x[:, 0] > 0.5, 2.0, 0.0) + rng.normal(scale=0.1, size=n)
    leaf = draw(st.sampled_from([1, max(1, n // 2)]))
    tree = RegressionTree(
        min_samples_leaf=leaf,
        min_variance_decrease=floor,
        max_candidate_splits=max_splits,
    )
    return tree, x, y, family


class TestSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(split_cases())
    def test_matches_reference(self, case):
        tree, x, y, family = case
        with np.errstate(all="ignore"):
            fast = tree._best_split(x, y)
            slow = reference_best_split(tree, x, y)
        assert fast == slow
        if family == "duplicate" and fast is not None:
            # The copy scores exactly like column 0, which comes first.
            assert fast[0] != x.shape[1] - 1

    def test_offset_ties_choose_first_feature(self):
        x = np.repeat(np.arange(4.0), 10)[:, None] * np.ones((1, 3))
        y = 1e7 + (x[:, 0] > 1.5)
        tree = RegressionTree(min_samples_leaf=1)
        assert tree._best_split(x, y) == reference_best_split(tree, x, y)
        assert tree._best_split(x, y) == (0, 1.5)

    def test_nonfinite_target_never_splits(self):
        x = np.linspace(0.0, 1.0, 40)[:, None]
        for bad in (np.nan, np.inf, -np.inf):
            y = np.where(x[:, 0] > 0.5, 1.0, 0.0)
            y[3] = bad
            with np.errstate(all="ignore"):
                assert RegressionTree(min_samples_leaf=2)._best_split(x, y) is None

    def test_overflowing_target_matches_reference(self):
        # var(y) overflows to inf while a clean split still has finite sides.
        x = np.linspace(0.0, 1.0, 20)[:, None]
        y = np.where(x[:, 0] > 0.5, 1e155, 0.0)
        tree = RegressionTree(min_samples_leaf=2)
        with np.errstate(all="ignore"):
            fast = tree._best_split(x, y)
            assert fast == reference_best_split(tree, x, y)
        assert fast is not None

    def test_nan_features_match_reference(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 1.0, size=(60, 2))
        x[::7, 0] = np.nan
        y = np.where(x[:, 1] > 0.3, 1.0, 0.0) + rng.normal(scale=0.1, size=60)
        for splits in (4, 64):
            tree = RegressionTree(min_samples_leaf=3, max_candidate_splits=splits)
            with np.errstate(all="ignore"):
                assert tree._best_split(x, y) == reference_best_split(tree, x, y)


def reference_predictions(tree, x):
    """Row-by-row walk of the fitted nodes (the pre-vectorized predict)."""
    out = []
    for row in x:
        node: _Node = tree._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out.append(node.prediction)
    return np.array(out)


class TestWholeTree:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 4, 12]))
    def test_depth_four_trees_identical(self, seed, leaf):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 400))
        uniform = rng.uniform(0.0, 1.0, size=(n, 2))
        levels = rng.integers(0, 5, size=(n, 2)).astype(float)
        x = np.hstack([uniform, levels])
        step = np.where(x[:, 0] > 0.6, 3.0, 0.0)
        y = step + x[:, 2] + rng.integers(0, 3, size=n) + 1e5
        fast = RegressionTree(max_depth=4, min_samples_leaf=leaf).fit(x, y)
        slow = RegressionTree(max_depth=4, min_samples_leaf=leaf)
        slow._best_split = partial(reference_best_split, slow)
        slow.fit(x, y)
        assert fast.render() == slow.render()
        for row in x:
            assert fast.path_to(row) == slow.path_to(row)
        predicted = fast.predict(x)
        assert np.array_equal(predicted, reference_predictions(fast, x))
        assert [fast.predict_one(row) for row in x] == predicted.tolist()

    def test_predict_routes_nan_features_right(self):
        x = np.linspace(0.0, 1.0, 60)[:, None]
        y = np.where(x[:, 0] > 0.5, 4.0, 1.0)
        tree = RegressionTree(max_depth=1, min_samples_leaf=5).fit(x, y)
        probe = np.array([[0.1], [np.nan], [0.9]])
        predicted = tree.predict(probe)
        assert np.array_equal(predicted, reference_predictions(tree, probe))
        assert predicted[1] == predicted[2] != predicted[0]


@pytest.mark.parametrize("domain", ["caching", "te"])
def test_pipeline_reports_identical_under_reference(domain, monkeypatch):
    spec = CampaignSpec.from_dict(smoke_campaign_spec([domain]))
    fast = deterministic_view(run_campaign(spec, workers=1))
    calls = []

    def reference(self, x, y):
        calls.append(len(y))
        return reference_best_split(self, x, y)

    monkeypatch.setattr(RegressionTree, "_best_split", reference)
    slow = deterministic_view(run_campaign(spec, workers=1))
    assert calls, "the reference split search was never reached"
    assert fast == slow
