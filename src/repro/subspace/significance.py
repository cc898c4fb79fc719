"""The significance checker (§5.2).

"The significance checker ensures the subspaces we find are statistically
significant: the points in a subspace cause a higher performance gap
compared to those immediately outside it. We only report those subspaces
with a low p-value (less than 0.05) as adversarial. We use the Wilcoxon
signed-rank test, which allows for dependent samples."

Both SciPy's exact/approximate test and a from-scratch normal-approximation
implementation are provided; tests cross-check the two. The SciPy method
answers one case itself: with at most 13 pairs and a tie or zero among the
differences, ``scipy.stats.wilcoxon`` runs a permutation test over all
2^n sign flips, and :func:`_sign_flip_wilcoxon` counts the same sign
patterns by subset sum instead — the same p-value, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import SubspaceError

#: The paper's reporting cutoff.
ALPHA = 0.05


@dataclass
class SignificanceResult:
    """Outcome of the inside-vs-outside Wilcoxon signed-rank test."""

    p_value: float
    statistic: float
    inside_mean_gap: float
    outside_mean_gap: float
    pairs: int
    alpha: float = ALPHA

    @property
    def significant(self) -> bool:
        return self.p_value < self.alpha

    def describe(self) -> str:
        verdict = "significant" if self.significant else "NOT significant"
        return (
            f"Wilcoxon signed-rank: p={self.p_value:.3g} ({verdict} at "
            f"alpha={self.alpha}), inside mean gap {self.inside_mean_gap:.4g} "
            f"vs outside {self.outside_mean_gap:.4g} over {self.pairs} pairs"
        )


def wilcoxon_signed_rank(
    inside: np.ndarray,
    outside: np.ndarray,
    alpha: float = ALPHA,
    method: str = "scipy",
) -> SignificanceResult:
    """One-sided test that inside gaps exceed outside gaps.

    ``inside`` and ``outside`` are paired by index (the subspace generator
    draws equally sized dependent pools, one inside the candidate region
    and one immediately outside it).
    """
    inside = np.asarray(inside, dtype=float)
    outside = np.asarray(outside, dtype=float)
    if inside.shape != outside.shape:
        raise SubspaceError("paired pools must have equal sizes")
    if inside.size < 5:
        raise SubspaceError(
            f"need at least 5 pairs for the signed-rank test, got {inside.size}"
        )
    differences = inside - outside
    if np.allclose(differences, 0.0):
        # Identical pools: no evidence whatsoever.
        return SignificanceResult(
            p_value=1.0,
            statistic=0.0,
            inside_mean_gap=float(inside.mean()),
            outside_mean_gap=float(outside.mean()),
            pairs=int(inside.size),
            alpha=alpha,
        )
    if method == "scipy":
        statistic, p = _scipy_wilcoxon(differences)
    elif method == "builtin":
        statistic, p = _wilcoxon_normal_approx(differences)
    else:
        raise SubspaceError(f"unknown method {method!r}")
    return SignificanceResult(
        p_value=p,
        statistic=statistic,
        inside_mean_gap=float(inside.mean()),
        outside_mean_gap=float(outside.mean()),
        pairs=int(inside.size),
        alpha=alpha,
    )


def _scipy_wilcoxon(differences: np.ndarray) -> tuple[float, float]:
    """``scipy.stats.wilcoxon(d, alternative="greater")`` as (statistic, p).

    The case SciPy serves with a permutation test (n <= 13 with ties or
    zeros) is counted exactly by :func:`_sign_flip_wilcoxon`.
    """
    magnitudes = np.abs(differences[differences != 0.0])
    if (
        differences.size <= 13
        and np.all(np.isfinite(differences))
        and (
            magnitudes.size < differences.size
            or np.unique(magnitudes).size < magnitudes.size
        )
    ):
        return _sign_flip_wilcoxon(differences)
    from scipy import stats

    stat, p_value = stats.wilcoxon(
        differences, alternative="greater", zero_method="wilcox"
    )
    return float(stat), float(p_value)


def _sign_flip_wilcoxon(differences: np.ndarray) -> tuple[float, float]:
    """Exact one-sided signed-rank test over all sign flips.

    Zeros are dropped (Wilcoxon's convention); flipping one changes
    nothing, so the p-value is the share of the 2^k sign patterns of the k
    nonzero differences whose positive-rank sum reaches the observed one.
    Doubled midranks are integers, so a subset-sum table counts those
    patterns exactly.
    """
    d = differences[differences != 0.0]
    _, inverse, counts = np.unique(
        np.abs(d), return_inverse=True, return_counts=True
    )
    # Doubled midrank of a tie group: 2 * (ranks before it) + size + 1.
    doubled = (2 * (np.cumsum(counts) - counts) + counts + 1)[inverse]
    observed = int(doubled[d > 0].sum())
    ways = np.zeros(int(doubled.sum()) + 1, dtype=np.int64)
    ways[0] = 1
    for rank in doubled:
        ways[rank:] = ways[rank:] + ways[: ways.size - rank]
    return observed / 2.0, float(ways[observed:].sum() / 2.0 ** d.size)


def _wilcoxon_normal_approx(differences: np.ndarray) -> tuple[float, float]:
    """From-scratch one-sided signed-rank test (normal approximation).

    Follows the classic recipe: drop zeros, rank |d| with midranks for
    ties, sum the ranks of the positive differences, and compare against
    the null mean n(n+1)/4 with a tie-corrected variance.
    """
    d = differences[differences != 0.0]
    n = len(d)
    if n == 0:
        return 0.0, 1.0
    abs_d = np.abs(d)
    order = np.argsort(abs_d, kind="stable")
    ranks = np.empty(n, dtype=float)
    sorted_abs = abs_d[order]
    i = 0
    rank_position = 1
    while i < n:
        j = i
        while j + 1 < n and math.isclose(
            sorted_abs[j + 1], sorted_abs[i], rel_tol=0.0, abs_tol=1e-12
        ):
            j += 1
        midrank = (rank_position + (rank_position + (j - i))) / 2.0
        ranks[order[i : j + 1]] = midrank
        rank_position += j - i + 1
        i = j + 1

    w_plus = float(ranks[d > 0].sum())
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    # Tie correction.
    _, counts = np.unique(sorted_abs, return_counts=True)
    variance -= float(np.sum(counts**3 - counts)) / 48.0
    if variance <= 0:
        return w_plus, 1.0
    # Continuity correction, one-sided "greater".
    z = (w_plus - mean - 0.5) / math.sqrt(variance)
    p = 1.0 - _standard_normal_cdf(z)
    return w_plus, float(min(max(p, 0.0), 1.0))


def _standard_normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
