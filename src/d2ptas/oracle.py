"""Ground truth at small scale.

Exact optima come from a dynamic program over subsets of points: the
measures here all have the property that a cluster's best center is its
coordinate-wise mean (Banerjee et al., JMLR 2005), so a partition costs the
sum of its blocks' costs and the best split of every subset builds on the
best splits of smaller ones.  That is 2^n block costs and ~3^n/2 (subset,
block) pairs per level, exact at every k but capped hard in n -- these are
oracles for validating the samplers, not production solvers.  One run for k
holds every level below k, so ``irreducibility`` and the CLI's
``oracle`` answer k and k - 1 from one DP.

This module holds ground truth only: the subset DP, the exact
``irreducibility`` and ``inaba_trial``.  It reads nothing from the engine;
the k-means++/Lloyd baseline lives in :mod:`d2ptas.ptas`.
"""

from dataclasses import dataclass

import numpy as np

from .divergences import PropertyReport, SquaredEuclidean, _checked_count, as_points, centroid
from .errors import ConfigError, TooLarge

__all__ = [
    "ORACLE_N_CAP",
    "OracleResult",
    "IrreducibilityReport",
    "optimal_bruteforce",
    "irreducibility",
    "inaba_trial",
]

ORACLE_N_CAP = 14


@dataclass
class OracleResult:
    optimal_cost: float
    optimal_partition: np.ndarray  # (n,) cluster labels
    assignments_examined: int

    def centers(self, points):
        """Per-cluster means implied by the optimal partition."""
        return _block_means(as_points(points), self.optimal_partition)


@dataclass
class IrreducibilityReport:
    """How much the k-th center matters: gamma = cost(k-1 centers)/cost(k) - 1."""

    k: int
    delta_km1: float
    delta_k: float
    gamma: float


def optimal_bruteforce(data, k, measure):
    """Globally optimal k-clustering by a min-plus DP over subsets of points.

    Every measure puts a block's best center at its mean, so a partition
    costs the sum of its blocks' costs.  The table of all 2^n block costs
    is evaluated in closed form; level j of the DP then holds,
    for every mask S, the best cost of S split into at most j blocks, taking
    the block that holds S's lowest point first.  That visits the
    (3^n - 1)/2 (mask, block) pairs of :func:`_subset_pairs` once per level,
    two int32 indices each (19 MB at n=14), and the last level only the full
    mask's 2^(n-1), which at k = 2 are the only pairs built.  Empty clusters
    are allowed and contribute nothing.

    Blocks are numbered by their lowest point index, so point 0 is in
    cluster 0, and ``optimal_cost`` is the closed-form cost of that
    partition with every block at its mean.  ``assignments_examined`` counts
    the labelings (point 0 pinned) the search is exact over: k^(n-1), or 1
    when k >= n.  Neither k >= n nor k = 1, one block at the mean of all
    points, runs a DP.
    """
    (result,) = _optimal_partitions(data, (k,), measure)
    return result


def _optimal_partitions(data, counts, measure):
    """``[optimal_bruteforce(data, j, measure) for j in counts]``, bit for bit,
    from one DP: the walk for each count reads the first levels of the run for
    the largest count in 2..n - 1, which are the levels of its own run."""
    points = as_points(data)
    measure.validate_points(points)
    counts = [_checked_count(j, "k") for j in counts]
    n, _ = points.shape
    if n > ORACLE_N_CAP:
        raise TooLarge(f"n={n} exceeds the oracle cap {ORACLE_N_CAP}")
    top = max((j for j in counts if 1 < j < n), default=0)
    dp = _subset_dp(points, top, measure) if top else None
    return [OracleResult(0.0, np.arange(n, dtype=np.int64), 1) if k >= n
            else _recover(points, measure, dp, k) for k in counts]


def _subset_dp(points, top, measure):
    """The 2^n block costs, the (mask, block) pairs and the levels a walk for
    up to ``top`` blocks reads: ``levels[j][S]``, the best cost of mask S in
    at most j + 1 blocks, for j + 1 < ``top``.

    The pairs are :func:`_subset_pairs`, or at ``top`` = 2, where the walk
    reads only the full mask's group, that group alone
    (:func:`_full_mask_blocks`), with ``bounds`` a dict of its two ends."""
    n = points.shape[0]
    member = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1  # (2^n, n)
    means = (member @ points) / np.maximum(member.sum(axis=1), 1)[:, None]
    means[0] = points[0]  # in-domain stand-in for the empty block
    divs = measure.rowwise(points[None, :, :], means[:, None, :])
    cost = np.where(member == 1, divs, 0.0).sum(axis=1)

    if top == 2:
        full = (1 << n) - 1
        block = _full_mask_blocks(n)
        return cost, block, full ^ block, {full - 1: 0, full: len(block)}, [cost]
    block, rest, bounds = _subset_pairs(n)
    levels = [cost]
    for _ in range(2, top):
        best = np.empty_like(cost)
        best[0] = 0.0
        best[1:] = np.minimum.reduceat(cost[block] + levels[-1][rest], bounds[:-1])
        levels.append(best)
    return cost, block, rest, bounds, levels


def _recover(points, measure, dp, k):
    """The optimal k-clustering, k < n, from a :func:`_subset_dp` run for at
    least k blocks, its blocks numbered by their lowest point.  At k = 1 the
    one block is every point, and ``dp`` is not read."""
    n = points.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    if k > 1:
        cost, block, rest, bounds, levels = dp
        left, label = (1 << n) - 1, 0
        for prev in reversed(levels[:k - 1]):  # what is left fits in k - 1, ..., 1 blocks
            group = slice(bounds[left - 1], bounds[left])
            first = block[group][np.argmin(cost[block[group]] + prev[rest[group]])]
            labels[_bits(first, n)] = label
            left ^= int(first)
            label += 1
            if left == 0:
                break
        labels[_bits(left, n)] = label

    centers = _block_means(points, labels)
    optimal_cost = float(measure.rowwise(points, centers[labels]).sum())
    return OracleResult(optimal_cost, labels, k ** (n - 1))


def _subset_pairs(n):
    """Every split of a nonempty mask S into a block holding S's lowest bit
    and the rest of S, grouped by S in increasing order.

    Returns int32 ``block`` and ``rest`` arrays of the (3^n - 1)/2 pairs and
    the int64 group ``bounds``: S's pairs are ``bounds[S - 1]:bounds[S]``.
    Built one bit b at a time, each step appends {b} alone, then every
    earlier pair twice, first with b in the rest and then with b in the
    block; that keeps each group contiguous and the groups sorted.
    """
    block = rest = np.zeros(0, dtype=np.int32)
    sizes = np.zeros(0, dtype=np.int64)
    for i in range(n):
        b = 1 << i
        block = np.concatenate((block, [b], np.stack((block, block + b), axis=1).ravel()),
                               dtype=np.int32)
        rest = np.concatenate((rest, [0], np.stack((rest + b, rest), axis=1).ravel()),
                              dtype=np.int32)
        sizes = np.concatenate((sizes, [1], 2 * sizes))
    return block, rest, np.concatenate(([0], np.cumsum(sizes)))


def _full_mask_blocks(n):
    """The blocks of the full mask's group of :func:`_subset_pairs`, in its
    order: the 2^(n-1) masks that hold point 0, built by the same doubling."""
    block = np.ones(1, dtype=np.int32)
    for i in range(1, n):
        block = np.stack((block, block + (1 << i)), axis=1).reshape(-1)
    return block


def _bits(mask, n):
    """Indices of the points in ``mask``."""
    return np.flatnonzero((int(mask) >> np.arange(n)) & 1)


def _block_means(points, labels):
    """(labels.max() + 1, d) centroids of the blocks of a partition, in label order."""
    return np.array([centroid(points[labels == j]) for j in range(int(labels.max()) + 1)])


def irreducibility(data, k, measure):
    """gamma = (best cost with k-1 centers) / (best cost with k) - 1.

    Both costs come from the subset-DP oracle, exact at every k on n <=
    ``ORACLE_N_CAP`` points, with one DP run for k answering k - 1 too (the
    costs of two ``optimal_bruteforce`` calls, bit for bit).  See
    :func:`_gamma` for the zero-denominator conventions.
    """
    points = as_points(data)
    k = _checked_count(k, "k", least=2)
    delta_km1, delta_k = (result.optimal_cost for result in
                          _optimal_partitions(points, (k - 1, k), measure))
    return IrreducibilityReport(k=k, delta_km1=delta_km1, delta_k=delta_k,
                                gamma=_gamma(delta_km1, delta_k))


def _gamma(delta_km1, delta_k):
    """cost(k-1)/cost(k) - 1, floored at 0.

    The floor is a guard: both costs are closed-form recomputations of the
    DP's partitions, so where the DP's two levels tie they can invert by a
    rounding step.  A zero denominator gives 0 when both costs are zero and
    infinity when only the k-cost is.
    """
    if delta_k == 0.0:
        return 0.0 if delta_km1 == 0.0 else np.inf
    return max(0.0, delta_km1 / delta_k - 1.0)


def inaba_trial(data, M, delta, trials, rng, measure=None):
    """Empirical check that means of M uniform draws are near-optimal 1-centers.

    Success in a trial means the full-set cost of the sampled mean is within
    factor (1 + 1/(delta*M)) of the optimum; the guarantee promises success
    probability at least 1-delta, and the report's pass threshold allows an
    extra 0.05 of Monte-Carlo slack.
    """
    points = as_points(data)
    M = _checked_count(M, "sample size M")
    if not (0.0 < delta < 1.0):
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    trials = _checked_count(trials, "trials")
    if measure is None:
        measure = SquaredEuclidean()
    measure.validate_points(points)

    n = points.shape[0]
    full_mean = points.mean(axis=0)
    base = float(measure.rowwise(points, full_mean[None, :]).sum())
    factor = 1.0 + 1.0 / (delta * M)
    bound = factor * base

    idx = rng.generator.integers(0, n, size=(trials, M))
    sample_means = points[idx].mean(axis=1)
    costs = np.asarray(measure.rowwise(points[None, :, :], sample_means[:, None, :])).sum(axis=1)
    ok = costs <= bound * (1.0 + 1e-12)
    rate = float(ok.mean())
    required = 1.0 - delta - 0.05
    worst = float(costs.max() / base) if base > 0 else 1.0
    return PropertyReport(
        property="sampling",
        trials=trials,
        violations=int(np.count_nonzero(~ok)),
        worst_ratio=worst,
        tolerance=required,
        passed=rate >= required,
        details={
            "success_rate": rate,
            "required_rate": required,
            "bound_factor": factor,
            "sample_size": M,
            "delta": float(delta),
        },
    )
