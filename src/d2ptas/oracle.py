"""Ground truth at small scale.

Exact optima come from a dynamic program over subsets of points: the
measures here all have the property that a cluster's best center is its
coordinate-wise mean (Banerjee et al., JMLR 2005), so a partition costs the
sum of its blocks' costs and the best split of every subset builds on the
best splits of smaller ones.  That is 2^n block costs and ~3^n/2 (subset,
block) pairs per level, which is why everything is capped hard -- these are
oracles for validating the samplers, not production solvers.

The k-means++/Lloyd baseline is the local-search reference beside them.  Its
restarts run in lock step (:func:`_lloyd_restarts`, :func:`_kmeanspp_lloyd`):
one stacked ``pairwise`` table per step labels every restart still moving,
and each restart keeps the bits of a lone :func:`lloyd` run, which is one
restart of the same body.
"""

from dataclasses import dataclass

import numpy as np

from .divergences import PropertyReport, SquaredEuclidean, as_points, centroid
from .errors import ConfigError, TooLarge
from .ptas import ClusteringResult, _kmeanspp_picks, _restart_groups

__all__ = [
    "ORACLE_N_CAP",
    "ORACLE_K_CAP",
    "OracleResult",
    "IrreducibilityReport",
    "optimal_bruteforce",
    "lloyd",
    "irreducibility",
    "subsample_extrapolation",
    "inaba_trial",
]

ORACLE_N_CAP = 14
ORACLE_K_CAP = 4


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
    exact: bool = True


def optimal_bruteforce(data, k, measure):
    """Globally optimal k-clustering by a min-plus DP over subsets of points.

    Every measure puts a block's best center at its mean, so a partition
    costs the sum of its blocks' costs.  The table of all 2^n block costs
    is evaluated in closed form; level j of the DP then holds,
    for every mask S, the best cost of S split into at most j blocks, taking
    the block that holds S's lowest point first.  That visits the
    (3^n - 1)/2 (mask, block) pairs of :func:`_subset_pairs` once per level,
    two int32 indices each (19 MB at n=14), and the last level only the full
    mask's 2^(n-1).  Empty clusters are allowed and contribute nothing.

    Blocks are numbered by their lowest point index, so point 0 is in
    cluster 0, and ``optimal_cost`` is the closed-form cost of that
    partition with every block at its mean.  ``assignments_examined`` counts
    the labelings (point 0 pinned) the search is exact over: k^(n-1), or 1
    when k >= n.
    """
    points = as_points(data)
    measure.validate_points(points)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    n, _ = points.shape
    if n > ORACLE_N_CAP:
        raise TooLarge(f"n={n} exceeds the oracle cap {ORACLE_N_CAP}")
    if k > ORACLE_K_CAP:
        raise TooLarge(f"k={k} exceeds the oracle cap {ORACLE_K_CAP}")
    if k >= n:
        return OracleResult(0.0, np.arange(n, dtype=np.int64), 1)

    member = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1  # (2^n, n)
    means = (member @ points) / np.maximum(member.sum(axis=1), 1)[:, None]
    means[0] = points[0]  # in-domain stand-in for the empty block
    divs = measure.rowwise(points[None, :, :], means[:, None, :])
    cost = np.where(member == 1, divs, 0.0).sum(axis=1)

    block, rest, bounds = _subset_pairs(n)
    levels = [cost]  # levels[j][S]: best cost of S in at most j + 1 blocks
    for _ in range(2, k):
        best = np.empty_like(cost)
        best[0] = 0.0
        best[1:] = np.minimum.reduceat(cost[block] + levels[-1][rest], bounds[:-1])
        levels.append(best)

    labels = np.empty(n, dtype=np.int64)
    left, label = (1 << n) - 1, 0
    for prev in reversed(levels[:k - 1]):  # what is left fits in k - 1, ..., 1 blocks
        group = slice(bounds[left - 1], bounds[left])
        first = block[group][np.argmin(cost[block[group]] + prev[rest[group]])]
        labels[_bits(first, n)] = label
        left ^= int(first)
        label += 1
        if left == 0:
            break
    if left:
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


def _bits(mask, n):
    """Indices of the points in ``mask``."""
    return np.flatnonzero((int(mask) >> np.arange(n)) & 1)


def _block_means(points, labels):
    """(labels.max() + 1, d) centroids of the blocks of a partition, in label order."""
    return np.array([centroid(points[labels == j]) for j in range(int(labels.max()) + 1)])


def lloyd(data, measure, initial_centers, max_iters=100):
    """Alternating assign/re-mean local search from the given centers.

    Ties assign to the lowest center index; an emptied cluster keeps its
    previous center, so the cost never rises by more than the rounding of the
    ``pairwise`` table that picks the labels (costs themselves are closed
    form; see ``assign``).  Stops at an assignment fixpoint or after
    ``max_iters`` passes.  This is one restart of :func:`_lloyd_restarts`.
    """
    points = as_points(data)
    measure.validate_points(points)
    centers = as_points(initial_centers).copy()
    if points.shape[1] != centers.shape[1]:
        raise ConfigError("initial centers have the wrong dimension")
    labels, (cost_trace,) = _lloyd_restarts(points, measure, centers[None], max_iters)
    return ClusteringResult(
        centers=centers,
        assignment=labels[0],
        cost=cost_trace[-1],
        meta={"iterations": len(cost_trace), "cost_trace": cost_trace, "method": "lloyd"},
    )


def _lloyd_restarts(points, measure, centers, max_iters):
    """Lloyd's local search from each (k, d) block of the (A, k, d) ``centers``,
    all restarts in lock step.  ``centers`` is updated in place.

    Returns the (A, n) labels and each restart's cost trace: the cost of its
    first labelling, then of each labelling after a re-mean.  Restart a's
    labels are the argmin of block a of one stacked ``pairwise`` table of the
    points (whose side is built once) against the still-active restarts'
    centers, and its costs one closed-form ``rowwise`` of the points against
    their labelled centers; both run over groups of restarts that fit
    ``_CHUNK_ENTRIES`` (:func:`~d2ptas.ptas._restart_groups`), so no table
    grows with A.  Each block is the table of that restart alone, so every
    restart keeps the bits of a lone run.  A restart leaves the batch at its
    own assignment fixpoint, or after ``max_iters`` re-means with one last
    cost, and its trace ends there.
    """
    (count, k, d), n = centers.shape, points.shape[0]
    point_side = measure._point_side(points)
    labels, prev = np.empty((2, count, n), dtype=np.intp)
    costs = np.empty((count, n))
    traces = [[] for _ in range(count)]

    def relabel(active):
        for g in _restart_groups(len(active), n * (k + d)):
            rows = active[g]
            block = centers[rows]
            nearest = np.argmin(measure.pairwise(points, block, point_side=point_side), axis=2)
            labels[rows] = nearest
            costs[rows] = measure.rowwise(points, block[np.arange(len(rows))[:, None], nearest])

    def record(active):
        for r, total in zip(active.tolist(), costs[active].sum(axis=1).tolist()):
            traces[r].append(total)

    active = np.arange(count)
    relabel(active)
    for iteration in range(max_iters):
        record(active)
        if iteration:
            active = active[(labels[active] != prev[active]).any(axis=1)]
            if not active.size:
                break
        prev[active] = labels[active]
        for r in active.tolist():
            for j in range(k):
                members = labels[r] == j
                if np.any(members):
                    centers[r, j] = centroid(points[members])
        relabel(active)
    record(active)
    return labels, traces


def _kmeanspp_lloyd(data, measure, k, streams):
    """Each stream's ``lloyd(data, measure, kmeanspp_seed(data, measure, k,
    stream).centers).cost``, bit for bit (``lloyd``'s default of at most 100
    passes), with every restart's seeding and local search run in lock step.
    The seedings' own assignments are never computed: Lloyd's first labelling
    is the same.
    """
    points = as_points(data)
    measure.validate_points(points)
    centers = points[_kmeanspp_picks(points, measure, k, streams)]
    return [trace[-1] for trace in _lloyd_restarts(points, measure, centers, 100)[1]]


def irreducibility(data, k, measure, mode="exact", restarts=20, rng=None):
    """gamma = (best cost with k-1 centers) / (best cost with k) - 1.

    ``mode="exact"`` uses the subset-DP oracle (capped); ``"approximate"``
    substitutes best-of-``restarts`` seeded local search and flags the report:
    the best of ``lloyd`` from ``kmeanspp_seed`` on ``rng.derive(0).derive(r)``
    for k centers and ``rng.derive(1).derive(r)`` for k - 1, r < ``restarts``,
    each side's restarts run as one batch (:func:`_kmeanspp_lloyd`).  See
    :func:`_gamma` for the zero-denominator conventions.
    """
    points = as_points(data)
    if k < 2:
        raise ConfigError("irreducibility needs k >= 2")
    if mode == "exact":
        delta_k = optimal_bruteforce(points, k, measure).optimal_cost
        delta_km1 = optimal_bruteforce(points, k - 1, measure).optimal_cost
        exact = True
    elif mode == "approximate":
        if rng is None:
            raise ConfigError("approximate mode needs an rng")
        if restarts < 1:
            raise ConfigError(f"approximate mode needs at least one restart, got {restarts}")

        def best_of(j, stream):
            return min(_kmeanspp_lloyd(points, measure, j,
                                       [stream.derive(r) for r in range(restarts)]))

        delta_k = best_of(k, rng.derive(0))
        delta_km1 = best_of(k - 1, rng.derive(1))
        exact = False
    else:
        raise ConfigError(f"unknown mode {mode!r}")

    return IrreducibilityReport(k=k, delta_km1=delta_km1, delta_k=delta_k,
                                gamma=_gamma(delta_km1, delta_k), exact=exact)


def _gamma(delta_km1, delta_k):
    """cost(k-1)/cost(k) - 1, floored at 0.

    A zero denominator gives 0 when both costs are zero and infinity when
    only the k-cost is.
    """
    if delta_k == 0.0:
        return 0.0 if delta_km1 == 0.0 else np.inf
    return max(0.0, delta_km1 / delta_k - 1.0)


def subsample_extrapolation(data, k, measure, rng, subsample_size=12, repeats=5):
    """Estimate the full-instance optimum from exact optima of small subsamples.

    Each repeat draws ``subsample_size`` points without replacement, solves
    them exactly, and scales the cost by ``(n - k) / (m - k)``: within-cluster
    scatter carries one degree of freedom per point beyond the k fitted
    centers, so this scaling keeps the estimate centered where the naive
    ``n / m`` would bias it low.  Repeats are averaged because a single
    small subsample is very noisy.  When the instance already fits under the
    oracle's size cap, its exact optimum is returned directly.
    """
    points = as_points(data)
    n = points.shape[0]
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    if n <= ORACLE_N_CAP:
        return optimal_bruteforce(points, k, measure).optimal_cost
    m = int(subsample_size)
    if not k < m <= ORACLE_N_CAP:
        raise ConfigError(
            f"subsample_size must satisfy k < m <= {ORACLE_N_CAP}, got {m}")
    scale = (n - k) / (m - k)
    estimates = np.empty(repeats)
    for j in range(repeats):
        idx = rng.derive(j).generator.choice(n, size=m, replace=False)
        estimates[j] = optimal_bruteforce(points[idx], k, measure).optimal_cost
    return float(estimates.mean() * scale)


def inaba_trial(data, M, delta, trials, rng, measure=None):
    """Empirical check that means of M uniform draws are near-optimal 1-centers.

    Success in a trial means the full-set cost of the sampled mean is within
    factor (1 + 1/(delta*M)) of the optimum; the guarantee promises success
    probability at least 1-delta, and the report's pass threshold allows an
    extra 0.05 of Monte-Carlo slack.
    """
    points = as_points(data)
    if M < 1:
        raise ConfigError(f"sample size must be >= 1, got {M}")
    if not (0.0 < delta < 1.0):
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    if trials < 1:
        raise ConfigError("need at least one trial")
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
        trials=int(trials),
        violations=int(np.count_nonzero(~ok)),
        worst_ratio=worst,
        tolerance=required,
        passed=rate >= required,
        details={
            "success_rate": rate,
            "required_rate": required,
            "bound_factor": factor,
            "sample_size": int(M),
            "delta": float(delta),
        },
    )
