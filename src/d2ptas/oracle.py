"""Ground truth at small scale.

Exact optima come from enumerating every assignment of points to k cluster
labels: the measures here all have the property that a cluster's best center
is its coordinate-wise mean, so optimizing over assignments is the whole
search space.  That is k^n work, which is why everything is capped hard --
these are oracles for validating the samplers, not production solvers.
"""

from dataclasses import dataclass

import numpy as np

from .divergences import PropertyReport, SquaredEuclidean, as_points, assign
from .errors import ConfigError, TooLarge, UnsupportedMeasure
from .ptas import ClusteringResult, kmeanspp_seed

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
_CHUNK = 1 << 14


@dataclass
class OracleResult:
    optimal_cost: float
    optimal_partition: np.ndarray  # (n,) cluster labels
    assignments_examined: int

    def centers(self, points):
        """Per-cluster means implied by the optimal partition."""
        points = as_points(points)
        k = int(self.optimal_partition.max()) + 1
        return np.array([
            points[self.optimal_partition == j].mean(axis=0)
            if np.any(self.optimal_partition == j) else points[0]
            for j in range(k)
        ])


@dataclass
class IrreducibilityReport:
    """How much the k-th center matters: gamma = cost(k-1 centers)/cost(k) - 1."""

    k: int
    delta_km1: float
    delta_k: float
    gamma: float
    exact: bool = True


def optimal_bruteforce(data, k, measure, n_cap=ORACLE_N_CAP, k_cap=ORACLE_K_CAP,
                       pin_first=True):
    """Globally optimal k-clustering by assignment enumeration.

    Label permutations are pruned by pinning point 0 to cluster 0
    (``pin_first=False`` disables the pruning, for validating that it is
    lossless).  Empty clusters are allowed and contribute nothing.
    """
    points = as_points(data)
    measure.validate_points(points)
    if not measure.exact_centroid:
        raise UnsupportedMeasure(f"{measure.name} does not optimize centers at the mean")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    n, _ = points.shape
    if n > n_cap:
        raise TooLarge(f"n={n} exceeds the enumeration cap {n_cap}")
    if k > k_cap:
        raise TooLarge(f"k={k} exceeds the enumeration cap {k_cap}")
    if k >= n:
        return OracleResult(0.0, np.arange(n, dtype=np.int64), 1)

    free = n - 1 if pin_first else n
    total = k ** free
    best_cost, best_code = np.inf, 0
    fallback = points[0]  # in-domain stand-in center for empty clusters
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = np.empty((codes.shape[0], n), dtype=np.int64)
        offset = 0
        if pin_first:
            digits[:, 0] = 0
            offset = 1
        for j in range(free):
            digits[:, offset + j] = (codes // (k ** j)) % k
        onehot = (digits[:, :, None] == np.arange(k)[None, None, :]).astype(float)
        counts = onehot.sum(axis=1)
        means = np.einsum("bnk,nd->bkd", onehot, points) / np.maximum(counts, 1.0)[:, :, None]
        means = np.where(counts[:, :, None] > 0, means, fallback)
        divs = measure.rowwise(points[None, :, None, :], means[:, None, :, :])
        costs = np.einsum("bnk,bnk->b", divs, onehot)
        b = int(np.argmin(costs))
        if costs[b] < best_cost:
            best_cost = float(costs[b])
            best_code = int(codes[b])

    labels = np.empty(n, dtype=np.int64)
    offset = 0
    if pin_first:
        labels[0] = 0
        offset = 1
    for j in range(free):
        labels[offset + j] = (best_code // (k ** j)) % k
    return OracleResult(best_cost, labels, total)


def lloyd(data, measure, initial_centers, max_iters=100):
    """Alternating assign/re-mean local search from the given centers.

    Ties assign to the lowest center index; an emptied cluster keeps its
    previous center, so the cost never rises by more than the rounding of the
    ``pairwise`` table that picks the labels (costs themselves are closed
    form; see ``assign``).  Stops at an assignment fixpoint or after
    ``max_iters`` passes.
    """
    points = as_points(data)
    if not measure.exact_centroid:
        raise UnsupportedMeasure(f"{measure.name} does not optimize centers at the mean")
    measure.validate_points(points)
    centers = as_points(initial_centers).copy()
    if points.shape[1] != centers.shape[1]:
        raise ConfigError("initial centers have the wrong dimension")

    prev = None
    cost_trace = []
    labels, costs = assign(measure, points, centers)
    for iteration in range(1, max_iters + 1):
        cost_trace.append(float(costs.sum()))
        if prev is not None and np.array_equal(labels, prev):
            break
        prev = labels
        for j in range(centers.shape[0]):
            members = labels == j
            if np.any(members):
                centers[j] = points[members].mean(axis=0)
        labels, costs = assign(measure, points, centers)
    else:
        cost_trace.append(float(costs.sum()))

    return ClusteringResult(
        centers=centers,
        assignment=labels,
        cost=float(costs.sum()),
        meta={"iterations": len(cost_trace), "cost_trace": cost_trace, "method": "lloyd"},
    )


def irreducibility(data, k, measure, mode="exact", restarts=20, rng=None,
                   n_cap=ORACLE_N_CAP):
    """gamma = (best cost with k-1 centers) / (best cost with k) - 1.

    ``mode="exact"`` uses the enumeration oracle (capped); ``"approximate"``
    substitutes best-of-``restarts`` seeded local search and flags the report.
    See :func:`_gamma` for the zero-denominator conventions.
    """
    points = as_points(data)
    if k < 2:
        raise ConfigError("irreducibility needs k >= 2")
    if mode == "exact":
        delta_k = optimal_bruteforce(points, k, measure, n_cap=n_cap).optimal_cost
        delta_km1 = optimal_bruteforce(points, k - 1, measure, n_cap=n_cap).optimal_cost
        exact = True
    elif mode == "approximate":
        if rng is None:
            raise ConfigError("approximate mode needs an rng")

        def best_of(j, stream):
            best = np.inf
            for r in range(restarts):
                seed_result = kmeanspp_seed(points, measure, j, stream.derive(r))
                best = min(best, lloyd(points, measure, seed_result.centers).cost)
            return best

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
    enumeration cap, its exact optimum is returned directly.
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
