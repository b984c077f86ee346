"""Sampling-based (1+eps)-approximate clustering.

The algorithm grows a center set over k iterations.  Each iteration draws N
points with probability proportional to their current cost, then adds the
mean of one M-subset of the draw.  Which subset gets added is the whole
game:

* ``Exhaustive`` branches on every candidate subset at every iteration and
  keeps the k-tuple of subsets whose final center set has least cost.  The
  drawn sample is first collapsed to its distinct point values and subsets of
  every size up to M are enumerated, which keeps the tree finite at sample
  sizes where choosing M of N positions would be astronomically infeasible.
* ``RandomTrials(R)`` is the cheap surrogate: per iteration it draws R
  anchored M-subsets (a uniform anchor position plus its M-1 nearest sample
  neighbors), scores each by the cost of the augmented center set, and
  greedily keeps the best one.

Everything is deterministic given an :class:`~d2ptas.sampler.RngStream`:
restart r uses ``rng.derive(r)``, iteration/trial streams are derived below
that, so extending restarts or trials never reshuffles earlier draws.
"""

import itertools
import logging
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .divergences import SquaredEuclidean, as_points, assign
from .errors import ConfigError, InsufficientPoints
from .sampler import CenterSet, d2_law, d2_sample, weighted_draw

__all__ = [
    "Exhaustive",
    "RandomTrials",
    "parse_strategy",
    "PtasConfig",
    "ClusteringResult",
    "default_eta",
    "paper_scale_constants",
    "find_k_median",
    "find_k_means",
    "run_one_restart",
    "kmeanspp_seed",
    "find_best_over_k",
]

log = logging.getLogger("d2ptas.ptas")

EPSILON_CAP = 0.5

DESK_SAMPLE_SIZE = 100
DESK_SUBSET_SIZE = 10
DESK_TRIALS = 50
DESK_RESTARTS = 8


# ----------------------------------------------------------------------
# subset-selection strategies
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Exhaustive:
    """Branch on every candidate subset of every sample (tiny scales only)."""

    def describe(self):
        return "exhaustive"


@dataclass(frozen=True)
class RandomTrials:
    """Score ``trials`` anchored M-subsets per iteration, keep the greedy best."""

    trials: int = DESK_TRIALS

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("RandomTrials needs at least one trial")

    def describe(self):
        return f"random:{self.trials}"


def parse_strategy(text):
    """'exhaustive' | 'random' | 'random:R' -> strategy object."""
    text = text.strip().lower()
    if text == "exhaustive":
        return Exhaustive()
    if text == "random":
        return RandomTrials()
    if text.startswith("random:"):
        try:
            return RandomTrials(int(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"bad trial count in strategy {text!r}") from exc
    raise ConfigError(f"unknown strategy {text!r}; use 'exhaustive' or 'random:R'")


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def default_eta(measure):
    """Triangle/symmetry aggregate used by the generic sample-size formula.

    For the plain squared-Euclidean objective the tuned constant 20 is used;
    otherwise eta is derived from the measure's declared constants as
    2 * alpha^2 / beta^2 * (1 + 1/beta).
    """
    if isinstance(measure, SquaredEuclidean):
        return 20.0
    a, b = measure.alpha, measure.beta
    return 2.0 * a * a / (b * b) * (1.0 + 1.0 / b)


def paper_scale_constants(measure, k, epsilon, eta):
    """(N, M) at full analysis scale -- far beyond what enumeration can run."""
    if isinstance(measure, SquaredEuclidean):
        return math.ceil(51200.0 * k / epsilon ** 3), math.ceil(100.0 / epsilon)
    delta = 0.2
    gamma = epsilon / eta
    f = 1.0 / (measure.mu * gamma * delta)
    n = math.ceil(24.0 * eta * measure.alpha * measure.beta * k * f / epsilon ** 2)
    return n, math.ceil(f)


@dataclass(frozen=True)
class PtasConfig:
    """Algorithm constants; unset fields are filled from the scale preset.

    ``scale_preset="desk"`` uses constants sized for interactive runs
    (N=100, M=10, RandomTrials(50), 8 restarts).  ``"paper"`` uses the full
    analysis constants with exhaustive enumeration and 2^k restarts, which is
    only meaningful to inspect, not to run.
    """

    k: int
    epsilon: float
    sample_size_N: int = None
    subset_size_M: int = None
    restarts: int = None
    subset_strategy: object = None
    eta: float = None
    scale_preset: str = "desk"

    def resolved(self, measure):
        """A fully-populated copy of this config for ``measure``."""
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        eps = float(self.epsilon)
        if not (eps > 0.0):
            raise ConfigError(f"epsilon must be positive, got {eps}")
        if eps > EPSILON_CAP:
            warnings.warn(
                f"epsilon={eps} exceeds the supported range; clamped to {EPSILON_CAP}",
                stacklevel=2,
            )
            eps = EPSILON_CAP
        if self.scale_preset not in ("desk", "paper"):
            raise ConfigError(f"unknown scale preset {self.scale_preset!r}")

        eta = float(self.eta) if self.eta is not None else default_eta(measure)
        n_, m_ = self.sample_size_N, self.subset_size_M
        restarts, strategy = self.restarts, self.subset_strategy
        if self.scale_preset == "desk":
            n_ = DESK_SAMPLE_SIZE if n_ is None else n_
            m_ = DESK_SUBSET_SIZE if m_ is None else m_
            restarts = DESK_RESTARTS if restarts is None else restarts
            strategy = RandomTrials() if strategy is None else strategy
        else:
            pn, pm = paper_scale_constants(measure, self.k, eps, eta)
            n_ = pn if n_ is None else n_
            m_ = pm if m_ is None else m_
            restarts = 2 ** self.k if restarts is None else restarts
            strategy = Exhaustive() if strategy is None else strategy

        n_, m_, restarts = int(n_), int(m_), int(restarts)
        if m_ < 1 or n_ < 1:
            raise ConfigError("sample and subset sizes must be >= 1")
        if m_ > n_:
            raise ConfigError(f"subset size M={m_} exceeds sample size N={n_}")
        if restarts < 1:
            raise ConfigError("restarts must be >= 1")
        return replace(
            self,
            epsilon=eps,
            sample_size_N=n_,
            subset_size_M=m_,
            restarts=restarts,
            subset_strategy=strategy,
            eta=eta,
        )

    def summary(self):
        return {
            "k": self.k,
            "epsilon": self.epsilon,
            "sample_size_N": self.sample_size_N,
            "subset_size_M": self.subset_size_M,
            "restarts": self.restarts,
            "strategy": self.subset_strategy.describe() if self.subset_strategy else None,
            "eta": self.eta,
            "scale_preset": self.scale_preset,
        }


@dataclass
class ClusteringResult:
    """Centers, the induced assignment, total cost, and run provenance."""

    centers: np.ndarray
    assignment: np.ndarray
    cost: float
    meta: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# restart internals
# ----------------------------------------------------------------------

class _Restart:
    """Outcome of one restart: chosen centers and how they were found."""

    __slots__ = ("cost", "centers", "trace", "subsets_examined", "nodes_expanded")

    def __init__(self, cost, centers, trace, subsets_examined, nodes_expanded):
        self.cost = cost
        self.centers = centers
        self.trace = trace
        self.subsets_examined = subsets_examined
        self.nodes_expanded = nodes_expanded


def _distinct_sample_points(ids, rows):
    """Per row of a (B, N) stack of draws, the indices of its distinct point
    values, first occurrence first.

    ``ids`` maps each point to its distinct-value id (see :func:`_prepare`).
    """
    (count, size), width = rows.shape, int(ids.max()) + 1
    # flat position of the first occurrence of each (row, value), in draw order
    first = np.full(count * width, rows.size)
    np.minimum.at(first, (ids[rows] + width * np.arange(count)[:, None]).reshape(-1),
                  np.arange(rows.size))
    first = np.sort(first[first < rows.size])
    flat = rows.reshape(-1)[first]
    ends = np.searchsorted(first, size * np.arange(1, count + 1)).tolist()
    return [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _distinct_rows(rows, base):
    """The distinct rows of a matrix of ints in [0, base), and each row's index among them.

    Rows are ranked one column at a time, so no key outgrows ``len(rows) * base``.
    """
    which = np.zeros(len(rows), dtype=np.intp)
    for col in rows.T:
        which = np.unique(which * base + col, return_inverse=True)[1]
    first = np.empty(which.max() + 1, dtype=np.intp)
    first[which] = np.arange(len(rows))  # any row of a rank will do: they are equal
    return rows[first], which


@lru_cache(maxsize=256)
def _combo_groups(pool_size, max_size):
    """Index combinations of sizes 1..max_size, lexicographic within each size."""
    groups = []
    for size in range(1, min(pool_size, max_size) + 1):
        combos = np.array(list(itertools.combinations(range(pool_size), size)), dtype=np.intp)
        groups.append(combos)
    return tuple(groups)


def _combo_by_rank(groups, rank):
    for combos in groups:
        if rank < len(combos):
            return combos[rank]
        rank -= len(combos)
    raise IndexError("subset rank out of range")


def _fill_distinct_centers(points, centers, k):
    """Pad a center list to k entries, preferring unused distinct data points."""
    have = {tuple(np.asarray(c).tolist()) for c in centers}  # value equality, as np.unique
    out = list(centers)
    for row in points:
        if len(out) == k:
            break
        key = tuple(row.tolist())
        if key not in have:
            have.add(key)
            out.append(row.copy())
    idx = 0
    while len(out) < k:  # fewer distinct values than k: duplicates are all that's left
        out.append(points[idx % len(points)].copy())
        idx += 1
    return out


# Sibling nodes are expanded in chunks of at most about this many entries of
# points by candidates by coordinates, which bounds every temporary of a
# batch.  Each sibling's numbers are computed on their own, so results do not
# depend on it.
_BATCH_ENTRIES = 1 << 20
# Candidate costs are summed over blocks of at most about this many entries of
# points by candidates.  Blocks of 64 KiB reuse freed memory (256 KiB blocks
# faulted in fresh pages on every batch at n = 12); one point per block would
# cost ~5 us per point at large n.
_SUM_ENTRIES = 1 << 13


class _Siblings:
    """Sibling tree nodes expanded together by :meth:`_TreeSearch._expand`.

    Row j of ``samples`` is node j's draw and ``pools[j]`` its distinct sample
    points.  Node j's candidates are entries ``starts[j]:starts[j + 1]`` of
    ``costs``.  Candidate c belongs to node ``owner[c]`` and is the subset
    mean ``means[which[c]]``, whose divergences are column ``which[c]`` of
    ``table``; ``parents`` holds the nodes' own potentials as columns.
    """

    __slots__ = ("samples", "pools", "starts", "owner", "which", "means", "table", "parents",
                 "costs")

    def __init__(self, samples, pools, starts, which, means, table, parents):
        self.samples = samples
        self.pools = pools
        self.starts = starts
        counts = np.diff(starts)
        self.owner = np.repeat(np.arange(len(pools)), counts)
        self.which = which
        self.means = means
        self.table = table
        self.parents = parents
        # a cost adds its potentials point by point, as the column sum of a
        # C-ordered table does; the table is built a block of points at a time,
        # each block's sum starting from the running one
        cols = np.arange(starts[-1])
        step = max(1, _SUM_ENTRIES // len(cols))
        costs = None
        for lo in range(0, table.shape[0], step):
            block = self.potentials(cols, slice(lo, lo + step))
            costs = (block if costs is None else np.vstack((costs, block))).sum(axis=0)
        lone = starts[:-1][counts == 1]
        if lone.size:
            # a node's only candidate sums as a 1-D array, pairwise
            costs[lone] = np.ascontiguousarray(self.potentials(lone).T).sum(axis=1)
        self.costs = costs

    def potentials(self, cols, points=slice(None)):
        """Potentials of ``points`` after adding candidates ``cols``, one column each."""
        return np.minimum(self.parents[points, self.owner[cols]],
                          self.table[points, self.which[cols]], order="C")


class _TreeSearch:
    """Depth-first enumeration over per-iteration candidate subsets.

    Node streams follow the branch path (child s gets ``stream.derive(1+s)``,
    the node's own draw uses ``stream.derive(0)``), so the winning path can be
    replayed exactly to reconstruct its trace.

    All children of a node are expanded as one batch (see :meth:`_expand`):
    one stacked draw, one pool dedupe, one ``rowwise`` table over the distinct
    subsets of every child's pool, and one pass over the points that sums all
    children's candidate costs.  Leaves then reduce by segment min.  The
    stream layout is unchanged from a node-by-node search, and so is every bit
    of the result: each child's numbers are computed as a lone node would
    compute them, children are visited in order, and a child cut off by the
    zero-cost short-circuit counts for nothing, though its batch may have
    expanded it.  The root and the replay are batches of one.
    """

    def __init__(self, points, ids, measure, k, sample_size, subset_size):
        self.points = points
        self.ids = ids
        self.measure = measure
        self.k = k
        self.sample_size = sample_size
        self.subset_size = subset_size
        self.best_cost = np.inf
        self.best_path = None
        self.subsets_examined = 0
        self.nodes_expanded = 0
        pool = min(sample_size, int(ids.max()) + 1)
        most = sum(math.comb(pool, s) for s in range(1, min(pool, subset_size) + 1))
        self._node_entries = points.shape[0] * points.shape[1] * most

    def _expand(self, potentials, streams):
        """Draw, dedupe and score the sibling nodes on ``streams`` as one batch.

        ``potentials`` holds the siblings' potentials as columns, +inf at
        the root.  Each sibling gets the bits a lone node would get: its
        :func:`~d2ptas.sampler.d2_law` column is a 1-D law, its subset means
        sum their points in pool order, and its costs sum as a lone node's do
        (see :class:`_Siblings`).
        """
        n, d = self.points.shape
        samples = weighted_draw(d2_law(potentials), [s.derive(0) for s in streams],
                                self.sample_size)
        pools = _distinct_sample_points(self.ids, samples)
        sizes = np.array([len(pool) for pool in pools])
        distinct_sizes, size_index = np.unique(sizes, return_inverse=True)
        counts = np.array([sum(map(len, _combo_groups(int(p), self.subset_size)))
                           for p in distinct_sizes])[size_index]
        starts = np.concatenate(([0], np.cumsum(counts)))
        # each candidate as its subset's point indices plus one, in pool order
        members = np.zeros((starts[-1], min(self.subset_size, sizes.max())), dtype=np.intp)
        for p in distinct_sizes:
            sibs = np.flatnonzero(sizes == p)
            pool = np.stack([pools[j] for j in sibs]) + 1
            col = starts[sibs][:, None]
            for combos in _combo_groups(int(p), self.subset_size):
                rows = (col + np.arange(len(combos))).reshape(-1)
                members[rows, :combos.shape[1]] = pool[:, combos].reshape(len(rows), -1)
                col = col + len(combos)
        # siblings share most subsets; equal members in equal order give equal
        # bits, so each distinct one is averaged and scored once
        subsets, which = _distinct_rows(members, n + 1)
        means = np.empty((len(subsets), d))
        lengths = np.count_nonzero(subsets, axis=1)
        for s in np.unique(lengths):
            rows = np.flatnonzero(lengths == s)
            means[rows] = self.points[subsets[rows, :s] - 1].mean(axis=1)
        # closed form, not pairwise: the search branches on exact zero costs
        table = self.measure.rowwise(self.points[:, None, :], means[None, :, :])
        return _Siblings(samples, pools, starts, which, means, table, potentials)

    def run(self, stream):
        # the root's potentials are +inf, the cost to no center
        self._search(np.full((self.points.shape[0], 1), np.inf), [stream], [()])
        return self.best_cost, self.best_path

    def _search(self, potentials, streams, paths):
        """Visit sibling nodes in order, expanding them in chunks of siblings."""
        step = max(1, _BATCH_ENTRIES // self._node_entries)
        for lo in range(0, len(streams), step):
            if self.best_cost == 0.0:
                return
            chunk = slice(lo, lo + step)
            node = self._expand(potentials[:, chunk], streams[chunk])
            if len(paths[0]) == self.k - 1:
                self._score_leaves(node, paths[chunk])
                continue
            for j, (stream, path) in enumerate(zip(streams[chunk], paths[chunk])):
                if self.best_cost == 0.0:
                    return
                a, b = node.starts[j], node.starts[j + 1]
                self.nodes_expanded += 1
                self.subsets_examined += int(b - a)
                zeros = np.flatnonzero(node.costs[a:b] == 0.0)
                stop = int(zeros[0]) if zeros.size else int(b - a)
                if stop:
                    self._search(node.potentials(np.arange(a, a + stop)),
                                 [stream.derive(1 + c) for c in range(stop)],
                                 [path + (c,) for c in range(stop)])
                if stop < b - a and 0.0 < self.best_cost:
                    # every point is covered already; deeper centers cannot matter
                    self.best_cost, self.best_path = 0.0, path + (stop,)

    def _score_leaves(self, node, paths):
        """Visit leaf siblings in order: each offers its first cheapest
        candidate, the search keeps the first strict improvement and stops once
        the best cost is zero."""
        mins = np.minimum.reduceat(node.costs, node.starts[:-1])
        mins[np.isnan(mins)] = np.inf  # a leaf with a NaN cost offers NaN, which never wins
        running = np.minimum.accumulate(np.concatenate(([self.best_cost], mins)))[1:]
        zero = np.flatnonzero(running == 0.0)
        stop = int(zero[0]) + 1 if zero.size else len(paths)
        self.nodes_expanded += stop
        self.subsets_examined += int(node.starts[stop] - node.starts[0])
        j = int(np.argmin(mins[:stop]))
        if mins[j] < self.best_cost:
            a = node.starts[j]
            b = int(np.argmin(node.costs[a:node.starts[j + 1]]))
            self.best_cost, self.best_path = float(node.costs[a + b]), paths[j] + (b,)

    def replay(self, stream, path):
        """Recompute the winning branch and emit its per-iteration trace."""
        trace, centers = [], []
        potentials = np.full((self.points.shape[0], 1), np.inf)
        for depth, b in enumerate(path):
            node = self._expand(potentials, [stream])
            pool_idx = node.pools[0]
            combo = _combo_by_rank(_combo_groups(len(pool_idx), self.subset_size), b)
            potentials = node.potentials(np.array([b]))
            center = node.means[node.which[b]]
            trace.append({
                "iteration": depth,
                "sample": node.samples[0],
                "pool": pool_idx,
                "subset_rank": b,
                "subset_points": pool_idx[combo],
                "center": center,
                "partial_cost": float(potentials[:, 0].sum()),
            })
            centers.append(center)
            stream = stream.derive(1 + b)
        return centers, trace


def _exhaustive_restart(points, ids, measure, cfg, stream):
    search = _TreeSearch(points, ids, measure, cfg.k, cfg.sample_size_N, cfg.subset_size_M)
    cost, path = search.run(stream)
    centers, trace = search.replay(stream, path)
    centers = _fill_distinct_centers(points, centers, cfg.k)
    return _Restart(cost, centers, trace, search.subsets_examined, search.nodes_expanded)


def _greedy_restart(points, measure, cfg, stream):
    """One greedy pass: per iteration, R anchored subset trials, keep the best.

    Trial t picks a uniform anchor position in the sample and takes the M
    sample positions nearest the anchor (stable order, so ties resolve by
    position).  Anchored subsets are the load-bearing choice: a subset of M
    independent positions of a mixed sample almost never isolates one
    cluster, so its mean lands between clusters and the greedy score --
    which is blind beyond the current iteration -- happily keeps it.  A
    nearest-neighbor patch around a sampled anchor is cluster-pure whenever
    clusters are separated, so the candidate menu consists of plausible
    cluster centers instead of mixture midpoints.
    """
    trials = cfg.subset_strategy.trials
    m_ = cfg.subset_size_M
    center_set = CenterSet.empty(points, measure)
    trace, examined = [], 0
    for i in range(cfg.k):
        if center_set.total_potential == 0.0:
            break
        it_stream = stream.derive(i)
        sample_idx = d2_sample(center_set, it_stream.derive(0), cfg.sample_size_N)
        sample = points[sample_idx]
        anchors = np.array([
            int(it_stream.derive(1 + t).generator.integers(cfg.sample_size_N))
            for t in range(trials)
        ])
        to_anchor = measure.pairwise(sample, sample[anchors])    # (N, R)
        positions = np.argsort(to_anchor, axis=0, kind="stable")[:m_].T   # (R, M)
        cands = sample[positions].mean(axis=1)
        scores = np.minimum(
            center_set.potentials[:, None],
            measure.pairwise(points, cands),
        ).sum(axis=0)
        examined += trials
        t_best = int(np.argmin(scores))
        trace.append({
            "iteration": i,
            "sample": sample_idx,
            "trial": t_best,
            "anchor": int(anchors[t_best]),
            "subset_positions": positions[t_best],
            "subset_points": sample_idx[positions[t_best]],
            "center": cands[t_best],
            "partial_cost": float(scores[t_best]),
        })
        center_set = center_set.add(cands[t_best])
    centers = _fill_distinct_centers(points, list(center_set.centers), cfg.k)
    cost = float(CenterSet(points, measure, centers).total_potential) if len(centers) > center_set.size \
        else center_set.total_potential
    return _Restart(cost, centers, trace, examined, len(trace))


def _log_restart(r, cfg, outcome):
    log.info("restart %d: strategy %s, cost %.10g, subsets %d, nodes %d", r,
             cfg.subset_strategy.describe(), outcome.cost, outcome.subsets_examined,
             outcome.nodes_expanded)


def _single_restart(points, ids, measure, cfg, stream):
    if isinstance(cfg.subset_strategy, Exhaustive):
        return _exhaustive_restart(points, ids, measure, cfg, stream)
    return _greedy_restart(points, measure, cfg, stream)


def _prepare(data, measure, config):
    """Validated points, the resolved config, and each point's distinct-value id.

    Two points share an id exactly when their coordinates compare equal, so
    ``0.0`` and ``-0.0`` count as one value.
    """
    points = as_points(data)
    measure.validate_points(points)
    cfg = config.resolved(measure)
    if points.shape[0] < cfg.k:
        raise InsufficientPoints(f"need at least k={cfg.k} points, got {points.shape[0]}")
    _, ids = np.unique(points, axis=0, return_inverse=True)
    return points, cfg, ids.reshape(-1)


def _result(points, measure, centers, meta):
    """ClusteringResult for ``centers``: nearest-center assignment and total cost."""
    centers = np.asarray(centers, dtype=float)
    labels, costs = assign(measure, points, centers)
    return ClusteringResult(centers=centers, assignment=labels, cost=float(costs.sum()), meta=meta)


def _meta(rng, cfg, t0, **fields):
    """Run provenance shared by the search entry points."""
    return {
        "seed": [rng.seed, rng.stream_id],
        "strategy": cfg.subset_strategy.describe(),
        **fields,
        "seconds": time.perf_counter() - t0,
        "config": cfg.summary(),
    }


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------

def find_k_median(data, measure, config, rng, threads=None):
    """Best clustering over all restarts and subset choices explored.

    Restart r runs on ``rng.derive(r)``; the winner is the (cost, restart)
    lexicographic minimum, so results are reproducible and adding restarts
    can only improve the returned cost.
    """
    points, cfg, ids = _prepare(data, measure, config)
    t0 = time.perf_counter()

    if ids.max() + 1 <= cfg.k:
        # every distinct value can host its own center; no search needed
        centers = _fill_distinct_centers(points, [], cfg.k)
        meta = _meta(rng, cfg, t0, restarts=0, winning_restart=0, subsets_examined=0,
                     nodes_expanded=0, iterations=0, trace=[])
        return _result(points, measure, centers, meta)

    def one(r):
        return r, _single_restart(points, ids, measure, cfg, rng.derive(r))

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            outcomes = list(pool.map(one, range(cfg.restarts)))
    else:
        outcomes = [one(r) for r in range(cfg.restarts)]

    for r, outcome in outcomes:
        _log_restart(r, cfg, outcome)
    best_r, best = min(outcomes, key=lambda pair: (pair[1].cost, pair[0]))
    meta = _meta(rng, cfg, t0, restarts=cfg.restarts, winning_restart=best_r,
                 subsets_examined=sum(o.subsets_examined for _, o in outcomes),
                 nodes_expanded=sum(o.nodes_expanded for _, o in outcomes),
                 iterations=cfg.k, trace=best.trace)
    return _result(points, measure, best.centers, meta)


def find_k_means(data, config, rng, threads=None):
    """k-means entry point: squared-Euclidean objective, same engine underneath."""
    return find_k_median(data, SquaredEuclidean(), config, rng, threads=threads)


def run_one_restart(data, measure, config, rng):
    """Execute the k-iteration inner loop once, with a full per-iteration trace."""
    points, cfg, ids = _prepare(data, measure, config)
    t0 = time.perf_counter()
    outcome = _single_restart(points, ids, measure, cfg, rng)
    _log_restart(0, cfg, outcome)
    meta = _meta(rng, cfg, t0, restarts=1, subsets_examined=outcome.subsets_examined,
                 nodes_expanded=outcome.nodes_expanded, iterations=cfg.k, trace=outcome.trace)
    return _result(points, measure, outcome.centers, meta)


def kmeanspp_seed(data, measure, k, rng):
    """k centers by iterated single-point cost-weighted sampling (the classic seeding)."""
    points = as_points(data)
    measure.validate_points(points)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if points.shape[0] < k:
        raise InsufficientPoints(f"need at least k={k} points, got {points.shape[0]}")
    center_set = CenterSet.empty(points, measure)
    picked = []
    for i in range(k):
        idx = int(d2_sample(center_set, rng.derive(i), 1)[0])
        picked.append(idx)
        center_set = center_set.add(points[idx])
    meta = {"seed": [rng.seed, rng.stream_id], "method": "kmeans++", "picked": picked}
    return _result(points, measure, points[picked], meta)


def find_best_over_k(data, measure, config, rng, threads=None):
    """Run the algorithm for every center count i = 1..k and keep the best.

    Dropping the assumption that all k clusters matter costs accuracy, which
    the analysis repays by tightening epsilon to eps/((1+eps/2)*k) in the
    sub-runs; the i-center results are all scored on the same objective, so
    the returned minimum is well-defined (ties go to the smaller i).

    The tightened epsilon only changes the sub-runs under
    ``scale_preset="paper"``.  The desk preset's N, M and restarts are fixed
    constants, so there every sub-run uses the same constants whatever epsilon
    is.
    """
    points = as_points(data)
    base = config.resolved(measure)
    scaled_eps = base.epsilon / ((1.0 + base.epsilon / 2.0) * base.k)
    best, runs = None, []
    for i in range(1, base.k + 1):
        sub = replace(config, k=i, epsilon=scaled_eps)
        result = find_k_median(points, measure, sub, rng.derive(i), threads=threads)
        runs.append({"k": i, "cost": result.cost})
        if best is None or result.cost < best.cost:
            best = result
    best.meta["k_requested"] = base.k
    best.meta["epsilon_scaled"] = scaled_eps
    best.meta["runs"] = runs
    return best
