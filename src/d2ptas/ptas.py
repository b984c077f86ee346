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
that, so extending restarts or trials never reshuffles earlier draws.  D²
samples and k-means++ seeds draw from each stream's seeded generator.  A
``RandomTrials`` anchor is instead a counter-based uniform of its trial's
stream id (see :func:`_greedy_restarts`), computed for all trials of an
iteration in one vectorised step, and so is every draw of the exhaustive
tree, under a key that brings in the seed (see :class:`_TreeSearch`).

Restarts share no state, so each restart is a row of a batch, and every
restart keeps the bits it would get on its own.  All restarts of a solve run
as one pass.  ``RandomTrials`` restarts run in lock step: each iteration
draws, builds its anchored patches and picks its kept trials for all of them
at once, and only the steps with a row per point and restart (scoring and
the potentials update) run over groups of restarts that fit
``_CHUNK_ENTRIES`` table entries, at least one.  ``Exhaustive`` restarts are
one tree whose roots are the restarts, searched a frontier of same-depth
nodes at a time.  A batch holds the children of several parents and
restarts, and every node still gets the bits of a lone node, in the order of
a depth-first search of its restart.

The k-means++ seeding of the baseline runs its restarts the same way
(:func:`_kmeanspp_picks`): one (A, n) potentials array, one D² law table and
one draw call per pick for every restart, each row with the bits of a lone
seeding; :func:`kmeanspp_seed` is one row of it.

Both strategies return the same shape (:func:`_run_restarts`): each
restart's cost and counters as arrays, and the first cheapest restart's
index, centers and trace.  Only that winner's trace is ever built.
:func:`find_k_median` and :func:`run_one_restart` share one body
(:func:`_solve`), so their results and ``meta`` differ only in the streams
they run: ``rng.derive(r)`` for each restart r, or ``rng`` itself.
"""

import itertools
import logging
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .divergences import SquaredEuclidean, as_points, assign
from .errors import ConfigError, InsufficientPoints
# bench/tracing.py wraps ``ptas.d2_sample`` and ``ptas.CenterSet.add`` by
# name, so both stay importable from here
from .sampler import (CenterSet, _counter_key, _counter_uniforms, _derived_ids,  # noqa: F401
                      _uniform_indices, d2_law, d2_sample, weighted_draw)

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

# An exhaustive run that could score more subsets than this is refused.
ENUMERATION_BUDGET = 10 ** 9


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
    """Triangle/symmetry aggregate used by the generic sample-size formula:
    2 * alpha^2 / beta^2 * (1 + 1/beta) of the measure's declared constants."""
    a, b = measure.alpha, measure.beta
    return 2.0 * a * a / (b * b) * (1.0 + 1.0 / b)


def paper_scale_constants(measure, k, epsilon):
    """(N, M) at full analysis scale -- far beyond what enumeration can run."""
    if isinstance(measure, SquaredEuclidean):
        return math.ceil(51200.0 * k / epsilon ** 3), math.ceil(100.0 / epsilon)
    eta = default_eta(measure)
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
    analysis constants with exhaustive enumeration and 2^k restarts, which
    the engine refuses to run on all but a few distinct values.
    """

    k: int
    epsilon: float
    sample_size_N: int = None
    subset_size_M: int = None
    restarts: int = None
    subset_strategy: object = None
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

        n_, m_ = self.sample_size_N, self.subset_size_M
        restarts, strategy = self.restarts, self.subset_strategy
        if self.scale_preset == "desk":
            n_ = DESK_SAMPLE_SIZE if n_ is None else n_
            m_ = DESK_SUBSET_SIZE if m_ is None else m_
            restarts = DESK_RESTARTS if restarts is None else restarts
            strategy = RandomTrials() if strategy is None else strategy
        else:
            pn, pm = paper_scale_constants(measure, self.k, eps)
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
        )

    def summary(self):
        return {
            "k": self.k,
            "epsilon": self.epsilon,
            "sample_size_N": self.sample_size_N,
            "subset_size_M": self.subset_size_M,
            "restarts": self.restarts,
            "strategy": self.subset_strategy.describe() if self.subset_strategy else None,
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

def _distinct_sample_points(ids, rows):
    """Per row of a (B, N) stack of draws, the indices of its distinct point
    values, first occurrence first.

    ``ids`` maps each point to its distinct-value id (see :func:`_prepare`).
    The key and position temporaries take B * N entries and the
    first-occurrence table B * (distinct values), which ``_BATCH_ENTRIES``
    bounds.
    """
    width, (count, size) = int(ids.max()) + 1, rows.shape
    # flat position of the first occurrence of each (row, value), in draw order
    first = np.full(count * width, rows.size)
    keys = ids[rows]
    keys += width * np.arange(count)[:, None]
    np.minimum.at(first, keys.reshape(-1), np.arange(rows.size))
    first = np.sort(first[first < rows.size])
    flat = rows.reshape(-1)[first]
    ends = np.searchsorted(first, size * np.arange(1, count + 1)).tolist()
    return tuple(flat[a:b] for a, b in zip([0] + ends[:-1], ends))


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


def _menu_size(sample_size, subset_size, distinct, cap=math.inf):
    """Most candidates a tree node can offer: the subsets of 1..M values of a
    pool of at most min(N, distinct values) sample points.  The sum stops once
    it passes ``cap``."""
    pool = min(sample_size, distinct)
    menu, count = 0, 1
    for s in range(1, min(pool, subset_size) + 1):
        if menu > cap:
            break
        count = count * (pool - s + 1) // s  # C(pool, s), exactly
        menu += count
    return menu


def _check_tree_size(cfg, distinct, restarts):
    """Refuse an exhaustive search that could score more than ``ENUMERATION_BUDGET``
    subsets: ``restarts`` trees of k levels, each node offering up to
    :func:`_menu_size` candidates.  :func:`_solve` asks only when there are
    more than k distinct values, as fewer need no search.
    """
    menu = _menu_size(cfg.sample_size_N, cfg.subset_size_M, distinct, cap=10 ** 18)
    if menu > 10 ** 18:
        shown = "more than 10^18"
    else:
        count = restarts * sum(menu ** j for j in range(1, cfg.k + 1))
        if count <= ENUMERATION_BUDGET:
            return
        shown = str(count) if count < 10 ** 18 else f"about 10^{math.log10(count):.0f}"
    raise ConfigError(
        f"refusing exhaustive search of {shown} subsets ({restarts} restarts, k={cfg.k}, "
        f"N={cfg.sample_size_N}, M={cfg.subset_size_M}, {distinct} distinct values); "
        f"the budget is {ENUMERATION_BUDGET}"
    )


def _combo_by_rank(groups, rank):
    for combos in groups:
        if rank < len(combos):
            return combos[rank]
        rank -= len(combos)
    raise IndexError("subset rank out of range")


# A frontier of tree nodes is expanded in chunks of at most this many entries,
# or one node.  A node counts its N uniforms and N draws, and per candidate
# its members, ids, owner and cost, its divergences to the n points with
# their coordinates and its child's n potentials; so the budget bounds every
# temporary of a batch, the pool dedupe's keys, positions and first-occurrence
# slots included.  A paper-preset node (N = 819 200) is a batch of its own.
# At exact_small's shape (n = 12, N = 239, M = 2, 78 candidates) 2^20 entries
# make chunks of 227-382 nodes; 2^19 was slower and 2^21 no faster, with a
# higher peak.  Each node's numbers are computed on their own, so results do
# not depend on it.
_BATCH_ENTRIES = 1 << 20
# Candidate costs are summed over blocks of whole rows, at most about this
# many entries of candidates by points or one row.  Blocks of 64 KiB reuse
# freed memory (256 KiB blocks faulted in fresh pages on every batch at
# n = 12).
_SUM_ENTRIES = 1 << 13


class _Batch:
    """Tree nodes of one depth expanded together by :meth:`_TreeSearch._expand`.

    Row j of ``samples`` is node j's draw and ``pools[j]`` its distinct sample
    points.  Node j's candidates are entries ``starts[j]:starts[j + 1]`` of
    ``costs``.  Candidate c belongs to node ``owner[c]`` and is the subset
    mean ``means[which[c]]``, whose divergences are row ``which[c]`` of
    ``table``; ``parents`` holds the nodes' own potentials as rows.
    """

    __slots__ = ("samples", "pools", "starts", "owner", "which", "means", "table", "parents",
                 "costs")

    def __init__(self, samples, pools, starts, which, means, table, parents):
        self.samples = samples
        self.pools = pools
        self.starts = starts
        self.owner = np.repeat(np.arange(len(pools)), np.diff(starts))
        self.which = which
        self.means = means
        self.table = table
        self.parents = parents
        # each cost is the 1-D sum of its own row
        step = max(1, _SUM_ENTRIES // table.shape[1])
        self.costs = np.concatenate([self.potentials(np.arange(lo, min(lo + step, starts[-1])))
                                     .sum(axis=1) for lo in range(0, starts[-1], step)])

    def potentials(self, cands):
        """Potentials after adding candidates ``cands``, one row each."""
        return np.minimum(self.parents[self.owner[cands]], self.table[self.which[cands]])


class _TreeSearch:
    """Depth-first enumeration over per-iteration candidate subsets, for the
    restarts on ``streams``, all in one tree whose roots are the restarts.

    Node streams follow the branch path: root r is ``streams[r]``, child s of
    a node gets ``derive(1 + s)`` of it and the node's own draw uses
    ``derive(0)``.  Nodes carry only their stream ids, as uint64 arrays from
    :func:`~d2ptas.sampler._derived_ids`; no ``RngStream`` is built for a node.
    A node's N draws invert its D² law at the counter uniforms of its draw id
    s under its restart's key K (:func:`~d2ptas.sampler._counter_key`), one
    key per row: the j-th is the top 53 bits of
    ``splitmix64(splitmix64(s ^ K) + j)`` times 2^-53.  Each value is a
    function of (seed, path, j) alone, so the winning path can be replayed
    exactly to reconstruct its trace.

    The tree is searched a frontier at a time (see :meth:`_search`): the
    same-depth nodes in (restart, path) order, in chunks, each chunk expanded
    as one batch (see :meth:`_expand`) with one table of counter uniforms and
    one stacked draw, one pool dedupe, and one ``rowwise`` table over the
    distinct subsets of every node's pool.  A batch holds the children of
    several parents, and of several restarts.  Each path starts with its
    restart index.  Potentials are rows, one per node or candidate, and a
    candidate's cost is the sum of its own row.  Leaves then reduce by
    segment min.  The stream layout is unchanged from a node-by-node search
    of each restart on its own, and so is every bit of the result: each
    node's numbers are its own rows, and leaves are scored in path order.
    Every node is expanded and counted by its restart, and every candidate of
    an interior node gets a child.  Only the winning restart's path is
    replayed, as batches of one, so no other restart builds a trace.
    """

    def __init__(self, points, ids, measure, k, sample_size, subset_size, streams):
        self.points = points
        self.ids = ids
        self.measure = measure
        self.k = k
        self.sample_size = sample_size
        self.subset_size = subset_size
        self.roots = np.array([stream.stream_id for stream in streams], dtype=np.uint64)
        self.keys = np.array([_counter_key(stream) for stream in streams], dtype=np.uint64)
        # per restart: the first cheapest leaf's cost and path, and the counters
        self.best_cost = np.full(len(streams), np.inf)
        self.best_path = [None] * len(streams)
        self.subsets_examined = np.zeros(len(streams), dtype=np.int64)
        self.nodes_expanded = np.zeros(len(streams), dtype=np.int64)
        (n, d), distinct = points.shape, int(ids.max()) + 1
        most = _menu_size(sample_size, subset_size, distinct)
        width = min(subset_size, sample_size, distinct)
        # what one node adds to a batch, in entries (see _BATCH_ENTRIES)
        self._node_entries = 2 * sample_size + most * (n * (d + 1) + width + 3)

    def _expand(self, potentials, node_ids, keys):
        """Draw, dedupe and score the nodes with stream ids ``node_ids`` and
        restart keys ``keys`` as one batch.

        ``potentials`` holds the nodes' potentials as rows, +inf at a root.
        Each node gets the bits a lone node would get: its
        :func:`~d2ptas.sampler.d2_law` row is a 1-D law, and its subset means
        sum their points in pool order.
        """
        n, d = self.points.shape
        samples = weighted_draw(d2_law(potentials), _counter_uniforms(
            _derived_ids(node_ids, [0])[:, 0], self.sample_size, keys))
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
        # nodes share most subsets; equal members in equal order give equal
        # bits, so each distinct one is averaged and scored once
        subsets, which = _distinct_rows(members, n + 1)
        means = np.empty((len(subsets), d))
        lengths = np.count_nonzero(subsets, axis=1)
        for s in np.unique(lengths):
            rows = np.flatnonzero(lengths == s)
            means[rows] = self.points[subsets[rows, :s] - 1].mean(axis=1)
        # closed form, not pairwise: a pairwise column's bits depend on its
        # product's width, so a node's costs would depend on its siblings
        table = self.measure.rowwise(self.points[None, :, :], means[:, None, :])
        return _Batch(samples, pools, starts, which, means, table, potentials)

    def run(self):
        """Search every restart, then replay only the first cheapest one.

        Returns what :func:`_run_restarts` does: the per-restart costs and
        counters, and the winner's index, centers and trace.
        """
        # the roots' potentials are +inf, the cost to no center; each path
        # holds just its restart index
        self._search(np.full((len(self.roots), self.points.shape[0]), np.inf), self.roots,
                     np.arange(len(self.roots))[:, None])
        win = int(np.argmin(self.best_cost))
        return (self.best_cost, self.subsets_examined, self.nodes_expanded, win,
                *self.replay(self.best_path[win]))

    def _search(self, potentials, node_ids, paths):
        """Visit a frontier of same-depth nodes in (restart, path) order, in
        chunks.

        ``paths`` holds the nodes' restart index and branch path as rows.
        Each chunk is expanded as one batch, and the children of all its
        nodes, in path order, are the next frontier, searched the same way
        before the next chunk.
        """
        step = max(1, _BATCH_ENTRIES // self._node_entries)
        for lo in range(0, len(node_ids), step):
            chunk = slice(lo, lo + step)
            restarts = paths[chunk, 0]
            node = self._expand(potentials[chunk], node_ids[chunk], self.keys[restarts])
            np.add.at(self.nodes_expanded, restarts, 1)
            np.add.at(self.subsets_examined, restarts, np.diff(node.starts))
            if paths.shape[1] == self.k:
                self._score_leaves(node, paths[chunk])
                continue
            # candidate c of the chunk's flat list is child index[c] of node owner[c]
            cands = np.arange(node.starts[-1])
            index = cands - node.starts[node.owner]
            ids = _derived_ids(node_ids[chunk], 1 + np.arange(index.max() + 1))
            self._search(node.potentials(cands), ids[node.owner, index],
                         np.column_stack((paths[chunk][node.owner], index)))

    def _score_leaves(self, node, paths):
        """Visit leaf nodes in order: each offers its first cheapest
        candidate, and each restart keeps its first strict improvement."""
        mins = np.minimum.reduceat(node.costs, node.starts[:-1])
        mins[np.isnan(mins)] = np.inf  # a leaf with a NaN cost offers NaN, which never wins
        for r in np.unique(paths[:, 0]).tolist():
            leaves = np.flatnonzero(paths[:, 0] == r)
            j = leaves[np.argmin(mins[leaves])]
            if mins[j] < self.best_cost[r]:
                a = node.starts[j]
                b = int(np.argmin(node.costs[a:node.starts[j + 1]]))
                self.best_cost[r] = node.costs[a + b]
                self.best_path[r] = tuple(paths[j].tolist()) + (b,)

    def replay(self, path):
        """Recompute a winning path, its restart index first, and emit its
        per-iteration trace."""
        trace, centers = [], []
        potentials = np.full((1, self.points.shape[0]), np.inf)
        node_id, key = self.roots[[path[0]]], self.keys[[path[0]]]
        for depth, b in enumerate(path[1:]):
            node = self._expand(potentials, node_id, key)
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
                "partial_cost": float(potentials[0].sum()),
            })
            centers.append(center)
            node_id = _derived_ids(node_id, [1 + b])[0]
        return centers, trace


def _smallest_positions(table, m):
    """Per row (last axis) of ``table``, exactly ``np.argsort(row, kind="stable")[:m]``,
    for 1 <= m <= the row length, without sorting the whole row.

    ``argpartition`` finds a set of m smallest entries.  Where an entry equal
    to the m-th value lies outside that set, the set may hold the wrong one of
    those ties, so such rows take every entry ordered before the m-th value
    and then its ties by lowest position.  Order is the sort's: NaN after
    every number and tied with NaN, ``-0.0`` tied with ``0.0``.
    """
    part = np.argpartition(table, m - 1, axis=-1)
    chosen = np.sort(part[..., :m], axis=-1)
    kth = np.take_along_axis(table, part[..., m - 1:m], axis=-1)
    # a NaN m-th value ties with every NaN entry: redo those rows too
    redo = ((table <= kth).sum(axis=-1) > m) | np.isnan(kth[..., 0])
    if redo.any():
        rows, cut = table[redo], kth[redo]
        nan_cut = np.isnan(cut)
        before = (rows < cut) | (nan_cut & ~np.isnan(rows))
        ties = (rows == cut) | (nan_cut & np.isnan(rows))
        take = before | (ties & (np.cumsum(ties, axis=-1)
                                 <= m - before.sum(axis=-1, keepdims=True)))
        chosen[redo] = np.nonzero(take)[1].reshape(-1, m)
    values = np.take_along_axis(table, chosen, axis=-1)
    return np.take_along_axis(chosen, np.argsort(values, axis=-1, kind="stable"), axis=-1)


# The steps with a row per point and restart run over groups of g restarts
# (:func:`_restart_groups`): the greedy's (g, n, R) scoring stack and its
# potentials update, the k-means++ potentials update, and Lloyd's (g, n, k)
# labelling stack.  A group holds at most about this many table entries (1 MiB
# of float64) or one restart's table.  Larger groups pay where a restart's
# table is small and numpy's per-call overhead dominates (desk_small_kl's 8
# restarts of 300 x 50 make one group); where one restart's table alone is
# larger (desk_large's 4000 x 50, 1.6 MB), groups of one restart keep the
# memory of one table.
_CHUNK_ENTRIES = 1 << 17


def _restart_groups(count, entries):
    """Slices that split ``count`` restarts, each with tables of ``entries``
    entries, into groups that fit ``_CHUNK_ENTRIES``, at least one restart each."""
    step = max(1, _CHUNK_ENTRIES // entries)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _greedy_restarts(points, measure, cfg, streams):
    """Greedy passes on ``streams``, run in lock step; returns what
    :func:`_run_restarts` does.

    Per iteration each restart draws a D² sample, scores R anchored subset
    trials and keeps the best.  Trial t picks a uniform anchor position in
    the sample and takes the M sample positions nearest the anchor (stable
    order, so ties resolve by position).  Anchored subsets are the
    load-bearing choice: a subset of M independent positions of a mixed
    sample almost never isolates one cluster, so its mean lands between
    clusters and the greedy score -- which is blind beyond the current
    iteration -- happily keeps it.  A nearest-neighbor patch around a sampled
    anchor is cluster-pure whenever clusters are separated, so the candidate
    menu consists of plausible cluster centers instead of mixture midpoints.

    Iteration i of the restart on ``stream`` draws its sample with the
    generator of ``stream.derive(i).derive(0)``.  Trial t's anchor is
    ``floor(u * N)``, with u the first counter uniform of the id of
    ``stream.derive(i).derive(1 + t)``: the top 53 bits of
    ``splitmix64(splitmix64(id) + 0)`` times 2^-53.  No generator is built for
    a trial.  The anchors depend on the stream id, not on the seed; they index
    a sample that the seeded generator drew, so menus at different seeds are
    still independent.  u lies on a grid of 2^53 values, so each position
    gets probability within 2^-53 of 1/N (a relative bias of at most N/2^53),
    and the largest u still gives N - 1
    (:func:`~d2ptas.sampler._uniform_indices`).

    Trial t scores sum_x min(potential(x), D(x, c_t)).  All A restarts share,
    per iteration, one :func:`~d2ptas.sampler.d2_law` table and one draw
    call, one (A, N, R) ``pairwise`` stack of each sample against its
    anchors, one top-M selection over it (:func:`_smallest_positions`,
    exactly the first M of a stable argsort) and one gather of the subset
    means.  The steps with a row per point run over groups of restarts that
    fit ``_CHUNK_ENTRIES`` (at least one restart), so no table grows with A:
    a (g, n, R) ``pairwise`` stack of the points against the group's
    candidates, scored in place and dropped before the next group's, and,
    once every restart has kept its trial, one broadcast closed-form
    ``rowwise`` that updates the group's rows of the (A, n) potentials.
    Every restart runs all k iterations.  Each restart keeps the bits of a
    lone pass: its draw, its law, its sample-to-anchor table, its scoring
    table and its potentials are its own row or block of these.  A center is
    a subset mean, which may lie a rounding step outside a closed-box domain,
    so no center is checked against the domain.  The points' side of every
    scoring table (their lifted copy and maxima, see
    :meth:`~d2ptas.divergences.DivergenceMeasure.pairwise`) is computed once
    per pass.  Each iteration keeps every restart's draw, kept trial, anchor,
    patch, center and score as (A, ...) arrays, and only the winner's trace
    is built from them, after the last iteration.
    """
    trials, sample_size, m_ = cfg.subset_strategy.trials, cfg.sample_size_N, cfg.subset_size_M
    (n, d), rows = points.shape, np.arange(len(streams))
    groups = _restart_groups(len(streams), n * trials)
    point_side = measure._point_side(points)
    potentials = np.full((len(streams), n), np.inf)                             # (A, n)
    # per iteration, every restart's draw, kept trial, anchor, patch, center and score
    history = []
    for i in range(cfg.k):
        it_streams = [stream.derive(i) for stream in streams]
        samples = weighted_draw(d2_law(potentials),
                                [s.derive(0).generator.random(sample_size)
                                 for s in it_streams])                            # (A, N)
        trial_ids = _derived_ids([s.stream_id for s in it_streams], 1 + np.arange(trials))
        anchors = _uniform_indices(_counter_uniforms(trial_ids.reshape(-1), 1)[:, 0],
                                   sample_size).reshape(trial_ids.shape)         # (A, R)
        # block a of the sample-to-anchor stack is restart a's sample against
        # its anchors; trial t of restart a is row a * R + t of the menus
        to_anchor = measure.pairwise(points[samples],
                                     points[np.take_along_axis(samples, anchors, axis=1)])
        positions = _smallest_positions(np.swapaxes(to_anchor, 1, 2), m_).reshape(-1, m_)
        del to_anchor                                                            # (A * R, M)
        # the patches' point indices are not kept: the kept trials' are
        # gathered again for the trace, so fewer temporaries live meanwhile
        cands = points[samples[np.repeat(rows, trials)[:, None], positions]].mean(axis=1)
        # Score in place and drop each table before the next one: with a
        # second live table the allocator releases and re-faults its pages on
        # every group.  The potentials stay the first operand, so the scores
        # keep the bits of np.minimum(potentials, table).
        scores = np.empty((len(streams), trials))                                # (A, R)
        for g in groups:
            table = measure.pairwise(points, cands.reshape(len(streams), trials, d)[g],
                                     point_side=point_side)                      # (g, n, R)
            np.minimum(potentials[g, :, None], table, out=table)
            scores[g] = table.sum(axis=1)
            del table
        # the kept trials' rows, copied out so that a trace does not hold a whole menu
        best = np.argmin(scores, axis=1)
        kept = rows * trials + best
        centers = cands[kept]                                                    # (A, d)
        history.append((samples, best, anchors[rows, best], positions[kept], centers,
                        scores[rows, best]))
        # each kept center in closed form, as the reported cost is evaluated
        for g in groups:
            np.minimum(potentials[g], measure.rowwise(points, centers[g, None, :]),
                       out=potentials[g])
    costs = potentials.sum(axis=1)
    win = int(np.argmin(costs))
    trace = [{
        "iteration": i,
        "sample": samples[win].copy(),
        "trial": int(best[win]),
        "anchor": int(anchor[win]),
        "subset_positions": patch[win],
        "subset_points": samples[win, patch[win]],
        "center": centers[win],
        "partial_cost": float(score[win]),
    } for i, (samples, best, anchor, patch, centers, score) in enumerate(history)]
    return (costs, np.full(len(streams), trials * cfg.k), np.full(len(streams), cfg.k), win,
            [entry["center"] for entry in trace], trace)


def _kmeanspp_picks(points, measure, k, streams):
    """The k-means++ seedings on ``streams``, run in lock step: a (len(streams),
    k) array whose row a holds the point indices picked on ``streams[a]``.

    Pick i of a restart is one draw from the :func:`~d2ptas.sampler.d2_law` of
    its potentials, at the first uniform of the PCG64 generator of
    ``stream.derive(i)``; the first pick, at potentials +inf, is uniform.  All
    restarts keep their potentials as rows of one (A, n) array at +inf, share
    one law table and one draw call per pick, and take their pick's
    divergences in one broadcast closed-form ``rowwise`` per group of
    restarts (:func:`_restart_groups`).  Each row keeps the bits of a lone
    seeding through :class:`~d2ptas.sampler.CenterSet` and
    :func:`~d2ptas.sampler.d2_sample`: ``CenterSet.add`` then ``d2_sample(...,
    1)``.  ``points`` are already validated.
    """
    (n, d), count = points.shape, len(streams)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if n < k:
        raise InsufficientPoints(f"need at least k={k} points, got {n}")
    potentials = np.full((count, n), np.inf)
    picks = np.empty((count, k), dtype=np.intp)
    for i in range(k):
        picks[:, i] = weighted_draw(d2_law(potentials),
                                    [s.derive(i).generator.random(1) for s in streams])[:, 0]
        if i + 1 < k:  # the last pick's potentials are never drawn from
            for g in _restart_groups(count, n * d):
                np.minimum(potentials[g], measure.rowwise(points, points[picks[g, i], None, :]),
                           out=potentials[g])
    return picks


def _run_restarts(points, ids, measure, cfg, streams):
    """Run the restarts on ``streams`` in one pass.

    Returns, for either strategy, three arrays with one entry per restart
    (cost, subsets examined, nodes expanded), then the index of the first
    cheapest restart, its centers and its per-iteration trace.
    """
    if isinstance(cfg.subset_strategy, Exhaustive):
        return _TreeSearch(points, ids, measure, cfg.k, cfg.sample_size_N, cfg.subset_size_M,
                           streams).run()
    return _greedy_restarts(points, measure, cfg, streams)


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


def _solve(data, measure, config, rng, lone=False):
    """The body of both search entry points: restart r runs on ``rng.derive(r)``,
    or a ``lone`` restart on ``rng`` itself, and the first cheapest one wins.

    An exhaustive search that could score too many subsets is refused before
    any draw (:func:`_check_tree_size`).  At most k distinct values need no
    search: a center goes on each value's first point in data order, then on
    the leading points again until there are k, with an empty trace, no
    restarts and zero counters.
    """
    points, cfg, ids = _prepare(data, measure, config)
    streams = [rng] if lone else [rng.derive(r) for r in range(cfg.restarts)]
    distinct = int(ids.max()) + 1
    if distinct > cfg.k and isinstance(cfg.subset_strategy, Exhaustive):
        _check_tree_size(cfg, distinct, len(streams))
    t0 = time.perf_counter()
    if distinct <= cfg.k:
        first = np.sort(np.unique(ids, return_index=True)[1])
        centers = points[np.concatenate((first, np.arange(cfg.k - len(first))))]
        costs = subsets = nodes = np.zeros(0, dtype=np.int64)
        win, trace = 0, []
    else:
        costs, subsets, nodes, win, centers, trace = _run_restarts(points, ids, measure, cfg,
                                                                   streams)
    for r, (cost, examined, expanded) in enumerate(zip(costs, subsets, nodes)):
        log.info("restart %d: strategy %s, cost %.10g, subsets %d, nodes %d", r,
                 cfg.subset_strategy.describe(), cost, examined, expanded)
    meta = {
        "seed": [rng.seed, rng.stream_id],
        "strategy": cfg.subset_strategy.describe(),
        "restarts": len(costs),
        "winning_restart": win,
        "subsets_examined": int(subsets.sum()),
        "nodes_expanded": int(nodes.sum()),
        "iterations": len(trace),
        "trace": trace,
        "seconds": time.perf_counter() - t0,
        "config": cfg.summary(),
    }
    return _result(points, measure, centers, meta)


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------

def find_k_median(data, measure, config, rng, threads=None):
    """Best clustering over all restarts and subset choices explored.

    Restart r runs on ``rng.derive(r)``; the winner is the (cost, restart)
    lexicographic minimum, so results are reproducible and adding restarts
    can only improve the returned cost.  All restarts run as one pass (see
    the module docstring).  ``threads`` is accepted and has no effect.
    """
    return _solve(data, measure, config, rng)


def find_k_means(data, config, rng, threads=None):
    """k-means entry point: squared-Euclidean objective, same engine underneath.
    ``threads`` is accepted and has no effect."""
    return find_k_median(data, SquaredEuclidean(), config, rng)


def run_one_restart(data, measure, config, rng):
    """Execute the k-iteration inner loop once, with a full per-iteration trace.

    This is a pass of one restart, on ``rng`` itself; restart r of
    :func:`find_k_median` equals it on ``rng.derive(r)`` bit for bit.  Its
    ``meta`` has :func:`find_k_median`'s fields, with one restart, the
    winner 0.  On at most k distinct values it runs no search and returns
    what :func:`find_k_median` does: a center on each value, an empty trace
    and zero counters.
    """
    return _solve(data, measure, config, rng, lone=True)


def kmeanspp_seed(data, measure, k, rng):
    """k centers by iterated single-point cost-weighted sampling (the classic seeding).

    This is one row of :func:`_kmeanspp_picks`, on ``rng``.
    """
    points = as_points(data)
    measure.validate_points(points)
    picked = _kmeanspp_picks(points, measure, k, [rng])[0].tolist()
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
    is.  Each sub-run runs its restarts as one pass; ``threads`` is accepted
    and has no effect.
    """
    points = as_points(data)
    base = config.resolved(measure)
    scaled_eps = base.epsilon / ((1.0 + base.epsilon / 2.0) * base.k)
    best, runs = None, []
    for i in range(1, base.k + 1):
        sub = replace(config, k=i, epsilon=scaled_eps)
        result = find_k_median(points, measure, sub, rng.derive(i))
        runs.append({"k": i, "cost": result.cost})
        if best is None or result.cost < best.cost:
            best = result
    best.meta["k_requested"] = base.k
    best.meta["epsilon_scaled"] = scaled_eps
    best.meta["runs"] = runs
    return best
