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
that, so extending restarts or trials never reshuffles earlier draws.  Every
draw follows one rule: it takes the counter uniforms
(:func:`~d2ptas.sampler._counter_uniforms`) of its stream's id under its
restart's key, which brings in the seed; a D² draw inverts its law at them.  :func:`_solve` builds each
restart's id and key once (:func:`~d2ptas.sampler._stream_keys`); the keys
are the only generators a solve builds.  The ids below them come as uint64
tables (:func:`~d2ptas.sampler._derived_ids`), so no ``RngStream`` is built
for an iteration, a trial, a pick or a tree node (see
:func:`_greedy_restarts`, :func:`_kmeanspp_picks` and :class:`_TreeSearch`).

Restarts share no state, so each restart is a row of a batch, and every
restart keeps the bits it would get on its own.  All restarts of a solve run
as one pass.  ``RandomTrials`` restarts run in lock step: each iteration
draws, builds its anchored patches and picks its kept trials for all of them
at once, and only the steps with a row per point and restart (scoring and
the potentials update) run over groups of restarts that fit
``_CHUNK_ENTRIES`` table entries, at least one.  A restart whose table fills
a group by itself scores each of its distinct patches once (see
:func:`_greedy_restarts`).  ``Exhaustive`` restarts are
one tree whose roots are the restarts, searched a frontier of same-depth
nodes at a time.  A batch holds the children of several parents and
restarts, and every node still gets the bits of a lone node, in the order of
a depth-first search of its restart.

The k-means++/Lloyd baseline (Arthur and Vassilvitskii, SODA 2007) runs
its restarts the same way: the seeding (:func:`_kmeanspp_picks`) with one D²
draw call per pick and the greedy's potentials update
(:func:`_lower_potentials`), Lloyd (:func:`_lloyd_restarts`) with one stacked
``pairwise`` table per step.  :func:`kmeanspp_seed` and :func:`lloyd` are one
row of these, and :func:`_kmeanspp_lloyd` runs both for the CLI.

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

from .divergences import SquaredEuclidean, _checked_count, as_points, assign, centroid
from .errors import ConfigError, DimensionMismatch, DomainError, InsufficientPoints
# bench/tracing.py wraps ``ptas.d2_sample`` and ``ptas.CenterSet.add`` by
# name, so both stay importable from here
from .sampler import (CenterSet, _counter_uniforms, _derived_ids, _stream_keys,  # noqa: F401
                      _uniform_indices, d2_law, d2_sample, weighted_draw)

__all__ = [
    "Exhaustive",
    "RandomTrials",
    "parse_strategy",
    "PtasConfig",
    "ClusteringResult",
    "paper_scale_constants",
    "find_k_median",
    "find_k_means",
    "run_one_restart",
    "kmeanspp_seed",
    "lloyd",
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
        _checked_count(self.trials, "RandomTrials trials")

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

def paper_scale_constants(measure, k, epsilon):
    """(N, M) at full analysis scale -- far beyond what enumeration can run.

    Beyond squared Euclidean, the sample-size formula reads the measure's
    declared constants through eta = 2 * alpha^2 / beta^2 * (1 + 1/beta).
    """
    if isinstance(measure, SquaredEuclidean):
        return math.ceil(51200.0 * k / epsilon ** 3), math.ceil(100.0 / epsilon)
    a, b = measure.alpha, measure.beta
    eta = 2.0 * a * a / (b * b) * (1.0 + 1.0 / b)
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
        k = _checked_count(self.k, "k")
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
            pn, pm = paper_scale_constants(measure, k, eps)
            n_ = pn if n_ is None else n_
            m_ = pm if m_ is None else m_
            restarts = 2 ** k if restarts is None else restarts
            strategy = Exhaustive() if strategy is None else strategy

        n_ = _checked_count(n_, "sample_size_N")
        m_ = _checked_count(m_, "subset_size_M")
        restarts = _checked_count(restarts, "restarts")
        if m_ > n_:
            raise ConfigError(f"subset size M={m_} exceeds sample size N={n_}")
        return replace(
            self,
            k=k,
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
    values, first occurrence first: a (B, max(counts)) table whose row b holds
    them in its first ``counts[b]`` entries, and the (B,) ``counts``.  Padding
    entries are unspecified.

    ``ids`` maps each point to its distinct-value id (see :func:`_value_ids`).
    The key and position temporaries take B * N entries and the
    first-occurrence table B * (distinct values), which ``_BATCH_ENTRIES``
    bounds.
    """
    width, count = int(ids.max()) + 1, len(rows)
    # flat position of the first occurrence of each (row, value), rows.size if none
    first = np.full((count, width), rows.size)
    keys = ids[rows]
    keys += width * np.arange(count)[:, None]
    np.minimum.at(first.reshape(-1), keys.reshape(-1), np.arange(rows.size))
    # a row's positions in ascending order are its draw order, and absent values go last
    first.sort(axis=1)
    counts = np.count_nonzero(first < rows.size, axis=1)
    # mode="clip" reads a padding slot's rows.size as the last draw
    return np.take(rows, first[:, :counts.max()], mode="clip"), counts


# _distinct_rows ranks a column by presence flags while their table, one
# flag per key, has at most this many entries per row, so that it costs no
# more than a few passes over the keys; a larger key range takes np.unique's
# sort instead.  At exact_small's batches (15k-23k candidates of 2 members
# in [0, 13)) every column takes the flags.
_FLAGS_PER_ROW = 4


def _distinct_rows(columns, base):
    """The distinct rows of a matrix of ints in [0, base), given as its
    columns, and each row's index among them, which is its rank in
    lexicographic order.

    Rows are ranked one column at a time, so no key outgrows the row count
    times ``base``: each row's key is its rank so far times ``base`` plus its
    entry in the column.  Where the keys span at most ``_FLAGS_PER_ROW``
    values per row they are ranked in linear time, by flagging the keys
    present and taking the running count of the flags; otherwise ``np.unique``
    sorts them.  Both give the same ranks.  Only the distinct rows are
    gathered into a matrix.
    """
    count = len(columns[0])
    which, distinct = np.zeros(count, dtype=np.intp), 1
    for col in columns:
        keys = which * base + col
        if distinct * base <= _FLAGS_PER_ROW * count:
            present = np.zeros(distinct * base, dtype=bool)
            present[keys] = True
            ranks = np.cumsum(present)
            which, distinct = ranks[keys] - 1, int(ranks[-1])
        else:
            values, which = np.unique(keys, return_inverse=True)
            distinct = len(values)
    first = np.empty(distinct, dtype=np.intp)
    first[which] = np.arange(count)  # any row of a rank will do: they are equal
    return np.column_stack([col[first] for col in columns]), which


def _read_only(array):
    array.flags.writeable = False
    return array


@lru_cache(maxsize=256)
def _combo_groups(pool_size, max_size):
    """Index combinations of sizes 1..max_size, lexicographic within each
    size, as read-only arrays: the cache hands the same ones to every caller."""
    return tuple(
        _read_only(np.array(list(itertools.combinations(range(pool_size), size)), dtype=np.intp))
        for size in range(1, min(pool_size, max_size) + 1))


@lru_cache(maxsize=256)
def _combo_table(width, max_size):
    """Every combination of :func:`_combo_groups` of ``range(width)``, in its
    order, as a (min(width, max_size), C) table of positions plus one, one row
    per member and zero past a combination's size, and the (C,) largest
    position of each combination.  Both are read-only.

    The combinations of ``range(p)`` for p <= width are exactly the columns
    whose largest position is below p, in the same order, so one table serves
    every pool of at most ``width`` points.
    """
    groups = _combo_groups(width, max_size)
    table = np.zeros((len(groups), sum(map(len, groups))), dtype=np.intp)
    lo = 0
    for combos in groups:
        table[:combos.shape[1], lo:lo + len(combos)] = combos.T + 1
        lo += len(combos)
    return _read_only(table), _read_only(table.max(axis=0) - 1)


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


# A frontier of tree nodes is expanded in chunks of at most this many entries,
# or one node.  A node counts its N uniforms and N draws, the three N-entry
# temporaries of the draw's binary search and its law row padded for it (below
# 2n), the pool dedupe's first-occurrence row (one slot per distinct value),
# its pool table row and that row padded by one, and per candidate its M
# member columns, its mask and owner entries, the column index that
# np.nonzero returns with its owner, its which entry, the dedupe's key and
# rank temporaries (more than a masked gather's), its cost, its divergences
# to the n points with their coordinates and its child's n potentials; so the
# budget bounds every temporary of a batch, the pool dedupe's N-entry keys and
# positions included, which outlive none of the draw's.  A paper-preset node
# (N = 819 200) is a batch of its own.  At exact_small's shape (n = 12,
# N = 239, M = 2, 78 candidates) 2^20 entries make chunks of 183-273 nodes;
# 2^19 was slower and 2^21 no faster.  Each node's numbers are computed on
# their own, so results do not depend on it.
_BATCH_ENTRIES = 1 << 20
# Candidate costs are summed over blocks of whole rows, at most about this
# many entries of candidates by points or one row.  Blocks of 64 KiB reuse
# freed memory (256 KiB blocks faulted in fresh pages on every batch at
# n = 12); with the block's potentials in one reused buffer, 2^13, 2^14 and
# 2^15 entries took the same time at exact_small's batches.
_SUM_ENTRIES = 1 << 13


class _Batch:
    """Tree nodes of one depth expanded together by :meth:`_TreeSearch._expand`.

    Row j of ``samples`` is node j's draw, and its distinct sample points are
    the first ``pool_sizes[j]`` entries of row j of the ``pools`` table (see
    :func:`_distinct_sample_points`).  Node j's candidates are entries
    ``starts[j]:starts[j + 1]``.
    Candidate c belongs to node ``owner[c]`` and is the mean ``means[which[c]]``
    of ``subsets[which[c]]`` (point indices plus one, zero-padded), whose
    divergences are row ``which[c]`` of ``table``; ``parents`` holds the nodes'
    own potentials as rows.
    """

    __slots__ = ("samples", "pools", "pool_sizes", "starts", "owner", "subsets", "which",
                 "means", "table", "parents")

    def __init__(self, samples, pools, pool_sizes, starts, owner, subsets, which, means, table,
                 parents):
        self.samples = samples
        self.pools = pools
        self.pool_sizes = pool_sizes
        self.starts = starts
        self.owner = owner
        self.subsets = subsets
        self.which = which
        self.means = means
        self.table = table
        self.parents = parents

    def costs(self):
        """Each candidate's cost, the 1-D sum of its own potentials row, a block
        of rows at a time in one reused buffer (read at leaves only)."""
        count, n = self.starts[-1], self.table.shape[1]
        step = max(1, _SUM_ENTRIES // n)
        block, costs = np.empty((min(step, count), n)), np.empty(count)
        for lo in range(0, count, step):
            rows = slice(lo, min(lo + step, count))
            self.potentials(rows, block[:rows.stop - lo]).sum(axis=1, out=costs[rows])
        return costs

    def potentials(self, cands, out=None):
        """Potentials after adding candidates ``cands``, one row each, into
        ``out`` if it is given."""
        # owner and which index parents and table by construction, so
        # mode="clip" changes no index: it only spares take the buffered
        # copy of ``out`` that its default bounds check makes
        out = np.take(self.parents, self.owner[cands], axis=0, out=out, mode="clip")
        return np.minimum(out, np.take(self.table, self.which[cands], axis=0, mode="clip"),
                          out=out)


class _TreeSearch:
    """Depth-first enumeration over per-iteration candidate subsets, for the
    restarts with stream ids ``roots`` and keys ``keys``
    (:func:`~d2ptas.sampler._stream_keys`), all in one tree whose roots are
    the restarts.

    Node streams follow the branch path: root r is the stream ``roots[r]``,
    child s of a node gets ``derive(1 + s)`` of it and the node's own draw
    uses ``derive(0)``.  Nodes carry only their stream ids, as uint64 arrays
    from :func:`~d2ptas.sampler._derived_ids`; no ``RngStream`` is built for a
    node.  A node's N draws invert its D² law at the counter uniforms of its
    draw id s under its restart's key K, one key per row: the j-th is the top
    53 bits of
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

    def __init__(self, points, ids, measure, k, sample_size, subset_size, roots, keys):
        self.points = points
        self.ids = ids
        self.measure = measure
        self.k = k
        self.sample_size = sample_size
        self.subset_size = subset_size
        self.roots = roots
        self.keys = keys
        # per restart: the first cheapest leaf's cost and path, and the counters
        self.best_cost = np.full(len(roots), np.inf)
        self.best_path = [None] * len(roots)
        self.subsets_examined = np.zeros(len(roots), dtype=np.int64)
        self.nodes_expanded = np.zeros(len(roots), dtype=np.int64)
        (n, d), distinct = points.shape, int(ids.max()) + 1
        most = _menu_size(sample_size, subset_size, distinct)
        pool = min(sample_size, distinct)
        width = min(subset_size, pool)
        # what one node adds to a batch, in entries (see _BATCH_ENTRIES)
        self._node_entries = (5 * sample_size + 2 * n + distinct + 2 * pool + 1
                              + most * (n * (d + 1) + width + 7))

    def _expand(self, potentials, node_ids, keys):
        """Draw, dedupe and score the nodes with stream ids ``node_ids`` and
        restart keys ``keys`` as one batch.

        ``potentials`` holds the nodes' potentials as rows, +inf at a root.
        The nodes' draws are one stack and their pools one table
        (:func:`_distinct_sample_points`).  Their candidates come from one
        cached table of the combinations of the batch's widest pool
        (:func:`_combo_table`): one mask of the combinations that fit each
        node's pool gives every candidate's owner and each node's ``starts``,
        and one masked gather per member position gives the candidates' point
        indices as columns, which :func:`_distinct_rows` ranks without a
        (candidates x M) table.  Each node gets the bits a
        lone node would get: its :func:`~d2ptas.sampler.d2_law` row is a 1-D
        law, and its subset means sum their points in pool order.
        """
        n, d = self.points.shape
        samples = weighted_draw(d2_law(potentials), _counter_uniforms(
            _derived_ids(node_ids, [0])[:, 0], self.sample_size, keys))
        pools, sizes = _distinct_sample_points(self.ids, samples)
        # node j's candidates are the table's combinations of range(sizes[j])
        positions, largest = _combo_table(pools.shape[1], self.subset_size)
        mask = largest < sizes[:, None]
        owner = np.nonzero(mask)[0]
        starts = np.concatenate(([0], np.cumsum(np.count_nonzero(mask, axis=1))))
        # each candidate as its subset's point indices plus one, in pool order,
        # one column per member: position 0 of a padded row reads 0
        padded = np.zeros((len(pools), pools.shape[1] + 1), dtype=np.intp)
        np.add(pools, 1, out=padded[:, 1:])
        members = [np.take(padded, column, axis=1)[mask] for column in positions]
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
        return _Batch(samples, pools, sizes, starts, owner, subsets, which, means, table,
                      potentials)

    def run(self):
        """Search every restart, then replay only the first cheapest one.

        Returns what :func:`_run_restarts` does: the per-restart costs and
        counters, and the winner's index, centers and trace.  A restart keeps
        a path only for a leaf of finite cost; when none has one, the winner's
        cost is +inf, there is nothing to replay, and its centers are None.
        """
        # the roots' potentials are +inf, the cost to no center; each path
        # holds just its restart index
        self._search(np.full((len(self.roots), self.points.shape[0]), np.inf), self.roots,
                     np.arange(len(self.roots))[:, None])
        win = int(np.argmin(self.best_cost))
        path = self.best_path[win]
        centers, trace = (None, []) if path is None else self.replay(path)
        return self.best_cost, self.subsets_examined, self.nodes_expanded, win, centers, trace

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
        costs = node.costs()
        mins = np.minimum.reduceat(costs, node.starts[:-1])
        mins[np.isnan(mins)] = np.inf  # a leaf with a NaN cost offers NaN, which never wins
        for r in np.unique(paths[:, 0]).tolist():
            leaves = np.flatnonzero(paths[:, 0] == r)
            j = leaves[np.argmin(mins[leaves])]
            if mins[j] < self.best_cost[r]:
                a = node.starts[j]
                b = int(np.argmin(costs[a:node.starts[j + 1]]))
                self.best_cost[r] = costs[a + b]
                self.best_path[r] = tuple(paths[j].tolist()) + (b,)

    def replay(self, path):
        """Recompute a winning path, its restart index first, and emit its
        per-iteration trace."""
        trace, centers = [], []
        potentials = np.full((1, self.points.shape[0]), np.inf)
        node_id, key = self.roots[[path[0]]], self.keys[[path[0]]]
        for depth, b in enumerate(path[1:]):
            node = self._expand(potentials, node_id, key)
            potentials = node.potentials(np.array([b]))
            center = node.means[node.which[b]]
            members = node.subsets[node.which[b]]
            trace.append({
                "iteration": depth,
                "sample": node.samples[0],
                "pool": node.pools[0, :node.pool_sizes[0]],
                "subset_rank": b,
                "subset_points": members[:np.count_nonzero(members)] - 1,
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
# (:func:`_restart_groups`): the greedy's (g, n, R) scoring stack, the
# potentials update of the greedy and the seeding (:func:`_lower_potentials`),
# and Lloyd's (g, n, k) labelling stack.  A group holds at most about this many table entries (1 MiB
# of float64) or one restart's table.  Larger groups pay where a restart's
# table is small and numpy's per-call overhead dominates (desk_small_kl's 8
# restarts of 300 x 50 make one group); where one restart's table alone is
# larger (desk_large's 4000 x 50, 1.6 MB), groups of one restart keep the
# memory of one table, and such a restart scores only its distinct patches.
_CHUNK_ENTRIES = 1 << 17


def _restart_groups(count, entries):
    """Slices that split ``count`` restarts, each with tables of ``entries``
    entries, into groups that fit ``_CHUNK_ENTRIES``, at least one restart each."""
    step = max(1, _CHUNK_ENTRIES // entries)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _first_patches(positions, trials):
    """The first trial of each distinct patch, ascending, and each trial's
    index among them.

    ``positions`` holds the (A * R, M) patches of A restarts of ``trials``
    trials each, restart by restart.  Two trials share a patch when they are
    of the same restart and their rows are equal, so their means are equal
    bit for bit.  One sort of the rows, each keyed by its restart, finds
    every restart's patches.
    """
    keyed = np.column_stack((np.arange(len(positions)) // trials, positions))
    rows = keyed.view(np.dtype((np.void, keyed.itemsize * keyed.shape[1]))).reshape(-1)
    _, first, which = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    return first[order], slot[which]


def _lower_potentials(potentials, points, measure, centers):
    """Lower row a of the (A, n) ``potentials`` in place to the closed-form
    divergences to row a of the (A, d) ``centers``, one broadcast ``rowwise``
    per group; each row keeps the bits of ``CenterSet.add``, whatever the group."""
    for g in _restart_groups(len(centers), points.size):
        np.minimum(potentials[g], measure.rowwise(points, centers[g, None, :]),
                   out=potentials[g])


def _greedy_restarts(points, measure, cfg, roots, keys):
    """Greedy passes of the restarts with stream ids ``roots`` and keys ``keys``
    (:func:`~d2ptas.sampler._stream_keys`), run in lock step; returns what
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

    Every draw of the restart on ``stream``, with key K, is a counter uniform
    (:func:`~d2ptas.sampler._counter_uniforms`) under K: the j-th uniform of
    the id s is the top 53 bits of ``splitmix64(splitmix64(s ^ K) + j)``
    times 2^-53.  Iteration i inverts its D² law at the N uniforms of the id
    of ``stream.derive(i).derive(0)``, and trial t's anchor is
    ``floor(u * N)``, with u the first uniform of the id of
    ``stream.derive(i).derive(1 + t)``.  The ids of an iteration come as one
    uint64 table (:func:`~d2ptas.sampler._derived_ids`), so no ``RngStream``
    or generator is built for an iteration or a trial.  u lies on a grid of
    2^53 values, so each position gets probability within 2^-53 of 1/N (a
    relative bias of at most N/2^53), and the largest u still gives N - 1
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
    once every restart has kept its trial, the update of the (A, n)
    potentials by one broadcast closed-form ``rowwise`` per group
    (:func:`_lower_potentials`).  Iteration 0's potentials are +inf, so its
    scores are the tables' sums.

    Where one restart's table fills a group by itself (n R > 2^16, half of
    ``_CHUNK_ENTRIES``, as at desk_large's 4000 x 50), each restart is scored
    alone on its distinct patches.  Anchors are drawn with replacement, so
    trials repeat patches (22% of desk_large's trials), and equal rows of
    positions in one restart have bitwise-equal means.  One sort of every
    restart's rows, each keyed by its restart (:func:`_first_patches`), gives
    each distinct patch's first trial; those means are the columns, in trial
    order, of a (1, n, U) table, U <= R, and every trial reads its patch's
    score.  A patch alone is scored twice, so that its sum runs row by row as
    a wider table's does.  At n >= 1000 no column's bits changed with the
    table's width (0 of 1512 checks of column subsets, d <= 64, three
    measures), so the winner, ties and trace are those of scoring every trial.
    Restarts that share a group keep their R-wide blocks: padding ragged
    widths would tie a restart's width to its group, and at n <= 300 and d >=
    33 a column's bits can change with the width.

    Every restart runs all k iterations.  Each restart keeps the bits of a
    lone pass: its draw, its law, its sample-to-anchor table, its scoring
    table and its potentials are its own row or block of these, and the
    scoring path depends on n and R alone.  A center is a subset mean, which
    may lie a rounding step outside a closed-box domain, so no center is
    checked against the domain.  The points' side of every
    scoring table (their lifted copy and maxima, see
    :meth:`~d2ptas.divergences.DivergenceMeasure.pairwise`) is computed once
    per pass.  Each iteration keeps every restart's draw, kept trial, anchor,
    patch, center and score as (A, ...) arrays, and only the winner's trace
    is built from them, after the last iteration.
    """
    trials, sample_size, m_ = cfg.subset_strategy.trials, cfg.sample_size_N, cfg.subset_size_M
    (n, d), count = points.shape, len(roots)
    rows = np.arange(count)
    point_side = measure._point_side(points)
    potentials = np.full((count, n), np.inf)                                     # (A, n)
    iteration_ids = _derived_ids(roots, np.arange(cfg.k))                        # (A, k)
    trial_keys = np.repeat(keys, trials)
    # one restart's scoring table fills a group by itself: it scores alone
    alone = _CHUNK_ENTRIES // (n * trials) <= 1
    # per iteration, every restart's draw, kept trial, anchor, patch, center and score
    history = []
    for i in range(cfg.k):
        # column 0 is the sample's id, column 1 + t trial t's
        draw_ids = _derived_ids(iteration_ids[:, i], np.arange(1 + trials))     # (A, 1 + R)
        samples = weighted_draw(d2_law(potentials),
                                _counter_uniforms(draw_ids[:, 0], sample_size, keys))  # (A, N)
        anchors = _uniform_indices(
            _counter_uniforms(draw_ids[:, 1:].reshape(-1), 1, trial_keys)[:, 0],
            sample_size).reshape(count, trials)                                  # (A, R)
        # block a of the sample-to-anchor stack is restart a's sample against
        # its anchors; trial t of restart a is row a * R + t of the menus
        to_anchor = measure.pairwise(points[samples],
                                     points[np.take_along_axis(samples, anchors, axis=1)])
        positions = _smallest_positions(np.swapaxes(to_anchor, 1, 2), m_).reshape(-1, m_)
        del to_anchor                                                            # (A * R, M)
        # restart a's patches are first[bounds[a]:bounds[a + 1]]: its distinct
        # ones where it scores alone, else every trial, as one block of a stack
        if alone:
            first, slot = _first_patches(positions, trials)
        else:
            first = slot = np.arange(count * trials)
        bounds = np.searchsorted(first, trials * np.arange(count + 1))
        # the patches' point indices are not kept: the kept trials' are
        # gathered again for the trace, so fewer temporaries live meanwhile
        means = points[samples[(first // trials)[:, None], positions[first]]].mean(axis=1)
        # Score in place and drop each table before the next one: with a
        # second live table the allocator releases and re-faults its pages on
        # every group.  The potentials stay the first operand, so the scores
        # keep the bits of np.minimum(potentials, table); at iteration 0 they
        # are +inf, which changes no entry.
        patch_scores = np.empty(len(first))
        for g in _restart_groups(count, n * trials):
            lo, hi = bounds[g.start], bounds[g.stop]
            menu = means[lo:hi]
            if hi - lo == 1 < trials:
                # a one-column table sums down its column, which rounds unlike
                # the row-by-row sum of a wider one: score the lone patch twice
                menu = np.repeat(menu, 2, axis=0)
            table = measure.pairwise(points, menu.reshape(g.stop - g.start, -1, d),
                                     point_side=point_side)             # (g, n, R) or (1, n, U)
            if i:
                np.minimum(potentials[g, :, None], table, out=table)
            patch_scores[lo:hi] = table.sum(axis=1).reshape(-1)[:hi - lo]
            del table
        scores = patch_scores[slot].reshape(count, trials)                      # (A, R)
        # the kept trials' rows, copied out so that a trace does not hold a whole menu
        best = np.argmin(scores, axis=1)
        kept = rows * trials + best
        centers = means[slot[kept]]                                              # (A, d)
        history.append((samples, best, anchors[rows, best], positions[kept], centers,
                        scores[rows, best]))
        # each kept center in closed form, as the reported cost is evaluated
        _lower_potentials(potentials, points, measure, centers)
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
    return (costs, np.full(count, trials * cfg.k), np.full(count, cfg.k), win,
            [entry["center"] for entry in trace], trace)


def _kmeanspp_picks(points, measure, k, streams):
    """The k-means++ seedings on ``streams``, run in lock step: a (len(streams),
    k) array whose row a holds the point indices picked on ``streams[a]``.

    Pick i of a restart is one draw from the :func:`~d2ptas.sampler.d2_law` of
    its potentials, at the first counter uniform of the id of
    ``stream.derive(i)`` under the stream's key
    (:func:`~d2ptas.sampler._stream_keys`), the draw rule of the greedy and
    the tree; the first pick, at potentials +inf, is uniform.  The ids come as
    one uint64 table, so no ``RngStream`` or generator is built for a pick.
    All restarts keep their potentials as rows of one (A, n) array at +inf,
    share one law table and one draw call per pick, and lower their
    potentials to their pick's closed-form divergences as the greedy does
    (:func:`_lower_potentials`).  Each row keeps the bits of a lone
    seeding: the potentials of :class:`~d2ptas.sampler.CenterSet` after
    ``CenterSet.add`` of every earlier pick.  ``points`` are already
    validated.
    """
    n, count = points.shape[0], len(streams)
    k = _checked_count(k, "k")
    if n < k:
        raise InsufficientPoints(f"need at least k={k} points, got {n}")
    roots, keys = _stream_keys(streams)
    uniforms = _counter_uniforms(_derived_ids(roots, np.arange(k)).reshape(-1), 1,
                                 np.repeat(keys, k)).reshape(count, k)
    potentials = np.full((count, n), np.inf)
    picks = np.empty((count, k), dtype=np.intp)
    for i in range(k):
        picks[:, i] = weighted_draw(d2_law(potentials), uniforms[:, i:i + 1])[:, 0]
        if i + 1 < k:  # the last pick's potentials are never drawn from
            _lower_potentials(potentials, points, measure, points[picks[:, i]])
    return picks


def _lloyd_restarts(points, measure, centers, max_iters):
    """Lloyd's local search from each (k, d) block of the (A, k, d) ``centers``,
    all restarts in lock step.  ``centers`` is updated in place.

    Returns each restart's cost trace: the cost of its first labelling, then
    of each labelling after a re-mean.  Restart a's labels are the argmin of
    block a of one stacked ``pairwise`` table of the points (whose side is
    built once) against the still-active restarts' centers, and its costs one
    closed-form ``rowwise`` of the points against their labelled centers;
    both run over groups of restarts that fit ``_CHUNK_ENTRIES``
    (:func:`_restart_groups`), so no table grows with A.  Each block is the
    table of that restart alone, so every restart keeps the bits of a lone
    run.  A restart leaves the batch at its own assignment fixpoint, or after
    ``max_iters`` re-means with one last cost, and its trace ends there.
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
    return traces


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
    return [trace[-1] for trace in _lloyd_restarts(points, measure, centers, 100)]


def _run_restarts(points, ids, measure, cfg, roots, keys):
    """Run the restarts with stream ids ``roots`` and keys ``keys``
    (:func:`~d2ptas.sampler._stream_keys`) in one pass.

    Returns, for either strategy, three arrays with one entry per restart
    (cost, subsets examined, nodes expanded), then the index of the first
    cheapest restart, its centers and its per-iteration trace.
    """
    if isinstance(cfg.subset_strategy, Exhaustive):
        return _TreeSearch(points, ids, measure, cfg.k, cfg.sample_size_N, cfg.subset_size_M,
                           roots, keys).run()
    return _greedy_restarts(points, measure, cfg, roots, keys)


def _prepare(data, measure, config):
    """Validated points and the resolved config."""
    points = as_points(data)
    measure.validate_points(points)
    cfg = config.resolved(measure)
    if points.shape[0] < cfg.k:
        raise InsufficientPoints(f"need at least k={cfg.k} points, got {points.shape[0]}")
    return points, cfg


def _value_ids(points):
    """Each point's distinct-value id, from one sort of the rows.

    Two points share an id exactly when their coordinates compare equal, so
    ``0.0`` and ``-0.0`` count as one value.
    """
    _, ids = np.unique(points, axis=0, return_inverse=True)
    return ids.reshape(-1)


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
    restarts and zero counters.  A search first turns the restart streams
    into their ids and keys (:func:`~d2ptas.sampler._stream_keys`), which
    both strategies draw under.  A search whose winning cost is not finite,
    as where the measure's generator overflows on the points, raises
    ``DomainError``.
    """
    points, cfg = _prepare(data, measure, config)
    streams = [rng] if lone else [rng.derive(r) for r in range(cfg.restarts)]
    exhaustive = isinstance(cfg.subset_strategy, Exhaustive)
    # Only the tree and the exit below read value ids.  Points with more than
    # k distinct first coordinates (compared as floats, as the rows are) have
    # more than k distinct values, so the greedy needs no row sort for them.
    ids = None
    if exhaustive or np.unique(points[:, 0]).size <= cfg.k:
        ids = _value_ids(points)
    few = ids is not None and ids.max() < cfg.k
    if exhaustive and not few:
        _check_tree_size(cfg, int(ids.max()) + 1, len(streams))
    t0 = time.perf_counter()
    if few:
        first = np.sort(np.unique(ids, return_index=True)[1])
        centers = points[np.concatenate((first, np.arange(cfg.k - len(first))))]
        costs = subsets = nodes = np.zeros(0, dtype=np.int64)
        win, trace = 0, []
    else:
        costs, subsets, nodes, win, centers, trace = _run_restarts(points, ids, measure, cfg,
                                                                   *_stream_keys(streams))
        if not np.isfinite(costs[win]):
            raise DomainError(f"the search's winning cost is {costs[win]}: the measure's "
                              f"divergences do not stay finite on these points")
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
    the module docstring).  ``threads`` has no effect; it stays only for the
    benchmark's ``threads_nproc`` spot check, which passes it.
    """
    return _solve(data, measure, config, rng)


def find_k_means(data, config, rng):
    """k-means entry point: squared-Euclidean objective, same engine underneath."""
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


def lloyd(data, measure, initial_centers, max_iters=100):
    """Alternating assign/re-mean local search from the given centers.

    Ties assign to the lowest center index; an emptied cluster keeps its
    previous center, so the cost never rises by more than the rounding of the
    ``pairwise`` table that picks the labels (costs themselves are closed
    form; see ``assign``).  Stops at an assignment fixpoint or after
    ``max_iters`` passes.  This is one restart of :func:`_lloyd_restarts`;
    the result is ``assign`` on the centers it ends at.  Initial centers
    outside the measure's domain raise ``DomainError``.
    """
    points = as_points(data)
    measure.validate_points(points)
    max_iters = _checked_count(max_iters, "max_iters", least=0)
    centers = as_points(initial_centers).copy()
    if points.shape[1] != centers.shape[1]:
        raise DimensionMismatch("initial centers have the wrong dimension")
    measure.validate_points(centers)
    (cost_trace,) = _lloyd_restarts(points, measure, centers[None], max_iters)
    meta = {"iterations": len(cost_trace), "cost_trace": cost_trace, "method": "lloyd"}
    return _result(points, measure, centers, meta)

