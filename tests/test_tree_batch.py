"""The batched exhaustive tree against a node-by-node reference search.

``_TreeSearch`` searches a frontier of same-depth nodes at a time: it
expands them in chunks, one batch per chunk, and the children of a whole
chunk, from several parents, form the next frontier.  The reference below
expands one node at a time: each node draws, dedupes and scores on its own,
and the tree is walked depth first.  It computes node stream ids, the
restart key and each node's counter uniforms in plain Python integers, from
their documented formulas.  Both must agree bit for bit, in the best cost and
path, in the counters, in the replayed trace and in the whole
``find_k_median`` output, whatever the chunk size.  A spy on the batches
checks that they do hold children of several parents, and a search with
per-parent batches is the baseline of the memory check.
"""

import tracemalloc

import numpy as np
import pytest

from d2ptas import (
    Exhaustive,
    ItakuraSaito,
    KullbackLeibler,
    PtasConfig,
    SquaredEuclidean,
    find_k_median,
    run_one_restart,
)
from d2ptas import ptas
from d2ptas.divergences import Mahalanobis
from d2ptas.ptas import _combo_groups, _prepare
from d2ptas.sampler import RngStream, _derived_ids, _splitmix64, weighted_draw

MASK64 = 2 ** 64 - 1


def combo_by_rank(groups, rank):
    """Row ``rank`` of the concatenated index combinations ``groups``."""
    for combos in groups:
        if rank < len(combos):
            return combos[rank]
        rank -= len(combos)
    raise IndexError("subset rank out of range")


def derive_id(stream_id, index):
    """``RngStream.derive(index).stream_id``, in plain Python integers."""
    return _splitmix64((_splitmix64(stream_id) + index) & MASK64)


def reference_key(stream):
    """The first 64-bit output of the PCG64 seeded by (seed, stream_id)."""
    return np.random.PCG64(np.random.SeedSequence(
        stream.seed, spawn_key=(stream.stream_id,))).random_raw()


def roots_and_keys(*streams):
    """What ``_TreeSearch`` takes for the restarts on ``streams``: their ids and
    reference keys, as uint64 arrays."""
    return (np.array([stream.stream_id for stream in streams], dtype=np.uint64),
            np.array([reference_key(stream) for stream in streams], dtype=np.uint64))


def reference_draw(probs, draw_id, key, count):
    """The 1-D draw over the support only, at the node's counter uniforms: the
    top 53 bits of splitmix64(splitmix64(draw_id ^ key) + j) times 2^-53."""
    base = _splitmix64(draw_id ^ key)
    uniforms = [(_splitmix64((base + j) & MASK64) >> 11) * 2.0 ** -53 for j in range(count)]
    support = np.flatnonzero(probs > 0.0)
    cum = np.cumsum(probs[support])
    cum[-1] = 1.0
    return support[np.searchsorted(cum, uniforms, side="right")]


def row_sums(table):
    """Each row's sum, taken as the sum of that row alone."""
    return np.array([row.sum() for row in table])


class ReferenceSearch:
    """Node-by-node depth-first search over the same stream layout: a node
    with stream id s draws with the id of its ``derive(0)`` and child b gets
    the id of ``derive(1 + b)``, under the key of the restart stream."""

    def __init__(self, points, ids, measure, k, sample_size, subset_size, key):
        self.points, self.ids, self.measure = points, ids, measure
        self.k, self.sample_size, self.subset_size = k, sample_size, subset_size
        self.key = key
        self.best_cost, self.best_path = np.inf, None
        self.subsets_examined = self.nodes_expanded = 0

    def law(self, potentials):
        """Proportional to potential, uniform at the root and where every
        point is covered (total 0), as ``d2_law`` documents."""
        n = self.points.shape[0]
        if potentials is None or potentials.sum() == 0.0:
            return np.full(n, 1.0 / n)
        return potentials / potentials.sum()

    def expand(self, potentials, node_id):
        probs = self.law(potentials)
        sample = reference_draw(probs, derive_id(node_id, 0), self.key, self.sample_size)
        _, first = np.unique(self.ids[sample], return_index=True)
        pool = sample[np.sort(first)]
        groups = _combo_groups(len(pool), self.subset_size)
        cands = np.concatenate([self.points[pool][g].mean(axis=1) for g in groups], axis=0)
        fresh = self.measure.rowwise(self.points[None, :, :], cands[:, None, :])
        pots = fresh if potentials is None else np.minimum(potentials[None, :], fresh)
        return sample, pool, groups, cands, pots  # potentials after each candidate, as rows

    def visit(self, potentials, node_id, path):
        pots = self.expand(potentials, node_id)[-1]
        costs = row_sums(pots)
        self.nodes_expanded += 1
        self.subsets_examined += costs.shape[0]
        if len(path) == self.k - 1:
            b = int(np.argmin(costs))
            if costs[b] < self.best_cost:
                self.best_cost, self.best_path = float(costs[b]), path + (b,)
            return
        for b in range(costs.shape[0]):
            self.visit(pots[b], derive_id(node_id, 1 + b), path + (b,))

    def replay(self, node_id, path):
        trace, centers, potentials = [], [], None
        for depth, b in enumerate(path):
            sample, pool, groups, cands, pots = self.expand(potentials, node_id)
            trace.append({"iteration": depth, "sample": sample, "pool": pool, "subset_rank": b,
                          "subset_points": pool[combo_by_rank(groups, b)], "center": cands[b],
                          "partial_cost": float(pots[b].sum())})
            centers.append(cands[b])
            potentials = pots[b]
            node_id = derive_id(node_id, 1 + b)
        return centers, trace


def reference_find_k_median(data, measure, cfg, rng):
    """find_k_median with Exhaustive, on the reference search."""
    points, cfg, ids = _prepare(data, measure, cfg)
    outcomes = []
    for r in range(cfg.restarts):
        stream = rng.derive(r)
        search = ReferenceSearch(points, ids, measure, cfg.k, cfg.sample_size_N,
                                 cfg.subset_size_M, reference_key(stream))
        search.visit(None, stream.stream_id, ())
        centers, trace = search.replay(stream.stream_id, search.best_path)
        outcomes.append((search.best_cost, r, centers, trace, search))
    cost, r, centers, trace, _ = min(outcomes, key=lambda o: (o[0], o[1]))
    return {"centers": np.asarray(centers, dtype=float), "winning_restart": r, "trace": trace,
            "subsets_examined": sum(o[4].subsets_examined for o in outcomes),
            "nodes_expanded": sum(o[4].nodes_expanded for o in outcomes)}


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def run_both(points, measure, k, N, M, stream):
    points = np.asarray(points, dtype=float)
    _, _, ids = _prepare(points, measure, PtasConfig(k=1, epsilon=0.5))
    batched = ptas._TreeSearch(points, ids, measure, k, N, M, *roots_and_keys(stream))
    reference = ReferenceSearch(points, ids, measure, k, N, M, reference_key(stream))
    batched.run()
    reference.visit(None, stream.stream_id, ())
    return batched, reference


def assert_same_search(batched, reference):
    """The lone restart of ``batched``, whose paths start with its index 0."""
    assert same_bits(batched.best_cost[0], reference.best_cost)
    assert batched.best_path[0] == (0,) + reference.best_path
    assert batched.subsets_examined[0] == reference.subsets_examined
    assert batched.nodes_expanded[0] == reference.nodes_expanded


MEASURES = {
    "sqeuclid": SquaredEuclidean(),
    "mahalanobis": Mahalanobis(np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])),
    "kl": KullbackLeibler(),
    "itakura-saito": ItakuraSaito(),
}


def instance(name, gen, n, d):
    if name == "mahalanobis":
        d = 3
    if name in ("kl", "itakura-saito"):
        return gen.uniform(0.1, 0.9, size=(n, d))
    return gen.standard_normal((n, d))


class TestSearchMatchesReference:
    @pytest.mark.parametrize("name", list(MEASURES))
    @pytest.mark.parametrize("d", [1, 2])
    def test_each_sibling_is_a_lone_node(self, name, d, monkeypatch):
        """Probabilities, draw, pool, candidates, child potentials and costs of
        every child in a batch are bitwise those of the node expanded on its own."""
        tables = []

        def recording_draw(probs, uniforms):
            tables.append(probs)
            return weighted_draw(probs, uniforms)

        monkeypatch.setattr(ptas, "weighted_draw", recording_draw)
        measure = MEASURES[name]
        points = instance(name, RngStream(40, d).generator, 12, d)
        points[5] = points[2]
        _, _, ids = _prepare(points, measure, PtasConfig(k=1, epsilon=0.5))
        root = RngStream(49, d)
        search = ptas._TreeSearch(points, ids, measure, 2, 6, 3, *roots_and_keys(root))
        reference = ReferenceSearch(points, ids, measure, 2, 6, 3, reference_key(root))
        parents = reference.expand(None, root.stream_id)[-1]
        children = [derive_id(root.stream_id, 1 + b) for b in range(len(parents))]
        root_node = search._expand(np.full((1, 12), np.inf), search.roots, search.keys)
        batch = search._expand(root_node.potentials(np.arange(len(children))),
                               np.array(children, dtype=np.uint64),
                               np.repeat(search.keys, len(children)))
        for b, child in enumerate(children):
            sample, pool, _, cands, pots = reference.expand(parents[b], child)
            cands_b = np.arange(batch.starts[b], batch.starts[b + 1])
            assert same_bits(tables[-1][b], parents[b] / parents[b].sum())
            assert same_bits(batch.samples[b], sample)
            assert same_bits(batch.pools[b, :batch.pool_sizes[b]], pool)
            assert same_bits(batch.means[batch.which[cands_b]], cands)
            assert same_bits(batch.potentials(cands_b), pots)
            assert same_bits(batch.costs()[cands_b], row_sums(pots))

    @pytest.mark.parametrize("name", ["sqeuclid", "kl"])
    def test_a_batch_of_mixed_pool_sizes(self, name):
        """One batch whose nodes pool one point, two points and more, at M = 3:
        each node's candidates are the combinations ``_combo_groups(len(pool),
        M)`` of its pool, in order, in its own ``starts`` range and ``owner``
        entries, with the means of the node expanded alone."""
        measure, M = MEASURES[name], 3
        points = instance(name, RngStream(57).generator, 12, 2)
        _, _, ids = _prepare(points, measure, PtasConfig(k=1, epsilon=0.5))
        root = RngStream(58)
        search = ptas._TreeSearch(points, ids, measure, 2, 8, M, *roots_and_keys(root))
        reference = ReferenceSearch(points, ids, measure, 2, 8, M, reference_key(root))
        potentials = np.zeros((4, 12))
        potentials[0, 3] = 2.5  # the only point with positive potential
        potentials[1, [4, 9]] = [1.0, 3.0]
        potentials[2, :6] = np.arange(1.0, 7.0)
        potentials[3] = np.inf  # no center yet: the uniform law
        node_ids = np.array([derive_id(root.stream_id, 1 + j) for j in range(4)],
                            dtype=np.uint64)
        batch = search._expand(potentials, node_ids, np.repeat(search.keys, 4))
        menus = []
        for j, row in enumerate(potentials):
            sample, pool, groups, cands, pots = reference.expand(
                None if j == 3 else row, node_ids[j].item())
            combos = [list(combo) for group in groups for combo in group.tolist()]
            menus.append(len(combos))
            cands_j = np.arange(batch.starts[j], batch.starts[j + 1])
            assert same_bits(batch.samples[j], sample)
            assert same_bits(batch.pools[j, :batch.pool_sizes[j]], pool)
            assert len(cands_j) == len(combos)
            assert (batch.owner[cands_j] == j).all()
            subsets = batch.subsets[batch.which[cands_j]]
            assert [row[row > 0].tolist() for row in subsets] == [
                (pool[combo] + 1).tolist() for combo in combos]
            assert same_bits(batch.means[batch.which[cands_j]], cands)
            assert same_bits(batch.potentials(cands_j), pots)
        assert same_bits(batch.starts, np.concatenate(([0], np.cumsum(menus))))
        assert same_bits(batch.owner, np.repeat(np.arange(4), menus))
        sizes = batch.pool_sizes.tolist()
        assert len(set(sizes)) >= 3 and min(sizes) < M, sizes

    @pytest.mark.parametrize("name", list(MEASURES))
    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_measures_and_subset_sizes(self, name, M):
        gen = RngStream(41, M).generator
        for case in range(3):
            n, d, k = int(gen.integers(2, 9)), int(gen.integers(1, 4)), 1 + case
            points = instance(name, gen, max(n, k + 1), d)
            N = int(gen.integers(M, 7))
            batched, reference = run_both(points, MEASURES[name], k, N, M, RngStream(500 + case))
            assert_same_search(batched, reference)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_tree_depths(self, sq, k):
        gen = RngStream(42, k).generator
        points = gen.standard_normal((12, 2))  # 8 or more points: 1-D sums go pairwise
        batched, reference = run_both(points, sq, k, 4, 2, RngStream(600 + k))
        assert_same_search(batched, reference)

    def test_duplicates_and_signed_zeros(self, sq):
        points = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [2.0, 1.0],
                           [2.0, 1.0], [-1.5, 0.5], [0.0, 1.0]])
        for seed in range(4):
            for M in (2, 3):
                batched, reference = run_both(points, sq, 3, 9, M, RngStream(700 + seed))
                assert_same_search(batched, reference)

    @pytest.mark.parametrize("k", [2, 3])
    def test_search_runs_on_past_a_zero_total(self, sq, k):
        """Two distinct values: the search reaches cost 0 at a leaf or inside
        the tree, and every node below a zero total draws from the uniform law."""
        points = np.array([[1.0], [1.0], [4.0], [4.0], [4.0], [1.0]])
        for seed in range(6):
            batched, reference = run_both(points, sq, k, 5, 2, RngStream(800 + seed))
            assert reference.best_cost == 0.0
            assert_same_search(batched, reference)

    def test_as_many_points_as_centers(self, sq):
        points = np.array([[0.0], [1.0], [5.0]])
        batched, reference = run_both(points, sq, 3, 4, 2, RngStream(900))
        assert_same_search(batched, reference)

    def test_nodes_with_a_single_candidate(self, sq):
        """Samples of one or two points give some or all nodes a single
        candidate, whose cost a lone node sums as a 1-D array."""
        points = RngStream(43).generator.standard_normal((12, 2))
        for seed in range(10):
            for N in (1, 2):
                batched, reference = run_both(points, sq, 3, N, 1, RngStream(901, seed))
                assert_same_search(batched, reference)

    @pytest.mark.parametrize("entries", [1, 1 << 40])
    def test_sibling_chunks_do_not_change_the_result(self, sq, monkeypatch, entries):
        monkeypatch.setattr(ptas, "_BATCH_ENTRIES", entries)
        gen = RngStream(44).generator
        points = gen.standard_normal((8, 2))
        points[3] = -0.0
        for M in (1, 3):
            batched, reference = run_both(points, sq, 3, 6, M, RngStream(902 + M))
            assert_same_search(batched, reference)

    def test_a_paper_preset_node_is_a_batch_of_its_own(self, sq):
        """A paper-preset node draws N = 819 200 points, over half the batch
        budget, so it is expanded, and its draws deduplicated, alone."""
        points, cfg, ids = _prepare([[0.0], [1.0], [4.0], [5.0]], sq,
                                    PtasConfig(k=2, epsilon=0.5, scale_preset="paper"))
        assert cfg.sample_size_N == 819_200
        search = ptas._TreeSearch(points, ids, sq, cfg.k, cfg.sample_size_N,
                                  cfg.subset_size_M, *roots_and_keys(RngStream(7)))
        assert ptas._BATCH_ENTRIES // search._node_entries == 0

    def test_extreme_stream_ids_and_keys(self, sq):
        """A root stream id and a key of 2^64 - 1, where every sum wraps."""
        points = RngStream(52).generator.standard_normal((9, 2))
        _, _, ids = _prepare(points, sq, PtasConfig(k=1, epsilon=0.5))
        for key in (0, 2 ** 64 - 1):
            for root in (RngStream(53, 2 ** 64 - 1), RngStream(2 ** 64 - 1, 0)):
                batched = ptas._TreeSearch(points, ids, sq, 3, 5, 2,
                                           np.array([root.stream_id], dtype=np.uint64),
                                           np.array([key], dtype=np.uint64))
                reference = ReferenceSearch(points, ids, sq, 3, 5, 2, key)
                batched.run()
                reference.visit(None, root.stream_id, ())
                assert_same_search(batched, reference)
                got = batched.replay(batched.best_path[0])[1]
                want = reference.replay(root.stream_id, reference.best_path)[1]
                for mine, theirs in zip(got, want, strict=True):
                    assert all(same_bits(mine[f], theirs[f]) for f in mine)

    @pytest.mark.parametrize("entries", [1, 40, 1 << 40])
    def test_cost_blocks_do_not_change_the_result(self, sq, monkeypatch, entries):
        """Costs summed one candidate row at a time, in uneven blocks of rows,
        or in one block."""
        monkeypatch.setattr(ptas, "_SUM_ENTRIES", entries)
        points = RngStream(49).generator.standard_normal((13, 2))
        for M in (1, 2, 3):
            batched, reference = run_both(points, sq, 3, 7, M, RngStream(903 + M))
            assert_same_search(batched, reference)


class PerParentSearch(ptas._TreeSearch):
    """The search with per-parent batches: each batch holds children of one
    parent, each parent's children searched as their own list."""

    def _search(self, potentials, node_ids, paths):
        step = max(1, ptas._BATCH_ENTRIES // self._node_entries)
        for lo in range(0, len(node_ids), step):
            chunk = slice(lo, lo + step)
            restarts = paths[chunk, 0]
            node = self._expand(potentials[chunk], node_ids[chunk], self.keys[restarts])
            if paths.shape[1] == self.k:
                np.add.at(self.nodes_expanded, restarts, 1)
                np.add.at(self.subsets_examined, restarts, np.diff(node.starts))
                self._score_leaves(node, paths[chunk])
                continue
            for j, (node_id, path) in enumerate(zip(node_ids[chunk, None], paths[chunk])):
                a, b = node.starts[j], node.starts[j + 1]
                self.nodes_expanded[path[0]] += 1
                self.subsets_examined[path[0]] += int(b - a)
                self._search(node.potentials(np.arange(a, b)),
                             _derived_ids(node_id, 1 + np.arange(b - a))[0],
                             np.column_stack((np.repeat(path[None], b - a, axis=0),
                                              np.arange(b - a))))


def record_batches(monkeypatch):
    """Spy on ``_TreeSearch``: the branch paths of the nodes of each ``_expand`` batch."""
    paths_of, batches = {}, []
    search, expand = ptas._TreeSearch._search, ptas._TreeSearch._expand

    def spy_search(self, potentials, node_ids, paths):
        paths_of.update(zip(node_ids.tolist(), map(tuple, paths.tolist())))
        return search(self, potentials, node_ids, paths)

    def spy_expand(self, potentials, node_ids, keys):
        batches.append([paths_of.get(i) for i in node_ids.tolist()])
        return expand(self, potentials, node_ids, keys)

    monkeypatch.setattr(ptas._TreeSearch, "_search", spy_search)
    monkeypatch.setattr(ptas._TreeSearch, "_expand", spy_expand)
    return batches


def parents(batch):
    return {path[:-1] for path in batch}


def assert_same_replay(batched, reference, stream):
    got = batched.replay(batched.best_path[0])[1]
    want = reference.replay(stream.stream_id, reference.best_path)[1]
    for mine, theirs in zip(got, want, strict=True):
        assert mine.keys() == theirs.keys()
        assert all(same_bits(mine[f], theirs[f]) for f in mine)


class TestFrontierBatches:
    """A chunk's nodes are expanded as one batch, and the children of all of
    them are the next frontier, searched as one list."""

    @pytest.mark.parametrize("chunk", [3, 40])
    def test_chunks_that_split_or_merge_parents(self, sq, monkeypatch, chunk):
        """k = 4 with chunks of 3 nodes, which split one parent's children
        across batches, and of 40, which merge several parents' children into
        one batch, at the interior level below the root's children and at the
        leaves."""
        points = RngStream(54).generator.standard_normal((10, 2))
        _, _, ids = _prepare(points, sq, PtasConfig(k=1, epsilon=0.5))
        batches = record_batches(monkeypatch)
        for seed in range(2):
            stream = RngStream(905, seed)
            batched = ptas._TreeSearch(points, ids, sq, 4, 4, 2, *roots_and_keys(stream))
            monkeypatch.setattr(ptas, "_BATCH_ENTRIES", chunk * batched._node_entries)
            batched.run()
            tree, batches[:] = list(batches), []
            reference = ReferenceSearch(points, ids, sq, 4, 4, 2, reference_key(stream))
            reference.visit(None, stream.stream_id, ())
            assert_same_search(batched, reference)
            assert_same_replay(batched, reference, stream)
            for depth in (2, 3):  # paths start with the restart index
                level = [b for b in tree if len(b[0]) == 1 + depth]
                if chunk == 3:
                    spread = [sum(p in parents(b) for b in level) for p in parents(sum(level, []))]
                    assert max(spread) > 1
                else:
                    assert max(len(parents(b)) for b in level) > 1

    def test_leaf_batches_hold_children_of_several_parents(self, sq, monkeypatch):
        """At exact_small's shape (n = 12, k = 3, N = 239, M = 2) a leaf batch
        holds the children of more than one parent."""
        points = RngStream(55).generator.standard_normal((12, 2))
        _, _, ids = _prepare(points, sq, PtasConfig(k=1, epsilon=0.5))
        batches = record_batches(monkeypatch)
        ptas._TreeSearch(points, ids, sq, 3, 239, 2, *roots_and_keys(RngStream(906))).run()
        assert max(len(parents(b)) for b in batches if len(b[0]) == 3) > 1

    @pytest.mark.parametrize("d", [1, 3])
    def test_peak_memory_stays_near_per_parent_batches(self, sq, d):
        """At exact_small's shape a frontier search peaks within one batch
        budget (8 bytes per entry, 8 MB) of a search with per-parent batches,
        and finds the same result.  Measured at d = 1 and 3: 4.8 and 4.0 MB
        against 0.9 and 1.0 MB.  A budget of n * d entries per candidate, which
        leaves out the nodes' draws, makes chunks of 1120 nodes at d = 1, which
        peak at 11.9 MB."""
        points = RngStream(56, d).generator.standard_normal((12, d))
        _, _, ids = _prepare(points, sq, PtasConfig(k=1, epsilon=0.5))
        stream, peaks = RngStream(907, d), []
        # fill the combination caches before tracing
        PerParentSearch(points, ids, sq, 3, 239, 2, *roots_and_keys(stream)).run()
        searches = [cls(points, ids, sq, 3, 239, 2, *roots_and_keys(stream))
                    for cls in (PerParentSearch, ptas._TreeSearch)]
        for search in searches:
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                search.run()
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        per_parent, frontier = searches
        assert same_bits(per_parent.best_cost, frontier.best_cost)
        assert per_parent.best_path == frontier.best_path
        assert same_bits(per_parent.subsets_examined, frontier.subsets_examined)
        assert same_bits(per_parent.nodes_expanded, frontier.nodes_expanded)
        assert peaks[1] <= peaks[0] + 8 * ptas._BATCH_ENTRIES, peaks


@pytest.mark.parametrize("base,columns,count,sorts", [
    pytest.param(13, 1, 60, 0, id="13-1"),
    pytest.param(13, 2, 60, 0, id="13-2"),
    pytest.param(4, 3, 60, 0, id="4-3"),
    pytest.param(1 << 40, 3, 60, 3, id="1099511627776-3"),
    pytest.param(13, 3, 20, 2, id="13-3-20rows"),
])
def test_distinct_rows(monkeypatch, base, columns, count, sorts):
    """Distinct rows and each row's index among them, its lexicographic rank,
    also where one key per row of ``base ** columns`` values would overflow
    int64.  A column whose keys span more than ``_FLAGS_PER_ROW`` values per
    row is ranked by ``np.unique``, the others by flags: 20 rows of base 13
    take flags in column 0 and the sort from column 1 on."""
    unique, sorted_columns = np.unique, []
    monkeypatch.setattr(np, "unique", lambda *args, **kwargs: sorted_columns.append(1) or unique(
        *args, **kwargs))
    gen = RngStream(50, columns).generator
    rows = gen.integers(0, base, size=(count, columns))
    half = count // 2
    rows[half:] = rows[:half][gen.permutation(half)]  # every row twice
    rows[5] = rows[5, ::-1]  # the same members in another order are another row
    distinct, which = ptas._distinct_rows(rows.T, base)
    assert len(sorted_columns) == sorts
    assert np.array_equal(distinct[which], rows)
    assert len(distinct) == len(unique(rows, axis=0))
    assert np.array_equal(which, unique(rows, axis=0, return_inverse=True)[1])


class TestFindKMedianMatchesReference:
    CASES = [
        ("sqeuclid", 9, 2, 3, 12, 2),
        ("mahalanobis", 7, 3, 2, 8, 3),
        ("kl", 8, 2, 3, 6, 2),
        ("itakura-saito", 6, 1, 2, 10, 3),
        ("sqeuclid", 6, 1, 4, 4, 1),
    ]

    @staticmethod
    def assert_whole_output(points, measure, cfg, rng):
        got = find_k_median(points, measure, cfg, rng)
        want = reference_find_k_median(points, measure, cfg, rng)
        assert same_bits(got.centers, want["centers"])
        for key in ("winning_restart", "subsets_examined", "nodes_expanded"):
            assert got.meta[key] == want[key]
        for mine, theirs in zip(got.meta["trace"], want["trace"], strict=True):
            assert mine.keys() == theirs.keys()
            assert all(same_bits(mine[key], theirs[key]) for key in mine)
        return got

    @pytest.mark.parametrize("name,n,d,k,N,M", CASES)
    def test_whole_output(self, name, n, d, k, N, M):
        points = instance(name, RngStream(45, n).generator, n, d)
        points[1] = points[0]  # a duplicate
        cfg = PtasConfig(k=k, epsilon=0.5, sample_size_N=N, subset_size_M=M, restarts=3,
                         subset_strategy=Exhaustive())
        self.assert_whole_output(points, MEASURES[name], cfg, RngStream(46))

    def test_distinct_values_whose_gaps_square_to_zero(self, sq):
        """Four values 0, 1e-170, 2e-170 and 1, five copies each, k = 3: the
        tiny gaps square to 0, so the winning path reaches cost 0 after two
        centers, and its third iteration draws from the uniform law and may
        repeat a value.  The whole output still matches the reference."""
        points = np.repeat([0.0, 1e-170, 2e-170, 1.0], 5)[:, None]
        cfg = PtasConfig(k=3, epsilon=0.5, sample_size_N=12, subset_size_M=4,
                         subset_strategy=Exhaustive())
        got = self.assert_whole_output(points, sq, cfg, RngStream(51))
        assert got.cost == 0.0 and len(got.centers) == len(got.meta["trace"]) == 3
        assert got.meta["trace"][1]["partial_cost"] == 0.0

    def test_exact_small_constants(self, sq):
        """exact_small's constants at k = 2: 12 points, N = 239, M = 2 and two
        restarts, so the whole 156-node leaf frontier draws in one batch; the
        output is the reference's."""
        points = RngStream(52).generator.standard_normal((12, 2))
        cfg = PtasConfig(k=2, epsilon=0.5, sample_size_N=239, subset_size_M=2, restarts=2,
                         subset_strategy=Exhaustive())
        got = self.assert_whole_output(points, sq, cfg, RngStream(53))
        assert got.meta["nodes_expanded"] == cfg.restarts * (1 + 78)

    def test_run_one_restart_counts_the_reference_nodes(self, sq):
        points = RngStream(47).generator.standard_normal((8, 2))
        cfg = PtasConfig(k=3, epsilon=0.5, sample_size_N=5, subset_size_M=2, restarts=1,
                         subset_strategy=Exhaustive())
        got = run_one_restart(points, sq, cfg, RngStream(48))
        _, _, ids = _prepare(points, sq, cfg)
        reference = ReferenceSearch(points, ids, sq, 3, 5, 2, reference_key(RngStream(48)))
        reference.visit(None, RngStream(48).stream_id, ())
        assert got.meta["nodes_expanded"] == reference.nodes_expanded
        assert got.meta["subsets_examined"] == reference.subsets_examined
