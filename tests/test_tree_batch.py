"""The batched exhaustive tree against a node-by-node reference search.

``_TreeSearch`` expands all children of a node as one batch.  The reference
below expands one node at a time: each node draws, dedupes and scores on its
own, and the tree is walked depth first.  Both must agree bit for bit, in the
best cost and path, in the counters and in the whole ``find_k_median`` output.
"""

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
from d2ptas.ptas import _combo_by_rank, _combo_groups, _fill_distinct_centers, _prepare
from d2ptas.sampler import RngStream, weighted_draw


def reference_draw(probs, stream, count):
    """The 1-D draw over the support only."""
    support = np.flatnonzero(probs > 0.0)
    cum = np.cumsum(probs[support])
    cum[-1] = 1.0
    return support[np.searchsorted(cum, stream.generator.random(count), side="right")]


class ReferenceSearch:
    """Node-by-node depth-first search over the same stream layout."""

    def __init__(self, points, ids, measure, k, sample_size, subset_size):
        self.points, self.ids, self.measure = points, ids, measure
        self.k, self.sample_size, self.subset_size = k, sample_size, subset_size
        self.best_cost, self.best_path = np.inf, None
        self.subsets_examined = self.nodes_expanded = 0

    def expand(self, potentials, stream):
        n = self.points.shape[0]
        probs = np.full(n, 1.0 / n) if potentials is None else potentials / potentials.sum()
        sample = reference_draw(probs, stream.derive(0), self.sample_size)
        _, first = np.unique(self.ids[sample], return_index=True)
        pool = sample[np.sort(first)]
        groups = _combo_groups(len(pool), self.subset_size)
        cands = np.concatenate([self.points[pool][g].mean(axis=1) for g in groups], axis=0)
        fresh = self.measure.rowwise(self.points[:, None, :], cands[None, :, :])
        pots = fresh if potentials is None else np.minimum(potentials[:, None], fresh)
        return sample, pool, groups, cands, pots

    def visit(self, potentials, stream, path):
        if self.best_cost == 0.0:
            return
        pots = self.expand(potentials, stream)[-1]
        costs = pots.sum(axis=0)
        self.nodes_expanded += 1
        self.subsets_examined += costs.shape[0]
        if len(path) == self.k - 1:
            b = int(np.argmin(costs))
            if costs[b] < self.best_cost:
                self.best_cost, self.best_path = float(costs[b]), path + (b,)
            return
        for b in range(costs.shape[0]):
            if self.best_cost == 0.0:
                return
            if costs[b] == 0.0:
                if 0.0 < self.best_cost:
                    self.best_cost, self.best_path = 0.0, path + (b,)
                return
            self.visit(pots[:, b], stream.derive(1 + b), path + (b,))

    def replay(self, stream, path):
        trace, centers, potentials = [], [], None
        for depth, b in enumerate(path):
            sample, pool, groups, cands, pots = self.expand(potentials, stream)
            trace.append({"iteration": depth, "sample": sample, "pool": pool, "subset_rank": b,
                          "subset_points": pool[_combo_by_rank(groups, b)], "center": cands[b],
                          "partial_cost": float(pots[:, b].sum())})
            centers.append(cands[b])
            potentials = pots[:, b]
            stream = stream.derive(1 + b)
        return centers, trace


def reference_find_k_median(data, measure, cfg, rng):
    """find_k_median with Exhaustive, on the reference search."""
    points, cfg, ids = _prepare(data, measure, cfg)
    outcomes = []
    for r in range(cfg.restarts):
        search = ReferenceSearch(points, ids, measure, cfg.k, cfg.sample_size_N,
                                 cfg.subset_size_M)
        search.visit(None, rng.derive(r), ())
        centers, trace = search.replay(rng.derive(r), search.best_path)
        outcomes.append((search.best_cost, r, _fill_distinct_centers(points, centers, cfg.k),
                         trace, search))
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
    batched = ptas._TreeSearch(points, ids, measure, k, N, M)
    reference = ReferenceSearch(points, ids, measure, k, N, M)
    batched.run(stream)
    reference.visit(None, stream, ())
    return batched, reference


def assert_same_search(batched, reference):
    assert same_bits(batched.best_cost, reference.best_cost)
    assert batched.best_path == reference.best_path
    assert batched.subsets_examined == reference.subsets_examined
    assert batched.nodes_expanded == reference.nodes_expanded


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

        def recording_draw(probs, rng, count):
            tables.append(probs)
            return weighted_draw(probs, rng, count)

        monkeypatch.setattr(ptas, "weighted_draw", recording_draw)
        measure = MEASURES[name]
        points = instance(name, RngStream(40, d).generator, 12, d)
        points[5] = points[2]
        _, _, ids = _prepare(points, measure, PtasConfig(k=1, epsilon=0.5))
        search = ptas._TreeSearch(points, ids, measure, 2, 6, 3)
        reference = ReferenceSearch(points, ids, measure, 2, 6, 3)
        root = RngStream(49, d)
        parents = reference.expand(None, root)[-1]
        streams = [root.derive(1 + b) for b in range(parents.shape[1])]
        root_node = search._expand(np.full((12, 1), np.inf), [root])
        batch = search._expand(root_node.potentials(np.arange(len(streams))), streams)
        for b, stream in enumerate(streams):
            sample, pool, _, cands, pots = reference.expand(parents[:, b], stream)
            cols = np.arange(batch.starts[b], batch.starts[b + 1])
            assert same_bits(tables[-1][:, b], parents[:, b] / parents[:, b].sum())
            assert same_bits(batch.samples[b], sample)
            assert same_bits(batch.pools[b], pool)
            assert same_bits(batch.means[batch.which[cols]], cands)
            assert same_bits(batch.potentials(cols), pots)
            assert same_bits(batch.costs[cols], pots.sum(axis=0))

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
    def test_zero_cost_short_circuit(self, sq, k):
        """Two distinct values: a zero cost stops the search, at a leaf or inside."""
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

    @pytest.mark.parametrize("entries", [1, 40, 1 << 40])
    def test_cost_blocks_do_not_change_the_result(self, sq, monkeypatch, entries):
        """Costs summed one point at a time, in uneven blocks, or in one block."""
        monkeypatch.setattr(ptas, "_SUM_ENTRIES", entries)
        points = RngStream(49).generator.standard_normal((13, 2))
        for M in (1, 2, 3):
            batched, reference = run_both(points, sq, 3, 7, M, RngStream(903 + M))
            assert_same_search(batched, reference)


@pytest.mark.parametrize("base,columns", [(13, 1), (13, 2), (4, 3), (1 << 40, 3)])
def test_distinct_rows(base, columns):
    """Distinct rows and each row's index among them, also where one key per
    row of ``base ** columns`` values would overflow int64."""
    gen = RngStream(50, columns).generator
    rows = gen.integers(0, base, size=(60, columns))
    rows[30:] = rows[:30][gen.permutation(30)]  # every row twice
    rows[5] = rows[5, ::-1]  # the same members in another order are another row
    distinct, which = ptas._distinct_rows(rows, base)
    assert np.array_equal(distinct[which], rows)
    assert len(distinct) == len(np.unique(rows, axis=0))


class TestFindKMedianMatchesReference:
    CASES = [
        ("sqeuclid", 9, 2, 3, 12, 2),
        ("mahalanobis", 7, 3, 2, 8, 3),
        ("kl", 8, 2, 3, 6, 2),
        ("itakura-saito", 6, 1, 2, 10, 3),
        ("sqeuclid", 6, 1, 4, 4, 1),
    ]

    @pytest.mark.parametrize("name,n,d,k,N,M", CASES)
    def test_whole_output(self, name, n, d, k, N, M):
        measure = MEASURES[name]
        points = instance(name, RngStream(45, n).generator, n, d)
        points[1] = points[0]  # a duplicate
        cfg = PtasConfig(k=k, epsilon=0.5, sample_size_N=N, subset_size_M=M, restarts=3,
                         subset_strategy=Exhaustive())
        got = find_k_median(points, measure, cfg, RngStream(46))
        want = reference_find_k_median(points, measure, cfg, RngStream(46))
        assert same_bits(got.centers, want["centers"])
        for key in ("winning_restart", "subsets_examined", "nodes_expanded"):
            assert got.meta[key] == want[key]
        for mine, theirs in zip(got.meta["trace"], want["trace"], strict=True):
            assert mine.keys() == theirs.keys()
            assert all(same_bits(mine[key], theirs[key]) for key in mine)

    def test_run_one_restart_counts_the_reference_nodes(self, sq):
        points = RngStream(47).generator.standard_normal((8, 2))
        cfg = PtasConfig(k=3, epsilon=0.5, sample_size_N=5, subset_size_M=2, restarts=1,
                         subset_strategy=Exhaustive())
        got = run_one_restart(points, sq, cfg, RngStream(48))
        _, _, ids = _prepare(points, sq, cfg)
        reference = ReferenceSearch(points, ids, sq, 3, 5, 2)
        reference.visit(None, RngStream(48), ())
        assert got.meta["nodes_expanded"] == reference.nodes_expanded
        assert got.meta["subsets_examined"] == reference.subsets_examined
