"""Tests for the exact small-instance solvers and estimators."""

import ast
import inspect

import numpy as np
import pytest

from d2ptas import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    Exhaustive,
    ItakuraSaito,
    KullbackLeibler,
    Mahalanobis,
    PtasConfig,
    RngStream,
    SquaredEuclidean,
    TooLarge,
    centroid_report,
    find_k_median,
    generate_planted,
    inaba_trial,
    irreducibility,
    kmeanspp_seed,
    lloyd,
    optimal_bruteforce,
    symmetry_report,
    triangle_report,
)
from d2ptas import oracle, ptas
from d2ptas.cli import run_experiment, write_points_csv
from d2ptas.divergences import assign, centroid
from d2ptas.oracle import ORACLE_N_CAP, _gamma, _optimal_partitions
from d2ptas.ptas import _kmeanspp_lloyd, _kmeanspp_picks, _lloyd_restarts, _restart_groups
from d2ptas.sampler import CenterSet, _counter_key, _splitmix64, d2_law, d2_sample, weighted_draw

MEASURES = {
    "sq": SquaredEuclidean(),
    "mahalanobis": Mahalanobis(np.array([[2.0, 0.3], [0.3, 1.0]])),
    "kl": KullbackLeibler(),
    "is": ItakuraSaito(),
}


def exhaustive_partition_cost(points, k, measure):
    """Fully independent reference: try every label vector, no pruning.

    A label vector costs the sum of its blocks' costs, each block at its
    mean; the cost of every subset of points is taken once, in a plain loop.
    """
    n = points.shape[0]
    block_cost = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        members = points[[i for i in range(n) if mask >> i & 1]]
        block_cost[mask] = measure.rowwise(members, members.mean(axis=0)[None]).sum()
    # row c is the base-k digits of c: every label vector once
    labels = np.arange(k ** n)[:, None] // k ** np.arange(n) % k
    weights = 1 << np.arange(n)
    return float(sum(block_cost[(labels == j) @ weights] for j in range(k)).min())


class TestOptimalBruteforce:
    def test_four_point_line_two_clusters(self, sq, four_point_line):
        res = optimal_bruteforce(four_point_line, 2, sq)
        assert res.optimal_cost == 1.0
        assert res.optimal_partition.tolist() == [0, 0, 1, 1]
        assert res.assignments_examined == 2 ** 3  # point 0 pinned
        np.testing.assert_allclose(res.centers(four_point_line), [[0.5], [4.5]])

    def test_four_point_line_one_cluster(self, sq, four_point_line):
        res = optimal_bruteforce(four_point_line, 1, sq)
        assert res.optimal_cost == 17.0
        assert res.assignments_examined == 1

    def test_matches_unpruned_enumeration(self, sq, gen):
        for _ in range(3):
            pts = gen.standard_normal((7, 2))
            res = optimal_bruteforce(pts, 3, sq)
            assert res.assignments_examined == 3 ** 6
            assert res.optimal_cost == pytest.approx(
                exhaustive_partition_cost(pts, 3, sq), rel=1e-12)

    def test_matches_independent_enumeration(self, sq, gen):
        for _ in range(3):
            pts = gen.standard_normal((6, 3))
            res = optimal_bruteforce(pts, 2, sq)
            ref = exhaustive_partition_cost(pts, 2, sq)
            assert res.optimal_cost == pytest.approx(ref, rel=1e-12)

    def test_mahalanobis_supported(self, gen):
        mah = Mahalanobis(np.array([[2.0, 0.3], [0.3, 1.0]]))
        pts = gen.standard_normal((8, 2))
        res = optimal_bruteforce(pts, 2, mah)
        ref = exhaustive_partition_cost(pts, 2, mah)
        assert res.optimal_cost == pytest.approx(ref, rel=1e-12)

    def test_k_at_least_n_is_free(self, sq, four_point_line):
        res = optimal_bruteforce(four_point_line, 4, sq)
        assert res.optimal_cost == 0.0
        assert res.optimal_partition.tolist() == [0, 1, 2, 3]
        assert res.assignments_examined == 1

    def test_size_cap(self, sq, gen):
        with pytest.raises(TooLarge):
            optimal_bruteforce(gen.standard_normal((ORACLE_N_CAP + 1, 2)), 2, sq)

    def test_k_validation(self, sq, four_point_line):
        with pytest.raises(ConfigError):
            optimal_bruteforce(four_point_line, 0, sq)


def closed_form_cost(points, labels, measure):
    """Cost of a partition with every block at its ``.mean(axis=0)``."""
    centers = np.array([points[labels == j].mean(axis=0) for j in range(labels.max() + 1)])
    return float(measure.rowwise(points, centers[labels]).sum())


def instance(name, gen, n, d=2):
    pts = gen.standard_normal((n, d))
    return np.exp(pts) if name in ("kl", "is") else pts


def mirrored(name, gen, n):
    """n points closed under a symmetry of the measure: negation, or for the
    positive measures a swap of the two coordinates; an odd one out is fixed."""
    half = instance(name, gen, n // 2)
    if name in ("kl", "is"):
        return np.concatenate([half, half[:, ::-1], np.ones((n % 2, 2))])
    return np.concatenate([half, -half, np.zeros((n % 2, 2))])


class TestSubsetDP:
    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_matches_unpruned_enumeration(self, name, gen):
        """Exact at every k, past k = 4 and up to k = n, where every point is
        its own block."""
        measure = MEASURES[name]
        for n in range(5, 9):
            pts = instance(name, gen, n)
            for k in range(1, min(n, 6 if n <= 7 else 5) + 1):
                res = optimal_bruteforce(pts, k, measure)
                assert res.optimal_cost == pytest.approx(
                    exhaustive_partition_cost(pts, k, measure), rel=1e-12), (n, k)
                assert res.assignments_examined == (k ** (n - 1) if k < n else 1)

    @pytest.mark.parametrize("k", [2, 3])
    def test_far_from_the_origin(self, sq, gen, k):
        pts = gen.standard_normal((10, 2)) + 1e6
        res = optimal_bruteforce(pts, k, sq)
        assert res.optimal_cost == pytest.approx(
            exhaustive_partition_cost(pts, k, sq), rel=1e-9)

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_cost_is_the_closed_form_of_the_partition(self, name, gen):
        measure = MEASURES[name]
        for n, k in [(6, 2), (9, 3), (11, 4)]:
            pts = instance(name, gen, n)
            res = optimal_bruteforce(pts, k, measure)
            assert res.optimal_cost == closed_form_cost(pts, res.optimal_partition, measure)

    def test_equal_and_duplicate_points_cost_zero(self, sq):
        assert optimal_bruteforce(np.full((9, 2), 3.25), 2, sq).optimal_cost == 0.0
        pts = np.repeat(np.array([[0.1], [7.3], [-2.9]]), 3, axis=0)
        res = optimal_bruteforce(pts, 3, sq)
        assert res.optimal_cost == 0.0
        assert res.optimal_partition.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_blocks_numbered_by_lowest_point(self, sq, gen):
        for _ in range(5):
            labels = optimal_bruteforce(gen.standard_normal((10, 2)), 4, sq).optimal_partition
            _, first = np.unique(labels, return_index=True)
            assert labels[0] == 0
            assert np.all(np.diff(first) > 0)
            assert np.array_equal(np.unique(labels), np.arange(labels.max() + 1))

    def test_at_the_caps_no_worse_than_local_search(self, sq, gen):
        pts = gen.standard_normal((ORACLE_N_CAP, 2))
        res = optimal_bruteforce(pts, 4, sq)
        stream = RngStream(89)
        best = min(lloyd(pts, sq, kmeanspp_seed(pts, sq, 4, stream.derive(r)).centers).cost
                   for r in range(20))
        assert res.optimal_cost <= best
        assert res.assignments_examined == 4 ** (ORACLE_N_CAP - 1)


class TestLloyd:
    def test_a_center_off_the_data_moves_onto_its_one_member(self, sq):
        """A cell of one member is not empty: its center moves onto the member."""
        points = np.array([[0.0], [1.0], [10.0]])
        res = lloyd(points, sq, np.array([[0.5], [9.0]]))
        np.testing.assert_array_equal(np.asarray(res.centers), [[0.5], [10.0]])
        assert res.meta["cost_trace"] == [1.5, 0.5]
        assert res.cost == 0.5

    def test_frozen_two_step_descent(self, sq, four_point_line):
        res = lloyd(four_point_line, sq, np.array([[1.0], [4.0]]))
        assert res.meta["cost_trace"] == [2.0, 1.0]
        assert res.cost == 1.0
        np.testing.assert_allclose(np.sort(np.asarray(res.centers).ravel()), [0.5, 4.5])

    def test_cost_trace_never_increases(self, sq, planted):
        points, _, _ = planted
        stream = RngStream(90)
        for r in range(5):
            seeds = kmeanspp_seed(points, sq, 3, stream.derive(r))
            trace = np.asarray(lloyd(points, sq, seeds.centers).meta["cost_trace"])
            assert np.all(np.diff(trace) <= 1e-9 * trace[0])

    def test_never_beats_the_oracle(self, sq, gen):
        for _ in range(5):
            pts = gen.standard_normal((9, 2))
            opt = optimal_bruteforce(pts, 2, sq).optimal_cost
            seeds = kmeanspp_seed(pts, sq, 2, RngStream(int(gen.integers(1 << 30))))
            res = lloyd(pts, sq, seeds.centers)
            assert res.cost >= opt - 1e-9 * max(opt, 1.0)

    def test_fixpoint_is_stable(self, sq, four_point_line):
        res = lloyd(four_point_line, sq, np.array([[0.5], [4.5]]))
        again = lloyd(four_point_line, sq, res.centers)
        assert again.cost == res.cost
        np.testing.assert_array_equal(np.asarray(again.centers), np.asarray(res.centers))

    def test_dimension_mismatch(self, sq, four_point_line):
        with pytest.raises(DimensionMismatch):
            lloyd(four_point_line, sq, np.zeros((2, 3)))

    @pytest.mark.parametrize("max_iters", [0, 1])
    def test_initial_centers_off_the_domain_are_refused(self, max_iters):
        """Negative centers on KL data would cost nan; they are refused
        before any labelling."""
        points = 0.1 + 0.8 * RngStream(17).generator.random((30, 2))
        with pytest.raises(DomainError):
            lloyd(points, KullbackLeibler(), -points[:3], max_iters=max_iters)

    def test_max_iters_is_a_count(self, sq, four_point_line):
        """A negative or fractional pass count is refused, not run as 0 or
        truncated; 0 and NumPy integers are accepted."""
        start = np.array([[1.0], [4.0]])
        for bad in (-1, 1.5, 2.0, True):
            with pytest.raises(ConfigError, match="max_iters"):
                lloyd(four_point_line, sq, start, max_iters=bad)
        assert lloyd(four_point_line, sq, start, max_iters=0).meta["cost_trace"] == [2.0]
        assert lloyd(four_point_line, sq, start, max_iters=np.int64(1)).cost == 1.0

    def test_clusters_of_equal_points_cost_exactly_zero(self, sq):
        """A float mean of three copies of 0.1 is 0.10000000000000002."""
        points = np.array([[0.1]] * 3 + [[7.3]] * 3)
        res = lloyd(points, sq, np.array([[0.0], [7.0]]))
        assert res.cost == 0.0
        np.testing.assert_array_equal(np.asarray(res.centers), [[0.1], [7.3]])


class TestIrreducibility:
    def test_four_point_line_exact_values(self, sq, four_point_line):
        rep = irreducibility(four_point_line, 2, sq)
        assert rep.delta_km1 == 17.0
        assert rep.delta_k == 1.0
        assert rep.gamma == 16.0
        assert list(vars(rep)) == ["k", "delta_km1", "delta_k", "gamma"]

    def test_a_rounding_inversion_reads_zero(self):
        """The closed-form costs of two tied DP levels can invert by a
        rounding step; gamma reads 0 there, not a negative number."""
        assert _gamma(1.0, 1.0 + 2 ** -52) == 0.0

    def test_both_costs_zero_gives_zero(self, sq):
        rep = irreducibility(np.zeros((5, 2)), 2, sq)
        assert rep.gamma == 0.0

    def test_only_k_cost_zero_gives_infinity(self, sq):
        pts = np.array([[0.0], [0.0], [1.0], [1.0]])
        rep = irreducibility(pts, 2, sq)
        assert rep.delta_k == 0.0 and rep.gamma == np.inf

    def test_validation(self, sq, four_point_line):
        with pytest.raises(ConfigError):
            irreducibility(four_point_line, 1, sq)

    @pytest.mark.parametrize("k", ["3", None])
    def test_k_that_is_no_integer_is_refused(self, sq, four_point_line, k):
        with pytest.raises(ConfigError, match="k must be an integer"):
            irreducibility(four_point_line, k, sq)

    @pytest.mark.parametrize("keyword,value", [("mode", "exact"), ("mode", "approximate"),
                                               ("restarts", 20), ("rng", None)])
    def test_only_the_exact_oracle_is_left(self, sq, four_point_line, keyword, value):
        """The approximate mode and its options are gone: passing one is a
        TypeError."""
        with pytest.raises(TypeError):
            irreducibility(four_point_line, 2, sq, **{keyword: value})

    def test_the_oracle_reads_nothing_from_the_engine(self):
        tree = ast.parse(inspect.getsource(oracle))
        sources = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert sources == {"dataclasses", "divergences", "errors"}
        assert list(inspect.signature(irreducibility).parameters) == ["data", "k", "measure"]

    def test_numpy_k_reads_back_as_an_int(self, sq, four_point_line):
        rep = irreducibility(four_point_line, np.int64(2), sq)
        assert type(rep.k) is int and rep.k == 2
        assert rep.gamma == 16.0


def planted_points(n, clusters, per_cluster):
    """The first ``n`` points of a planted 2-D mixture, seeded by ``n``."""
    return generate_planted(clusters, per_cluster, 2, 10.0, 1.0, RngStream(n))[0][:n]


# n = 12, 13 and 14: 4 blobs of 3, 5 of 3 cut to 13, and 7 of 2
PLANTED_SMALL = [(12, 4, 3), (13, 5, 3), (14, 7, 2)]


class TestBeyondFourCenters:
    """The oracle is exact at every k, so "never below the oracle" is checked
    at k = 5, 6 and 8 on n = 12-14, where the desk engine strays furthest
    from the optimum."""

    @pytest.mark.parametrize("k", [5, 6, 8])
    @pytest.mark.parametrize("shape", PLANTED_SMALL, ids=lambda s: f"n{s[0]}")
    def test_the_engine_never_reports_below_the_oracle(self, sq, shape, k):
        points = planted_points(*shape)
        opt = optimal_bruteforce(points, k, sq)
        assert opt.assignments_examined == k ** (len(points) - 1)
        configs = [PtasConfig(k=k, epsilon=0.5),
                   PtasConfig(k=k, epsilon=0.5, sample_size_N=4, subset_size_M=1, restarts=2,
                              subset_strategy=Exhaustive())]
        for cfg in configs:
            for seed in range(3):
                cost = find_k_median(points, sq, cfg, RngStream(seed)).cost
                assert cost >= opt.optimal_cost * (1 - 1e-9), (cfg.subset_strategy, seed)

    def test_cluster_report_holds_the_oracle_at_k_5(self, tmp_path):
        path = tmp_path / "planted.csv"
        write_points_csv(path, planted_points(*PLANTED_SMALL[1]))
        results = run_experiment({"input": str(path), "k": 5, "measure": "sqeuclid",
                                  "seed": 3})["results"]
        assert set(results) == {"ptas", "kmeanspp_lloyd", "oracle"}
        assert results["oracle"]["ratio"] == pytest.approx(1.0, rel=1e-9)
        assert results["ptas"]["ratio"] >= 1.0
        assert results["ptas"]["cost"] >= results["oracle"]["cost"] * (1 - 1e-9)

    def test_exact_irreducibility_at_k_5(self, sq):
        points = planted_points(*PLANTED_SMALL[2])
        rep = irreducibility(points, 5, sq)
        delta_k = optimal_bruteforce(points, 5, sq).optimal_cost
        delta_km1 = optimal_bruteforce(points, 4, sq).optimal_cost
        assert (rep.delta_k, rep.delta_km1) == (delta_k, delta_km1)
        assert rep.gamma == _gamma(delta_km1, delta_k)


class TestOneDPForTwoCounts:
    """The exact ``irreducibility`` and the CLI's ``oracle`` read k and k - 1
    from one subset DP; each answer is the bits of its own
    ``optimal_bruteforce`` run."""

    @pytest.mark.parametrize("name", ["sq", "kl"])
    @pytest.mark.parametrize("n", [12, 13, 14])
    def test_both_counts_are_lone_runs(self, name, n):
        measure = MEASURES[name]
        points = instance(name, RngStream(n).derive(5).generator, n)
        lone = {j: optimal_bruteforce(points, j, measure)
                for j in [*range(1, 9), n - 1, n, n + 1]}
        for k in [*range(2, 9), n, n + 1]:
            for j, shared in zip((k - 1, k), _optimal_partitions(points, (k - 1, k), measure)):
                assert shared.optimal_cost.hex() == lone[j].optimal_cost.hex(), (k, j)
                assert shared.optimal_partition.dtype == lone[j].optimal_partition.dtype
                np.testing.assert_array_equal(shared.optimal_partition,
                                              lone[j].optimal_partition)
                assert shared.assignments_examined == lone[j].assignments_examined

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_one_block_runs_no_dp(self, name, monkeypatch):
        """At k = 1 the answer is the walk's on a DP run, bit for bit, and no
        DP runs: every point in block 0 at their mean, on n = 2..14 points,
        at the cost the DP holds for the full mask."""
        measure = MEASURES[name]
        gen = RngStream(15).derive(len(name)).generator
        built, build = [], oracle._subset_dp
        monkeypatch.setattr(oracle, "_subset_dp", lambda points, top, measure:
                            built.append(len(points)) or build(points, top, measure))
        for n in range(2, ORACLE_N_CAP + 1):
            points = instance(name, gen, n)
            lone = optimal_bruteforce(points, 1, measure)
            assert built == []
            dp = oracle._subset_dp(points, 2, measure)
            walked = oracle._recover(points, measure, dp, 1)
            built.clear()
            assert lone.optimal_cost.hex() == walked.optimal_cost.hex()
            assert lone.optimal_partition.dtype == walked.optimal_partition.dtype
            np.testing.assert_array_equal(lone.optimal_partition, np.zeros(n))
            np.testing.assert_array_equal(lone.optimal_partition, walked.optimal_partition)
            assert lone.assignments_examined == walked.assignments_examined == 1
            assert lone.optimal_cost == pytest.approx(dp[0][-1], rel=1e-9)

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_two_blocks_build_only_the_full_mask_pairs(self, name, monkeypatch):
        """At k = 2 the walk reads only the full mask's 2^(n-1) pairs, and
        only they are built, in the whole table's order: the result is the
        walk over the whole table bit for bit, on n = 3..14 points (k = n = 2
        runs no DP), general and mirror-symmetric, whose mirrored splits tie."""
        measure = MEASURES[name]
        gen = RngStream(16).derive(len(name)).generator
        built, build = [], oracle._subset_pairs
        monkeypatch.setattr(oracle, "_subset_pairs", lambda n: built.append(n) or build(n))
        for n in range(3, ORACLE_N_CAP + 1):
            block, rest, bounds = build(n)
            full = (1 << n) - 1
            assert bounds[full] == len(block) and bounds[full] - bounds[full - 1] == 1 << (n - 1)
            np.testing.assert_array_equal(oracle._full_mask_blocks(n), block[bounds[full - 1]:])
            np.testing.assert_array_equal(full ^ oracle._full_mask_blocks(n),
                                          rest[bounds[full - 1]:])
            for points in (instance(name, gen, n), mirrored(name, gen, n)):
                two = optimal_bruteforce(points, 2, measure)
                assert built == []
                whole = oracle._recover(points, measure, oracle._subset_dp(points, 3, measure), 2)
                assert built == [n]
                built.clear()
                assert two.optimal_cost.hex() == whole.optimal_cost.hex()
                assert two.optimal_partition.dtype == whole.optimal_partition.dtype
                np.testing.assert_array_equal(two.optimal_partition, whole.optimal_partition)
                assert two.assignments_examined == whole.assignments_examined

    @pytest.mark.parametrize("k,tables", [(2, 1), (5, 1), (12, 1), (13, 0)])
    def test_exact_irreducibility_builds_one_table(self, sq, monkeypatch, k, tables):
        """One block-cost table at most; none once both counts reach n."""
        calls = []
        build = oracle._subset_dp
        monkeypatch.setattr(oracle, "_subset_dp", lambda points, top, measure:
                            calls.append(len(points)) or build(points, top, measure))
        points = planted_points(*PLANTED_SMALL[0])
        rep = irreducibility(points, k, sq)
        assert calls == [12] * tables
        assert (rep.delta_km1, rep.delta_k) == tuple(
            optimal_bruteforce(points, j, sq).optimal_cost for j in (k - 1, k))


def reference_seeding(points, measure, k, stream):
    """A lone k-means++ seeding: pick i inverts the D² law of a CenterSet at
    the first counter uniform of ``stream.derive(i)``'s id s under the key K
    of ``stream``, the top 53 bits of splitmix64(splitmix64(s ^ K)) times
    2^-53, in plain Python integers; then CenterSet.add."""
    center_set, picked, key = CenterSet(points, measure), [], _counter_key(stream)
    for i in range(k):
        u = (_splitmix64(_splitmix64(stream.derive(i).stream_id ^ key)) >> 11) * 2.0 ** -53
        picked.append(int(weighted_draw(d2_law(center_set.potentials), [u])[0]))
        center_set = center_set.add(points[picked[-1]])
    return picked


def reference_lloyd(points, measure, centers, max_iters=100):
    """A lone Lloyd run from ``centers``: (centers, labels, cost trace)."""
    centers, prev, trace = centers.copy(), None, []
    labels, costs = assign(measure, points, centers)
    for _ in range(max_iters):
        trace.append(float(costs.sum()))
        if prev is not None and np.array_equal(labels, prev):
            return centers, labels, trace
        prev = labels
        for j in range(len(centers)):
            if np.any(labels == j):
                centers[j] = centroid(points[labels == j])
        labels, costs = assign(measure, points, centers)
    trace.append(float(costs.sum()))
    return centers, labels, trace


def baseline_points(name):
    """(measure, points): three loose blobs for sqeuclid and Mahalanobis, a
    uniform cloud in (0.15, 0.85)^3 for KL."""
    gen = RngStream(31).derive(len(name)).generator
    if name == "kl":
        return MEASURES[name], gen.uniform(0.15, 0.85, (50, 3))
    blobs = np.repeat(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]), 20, axis=0)
    return MEASURES[name], blobs + gen.standard_normal((60, 2))


class TestLockStepBaseline:
    """The k-means++/Lloyd baseline runs its restarts as one batch; each
    restart keeps every bit of a lone run through CenterSet, d2_law,
    weighted_draw, assign and centroid."""

    CASES = [(name, k) for name in ("sq", "kl", "mahalanobis") for k in (1, 2, 3, 4)]

    @staticmethod
    def streams(count=6):
        return [RngStream(50).derive(r) for r in range(count)]

    def start(self, name, k):
        """(measure, points, (A, k, d) starting centers): the k-means++ seedings,
        plus for k >= 2 one restart whose last center lies beyond every point
        and so keeps no member."""
        measure, points = baseline_points(name)
        seeds = [points[reference_seeding(points, measure, k, s)] for s in self.streams()]
        if k >= 2:
            far = seeds[0].copy()
            far[-1] = points.max(axis=0) + 5.0
            seeds.append(far)
        return measure, points, np.array(seeds)

    @pytest.mark.parametrize("name,k", CASES)
    def test_seedings_are_lone_seedings(self, name, k):
        measure, points = baseline_points(name)
        picks = _kmeanspp_picks(points, measure, k, self.streams())
        for row, stream in zip(picks, self.streams()):
            picked = reference_seeding(points, measure, k, stream)
            assert row.tolist() == picked
            lone = kmeanspp_seed(points, measure, k, stream)
            labels, costs = assign(measure, points, points[picked])
            assert lone.meta == {"seed": [stream.seed, stream.stream_id], "method": "kmeans++",
                                 "picked": picked}
            np.testing.assert_array_equal(lone.centers, points[picked])
            np.testing.assert_array_equal(lone.assignment, labels)
            assert lone.cost == float(costs.sum())

    @pytest.mark.parametrize("max_iters", [100, 2, 0])
    @pytest.mark.parametrize("name,k", CASES)
    def test_restarts_are_lone_runs(self, name, k, max_iters):
        measure, points, starts = self.start(name, k)
        centers = starts.copy()
        traces = _lloyd_restarts(points, measure, centers, max_iters)
        lengths = set()
        for a, start in enumerate(starts):
            ref_centers, ref_labels, ref_trace = reference_lloyd(points, measure, start, max_iters)
            assert centers[a].tobytes() == ref_centers.tobytes()
            np.testing.assert_array_equal(assign(measure, points, centers[a])[0], ref_labels)
            assert traces[a] == ref_trace
            lone = lloyd(points, measure, start, max_iters=max_iters)
            assert lone.centers.tobytes() == ref_centers.tobytes()
            np.testing.assert_array_equal(lone.assignment, ref_labels)
            assert lone.cost == ref_trace[-1]
            assert lone.meta == {"iterations": len(ref_trace), "cost_trace": ref_trace,
                                 "method": "lloyd"}
            lengths.add(len(ref_trace))
        if k >= 2:
            # the far restart's last cluster is emptied and keeps its center
            assert not np.any(assign(measure, points, centers[-1])[0] == k - 1)
            assert centers[-1, -1].tobytes() == starts[-1, -1].tobytes()
        if max_iters == 100 and k >= 2:
            assert len(lengths) > 1  # restarts leave the batch at different steps
        if max_iters == 2 and k >= 2:
            assert max(lengths) == 3  # some restart is cut off after two re-means

    @pytest.mark.parametrize("name,k", [("sq", 1), ("kl", 3), ("mahalanobis", 4)])
    def test_groups_do_not_change_bits(self, name, k, monkeypatch):
        measure, points, starts = self.start(name, k)
        n, d = points.shape
        whole_centers = starts.copy()
        whole = _lloyd_restarts(points, measure, whole_centers, 100)
        picks = _kmeanspp_picks(points, measure, k, self.streams())
        assert len(_restart_groups(len(starts), n * (k + d))) == 1
        for entries in (1, 2 * n * (k + d)):
            monkeypatch.setattr(ptas, "_CHUNK_ENTRIES", entries)
            assert len(_restart_groups(len(starts), n * (k + d))) > 1
            centers = starts.copy()
            assert _lloyd_restarts(points, measure, centers, 100) == whole
            assert centers.tobytes() == whole_centers.tobytes()
            np.testing.assert_array_equal(_kmeanspp_picks(points, measure, k, self.streams()),
                                          picks)

    @pytest.mark.parametrize("max_iters", [0, 1, 3, 100])
    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_lloyd_result_is_assign_on_its_centers(self, name, max_iters):
        """``lloyd`` builds its result with the engine's one result builder:
        its assignment and cost are ``assign`` on its returned centers, bit for
        bit, and its cost is the last cost of its lock-step trace."""
        measure = MEASURES[name]
        gen = RngStream(77).derive(len(name)).generator
        for k in range(3, 8):
            d = 2 if name == "mahalanobis" else int(gen.integers(2, 5))
            points = instance(name, gen, 40, d)
            start = points[gen.choice(len(points), k, replace=False)]
            result = lloyd(points, measure, start, max_iters=max_iters)
            labels, costs = assign(measure, points, result.centers)
            np.testing.assert_array_equal(result.assignment, labels)
            assert result.cost.hex() == float(costs.sum()).hex()
            assert result.cost.hex() == result.meta["cost_trace"][-1].hex()

    @pytest.mark.parametrize("name", ["sq", "kl", "mahalanobis"])
    def test_baseline_costs_are_lone_costs(self, name):
        measure, points = baseline_points(name)
        costs = _kmeanspp_lloyd(points, measure, 3, self.streams())
        assert costs == [reference_lloyd(points, measure,
                                         points[reference_seeding(points, measure, 3, s)])[2][-1]
                         for s in self.streams()]

    def test_cluster_report_takes_the_best_lone_run(self, sq, tmp_path):
        _, points = baseline_points("sq")
        path = tmp_path / "blobs.csv"
        write_points_csv(path, points)
        report = run_experiment({"input": str(path), "k": 3, "measure": "sqeuclid", "seed": 5})
        streams = [RngStream(5).derive(2).derive(r) for r in range(ptas.DESK_RESTARTS)]
        assert report["results"]["kmeanspp_lloyd"]["cost"] == min(
            reference_lloyd(points, sq, points[reference_seeding(points, sq, 3, s)])[2][-1]
            for s in streams)


@pytest.fixture(scope="module")
def cloud():
    return RngStream(96).generator.standard_normal((200, 5))


class TestInabaTrial:
    def test_report_fields(self, cloud):
        rep = inaba_trial(cloud, 25, 0.2, 500, RngStream(97))
        assert rep.details["bound_factor"] == pytest.approx(1.2)
        assert rep.details["sample_size"] == 25
        assert rep.details["delta"] == 0.2
        assert rep.details["required_rate"] == pytest.approx(0.75)
        assert rep.trials == 500
        assert rep.violations == round((1 - rep.details["success_rate"]) * 500)

    def test_gaussian_cloud_passes_easily(self, cloud):
        rep = inaba_trial(cloud, 25, 0.2, 500, RngStream(98))
        assert rep.passed
        assert rep.details["success_rate"] >= 0.9

    def test_identity_quadratic_matches_default(self, cloud):
        a = inaba_trial(cloud, 25, 0.2, 300, RngStream(99).derive(0))
        b = inaba_trial(cloud, 25, 0.2, 300, RngStream(99).derive(0),
                        measure=Mahalanobis(np.eye(5)))
        assert a.details["success_rate"] == b.details["success_rate"]
        assert a.worst_ratio == pytest.approx(b.worst_ratio, rel=1e-12)

    def test_validation(self, cloud):
        with pytest.raises(ConfigError):
            inaba_trial(cloud, 0, 0.2, 100, RngStream(1))
        with pytest.raises(ConfigError):
            inaba_trial(cloud, 25, 1.5, 100, RngStream(1))
        with pytest.raises(ConfigError):
            inaba_trial(cloud, 25, 0.2, 0, RngStream(1))

    def test_data_outside_the_domain_is_refused(self):
        """KL data with a non-positive coordinate raise, not a failed report."""
        data = RngStream(100).generator.uniform(0.1, 0.9, (50, 2))
        data[7, 1] = 0.0
        with pytest.raises(DomainError):
            inaba_trial(data, 5, 0.2, 100, RngStream(1), measure=KullbackLeibler())


LINE = np.array([[0.0], [1.0], [4.0], [5.0], [9.0]])

# each count argument outside the engine, as a call that passes it the value
COUNT_ARGUMENTS = {
    "optimal_bruteforce-k": lambda v: optimal_bruteforce(LINE, v, SquaredEuclidean()),
    "irreducibility-k": lambda v: irreducibility(LINE, v, SquaredEuclidean()),
    "inaba_trial-M": lambda v: inaba_trial(LINE, v, 0.2, 10, RngStream(1)),
    "inaba_trial-trials": lambda v: inaba_trial(LINE, 2, 0.2, v, RngStream(1)),
    "symmetry_report-dim": lambda v: symmetry_report(SquaredEuclidean(), v, 10, RngStream(1)),
    "symmetry_report-trials": lambda v: symmetry_report(SquaredEuclidean(), 2, v, RngStream(1)),
    "triangle_report-trials": lambda v: triangle_report(SquaredEuclidean(), 2, v, RngStream(1)),
    "centroid_report-instances": lambda v: centroid_report(
        SquaredEuclidean(), RngStream(1), instances=v),
    "generate_planted-k": lambda v: generate_planted(v, 5, 2, 10.0, 1.0, RngStream(1)),
    "generate_planted-per_cluster": lambda v: generate_planted(2, v, 2, 10.0, 1.0, RngStream(1)),
    "generate_planted-dim": lambda v: generate_planted(2, 5, v, 10.0, 1.0, RngStream(1)),
    "d2_sample-count": lambda v: d2_sample(
        CenterSet(LINE, SquaredEuclidean()), RngStream(1), v),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True, 0])
@pytest.mark.parametrize("argument", list(COUNT_ARGUMENTS))
def test_count_arguments_are_whole_numbers_of_at_least_one(argument, value):
    """A float is refused rather than truncated, True is not 1, and 0 is too few."""
    with pytest.raises(ConfigError):
        COUNT_ARGUMENTS[argument](value)
