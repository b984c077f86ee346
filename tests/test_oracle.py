"""Tests for the exact small-instance solvers and estimators."""

import itertools

import numpy as np
import pytest

from d2ptas import (
    ConfigError,
    DomainError,
    ItakuraSaito,
    KullbackLeibler,
    Mahalanobis,
    RngStream,
    SquaredEuclidean,
    TooLarge,
    inaba_trial,
    irreducibility,
    kmeanspp_seed,
    lloyd,
    optimal_bruteforce,
    subsample_extrapolation,
)
from d2ptas import ptas
from d2ptas.cli import run_experiment, write_points_csv
from d2ptas.divergences import assign, centroid
from d2ptas.oracle import ORACLE_K_CAP, ORACLE_N_CAP, _gamma, _kmeanspp_lloyd, _lloyd_restarts
from d2ptas.ptas import _kmeanspp_picks, _restart_groups
from d2ptas.sampler import CenterSet, d2_sample

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
    labels = np.array(list(itertools.product(range(k), repeat=n)))
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

    def test_size_caps(self, sq, gen):
        with pytest.raises(TooLarge):
            optimal_bruteforce(gen.standard_normal((ORACLE_N_CAP + 1, 2)), 2, sq)
        with pytest.raises(TooLarge):
            optimal_bruteforce(gen.standard_normal((10, 2)), ORACLE_K_CAP + 1, sq)

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


class TestSubsetDP:
    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_matches_unpruned_enumeration(self, name, gen):
        measure = MEASURES[name]
        for n in range(5, 9):
            pts = instance(name, gen, n)
            for k in range(1, 5):
                res = optimal_bruteforce(pts, k, measure)
                assert res.optimal_cost == pytest.approx(
                    exhaustive_partition_cost(pts, k, measure), rel=1e-12), (n, k)
                assert res.assignments_examined == k ** (n - 1)

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
        res = optimal_bruteforce(pts, ORACLE_K_CAP, sq)
        stream = RngStream(89)
        best = min(lloyd(pts, sq, kmeanspp_seed(pts, sq, ORACLE_K_CAP, stream.derive(r)).centers).cost
                   for r in range(20))
        assert res.optimal_cost <= best
        assert res.assignments_examined == ORACLE_K_CAP ** (ORACLE_N_CAP - 1)


class TestLloyd:
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
        with pytest.raises(ConfigError):
            lloyd(four_point_line, sq, np.zeros((2, 3)))

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
        assert rep.exact is True

    def test_both_costs_zero_gives_zero(self, sq):
        rep = irreducibility(np.zeros((5, 2)), 2, sq)
        assert rep.gamma == 0.0

    def test_only_k_cost_zero_gives_infinity(self, sq):
        pts = np.array([[0.0], [0.0], [1.0], [1.0]])
        rep = irreducibility(pts, 2, sq)
        assert rep.delta_k == 0.0 and rep.gamma == np.inf

    def test_approximate_mode_close_to_exact(self, sq, four_point_line):
        rep = irreducibility(four_point_line, 2, sq, mode="approximate",
                             rng=RngStream(91))
        assert rep.exact is False
        assert rep.gamma == pytest.approx(16.0, rel=1e-9)

    def test_approximate_mode_needs_rng(self, sq, four_point_line):
        with pytest.raises(ConfigError):
            irreducibility(four_point_line, 2, sq, mode="approximate")

    def test_validation(self, sq, four_point_line):
        with pytest.raises(ConfigError):
            irreducibility(four_point_line, 1, sq)
        with pytest.raises(ConfigError):
            irreducibility(four_point_line, 2, sq, mode="psychic")


def reference_seeding(points, measure, k, stream):
    """A lone k-means++ seeding: per pick, one d2_sample draw on ``stream.derive(i)``
    from a CenterSet, then CenterSet.add."""
    center_set, picked = CenterSet.empty(points, measure), []
    for i in range(k):
        picked.append(int(d2_sample(center_set, stream.derive(i), 1)[0]))
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
    restart keeps every bit of a lone run through CenterSet, d2_sample,
    assign and centroid."""

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
        labels, traces = _lloyd_restarts(points, measure, centers, max_iters)
        lengths = set()
        for a, start in enumerate(starts):
            ref_centers, ref_labels, ref_trace = reference_lloyd(points, measure, start, max_iters)
            assert centers[a].tobytes() == ref_centers.tobytes()
            np.testing.assert_array_equal(labels[a], ref_labels)
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
            assert not np.any(labels[-1] == k - 1)
            assert centers[-1, -1].tobytes() == starts[-1, -1].tobytes()
        if max_iters == 100 and k >= 2:
            assert len(lengths) > 1  # restarts leave the batch at different steps
        if max_iters == 2 and k >= 2:
            assert max(lengths) == 3  # some restart is cut off after two re-means

    @pytest.mark.parametrize("name,k", [("sq", 1), ("kl", 3), ("mahalanobis", 4)])
    def test_groups_do_not_change_bits(self, name, k, monkeypatch):
        measure, points, starts = self.start(name, k)
        n, d = points.shape
        whole = _lloyd_restarts(points, measure, starts.copy(), 100)
        picks = _kmeanspp_picks(points, measure, k, self.streams())
        assert len(_restart_groups(len(starts), n * (k + d))) == 1
        for entries in (1, 2 * n * (k + d)):
            monkeypatch.setattr(ptas, "_CHUNK_ENTRIES", entries)
            assert len(_restart_groups(len(starts), n * (k + d))) > 1
            centers = starts.copy()
            labels, traces = _lloyd_restarts(points, measure, centers, 100)
            np.testing.assert_array_equal(labels, whole[0])
            assert traces == whole[1]
            np.testing.assert_array_equal(_kmeanspp_picks(points, measure, k, self.streams()),
                                          picks)

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

    @pytest.mark.parametrize("name", ["sq", "kl"])
    def test_approximate_irreducibility_at_a_fixed_seed(self, name):
        measure, points = baseline_points(name)
        rng = RngStream(91)
        rep = irreducibility(points, 3, measure, mode="approximate", restarts=5, rng=rng)

        def best_of(j, stream):
            return min(reference_lloyd(points, measure, points[reference_seeding(
                points, measure, j, stream.derive(r))])[2][-1] for r in range(5))

        delta_k, delta_km1 = best_of(3, rng.derive(0)), best_of(2, rng.derive(1))
        assert (rep.k, rep.delta_k, rep.delta_km1, rep.exact) == (3, delta_k, delta_km1, False)
        assert rep.gamma == _gamma(delta_km1, delta_k)

    def test_approximate_irreducibility_needs_a_restart(self, sq, four_point_line):
        for restarts in (0, -1):
            with pytest.raises(ConfigError, match="at least one restart"):
                irreducibility(four_point_line, 2, sq, mode="approximate", restarts=restarts,
                               rng=RngStream(1))


class TestSubsampleExtrapolation:
    def test_small_instance_returns_exact_optimum(self, sq, four_point_line):
        est = subsample_extrapolation(four_point_line, 2, sq, RngStream(92))
        assert est == optimal_bruteforce(four_point_line, 2, sq).optimal_cost

    def test_deterministic(self, sq, planted):
        points, _, _ = planted
        a = subsample_extrapolation(points, 3, sq, RngStream(93))
        b = subsample_extrapolation(points, 3, sq, RngStream(93))
        assert a == b

    def test_lands_near_the_planted_cost(self, sq, planted):
        """Wide sanity window: the estimate should be the right order of
        magnitude (the planted partition costs ~566 on this fixture)."""
        points, labels, _ = planted
        planted_cost = sum(
            float(sq.rowwise(points[labels == j],
                             points[labels == j].mean(axis=0)[None]).sum())
            for j in range(3))
        est = subsample_extrapolation(points, 3, sq, RngStream(94))
        assert 0.3 * planted_cost <= est <= 3.0 * planted_cost

    def test_validation(self, sq, planted):
        points, _, _ = planted
        with pytest.raises(ConfigError):
            subsample_extrapolation(points, 3, sq, RngStream(95), repeats=0)
        with pytest.raises(ConfigError):
            subsample_extrapolation(points, 3, sq, RngStream(95), subsample_size=3)
        with pytest.raises(ConfigError):
            subsample_extrapolation(points, 3, sq, RngStream(95),
                                    subsample_size=ORACLE_N_CAP + 1)


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
