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
from d2ptas.oracle import ORACLE_K_CAP, ORACLE_N_CAP

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
