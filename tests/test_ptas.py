"""Tests for the sampling-based clustering engine.

The engine's statistical behavior on the planted mixture is pinned to
specific seeds; the expectations were measured once and asserted with wide
margins so the tests are deterministic, not flaky.
"""

import numpy as np
import pytest

from d2ptas import (
    ConfigError,
    Exhaustive,
    InsufficientPoints,
    PtasConfig,
    RandomTrials,
    SquaredEuclidean,
    cluster_cost,
    default_eta,
    find_best_over_k,
    find_k_means,
    find_k_median,
    kmeanspp_seed,
    paper_scale_constants,
    parse_strategy,
    run_one_restart,
)
from d2ptas.divergences import GenericBregman, Mahalanobis, assign
from d2ptas.oracle import lloyd, optimal_bruteforce
from d2ptas.ptas import _distinct_sample_points, _prepare
from d2ptas.sampler import CenterSet, RngStream, d2_sample


def desk(k, **overrides):
    return PtasConfig(k=k, epsilon=0.5, **overrides)


class TestStrategies:
    def test_parse_exhaustive(self):
        assert isinstance(parse_strategy("exhaustive"), Exhaustive)

    def test_parse_random_default_and_explicit(self):
        assert parse_strategy("random").trials == 50
        assert parse_strategy("random:25").trials == 25
        assert parse_strategy(" RANDOM:8 ").trials == 8

    def test_parse_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_strategy("clever")
        with pytest.raises(ConfigError):
            parse_strategy("random:0")

    def test_random_trials_validated(self):
        with pytest.raises(ConfigError):
            RandomTrials(trials=0)

    def test_describe_strings(self):
        assert Exhaustive().describe() == "exhaustive"
        assert RandomTrials(12).describe() == "random:12"


class TestConfigResolution:
    def test_desk_defaults(self, sq):
        cfg = desk(3).resolved(sq)
        assert (cfg.sample_size_N, cfg.subset_size_M, cfg.restarts) == (100, 10, 8)
        assert cfg.subset_strategy.describe() == "random:50"
        assert cfg.eta == 20.0

    def test_paper_constants_squared_euclidean(self, sq):
        """N = ceil(51200 k / eps^3), M = ceil(100 / eps)."""
        cfg = PtasConfig(k=2, epsilon=0.5, scale_preset="paper").resolved(sq)
        assert (cfg.sample_size_N, cfg.subset_size_M) == (819200, 200)
        assert cfg.restarts == 4
        assert isinstance(cfg.subset_strategy, Exhaustive)

    def test_paper_constants_generic_quadratic(self):
        mah = Mahalanobis(np.eye(2))
        assert default_eta(mah) == 16.0
        assert paper_scale_constants(mah, 1, 0.5, 16.0) == (491520, 160)

    def test_paper_constants_bregman_half_mu(self):
        breg = GenericBregman(phi=lambda X: (X * X).sum(-1),
                              grad_phi=lambda X: 2 * X, mu=0.5)
        assert default_eta(breg) == 384.0
        assert paper_scale_constants(breg, 1, 0.5, 384.0) == (566231040, 7680)

    def test_epsilon_clamped_with_warning(self, sq):
        with pytest.warns(UserWarning, match="clamped"):
            cfg = PtasConfig(k=2, epsilon=0.9).resolved(sq)
        assert cfg.epsilon == 0.5

    def test_validation_errors(self, sq):
        with pytest.raises(ConfigError):
            PtasConfig(k=0, epsilon=0.5).resolved(sq)
        with pytest.raises(ConfigError):
            PtasConfig(k=2, epsilon=-1.0).resolved(sq)
        with pytest.raises(ConfigError):
            PtasConfig(k=2, epsilon=0.5, sample_size_N=5, subset_size_M=10).resolved(sq)
        with pytest.raises(ConfigError):
            PtasConfig(k=2, epsilon=0.5, restarts=0).resolved(sq)
        with pytest.raises(ConfigError):
            PtasConfig(k=2, epsilon=0.5, scale_preset="mainframe").resolved(sq)

    def test_summary_round_trip(self, sq):
        s = desk(3).resolved(sq).summary()
        assert s["strategy"] == "random:50" and s["scale_preset"] == "desk"


class TestTinyExhaustive:
    CFG = dict(sample_size_N=30, subset_size_M=2, restarts=4,
               subset_strategy=Exhaustive())

    def test_four_point_optimum(self, sq, four_point_line):
        res = find_k_median(four_point_line, sq, desk(2, **self.CFG), RngStream(1))
        assert res.cost == 1.0
        assert sorted(np.asarray(res.centers).ravel().tolist()) == [0.5, 4.5]
        assert res.assignment.tolist() == [0, 0, 1, 1] or res.assignment.tolist() == [1, 1, 0, 0]

    def test_deterministic_bitwise(self, sq, four_point_line):
        a = find_k_median(four_point_line, sq, desk(2, **self.CFG), RngStream(2))
        b = find_k_median(four_point_line, sq, desk(2, **self.CFG), RngStream(2))
        np.testing.assert_array_equal(np.asarray(a.centers), np.asarray(b.centers))
        assert a.cost == b.cost
        assert a.meta["winning_restart"] == b.meta["winning_restart"]

    def test_trace_contract(self, sq, four_point_line):
        res = run_one_restart(four_point_line, sq, desk(2, **self.CFG), RngStream(3))
        trace = res.meta["trace"]
        assert len(trace) == 2
        for i, entry in enumerate(trace):
            assert entry["iteration"] == i
            assert len(entry["sample"]) == 30
            assert "subset_points" in entry and "partial_cost" in entry
        # partial costs shrink as centers accumulate
        assert trace[1]["partial_cost"] <= trace[0]["partial_cost"]

    def test_zero_cost_branch_short_circuits(self, sq):
        """n = k distinct points inside a single restart: every point becomes
        a center and the enumeration stops at cost zero."""
        pts = np.array([[0.0], [2.0], [7.0]])
        res = run_one_restart(pts, sq, desk(3, **self.CFG), RngStream(4))
        assert res.cost == 0.0
        assert sorted(np.asarray(res.centers).ravel().tolist()) == [0.0, 2.0, 7.0]

    def test_subsets_examined_counted(self, sq, four_point_line):
        res = find_k_median(four_point_line, sq, desk(2, **self.CFG), RngStream(5))
        assert res.meta["subsets_examined"] > 0

    def test_value_equal_points_count_as_one_in_the_pool(self, sq):
        """0.0 and -0.0 are one value: no candidate pool may hold both."""
        pts = np.array([[0.0], [-0.0], [3.0], [5.0], [9.0]])
        res = run_one_restart(pts, sq, desk(2, **self.CFG), RngStream(6))
        trace = res.meta["trace"]
        assert {0, 1} <= set(trace[0]["sample"].tolist())  # both zeros were drawn
        for entry in trace:
            pool = pts[entry["pool"]]
            equal = (pool[:, None, :] == pool[None, :, :]).all(axis=-1)
            np.testing.assert_array_equal(equal, np.eye(len(pool), dtype=bool))

    def test_pool_dedupe_matches_a_reference_loop(self, sq, gen):
        """The pool keeps the first draw of each distinct value, in draw order."""
        for _ in range(200):
            n = int(gen.integers(1, 20))
            signs = gen.choice([1.0, -1.0], size=(n, 1))
            pts = gen.integers(-1, 2, size=(n, 2)) * 0.5 * signs  # duplicates and -0.0
            _, _, ids = _prepare(pts, sq, desk(1))
            sample = gen.integers(0, n, size=int(gen.integers(1, 30)))
            expected = []
            for i in sample:
                if not any(np.array_equal(pts[i], pts[j]) for j in expected):
                    expected.append(i)
            assert _distinct_sample_points(ids, sample[None, :])[0].tolist() == expected


class TestFindKMedianContracts:
    def test_insufficient_points(self, sq):
        with pytest.raises(InsufficientPoints):
            find_k_median([[1.0], [2.0]], sq, desk(3), RngStream(1))

    def test_n_equals_k_cost_zero_any_strategy(self, sq, four_point_line):
        for strategy in (RandomTrials(50), Exhaustive()):
            res = find_k_median(four_point_line, sq,
                                desk(4, sample_size_N=50, subset_size_M=5,
                                     restarts=2, subset_strategy=strategy),
                                RngStream(6))
            assert res.cost == 0.0
            assert sorted(np.asarray(res.centers).ravel().tolist()) == [0.0, 1.0, 4.0, 5.0]

    @pytest.mark.parametrize("overrides", [TestTinyExhaustive.CFG, {}], ids=["exhaustive", "random"])
    def test_never_below_the_oracle_far_from_the_origin(self, sq, gen, overrides):
        """At offset 1e6 the generator terms of the distance table cancel in
        their first ~12 digits; reported costs are still the closed form of a
        real assignment, so they never undercut the exact optimum."""
        for seed in range(3):
            pts = gen.standard_normal((10, 2)) + 1e6
            res = find_k_median(pts, sq, desk(2, **overrides), RngStream(seed))
            optimum = optimal_bruteforce(pts, 2, sq).optimal_cost
            assert res.cost >= optimum * (1 - 1e-9)
            assert res.cost == float(sq.rowwise(pts, np.asarray(res.centers)[res.assignment]).sum())

    def test_duplicates_collapse_to_distinct_values(self, sq):
        pts = np.array([[0.0], [0.0], [0.0], [2.0], [2.0], [2.0]])
        res = find_k_median(pts, sq, desk(3), RngStream(7))
        assert res.cost == 0.0

    def test_signed_zeros_are_one_distinct_value(self, sq):
        """Two distinct values, k=2: each value gets its own center."""
        pts = np.array([[0.0], [-0.0], [1.0]])
        res = find_k_median(pts, sq, desk(2), RngStream(7))
        assert res.cost == 0.0
        assert sorted(np.asarray(res.centers).ravel().tolist()) == [0.0, 1.0]

    def test_cost_equals_recomputed_cost(self, sq, planted):
        points, _, _ = planted
        res = find_k_median(points, sq, desk(3), RngStream(8))
        recomputed = cluster_cost(sq, points, res.centers)
        assert res.cost == pytest.approx(recomputed, rel=1e-9)
        labels, _ = assign(sq, points, res.centers)
        np.testing.assert_array_equal(labels, res.assignment)

    def test_threads_do_not_change_the_answer(self, sq, planted):
        points, _, _ = planted
        seq = find_k_median(points, sq, desk(3), RngStream(9))
        par = find_k_median(points, sq, desk(3), RngStream(9), threads=4)
        np.testing.assert_array_equal(np.asarray(seq.centers), np.asarray(par.centers))
        assert seq.cost == par.cost

    def test_more_restarts_never_hurt(self, sq, planted):
        """Restart r always consumes rng.derive(r), so a larger restart budget
        explores a superset of the same restarts."""
        points, _, _ = planted
        for seed in (21, 22, 23):
            costs = [find_k_median(points, sq, desk(3, restarts=r), RngStream(seed)).cost
                     for r in (2, 4, 8)]
            assert costs[0] >= costs[1] >= costs[2]

    def test_meta_contract(self, sq, planted):
        points, _, _ = planted
        res = find_k_median(points, sq, desk(3), RngStream(10))
        meta = res.meta
        assert meta["strategy"] == "random:50"
        assert meta["restarts"] == 8
        assert 0 <= meta["winning_restart"] < 8
        assert meta["subsets_examined"] == 8 * 3 * 50
        assert meta["config"]["k"] == 3
        assert len(meta["trace"]) == 3

    def test_nodes_expanded_counts_the_iterations_run(self, sq, planted):
        """RandomTrials expands one node per iteration: a draw and its scored menu."""
        points, _, _ = planted
        assert find_k_median(points, sq, desk(3), RngStream(10)).meta["nodes_expanded"] == 8 * 3
        three_values = np.array([[0.0], [0.0], [5.0], [5.0], [9.0]])
        cfg = desk(4, sample_size_N=10, subset_size_M=1, subset_strategy=RandomTrials(20))
        res = run_one_restart(three_values, sq, cfg, RngStream(3))
        assert res.cost == 0.0
        assert res.meta["nodes_expanded"] == len(res.meta["trace"]) == 3  # stops once covered

    def test_desk_quality_on_planted_fixture(self, sq, planted):
        """Pinned regression: the desk preset lands well inside 1.5x of the
        planted partition's own cost (measured ~1.14x on this seed)."""
        points, labels, _ = planted
        planted_cost = sum(
            cluster_cost(sq, points[labels == j], points[labels == j].mean(axis=0)[None])
            for j in range(3))
        res = find_k_median(points, sq, desk(3), RngStream(11))
        assert res.cost <= 1.5 * planted_cost


class TestAnchoredTrialsDiscipline:
    """The documented stream layout is a public contract: restart r derives
    stream r, iteration i derives i below that, the sample uses derive(0),
    trial t uses derive(1 + t).  The inline mirror below must reproduce the
    engine bit for bit."""

    @staticmethod
    def mirror_restart(points, measure, cfg, stream, trials):
        center_set = CenterSet.empty(points, measure)
        menus, centers = [], []
        for i in range(cfg.k):
            it = stream.derive(i)
            sample_idx = d2_sample(center_set, it.derive(0), cfg.sample_size_N)
            sample = points[sample_idx]
            anchors = np.array([
                int(it.derive(1 + t).generator.integers(cfg.sample_size_N))
                for t in range(trials)
            ])
            to_anchor = measure.pairwise(sample, sample[anchors])
            positions = np.argsort(to_anchor, axis=0, kind="stable")[:cfg.subset_size_M].T
            cands = sample[positions].mean(axis=1)
            scores = np.minimum(center_set.potentials[:, None],
                                measure.pairwise(points, cands)).sum(axis=0)
            best = int(np.argmin(scores))
            menus.append(cands)
            centers.append(cands[best])
            center_set = center_set.add(cands[best])
        return np.asarray(centers), menus

    def test_mirror_matches_engine(self, sq, planted):
        points, _, _ = planted
        cfg = desk(3).resolved(sq)
        for seed in (31, 32, 33):
            stream = RngStream(seed)
            engine = run_one_restart(points, sq, cfg, stream)
            mirror, _ = self.mirror_restart(points, sq, cfg, stream, 50)
            np.testing.assert_array_equal(np.asarray(engine.centers), mirror)

    def test_trial_budget_extends_without_reshuffling(self, sq, planted):
        """RandomTrials(25) draws a strict prefix of RandomTrials(50)'s
        candidate menu for the same stream."""
        points, _, _ = planted
        cfg_small = desk(3, subset_strategy=RandomTrials(25)).resolved(sq)
        stream = RngStream(34)
        _, menus_small = self.mirror_restart(points, sq, cfg_small, stream, 25)
        _, menus_big = self.mirror_restart(points, sq, cfg_small, stream, 50)
        np.testing.assert_array_equal(menus_small[0], menus_big[0][:25])

    @pytest.mark.parametrize("offset", [0.0, 1e6], ids=["planted", "offset"])
    def test_one_trial_is_the_first_of_two(self, sq, planted, offset):
        """RandomTrials(1) draws the first entry of RandomTrials(2)'s menu:
        a one-column distance table has the bits of a wider table's first column."""
        points = planted[0] + offset
        cfg = desk(3, subset_strategy=RandomTrials(1)).resolved(sq)
        for seed in (35, 36, 37):
            stream = RngStream(seed)
            _, menus_one = self.mirror_restart(points, sq, cfg, stream, 1)
            _, menus_two = self.mirror_restart(points, sq, cfg, stream, 2)
            np.testing.assert_array_equal(menus_one[0], menus_two[0][:1])


class TestCoverageTraceProperty:
    def test_covering_restarts_exist_and_imply_the_bound(self, sq, planted):
        """With cluster-sized anchored subsets, some restarts pick one center
        (1 + eps/20)-close in cost to each true cluster, matched distinctly;
        every restart that does achieves the final (1 + eps) bound.

        Measured at this scale: 20/20 restarts meet the final bound and about
        a third have fully covering traces; we assert a conservative floor.
        """
        points, labels, _ = planted
        eps = 0.5
        per_cluster = [
            float(cluster_cost(sq, points[labels == j], points[labels == j].mean(axis=0)[None]))
            for j in range(3)]
        planted_cost = sum(per_cluster)
        cfg = desk(3, sample_size_N=1800, subset_size_M=600, restarts=2).resolved(sq)

        covering = 0
        for seed in range(10):
            stream = RngStream(4000 + seed)
            for r in range(cfg.restarts):
                res = run_one_restart(points, sq, cfg, stream.derive(r))
                used = set()
                matched = True
                for entry in res.meta["trace"]:
                    c = np.asarray(entry["center"])[None]
                    hit = None
                    for j in range(3):
                        if j in used:
                            continue
                        if cluster_cost(sq, points[labels == j], c) <= (1 + eps / 20) * per_cluster[j]:
                            hit = j
                            break
                    if hit is None:
                        matched = False
                        break
                    used.add(hit)
                if matched:
                    covering += 1
                    assert res.cost <= (1 + eps) * planted_cost
        assert covering >= 3, f"only {covering}/20 covering restarts"


class TestKmeansppSeed:
    def test_centers_are_dataset_points(self, sq, planted):
        points, _, _ = planted
        res = kmeanspp_seed(points, sq, 3, RngStream(41))
        for c in np.asarray(res.centers):
            assert any(np.array_equal(c, p) for p in points)

    def test_deterministic(self, sq, planted):
        points, _, _ = planted
        a = kmeanspp_seed(points, sq, 3, RngStream(42))
        b = kmeanspp_seed(points, sq, 3, RngStream(42))
        np.testing.assert_array_equal(np.asarray(a.centers), np.asarray(b.centers))

    def test_k_equals_n_reaches_zero_cost(self, sq, four_point_line):
        res = kmeanspp_seed(four_point_line, sq, 4, RngStream(43))
        assert res.cost == 0.0

    def test_average_seeding_cost_dominates_engine_cost(self, sq, planted):
        """Seeding alone averages far above the full engine (measured ~3x)."""
        points, _, _ = planted
        engine = find_k_median(points, sq, desk(3), RngStream(44))
        stream = RngStream(45)
        avg = np.mean([kmeanspp_seed(points, sq, 3, stream.derive(r)).cost
                       for r in range(100)])
        assert avg >= engine.cost

    def test_validation(self, sq, four_point_line):
        with pytest.raises(ConfigError):
            kmeanspp_seed(four_point_line, sq, 0, RngStream(1))
        with pytest.raises(InsufficientPoints):
            kmeanspp_seed(four_point_line, sq, 9, RngStream(1))


class TestFindBestOverK:
    def test_identical_points_solved_at_k_one(self, sq):
        pts = np.full((6, 2), 3.5)
        res = find_best_over_k(pts, sq, desk(4), RngStream(51))
        assert res.cost == 0.0
        assert res.meta["runs"][0]["k"] == 1

    def test_planted_fixture_needs_all_three(self, sq, planted):
        points, _, _ = planted
        res = find_best_over_k(points, sq, desk(3), RngStream(52))
        winning = min(res.meta["runs"], key=lambda r: (r["cost"], r["k"]))
        assert winning["k"] == 3
        assert res.cost == winning["cost"]

    def test_scaled_epsilon_recorded(self, sq, planted):
        points, _, _ = planted
        res = find_best_over_k(points, sq, desk(3), RngStream(53))
        expected = 0.5 / ((1 + 0.25) * 3)
        assert res.meta["epsilon_scaled"] == pytest.approx(expected)
        assert res.meta["k_requested"] == 3

    def test_never_worse_than_full_k_run(self, sq, planted):
        points, _, _ = planted
        res = find_best_over_k(points, sq, desk(3), RngStream(54))
        full_k = [r for r in res.meta["runs"] if r["k"] == 3]
        assert len(full_k) == 1
        assert res.cost <= full_k[0]["cost"]


class TestGenericPathEquivalence:
    def test_find_k_means_is_the_specialized_alias(self, planted):
        points, _, _ = planted
        sq = SquaredEuclidean()
        a = find_k_means(points, desk(3), RngStream(61))
        b = find_k_median(points, sq, desk(3), RngStream(61))
        np.testing.assert_array_equal(np.asarray(a.centers), np.asarray(b.centers))
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.cost == b.cost

    def test_equivalence_on_tiny_exhaustive_instances(self, gen):
        sq = SquaredEuclidean()
        for seed in range(5):
            pts = gen.standard_normal((8, 2))
            cfg = desk(2, sample_size_N=60, subset_size_M=2, restarts=4,
                       subset_strategy=Exhaustive())
            a = find_k_means(pts, cfg, RngStream(70 + seed))
            b = find_k_median(pts, sq, cfg, RngStream(70 + seed))
            np.testing.assert_array_equal(np.asarray(a.centers), np.asarray(b.centers))
            assert a.cost == b.cost


class TestAgainstLocalSearch:
    def test_engine_is_comparable_to_polished_seeding(self, sq, planted):
        """Upper bound sanity: the engine should not be worse than 1.3x a
        single seeded local search (measured ~1.05-1.2x across seeds)."""
        points, _, _ = planted
        res = find_k_median(points, sq, desk(3), RngStream(81))
        seeded = kmeanspp_seed(points, sq, 3, RngStream(82))
        polished = lloyd(points, sq, seeded.centers)
        assert res.cost <= 1.3 * polished.cost
