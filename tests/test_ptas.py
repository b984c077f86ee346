"""Tests for the sampling-based clustering engine.

The engine's statistical behavior on the planted mixture is pinned to
specific seeds; the expectations were measured once and asserted with wide
margins so the tests are deterministic, not flaky.
"""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import d2ptas
from d2ptas import (
    ConfigError,
    DomainError,
    Exhaustive,
    InsufficientPoints,
    KullbackLeibler,
    PtasConfig,
    RandomTrials,
    SquaredEuclidean,
    cluster_cost,
    find_k_means,
    find_k_median,
    kmeanspp_seed,
    paper_scale_constants,
    parse_strategy,
    run_one_restart,
)
from d2ptas.divergences import GenericBregman, Mahalanobis, assign
from d2ptas.oracle import optimal_bruteforce
from d2ptas import ptas
from d2ptas.ptas import (_combo_groups, _combo_table, _distinct_sample_points, _prepare,
                         _value_ids, lloyd)
from d2ptas.sampler import CenterSet, RngStream, _counter_key, _splitmix64, d2_law, weighted_draw

MASK64 = 2 ** 64 - 1


def desk(k, **overrides):
    return PtasConfig(k=k, epsilon=0.5, **overrides)


def counter_uniforms(stream_id, key, count):
    """The first ``count`` counter uniforms of ``stream_id`` under ``key``, in
    plain Python integers: the j-th is the top 53 bits of
    splitmix64(splitmix64(stream_id ^ key) + j) times 2^-53."""
    base = _splitmix64(stream_id ^ key)
    return np.array([(_splitmix64((base + j) & MASK64) >> 11) * 2.0 ** -53
                     for j in range(count)])


def reference_sample(center_set, stream, key, count):
    """``count`` D² draws: the law of ``center_set`` inverted at the counter
    uniforms of ``stream``'s id under ``key``."""
    return weighted_draw(d2_law(center_set.potentials),
                         counter_uniforms(stream.stream_id, key, count))


def reference_anchors(stream, key, trials, size):
    """Trial t's anchor, floor(u * size) for u the first counter uniform of
    ``stream.derive(1 + t)``'s id under ``key``."""
    return np.array([int(counter_uniforms(stream.derive(1 + t).stream_id, key, 1)[0] * size)
                     for t in range(trials)])


def roots_and_keys(streams):
    """What ``_run_restarts`` takes for ``streams``: their ids and keys, as uint64 arrays."""
    return (np.array([stream.stream_id for stream in streams], dtype=np.uint64),
            np.array([_counter_key(stream) for stream in streams], dtype=np.uint64))


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
        with pytest.raises(ConfigError, match="bad trial count"):
            parse_strategy("random:x")

    def test_random_trials_validated(self):
        for trials in (0, -1, 2.5, 2.0, True, "3"):
            with pytest.raises(ConfigError):
                RandomTrials(trials=trials)
        assert RandomTrials(np.int64(3)).describe() == "random:3"

    def test_describe_strings(self):
        assert Exhaustive().describe() == "exhaustive"
        assert RandomTrials(12).describe() == "random:12"


class TestConfigResolution:
    def test_desk_defaults(self, sq):
        cfg = desk(3).resolved(sq)
        assert (cfg.sample_size_N, cfg.subset_size_M, cfg.restarts) == (100, 10, 8)
        assert cfg.subset_strategy.describe() == "random:50"

    def test_paper_constants_squared_euclidean(self, sq):
        """N = ceil(51200 k / eps^3), M = ceil(100 / eps)."""
        cfg = PtasConfig(k=2, epsilon=0.5, scale_preset="paper").resolved(sq)
        assert (cfg.sample_size_N, cfg.subset_size_M) == (819200, 200)
        assert cfg.restarts == 4
        assert isinstance(cfg.subset_strategy, Exhaustive)

    def test_paper_constants_generic_quadratic(self):
        mah = Mahalanobis(np.eye(2))
        assert paper_scale_constants(mah, 1, 0.5) == (491520, 160)

    def test_paper_constants_bregman_half_mu(self):
        breg = GenericBregman(phi=lambda X: (X * X).sum(-1),
                              grad_phi=lambda X: 2 * X, mu=0.5)
        assert paper_scale_constants(breg, 1, 0.5) == (566231040, 7680)

    @pytest.mark.parametrize("name", ["default_eta", "find_best_over_k"])
    def test_removed_entry_points_are_gone(self, name):
        """eta lives inside paper_scale_constants, and the reduction over
        i = 1..k centers is no entry point."""
        assert name not in ptas.__all__
        for module in (d2ptas, ptas):
            with pytest.raises(AttributeError):
                getattr(module, name)

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
        # counts are integers: a float is refused, not truncated
        for bad in (dict(k=2.5), dict(k=-1), dict(sample_size_N=20.7), dict(subset_size_M=2.0),
                    dict(restarts=1.9), dict(restarts=-2), dict(restarts=False)):
            with pytest.raises(ConfigError):
                PtasConfig(**{"k": 2, "epsilon": 0.5, **bad}).resolved(sq)
        cfg = PtasConfig(k=np.int64(2), epsilon=0.5, sample_size_N=np.int32(20),
                         subset_size_M=np.uint8(3), restarts=np.int64(2)).resolved(sq)
        assert cfg.summary() == {"k": 2, "epsilon": 0.5, "sample_size_N": 20, "subset_size_M": 3,
                                 "restarts": 2, "strategy": "random:50",
                                 "scale_preset": "desk"}
        assert all(type(v) is int for v in (cfg.k, cfg.sample_size_N, cfg.subset_size_M,
                                            cfg.restarts))

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

    def test_key_leaves_the_callers_stream_alone(self, sq, gen):
        """The tree's key comes from a fresh generator of the stream's (seed,
        id): two runs on one stream object, one on a stream whose generator
        was already advanced, and one on a fresh stream are bit-identical."""
        pts = gen.standard_normal((9, 1))
        stream, used = RngStream(7, 12), RngStream(7, 12)
        used.generator.random(5)
        runs = [run_one_restart(pts, sq, desk(2, **self.CFG), s)
                for s in (stream, stream, used, RngStream(7, 12))]
        assert stream._gen is None
        for res in runs[:-1]:
            assert res.cost == runs[-1].cost
            np.testing.assert_array_equal(res.centers, runs[-1].centers)
            for mine, theirs in zip(res.meta["trace"], runs[-1].meta["trace"], strict=True):
                np.testing.assert_array_equal(mine["sample"], theirs["sample"])
                assert mine["subset_rank"] == theirs["subset_rank"]

    def test_the_seed_enters_the_tree_draws(self, sq, gen):
        """Equal stream ids under two seeds draw different root samples.  The
        greedy's and the baseline's counterpart is in
        ``TestAnchoredTrialsDiscipline``."""
        pts = gen.standard_normal((12, 1))
        samples = [run_one_restart(pts, sq, desk(2, **self.CFG), RngStream(seed, 5))
                   .meta["trace"][0]["sample"] for seed in (1, 2)]
        assert not np.array_equal(*samples)

    def test_n_equals_k_runs_no_search(self, sq):
        """n = k distinct points inside a single restart: every point becomes
        a center without a search."""
        pts = np.array([[0.0], [2.0], [7.0]])
        res = run_one_restart(pts, sq, desk(3, **self.CFG), RngStream(4))
        assert res.cost == 0.0
        assert res.centers.tobytes() == pts.tobytes()
        assert res.meta["trace"] == [] and res.meta["nodes_expanded"] == 0

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
        """Each row of a stack of draws keeps the first draw of each distinct
        value, in draw order: row b of the table holds them in its first
        counts[b] entries.  Stacks mix a row of one value, a row that holds
        every value where the draws are long enough, and rows in between;
        0.0 and -0.0 are one value."""
        mixed = full = 0
        for _ in range(200):
            n = int(gen.integers(1, 20))
            signs = gen.choice([1.0, -1.0], size=(n, 1))
            pts = gen.integers(-1, 2, size=(n, 2)) * 0.5 * signs  # duplicates and -0.0
            if n >= 3:
                pts[:3] = [[0.0, -0.0], [-0.0, 0.0], [1.0, 1.0]]
            ids = _value_ids(_prepare(pts, sq, desk(1))[0])
            size = int(gen.integers(1, 30))
            rows = gen.integers(0, n, size=(int(gen.integers(2, 7)), size))
            rows[0] = gen.integers(0, n)
            if size >= n:
                rows[-1, :n] = gen.permutation(n)
                full += 1
            expected = []
            for row in rows:
                expected.append([])
                for i in row:
                    if not any(np.array_equal(pts[i], pts[j]) for j in expected[-1]):
                        expected[-1].append(i)
            table, counts = _distinct_sample_points(ids, rows)
            assert counts.tolist() == [len(pool) for pool in expected]
            assert [table[b, :c].tolist() for b, c in enumerate(counts)] == expected
            mixed += len(set(counts.tolist())) > 1
        assert mixed > 100 and full > 50, (mixed, full)

    def test_cached_combinations_are_read_only(self):
        """The combination caches hand the same arrays to every search, so an
        in-place edit by one caller must fail rather than corrupt the next."""
        for array in (*_combo_groups(5, 3), *_combo_table(5, 3)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7
        assert _combo_groups(5, 3)[0][0, 0] == 0


class TestExhaustiveBudget:
    """An exhaustive run that could score more than 10^9 subsets is refused:
    restarts * sum_{j<=k} menu^j, with menu the subsets of 1..M of
    min(N, distinct values) sample points."""

    EXACT_SMALL = dict(sample_size_N=239, subset_size_M=2, restarts=2,
                       subset_strategy=Exhaustive())

    def test_desk_exhaustive_on_300_points_is_refused_before_any_draw(self, sq, planted,
                                                                      monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(ptas, "weighted_draw", no_draw)
        monkeypatch.setattr(ptas, "d2_sample", no_draw)
        with pytest.raises(ConfigError, match=r"about 10\^41 subsets \(8 restarts, k=3"):
            find_k_median(planted[0], sq, desk(3, subset_strategy=Exhaustive()), RngStream(1))

    def test_exact_small_shape_counts_961428_subsets(self, sq, gen, monkeypatch):
        # menu 12 + C(12, 2) = 78; 2 * (78 + 78^2 + 78^3) = 961428
        points = gen.standard_normal((12, 2))
        find_k_median(points, sq, desk(3, **self.EXACT_SMALL), RngStream(1))
        monkeypatch.setattr(ptas, "ENUMERATION_BUDGET", 961_428)  # the budget itself runs
        find_k_median(points, sq, desk(3, **self.EXACT_SMALL), RngStream(1))
        monkeypatch.setattr(ptas, "ENUMERATION_BUDGET", 961_427)
        with pytest.raises(ConfigError, match="search of 961428 subsets"):
            find_k_median(points, sq, desk(3, **self.EXACT_SMALL), RngStream(1))
        monkeypatch.setattr(ptas, "ENUMERATION_BUDGET", 480_713)
        with pytest.raises(ConfigError, match="search of 480714 subsets"):  # one restart
            run_one_restart(points, sq, desk(3, **self.EXACT_SMALL), RngStream(1))

    def test_every_criterion_5_config_is_admitted(self, sq):
        for i in range(50):  # the instances of test_criterion_5_matches_the_exact_oracle
            gen = RngStream(2000 + i).derive(0).generator
            n, k, d = int(gen.integers(5, 11)), int(gen.integers(2, 4)), int(gen.integers(1, 4))
            cfg = PtasConfig(k=k, epsilon=0.5, sample_size_N=int(np.ceil(8.0 * n * np.log(n))),
                             subset_size_M=2, restarts=2 ** k, subset_strategy=Exhaustive())
            points, cfg = _prepare(gen.standard_normal((n, d)), sq, cfg)
            ids = _value_ids(points)
            ptas._check_tree_size(cfg, int(ids.max()) + 1, cfg.restarts)

    def test_a_menu_past_10_18_is_refused_without_a_count(self, sq):
        # C(1000, 8) alone is ~2.4e19, so the menu sum stops there
        cfg = desk(2, sample_size_N=1000, subset_size_M=20, subset_strategy=Exhaustive())
        with pytest.raises(ConfigError, match=r"search of more than 10\^18 subsets"):
            find_k_median(np.arange(1000.0), sq, cfg, RngStream(1))

    def test_at_most_k_distinct_values_need_no_search(self, sq):
        # 64 restarts of menu 2^6 - 1 would count ~4e12 subsets, but no search runs
        cfg = PtasConfig(k=6, epsilon=0.5, scale_preset="paper")
        assert find_k_median(np.arange(6.0), sq, cfg, RngStream(1)).cost == 0.0


class TestFindKMedianContracts:
    def test_insufficient_points(self, sq):
        with pytest.raises(InsufficientPoints):
            find_k_median([[1.0], [2.0]], sq, desk(3), RngStream(1))

    @pytest.mark.parametrize("strategy", [Exhaustive(), RandomTrials(5)],
                             ids=["exhaustive", "random"])
    def test_a_search_without_a_finite_cost_is_refused(self, strategy):
        """exp overflows past 709.78, so no center gives the point 710 a
        finite divergence: no leaf and no restart has a finite cost."""
        measure = GenericBregman(phi=lambda X: np.exp(X).sum(-1), grad_phi=np.exp, mu=0.5,
                                 domain="unrestricted", box=None)
        points = np.array([[0.0], [1.0], [2.0], [709.0], [709.5], [710.0]])
        cfg = desk(2, sample_size_N=6, subset_size_M=2, restarts=2, subset_strategy=strategy)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DomainError, match="winning cost is inf"):
            find_k_median(points, measure, cfg, RngStream(1))

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
        """``threads`` is accepted and has no effect: 20 restarts at n = 300
        give the same result with ``threads=4`` as without."""
        points, _, _ = planted
        cfg = desk(3, restarts=20)
        seq = find_k_median(points, sq, cfg, RngStream(9))
        par = find_k_median(points, sq, cfg, RngStream(9), threads=4)
        np.testing.assert_array_equal(np.asarray(seq.centers), np.asarray(par.centers))
        assert seq.cost == par.cost
        untimed = [{k: v for k, v in res.meta.items() if k not in ("seconds", "trace")}
                   for res in (seq, par)]
        assert untimed[0] == untimed[1]
        TestLockStepRestarts.assert_same_trace(seq.meta["trace"], par.meta["trace"])

    def test_results_do_not_depend_on_the_blas_thread_count(self):
        """The desk preset at desk_large's shape (n = 4000, d = 16, k = 10,
        8 restarts) gives the same whole result, traces included, at one
        BLAS thread and at two."""
        script = (
            "import hashlib, numpy as np\n"
            "from d2ptas import PtasConfig, RngStream, SquaredEuclidean, find_k_median\n"
            "g = np.random.default_rng(14)\n"
            "c = g.uniform(0.0, 100.0, size=(10, 16))\n"
            "p = np.repeat(c, 400, axis=0) + g.standard_normal((4000, 16))\n"
            "r = find_k_median(p, SquaredEuclidean(), PtasConfig(k=10, epsilon=0.5), "
            "RngStream(5))\n"
            "h = hashlib.sha256()\n"
            "for a in (r.centers, r.assignment, np.float64(r.cost)):\n"
            "    h.update(a.tobytes())\n"
            "h.update(repr({k: v for k, v in r.meta.items() "
            "if k not in ('seconds', 'trace')}).encode())\n"
            "for entry in r.meta['trace']:\n"
            "    for k in sorted(entry):\n"
            "        h.update(k.encode() + np.asarray(entry[k]).tobytes())\n"
            "print(h.hexdigest())\n")
        src = str(Path(d2ptas.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p)}
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.strip())
        assert digests[0] == digests[1]

    def test_only_the_winning_trace_is_kept(self, sq, four_point_line, monkeypatch):
        """Each exhaustive trace entry holds its N-point sample.  Only the
        winning restart replays its path, so the traced peak grows by less
        than one trace as restarts go from 2 to 8; the counters still cover
        every restart.  Batches hold one node, so that the restarts' roots do
        not share one batch of 8 draws."""
        monkeypatch.setattr(ptas, "_BATCH_ENTRIES", 1)  # below one node's entries

        def run(restarts):
            cfg = PtasConfig(k=2, epsilon=0.5, sample_size_N=50_000, subset_size_M=2,
                             restarts=restarts, subset_strategy=Exhaustive())
            return find_k_median(four_point_line, sq, cfg, RngStream(5))

        run(1)  # caches filled once, outside the measurements
        peak = TestGreedyScoring.traced_peak
        trace = sum(np.asarray(v).nbytes for e in run(2).meta["trace"] for v in e.values())
        assert trace > 2 * 50_000 * 8
        assert peak(lambda: run(8)) - peak(lambda: run(2)) < trace
        counts = [run(r).meta["nodes_expanded"] for r in (1, 8)]
        assert counts[1] == 8 * counts[0]

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
        res = run_one_restart(points, sq, desk(3), RngStream(10))
        assert res.meta["nodes_expanded"] == len(res.meta["trace"]) == 3

    def test_both_entry_points_report_the_same_meta_fields(self, sq, planted):
        """One body builds both entry points' meta: a lone restart is restart
        0 of 1, and the same seed's restart 0 gives the same counters."""
        points, _, _ = planted
        cfg = desk(3, restarts=1)
        lone = run_one_restart(points, sq, cfg, RngStream(10).derive(0))
        best = find_k_median(points, sq, cfg, RngStream(10))
        assert list(lone.meta) == list(best.meta)
        assert lone.meta["restarts"] == best.meta["restarts"] == 1
        assert lone.meta["winning_restart"] == best.meta["winning_restart"] == 0
        for key in ("subsets_examined", "nodes_expanded", "iterations", "config"):
            assert lone.meta[key] == best.meta[key]
        assert lone.centers.tobytes() == best.centers.tobytes()

    @pytest.mark.parametrize("strategy", [RandomTrials(20), Exhaustive()],
                             ids=["random", "exhaustive"])
    @pytest.mark.parametrize("values,picked", [((0.0, 0.0, 5.0, 5.0, 9.0), [0, 2, 4, 0]),
                                               ((-0.0, 3.0, 0.0, 3.0, 3.0), [0, 1, 0, 1])],
                             ids=["three", "two"])
    def test_at_most_k_values_run_no_search_in_either_entry_point(self, sq, strategy, values,
                                                                 picked):
        """On at most k distinct values run_one_restart, like find_k_median,
        draws nothing: each value's first point is a center, the leading
        points pad the list to k, the trace is empty and the counters are 0."""
        points = np.array(values)[:, None]
        cfg = desk(4, sample_size_N=10, subset_size_M=1, subset_strategy=strategy)
        lone = run_one_restart(points, sq, cfg, RngStream(3))
        best = find_k_median(points, sq, cfg, RngStream(3))
        want = points[picked]
        for res in (lone, best):
            assert res.centers.tobytes() == want.tobytes()
            assert res.cost == 0.0
            assert res.meta["trace"] == []
            assert res.meta["subsets_examined"] == res.meta["nodes_expanded"] == 0
            assert res.meta["restarts"] == res.meta["winning_restart"] == 0
        assert lone.assignment.tolist() == best.assignment.tolist()

    @pytest.mark.parametrize("strategy", [RandomTrials(50), Exhaustive()],
                             ids=["random", "exhaustive"])
    def test_a_closed_box_domain_accepts_its_own_boundary_means(self, strategy):
        """On a domain that is the closed box [0.01, 0.1], the float mean of
        three 0.1s is 0.10000000000000002, just outside it.  Centers are
        subset means, which the engine does not check against the domain, so
        both strategies return a finite cost, the closed form of their
        centers."""
        measure = GenericBregman(phi=lambda X: (X * np.log(X) - X).sum(-1), grad_phi=np.log,
                                 mu=0.05, box=(0.01, 0.1), domain=(0.01, 0.1))
        points = np.array([0.1] * 20 + [0.01] * 20 + [0.05] * 5)[:, None]
        cfg = desk(2, sample_size_N=10, subset_size_M=3, restarts=2, subset_strategy=strategy)
        res = find_k_median(points, measure, cfg, RngStream(1))
        assert np.isfinite(res.cost)
        assert res.cost == cluster_cost(measure, points, res.centers)

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
    stream r, iteration i derives i below that, the sample inverts the D² law
    at the counter uniforms of derive(0)'s id, and trial t's anchor is
    floor(u * N) for u the first counter uniform of derive(1 + t)'s id.  All
    are under the restart stream's key K: the j-th uniform of id s is the top
    53 bits of splitmix64(splitmix64(s ^ K) + j) times 2^-53.  The inline
    mirror below must reproduce the engine bit for bit."""

    @staticmethod
    def mirror_restart(points, measure, cfg, stream, trials):
        center_set = CenterSet(points, measure)
        menus, centers, key = [], [], _counter_key(stream)
        for i in range(cfg.k):
            it = stream.derive(i)
            sample = points[reference_sample(center_set, it.derive(0), key, cfg.sample_size_N)]
            anchors = reference_anchors(it, key, trials, cfg.sample_size_N)
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

    def test_engine_trial_budget_extends_without_reshuffling(self, planted):
        """On the engine itself: RandomTrials(25) scores a strict prefix of
        RandomTrials(50)'s first candidate menu for the same stream."""
        points = planted[0]

        class MenuRecorder(SquaredEuclidean):
            def __init__(self):
                super().__init__()
                self.menus = []

            def pairwise(self, P, C, point_side=None):
                if len(P) == len(points):  # the candidate scoring table
                    self.menus.append(np.array(C))
                return super().pairwise(P, C, point_side)

        menus = {}
        for trials in (25, 50):
            recorder = MenuRecorder()
            run_one_restart(points, recorder, desk(3, subset_strategy=RandomTrials(trials)),
                            RngStream(34))
            menus[trials] = recorder.menus[0]
        assert menus[25].shape == (1, 25, 2) and menus[50].shape == (1, 50, 2)
        np.testing.assert_array_equal(menus[25], menus[50][:, :25])

    def test_the_seed_enters_the_greedy_and_the_baseline(self, sq, planted, monkeypatch):
        """Equal stream ids under two seeds draw different greedy samples, at
        the first iteration's uniform law already, different anchors and
        different k-means++ picks: every draw is keyed by its seed."""
        points = planted[0]
        anchors, indices = [], ptas._uniform_indices

        def recorded(uniforms, n):
            anchors.append(indices(uniforms, n))
            return anchors[-1]

        monkeypatch.setattr(ptas, "_uniform_indices", recorded)
        traces, picks = [], []
        for seed in (1, 2):
            stream = RngStream(seed, 5)
            traces.append(run_one_restart(points, sq, desk(3), stream).meta["trace"])
            picks.append(kmeanspp_seed(points, sq, 3, stream).meta["picked"])
        assert len(anchors) == 6 and anchors[0].shape == (50,)
        for i in range(3):
            assert not np.array_equal(traces[0][i]["sample"], traces[1][i]["sample"])
            assert not np.array_equal(anchors[i], anchors[3 + i])
        assert picks[0] != picks[1]

    def test_largest_uniform_anchors_the_last_sample_position(self, sq, planted, monkeypatch):
        monkeypatch.setattr(ptas, "_counter_uniforms",
                            lambda ids, count, key: np.full((len(ids), count), 1.0 - 2.0 ** -53))
        res = run_one_restart(planted[0], sq, desk(3, sample_size_N=239), RngStream(38))
        assert [entry["anchor"] for entry in res.meta["trace"]] == [238, 238, 238]

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


class TestGreedyScoring:
    """Candidates are scored inside their own pairwise table: the engine keeps
    the bits of a fresh ``np.minimum`` and holds one n x R table at a time."""

    @staticmethod
    def assert_engine_is_the_mirror(points, measure, cfg, seeds):
        trials = cfg.subset_strategy.trials
        for seed in seeds:
            stream = RngStream(seed)
            engine = run_one_restart(points, measure, cfg, stream)
            mirror, menus = TestAnchoredTrialsDiscipline.mirror_restart(points, measure, cfg,
                                                                        stream, trials)
            assert np.asarray(engine.centers).tobytes() == mirror.tobytes()
            # the kept trial's score, from a fresh np.minimum over the same menu
            center_set = CenterSet(points, measure)
            for entry, cands, center in zip(engine.meta["trace"], menus, mirror):
                scores = np.minimum(center_set.potentials[:, None],
                                    measure.pairwise(points, cands)).sum(axis=0)
                assert np.float64(entry["partial_cost"]).tobytes() == scores.min().tobytes()
                center_set = center_set.add(center)

    @pytest.mark.parametrize("trials", [50, 1])
    def test_engine_is_the_mirror_on_kl_data(self, planted, trials):
        kl = KullbackLeibler()
        points = planted[0]
        points = 0.1 + 0.8 * (points - points.min(axis=0)) / np.ptp(points, axis=0)
        cfg = desk(3, subset_strategy=RandomTrials(trials)).resolved(kl)
        self.assert_engine_is_the_mirror(points, kl, cfg, (41, 42, 43))

    @pytest.mark.parametrize("trials", [50, 1])
    def test_engine_is_the_mirror_on_a_grid_with_signed_zeros(self, sq, gen, trials):
        """200 points on a 3 x 3 grid of step 0.5, with duplicates and -0.0
        coordinates: potentials and table entries reach exact 0."""
        signs = gen.choice([1.0, -1.0], size=(200, 1))
        points = gen.integers(-1, 2, size=(200, 2)) * 0.5 * signs
        cfg = desk(3, subset_strategy=RandomTrials(trials)).resolved(sq)
        self.assert_engine_is_the_mirror(points, sq, cfg, (44, 45, 46))
        centers = run_one_restart(points, sq, cfg, RngStream(44)).centers
        assert (CenterSet(points, sq, centers).potentials == 0.0).any()

    @staticmethod
    def traced_peak(solve):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            solve()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    @staticmethod
    def blobs(name, n, d, k, seed):
        gen = np.random.default_rng(seed)
        if name == "kl":
            return KullbackLeibler(), 0.1 + 0.8 * gen.random((n, d))
        centers = gen.uniform(0.0, 100.0, size=(k, d))
        return SquaredEuclidean(), np.repeat(centers, n // k, axis=0) + gen.standard_normal((n, d))

    @pytest.mark.parametrize("name", ["sqeuclid", "kl"])
    def test_a_restart_holds_one_scoring_table(self, name):
        """At desk_large's shape (n = 4000, d = 16, k = 10, R = 50) the traced
        peak stays below two n x R float64 tables (3.2 MB): for one restart,
        and for 8 restarts, which run in lock step and score in groups of
        one restart each."""
        n, d, k, trials = 4000, 16, 10, 50
        measure, points = self.blobs(name, n, d, k, 11)
        cfg = desk(k, restarts=1, subset_strategy=RandomTrials(trials))
        assert self.traced_peak(
            lambda: run_one_restart(points, measure, cfg, RngStream(3))) < 2 * n * trials * 8
        cfg = replace(cfg, restarts=8)
        assert ptas._CHUNK_ENTRIES // (n * trials) == 0
        assert self.traced_peak(
            lambda: find_k_median(points, measure, cfg, RngStream(3))) < 2 * n * trials * 8

    @pytest.mark.parametrize("name", ["sqeuclid", "kl"])
    def test_a_group_of_restarts_holds_one_scoring_table(self, name):
        """At n = 300 the 8 desk restarts score as one group, whose traced
        peak stays below two tables of the group budget (2 MiB)."""
        n, d, k = 300, 2, 3
        measure, points = self.blobs(name, n, d, k, 12)
        cfg = desk(k)
        assert ptas._CHUNK_ENTRIES // (n * cfg.resolved(measure).subset_strategy.trials) >= 8
        assert self.traced_peak(
            lambda: find_k_median(points, measure, cfg, RngStream(4))) < 2 * ptas._CHUNK_ENTRIES * 8

    def test_the_point_side_is_built_once_per_solve(self, planted):
        """Every scoring table of a solve reuses one lifted copy of the
        points: ``phi`` runs on the n points once per solve (plus once for
        the final ``assign``), not once per iteration or scoring group."""
        points = np.concatenate([planted[0]] * 4)[:1000]

        class PhiCounter(SquaredEuclidean):
            def __init__(self):
                self.calls = 0

            def phi(self, X):
                if np.shape(X) == points.shape:
                    self.calls += 1
                return super().phi(X)

        counter, cfg = PhiCounter(), desk(3, restarts=3)
        assert ptas._CHUNK_ENTRIES // (len(points) * 50) == 2  # scoring groups of 2 and 1
        result = find_k_median(points, counter, cfg, RngStream(9))
        assert counter.calls == 2
        plain = find_k_median(points, SquaredEuclidean(), cfg, RngStream(9))
        assert result.centers.tobytes() == plain.centers.tobytes()


class TestLockStepRestarts:
    """All restarts of a solve run as one pass: greedy restarts in lock step,
    scored in groups of restarts, and exhaustive restarts as the roots of one
    tree.  Each restart keeps the bits of the same restart run on its own."""

    @staticmethod
    def assert_same_trace(mine, theirs):
        assert len(mine) == len(theirs)
        for a, b in zip(mine, theirs):
            assert a.keys() == b.keys()
            for key in a:
                x, y = np.asarray(a[key]), np.asarray(b[key])
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), key

    @classmethod
    def assert_lone_restarts(cls, points, measure, config, rng, restarts):
        """Run ``restarts`` restarts on ``rng`` as one pass of either strategy
        and return it.  Every restart r keeps the cost bits of a lone pass on
        ``rng.derive(r)`` and the counters of ``run_one_restart`` there, and
        the winner, the first cheapest, is ``run_one_restart`` on its stream,
        centers and trace included."""
        points, cfg = _prepare(points, measure, config)
        ids = _value_ids(points)
        streams = [rng.derive(r) for r in range(restarts)]
        batch = ptas._run_restarts(points, ids, measure, cfg, *roots_and_keys(streams))
        costs, subsets, nodes, win, centers, trace = batch
        assert len(costs) == len(subsets) == len(nodes) == restarts
        assert win == np.flatnonzero(costs == costs.min())[0]
        for r, stream in enumerate(streams):
            alone = ptas._run_restarts(points, ids, measure, cfg, *roots_and_keys([stream]))[0]
            assert alone.tobytes() == costs[r:r + 1].tobytes()
            lone = run_one_restart(points, measure, config, stream)
            assert subsets[r] == lone.meta["subsets_examined"]
            assert nodes[r] == lone.meta["nodes_expanded"]
            if r == win:
                assert np.asarray(centers).tobytes() == lone.centers.tobytes()
                cls.assert_same_trace(trace, lone.meta["trace"])
        return batch

    @pytest.mark.parametrize("trials", [50, 1])
    def test_each_restart_is_a_lone_restart_on_kl_data(self, planted, trials):
        kl = KullbackLeibler()
        points = planted[0]
        points = 0.1 + 0.8 * (points - points.min(axis=0)) / np.ptp(points, axis=0)
        cfg = desk(3, subset_strategy=RandomTrials(trials))
        self.assert_lone_restarts(points, kl, cfg, RngStream(47), 8)

    @pytest.mark.parametrize("trials", [50, 1])
    def test_each_restart_is_a_lone_restart_on_a_grid_with_signed_zeros(self, sq, gen, trials):
        signs = gen.choice([1.0, -1.0], size=(200, 1))
        points = gen.integers(-1, 2, size=(200, 2)) * 0.5 * signs
        cfg = desk(3, subset_strategy=RandomTrials(trials))
        centers = self.assert_lone_restarts(points, sq, cfg, RngStream(48), 8)[4]
        assert (CenterSet(points, sq, centers).potentials == 0.0).any()

    @pytest.mark.parametrize("trials", [4, 1], ids=["random:4", "random:1"])
    def test_distinct_values_whose_gaps_square_to_zero(self, sq, trials):
        """Four values 0, 1e-170, 2e-170 and 1, five copies each: more than
        k = 3 distinct values, so the search runs, but the tiny gaps square to
        0 and a center on each side covers every point exactly.  Every
        restart still runs all k iterations, at total 0 under the uniform
        law, so the returned centers may repeat a value.  The exhaustive tree
        on this input is checked in ``test_tree_batch``."""
        points = np.repeat([0.0, 1e-170, 2e-170, 1.0], 5)[:, None]
        cfg = PtasConfig(k=3, epsilon=0.5, sample_size_N=12, subset_size_M=4,
                         subset_strategy=RandomTrials(trials))
        res = find_k_median(points, sq, cfg, RngStream(51))
        assert res.cost == 0.0 and len(res.centers) == len(res.meta["trace"]) == 3
        assert res.meta["trace"][1]["partial_cost"] == 0.0  # covered before the last iteration
        costs, _, _, _, centers, trace = self.assert_lone_restarts(points, sq, cfg,
                                                                   RngStream(51), 8)
        assert (costs == 0.0).all() and len(centers) == len(trace) == 3

    @pytest.mark.parametrize("name", ["sqeuclid", "kl"])
    @pytest.mark.parametrize("group,sizes", [(1, [1] * 8), (3, [3, 3, 2]), (8, [8])],
                             ids=["groups-of-1", "groups-of-3", "one-group"])
    def test_each_restart_is_a_lone_restart_at_desk_large_shape(self, monkeypatch, name, group,
                                                                sizes):
        """n = 4000, d = 16, k = 10 and 8 restarts of 50 trials, scored in
        groups of 1 restart, of 3, 3 and 2, and all 8 in one: every restart
        keeps its lone cost bits and counters, and the winner is
        ``run_one_restart`` on its stream, trace included."""
        n, trials = 4000, 50
        measure, points = TestGreedyScoring.blobs(name, n, 16, 10, 13)
        monkeypatch.setattr(ptas, "_CHUNK_ENTRIES", group * n * trials)
        scored, pairwise = [], type(measure).pairwise

        def spy(self, P, C, point_side=None):
            if np.ndim(P) == 2 and np.ndim(C) == 3:  # a scoring stack
                scored.append(np.shape(C)[0])
            return pairwise(self, P, C, point_side)

        monkeypatch.setattr(type(measure), "pairwise", spy)
        cfg = desk(10, subset_strategy=RandomTrials(trials))
        costs = self.assert_lone_restarts(points, measure, cfg, RngStream(64), 8)[0]
        # the lock-step pass scores in groups; each lone pass scores one restart
        assert scored[:10 * len(sizes)] == sizes * 10
        assert set(scored[10 * len(sizes):]) == {1}
        assert len(set(costs.tolist())) > 1

    def test_each_restart_is_a_lone_restart_in_a_204_column_group(self, planted, sq):
        """Four restarts of 51 trials on 300 points score as one group of 204
        candidates.  Past about 192 columns a product's columns can take other
        bits than the same columns of a narrower one, so each restart is
        scored in its own product."""
        cfg = desk(3, restarts=4, subset_strategy=RandomTrials(51))
        self.assert_lone_restarts(planted[0], sq, cfg, RngStream(55), 4)

    def test_a_trace_sample_owns_its_data(self, planted, sq):
        """A trace's sample is copied out of the pass's draw of every
        restart, so a result holds no other restart's sample; its indices are
        the lone restart's D² draw."""
        points = planted[0]
        cfg = desk(3).resolved(sq)
        rng = RngStream(63)
        res = find_k_median(points, sq, cfg, rng)
        stream = rng.derive(res.meta["winning_restart"])
        center_set, key = CenterSet(points, sq), _counter_key(stream)
        for i, entry in enumerate(res.meta["trace"]):
            sample = entry["sample"]
            assert sample.base is None and sample.flags.owndata
            want = reference_sample(center_set, stream.derive(i).derive(0), key,
                                    cfg.sample_size_N)
            assert (sample.dtype, sample.shape, sample.tobytes()) == (
                want.dtype, want.shape, want.tobytes())
            center_set = center_set.add(entry["center"])

    def test_fewer_restarts_are_a_prefix(self, planted, sq):
        """Three restarts are the first three of eight: their costs and
        counters, and, where it is among them, the winner."""
        points = planted[0]
        rng = RngStream(52)
        eight = self.assert_lone_restarts(points, sq, desk(3), rng, 8)
        three = self.assert_lone_restarts(points, sq, desk(3), rng, 3)
        for mine, theirs in zip(three[:3], eight[:3]):
            assert mine.tobytes() == theirs[:3].tobytes()
        assert three[3] == int(np.argmin(eight[0][:3]))
        if eight[3] < 3:
            assert np.asarray(three[4]).tobytes() == np.asarray(eight[4]).tobytes()
            self.assert_same_trace(three[5], eight[5])

    @pytest.mark.parametrize("entries", [1, 1 << 40], ids=["one-node", "large"])
    def test_each_exhaustive_restart_is_a_lone_restart(self, sq, monkeypatch, entries):
        """All restarts are one pass, the roots of one tree.  With batches of
        one node and with batches that mix restarts, each restart's cost and
        counters are those of the restart on its own, and only the winner,
        whose result is the lone restart's, replays its trace."""
        monkeypatch.setattr(ptas, "_BATCH_ENTRIES", entries)
        mixed, replayed = [], []
        expand, replay = ptas._TreeSearch._expand, ptas._TreeSearch.replay

        def spy_expand(self, potentials, node_ids, keys):
            mixed.append(len(set(keys.tolist())) > 1)
            return expand(self, potentials, node_ids, keys)

        def spy_replay(self, path):
            replayed.append(path[0])
            return replay(self, path)

        monkeypatch.setattr(ptas._TreeSearch, "_expand", spy_expand)
        monkeypatch.setattr(ptas._TreeSearch, "replay", spy_replay)
        points = RngStream(60).generator.standard_normal((9, 2))
        cfg = PtasConfig(k=3, epsilon=0.5, sample_size_N=6, subset_size_M=2, restarts=4,
                         subset_strategy=Exhaustive())
        rng = RngStream(61)
        best = find_k_median(points, sq, cfg, rng)
        assert any(mixed) == (entries > 1)
        assert replayed == [best.meta["winning_restart"]]
        batch = self.assert_lone_restarts(points, sq, cfg, rng, 4)
        assert batch[3] == best.meta["winning_restart"]
        assert best.centers.tobytes() == np.asarray(batch[4]).tobytes()
        self.assert_same_trace(best.meta["trace"], batch[5])


class TestDistinctPatches:
    """Where one restart's scoring table fills a group by itself (n R > 2^16),
    each restart scores only the first trial of each of its distinct patches,
    and every trial takes its patch's score: equal patches have equal means,
    so the bits are those of scoring all R trials."""

    @staticmethod
    def record_patches(monkeypatch):
        """A list that gets (distinct patches, trials) of every iteration
        that scores its restarts alone."""
        shares, first_patches = [], ptas._first_patches

        def spy(positions, trials):
            first, slot = first_patches(positions, trials)
            shares.append((len(first), len(positions)))
            return first, slot

        monkeypatch.setattr(ptas, "_first_patches", spy)
        return shares

    def test_first_patches(self):
        """First trials come out ascending, each trial's slot holds an equal
        patch of its own restart, and equal patches of two restarts stay two."""
        positions = np.array([[3, 1], [0, 2], [3, 1], [0, 2],   # restart 0: two patches
                              [3, 1], [3, 1], [3, 1], [3, 1],   # restart 1: one, also restart 0's
                              [2, 0], [0, 2], [1, 3], [2, 0]])  # restart 2: [2, 0] is not [0, 2]
        first, slot = ptas._first_patches(positions, 4)
        assert first.tolist() == [0, 1, 4, 8, 9, 10]
        assert slot.tolist() == [0, 1, 0, 1, 2, 2, 2, 2, 3, 4, 5, 3]
        positions = np.random.default_rng(3).integers(0, 3, size=(5 * 20, 2))
        first, slot = ptas._first_patches(positions, 20)
        trials = np.arange(100)
        assert np.all(np.diff(first) > 0)
        np.testing.assert_array_equal(positions[first[slot]], positions)
        np.testing.assert_array_equal(first[slot] // 20, trials // 20)
        assert np.all(first[slot] <= trials)
        assert len(first) == len({(t // 20, *row) for t, row in zip(trials, positions.tolist())})

    @pytest.mark.parametrize("name", ["sqeuclid-rounded", "kl"])
    def test_distinct_patches_score_as_every_trial(self, name, monkeypatch):
        """n = 1401, R = 50, k = 3: each restart is the mirror, which scores
        all 50 trials in one table, bit for bit, kept scores included, and
        each restart of the lock-step pass is ``run_one_restart`` on its
        stream.  Rounded to one decimal, sq-Euclid points tie at the M-th
        nearest position.  Some iteration scores fewer patches than trials."""
        n, trials = 1401, 50
        measure, points = TestGreedyScoring.blobs(name.split("-")[0], n, 2, 3, 17)
        if name == "sqeuclid-rounded":
            points = np.round(points, 1)
        assert ptas._CHUNK_ENTRIES // (n * trials) == 1
        shares = self.record_patches(monkeypatch)
        cfg = desk(3)
        TestGreedyScoring.assert_engine_is_the_mirror(points, measure, cfg.resolved(measure),
                                                      (71, 72, 73))
        TestLockStepRestarts.assert_lone_restarts(points, measure, cfg, RngStream(74), 8)
        assert shares and any(distinct < total for distinct, total in shares)

    def test_a_lone_patch_sums_as_a_wide_table(self, monkeypatch):
        """60 points from (0, 0) to (5.9e-9, 0) and 30 copies of (10, 0),
        k = 2, scored alone: the first center lands among the 60, and the
        second draw then takes only copies of (10, 0), so all 50 trials hold
        one patch.  Its score sums the 60 tiny potentials row by row, as a
        50-column table does, not down one column.  (At d = 1 the mirror's
        gathered patches are laid out otherwise than the engine's, and their
        means round otherwise.)"""
        points = np.zeros((90, 2))
        points[:, 0] = np.concatenate([1e-10 * np.arange(60), np.full(30, 10.0)])
        trials = 50
        monkeypatch.setattr(ptas, "_CHUNK_ENTRIES", len(points) * trials)
        shares = self.record_patches(monkeypatch)
        cfg = desk(2).resolved(SquaredEuclidean())
        TestGreedyScoring.assert_engine_is_the_mirror(points, SquaredEuclidean(), cfg,
                                                      (81, 82, 83))
        assert shares[1::2] == [(1, trials)] * 3


class TestAnchoredPatches:
    """A pass builds its restarts' anchored patches from one stacked
    sample-to-anchor table and an exact top-M selection; every patch is the
    mirror's, one ``pairwise`` per restart and a stable argsort."""

    @staticmethod
    def mirror_patches(points, measure, cfg, stream, centers):
        """Per iteration of the restart on ``stream`` that keeps ``centers``:
        its sample, its anchors, its (R, M) patch positions and its (N, R)
        sample-to-anchor table, built as ``mirror_restart`` builds them."""
        trials, size, m_ = cfg.subset_strategy.trials, cfg.sample_size_N, cfg.subset_size_M
        center_set, key = CenterSet(points, measure), _counter_key(stream)
        patches = []
        for i, center in enumerate(centers):
            it = stream.derive(i)
            sample = points[reference_sample(center_set, it.derive(0), key, size)]
            anchors = reference_anchors(it, key, trials, size)
            to_anchor = measure.pairwise(sample, sample[anchors])
            positions = np.argsort(to_anchor, axis=0, kind="stable")[:m_].T
            patches.append((sample, anchors, positions, to_anchor))
            center_set = center_set.add(center)
        return patches

    def assert_pass_is_the_mirror(self, points, measure, seed, monkeypatch):
        """Run the desk preset's 8 restarts (one pass) through ``find_k_median``
        and check ``run_one_restart`` on every ``rng.derive(r)`` against the
        mirror, and the winner against its lone restart; returns how many
        trials had a tie across the M-th nearest position."""
        cfg = desk(3).resolved(measure)
        passes, greedy = [], ptas._greedy_restarts

        def recorded(points, measure, cfg, roots, keys):
            passes.append(len(roots))
            return greedy(points, measure, cfg, roots, keys)

        monkeypatch.setattr(ptas, "_greedy_restarts", recorded)
        rng = RngStream(seed)
        best = find_k_median(points, measure, cfg, rng)
        assert passes == [8]
        m_, ties = cfg.subset_size_M, 0
        for r in range(cfg.restarts):
            stream = rng.derive(r)
            lone = run_one_restart(points, measure, cfg, stream)
            mirror, _ = TestAnchoredTrialsDiscipline.mirror_restart(points, measure, cfg, stream,
                                                                    cfg.subset_strategy.trials)
            assert lone.centers.tobytes() == mirror.tobytes()
            patches = self.mirror_patches(points, measure, cfg, stream, mirror)
            for entry, (sample, anchors, positions, to_anchor) in zip(lone.meta["trace"],
                                                                      patches, strict=True):
                t = entry["trial"]
                np.testing.assert_array_equal(points[entry["sample"]], sample)
                assert entry["anchor"] == anchors[t]
                kept = entry["subset_positions"]
                assert (kept.dtype, kept.tobytes()) == (positions.dtype, positions[t].tobytes())
                ordered = np.sort(to_anchor, axis=0)
                ties += int(np.count_nonzero(ordered[m_ - 1] == ordered[m_]))
            if r == best.meta["winning_restart"]:
                assert best.centers.tobytes() == lone.centers.tobytes()
                TestLockStepRestarts.assert_same_trace(best.meta["trace"], lone.meta["trace"])
        return ties

    def test_each_restart_is_the_mirror_on_kl_data(self, planted, monkeypatch):
        points = planted[0]
        points = 0.1 + 0.8 * (points - points.min(axis=0)) / np.ptp(points, axis=0)
        self.assert_pass_is_the_mirror(points, KullbackLeibler(), 61, monkeypatch)

    def test_each_restart_is_the_mirror_on_duplicate_heavy_data(self, sq, planted,
                                                                monkeypatch):
        """Points rounded to one decimal: equal distances straddle the M-th
        nearest position, where the selection must pick ties by position."""
        points = np.round(planted[0], 1)
        assert self.assert_pass_is_the_mirror(points, sq, 62, monkeypatch) > 0

    @staticmethod
    def assert_stable_prefix(table, m):
        got, want = ptas._smallest_positions(table, m), np.argsort(table, axis=-1,
                                                                   kind="stable")[..., :m]
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    @pytest.mark.parametrize("n", [1, 2, 7, 100])
    def test_selection_is_the_stable_sort_prefix(self, gen, n):
        """Integer-valued entries (many ties), NaN entries, rows with fewer
        than M numbers, and -0.0 beside 0.0, for M = 1, 2, N // 2 and N."""
        for _ in range(40):
            table = gen.integers(0, 4, size=(30, n)).astype(float)
            table[gen.random(table.shape) < 0.2] = np.nan
            table[gen.random(len(table)) < 0.2] = np.nan  # whole rows
            table[(table == 0.0) & (gen.random(table.shape) < 0.5)] = -0.0
            for m in sorted({1, min(2, n), max(1, n // 2), n}):
                self.assert_stable_prefix(table, m)

    def test_selection_on_a_stack_of_distance_columns(self, gen):
        """The engine's shape: an (A, N, R) table viewed as (A, R, N) rows,
        with the duplicate draws of a D² sample."""
        stack = np.round(gen.random((8, 100, 50)), 2)
        stack[:, 50:] = stack[:, :50]
        for m in (1, 10, 100):
            self.assert_stable_prefix(np.swapaxes(stack, 1, 2), m)


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
        for k in (0, -1, 1.5, 2.0):
            with pytest.raises(ConfigError):
                kmeanspp_seed(four_point_line, sq, k, RngStream(1))
        assert len(kmeanspp_seed(four_point_line, sq, np.int64(2), RngStream(1)).centers) == 2
        with pytest.raises(InsufficientPoints):
            kmeanspp_seed(four_point_line, sq, 9, RngStream(1))


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
