"""Acceptance gate: nine end-to-end behavioral criteria.

Each test prints exactly one ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s``) and then asserts, so a red run still reports every criterion's
status and timing.  Stated runtime budgets are asserted where they exist.
"""

import time

import numpy as np

from d2ptas import (
    Exhaustive,
    ItakuraSaito,
    KullbackLeibler,
    Mahalanobis,
    PtasConfig,
    RngStream,
    SquaredEuclidean,
    find_k_means,
    find_k_median,
    irreducibility,
    kmeanspp_seed,
    lloyd,
    optimal_bruteforce,
)
from d2ptas.cli import generate_planted, run_experiment, strip_timing, write_points_csv
from d2ptas.divergences import (
    centroid,
    centroid_report,
    symmetry_report,
    triangle_report,
)
from d2ptas.oracle import inaba_trial
from d2ptas.sampler import CenterSet, empirical_distribution_check


def _report(num, label, ok, elapsed):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({elapsed:.1f}s)")


def test_criterion_1_sampling_distribution():
    """Exact cost-weighted probabilities on a 3-point instance, then an
    empirical check that 1e5 draws track them to within 0.01 in L-infinity."""
    t0 = time.perf_counter()
    sq = SquaredEuclidean()
    points = np.array([[0.0], [1.0], [3.0]])
    center_set = CenterSet.empty(points, sq).add(np.array([0.0]))
    probs, _ = center_set.distribution()
    exact_ok = probs.tolist() == [0.0, 0.1, 0.9]
    empirical = empirical_distribution_check(center_set, RngStream(101), trials=100_000)
    elapsed = time.perf_counter() - t0
    ok = exact_ok and empirical.passed and empirical.tolerance == 0.01
    _report(1, "cost-weighted sampling distribution, exact and empirical", ok, elapsed)
    assert exact_ok, f"exact probabilities were {probs.tolist()}"
    assert empirical.passed, f"empirical deviation {empirical.worst_ratio}"
    assert elapsed < 1.0


def test_criterion_2_mean_is_the_best_center():
    """Across random instances, no candidate center beats the coordinate mean:
    residual improvement <= 1e-9 for the quadratic measures and <= 1e-8 for
    the generator-based ones on interior boxes."""
    t0 = time.perf_counter()
    rng = RngStream(202)
    quadratic = [SquaredEuclidean(),
                 Mahalanobis(np.array([[2.0, 0.4], [0.4, 1.0]]))]
    generator_based = [KullbackLeibler(), ItakuraSaito()]
    reports = [centroid_report(m, rng.derive(i), instances=100, tolerance=1e-9)
               for i, m in enumerate(quadratic)]
    reports += [centroid_report(m, rng.derive(10 + i), instances=100, tolerance=1e-8)
                for i, m in enumerate(generator_based)]
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports)
    _report(2, "coordinate mean is the exact 1-center optimizer", ok, elapsed)
    for rep in reports:
        assert rep.passed, f"{rep.property}: worst residual {rep.worst_ratio}"
    assert elapsed < 5.0


def test_criterion_3_metric_like_bounds():
    """1e5 random trials per measure: the declared two-sided symmetry factor
    and the declared triangle-style factor are never violated."""
    t0 = time.perf_counter()
    rng = RngStream(303)
    measures = [SquaredEuclidean(),
                Mahalanobis(np.array([[1.5, 0.2], [0.2, 0.8]])),
                KullbackLeibler(),
                ItakuraSaito()]
    reports = []
    for i, m in enumerate(measures):
        reports.append(symmetry_report(m, 2, 100_000, rng.derive(2 * i)))
        reports.append(triangle_report(m, 2, 100_000, rng.derive(2 * i + 1)))
    elapsed = time.perf_counter() - t0
    ok = all(r.passed and r.violations == 0 for r in reports)
    _report(3, "declared symmetry and triangle factors hold", ok, elapsed)
    for rep in reports:
        assert rep.violations == 0, f"{rep.property}: {rep.violations} violations"
    assert elapsed < 10.0


def test_criterion_4_uniform_sample_mean_quality():
    """Means of 25 uniform draws from a 200-point cloud are near-optimal
    1-centers at least 75% of the time over 2000 trials (bound factor 1.2)."""
    t0 = time.perf_counter()
    cloud = RngStream(404).generator.standard_normal((200, 5))
    rep = inaba_trial(cloud, 25, 0.2, 2000, RngStream(405))
    elapsed = time.perf_counter() - t0
    ok = rep.details["success_rate"] >= 0.75
    _report(4, "uniform sample means are near-optimal 1-centers", ok, elapsed)
    assert rep.details["bound_factor"] == 1.2
    assert ok, f"success rate {rep.details['success_rate']}"
    assert elapsed < 10.0


def test_criterion_5_matches_the_exact_oracle():
    """50 random small instances solved both ways: the sampler with full
    subset enumeration lands within 1.5x of the enumeration oracle on at
    least 80% of them and never reports a cost below the true optimum."""
    t0 = time.perf_counter()
    sq = SquaredEuclidean()
    within, below = 0, 0
    worst = 0.0
    for i in range(50):
        rng = RngStream(2000 + i)
        gen = rng.derive(0).generator
        n = int(gen.integers(5, 11))
        k = int(gen.integers(2, 4))
        d = int(gen.integers(1, 4))
        pts = gen.standard_normal((n, d))
        cfg = PtasConfig(
            k=k, epsilon=0.5,
            sample_size_N=int(np.ceil(4.0 * n * np.log(n) / 0.5)),
            subset_size_M=2, restarts=2 ** k, subset_strategy=Exhaustive())
        res = find_k_median(pts, sq, cfg, rng.derive(1))
        opt = optimal_bruteforce(pts, k, sq).optimal_cost
        if res.cost < opt - 1e-9 * max(opt, 1.0):
            below += 1
        if res.cost <= 1.5 * opt + 1e-12:
            within += 1
        if opt > 0:
            worst = max(worst, res.cost / opt)
    elapsed = time.perf_counter() - t0
    ok = within >= 40 and below == 0
    _report(5, f"within 1.5x of the exact oracle on {within}/50, worst ratio {worst:.3f}",
            ok, elapsed)
    assert below == 0, f"{below} instances reported an impossible sub-optimal cost"
    assert within >= 40, f"only {within}/50 within 1.5x of the oracle"
    assert elapsed < 300.0


def test_criterion_6_desk_preset_on_planted_mixtures():
    """20 planted 3-Gaussian instances (300 points, separation 10 sigma):
    the desk preset lands within 1.5x of the better of two independent
    baselines (best-of-100 seeded local search, the planted partition with
    each block at its mean) on at least 18 seeds."""
    t0 = time.perf_counter()
    sq = SquaredEuclidean()
    wins = 0
    ratios = []
    for seed in range(20):
        rng = RngStream(1000 + seed)
        pts, labels, _ = generate_planted(3, 100, 2, 10.0, 1.0, rng.derive(0))
        res = find_k_median(pts, sq, PtasConfig(k=3, epsilon=0.5), rng.derive(1))
        seed_rng = rng.derive(2)
        best_baseline = min(
            lloyd(pts, sq, kmeanspp_seed(pts, sq, 3, seed_rng.derive(r)).centers).cost
            for r in range(100))
        planted = sum(float(sq.rowwise(pts[labels == j], centroid(pts[labels == j])[None]).sum())
                      for j in range(3))
        base = min(best_baseline, planted)
        ratios.append(res.cost / base)
        wins += res.cost <= 1.5 * base
    elapsed = time.perf_counter() - t0
    ok = wins >= 18
    _report(6, f"desk preset within 1.5x of best baseline on {wins}/20 planted seeds",
            ok, elapsed)
    assert ok, f"only {wins}/20 within 1.5x; ratios {np.round(ratios, 3).tolist()}"
    assert elapsed < 120.0


def test_criterion_7_dedicated_entry_point_is_bit_identical():
    """The squared-Euclidean convenience entry point and the general entry
    point given an explicit squared-Euclidean measure agree bit for bit on a
    fixed suite of seeds, for both subset strategies."""
    t0 = time.perf_counter()
    sq = SquaredEuclidean()
    configs = [
        PtasConfig(k=2, epsilon=0.5),
        PtasConfig(k=2, epsilon=0.5, sample_size_N=60, subset_size_M=2,
                   restarts=4, subset_strategy=Exhaustive()),
    ]
    ok = True
    for i in range(10):
        gen = RngStream(3000 + i).derive(0).generator
        pts = gen.standard_normal((int(gen.integers(6, 12)), int(gen.integers(1, 4))))
        for cfg in configs:
            a = find_k_means(pts, cfg, RngStream(3100 + i))
            b = find_k_median(pts, sq, cfg, RngStream(3100 + i))
            ok &= (a.cost == b.cost
                   and np.array_equal(np.asarray(a.centers), np.asarray(b.centers))
                   and np.array_equal(a.assignment, b.assignment))
    elapsed = time.perf_counter() - t0
    _report(7, "dedicated squared-Euclidean path is bit-identical to the generic path",
            ok, elapsed)
    assert ok


def test_criterion_8_center_count_sensitivity():
    """On the 4-point line {0, 1, 4, 5}: best 1-center cost 17, best 2-center
    cost 1, so removing the second center inflates cost by the exact factor
    gamma = 16."""
    t0 = time.perf_counter()
    rep = irreducibility(np.array([[0.0], [1.0], [4.0], [5.0]]), 2, SquaredEuclidean())
    elapsed = time.perf_counter() - t0
    ok = (rep.delta_km1, rep.delta_k, rep.gamma) == (17.0, 1.0, 16.0)
    _report(8, "exact cost inflation when dropping one center", ok, elapsed)
    assert rep.delta_km1 == 17.0
    assert rep.delta_k == 1.0
    assert rep.gamma == 16.0


def test_criterion_9_reports_reproduce_exactly(tmp_path):
    """The same experiment spec and seed produce character-identical reports
    once timing fields are removed."""
    t0 = time.perf_counter()
    pts, _, _ = generate_planted(3, 40, 2, 10.0, 1.0, RngStream(909))
    path = tmp_path / "mixture.csv"
    write_points_csv(path, pts)
    spec = {"input": str(path), "k": 3, "measure": "sqeuclid", "seed": 17,
            "strategy": "random:20", "restarts": 4}
    first = strip_timing(run_experiment(spec))
    second = strip_timing(run_experiment(spec))
    elapsed = time.perf_counter() - t0
    ok = first == second
    _report(9, "reports are identical across reruns, timing excluded", ok, elapsed)
    assert ok
