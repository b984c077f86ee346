"""Tests for seeded streams, incremental center sets, and cost-weighted draws."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from d2ptas import ConfigError, Mahalanobis, SquaredEuclidean
from d2ptas.sampler import (
    CenterSet,
    RngStream,
    d2_sample,
    empirical_distribution_check,
    weighted_draw,
)


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(42).generator.random(10)
        b = RngStream(42).generator.random(10)
        np.testing.assert_array_equal(a, b)

    def test_derive_is_stable(self):
        s = RngStream(42)
        np.testing.assert_array_equal(
            s.derive(3).generator.random(5), s.derive(3).generator.random(5))

    def test_derived_streams_differ(self):
        s = RngStream(42)
        a = s.derive(0).generator.random(5)
        b = s.derive(1).generator.random(5)
        assert not np.array_equal(a, b)

    def test_nested_derivation_paths_are_distinct(self):
        s = RngStream(7)
        a = s.derive(0).derive(1).generator.random(4)
        b = s.derive(1).derive(0).generator.random(4)
        assert not np.array_equal(a, b)

    def test_seed_and_stream_id_recorded(self):
        s = RngStream(99)
        assert s.seed == 99
        child = s.derive(2)
        assert child.seed == 99
        assert child.stream_id != s.stream_id


class TestCenterSet:
    def test_empty_has_unit_pseudo_potentials(self, sq, four_point_line):
        cs = CenterSet.empty(four_point_line, sq)
        assert cs.size == 0
        np.testing.assert_array_equal(cs.potentials, np.ones(4))
        assert cs.total_potential == 4.0

    def test_first_add_installs_real_costs(self, sq, four_point_line):
        cs = CenterSet.empty(four_point_line, sq).add([0.0])
        np.testing.assert_array_equal(cs.potentials, [0.0, 1.0, 16.0, 25.0])

    def test_incremental_cache_matches_recompute_bitwise(self, sq, gen):
        pts = gen.standard_normal((40, 3))
        cs = CenterSet.empty(pts, sq)
        for _ in range(5):
            cs = cs.add(gen.standard_normal(3))
            np.testing.assert_array_equal(cs.potentials, cs.recomputed_potentials())

    @pytest.mark.parametrize("measure", [
        SquaredEuclidean(), Mahalanobis([[2.0, 0.4, 0.0], [0.4, 1.0, 0.3], [0.0, 0.3, 0.5]]),
    ], ids=["sqeuclid", "mahalanobis"])
    def test_center_on_a_data_point_leaves_it_exactly_zero(self, measure, gen):
        """Far from the origin too, built and grown caches agree, and a point
        that is a center has potential 0 and is never drawn."""
        pts = gen.standard_normal((30, 3)) + 1e6
        grown = CenterSet.empty(pts, measure).add(pts[4]).add(pts[17])
        built = CenterSet(pts, measure, [pts[4], pts[17]])
        np.testing.assert_array_equal(grown.potentials, built.potentials)
        for cs in (grown, built):
            assert cs.potentials[4] == 0.0 and cs.potentials[17] == 0.0
            assert np.count_nonzero(cs.potentials) == 28
            probs, zero_potential = cs.distribution()
            assert probs[4] == 0.0 and probs[17] == 0.0 and not zero_potential
            assert not np.isin(d2_sample(cs, RngStream(3), 5000), [4, 17]).any()

    def test_total_potential_monotone_after_first_center(self, sq, gen):
        pts = gen.standard_normal((30, 2))
        cs = CenterSet.empty(pts, sq).add(gen.standard_normal(2))
        prev = cs.total_potential
        for _ in range(6):
            cs = cs.add(gen.standard_normal(2))
            assert cs.total_potential <= prev
            prev = cs.total_potential

    def test_add_is_functional_not_in_place(self, sq, four_point_line):
        base = CenterSet.empty(four_point_line, sq)
        grown = base.add([0.0])
        assert base.size == 0 and grown.size == 1

    def test_scoring_potentials_infinite_before_any_center(self, sq, four_point_line):
        cs = CenterSet.empty(four_point_line, sq)
        assert np.all(np.isinf(cs.scoring_potentials()))
        assert np.all(np.isfinite(cs.add([2.0]).scoring_potentials()))

    def test_center_array_shape(self, sq, four_point_line):
        cs = CenterSet.empty(four_point_line, sq)
        assert cs.center_array().shape == (0, 1)
        assert cs.add([1.0]).add([4.0]).center_array().shape == (2, 1)


class TestD2Distribution:
    def test_reference_distribution(self, sq):
        """P = {0, 1, 3} with one center at 0: potentials (0, 1, 9)."""
        cs = CenterSet.empty(np.array([[0.0], [1.0], [3.0]]), sq).add([0.0])
        probs, zero_potential = cs.distribution()
        np.testing.assert_allclose(probs, [0.0, 0.1, 0.9], rtol=0, atol=0)
        assert not zero_potential

    def test_empty_center_set_is_uniform(self, sq, four_point_line):
        probs, zero_potential = CenterSet.empty(four_point_line, sq).distribution()
        np.testing.assert_array_equal(probs, np.full(4, 0.25))
        assert not zero_potential

    def test_fully_covered_set_flags_zero_potential(self, sq, four_point_line):
        cs = CenterSet.empty(four_point_line, sq)
        for row in four_point_line:
            cs = cs.add(row)
        probs, zero_potential = cs.distribution()
        assert zero_potential
        np.testing.assert_array_equal(probs, np.full(4, 0.25))


class TestWeightedDraw:
    def test_deterministic_given_stream(self):
        probs = np.array([0.2, 0.3, 0.5])
        a = weighted_draw(probs, RngStream(5), 100)
        b = weighted_draw(probs, RngStream(5), 100)
        np.testing.assert_array_equal(a, b)

    def test_zero_probability_never_drawn(self):
        probs = np.array([0.0, 0.5, 0.0, 0.5])
        draws = weighted_draw(probs, RngStream(6), 20000)
        assert set(np.unique(draws)) <= {1, 3}

    def test_degenerate_distribution(self):
        draws = weighted_draw(np.array([1.0, 0.0, 0.0]), RngStream(7), 500)
        assert np.all(draws == 0)

    def test_batch_rows_are_the_one_dimensional_draws(self):
        """Row b of a batched draw is bitwise the 1-D draw of column b on stream b,
        and both are the inversion over the support alone."""
        gen = RngStream(11).generator
        n, count = 12, 400
        probs = gen.random((n, 5)) * 10.0 ** gen.integers(-12, 1, size=(n, 5))
        probs[[0, 5, 6, n - 1]] = 0.0  # zero at the start, in the middle and at the end
        probs[1:4, 3] = 0.0
        probs[:-2, 4] = 0.0  # one positive entry
        probs /= probs.sum(axis=0)
        batch = weighted_draw(probs, [RngStream(12, b) for b in range(5)], count)
        assert batch.shape == (5, count)
        for b in range(5):
            column = np.ascontiguousarray(probs[:, b])
            one = weighted_draw(column, RngStream(12, b), count)
            support = np.flatnonzero(column > 0.0)
            cum = np.cumsum(column[support])
            cum[-1] = 1.0
            u = RngStream(12, b).generator.random(count)
            np.testing.assert_array_equal(batch[b], one)
            np.testing.assert_array_equal(one, support[np.searchsorted(cum, u, side="right")])
            assert np.all(column[one] > 0.0)

    def test_no_positive_probability_is_an_error(self):
        with pytest.raises(ValueError):
            weighted_draw(np.array([[0.5, 0.0], [0.5, 0.0]]), [RngStream(1), RngStream(2)], 3)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_draws_always_in_support(self, seed):
        gen = np.random.default_rng(seed)
        weights = gen.random(6) * (gen.random(6) > 0.3)
        if weights.sum() == 0:
            weights[0] = 1.0
        probs = weights / weights.sum()
        draws = weighted_draw(probs, RngStream(seed), 200)
        assert np.all(probs[draws] > 0)


class TestD2Sample:
    def test_matches_reference_distribution(self, sq):
        cs = CenterSet.empty(np.array([[0.0], [1.0], [3.0]]), sq).add([0.0])
        draws = d2_sample(cs, RngStream(11), 50000)
        freq = np.bincount(draws, minlength=3) / 50000
        assert freq[0] == 0.0
        assert abs(freq[1] - 0.1) < 0.01
        assert abs(freq[2] - 0.9) < 0.01

    def test_count_validated(self, sq, four_point_line):
        cs = CenterSet.empty(four_point_line, sq)
        with pytest.raises(ConfigError):
            d2_sample(cs, RngStream(1), 0)

    def test_uniform_when_everything_covered(self, sq, four_point_line):
        cs = CenterSet.empty(four_point_line, sq)
        for row in four_point_line:
            cs = cs.add(row)
        draws = d2_sample(cs, RngStream(12), 8000)
        freq = np.bincount(draws, minlength=4) / 8000
        assert np.abs(freq - 0.25).max() < 0.05


class TestEmpiricalDistributionCheck:
    def test_passes_at_default_tolerance(self, sq):
        cs = CenterSet.empty(np.array([[0.0], [1.0], [3.0]]), sq).add([0.0])
        rep = empirical_distribution_check(cs, RngStream(13), 20000)
        assert rep.passed and rep.tolerance == 0.05
        assert rep.property == "sampling"

    def test_tight_tolerance_at_large_trials(self, sq):
        cs = CenterSet.empty(np.array([[0.0], [1.0], [3.0]]), sq).add([0.0])
        rep = empirical_distribution_check(cs, RngStream(14), 100_000)
        assert rep.tolerance == 0.01
        assert rep.passed, rep.worst_ratio

    def test_too_few_trials_rejected(self, sq, four_point_line):
        cs = CenterSet.empty(four_point_line, sq)
        with pytest.raises(ConfigError):
            empirical_distribution_check(cs, RngStream(15), 500)

    def test_zero_potential_recorded_in_details(self, sq, four_point_line):
        cs = CenterSet.empty(four_point_line, sq)
        for row in four_point_line:
            cs = cs.add(row)
        rep = empirical_distribution_check(cs, RngStream(16), 2000)
        assert rep.details["zero_potential"]
