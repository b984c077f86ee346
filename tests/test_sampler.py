"""Tests for seeded streams, incremental center sets, and cost-weighted draws."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from d2ptas import (ConfigError, DimensionMismatch, DomainError, KullbackLeibler, Mahalanobis,
                    SquaredEuclidean)
from d2ptas import sampler
from d2ptas.sampler import (
    CenterSet,
    RngStream,
    _counter_key,
    _counter_uniforms,
    _derived_ids,
    _splitmix64,
    _splitmix64_array,
    _uniform_indices,
    d2_law,
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


MASK64 = 2 ** 64 - 1


def scalar_uniform(s, j, key=0):
    """The documented counter uniform, in plain Python integers."""
    return (_splitmix64((_splitmix64(s ^ key) + j) & MASK64) >> 11) * 2.0 ** -53


class TestCounterDraws:
    """Counter-based uniforms: the j-th uniform of stream id s under key K is
    the top 53 bits of splitmix64(splitmix64(s ^ K) + j) times 2^-53."""

    def test_vectorised_mixer_is_the_scalar_mixer(self, gen):
        ids = [0, 2 ** 64 - 1] + gen.integers(0, 2 ** 64, size=1000, dtype=np.uint64).tolist()
        assert _splitmix64_array(ids).tolist() == [_splitmix64(i) for i in ids]

    def test_derived_ids_are_the_derived_stream_ids(self):
        streams = (RngStream(3), RngStream(3).derive(5), RngStream(0, 2 ** 64 - 1))
        ids = _derived_ids([s.stream_id for s in streams], 1 + np.arange(50))
        assert ids.dtype == np.uint64 and ids.shape == (3, 50)
        for stream, row in zip(streams, ids):
            assert row.tolist() == [stream.derive(1 + t).stream_id for t in range(50)]

    def test_uniforms_follow_the_documented_formula(self, gen):
        ids = [0, 2 ** 64 - 1] + gen.integers(0, 2 ** 64, size=20, dtype=np.uint64).tolist()
        for key in (0, 1, 2 ** 63, 2 ** 64 - 1):
            table = _counter_uniforms(ids, 4, key)
            assert table.tolist() == [[scalar_uniform(s, j, key) for j in range(4)] for s in ids]
            assert ((0.0 <= table) & (table < 1.0)).all()
        with pytest.raises(TypeError):  # every caller names its key; there is no default
            _counter_uniforms(ids, 4)
        # one key per row: row b under keys[b] is that row of the scalar key's table
        mixed = [0, 2 ** 64 - 1] * 11
        for keys in ([0] * len(ids), [2 ** 64 - 1] * len(ids), mixed):
            table = _counter_uniforms(ids, 4, np.array(keys, dtype=np.uint64))
            for b, key in enumerate(keys):
                assert table[b].tolist() == _counter_uniforms(ids, 4, key)[b].tolist()

    @pytest.mark.parametrize("block", [1, 5, 64, 1 << 13])
    @pytest.mark.parametrize("count", [1, 7, 64, 300])
    def test_blocks_do_not_change_the_table(self, monkeypatch, block, count):
        """Blocks of one value, of parts of a row and of several whole rows."""
        ids = _derived_ids([11], np.arange(9))[0]
        want = [[scalar_uniform(int(s), j, 2 ** 64 - 1) for j in range(count)] for s in ids]
        monkeypatch.setattr(sampler, "_UNIFORM_BLOCK", block)
        assert _counter_uniforms(ids, count, 2 ** 64 - 1).tolist() == want

    def test_empty_tables(self):
        assert _counter_uniforms([], 5, 0).shape == (0, 5)
        assert _counter_uniforms([3, 4], 0, 0).shape == (2, 0)

    def test_more_uniforms_extend_fewer(self):
        ids = _derived_ids([RngStream(9).stream_id], np.arange(30))[0]
        key = _counter_key(RngStream(9))
        np.testing.assert_array_equal(_counter_uniforms(ids, 7, key)[:, :3],
                                      _counter_uniforms(ids, 3, key))
        np.testing.assert_array_equal(_counter_uniforms(ids[:10], 3, key),
                                      _counter_uniforms(ids, 3, key)[:10])

    @pytest.mark.parametrize("n", [1, 2, 3, 100, 239, 2 ** 31 - 1])
    def test_largest_uniform_maps_to_the_last_index(self, n):
        assert _uniform_indices([0.0, 2.0 ** -53, 1.0 - 2.0 ** -53], n).tolist() == [0, 0, n - 1]

    @pytest.mark.parametrize("n", [3, 10, 239])
    def test_indices_are_uniform_over_many_stream_ids(self, n):
        """L-infinity distance of the index frequencies from 1/n over 10^5
        sibling streams, within 5 binomial standard deviations."""
        trials = 100_000
        ids = _derived_ids([RngStream(1).derive(4).stream_id], 1 + np.arange(trials))[0]
        indices = _uniform_indices(_counter_uniforms(ids, 1, _counter_key(RngStream(1)))[:, 0], n)
        freq = np.bincount(indices, minlength=n) / trials
        assert freq.shape == (n,)
        p = 1.0 / n
        assert np.abs(freq - p).max() <= 5.0 * np.sqrt(p * (1.0 - p) / trials)

    def test_key_is_the_first_output_of_the_seeded_generator(self):
        for seed, stream_id in ((1, 0), (2, 0), (1, 2 ** 64 - 1)):
            stream = RngStream(seed, stream_id)
            pcg = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream_id,)))
            assert _counter_key(stream) == pcg.random_raw()
            assert stream._gen is None  # the caller's stream builds no generator
        assert _counter_key(RngStream(1, 5)) != _counter_key(RngStream(2, 5))

    def test_used_stream_keeps_its_key_and_its_draws(self):
        stream = RngStream(8, 3)
        first = stream.generator.random(4)
        assert _counter_key(stream) == _counter_key(RngStream(8, 3))
        np.testing.assert_array_equal(stream.generator.random(4),
                                      RngStream(8, 3).generator.random(8)[4:])
        assert not np.array_equal(first, stream.generator.random(4))


class TestCenterSet:
    def test_empty_has_infinite_potentials(self, sq, four_point_line):
        cs = CenterSet(four_point_line, sq)
        assert cs.size == 0
        assert not hasattr(CenterSet, "empty")  # the constructor is the empty set
        np.testing.assert_array_equal(cs.potentials, np.full(4, np.inf))
        assert cs.total_potential == np.inf

    def test_first_add_installs_real_costs(self, sq, four_point_line):
        cs = CenterSet(four_point_line, sq).add([0.0])
        np.testing.assert_array_equal(cs.potentials, [0.0, 1.0, 16.0, 25.0])

    def test_incremental_cache_matches_recompute_bitwise(self, sq, gen):
        pts = gen.standard_normal((40, 3))
        cs = CenterSet(pts, sq)
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
        grown = CenterSet(pts, measure).add(pts[4]).add(pts[17])
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
        cs = CenterSet(pts, sq).add(gen.standard_normal(2))
        prev = cs.total_potential
        for _ in range(6):
            cs = cs.add(gen.standard_normal(2))
            assert cs.total_potential <= prev
            prev = cs.total_potential

    def test_add_checks_the_new_center_only(self, sq, gen, monkeypatch):
        """``add`` does not re-check the n points, which were checked when the
        set was built; the new center is still checked."""
        pts = gen.standard_normal((30, 2))
        cs = CenterSet(pts, sq, [pts[0]])
        seen = []
        monkeypatch.setattr(sampler, "as_points", lambda data: seen.append(data))
        grown = cs.add(pts[1]).add(pts[2])
        assert seen == [] and grown.points is cs.points
        np.testing.assert_array_equal(grown.potentials, grown.recomputed_potentials())
        assert grown.total_potential == float(grown.potentials.sum())
        monkeypatch.undo()
        with pytest.raises(DomainError):
            CenterSet(0.5 + 0.1 * gen.random((5, 2)), KullbackLeibler()).add([0.5, -0.1])
        with pytest.raises(DomainError):
            cs.add([np.nan, 0.0])
        with pytest.raises(DimensionMismatch, match=r"center has shape \(3,\)"):
            cs.add([0.0, 0.0, 0.0])

    def test_points_outside_the_domain_are_refused(self):
        """Points are checked when the set is built: one with a negative
        coordinate would leave a NaN potential, on which a D² draw fails."""
        bad = np.array([[0.5, 0.5], [0.2, -0.1], [0.7, 0.3]])
        with pytest.raises(DomainError):
            CenterSet(bad, KullbackLeibler())
        with pytest.raises(DomainError):
            CenterSet(bad, KullbackLeibler(), [np.array([0.5, 0.5])])

    def test_add_is_functional_not_in_place(self, sq, four_point_line):
        base = CenterSet(four_point_line, sq)
        grown = base.add([0.0])
        assert base.size == 0 and grown.size == 1

    def test_potentials_infinite_before_any_center(self, sq, four_point_line):
        cs = CenterSet(four_point_line, sq)
        assert np.all(np.isinf(cs.potentials))
        assert np.all(np.isfinite(cs.add([2.0]).potentials))

    def test_center_array_shape(self, sq, four_point_line):
        cs = CenterSet(four_point_line, sq)
        assert cs.center_array().shape == (0, 1)
        assert cs.add([1.0]).add([4.0]).center_array().shape == (2, 1)


class TestD2Distribution:
    def test_reference_distribution(self, sq):
        """P = {0, 1, 3} with one center at 0: potentials (0, 1, 9)."""
        cs = CenterSet(np.array([[0.0], [1.0], [3.0]]), sq).add([0.0])
        probs, zero_potential = cs.distribution()
        np.testing.assert_allclose(probs, [0.0, 0.1, 0.9], rtol=0, atol=0)
        assert not zero_potential

    def test_empty_center_set_is_uniform(self, sq, four_point_line):
        probs, zero_potential = CenterSet(four_point_line, sq).distribution()
        np.testing.assert_array_equal(probs, np.full(4, 0.25))
        assert not zero_potential

    def test_fully_covered_set_flags_zero_potential(self, sq, four_point_line):
        cs = CenterSet(four_point_line, sq)
        for row in four_point_line:
            cs = cs.add(row)
        probs, zero_potential = cs.distribution()
        assert zero_potential
        np.testing.assert_array_equal(probs, np.full(4, 0.25))


class TestD2Law:
    """One law for every caller: proportional to potential, uniform where the
    row total is 0 or +inf, and never an inf/inf or 0/0 on the way."""

    @pytest.fixture(autouse=True)
    def no_invalid_arithmetic(self):
        with np.errstate(divide="raise", invalid="raise"):
            yield

    def test_finite_positive_column_is_the_plain_ratio(self, gen):
        p = gen.random(30) * 10.0 ** gen.integers(-12, 3, size=30)
        p[[3, 7]] = 0.0
        np.testing.assert_array_equal(d2_law(p), p / p.sum())

    def test_infinite_and_zero_columns_are_exactly_uniform(self):
        table = np.zeros((3, 7))
        table[0] = np.inf
        table[2] = 1.5
        law = d2_law(table)
        assert np.all(law[:2] == 1.0 / 7)
        assert np.all(law[2] == 1.5 / 10.5)
        assert np.all(d2_law(np.full(7, np.inf)) == 1.0 / 7)
        assert np.all(d2_law(np.zeros(7)) == 1.0 / 7)

    def test_table_columns_are_the_one_dimensional_laws(self, gen):
        """Row b of a stacked law is the law of row b alone."""
        table = gen.random((6, 20)) * 10.0 ** gen.integers(-12, 3, size=(6, 20))
        table[1] = np.inf
        table[4] = 0.0
        table[5, ::3] = 0.0
        law = d2_law(table)
        for b in range(table.shape[0]):
            np.testing.assert_array_equal(law[b], d2_law(table[b].copy()))

    def test_empty_center_set_keeps_the_uniform_first_draw(self, sq, gen):
        pts = gen.standard_normal((9, 2))
        cs = CenterSet(pts, sq)
        assert cs.total_potential == np.inf
        probs, zero_potential = cs.distribution()
        assert np.all(probs == 1.0 / 9) and zero_potential is False
        np.testing.assert_array_equal(
            d2_sample(cs, RngStream(4), 500),
            weighted_draw(np.full(9, 1.0 / 9), RngStream(4).generator.random(500)))


class TestWeightedDraw:
    """Draws invert the cumulative law over the support at the given uniforms."""

    def test_deterministic_given_stream(self):
        probs = np.array([0.2, 0.3, 0.5])
        a = weighted_draw(probs, RngStream(5).generator.random(100))
        b = weighted_draw(probs, RngStream(5).generator.random(100))
        np.testing.assert_array_equal(a, b)

    def test_zero_probability_never_drawn(self):
        probs = np.array([0.0, 0.5, 0.0, 0.5])
        draws = weighted_draw(probs, RngStream(6).generator.random(20000))
        assert set(np.unique(draws)) <= {1, 3}

    def test_degenerate_distribution(self):
        draws = weighted_draw(np.array([1.0, 0.0, 0.0]), RngStream(7).generator.random(500))
        assert np.all(draws == 0)

    def test_uniform_boundaries(self):
        """u = 0 lands on the first positive entry, past leading zeros, and the
        largest uniform, 1 - 2^-53, on the last one, before trailing zeros,
        even where rounding leaves the cumulative sum short of 1."""
        u = np.array([0.0, 1.0 - 2.0 ** -53])
        assert weighted_draw(np.array([0.0, 0.0, 0.25, 0.75, 0.0]), u).tolist() == [2, 3]
        short = np.full(10, 0.1)  # its cumulative sum ends at 0.9999999999999999
        assert np.cumsum(short)[-1] <= 1.0 - 2.0 ** -53
        assert weighted_draw(short, u).tolist() == [0, 9]
        table = np.array([[0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
        assert weighted_draw(table, np.tile(u, (2, 1))).tolist() == [[2, 2], [0, 1]]

    @pytest.mark.parametrize("n", [12, 16, 300])
    @pytest.mark.parametrize("rows", [5, 15, 16, 40])
    def test_batch_rows_are_the_one_dimensional_draws(self, rows, n):
        """Row b of a batched draw is bitwise the 1-D draw of row b with
        uniform row b, and both are the inversion over the support alone,
        whatever the row count and whether or not n is a power of two.  Row
        1's cumulative sum passes 1.0 before its last positive entry."""
        gen = RngStream(11, n).generator
        count = 400
        probs = gen.random((rows, n)) * 10.0 ** gen.integers(-12, 1, size=(rows, n))
        probs[:, [0, 5, 6, n - 1]] = 0.0  # zero at the start, in the middle and at the end
        probs[3, 1:4] = 0.0
        probs[4, :-2] = 0.0  # one positive entry
        probs /= probs.sum(axis=1, keepdims=True)
        # eleven equal weights and a tiny one: each eleventh rounds up, and
        # the running sum passes 1.0 before it reaches the tiny entry
        probs[1] = d2_law(np.r_[np.ones(11), 1e-30, np.zeros(n - 12)])
        assert np.cumsum(probs[1])[10] > 1.0 and probs[1][11] > 0.0
        uniforms = _counter_uniforms(_derived_ids([12], np.arange(rows))[0], count, 99)
        uniforms[:, :2] = [0.0, 1.0 - 2.0 ** -53]
        batch = weighted_draw(probs, uniforms)
        assert batch.shape == (rows, count)
        for b in range(rows):
            column = probs[b].copy()
            one = weighted_draw(column, uniforms[b].copy())
            support = np.flatnonzero(column > 0.0)
            cum = np.cumsum(column[support])
            cum[-1] = 1.0
            np.testing.assert_array_equal(batch[b], one)
            np.testing.assert_array_equal(
                one, support[np.searchsorted(cum, uniforms[b], side="right")])
            assert np.all(column[one] > 0.0)

    @pytest.mark.parametrize("rows", [None, 1, 16])
    @pytest.mark.parametrize("bad", [np.nan, 1.0, -0.1, 1.5])
    def test_uniforms_outside_the_unit_interval_are_refused(self, rows, bad):
        """A uniform of 1.0 or more would draw one past the last index, and a
        negative one a zero-probability index; NaN lands anywhere.  They are
        refused for a vector and for a stack of rows alike."""
        probs, uniforms = np.array([0.0, 0.5, 0.5, 0.0]), np.array([0.25, bad])
        if rows is not None:
            probs, uniforms = np.tile(probs, (rows, 1)), np.tile(uniforms, (rows, 1))
        with pytest.raises(ValueError, match=r"uniforms must lie in \[0, 1\)"):
            weighted_draw(probs, uniforms)

    def test_no_positive_probability_is_an_error(self):
        with pytest.raises(ValueError, match="no positive probability"):
            weighted_draw(np.array([[0.5, 0.5], [0.0, 0.0]]), np.full((2, 3), 0.5))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 3), (3, 2)])
    def test_uniforms_must_fit_the_probabilities(self, shape):
        """A (3,) vector takes a (count,) row; a (2, 3) table takes (2, count)."""
        probs = np.full(3, 1.0 / 3) if len(shape) == 2 else np.full((2, 3), 1.0 / 3)
        with pytest.raises(ValueError, match="do not fit"):
            weighted_draw(probs, np.zeros(shape))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_draws_always_in_support(self, seed):
        gen = np.random.default_rng(seed)
        weights = gen.random(6) * (gen.random(6) > 0.3)
        if weights.sum() == 0:
            weights[0] = 1.0
        probs = weights / weights.sum()
        draws = weighted_draw(probs, RngStream(seed).generator.random(200))
        assert np.all(probs[draws] > 0)


class TestD2Sample:
    def test_matches_reference_distribution(self, sq):
        cs = CenterSet(np.array([[0.0], [1.0], [3.0]]), sq).add([0.0])
        draws = d2_sample(cs, RngStream(11), 50000)
        freq = np.bincount(draws, minlength=3) / 50000
        assert freq[0] == 0.0
        assert abs(freq[1] - 0.1) < 0.01
        assert abs(freq[2] - 0.9) < 0.01

    def test_count_validated(self, sq, four_point_line):
        cs = CenterSet(four_point_line, sq)
        with pytest.raises(ConfigError):
            d2_sample(cs, RngStream(1), 0)

    def test_uniform_when_everything_covered(self, sq, four_point_line):
        cs = CenterSet(four_point_line, sq)
        for row in four_point_line:
            cs = cs.add(row)
        draws = d2_sample(cs, RngStream(12), 8000)
        freq = np.bincount(draws, minlength=4) / 8000
        assert np.abs(freq - 0.25).max() < 0.05


class TestEmpiricalDistributionCheck:
    def test_passes_at_default_tolerance(self, sq):
        cs = CenterSet(np.array([[0.0], [1.0], [3.0]]), sq).add([0.0])
        rep = empirical_distribution_check(cs, RngStream(13), 20000)
        assert rep.passed and rep.tolerance == 0.05
        assert rep.property == "sampling"
        with pytest.raises(TypeError):  # the tolerance follows the trial count only
            empirical_distribution_check(cs, RngStream(13), 20000, tolerance=0.05)

    def test_tight_tolerance_at_large_trials(self, sq):
        cs = CenterSet(np.array([[0.0], [1.0], [3.0]]), sq).add([0.0])
        rep = empirical_distribution_check(cs, RngStream(14), 100_000)
        assert rep.tolerance == 0.01
        assert rep.passed, rep.worst_ratio

    def test_too_few_trials_rejected(self, sq, four_point_line):
        cs = CenterSet(four_point_line, sq)
        with pytest.raises(ConfigError):
            empirical_distribution_check(cs, RngStream(15), 500)

    def test_trials_are_whole_numbers(self, sq, four_point_line):
        """A float is refused rather than truncated, a whole one included."""
        cs = CenterSet(four_point_line, sq)
        for bad in (1000.5, np.float64(5000)):
            with pytest.raises(ConfigError, match="trials must be an integer"):
                empirical_distribution_check(cs, RngStream(15), bad)

    def test_zero_potential_recorded_in_details(self, sq, four_point_line):
        cs = CenterSet(four_point_line, sq)
        for row in four_point_line:
            cs = cs.add(row)
        rep = empirical_distribution_check(cs, RngStream(16), 2000)
        assert rep.details["zero_potential"]
