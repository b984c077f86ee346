"""Unit tests for the divergence measures and their property checks.

Reference values in this file were computed independently (closed forms
evaluated with ``math``) and frozen; tests compare against those constants,
not against the code under test.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import d2ptas

from d2ptas import (
    DimensionMismatch,
    DomainError,
    EmptySet,
    ConfigError,
    GenericBregman,
    ItakuraSaito,
    KullbackLeibler,
    Mahalanobis,
    PropertyReport,
    SquaredEuclidean,
    UnsupportedMeasure,
    as_points,
    assign,
    centroid,
    centroid_report,
    check_centroid_property,
    check_mu_similarity,
    cluster_cost,
    mu_similarity_report,
    symmetry_report,
    triangle_report,
)
from d2ptas import divergences
from d2ptas.sampler import RngStream

# Independently computed reference values (math.log closed forms).
KL_PAIR = 0.14384103622589045          # KL((0.5,0.5) -> (0.25,0.75))
KL_FWD = 0.284663402409381             # KL(0.8 -> 0.3)
KL_BWD = 0.20575122409648217           # KL(0.3 -> 0.8)
IS_PAIR = 0.3068528194400546           # IS(0.8 -> 0.4) = 2 - ln 2 - 1
PHI_KL = -1.6931471805599454           # phi_KL((0.5, 0.5)) = ln(1/2) - 1


class TestAsPoints:
    def test_one_dimensional_input_becomes_column(self):
        pts = as_points([0.0, 1.0, 4.0, 5.0])
        assert pts.shape == (4, 1)

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            as_points(np.empty((0, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            as_points([[1.0, np.nan]])
        with pytest.raises(DomainError):
            as_points([[np.inf, 0.0]])

    def test_three_dimensional_rejected(self):
        with pytest.raises(DimensionMismatch):
            as_points(np.zeros((2, 2, 2)))


class TestSquaredEuclidean:
    def test_three_four_five(self, sq):
        assert sq((0.0, 0.0), (3.0, 4.0)) == 25.0

    def test_symmetric_exactly(self, sq, gen):
        p, q = gen.standard_normal(4), gen.standard_normal(4)
        assert sq(p, q) == sq(q, p)

    def test_pairwise_shape_and_values(self, sq):
        P = np.array([[0.0], [3.0]])
        C = np.array([[0.0], [1.0], [2.0]])
        table = sq.pairwise(P, C)
        assert table.shape == (2, 3)
        np.testing.assert_array_equal(table, [[0.0, 1.0, 4.0], [9.0, 4.0, 1.0]])

    def test_constants(self, sq):
        assert (sq.alpha, sq.beta, sq.mu) == (2.0, 1.0, 1.0)

    def test_dimension_mismatch(self, sq):
        with pytest.raises(DimensionMismatch):
            sq((1.0, 2.0), (1.0,))

    def test_generator_route_matches_closed_form(self, sq, gen):
        P, Q = gen.standard_normal((50, 3)), gen.standard_normal((50, 3))
        direct = sq.rowwise(P, Q)
        via_phi = sq.bregman_form(P, Q)
        np.testing.assert_allclose(via_phi, direct, rtol=0, atol=1e-10)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_identity(self, coords):
        sq = SquaredEuclidean()
        p = np.asarray(coords)
        assert sq(p, p) == 0.0
        assert sq(p, p + 1.0) > 0.0


class TestMahalanobis:
    def test_identity_matrix_reduces_to_squared_euclidean(self, sq, gen):
        m = Mahalanobis(np.eye(3))
        P, Q = gen.standard_normal((20, 3)), gen.standard_normal((20, 3))
        np.testing.assert_allclose(m.rowwise(P, Q), sq.rowwise(P, Q), rtol=1e-14)

    def test_diagonal_weighting(self):
        m = Mahalanobis(np.diag([2.0, 0.5]))
        assert m((1.0, 1.0), (0.0, 0.0)) == 2.5

    def test_non_square_rejected(self):
        with pytest.raises(ConfigError):
            Mahalanobis(np.ones((2, 3)))

    def test_declares_its_dimension(self):
        assert Mahalanobis(np.eye(3)).fixed_dim == 3
        rep = centroid_report(Mahalanobis(np.diag([2.0, 1.0, 0.5])),
                              RngStream(77).derive(0), instances=20)
        assert rep.violations == 0

    def test_asymmetric_rejected(self):
        with pytest.raises(ConfigError):
            Mahalanobis(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(ConfigError):
            Mahalanobis(np.array([[1.0, 0.0], [0.0, -2.0]]))
        with pytest.raises(ConfigError):
            Mahalanobis(np.zeros((2, 2)))

    def test_similarity_matrix_is_its_own_form(self):
        A = np.array([[2.0, 0.3], [0.3, 1.0]])
        m = Mahalanobis(A)
        np.testing.assert_array_equal(m.similarity_matrix(2), m.matrix)
        with pytest.raises(DimensionMismatch):
            m.similarity_matrix(3)

    def test_points_of_another_dimension_are_rejected(self):
        """2-D points against a 3 x 3 matrix: a DimensionMismatch from the
        check, not a numpy broadcast error from the kernel."""
        m = Mahalanobis(np.eye(3))
        with pytest.raises(DimensionMismatch, match="3-dimensional"):
            m((1.0, 2.0), (0.0, 1.0))
        with pytest.raises(DimensionMismatch):
            m.validate_points(np.zeros((4, 2)))
        with pytest.raises(DimensionMismatch):
            d2ptas.find_k_median(np.arange(8.0).reshape(4, 2), m,
                                 d2ptas.PtasConfig(k=2, epsilon=0.5), RngStream(1))
        m.validate_points(np.zeros((4, 3)))


class TestKullbackLeibler:
    def test_frozen_value(self):
        kl = KullbackLeibler()
        assert kl((0.5, 0.5), (0.25, 0.75)) == pytest.approx(KL_PAIR, rel=1e-15)

    def test_identity_is_zero(self):
        kl = KullbackLeibler()
        assert kl((0.3, 0.6), (0.3, 0.6)) == 0.0

    def test_asymmetry_values(self):
        kl = KullbackLeibler()
        assert kl((0.8,), (0.3,)) == pytest.approx(KL_FWD, rel=1e-15)
        assert kl((0.3,), (0.8,)) == pytest.approx(KL_BWD, rel=1e-15)

    def test_default_mu_is_curvature_floor(self):
        kl = KullbackLeibler(box=(0.1, 0.9))
        assert kl.mu == pytest.approx(1.0 / 18.0, rel=1e-12)
        assert kl.alpha == pytest.approx(2.0 / kl.mu, rel=1e-15)
        assert kl.beta == kl.mu

    def test_mu_override_and_validation(self):
        assert KullbackLeibler(mu=0.25).mu == 0.25
        with pytest.raises(ConfigError):
            KullbackLeibler(mu=0.0)
        with pytest.raises(ConfigError):
            KullbackLeibler(mu=1.5)
        with pytest.raises(ConfigError):
            KullbackLeibler(box=(0.9, 0.1))
        with pytest.raises(ConfigError):
            KullbackLeibler(box=(0.0, 0.9))

    def test_domain_enforced(self):
        kl = KullbackLeibler()
        with pytest.raises(DomainError):
            kl((0.5,), (-0.1,))

    def test_phi_frozen(self):
        kl = KullbackLeibler()
        assert kl.phi(np.array([0.5, 0.5])) == pytest.approx(PHI_KL, rel=1e-15)

    def test_generator_route_matches_closed_form(self, gen):
        kl = KullbackLeibler()
        P = gen.uniform(0.1, 0.9, (200, 4))
        Q = gen.uniform(0.1, 0.9, (200, 4))
        np.testing.assert_allclose(kl.bregman_form(P, Q), kl.rowwise(P, Q),
                                   rtol=0, atol=1e-12)

    def test_similarity_matrix(self):
        kl = KullbackLeibler(box=(0.1, 0.9))
        np.testing.assert_allclose(kl.similarity_matrix(3), np.eye(3) / 0.1)


class TestItakuraSaito:
    def test_identity_exactly_zero(self):
        """The ratio form evaluates p/q = 1 first, so p == q gives 0.0 exactly."""
        isd = ItakuraSaito()
        P = np.array([[0.137, 0.725], [0.5, 0.5]])
        np.testing.assert_array_equal(isd.rowwise(P, P), [0.0, 0.0])

    def test_frozen_value(self):
        isd = ItakuraSaito(box=(0.1, 0.9))
        assert isd((0.8,), (0.4,)) == pytest.approx(IS_PAIR, rel=1e-15)

    def test_default_mu(self):
        isd = ItakuraSaito(box=(0.1, 0.9))
        assert isd.mu == pytest.approx(1.0 / 162.0, rel=1e-12)

    def test_generator_route_matches_closed_form(self, gen):
        isd = ItakuraSaito()
        P = gen.uniform(0.1, 0.9, (200, 3))
        Q = gen.uniform(0.1, 0.9, (200, 3))
        np.testing.assert_allclose(isd.bregman_form(P, Q), isd.rowwise(P, Q),
                                   rtol=0, atol=1e-12)

    def test_similarity_matrix(self):
        isd = ItakuraSaito(box=(0.1, 0.9))
        np.testing.assert_allclose(isd.similarity_matrix(2), np.eye(2) / 0.01)


MAHALANOBIS_3 = np.array([[2.0, 0.4, 0.0], [0.4, 1.0, 0.3], [0.0, 0.3, 0.5]])
KERNEL_MEASURES = [SquaredEuclidean(), Mahalanobis(MAHALANOBIS_3), KullbackLeibler(), ItakuraSaito(),
                   GenericBregman(phi=lambda X: np.einsum("...i,...i->...", X, X),
                                  grad_phi=lambda X: 2.0 * X, mu=1.0, box=None, domain="unrestricted")]
KERNEL_IDS = ["sqeuclid", "mahalanobis", "kl", "itakura-saito", "sqnorm-bregman"]
# (measure, offset): the quadratic measures also run far from the origin,
# where the generator terms cancel to many digits
OFFSET_CASES = [(m, 0.0) for m in KERNEL_MEASURES] + [
    (KERNEL_MEASURES[0], 1e6), (KERNEL_MEASURES[1], 1e6), (KERNEL_MEASURES[4], 1e6)]
OFFSET_IDS = KERNEL_IDS + ["sqeuclid-offset", "mahalanobis-offset", "sqnorm-bregman-offset"]
# (measure, dimension, offset): at offset 1e6 whole columns take the closed form
MAHALANOBIS_1 = Mahalanobis([[2.5]])
LIFT_CASES = ([(m, 3, 0.0) for m in KERNEL_MEASURES] + [(MAHALANOBIS_1, 1, 0.0)]
              + [(m, m.fixed_dim or 3, 1e6) for m in (KERNEL_MEASURES[0], KERNEL_MEASURES[1],
                                                       KERNEL_MEASURES[4], MAHALANOBIS_1)])
LIFT_IDS = KERNEL_IDS + ["mahalanobis-1x1", "sqeuclid-offset", "mahalanobis-offset",
                         "sqnorm-bregman-offset", "mahalanobis-1x1-offset"]


class TestGenericBregman:
    def test_squared_norm_generator_reproduces_squared_euclidean(self, sq, gen):
        """phi = ||x||^2 has Bregman divergence ||p - q||^2 identically."""
        g = GenericBregman(
            phi=lambda X: np.einsum("...i,...i->...", X, X),
            grad_phi=lambda X: 2.0 * X,
            mu=1.0, box=None, domain="unrestricted")
        P, Q = gen.standard_normal((100, 3)), gen.standard_normal((100, 3))
        np.testing.assert_allclose(g.rowwise(P, Q), sq.rowwise(P, Q),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("measure", KERNEL_MEASURES, ids=KERNEL_IDS)
    def test_constants_follow_mu(self, measure):
        assert measure.alpha == 2.0 / measure.mu
        assert measure.beta == measure.mu

    def test_mu_validated(self):
        with pytest.raises(ConfigError):
            GenericBregman(phi=None, grad_phi=None, mu=2.0)

    def test_domain_enforced(self):
        square = dict(phi=lambda X: (X * X).sum(-1), grad_phi=lambda X: 2 * X, mu=1.0)
        with pytest.raises(DomainError, match=r"\[0.1, 0.9\]"):
            GenericBregman(**square, domain=(0.1, 0.9)).validate_points([[0.05]])
        with pytest.raises(DomainError, match="positive"):
            GenericBregman(**square).validate_points([[0.5, -1.0]])
        GenericBregman(**square, domain=(0.1, 0.9)).validate_points([[0.1], [0.9]])

    def test_similarity_matrix_optional(self):
        g = GenericBregman(phi=lambda X: X.sum(-1) ** 2, grad_phi=lambda X: X,
                           mu=0.5)
        with pytest.raises(UnsupportedMeasure):
            g.similarity_matrix(2)
        g2 = GenericBregman(phi=lambda X: X.sum(-1) ** 2, grad_phi=lambda X: X,
                            mu=0.5, similarity=np.eye(2))
        np.testing.assert_array_equal(g2.similarity_matrix(2), np.eye(2))


def kernel_points(measure, gen, n, offset=0.0):
    return measure.sample_domain(gen, (n, 3)) + offset


def closed_form_table(measure, P, C):
    return measure.rowwise(P[:, None, :], C[None, :, :])


class TestPairwiseKernel:
    """``pairwise`` is the generator table with a closed-form repair."""

    @pytest.mark.parametrize("measure", KERNEL_MEASURES, ids=KERNEL_IDS)
    def test_matches_the_closed_form(self, measure, gen):
        P, C = kernel_points(measure, gen, 60), kernel_points(measure, gen, 13)
        np.testing.assert_allclose(measure.pairwise(P, C), closed_form_table(measure, P, C),
                                   rtol=1e-9, atol=0)

    @pytest.mark.parametrize("measure,offset", OFFSET_CASES, ids=OFFSET_IDS)
    def test_copied_rows_are_exactly_zero(self, measure, offset, gen):
        P = kernel_points(measure, gen, 40, offset)
        idx = gen.permutation(40)[:9]
        table = measure.pairwise(P, P[idx])
        assert np.all(table[idx, np.arange(9)] == 0.0)

    @pytest.mark.parametrize("measure,offset", OFFSET_CASES, ids=OFFSET_IDS)
    def test_entries_finite_and_nonnegative(self, measure, offset, gen):
        P = kernel_points(measure, gen, 50, offset)
        near = P[:10] * (1.0 + 1e-12 * gen.standard_normal((10, 3)))  # near-copies cancel hardest
        table = measure.pairwise(P, np.concatenate([P[10:20], near]))
        assert np.all(np.isfinite(table)) and np.all(table >= 0.0)

    @pytest.mark.parametrize("measure,offset", OFFSET_CASES, ids=OFFSET_IDS)
    def test_duplicate_rows_and_n_equal_to_k(self, measure, offset, gen):
        base = kernel_points(measure, gen, 5, offset)
        P = base[[0, 1, 1, 2, 3, 3, 3, 4]]
        table = measure.pairwise(P, P)
        same = (P[:, None, :] == P[None, :, :]).all(axis=-1)
        assert np.all(table[same] == 0.0) and np.all(table[~same] > 0.0)
        assert cluster_cost(measure, P, P) == 0.0

    @pytest.mark.parametrize("measure,offset", OFFSET_CASES, ids=OFFSET_IDS)
    def test_columns_extend_as_prefixes(self, measure, offset, gen):
        """Column j depends only on P and C_j, down to a one-column table."""
        P = kernel_points(measure, gen, 300, offset)
        C = np.concatenate([P[:4], kernel_points(measure, gen, 8, offset)])
        full = measure.pairwise(P, C)
        for m in (1, 2, 3, 7):
            np.testing.assert_array_equal(measure.pairwise(P, C[:m]), full[:, :m])

    def test_columns_swamped_by_the_terms_are_the_closed_form(self, sq, gen):
        """A few far points make the terms dwarf the near cluster's distances:
        its columns are recomputed whole, the far columns keep the product."""
        P = np.concatenate([gen.standard_normal((200, 3)), 1e5 + gen.standard_normal((10, 3))])
        C = P[[0, 205, 1, 2, 206]]
        table, closed = sq.pairwise(P, C), closed_form_table(sq, P, C)
        near = [0, 2, 3]
        np.testing.assert_array_equal(table[:, near], closed[:, near])
        np.testing.assert_allclose(table, closed, rtol=1e-9, atol=0)
        for m in (1, 2, 3, 4):
            np.testing.assert_array_equal(sq.pairwise(P, C[:m]), table[:, :m])


    @pytest.mark.parametrize("measure,offset", OFFSET_CASES, ids=OFFSET_IDS)
    def test_wide_tables_are_their_column_slices(self, measure, offset, gen):
        """Past 128 centers a table is its slices of 128 columns, each its own
        product; a one-column remainder is a one-column table, and a table of
        128 columns is one product."""
        P = kernel_points(measure, gen, 40, offset)
        C = kernel_points(measure, gen, 2 * 128 + 1, offset)
        full = measure.pairwise(P, C)
        for lo, hi in ((0, 128), (128, 256), (256, 257)):
            np.testing.assert_array_equal(full[:, lo:hi], measure.pairwise(P, C[lo:hi]))
        stack = measure.pairwise(P, np.stack([C[:129], C[128:]]))
        np.testing.assert_array_equal(stack[0], full[:, :129])
        np.testing.assert_array_equal(stack[1], measure.pairwise(P, C[128:]))

    def test_wide_tables_do_not_depend_on_the_blas_thread_count(self):
        """20 000 x 8 points against a block of 300 centers: the table hashes
        the same at one BLAS thread and at two.  One 300-column product does
        not, with OpenBLAS 0.3.31 on a 2-core x86-64 machine."""
        script = ("import hashlib, numpy as np; from d2ptas import SquaredEuclidean; "
                  "g = np.random.default_rng(5); P = g.standard_normal((20000, 8)); "
                  "C = g.standard_normal((1, 300, 8)); "
                  "print(hashlib.sha256(SquaredEuclidean().pairwise(P, C).tobytes()).hexdigest())")
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

    @pytest.mark.parametrize("measure,dim,offset", LIFT_CASES, ids=LIFT_IDS)
    def test_a_reused_point_side_gives_the_same_bits(self, measure, dim, offset, gen):
        """``pairwise`` with the points' side computed once is bitwise
        ``pairwise(P, C)``: a 2-D table, a stack of blocks, one column and
        more than 128; copied rows are exactly 0 and no entry is negative."""
        P = measure.sample_domain(gen, (300, dim)) + offset
        side = measure._point_side(P)
        idx = gen.permutation(300)[:140]
        fresh = measure.sample_domain(gen, (2, 6, dim)) + offset
        for C, copied in ((P[idx[:9]], idx[:9]), (fresh, None), (P[idx[:1]], idx[:1]),
                          (P[idx], idx), (fresh[:, :1], None)):
            table = measure.pairwise(P, C, point_side=side)
            np.testing.assert_array_equal(table, measure.pairwise(P, C))
            assert np.all(table >= 0.0)
            if copied is not None:
                assert np.all(table[copied, np.arange(len(copied))] == 0.0)


    @pytest.mark.parametrize("measure,dim,offset", LIFT_CASES, ids=LIFT_IDS)
    def test_a_stack_of_point_blocks_is_its_blocks(self, measure, dim, offset, gen):
        """Block a of ``pairwise(P, C)`` for (A, n, d) points and (A, m, d)
        centers is bitwise ``pairwise(P[a], C[a])``: m = 1, m over 128, and a
        block 1e6 from the origin, whose columns are recomputed whole, beside
        an ordinary one.  The points' side keeps each block's own maxima."""
        P = measure.sample_domain(gen, (3, 60, dim)) + offset
        if measure.domain == "unrestricted":
            P[1] += 1e6
        for C in (P[:, :9], P[:, 20:21], measure.sample_domain(gen, (3, 130, dim)) + offset,
                  np.concatenate([P[:, :5], P[:, :5]], axis=1)):
            stack = measure.pairwise(P, C)
            assert stack.shape == (3, 60, C.shape[1])
            for a in range(3):
                np.testing.assert_array_equal(stack[a], measure.pairwise(P[a], C[a]))
        lifted, phi_max, sq_max = measure._point_side(P)
        for a in range(3):
            own = measure._point_side(P[a])
            np.testing.assert_array_equal(lifted[a], own[0])
            assert (phi_max[a].tobytes(), sq_max[a].tobytes()) == (own[1].tobytes(),
                                                                  own[2].tobytes())
        with pytest.raises(DimensionMismatch):
            measure.pairwise(P, C[:2])

class TestCentroidAndAssignment:
    @pytest.mark.parametrize("measure,offset", OFFSET_CASES, ids=OFFSET_IDS)
    def test_costs_are_the_closed_form_of_the_labels(self, measure, offset, gen):
        P = kernel_points(measure, gen, 70, offset)
        C = np.concatenate([P[:3], kernel_points(measure, gen, 4, offset)])
        labels, costs = assign(measure, P, C)
        np.testing.assert_array_equal(costs, measure.rowwise(P, C[labels]))

    def test_centroid_of_four_point_line(self, four_point_line):
        assert centroid(four_point_line) == pytest.approx(2.5)

    def test_centroid_of_equal_rows_is_the_row(self):
        rows = np.array([[0.1, 7.3]] * 3)
        assert rows.mean(axis=0)[0] != 0.1
        np.testing.assert_array_equal(centroid(rows), [0.1, 7.3])

    def test_assign_breaks_ties_low_index(self, sq):
        labels, costs = assign(sq, [[1.0]], [[0.0], [2.0]])
        assert labels.tolist() == [0] and costs.tolist() == [1.0]

    def test_cluster_cost_four_point_fixture(self, sq, four_point_line):
        assert cluster_cost(sq, four_point_line, [[0.5], [4.5]]) == 1.0

    def test_assign_dimension_check(self, sq):
        with pytest.raises(DimensionMismatch):
            assign(sq, [[1.0, 2.0]], [[1.0]])

    def test_mean_minimizes_second_slot(self, sq, gen):
        P = gen.standard_normal((30, 3))
        m = centroid(P)
        at_mean = cluster_cost(sq, P, m[None, :])
        for _ in range(10):
            other = m + 0.1 * gen.standard_normal(3)
            assert at_mean <= cluster_cost(sq, P, other[None, :])


class TestCentroidProperty:
    @pytest.mark.parametrize("measure,tol", [
        (SquaredEuclidean(), 1e-9),
        (Mahalanobis(np.array([[2.0, 0.4], [0.4, 1.0]])), 1e-9),
    ])
    def test_quadratic_measures_tight(self, measure, tol, gen):
        for _ in range(20):
            P = gen.standard_normal((15, 2)) * 3.0
            c = gen.standard_normal(2)
            rep = check_centroid_property(measure, P, c, tolerance=tol)
            assert rep.passed, rep.worst_ratio

    @pytest.mark.parametrize("measure", [KullbackLeibler(), ItakuraSaito()])
    def test_generator_measures_tight(self, measure, gen):
        for _ in range(20):
            P = gen.uniform(0.1, 0.9, (15, 3))
            c = gen.uniform(0.1, 0.9, 3)
            rep = check_centroid_property(measure, P, c, tolerance=1e-8)
            assert rep.passed, rep.worst_ratio

    def test_batch_report(self, sq):
        rep = centroid_report(sq, RngStream(1).derive(0), instances=50)
        assert rep.trials == 50 and rep.violations == 0
        assert rep.worst_ratio <= rep.tolerance

    def test_wrong_center_dimension(self, sq):
        with pytest.raises(DimensionMismatch):
            check_centroid_property(sq, [[1.0, 2.0]], [1.0])

    @pytest.mark.parametrize("measure", [
        SquaredEuclidean(),
        Mahalanobis(np.diag([2.0, 1.0, 0.5])),
        KullbackLeibler(),
        KullbackLeibler(mu=1.0),
        ItakuraSaito(),
    ])
    @pytest.mark.parametrize("tol", [0.0, 1e-16, 1e-9])
    def test_batch_report_is_the_tally_of_its_instances(self, measure, tol):
        """The batch report's counts equal those of check_centroid_property on
        the instances it draws: n points in _CENTROID_SIZES, of a dimension in
        _CENTROID_DIMS or the measure's own, then the center."""
        rep = centroid_report(measure, RngStream(5).derive(1), instances=40, tolerance=tol)
        gen = RngStream(5).derive(1).generator
        sizes, dims = divergences._CENTROID_SIZES, divergences._CENTROID_DIMS
        if measure.fixed_dim is not None:
            dims = (measure.fixed_dim,) * 2
        checks = []
        for _ in range(40):
            n = int(gen.integers(sizes[0], sizes[1] + 1))
            d = int(gen.integers(dims[0], dims[1] + 1))
            P = measure.sample_domain(gen, (n, d))
            checks.append(check_centroid_property(measure, P, measure.sample_domain(gen, (d,)),
                                                  tolerance=tol))
        assert rep.trials == len(checks)
        assert rep.violations == sum(check.violations for check in checks)
        assert rep.worst_ratio == max(check.worst_ratio for check in checks)
        assert rep.passed == all(check.passed for check in checks)
        assert rep.details == {}

    @pytest.mark.parametrize("instances", [0, -1])
    def test_batch_report_needs_an_instance(self, sq, instances):
        with pytest.raises(ConfigError, match="at least one instance"):
            centroid_report(sq, RngStream(1), instances=instances)

    def test_batch_report_checks_the_drawn_points(self):
        """Standard normal draws of a measure with no box leave its positive domain."""
        measure = GenericBregman(phi=lambda X: (X * np.log(X)).sum(axis=-1),
                                 grad_phi=lambda X: np.log(X) + 1.0, mu=0.5, box=None,
                                 domain="positive")
        with pytest.raises(DomainError):
            centroid_report(measure, RngStream(6), instances=5)


class TestApproximateMetricBounds:
    def test_kl_fails_perfect_symmetry_but_meets_mu_bound(self):
        strict = KullbackLeibler(mu=1.0)   # beta = 1 demands exact symmetry
        assert symmetry_report(strict, 1, 200, RngStream(3)).violations > 0
        honest = KullbackLeibler(box=(0.1, 0.9))
        assert symmetry_report(honest, 1, 200, RngStream(3)).violations == 0

    @pytest.mark.parametrize("measure", [
        SquaredEuclidean(),
        Mahalanobis(np.array([[1.5, 0.2], [0.2, 0.7]])),
        KullbackLeibler(box=(0.1, 0.9)),
        ItakuraSaito(box=(0.1, 0.9)),
    ])
    def test_no_violations_in_batches(self, measure):
        rng = RngStream(42)
        dim = 2
        sym = symmetry_report(measure, dim, 5000, rng.derive(0))
        tri = triangle_report(measure, dim, 5000, rng.derive(1))
        assert sym.violations == 0, sym.to_dict()
        assert tri.violations == 0, tri.to_dict()
        assert sym.worst_ratio <= 1.0 + sym.tolerance
        assert tri.worst_ratio <= 1.0 + tri.tolerance


class TestRandomPairs:
    @pytest.mark.parametrize("report", [symmetry_report, triangle_report, mu_similarity_report])
    @pytest.mark.parametrize("dim,trials", [(2, 0), (2, -1), (0, 10), (-1, 10)])
    def test_no_trials_or_no_dimensions_are_refused(self, report, dim, trials):
        with pytest.raises(ConfigError, match="at least one trial of at least one dimension"):
            report(SquaredEuclidean(), dim, trials, RngStream(1))


class TestMuSimilarity:
    @pytest.mark.parametrize("measure", [
        KullbackLeibler(box=(0.1, 0.9)),
        ItakuraSaito(box=(0.1, 0.9)),
    ])
    def test_sandwich_holds_for_default_mu(self, measure):
        rep = mu_similarity_report(measure, 3, 20000, RngStream(9))
        assert rep.violations == 0, rep.to_dict()
        assert rep.details["upper_bound_ok"]
        # the analytic floor must not exceed the observed floor
        assert measure.mu <= rep.details["mu_hat"] + rep.tolerance

    def test_overclaimed_mu_is_flagged(self):
        brave = KullbackLeibler(box=(0.1, 0.9), mu=0.99)
        rep = mu_similarity_report(brave, 3, 5000, RngStream(10))
        assert rep.violations >= 1
        assert not rep.passed

    def test_pair_list_input(self):
        kl = KullbackLeibler(box=(0.1, 0.9))
        P, Q = [(0.2, 0.3), (0.8, 0.8)], [(0.4, 0.5), (0.7, 0.6)]
        rep = check_mu_similarity(kl, kl.similarity_matrix(2), P, Q)
        assert rep.trials == 2
        assert "generator_residual" in rep.details
        assert rep.details["generator_residual"] <= 1e-12

    def test_dimension_validation(self):
        kl = KullbackLeibler()
        with pytest.raises(DimensionMismatch):
            check_mu_similarity(kl, np.eye(3), np.full((5, 2), 0.5), np.full((5, 2), 0.4))

    def test_exactly_two_pairs(self):
        """Row i of P and row i of Q make pair i, also for two pairs, which a
        tuple of two (p, q) pairs once passed as a (P, Q) batch."""
        kl = KullbackLeibler(box=(0.1, 0.9))
        U = kl.similarity_matrix(2)
        P, Q = np.array([[0.2, 0.3], [0.8, 0.8]]), np.array([[0.4, 0.5], [0.7, 0.6]])
        ratios = [kl(p, q) / ((p - q) @ U @ (p - q)) for p, q in zip(P, Q)]
        rep = check_mu_similarity(kl, U, P, Q)
        assert rep.trials == 2
        assert rep.worst_ratio == pytest.approx(min(ratios), rel=1e-12)


class TestPropertyReport:
    def test_passed_defaults_to_no_violations(self):
        assert PropertyReport("x", 10, 0, 0.5, 1e-9).passed
        assert not PropertyReport("x", 10, 1, 0.5, 1e-9).passed

    def test_explicit_passed_wins(self):
        rep = PropertyReport("x", 10, 3, 0.5, 1e-9, passed=True)
        assert rep.passed

    def test_non_finite_worst_ratio_rejected(self):
        with pytest.raises(ValueError):
            PropertyReport("x", 10, 0, np.inf, 1e-9)

    def test_violations_bounded_by_trials(self):
        with pytest.raises(ValueError):
            PropertyReport("x", 5, 6, 0.0, 1e-9)

    def test_to_dict_round_trips_numpy_scalars(self):
        rep = PropertyReport("x", 10, 0, 0.25, 1e-9,
                             details={"v": np.float64(1.5), "a": np.arange(3)})
        d = rep.to_dict()
        assert d["details"]["v"] == 1.5
        assert d["details"]["a"] == [0, 1, 2]
