"""Unit and property tests for the SPD rank-one update kernel."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coop_lsvi import psdmat
from coop_lsvi.psdmat import (INV_REL_TOL, MAX_DIM, MIN_RIDGE, REFRESH_PERIOD,
                              DiagonalPsdMatrix, PsdMatrix, det_ratio, log_det_ratio)


def e(i, d):
    v = np.zeros(d)
    v[i] = 1.0
    return v


def random_unit_vectors(rng, n, d, scale=1.0):
    vs = rng.standard_normal((n, d))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    return vs * scale


class TestInit:
    def test_identity(self):
        m = PsdMatrix(2, 1.0)
        assert np.array_equal(m.mat, np.eye(2))
        assert m.logdet == 0.0

    def test_diagonal_closed_form(self):
        m = PsdMatrix(3, 2.0)
        assert m.logdet == pytest.approx(3 * math.log(2.0), abs=1e-12)

    def test_scalar_inverse(self):
        m = PsdMatrix(16, 0.5)
        assert np.allclose(m.inv, 2.0 * np.eye(16))

    @pytest.mark.parametrize("dim,ridge", [(0, 1.0), (-1, 1.0), (3, 0.0), (3, -2.0),
                                           (3, MIN_RIDGE / 10), (3, 1e-155)])
    def test_invalid_arguments(self, dim, ridge):
        with pytest.raises(ValueError):
            PsdMatrix(dim, ridge)

    def test_dim_cap(self):
        with pytest.raises(ValueError):
            PsdMatrix(MAX_DIM + 1, 1.0)

    @pytest.mark.parametrize("cls", [PsdMatrix, DiagonalPsdMatrix])
    def test_first_update_meets_the_tolerance_from_the_ridge_floor(self, cls, monkeypatch):
        """MIN_RIDGE is the smallest power of ten from which the first update,
        the one that cancels most, stays within INV_REL_TOL of 1/(1 + ridge)."""
        def worst(ridges):
            errs = []
            for r in ridges:
                m = cls(1, float(r))
                m.add_bases([0])
                errs.append(abs(m.inv[0, 0] * (1.0 + r) - 1.0))
            return max(errs)

        assert worst(np.geomspace(MIN_RIDGE, 1.0, 2001)) <= INV_REL_TOL
        monkeypatch.setattr(psdmat, "MIN_RIDGE", 0.0)
        assert worst(np.geomspace(MIN_RIDGE / 10, MIN_RIDGE, 1001)) > INV_REL_TOL

    @pytest.mark.parametrize("cls", [PsdMatrix, DiagonalPsdMatrix])
    def test_updates_at_the_ridge_floor_stay_finite(self, cls):
        """The first update squares 1/ridge; at MIN_RIDGE that is still finite."""
        m = cls(3, MIN_RIDGE)
        with np.errstate(all="raise"):
            for j in (0, 0, 2):
                m.add_bases([j])
        assert np.isfinite(m.inv).all() and (m.inv.diagonal() >= 0).all()
        assert math.isfinite(m.logdet)


class TestRankOneUpdate:
    def test_diagonal_update(self):
        m = PsdMatrix(2, 1.0)
        m.rank_one_update(e(0, 2))
        assert np.array_equal(m.mat, np.diag([2.0, 1.0]))
        assert m.logdet == pytest.approx(math.log(2.0), abs=1e-15)

    def test_diagonal_arithmetic(self):
        m = PsdMatrix(2, 1.0)
        m.rank_one_update(e(0, 2))  # mat = diag(2, 1)
        m.rank_one_update(e(0, 2))  # mat = diag(3, 1)
        assert m.quad_form(e(0, 2)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_cached_inverse_vs_direct(self):
        # 1000 random unit vectors at d=16: cached inverse tracks the
        # from-scratch inversion of the accumulated sum.
        rng = np.random.default_rng(0)
        d = 16
        m = PsdMatrix(d, 1.0)
        total = np.eye(d)
        for v in random_unit_vectors(rng, 1000, d):
            m.rank_one_update(v)
            total += np.outer(v, v)
        assert np.abs(m.inv - np.linalg.inv(total)).max() < 1e-8
        assert m.logdet == pytest.approx(np.linalg.slogdet(total)[1], abs=1e-8)

    @pytest.mark.parametrize("v", [np.zeros(3), np.zeros((2, 1)), np.array([5.0, 0.0]),
                                   np.array([0.8, 0.8]), np.array([np.nan, 0.0])])
    def test_bad_vector_rejected(self, v):
        m = PsdMatrix(2, 1.0)
        with pytest.raises(ValueError):
            m.rank_one_update(v)
        assert np.array_equal(m.mat, np.eye(2)) and m.logdet == 0.0

    def test_norm_five_vector_names_its_norm(self):
        with pytest.raises(ValueError, match="norm 5 exceeds 1"):
            PsdMatrix(3, 1.0).rank_one_update(np.array([3.0, 4.0, 0.0]))

    def test_refresh_counter(self):
        m = PsdMatrix(4, 1.0)
        rng = np.random.default_rng(1)
        for v in random_unit_vectors(rng, REFRESH_PERIOD, 4):
            m.rank_one_update(v)
        assert m.updates_since_refresh == 0

    def test_copy_is_bit_identical_replay(self):
        rng = np.random.default_rng(2)
        m = PsdMatrix(6, 0.5)
        vs = random_unit_vectors(rng, 40, 6)
        for v in vs[:20]:
            m.rank_one_update(v)
        c = m.copy()
        for v in vs[20:]:
            m.rank_one_update(v)
            c.rank_one_update(v)
        assert np.array_equal(m.inv, c.inv)
        assert m.logdet == c.logdet


class TestQuadForm:
    def test_identity(self):
        assert PsdMatrix(2, 1.0).quad_form(e(0, 2)) == 1.0

    def test_diagonal(self):
        m = PsdMatrix(2, 1.0)
        m.rank_one_update(e(0, 2))
        assert m.quad_form(e(0, 2)) == pytest.approx(0.5, abs=1e-15)

    def test_matches_solve_oracle(self):
        rng = np.random.default_rng(3)
        d = 8
        m = PsdMatrix(d, 0.7)
        for v in random_unit_vectors(rng, 60, d):
            m.rank_one_update(v)
        for v in random_unit_vectors(rng, 20, d):
            direct = float(v @ np.linalg.solve(m.mat, v))
            assert m.quad_form(v) == pytest.approx(direct, abs=1e-9)

    def test_quad_form_many_matches_scalar(self):
        rng = np.random.default_rng(4)
        m = PsdMatrix(5, 1.0)
        for v in random_unit_vectors(rng, 30, 5):
            m.rank_one_update(v)
        vs = random_unit_vectors(rng, 50, 5)
        many = m.quad_form_many(vs)
        for i in range(50):
            assert many[i] == pytest.approx(m.quad_form(vs[i]), rel=1e-12)

    @pytest.mark.parametrize("d", [8, 200])
    def test_quad_form_many_of_one_hot_rows_is_the_exact_diagonal(self, d):
        # Every instance's features are one-hot, so the trajectories rest on
        # this being exact, not merely close; 3d updates on half the
        # directions repeat most of them and pass a refresh at d = 200.
        rng = np.random.default_rng(d)
        m = PsdMatrix(d, 1.0)
        for j in rng.integers(0, d // 2, size=3 * d):
            m.rank_one_update(e(j, d))
        assert np.array_equal(m.quad_form_many(np.eye(d)), np.maximum(np.diag(m.inv), 0.0))

    def test_inv_diag_is_the_read_only_inverse_diagonal(self):
        rng = np.random.default_rng(6)
        m = PsdMatrix(7, 1.0)
        for v in random_unit_vectors(rng, 20, 7):
            m.rank_one_update(v)
        assert np.array_equal(m.inv_diag, np.diag(m.inv))
        assert np.array_equal(m.inv_diag, m.quad_form_many(np.eye(7)))
        assert not m.inv_diag.flags.writeable

    def test_quad_form_many_matches_scalar_on_dense_rows_d200(self):
        rng = np.random.default_rng(5)
        d = 200
        m = PsdMatrix(d, 1.0)
        for v in random_unit_vectors(rng, 300, d):
            m.rank_one_update(v)
        vs = random_unit_vectors(rng, 40, d)
        many = m.quad_form_many(vs)
        for i in range(40):
            assert many[i] == pytest.approx(m.quad_form(vs[i]), rel=1e-12)


class TestSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0])
        assert np.allclose(PsdMatrix(2, 1.0).solve(b), b)

    def test_diagonal(self):
        m = PsdMatrix(2, 1.0)
        m.rank_one_update(e(0, 2))
        assert np.allclose(m.solve(np.array([1.0, 1.0])), [0.5, 1.0])

    def test_residual(self):
        rng = np.random.default_rng(5)
        d = 12
        m = PsdMatrix(d, 0.3)
        for v in random_unit_vectors(rng, 500, d):
            m.rank_one_update(v)
        for _ in range(10):
            b = rng.standard_normal(d)
            x = m.solve(b)
            assert np.linalg.norm(m.mat @ x - b) <= 1e-8 * np.linalg.norm(b)

    @pytest.mark.parametrize("cls", [PsdMatrix, DiagonalPsdMatrix])
    def test_unchecked_entry_equals_solve(self, cls):
        """The refit's _solve_into, into a row of an (H, d) weight array,
        gives solve's bits, before and after a refresh."""
        rng = np.random.default_rng(11)
        d, H = 6, 3
        m = cls(d, 0.7)
        for n_updates in (40, REFRESH_PERIOD - 40 + 3):
            m.add_bases(rng.integers(0, d, size=n_updates).tolist())
            w = np.zeros((H, d))
            for hh in range(H):
                b = rng.standard_normal(d)
                x = m._solve_into(b, w[hh])
                assert x.base is w and np.shares_memory(x, w[hh])
                assert w[hh].tobytes() == m.solve(b).tobytes()
                assert w[hh].tobytes() == m.solve(b, out=np.empty(d)).tobytes()
            assert not np.any(w == 0.0)
        assert m.updates_since_refresh == 3

    @pytest.mark.parametrize("cls", [PsdMatrix, DiagonalPsdMatrix])
    @pytest.mark.parametrize("shape", [3, 5, (4, 2), (4, 1), (1, 4), ()], ids=str)
    def test_solve_refuses_a_right_hand_side_of_the_wrong_length(self, cls, shape):
        """The checks stay in solve: both covariance classes refuse, with one
        message, any right-hand side but (dim,), a (d, k) one too, which
        np.matmul would solve column by column."""
        b = np.ones(shape)
        with pytest.raises(ValueError, match=rf"^right-hand side shape "
                                             rf"{re.escape(str(b.shape))} != \(4,\)$"):
            cls(4, 1.0).solve(b)


class TestDetRatio:
    def test_single_one_hot(self):
        assert det_ratio(PsdMatrix(2, 1.0), [e(0, 2)]) == pytest.approx(2.0, rel=1e-15)

    def test_two_one_hots(self):
        base = PsdMatrix(2, 1.0)
        assert det_ratio(base, [e(0, 2), e(1, 2)]) == pytest.approx(4.0, rel=1e-15)

    def test_base_not_mutated(self):
        base = PsdMatrix(3, 1.0)
        det_ratio(base, [e(0, 3)])
        assert base.logdet == 0.0

    def test_matches_direct_determinants(self):
        rng = np.random.default_rng(6)
        d = 6
        base = PsdMatrix(d, 1.0)
        for v in random_unit_vectors(rng, 25, d):
            base.rank_one_update(v)
        deltas = random_unit_vectors(rng, 5, d)
        updated = base.mat + sum(np.outer(v, v) for v in deltas)
        direct = np.linalg.det(updated) / np.linalg.det(base.mat)
        assert det_ratio(base, deltas) == pytest.approx(direct, rel=1e-8)

    def test_at_least_one_iff_nonzero(self):
        base = PsdMatrix(4, 2.0)
        assert det_ratio(base, [np.zeros(4)] * 3) == 1.0
        assert det_ratio(base, [0.5 * e(1, 4)]) > 1.0


class TestLongRunAgreement:
    """Cached quantities stay within 1e-8 of from-scratch across long runs."""

    @pytest.mark.parametrize("d,n,ridge", [(8, 10_000, 1.0), (32, 700, 0.25), (3, 2000, 4.0)])
    def test_drift(self, d, n, ridge):
        rng = np.random.default_rng(d * 1000 + n)
        m = PsdMatrix(d, ridge)
        total = ridge * np.eye(d)
        scales = rng.random(n)  # norms in [0, 1]
        for v, c in zip(random_unit_vectors(rng, n, d), scales):
            m.rank_one_update(c * v)
            total += np.outer(c * v, c * v)
        assert np.abs(m.inv - np.linalg.inv(total)).max() < 1e-8
        assert abs(m.logdet - np.linalg.slogdet(total)[1]) < 1e-8


@settings(max_examples=50, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=8),
    ridge=st.floats(min_value=1e-3, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=0, max_value=40),
)
def test_logdet_nondecreasing_and_quad_bound(d, ridge, seed, n):
    rng = np.random.default_rng(seed)
    m = PsdMatrix(d, ridge)
    prev = m.logdet
    for _ in range(n):
        v = rng.standard_normal(d)
        norm = np.linalg.norm(v)
        if norm > 0:
            v = v / norm * rng.random()
        m.rank_one_update(v)
        assert m.logdet >= prev - 1e-12
        prev = m.logdet
    x = rng.standard_normal(d)
    assert m.quad_form(x) <= float(x @ x) / ridge + 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=0, max_value=10))
def test_det_ratio_at_least_one(seed, n):
    rng = np.random.default_rng(seed)
    d = 5
    base = PsdMatrix(d, 1.0)
    for v in random_unit_vectors(rng, 7, d):
        base.rank_one_update(v)
    deltas = list(random_unit_vectors(rng, n, d)) if n else []
    assert log_det_ratio(base, deltas) >= 0.0
    assert det_ratio(base, deltas) >= 1.0


# -- the diagonal covariance of one-hot runs ----------------------------------


def assert_same_bits(diag, dense, rng):
    """Every cached quantity of ``diag`` equals the dense one exactly."""
    d = dense.dim
    assert diag.logdet == dense.logdet
    assert diag.updates_since_refresh == dense.updates_since_refresh
    assert np.array_equal(diag.mat, dense.mat)
    assert np.array_equal(diag.inv_diag, dense.inv_diag)
    assert np.array_equal(diag.inv, dense.inv)
    assert np.array_equal(diag.inv_diag, dense.quad_form_many(np.eye(d)))
    for _ in range(3):
        b = rng.standard_normal(d)
        assert np.array_equal(diag.solve(b), dense.solve(b))


def one_hot_run(d, ridge, js, rng, check_every):
    """Apply e_j for each j to both classes, comparing them as they go."""
    diag, dense = DiagonalPsdMatrix(d, ridge), PsdMatrix(d, ridge)
    assert_same_bits(diag, dense, rng)
    for i, j in enumerate(js, 1):
        diag.rank_one_update(e(j, d))
        dense.rank_one_update(e(j, d))
        assert diag.logdet == dense.logdet
        if i % check_every == 0 or dense.updates_since_refresh == 0:
            assert_same_bits(diag, dense, rng)
    assert_same_bits(diag, dense, rng)
    return diag, dense


class TestDiagonalBitIdentity:
    """DiagonalPsdMatrix holds the same bits as PsdMatrix after the same
    one-hot updates, refreshes included; trajectories rest on this."""

    @pytest.mark.parametrize("ridge", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("d", [8, 200])
    def test_matches_dense_across_refreshes(self, d, ridge):
        rng = np.random.default_rng(d)
        n = 2 * REFRESH_PERIOD + 100
        # Skewed indices: some coordinates collect hundreds of counts.
        js = np.minimum(rng.geometric(4.0 / d, size=n) - 1, d - 1)
        diag, dense = one_hot_run(d, ridge, js, rng, check_every=97)
        assert diag.updates_since_refresh == 100

    @pytest.mark.parametrize("d", [8, 200])
    def test_copy_is_independent(self, d):
        rng = np.random.default_rng(d + 1)
        diag, dense = one_hot_run(d, 1.0, rng.integers(0, d, size=300), rng, check_every=100)
        diag_copy, dense_copy = diag.copy(), dense.copy()
        for j in rng.integers(0, d, size=REFRESH_PERIOD):
            diag.rank_one_update(e(j, d))
            dense.rank_one_update(e(j, d))
        assert_same_bits(diag, dense, rng)
        assert_same_bits(diag_copy, dense_copy, rng)
        assert diag_copy.updates_since_refresh == 300
        assert not np.array_equal(diag_copy.mat, diag.mat)
        for j in rng.integers(0, d, size=REFRESH_PERIOD):
            diag_copy.rank_one_update(e(j, d))
            dense_copy.rank_one_update(e(j, d))
        assert_same_bits(diag_copy, dense_copy, rng)
        assert_same_bits(diag, dense, rng)

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(min_value=1, max_value=12),
           ridge=st.floats(min_value=1e-3, max_value=10.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=0, max_value=2 * REFRESH_PERIOD + 10))
    def test_matches_dense_property(self, d, ridge, seed, n):
        rng = np.random.default_rng(seed)
        one_hot_run(d, ridge, rng.integers(0, d, size=n), rng, check_every=REFRESH_PERIOD // 2)

    def test_trigger_ratio_matches_dense(self):
        rng = np.random.default_rng(7)
        deltas = [e(j, 6) for j in rng.integers(0, 6, size=9)]
        diag, dense = one_hot_run(6, 1.0, rng.integers(0, 6, size=40), rng, check_every=10)
        assert log_det_ratio(diag, deltas) == log_det_ratio(dense, deltas)


class TestDiagonalInvariants:
    @pytest.mark.parametrize("v", [np.zeros(3), np.zeros((2, 1)), np.ones((1, 2))])
    def test_wrong_shape_rejected(self, v):
        with pytest.raises(ValueError, match="shape"):
            DiagonalPsdMatrix(2, 1.0).rank_one_update(v)

    @pytest.mark.parametrize("v", [np.zeros(2), np.array([0.5, 0.0]), np.array([0.6, 0.8]),
                                   np.array([-1.0, 0.0]), np.array([1.0, 1e-300]),
                                   np.array([np.nan, 0.0]), np.array([1.0, np.nan])])
    def test_non_coordinate_vector_rejected(self, v):
        m = DiagonalPsdMatrix(2, 1.0)
        with pytest.raises(ValueError):
            m.rank_one_update(v)
        assert np.array_equal(m.mat, np.eye(2)) and m.logdet == 0.0
        assert m.updates_since_refresh == 0

    @pytest.mark.parametrize("v", [np.array([5.0, 0.0]), np.array([0.8, 0.8]),
                                   np.array([1.0, 1e-3])])
    def test_norm_above_one_rejected(self, v):
        with pytest.raises(ValueError, match="exceeds 1"):
            DiagonalPsdMatrix(2, 1.0).rank_one_update(v)

    @pytest.mark.parametrize("dim,ridge", [(0, 1.0), (-1, 1.0), (2.0, 1.0), (3, 0.0),
                                           (3, -2.0), (MAX_DIM + 1, 1.0),
                                           (3, MIN_RIDGE / 10), (3, 1e-155)])
    def test_invalid_arguments(self, dim, ridge):
        with pytest.raises(ValueError):
            DiagonalPsdMatrix(dim, ridge)

    def test_solve_rejects_matrix_right_hand_side(self):
        with pytest.raises(ValueError, match="shape"):
            DiagonalPsdMatrix(2, 1.0).solve(np.eye(2))

    def test_dense_views_are_read_only(self):
        m = DiagonalPsdMatrix(3, 1.0)
        for view in (m.mat, m.inv):
            with pytest.raises(ValueError):
                view[0, 0] = 5.0
        assert m.diag[0] == 1.0 and m.inv_diag[0] == 1.0


def cached_state(m):
    """Every cached quantity of a covariance, as exact-comparable values."""
    return m.mat.tobytes(), m.inv.tobytes(), m.logdet, m.updates_since_refresh


class TestAddBasis:
    """add_bases([j]), one cell of the run loop's update, is
    rank_one_update(e_j) exactly."""

    @pytest.mark.parametrize("cls", [PsdMatrix, DiagonalPsdMatrix])
    @pytest.mark.parametrize("d,ridge", [(8, 1.0), (15, 0.3)])
    def test_equals_rank_one_update_across_refreshes(self, cls, d, ridge):
        rng = np.random.default_rng(d)
        by_index, by_vector = cls(d, ridge), cls(d, ridge)
        refreshes = 0
        for j in rng.integers(0, d, size=2 * REFRESH_PERIOD + 37).tolist():
            by_index.add_bases([j])
            by_vector.rank_one_update(e(j, d))
            assert by_index.logdet == by_vector.logdet
            assert by_index.updates_since_refresh == by_vector.updates_since_refresh
            if by_vector.updates_since_refresh == 0:
                refreshes += 1
                assert cached_state(by_index) == cached_state(by_vector)
        assert refreshes == 2
        assert cached_state(by_index) == cached_state(by_vector)

    @pytest.mark.parametrize("cls", [PsdMatrix, DiagonalPsdMatrix])
    def test_numpy_integer_index(self, cls):
        by_index, by_vector = cls(4, 1.0), cls(4, 1.0)
        by_index.add_bases([np.int64(3)])
        by_vector.rank_one_update(e(3, 4))
        assert cached_state(by_index) == cached_state(by_vector)

    @pytest.mark.parametrize("cls", [PsdMatrix, DiagonalPsdMatrix])
    @pytest.mark.parametrize("j", [-1, 4, 1.0, 0.5, "1", None])
    def test_invalid_index_rejected_without_mutation(self, cls, j):
        m = cls(4, 1.0)
        m.add_bases([2])
        before = cached_state(m)
        with pytest.raises(ValueError, match="basis index"):
            m.add_bases([j])
        assert cached_state(m) == before


class TestAddBases:
    """add_bases(cells), the run loop's bulk update, is a loop of
    add_bases([j])."""

    @pytest.mark.parametrize("cls", [PsdMatrix, DiagonalPsdMatrix])
    def test_equals_a_loop_of_add_basis_across_refreshes(self, cls):
        d = 6
        rng = np.random.default_rng(11)
        cells = rng.integers(0, d, size=2 * REFRESH_PERIOD + 41)
        # Python ints and numpy integers alike, in chunks of uneven sizes, one
        # of them crossing a REFRESH_PERIOD boundary and one empty.
        mixed = [int(j) if i % 3 else j for i, j in enumerate(cells)]
        cuts = [0, 1, 1, 7, REFRESH_PERIOD + 5, 2 * REFRESH_PERIOD - 2, len(mixed)]
        bulk, loop = cls(d, 0.7), cls(d, 0.7)
        for lo, hi in zip(cuts, cuts[1:]):
            bulk.add_bases(mixed[lo:hi])
            for j in mixed[lo:hi]:
                loop.add_bases([j])
            assert cached_state(bulk) == cached_state(loop)
        assert bulk.updates_since_refresh == len(mixed) % REFRESH_PERIOD
        if cls is DiagonalPsdMatrix:
            assert bulk.diag.tobytes() == loop.diag.tobytes()
            assert bulk.inv_diag.tobytes() == loop.inv_diag.tobytes()

    @pytest.mark.parametrize("cls", [PsdMatrix, DiagonalPsdMatrix])
    def test_takes_any_iterable_of_cells(self, cls):
        want = cls(4, 1.0)
        want.add_bases([3, 0, 3])
        for cells in (np.array([3, 0, 3]), (j for j in (3, 0, 3)), (3, 0, 3)):
            m = cls(4, 1.0)
            m.add_bases(cells)
            assert cached_state(m) == cached_state(want)

    @pytest.mark.parametrize("cls", [PsdMatrix, DiagonalPsdMatrix])
    @pytest.mark.parametrize("bad", [-1, 4, np.int64(-1), np.int64(4), -5, 2.0, None])
    def test_bad_cell_raises_after_applying_the_cells_before_it(self, cls, bad):
        """A negative cell must not wrap around to another basis vector."""
        m, want = cls(4, 1.0), cls(4, 1.0)
        want.add_bases([0, 3])
        with pytest.raises(ValueError, match="basis index"):
            m.add_bases([0, 3, bad, 1])
        assert cached_state(m) == cached_state(want)
