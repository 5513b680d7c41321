"""Tests for the per-agent learner: acting, trigger, and the backward update."""

import math

import mpmath
import numpy as np
import pytest

from coop_lsvi.agent import (LsviAgent, Transition, TransitionBatch,
                             TransitionStore, practical_beta, theoretical_beta)
from coop_lsvi.mdp import hard_instance, random_tabular
from coop_lsvi.psdmat import DiagonalPsdMatrix, PsdMatrix


def fresh_agent(mdp, alpha=0.5, ridge=1.0, beta=1.0):
    return LsviAgent(1, mdp.d, mdp.H, alpha, ridge, beta)


def make_transition(mdp, k, h, s, a, rng):
    r, s2 = mdp.step(s, a, h, rng)
    return Transition(episode=k, step=h, state=s, action=a, reward=r, next_state=s2)


class TestGreedyAction:
    def test_fresh_agent_tie_breaks_to_zero(self):
        m = random_tabular(0, 3, 3, 2)
        ag = fresh_agent(m)
        assert int(np.argmax(ag.action_values(m, 0, 1))) == 0

    def test_linear_term_argmax(self):
        m = random_tabular(0, 1, 2, 1)  # d = 2, one-hot
        ag = fresh_agent(m, beta=0.0)
        ag.qparams.w[0] = np.array([0.9, 0.1])
        assert int(np.argmax(ag.action_values(m, 0, 1))) == 0
        ag.qparams.w[0] = np.array([0.1, 0.9])
        assert int(np.argmax(ag.action_values(m, 0, 1))) == 1

    def test_matches_exhaustive_evaluation(self):
        m = random_tabular(5, 2, 4, 2)  # d = 8, 4 actions
        rng = np.random.default_rng(7)
        ag = fresh_agent(m, beta=0.3)
        for hh in range(m.H):
            ag.qparams.w[hh] = rng.standard_normal(m.d) * 0.5
            for v in rng.standard_normal((10, m.d)):
                ag.qparams.cov[hh].rank_one_update(v / np.linalg.norm(v))
        for s in range(m.n_states):
            for h in range(1, m.H + 1):
                vals = ag.action_values(m, s, h)
                brute = max(range(m.n_actions), key=lambda a: vals[a])
                got = int(np.argmax(vals))
                assert vals[got] == pytest.approx(vals[brute], rel=1e-12)


class TestEvalQ:
    """The truncated Q estimate, read through action_values."""

    def test_truncation_ceiling(self):
        m = random_tabular(0, 1, 2, 1)  # H = 1, d = 2
        ag = fresh_agent(m, beta=math.sqrt(2.0))
        # w = 0, cov = I, one-hot phi, h = H: clamp(sqrt(2), 0, 1) = 1
        assert ag.action_values(m, 0, 1)[0] == 1.0

    def test_truncation_floor(self):
        m = random_tabular(0, 1, 2, 1)
        ag = fresh_agent(m, beta=0.0)
        ag.qparams.w[0] = np.array([-3.0, -3.0])
        assert ag.action_values(m, 0, 1)[0] == 0.0

    def test_single_observation_ridge_solution(self):
        # d=2, ridge=1, one observation (phi=e1, target 1):
        # w = (0.5, 0), cov = diag(2, 1), beta = 1, h = H -> 0.5 + 1/sqrt(2),
        # clamped to 1.
        m = random_tabular(0, 1, 2, 1)
        ag = fresh_agent(m, beta=1.0)
        cov = PsdMatrix(2, 1.0)
        cov.rank_one_update(np.array([1.0, 0.0]))
        batch = TransitionBatch.from_transitions(
            [Transition(1, 1, 0, 0, 1.0, 0)])
        ag.lsvi_backward_update(m, [batch], [cov])
        assert np.allclose(ag.qparams.w[0], [0.5, 0.0])
        assert ag.action_values(m, 0, 1)[0] == 1.0

    def test_range_invariant(self):
        m = random_tabular(3, 3, 2, 3)
        rng = np.random.default_rng(0)
        ag = fresh_agent(m, beta=5.0)
        for hh in range(m.H):
            ag.qparams.w[hh] = rng.standard_normal(m.d) * 3
        for s in range(m.n_states):
            for a in range(m.n_actions):
                for h in range(1, m.H + 1):
                    q = ag.action_values(m, s, h)[a]
                    assert 0.0 <= q <= m.H - h + 1


class TestRecordTransition:
    def test_single_record(self):
        m = random_tabular(0, 2, 2, 2)
        ag = fresh_agent(m)
        rng = np.random.default_rng(0)
        ag.record_transition(m, make_transition(m, 1, 1, 0, 0, rng))
        assert sum(map(len, ag.loc_transitions)) == 1
        trace = sum(float(v @ v) for v in ag.loc_features[0])
        assert trace == pytest.approx(1.0)  # one-hot norm

    @pytest.mark.parametrize("step", [0, 3, -1])
    def test_step_outside_horizon_rejected(self, step):
        m = random_tabular(0, 2, 2, 2)
        ag = fresh_agent(m)
        with pytest.raises(ValueError, match="step"):
            ag.record_transition(m, Transition(1, step, 0, 0, 0.0, 0))
        assert all(not fs for fs in ag.loc_features)

    def test_each_step_touched_once_per_episode(self):
        m = random_tabular(0, 2, 2, 3)
        ag = fresh_agent(m)
        rng = np.random.default_rng(0)
        for h in range(1, 4):
            ag.record_transition(m, make_transition(m, 1, h, 0, 0, rng))
        assert [len(fs) for fs in ag.loc_features] == [1, 1, 1]

    def test_reset_contract(self):
        m = random_tabular(0, 2, 2, 2)
        ag = fresh_agent(m)
        rng = np.random.default_rng(0)
        ag.record_transition(m, make_transition(m, 1, 1, 0, 0, rng))
        covs = ag.local_cov_snapshot()
        ag.lsvi_backward_update(m, ag.own_history(), covs)
        ag.reset_local()
        assert all(not ts for ts in ag.loc_transitions)
        assert all(not fs for fs in ag.loc_features)


def assert_batches_equal(got, want):
    for name in ("episode", "state", "action", "reward", "next_state"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


def random_transitions(episodes, seed):
    rng = np.random.default_rng(seed)
    return [Transition(int(k), 1, int(rng.integers(5)), int(rng.integers(3)),
                       float(rng.random()), int(rng.integers(5))) for k in episodes]


class TestTransitionStore:
    def test_interleaved_adds_come_out_sorted(self):
        rng = np.random.default_rng(4)
        ts = random_transitions(rng.permutation(np.arange(1, 61)), seed=4)
        store, added = TransitionStore(), []
        for lo, hi in [(0, 5), (5, 6), (6, 20), (20, 21), (21, 45), (45, 60)]:
            for t in ts[lo:hi]:
                store.add(t)
            added += ts[lo:hi]
            want = TransitionBatch.from_transitions(sorted(added, key=lambda t: t.episode))
            assert_batches_equal(store.batch(), want)

    def test_growth_keeps_every_row(self):
        ts = random_transitions(range(1, 70), seed=1)
        store = TransitionStore()
        for i, t in enumerate(ts):
            store.add(t)
            if i % 3 == 0:  # batch at irregular sizes around each doubling
                assert_batches_equal(store.batch(), TransitionBatch.from_transitions(ts[:i + 1]))
        assert_batches_equal(store.batch(), TransitionBatch.from_transitions(ts))

    def test_repeat_batch_without_adds_is_equal(self):
        store = TransitionStore()
        for t in random_transitions([3, 1, 2], seed=2):
            store.add(t)
        first = store.batch()
        snapshot = TransitionBatch(*(c.copy() for c in (
            first.episode, first.state, first.action, first.reward, first.next_state)))
        assert_batches_equal(store.batch(), snapshot)
        assert list(snapshot.episode) == [1, 2, 3]

    def test_empty_store(self):
        assert_batches_equal(TransitionStore().batch(), TransitionBatch.empty())

    def test_own_history_equals_list_built_columns(self):
        m = random_tabular(2, 3, 2, 3)
        ag = fresh_agent(m)
        rng = np.random.default_rng(3)
        recorded = [[] for _ in range(m.H)]
        for k in range(1, 25):
            s = int(rng.integers(m.n_states))
            for h in range(1, m.H + 1):
                t = make_transition(m, k, h, s, int(rng.integers(m.n_actions)), rng)
                ag.record_transition(m, t)
                recorded[h - 1].append(t)
                s = t.next_state
            if k % 7 == 0:
                for got, ts in zip(ag.own_history(), recorded):
                    assert_batches_equal(got, TransitionBatch.from_transitions(ts))
        for got, ts in zip(ag.own_history(), recorded):
            assert_batches_equal(got, TransitionBatch.from_transitions(ts))


def roll_out(m, ag, episodes, rng, recorded):
    """Record random episodes on the agent and append each transition to
    recorded[h - 1]."""
    for k in episodes:
        s = int(rng.integers(m.n_states))
        for h in range(1, m.H + 1):
            t = make_transition(m, k, h, s, int(rng.integers(m.n_actions)), rng)
            ag.record_transition(m, t)
            recorded[h - 1].append(t)
            s = t.next_state


class TestOwnHistory:
    def test_repeat_call_is_equal(self):
        m = random_tabular(2, 3, 2, 3)
        ag = fresh_agent(m)
        recorded = [[] for _ in range(m.H)]
        roll_out(m, ag, range(1, 10), np.random.default_rng(5), recorded)
        first = [TransitionBatch(b.episode.copy(), b.state.copy(), b.action.copy(),
                                 b.reward.copy(), b.next_state.copy())
                 for b in ag.own_history()]
        for got, want, ts in zip(ag.own_history(), first, recorded):
            assert_batches_equal(got, want)
            assert_batches_equal(got, TransitionBatch.from_transitions(ts))

    def test_kept_across_reset_local(self):
        # The no-communication refit reads the history, then resets the delta.
        m = random_tabular(2, 3, 2, 3)
        ag = fresh_agent(m)
        rng = np.random.default_rng(6)
        recorded = [[] for _ in range(m.H)]
        for start in (1, 8, 15):
            roll_out(m, ag, range(start, start + 7), rng, recorded)
            ag.own_history()
            ag.reset_local()
        roll_out(m, ag, range(22, 26), rng, recorded)
        for got, ts in zip(ag.own_history(), recorded):
            assert_batches_equal(got, TransitionBatch.from_transitions(ts))


class TestShouldCommunicate:
    def _one_observation_agent(self, alpha):
        m = random_tabular(0, 1, 2, 1)  # d = 2, H = 1
        ag = fresh_agent(m, alpha=alpha)
        ag.record_transition(m, Transition(1, 1, 0, 0, 0.5, 0))
        return ag

    def test_fires_above_threshold(self):
        trig, h = self._one_observation_agent(0.5).should_communicate()
        assert trig and h == 1  # ratio 2 > 1.5

    def test_quiet_below_threshold(self):
        trig, h = self._one_observation_agent(2.0).should_communicate()
        assert not trig and h is None  # 2 <= 3

    def test_strict_inequality_at_boundary(self):
        # alpha = 1/M^2 with M = 1: the one-hot ratio is exactly 2 = 1+alpha,
        # and the strict inequality must not fire.
        trig, _ = self._one_observation_agent(1.0).should_communicate()
        assert not trig

    def test_smallest_h_reported(self):
        m = random_tabular(0, 1, 2, 3)  # H = 3
        ag = fresh_agent(m, alpha=0.5)
        for h in (2, 3):
            ag.record_transition(m, Transition(1, h, 0, 0, 0.0, 0))
        trig, h = ag.should_communicate()
        assert trig and h == 2

    def test_ordering_consequence_when_quiet(self):
        # No trigger implies x^T Lambda_loc x <= alpha x^T Lambda x.
        m = hard_instance(8, 3, 0.1)
        ag = fresh_agent(m, alpha=3.0)
        rng = np.random.default_rng(1)
        for h in range(1, 4):
            ag.record_transition(m, make_transition(m, 1, h, 0, 0, rng))
        trig, _ = ag.should_communicate()
        assert not trig
        xs = rng.standard_normal((100, m.d))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        for hh in range(3):
            loc = sum((np.outer(v, v) for v in ag.loc_features[hh]), np.zeros((m.d, m.d)))
            lhs = np.einsum("nd,de,ne->n", xs, loc, xs)
            rhs = np.einsum("nd,de,ne->n", xs, ag.qparams.cov[hh].mat, xs)
            assert np.all(lhs <= ag.alpha * rhs + 1e-9)


def naive_normal_equations(mdp, batches, ridge, beta):
    """From-scratch LSVI oracle: dense normal equations, no shared code paths."""
    H, d = mdp.H, mdp.d
    w = np.zeros((H, d))
    for hh in range(H - 1, -1, -1):
        lam = ridge * np.eye(d)
        rhs = np.zeros(d)
        batch = batches[hh]
        for i in range(len(batch)):
            phi = mdp.features[batch.state[i], batch.action[i]]
            lam += np.outer(phi, phi)
            y = batch.reward[i]
            if hh + 1 < H:
                lam_next = ridge * np.eye(d)
                nb = batches[hh + 1]
                for j in range(len(nb)):
                    p = mdp.features[nb.state[j], nb.action[j]]
                    lam_next += np.outer(p, p)
                vals = []
                for a in range(mdp.n_actions):
                    p = mdp.features[batch.next_state[i], a]
                    bonus = beta * math.sqrt(p @ np.linalg.solve(lam_next, p))
                    vals.append(min(max(p @ w[hh + 1] + bonus, 0.0), H - hh - 1))
                y += max(vals)
            rhs += phi * y
        w[hh] = np.linalg.solve(lam, rhs)
    return w


def batches_from_rollout(mdp, n_episodes, seed):
    rng = np.random.default_rng(seed)
    per_h = [[] for _ in range(mdp.H)]
    for k in range(1, n_episodes + 1):
        s = int(rng.integers(mdp.n_states))
        for h in range(1, mdp.H + 1):
            a = int(rng.integers(mdp.n_actions))
            r, s2 = mdp.step(s, a, h, rng)
            per_h[h - 1].append(Transition(k, h, s, a, r, s2))
            s = s2
    return [TransitionBatch.from_transitions(ts) for ts in per_h]


class TestBackwardUpdate:
    def test_empty_data_gives_pure_bonus(self):
        m = random_tabular(0, 2, 2, 2)
        ag = fresh_agent(m, beta=0.7)
        covs = [PsdMatrix(m.d, 1.0) for _ in range(m.H)]
        ag.lsvi_backward_update(m, [TransitionBatch.empty()] * m.H, covs)
        assert np.all(ag.qparams.w == 0.0)
        for s in range(m.n_states):
            for a in range(m.n_actions):
                expected = min(0.7 * math.sqrt(float(m.features[s, a] @ m.features[s, a])), 2.0)
                assert ag.action_values(m, s, 1)[a] == pytest.approx(expected)

    def test_single_transition_hand_solution(self):
        m = random_tabular(0, 1, 2, 1)
        ag = fresh_agent(m)
        cov = PsdMatrix(2, 1.0)
        cov.rank_one_update(np.array([1.0, 0.0]))
        batch = TransitionBatch.from_transitions([Transition(1, 1, 0, 0, 1.0, 0)])
        ag.lsvi_backward_update(m, [batch], [cov])
        assert np.allclose(ag.qparams.w[0], [0.5, 0.0])

    @pytest.mark.parametrize("seed,ridge,beta", [
        (0, 1.0, 0.5), (1, 1.0, 0.5), (2, 1.0, 1.7), (3, 0.5, 0.5),
        (4, 2.5, 0.9), (5, 1.0, 0.0),
    ])
    def test_matches_normal_equation_oracle(self, seed, ridge, beta):
        rng = np.random.default_rng(seed)
        S = int(rng.integers(2, 7))
        A = int(rng.integers(2, 4))
        H = int(rng.integers(2, 5))
        m = random_tabular(seed, S, A, H)
        batches = batches_from_rollout(m, int(rng.integers(5, 30)), seed + 100)
        ag = LsviAgent(1, m.d, m.H, 0.5, ridge, beta)
        covs = []
        for hh in range(H):
            c = PsdMatrix(m.d, ridge)
            b = batches[hh]
            for i in range(len(b)):
                c.rank_one_update(m.features[b.state[i], b.action[i]])
            covs.append(c)
        ag.lsvi_backward_update(m, batches, covs)
        oracle = naive_normal_equations(m, batches, ridge, beta)
        assert np.abs(ag.qparams.w - oracle).max() < 1e-8

    def test_w_norm_analysis_bound(self):
        # Analysis aid: ||w_h|| <= 2 H sqrt(d k / ridge) after k episodes.
        m = random_tabular(3, 4, 2, 3)
        k = 40
        batches = batches_from_rollout(m, k, 17)
        ag = LsviAgent(1, m.d, m.H, 0.5, 1.0, practical_beta(m.d, m.H, k, 0.01))
        covs = []
        for hh in range(m.H):
            c = PsdMatrix(m.d, 1.0)
            b = batches[hh]
            for i in range(len(b)):
                c.rank_one_update(m.features[b.state[i], b.action[i]])
            covs.append(c)
        ag.lsvi_backward_update(m, batches, covs)
        bound = 2 * m.H * math.sqrt(m.d * k / 1.0)
        assert np.all(np.linalg.norm(ag.qparams.w, axis=1) <= bound)


def feature_product_q(mdp, w, cov, beta, hh):
    """The Q-function from its feature products, on dense ``cov``:
    clip(F @ w + beta * sqrt(diag(F cov^-1 F^T)), 0, H - h + 1)."""
    F = mdp.features.reshape(-1, mdp.d)
    return np.clip(F @ w + beta * np.sqrt(cov.quad_form_many(F)), 0.0, mdp.H - hh)


class TestPerCellQ:
    """q_table and action_values read w[j] and the inverse diagonal per cell;
    the feature-product form must give the same bits, not merely close ones."""

    @staticmethod
    def covariances(m, kind, rng):
        """(agent's, reference) covariance per step: one dense non-diagonal
        matrix for both, or a diagonal one beside its dense twin."""
        pairs = []
        for _ in range(m.H):
            if kind == "dense":
                c = PsdMatrix(m.d, 0.8)
                for v in rng.standard_normal((3 * m.d, m.d)):
                    c.rank_one_update(v / np.linalg.norm(v))
                pairs.append((c, c))
            else:
                diag, dense = DiagonalPsdMatrix(m.d, 0.8), PsdMatrix(m.d, 0.8)
                for j in rng.integers(0, m.d, size=3 * m.d):
                    diag.add_basis(int(j))
                    dense.add_basis(int(j))
                pairs.append((diag, dense))
        return pairs

    @pytest.mark.parametrize("kind", ["dense", "diagonal"])
    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_matches_feature_products(self, kind, beta):
        m = random_tabular(2, 4, 3, 3)  # d = 12
        rng = np.random.default_rng(11)
        cov_cls = PsdMatrix if kind == "dense" else DiagonalPsdMatrix
        ag = LsviAgent(1, m.d, m.H, 0.5, 0.8, beta, cov_cls)
        pairs = self.covariances(m, kind, rng)
        for hh, (cov, _) in enumerate(pairs):
            w = rng.uniform(-1.0, m.H - hh + 1.0, m.d)
            w[0], w[1] = -2.0, m.H - hh + 2.0  # below the floor, above the ceiling
            ag.qparams.w[hh] = w
            ag.qparams.cov[hh] = cov
        want = np.stack([feature_product_q(m, ag.qparams.w[hh], ref, beta, hh)
                         for hh, (_, ref) in enumerate(pairs)]
                        ).reshape(m.H, m.n_states, m.n_actions)
        assert np.any(want == 0.0)
        assert all(np.any(want[hh] == m.H - hh) for hh in range(m.H))
        assert np.array_equal(ag.q_table(m), want)
        for h in range(1, m.H + 1):
            for s in range(m.n_states):
                assert np.array_equal(ag.action_values(m, s, h), want[h - 1, s])

    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_backward_update_table_matches_feature_products(self, beta):
        m = random_tabular(4, 3, 2, 3)
        batches = batches_from_rollout(m, 25, 5)
        rng = np.random.default_rng(6)
        covs = [c for c, _ in self.covariances(m, "dense", rng)]
        ag = LsviAgent(1, m.d, m.H, 0.5, 0.8, beta)
        ag.lsvi_backward_update(m, batches, covs)
        want = np.stack([feature_product_q(m, ag.qparams.w[hh], covs[hh], beta, hh)
                         for hh in range(m.H)]).reshape(m.H, m.n_states, m.n_actions)
        assert np.array_equal(ag.q_table(m), want)


class TestBackwardUpdateBits:
    """The backward update's row take and in-place clip give the bits of
    fancy indexing and np.clip. Compared by tobytes, since -0.0 == 0.0."""

    @pytest.mark.parametrize("S,A", [(4, 2), (40, 5)])  # d = 8 and d = 200
    @pytest.mark.parametrize("picks", [[-1], [0, -1, 5, 5, 2, 0, 5, -1]],
                             ids=["one-row", "repeated"])
    def test_take_matches_fancy_indexing(self, S, A, picks):
        m = random_tabular(0, S, A, 2)
        flat = m.features.reshape(S * A, m.d)
        cells = np.array(picks) % m.d
        got, want = flat.take(cells, axis=0), flat[cells]
        assert got.shape == want.shape == (len(cells), m.d)
        assert got.flags.c_contiguous and want.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        y = np.random.default_rng(1).standard_normal(len(cells))
        assert (got.T @ y).tobytes() == (want.T @ y).tobytes()

    # A fixed beta of -0.0 passes config validation, and is the one width at
    # which a -0.0 in w reaches the clip as -0.0.
    @pytest.mark.parametrize("beta", [0.0, -0.0, 0.3])
    @pytest.mark.parametrize("cov_cls", [PsdMatrix, DiagonalPsdMatrix])
    def test_clipped_q_matches_np_clip(self, beta, cov_cls):
        m = random_tabular(1, 4, 2, 3)  # d = 8
        ag = LsviAgent(1, m.d, m.H, 0.5, 1.0, beta, cov_cls)
        qp = ag.qparams
        for hh in range(m.H):
            top = m.H - hh
            qp.w[hh] = [-0.0, 0.0, -1.5, top, top + 2.0, 0.25, top - 0.3, -1e-300]
            want = np.clip(qp.w[hh] + qp.beta * np.sqrt(qp.cov[hh].inv_diag), 0.0, top)
            got = ag._clipped_q(hh)
            assert got.tobytes() == want.tobytes()
            assert got[3] == top and got[2] == 0.0
            assert np.signbit(got[0]) == (math.copysign(1.0, beta) < 0)


class TestBetaFormulas:
    def test_worked_example_high_precision(self):
        got = theoretical_beta(1, 1, 1, 100, 1.0, 1.0, 0.1, 1.0)
        with mpmath.workdps(50):
            c = mpmath.mpf(1) * mpmath.sqrt(1) + mpmath.sqrt(2)
            expected = c * (mpmath.log(mpmath.mpf(102) / mpmath.mpf("0.1"))
                            + mpmath.log(c))
            assert abs(got - float(expected)) < 1e-9
        assert got == pytest.approx(18.85, abs=0.01)

    def test_zero_constant(self):
        assert theoretical_beta(3, 2, 2, 50, 0.25, 1.0, 0.05, 0.0) == 0.0

    def test_doubling_h(self):
        lo = theoretical_beta(4, 2, 2, 1000, 0.25, 1.0, 0.01, 1.0)
        hi = theoretical_beta(4, 4, 2, 1000, 0.25, 1.0, 0.01, 1.0)
        ratio = hi / lo
        assert 2.0 < ratio < 2.0 + 2 * math.log(2.0) / math.log(4 * 2 * 1.5)

    @pytest.mark.parametrize("kwargs", [
        dict(d=0), dict(delta=0.0), dict(delta=1.0), dict(alpha=0.0),
        dict(ridge=0.0), dict(K=0), dict(c_beta=-1.0),
    ])
    def test_domain_violations(self, kwargs):
        base = dict(d=2, H=2, M=2, K=10, alpha=0.5, ridge=1.0, delta=0.1, c_beta=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            theoretical_beta(**base)

    def test_practical_beta_positive_and_monotone_in_d(self):
        a = practical_beta(4, 3, 1000, 0.01)
        b = practical_beta(8, 3, 1000, 0.01)
        assert 0 < a < b
