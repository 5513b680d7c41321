"""Tests for the per-agent learner: acting, trigger, and the backward update."""

import collections
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coop_lsvi.agent import (TRIGGER_LOG_TOLERANCE, LsviAgent, Transition, TransitionBatch,
                             TransitionStore, practical_beta, theoretical_beta)
from coop_lsvi.mdp import hard_instance, random_tabular
from coop_lsvi.psdmat import MIN_RIDGE, REFRESH_PERIOD, DiagonalPsdMatrix, PsdMatrix


def fresh_agent(mdp, alpha=0.5, ridge=1.0, beta=1.0):
    return LsviAgent(1, mdp.d, mdp.H, alpha, ridge, beta)


def make_transition(mdp, k, h, s, a, rng):
    r, s2 = mdp.step(s, a, h, rng.random())
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
        ag.qparams.cov = [PsdMatrix(m.d, 1.0) for _ in range(m.H)]  # for dense updates
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

    @pytest.mark.parametrize("s, h", [(0, 0), (0, 4), (-1, 1), (4, 1)])
    def test_out_of_range_index_raises(self, s, h):
        """h = 0 would otherwise read step H's values, s = -1 state S - 1's."""
        m = hard_instance(8, 3, 0.1)
        assert (m.n_states, m.H) == (4, 3)
        with pytest.raises(ValueError, match=rf"^\(s={s}, h={h}\)"):
            fresh_agent(m).action_values(m, s, h)


class TestRecordTransition:
    def test_single_record(self):
        m = random_tabular(0, 2, 2, 2)
        ag = fresh_agent(m)
        rng = np.random.default_rng(0)
        for h in (1, 2):
            ag.record_transition(m, make_transition(m, 1, h, 0, 0, rng))
        assert [len(ts) for ts in ag.loc_transitions] == [1, 1]
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
        for h in (1, 2):
            ag.record_transition(m, make_transition(m, 1, h, 0, 0, rng))
        assert ag.loc_episodes == [1]
        covs = ag.local_cov_snapshot()
        ag.lsvi_backward_update(m, ag.own_history(), covs)
        ag.reset_local()
        assert all(not ts for ts in ag.loc_transitions)
        assert all(not fs for fs in ag.loc_features)
        assert ag.loc_episodes == ag.loc_rows == ag.loc_rewards == []

    def test_steps_are_held_until_the_episode_ends(self):
        """The one-step form files nothing until step H, then files what
        record_episode files for the same episode."""
        m = random_tabular(1, 3, 2, 3)
        by_step, whole = fresh_agent(m), fresh_agent(m)
        rng = np.random.default_rng(2)
        for k in (1, 2, 3):
            ts = [make_transition(m, k, h, int(rng.integers(3)), int(rng.integers(2)), rng)
                  for h in range(1, 4)]
            for t in ts[:-1]:
                by_step.record_transition(m, t)
            assert by_step.loc_episodes == whole.loc_episodes
            by_step.record_transition(m, ts[-1])
            whole.record_episode(m, k, [x for t in ts for x in (t.state, t.action, t.next_state)],
                                 [t.reward for t in ts])
        for name in ("loc_episodes", "loc_rows", "loc_rewards", "loc_cells", "loc_transitions",
                     "_visits"):
            assert getattr(by_step, name) == getattr(whole, name), name
        assert by_step._log_ratio == whole._log_ratio

    @pytest.mark.parametrize("k, step", [(1, 3), (2, 2), (1, 1)], ids=["skip", "other", "repeat"])
    def test_a_step_out_of_order_is_refused(self, k, step):
        m = random_tabular(0, 2, 2, 3)
        ag = fresh_agent(m)
        ag.record_transition(m, Transition(1, 1, 0, 0, 0.0, 0))
        with pytest.raises(ValueError, match=rf"^transition \(episode {k}, step {step}\) does "
                                             r"not continue the 1 held steps$"):
            ag.record_transition(m, Transition(k, step, 0, 0, 0.0, 0))
        ag.record_transition(m, Transition(1, 2, 0, 0, 0.0, 0))
        assert ag.loc_episodes == []
        ag.record_transition(m, Transition(1, 3, 0, 0, 0.0, 0))
        assert ag.loc_episodes == [1]


class TestRecordEpisode:
    def test_rows_rewards_and_cells_are_filed_per_episode(self):
        m = random_tabular(0, 3, 2, 2)  # d = 6
        ag = fresh_agent(m)
        ag.record_episode(m, 4, [2, 1, 0, 0, 1, 1], [0.25, 0.5])
        ag.record_episode(m, 9, [1, 0, 2, 2, 0, 0], [0.75, 1.0])
        assert ag.loc_episodes == [4, 9]
        assert ag.loc_rows == [[2, 1, 0, 0, 1, 1], [1, 0, 2, 2, 0, 0]]
        assert ag.loc_rewards == [[0.25, 0.5], [0.75, 1.0]]
        assert ag.loc_cells == [[m.cell(2, 1), m.cell(1, 0)], [m.cell(0, 1), m.cell(2, 0)]]
        assert ag.loc_transitions == [[Transition(4, 1, 2, 1, 0.25, 0), Transition(9, 1, 1, 0, 0.75, 2)],
                                      [Transition(4, 2, 0, 1, 0.5, 1), Transition(9, 2, 2, 0, 1.0, 0)]]

    @pytest.mark.parametrize("row, rewards", [
        ([0, 0, 0, 3, 0, 0], [0.0, 0.0]),     # cell 3 * 2 + 0 = 6 at step 2
        ([-1, 0, 0, 0, 0, 0], [0.0, 0.0]),    # cell -2 at step 1
        ([0, 0, 0, 0, 0, 0, 0], [0.0, 0.0]),  # a row of 7 entries
        ([0, 0, 0, 0, 0, 0], [0.0]),          # one reward
    ], ids=["cell-past-d", "negative-cell", "long-row", "short-rewards"])
    def test_a_bad_episode_is_refused_before_anything_changes(self, row, rewards):
        m = random_tabular(0, 3, 2, 2)  # d = 6
        ag = fresh_agent(m)
        ag.record_episode(m, 1, [1, 1, 0, 0, 0, 2], [0.5, 0.5])

        def state():
            return repr((ag.loc_episodes, ag.loc_rows, ag.loc_rewards, ag.loc_cells,
                         ag._visits, ag._log_ratio))

        before = state()
        with pytest.raises(ValueError, match=r"^episode 2"):
            ag.record_episode(m, 2, row, rewards)
        assert state() == before

    def test_loc_transitions_is_a_view_built_on_read(self):
        m = random_tabular(0, 2, 2, 2)
        ag = fresh_agent(m)
        ag.record_episode(m, 1, [0, 1, 1, 1, 0, 0], [0.5, 0.25])
        ag.loc_transitions[0].clear()
        assert [len(ts) for ts in ag.loc_transitions] == [1, 1]


def assert_batches_equal(got, want):
    for name in ("episode", "state", "action", "reward", "next_state"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


# random_episodes' cells: 5 states by 3 actions, over STORE_H steps.
STORE_D, STORE_H = 15, 2


def random_episodes(episodes, seed):
    """Per episode k, its STORE_H Transitions at random (s, a, r, s')."""
    rng = np.random.default_rng(seed)
    return [[Transition(int(k), h, int(rng.integers(5)), int(rng.integers(3)),
                        float(rng.random()), int(rng.integers(5)))
             for h in range(1, STORE_H + 1)] for k in episodes]


def cells_of(ts):
    return [t.state * 3 + t.action for t in ts]


def store_args(eps, cell=cells_of):
    """TransitionStore.extend's arguments for episodes given as lists of
    their Transitions: episode ids, flat rows, rewards and per-step cells."""
    H = len(eps[0]) if eps else STORE_H
    return ([ts[0].episode for ts in eps],
            [[x for t in ts for x in (t.state, t.action, t.next_state)] for ts in eps],
            [[t.reward for t in ts] for ts in eps],
            [cell([ts[hh] for ts in eps]) for hh in range(H)])


def assert_store_holds(store, eps):
    """Step h's batch is the step-h Transitions of eps in episode order."""
    ordered = sorted(eps, key=lambda ts: ts[0].episode)
    batches = store.batches()
    assert len(batches) == STORE_H
    for hh, got in enumerate(batches):
        assert_batches_equal(got, TransitionBatch.from_transitions([ts[hh] for ts in ordered]))


class TestTransitionStore:
    def test_interleaved_adds_come_out_sorted(self):
        rng = np.random.default_rng(4)
        eps = random_episodes(rng.permutation(np.arange(1, 61)), seed=4)
        store = TransitionStore(STORE_D, STORE_H)
        for lo, hi in [(0, 5), (5, 6), (6, 20), (20, 21), (21, 45), (45, 60)]:
            store.extend(*store_args(eps[lo:hi]))
            assert_store_holds(store, eps[:hi])

    def test_growth_keeps_every_row(self):
        eps = random_episodes(range(1, 70), seed=1)
        store = TransitionStore(STORE_D, STORE_H)
        for i, ep in enumerate(eps):
            store.extend(*store_args([ep]))
            if i % 3 == 0:  # batch at irregular sizes around each doubling
                assert_store_holds(store, eps[:i + 1])
        assert_store_holds(store, eps)

    def test_repeat_batch_without_adds_is_equal(self):
        store = TransitionStore(STORE_D, STORE_H)
        eps = random_episodes([3, 1, 2], seed=2)
        store.extend(*store_args(eps))
        snapshots = [TransitionBatch(*(c.copy() for c in (
            b.episode, b.state, b.action, b.reward, b.next_state))) for b in store.batches()]
        for got, snapshot in zip(store.batches(), snapshots):
            assert_batches_equal(got, snapshot)
            assert list(snapshot.episode) == [1, 2, 3]

    def test_empty_store(self):
        store = TransitionStore(STORE_D, STORE_H)
        store.extend(*store_args([]))
        for got in store.batches():
            assert_batches_equal(got, TransitionBatch.from_transitions([]))
            assert got.phis.shape == (0, STORE_D)

    @pytest.mark.parametrize("bad", [-1, STORE_D, 1.5])
    def test_out_of_range_cell_is_refused_before_any_change(self, bad):
        """A cell of -1 would file the identity's last row as its design, one
        of d would break the store at its next read, and 1.5 would file e_1.
        The bad cell sits at the last step, so no earlier step may change."""
        eps = random_episodes([2, 1, 3], seed=3)
        store = TransitionStore(STORE_D, STORE_H)
        store.extend(*store_args(eps[:1]))
        args = store_args(eps[1:])
        args[3][-1][-1] = bad
        with pytest.raises(ValueError, match=rf"^basis index {bad} outside \[0, {STORE_D}\)$"):
            store.extend(*args)
        assert_store_holds(store, eps[:1])
        store.extend(*store_args(eps[1:]))
        assert_store_holds(store, eps)
        ordered = sorted(eps, key=lambda ts: ts[0].episode)
        for hh, got in enumerate(store.batches()):
            want = np.eye(STORE_D)[cells_of([ts[hh] for ts in ordered])]
            assert got.phis.tobytes() == want.tobytes()

    def test_misaligned_arguments_are_refused(self):
        store = TransitionStore(STORE_D, STORE_H)
        episodes, rows, rewards, cells = store_args(random_episodes([1, 2], seed=5))
        for args in [(episodes[:1], rows, rewards, cells), (episodes, rows, rewards[:1], cells),
                     (episodes, rows, rewards, cells[:1]),
                     (episodes, rows, rewards, [cells[0], cells[1][:1]])]:
            with pytest.raises(ValueError, match="for H = 2 steps$"):
                store.extend(*args)
        assert all(len(b) == 0 for b in store.batches())

    def test_design_is_the_feature_rows_through_re_sorts_and_growth(self):
        m = random_tabular(0, 5, 3, STORE_H)  # d = 15: random_episodes' cells
        eps = random_episodes(np.random.default_rng(8).permutation(np.arange(1, 200)), seed=8)
        store, lo, capacities = TransitionStore(m.d, m.H), 0, set()
        for size in [1, 1, 3, 7, 2, 30, 1, 64, 90]:
            # Two extends per batch, each out of episode order.
            for part in (eps[lo:lo + size // 2], eps[lo + size // 2:lo + size]):
                store.extend(*store_args(part))
            lo += size
            capacities.add(store._design.shape[1])
            for got in store.batches():
                assert got.phis is not None  # the store's kept design, not built here
                phis = got.design(m)
                assert phis.dtype == np.float64 and phis.flags.c_contiguous
                assert phis.tobytes() == m.features[got.state, got.action].tobytes()
            assert_store_holds(store, eps[:lo])
        assert lo == len(eps) and len(capacities) > 3

    @staticmethod
    def refit_inputs(m, n_episodes, seed, cov_cls):
        """Per-h transitions of random episodes, a store fed them in shuffled
        chunks (as uploads arrive), and the matching covariances."""
        rng = np.random.default_rng(seed)
        eps = []
        for k in rng.permutation(np.arange(1, n_episodes + 1)).tolist():
            s, ts = int(rng.integers(m.n_states)), []
            for h in range(1, m.H + 1):
                ts.append(make_transition(m, k, h, s, int(rng.integers(m.n_actions)), rng))
                s = ts[-1].next_state
            eps.append(ts)
        def cells(ts):
            return [int(m.cell(t.state, t.action)) for t in ts]

        per_h = [[ts[hh] for ts in eps] for hh in range(m.H)]
        store = TransitionStore(m.d, m.H)
        covs = [cov_cls(m.d, 1.0) for _ in range(m.H)]
        for cov, ts in zip(covs, per_h):
            cov.add_bases(cells(ts))
        for lo in range(0, len(eps), 7):
            store.extend(*store_args(eps[lo:lo + 7], cells))
            if lo % 3 == 0:
                store.batches()
        return per_h, store, covs

    @pytest.mark.parametrize("cov_cls", [PsdMatrix, DiagonalPsdMatrix])
    def test_refit_from_a_store_equals_refit_from_transitions(self, cov_cls):
        m = random_tabular(3, 5, 3, 3)  # d = 15
        per_h, store, covs = self.refit_inputs(m, 120, 9, cov_cls)
        listed = [TransitionBatch.from_transitions(sorted(ts, key=lambda t: t.episode))
                  for ts in per_h]
        from_store, from_list = (LsviAgent(1, m.d, m.H, 0.5, 1.0, 0.4) for _ in range(2))
        from_store.lsvi_backward_update(m, store.batches(), [c.copy() for c in covs])
        from_list.lsvi_backward_update(m, listed, [c.copy() for c in covs])
        assert np.any(from_store.qparams.w != 0.0)
        assert from_store.qparams.w.tobytes() == from_list.qparams.w.tobytes()
        assert from_store.q_table(m).tobytes() == from_list.q_table(m).tobytes()

    def test_refit_builds_no_design_matrix(self):
        """The refit reads the store's design: on fresh batches, a 4,000-row
        step allocates less than its (n, d) float64 design would take."""
        m = hard_instance(8, 3, 0.1)
        n = 4000
        _, store, covs = self.refit_inputs(m, n, 10, DiagonalPsdMatrix)
        batches = store.batches()
        ag = LsviAgent(1, m.d, m.H, 0.5, 1.0, 0.4)
        tracemalloc.start()
        try:
            ag.lsvi_backward_update(m, batches, covs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * m.d * 8

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
        # Ten earlier visits at step 1: its ratio 12/11 stays below 1.5.
        ag.qparams.cov[0].add_bases([m.cell(0, 0)] * 10)
        ag.record_episode(m, 1, [0, 0, 0] * 3, [0.0] * 3)
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



def exact_trigger(agent, covs):
    """The implemented trigger rule decided exactly. Per step, R is the product
    over the local visits of (c_j + v + 1) / (c_j + v) as Fractions, c_j the
    frozen covariance's diagonal entry and v the earlier local visits to cell
    j; the step fires iff log R > log1p(alpha) + TRIGGER_LOG_TOLERANCE at 50
    digits, and a step with R <= 1 + alpha must not."""
    with mpmath.workdps(50):
        ceiling = mpmath.log1p(agent.alpha) + TRIGGER_LOG_TOLERANCE
        for hh, cells in enumerate(agent.loc_cells):
            ratio, visits = Fraction(1), collections.Counter()
            for j in cells:
                c = Fraction(covs[hh].diag.item(j)) + visits[j]
                ratio *= (c + 1) / c
                visits[j] += 1
            fires = mpmath.log(mpmath.mpf(ratio.numerator) / ratio.denominator) > ceiling
            assert not (fires and ratio <= 1 + Fraction(agent.alpha))
            if fires:
                return True, hh + 1
    return False, None


def cov_bytes(cov):
    """The bytes of everything a covariance holds."""
    mats = ((cov.diag, cov.inv_diag) if isinstance(cov, DiagonalPsdMatrix)
            else (cov.mat, cov.inv))
    return *(mat.tobytes() for mat in mats), cov.logdet, cov.updates_since_refresh


@pytest.fixture(scope="module")
def max_dim_instance():
    return random_tabular(0, 64, 64, 2)  # d = 4096 = MAX_DIM, H = 2


# Cells (s, a) of both instances the trigger tests use, and strategies for the
# trigger parameters and the agent's episodes.
CELLS = st.tuples(st.integers(0, 1), st.integers(0, 2))
ALPHAS = (st.sampled_from([1.0, 0.5, 2.0, 1 / 3, 1 / 16, 1e-4, 50.0])
          | st.floats(1e-4, 50.0))
COUNTERS = (st.integers(REFRESH_PERIOD - 48, REFRESH_PERIOD - 1)
            | st.integers(0, REFRESH_PERIOD - 1))
EPISODES = st.lists(st.lists(CELLS, min_size=2, max_size=2), min_size=1, max_size=40)


class TestTriggerBound:
    """should_communicate decides as exact arithmetic decides its rule."""

    M = random_tabular(0, 2, 3, 2)  # d = 6, H = 2

    @staticmethod
    def decide_episodes(m, cov_cls, ridge, alpha, counter, prior, episodes):
        # A frozen covariance with visits and a refresh counter near the
        # refresh, as a download brings; at (alpha, ridge) = (1, 1) a cell
        # visited once before and twice now ties: (3/2)(4/3) = 2.
        ag = LsviAgent(1, m.d, m.H, alpha, ridge, 0.0)
        ag.qparams.cov = [cov_cls(m.d, ridge) for _ in range(m.H)]
        for cov in ag.qparams.cov:
            cov.add_bases([m.cell(s, a) for s, a in prior])
            cov.updates_since_refresh = counter
        for k, steps in enumerate(episodes, 1):
            for h, (s, a) in enumerate(steps, 1):
                ag.record_transition(m, Transition(k, h, s, a, 0.0, 0))
            covs, cells = list(ag.qparams.cov), [list(c) for c in ag.loc_cells]
            fired = ag.should_communicate()
            assert fired == exact_trigger(ag, covs)
            if fired[0] or k == len(episodes):
                # The snapshot holds the bytes of adding the cells one
                # add_basis at a time.
                snapshot = ag.local_cov_snapshot()
                for cov, hh_cells, got in zip(covs, cells, snapshot):
                    ref = cov.copy()
                    for j in hh_cells:
                        ref.add_basis(j)
                    assert cov_bytes(got) == cov_bytes(ref)
                ag.qparams.cov = snapshot
                ag.reset_local()

    @settings(max_examples=200, deadline=None)
    @given(cov_cls=st.sampled_from([DiagonalPsdMatrix, PsdMatrix]),
           ridge=st.sampled_from([MIN_RIDGE, 1e-3, 0.5, 1.0, 2.0, 1e3])
           | st.floats(MIN_RIDGE, 1e3),
           alpha=ALPHAS, counter=COUNTERS, prior=st.lists(CELLS, max_size=12),
           episodes=EPISODES)
    def test_decides_as_the_exact_trigger(self, cov_cls, ridge, alpha, counter, prior,
                                          episodes):
        self.decide_episodes(self.M, cov_cls, ridge, alpha, counter, prior, episodes)

    @settings(max_examples=100, deadline=None)
    @given(alpha=ALPHAS | st.floats(50.0, 1e300), counter=COUNTERS,
           prior=st.lists(CELLS, max_size=12), episodes=EPISODES)
    def test_decides_as_the_exact_trigger_at_max_dim(self, max_dim_instance, alpha, counter,
                                                     prior, episodes):
        """At MAX_DIM and MIN_RIDGE a first visit adds log1p(1e10) ~ 23 to the
        statistic, where its rounding is largest; alphas up to 1e300 put the
        threshold among such sums."""
        self.decide_episodes(max_dim_instance, DiagonalPsdMatrix, MIN_RIDGE, alpha, counter,
                             prior, episodes)

    def test_first_visits_at_the_rounding_corner_decide_as_exact_arithmetic(self):
        # 30 first visits on a MAX_DIM covariance at MIN_RIDGE, with
        # log(1 + alpha) 1e-10 above the float sum of their terms. In exact
        # arithmetic ((c + 1) / c)**30 is below 1 + alpha, so the trigger must
        # stay quiet. A scratch covariance's float logdet, whose 30 additions
        # to about -9.4e4 round by 1.5e-11 each, lands above the threshold.
        m = random_tabular(0, 64, 64, 1)  # d = 4096 = MAX_DIM
        cov = DiagonalPsdMatrix(m.d, MIN_RIDGE)
        c = cov.diag.item(0)
        total = 0.0
        for _ in range(30):
            total += math.log1p(1.0 / c)
        alpha = math.expm1(total + 1e-10)
        assert ((Fraction(c) + 1) / Fraction(c)) ** 30 < 1 + Fraction(alpha)
        with mpmath.workdps(50):
            # Within the error TRIGGER_LOG_TOLERANCE's comment derives.
            assert abs(total - 30 * mpmath.log1p(1 / mpmath.mpf(c))) < 2.5e-12
        ag = LsviAgent(1, m.d, m.H, alpha, MIN_RIDGE, 0.0)
        for j in range(30):
            ag.record_transition(m, Transition(1, 1, 0, j, 0.0, 0))
        assert ag.should_communicate() == exact_trigger(ag, [cov]) == (False, None)
        replay = cov.copy()
        replay.add_bases(ag.loc_cells[0])
        assert replay.logdet - cov.logdet > math.log1p(alpha) + TRIGGER_LOG_TOLERANCE


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
            r, s2 = mdp.step(s, a, h, rng.random())
            per_h[h - 1].append(Transition(k, h, s, a, r, s2))
            s = s2
    return [TransitionBatch.from_transitions(ts) for ts in per_h]


class TestBackwardUpdate:
    def test_empty_data_gives_pure_bonus(self):
        m = random_tabular(0, 2, 2, 2)
        ag = fresh_agent(m, beta=0.7)
        covs = [PsdMatrix(m.d, 1.0) for _ in range(m.H)]
        ag.lsvi_backward_update(m, [TransitionBatch.from_transitions([])] * m.H, covs)
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
        ag = LsviAgent(1, m.d, m.H, 0.5, 0.8, beta)
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
    """The design's row take (TransitionBatch.design, TransitionStore) and the
    in-place clip give the bits of fancy indexing and np.clip. Compared by
    tobytes, since -0.0 == 0.0."""

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
        ag = LsviAgent(1, m.d, m.H, 0.5, 1.0, beta)
        qp = ag.qparams
        qp.cov = [cov_cls(m.d, 1.0) for _ in range(m.H)]
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
        # delta * min(1, ridge, alpha * ridge) rounds to 0, or (2 + K) over it to inf
        dict(alpha=5e-324, ridge=0.5), dict(alpha=1e-200, ridge=1e-150),
        dict(alpha=1e-300, ridge=1e-10),
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
