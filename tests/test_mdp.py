"""Tests for linear MDP construction, exact planning, sampling, and file IO."""

import math
import os
import pickle
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coop_lsvi import mdp as mdp_mod
from coop_lsvi.agent import TransitionStore
from coop_lsvi.mdp import (InvalidMdpError, LinearMdp, build_tabular_as_linear, eval_policy,
                           hard_instance, random_tabular, read_mdp,
                           validate_linear_mdp, value_iteration, write_mdp)


def degenerate_mdp():
    # 1 state, 1 action, H=1, reward-1 deterministic self loop.
    P = np.ones((1, 1, 1, 1))
    r = np.ones((1, 1, 1))
    return build_tabular_as_linear(P, r)


class TestBuildTabular:
    def test_degenerate(self):
        m = degenerate_mdp()
        assert m.d == 1
        assert m.features[0, 0, 0] == 1.0
        assert m.rewards[0, 0, 0] == 1.0

    def test_one_hot_reconstruction(self):
        m = random_tabular(11, 2, 2, 3)
        assert m.d == 4
        for s in range(2):
            for a in range(2):
                assert np.array_equal(m.features[s, a], np.eye(4)[s * 2 + a])

    def test_random_instance_passes_validator(self):
        m = random_tabular(5, 5, 3, 2)
        assert all(c.passed for c in validate_linear_mdp(m))

    def test_bad_row_sum_rejected(self):
        P = np.ones((1, 1, 1, 1)) * 1.1
        r = np.zeros((1, 1, 1))
        with pytest.raises(InvalidMdpError, match="sums to"):
            build_tabular_as_linear(P, r)

    def test_reward_out_of_range_rejected(self):
        P = np.ones((1, 1, 1, 1))
        r = np.full((1, 1, 1), 1.5)
        with pytest.raises(InvalidMdpError, match="rewards"):
            build_tabular_as_linear(P, r)

    @pytest.mark.parametrize("field,index,value,check", [
        ("P", (0, 1, 0), [1.0 + 1e-9, 0.0], "transition_rows_sum_to_1"),
        ("P", (1, 0, 1), [1.5, -0.5], "transition_probs_nonnegative"),
        ("r", (1, 1, 0), -1e-9, "rewards_in_unit_interval"),
    ], ids=["row_sum", "negative_prob", "reward_range"])
    def test_each_check_fails_alone(self, field, index, value, check):
        P = np.full((2, 2, 2, 2), 0.5)
        r = np.full((2, 2, 2), 0.5)
        {"P": P, "r": r}[field][index] = value
        results = validate_linear_mdp(LinearMdp(P, r))
        assert [c.name for c in results if not c.passed] == [check]
        detail = next(c.detail for c in results if c.name == check)
        with pytest.raises(InvalidMdpError, match=re.escape(f"{check}: {detail}")):
            build_tabular_as_linear(P, r)



class TestLinearMdp:
    """LinearMdp is built from its (P, r) tables alone."""

    def test_derives_sizes_and_one_hot_features(self):
        P = np.full((3, 4, 2, 4), 0.25)
        m = LinearMdp(P, np.zeros((3, 4, 2)))
        assert (m.H, m.n_states, m.n_actions, m.d) == (3, 4, 2, 8)
        assert np.array_equal(m.features, np.eye(8).reshape(4, 2, 8))
        assert np.array_equal(m.features.reshape(8, 8)[m.cell(3, 1)], np.eye(8)[7])

    def test_features_are_a_view_of_the_shared_identity(self):
        m = hard_instance(8, 3, 0.1)
        assert np.shares_memory(m.features, mdp_mod.identity(m.d))
        assert np.shares_memory(m.features, TransitionStore(m.d, m.H)._eye)

    def test_copies_the_tables_as_read_only_float64(self):
        P = np.ones((1, 2, 1, 2), dtype=np.int64)
        r = np.zeros((1, 2, 1), dtype=np.int64)
        m = LinearMdp(P, r)
        P[0, 0, 0, 0] = 5
        assert m.transitions[0, 0, 0, 0] == 1.0
        for arr in (m.transitions, m.rewards, m.features, m._cum_rows):
            assert arr.dtype == np.float64 and not arr.flags.writeable

    def test_compares_and_hashes_by_identity(self):
        a, b = hard_instance(8, 3, 0.1), hard_instance(8, 3, 0.1)
        assert (a == b) is False
        assert (a == a) is True
        assert len({a, b, a}) == 2

    @pytest.mark.parametrize("P_shape,r_shape", [
        ((2, 3, 2, 4), (2, 3, 2)),   # next-state axis differs from the state axis
        ((2, 3, 2, 3), (2, 3, 3)),   # reward table of another action count
        ((2, 3, 2, 3), (3, 3, 2)),   # reward table of another horizon
        ((3, 2, 3), (3, 2)),         # transition table without an action axis
    ])
    def test_rejects_inconsistent_shapes(self, P_shape, r_shape):
        with pytest.raises(InvalidMdpError, match="inconsistent table shapes"):
            LinearMdp(np.zeros(P_shape), np.zeros(r_shape))

class TestRandomTabular:
    def test_deterministic_in_seed(self):
        a = random_tabular(7, 4, 2, 3)
        b = random_tabular(7, 4, 2, 3)
        assert np.array_equal(a.transitions, b.transitions)
        assert np.array_equal(a.rewards, b.rewards)

    def test_validator_oracle(self):
        m = random_tabular(7, 4, 2, 3)
        assert all(c.passed for c in validate_linear_mdp(m))

    def test_single_state_rows(self):
        m = random_tabular(3, 1, 2, 2)
        assert np.allclose(m.transitions, 1.0)


class TestHardInstance:
    def test_initial_state_value_closed_form(self):
        m = hard_instance(8, 3, 0.1)
        pl = value_iteration(m)
        for s in range(2):  # d/2 - 2 = 2 initial states
            assert pl.v_star[0, s] == pytest.approx(2 * 0.6, abs=1e-12)

    def test_absorbing_chain_values(self):
        m = hard_instance(10, 4, 0.2)
        pl = value_iteration(m)
        good = m.n_states - 2
        for h in range(1, 5):
            assert pl.v_star[h - 1, good] == pytest.approx(4 - h + 1, abs=1e-12)

    def test_zero_gap_makes_all_policies_equal(self):
        m = hard_instance(8, 3, 0.0)
        pl = value_iteration(m)
        rng = np.random.default_rng(0)
        for _ in range(5):
            policy = rng.integers(0, 2, size=(3, m.n_states))
            assert np.allclose(eval_policy(m, policy)[0], pl.v_star[0], atol=1e-12)

    @pytest.mark.parametrize("d,H,gap", [(7, 3, 0.1), (6, 3, 0.1), (8, 1, 0.1), (8, 3, 0.5)])
    def test_constraint_violations(self, d, H, gap):
        with pytest.raises(InvalidMdpError):
            hard_instance(d, H, gap)


class TestValueIteration:
    def test_single_state_sum_of_rewards(self):
        P = np.ones((4, 1, 1, 1))
        r = np.ones((4, 1, 1))
        pl = value_iteration(build_tabular_as_linear(P, r))
        assert pl.v_star[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_q_range_and_bellman_consistency(self):
        m = random_tabular(9, 5, 3, 4)
        pl = value_iteration(m)
        for h in range(1, 5):
            assert np.all(pl.q_star[h - 1] >= 0.0)
            assert np.all(pl.q_star[h - 1] <= 4 - h + 1 + 1e-12)
            v_next = pl.v_star[h] if h < 4 else np.zeros(5)
            bellman = m.rewards[h - 1] + m.transitions[h - 1] @ v_next
            assert np.array_equal(pl.q_star[h - 1], bellman)

    def test_monte_carlo_oracle(self):
        m = random_tabular(7, 4, 2, 3)
        pl = value_iteration(m)
        rng = np.random.default_rng(123)
        n = 100_000
        cum = np.cumsum(m.transitions, axis=-1)
        states = np.zeros(n, dtype=np.int64)
        returns = np.zeros(n)
        for h in range(1, 4):
            acts = pl.optimal_policy[h - 1][states]
            returns += m.rewards[h - 1][states, acts]
            rows = cum[h - 1][states, acts]
            u = rng.random(n)
            states = (u[:, None] > rows).sum(axis=1)
        se = returns.std() / math.sqrt(n)
        assert abs(returns.mean() - pl.v_star[0, 0]) <= 3 * se + 1e-9


class TestEvalPolicy:
    def test_optimal_policy_matches_v_star(self):
        m = random_tabular(21, 6, 3, 4)
        pl = value_iteration(m)
        assert np.array_equal(eval_policy(m, pl.optimal_policy), pl.v_star)

    def test_always_bad_arm_closed_form(self):
        m = hard_instance(8, 3, 0.1)
        policy = np.ones((3, m.n_states), dtype=np.int64)
        values = eval_policy(m, policy)
        for s in range(2):
            assert values[0, s] == pytest.approx(2 * 0.4, abs=1e-12)

    def test_one_step_horizon(self):
        m = random_tabular(2, 3, 2, 1)
        policy = np.zeros((1, 3), dtype=np.int64)
        values = eval_policy(m, policy)
        assert np.allclose(values[0], m.rewards[0][:, 0])

    def test_out_of_range_action(self):
        m = random_tabular(2, 3, 2, 2)
        bad = np.full((2, 3), 5, dtype=np.int64)
        with pytest.raises(InvalidMdpError):
            eval_policy(m, bad)


class TestStep:
    def test_point_mass(self):
        P = np.zeros((1, 2, 1, 2))
        P[0, :, 0, 1] = 1.0
        r = np.zeros((1, 2, 1))
        m = build_tabular_as_linear(P, r)
        rng = np.random.default_rng(0)
        for _ in range(20):
            _, nxt = m.step(0, 0, 1, rng.random())
            assert nxt == 1

    def test_absorbing_state(self):
        m = hard_instance(8, 3, 0.1)
        good = m.n_states - 2
        rng = np.random.default_rng(0)
        for h in range(1, 4):
            reward, nxt = m.step(good, 0, h, rng.random())
            assert reward == 1.0 and nxt == good

    def test_frequency_oracle(self):
        P = np.zeros((1, 1, 1, 2))
        # Pad a dummy state so the row fits; state 0 goes to {0, 1}.
        P = np.zeros((1, 2, 1, 2))
        P[0, 0, 0] = [0.3, 0.7]
        P[0, 1, 0] = [0.0, 1.0]
        r = np.zeros((1, 2, 1))
        m = build_tabular_as_linear(P, r)
        rng = np.random.default_rng(42)
        hits = sum(m.step(0, 0, 1, rng.random())[1] for _ in range(100_000))
        assert abs(hits / 100_000 - 0.7) < 0.01

    def test_reproducible(self):
        m = random_tabular(3, 4, 2, 3)
        out1 = [m.step(1, 0, 2, np.random.default_rng(9).random()) for _ in range(1)]
        out2 = [m.step(1, 0, 2, np.random.default_rng(9).random()) for _ in range(1)]
        assert out1 == out2

    @pytest.mark.parametrize("s, a, h, name", [
        (0, 0, 0, "h"), (0, 0, 4, "h"),
        (-1, 0, 1, "s"), (4, 0, 1, "s"),
        (0, -1, 1, "a"), (0, 2, 1, "a"),
    ])
    def test_out_of_range_index_raises(self, s, a, h, name):
        """A negative index would otherwise wrap to another row's transition."""
        m = hard_instance(8, 3, 0.1)
        assert (m.n_states, m.n_actions, m.H) == (4, 2, 3)
        with pytest.raises(ValueError, match=rf"^{name}="):
            m.step(s, a, h, 0.5)

    def test_nan_uniform_raises(self):
        """bisect_right would carry a NaN past every entry to state S - 1."""
        m = hard_instance(8, 3, 0.1)
        with pytest.raises(ValueError, match=r"^u=nan"):
            m.step(0, 0, 1, math.nan)


def _rough_rows(rng, H, S, A):
    """(H, S, A, S) rows of positive, zero and -PROB_NEG_TOL entries summing to
    1 within PROB_ROW_TOL, so that their cumulative rows are non-monotone and
    have plateaus, yet pass validation."""
    P = rng.random((H, S, A, S))
    kind = rng.integers(0, 3, size=P.shape)
    P[kind == 1] = 0.0
    P[kind == 2] = -mdp_mod.PROB_NEG_TOL
    P[..., 0] = np.abs(P[..., 0]) + 1e-3  # every row has some positive mass
    pos = P > 0
    neg = np.where(pos, 0.0, P).sum(axis=-1, keepdims=True)
    P = np.where(pos, P / np.where(pos, P, 0.0).sum(axis=-1, keepdims=True) * (1.0 - neg), P)
    return P


def searchsorted_state(m, s, a, h, u):
    """The next state by its definition: searchsorted on the cumulative row,
    clamped to S - 1."""
    row = m._cum_rows[h - 1, s, a]
    return min(int(np.searchsorted(row, u, side="right")), m.n_states - 1)


class TestStepSampler:
    """step draws searchsorted(row, u, side="right") clamped to S - 1, exactly,
    without calling numpy."""

    @pytest.mark.parametrize("S", [1, 2, 4, 40])
    def test_matches_searchsorted(self, S):
        rng = np.random.default_rng(S)
        H, A = 2, 3
        m = build_tabular_as_linear(_rough_rows(rng, H, S, A), rng.random((H, S, A)))
        if S > 2:
            assert (np.diff(m._cum_rows, axis=-1) < 0).any()  # some row is non-monotone
        for h in range(1, H + 1):
            for s in range(S):
                for a in range(A):
                    row = m._cum_rows[h - 1, s, a]
                    # Every entry, its neighbours, and values past the last entry.
                    us = {0.0, 1.0, 1.5, float(np.nextafter(row[-1], 2.0)), *rng.random(8)}
                    for c in row.tolist():
                        us |= {c, float(np.nextafter(c, -1.0)), float(np.nextafter(c, 2.0))}
                    for u in sorted(us):
                        reward, nxt = m.step(s, a, h, u)
                        assert nxt == searchsorted_state(m, s, a, h, u)
                        assert type(nxt) is int and type(reward) is float
                        assert reward == m.rewards[h - 1, s, a]

    def test_follows_the_binary_search_on_a_non_monotone_row(self):
        """On the cumulative row (0.5, 0.5 - 1e-12, 1) the first entry above
        u = 0.5 - 5e-13 is entry 0, but the binary search probes entry 1 first
        and ends at 2, and so must step."""
        P = np.array([[[[0.5, -1e-12, 0.5 + 1e-12]]] * 3])
        m = LinearMdp(P, np.zeros((1, 3, 1)))
        u = 0.5 - 5e-13
        assert searchsorted_state(m, 0, 0, 1, u) == 2
        assert m.step(0, 0, 1, u)[1] == 2

    def test_last_entry_below_one_clamps(self):
        P = np.array([[[[0.25, 0.75 - 1e-11]]] * 2])
        m = LinearMdp(P, np.zeros((1, 2, 1)))
        assert m.step(1, 0, 1, 1.0 - 1e-12)[1] == 1

    def test_pickles_and_steps_alike(self):
        m = random_tabular(4, 5, 3, 2)
        twin = pickle.loads(pickle.dumps(m))
        assert twin.transitions.tobytes() == m.transitions.tobytes()
        assert twin.rewards.tobytes() == m.rewards.tobytes()
        assert ([twin.step(2, 1, 2, np.random.default_rng(k).random()) for k in range(20)]
                == [m.step(2, 1, 2, np.random.default_rng(k).random()) for k in range(20)])


class TestRollout:
    """rollout picks, at every step, the state step picks at the same
    (s, a, h, u): on rough rows, at u = 1.0, past a row's last entry (the
    clamp to S - 1) and at every cumulative entry and its neighbours."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), S=st.sampled_from([1, 2, 3, 5, 12]),
           A=st.integers(1, 3), H=st.integers(1, 4), data=st.data())
    def test_follows_step_at_every_step(self, seed, S, A, H, data):
        rng = np.random.default_rng(seed)
        P = _rough_rows(rng, H, S, A)
        if data.draw(st.booleans()):
            P[..., 0] -= 1e-11  # rows ending below 1, within PROB_ROW_TOL: the clamp
        m = build_tabular_as_linear(P, rng.random((H, S, A)))
        actions = rng.integers(0, A, size=(H, S)).tolist()
        s1 = data.draw(st.integers(0, S - 1))
        draws = []
        for hh in range(H):
            cum = m._cum_rows[hh].reshape(-1).tolist()
            c = data.draw(st.sampled_from(cum))
            draws.append(data.draw(st.sampled_from(
                [0.0, 1.0, float(rng.random()), c, float(np.nextafter(c, -1.0)),
                 float(np.nextafter(c, 2.0))])))
        row, rewards = m.rollout(s1, actions, draws)
        assert len(row) == 3 * H and len(rewards) == H
        s = s1
        for h, u in enumerate(draws, 1):
            a = actions[h - 1][s]
            reward, nxt = m.step(s, a, h, u)
            assert row[3 * h - 3:3 * h] == [s, a, nxt]
            assert type(rewards[h - 1]) is float and rewards[h - 1] == reward
            assert nxt == searchsorted_state(m, s, a, h, u)
            s = nxt

    def test_clamps_past_the_last_entry(self):
        P = np.array([[[[0.25, 0.75 - 1e-11]]] * 2] * 2)
        m = LinearMdp(P, np.zeros((2, 2, 1)))
        assert m.rollout(0, [[0, 0]] * 2, [1.0, 1.0 - 1e-12]) == ([0, 0, 1, 1, 0, 1], [0.0, 0.0])

    @pytest.mark.parametrize("s1, actions, draws, match", [
        (4, [[0] * 4] * 3, [0.5] * 3, r"^s=4: state out of \[0, 4\)$"),
        (-1, [[0] * 4] * 3, [0.5] * 3, r"^s=-1: state"),
        (0, [[0] * 4] * 3, [0.5] * 2, r"^draws: 2 uniforms for an episode of H = 3 steps$"),
        (0, [[0] * 4] * 2, [0.5] * 3, r"^actions: 2 rows for an episode of H = 3 steps$"),
        (0, [[0] * 4, [2] * 4, [0] * 4], [0.5] * 3, r"^a=2: action out of \[0, 2\)$"),
        (0, [[0] * 4] * 3, [0.5, 0.5, math.nan], r"^draws: \[0.5, 0.5, nan\] holds a NaN"),
    ], ids=["s-past-S", "s-negative", "short-draws", "short-actions", "bad-action", "nan"])
    def test_bad_inputs_raise(self, s1, actions, draws, match):
        m = hard_instance(8, 3, 0.1)
        with pytest.raises(ValueError, match=match):
            m.rollout(s1, actions, draws)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        m = hard_instance(8, 3, 0.1234567890123456)
        path = tmp_path / "hard.mdp"
        write_mdp(m, str(path))
        back = read_mdp(str(path))
        assert np.array_equal(back.transitions, m.transitions)
        assert np.array_equal(back.rewards, m.rewards)
        assert back.d == m.d and back.H == m.H

    def test_corrupt_row_detected_by_validator(self, tmp_path):
        m = random_tabular(1, 2, 2, 2)
        path = tmp_path / "bad.mdp"
        write_mdp(m, str(path))
        text = path.read_text()
        # Corrupt one probability row: scale it by 1.1.
        lines = text.splitlines()
        idx = lines.index("[transition 0 0 0]") + 1
        lines[idx] = " ".join(str(1.1 * float(x)) for x in lines[idx].split())
        path.write_text("\n".join(lines))
        loaded = read_mdp(str(path))
        checks = {c.name: c for c in validate_linear_mdp(loaded)}
        assert not checks["transition_rows_sum_to_1"].passed
        assert "(h=1, s=0, a=0)" in checks["transition_rows_sum_to_1"].detail

    def test_injected_bad_reward_detected(self, tmp_path):
        m = random_tabular(1, 2, 2, 2)
        path = tmp_path / "badr.mdp"
        write_mdp(m, str(path))
        lines = path.read_text().splitlines()
        idx = lines.index("[reward 0]") + 1
        lines[idx] = "1.5 " + lines[idx].split(" ", 1)[1]
        path.write_text("\n".join(lines))
        checks = {c.name: c for c in validate_linear_mdp(read_mdp(str(path)))}
        assert not checks["rewards_in_unit_interval"].passed


class TestMalformedFile:
    """Text that cannot be placed in the tables raises InvalidMdpError naming
    its line; validate never sees it."""

    def corrupt(self, tmp_path, old, new):
        path = tmp_path / "bad.mdp"
        write_mdp(random_tabular(1, 2, 2, 2), str(path))
        text = path.read_text()
        assert old in text
        lines = text.replace(old, new, 1).splitlines()
        path.write_text("\n".join(lines))
        return str(path), lines

    @pytest.mark.parametrize("old,new,bad_line", [
        ("H = 2", "H = 2.5", "H = 2.5"),                                # non-integer meta
        ("[transition 0 1 0]", "[transition 0 5 0]", "[transition 0 5 0]"),  # out of range
        ("[transition 0 1 0]", "[transition -1 0 0]", "[transition -1 0 0]"),  # negative
        ("[reward 1]", "[reward 2]", "[reward 2]"),                     # reward step out of range
        ("[reward 1]\n", "[reward 1]\n0.5 x\n", "0.5 x"),             # non-float entry
        ("[reward 1]", "[reward 0]", "[reward 0]"),                     # repeated section
        ("[transition 0 1 0]", "[transition 0 0 0]", "[transition 0 0 0]"),
        ("[transition 0 1 0]\n", "[transition 0 1 0]\n0.5 0.5\n", "[transition 0 1 0]"),  # two rows
        ("H = 2", "H = 1\nH = 2", "H = 2"),                               # repeated meta key
        ("n_actions = 2", "n_actions = 2\nsize = 3", "size = 3"),         # unknown meta key
        ("H = 2", "H = 0", "H = 0"),                                     # meta size below 1
        ("d = 4", "d = 5", "d = 5"),                                     # d other than S * A
    ])
    def test_rejected_naming_line(self, tmp_path, old, new, bad_line):
        path, lines = self.corrupt(tmp_path, old, new)
        lineno = len(lines) - lines[::-1].index(bad_line)  # last occurrence
        with pytest.raises(InvalidMdpError, match=rf"^line {lineno}: "):
            read_mdp(path)

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path, lines = self.corrupt(tmp_path, "[reward 1]\n", "[reward 1]\nBAD\n")
        raw = tmp_path / "bad.mdp"
        raw.write_bytes(raw.read_bytes().replace(b"BAD", b"0.5 \xff\xfe"))
        with pytest.raises(InvalidMdpError, match=rf"^line {lines.index('BAD') + 1}: "):
            read_mdp(path)


def _written_and_read(m):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.mdp")
        write_mdp(m, path)
        return read_mdp(path)


def _assert_bitwise_equal(back, m):
    assert (back.d, back.H, back.n_states, back.n_actions) == (m.d, m.H, m.n_states,
                                                                m.n_actions)
    assert back.transitions.tobytes() == m.transitions.tobytes()
    assert back.rewards.tobytes() == m.rewards.tobytes()


class TestSerializationProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 5),
           n_actions=st.integers(1, 5), H=st.integers(1, 4))
    def test_random_round_trip_is_bitwise(self, seed, n_states, n_actions, H):
        m = random_tabular(seed, n_states, n_actions, H)
        _assert_bitwise_equal(_written_and_read(m), m)

    @settings(max_examples=30, deadline=None)
    @given(d=st.sampled_from([8, 10, 12]), H=st.integers(2, 4),
           gap=st.floats(0.0, 0.5, exclude_max=True))
    def test_hard_round_trip_is_bitwise(self, d, H, gap):
        m = hard_instance(d, H, gap)
        _assert_bitwise_equal(_written_and_read(m), m)

    # Lines of a fuzzed file, after an optional well-formed [meta] block. Meta
    # sizes stay at most 6, and the junk holds no '=', so no line can declare
    # a larger instance.
    _PREFIX = st.one_of(st.just([]), st.builds(
        "[meta]\nH = {}\nn_states = {}\nn_actions = {}".format,
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).map(lambda m: [m]))
    _HEADER = st.builds(lambda name, idx: "[" + " ".join([name, *map(str, idx)]) + "]",
                        st.sampled_from(["meta", "transition", "reward", "other", ""]),
                        st.lists(st.integers(-2, 7), max_size=4))
    _META = st.builds("{} = {}".format,
                      st.sampled_from(["d", "H", "n_states", "n_actions", "size"]),
                      st.integers(-1, 6))
    _ROW = st.lists(st.one_of(st.integers(-3, 3).map(str), st.floats().map(repr),
                              st.sampled_from(["1e400", "-0", "x", "0x1", "1,5"])),
                    min_size=1, max_size=7).map(" ".join)
    _JUNK = st.text(st.characters(blacklist_characters="=\r\n",
                                  blacklist_categories=("Cs",)), max_size=10)

    @settings(max_examples=200, deadline=None)
    @given(prefix=_PREFIX,
           lines=st.lists(st.one_of(_HEADER, _META, _ROW, _JUNK), max_size=30))
    def test_fuzzed_text_loads_or_is_a_file_error(self, prefix, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.mdp")
            with open(path, "w", encoding="utf-8") as f:
                f.write("\n".join(prefix + lines))
            try:
                m = read_mdp(path)
            except InvalidMdpError:
                return
        assert m.transitions.shape == (m.H, m.n_states, m.n_actions, m.n_states)


def test_default_hard_gap():
    assert mdp_mod.default_hard_gap(8, 4, 32) == 0.25  # capped
    assert mdp_mod.default_hard_gap(8, 4, 32000) == pytest.approx(
        math.sqrt(32 / (8 * 32000)))
