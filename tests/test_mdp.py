"""Tests for linear MDP construction, exact planning, sampling, and file IO."""

import math

import numpy as np
import pytest

from coop_lsvi import mdp as mdp_mod
from coop_lsvi.mdp import (InvalidMdpError, build_tabular_as_linear, eval_policy,
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
        assert m.gamma[0, 0] == 1.0

    def test_one_hot_reconstruction(self):
        m = random_tabular(11, 2, 2, 3)
        assert m.d == 4
        for h in range(1, 4):
            for s in range(2):
                for a in range(2):
                    phi = m.features[s, a]
                    assert np.count_nonzero(phi) == 1
                    assert np.allclose(phi @ m.mu[h - 1], m.transitions[h - 1, s, a])

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
            _, nxt = m.step(0, 0, 1, rng)
            assert nxt == 1

    def test_absorbing_state(self):
        m = hard_instance(8, 3, 0.1)
        good = m.n_states - 2
        rng = np.random.default_rng(0)
        for h in range(1, 4):
            reward, nxt = m.step(good, 0, h, rng)
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
        hits = sum(m.step(0, 0, 1, rng)[1] for _ in range(100_000))
        assert abs(hits / 100_000 - 0.7) < 0.01

    def test_reproducible(self):
        m = random_tabular(3, 4, 2, 3)
        out1 = [m.step(1, 0, 2, np.random.default_rng(9)) for _ in range(1)]
        out2 = [m.step(1, 0, 2, np.random.default_rng(9)) for _ in range(1)]
        assert out1 == out2


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


def test_default_hard_gap():
    assert mdp_mod.default_hard_gap(8, 4, 32) == 0.25  # capped
    assert mdp_mod.default_hard_gap(8, 4, 32000) == pytest.approx(
        math.sqrt(32 / (8 * 32000)))
