"""Tests for schedules, the episode loop, metrics, and diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

from coop_lsvi import harness
from coop_lsvi import mdp as mdp_mod
from coop_lsvi.agent import LsviAgent
from coop_lsvi.harness import (TAG_SCHEDULE, ConfigError, RunConfig, build_run_state,
                               count_nonempty_epochs, epoch_boundaries,
                               metrics_csv_text, mix_seed, per_epoch_counts,
                               run_experiment)
from coop_lsvi.mdp import g17, value_iteration
from coop_lsvi.psdmat import DiagonalPsdMatrix, PsdMatrix, det_ratio
from coop_lsvi.schedules import make_initial_states, make_schedule
from coop_lsvi.server import ProtocolKind


class TestMixSeed:
    def test_deterministic(self):
        assert mix_seed(7, 3, 9) == mix_seed(7, 3, 9)

    def test_streams_distinct(self):
        seeds = {mix_seed(0, k, tag) for k in range(50) for tag in (1, 2)}
        assert len(seeds) == 100

    def test_master_changes_everything(self):
        assert mix_seed(0, 1) != mix_seed(1, 1)


class TestSchedules:
    def test_round_robin_example(self):
        cfg = RunConfig(schedule="round_robin", M=3, K=5)
        assert list(make_schedule(cfg, 8)) == [1, 2, 3, 1, 2]

    def test_single_agent(self):
        cfg = RunConfig(schedule="single_agent", M=4, K=3, schedule_agent=2)
        assert list(make_schedule(cfg, 8)) == [2, 2, 2]

    def test_uniform_random_frequencies(self):
        cfg = RunConfig(schedule="uniform_random", M=4, K=100_000, schedule_seed=0)
        s = make_schedule(cfg, 8)
        for m in range(1, 5):
            assert abs(np.mean(s == m) - 0.25) < 0.01

    def test_bursty_blocks(self):
        cfg = RunConfig(schedule="bursty", M=3, K=20, schedule_seed=1, schedule_block=5)
        s = make_schedule(cfg, 8)
        assert len(s) == 20
        for i in range(0, 20, 5):
            assert len(set(s[i:i + 5])) == 1

    def test_bursty_memory_is_o_of_k_whatever_the_block(self):
        # A block far longer than the run must not be allocated whole.
        cfg = RunConfig(schedule="bursty", M=3, K=10, schedule_seed=1,
                        schedule_block=10 ** 7)
        tracemalloc.start()
        try:
            s = make_schedule(cfg, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s) == 10 and len(set(s)) == 1
        assert peak < 2 ** 20

    def test_lower_bound_pattern(self):
        # d=8, M=2, K=32: epochs of 8 episodes, agent blocks of 4.
        s = make_schedule(RunConfig(schedule="lower_bound", M=2, K=32), 8)
        assert list(s[:8]) == [1, 1, 1, 1, 2, 2, 2, 2]
        assert list(s[:8]) == list(s[8:16])

    def test_initial_state_schedules(self):
        three_states = mdp_mod.random_tabular(0, 3, 2, 1)
        fixed = RunConfig(mdp_kind="random", init_state="fixed", init_state_fixed=2, K=4)
        assert list(make_initial_states(fixed, three_states, 0)) == [2, 2, 2, 2]
        uniform = RunConfig(mdp_kind="random", init_state="uniform_random", K=1000)
        u = make_initial_states(uniform, three_states, 0)
        assert set(u) == {0, 1, 2}
        # d=8 -> 2 initial states; epoch length ceil(2*12/8) = 3; wraps mod 2.
        epoch = RunConfig(mdp_kind="hard", mdp_d=8, init_state="epoch", K=12)
        e = make_initial_states(epoch, mdp_mod.hard_instance(8, 2, 0.1), 0)
        assert list(e) == [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1]


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(K=0), dict(M=0), dict(alpha=0.0), dict(ridge=0.0),
        dict(delta=1.0), dict(protocol="nope"), dict(eval_mode="nope"),
        dict(schedule="nope"), dict(beta_mode="fixed", beta_value=None),
        dict(mdp_kind="random", init_state="epoch"), dict(mdp_seed=-1),
        dict(schedule="uniform_random", schedule_seed=-5),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs).validate()

    def test_negative_master_seed_is_legal(self):
        # mix_seed masks the master seed to 64 bits.
        cfg = RunConfig(master_seed=-5, schedule="uniform_random").resolved()
        assert cfg.schedule_seed == mix_seed(-5, TAG_SCHEDULE) >= 0

    def test_file_instance_fixed_state_checked_against_its_states(self):
        cfg = RunConfig(mdp_kind="file", mdp_path="inst.mdp", init_state="fixed",
                        init_state_fixed=4)
        cfg.validate()
        cfg.validate(mdp_mod.random_tabular(0, 5, 2, 1))
        with pytest.raises(ConfigError) as e:
            cfg.validate(mdp_mod.random_tabular(0, 4, 2, 1))
        assert e.value.key == ("init_state", "state")

    @pytest.mark.parametrize("state", [-1, 3])
    def test_run_checks_fixed_state_against_file_instance(self, tmp_path, state):
        path = tmp_path / "inst.mdp"
        mdp_mod.write_mdp(mdp_mod.random_tabular(0, 3, 2, 2), str(path))
        cfg = RunConfig(mdp_kind="file", mdp_path=str(path), init_state="fixed",
                        init_state_fixed=state, K=5)
        with pytest.raises(ConfigError) as e:
            build_run_state(cfg)
        assert e.value.key == ("init_state", "state")

    def test_resolved_defaults(self):
        cfg = RunConfig(mdp_kind="hard", M=4, K=1000).resolved()
        assert cfg.alpha == 1.0 / 16
        assert cfg.init_state == "epoch"
        assert cfg.mdp_gap == pytest.approx(min(0.25, math.sqrt(8 * 4 / 8000)))
        assert cfg.beta_value == 0.1


class TestRunEpisode:
    def test_oracle_agent_zero_regret(self):
        cfg = RunConfig(mdp_kind="hard", mdp_gap=0.2, M=1, K=20,
                        protocol="no_comm", master_seed=0)
        state = build_run_state(cfg)
        planner = value_iteration(state.mdp)
        # Encode Q* in the one-hot weights with a zero bonus: the greedy
        # policy is then optimal from the first episode.
        ag = state.agents[0]
        ag.qparams.beta = 0.0
        for hh in range(state.mdp.H):
            ag.qparams.w[hh] = planner.q_star[hh].reshape(-1)
        from coop_lsvi.harness import run_episode
        for k in range(1, 21):
            rng = np.random.default_rng(mix_seed(cfg.master_seed, k, 0xA1))
            run_episode(state, k, rng)
            assert state.record.regret_inc[k - 1] == pytest.approx(0.0, abs=1e-12)

    def test_cold_start_full_sync(self):
        rec = run_experiment(RunConfig(mdp_kind="hard", M=2, K=1,
                                       protocol="full_sync"))
        assert rec.total_comm == 1 and rec.total_switches == 1

    def test_full_sync_counts_equal_k(self):
        rec = run_experiment(RunConfig(mdp_kind="hard", M=3, K=12,
                                       protocol="full_sync", schedule="round_robin"))
        assert rec.total_comm == 12 and rec.total_switches == 12

    def test_learning_beats_always_wrong_ceiling(self):
        # Always pulling the bad arm costs K * (H-1) * 2 * gap = 800; an
        # actual run must come in strictly under that.
        cfg = RunConfig(mdp_kind="hard", mdp_d=8, mdp_horizon=3, mdp_gap=0.1,
                        M=1, K=2000, protocol="async_trigger",
                        schedule="single_agent", master_seed=0)
        rec = run_experiment(cfg)
        assert rec.total_regret < 800.0


class TestDeterminism:
    def test_bitwise_identical_records(self):
        cfg = RunConfig(mdp_kind="hard", M=3, K=300, protocol="async_trigger",
                        schedule="uniform_random", master_seed=5)
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert metrics_csv_text(a) == metrics_csv_text(b)

    def test_diagnostics_do_not_change_trajectory(self):
        base = dict(mdp_kind="hard", M=2, K=200, protocol="async_trigger",
                    schedule="round_robin", master_seed=1)
        a = run_experiment(RunConfig(**base, diagnostics=False))
        b = run_experiment(RunConfig(**base, diagnostics=True))
        assert metrics_csv_text(a) == metrics_csv_text(b)

    def test_single_agent_nocomm_equals_async(self):
        base = dict(mdp_kind="hard", M=1, K=500, schedule="round_robin",
                    master_seed=2)
        a = run_experiment(RunConfig(**base, protocol="async_trigger"))
        b = run_experiment(RunConfig(**base, protocol="no_comm"))
        assert np.array_equal(a.regret_inc, b.regret_inc)
        assert b.total_comm == 0
        assert a.total_comm == a.total_switches == b.total_switches


def _diagnostic_bytes(rec):
    return (metrics_csv_text(rec).encode(), rec.agent_logdet.tobytes(),
            rec.all_logdet.tobytes(), rec.optimism_slack.tobytes())


def _run_bytes(cfg):
    """The covariance classes a run used, its metrics CSV bytes and the bytes
    of its diagnostic arrays."""
    classes = set()

    def hook(view):
        classes.update(type(c) for c in view.server.cov + view.agent.qparams.cov)

    rec = run_experiment(cfg, episode_hook=hook)
    return classes, _diagnostic_bytes(rec)


class TestCovarianceClasses:
    """A run's bytes do not depend on which covariance class it uses."""

    @pytest.mark.parametrize("protocol", [p.value for p in ProtocolKind])
    @pytest.mark.parametrize("instance", [
        dict(mdp_kind="hard", mdp_d=8, M=4, K=1200),
        dict(mdp_kind="random", mdp_n_states=40, mdp_n_actions=5, mdp_horizon=3, M=3, K=12),
    ], ids=["hard", "random_d200"])
    def test_diagonal_and_dense_runs_are_byte_identical(self, monkeypatch, instance, protocol):
        cfg = RunConfig(**instance, protocol=protocol, schedule="uniform_random",
                        master_seed=3, diagnostics=True)
        diag_classes, diag_bytes = _run_bytes(cfg)
        monkeypatch.setattr(harness, "DiagonalPsdMatrix", PsdMatrix)
        dense_classes, dense_bytes = _run_bytes(cfg)
        assert diag_classes == {DiagonalPsdMatrix}
        assert dense_classes == {PsdMatrix}
        assert diag_bytes == dense_bytes


class TestTrajectoryBlocks:
    """run_experiment's block-computed trajectory uniforms are the numbers a
    fresh default_rng per episode draws."""

    @pytest.mark.parametrize("protocol", [p.value for p in ProtocolKind])
    @pytest.mark.parametrize("instance", [
        dict(mdp_kind="hard", mdp_d=8, M=4, K=101),
        dict(mdp_kind="random", mdp_n_states=5, mdp_n_actions=3, mdp_horizon=3, M=3, K=61),
    ], ids=["hard", "random"])
    def test_blocked_run_matches_per_episode_generators(self, monkeypatch, instance, protocol):
        from coop_lsvi.harness import TAG_TRAJECTORY, run_episode
        cfg = RunConfig(**instance, protocol=protocol, schedule="uniform_random",
                        master_seed=3, diagnostics=True)
        state = build_run_state(cfg)
        for k in range(1, cfg.K + 1):
            run_episode(state, k, np.random.default_rng(
                mix_seed(cfg.master_seed, k, TAG_TRAJECTORY)))
        # A block of 7 makes K cross several block boundaries.
        monkeypatch.setattr(harness, "TRAJECTORY_BLOCK", 7)
        seen = []
        rec = run_experiment(cfg, episode_hook=lambda view: seen.append(view.k))
        assert seen == list(range(1, cfg.K + 1))
        assert _diagnostic_bytes(rec) == _diagnostic_bytes(state.record)

    def test_episode_draws_at_most_h_uniforms(self):
        draws = harness._EpisodeUniforms([0.25, 0.5])
        assert (draws.random(), draws.random()) == (0.25, 0.5)
        with pytest.raises(RuntimeError, match="at most H"):
            draws.random()


class TestCellIndexPath:
    """The run loop adds e_j by the cell index j of phi(s, a), never by vector."""

    @pytest.mark.parametrize("protocol", [p.value for p in ProtocolKind])
    @pytest.mark.parametrize("instance", [
        dict(mdp_kind="hard", mdp_d=8, M=4, K=300),
        dict(mdp_kind="random", mdp_n_states=5, mdp_n_actions=3, mdp_horizon=3, M=3, K=100),
    ], ids=["hard", "random"])
    def test_runs_never_take_the_vector_path(self, monkeypatch, instance, protocol):
        def vector_update(self, v):
            raise AssertionError("the run loop took the vector path")

        monkeypatch.setattr(DiagonalPsdMatrix, "rank_one_update", vector_update)
        rec = run_experiment(RunConfig(**instance, protocol=protocol, schedule="uniform_random",
                                       master_seed=3, diagnostics=True))
        assert rec.total_switches > 0

    @pytest.mark.parametrize("kind", ["hard", "random", "file"])
    def test_features_are_basis_vectors_of_their_cells(self, tmp_path, kind):
        m = (mdp_mod.hard_instance(8, 3, 0.1) if kind == "hard"
             else mdp_mod.random_tabular(4, 5, 3, 2))
        if kind == "file":
            path = str(tmp_path / "m.mdp")
            mdp_mod.write_mdp(m, path)
            m = mdp_mod.read_mdp(path)
        eye = np.eye(m.d)
        states, actions = np.divmod(np.arange(m.d), m.n_actions)
        assert np.array_equal(m.cell(states, actions), np.arange(m.d))
        for s in range(m.n_states):
            for a in range(m.n_actions):
                assert np.array_equal(m.features[s, a], eye[m.cell(s, a)])


class TestAccounting:
    def test_async_comm_equals_triggers_and_switches(self):
        rec = run_experiment(RunConfig(mdp_kind="hard", M=4, K=800,
                                       protocol="async_trigger",
                                       schedule="uniform_random", master_seed=3))
        assert rec.total_comm == int(rec.triggered.sum())
        assert np.array_equal(rec.cum_comm, rec.cum_switch)
        assert np.array_equal(np.diff(rec.cum_comm) >= 0,
                              np.full(len(rec.k) - 1, True))

    def test_sync_round_robin_charges_m_rounds(self):
        rec = run_experiment(RunConfig(mdp_kind="hard", M=3, K=400,
                                       protocol="sync_round_robin",
                                       schedule="round_robin", master_seed=0))
        n_events = int(rec.triggered.sum())
        assert n_events > 0
        assert rec.total_comm == 3 * n_events
        assert rec.total_switches == 3 * n_events

    def test_no_comm_switches_without_comm(self):
        rec = run_experiment(RunConfig(mdp_kind="hard", M=2, K=400,
                                       protocol="no_comm",
                                       schedule="round_robin", master_seed=0))
        assert rec.total_comm == 0
        assert rec.total_switches == int(rec.triggered.sum()) > 0

    @pytest.mark.parametrize("protocol", ["async_trigger", "full_sync"])
    def test_communicating_agents_keep_no_own_history(self, protocol):
        """Only the no-communication refit reads an agent's own history."""
        views = []
        rec = run_experiment(RunConfig(mdp_kind="hard", M=3, K=300, protocol=protocol,
                                       schedule="uniform_random", master_seed=1),
                             episode_hook=views.append)
        assert rec.total_comm > 0
        for agent in views[-1].agents:
            assert all(len(store.batch()) == 0 for store in agent._own)

    @pytest.mark.parametrize("protocol", ["async_trigger", "full_sync", "no_comm"])
    def test_own_history_stores_built_on_first_read(self, protocol):
        views = []
        run_experiment(RunConfig(mdp_kind="hard", M=3, K=300, protocol=protocol,
                                 schedule="uniform_random", master_seed=1),
                       episode_hook=views.append)
        for agent in views[-1].agents:
            assert len(agent._own) == (agent.H if protocol == "no_comm" else 0)


class TestOneQTable:
    """The agent's stored table is the Q-function; the policy is its argmax."""

    @staticmethod
    def check_tables(state):
        mdp = state.mdp
        for m, agent in enumerate(state.agents, start=1):
            tables = state.agent_tables(m)
            q = agent.q_table(mdp)
            if tables.q.flags.writeable:  # built by the agent's own refit
                assert tables.q is q
            else:  # until its first refit, the slot shares the initial table
                assert np.array_equal(tables.q, q)
            assert q.shape == (mdp.H, mdp.n_states, mdp.n_actions)
            for hh in range(mdp.H):
                for s in range(mdp.n_states):
                    row = agent.action_values(mdp, s, hh + 1)
                    assert np.array_equal(q[hh, s], row)
                    assert tables.policy[hh, s] == np.argmax(row)

    def test_agents_start_from_one_table(self, monkeypatch):
        calls = []
        evaluate = mdp_mod.eval_policy
        monkeypatch.setattr(mdp_mod, "eval_policy",
                            lambda *args: calls.append(1) or evaluate(*args))
        state = build_run_state(RunConfig(mdp_kind="hard", mdp_d=8, mdp_horizon=3, M=3, K=5))
        assert state.tables[0] is not None
        assert all(tables is state.tables[0] for tables in state.tables)
        assert len(calls) == 1

    @pytest.mark.parametrize("instance", [
        dict(mdp_kind="hard", mdp_d=8, mdp_horizon=3),
        dict(mdp_kind="random", mdp_n_states=6, mdp_n_actions=3, mdp_horizon=3,
             mdp_seed=1),
    ])
    @pytest.mark.parametrize("protocol", ["full_sync", "no_comm", "sync_round_robin"])
    def test_rows_match_action_values_before_and_after_updates(self, instance, protocol):
        # A small fixed width keeps most entries below the clipping ceiling,
        # so every update changes the table.
        cfg = RunConfig(**instance, M=2, K=60, protocol=protocol, beta_mode="fixed",
                        beta_value=0.05, schedule="uniform_random", master_seed=3)
        state = build_run_state(cfg)
        from coop_lsvi.harness import TAG_TRAJECTORY, run_episode
        self.check_tables(state)
        initial = [ag.q_table(state.mdp) for ag in state.agents]
        switches = 0
        for k in range(1, cfg.K + 1):
            rng = np.random.default_rng(mix_seed(cfg.master_seed, k, TAG_TRAJECTORY))
            run_episode(state, k, rng)
            if state.cum_switch > switches:
                switches = state.cum_switch
                self.check_tables(state)
        assert switches > 0
        assert any(not np.array_equal(q, ag.q_table(state.mdp))
                   for q, ag in zip(initial, state.agents))

    def test_agents_share_one_read_only_initial_table(self):
        cfg = RunConfig(mdp_kind="random", mdp_n_states=6, mdp_n_actions=3, mdp_horizon=3,
                        mdp_seed=1, M=3, K=10, beta_mode="fixed", beta_value=0.05)
        state = build_run_state(cfg)
        mdp, agents = state.mdp, state.agents
        q0 = state.tables[0].q
        assert all(tables.q is q0 for tables in state.tables)
        assert not q0.flags.writeable
        fresh = LsviAgent(1, mdp.d, mdp.H, 1.0, cfg.ridge, agents[0].qparams.beta)
        assert np.array_equal(fresh.q_table(mdp), q0)

        # Round robin: agent 1 acts first, and its first trigger fires.
        before = q0.copy()
        from coop_lsvi.harness import TAG_TRAJECTORY, run_episode
        run_episode(state, 1, np.random.default_rng(mix_seed(0, 1, TAG_TRAJECTORY)))
        assert state.cum_switch == 1
        assert state.agent_tables(1).q is agents[0].q_table(mdp) is not q0
        assert all(state.agent_tables(m).q is q0 for m in range(2, cfg.M + 1))
        assert np.array_equal(q0, before)


CACHE_INSTANCES = {
    "hard": dict(mdp_kind="hard", mdp_d=8, mdp_horizon=3, mdp_gap=0.05),
    "random": dict(mdp_kind="random", mdp_n_states=5, mdp_n_actions=3, mdp_horizon=3,
                   mdp_seed=3, beta_mode="fixed", beta_value=0.05),
}


class TestPolicyValueCache:
    """RunState.policy_value evaluates each distinct greedy policy once per
    run, through mdp_mod.eval_policy, and hands out its read-only value."""

    @staticmethod
    def run(monkeypatch, **kw):
        """(final RunState, key of every policy eval_policy saw, RunRecord)."""
        states, evaluated = [], []
        evaluate, build = mdp_mod.eval_policy, harness.build_run_state
        monkeypatch.setattr(mdp_mod, "eval_policy", lambda mdp, policy: (
            evaluated.append(policy.tobytes()) or evaluate(mdp, policy)))
        monkeypatch.setattr(harness, "build_run_state",
                            lambda cfg: states.append(build(cfg)) or states[-1])
        record = run_experiment(RunConfig(M=3, schedule="uniform_random", master_seed=5, **kw))
        return states[0], evaluated, record

    @pytest.mark.parametrize("instance", sorted(CACHE_INSTANCES))
    @pytest.mark.parametrize("protocol", [p.value for p in ProtocolKind])
    def test_every_refit_gets_the_fresh_value(self, monkeypatch, instance, protocol):
        evaluate, refit, seen = mdp_mod.eval_policy, harness._refit, []

        def checked_refit(state, agent, covs, data):
            refit(state, agent, covs, data)
            tables = state.agent_tables(agent.agent_id)
            assert tables.value.tobytes() == evaluate(state.mdp, tables.policy).tobytes()
            seen.append(tables.policy.tobytes())

        monkeypatch.setattr(harness, "_refit", checked_refit)
        state, _, _ = self.run(monkeypatch, protocol=protocol, K=200,
                               **CACHE_INSTANCES[instance])
        assert len(seen) == state.cum_switch > len(set(seen))

    def test_evaluates_each_distinct_policy_once(self, monkeypatch):
        state, evaluated, _ = self.run(monkeypatch, protocol="full_sync", K=300,
                                       **CACHE_INSTANCES["hard"])
        assert len(evaluated) == len(set(evaluated))
        assert set(evaluated) == set(state.policy_values)
        assert state.cum_switch > 10 * len(evaluated)

    def test_cached_values_are_read_only(self, monkeypatch):
        state, _, _ = self.run(monkeypatch, protocol="async_trigger", K=300,
                               **CACHE_INSTANCES["random"])
        assert len(state.policy_values) > 1
        assert not any(value.flags.writeable for value in state.policy_values.values())
        for tables in filter(None, state.tables):
            assert tables.value is state.policy_values[tables.policy.tobytes()]
            with pytest.raises(ValueError):
                tables.value[0, 0] = 0.0

    def test_one_entry_budget_evicts_the_oldest(self, monkeypatch):
        kw = dict(protocol="full_sync", K=300, **CACHE_INSTANCES["hard"])
        want = metrics_csv_text(run_experiment(RunConfig(M=3, schedule="uniform_random",
                                                         master_seed=5, **kw)))
        monkeypatch.setattr(harness, "POLICY_VALUE_CACHE_BYTES", 16 * 3 * 4)  # H = 3, S = 4
        state, evaluated, record = self.run(monkeypatch, **kw)
        assert list(state.policy_values) == [evaluated[-1]]
        assert len(evaluated) > len(set(evaluated))
        assert metrics_csv_text(record) == want

    def test_eval_off_evaluates_nothing(self, monkeypatch):
        state, evaluated, record = self.run(monkeypatch, protocol="full_sync", K=100,
                                            eval_mode="off", **CACHE_INSTANCES["hard"])
        assert evaluated == [] and state.policy_values == {}
        assert state.cum_switch > 0 and np.isnan(record.regret_inc).all()


class TestInactiveFreeze:
    def test_inactive_agents_byte_frozen(self):
        cfg = RunConfig(mdp_kind="hard", M=3, K=150, protocol="async_trigger",
                        schedule="uniform_random", master_seed=4)
        state = build_run_state(cfg)
        from coop_lsvi.harness import TAG_TRAJECTORY, run_episode
        snapshots = {
            m: ([c.mat.copy() for c in ag.qparams.cov], ag.qparams.w.copy())
            for m, ag in enumerate(state.agents, start=1)
        }
        for k in range(1, cfg.K + 1):
            rng = np.random.default_rng(mix_seed(cfg.master_seed, k, TAG_TRAJECTORY))
            m = run_episode(state, k, rng).m
            for other, ag in enumerate(state.agents, start=1):
                mats, w = snapshots[other]
                if other != m:
                    assert np.array_equal(w, ag.qparams.w)
                    for hh in range(state.mdp.H):
                        assert np.array_equal(mats[hh], ag.qparams.cov[hh].mat)
            active = state.agents[m - 1]
            snapshots[m] = ([c.mat.copy() for c in active.qparams.cov],
                            active.qparams.w.copy())


class TestTriggerSoundness:
    def test_non_trigger_episodes_within_ratio(self):
        cfg = RunConfig(mdp_kind="hard", M=2, K=300, protocol="async_trigger",
                        schedule="round_robin", master_seed=6)
        violations = []

        def hook(view):
            if view.triggered:
                return
            for hh in range(view.mdp.H):
                ratio = det_ratio(view.agent.qparams.cov[hh],
                                  view.agent.loc_features[hh])
                if ratio > (1.0 + view.agent.alpha) * (1.0 + 1e-14):
                    violations.append((view.k, hh))

        run_experiment(cfg, episode_hook=hook)
        assert violations == []


class TestUniversalTracking:
    def test_trace_and_domination(self):
        cfg = RunConfig(mdp_kind="hard", mdp_d=8, M=2, K=120,
                        protocol="async_trigger", schedule="round_robin",
                        master_seed=0, diagnostics=True)
        state = build_run_state(cfg)
        from coop_lsvi.harness import TAG_TRAJECTORY, run_episode
        rng_check = np.random.default_rng(99)
        for k in range(1, cfg.K + 1):
            rng = np.random.default_rng(mix_seed(cfg.master_seed, k, TAG_TRAJECTORY))
            run_episode(state, k, rng)
        # After K episodes with one-hot features: trace = d*ridge + K per h.
        for hh in range(state.mdp.H):
            assert np.trace(state.all_cov[hh].mat) == pytest.approx(8 + 120)
            xs = rng_check.standard_normal((100, 8))
            for ag in state.agents:
                all_q = np.einsum("nd,de,ne->n", xs, state.all_cov[hh].mat, xs)
                ag_q = np.einsum("nd,de,ne->n", xs, ag.qparams.cov[hh].mat, xs)
                assert np.all(all_q >= ag_q - 1e-9)

    def test_full_sync_server_equals_universal(self):
        cfg = RunConfig(mdp_kind="hard", M=2, K=60, protocol="full_sync",
                        schedule="round_robin", master_seed=0, diagnostics=True)
        state = build_run_state(cfg)
        from coop_lsvi.harness import TAG_TRAJECTORY, run_episode
        for k in range(1, cfg.K + 1):
            rng = np.random.default_rng(mix_seed(cfg.master_seed, k, TAG_TRAJECTORY))
            run_episode(state, k, rng)
        for hh in range(state.mdp.H):
            assert np.abs(state.all_cov[hh].mat - state.server.cov[hh].mat).max() < 1e-8


class TestEpochBoundaries:
    def test_scalar_doubling_example(self):
        # d=1, ridge=1, one unit feature per episode: det at the start of
        # episode k is k, so boundaries sit at powers of two.
        K = 40
        logdets = np.log(np.arange(1, K + 1, dtype=float)).reshape(K, 1)
        bounds = epoch_boundaries(logdets, ridge=1.0, d=1)
        assert bounds == [1, 2, 4, 8, 16, 32]

    def test_empty_stream(self):
        assert epoch_boundaries(np.zeros((0, 3)), 1.0, 4) == [1]

    def test_epoch_count_bound_on_run(self):
        cfg = RunConfig(mdp_kind="hard", mdp_d=8, M=2, K=2000,
                        protocol="async_trigger", schedule="round_robin",
                        master_seed=1, diagnostics=True)
        rec = run_experiment(cfg)
        n = count_nonempty_epochs(rec.epoch_starts, cfg.K)
        bound = 8 * 3 * math.log2(1 + cfg.K / 8) + 1
        assert n <= bound

    def test_per_epoch_counts_partition(self):
        bounds = [1, 5, 10]
        events = np.array([1, 2, 7, 9, 10, 11])
        assert per_epoch_counts(bounds, events, K=20) == [2, 2, 2]


class TestEvalModes:
    def test_eval_off_records_nan(self):
        rec = run_experiment(RunConfig(mdp_kind="hard", M=1, K=10,
                                       eval_mode="off", master_seed=0))
        assert np.all(np.isnan(rec.regret_inc))
        assert rec.total_comm >= 0


class TestNonUnitRidge:
    def test_deterministic_and_trigger_sound(self):
        cfg = RunConfig(mdp_kind="hard", M=2, K=300, protocol="async_trigger",
                        schedule="round_robin", ridge=0.5, master_seed=12)
        violations = []

        def hook(view):
            if view.triggered:
                return
            for hh in range(view.mdp.H):
                ratio = det_ratio(view.agent.qparams.cov[hh],
                                  view.agent.loc_features[hh])
                if ratio > (1.0 + view.agent.alpha) * (1.0 + 1e-12):
                    violations.append((view.k, hh))

        a = run_experiment(cfg, episode_hook=hook)
        b = run_experiment(cfg)
        assert violations == []
        assert metrics_csv_text(a) == metrics_csv_text(b)


class TestMetricsCsv:
    def test_header_and_shape(self):
        rec = run_experiment(RunConfig(mdp_kind="hard", M=1, K=10, master_seed=0))
        text = metrics_csv_text(rec)
        lines = text.strip().split("\n")
        assert lines[0] == "k,m_k,regret_inc,cum_regret,triggered,trigger_h,cum_comm,cum_switch"
        assert len(lines) == 11

    @staticmethod
    def row_by_row(record):
        """Reference formatter: one row at a time, one field at a time."""
        lines = [harness.METRICS_HEADER]
        cum_regret = record.cum_regret
        for i in range(len(record.k)):
            lines.append(",".join((
                str(int(record.k[i])), str(int(record.m[i])),
                g17(record.regret_inc[i]), g17(cum_regret[i]),
                "1" if record.triggered[i] else "0", str(int(record.trigger_h[i])),
                str(int(record.cum_comm[i])), str(int(record.cum_switch[i])))))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("eval_off", [False, True])
    @pytest.mark.parametrize("K", [0, 1, harness.TRAJECTORY_BLOCK, harness.TRAJECTORY_BLOCK + 1])
    def test_blocks_match_row_by_row_reference(self, K, eval_off):
        rng = np.random.default_rng(K)
        rec = harness.RunRecord.empty(K, 3, diagnostics=False)
        rec.m[:] = rng.integers(1, 5, size=K)
        # Negative increments, -0.0 and values spanning many magnitudes.
        rec.regret_inc[:] = rng.standard_normal(K) * 10.0 ** rng.integers(-20, 20, size=K)
        rec.regret_inc[::5] = -0.0
        if eval_off:
            rec.regret_inc[:] = math.nan
        rec.triggered[:] = rng.random(K) < 0.3
        rec.trigger_h[:] = np.where(rec.triggered, rng.integers(1, 4, size=K), 0)
        rec.cum_comm[:] = np.cumsum(rec.triggered) * 2
        rec.cum_switch[:] = np.cumsum(rec.triggered)
        assert metrics_csv_text(rec) == self.row_by_row(rec)

    def test_run_matches_row_by_row_reference(self, monkeypatch):
        monkeypatch.setattr(harness, "TRAJECTORY_BLOCK", 7)
        rec = run_experiment(RunConfig(mdp_kind="random", mdp_n_states=5, mdp_n_actions=3,
                                       mdp_horizon=3, M=3, K=50, master_seed=7))
        assert np.any(rec.regret_inc > 0.0) and np.any(rec.triggered)
        assert metrics_csv_text(rec) == self.row_by_row(rec)

    def test_float_round_trip(self):
        rec = run_experiment(RunConfig(mdp_kind="hard", M=2, K=50,
                                       schedule="round_robin", master_seed=7))
        lines = metrics_csv_text(rec).strip().split("\n")[1:]
        for i, line in enumerate(lines):
            parts = line.split(",")
            assert float(parts[2]) == rec.regret_inc[i]
            assert float(parts[3]) == rec.cum_regret[i]
