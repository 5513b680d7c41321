"""Tests for schedules, the episode loop, metrics, and diagnostics."""

import ast
import collections
import dataclasses
import gc
import importlib.util
import inspect
import math
import pathlib
import textwrap
import tracemalloc
import types
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coop_lsvi import agent as agent_mod
from coop_lsvi import harness
from coop_lsvi import mdp as mdp_mod
from coop_lsvi import server as server_mod
from coop_lsvi.agent import LsviAgent
from coop_lsvi.configio import parse_config
from coop_lsvi.harness import (TAG_SCHEDULE, ConfigError, RunConfig, build_run_state,
                               count_nonempty_epochs, epoch_boundaries,
                               metrics_csv_text, mix_seed, per_epoch_counts,
                               run_experiment)
from coop_lsvi.mdp import LinearMdp, g17, value_iteration
from coop_lsvi.psdmat import MIN_RIDGE, REFRESH_PERIOD, DiagonalPsdMatrix, PsdMatrix, det_ratio
from coop_lsvi.schedules import make_initial_states, make_schedule
from coop_lsvi.server import CentralServer, Decision, ProtocolKind, protocol_decide
from test_golden_trajectories import TRIGGER_CORNERS, TRIGGER_INSTANCES


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

    def test_lower_bound_seats_every_agent(self):
        # d=8, M=8, K=68: four epochs of 17 episodes, split 3 + 2 * 7.
        s = make_schedule(RunConfig(schedule="lower_bound", M=8, K=68), 8)
        assert list(s[:17]) == [1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8]
        assert np.bincount(s, minlength=9)[1:].tolist() == [12, 8, 8, 8, 8, 8, 8, 8]

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
        dict(schedule="uniform_random", schedule_seed=-5), dict(ridge=1e-155),
        dict(beta_mode="theoretical", alpha=5e-324, ridge=0.5),
        dict(beta_mode="practical", beta_value=1e308),
        dict(beta_mode="theoretical", beta_value=1.0, alpha=math.inf),
        dict(master_seed=-1), dict(master_seed=2 ** 64), dict(mdp_seed=2 ** 64),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs).validate()

    def test_master_seed_must_fit_64_bits(self):
        # mix_seed reads the master seed mod 2**64: one outside would alias one inside.
        cfg = RunConfig(master_seed=2 ** 64 - 1, schedule="uniform_random").resolved()
        assert cfg.schedule_seed == mix_seed(2 ** 64 - 1, TAG_SCHEDULE)
        for seed in (-5, 2 ** 64 + 5):
            with pytest.raises(ConfigError) as e:
                RunConfig(master_seed=seed).validate()
            assert e.value.key == ("run", "master_seed")

    def test_resolved_beta_must_be_finite(self):
        """The constant is checked alone, and beta again once d and H scale
        it; a fixed beta is the constant itself, so 1e308 stays legal."""
        build_run_state(RunConfig(beta_mode="fixed", beta_value=1e308, K=5))
        with pytest.raises(ConfigError) as e:
            build_run_state(RunConfig(beta_mode="practical", beta_value=1e308, K=5))
        assert e.value.key == ("run", "beta")

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
            run_episode(state, k, rng.random(state.mdp.H))
            assert state.record.regret_inc[k - 1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k", [0, -1, 6])
    def test_episode_out_of_range_raises(self, k):
        """k = 0 would otherwise run the last episode's agent and write row K."""
        from coop_lsvi.harness import run_episode
        state = build_run_state(RunConfig(mdp_kind="hard", mdp_d=8, M=2, K=5))
        with pytest.raises(ValueError, match=rf"^k={k}:"):
            run_episode(state, k, [0.5] * state.mdp.H)
        assert not state.record.m.any()
        assert not any(cells for agent in state.agents for cells in agent.loc_cells)

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
        """With one agent the server holds exactly the agent's data, so the
        async downloads and the no_comm local updates refit alike, past
        REFRESH_PERIOD updates of each covariance: only cum_comm differs."""
        base = dict(mdp_kind="hard", M=1, K=1200, schedule="round_robin",
                    master_seed=2, diagnostics=True)
        a = run_experiment(RunConfig(**base, protocol="async_trigger"))
        seen = {}
        b = run_experiment(RunConfig(**base, protocol="no_comm"),
                           episode_hook=lambda view: seen.setdefault("agent", view.agent))
        assert b.total_comm == 0
        assert a.total_comm == a.total_switches == b.total_switches
        assert _diagnostic_bytes(dataclasses.replace(a, cum_comm=b.cum_comm)) == \
            _diagnostic_bytes(b)
        # Each episode adds one update per step: fewer since the last refresh
        # than the episodes absorbed means the agent's covariances refreshed.
        agent = seen["agent"]
        absorbed = base["K"] - len(agent.loc_episodes)
        assert all(cov.updates_since_refresh < absorbed for cov in agent.qparams.cov)


def _diagnostic_bytes(rec):
    return (metrics_csv_text(rec).encode(), rec.agent_logdet.tobytes(),
            rec.cells.tobytes(), rec.optimism_slack.tobytes())


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
        for module in (agent_mod, server_mod):
            monkeypatch.setattr(module, "DiagonalPsdMatrix", PsdMatrix)
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
                mix_seed(cfg.master_seed, k, TAG_TRAJECTORY)).random(state.mdp.H))
        # A block of 7 makes K cross several block boundaries.
        monkeypatch.setattr(harness, "TRAJECTORY_BLOCK", 7)
        seen = []
        rec = run_experiment(cfg, episode_hook=lambda view: seen.append(view.k))
        assert seen == list(range(1, cfg.K + 1))
        assert _diagnostic_bytes(rec) == _diagnostic_bytes(state.record)

    def test_episode_takes_exactly_h_uniforms(self):
        from coop_lsvi.harness import run_episode
        state = build_run_state(RunConfig(mdp_kind="hard", M=2, K=5))
        assert state.mdp.H == 3
        for n in (0, 2, 4):
            with pytest.raises(ValueError, match=rf"^draws: {n} uniforms"):
                run_episode(state, 1, [0.5] * n)
        assert not state.record.m.any()
        assert not any(cells for agent in state.agents for cells in agent.loc_cells)

    @pytest.mark.parametrize("bad_step", [1, 2, 3])
    def test_nan_uniform_raises_before_anything_is_written(self, bad_step):
        """A NaN at step h > 1 used to raise from LinearMdp.step after the
        record row and the agent's local delta had taken the earlier steps."""
        from coop_lsvi.harness import run_episode
        state = build_run_state(RunConfig(mdp_kind="hard", mdp_d=8, M=2, K=5,
                                          diagnostics=True))

        def snapshot():
            rec = [getattr(state.record, f.name) for f in dataclasses.fields(state.record)]
            return ([x.tobytes() if isinstance(x, np.ndarray) else x for x in rec],
                    [(repr(a.loc_cells), repr(a.loc_transitions), repr(a._visits),
                      repr(a._log_ratio)) for a in state.agents])

        before = snapshot()
        draws = [0.5] * state.mdp.H
        draws[bad_step - 1] = math.nan
        with pytest.raises(ValueError, match=r"^draws: .* NaN"):
            run_episode(state, 1, draws)
        assert snapshot() == before

    @pytest.mark.parametrize("bad", ["nan-draw", "action-past-A"])
    def test_refused_rollout_leaves_the_agent_as_it_was(self, bad):
        """The run path files the cells its rollout returned, unchecked by the
        agent: a rollout the walk refuses at step 2 files nothing, on an agent
        whose delta and covariances are no longer fresh."""
        from coop_lsvi.harness import run_episode
        state = build_run_state(RunConfig(mdp_kind="hard", mdp_d=8, M=2, K=60,
                                          schedule="single_agent", schedule_agent=1))
        rng = np.random.default_rng(4)
        for k in range(1, 50):
            run_episode(state, k, rng.random(state.mdp.H).tolist())
        agent = state.agents[0]
        assert agent.loc_episodes and state.cum_switch > 0

        def snapshot():
            return (repr((agent.loc_episodes, agent.loc_rows, agent.loc_rewards,
                          agent.loc_cells, agent._visits, agent._log_ratio)),
                    [c.diag.tobytes() for c in agent.qparams.cov],
                    state.record.m.tobytes(), state.cum_comm, state.cum_switch)

        draws = [0.5] * state.mdp.H
        if bad == "nan-draw":
            draws[1] = math.nan
        else:
            tables = state.agent_tables(1)
            actions = [list(acts) for acts in tables.actions]
            actions[1] = [state.mdp.n_actions] * state.mdp.n_states
            state.tables[0] = tables._replace(actions=actions)
        before = snapshot()
        with pytest.raises(ValueError, match=r"^draws: .* NaN|^a=2: action out of \[0, 2\)$"):
            run_episode(state, 50, draws)
        assert snapshot() == before


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


class TestTracedBoundaries:
    """The run loop crosses each boundary that perfbench/tracer.py wraps as
    often as the protocol implies, so that inlining one out of the tracer's
    sight fails here. An episode is one rollout, whose cells the agent files
    without record_episode's checks: the one-step LinearMdp.step and
    LsviAgent.record_transition, which the tracer still wraps, are off the run
    path, and so is LsviAgent.local_cov_snapshot, since a no_comm local update
    grows the agent's covariances in place. The refit enters each covariance
    through its unchecked _solve_into, never the checked solve, and a store
    builds its H TransitionBatch objects once, refreshing them in place.
    Every delta is filed through TransitionStore.absorb, by an upload or a
    no_comm read of the own history, and only absorb grows a covariance."""

    @pytest.mark.parametrize("diagnostics", [False, True])
    @pytest.mark.parametrize("protocol", [p.value for p in ProtocolKind])
    def test_call_counts(self, monkeypatch, protocol, diagnostics):
        calls = collections.Counter()

        def count(owner, name, key=None):
            original = vars(owner)[name]

            def counted(*args, **kwargs):
                calls[key or name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for cls in (PsdMatrix, DiagonalPsdMatrix):
            for name in ("solve", "_solve_into"):
                count(cls, name, f"{cls.__name__}.{name}")
        count(agent_mod.TransitionBatch, "__init__", "TransitionBatch")
        count(agent_mod.TransitionStore, "__init__", "TransitionStore")
        count(agent_mod.TransitionStore, "absorb")
        count(DiagonalPsdMatrix, "add_bases")
        for owner, name in [(LinearMdp, "step"), (LsviAgent, "record_transition"),
                            (LinearMdp, "rollout"), (LsviAgent, "record_episode"),
                            (LsviAgent, "should_communicate"),
                            (LsviAgent, "lsvi_backward_update"), (CentralServer, "upload"),
                            (CentralServer, "download"), (harness, "run_episode"),
                            (harness.RunState, "agent_tables"), (LsviAgent, "own_history"),
                            (LsviAgent, "local_cov_snapshot")]:
            count(owner, name)
        K, H = 300, 3
        rec = run_experiment(RunConfig(mdp_kind="hard", mdp_d=8, mdp_horizon=H, M=3, K=K,
                                       protocol=protocol, schedule="uniform_random",
                                       master_seed=2, diagnostics=diagnostics))
        assert calls["step"] == calls["record_transition"] == 0
        assert calls["rollout"] == K and calls["record_episode"] == 0
        assert calls["should_communicate"] == calls["run_episode"] == K
        # One per episode, and one in build_run_state for the shared initial tables.
        assert calls["agent_tables"] == K + 1
        assert calls["lsvi_backward_update"] == rec.total_switches > 0
        assert calls["upload"] == calls["download"] == rec.total_comm
        assert (rec.total_comm > 0) == (protocol != "no_comm")
        assert calls["own_history"] == (rec.total_switches if protocol == "no_comm" else 0)
        assert calls["local_cov_snapshot"] == 0
        assert calls["absorb"] == calls["upload"] + calls["own_history"] > 0
        assert calls["add_bases"] == H * calls["absorb"]
        # A refit reads at least one whole episode, so it solves at every
        # step, on the diagonal class, unchecked.
        assert calls["DiagonalPsdMatrix._solve_into"] == H * rec.total_switches
        assert calls["PsdMatrix._solve_into"] == 0
        assert calls["PsdMatrix.solve"] == calls["DiagonalPsdMatrix.solve"] == 0
        # The server's store, and under no_comm one per agent that refits
        # (on its trigger); H batches each, none per extend.
        refitting = {m for m, fired in zip(rec.m.tolist(), rec.triggered.tolist()) if fired}
        stores = 1 + (len(refitting) if protocol == "no_comm" else 0)
        assert calls["TransitionStore"] == stores
        assert stores > 1 or protocol != "no_comm"
        assert calls["TransitionBatch"] == H * stores


class TestDiagnosticsKeepNoCovariance:
    @pytest.mark.parametrize("protocol", [p.value for p in ProtocolKind])
    def test_same_covariance_work_with_and_without(self, monkeypatch, protocol):
        """Diagnostics read the run's visit record: they build, update and
        copy no covariance that the same run without them does not, and the
        episode computes no cell and takes no step of its own for them."""
        calls = collections.Counter()
        for owner, name in ((DiagonalPsdMatrix, "__init__"), (DiagonalPsdMatrix, "add_bases"),
                            (DiagonalPsdMatrix, "copy"), (LinearMdp, "cell"),
                            (LinearMdp, "step"), (LinearMdp, "rollout")):
            original = vars(owner)[name]

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        counts = {}
        for diagnostics in (False, True):
            calls.clear()
            run_experiment(RunConfig(mdp_kind="hard", mdp_d=8, M=3, K=300, protocol=protocol,
                                     schedule="uniform_random", master_seed=2,
                                     diagnostics=diagnostics))
            counts[diagnostics] = dict(calls)
        assert counts[True] == counts[False]
        assert counts[False]["add_bases"] > 0
        assert counts[False]["rollout"] == 300


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
            assert agent._own is None

    @pytest.mark.parametrize("protocol", ["async_trigger", "full_sync", "no_comm"])
    def test_own_history_stores_built_on_first_read(self, protocol):
        views = []
        run_experiment(RunConfig(mdp_kind="hard", M=3, K=300, protocol=protocol,
                                 schedule="uniform_random", master_seed=1),
                       episode_hook=views.append)
        for agent in views[-1].agents:
            assert (agent._own is not None) == (protocol == "no_comm")


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
            run_episode(state, k, rng.random(state.mdp.H))
            if state.cum_switch > switches:
                switches = state.cum_switch
                self.check_tables(state)
        assert switches > 0
        assert any(not np.array_equal(q, ag.q_table(state.mdp))
                   for q, ag in zip(initial, state.agents))

    @pytest.mark.parametrize("m", [0, -1, 3])
    def test_agent_out_of_range_raises(self, m):
        """m = 0 would otherwise return agent M's tables."""
        state = build_run_state(RunConfig(mdp_kind="hard", M=2, K=5))
        with pytest.raises(ValueError, match=rf"^m={m}:"):
            state.agent_tables(m)

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
        run_episode(state, 1, np.random.default_rng(mix_seed(0, 1, TAG_TRAJECTORY)).random(mdp.H))
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
            m = run_episode(state, k, rng.random(state.mdp.H)).m
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


    @pytest.mark.parametrize("workload, copies", [("hard_async", 1182),
                                                   ("hard_no_comm", 0)])
    def test_the_trigger_copies_no_covariance(self, monkeypatch, workload, copies):
        """The benchmark's hard runs at seed 0 copy a covariance only to adopt
        a download, H per communication round: deciding the trigger copies
        none, and a no_comm local update grows the agent's own covariances in
        place."""
        path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        made = [0]
        copy = DiagonalPsdMatrix.copy

        def counted(cov):
            made[0] += 1
            return copy(cov)

        monkeypatch.setattr(DiagonalPsdMatrix, "copy", counted)
        cfg = parse_config(workloads.WORKLOADS[workload].config(0))
        record = run_experiment(cfg)
        assert made[0] == cfg.resolved().mdp_horizon * record.total_comm == copies
        assert record.total_switches == {"hard_async": 394, "hard_no_comm": 991}[workload]

    @pytest.mark.parametrize("instance", sorted(TRIGGER_INSTANCES))
    def test_local_update_in_place_equals_the_snapshot(self, monkeypatch, instance):
        """After every no_comm local update the agent's covariances hold the
        bytes local_cov_snapshot() gave for the same delta, across refreshes."""
        snapshots = {}
        decide = LsviAgent.should_communicate

        def snapshot_then_decide(agent):
            # The delta is complete when the trigger is decided.
            snapshots[agent.agent_id] = agent.local_cov_snapshot()
            return decide(agent)

        monkeypatch.setattr(LsviAgent, "should_communicate", snapshot_then_decide)
        updates, refreshed = [0], [False]

        def hook(view):
            if view.decision is not Decision.LOCAL_UPDATE:
                return
            updates[0] += 1
            for got, want in zip(view.agent.qparams.cov, snapshots[view.agent.agent_id]):
                assert got is not want
                assert got.diag.tobytes() == want.diag.tobytes()
                assert got.inv_diag.tobytes() == want.inv_diag.tobytes()
                assert (got.logdet, got.updates_since_refresh) == \
                    (want.logdet, want.updates_since_refresh)
                refreshed[0] |= got.diag.sum() - got.dim * got.ridge > REFRESH_PERIOD
        cfg = RunConfig(protocol="no_comm", M=2, K=1500, schedule="uniform_random",
                        master_seed=5, **TRIGGER_INSTANCES[instance])
        record = run_experiment(cfg, episode_hook=hook)
        assert updates[0] == record.total_switches > 0
        assert refreshed[0]


def domination_ratio(cfg, record):
    """The largest (ridge + n_all,j) / (ridge + n_server,j) over every episode
    end, step and cell of a diagnostics-on run, as an exact Fraction, and the
    per-step counts n_server at the run's end.

    Replays the run's visit record (cells, m, triggered) in integers: n_all
    counts every visit so far, n_server the visits uploaded, which the
    protocol's decision of each episode fixes. A cell's ratio grows only in
    an episode that visits it, so its maximum over cells at an episode end is
    reached at a cell of that episode.
    """
    H, cfg = record.cells.shape[1], cfg.resolved()
    kind, ridge = ProtocolKind(cfg.protocol), Fraction(cfg.ridge)
    n_all = [collections.Counter() for _ in range(H)]
    n_server = [collections.Counter() for _ in range(H)]
    unsynced = [[] for _ in range(cfg.M)]  # per agent, its (h, cell) visits not uploaded
    worst = Fraction(1)
    for m, fired, cells in zip(record.m.tolist(), record.triggered.tolist(),
                               record.cells.tolist()):
        visits = list(enumerate(cells))
        unsynced[m - 1].extend(visits)
        for hh, j in visits:
            n_all[hh][j] += 1
        decision = protocol_decide(kind, fired)
        uploads = {Decision.SYNC_ALL: unsynced,
                   Decision.COMMUNICATE: [unsynced[m - 1]]}.get(decision, [])
        for pending in uploads:
            for hh, j in pending:
                n_server[hh][j] += 1
            pending.clear()
        worst = max(worst, *((ridge + n_all[hh][j]) / (ridge + n_server[hh][j])
                             for hh, j in visits))
    return worst, n_server


class TestCovarianceDomination:
    """The asynchronous analysis's covariance domination, from counts: each
    agent's trigger keeps its unsynced visits v_j <= alpha * c_j against its
    last download c, which the server dominates, so summed over the M agents
    ridge + n_all,j <= (1 + M alpha)(ridge + n_server,j) at every episode
    end, step and cell."""

    @staticmethod
    def bound(cfg):
        return 1 + cfg.M * Fraction(cfg.resolved().alpha)

    @pytest.mark.parametrize("protocol", ["async_trigger", "sync_round_robin"])
    @pytest.mark.parametrize("corner", sorted(TRIGGER_CORNERS))
    @pytest.mark.parametrize("instance", sorted(TRIGGER_INSTANCES))
    def test_trigger_corners(self, instance, corner, protocol):
        alpha, ridge = TRIGGER_CORNERS[corner]
        cfg = RunConfig(protocol=protocol, schedule="uniform_random", master_seed=5, M=2,
                        K=1200, alpha=alpha, ridge=ridge, diagnostics=True,
                        **TRIGGER_INSTANCES[instance])
        assert domination_ratio(cfg, run_experiment(cfg))[0] <= self.bound(cfg)

    @pytest.mark.parametrize("protocol", ["async_trigger", "sync_round_robin"])
    @pytest.mark.parametrize("M", [2, 4, 8])
    def test_hard_grid_config(self, M, protocol):
        """The acceptance grid's hard instance at K = 8000; at M = 2 seed 0
        the bound is met with equality, so the check must be exact."""
        cfg = RunConfig(mdp_kind="hard", mdp_d=8, mdp_horizon=3, M=M, K=8000,
                        protocol=protocol, schedule="uniform_random", master_seed=0,
                        diagnostics=True)
        seen = {}
        record = run_experiment(cfg, episode_hook=lambda view: seen.setdefault("server",
                                                                               view.server))
        ratio, n_server = domination_ratio(cfg, record)
        # The replay uploads what the run did: the server's diagonals are ridge
        # plus its counts.
        for cov, counts in zip(seen["server"].cov, n_server):
            assert cov.diag.tolist() == [cov.ridge + counts[j] for j in range(cov.dim)]
        assert ratio <= self.bound(cfg)
        if M == 2:
            assert ratio == self.bound(cfg)

    def test_full_sync_keeps_the_server_complete(self):
        cfg = RunConfig(mdp_kind="hard", mdp_d=8, mdp_horizon=3, M=4, K=2000,
                        protocol="full_sync", schedule="uniform_random", master_seed=0,
                        diagnostics=True)
        assert domination_ratio(cfg, run_experiment(cfg))[0] == 1


class TestUniversalTracking:
    """The run's visit record against the covariances the run grew."""

    @staticmethod
    def _run(cfg):
        """The run's state after its K episodes, and each agent's last episode
        with a refit."""
        from coop_lsvi.harness import TAG_TRAJECTORY, run_episode
        state = build_run_state(cfg)
        synced = {}
        for k in range(1, cfg.K + 1):
            rng = np.random.default_rng(mix_seed(cfg.master_seed, k, TAG_TRAJECTORY))
            view = run_episode(state, k, rng.random(state.mdp.H))
            if view.decision is not Decision.NONE:
                synced[view.m] = k
        return state, synced

    def test_trace_and_domination(self):
        cfg = RunConfig(mdp_kind="hard", mdp_d=8, M=2, K=120,
                        protocol="async_trigger", schedule="round_robin",
                        master_seed=0, diagnostics=True)
        state, synced = self._run(cfg)
        cells, ridge = state.record.cells, cfg.ridge
        assert cells.shape == (120, 3) and 0 <= cells.min() and cells.max() < 8
        assert sorted(synced) == [1, 2]
        for hh in range(state.mdp.H):
            # Every visit is on the server or in one agent's local delta.
            local = sum(np.bincount(ag.loc_cells[hh], minlength=8) for ag in state.agents)
            assert np.array_equal(state.server.cov[hh].diag - ridge + local,
                                  np.bincount(cells[:, hh], minlength=8))
            # An agent holds at most the visits of the episodes up to its last refit.
            for ag in state.agents:
                seen = np.bincount(cells[:synced[ag.agent_id], hh], minlength=8)
                assert np.all(ag.qparams.cov[hh].diag - ridge <= seen)

    def test_full_sync_server_equals_universal(self):
        cfg = RunConfig(mdp_kind="hard", M=2, K=60, protocol="full_sync",
                        schedule="round_robin", master_seed=0, diagnostics=True)
        state, _ = self._run(cfg)
        d = state.mdp.d
        for hh in range(state.mdp.H):
            assert np.array_equal(state.server.cov[hh].diag,
                                  cfg.ridge + np.bincount(state.record.cells[:, hh], minlength=d))


def fraction_epochs(cells: np.ndarray, ridge: float, d: int) -> list[int]:
    """epoch_boundaries by Fraction products: boundary i is the first episode
    at whose start prod_j (ridge + n_j) / ridge reaches 2^i at some step, n_j
    the visits of the earlier episodes."""
    K, H = cells.shape
    if K == 0:
        return [1]
    r = Fraction(ridge)
    counts = np.zeros((H, d), dtype=np.int64)
    out = []
    for k in range(1, K + 1):
        ratio = max(math.prod((r + int(n)) / r for n in counts[hh]) for hh in range(H))
        while ratio >= 2 ** len(out):
            out.append(k)
        counts[np.arange(H), cells[k - 1]] += 1
    return out


@st.composite
def visit_records(draw):
    d, H, K = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(0, 80))
    cells = draw(st.lists(st.integers(0, d - 1), min_size=K * H, max_size=K * H))
    return np.array(cells, dtype=np.int64).reshape(K, H), d


class TestEpochBoundaries:
    def test_scalar_doubling_example(self):
        # d=1, ridge=1, one unit feature per episode: det at the start of
        # episode k is k, so boundaries sit at powers of two.
        K = 40
        bounds = epoch_boundaries(np.zeros((K, 1), dtype=np.int64), ridge=1.0, d=1)
        assert bounds == [1, 2, 4, 8, 16, 32]

    def test_empty_stream(self):
        assert epoch_boundaries(np.zeros((0, 3), dtype=np.int64), 1.0, 4) == [1]

    @settings(max_examples=200, deadline=None)
    @given(visit_records(), st.sampled_from([1.0, 0.8, 0.3, 2.5, MIN_RIDGE]))
    def test_matches_fraction_products(self, record, ridge):
        cells, d = record
        assert epoch_boundaries(cells, ridge, d) == fraction_epochs(cells, ridge, d)

    def test_exact_doubling_on_a_grid_run(self):
        """An acceptance-grid run: at the start of episode 11 the universal
        determinant is exactly 2^5 ridge^d, which a float log-det comparison
        with 5 log 2 put one episode late. K = 2000 crosses a block of the
        record's read."""
        cfg = RunConfig(mdp_kind="hard", mdp_d=8, mdp_horizon=3, M=4, K=2000,
                        protocol="async_trigger", schedule="uniform_random",
                        master_seed=1, diagnostics=True)
        rec = run_experiment(cfg)
        dets = [math.prod((1 + np.bincount(rec.cells[:10, hh], minlength=8)).tolist())
                for hh in range(3)]
        assert max(dets) == 32 and rec.epoch_starts[5] == 11
        assert rec.epoch_starts == fraction_epochs(rec.cells, cfg.ridge, 8)

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


# The benchmark's random_d200 run at seed 0: 40 states x 5 actions, H = 5.
D200 = dict(mdp_kind="random", mdp_n_states=40, mdp_n_actions=5, mdp_horizon=5, mdp_seed=0,
            M=4, K=8, schedule="uniform_random")


def _reachable_instances(root) -> list:
    """The LinearMdp objects reachable from root through object references,
    not through classes or modules."""
    seen, out, todo = set(), [], [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, LinearMdp):
            out.append(obj)
        todo.extend(gc.get_referents(obj))
    return out


class TestSharedInstance:
    """build_run_state shares the last hard or random instance it built, and
    its plan, across the runs of a process (harness.built_instance)."""

    @pytest.fixture
    def cold(self, monkeypatch):
        """An empty slot for the test, the process's own slot back after it."""
        monkeypatch.setattr(harness, "_shared", None)

    @staticmethod
    def output(cfg: RunConfig) -> tuple:
        rec = run_experiment(cfg)
        return (metrics_csv_text(rec), rec.agent_logdet.tobytes(), rec.cells.tobytes(),
                rec.optimism_slack.tobytes(), rec.epoch_starts)

    @pytest.mark.parametrize("instance", sorted(CACHE_INSTANCES))
    @pytest.mark.parametrize("protocol", [p.value for p in ProtocolKind])
    def test_cold_and_warm_runs_are_byte_identical(self, monkeypatch, cold, instance,
                                                    protocol):
        cfg = RunConfig(M=3, K=120, protocol=protocol, schedule="uniform_random",
                        master_seed=4, diagnostics=True, **CACHE_INSTANCES[instance])
        expected = self.output(cfg)
        monkeypatch.setattr(harness, "_shared", None)
        # An unplanned warm-up leaves the instance without its plan: the next
        # run plans it, and the run after that reuses both.
        run_experiment(dataclasses.replace(cfg, eval_mode="off", diagnostics=False))
        planned = []
        value_iteration = mdp_mod.value_iteration
        monkeypatch.setattr(mdp_mod, "value_iteration",
                            lambda mdp: planned.append(mdp) or value_iteration(mdp))
        assert self.output(cfg) == expected
        assert self.output(cfg) == expected
        assert len(planned) == 1 and planned[0] is harness._shared.mdp

    @pytest.mark.parametrize("instance,change", [
        ("hard", dict(mdp_d=10)), ("hard", dict(mdp_horizon=4)), ("hard", dict(mdp_gap=0.1)),
        ("random", dict(mdp_seed=4)), ("random", dict(mdp_n_states=4)),
        ("random", dict(mdp_n_actions=2)), ("random", dict(mdp_horizon=2)),
    ])
    def test_each_keyed_field_gives_a_new_instance_and_frees_the_old(self, cold, instance,
                                                                    change):
        cfg = RunConfig(M=2, K=5, **CACHE_INSTANCES[instance])
        old = build_run_state(cfg).mdp
        assert build_run_state(dataclasses.replace(cfg, master_seed=9, M=3)).mdp is old
        tables, ref = (old.transitions.copy(), old.rewards.copy()), weakref.ref(old)
        del old
        new = build_run_state(dataclasses.replace(cfg, **change)).mdp
        gc.collect()
        assert ref() is None
        assert not (np.array_equal(new.transitions, tables[0])
                    and np.array_equal(new.rewards, tables[1]))

    def test_key_is_every_field_build_mdp_reads(self):
        """instance_key names each RunConfig field that build_mdp reads, so a
        field added to an instance family cannot be left out of the key."""
        def cfg_fields(function):
            tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
            return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id == "cfg"}

        assert cfg_fields(harness.instance_key) == cfg_fields(harness.build_mdp) - {"mdp_path"}

    def test_shared_tables_and_fields_are_read_only(self, cold):
        state = build_run_state(RunConfig(M=2, K=5, diagnostics=True))
        assert state.mdp is harness._shared.mdp and state.planner is harness._shared.planner
        for obj in (state.mdp, state.planner):
            assert set(vars(obj)) == {f.name for f in dataclasses.fields(obj)}
            for name, value in vars(obj).items():
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, name, value)
                if isinstance(value, memoryview):
                    assert value.readonly
                    with pytest.raises(TypeError):
                        value[0] = 0.0
                elif isinstance(value, np.ndarray):
                    with pytest.raises(ValueError, match="read-only"):
                        value[(0,) * value.ndim] = 0
                    arr = value
                    while isinstance(arr, np.ndarray):  # and every array it views
                        assert not arr.flags.writeable
                        arr = arr.base

    def test_eval_off_without_diagnostics_never_plans(self, monkeypatch, cold):
        planned = []
        monkeypatch.setattr(mdp_mod, "value_iteration", planned.append)
        for _ in range(2):
            rec = run_experiment(RunConfig(M=2, K=20, eval_mode="off"))
            assert np.isnan(rec.regret_inc).all()
        assert planned == []
        assert harness._shared.planner is None

    def test_file_instance_is_read_on_every_run(self, tmp_path, monkeypatch, cold):
        reads, read_mdp = [], mdp_mod.read_mdp
        monkeypatch.setattr(mdp_mod, "read_mdp", lambda path: reads.append(path)
                            or read_mdp(path))
        path = tmp_path / "inst.mdp"
        cfg = RunConfig(mdp_kind="file", mdp_path=str(path), M=2, K=5)
        for seed in (0, 1):
            mdp_mod.write_mdp(mdp_mod.random_tabular(seed, 3, 2, 2), str(path))
            assert np.array_equal(build_run_state(cfg).mdp.transitions,
                                  mdp_mod.random_tabular(seed, 3, 2, 2).transitions)
        assert reads == [str(path)] * 2
        assert harness._shared is None

    @staticmethod
    def count_reads(monkeypatch):
        """Every read_mdp call, through configio's name and the module's."""
        from coop_lsvi import configio
        reads, read_mdp = [], mdp_mod.read_mdp

        def counted(path):
            reads.append(path)
            return read_mdp(path)

        monkeypatch.setattr(mdp_mod, "read_mdp", counted)
        monkeypatch.setattr(configio, "read_mdp", counted)
        return reads

    def test_parsed_file_instance_is_read_once(self, tmp_path, monkeypatch, cold):
        """parse_config reads and checks the file; the run, through resolved()
        and the CLI's --seed, and every run of a sweep, use what it read."""
        from coop_lsvi import cli
        reads = self.count_reads(monkeypatch)
        path = tmp_path / "inst.mdp"
        mdp_mod.write_mdp(mdp_mod.random_tabular(0, 3, 2, 2), str(path))
        text = f"[mdp]\nkind = file\npath = {path}\n\n[run]\nM = 2\nK = 20\n"
        cfg = parse_config(text)
        want = run_experiment(RunConfig(mdp_kind="file", mdp_path=str(path), M=2, K=20))
        reads.clear()
        cfg = parse_config(text)
        got = run_experiment(cfg)
        assert reads == [str(path)]
        assert metrics_csv_text(got) == metrics_csv_text(want)
        (tmp_path / "run.cfg").write_text(text)
        (tmp_path / "sweep.cfg").write_text(text + "\n[sweep]\nseeds = 1, 2, 3\n")
        for argv in (["run", "--config", str(tmp_path / "run.cfg"), "--seed", "4"],
                     ["sweep", "--config", str(tmp_path / "sweep.cfg")]):
            reads.clear()
            assert cli.main([*argv, "--out", str(tmp_path / argv[0])]) == 0
            assert reads == [str(path)]

    def test_a_changed_path_is_read(self, tmp_path, monkeypatch, cold):
        """The carried instance serves only the path it was read from."""
        reads = self.count_reads(monkeypatch)
        paths = [tmp_path / "a.mdp", tmp_path / "b.mdp"]
        for seed, path in enumerate(paths):
            mdp_mod.write_mdp(mdp_mod.random_tabular(seed, 3, 2, 2), str(path))
        cfg = parse_config(f"[mdp]\nkind = file\npath = {paths[0]}\n\n[run]\nM = 2\nK = 5\n")
        cfg.mdp_path = paths[1]
        assert np.array_equal(build_run_state(cfg).mdp.transitions,
                              mdp_mod.random_tabular(1, 3, 2, 2).transitions)
        assert reads == [str(paths[0]), str(paths[1])]

    @pytest.mark.parametrize("change,key", [
        (dict(K=5_000_000), ("run", "K")),
        (dict(init_state="fixed", init_state_fixed=3), ("init_state", "state")),
    ])
    def test_file_instance_is_checked_before_it_is_planned(self, tmp_path, monkeypatch, cold,
                                                           change, key):
        """A file config that its instance's sizes reject raises before any
        value iteration: the K cap (K * H = 10**7 steps) or a fixed initial
        state out of the file's three states."""
        path = tmp_path / "inst.mdp"
        mdp_mod.write_mdp(mdp_mod.random_tabular(0, 3, 2, 2), str(path))
        planned = []
        monkeypatch.setattr(mdp_mod, "value_iteration", planned.append)
        cfg = RunConfig(**{**dict(mdp_kind="file", mdp_path=str(path), M=2, K=5), **change})
        with pytest.raises(ConfigError) as err:
            build_run_state(cfg)
        assert err.value.key == key
        assert planned == []

    @pytest.mark.parametrize("cap,kept", [(96, True), (95, False)])
    def test_only_an_instance_within_the_cap_is_kept(self, monkeypatch, cold, cap, kept):
        """The hard d = 8, H = 3 table has 3 * 4 * 2 * 4 = 96 entries; an
        instance above SHARED_TABLE_ENTRIES drops the last one and is freed
        when its run ends."""
        run_experiment(RunConfig(M=2, K=5, **CACHE_INSTANCES["random"]))
        monkeypatch.setattr(harness, "SHARED_TABLE_ENTRIES", cap)
        state = build_run_state(RunConfig(M=2, K=5, **CACHE_INSTANCES["hard"]))
        assert state.mdp.transitions.size == 96
        ref = weakref.ref(state.mdp)
        del state
        gc.collect()
        assert (ref() is not None) == kept
        assert (harness._shared is not None) == kept

    def test_warm_run_allocates_the_instance_less(self, cold):
        """Under tracemalloc a warm run of the random d = 200 config peaks at
        least its instance's table bytes below the cold run; a run of another
        instance then leaves one instance reachable from the slot."""
        cfg = RunConfig(**D200)
        # Another instance of the same sizes first: what any first run
        # allocates once (imports, eye(200)) is then outside both peaks.
        run_experiment(dataclasses.replace(cfg, mdp_seed=1))
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run_experiment(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        mdp = harness._shared.mdp
        table_bytes = mdp.transitions.nbytes + mdp._cum_rows.nbytes + mdp.rewards.nbytes
        assert table_bytes == 648_000
        assert peaks[0] - peaks[1] >= table_bytes
        ref = weakref.ref(mdp)
        del mdp
        run_experiment(RunConfig(M=2, K=5))
        gc.collect()
        assert ref() is None
        assert [m.d for m in _reachable_instances(harness._shared)] == [8]
