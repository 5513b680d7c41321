"""Tests for the central server, protocols, and the M=1 self-equivalence."""

import math

import numpy as np
import pytest

from coop_lsvi.agent import LsviAgent, Transition
from coop_lsvi.harness import TAG_TRAJECTORY, RunConfig, mix_seed, run_experiment
from coop_lsvi.mdp import random_tabular, value_iteration
from coop_lsvi.server import (CentralServer, Decision, ProtocolKind,
                              ProtocolViolation, protocol_decide)


def agent_with_rollout(mdp, agent_id, episodes, seed, alpha=0.5):
    ag = LsviAgent(agent_id, mdp.d, mdp.H, alpha, 1.0, 1.0)
    rng = np.random.default_rng(seed)
    for k in episodes:
        s = int(rng.integers(mdp.n_states))
        for h in range(1, mdp.H + 1):
            a = int(rng.integers(mdp.n_actions))
            r, s2 = mdp.step(s, a, h, rng.random())
            ag.record_transition(mdp, Transition(k, h, s, a, r, s2))
            s = s2
    return ag


def reconstruct_cov(server, mdp, hh):
    total = server.ridge * np.eye(server.d)
    _, data = server.download()
    batch = data[hh]
    for i in range(len(batch)):
        phi = mdp.features[batch.state[i], batch.action[i]]
        total += np.outer(phi, phi)
    return total


class TestUpload:
    def test_empty_buffer_only_counts(self):
        m = random_tabular(0, 2, 2, 2)
        srv = CentralServer(m.d, m.H, 1.0)
        before = [c.mat.copy() for c in srv.cov]
        srv.upload(LsviAgent(1, m.d, m.H, 0.5, 1.0, 1.0))
        for hh in range(m.H):
            assert np.array_equal(srv.cov[hh].mat, before[hh])

    def test_one_transition_trace(self):
        m = random_tabular(0, 2, 2, 2)
        srv = CentralServer(m.d, m.H, 1.0)
        ag = agent_with_rollout(m, 1, [1], seed=0)
        trace_before = np.trace(srv.cov[0].mat)
        srv.upload(ag)
        assert np.trace(srv.cov[0].mat) == pytest.approx(trace_before + 1.0)

    def test_interleaved_order_invariance(self):
        m = random_tabular(3, 3, 2, 2)
        agents = [agent_with_rollout(m, i + 1, [10 * i + j for j in range(1, 4)], seed=i)
                  for i in range(3)]
        srv_a = CentralServer(m.d, m.H, 1.0)
        srv_b = CentralServer(m.d, m.H, 1.0)
        for ag in agents:
            srv_a.upload(ag)
        for ag in reversed(agents):
            srv_b.upload(ag)
        for hh in range(m.H):
            assert np.abs(srv_a.cov[hh].mat - srv_b.cov[hh].mat).max() < 1e-8
            assert np.abs(srv_a.cov[hh].mat - reconstruct_cov(srv_a, m, hh)).max() < 1e-8

    def test_duplicate_key_fatal(self):
        m = random_tabular(0, 2, 2, 2)
        srv = CentralServer(m.d, m.H, 1.0)
        ag = agent_with_rollout(m, 1, [1], seed=0)
        srv.upload(ag)
        with pytest.raises(ProtocolViolation):
            srv.upload(ag)  # same buffered episode again

    def test_duplicate_within_one_buffer_fatal(self):
        """The same episode twice at one step of one buffer collides with
        itself: the message names it, and that step is left as it was."""
        m = random_tabular(0, 2, 2, 2)
        srv = CentralServer(m.d, m.H, 1.0)
        ag = LsviAgent(1, m.d, m.H, 0.5, 1.0, 1.0)
        for k in (4, 7, 4):
            ag.record_transition(m, Transition(k, 2, 1, 0, 0.5, 1))
        before = srv.cov[1].logdet
        with pytest.raises(ProtocolViolation, match=r"episode 4, step 2$"):
            srv.upload(ag)
        assert srv.cov[1].logdet == before
        assert len(srv.download()[1][1]) == 0

    def test_duplicate_names_the_first_collision_in_buffer_order(self):
        m = random_tabular(0, 2, 2, 2)
        srv = CentralServer(m.d, m.H, 1.0)
        srv.upload(agent_with_rollout(m, 1, [3], seed=0))
        ag = LsviAgent(2, m.d, m.H, 0.5, 1.0, 1.0)
        for k in (5, 6, 5, 3):
            ag.record_transition(m, Transition(k, 1, 0, 1, 0.0, 0))
        with pytest.raises(ProtocolViolation, match=r"episode 5, step 1$"):
            srv.upload(ag)

    @pytest.mark.parametrize("bad", [-1, 4, 7, 1.5])
    def test_out_of_range_cell_leaves_the_step_as_it_was(self, bad):
        """A refused cell changes neither the step's store, covariance nor
        episode keys, so the corrected buffer uploads afterwards."""
        m = random_tabular(0, 2, 2, 2)  # d = 4
        srv = CentralServer(m.d, m.H, 1.0)
        ag = LsviAgent(1, m.d, m.H, 0.5, 1.0, 1.0)
        ag.loc_transitions[0].append(Transition(1, 1, 0, 1, 0.5, 1))
        ag.loc_cells[0].append(bad)
        with pytest.raises(ValueError, match=rf"^basis index {bad} outside \[0, 4\)$"):
            srv.upload(ag)
        assert srv.cov[0].diag.tolist() == [1.0] * 4
        assert (srv.cov[0].logdet, srv.cov[0].updates_since_refresh) == (0.0, 0)
        assert len(srv.download()[1][0]) == 0
        ag.loc_cells[0][0] = m.cell(0, 1)
        srv.upload(ag)
        covs, data = srv.download()
        assert list(data[0].episode) == [1] and list(data[0].action) == [1]
        assert covs[0].diag.tolist() == [1.0, 2.0, 1.0, 1.0]

    def test_logdet_monotone_across_uploads(self):
        m = random_tabular(1, 3, 2, 2)
        srv = CentralServer(m.d, m.H, 1.0)
        prev = [c.logdet for c in srv.cov]
        for i in range(4):
            srv.upload(agent_with_rollout(m, i + 1, [i + 1], seed=i))
            now = [c.logdet for c in srv.cov]
            assert all(b >= a for a, b in zip(prev, now))
            prev = now


class TestDownload:
    def test_single_writer_covariance(self):
        m = random_tabular(2, 3, 2, 2)
        srv = CentralServer(m.d, m.H, 1.0)
        ag = agent_with_rollout(m, 1, [1, 2, 3], seed=5)
        phis = [list(v for v in ag.loc_features[hh]) for hh in range(m.H)]
        srv.upload(ag)
        covs, data = srv.download()
        ag.lsvi_backward_update(m, data, covs)
        for hh in range(m.H):
            expected = np.eye(m.d) + sum(np.outer(v, v) for v in phis[hh])
            assert np.abs(covs[hh].mat - expected).max() < 1e-8
            assert ag.qparams.cov[hh] is covs[hh]
            assert list(data[hh].episode) == [1, 2, 3]

    def test_aggregation_reaches_later_agent(self):
        m = random_tabular(2, 3, 2, 2)
        srv = CentralServer(m.d, m.H, 1.0)
        a = agent_with_rollout(m, 1, [1], seed=1)
        b = agent_with_rollout(m, 2, [2], seed=2)
        srv.upload(a)
        srv.upload(b)
        _, data = srv.download()
        assert set(data[0].episode) == {1, 2}

    def test_cold_start_reproduces_init_q(self):
        m = random_tabular(4, 2, 2, 2)
        srv = CentralServer(m.d, m.H, 1.0)
        ag = LsviAgent(1, m.d, m.H, 0.5, 1.0, 0.9)
        reference = LsviAgent(2, m.d, m.H, 0.5, 1.0, 0.9)
        covs, data = srv.download()
        ag.lsvi_backward_update(m, data, covs)
        for s in range(m.n_states):
            for a in range(m.n_actions):
                for h in range(1, m.H + 1):
                    assert ag.action_values(m, s, h)[a] == pytest.approx(
                        reference.action_values(m, s, h)[a], abs=1e-12)

    def test_download_dominates_previous_cov(self):
        m = random_tabular(6, 3, 2, 2)
        srv = CentralServer(m.d, m.H, 1.0)
        for i in range(3):
            srv.upload(agent_with_rollout(m, i + 1, [i + 1], seed=i))
        ag = agent_with_rollout(m, 4, [10], seed=9)
        pre = [c.mat.copy() for c in ag.qparams.cov]
        srv.upload(ag)
        covs, _ = srv.download()
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((100, m.d))
        for hh in range(m.H):
            post_q = np.einsum("nd,de,ne->n", xs, covs[hh].mat, xs)
            pre_q = np.einsum("nd,de,ne->n", xs, pre[hh], xs)
            assert np.all(post_q >= pre_q - 1e-9)


class TestProtocolDecide:
    @pytest.mark.parametrize("kind,fired,expected", [
        (ProtocolKind.FULL_SYNC, False, Decision.COMMUNICATE),
        (ProtocolKind.FULL_SYNC, True, Decision.COMMUNICATE),
        (ProtocolKind.ASYNC_TRIGGER, True, Decision.COMMUNICATE),
        (ProtocolKind.ASYNC_TRIGGER, False, Decision.NONE),
        (ProtocolKind.NO_COMM, True, Decision.LOCAL_UPDATE),
        (ProtocolKind.NO_COMM, False, Decision.NONE),
        (ProtocolKind.SYNC_ROUND_ROBIN, True, Decision.SYNC_ALL),
        (ProtocolKind.SYNC_ROUND_ROBIN, False, Decision.NONE),
    ])
    def test_mapping(self, kind, fired, expected):
        assert protocol_decide(kind, fired) is expected

    def test_async_matches_trigger_on_random_states(self):
        m = random_tabular(8, 2, 2, 2)
        rng = np.random.default_rng(0)
        fired_count = 0
        for i in range(1000):
            alpha = float(rng.uniform(0.05, 3.0))
            n_eps = int(rng.integers(0, 4))
            ag = agent_with_rollout(m, 1, list(range(1, n_eps + 1)), seed=i, alpha=alpha)
            trig, _ = ag.should_communicate()
            decision = protocol_decide(ProtocolKind.ASYNC_TRIGGER, trig)
            # Cross-check against the det_ratio definition directly.
            from coop_lsvi.psdmat import det_ratio
            ratios = [det_ratio(ag.qparams.cov[hh], ag.loc_features[hh])
                      for hh in range(m.H)]
            direct = any(r > 1.0 + alpha for r in ratios)
            assert trig == direct
            assert decision is (Decision.COMMUNICATE if direct else Decision.NONE)
            fired_count += trig
        assert 0 < fired_count < 1000  # both branches exercised


def reference_single_agent_lsvi(cfg):
    """Independent single-agent low-switching LSVI-UCB loop (dense numpy).

    Shares only the environment and the seed-derivation plumbing with the
    package; all linear algebra and trigger logic is recomputed from scratch.
    """
    from coop_lsvi.harness import build_mdp
    from coop_lsvi.schedules import make_initial_states

    resolved = cfg.resolved()
    mdp = build_mdp(resolved)
    H, d, S, A = mdp.H, mdp.d, mdp.n_states, mdp.n_actions
    K, lam, alpha, beta = resolved.K, resolved.ridge, resolved.alpha, None
    from coop_lsvi.harness import resolve_beta
    beta = resolve_beta(resolved, d, H)
    init_states = make_initial_states(resolved, mdp, mix_seed(resolved.master_seed, 0xA4))
    planner = value_iteration(mdp)

    cov = [lam * np.eye(d) for _ in range(H)]
    w = np.zeros((H, d))
    data = [[] for _ in range(H)]           # (s, a, r, s2) history per h
    loc = [[] for _ in range(H)]            # feature vectors since last refit

    def q_values(s, h):
        raw = np.empty(A)
        for a in range(A):
            phi = mdp.features[s, a]
            bonus = beta * math.sqrt(phi @ np.linalg.solve(cov[h - 1], phi))
            raw[a] = phi @ w[h - 1] + bonus
        return np.clip(raw, 0.0, H - h + 1)

    regrets = np.zeros(K)
    actions = []
    trigger_eps = []
    for k in range(1, K + 1):
        rng = np.random.default_rng(mix_seed(resolved.master_seed, k, TAG_TRAJECTORY))
        pol = np.array([[int(np.argmax(q_values(s, h))) for s in range(S)]
                        for h in range(1, H + 1)])
        from coop_lsvi.mdp import eval_policy
        s1 = int(init_states[k - 1])
        regrets[k - 1] = planner.v_star[0, s1] - eval_policy(mdp, pol)[0, s1]
        s = s1
        for h in range(1, H + 1):
            a = int(pol[h - 1, s])
            r, s2 = mdp.step(s, a, h, rng.random())
            data[h - 1].append((s, a, r, s2))
            loc[h - 1].append(mdp.features[s, a])
            actions.append(a)
            s = s2
        fired = False
        for hh in range(H):
            if not loc[hh]:
                continue
            delta = sum((np.outer(v, v) for v in loc[hh]), np.zeros((d, d)))
            log_ratio = (np.linalg.slogdet(cov[hh] + delta)[1]
                         - np.linalg.slogdet(cov[hh])[1])
            # Strict inequality with the same exact-boundary guard: one-hot
            # determinant ratios hit 1 + alpha exactly, which must not fire.
            if log_ratio > math.log1p(alpha) + 1e-11:
                fired = True
                break
        if fired:
            trigger_eps.append(k)
            next_v = None
            for hh in range(H - 1, -1, -1):
                cov[hh] = cov[hh] + sum((np.outer(v, v) for v in loc[hh]),
                                        np.zeros((d, d)))
                loc[hh] = []
                rhs = np.zeros(d)
                for (s0, a0, r0, s20) in data[hh]:
                    y = r0
                    if next_v is not None:
                        y += next_v[s20]
                    rhs += mdp.features[s0, a0] * y
                w[hh] = np.linalg.solve(cov[hh], rhs)
                vals = np.empty(S)
                for s0 in range(S):
                    raw = np.empty(A)
                    for a0 in range(A):
                        phi = mdp.features[s0, a0]
                        raw[a0] = (phi @ w[hh] + beta
                                   * math.sqrt(phi @ np.linalg.solve(cov[hh], phi)))
                    vals[s0] = np.clip(raw, 0.0, H - hh).max()
                next_v = vals
    return regrets, actions, trigger_eps


class TestSyncRoundRobin:
    def test_all_agents_identical_after_sync_event(self):
        cfg = RunConfig(mdp_kind="hard", M=3, K=200, protocol="sync_round_robin",
                        schedule="uniform_random", master_seed=7)
        synced = {"events": 0}

        def hook(view):
            if not view.triggered:
                return
            synced["events"] += 1
            first = view.agents[0]
            for other in view.agents[1:]:
                assert np.array_equal(first.qparams.w, other.qparams.w)
                for hh in range(view.mdp.H):
                    assert np.array_equal(first.qparams.cov[hh].mat,
                                          other.qparams.cov[hh].mat)

        run_experiment(cfg, episode_hook=hook)
        assert synced["events"] > 0


class TestDownloadOrdering:
    def test_interleaved_episodes_sorted_on_download(self):
        m = random_tabular(5, 3, 2, 2)
        srv = CentralServer(m.d, m.H, 1.0)
        a = agent_with_rollout(m, 1, [1, 3, 6], seed=1)
        b = agent_with_rollout(m, 2, [2, 4, 5], seed=2)
        srv.upload(b)
        srv.upload(a)
        _, data = srv.download()
        for hh in range(m.H):
            assert list(data[hh].episode) == [1, 2, 3, 4, 5, 6]


class TestSingleAgentSelfEquivalence:
    def test_matches_reference_loop(self):
        cfg = RunConfig(mdp_kind="hard", mdp_d=8, mdp_horizon=3, mdp_gap=0.15,
                        M=1, K=400, protocol="async_trigger",
                        schedule="single_agent", master_seed=11)
        record = run_experiment(cfg)
        ref_regrets, _, ref_triggers = reference_single_agent_lsvi(cfg)
        got_triggers = list(record.k[record.triggered])
        assert got_triggers == ref_triggers
        assert np.abs(record.regret_inc - ref_regrets).max() < 1e-9
