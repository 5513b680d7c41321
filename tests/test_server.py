"""Tests for the central server, protocols, and a paper-literal oracle of whole runs."""

import functools
import itertools
import math

import numpy as np
import pytest

from coop_lsvi.agent import TRIGGER_LOG_TOLERANCE, LsviAgent, Transition
from coop_lsvi.harness import (TAG_INIT, TAG_TRAJECTORY, RunConfig, build_mdp, mix_seed,
                               resolve_beta, run_experiment)
from coop_lsvi.mdp import eval_policy, random_tabular, value_iteration
from coop_lsvi.schedules import make_initial_states, make_schedule
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


def server_state(server):
    """The bytes of everything a server holds: every step's covariance and
    batch, whose episode column carries the stored episodes."""
    covs, batches = server.download()
    return ([(c.diag.tobytes(), c.inv_diag.tobytes(), c.logdet, c.updates_since_refresh)
             for c in covs],
            [tuple(getattr(b, name).tobytes() for name in
                   ("episode", "state", "action", "reward", "next_state", "phis"))
             for b in batches])


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
        """The same episode twice in one buffer collides with itself: the
        message names it, and the whole server is left as it was."""
        m = random_tabular(0, 2, 2, 2)
        srv = CentralServer(m.d, m.H, 1.0)
        ag = LsviAgent(1, m.d, m.H, 0.5, 1.0, 1.0)
        for k in (4, 7, 4):
            ag.record_episode(m, k, [1, 0, 1, 1, 0, 1], [0.5, 0.5])
        before = server_state(srv)
        with pytest.raises(ProtocolViolation, match=r"^duplicate upload for episode 4$"):
            srv.upload(ag)
        assert server_state(srv) == before

    def test_duplicate_against_the_store_leaves_the_server_as_it_was(self):
        m = random_tabular(0, 2, 2, 2)
        srv = CentralServer(m.d, m.H, 1.0)
        srv.upload(agent_with_rollout(m, 1, [3, 5], seed=0))
        before = server_state(srv)
        ag = agent_with_rollout(m, 2, [4, 5, 6], seed=1)
        with pytest.raises(ProtocolViolation, match=r"^duplicate upload for episode 5$"):
            srv.upload(ag)
        assert server_state(srv) == before
        srv.upload(agent_with_rollout(m, 2, [4, 6], seed=1))
        assert list(srv.download()[1][0].episode) == [3, 4, 5, 6]

    def test_duplicate_names_the_first_collision_in_buffer_order(self):
        m = random_tabular(0, 2, 2, 2)
        srv = CentralServer(m.d, m.H, 1.0)
        srv.upload(agent_with_rollout(m, 1, [3], seed=0))
        ag = LsviAgent(2, m.d, m.H, 0.5, 1.0, 1.0)
        for k in (5, 6, 5, 3):
            ag.record_episode(m, k, [0, 1, 0, 0, 1, 0], [0.0, 0.0])
        with pytest.raises(ProtocolViolation, match=r"^duplicate upload for episode 5$"):
            srv.upload(ag)

    @pytest.mark.parametrize("bad", [-1, 4, 7, 1.5])
    def test_out_of_range_cell_leaves_the_step_as_it_was(self, bad):
        """A refused cell, here at the last step, changes no step's store or
        covariance, so the corrected buffer uploads afterwards."""
        m = random_tabular(0, 2, 2, 2)  # d = 4
        srv = CentralServer(m.d, m.H, 1.0)
        ag = LsviAgent(1, m.d, m.H, 0.5, 1.0, 1.0)
        ag.record_episode(m, 1, [0, 1, 1, 1, 0, 0], [0.5, 0.25])
        ag.loc_cells[1][0] = bad  # as a corrupted buffer would bring it
        before = server_state(srv)
        with pytest.raises(ValueError, match=rf"^basis index {bad} outside \[0, 4\)$"):
            srv.upload(ag)
        assert server_state(srv) == before
        assert all(c.diag.tolist() == [1.0] * 4 for c in srv.cov)
        ag.loc_cells[1][0] = m.cell(1, 0)
        srv.upload(ag)
        covs, data = srv.download()
        assert list(data[0].episode) == [1] and list(data[0].action) == [1]
        assert list(data[1].state) == [1] and list(data[1].reward) == [0.25]
        assert covs[0].diag.tolist() == [1.0, 2.0, 1.0, 1.0]
        assert covs[1].diag.tolist() == [1.0, 1.0, 2.0, 1.0]

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


# The oracle's greedy action is the first one within this of the maximum:
# argmax in exact arithmetic, where actions that tie (both actions of the hard
# instance's zero absorber, on the same data) are equal. Rounding alone puts
# them a few ulps apart, 4.4e-15 at most where measured, with Q in [0, H].
ORACLE_TIE_TOLERANCE = 1e-10


class _OracleLearner:
    """One agent of paper_literal_lsvi: dense Lambda_h, and the Q-table,
    greedy policy and its value of its last refit."""

    def __init__(self, H, d, ridge):
        self.lam = [ridge * np.eye(d) for _ in range(H)]
        self.delta = []    # (episode, (H, 4) [s, a, r, s'] rows) since the last refit
        self.history = []  # every episode of its own, for no_comm
        self.q = self.policy = self.value = None


def paper_literal_lsvi(cfg):
    """The paper's cooperative LSVI-UCB, written out literally in dense numpy.

    Each agent keeps dense Lambda_h = ridge * I + sum phi phi^T over the data
    of its last refit, weights w_h = np.linalg.solve(Lambda_h, sum phi y) and
    Q_h(s, a) = clip(phi^T w_h + beta * sqrt(phi^T Lambda_h^-1 phi), 0,
    H - h + 1), and acts greedily, ties to the first action. At episode end
    it fires at the first h with slogdet(Lambda_h + Delta_h) -
    slogdet(Lambda_h) > log1p(alpha) + TRIGGER_LOG_TOLERANCE, Delta_h the
    outer products of its episodes since its last refit. An upload appends
    those episodes to the server's list, sorts it by episode and adds Delta_h
    to the server's Lambda_h; a download copies the server's Lambda_h and
    refits on its list. no_comm adds Delta_h to the agent's own Lambda_h and
    refits on its own history. Communication follows the protocol: async on
    a trigger, full_sync every episode, sync_round_robin all agents (uploads
    first) on a trigger.

    Shares with the package only the plumbing: build_mdp, resolve_beta, the
    schedules, the seeds, LinearMdp.step, value_iteration and eval_policy.
    Returns per episode the regret increment, the firing h (0 if none) and
    cum_comm.
    """
    cfg = cfg.resolved()
    mdp = build_mdp(cfg)
    H, S, A, d = mdp.H, mdp.n_states, mdp.n_actions, mdp.d
    beta = resolve_beta(cfg, d, H)
    ceiling = math.log1p(cfg.alpha) + TRIGGER_LOG_TOLERANCE
    v_star = value_iteration(mdp).v_star
    schedule = make_schedule(cfg, d)
    init_states = make_initial_states(cfg, mdp, mix_seed(cfg.master_seed, TAG_INIT))
    all_phis = mdp.features.reshape(S * A, d)

    def steps(episodes):
        """Per h, the (n, 4) rows [s, a, r, s'] of step h of the episodes, in order."""
        return np.array([rec for _, rec in episodes]).reshape(-1, H, 4).transpose(1, 0, 2)

    def features(rows):
        return mdp.features[rows[:, 0].astype(int), rows[:, 1].astype(int)]

    def outer_sums(episodes):
        """Per h, the sum of phi phi^T over step h of the episodes."""
        return [x.T @ x for x in map(features, steps(episodes))]

    def refit(learner, episodes):
        learner.q, next_v = np.empty((H, S, A)), np.zeros(S)
        for hh, rows in reversed(list(enumerate(steps(episodes)))):
            lam = learner.lam[hh]
            y = rows[:, 2] + next_v[rows[:, 3].astype(int)]
            w = np.linalg.solve(lam, features(rows).T @ y)
            bonus = np.sqrt(np.einsum("jd,dj->j", all_phis, np.linalg.solve(lam, all_phis.T)))
            learner.q[hh] = np.clip(all_phis @ w + beta * bonus, 0.0, H - hh).reshape(S, A)
            next_v = learner.q[hh].max(axis=1)
        q_max = learner.q.max(axis=2, keepdims=True)
        learner.policy = (learner.q >= q_max - ORACLE_TIE_TOLERANCE).argmax(axis=2)
        learner.value = eval_policy(mdp, learner.policy)
        learner.delta = []

    def fired_step(learner):
        for hh, (lam, delta) in enumerate(zip(learner.lam, outer_sums(learner.delta))):
            if np.linalg.slogdet(lam + delta)[1] - np.linalg.slogdet(lam)[1] > ceiling:
                return hh + 1
        return 0

    learners = [_OracleLearner(H, d, cfg.ridge) for _ in range(cfg.M)]
    for learner in learners:
        refit(learner, [])
    server_lam, server_episodes = [cfg.ridge * np.eye(d) for _ in range(H)], []
    regret, trigger_h, cum_comm = np.empty(cfg.K), np.zeros(cfg.K, int), np.zeros(cfg.K, int)
    comm = 0
    for k in range(1, cfg.K + 1):
        learner = learners[schedule[k - 1] - 1]
        s1 = s = int(init_states[k - 1])
        regret[k - 1] = v_star[0, s1] - learner.value[0, s1]
        rng = np.random.default_rng(mix_seed(cfg.master_seed, k, TAG_TRAJECTORY))
        rec = np.empty((H, 4))
        for h in range(1, H + 1):
            a = int(learner.policy[h - 1, s])
            r, s2 = mdp.step(s, a, h, rng.random())
            rec[h - 1] = s, a, r, s2
            s = s2
        learner.delta.append((k, rec))
        trigger_h[k - 1] = fired = fired_step(learner)
        if cfg.protocol == "no_comm" and fired:
            learner.lam = [lam + delta for lam, delta in zip(learner.lam, outer_sums(learner.delta))]
            learner.history = sorted(learner.history + learner.delta, key=lambda e: e[0])
            refit(learner, learner.history)
        group = ([learner] if cfg.protocol == "full_sync"
                 or fired and cfg.protocol == "async_trigger"
                 else learners if fired and cfg.protocol == "sync_round_robin" else [])
        for member in group:
            server_lam = [lam + delta for lam, delta in zip(server_lam, outer_sums(member.delta))]
            server_episodes = sorted(server_episodes + member.delta, key=lambda e: e[0])
        for member in group:
            member.lam = [lam.copy() for lam in server_lam]
            refit(member, server_episodes)
        comm += len(group)
        cum_comm[k - 1] = comm
    return regret, trigger_h, cum_comm


def regret_gap_and_communication(cfg):
    """The largest |regret_inc| difference between the package's run and
    paper_literal_lsvi's, and both runs' (trigger episodes, firing steps,
    cum_comm), as lists."""
    record = run_experiment(cfg)
    regret, trigger_h, cum_comm = paper_literal_lsvi(cfg)
    return (float(np.abs(record.regret_inc - regret).max()),
            (record.k[record.triggered].tolist(), record.trigger_h.tolist(),
             record.cum_comm.tolist()),
            ((np.flatnonzero(trigger_h) + 1).tolist(), trigger_h.tolist(), cum_comm.tolist()))


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
        gap, got, want = regret_gap_and_communication(RunConfig(
            mdp_kind="hard", mdp_d=8, mdp_horizon=3, mdp_gap=0.15, M=1, K=400,
            protocol="async_trigger", schedule="single_agent", master_seed=11))
        assert got == want
        assert gap < 1e-9


ORACLE_INSTANCES = {"hard_d8": dict(mdp_kind="hard", mdp_d=8),
                    "random_5x3": dict(mdp_kind="random", mdp_n_states=5, mdp_n_actions=3)}
ORACLE_SEEDS = (0, 7, 20231)
# Runs whose trajectories part at a greedy tie: at the hard instance's zero
# absorber (state 3, step 2) the package's two Q values come out an ulp or two
# apart, action 1 ahead, where the oracle's are equal and it takes action 0. The
# regret is the same (both actions are one action of the true MDP), but the
# cells visited, and so the triggers, differ.
ORACLE_TIED = {("hard_d8", "async_trigger", seed) for seed in ORACLE_SEEDS}
ORACLE_RUNS = list(itertools.product(sorted(ORACLE_INSTANCES),
                                     [p.value for p in ProtocolKind], ORACLE_SEEDS))


@functools.lru_cache(maxsize=None)
def oracle_comparison(instance, protocol, seed):
    """regret_gap_and_communication of one of the 24 runs: fixed beta = 0.2,
    M = 3, K = 600, seeded uniform-random schedule."""
    return regret_gap_and_communication(RunConfig(
        **ORACLE_INSTANCES[instance], M=3, K=600, beta_mode="fixed", beta_value=0.2,
        protocol=protocol, schedule="uniform_random", master_seed=seed))


class TestPaperLiteralOracle:
    """On every run the package's regret, and off a greedy tie its trigger and
    communication record, are paper_literal_lsvi's."""

    @pytest.mark.parametrize("instance,protocol,seed", ORACLE_RUNS)
    def test_regret(self, instance, protocol, seed):
        assert oracle_comparison(instance, protocol, seed)[0] < 1e-9

    @pytest.mark.parametrize("instance,protocol,seed", [
        pytest.param(*run, marks=pytest.mark.xfail(
            run in ORACLE_TIED, strict=True, reason="an ulp-level greedy tie at the zero "
            "absorber, decided by rounding (ROADMAP B1)")) for run in ORACLE_RUNS])
    def test_triggers_and_communication(self, instance, protocol, seed):
        _, got, want = oracle_comparison(instance, protocol, seed)
        assert got == want
