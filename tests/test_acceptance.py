"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (written past pytest's capture so it always shows).
"""

import math
import sys
import time

import numpy as np
import pytest

from coop_lsvi.agent import LsviAgent, Transition, TransitionBatch
from coop_lsvi.harness import (RunConfig, comm_complexity_scale,
                               count_nonempty_epochs, metrics_csv_text,
                               per_epoch_counts, run_experiment)
from coop_lsvi.mdp import default_hard_gap, random_tabular
from coop_lsvi.psdmat import PsdMatrix, det_ratio


def _report(num: int, name: str, ok: bool, detail: str, t0: float) -> None:
    elapsed = time.perf_counter() - t0
    line = (f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
            f"({detail}) [{elapsed:.1f}s]")
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def random_unit(rng, n, d):
    vs = rng.standard_normal((n, d))
    return vs / np.linalg.norm(vs, axis=1, keepdims=True)


# -- criterion 1 -------------------------------------------------------------

def test_c01_linear_algebra_oracle():
    """200 randomized update sequences: cached inverse/logdet vs from scratch."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_inv = worst_logdet = worst_ratio = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 17))
        n = int(rng.integers(1, 1001))
        ridge = float(rng.uniform(0.2, 4.0))
        m = PsdMatrix(d, ridge)
        total = ridge * np.eye(d)
        for v in random_unit(rng, n, d) * rng.random((n, 1)):
            m.rank_one_update(v)
            total += np.outer(v, v)
        worst_inv = max(worst_inv, float(np.abs(m.inv - np.linalg.inv(total)).max()))
        worst_logdet = max(worst_logdet,
                           abs(m.logdet - float(np.linalg.slogdet(total)[1])))
        deltas = random_unit(rng, int(rng.integers(1, 6)), d)
        updated = total + sum(np.outer(v, v) for v in deltas)
        direct = math.exp(float(np.linalg.slogdet(updated)[1]
                                - np.linalg.slogdet(total)[1]))
        got = det_ratio(m, deltas)
        worst_ratio = max(worst_ratio, abs(got - direct) / direct)
    ok = worst_inv < 1e-8 and worst_logdet < 1e-8 and worst_ratio < 1e-8
    _report(1, "linear-algebra-oracle", ok,
            f"inv {worst_inv:.2e}, logdet {worst_logdet:.2e}, ratio rel {worst_ratio:.2e}", t0)


# -- criterion 2 -------------------------------------------------------------

def _oracle_lsvi(mdp, batches, ridge, beta):
    """Independent dense normal-equation solver for the backward update."""
    H, d = mdp.H, mdp.d
    w = np.zeros((H, d))
    lam = []
    for hh in range(H):
        a = ridge * np.eye(d)
        b = batches[hh]
        for i in range(len(b)):
            phi = mdp.features[b.state[i], b.action[i]]
            a += np.outer(phi, phi)
        lam.append(a)
    for hh in range(H - 1, -1, -1):
        rhs = np.zeros(d)
        b = batches[hh]
        lam_next_inv = np.linalg.inv(lam[hh + 1]) if hh + 1 < H else None
        for i in range(len(b)):
            y = b.reward[i]
            if hh + 1 < H:
                best = -math.inf
                for a in range(mdp.n_actions):
                    p = mdp.features[b.next_state[i], a]
                    val = p @ w[hh + 1] + beta * math.sqrt(p @ lam_next_inv @ p)
                    best = max(best, min(max(val, 0.0), H - hh - 1))
                y += best
            rhs += mdp.features[b.state[i], b.action[i]] * y
        w[hh] = np.linalg.solve(lam[hh], rhs)
    return w


def test_c02_lsvi_update_oracle():
    """50 random tabular instances: backward update vs normal equations."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    worst = 0.0
    for trial in range(50):
        S = int(rng.integers(2, 7))
        A = int(rng.integers(2, 4))
        H = int(rng.integers(1, 5))
        mdp = random_tabular(int(rng.integers(1 << 31)), S, A, H)
        n_eps = int(rng.integers(1, 200 // H + 1))
        per_h = [[] for _ in range(H)]
        for k in range(1, n_eps + 1):
            s = int(rng.integers(S))
            for h in range(1, H + 1):
                a = int(rng.integers(A))
                r, s2 = mdp.step(s, a, h, rng.random())
                per_h[h - 1].append(Transition(k, h, s, a, r, s2))
                s = s2
        batches = [TransitionBatch.from_transitions(ts) for ts in per_h]
        beta = float(rng.uniform(0.1, 2.0))
        agent = LsviAgent(1, mdp.d, H, 0.5, 1.0, beta)
        covs = []
        for hh in range(H):
            c = PsdMatrix(mdp.d, 1.0)
            b = batches[hh]
            for i in range(len(b)):
                c.rank_one_update(mdp.features[b.state[i], b.action[i]])
            covs.append(c)
        agent.lsvi_backward_update(mdp, batches, covs)
        oracle = _oracle_lsvi(mdp, batches, 1.0, beta)
        worst = max(worst, float(np.abs(agent.qparams.w - oracle).max()))
    _report(2, "lsvi-update-oracle", worst < 1e-8, f"max |w - oracle| {worst:.2e}", t0)


# -- criterion 3 -------------------------------------------------------------

def test_c03_trigger_and_ordering_invariant():
    """Non-trigger episodes keep det ratios and local quadratic forms bounded."""
    t0 = time.perf_counter()
    cfg = RunConfig(mdp_kind="hard", mdp_d=8, mdp_horizon=3, M=4, K=5000,
                    protocol="async_trigger", schedule="uniform_random",
                    master_seed=30, diagnostics=False)
    alpha = cfg.resolved().alpha
    check_rng = np.random.default_rng(999)
    stats = {"episodes": 0, "det_violations": 0, "quad_violations": 0}

    def hook(view):
        if view.triggered:
            return
        stats["episodes"] += 1
        agent = view.agent
        xs = random_unit(check_rng, 100, view.mdp.d)
        for hh in range(view.mdp.H):
            ratio = det_ratio(agent.qparams.cov[hh], agent.loc_features[hh])
            # Exact-boundary ratios round either way in floats; allow ulp slack.
            if ratio > (1.0 + alpha) * (1.0 + 1e-12):
                stats["det_violations"] += 1
            if agent.loc_features[hh]:
                feats = np.stack(agent.loc_features[hh])
                lhs = ((xs @ feats.T) ** 2).sum(axis=1)
                rhs = np.einsum("nd,de,ne->n", xs, agent.qparams.cov[hh].mat, xs)
                stats["quad_violations"] += int(np.sum(lhs > alpha * rhs + 1e-9))

    run_experiment(cfg, episode_hook=hook)
    ok = (stats["det_violations"] == 0 and stats["quad_violations"] == 0
          and stats["episodes"] > 0)
    _report(3, "trigger-ordering-invariant", ok,
            f"{stats['episodes']} non-trigger episodes, "
            f"{stats['det_violations']} det / {stats['quad_violations']} quad violations", t0)


# -- criterion 4 -------------------------------------------------------------

def test_c04_optimism_under_theoretical_beta():
    """Estimated Q dominates Q* at visited triples under the analysis width."""
    t0 = time.perf_counter()
    per_seed_ok = []
    perfect_seeds = 0
    K = 500
    for seed in range(20):
        cfg = RunConfig(mdp_kind="random", mdp_n_states=3, mdp_n_actions=2,
                        mdp_horizon=3, mdp_seed=7, M=1, K=K,
                        beta_mode="theoretical", beta_value=1.0, delta=0.01,
                        protocol="async_trigger", schedule="single_agent",
                        master_seed=seed, diagnostics=True)
        record = run_experiment(cfg)
        good = int(np.sum(record.optimism_slack >= -1e-9))
        per_seed_ok.append(good)
        perfect_seeds += good == K
    min_rate = min(per_seed_ok) / K
    ok = min_rate >= 0.99 and perfect_seeds >= 18
    _report(4, "optimism", ok,
            f"min per-seed rate {min_rate:.3f}, perfect seeds {perfect_seeds}/20", t0)


# -- criteria 5, 6, 10 share one sweep ---------------------------------------

GRID_KS = (2000, 8000, 32000)
GRID_SEEDS = tuple(range(10))
GRID_M = 4


@pytest.fixture(scope="module")
def scaling_runs():
    out = {}
    for K in GRID_KS:
        for seed in GRID_SEEDS:
            cfg = RunConfig(mdp_kind="hard", mdp_d=8, mdp_horizon=3, M=GRID_M,
                            K=K, protocol="async_trigger",
                            schedule="uniform_random", master_seed=seed,
                            diagnostics=True)
            out[(K, seed)] = (cfg.resolved(), run_experiment(cfg))
    return out


def test_c05_regret_scaling(scaling_runs):
    """Log-log slope of mean cumulative regret vs K within [0.35, 0.70]."""
    t0 = time.perf_counter()
    mean_regret = np.array([
        np.mean([scaling_runs[(K, s)][1].total_regret for s in GRID_SEEDS])
        for K in GRID_KS])
    slope = float(np.polyfit(np.log(np.array(GRID_KS, float)),
                             np.log(mean_regret), 1)[0])
    ok = 0.35 <= slope <= 0.70
    _report(5, "regret-scaling", ok,
            f"slope {slope:.3f}, mean regret {np.round(mean_regret, 1).tolist()}", t0)


def test_c06_communication_scaling(scaling_runs):
    """Rounds within the d*H*(M + 1/alpha)*log budget and sub-linear in K."""
    t0 = time.perf_counter()
    bound_ok = True
    mean_comm = []
    for K in GRID_KS:
        comms = [scaling_runs[(K, s)][1].total_comm for s in GRID_SEEDS]
        cfg = scaling_runs[(K, GRID_SEEDS[0])][0]
        bound = 10.0 * comm_complexity_scale(8, 3, GRID_M, cfg.alpha, K, cfg.ridge)
        bound_ok &= max(comms) <= bound
        mean_comm.append(np.mean(comms))
    fit_slope = float(np.polyfit(np.log(np.array(GRID_KS, float)),
                                 np.array(mean_comm), 1)[0])
    growth = mean_comm[-1] / mean_comm[0]
    ok = bound_ok and fit_slope > 0 and growth < 4.0
    _report(6, "communication-scaling", ok,
            f"means {np.round(mean_comm, 1).tolist()}, log-K slope {fit_slope:.1f}, "
            f"growth x{growth:.2f}, within bound {bound_ok}", t0)


def test_c10_epoch_bound(scaling_runs):
    """Per-epoch communication and epoch counts within the stated budgets."""
    t0 = time.perf_counter()
    worst_epoch_comm = 0
    worst_n_epochs_slack = math.inf
    for (K, _seed), (cfg, record) in scaling_runs.items():
        counts = per_epoch_counts(record.epoch_starts,
                                  record.k[record.triggered], K)
        worst_epoch_comm = max(worst_epoch_comm, max(counts))
        n_nonempty = count_nonempty_epochs(record.epoch_starts, K)
        bound = 8 * 3 * math.log2(1 + K / (cfg.ridge * 8)) + 1
        worst_n_epochs_slack = min(worst_n_epochs_slack, bound - n_nonempty)
    comm_budget = 10 * 3 * (GRID_M + 1.0 / scaling_runs[(GRID_KS[0], 0)][0].alpha)
    ok = worst_epoch_comm <= comm_budget and worst_n_epochs_slack >= 0
    _report(10, "epoch-bound", ok,
            f"max per-epoch comm {worst_epoch_comm} <= {comm_budget:.0f}, "
            f"epoch-count slack {worst_n_epochs_slack:.1f}", t0)


# -- criterion 7 -------------------------------------------------------------

def test_c07_collaboration_benefit():
    """Pooling beats isolation on the hard instance, at zero NoComm comm.

    The criterion fixes M = 8, the default gap, and K = 16 d M but leaves the
    horizon free; this runs the smallest legal horizon H = 2. At H >= 3 the
    optimism ceiling H - h + 1 is high enough that isolated agents never
    accumulate the ~beta^2 per-state samples needed to unclip their Q
    estimates, so they ride the smallest-index tie-break onto the good arm
    for free and the comparison degenerates (see the decisions ledger).
    """
    t0 = time.perf_counter()
    d, H, M = 8, 2, 8
    K = 16 * d * M
    gap = default_hard_gap(d, M, K)
    async_regret, nocomm_regret, async_comm, nocomm_comm = [], [], [], []
    for seed in range(10):
        base = dict(mdp_kind="hard", mdp_d=d, mdp_horizon=H, mdp_gap=gap,
                    M=M, K=K, schedule="lower_bound", init_state="epoch",
                    master_seed=seed)
        a = run_experiment(RunConfig(**base, protocol="async_trigger"))
        n = run_experiment(RunConfig(**base, protocol="no_comm"))
        async_regret.append(a.total_regret)
        nocomm_regret.append(n.total_regret)
        async_comm.append(a.total_comm)
        nocomm_comm.append(n.total_comm)
    alpha = 1.0 / (M * M)
    bound = 10.0 * comm_complexity_scale(d, H, M, alpha, K, 1.0)
    mean_async, mean_nocomm = np.mean(async_regret), np.mean(nocomm_regret)
    ok = (mean_async < mean_nocomm and max(nocomm_comm) == 0
          and max(async_comm) <= bound)
    _report(7, "collaboration-benefit", ok,
            f"async {mean_async:.1f} < no-comm {mean_nocomm:.1f}, "
            f"async comm max {max(async_comm)} <= {bound:.0f}, "
            f"no-comm comm {max(nocomm_comm)}", t0)


# -- criterion 8 -------------------------------------------------------------

def test_c08_single_agent_reduction():
    """M = 1: the async protocol and the local no-comm path coincide exactly."""
    t0 = time.perf_counter()
    base = dict(mdp_kind="hard", mdp_d=8, mdp_horizon=3, M=1, K=2000,
                schedule="round_robin", master_seed=8)
    a = run_experiment(RunConfig(**base, protocol="async_trigger"))
    b = run_experiment(RunConfig(**base, protocol="no_comm"))
    col_a = [format(x, ".17g") for x in a.regret_inc]
    col_b = [format(x, ".17g") for x in b.regret_inc]
    ok = col_a == col_b
    _report(8, "single-agent-reduction", ok,
            f"regret columns byte-identical over K=2000: {ok}", t0)


# -- criterion 9 -------------------------------------------------------------

def test_c09_determinism():
    """Identical configs reproduce byte-identical metrics files."""
    t0 = time.perf_counter()
    cfg = RunConfig(mdp_kind="hard", mdp_d=8, mdp_horizon=3, M=3, K=1500,
                    protocol="async_trigger", schedule="uniform_random",
                    master_seed=99, diagnostics=True)
    text_a = metrics_csv_text(run_experiment(cfg))
    text_b = metrics_csv_text(run_experiment(cfg))
    ok = text_a.encode() == text_b.encode()
    _report(9, "determinism", ok, f"metrics byte-identical: {ok}", t0)
