"""Pinned trajectories: the metrics CSV of small runs must not move by a bit.

Each case runs one protocol on a small hard or random instance with an
interleaved (uniform random) participation schedule, so uploads arrive out of
episode order. The sha256 of ``metrics_csv_text`` is compared against a digest
recorded before the transition store was made incremental. Regret is
evaluated exactly from each greedy policy, so a digest moves when any greedy
action anywhere in a run changes; a last-bit change in the weights that flips
no action at these sizes does not show here. The d = 200 cases close that gap
on the high-dimensional path: their digest also covers the bytes of the
optimism slack and the agents' log-determinants, so a last-bit move in a
Q-table or a covariance shows. A change that moves a digest must re-record it
on purpose and say why.
"""

import hashlib

import pytest

from coop_lsvi import harness
from coop_lsvi.harness import RunConfig, build_run_state, metrics_csv_text, run_experiment

INSTANCES = {
    "hard": dict(mdp_kind="hard", mdp_d=8, mdp_horizon=3, mdp_gap=0.05, M=3, K=240),
    "random": dict(mdp_kind="random", mdp_n_states=5, mdp_n_actions=3,
                   mdp_horizon=3, mdp_seed=3, M=3, K=150, beta_mode="fixed",
                   beta_value=0.05),
}

DIGESTS = {
    ("hard", "async_trigger"):
        "1688acd0b93a0432af6bf3b12d4127bbd421f92b69dd066d5526fb3000819227",
    ("hard", "sync_round_robin"):
        "3d4b59f27c3164fc032acfa26b665cb2ca32c2a3132a43ecc09a6c171f28e5d8",
    ("hard", "full_sync"):
        "59b3ea74ccbefd38d66b42c8b32eb08737a25d8386dfcf6eea74c8c516febe54",
    ("hard", "no_comm"):
        "6021d43f5e53421f39e97a13c7401338dd1de740b191c8e07e333fea86a7011a",
    ("random", "async_trigger"):
        "9b191d432ed6ccf166c06547d4dd09ff053a2bfc7434cc853eec5fa9018838a3",
    ("random", "sync_round_robin"):
        "962d3108bcba5db6876d96db64b4dce7525ff7a687a516b8a6b7a0695b7091e8",
    ("random", "full_sync"):
        "c53befafbdd7487339e3339dab320bddd4b0ea0188dcc6db7861ca116ed4290d",
    ("random", "no_comm"):
        "faa634f5ac084d9a3ea214aa1a51a7e7303066aa89977d479b6183d9fc97e1ea",
}


def golden_text(instance: str, protocol: str) -> str:
    cfg = RunConfig(protocol=protocol, schedule="uniform_random", master_seed=11,
                    **INSTANCES[instance])
    return metrics_csv_text(run_experiment(cfg))


@pytest.mark.parametrize("instance,protocol", sorted(DIGESTS))
def test_metrics_csv_digest(instance, protocol):
    text = golden_text(instance, protocol)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[(instance, protocol)]


# The same runs with a policy-value cache that holds one entry: a new greedy
# policy evicts the last one, and a returning one is evaluated again.
@pytest.mark.parametrize("instance,protocol", sorted(DIGESTS))
def test_metrics_csv_digest_with_one_entry_cache(monkeypatch, instance, protocol):
    mdp = harness.build_mdp(RunConfig(**INSTANCES[instance]).resolved())
    entry = 16 * mdp.H * mdp.n_states  # the policy key and its value, 8 bytes a cell
    monkeypatch.setattr(harness, "POLICY_VALUE_CACHE_BYTES", entry)
    policy_value, sizes = harness.RunState.policy_value, []

    def bounded(state, policy):
        value = policy_value(state, policy)
        sizes.append(sum(len(key) + v.nbytes for key, v in state.policy_values.items()))
        return value

    monkeypatch.setattr(harness.RunState, "policy_value", bounded)
    text = golden_text(instance, protocol)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[(instance, protocol)]
    assert max(sizes) == entry


# Random 40 x 5 (d = 200), diagnostics on; recorded before the row-wise
# quadratic form became one matrix product.
D200 = dict(mdp_kind="random", mdp_n_states=40, mdp_n_actions=5, mdp_horizon=3,
            mdp_seed=3, M=3, K=12, beta_mode="fixed", beta_value=0.05, diagnostics=True)

D200_DIGESTS = {
    "async_trigger": "172275c89243b8929b347d27db3439dab386bd58727fd3237239b7c20bf409f3",
    "no_comm": "957875f862a19212ce0939278adabc63588747025265c92167f2f52dc3a3e374",
}


@pytest.mark.parametrize("protocol", sorted(D200_DIGESTS))
def test_d200_digest_with_diagnostics(protocol):
    record = run_experiment(RunConfig(protocol=protocol, schedule="uniform_random",
                                      master_seed=11, **D200))
    digest = hashlib.sha256(metrics_csv_text(record).encode())
    digest.update(record.optimism_slack.tobytes())
    digest.update(record.agent_logdet.tobytes())
    assert digest.hexdigest() == D200_DIGESTS[protocol]


# One short async run per participation and initial-state schedule kind on the
# hard instance. K = 150 is not a multiple of the epoch length ceil(2K/d) = 38
# nor of the bursty block of 7. The digest also covers the bytes of the run's
# schedule and initial-state arrays. Recorded before the schedules were built
# from the resolved RunConfig.
SCHEDULE_CASES = {
    "round_robin": dict(schedule="round_robin"),
    "bursty": dict(schedule="bursty", schedule_block=7),
    "single_agent": dict(schedule="single_agent", schedule_agent=2),
    "lower_bound": dict(schedule="lower_bound"),
    "init_fixed": dict(schedule="uniform_random", init_state="fixed", init_state_fixed=1),
    "init_uniform_random": dict(schedule="uniform_random", init_state="uniform_random"),
    "init_epoch": dict(schedule="uniform_random", init_state="epoch"),
}

SCHEDULE_DIGESTS = {
    "bursty":
        "84159d58b444b2425613d0a6120e89130b222181bade8ada7a32242103660659",
    "init_epoch":
        "ef84ef4467d2693722ad19c8d3f765c0f505b46e75a3dcf98998dd857699e905",
    "init_fixed":
        "62dde345e4e1108ec787da8f3f2981ec435907efd4a4c45128713cf322f5865b",
    "init_uniform_random":
        "7fd6c4fad328f2c0e3384f15b05a864e8796546b017e02d2b5e06fef5579e8e4",
    "lower_bound":
        "043e9c4ce42471b7e2dbe0156d9bfd967c79bd0c98bffeee7ad9da6d85e91532",
    "round_robin":
        "58aa15e318368b5f5f9080fbbdd1a7f50f96f993e564f534c57b93fcdf1e1de3",
    "single_agent":
        "40e680a09bebc853cf461ebf22da2fc399801b468321cb9f73a65ce0851a8157",
}


@pytest.mark.parametrize("case", sorted(SCHEDULE_CASES))
def test_schedule_kind_digest(case):
    cfg = RunConfig(mdp_kind="hard", mdp_d=8, mdp_horizon=3, mdp_gap=0.05, M=3, K=150,
                    master_seed=11, **SCHEDULE_CASES[case])
    state = build_run_state(cfg)
    digest = hashlib.sha256(metrics_csv_text(run_experiment(cfg)).encode())
    digest.update(state.schedule.tobytes())
    digest.update(state.init_states.tobytes())
    assert digest.hexdigest() == SCHEDULE_DIGESTS[case]


# Zero bonus (beta = fixed:0) on hard d = 12, H = 4, diagnostics on. Every Q
# is then the clipped regression estimate alone, and unvisited cells sit at the
# clip floor 0, a corner the beta = 0.05 cases never reach. The digest covers
# the optimism slack and the agents' log-determinants too. Recorded before the
# Q-function was evaluated per cell.
ZERO_BONUS = dict(mdp_kind="hard", mdp_d=12, mdp_horizon=4, mdp_gap=0.05, M=2, K=400,
                  beta_mode="fixed", beta_value=0.0, diagnostics=True)

ZERO_BONUS_DIGESTS = {
    "async_trigger": "787d11e0a2b4631004db87a6c30c8156cce4eb045bdf15350b3da609543d1779",
    "full_sync": "4e7c82aaea31a821978d2026d6104cf41a45f084716b54f7ae39d02beb74ce0c",
    "no_comm": "5a6f5e198cf63510951484928b95b4f9155575085952d407563aa9fe8f35b2c7",
    "sync_round_robin": "9421a2637f569e746aa3b6a2c1689a85dd0477cd2389ea3d583eaefb7e48ed29",
}


@pytest.mark.parametrize("protocol", sorted(ZERO_BONUS_DIGESTS))
def test_zero_bonus_digest_with_diagnostics(protocol):
    record = run_experiment(RunConfig(protocol=protocol, schedule="uniform_random",
                                      master_seed=11, **ZERO_BONUS))
    digest = hashlib.sha256(metrics_csv_text(record).encode())
    digest.update(record.optimism_slack.tobytes())
    digest.update(record.agent_logdet.tobytes())
    assert digest.hexdigest() == ZERO_BONUS_DIGESTS[protocol]
