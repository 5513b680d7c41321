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

from coop_lsvi.harness import RunConfig, metrics_csv_text, run_experiment

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
