"""Cooperative multi-agent LSVI-UCB on episodic linear MDPs, with
asynchronous event-triggered communication through a central server."""

from .agent import (LsviAgent, QParams, Transition, TransitionBatch,
                    practical_beta, theoretical_beta)
from .harness import (ConfigError, RunConfig, RunRecord, comm_complexity_scale,
                      count_nonempty_epochs, epoch_boundaries, metrics_csv_text,
                      mix_seed, per_epoch_counts, run_experiment)
from .mdp import (InvalidMdpError, LinearMdp, PlannerOutput,
                  build_tabular_as_linear, default_hard_gap, eval_policy,
                  hard_instance, random_tabular, read_mdp, validate_linear_mdp,
                  value_iteration, write_mdp)
from .psdmat import PsdMatrix, det_ratio, log_det_ratio
from .server import (CentralServer, Decision, ProtocolKind, ProtocolViolation,
                     protocol_decide)

__all__ = [
    "CentralServer", "ConfigError", "Decision", "InvalidMdpError", "LinearMdp",
    "LsviAgent", "PlannerOutput", "ProtocolKind", "ProtocolViolation",
    "PsdMatrix", "QParams", "RunConfig", "RunRecord", "Transition",
    "TransitionBatch", "build_tabular_as_linear",
    "comm_complexity_scale", "count_nonempty_epochs", "default_hard_gap",
    "det_ratio", "epoch_boundaries", "eval_policy", "hard_instance",
    "log_det_ratio", "metrics_csv_text", "mix_seed", "per_epoch_counts",
    "practical_beta", "protocol_decide", "random_tabular", "read_mdp",
    "run_experiment", "theoretical_beta", "validate_linear_mdp",
    "value_iteration", "write_mdp",
]
