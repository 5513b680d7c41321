"""Participation schedules (episode -> active agent) and initial-state schedules.

Agent ids are 1-based to match the run metrics; episode indices are 1-based.
Every schedule is precomputed as an array from a resolved RunConfig, whose
validate() has checked every field read here, so a run's participation
pattern is a pure function of its configuration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .mdp import LinearMdp, hard_num_initial_states
from .streams import default_rng_integers

if TYPE_CHECKING:
    from .harness import RunConfig

SCHEDULE_KINDS = ("round_robin", "uniform_random", "bursty", "single_agent", "lower_bound")
# The kinds that draw from schedule_seed; RunConfig.resolved() fills it for them.
SEEDED_SCHEDULE_KINDS = ("uniform_random", "bursty")
INIT_STATE_KINDS = ("fixed", "uniform_random", "epoch")


def _epoch_len(K: int, d: int) -> int:
    """Episodes per epoch of the hard construction: K episodes in d/2 epochs."""
    return -(-2 * K // d)


def make_schedule(cfg: RunConfig, d: int) -> np.ndarray:
    """Length-K array of active agent ids in [1, M].

    ``lower_bound`` is the epoch participation pattern of the hard
    construction: episode i of each epoch of L episodes goes to agent
    i * M // L + 1, so the agents take turns in agent-id order, in blocks
    that differ in length by at most one, and all play in an epoch of >= M.
    """
    M, K = cfg.M, cfg.K
    if cfg.schedule == "round_robin":
        return (np.arange(K) % M) + 1
    if cfg.schedule == "single_agent":
        return np.full(K, cfg.schedule_agent, dtype=np.int64)
    if cfg.schedule == "lower_bound":
        epoch_len = _epoch_len(K, d)
        return np.arange(K) % epoch_len * M // epoch_len + 1
    if cfg.schedule == "uniform_random":
        return default_rng_integers(cfg.schedule_seed, 1, M + 1, K)
    # bursty. A block of K or more episodes is one block: the same draws and
    # schedule, and a divisor that fits numpy's int64 however large block_len is.
    block = min(cfg.schedule_block, K)
    blocks = default_rng_integers(cfg.schedule_seed, 1, M + 1, -(-K // block))
    return blocks[np.arange(K) // block]  # O(K), however long a block is


def make_initial_states(cfg: RunConfig, mdp: LinearMdp, seed: int) -> np.ndarray:
    """Length-K array of initial states.

    ``epoch`` reproduces the hard-instance analysis schedule: epoch i of
    length ceil(2K/d) starts from initial state i, wrapping modulo the number
    of available initial states.
    """
    K = cfg.K
    if cfg.init_state == "fixed":
        return np.full(K, cfg.init_state_fixed, dtype=np.int64)
    if cfg.init_state == "uniform_random":
        return default_rng_integers(seed, 0, mdp.n_states, K)
    epochs = np.arange(K) // _epoch_len(K, mdp.d)  # epoch
    return (epochs % hard_num_initial_states(mdp)).astype(np.int64)
