"""Episode loop orchestrating environment, agents, server, and protocol.

A run is strictly sequential: one active agent per episode. Determinism is
enforced by deriving every random stream from (master_seed, episode, stream
tag) through a 64-bit avalanche mix, so trajectories are invariant to
diagnostic toggles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import mdp as mdp_mod
from .agent import (LsviAgent, Transition, TransitionBatch, practical_beta,
                    theoretical_beta)
from .mdp import LinearMdp, PlannerOutput, g17
from .psdmat import PsdMatrix
from .schedules import INIT_STATE_KINDS, SCHEDULE_KINDS, make_initial_states, make_schedule
from .server import CentralServer, Decision, ProtocolKind, protocol_decide

_MASK64 = (1 << 64) - 1

# Stream tags: trajectory sampling, participation schedule, initial-state
# schedule.
TAG_TRAJECTORY = 0xA1
TAG_SCHEDULE = 0xA3
TAG_INIT = 0xA4


def mix_seed(master: int, *streams: int) -> int:
    """Chain the splitmix64 finalizer over (master, streams...)."""
    z = master & _MASK64
    for s in streams:
        z = (z + 0x9E3779B97F4A7C15 + (s & _MASK64)) & _MASK64
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & _MASK64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
    return z


class ConfigError(ValueError):
    """A run configuration violates its constraints."""

    def __init__(self, msg: str, key: Optional[tuple[str, str]] = None):
        super().__init__(msg)
        self.key = key


@dataclass
class RunConfig:
    """Complete description of one simulation run.

    Optional fields default per the documented rules when resolved():
    alpha = 1/M^2, hard-instance gap = min(1/4, sqrt(d*M/(8K))), initial-state
    schedule "epoch" for hard instances and "fixed" otherwise, and schedule
    seeds derived from master_seed.
    """

    mdp_kind: str = "hard"                 # hard | random | file
    mdp_d: int = 8
    mdp_horizon: int = 3
    mdp_gap: Optional[float] = None
    mdp_n_states: int = 4
    mdp_n_actions: int = 2
    mdp_seed: int = 0
    mdp_path: Optional[str] = None

    M: int = 1
    K: int = 1000
    alpha: Optional[float] = None
    ridge: float = 1.0
    delta: float = 0.01
    beta_mode: str = "practical"           # practical | theoretical | fixed
    beta_value: Optional[float] = None
    protocol: str = "async_trigger"
    master_seed: int = 0
    eval_mode: str = "exact"               # exact | off
    diagnostics: bool = False

    schedule: str = "round_robin"
    schedule_seed: Optional[int] = None
    schedule_block: int = 10
    schedule_agent: int = 1

    init_state: Optional[str] = None       # fixed | uniform_random | epoch
    init_state_fixed: int = 0

    def validate(self, file_states: Optional[int] = None) -> None:
        def bad(msg, key):
            raise ConfigError(msg, key)

        if self.mdp_kind not in ("hard", "random", "file"):
            bad(f"unknown mdp kind {self.mdp_kind!r}", ("mdp", "kind"))
        if self.mdp_kind == "file" and not self.mdp_path:
            bad("mdp kind 'file' requires a path", ("mdp", "path"))
        if self.mdp_seed < 0:
            bad(f"mdp seed must be >= 0, got {self.mdp_seed}", ("mdp", "seed"))
        # The number of states of a file instance is known only once it is
        # read, so the caller that reads it passes it in as file_states.
        n_states = file_states
        try:
            if self.mdp_kind == "hard":
                n_states = mdp_mod.check_hard_params(self.mdp_d, self.mdp_horizon,
                                                     self.mdp_gap)
            elif self.mdp_kind == "random":
                n_states = mdp_mod.check_random_sizes(self.mdp_n_states,
                                                      self.mdp_n_actions, self.mdp_horizon)
        except mdp_mod.InvalidMdpError as e:
            bad(str(e), ("mdp", e.param))
        if self.K < 1:
            bad(f"K must be >= 1, got {self.K}", ("run", "K"))
        if self.M < 1:
            bad(f"M must be >= 1, got {self.M}", ("run", "M"))
        if self.alpha is not None and not self.alpha > 0:
            bad(f"alpha must be > 0, got {self.alpha}", ("run", "alpha"))
        if not 0 < self.ridge < math.inf:
            bad(f"ridge must be finite and > 0, got {self.ridge}", ("run", "ridge"))
        if not 0 < self.delta < 1:
            bad(f"delta must lie in (0,1), got {self.delta}", ("run", "delta"))
        if self.beta_mode not in ("practical", "theoretical", "fixed"):
            bad(f"unknown beta mode {self.beta_mode!r}", ("run", "beta"))
        if self.beta_mode == "fixed" and self.beta_value is None:
            bad("beta mode 'fixed' requires a value", ("run", "beta"))
        if self.beta_value is not None and not 0 <= self.beta_value < math.inf:
            bad(f"beta value must be finite and >= 0, got {self.beta_value}", ("run", "beta"))
        if self.protocol not in [p.value for p in ProtocolKind]:
            bad(f"unknown protocol {self.protocol!r}", ("run", "protocol"))
        if self.eval_mode not in ("exact", "off"):
            bad(f"unknown eval mode {self.eval_mode!r}", ("run", "eval"))
        if self.schedule not in SCHEDULE_KINDS:
            bad(f"unknown schedule {self.schedule!r}", ("schedule", "kind"))
        if self.schedule == "single_agent" and not 1 <= self.schedule_agent <= self.M:
            bad(f"schedule agent {self.schedule_agent} out of [1, {self.M}]",
                ("schedule", "agent"))
        if self.schedule_seed is not None and self.schedule_seed < 0:
            bad(f"schedule seed must be >= 0, got {self.schedule_seed}", ("schedule", "seed"))
        if self.schedule == "bursty" and self.schedule_block < 1:
            bad(f"block_len must be >= 1, got {self.schedule_block}",
                ("schedule", "block_len"))
        if self.init_state not in (None, *INIT_STATE_KINDS):
            bad(f"unknown init-state schedule {self.init_state!r}", ("init_state", "kind"))
        if self.init_state == "epoch" and self.mdp_kind != "hard":
            bad("epoch initial-state schedule requires the hard instance",
                ("init_state", "kind"))
        if (self.init_state == "fixed" and n_states is not None
                and not 0 <= self.init_state_fixed < n_states):
            bad(f"fixed initial state {self.init_state_fixed} out of [0, {n_states})",
                ("init_state", "state"))

    def resolved(self) -> "RunConfig":
        """Fill every defaulted field; the result echoes and reruns exactly."""
        self.validate()
        out = replace(self)
        if out.alpha is None:
            out.alpha = 1.0 / (out.M * out.M)
        if out.mdp_kind == "hard" and out.mdp_gap is None:
            out.mdp_gap = mdp_mod.default_hard_gap(out.mdp_d, out.M, out.K)
        if out.beta_value is None:
            out.beta_value = 0.1 if out.beta_mode == "practical" else 1.0
        if out.init_state is None:
            out.init_state = "epoch" if out.mdp_kind == "hard" else "fixed"
        if out.schedule in ("uniform_random", "bursty") and out.schedule_seed is None:
            out.schedule_seed = mix_seed(out.master_seed, TAG_SCHEDULE)
        out.validate()
        return out


@dataclass
class RunRecord:
    """Per-episode metrics stream plus end-of-run summary quantities.

    Regret increments are stored raw (possibly negative); nothing is clamped.
    Diagnostic arrays are None when diagnostics were off.
    """

    k: np.ndarray
    m: np.ndarray
    regret_inc: np.ndarray
    triggered: np.ndarray
    trigger_h: np.ndarray
    cum_comm: np.ndarray
    cum_switch: np.ndarray
    agent_logdet: Optional[np.ndarray] = None      # (K, H), active agent, episode end
    all_logdet: Optional[np.ndarray] = None        # (K, H), universal cov, episode start
    optimism_slack: Optional[np.ndarray] = None    # (K,), min over visited (s,a,h)
    epoch_starts: Optional[list[int]] = None

    @classmethod
    def empty(cls, K: int, H: int, diagnostics: bool) -> "RunRecord":
        """Zeroed rows for K episodes of horizon H; run_episode fills row k-1."""
        record = cls(k=np.arange(1, K + 1, dtype=np.int64), m=np.zeros(K, np.int64),
                     regret_inc=np.zeros(K), triggered=np.zeros(K, bool),
                     trigger_h=np.zeros(K, np.int64), cum_comm=np.zeros(K, np.int64),
                     cum_switch=np.zeros(K, np.int64))
        if diagnostics:
            record.agent_logdet, record.all_logdet = np.zeros((K, H)), np.zeros((K, H))
            record.optimism_slack = np.zeros(K)
        return record

    @property
    def cum_regret(self) -> np.ndarray:
        return np.cumsum(self.regret_inc)

    @property
    def total_regret(self) -> float:
        return float(self.cum_regret[-1]) if len(self.k) else 0.0

    @property
    def total_comm(self) -> int:
        return int(self.cum_comm[-1]) if len(self.k) else 0

    @property
    def total_switches(self) -> int:
        return int(self.cum_switch[-1]) if len(self.k) else 0


METRICS_HEADER = "k,m_k,regret_inc,cum_regret,triggered,trigger_h,cum_comm,cum_switch"


def metrics_csv_text(record: RunRecord) -> str:
    lines = [METRICS_HEADER]
    cum_regret = record.cum_regret
    for i in range(len(record.k)):
        lines.append(",".join((
            str(int(record.k[i])),
            str(int(record.m[i])),
            g17(record.regret_inc[i]),
            g17(cum_regret[i]),
            "1" if record.triggered[i] else "0",
            str(int(record.trigger_h[i])),
            str(int(record.cum_comm[i])),
            str(int(record.cum_switch[i])),
        )))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Diagnostics helpers


def epoch_boundaries(all_logdet: np.ndarray, ridge: float, d: int) -> list[int]:
    """First episode at which the universal logdet crosses each doubling.

    Boundary i is the smallest 1-based k whose beginning-of-episode logdet at
    any step reaches i*log(2) + d*log(ridge); the list ends at the last
    threshold any episode reaches.
    """
    if all_logdet.shape[0] == 0:
        return [1]
    peak = all_logdet.max(axis=1)
    base = d * math.log(ridge)
    out = []
    i = 0
    k_from = 0
    while True:
        threshold = i * math.log(2.0) + base
        idx = np.argmax(peak[k_from:] >= threshold) + k_from
        if peak[idx] < threshold:
            break
        out.append(int(idx) + 1)
        k_from = int(idx)
        i += 1
    return out


def count_nonempty_epochs(boundaries: list[int], K: int) -> int:
    """Number of epochs [K_i, K_{i+1}) that contain at least one episode."""
    n = 0
    for i, start in enumerate(boundaries):
        end = boundaries[i + 1] if i + 1 < len(boundaries) else K + 1
        if end > start:
            n += 1
    return n


def per_epoch_counts(boundaries: list[int], event_episodes: np.ndarray, K: int) -> list[int]:
    """How many of the given 1-based episodes fall in each epoch."""
    out = []
    for i, start in enumerate(boundaries):
        end = boundaries[i + 1] if i + 1 < len(boundaries) else K + 1
        out.append(int(np.sum((event_episodes >= start) & (event_episodes < end))))
    return out


def comm_complexity_scale(d: int, H: int, M: int, alpha: float, K: int, ridge: float) -> float:
    """The d*H*(M + 1/alpha)*log(1 + K/(ridge*d)) communication scale."""
    return d * H * (M + 1.0 / alpha) * math.log(1.0 + K / (ridge * d))


# ---------------------------------------------------------------------------
# The run loop


class _AgentTables(NamedTuple):
    """An agent's Q-table with its greedy policy (first-max ties) and, under
    exact evaluation, that policy's value; valid while parameters are frozen."""

    q: np.ndarray                  # (H, S, A), read-only while shared
    policy: np.ndarray             # (H, S)
    value: Optional[np.ndarray]    # (H, S)


@dataclass
class RunState:
    """Everything a single run owns; built once, then driven episode by episode."""

    config: RunConfig
    mdp: LinearMdp
    planner: Optional[PlannerOutput]
    agents: list[LsviAgent]
    server: CentralServer
    protocol: ProtocolKind
    schedule: np.ndarray
    init_states: np.ndarray
    record: RunRecord
    tables: list[Optional[_AgentTables]]
    all_cov: Optional[list[PsdMatrix]] = None
    cum_comm: int = 0
    cum_switch: int = 0

    def agent_tables(self, m: int) -> _AgentTables:
        idx = m - 1
        if self.tables[idx] is None:
            q = self.agents[idx].q_table(self.mdp)
            policy = q.argmax(axis=2)
            value = (mdp_mod.eval_policy(self.mdp, policy)
                     if self.config.eval_mode == "exact" else None)
            self.tables[idx] = _AgentTables(q, policy, value)
        return self.tables[idx]


@dataclass
class EpisodeView:
    """Read-only view handed to diagnostic hooks after each episode."""

    k: int
    m: int
    mdp: LinearMdp
    agent: LsviAgent
    agents: list[LsviAgent]
    server: CentralServer
    triggered: bool
    trigger_h: Optional[int]
    decision: Decision


def resolve_beta(cfg: RunConfig, d: int, H: int) -> float:
    if cfg.beta_mode == "fixed":
        return float(cfg.beta_value)
    if cfg.beta_mode == "practical":
        return practical_beta(d, H, cfg.K, cfg.delta, c=cfg.beta_value)
    return theoretical_beta(d, H, cfg.M, cfg.K, cfg.alpha, cfg.ridge,
                            cfg.delta, c_beta=cfg.beta_value)


def build_mdp(cfg: RunConfig) -> LinearMdp:
    if cfg.mdp_kind == "hard":
        return mdp_mod.hard_instance(cfg.mdp_d, cfg.mdp_horizon, cfg.mdp_gap)
    if cfg.mdp_kind == "random":
        return mdp_mod.random_tabular(cfg.mdp_seed, cfg.mdp_n_states,
                                      cfg.mdp_n_actions, cfg.mdp_horizon)
    return mdp_mod.require_valid(mdp_mod.read_mdp(cfg.mdp_path))


def build_run_state(cfg: RunConfig) -> RunState:
    cfg = cfg.resolved()
    mdp = build_mdp(cfg)
    cfg.validate(mdp.n_states)  # a file instance's state count is known only now
    needs_planner = cfg.eval_mode != "off" or cfg.diagnostics
    planner = mdp_mod.value_iteration(mdp) if needs_planner else None
    beta = resolve_beta(cfg, mdp.d, mdp.H)
    agents = [LsviAgent(m, mdp.d, mdp.H, cfg.alpha, cfg.ridge, beta)
              for m in range(1, cfg.M + 1)]
    all_cov = ([PsdMatrix(mdp.d, cfg.ridge) for _ in range(mdp.H)]
               if cfg.diagnostics else None)
    state = RunState(config=cfg, mdp=mdp, planner=planner, agents=agents,
                     server=CentralServer(mdp.d, mdp.H, cfg.ridge),
                     protocol=ProtocolKind(cfg.protocol),
                     schedule=make_schedule(cfg, mdp.d),
                     init_states=make_initial_states(
                         cfg, mdp, mix_seed(cfg.master_seed, TAG_INIT)),
                     record=RunRecord.empty(cfg.K, mdp.H, cfg.diagnostics),
                     tables=[None] * cfg.M, all_cov=all_cov)
    # All agents start from w = 0 and cov_h = ridge * I: every slot holds agent
    # 1's read-only table, policy and value until that agent's first refit.
    state.tables[:] = [state.agent_tables(1)] * cfg.M
    return state


def _refit(state: RunState, agent: LsviAgent, covs: list[PsdMatrix],
           data: list[TransitionBatch]) -> None:
    """Adopt new parameters: backward update, local reset, stale table out."""
    agent.lsvi_backward_update(state.mdp, data, covs)
    agent.reset_local()
    state.tables[agent.agent_id - 1] = None
    state.cum_switch += 1


def run_episode(state: RunState, k: int, rng: np.random.Generator) -> EpisodeView:
    """Run episode k end to end, write row k-1 of state.record, return its view.

    The active agent acts greedily for h = 1..H under its frozen parameters,
    accumulates the trajectory locally, then the protocol decides whether it
    communicates (upload, download, backward update, local reset). The regret
    increment compares the optimal value at the initial state against the
    exact value of the pre-episode greedy policy (NaN under eval = off).
    """
    cfg = state.config
    mdp = state.mdp
    rec, i = state.record, k - 1
    m = int(state.schedule[i])
    agent = state.agents[m - 1]
    s1 = int(state.init_states[i])
    tables = state.agent_tables(m)

    rec.m[i] = m
    rec.regret_inc[i] = (state.planner.v_star[0, s1] - tables.value[0, s1]
                         if cfg.eval_mode == "exact" else math.nan)
    diag = cfg.diagnostics
    if diag:
        rec.all_logdet[i] = [c.logdet for c in state.all_cov]
    slack = math.inf

    s = s1
    for h in range(1, mdp.H + 1):
        a = int(tables.policy[h - 1, s])
        r, s_next = mdp.step(s, a, h, rng)
        agent.record_transition(mdp, Transition(episode=k, step=h, state=s, action=a,
                                                reward=r, next_state=s_next))
        if diag:
            state.all_cov[h - 1].rank_one_update(mdp.features[s, a])
            slack = min(slack, tables.q[h - 1, s, a] - state.planner.q_star[h - 1, s, a])
        s = s_next

    trig, trig_h = agent.should_communicate()
    decision = protocol_decide(state.protocol, trig)
    if decision is Decision.LOCAL_UPDATE:
        _refit(state, agent, agent.local_cov_snapshot(), agent.own_history())
    elif decision is not Decision.NONE:
        group = state.agents if decision is Decision.SYNC_ALL else [agent]
        for member in group:
            state.server.upload(member)
        for member in group:
            _refit(state, member, *state.server.download())
        state.cum_comm += len(group)

    rec.triggered[i] = trig
    rec.trigger_h[i] = trig_h or 0
    rec.cum_comm[i] = state.cum_comm
    rec.cum_switch[i] = state.cum_switch
    if diag:
        rec.agent_logdet[i] = [c.logdet for c in agent.qparams.cov]
        rec.optimism_slack[i] = slack
    return EpisodeView(k=k, m=m, mdp=mdp, agent=agent, agents=state.agents,
                       server=state.server, triggered=trig, trigger_h=trig_h,
                       decision=decision)


def run_experiment(config: RunConfig,
                   episode_hook: Optional[Callable[[EpisodeView], None]] = None
                   ) -> RunRecord:
    """Execute K episodes under the given configuration.

    Identical configurations produce identical RunRecords; the optional
    diagnostic hook observes each finished episode and must not mutate run
    state or consume its random streams.
    """
    state = build_run_state(config)
    cfg = state.config
    for k in range(1, cfg.K + 1):
        rng = np.random.default_rng(mix_seed(cfg.master_seed, k, TAG_TRAJECTORY))
        view = run_episode(state, k, rng)
        if episode_hook is not None:
            episode_hook(view)
    record = state.record
    if cfg.diagnostics:
        record.epoch_starts = epoch_boundaries(record.all_logdet, cfg.ridge, state.mdp.d)
    return record
