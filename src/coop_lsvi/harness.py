"""Episode loop orchestrating environment, agents, server, and protocol.

A run is strictly sequential: one active agent per episode. Determinism is
enforced by deriving every random stream from (master_seed, episode, stream
tag) through a 64-bit avalanche mix, so trajectories are invariant to
diagnostic toggles. Episode k's trajectory is a pure function of its H
uniforms, np.random.default_rng(mix_seed(master_seed, k, TAG_TRAJECTORY))
.random(H), which run_experiment computes for a block of episodes at a time
with streams.default_rng_uniforms, bit for bit, and hands to run_episode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import mdp as mdp_mod
from .agent import LsviAgent, TransitionBatch, practical_beta, theoretical_beta
from .mdp import LinearMdp, PlannerOutput
from .psdmat import MIN_RIDGE, Covariance
from .schedules import (INIT_STATE_KINDS, SCHEDULE_KINDS, SEEDED_SCHEDULE_KINDS,
                        make_initial_states, make_schedule)
from .server import CentralServer, Decision, ProtocolKind, protocol_decide
from .streams import default_rng_uniforms, mix_seed, mix_seeds

# Stream tags: trajectory sampling, participation schedule, initial-state
# schedule.
TAG_TRAJECTORY = 0xA1
TAG_SCHEDULE = 0xA3
TAG_INIT = 0xA4

# Episodes whose trajectory uniforms run_experiment computes in one call of
# default_rng_uniforms: enough to spread the call's fixed cost thin, and a
# bound (TRAJECTORY_BLOCK * H) on the uniforms held at once, whatever K is.
# metrics_csv_text formats this many rows per block, for the same reasons.
TRAJECTORY_BLOCK = 1024

# Byte budget of a run's policy-value cache (RunState.policy_value), counted as
# the key and value bytes of its entries, 16 * H * S each; past it the oldest
# entry goes first. A run's greedy policies repeat: at seed 0 the benchmark's
# hard_full_sync run evaluates 12 distinct policies over 997 refits. 1 MiB
# holds 5,461 entries at H = 3, S = 4 and 327 at H = 5, S = 40, beyond any
# distinct count seen, and with the ~200 bytes of Python objects tracemalloc
# measures per entry keeps the cache within 2.1 MiB, under 1% of a benchmark
# run's peak RSS. An instance whose one entry exceeds it is never cached.
POLICY_VALUE_CACHE_BYTES = 2 ** 20

# Caps on what a run allocates, checked by RunConfig.validate. Per episode
# step tracemalloc measures, as the growth of peak traced memory from
# K = 8,000 to 16,000 (hard, H = 3, M = 4, without diagnostics), 196 and 484
# bytes at d = 8 and 32 under async_trigger, 178 and 399 under no_comm, and
# 19 more with diagnostics: the records allocated up front, the stored
# episodes and the one-hot design the stores keep beside them, at a capacity
# doubling, when the old and the new arrays are both held. Per agent and step
# h it measures 2 KB of objects plus 24 bytes per feature cell: 32-byte units
# with the objects as AGENT_CELL_OVERHEAD cells. Each cap is about 2 GiB.
# Every episode is held once, by the server's store or, without
# communication, by the agents' own, and a store's capacity is under twice
# its episodes, so the designs take under 16 * K * H * d bytes, and under
# 24 * K * H * d while one doubles: MAX_DESIGN_ENTRIES bounds K * H * d. The
# largest shipped, acceptance or benchmark run has K * H = 96,000,
# M * H * (d + 64) = 5,280 and K * H * d = 768,000.
MAX_RUN_STEPS = 2 ** 23       # on K * H
AGENT_CELL_OVERHEAD = 64
MAX_AGENT_UNITS = 2 ** 26     # on M * H * (d + AGENT_CELL_OVERHEAD)
MAX_DESIGN_ENTRIES = 2 ** 27  # on K * H * d


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
    # Not a field: (path, instance) of a file instance configio.parse_config
    # has read and checked for this config, carried by resolved(). A run uses
    # it while mdp_path names that path, so the file is read once per parsed
    # config, not again per run.
    _mdp_file = None

    def validate(self, instance: Optional[LinearMdp] = None) -> None:
        """Raise ConfigError, keyed to the config key at fault, on the first
        violated constraint. A file instance's sizes are known only once it
        is read, so the caller that reads it passes it in as ``instance``."""
        def bad(msg, key):
            raise ConfigError(msg, key)

        if self.mdp_kind not in ("hard", "random", "file"):
            bad(f"unknown mdp kind {self.mdp_kind!r}", ("mdp", "kind"))
        if self.mdp_kind == "file":
            if not self.mdp_path:
                bad("mdp kind 'file' requires a path", ("mdp", "path"))
            # The echo writes str(path) as a config value, which ends at a line
            # break, drops a '#' comment and is stripped: it would name another file.
            path = str(self.mdp_path)
            if "#" in path or path != path.strip() or path.splitlines() != [path]:
                bad(f"mdp path {path!r} has a '#', a line break, or leading or trailing "
                    "whitespace, which a config file cannot carry", ("mdp", "path"))
        if not 0 <= self.mdp_seed < 2 ** 64:
            # random_tabular draws through streams.default_rng_random.
            bad(f"mdp seed must lie in [0, 2**64), got {self.mdp_seed}", ("mdp", "seed"))
        if not 0 <= self.master_seed < 2 ** 64:
            # mix_seed reads it mod 2**64, so any other seed aliases one inside.
            bad(f"master_seed must lie in [0, 2**64), got {self.master_seed}",
                ("run", "master_seed"))
        # (H, n_states, d) of the instance, where known.
        sizes = None if instance is None else (instance.H, instance.n_states, instance.d)
        try:
            if self.mdp_kind == "hard":
                S = mdp_mod.check_hard_params(self.mdp_d, self.mdp_horizon, self.mdp_gap)
                sizes = (self.mdp_horizon, S, self.mdp_d)
            elif self.mdp_kind == "random":
                S = mdp_mod.check_random_sizes(self.mdp_n_states, self.mdp_n_actions,
                                               self.mdp_horizon)
                sizes = (self.mdp_horizon, S, S * self.mdp_n_actions)
        except mdp_mod.InvalidMdpError as e:
            bad(str(e), ("mdp", e.param))
        if self.K < 1:
            bad(f"K must be >= 1, got {self.K}", ("run", "K"))
        if self.M < 1:
            bad(f"M must be >= 1, got {self.M}", ("run", "M"))
        if sizes is not None:
            H, _, d = sizes
            if self.K * H > MAX_RUN_STEPS:
                bad(f"K * H = {self.K * H} episode steps exceeds {MAX_RUN_STEPS}",
                    ("run", "K"))
            if self.K * H * d > MAX_DESIGN_ENTRIES:
                bad(f"K * H * d = {self.K * H * d} design-matrix entries exceeds "
                    f"{MAX_DESIGN_ENTRIES}", ("run", "K"))
            units = self.M * H * (d + AGENT_CELL_OVERHEAD)
            if units > MAX_AGENT_UNITS:
                bad(f"M * H * (d + {AGENT_CELL_OVERHEAD}) = {units} exceeds {MAX_AGENT_UNITS}",
                    ("run", "M"))
        if self.alpha is not None and not self.alpha > 0:
            bad(f"alpha must be > 0, got {self.alpha}", ("run", "alpha"))
        if not MIN_RIDGE <= self.ridge < math.inf:
            bad(f"ridge must be finite and >= MIN_RIDGE = {MIN_RIDGE:g}, got {self.ridge}",
                ("run", "ridge"))
        if not 0 < self.delta < 1:
            bad(f"delta must lie in (0,1), got {self.delta}", ("run", "delta"))
        if self.beta_mode not in ("practical", "theoretical", "fixed"):
            bad(f"unknown beta mode {self.beta_mode!r}", ("run", "beta"))
        if self.beta_mode == "fixed" and self.beta_value is None:
            bad("beta mode 'fixed' requires a value", ("run", "beta"))
        if self.beta_value is not None and not 0 <= self.beta_value < math.inf:
            bad(f"beta value must be finite and >= 0, got {self.beta_value}", ("run", "beta"))
        if self.beta_mode == "theoretical" and self.alpha is not None:
            # d, H and the constant scale beta; only alpha, ridge, delta can fail it.
            try:
                theoretical_beta(1, 1, self.M, self.K, self.alpha, self.ridge, self.delta, 0.0)
            except ValueError as e:
                bad(f"beta = theoretical: {e}", ("run", "beta"))
        if (sizes is not None and self.beta_value is not None
                and (self.alpha is not None or self.beta_mode != "theoretical")):
            H, _, d = sizes
            beta = resolve_beta(self, d, H)
            if self.beta_mode == "practical" and 2.0 * d * self.K * H / self.delta == math.inf:
                bad(f"delta = {self.delta!r} overflows practical beta's log(2dKH/delta) "
                    f"at d = {d}, K = {self.K}, H = {H}", ("run", "delta"))
            if not math.isfinite(beta):
                bad(f"beta = {self.beta_mode}:{self.beta_value:g} resolves to {beta} "
                    f"at d = {d}, H = {H}", ("run", "beta"))
        if self.protocol not in [p.value for p in ProtocolKind]:
            bad(f"unknown protocol {self.protocol!r}", ("run", "protocol"))
        if self.eval_mode not in ("exact", "off"):
            bad(f"unknown eval mode {self.eval_mode!r}", ("run", "eval"))
        if self.schedule not in SCHEDULE_KINDS:
            bad(f"unknown schedule {self.schedule!r}", ("schedule", "kind"))
        if self.schedule == "single_agent" and not 1 <= self.schedule_agent <= self.M:
            bad(f"schedule agent {self.schedule_agent} out of [1, {self.M}]",
                ("schedule", "agent"))
        if self.schedule_seed is not None and not 0 <= self.schedule_seed < 2 ** 64:
            # The seeded schedules draw through streams.default_rng_integers.
            bad(f"schedule seed must lie in [0, 2**64), got {self.schedule_seed}",
                ("schedule", "seed"))
        if self.schedule == "bursty" and self.schedule_block < 1:
            bad(f"block_len must be >= 1, got {self.schedule_block}",
                ("schedule", "block_len"))
        if self.init_state not in (None, *INIT_STATE_KINDS):
            bad(f"unknown init-state schedule {self.init_state!r}", ("init_state", "kind"))
        if self.init_state == "epoch" and self.mdp_kind != "hard":
            bad("epoch initial-state schedule requires the hard instance",
                ("init_state", "kind"))
        if (self.init_state == "fixed" and sizes is not None
                and not 0 <= self.init_state_fixed < sizes[1]):
            bad(f"fixed initial state {self.init_state_fixed} out of [0, {sizes[1]})",
                ("init_state", "state"))

    def resolved(self) -> "RunConfig":
        """Fill every defaulted field; the result echoes and reruns exactly."""
        self.validate()
        out = replace(self)
        if out.mdp_path is not None:
            out.mdp_path = str(out.mdp_path)  # what the echo writes and parses back
        out._mdp_file = self._mdp_file
        if out.alpha is None:
            out.alpha = 1.0 / (out.M * out.M)
        if out.mdp_kind == "hard" and out.mdp_gap is None:
            out.mdp_gap = mdp_mod.default_hard_gap(out.mdp_d, out.M, out.K)
        if out.beta_value is None:
            out.beta_value = 0.1 if out.beta_mode == "practical" else 1.0
        if out.init_state is None:
            out.init_state = "epoch" if out.mdp_kind == "hard" else "fixed"
        if out.schedule in SEEDED_SCHEDULE_KINDS and out.schedule_seed is None:
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
    cells: Optional[np.ndarray] = None             # (K, H), cell visited at each step
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
            record.agent_logdet, record.cells = np.zeros((K, H)), np.zeros((K, H), np.int64)
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


# One metrics row: "%d" of a Python int or bool is str(int(x)), and "%.17g"
# of a Python float is g17(x).
_METRICS_ROW = "%d,%d,%.17g,%.17g,%d,%d,%d,%d"


def metrics_csv_text(record: RunRecord) -> str:
    """The metrics CSV, formatted TRAJECTORY_BLOCK rows at a time: each block's
    columns become Python lists once, so no whole column is held as one."""
    columns = (record.k, record.m, record.regret_inc, record.cum_regret, record.triggered,
               record.trigger_h, record.cum_comm, record.cum_switch)
    lines = [METRICS_HEADER]
    for lo in range(0, len(record.k), TRAJECTORY_BLOCK):
        block = [col[lo:lo + TRAJECTORY_BLOCK].tolist() for col in columns]
        lines.extend(map(_METRICS_ROW.__mod__, zip(*block)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Diagnostics helpers


def epoch_boundaries(cells: np.ndarray, ridge: float, d: int) -> list[int]:
    """First episode at which the universal covariance's determinant crosses
    each doubling, decided in integers from a run's (K, H) visit record.

    At the start of episode k, step h's universal covariance is ridge * I plus
    the visit counts n_j of episodes 1..k-1, so for ridge = p / q its
    det / ridge^d is prod_j (p + n_j q) / p^d. Boundary i is the smallest
    1-based k at which that ratio reaches 2^i at any step; the list ends at
    the last doubling any episode reaches.
    """
    p, q = float(ridge).as_integer_ratio()
    counts = [[0] * d for _ in range(cells.shape[1])]
    dets = [p ** d] * cells.shape[1]  # p^d times each step's ratio
    target, out = p ** d, []
    for lo in range(0, len(cells), TRAJECTORY_BLOCK):
        for k, row in enumerate(cells[lo:lo + TRAJECTORY_BLOCK].tolist(), lo + 1):
            while max(dets) >= target:
                out.append(k)
                target *= 2
            for hh, j in enumerate(row):
                n = counts[hh][j]
                counts[hh][j] = n + 1
                dets[hh] = dets[hh] // (p + n * q) * (p + (n + 1) * q)
    return out or [1]


def _epochs(boundaries: list[int], K: int):
    """Each epoch's episodes [start, end); the last epoch ends at K + 1."""
    return zip(boundaries, [*boundaries[1:], K + 1])


def count_nonempty_epochs(boundaries: list[int], K: int) -> int:
    """Number of epochs [K_i, K_{i+1}) that contain at least one episode."""
    return sum(end > start for start, end in _epochs(boundaries, K))


def per_epoch_counts(boundaries: list[int], event_episodes: np.ndarray, K: int) -> list[int]:
    """How many of the given 1-based episodes fall in each epoch."""
    return [int(np.sum((event_episodes >= start) & (event_episodes < end)))
            for start, end in _epochs(boundaries, K)]


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
    actions: list[list[int]]       # policy.tolist(): the run loop's per-step read
    first_value: Optional[list[float]]  # value[0].tolist(): the regret's read


@dataclass
class RunState:
    """Everything a single run owns, beside the instance and plan it shares
    read-only (built_instance); built once, then driven episode by episode."""

    config: RunConfig
    mdp: LinearMdp
    planner: Optional[PlannerOutput]
    agents: list[LsviAgent]
    server: CentralServer
    schedule: np.ndarray
    init_states: np.ndarray
    record: RunRecord
    tables: list[Optional[_AgentTables]]
    cum_comm: int = 0
    cum_switch: int = 0
    # policy.tobytes() -> read-only eval_policy value, oldest entry first.
    policy_values: dict[bytes, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # What run_episode reads per episode, as Python objects: the schedule
        # and initial states, protocol_decide's outcome for config.protocol
        # without and with a trigger, and, under exact evaluation, the optimal
        # first-step values.
        self._schedule: list[int] = self.schedule.tolist()
        self._init_states: list[int] = self.init_states.tolist()
        protocol = ProtocolKind(self.config.protocol)
        self._decisions = (protocol_decide(protocol, False), protocol_decide(protocol, True))
        self._v_star_first: Optional[list[float]] = (
            self.planner.v_star[0].tolist() if self.config.eval_mode == "exact" else None)

    def policy_value(self, policy: np.ndarray) -> np.ndarray:
        """The exact value of a greedy (H, S) policy table, evaluated once
        per distinct table and kept within POLICY_VALUE_CACHE_BYTES."""
        key = policy.tobytes()
        value = self.policy_values.get(key)
        if value is None:
            # A compact copy: eval_policy returns a view of an (H + 1, S) table.
            value = mdp_mod.eval_policy(self.mdp, policy).copy()
            value.setflags(write=False)
            capacity = POLICY_VALUE_CACHE_BYTES // (len(key) + value.nbytes)
            if capacity:
                if len(self.policy_values) >= capacity:
                    del self.policy_values[next(iter(self.policy_values))]
                self.policy_values[key] = value
        return value

    def agent_tables(self, m: int) -> _AgentTables:
        if not 1 <= m <= self.config.M:
            raise ValueError(f"m={m}: agent out of [1, {self.config.M}]")
        idx = m - 1
        if self.tables[idx] is None:
            q = self.agents[idx].q_table(self.mdp)
            policy = q.argmax(axis=2)
            value = self.policy_value(policy) if self.config.eval_mode == "exact" else None
            self.tables[idx] = _AgentTables(q, policy, value, policy.tolist(),
                                            None if value is None else value[0].tolist())
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


class _SharedInstance(NamedTuple):
    key: tuple                         # instance_key of the config it was built for
    mdp: LinearMdp
    planner: Optional[PlannerOutput]   # None until a run needs the plan


# The one instance a process shares across runs: the last hard or random
# instance built_instance built, with its exact plan once a run needed it.
# Both are frozen with read-only tables and the key is every field build_mdp
# reads, so a run reads the same bytes whether it built the instance or found
# it here. Nothing from a run's seeds, schedule, uniforms or policies is kept.
# A file instance is never kept: only reading the file shows it unchanged.
# Nor is an instance whose transition table exceeds SHARED_TABLE_ENTRIES, so
# what stays resident after the runs is at most about 16 MiB (P and its
# cumulative rows), and a one-off large run frees its instance when it ends.
_shared: Optional[_SharedInstance] = None
SHARED_TABLE_ENTRIES = 2 ** 20


def instance_key(cfg: RunConfig) -> Optional[tuple]:
    """The resolved [mdp] fields build_mdp reads; None for a file instance."""
    if cfg.mdp_kind == "hard":
        return ("hard", cfg.mdp_d, cfg.mdp_horizon, cfg.mdp_gap)
    if cfg.mdp_kind == "random":
        return ("random", cfg.mdp_seed, cfg.mdp_n_states, cfg.mdp_n_actions, cfg.mdp_horizon)
    return None


def built_instance(cfg: RunConfig, needs_planner: bool
                   ) -> tuple[LinearMdp, Optional[PlannerOutput]]:
    """The resolved config's instance and, if needs_planner, its exact plan:
    the shared ones when the key matches, else built, and shared in place of
    the last unless a file instance or too large (see _shared). A file
    instance is the one parse_config read for the config, or read now."""
    global _shared
    key = instance_key(cfg)
    if key is None:
        read = cfg._mdp_file
        mdp = read[1] if read is not None and read[0] == cfg.mdp_path else build_mdp(cfg)
        cfg.validate(mdp)  # a file instance's sizes are known only now
        return mdp, mdp_mod.value_iteration(mdp) if needs_planner else None
    if _shared is None or _shared.key != key:
        _shared = None  # dropped first, so the process never holds two
        mdp = build_mdp(cfg)
        if mdp.transitions.size > SHARED_TABLE_ENTRIES:
            return mdp, mdp_mod.value_iteration(mdp) if needs_planner else None
        _shared = _SharedInstance(key, mdp, None)
    if needs_planner and _shared.planner is None:
        _shared = _shared._replace(planner=mdp_mod.value_iteration(_shared.mdp))
    return _shared.mdp, _shared.planner if needs_planner else None


def build_run_state(cfg: RunConfig) -> RunState:
    cfg = cfg.resolved()
    needs_planner = cfg.eval_mode != "off" or cfg.diagnostics
    mdp, planner = built_instance(cfg, needs_planner)
    beta = resolve_beta(cfg, mdp.d, mdp.H)
    agents = [LsviAgent(m, mdp.d, mdp.H, cfg.alpha, cfg.ridge, beta)
              for m in range(1, cfg.M + 1)]
    state = RunState(config=cfg, mdp=mdp, planner=planner, agents=agents,
                     server=CentralServer(mdp.d, mdp.H, cfg.ridge),
                     schedule=make_schedule(cfg, mdp.d),
                     init_states=make_initial_states(
                         cfg, mdp, mix_seed(cfg.master_seed, TAG_INIT)),
                     record=RunRecord.empty(cfg.K, mdp.H, cfg.diagnostics),
                     tables=[None] * cfg.M)
    # All agents start from w = 0 and cov_h = ridge * I: every slot holds agent
    # 1's read-only table, policy and value until that agent's first refit.
    state.tables[:] = [state.agent_tables(1)] * cfg.M
    return state


def _refit(state: RunState, agent: LsviAgent, covs: list[Covariance],
           data: list[TransitionBatch]) -> None:
    """Adopt new parameters: backward update, local reset, stale table out."""
    agent.lsvi_backward_update(state.mdp, data, covs)
    agent.reset_local()
    state.tables[agent.agent_id - 1] = None
    state.cum_switch += 1


def run_episode(state: RunState, k: int, draws: Sequence[float]) -> EpisodeView:
    """Run episode k on its H trajectory uniforms, write row k-1 of
    state.record, return its view; a bad k, a len(draws) other than H or a
    NaN draw raises ValueError before anything is written.

    The active agent plays the episode greedily under its frozen policy
    table, as one LinearMdp.rollout with step h at draws[h-1], and files it
    with the cells its walk checked (LsviAgent._file_episode); then the
    protocol decides whether it communicates (upload, download, backward
    update, local reset); a no-communication local update files the local
    delta into the agent's own store and covariances in place, copying none
    (LsviAgent.own_history), and refits from them. The regret increment
    compares the optimal value at the initial state against the exact value
    of the pre-episode greedy policy (NaN under eval = off).
    """
    mdp = state.mdp
    if not 1 <= k <= state.config.K:
        raise ValueError(f"k={k}: episode out of [1, {state.config.K}]")
    rec, i = state.record, k - 1
    m = state._schedule[i]
    agent = state.agents[m - 1]
    s1 = state._init_states[i]
    tables = state.agent_tables(m)
    # The active agent's greedy episode; a bad draw raises before any write.
    row, rewards, cells = mdp.rollout(s1, tables.actions, draws)
    agent._file_episode(k, row, rewards, cells)

    rec.m[i] = m
    v_star = state._v_star_first
    # The float64 subtraction numpy would do, on the same two values.
    rec.regret_inc[i] = math.nan if v_star is None else v_star[s1] - tables.first_value[s1]

    trig, trig_h = agent.should_communicate()
    decision = state._decisions[trig]
    if decision is Decision.LOCAL_UPDATE:
        _refit(state, agent, agent.qparams.cov, agent.own_history())
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
    if state.config.diagnostics:
        rec.cells[i] = cells
        # The pre-episode table's Q-hat minus Q* at each (h, cell), as floats.
        q, q_star, d = tables.q, state.planner.q_star, mdp.d
        rec.optimism_slack[i] = min(q.item(hh * d + j) - q_star.item(hh * d + j)
                                    for hh, j in enumerate(cells))
        rec.agent_logdet[i] = [c.logdet for c in agent.qparams.cov]
    # Positional, in field order: keywords double the cost of building it.
    return EpisodeView(k, m, mdp, agent, state.agents, state.server, trig, trig_h, decision)


def run_experiment(config: RunConfig,
                   episode_hook: Optional[Callable[[EpisodeView], None]] = None
                   ) -> RunRecord:
    """Execute K episodes under the given configuration.

    Identical configurations produce identical RunRecords; the optional
    diagnostic hook observes each finished episode and must not mutate run
    state; it cannot reach the trajectory uniforms.
    """
    state = build_run_state(config)
    cfg = state.config
    for start in range(1, cfg.K + 1, TRAJECTORY_BLOCK):
        ks = np.arange(start, min(start + TRAJECTORY_BLOCK, cfg.K + 1))
        seeds = mix_seeds(cfg.master_seed, ks, TAG_TRAJECTORY)
        for k, draws in zip(ks.tolist(), default_rng_uniforms(seeds, state.mdp.H).tolist()):
            view = run_episode(state, k, draws)
            if episode_hook is not None:
                episode_hook(view)
    record = state.record
    if cfg.diagnostics:
        record.epoch_starts = epoch_boundaries(record.cells, cfg.ridge, state.mdp.d)
    return record
