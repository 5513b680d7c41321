"""Linear MDP construction, exact planning, sampling, and serialization.

All instances here are tabular MDPs embedded as linear MDPs via the one-hot
feature map phi(s, a) = e_{s * n_actions + a}, so the linear MDP's measures
mu_h and reward parameters are the exact (P, r) tables reshaped. The tables
are the only description kept, and the norm bounds on phi, mu_h and the reward
parameters follow from the three table checks in validate_linear_mdp.

Index conventions: states and actions are 0-based everywhere; the step index
h is 1-based (1 <= h <= H) in public signatures, matching the episodic
formulation, and converted to 0-based only at array access.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .psdmat import MAX_DIM

PROB_ROW_TOL = 1e-10     # probability rows must sum to 1 within this
PROB_NEG_TOL = 1e-12     # entries may dip this far below zero from rounding
# Files store rewards exactly (17 digits reparse to the same double), so this
# only forgives rounding in tables computed elsewhere: thousands of ulps at 1.
REWARD_RANGE_TOL = 1e-12
# Most entries H*S*A*S of a transition table. One table at the cap is 1 GiB of
# float64, and building an instance holds three (the parsed or drawn table,
# the instance's copy and its cumulative rows), so the cap keeps an instance
# within a few GiB; the largest any shipped config builds has 40,000 entries.
MAX_TABLE_ENTRIES = 2 ** 27


@functools.lru_cache(maxsize=1)
def identity(d: int) -> np.ndarray:
    """Read-only eye(d), row j being phi of cell j (LinearMdp.cell): one for
    the last d asked, shared by the instance's features, stores and batches."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


class InvalidMdpError(ValueError):
    """Raised when construction inputs violate the linear MDP constraints.

    ``param`` names the constructor argument at fault, where there is one.
    """

    def __init__(self, msg: str, param: Optional[str] = None):
        super().__init__(msg)
        self.param = param


@dataclass(frozen=True, eq=False)
class LinearMdp:
    """A finite MDP given by exact (P, r) tables, embedded with one-hot features.

    The inputs are transitions (H, S, A, S) and rewards (H, S, A), copied as
    read-only float64. H, n_states, n_actions, d = S * A and the read-only
    (S, A, d) feature map features[s, a] = e_{cell(s, a)}, a view of eye(d),
    are derived from them; the run loop relies on that map when it indexes
    covariances by cell and keeps them diagonal. Instances compare (and hash)
    by identity: comparing their tables elementwise has no single truth value.
    An instance is immutable (frozen fields, read-only tables), so the runs of
    one process may share it (harness.built_instance).
    """

    transitions: np.ndarray
    rewards: np.ndarray
    H: int = field(init=False)
    n_states: int = field(init=False)
    n_actions: int = field(init=False)
    d: int = field(init=False)
    features: np.ndarray = field(init=False, repr=False)
    _cum_rows: np.ndarray = field(init=False, repr=False)
    # Flat memoryviews of _cum_rows and rewards, read by _walk.
    _cum_flat: memoryview = field(init=False, repr=False)
    _reward_flat: memoryview = field(init=False, repr=False)

    def __post_init__(self):
        P = np.array(self.transitions, dtype=np.float64)
        r = np.array(self.rewards, dtype=np.float64)
        if P.ndim != 4 or P.shape[3] != P.shape[1] or r.shape != P.shape[:3]:
            raise InvalidMdpError(f"inconsistent table shapes P{P.shape} r{r.shape}")
        H, S, A = P.shape[:3]
        cum_rows = np.cumsum(P, axis=-1)
        for arr in (P, r, cum_rows):
            arr.setflags(write=False)
        # Frozen: the fields are set once, here, through object.__setattr__.
        for name, value in (("transitions", P), ("rewards", r), ("H", H), ("n_states", S),
                            ("n_actions", A), ("d", S * A),
                            ("features", identity(S * A).reshape(S, A, S * A)),
                            ("_cum_rows", cum_rows),
                            ("_cum_flat", memoryview(cum_rows.reshape(-1))),
                            ("_reward_flat", memoryview(r.reshape(-1)))):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # The memoryviews do not pickle; the tables rebuild everything.
        return LinearMdp, (self.transitions, self.rewards)

    def cell(self, s: int | np.ndarray, a: int | np.ndarray) -> int | np.ndarray:
        """The index j of the one-hot feature phi(s, a) = e_j, j = s * A + a.

        Works elementwise on integer arrays too. The run loop carries j in
        place of phi: features[s, a] is row j of the flat (S * A, d) view of
        features, which is eye(d).
        """
        return s * self.n_actions + a

    def step(self, s: int, a: int, h: int, u: float) -> tuple[float, int]:
        """One environment step at its uniform u; the reward depends on (s, a, h).

        The next state is the inverse CDF of the transition row at u (_walk),
        so the step is a pure function of (mdp, s, a, h, u). An index out of
        range raises ValueError rather than wrapping to another row, and so
        does a NaN u rather than landing on state S - 1.
        """
        if not 0 <= s < self.n_states:
            raise ValueError(f"s={s}: state out of [0, {self.n_states})")
        if not 0 <= a < self.n_actions:
            raise ValueError(f"a={a}: action out of [0, {self.n_actions})")
        if not 1 <= h <= self.H:
            raise ValueError(f"h={h}: step out of [1, {self.H}]")
        if u != u:
            raise ValueError(f"u={u}: the step's uniform is NaN")
        row, rewards = self._walk(s, h - 1, ({s: a},), (u,))
        return rewards[0], row[2]

    def rollout(self, s: int, actions: Sequence[Sequence[int]],
                draws: Sequence[float]) -> tuple[list[int], list[float]]:
        """One episode from state s under an (H, S) action table, step h at
        draws[h-1]: the flat row [s, a, s'] * H and the H rewards.

        Step h takes action actions[h-1][s] and picks its next state as step
        does at the same (s, a, h, u), so the episode is the one H step calls
        would give. A bad s, action or number of draws, or a NaN draw, raises
        ValueError.
        """
        if not 0 <= s < self.n_states:
            raise ValueError(f"s={s}: state out of [0, {self.n_states})")
        if len(draws) != self.H:
            raise ValueError(f"draws: {len(draws)} uniforms for an episode of H = {self.H} steps")
        if len(actions) != self.H:
            raise ValueError(f"actions: {len(actions)} rows for an episode of H = {self.H} steps")
        return self._walk(s, 0, actions, draws)

    def _walk(self, s: int, hh: int, actions: Sequence, draws: Sequence[float]
              ) -> tuple[list[int], list[float]]:
        """Steps hh + 1, hh + 2, ... from state s, the t-th taking action
        actions[t][s] at draws[t]: the flat row [s, a, s'] per step and the
        rewards. The one inverse CDF of step and rollout.

        Each next state is searchsorted(row, u, side="right") clamped to
        S - 1, with no array view or numpy call: bisect_right over the row's
        span of the flat cumulative table probes the same midpoints,
        (lo + hi) // 2, and moves the same way, x < row[mid] being not
        row[mid] <= x for non-NaN values. So it picks the same state on any
        row, even one that a negative entry within PROB_NEG_TOL makes
        non-monotone.
        """
        S, A = self.n_states, self.n_actions
        cum, reward = self._cum_flat, self._reward_flat
        row: list[int] = []
        rewards: list[float] = []
        base = hh * S  # (h - 1) * S
        for acts, u in zip(actions, draws):
            a = acts[s]
            if not 0 <= a < A:
                raise ValueError(f"a={a}: action out of [0, {A})")
            if u != u:
                raise ValueError(f"draws: {list(draws)} holds a NaN uniform")
            i = (base + s) * A + a
            lo = i * S
            nxt = bisect_right(cum, u, lo, lo + S) - lo
            if nxt >= S:
                nxt = S - 1
            row += (s, a, nxt)
            rewards.append(reward[i])
            s = nxt
            base += S
        return row, rewards


@dataclass(frozen=True, eq=False)
class PlannerOutput:
    """Exact optimal value/Q tables and a greedy optimal policy.

    v_star and optimal_policy are (H, S); q_star is (H, S, A). Row h-1 holds
    the step-h quantities. Frozen, with read-only tables, as LinearMdp.
    """

    v_star: np.ndarray
    q_star: np.ndarray
    optimal_policy: np.ndarray


def build_tabular_as_linear(P: np.ndarray, r: np.ndarray) -> LinearMdp:
    """Embed exact (P, r) tables as a linear MDP with one-hot features.

    P has shape (H, S, A, S) with valid probability rows; r has shape
    (H, S, A) with entries in [0, 1]; otherwise InvalidMdpError carries the
    detail of the first failing check of validate_linear_mdp.
    """
    return require_valid(LinearMdp(P, r))


def check_table_sizes(H: int, S: int, A: int, dim_param: Optional[str] = None,
                      table_param: Optional[str] = None) -> None:
    """Raise InvalidMdpError unless an instance with H steps, S states and A
    actions can be allocated and run: its dimension S*A is at most MAX_DIM and
    its transition table at most MAX_TABLE_ENTRIES. Call it before any table
    is allocated; the params name the argument each error is charged to."""
    if S * A > MAX_DIM:
        raise InvalidMdpError(
            f"feature dimension n_states * n_actions = {S * A} exceeds {MAX_DIM}", dim_param)
    if H * S * A * S > MAX_TABLE_ENTRIES:
        raise InvalidMdpError(f"transition table of H * n_states * n_actions * n_states = "
                              f"{H * S * A * S} entries exceeds {MAX_TABLE_ENTRIES}",
                              table_param)


def check_random_sizes(n_states: int, n_actions: int, H: int) -> int:
    """Raise InvalidMdpError naming the first size below 1, or the size charged
    with a too large instance; else return n_states."""
    for name, n in (("n_states", n_states), ("n_actions", n_actions), ("H", H)):
        if n < 1:
            raise InvalidMdpError(f"{name} must be >= 1, got {n}", name)
    check_table_sizes(H, n_states, n_actions,
                      "n_states" if n_states >= n_actions else "n_actions", "H")
    return n_states


def random_tabular(seed: int, n_states: int, n_actions: int, H: int) -> LinearMdp:
    """Random tabular instance, deterministic in the seed."""
    check_random_sizes(n_states, n_actions, H)
    rng = np.random.default_rng(seed)
    P = rng.random((H, n_states, n_actions, n_states)) + 1e-3
    P /= P.sum(axis=-1, keepdims=True)
    r = rng.random((H, n_states, n_actions))
    return build_tabular_as_linear(P, r)


def default_hard_gap(d: int, M: int, K: int) -> float:
    """Default arm gap scaling like 1/sqrt(K), keeping the instance hard."""
    return min(0.25, math.sqrt(d * M / (8.0 * K)))


def check_hard_params(d: int, H: int, gap: Optional[float]) -> int:
    """Raise InvalidMdpError naming the first argument of ``hard_instance``
    it would reject; else return its number of states. A gap of None stands
    for the default, which is always valid."""
    if d % 2 != 0 or d < 8:
        raise InvalidMdpError(f"d must be an even integer >= 8, got {d}", "d")
    if H < 2:
        raise InvalidMdpError(f"H must be >= 2, got {H}", "H")
    if gap is not None and not 0.0 <= gap < 0.5:
        raise InvalidMdpError(f"gap must lie in [0, 1/2), got {gap}", "gap")
    check_table_sizes(H, d // 2, 2, "d", "H")
    return d // 2


def hard_instance(d: int, H: int, gap: float) -> LinearMdp:
    """The two-armed hard family: d/2 - 2 initial states feeding two absorbers.

    State layout: indices 0 .. d/2-3 are initial states; index d/2-2 is the
    rewarding absorber (reward 1 at every step) and index d/2-1 the zero
    absorber. From any initial state, action 0 reaches the rewarding absorber
    with probability 1/2 + gap and action 1 with probability 1/2 - gap, so
    each initial state embeds a 2-armed Bernoulli bandit with value spread
    2 * gap * (H - 1). One-hot embedded at dimension |S| * |A| = d.
    """
    S = check_hard_params(d, H, gap)
    A = 2
    n_init = S - 2
    good, bad = n_init, n_init + 1
    P = np.zeros((H, S, A, S))
    r = np.zeros((H, S, A))
    for h in range(H):
        for i in range(n_init):
            P[h, i, 0, good] = 0.5 + gap
            P[h, i, 0, bad] = 0.5 - gap
            P[h, i, 1, good] = 0.5 - gap
            P[h, i, 1, bad] = 0.5 + gap
        P[h, good, :, good] = 1.0
        P[h, bad, :, bad] = 1.0
        r[h, good, :] = 1.0
    return build_tabular_as_linear(P, r)


def hard_num_initial_states(mdp: LinearMdp) -> int:
    return mdp.n_states - 2


def value_iteration(mdp: LinearMdp) -> PlannerOutput:
    """Exact backward dynamic programming on the tabular backing."""
    H, S, A = mdp.H, mdp.n_states, mdp.n_actions
    q = np.zeros((H, S, A))
    v = np.zeros((H + 1, S))
    pol = np.zeros((H, S), dtype=np.int64)
    for h in range(H - 1, -1, -1):
        q[h] = mdp.rewards[h] + mdp.transitions[h] @ v[h + 1]
        v[h] = q[h].max(axis=1)
        pol[h] = q[h].argmax(axis=1)
    for arr in (q, v, pol):
        arr.setflags(write=False)
    return PlannerOutput(v_star=v[:H], q_star=q, optimal_policy=pol)


def eval_policy(mdp: LinearMdp, policy: np.ndarray) -> np.ndarray:
    """Exact backward evaluation of a deterministic (H, S) policy table."""
    policy = np.asarray(policy, dtype=np.int64)
    H, S = mdp.H, mdp.n_states
    if policy.shape != (H, S):
        raise InvalidMdpError(f"policy shape {policy.shape} != ({H}, {S})")
    if np.any(policy < 0) or np.any(policy >= mdp.n_actions):
        raise InvalidMdpError("policy action out of range")
    values = np.zeros((H + 1, S))
    idx = np.arange(S)
    for h in range(H - 1, -1, -1):
        acts = policy[h]
        values[h] = mdp.rewards[h][idx, acts] + mdp.transitions[h][idx, acts] @ values[h + 1]
    return values[:H]


# ---------------------------------------------------------------------------
# Validation


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_slack: float
    detail: str = ""


def validate_linear_mdp(mdp: LinearMdp) -> list[CheckResult]:
    """Check the (P, r) tables; each detail names the worst entry, pass or fail.

    Slack is "amount by which the constraint is exceeded": <= 0 passes.
    """
    P, r = mdp.transitions, mdp.rewards
    sums = P.sum(axis=-1)
    row_err = np.abs(sums - 1.0)
    h, s, a = np.unravel_index(np.argmax(row_err), row_err.shape)
    neg = -P.min()
    slack = max(-r.min(), r.max() - 1.0)
    return [
        CheckResult("transition_rows_sum_to_1", bool(row_err.max() <= PROB_ROW_TOL),
                    float(row_err.max() - PROB_ROW_TOL),
                    f"transition row (h={h + 1}, s={s}, a={a}) sums to {sums[h, s, a]:.12g}"),
        CheckResult("transition_probs_nonnegative", bool(neg <= PROB_NEG_TOL),
                    float(neg - PROB_NEG_TOL), f"smallest transition probability {-neg:.12g}"),
        CheckResult("rewards_in_unit_interval", bool(slack <= REWARD_RANGE_TOL), float(slack),
                    f"rewards must lie in [0, 1]; they span [{r.min():.12g}, {r.max():.12g}]"),
    ]


def require_valid(mdp: LinearMdp) -> LinearMdp:
    """Return mdp, or raise InvalidMdpError with its first failing check."""
    for check in validate_linear_mdp(mdp):
        if not check.passed:
            raise InvalidMdpError(f"{check.name}: {check.detail}")
    return mdp


# ---------------------------------------------------------------------------
# Serialization (sectioned text format, 0-based indices, round-trip stable)


def g17(x: float) -> str:
    """A float at 17 significant digits, which reparses to the same value."""
    return format(float(x), ".17g")


def write_mdp(mdp: LinearMdp, path: str) -> None:
    """Write an MDP in the sectioned text format."""
    lines = ["[meta]",
             f"d = {mdp.d}",
             f"H = {mdp.H}",
             f"n_states = {mdp.n_states}",
             f"n_actions = {mdp.n_actions}",
             ""]
    for h in range(mdp.H):
        for s in range(mdp.n_states):
            for a in range(mdp.n_actions):
                lines.append(f"[transition {h} {s} {a}]")
                lines.append(" ".join(g17(p) for p in mdp.transitions[h, s, a]))
                lines.append("")
    for h in range(mdp.H):
        lines.append(f"[reward {h}]")
        for s in range(mdp.n_states):
            lines.append(" ".join(g17(x) for x in mdp.rewards[h, s]))
        lines.append("")
    with open(path, "w") as f:
        f.write("\n".join(lines))


def _numbers(tokens: list[str], kind, lineno: int) -> list:
    try:
        return [kind(x) for x in tokens]
    except ValueError:
        raise InvalidMdpError(
            f"line {lineno}: expected {kind.__name__} values, got {' '.join(tokens)!r}"
        ) from None


def read_mdp(path: str) -> LinearMdp:
    """Parse the sectioned text format without constraint validation.

    Validation is deliberately separate (validate_linear_mdp) so corrupt
    files can still be loaded and reported on. Text that cannot be placed in
    the tables at all (a non-numeric entry, a section index outside the meta
    sizes, a repeated section, an unknown or repeated meta key, a meta size
    below 1 or a d other than n_states * n_actions) raises InvalidMdpError
    naming its line.
    """
    meta: dict[str, int] = {}
    meta_lines: dict[str, int] = {}
    meta_line = 0
    # Section index -> (header line, data rows). A repeated header is an
    # error, since its rows would silently replace the first section's.
    trans_rows: dict[tuple[int, ...], tuple[int, list[list[float]]]] = {}
    reward_rows: dict[tuple[int, ...], tuple[int, list[list[float]]]] = {}
    section: Optional[str] = None
    index: tuple[int, ...] = ()
    # Undecodable bytes become U+FFFD, so they fail as bad text on their line.
    with open(path, errors="replace") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                words = line[1:-1].split()
                section = words[0] if words else None
                if section not in ("meta", "transition", "reward"):
                    raise InvalidMdpError(f"line {lineno}: unknown section {line!r}")
                if section == "meta" and not meta_line:
                    meta_line = lineno
                index = tuple(_numbers(words[1:], int, lineno))
                if section == "transition" and len(index) != 3:
                    raise InvalidMdpError(
                        f"line {lineno}: transition section needs 'h s a' indices")
                if section == "reward" and len(index) != 1:
                    raise InvalidMdpError(
                        f"line {lineno}: reward section needs an 'h' index")
                if section != "meta":
                    table = trans_rows if section == "transition" else reward_rows
                    if index in table:
                        raise InvalidMdpError(f"line {lineno}: repeated section {line!r}")
                    table[index] = (lineno, [])
                continue
            if section is None:
                raise InvalidMdpError(f"line {lineno}: content outside any section")
            if section == "meta":
                key, _, val = (part.strip() for part in line.partition("="))
                if key not in ("d", "H", "n_states", "n_actions"):
                    raise InvalidMdpError(f"line {lineno}: unknown meta key {key!r}")
                if key in meta:
                    raise InvalidMdpError(f"line {lineno}: repeated meta key {key!r}")
                meta[key] = _numbers([val], int, lineno)[0]
                meta_lines[key] = lineno
            else:
                table[index][1].append(_numbers(line.split(), float, lineno))
    try:
        H, S, A = meta["H"], meta["n_states"], meta["n_actions"]
    except KeyError as e:
        raise InvalidMdpError(f"missing meta key {e}") from None
    for key in ("H", "n_states", "n_actions"):
        if meta[key] < 1:
            raise InvalidMdpError(f"line {meta_lines[key]}: meta {key}={meta[key]} must be >= 1")
    if meta.get("d", S * A) != S * A:
        raise InvalidMdpError(
            f"line {meta_lines['d']}: meta d={meta['d']} inconsistent with {S}*{A}")
    try:
        check_table_sizes(H, S, A)
    except InvalidMdpError as e:
        raise InvalidMdpError(f"line {meta_line}: [meta] {e}") from None

    def check_index(lineno: int, idx: tuple[int, ...], sizes: tuple[int, ...]) -> None:
        if not all(0 <= i < n for i, n in zip(idx, sizes)):
            raise InvalidMdpError(
                f"line {lineno}: section index {idx} outside the meta sizes {sizes}")

    P = np.zeros((H, S, A, S))
    r = np.zeros((H, S, A))
    for idx, (lineno, rows) in trans_rows.items():
        check_index(lineno, idx, (H, S, A))
        if len(rows) != 1 or len(rows[0]) != S:
            raise InvalidMdpError(
                f"line {lineno}: transition section {idx} must have one row of {S} entries")
        P[idx] = rows[0]
    for idx, (lineno, rows) in reward_rows.items():
        check_index(lineno, idx, (H,))
        if len(rows) != S or any(len(row) != A for row in rows):
            raise InvalidMdpError(
                f"line {lineno}: reward section {idx[0]} must have {S} rows of {A} entries")
        r[idx[0]] = rows
    return LinearMdp(P, r)
