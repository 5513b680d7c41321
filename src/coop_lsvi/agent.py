"""Per-agent learner: greedy acting, local accumulation, determinant trigger,
and the backward ridge-regression value-iteration update.

The Q-function of an agent at step h is

    Q_h(s, a) = clip( phi(s,a)^T w_h + beta * ||phi(s,a)||_{cov_h^-1},
                      0, H - h + 1 )

where cov_h is the covariance snapshot the agent last downloaded (or its own
under no communication) and w_h the matching regression weights.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .mdp import LinearMdp, identity
from .psdmat import Covariance, DiagonalPsdMatrix, _check_basis_index

try:  # The ufunc ndarray.clip calls, without the method's Python-level wrapper.
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

# Strictness guard for the determinant trigger. One-hot features make the
# determinant ratio a product of small rationals, so it lands EXACTLY on the
# 1 + alpha boundary in real arithmetic routinely (e.g. (3/2)*(4/3) = 2); the
# strict inequality must then not fire. The statistic sums n positive terms
# fl(log1p(1 / (c + v))), each within a few ulps plus 2**-53 (the float
# diagonal c = ridge + count is within count * ulp(c), and count <= c), in
# n roundings of at most 2**-53 * S each: near the threshold S = log1p(alpha)
# its error stays below this guard while (n + 3) * S + n < 9e4 (2.5e-12 for 30
# first visits at MAX_DIM / MIN_RIDGE, S = 690), and a genuine exceedance, a
# nonzero rational gap, clears it.
TRIGGER_LOG_TOLERANCE = 1e-11


class Transition(NamedTuple):
    """One environment step; ``step`` is the 1-based h index."""

    episode: int
    step: int
    state: int
    action: int
    reward: float
    next_state: int


@dataclass
class TransitionBatch:
    """Column-oriented transitions for one step h, kept in episode order.

    The regression in the backward update is vectorized over these columns.
    ``phis`` is the one-hot design of the rows, a store's view of the design
    it keeps, or None until ``design`` builds it.
    """

    episode: np.ndarray
    state: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    next_state: np.ndarray
    phis: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.episode.shape[0]

    def design(self, mdp: LinearMdp) -> np.ndarray:
        """The (n, d) C-contiguous float64 design matrix, row i being
        features[state[i], action[i]]."""
        if self.phis is None:
            self.phis = identity(mdp.d).take(mdp.cell(self.state, self.action), axis=0)
        return self.phis

    @classmethod
    def from_transitions(cls, transitions: Sequence[Transition]) -> "TransitionBatch":
        """int64 columns, and a float64 reward column, of the transitions."""
        columns = list(zip(*transitions)) or [()] * len(Transition._fields)
        episode, _, state, action, reward, next_state = columns
        return cls(*(np.array(col, np.int64) for col in (episode, state, action)),
                   np.array(reward, np.float64), np.array(next_state, np.int64))


class ProtocolViolation(RuntimeError):
    """An episode filed twice into one store; indicates a harness bug."""


class TransitionStore:
    """Every episode ever stored, in episode order, as one H-wide record,
    with the one-hot design of its steps; the one place a delta is filed.

    Per episode it keeps the episode id, the flat row [s, a, s'] * H, the H
    rewards and, in an (H, capacity, d) array, the row e_j of each step's
    cell j, so that step h's design is one C-contiguous (n, d) block.
    ``extend`` files the new episodes into arrays that double their capacity
    when full, and re-sorts by episode (one stable argsort, from the first
    stored episode a new one precedes, and one permutation of every array)
    only when the given episodes or the last stored one break strict episode
    order. Before a stored episode or batch changes, it refuses a cell that is
    not an integer in [0, d) and an episode it holds or the call repeats
    (ProtocolViolation), which the re-sort brings next to its twin.
    ``batches`` returns each step's TransitionBatch of column views and its
    design view, valid until the next ``extend``; callers share them and must
    not write to them. The H batches are built with the store; each
    ``extend`` refreshes them in place, re-slicing their fields.
    """

    def __init__(self, d: int, H: int) -> None:
        self._eye = identity(d)
        self._n = 0
        self._grow(H, 0)
        # At capacity 0 the full-capacity views are the empty batches.
        self._batches = [TransitionBatch(self._episode, *columns) for columns in self._columns]

    def _grow(self, H: int, capacity: int) -> None:
        """Arrays for ``capacity`` episodes holding the stored ones, and each
        step's full-capacity column views, which _refresh cuts to length."""
        n, d = self._n, self._eye.shape[0]
        episode = np.empty(capacity, np.int64)
        rows = np.empty((capacity, 3 * H), np.int64)
        reward = np.empty((capacity, H))
        design = np.empty((H, capacity, d))
        if n:
            episode[:n], rows[:n], reward[:n] = self._episode[:n], self._rows[:n], self._reward[:n]
            design[:, :n] = self._design[:, :n]
        self._episode, self._rows, self._reward, self._design = episode, rows, reward, design
        self._columns = [(rows[:, 3 * hh], rows[:, 3 * hh + 1], reward[:, hh],
                          rows[:, 3 * hh + 2], design[hh]) for hh in range(H)]

    def _refresh(self) -> None:
        """Cut each step's batch to the stored episodes, in place, from the current arrays."""
        n = self._n
        episode = self._episode[:n]
        for batch, (state, action, reward, next_state, phis) in zip(self._batches, self._columns):
            batch.episode, batch.state, batch.action = episode, state[:n], action[:n]
            batch.reward, batch.next_state, batch.phis = reward[:n], next_state[:n], phis[:n]

    def extend(self, episodes: Sequence[int], rows: Sequence[Sequence[int]],
               rewards: Sequence[Sequence[float]], cells: Sequence[Sequence[int]]) -> None:
        """Add episodes with their flat rows and rewards, aligned, and per
        step h the cell index j (phi = e_j) of each episode's step h."""
        n_new, H = len(episodes), len(self._columns)
        if not (len(rows) == len(rewards) == n_new and len(cells) == H
                and set(map(len, cells)) == {n_new}):
            raise ValueError(f"{n_new} episodes with {len(rows)} rows, {len(rewards)} reward "
                             f"rows and cells {[len(c) for c in cells]} for H = {H} steps")
        if not n_new:
            return
        n0 = self._n
        # Only episodes out of strict order, or reaching back to the last stored
        # one, can repeat one, and only they are re-sorted. The test reads the
        # given episodes, not a numpy slice: an upload brings a few, where
        # numpy's overhead dominates.
        resort = (n0 and self._episode.item(n0 - 1) >= episodes[0]
                  or any(map(operator.ge, episodes, episodes[1:])))
        d = self._eye.shape[0]
        for j in chain.from_iterable(cells):  # as DiagonalPsdMatrix.add_bases checks them
            if type(j) is not int or not 0 <= j < d:
                _check_basis_index(j, d)  # numpy integers pass; the rest raise
        n = n0 + n_new
        if n > len(self._episode):
            self._grow(H, max(n, 2 * len(self._episode)))
        episode, design = self._episode, self._design
        episode[n0:n] = episodes
        self._rows[n0:n] = rows
        self._reward[n0:n] = rewards
        design[:, n0:n] = self._eye.take(cells, axis=0)
        if resort:
            # Only stored episodes from the call's earliest on can collide, and
            # the re-sort starts there. A bisection over the column's buffer:
            # half the time of np.searchsorted on it.
            lo = bisect_left(memoryview(episode), min(episodes), 0, n0)
            order = np.argsort(episode[lo:n], kind="stable")
            ordered = episode[lo:n].take(order)
            # A repeat sorts next to what it repeats. Rows past n0 are free
            # space, so the stored episodes and the batches are still intact.
            if np.count_nonzero(ordered[1:] == ordered[:-1]):
                seen = set(episode[lo:n0].tolist())
                for k in episodes:
                    if k in seen:
                        raise ProtocolViolation(f"duplicate upload for episode {k}")
                    seen.add(k)
            episode[lo:n] = ordered
            for column in (self._rows, self._reward):
                column[lo:n] = column[lo:n].take(order, axis=0)
            design[:, lo:n] = design[:, lo:n].take(order, axis=1)
        self._n = n
        self._refresh()

    def absorb(self, agent: "LsviAgent", covs: Sequence[Covariance]) -> None:
        """Extend with the agent's local delta (not cleared here), then add
        each step's cells to covs[h] in recording order."""
        self.extend(agent.loc_episodes, agent.loc_rows, agent.loc_rewards, agent.loc_cells)
        for cov, cells in zip(covs, agent.loc_cells):
            cov.add_bases(cells)

    def batches(self) -> list[TransitionBatch]:
        """Per step h, the stored transitions of step h in episode order."""
        return self._batches


class QParams:
    """Regression weights, covariance snapshots and the bonus multiplier."""

    __slots__ = ("w", "cov", "beta")

    def __init__(self, d: int, H: int, ridge: float, beta: float):
        self.w = np.zeros((H, d))
        self.cov: list[Covariance] = [DiagonalPsdMatrix(d, ridge) for _ in range(H)]
        self.beta = float(beta)


class LsviAgent:
    """One agent's state and operations.

    Between parameter updates the Q-function is frozen, so greedy acting is a
    pure function of (s, h). The local delta since the last update holds
    whole episodes: per episode its id, flat row [s, a, s'] * H and H rewards
    (as LinearMdp.rollout returns them), and per step h the cell indices j
    (phi = e_j, mdp.LinearMdp.cell) of those episodes' steps, the visits per
    cell among them, and the trigger's statistic: cov_h is ridge * I plus
    visit counts, so the v+1-th local visit to cell j multiplies
    det(cov_h + delta_h) by (c_j + v + 1) / (c_j + v), c_j = (cov_h)_jj, and
    recording adds the log of that factor.
    """

    def __init__(self, agent_id: int, d: int, H: int, alpha: float, ridge: float, beta: float):
        self.agent_id = agent_id
        self.d = d
        self.H = H
        self.alpha = float(alpha)
        self.qparams = QParams(d, H, ridge, beta)
        self._log_ceiling = math.log1p(self.alpha) + TRIGGER_LOG_TOLERANCE
        # The local delta since the last update, one entry per episode, and
        # per h the cells of its steps in recording order.
        self.loc_episodes: list[int] = []
        self.loc_rows: list[list[int]] = []
        self.loc_rewards: list[list[float]] = []
        self.loc_cells: list[list[int]] = [[] for _ in range(H)]
        # Per h, visits per cell in loc_cells, and log det(cov_h + delta_h) / det cov_h.
        self._visits: list[dict[int, int]] = [{} for _ in range(H)]
        self._log_ratio = [0.0] * H
        # The steps record_transition holds until their episode's step H.
        self._pending: list[Transition] = []
        # Own-trajectory history, built and filled by own_history (read only
        # by the no-communication refit), so it stays None under the other
        # protocols.
        self._own: Optional[TransitionStore] = None
        # (H, S, A) table of the current parameters; None until first built.
        self._q: Optional[np.ndarray] = None

    # -- read-only evaluation ------------------------------------------------

    def _clipped_q(self, hh: int, out: Optional[np.ndarray] = None,
                   bonus: Optional[np.ndarray] = None) -> np.ndarray:
        """(d,) truncated optimistic Q estimates of every cell j at 0-based
        step hh, in ``out`` if given; the one place the Q-function is evaluated.
        ``bonus``, if given, is beta * sqrt(diag(cov_h^-1)), computed by the caller.

        For phi(s, a) = e_j (mdp.LinearMdp.cell) the formula above is
        w_h[j] + beta * sqrt((cov_h^-1)_jj) for any SPD cov_h. The feature
        products eye(d) @ w_h and eye(d)'s row-wise quadratic form only add
        exact zeros to those two, for dense covariances too: same bits.
        """
        qp = self.qparams
        if bonus is None:
            bonus = qp.beta * np.sqrt(qp.cov[hh].inv_diag)
        raw = np.add(qp.w[hh], bonus, out=out)
        # The ufunc np.clip and ndarray.clip end in; unlike np.maximum and
        # np.minimum, it keeps a -0.0 inside the bounds.
        return _clip(raw, 0.0, self.H - hh, out=raw)

    def action_values(self, mdp: LinearMdp, s: int, h: int) -> np.ndarray:
        """Vector of truncated Q estimates over all actions at state s."""
        if not (1 <= h <= self.H and 0 <= s < mdp.n_states):
            raise ValueError(f"(s={s}, h={h}) out of [0, {mdp.n_states}) x [1, {self.H}]")
        return self._clipped_q(h - 1).reshape(mdp.n_states, mdp.n_actions)[s]

    def q_table(self, mdp: LinearMdp) -> np.ndarray:
        """(H, S, A) truncated Q estimates of the current parameters.

        The backward update stores the table it builds; before the first
        update the table is built here, once, for the initial parameters, and
        made read-only so that other agents may share it.
        """
        if self._q is None:
            self._q = np.stack([self._clipped_q(hh) for hh in range(self.H)]
                               ).reshape(self.H, mdp.n_states, mdp.n_actions)
            self._q.setflags(write=False)
        return self._q

    # -- local accumulation and trigger --------------------------------------

    @property
    def loc_features(self) -> list[list[np.ndarray]]:
        """Per-h feature vectors of the local delta: read-only rows of eye(d)
        at the recorded cell indices."""
        eye = identity(self.d)
        return [[eye[j] for j in cells] for cells in self.loc_cells]

    @property
    def loc_transitions(self) -> list[list[Transition]]:
        """Per-h Transitions of the local delta's episodes, built on each read
        from its records; writing to them changes nothing."""
        return [[Transition(k, hh + 1, row[3 * hh], row[3 * hh + 1], rewards[hh],
                            row[3 * hh + 2])
                 for k, row, rewards in zip(self.loc_episodes, self.loc_rows, self.loc_rewards)]
                for hh in range(self.H)]

    def record_episode(self, mdp: LinearMdp, k: int, row: list[int],
                       rewards: list[float]) -> None:
        """Add episode k to the local delta: its flat row [s, a, s'] * H and
        H rewards, kept as given, and each step's cell and trigger term.

        A row or rewards of the wrong length, or a cell outside [0, d), is
        refused before anything changes.
        """
        H, d, A = self.H, self.d, mdp.n_actions
        if len(row) != 3 * H or len(rewards) != H:
            raise ValueError(f"episode {k}: a row of {len(row)} entries and {len(rewards)} "
                             f"rewards for H = {H} steps")
        # LinearMdp.cell of each step's (s, a), inline: a call per step costs
        # more than the product.
        cells = [s * A + a for s, a in zip(row[0::3], row[1::3])]
        for hh, j in enumerate(cells):
            if not 0 <= j < d:
                raise ValueError(f"episode {k}, step {hh + 1}: (s={row[3 * hh]}, "
                                 f"a={row[3 * hh + 1]}) has cell {j} outside [0, {d})")
        self._file_episode(k, row, rewards, cells)

    def _file_episode(self, k: int, row: list[int], rewards: list[float],
                      cells: list[int]) -> None:
        """File episode k with the H cells of its steps, each in [0, d): the
        run loop passes those LinearMdp.rollout returned, checked by its walk."""
        self.loc_episodes.append(k)
        self.loc_rows.append(row)
        self.loc_rewards.append(rewards)
        loc_cells, all_visits, covs, log_ratio = (self.loc_cells, self._visits,
                                                  self.qparams.cov, self._log_ratio)
        for hh in range(self.H):
            j = cells[hh]
            loc_cells[hh].append(j)
            visits = all_visits[hh]
            v = visits.get(j, 0)
            visits[j] = v + 1
            log_ratio[hh] += math.log1p(1.0 / (covs[hh].diag.item(j) + v))

    def record_transition(self, mdp: LinearMdp, t: Transition) -> None:
        """Record one step: the steps 1..H of an episode, given in order, are
        held until step H, then recorded as record_episode records them. A
        step outside [1, H] or out of order raises ValueError and changes
        nothing; an episode refused at its last step is dropped whole."""
        pending = self._pending
        if not 1 <= t.step <= self.H:
            raise ValueError(f"transition step {t.step} outside [1, {self.H}]")
        if t.step != len(pending) + 1 or (pending and t.episode != pending[0].episode):
            raise ValueError(f"transition (episode {t.episode}, step {t.step}) does not "
                             f"continue the {len(pending)} held steps")
        pending.append(t)
        if t.step == self.H:
            self._pending = []
            self.record_episode(mdp, t.episode,
                                [x for p in pending for x in (p.state, p.action, p.next_state)],
                                [p.reward for p in pending])

    def should_communicate(self) -> tuple[bool, Optional[int]]:
        """Determinant trigger at episode end.

        Fires iff det(cov_h + delta_h)/det(cov_h) strictly exceeds 1 + alpha
        for some h; returns the smallest such 1-based h. The comparison runs
        in log space with the boundary guard so a ratio exactly equal to
        1 + alpha never fires, matching the strict inequality.
        """
        for hh, log_ratio in enumerate(self._log_ratio):
            if log_ratio > self._log_ceiling:
                return True, hh + 1
        return False, None

    def reset_local(self) -> None:
        """Clear the local delta after an update (upload consumed it)."""
        self.loc_episodes, self.loc_rows, self.loc_rewards = [], [], []
        self.loc_cells = [[] for _ in range(self.H)]
        for visits in self._visits:
            visits.clear()
        self._log_ratio = [0.0] * self.H

    def local_cov_snapshot(self) -> list[Covariance]:
        """Per-h cov_h + local delta as new matrices, the local cells added in
        recording order: the reference for a no-communication local update,
        which own_history makes in place on cov_h, copying nothing."""
        snapshot = [cov.copy() for cov in self.qparams.cov]
        for cov, cells in zip(snapshot, self.loc_cells):
            cov.add_bases(cells)
        return snapshot

    def own_history(self) -> list[TransitionBatch]:
        """Absorb the local delta into this agent's own store and cov_h in
        place, once per delta (a second read before reset_local() is refused),
        and return the per-h batches, in episode order, of every transition
        this agent has taken; valid until the next call."""
        if self._own is None:
            self._own = TransitionStore(self.d, self.H)
        self._own.absorb(self, self.qparams.cov)
        return self._own.batches()

    # -- the backward update --------------------------------------------------

    def lsvi_backward_update(self, mdp: LinearMdp,
                             global_data: Sequence[TransitionBatch],
                             global_cov: Sequence[Covariance]) -> QParams:
        """Recompute all regression weights from the given global dataset.

        For h = H down to 1 the targets are r + max_a Q_{h+1}(s', a) with
        Q_{H+1} = 0, each max evaluated with the step-(h+1) parameters
        computed in this same pass; w_h solves the ridge normal equations
        against global_cov[h], which must equal ridge*I plus the sum of
        feature outer products over global_data[h]. The covariance snapshots
        are adopted as the agent's new cov_h, and the Q-table built on the
        way becomes the agent's q_table; V_1, which no step reads, is not
        computed. Callers reset the local delta afterwards.
        """
        qp = self.qparams
        S, A = mdp.n_states, mdp.n_actions
        # Every step's bonus row in one sqrt: elementwise, so the same bits.
        bonus = qp.beta * np.sqrt(np.array([cov.inv_diag for cov in global_cov]))
        q = np.empty((self.H, S, A))
        q_cells = q.reshape(self.H, self.d)  # a view: Q_h is written in place
        next_value = None  # value table for step h+1, None means zero
        for hh in range(self.H - 1, -1, -1):
            batch = global_data[hh]
            qp.cov[hh] = cov = global_cov[hh]
            # y = r + V_{h+1}(s'), a fresh contiguous array: the GEMV's input.
            # The gather indexes rather than takes: the store's next-state
            # column is strided, which take first copies.
            y = (batch.reward.copy() if next_value is None
                 else np.add(batch.reward, next_value[batch.next_state]))
            # The design is features[state, action] as one C-contiguous
            # (n, d) matrix, kept by a store or built once for the batch.
            # The GEMV gives a float64 (d,) vector: solve's checks would pass.
            # An empty batch gives zeros(d), which both classes solve to +0.0.
            cov._solve_into(batch.design(mdp).T @ y, qp.w[hh])
            q_h = self._clipped_q(hh, out=q_cells[hh], bonus=bonus[hh])
            if hh:  # V_h(s) = max_a Q_h(s, a) for the step below; no step reads V_1
                next_value = np.maximum.reduce(q_h.reshape(S, A), axis=1)
        self._q = q
        return qp


def theoretical_beta(d: int, H: int, M: int, K: int, alpha: float,
                     ridge: float, delta: float, c_beta: float) -> float:
    """The confidence-width formula from the regret analysis.

    beta = c_beta * d * H * C * [ log((2+K) / (delta * min(1, ridge,
    alpha*ridge))) + log(H * d * C) ] with C = M*sqrt(alpha) +
    sqrt(1 + M*alpha).
    """
    if min(d, H, M, K) < 1:
        raise ValueError("d, H, M, K must be positive integers")
    if alpha <= 0 or ridge <= 0:
        raise ValueError("alpha and ridge must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if c_beta < 0:
        raise ValueError("c_beta must be nonnegative")
    floor = delta * min(1.0, ridge, alpha * ridge)
    ratio = (2.0 + K) / floor if floor > 0.0 else math.inf
    if ratio == math.inf:
        raise ValueError(f"(2 + K) / (delta * min(1, ridge, alpha * ridge)) overflows "
                         f"float64 (alpha={alpha!r}, ridge={ridge!r}, delta={delta!r})")
    c_tilde = M * math.sqrt(alpha) + math.sqrt(1.0 + M * alpha)
    return c_beta * d * H * c_tilde * (math.log(ratio) + math.log(H * d * c_tilde))


def practical_beta(d: int, H: int, K: int, delta: float, c: float = 0.1) -> float:
    """Empirical-scale bonus multiplier used for simulation runs.

    The theoretical width is vacuous at desk scale; this follows the standard
    square-root-log scaling with a small constant.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return c * d * H * math.sqrt(math.log(2.0 * d * K * H / delta))
