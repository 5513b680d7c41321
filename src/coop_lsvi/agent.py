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
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .mdp import LinearMdp
from .psdmat import Covariance, PsdMatrix

# Strictness guard for the determinant trigger. One-hot features make the
# determinant ratio a product of small rationals, so it lands EXACTLY on the
# 1 + alpha boundary in real arithmetic routinely (e.g. (3/2)*(4/3) = 2); the
# strict inequality must then not fire. Float paths resolve such ties either
# way within ~1e-12 in log space, so genuine exceedances are required to clear
# the threshold by this margin (far below any true nonzero rational gap).
TRIGGER_LOG_TOLERANCE = 1e-11


class Transition(NamedTuple):
    """One environment step; ``step`` is the 1-based h index."""

    episode: int
    step: int
    state: int
    action: int
    reward: float
    next_state: int


# One Transition as a record; a TransitionStore keeps its rows in this dtype.
TRANSITION_ROW = np.dtype([(name, np.float64 if name == "reward" else np.int64)
                           for name in Transition._fields])


@dataclass
class TransitionBatch:
    """Column-oriented transitions for one step h, kept in episode order.

    The regression in the backward update is vectorized over these columns;
    the per-record Transition type remains the unit of bookkeeping.
    """

    episode: np.ndarray
    state: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    next_state: np.ndarray

    def __len__(self) -> int:
        return self.episode.shape[0]

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "TransitionBatch":
        """Column views of a TRANSITION_ROW record array."""
        return cls(rows["episode"], rows["state"], rows["action"], rows["reward"],
                   rows["next_state"])

    @classmethod
    def empty(cls) -> "TransitionBatch":
        return cls.from_rows(np.empty(0, TRANSITION_ROW))

    @classmethod
    def from_transitions(cls, transitions: Sequence[Transition]) -> "TransitionBatch":
        return cls.from_rows(np.array(list(transitions), TRANSITION_ROW))


class TransitionStore:
    """Every transition ever stored for one step h, as episode-ordered rows.

    ``add`` is a list append, so the per-step recording path stays cheap.
    ``batch`` moves only the rows added since its last call, in one
    assignment, into a record array that doubles its capacity when full, and
    re-sorts by episode (stably, from the first stored row a new one precedes)
    only when the new rows break episode order. The batch it returns holds
    column views that stay valid until the next ``add``; callers share it and
    must not write to it.
    """

    def __init__(self) -> None:
        self._pending: list[Transition] = []
        self._rows = np.empty(0, TRANSITION_ROW)
        self._view = TransitionBatch.empty()

    def add(self, t: Transition) -> None:
        self._pending.append(t)

    def batch(self) -> TransitionBatch:
        new = self._pending
        if not new:
            return self._view
        self._pending = []
        n0 = len(self._view)
        n = n0 + len(new)
        if n > len(self._rows):
            grown = np.empty(max(n, 2 * len(self._rows)), TRANSITION_ROW)
            grown[:n0] = self._rows[:n0]
            self._rows = grown
        rows = self._rows
        rows[n0:n] = new
        # The order check runs on Python ints from the last stored row on: a
        # download usually brings a few rows, where numpy's overhead dominates.
        ep = rows["episode"]
        eps = ep[max(n0 - 1, 0):n].tolist()
        if any(map(operator.gt, eps, eps[1:])):
            lo = int(np.searchsorted(ep[:n0], min(eps), side="right"))
            rows[lo:n] = rows[lo:n][np.argsort(ep[lo:n], kind="stable")]
        self._view = TransitionBatch.from_rows(rows[:n])
        return self._view


class QParams:
    """Regression weights, covariance snapshots (of class ``cov_cls``), and the
    bonus multiplier."""

    __slots__ = ("w", "cov", "beta")

    def __init__(self, d: int, H: int, ridge: float, beta: float, cov_cls: type = PsdMatrix):
        self.w = np.zeros((H, d))
        self.cov: list[Covariance] = [cov_cls(d, ridge) for _ in range(H)]
        self.beta = float(beta)


class LsviAgent:
    """One agent's state and operations.

    Between parameter updates the Q-function is frozen, so greedy acting is a
    pure function of (s, h). Local accumulation tracks, per step h, the cell
    indices j (phi = e_j, mdp.LinearMdp.cell) of the transitions since the
    last update plus a scratch SPD matrix equal to cov_h + sum of their
    e_j e_j^T; the scratch is built lazily and kept incremental so the
    determinant trigger is O(H) per episode.
    """

    def __init__(self, agent_id: int, d: int, H: int, alpha: float, ridge: float, beta: float,
                 cov_cls: type = PsdMatrix):
        self.agent_id = agent_id
        self.d = d
        self.H = H
        self.alpha = float(alpha)
        self.qparams = QParams(d, H, ridge, beta, cov_cls)
        self._log_threshold = math.log1p(self.alpha)
        # Per-h local delta since last update: cell indices + aligned transitions.
        self.loc_cells: list[list[int]] = [[] for _ in range(H)]
        self.loc_transitions: list[list[Transition]] = [[] for _ in range(H)]
        self._scratch: list[Optional[Covariance]] = [None] * H
        # Own-trajectory history per h, built and filled by own_history (read
        # only by the no-communication refit), so it stays an empty list under
        # the other protocols; _own_moved counts rows already moved.
        self._own: list[TransitionStore] = []
        self._own_moved = [0] * H
        # (H, S, A) table of the current parameters; None until first built.
        self._q: Optional[np.ndarray] = None

    # -- read-only evaluation ------------------------------------------------

    def _clipped_q(self, hh: int) -> np.ndarray:
        """(d,) truncated optimistic Q estimates of every cell j at 0-based
        step hh; the one place the Q-function is evaluated.

        For phi(s, a) = e_j (mdp.LinearMdp.cell) the formula above is
        w_h[j] + beta * sqrt((cov_h^-1)_jj) for any SPD cov_h. The feature
        products eye(d) @ w_h and eye(d)'s row-wise quadratic form only add
        exact zeros to those two, for dense covariances too: same bits.
        """
        qp = self.qparams
        raw = qp.w[hh] + qp.beta * np.sqrt(qp.cov[hh].inv_diag)
        # The method calls np.clip's ufunc without its dispatch wrapper; unlike
        # np.maximum/np.minimum, that ufunc keeps a -0.0 inside the bounds.
        return raw.clip(0.0, self.H - hh, out=raw)

    def action_values(self, mdp: LinearMdp, s: int, h: int) -> np.ndarray:
        """Vector of truncated Q estimates over all actions at state s."""
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
        eye = np.eye(self.d)
        eye.setflags(write=False)
        return [[eye[j] for j in cells] for cells in self.loc_cells]

    def record_transition(self, mdp: LinearMdp, t: Transition) -> None:
        if not 1 <= t.step <= self.H:
            raise ValueError(f"transition step {t.step} outside [1, {self.H}]")
        hh = t.step - 1
        j = mdp.cell(t.state, t.action)
        self.loc_cells[hh].append(j)
        self.loc_transitions[hh].append(t)
        if self._scratch[hh] is not None:
            self._scratch[hh].add_basis(j)

    def _ensure_scratch(self, hh: int) -> Covariance:
        if self._scratch[hh] is None:
            scratch = self.qparams.cov[hh].copy()
            for j in self.loc_cells[hh]:
                scratch.add_basis(j)
            self._scratch[hh] = scratch
        return self._scratch[hh]

    def should_communicate(self) -> tuple[bool, Optional[int]]:
        """Determinant trigger at episode end.

        Fires iff det(cov_h + delta_h)/det(cov_h) strictly exceeds 1 + alpha
        for some h; returns the smallest such 1-based h. The comparison runs
        in log space with the boundary guard so a ratio exactly equal to
        1 + alpha never fires, matching the strict inequality.
        """
        for hh in range(self.H):
            if not self.loc_cells[hh]:
                continue
            delta = self._ensure_scratch(hh).logdet - self.qparams.cov[hh].logdet
            if delta > self._log_threshold + TRIGGER_LOG_TOLERANCE:
                return True, hh + 1
        return False, None

    def reset_local(self) -> None:
        """Clear the local delta after an update (upload consumed it)."""
        self.loc_cells = [[] for _ in range(self.H)]
        self.loc_transitions = [[] for _ in range(self.H)]
        self._scratch = [None] * self.H
        self._own_moved = [0] * self.H

    def local_cov_snapshot(self) -> list[Covariance]:
        """Per-h cov_h + local delta, handing off the scratch objects.

        This is the covariance a no-communication learner adopts when its
        trigger fires; callers must reset_local() afterwards so the handed-off
        matrices are no longer aliased as scratch.
        """
        return [self._ensure_scratch(hh) for hh in range(self.H)]

    def own_history(self) -> list[TransitionBatch]:
        """Per-h batches, in episode order, of every transition this agent
        has taken, provided each local delta was read here before
        reset_local() cleared it (as the no-communication refit does); valid
        until the next call."""
        if not self._own:
            self._own = [TransitionStore() for _ in range(self.H)]
        for hh, (store, ts) in enumerate(zip(self._own, self.loc_transitions)):
            for t in ts[self._own_moved[hh]:]:
                store.add(t)
            self._own_moved[hh] = len(ts)
        return [store.batch() for store in self._own]

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
        way becomes the agent's q_table. Callers reset the local delta
        afterwards.
        """
        qp = self.qparams
        S, A = mdp.n_states, mdp.n_actions
        # Row j of the flat table is phi of cell j; taking the rows gives the
        # same C-contiguous (n, d) design matrix as features[state, action],
        # so phis.T @ y has the same bits, without fancy indexing's overhead.
        feats_flat = mdp.features.reshape(S * A, self.d)
        q = np.empty((self.H, S, A))
        next_value = None  # value table for step h+1, None means zero
        for hh in range(self.H - 1, -1, -1):
            batch = global_data[hh]
            cov = global_cov[hh]
            qp.w[hh] = 0.0
            if len(batch) > 0:
                y = batch.reward.copy()
                if next_value is not None:
                    y += next_value[batch.next_state]
                phis = feats_flat.take(mdp.cell(batch.state, batch.action), axis=0)
                qp.w[hh] = cov.solve(phis.T @ y)
            qp.cov[hh] = cov
            # Value table V_h(s) = max_a Q_h(s, a) for the step below.
            q[hh] = self._clipped_q(hh).reshape(S, A)
            next_value = q[hh].max(axis=1)
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
    c_tilde = M * math.sqrt(alpha) + math.sqrt(1.0 + M * alpha)
    log_term = math.log((2.0 + K) / (delta * min(1.0, ridge, alpha * ridge)))
    return c_beta * d * H * c_tilde * (log_term + math.log(H * d * c_tilde))


def practical_beta(d: int, H: int, K: int, delta: float, c: float = 0.1) -> float:
    """Empirical-scale bonus multiplier used for simulation runs.

    The theoretical width is vacuous at desk scale; this follows the standard
    square-root-log scaling with a small constant.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return c * d * H * math.sqrt(math.log(2.0 * d * K * H / delta))
