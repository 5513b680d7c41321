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
from bisect import bisect_right
from dataclasses import dataclass
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


# One Transition as a record; a TransitionStore keeps its rows in this dtype.
TRANSITION_ROW = np.dtype([(name, np.float64 if name == "reward" else np.int64)
                           for name in Transition._fields])
# The same records as opaque bytes: a take or copy of these moves whole rows
# without a per-field conversion, several times faster, and with equal bytes.
_RAW_ROW = np.dtype((np.void, TRANSITION_ROW.itemsize))


@dataclass
class TransitionBatch:
    """Column-oriented transitions for one step h, kept in episode order.

    The regression in the backward update is vectorized over these columns;
    the per-record Transition type remains the unit of bookkeeping. ``phis``
    is the one-hot design of the rows, a store's view of the design it keeps,
    or None until ``design`` builds it.
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
    def from_rows(cls, rows: np.ndarray, phis: Optional[np.ndarray] = None) -> "TransitionBatch":
        """Column views of a TRANSITION_ROW record array, with its design."""
        return cls(rows["episode"], rows["state"], rows["action"], rows["reward"],
                   rows["next_state"], phis)

    @classmethod
    def from_transitions(cls, transitions: Sequence[Transition]) -> "TransitionBatch":
        return cls.from_rows(np.array(list(transitions), TRANSITION_ROW))


class TransitionStore:
    """Every transition ever stored for one step h, as episode-ordered rows,
    with the one-hot design of those rows.

    ``extend`` refuses a cell index that is not an integer in [0, d) before
    it changes anything, then files the new rows, one record assignment
    each, into a record array that doubles its capacity when full, fills
    their design rows from the identity with one take, and re-sorts records
    and design by episode (stably, from the first stored row a new one
    precedes) only when the new rows break episode order. ``batch`` returns
    column views and the (n, d) design view, valid until the next
    ``extend``; callers share it and must not write to it.
    """

    def __init__(self, d: int) -> None:
        self._eye = identity(d)
        self._rows = np.empty(0, TRANSITION_ROW)
        self._design = np.empty((0, d))
        self._view = TransitionBatch.from_rows(self._rows, self._design)

    def extend(self, ts: Sequence[Transition], cells: Sequence[int]) -> None:
        """Add transitions with their cell indices j (phi = e_j), aligned."""
        if len(ts) != len(cells):
            raise ValueError(f"{len(ts)} transitions with {len(cells)} cell indices")
        if not ts:
            return
        d = self._eye.shape[0]
        for j in cells:  # as DiagonalPsdMatrix.add_bases checks them
            if type(j) is not int or not 0 <= j < d:
                _check_basis_index(j, d)  # numpy integers pass; the rest raise
        n0 = len(self._view)
        n = n0 + len(ts)
        if n > len(self._rows):
            capacity = max(n, 2 * len(self._rows))
            grown = np.empty(capacity, TRANSITION_ROW)
            grown[:n0] = self._rows[:n0]
            design = np.empty((capacity, d))
            design[:n0] = self._design[:n0]
            self._rows, self._design = grown, design
        rows, design = self._rows, self._design
        # A tuple per record assignment converts the fields as a slice
        # assignment of the list does, with equal bytes, and costs less: a
        # third as much for one row, and less at every size measured.
        for i, t in enumerate(ts, n0):
            rows[i] = t
        self._eye.take(cells, axis=0, out=design[n0:n])
        # The order check runs on Python ints from the last stored row on: an
        # upload usually brings a few rows, where numpy's overhead dominates.
        ep = rows["episode"]
        eps = ep[max(n0 - 1, 0):n].tolist()
        if any(map(operator.gt, eps, eps[1:])):
            # A bisection over the strided field's buffer: half the time of
            # np.searchsorted on a view of it.
            lo = bisect_right(memoryview(ep), min(eps), 0, n0)
            order = np.argsort(ep[lo:n], kind="stable")
            raw = rows[lo:n].view(_RAW_ROW)
            raw[:] = raw.take(order)
            design[lo:n] = design[lo:n].take(order, axis=0)
        self._view = TransitionBatch.from_rows(rows[:n], design[:n])

    def batch(self) -> TransitionBatch:
        return self._view


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
    pure function of (s, h). Local accumulation tracks, per step h, the cell
    indices j (phi = e_j, mdp.LinearMdp.cell) recorded since the last update,
    the visits per cell among them, and the trigger's statistic: cov_h is
    ridge * I plus visit counts, so the v+1-th local visit to cell j multiplies
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
        # Per-h local delta since last update: cell indices + aligned transitions.
        self.loc_cells: list[list[int]] = [[] for _ in range(H)]
        self.loc_transitions: list[list[Transition]] = [[] for _ in range(H)]
        # Per h, visits per cell in loc_cells, and log det(cov_h + delta_h) / det cov_h.
        self._visits: list[dict[int, int]] = [{} for _ in range(H)]
        self._log_ratio = [0.0] * H
        # Own-trajectory history per h, built and filled by own_history (read
        # only by the no-communication refit), so it stays an empty list under
        # the other protocols; _own_moved counts rows already moved.
        self._own: list[TransitionStore] = []
        self._own_moved = [0] * H
        # (H, S, A) table of the current parameters; None until first built.
        self._q: Optional[np.ndarray] = None

    # -- read-only evaluation ------------------------------------------------

    def _clipped_q(self, hh: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """(d,) truncated optimistic Q estimates of every cell j at 0-based
        step hh, in ``out`` if given; the one place the Q-function is evaluated.

        For phi(s, a) = e_j (mdp.LinearMdp.cell) the formula above is
        w_h[j] + beta * sqrt((cov_h^-1)_jj) for any SPD cov_h. The feature
        products eye(d) @ w_h and eye(d)'s row-wise quadratic form only add
        exact zeros to those two, for dense covariances too: same bits.
        """
        qp = self.qparams
        raw = np.add(qp.w[hh], qp.beta * np.sqrt(qp.cov[hh].inv_diag), out=out)
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

    def record_transition(self, mdp: LinearMdp, t: Transition) -> None:
        if not 1 <= t.step <= self.H:
            raise ValueError(f"transition step {t.step} outside [1, {self.H}]")
        hh = t.step - 1
        j = mdp.cell(t.state, t.action)
        if not 0 <= j < self.d:
            raise ValueError(f"transition (s={t.state}, a={t.action}) has cell {j} "
                             f"outside [0, {self.d})")
        self.loc_cells[hh].append(j)
        self.loc_transitions[hh].append(t)
        v = self._visits[hh].get(j, 0)
        self._visits[hh][j] = v + 1
        self._log_ratio[hh] += math.log1p(1.0 / (self.qparams.cov[hh].diag.item(j) + v))

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
        self.loc_cells = [[] for _ in range(self.H)]
        self.loc_transitions = [[] for _ in range(self.H)]
        self._visits = [{} for _ in range(self.H)]
        self._log_ratio = [0.0] * self.H
        self._own_moved = [0] * self.H

    def local_cov_snapshot(self) -> list[Covariance]:
        """Per-h cov_h + local delta as new matrices, the local cells added in
        recording order: what a no-communication learner adopts when its
        trigger fires."""
        snapshot = [cov.copy() for cov in self.qparams.cov]
        for cov, cells in zip(snapshot, self.loc_cells):
            cov.add_bases(cells)
        return snapshot

    def own_history(self) -> list[TransitionBatch]:
        """Per-h batches, in episode order, of every transition this agent
        has taken, provided each local delta was read here before
        reset_local() cleared it (as the no-communication refit does); valid
        until the next call."""
        if not self._own:
            self._own = [TransitionStore(self.d) for _ in range(self.H)]
        for hh, (store, ts, cells) in enumerate(zip(self._own, self.loc_transitions,
                                                    self.loc_cells)):
            moved = self._own_moved[hh]
            store.extend(ts[moved:], cells[moved:])
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
        q = np.empty((self.H, S, A))
        q_cells = q.reshape(self.H, self.d)  # a view: Q_h is written in place
        next_value = None  # value table for step h+1, None means zero
        for hh in range(self.H - 1, -1, -1):
            batch = global_data[hh]
            qp.cov[hh] = cov = global_cov[hh]
            if len(batch) > 0:
                # y = r + V_{h+1}(s'), a fresh contiguous array: the GEMV's input.
                y = (batch.reward.copy() if next_value is None
                     else np.add(batch.reward, next_value.take(batch.next_state)))
                # The design is features[state, action] as one C-contiguous
                # (n, d) matrix, kept by a store or built once for the batch.
                cov.solve(batch.design(mdp).T @ y, out=qp.w[hh])
            else:
                qp.w[hh] = 0.0
            # Value table V_h(s) = max_a Q_h(s, a) for the step below.
            next_value = np.maximum.reduce(
                self._clipped_q(hh, out=q_cells[hh]).reshape(S, A), axis=1)
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
