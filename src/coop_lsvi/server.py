"""Central server state and the communication protocols.

The server aggregates, per step h, a covariance matrix (initialized to
ridge * I so a refit can adopt a downloaded copy wholesale) and a
deduplicated, episode-ordered global transition store. One
communication round is one paired upload + download by a single agent.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from .agent import TransitionBatch, TransitionStore
from .psdmat import Covariance, DiagonalPsdMatrix

if TYPE_CHECKING:
    from .agent import LsviAgent


class ProtocolKind(Enum):
    """When agents exchange data with the server.

    ASYNC_TRIGGER: the determinant-triggered asynchronous protocol.
    SYNC_ROUND_ROBIN: any trigger forces all agents to upload then download.
    FULL_SYNC: every agent communicates at the end of every episode.
    NO_COMM: never communicates; an agent still refits locally on trigger.
    """

    ASYNC_TRIGGER = "async_trigger"
    SYNC_ROUND_ROBIN = "sync_round_robin"
    FULL_SYNC = "full_sync"
    NO_COMM = "no_comm"


class Decision(Enum):
    """Episode-end outcome of the governing protocol for the active agent."""

    NONE = "none"
    COMMUNICATE = "communicate"
    LOCAL_UPDATE = "local_update"
    SYNC_ALL = "sync_all"


class ProtocolViolation(RuntimeError):
    """A duplicate (episode, step) upload; indicates a harness bug."""


class CentralServer:
    """Aggregated covariance and transition store, mutated strictly in turn."""

    def __init__(self, d: int, H: int, ridge: float):
        self.d = d
        self.H = H
        self.ridge = ridge
        self.cov: list[Covariance] = [DiagonalPsdMatrix(d, ridge) for _ in range(H)]
        # Per h: the global store plus the set of its episode keys.
        self._store = [TransitionStore(d) for _ in range(H)]
        self._episodes: list[set[int]] = [set() for _ in range(H)]

    def upload(self, agent: "LsviAgent") -> None:
        """Absorb the agent's buffered local delta (buffer is not cleared here).

        Each buffered transition adds e_j e_j^T for its cell index j to the
        covariance, in buffer order, and is inserted under its episode key.
        Every episode is uploaded by exactly one agent exactly once, so a key
        collision, with the store or within the buffer, is fatal. It is found,
        like a cell index the store refuses (ValueError), before step h
        changes, and names the first colliding transition.
        """
        for hh in range(self.H):
            ts = agent.loc_transitions[hh]
            episodes = self._episodes[hh]
            new = {t.episode for t in ts}
            if len(new) < len(ts) or not episodes.isdisjoint(new):
                seen = set()
                for t in ts:
                    if t.episode in episodes or t.episode in seen:
                        raise ProtocolViolation(
                            f"duplicate upload for episode {t.episode}, step {t.step}")
                    seen.add(t.episode)
            self._store[hh].extend(ts, agent.loc_cells[hh])
            episodes |= new
            self.cov[hh].add_bases(agent.loc_cells[hh])

    def download(self) -> tuple[list[Covariance], list[TransitionBatch]]:
        """Per-h covariance snapshots and the full global store.

        The snapshots are copies the caller may adopt (the backward update
        installs them as the agent's covariance); the batches are sorted by
        episode, ready for that update, and stay valid until the next upload.
        """
        return [c.copy() for c in self.cov], [store.batch() for store in self._store]


def protocol_decide(kind: ProtocolKind, trigger_fired: bool) -> Decision:
    """Map the protocol and the agent's determinant trigger to an action.

    NO_COMM never touches the server but still refits from purely local data
    when the trigger fires (a local low-switching learner); SYNC_ROUND_ROBIN
    turns any trigger into a mandated all-agent synchronization.
    """
    if kind is ProtocolKind.FULL_SYNC:
        return Decision.COMMUNICATE
    if kind is ProtocolKind.ASYNC_TRIGGER:
        return Decision.COMMUNICATE if trigger_fired else Decision.NONE
    if kind is ProtocolKind.NO_COMM:
        return Decision.LOCAL_UPDATE if trigger_fired else Decision.NONE
    if kind is ProtocolKind.SYNC_ROUND_ROBIN:
        return Decision.SYNC_ALL if trigger_fired else Decision.NONE
    raise ValueError(f"unknown protocol kind {kind!r}")
