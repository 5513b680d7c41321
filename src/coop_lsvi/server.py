"""Central server state and the communication protocols.

The server aggregates, per step h, a covariance matrix (initialized to
ridge * I so a refit can adopt a downloaded copy wholesale), and one
deduplicated, episode-ordered global store of whole episodes. One
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
    """A duplicate episode upload; indicates a harness bug."""


class CentralServer:
    """Aggregated covariance and transition store, mutated strictly in turn."""

    def __init__(self, d: int, H: int, ridge: float):
        self.d = d
        self.H = H
        self.ridge = ridge
        self.cov: list[Covariance] = [DiagonalPsdMatrix(d, ridge) for _ in range(H)]
        # The global store plus the set of its episode keys.
        self._store = TransitionStore(d, H)
        self._episodes: set[int] = set()

    def upload(self, agent: "LsviAgent") -> None:
        """Absorb the agent's buffered local delta (buffer is not cleared here).

        Each buffered episode is inserted under its episode key, and each of
        its steps adds e_j e_j^T for its cell index j to that step's
        covariance, in buffer order. Every episode is uploaded by exactly one
        agent exactly once, so a key collision, with the store or within the
        buffer, is fatal. It is found, like a cell index the store refuses
        (ValueError), before anything changes, and names the first colliding
        episode.
        """
        episodes = agent.loc_episodes
        new = set(episodes)
        if len(new) < len(episodes) or not self._episodes.isdisjoint(new):
            seen = set()
            for k in episodes:
                if k in self._episodes or k in seen:
                    raise ProtocolViolation(f"duplicate upload for episode {k}")
                seen.add(k)
        self._store.extend(episodes, agent.loc_rows, agent.loc_rewards, agent.loc_cells)
        self._episodes |= new
        for cov, cells in zip(self.cov, agent.loc_cells):
            cov.add_bases(cells)

    def download(self) -> tuple[list[Covariance], list[TransitionBatch]]:
        """Per-h covariance snapshots and the full global store.

        The snapshots are copies the caller may adopt (the backward update
        installs them as the agent's covariance); the batches are sorted by
        episode, ready for that update, and stay valid until the next upload.
        """
        return [c.copy() for c in self.cov], self._store.batches()


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
