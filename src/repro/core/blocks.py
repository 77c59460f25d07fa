"""Buffer-block finite state machines (Figure 6 of the paper).

Source-side block lifecycle::

    FREE --get_free_blk--> LOADING --data loaded--> LOADED
         --post WRITE ok--> WAITING --completion ok--> FREE
                                    --completion bad--> LOADED (re-send)

Sink-side block lifecycle::

    FREE --advertised / consumption event--> WAITING
         --finish notification--> READY --put_free_blk--> FREE

Illegal transitions raise :class:`BlockStateError`; the engines are
written so that a healthy run never triggers one, and the tests assert
the guards hold under hypothesis-generated call sequences.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Optional

from repro.core.messages import BlockHeader

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verbs.mr import MemoryRegion

__all__ = [
    "BlockStateError",
    "IDLE_STATES",
    "SourceBlock",
    "SourceBlockState",
    "SinkBlock",
    "SinkBlockState",
]


class BlockStateError(RuntimeError):
    """An FSM transition guard was violated."""


class SourceBlockState(enum.Enum):
    FREE = "free"
    LOADING = "loading"
    LOADED = "loaded"
    SENDING = "start_sending"
    WAITING = "waiting"
    #: The sink reported a checksum mismatch for the landed copy; the
    #: block's local copy is still valid and will be re-sent.
    NACKED = "nacked"


class SinkBlockState(enum.Enum):
    FREE = "free"
    WAITING = "waiting"
    READY = "data_ready"


#: The states a block may rest in at quiescence, per FSM: a source block
#: only FREE; a sink block FREE or WAITING (an advertised, unspent
#: credit).  Anything else is a leak (:meth:`BlockPool.audit`).
IDLE_STATES = {
    SourceBlockState: frozenset({SourceBlockState.FREE}),
    SinkBlockState: frozenset({SinkBlockState.FREE, SinkBlockState.WAITING}),
}


class SourceBlock:
    """A registered source-side buffer block."""

    __slots__ = ("block_id", "mr", "state", "header", "payload")

    def __init__(self, block_id: int, mr: "MemoryRegion") -> None:
        self.block_id = block_id
        self.mr = mr
        self.state = SourceBlockState.FREE
        self.header: Optional[BlockHeader] = None
        self.payload: Any = None

    def _expect(self, *allowed: SourceBlockState) -> None:
        if self.state not in allowed:
            raise BlockStateError(
                f"source block {self.block_id}: illegal transition from "
                f"{self.state.value} (expected {[s.value for s in allowed]})"
            )

    def reserve(self) -> "SourceBlock":
        """FREE → LOADING (application claimed the block via get_free_blk)."""
        self._expect(SourceBlockState.FREE)
        self.state = SourceBlockState.LOADING
        return self

    def loaded(self, header: BlockHeader, payload: Any = None) -> None:
        """LOADING → LOADED (payload now resides in the registered region)."""
        self._expect(SourceBlockState.LOADING)
        self.header = header
        self.payload = payload
        self.state = SourceBlockState.LOADED

    def sending(self) -> None:
        """LOADED → SENDING (task being encapsulated and posted)."""
        self._expect(SourceBlockState.LOADED)
        self.state = SourceBlockState.SENDING

    def waiting(self) -> None:
        """SENDING → WAITING (WR posted successfully; content in flight)."""
        self._expect(SourceBlockState.SENDING)
        self.state = SourceBlockState.WAITING

    def release(self) -> None:
        """WAITING → FREE (completion polled successfully)."""
        self._expect(SourceBlockState.WAITING)
        self.header = None
        self.payload = None
        self.state = SourceBlockState.FREE

    def resend(self) -> None:
        """WAITING → LOADED (completion failed; data still valid)."""
        self._expect(SourceBlockState.WAITING)
        self.state = SourceBlockState.LOADED

    def nacked(self) -> None:
        """WAITING → NACKED (sink reported a checksum mismatch)."""
        self._expect(SourceBlockState.WAITING)
        self.state = SourceBlockState.NACKED

    def reload(self) -> None:
        """NACKED → LOADED (the still-valid local copy re-enters the send
        path — the Fig. 6 extension for selective block repair)."""
        self._expect(SourceBlockState.NACKED)
        self.state = SourceBlockState.LOADED

    def scrap(self) -> None:
        """any non-FREE → FREE (session aborted; contents abandoned).

        Unlike :meth:`release` this is legal from every in-use state —
        abort can catch a block mid-load, loaded, or awaiting completion.
        """
        self._expect(
            SourceBlockState.LOADING,
            SourceBlockState.LOADED,
            SourceBlockState.SENDING,
            SourceBlockState.WAITING,
            SourceBlockState.NACKED,
        )
        self.header = None
        self.payload = None
        self.state = SourceBlockState.FREE


class SinkBlock:
    """A registered sink-side buffer block (a credit's backing store)."""

    __slots__ = ("block_id", "mr", "state", "header", "payload")

    def __init__(self, block_id: int, mr: "MemoryRegion") -> None:
        self.block_id = block_id
        self.mr = mr
        self.state = SinkBlockState.FREE
        self.header: Optional[BlockHeader] = None
        self.payload: Any = None

    def _expect(self, *allowed: SinkBlockState) -> None:
        if self.state not in allowed:
            raise BlockStateError(
                f"sink block {self.block_id}: illegal transition from "
                f"{self.state.value} (expected {[s.value for s in allowed]})"
            )

    def advertise(self) -> "SinkBlock":
        """FREE → WAITING (credit for this block sent to the source)."""
        self._expect(SinkBlockState.FREE)
        self.state = SinkBlockState.WAITING
        return self

    def finish(self, header: BlockHeader, payload: Any = None) -> None:
        """WAITING → READY (finish notification for this block arrived)."""
        self._expect(SinkBlockState.WAITING)
        self.header = header
        self.payload = payload
        self.state = SinkBlockState.READY

    def consume(self) -> Any:
        """READY → FREE (application took the payload via get_ready_blk +
        put_free_blk)."""
        self._expect(SinkBlockState.READY)
        payload = self.payload
        self.header = None
        self.payload = None
        self.state = SinkBlockState.FREE
        return payload

    def revoke(self) -> None:
        """WAITING → FREE (advertised credit withdrawn; no data landed).

        Used by the stale-session collector: a credit granted to a dead
        source will never be written into, so the block goes straight
        back to the free pool.
        """
        self._expect(SinkBlockState.WAITING)
        self.header = None
        self.payload = None
        self.state = SinkBlockState.FREE
