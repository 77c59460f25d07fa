"""Completion queues and completion channels.

A :class:`CompletionQueue` collects :class:`~repro.verbs.wr.WorkCompletion`
entries from the NIC.  Applications either busy-poll (:meth:`poll`, cheap
per CQE, burns a little CPU when empty) or block on a
:class:`CompletionChannel` (:meth:`wait`, one interrupt-cost wakeup per
event batch) — the trade-off behind the paper's observation that larger
blocks mean fewer interrupts and lower CPU.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Generator, List, Optional, Tuple

from repro.sim.events import Event, Timeout
from repro.verbs.errors import CqOverflowError
from repro.verbs.wr import WorkCompletion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.cpu import CpuThread
    from repro.verbs.device import Device

__all__ = ["CompletionQueue", "CompletionChannel"]


class CompletionQueue:
    """A bounded queue of work completions."""

    def __init__(self, device: "Device", depth: int = 4096) -> None:
        if depth < 1:
            raise ValueError("CQ depth must be >= 1")
        self.device = device
        self.engine = device.engine
        self.depth = depth
        self._entries: Deque[WorkCompletion] = deque()
        self.channel: Optional[CompletionChannel] = None
        self.overflows = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- producer side (called by QPs / NIC logic) -----------------------------
    def push(self, wc: WorkCompletion) -> None:
        """Add a completion; notify any armed channel.

        Raises :class:`~repro.verbs.errors.CqOverflowError` when the CQ
        is already full — an overflow means the run mis-sized its
        queues, and the old silent drop turned that into an undebuggable
        hang.  The ``cq.overflow`` counter is registered lazily so a
        healthy run's metrics export is untouched.
        """
        wc.timestamp = self.engine.now
        if len(self._entries) >= self.depth:
            self.overflows += 1
            self.engine.metrics.counter("cq.overflow").add()
            raise CqOverflowError(
                f"CQ depth {self.depth} exceeded (wr_id={wc.wr_id})"
            )
        self._entries.append(wc)
        if self.channel is not None:
            self.channel._notify()

    # -- consumer side -----------------------------------------------------------
    def _reap(self, max_entries: int) -> List[WorkCompletion]:
        entries = self._entries
        return [entries.popleft() for _ in range(min(max_entries, len(entries)))]

    def poll(self, thread: "CpuThread", max_entries: int = 16):
        """Process event: reap up to ``max_entries`` completions.

        Charges per-CQE poll cost (or the empty-poll cost) to ``thread``
        and resolves to a list of completions (possibly empty).  The
        batch is reaped now and rides as the value of the CPU-chunk
        timer; when ``exec`` returns a process instead (a contended core,
        or the discrete engine) a bridge process carries it.
        """
        profile = self.device.arch_profile
        batch = self._reap(max_entries)
        cost = len(batch) * profile.poll_cqe_seconds if batch else profile.poll_empty_seconds
        ev = thread.exec(cost)
        if isinstance(ev, Timeout):
            ev._value = batch
            return ev

        def _bridge() -> Generator:
            yield ev
            return batch

        return self.engine.process(_bridge())


class CompletionChannel:
    """Event-driven notification (``ibv_get_cq_event`` analogue)."""

    def __init__(self, cq: CompletionQueue) -> None:
        if cq.channel is not None:
            raise RuntimeError("CQ already has a completion channel")
        self.cq = cq
        self.engine = cq.engine
        cq.channel = self
        #: ``(thread, done)`` of the one process blocked in :meth:`wait`.
        self._waiter: Optional[Tuple["CpuThread", Event]] = None

    def _wake_cost(self) -> float:
        device = self.cq.device
        return device.host.spec.interrupt_seconds + device.arch_profile.cq_event_seconds

    def _notify(self) -> None:
        if self._waiter is not None:
            (thread, done), self._waiter = self._waiter, None
            # The interrupt + event charge starts the instant the CQE
            # lands, on the waiting thread.  The waiter resumes in a chunk
            # record's own dispatch, or through ``done`` from a process.
            chunk = thread.exec(self._wake_cost())
            if isinstance(chunk, Timeout):
                chunk.callbacks += done.callbacks
            else:
                chunk.add_callback(done.trigger)

    def wait(self, thread: "CpuThread") -> Event:
        """Event that fires once the CQ is non-empty and the wakeup is paid.

        Charges one interrupt-wakeup cost when the event fires; returns
        immediately (still charging the wakeup) if completions are already
        pending — matching the ack-and-rearm dance of the real API.
        """
        if len(self.cq):
            return thread.exec(self._wake_cost())
        if self._waiter is not None:
            raise RuntimeError("completion channel supports one waiter")
        done = Event(self.engine)
        self._waiter = (thread, done)
        return done
