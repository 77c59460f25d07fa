"""Multi-core CPU model with per-group utilisation accounting.

The model is intentionally simple and deterministic:

- A host owns ``cores`` identical cores, managed as a FIFO
  :class:`~repro.sim.resources.Resource`.
- Application code runs on :class:`CpuThread` objects.  A thread executes
  *compute chunks* (``yield thread.exec(seconds)``): it acquires a core,
  holds it for the chunk duration, and releases it.  Because one thread
  executes chunks serially, a single-threaded application can never exceed
  100 % of one core — the GridFTP bottleneck the paper diagnoses.
- Kernel work that does not block the application thread (softirq
  processing, interrupt handlers running on other cores) is charged with
  :meth:`CpuScheduler.charge_background`: it contributes to utilisation
  accounting without contending for the caller's core.  This matches the
  paper's nmon numbers where GridFTP "consumes more than 100 % of the CPU
  resource" while its lone application thread saturates one core.

Utilisation is reported in the nmon convention used by the paper: percent
of a single core, so a 12-core host tops out at 1200 %.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Dict, Generator, Optional

from repro.sim.events import Timeout
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = ["CpuScheduler", "CpuThread"]

_INF = float("inf")


class CpuScheduler:
    """Schedules compute chunks onto a finite pool of cores."""

    def __init__(self, engine: "Engine", cores: int) -> None:
        if cores < 1:
            raise ValueError("a host needs at least one core")
        self.engine = engine
        self.cores = cores
        self._pool = Resource(engine, capacity=cores)
        #: Busy-core-seconds per accounting group ("app", "kernel", ...).
        self._group_busy: Dict[str, float] = {}
        self._epoch = engine.now

    # -- execution -----------------------------------------------------------
    def run_chunk(self, seconds: float, group: str) -> Generator:
        """Process generator: occupy one core for ``seconds``."""
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        if seconds == 0:
            return
        yield self._pool.request()
        try:
            yield self.engine.timeout(seconds)
        finally:
            self._pool.release()
            self._charge(group, seconds)

    def charge_background(self, seconds: float, group: str = "kernel") -> None:
        """Account CPU time that runs concurrently on spare cores.

        This does not occupy a core slot (we assume interrupt/softirq work
        spreads over otherwise-idle cores); it only affects the utilisation
        report.  Use sparingly — only for work that genuinely does not gate
        the charging thread.
        """
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        self._charge(group, seconds)

    def _charge(self, group: str, seconds: float) -> None:
        self._group_busy[group] = self._group_busy.get(group, 0.0) + seconds

    # -- measurement -----------------------------------------------------------
    def reset_accounting(self) -> None:
        """Restart utilisation measurement from the current instant."""
        self._group_busy.clear()
        self._epoch = self.engine.now

    def busy_seconds(self, group: Optional[str] = None) -> float:
        """Busy core-seconds since the accounting epoch."""
        if group is None:
            return sum(self._group_busy.values())
        return self._group_busy.get(group, 0.0)

    def utilization_pct(self, group: Optional[str] = None) -> float:
        """Utilisation as percent-of-one-core (nmon convention), asked
        once simulated time has passed since the accounting epoch."""
        return 100.0 * self.busy_seconds(group) / (self.engine.now - self._epoch)


class _Chunk(Timeout):
    """A thread's compute chunk on a free core: the thread's one timer
    record, re-armed per chunk (``CpuThread._active`` keeps one in
    flight).  Its one callback releases the core and charges the group.
    ``exec`` hands out the record itself, so its caller yields it at once
    and keeps it no longer than the thread's next chunk.
    """

    __slots__ = ("thread",)

    def __init__(self, thread: "CpuThread") -> None:
        # The Event slots, set by hand (see the note in ``sim/events.py``).
        self.engine = thread.scheduler.engine
        self.callbacks = None
        self._value = None
        self._ok = True
        self._defused = False
        self._cancelled = False
        self.delay = 0.0
        self.thread = thread

    def _done(self, _event) -> None:
        thread = self.thread
        scheduler = thread.scheduler
        scheduler._pool.release()
        busy = scheduler._group_busy
        busy[thread.group] = busy.get(thread.group, 0.0) + self.delay
        thread._active = False


class CpuThread:
    """A named thread of execution bound to one scheduler and group.

    The thread itself is not a process — it is a cost-charging handle that
    simulation processes use::

        def sender(env, thread):
            yield thread.exec(cost.post_send)   # blocks for CPU time
            ...

    One :class:`CpuThread` must only be used by one simulation process at a
    time (enforced opportunistically), mirroring a real OS thread.
    """

    def __init__(self, scheduler: CpuScheduler, name: str, group: str) -> None:
        self.scheduler = scheduler
        self.name = name
        self.group = group
        self._active = False
        self._chunk = _Chunk(self)
        self._chunk_done = self._chunk._done

    def exec(self, seconds: float):
        """Return an event that completes after the CPU chunk runs."""
        if self._active:
            raise RuntimeError(
                f"thread {self.name!r} is already executing a chunk; "
                "one CpuThread maps to one OS thread"
            )
        scheduler = self.scheduler
        engine = scheduler.engine
        pool = scheduler._pool
        if (
            engine.use_fluid
            and 0 < seconds < _INF
            and pool._in_use < pool.capacity
            and not pool._waiters
        ):
            # Fluid fast path: with a core free, grant/hold/release
            # collapse into the thread's chunk record, pushed (as a
            # ``Timeout`` pushes itself) at the analytically-known end.
            # Contended chunks (no free core) fall through to the
            # discrete FIFO queue, whose wakeup order must be exact.
            self._active = True
            pool._in_use += 1
            chunk = self._chunk
            chunk._value = None
            chunk.delay = seconds
            engine._eid = eid = engine._eid + 1
            chunk.callbacks = [self._chunk_done]
            heappush(engine._heap, (engine.now + seconds, eid, chunk))
            return chunk
        if not 0 <= seconds < _INF:  # also rejects NaN
            raise ValueError(f"compute time must be finite and non-negative: {seconds!r}")
        self._active = True

        def _run():
            try:
                yield from self.scheduler.run_chunk(seconds, self.group)
            finally:
                self._active = False

        return engine.process(_run())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CpuThread {self.name} group={self.group}>"
