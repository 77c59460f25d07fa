"""Reference code the tests compare production runs against.

Nothing in ``src/`` calls it, so it lives with the tests (CI's reach
step fails a ``src/`` function that only tests enter).
"""

import json
from collections import deque
from heapq import heappop

from repro.sim.engine import SimulationError
from repro.sim.events import Condition


class AllOf(Condition):
    """Succeeds once *all* child events have succeeded: the join the
    oracles below and the kernel tests use (production code waits on
    ``AnyOf`` only)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count == len(self.events)


def arrive(buf, s, header, payload):
    """One arrival into reassembly buffer ``buf`` as the sink takes it:
    ``reject_duplicate`` counts and drops a replay, anything else is
    pushed.  Returns the blocks released in order."""
    return [] if buf.reject_duplicate(s, header, payload) else buf.push(s, header, payload)


class ProcessKilled(Exception):
    """Thrown into a generator when :func:`kill` ends its process."""


def kill(proc, reason="killed"):
    """Forcibly end ``proc``: :class:`ProcessKilled` is thrown into the
    generator at its current yield point; unless caught, the process
    fails *defused* (killing is deliberate, so it is not an unhandled
    error).  A settled process is left alone."""
    if proc.triggered:
        return
    waiting = proc._waiting_on
    if waiting is not None and not waiting.processed:
        if waiting.callbacks is not None and proc._resume in waiting.callbacks:
            waiting.callbacks.remove(proc._resume)
    proc._waiting_on = None
    try:
        proc._generator.throw(ProcessKilled(reason))
    except (ProcessKilled, StopIteration):
        proc.defuse()
        proc.fail(ProcessKilled(reason))
    except BaseException as exc:
        proc.defuse()
        proc.fail(exc)
    else:
        # The generator swallowed the kill and yielded again: disallow.
        proc._generator.close()
        proc.defuse()
        proc.fail(ProcessKilled(reason))


def step(engine):
    """Process exactly one event, advancing the clock to it: one turn
    of ``Engine.run``'s loop."""
    if not engine._heap:
        raise SimulationError("step() on an empty event queue")
    when, _, event = heappop(engine._heap)
    engine._now = when
    engine.events_processed += 1
    callbacks = event.callbacks
    event.callbacks = None
    if event._cancelled:
        return
    for callback in callbacks:
        callback(event)
    if not event._ok and not event._defused:
        raise SimulationError(f"unhandled failure of {event!r}") from event._value


def transmit_burst(path, nbytes, count):
    """Process generator: move ``count`` back-to-back units of ``nbytes``
    down ``path``, completing when the *last* unit arrives.

    Models a packetized window (a cwnd of MTU-sized segments): units
    pipeline across hops exactly as ``count`` concurrent
    ``path.transmit`` calls issued in order would.  A ``chain_ok`` path
    books the whole burst with one timer (the fluid fast-forward that
    replaces per-packet events); otherwise the units run as real
    concurrent transfers joined by ``AllOf``.
    """
    if count == 0:
        return
    if count == 1 or nbytes == 0:
        yield from path.transmit(nbytes)
        return
    engine = path.engine
    if path.chain_ok():
        for _ in range(count):
            t = path.book(nbytes)
        if t > engine.now:
            yield engine.timeout_at(t)
        path.arrived(nbytes * count)
        return
    yield AllOf(engine, [engine.process(path.transmit(nbytes)) for _ in range(count)])


def stable_report_lines(jobs):
    """Outcome-only report: what a run *achieved*, with every field that
    legitimately shifts under crash/recovery timing stripped.

    A run crashed at any journaled point and recovered must produce
    byte-identical stable lines to the uncrashed run (modulo the
    ``recovered`` flag): the same jobs reach the same terminal states,
    the same files land from the same submissions, nothing is lost and
    nothing transfers twice.  Timing fields (queue waits, finish times),
    attempt counts, and door choices are excluded — a crash changes
    *when* and *through which door*, never *whether*.
    """
    records = []
    for job in jobs:
        records.append({
            "kind": "job",
            "job_id": job.job_id,
            "tenant": job.tenant,
            "priority": job.priority,
            "state": job.state.value,
            "files": len(job.files),
            "shed": job.shed,
        })
        for task in job.files:
            records.append({
                "kind": "file",
                "job_id": job.job_id,
                "index": task.index,
                "path": task.path,
                "size": task.size,
                "state": task.state.value,
                "duplicate": task.duplicate_of is not None,
            })
    totals = {"jobs": 0, "files": 0, "finished": 0, "failed": 0,
              "canceled": 0, "bytes_finished": 0}
    for job in jobs:
        totals["jobs"] += 1
        totals["files"] += len(job.files)
        for task in job.files:
            if task.state.value == "FINISHED":
                totals["finished"] += 1
                totals["bytes_finished"] += task.size
            elif task.state.value == "FAILED":
                totals["failed"] += 1
            elif task.state.value == "CANCELED":
                totals["canceled"] += 1
    records.append({"kind": "summary", **totals})
    return [json.dumps(r, sort_keys=True) for r in records]


class DequeTracer:
    """The trace ring as one ``deque`` of ``(time, shape, *values)``
    tuples: what ``repro.sim.trace.Tracer`` stored before it packed its
    rows into columns.  Its ``rows()`` are the rows exactly as written,
    so a packed ring must give back equal rows of the same types."""

    def __init__(self, categories=None, capacity=100_000):
        self.categories = set(categories) if categories is not None else None
        self._records = deque(maxlen=capacity)
        self._shapes = {}
        self.dropped = 0
        self.emitted = 0

    def point(self, time, shape, *values):
        if self.categories is not None and shape[0] not in self.categories:
            return
        if len(self._records) == self._records.maxlen:
            self.dropped += 1
        self._records.append((time, shape) + values)
        self.emitted += 1

    def record(self, time, category, message, fields):
        key = (category, message, *fields)
        self.point(time, self._shapes.setdefault(key, key), *fields.values())

    def __len__(self):
        return len(self._records)

    def rows(self):
        return iter(self._records)


class ListSink:
    """The delivery log as one list of ``(header, payload)`` pairs: what
    ``repro.apps.io.CollectingSink`` stored before it packed its rows
    into header columns.  A packed log must give back equal rows of the
    same types, and audit to the same problems."""

    def __init__(self, host):
        self.host = host
        self.deliveries = []
        self.bytes_written = 0

    def write(self, thread, nbytes, header=None, payload=None):
        yield thread.exec(self.host.spec.syscall_seconds)
        self.deliveries.append((header, payload))
        self.bytes_written += nbytes

    def by_session(self):
        """The log grouped by session id, then by seq (one pass)."""
        sessions = {}
        for header, payload in self.deliveries:
            sessions.setdefault(header.session_id, {}) \
                .setdefault(header.seq, []).append((header, payload))
        return sessions


def audit_blocks(label, blocks, size, block_size, tag, overlap_ok):
    """``CollectingSink.audit_blocks`` over one session of
    :meth:`ListSink.by_session` (seq -> every copy, in arrival order)."""
    total_blocks = -(-size // block_size)
    if sorted(blocks) != list(range(total_blocks)):
        return [f"{label}: delivered seqs {sorted(blocks)} != 0..{total_blocks - 1}"], 0
    problems = []
    overlap_bytes = 0
    for seq in range(total_blocks):
        first, *rest = blocks[seq]
        header, payload = first
        expected_len = min(block_size, size - seq * block_size)
        if header.length != expected_len:
            problems.append(f"{label}: seq {seq} length {header.length} != {expected_len}")
        if payload != (tag, seq, expected_len):
            problems.append(f"{label}: seq {seq} payload corrupted ({payload!r})")
        for copy in rest:
            if copy != first:
                problems.append(f"{label}: seq {seq} re-delivered with divergent content")
            else:
                overlap_bytes += header.length
        if rest and not overlap_ok:
            problems.append(f"{label}: seq {seq} delivered twice where no overlap is allowed")
    return problems, overlap_bytes
