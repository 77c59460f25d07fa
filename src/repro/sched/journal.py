"""Append-only write-ahead journal of broker state transitions, and the
reducer that gives its records their meaning.

Durability layer of the scheduler: the record IS the transition.  The
:class:`~repro.sched.broker.TransferBroker` changes job/file state only
by appending a plain JSON-serialisable record here and then applying
that record with :func:`apply` — the same function :func:`replay` loops
over — so the job table is a pure function of the journal by
construction, not by two hand-mirrored copies.  After a crash,
:meth:`TransferBroker.recover` replays the journal to reconstruct every
job — terminal files keep their outcome (no double transfer), queued
files are re-admitted idempotently (dedupe decisions replay in original
order), and files that were ACTIVE at crash time come back with the
session id and door of their interrupted attempt, so their next attempt
re-attaches via SESSION_RESUME and moves only the missing suffix.

Record kinds (every record carries the sim time ``t``; DESIGN.md
"Broker lifecycle" has the from-state → to-state table):

``spec``
    The run's job-mix spec, written once by the runner so a journal file
    is self-contained (``repro sched --recover <journal>`` needs no
    ``--spec``).
``submit`` / ``admit`` / ``reject``
    A bulk submission's intent (tenant, priority, optional deadline, the
    full file list) followed by the admission decision.  Dedupe is NOT
    recorded — replay re-derives it from record order, which reproduces
    the original decisions exactly.
``attempt``
    One transfer attempt started: file, door, session id, attempt count.
``attempt_fail``
    The attempt died with a typed error; carries the advanced
    alternatives cursor so orderly failover resumes where it left off.
    The file is SUBMITTED again (queued, or parked in its backoff).
``shed``
    The overload layer rejected the submission whole (load shedding):
    carries the shed reason and the deterministic RETRY_AFTER hint, so
    recovery replays the cooperative-backpressure decision exactly —
    a shed job stays shed, with the same hint, after a crash.
``finish`` / ``file_failed`` / ``cancel``
    Terminal file transitions (job state is derived, never journaled).
``checkpoint``
    Written by :meth:`TransferBroker.drain` once in-flight work hit
    zero; carries a state snapshot that replay cross-checks, making a
    clean restart-from-checkpoint distinguishable from crash recovery.
    Also carries a *full* job snapshot (:func:`snapshot_jobs`), which is
    what lets :meth:`Journal.compact` truncate the replayed prefix —
    the journal stays bounded on long-lived brokers.
``recover``
    Boundary marker appended by the *new* incarnation at replay time;
    every job, and each primary file not yet terminal, is ``recovered``.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.sched.jobs import FileState, FileTask, Job, TransferSpec

__all__ = [
    "Journal",
    "JobTable",
    "apply",
    "replay",
    "snapshot_jobs",
    "restore_jobs",
]

SCHEMA = "repro.sched.journal/1"

_INT64 = range(-(1 << 63), 1 << 63)


def _code(value: Any) -> Optional[str]:
    """Typecode of the column that gives ``value`` back exactly (``None``:
    only a list of references does)."""
    cls = type(value)
    if cls is float or cls is int and value in _INT64:
        return "d" if cls is float else "q"
    if cls is list and all(
        type(f) is dict and tuple(f) == ("path", "size", "sources") and _code(f["size"]) == "q"
        and type(f["sources"]) is list and all(type(s) is str for s in f["sources"])
        for f in value
    ):
        return "files"
    return None


class _Files:
    """A column of ``submit`` file lists, flattened into three file
    columns (path reference, size, interned sources tuple); each row
    keeps its ``(offset, count)``."""

    typecode = "files"

    def __init__(self) -> None:
        self.offset, self.count, self.size = array("q"), array("q"), array("q")
        self.path, self.sources = [], []
        self._interned: Dict[tuple, tuple] = {}

    def append(self, files: List[Dict[str, Any]]) -> None:
        self.offset.append(len(self.size))
        self.count.append(len(files))
        for f in files:
            sources = tuple(f["sources"])
            self.path.append(f["path"])
            self.size.append(f["size"])
            self.sources.append(self._interned.setdefault(sources, sources))

    def __getitem__(self, row: int) -> List[Dict[str, Any]]:
        start = self.offset[row]
        return [
            {"path": self.path[k], "size": self.size[k], "sources": list(self.sources[k])}
            for k in range(start, start + self.count[row])
        ]


class Journal:
    """The broker's record log, packed into typed columns, with an
    optional always-flushed file mirror.

    A record's *shape* (kind and key tuple) is stored once; each key of a
    shape has one column: ``array('d')`` / ``array('q')`` while every
    value is exactly a ``float`` / an ``int`` within int64, ``files``
    flattened by :class:`_Files`, else a list of references (strings,
    ``spec`` and snapshots stay shared).  A column that meets a value it
    cannot hold exactly becomes a reference list, so each record reads
    back equal, with the same types, to the dict appended.  ``append``
    adds one row (no simulation events, no I/O unless a ``path`` is
    given), so journaling never perturbs the simulated schedule.
    """

    def __init__(self, path: Optional[str] = None,
                 records: Optional[Iterable[Dict[str, Any]]] = None) -> None:
        self._pack(records or ())
        self.path = path
        self._fh = None
        if path is not None:
            self._fh = open(path, "a", encoding="utf-8")

    def _pack(self, records: Iterable[Dict[str, Any]]) -> None:
        #: Per shape id: its (kind, keys), row count and one column per
        #: key; per record, in append order: its shape id and its row there.
        self._ids: Dict[tuple, int] = {}
        self._shapes, self._rows, self._cols = [], [], []
        self._sid, self._pos = array("I"), array("I")
        for rec in records:
            self._keep(rec)

    def _keep(self, rec: Dict[str, Any]) -> None:
        shape = (rec.get("kind"), tuple(rec))
        sid = self._ids.get(shape)
        if sid is None:
            sid = self._ids[shape] = len(self._shapes)
            self._shapes.append(shape)
            self._rows.append(0)
            self._cols.append([
                [] if code is None else _Files() if code == "files" else array(code)
                for code in map(_code, rec.values())
            ])
        cols, pos = self._cols[sid], self._rows[sid]
        self._rows[sid] = pos + 1
        self._sid.append(sid)
        self._pos.append(pos)
        for i, value in enumerate(rec.values()):
            col = cols[i]
            if type(col) is not list and _code(value) != col.typecode:
                col = cols[i] = [col[row] for row in range(pos)]  # widen to references
            col.append(value)

    def _record(self, i: int) -> Dict[str, Any]:
        sid, pos = self._sid[i], self._pos[i]
        return dict(zip(self._shapes[sid][1], [col[pos] for col in self._cols[sid]]))

    @property
    def records(self) -> "_Records":
        """Read-only view of the records in append order; each dict is
        built when read, so a replay holds one at a time."""
        return _Records(self)

    def append(self, kind: str, **fields: Any) -> Dict[str, Any]:
        rec = {"kind": kind, **fields}
        self._keep(rec)
        if self._fh is not None:
            self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
            self._fh.flush()
        return rec

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def sync(self, path: str) -> None:
        """Write the full record log to ``path`` (one JSON line each)."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str, mirror: bool = False) -> "Journal":
        """Read a journal file back; ``mirror`` keeps appending to it."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls(path=path if mirror else None,
                       records=(json.loads(line) for line in fh if line.strip()))

    def select(self, kind: str) -> Iterator[Dict[str, Any]]:
        """The records of one ``kind``, in order; no other row is built."""
        shapes = {sid for sid, shape in enumerate(self._shapes) if shape[0] == kind}
        return (self._record(i) for i, sid in enumerate(self._sid)
                if sid in shapes)

    def spec(self) -> Optional[Dict[str, Any]]:
        """The run spec embedded by the runner, if any."""
        return next((rec["spec"] for rec in self.select("spec")), None)

    def compact(self) -> int:
        """Truncate the replayed prefix behind the newest checkpoint
        that carries a full job snapshot.  Returns the record count
        dropped.  Replay of the compacted journal restores from the
        snapshot and is state-identical to replaying the full log, so
        the journal (and the file mirror, when attached) stays bounded
        however long the broker lives."""
        kinds = [self._shapes[sid][0] for sid in self._sid]
        idx = next((i for i in reversed(range(len(kinds))) if kinds[i] == "checkpoint"
                    and self._record(i).get("snapshot") is not None), 0)
        head = [i for i in range(idx) if kinds[i] == "spec"]
        dropped = idx - len(head)
        if not dropped:  # no full checkpoint, or nothing but specs before it
            return 0
        self._pack([self._record(i) for i in [*head, *range(idx, len(kinds))]])
        if self.path is not None and self._fh is not None:
            # Rewrite the mirror so the on-disk log matches the
            # compacted journal, then keep appending to it.
            self._fh.close()
            self.sync(self.path)
            self._fh = open(self.path, "a", encoding="utf-8")
        return dropped

    def replay(self) -> "JobTable":
        return replay(self.records)


class _Records(Sequence):
    """:attr:`Journal.records`: ``len``, indexing, slicing, iteration."""

    def __init__(self, journal: Journal) -> None:
        self._journal = journal

    def __len__(self) -> int:
        return len(self._journal._sid)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        return self._journal._record(index)


@dataclass
class JobTable:
    """The job/file table :func:`apply` reduces records into: the live
    broker's state, and what :func:`replay` reconstructs."""

    #: Every journaled job, original submission order.
    jobs: List[Job] = field(default_factory=list)
    by_id: Dict[str, Job] = field(default_factory=dict)
    #: Destination path -> newest primary task; a later submission for a
    #: path whose owner is still non-terminal attaches as its duplicate.
    dest_owner: Dict[str, FileTask] = field(default_factory=dict)
    #: True when the journal ends at a drain checkpoint (clean restart)
    #: rather than mid-flight (crash recovery).
    clean: bool = False
    #: Admitted primary files not yet terminal (the broker's work left).
    outstanding: int = 0
    #: The next auto job id: past every ``job-N`` the table holds.
    next_job_id: int = 1

    @property
    def resume(self) -> List[FileTask]:
        """Primary tasks ACTIVE right now — after a replay, the
        candidates for SESSION_RESUME re-attachment (session id and door
        are on the task's ``last_session`` / ``last_door``)."""
        return [
            task for job in self.jobs for task in job.files
            if task.duplicate_of is None and task.state is FileState.ACTIVE
        ]


#: Fields a snapshot does not copy verbatim: ``spec`` is flattened to
#: path/size/sources, ``duplicate_of`` becomes a ``[job_id, index]``
#: reference re-wired on restore (which also rebuilds ``duplicates``),
#: ``files`` nests, and ``job`` / ``index`` / ``done`` are positional or
#: per-incarnation.  Every other dataclass field rides along by name, so
#: a new field cannot be forgotten in checkpoints.
_TASK_FIELDS = [
    f.name for f in dataclasses.fields(FileTask)
    if f.name not in ("spec", "job", "index", "duplicate_of", "duplicates")
]
_JOB_FIELDS = [
    f.name for f in dataclasses.fields(Job) if f.name not in ("files", "done")
]


def _plain(obj: Any, names: List[str]) -> Dict[str, Any]:
    out = {}
    for name in names:
        value = getattr(obj, name)
        out[name] = value.value if isinstance(value, enum.Enum) else value
    return out


def _load(obj: Any, names: List[str], rec: Dict[str, Any]) -> None:
    for name in names:
        if name in rec:  # a field newer than the journal keeps its default
            current = getattr(obj, name)
            value = rec[name]
            if isinstance(current, enum.Enum):
                value = type(current)(value)
            setattr(obj, name, value)


def snapshot_jobs(jobs: List[Job]) -> List[Dict[str, Any]]:
    """Full JSON-serialisable snapshot of the job table, written into
    checkpoint records so :meth:`Journal.compact` can drop the prefix."""
    out: List[Dict[str, Any]] = []
    for job in jobs:
        files = []
        for task in job.files:
            dup = task.duplicate_of
            files.append({
                "path": task.spec.path,
                "size": task.spec.size,
                "sources": list(task.spec.sources),
                "duplicate_of": (
                    [dup.job.job_id, dup.index] if dup is not None else None
                ),
                **_plain(task, _TASK_FIELDS),
            })
        out.append({**_plain(job, _JOB_FIELDS), "files": files})
    return out


def restore_jobs(snapshot: List[Dict[str, Any]]) -> List[Job]:
    """Rebuild the job table from a checkpoint snapshot (two passes:
    construct every job, then re-wire the duplicate cascades)."""
    jobs: List[Job] = []
    for jrec in snapshot:
        job = Job.build(
            jrec["job_id"], jrec["tenant"], _specs(jrec["files"]),
            int(jrec["priority"]),
        )
        _load(job, _JOB_FIELDS, jrec)
        for task, frec in zip(job.files, jrec["files"]):
            _load(task, _TASK_FIELDS, frec)
        jobs.append(job)
    by_id = {job.job_id: job for job in jobs}
    for job, jrec in zip(jobs, snapshot):
        for task, frec in zip(job.files, jrec["files"]):
            ref = frec["duplicate_of"]
            if ref is not None:
                owner = by_id[ref[0]].files[int(ref[1])]
                task.duplicate_of = owner
                owner.duplicates.append(task)
    return jobs


def _specs(files: List[Dict[str, Any]]) -> List[TransferSpec]:
    return [
        TransferSpec(f["path"], int(f["size"]), tuple(f.get("sources", ())))
        for f in files
    ]


# -- the reducer: one entry per record kind ------------------------------------
#
# The ONLY place a record's effect on the table is written down.  Pure
# bookkeeping: no engine, no events — except that completing a job
# triggers its ``done`` event when one is wired (live tables only).


def _submit(table: JobTable, rec: Dict[str, Any]) -> Job:
    job = Job.build(rec["job_id"], rec["tenant"], _specs(rec["files"]),
                    int(rec.get("priority", 0)))
    job.submitted_at = rec["t"]
    job.deadline = rec.get("deadline")
    for task in job.files:
        task.submitted_at = job.submitted_at
    _take_id(table, job)
    return job


def _take_id(table: JobTable, job: Job) -> None:
    table.by_id[job.job_id] = job
    table.jobs.append(job)
    if job.job_id[:4] == "job-" and job.job_id[4:].isdecimal():
        table.next_job_id = max(table.next_job_id, int(job.job_id[4:]) + 1)


def _admit(table: JobTable, rec: Dict[str, Any]) -> Job:
    job = table.by_id[rec["job_id"]]
    for task in job.files:
        owner = table.dest_owner.get(task.path)
        if owner is not None and not owner.state.terminal:
            task.duplicate_of = owner  # rides along; no second transfer
            owner.duplicates.append(task)
        else:
            table.dest_owner[task.path] = task
            table.outstanding += 1
    return job


def _refuse(table: JobTable, rec: Dict[str, Any], error: Optional[str]) -> Job:
    job = table.by_id[rec["job_id"]]
    for task in job.files:
        task.state = FileState.CANCELED
        task.finished_at = rec["t"]
        task.error = error
    job._note_progress()
    return job


def _shed(table: JobTable, rec: Dict[str, Any]) -> Job:
    job = _refuse(table, rec, f"shed: {rec.get('reason')}")
    job.shed = True
    job.shed_reason = rec.get("reason")
    job.retry_after = rec.get("retry_after")
    return job


def _task(table: JobTable, rec: Dict[str, Any]) -> FileTask:
    table.clean = False
    return table.by_id[rec["job_id"]].files[rec["index"]]


def _attempt(table: JobTable, rec: Dict[str, Any]) -> FileTask:
    task = _task(table, rec)
    task.attempts = int(rec["attempts"])
    task.state = FileState.ACTIVE
    if task.started_at is None:
        task.started_at = rec["t"]
    task.last_session = rec["session"]
    task.last_door = rec["door"]
    task.job._note_progress()
    return task


def _attempt_fail(table: JobTable, rec: Dict[str, Any]) -> FileTask:
    task = _task(table, rec)
    task.alt_cursor = int(rec["alt_cursor"])
    task.state = FileState.SUBMITTED  # queued (or parked) again
    return task


def _resolve(table: JobTable, rec: Dict[str, Any], state: FileState,
             **fields: Any) -> List[Job]:
    task = _task(table, rec)
    if task.duplicate_of is None and not task.state.terminal:
        table.outstanding -= 1
    if "resumed_from" in rec:  # only a SESSION_RESUME finish carries it
        task.resumed_from = int(rec["resumed_from"])
        task.recovered = True
    return task.resolve(state, rec["t"], **fields)


def _checkpoint(table: JobTable, rec: Dict[str, Any]) -> None:
    full = rec.get("snapshot")
    if full is not None and not table.jobs:
        # Compacted journal: this checkpoint is the first meaningful
        # record — the prefix was truncated behind its full snapshot.
        # Restore the table wholesale (a drain snapshots no READY file).
        for job in restore_jobs(full):
            _take_id(table, job)
            for task in job.files:
                if task.duplicate_of is None and not task.state.terminal:
                    # At most one live primary per path; a terminal
                    # owner dedupes nothing, so it need not be listed.
                    table.dest_owner[task.path] = task
                    table.outstanding += 1
    states = rec.get("state", {}).get("jobs")
    if states is not None and states != {job.job_id: job.state.value for job in table.jobs}:
        raise ValueError("journal checkpoint snapshot disagrees with replayed "
                         "state (corrupted or truncated journal)")
    table.clean = True


def _recover(table: JobTable, rec: Dict[str, Any]) -> None:
    for job in table.jobs:  # every job crosses the restart, and so
        job.recovered = True  # does each primary file still to finish
        for task in job.files:
            if task.duplicate_of is None and not task.state.terminal:
                task.recovered = True


_REDUCERS = {
    "spec": lambda table, rec: None,
    "submit": _submit,
    "admit": _admit,
    "reject": lambda t, r: _refuse(t, r, r.get("reason")),
    "shed": _shed,
    "attempt": _attempt,
    "attempt_fail": _attempt_fail,
    "finish": lambda t, r: _resolve(t, r, FileState.FINISHED, source_used=r["door"]),
    "file_failed": lambda t, r: _resolve(t, r, FileState.FAILED, error=r.get("error")),
    "cancel": lambda t, r: _resolve(t, r, FileState.CANCELED, error=r.get("reason")),
    "checkpoint": _checkpoint,
    "recover": _recover,
}


def apply(table: JobTable, rec: Dict[str, Any]) -> Any:
    """Apply one journal record to ``table``.  Returns what the record
    touched: the job (job-level kinds), the task (``attempt`` /
    ``attempt_fail``), or the jobs a terminal file transition completed."""
    reducer = _REDUCERS.get(rec["kind"])
    if reducer is None:
        raise ValueError(f"unknown journal record kind {rec['kind']!r}")
    return reducer(table, rec)


def replay(records: List[Dict[str, Any]]) -> JobTable:
    """Rebuild job/file state by applying records in order.

    Raises ``ValueError`` when a checkpoint snapshot disagrees with the
    replayed state (a corrupted or truncated journal).
    """
    table = JobTable()
    for rec in records:
        apply(table, rec)
    return table
