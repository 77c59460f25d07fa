"""Job and file state model for the transfer broker.

The model mirrors FTS: a *job* is a tenant's bulk submission of many
files; each file carries an ordered list of alternative sources and
walks SUBMITTED → READY → ACTIVE → FINISHED/FAILED/CANCELED with a
per-file retry count.  Everything here is plain bookkeeping — the sim
processes that move the states live in :mod:`repro.sched.broker` — so
the scheduler is testable as a deterministic state machine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

__all__ = ["FileState", "JobState", "TransferSpec", "FileTask", "Job"]


class FileState(str, enum.Enum):
    """Lifecycle of one file within a job (FTS file states)."""

    SUBMITTED = "SUBMITTED"  #: accepted, waiting in the tenant queue
    READY = "READY"          #: picked by the dispatcher, awaiting a slot
    ACTIVE = "ACTIVE"        #: a transfer session is running
    FINISHED = "FINISHED"    #: delivered byte-exact
    FAILED = "FAILED"        #: retry budget exhausted across alternatives
    CANCELED = "CANCELED"    #: rejected at admission (or sibling cascade)

    @property
    def terminal(self) -> bool:
        return self in (FileState.FINISHED, FileState.FAILED, FileState.CANCELED)


class JobState(str, enum.Enum):
    """Lifecycle of a bulk submission (derived from its files)."""

    SUBMITTED = "SUBMITTED"
    ACTIVE = "ACTIVE"
    FINISHED = "FINISHED"  #: every file FINISHED
    FAILED = "FAILED"      #: at least one file FAILED, none pending
    CANCELED = "CANCELED"  #: rejected at admission

    @property
    def terminal(self) -> bool:
        return self in (JobState.FINISHED, JobState.FAILED, JobState.CANCELED)


@dataclass(frozen=True, slots=True)
class TransferSpec:
    """One requested file: destination path, size, ordered alternatives.

    ``sources`` names broker endpoints (doors) in preference order — the
    FTS ``orderly`` selection strategy.  Empty means "any endpoint", i.e.
    the broker's full door list in its configured order.
    """

    path: str
    size: int
    sources: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"file {self.path!r}: size must be positive")
        if not self.path:
            raise ValueError("file needs a destination path")


@dataclass(slots=True)
class FileTask:
    """Mutable per-file scheduling state."""

    spec: TransferSpec
    job: "Job"
    index: int  #: position within the job, for stable reporting
    state: FileState = FileState.SUBMITTED
    #: Transfer attempts started (first try included).
    attempts: int = 0
    #: Cursor into the alternatives list (advances on failure — orderly).
    alt_cursor: int = 0
    #: Endpoint that carried the successful transfer, for the report.
    source_used: Optional[str] = None
    #: Final error string for FAILED/CANCELED files.
    error: Optional[str] = None
    submitted_at: float = 0.0
    #: First time the dispatcher picked the task (queue-wait anchor).
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: When this submission was a duplicate of an earlier in-flight one
    #: (same destination path), it rides along: the primary's outcome is
    #: mirrored here and no second transfer runs.
    duplicate_of: Optional["FileTask"] = None
    duplicates: List["FileTask"] = field(default_factory=list)
    #: Session id / door of the most recent attempt — journaled so crash
    #: recovery can re-attach an interrupted session via SESSION_RESUME.
    last_session: Optional[int] = None
    last_door: Optional[str] = None
    #: True when the file was still to finish at a broker restart (the
    #: ``recover`` record sets it) or finished by SESSION_RESUME.
    recovered: bool = False
    #: Block seq a post-crash SESSION_RESUME re-attached at (>0 means
    #: only the suffix moved after recovery).
    resumed_from: int = 0

    @property
    def path(self) -> str:
        return self.spec.path

    @property
    def size(self) -> int:
        return self.spec.size

    def resolve(self, state: FileState, now: float, error: Optional[str] = None,
                source_used: Optional[str] = None) -> List["Job"]:
        """Move to a terminal state and cascade to attached duplicates.
        Returns the jobs this resolution completed."""
        assert state.terminal, state
        self.state = state
        self.finished_at = now
        self.error = error
        if source_used is not None:
            self.source_used = source_used
        completed = []
        for dup in self.duplicates:
            if dup.state.terminal:
                continue  # e.g. canceled with its own job before we resolved
            dup.state = state
            dup.finished_at = now
            dup.error = error
            dup.source_used = self.source_used
            if dup.job._note_progress():
                completed.append(dup.job)
        if self.job._note_progress():
            completed.insert(0, self.job)
        return completed


@dataclass(slots=True)
class Job:
    """One bulk submission."""

    job_id: str
    tenant: str
    priority: int
    files: List[FileTask] = field(default_factory=list)
    state: JobState = JobState.SUBMITTED
    submitted_at: float = 0.0
    finished_at: Optional[float] = None
    #: Optional completion deadline, seconds after submission; past it
    #: the broker cancels whatever files remain (journaled terminal).
    deadline: Optional[float] = None
    #: True when the overload layer load-shed this submission whole —
    #: a cooperative rejection, not a failure: ``retry_after`` tells the
    #: client when to resubmit (the runner honours it).
    shed: bool = False
    shed_reason: Optional[str] = None
    #: Deterministic, jittered RETRY_AFTER hint, seconds (shed jobs).
    retry_after: Optional[float] = None
    #: True when this job was reconstructed from the journal.
    recovered: bool = False
    #: Succeeds (with the job) once every file is terminal; wired by the
    #: broker at submission so callers can ``yield job.done``.
    done: object = None

    @classmethod
    def build(
        cls,
        job_id: str,
        tenant: str,
        files: Sequence[TransferSpec],
        priority: int = 0,
    ) -> "Job":
        job = cls(job_id=job_id, tenant=tenant, priority=priority)
        job.files = [FileTask(spec=s, job=job, index=i) for i, s in enumerate(files)]
        return job

    @property
    def retries(self) -> int:
        """Transfer attempts beyond each file's first (job-level total)."""
        return sum(max(0, t.attempts - 1) for t in self.files)

    def _note_progress(self) -> bool:
        """Re-derive the job state from its files; True when this call
        completed the job (``finished_at`` set, ``done`` triggered)."""
        if self.state.terminal:
            return False
        states = [t.state for t in self.files]
        if all(s.terminal for s in states):
            if all(s is FileState.FINISHED for s in states):
                self.state = JobState.FINISHED
            elif any(s is FileState.FAILED for s in states):
                self.state = JobState.FAILED
            else:
                self.state = JobState.CANCELED
            self.finished_at = max(t.finished_at for t in self.files)
            if self.done is not None and not self.done.triggered:
                self.done.succeed(self)
            return True
        if any(s is FileState.ACTIVE for s in states):
            self.state = JobState.ACTIVE
        return False
