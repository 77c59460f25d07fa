"""The multi-tenant transfer broker (FTS-style scheduler front door).

A :class:`TransferBroker` accepts bulk :class:`~repro.sched.jobs.Job`
submissions and multiplexes their files onto a bounded pool of transfer
sessions across one or more *doors* — pre-opened
:class:`~repro.core.source_link.SourceLink` connection sets to
alternative destinations.  The pieces:

- **worker pool**: at most ``max_active`` concurrent sessions overall,
  and at most ``max_sessions`` per door (the link's pool and credit
  ledger are shared, so per-door concurrency is what the middleware
  already supports via multi-session links);
- **dedupe**: a second submission for a destination path already queued
  or in flight attaches to the primary and mirrors its outcome instead
  of transferring twice;
- **fair share**: stride scheduling over tenants — each dispatch charges
  the tenant ``1/weight``, the runnable tenant with the lowest
  accumulated pass goes next — with per-tenant in-flight caps and
  admission control (a submission that would overflow the tenant's queue
  is rejected whole, files CANCELED);
- **orderly failover**: on a typed
  :class:`~repro.core.errors.TransferError` the file's alternatives
  cursor advances and the next admissible door is tried, skipping doors
  whose broker-level circuit breaker is OPEN or whose data channels are
  all quarantined (PR 4's :class:`~repro.core.health.ChannelBreaker`);
- **dispatch pass**: one synchronous sweep of the queues asks each door
  for its verdict (admit / full / closed) once per slot taken.  A file
  refused while every door is full and a slot is held keeps its queue
  place until that slot's release runs the next pass; files a closed
  door refuses wait behind ONE shared ``blocked_retry`` timer;
- **session reuse**: a door's link negotiates block size and channel
  count once, so after its first session the per-file cost is one
  SESSION_REQ round trip instead of three — the difference between
  1×RTT and 3×RTT per small file on the WAN;
- **durability**: the broker never writes ``Job`` / ``FileTask`` state
  by hand — :meth:`TransferBroker._transition` appends a record to the
  :class:`~repro.sched.journal.Journal` and applies it through the
  reducer ``replay()`` uses, so :meth:`TransferBroker.recover` rebuilds
  the same job table after a crash: FINISHED files are never
  re-transferred, queued files re-admit idempotently, and a file ACTIVE
  at crash time gets one attempt whose door call is SESSION_RESUME under
  its journaled session id (only the suffix past the restart marker
  moves).
  What lives here is everything that is *not* job-table state: queues,
  timers, worker slots, metrics, traces, breakers;
- **watchdog / deadlines / drain**: an opt-in per-file progress watchdog
  kills attempts that stall without erroring (bounded by a multiple of
  the link's adaptive RTO), retries back off exponentially with
  deterministic seeded jitter, per-job deadlines cancel leftovers, and
  :meth:`TransferBroker.drain` stops admissions, lets in-flight work
  finish and writes a clean journal checkpoint.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import (
    InjectedAttemptFault,
    StuckTransfer,
    TransferCanceled,
    TransferError,
)
from repro.core.health import BreakerState, ChannelBreaker
from repro.core.jitter import jittered
from repro.core.middleware import allocate_session_id
from repro.sched.jobs import FileState, FileTask, Job, TransferSpec
from repro.sched.journal import Journal, JobTable, apply, replay, snapshot_jobs
from repro.sched.overload import (
    RECOVERING,
    OverloadConfig,
    OverloadController,
)
from repro.sim.events import Event

__all__ = [
    "TenantPolicy",
    "SchedulerConfig",
    "RftpDoor",
    "TransferBroker",
]


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant scheduling contract."""

    #: Fair-share weight: a weight-3 tenant gets 3× the dispatch slots of
    #: a weight-1 tenant while both have work queued.
    weight: float = 1.0
    #: Concurrent transfers this tenant may hold (admission: queue).
    max_inflight: int = 8
    #: Queued (not yet dispatched) files beyond which a new submission is
    #: rejected whole (admission: reject).
    max_queued: int = 100_000

    def __post_init__(self) -> None:
        if not 0 < self.weight < float("inf"):
            raise ValueError("tenant weight must be positive and finite")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_queued < 0:
            raise ValueError("max_queued must be >= 0")


@dataclass(frozen=True)
class SchedulerConfig:
    """Broker-wide knobs."""

    #: Global concurrent-session ceiling (the worker pool size).
    max_active: int = 8
    #: Transfer attempts per file (first try included) before FAILED.
    max_attempts: int = 4
    #: Base retry delay, seconds (attempt 1's backoff).
    retry_backoff: float = 0.5
    #: Multiplier applied per prior attempt (capped exponential).
    retry_backoff_factor: float = 2.0
    #: Ceiling for the exponential backoff, seconds (before jitter).
    retry_backoff_cap: float = 8.0
    #: Jitter fraction in [0, 1]: the delay is scaled by a deterministic
    #: per-(job, file, attempt) factor in [1, 1 + retry_jitter], derived
    #: from the run seed — replayable, yet retries de-synchronise.
    retry_jitter: float = 0.25
    #: Wait before re-queuing files a closed door refused (one timer per
    #: dispatch pass, shared by every file that pass parked).  Full doors
    #: need no timer: a slot release wakes dispatch.
    blocked_retry: float = 0.25
    #: Consecutive failures that trip a door's breaker OPEN.
    breaker_failures: int = 2
    #: Door-breaker quarantine, seconds.
    breaker_cooldown: float = 2.0
    #: Enable the per-file progress watchdog.  Off by default: its poll
    #: timers extend the drained engine clock, which would shift the
    #: bit-identical bench/report anchors of runs that never stall.
    watchdog: bool = False
    #: A stalled attempt is killed after this multiple of the link's
    #: adaptive RTO with zero delivered-byte progress.
    watchdog_rto_multiplier: float = 16.0
    #: Floor for the watchdog poll interval, seconds.
    watchdog_min_interval: float = 0.25
    #: Compact the journal at each drain checkpoint: the replayed prefix
    #: is truncated behind a full state snapshot, bounding the in-memory
    #: record list on long-lived brokers.  Off by default — tests that
    #: inspect the raw record history expect the full log.
    checkpoint_compact: bool = False

    def __post_init__(self) -> None:
        if self.max_active < 1:
            raise ValueError("max_active must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.retry_backoff < 0 or self.blocked_retry <= 0:
            raise ValueError("retry timings must be positive")
        if self.retry_backoff_factor < 1.0:
            raise ValueError("retry_backoff_factor must be >= 1")
        if self.retry_backoff_cap < self.retry_backoff:
            raise ValueError("retry_backoff_cap must be >= retry_backoff")
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ValueError("retry_jitter must be in [0, 1]")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")
        if self.breaker_cooldown <= 0:
            raise ValueError("breaker_cooldown must be positive")
        if self.watchdog_rto_multiplier <= 0:
            raise ValueError("watchdog_rto_multiplier must be positive")
        if self.watchdog_min_interval <= 0:
            raise ValueError("watchdog_min_interval must be positive")


#: A door's verdict at one instant.  FULL clears when a slot is released;
#: CLOSED (link not open, breaker refusing, channels quarantined) with time.
ADMIT, FULL, CLOSED = "admit", "full", "closed"


class RftpDoor:
    """One alternative destination: a named, pre-opened connection set.

    Wraps a client middleware plus the :class:`SourceLink` it opened to
    one server endpoint.  The broker treats doors as the units of
    ``orderly`` failover — a file's ``sources`` list names them in
    preference order.
    """

    def __init__(
        self,
        name: str,
        middleware: Any,
        remote_dev: Any,
        port: int,
        data_source: Any,
        max_sessions: int = 4,
        tcp_factory: Any = None,
        fault_injector: Any = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.name = name
        self.middleware = middleware
        self.remote_dev = remote_dev
        self.port = port
        self.data_source = data_source
        self.max_sessions = max_sessions
        self.tcp_factory = tcp_factory
        self.fault_injector = fault_injector
        self.link = None
        self.active = 0
        #: The shared channel set's session leases (None: a private set).
        self.leases = None
        #: Broker-level breaker over whole-transfer outcomes on this
        #: door (distinct from the link's per-QP channel breakers).
        self.breaker: Optional[ChannelBreaker] = None

    def open(self):
        """Process event resolving to the door's link (idempotent)."""
        mw = self.middleware

        def _open():
            if self.link is None:
                self.link = yield mw.open_link(
                    self.remote_dev,
                    self.port,
                    fault_injector=self.fault_injector,
                    tcp_factory=self.tcp_factory,
                )
                self.leases = self.link._host_pool.sessions
                if self.leases is not None:
                    # The cap is the shared set's real lease capacity,
                    # which every door to this (host, port) shares, so
                    # admission() below also checks live availability.
                    self.max_sessions = self.leases.capacity
            return self.link

        return mw.engine.process(_open())

    def channels_quarantined(self, now: float) -> bool:
        """True when every live data channel's breaker is OPEN — the
        scheduler-level signal to prefer another door right now.  Asked
        only of an opened door."""
        breakers = self.link._host_pool.breakers
        for qp in self.link.data.qps:
            b = breakers.get(qp.qp_num)
            if b is None or b.state is not BreakerState.OPEN or now >= b.open_until:
                return False
        return True  # every live channel is OPEN (or there is none at all)

    def admission(self, now: float, session_cap: Optional[int] = None) -> str:
        """ADMIT, FULL or CLOSED at ``now``.  CLOSED wins over FULL: a
        door that is both will not admit when a slot frees."""
        if (
            self.link is None
            or (self.breaker is not None and not self.breaker.peek_admit(now))
            or self.channels_quarantined(now)
        ):
            return CLOSED
        cap = self.max_sessions if session_cap is None else session_cap
        if self.active >= cap:
            return FULL
        if self.leases is not None and self.leases.available <= 0:
            # Doors to the same (host, port) share one host pool; the
            # per-door cap alone could oversubscribe it and trip the
            # synchronous lease-capacity error inside transfer().
            return FULL
        return ADMIT

    @property
    def pool_occupancy(self) -> float:
        """Pinned-pool pressure on this (opened) door's link, in [0, 1] —
        one of the two brownout watermark inputs."""
        return self.link.pool.occupancy

    def transfer(self, task: FileTask, session_id: int):
        """The session process of one file transfer on this (opened)
        door's link, resolving to the finished job."""
        return self.link.transfer(self.data_source, task.size, session_id)

    def resume(self, task: FileTask, session_id: int):
        """The session process re-attaching an interrupted session
        (recovery): the sink replies with its restart marker and only the
        missing suffix is read and sent; the job's ``start_seq`` is where
        it resumed."""
        return self.link.resume(self.data_source, task.size, session_id)


@dataclass
class _TenantState:
    policy: TenantPolicy
    #: Stride-scheduling accumulated pass; lowest runnable goes next.
    pass_value: float = 0.0
    #: Min-heap of (-priority, fifo_seq, task).
    queue: List[Tuple[int, int, FileTask]] = field(default_factory=list)
    inflight: int = 0
    #: Files currently parked: in retry backoff, or in a blocked cohort.
    parked: int = 0


class TransferBroker:
    """Accepts jobs, schedules their files across the doors.

    ``journal`` (default: a fresh in-memory :class:`Journal`) receives
    every state transition; ``seed`` feeds the deterministic retry
    jitter.  Use :meth:`recover` instead of the constructor to build an
    incarnation that continues a journaled predecessor.
    """

    def __init__(
        self,
        engine: Any,
        doors: Sequence[RftpDoor],
        config: Optional[SchedulerConfig] = None,
        tenants: Optional[Dict[str, TenantPolicy]] = None,
        journal: Optional[Journal] = None,
        seed: int = 0,
        overload: Optional[OverloadConfig] = None,
    ) -> None:
        if not doors:
            raise ValueError("broker needs at least one door")
        names = [d.name for d in doors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate door names: {names}")
        self.engine = engine
        self.config = config or SchedulerConfig()
        self.journal = journal if journal is not None else Journal()
        self.seed = int(seed)
        self.overload_config = overload
        #: Built only when a mechanism is armed: an idle broker runs the
        #: exact PR 7 code paths (bit-identical anchors).
        self.overload: Optional[OverloadController] = (
            OverloadController(engine, overload, seed=seed)
            if overload is not None and overload.enabled else None
        )
        #: Retry-storm injection seam: a hook returning True fails the
        #: next attempt before any transfer traffic (see
        #: :meth:`repro.faults.FaultInjector.arm_scheduler`).
        self.attempt_fault_hook: Optional[Callable[[float], bool]] = None
        self.doors: Dict[str, RftpDoor] = {d.name: d for d in doors}
        for door in doors:
            door.breaker = ChannelBreaker(
                0,
                self.config.breaker_failures,
                lambda: self.config.breaker_cooldown,
            )
        self._tenants: Dict[str, _TenantState] = {}
        for name, policy in (tenants or {}).items():
            self._tenants[name] = _TenantState(policy=policy)
        #: The job table; mutated only by applying journal records
        #: (:meth:`_transition`).  ``by_id`` doubles as the resubmission
        #: dedupe index, ``dest_owner`` as the destination dedupe index.
        self.table = JobTable()
        self.recovered = False
        self._fifo = itertools.count()
        self._active = 0
        #: High-water mark of concurrent active transfers over the
        #: broker's lifetime (the sessions-per-host capacity metric).
        self.peak_active = 0
        self._loop_running = False
        self._wake: Optional[Event] = None
        #: Crash flag: a dead incarnation journals nothing and touches no
        #: bookkeeping — its in-flight processes wake up and fall through.
        self._dead = False
        self._draining = False
        self._drain_wake: Optional[Event] = None
        self._recovering = False
        #: A brownout-recheck timer is in flight (hysteresis dwell).
        self._recheck_pending = False
        #: Task -> (own backoff timer, or None in a blocked pass's cohort;
        #: tenant state) while parked, so a cancel can unpark immediately
        #: instead of leaking the file in the timer until it fires.
        #: Keyed by ``id(task)`` — FileTask is a mutable dataclass and
        #: deliberately unhashable; identity is the right key anyway.
        self._parked: Dict[int, Tuple[Any, _TenantState]] = {}

        reg = engine.metrics
        self._m_jobs_submitted = reg.counter("sched.jobs_submitted")
        self._m_jobs_rejected = reg.counter("sched.jobs_rejected")
        self._m_dedup_hits = reg.counter("sched.dedup_hits")
        self._m_blocked = reg.counter("sched.dispatch_blocked")
        self._m_watchdog_kills = reg.counter("sched.watchdog.kills")
        self._m_deadline_cancels = reg.counter("sched.deadline_cancels")
        self._m_rec_jobs = reg.counter("sched.recovery.jobs_replayed")
        self._m_rec_files = reg.counter("sched.recovery.files_replayed")
        self._m_rec_requeued = reg.counter("sched.recovery.requeued")
        self._m_rec_resumed = reg.counter("sched.recovery.resumed")
        self._m_rec_resume_failed = reg.counter("sched.recovery.resume_failed")
        self._per_tenant_metrics: Dict[str, dict] = {}
        reg.gauge_fn("sched.active_transfers", lambda: self._active)
        reg.gauge_fn("sched.outstanding_files", lambda: self.table.outstanding)

    # -- per-tenant plumbing -----------------------------------------------------
    def _tenant(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = _TenantState(policy=TenantPolicy())
            self._tenants[name] = state
        return state

    def _metrics(self, tenant: str) -> dict:
        m = self._per_tenant_metrics.get(tenant)
        if m is None:
            reg = self.engine.metrics
            state = self._tenant(tenant)
            m = {
                "files_finished": reg.counter("sched.files_finished", tenant=tenant),
                "files_failed": reg.counter("sched.files_failed", tenant=tenant),
                "files_canceled": reg.counter("sched.files_canceled", tenant=tenant),
                "retries": reg.counter("sched.retries", tenant=tenant),
                "bytes_finished": reg.counter("sched.bytes_finished", tenant=tenant),
                "queue_wait": reg.histogram("sched.queue_wait_seconds", tenant=tenant),
                "latency": reg.histogram("sched.file_latency_seconds", tenant=tenant),
            }
            reg.gauge_fn("sched.inflight", lambda s=state: s.inflight, tenant=tenant)
            reg.gauge_fn("sched.queued", lambda s=state: len(s.queue), tenant=tenant)
            self._per_tenant_metrics[tenant] = m
        return m

    @property
    def jobs(self) -> List[Job]:
        return self.table.jobs

    def _transition(self, kind: str, **fields: Any) -> Any:
        """THE way job/file state changes: append the record, then apply
        that same record through the reducer ``replay()`` uses (WAL
        order).  A crashed incarnation writes — and changes — nothing."""
        if self._dead:
            return None
        touched = apply(self.table, self.journal.append(kind, **fields))
        if kind in ("finish", "file_failed", "cancel"):
            for job in touched:  # the jobs this file transition completed
                self.engine.trace(
                    "sched", "job_done", job=job.job_id, state=job.state.value
                )
        return touched

    # -- submission --------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        files: Sequence[TransferSpec],
        priority: int = 0,
        job_id: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Job:
        """Accept (or reject) one bulk submission.  Returns the job with
        its ``done`` event wired; a rejected job comes back already
        CANCELED with the event triggered.  ``deadline`` (seconds after
        submission): past it, files still pending are canceled and the
        job lands in a journaled terminal state."""
        if not files:
            raise ValueError("a job needs at least one file")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive")
        if job_id is None:
            job_id = f"job-{self.table.next_job_id}"
        existing = self.table.by_id.get(job_id)
        if existing is not None:
            # Resubmission dedupe: the id already has an incarnation in
            # this broker (live, or replayed out of the journal after a
            # crash) — return it instead of creating a twin, so a client
            # retrying across a recovery boundary cannot double-submit.
            self.engine.trace("sched", "job_resubmit_dedup", job=job_id, tenant=tenant)
            return existing
        if self._dead:
            raise RuntimeError("submit on a crashed broker incarnation")
        now = self.engine.now
        job = self._transition(
            "submit", t=now, job_id=job_id, tenant=tenant, priority=priority,
            deadline=deadline,
            files=[{"path": s.path, "size": s.size,
                    "sources": list(s.sources)} for s in files],
        )
        job.done = Event(self.engine)
        self._m_jobs_submitted.add()
        self._metrics(tenant)  # registers the tenant's series at first submit
        state = self._tenant(tenant)

        dest_owner = self.table.dest_owner
        primaries = [
            t for t in job.files
            if dest_owner.get(t.path) is None
            or dest_owner[t.path].state.terminal
        ]
        backlog = len(state.queue) + state.parked
        if self._draining:
            self._m_jobs_rejected.add()
            return self._refuse(
                job, "reject", reason="broker draining: admissions closed"
            )
        if self.overload is not None:
            decision = self.overload.admit(
                job_id, tenant,
                n_primaries=len(primaries),
                n_duplicates=len(job.files) - len(primaries),
                total_backlog=self._total_backlog(),
                priority=priority, deadline=deadline,
            )
            if decision is not None:
                self.overload.note_shed(tenant, len(job.files))
                return self._refuse(
                    job, "shed", reason=decision.reason,
                    retry_after=decision.retry_after,
                )
        if backlog + len(primaries) > state.policy.max_queued:
            # Admission control: reject the submission whole rather than
            # accept a prefix the tenant cannot distinguish.
            self._m_jobs_rejected.add()
            return self._refuse(
                job, "reject",
                reason=f"tenant {tenant!r} queue full "
                f"({backlog}+{len(primaries)} > {state.policy.max_queued})",
            )

        self._transition("admit", t=now, job_id=job_id)
        for task in job.files:
            if task.duplicate_of is not None:
                # Duplicate submission for an in-flight destination: it
                # rides along on the primary instead of transferring twice.
                self._m_dedup_hits.add()
                continue
            self._enqueue(task)
        if deadline is not None:
            self.engine.process(self._deadline_watch(job, deadline))
        self.engine.trace(
            "sched", "job_submitted", job=job_id, tenant=tenant,
            files=len(job.files), priority=job.priority,
        )
        self._kick()
        return job

    def _total_backlog(self) -> int:
        """Queued + parked primary files across every tenant (the
        global bound the overload queue cap applies to)."""
        return sum(len(s.queue) + s.parked for s in self._tenants.values())

    def _refuse(self, job: Job, kind: str, **fields: Any) -> Job:
        """Refuse a submission whole — ``reject`` (admission control,
        draining) or ``shed`` (overload; the record carries the reason
        and the RETRY_AFTER hint so the runner can cooperatively resubmit
        after it instead of retrying blind): files CANCELED, job done."""
        self._metrics(job.tenant)["files_canceled"].add(len(job.files))
        self._transition(kind, t=self.engine.now, job_id=job.job_id, **fields)
        self.engine.trace(
            "sched", f"job_{kind}", job=job.job_id, tenant=job.tenant,
            files=len(job.files), **fields,
        )
        return job

    # -- cancellation / deadlines ------------------------------------------------
    def cancel_job(self, job: Job, reason: str = "canceled") -> bool:
        """Cancel every non-terminal file of ``job`` NOW: queued files
        leave the queue, parked files are unparked (their backoff timers
        cancelled), ACTIVE sessions are aborted with a typed
        :class:`TransferCanceled`.  Every cancellation is journaled."""
        if self._dead or job.state.terminal:
            return False
        now = self.engine.now
        metrics = self._metrics(job.tenant)
        for task in job.files:
            if task.state.terminal:
                continue
            metrics["files_canceled"].add()
            self._unpark(task)  # (a duplicate is never parked)
            was_active = task.state is FileState.ACTIVE
            self._transition(
                "cancel", t=now, job_id=job.job_id, index=task.index,
                reason=reason,
            )
            door = self.doors.get(task.last_door or "")
            if was_active and door is not None and door.link is not None:
                door.link.abort_session(
                    task.last_session,
                    TransferCanceled(task.last_session, reason),
                )
        # Purge the canceled entries from the tenant's heap now.  The
        # dispatch loop skips terminal entries lazily, but it only runs
        # while work is outstanding — a cancellation that empties the
        # broker would otherwise strand the stale entries in the queue
        # (flagged by the quiescence audit).
        state = self._tenants.get(job.tenant)
        if state is not None and any(e[2].state.terminal for e in state.queue):
            state.queue = [e for e in state.queue if not e[2].state.terminal]
            heapq.heapify(state.queue)
        self.engine.trace("sched", "job_canceled", job=job.job_id, reason=reason)
        return True

    def _deadline_watch(self, job: Job, delay: float):
        yield self.engine.timeout(delay)
        if self._dead or job.state.terminal:
            return
        self._m_deadline_cancels.add()
        self.engine.trace("sched", "deadline_exceeded", job=job.job_id)
        self.cancel_job(job, reason=f"deadline exceeded after {delay}s")

    # -- dispatch ----------------------------------------------------------------
    def _kick(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed(None)
        if (
            not self._loop_running
            and self.table.outstanding > 0
            and not (self._dead or self._draining or self._recovering)
        ):
            self._loop_running = True
            self.engine.process(self._dispatch_loop())

    def _runnable_tenant(self) -> Optional[str]:
        """The stride pick: lowest pass among tenants with queued work
        and spare in-flight capacity (name breaks ties, deterministic)."""
        best: Optional[str] = None
        ctrl = self.overload
        for name in sorted(self._tenants):
            state = self._tenants[name]
            if not state.queue or state.inflight >= state.policy.max_inflight:
                continue
            if ctrl is not None and ctrl.tenant_parked(name):
                # Brownout: lowest-weight tenants sit out dispatch; their
                # queued work holds (and re-enters) rather than cancels.
                continue
            if best is None or state.pass_value < self._tenants[best].pass_value:
                best = name
        return best

    def _door_admits(self, door: RftpDoor, verdicts: Dict[tuple, str]) -> str:
        """ADMIT / FULL / CLOSED for ``door`` now, under the brownout cap
        in force.  Only a slot taken or time moving changes it, so one
        synchronous pass memoises it in ``verdicts``, keyed by (door, cap):
        a brownout transition inside the pass cannot reuse a stale one."""
        ctrl = self.overload
        cap = ctrl.door_session_cap(door.max_sessions) if ctrl is not None else None
        key = (door.name, cap)
        verdict = verdicts.get(key)
        if verdict is not None:
            return verdict
        verdict = door.admission(self.engine.now, session_cap=cap)
        leases = door.leases
        if verdict == ADMIT and leases is not None:
            # Dispatched-but-unfinished tasks on EVERY door sharing these
            # leases each hold (or are about to take, synchronously at
            # transfer start) one of them.  door.active is bumped at
            # dispatch, before the task's process first runs, so this
            # aggregate cannot race the way the pool's own live lease
            # count can — per-door caps alone oversubscribe the shared
            # pool and trip the lease-capacity error.
            inflight = sum(d.active for d in self.doors.values() if d.leases is leases)
            if inflight >= leases.capacity:
                verdict = FULL
        verdicts[key] = verdict
        return verdict

    def _alternatives(self, task: FileTask) -> List[Tuple[int, str]]:
        """``(cursor, door name)`` per alternative of ``task``, walking
        ``orderly`` from its failure cursor (the first keeps the cursor
        unreduced, as ``attempt_fail`` journals it)."""
        names = task.spec.sources or tuple(self.doors)
        n, cur = len(names), task.alt_cursor
        return [((cur + i) % n if i else cur, names[(cur + i) % n])
                for i in range(n)]

    def _pick_door(self, task: FileTask,
                   verdicts: Dict[tuple, str]) -> Optional[RftpDoor]:
        """First admitting door among the task's alternatives.  The
        cursor stays: only an ``attempt_fail`` record moves it."""
        for _, name in self._alternatives(task):
            door = self.doors.get(name)
            if door is not None and self._door_admits(door, verdicts) == ADMIT:
                return door
        return None

    # -- brownout sampling -------------------------------------------------------
    def _observe_overload(self) -> None:
        """Feed the brownout FSM one load sample (event-driven: called
        at dispatch and completion points, never from its own timer
        except the hysteresis recheck below)."""
        ctrl = self.overload
        if ctrl is None or not ctrl.config.brownout_enabled:
            return
        occupancy = max((d.pool_occupancy for d in self.doors.values()), default=0.0)
        ctrl.observe(
            self._active, self.config.max_active, occupancy,
            {n: s.policy.weight for n, s in self._tenants.items()},
        )
        if ctrl.state == RECOVERING and not self._recheck_pending:
            # The exit dwell needs one more sample after `brownout_hold`
            # quiet seconds; without this timer a fully-parked broker
            # would never observe again and never re-promote.
            self._recheck_pending = True
            self.engine.process(self._brownout_recheck(ctrl.config.brownout_hold))

    def _brownout_recheck(self, delay: float):
        yield self.engine.timeout(max(delay, 1e-3))
        self._recheck_pending = False
        if self._dead:
            return
        self._observe_overload()
        self._kick()

    def _dispatch_loop(self):
        while self.table.outstanding > 0 and not (self._dead or self._draining):
            verdicts: Dict[tuple, str] = {}
            cohort: List[FileTask] = []  # files this pass cannot place
            while (
                self._active < self.config.max_active
                and not (self._dead or self._draining)
            ):
                self._observe_overload()
                tenant_name = self._runnable_tenant()
                if tenant_name is None:
                    break
                state = self._tenants[tenant_name]
                entry = heapq.heappop(state.queue)
                task = entry[2]
                if task.state.terminal:
                    continue  # canceled while queued; entry is stale
                door = self._pick_door(task, verdicts)
                if door is None:
                    # No slot burnt, no stride pass charged.
                    self._m_blocked.add()
                    if self._active and all(
                        self._door_admits(d, verdicts) == FULL
                        for d in self.doors.values()
                    ):
                        # Every door full, a slot held: the file keeps its
                        # heap place; that slot's release runs the next pass.
                        heapq.heappush(state.queue, entry)
                        break
                    # A closed door, a free one elsewhere or no slot held:
                    # park in this pass's cohort (ONE shared tick below).
                    state.parked += 1
                    self._parked[id(task)] = (None, state)
                    cohort.append(task)
                    continue
                state.pass_value += 1.0 / state.policy.weight
                self._take_slot(state, door)
                verdicts.clear()  # the one thing in a pass that changes them
                task.state = FileState.READY  # dispatch-instant, not journaled
                self.engine.process(self._run_task(task, state, door))
            if cohort:
                self.engine.process(self._requeue_later(
                    cohort, self.engine.timeout(self.config.blocked_retry)
                ))
            self._wake = Event(self.engine)
            if self.table.outstanding == 0 or self._dead or self._draining:
                break
            yield self._wake
        self._loop_running = False

    # -- parking (retry backoff: own timer; blocked: the pass's shared tick) -----
    def _enqueue(self, task: FileTask) -> None:
        """Queue ``task`` behind every queued file of its priority."""
        heapq.heappush(self._tenants[task.job.tenant].queue,
                       (-task.job.priority, next(self._fifo), task))

    def _park(self, task: FileTask, delay: float, state: _TenantState) -> None:
        state.parked += 1
        timer = self.engine.timeout(delay)
        self._parked[id(task)] = (timer, state)
        self.engine.process(self._requeue_later([task], timer))

    def _unpark(self, task: FileTask) -> bool:
        """Remove a parked task NOW (job canceled / broker action): its own
        backoff timer is cancelled; a cohort's shared one skips the gap."""
        entry = self._parked.pop(id(task), None)
        if entry is None:
            return False
        timer, state = entry
        if timer is not None:
            timer.cancel()
        state.parked -= 1
        return True

    def _requeue_later(self, tasks: List[FileTask], timer: Any):
        """When ``timer`` fires, requeue (in park order, each behind
        everything queued meanwhile) the ``tasks`` still parked, then
        wake dispatch once.  A dead incarnation's timer touches nothing."""
        yield timer
        if self._dead:
            return
        requeued = False
        for task in tasks:
            entry = self._parked.pop(id(task), None)
            if entry is None:
                continue  # unparked while waiting (cancel won the race)
            entry[1].parked -= 1
            if not task.state.terminal:
                self._enqueue(task)
                requeued = True
        if requeued:
            self._kick()

    def _retry_delay(self, task: FileTask) -> float:
        """Capped exponential backoff with deterministic seeded jitter."""
        cfg = self.config
        base = cfg.retry_backoff * (
            cfg.retry_backoff_factor ** max(0, task.attempts - 1)
        )
        delay = min(base, cfg.retry_backoff_cap)
        # Shared helper, same digest key as PR 7's private function —
        # backoff schedules stay bit-identical.
        return jittered(delay, cfg.retry_jitter, self.seed,
                        task.job.job_id, task.path, task.attempts)

    # -- worker slots ------------------------------------------------------------
    def _take_slot(self, state: _TenantState, door: RftpDoor) -> None:
        state.inflight += 1
        self._active += 1
        self.peak_active = max(self.peak_active, self._active)
        door.active += 1

    def _release_slot(self, state: _TenantState, door: RftpDoor) -> None:
        """The single place a worker slot is returned."""
        state.inflight -= 1
        self._active -= 1
        door.active -= 1

    # -- the attempt -------------------------------------------------------------
    def _run_task(self, task: FileTask, state: _TenantState, door: RftpDoor):
        if task.state.terminal or self._dead:
            # Canceled (or the broker died) between dispatch and start.
            self._release_slot(state, door)
            self._kick()
            return
        metrics = self._metrics(task.job.tenant)
        now = self.engine.now
        if task.started_at is None:
            metrics["queue_wait"].observe(now - task.submitted_at)
        if task.attempts:
            metrics["retries"].add()
        session_id = allocate_session_id(self.engine)
        self._transition(
            "attempt", t=now, job_id=task.job.job_id, index=task.index,
            door=door.name, session=session_id, attempts=task.attempts + 1,
        )
        error = None
        if self.attempt_fault_hook is not None and self.attempt_fault_hook(now):
            # Retry-storm seam: the attempt dies at the broker boundary
            # before any transfer traffic — the cheapest, fastest failure
            # there is, which is exactly what makes storms metastable.
            error = InjectedAttemptFault(session_id, "injected broker-attempt fault")
        yield from self._attempt(task, state, door, session_id, error=error)

    def _attempt(self, task: FileTask, state: _TenantState, door: RftpDoor,
                 session_id: int, resume: bool = False,
                 error: Optional[TransferError] = None):
        """THE attempt: one alternative tried on one door, its worker slot
        already taken.  The door call is ``resume`` for a file ACTIVE at
        a crash and ``transfer`` otherwise; an ``error`` given up front
        ends the attempt at the broker boundary, with no door call.  A
        crashed incarnation touches nothing after its yield: the crash
        owns the state now, and the next incarnation replays it."""
        if self.config.watchdog:
            self.engine.process(self._watchdog(task, door, session_id))
        resumed_from = 0 if resume else None
        if error is None:
            call = door.resume if resume else door.transfer
            try:
                job = yield call(task, session_id)
                if resume:
                    resumed_from = job.start_seq
            except TransferError as exc:
                error = exc
        if self._dead:
            return
        self._release_slot(state, door)
        self._settle(task, door, error, resumed_from)
        self._kick()

    def _settle(self, task: FileTask, door: Optional[RftpDoor],
                error: Optional[TransferError],
                resumed_from: Optional[int] = None) -> None:
        """One attempt is over (its slot already released): journal the
        outcome and requeue, park or complete the file.

        ``resumed_from`` is not None when the attempt was a post-crash
        SESSION_RESUME, which settles differently from a dispatched
        attempt in exactly the five ways DESIGN.md §7 lists and justifies,
        (a)–(e); each is marked on its line below.
        """
        resume = resumed_from is not None
        job = task.job
        now = self.engine.now
        metrics = self._metrics(job.tenant)
        ident = {"t": now, "job_id": job.job_id, "index": task.index}
        where = {"job": job.job_id, "path": task.path, "door": task.last_door,
                 "session": task.last_session, "attempts": task.attempts}
        if not resume:
            self._observe_overload()  # (d)
        if task.state.terminal:
            # cancel_job/deadline ended the file under the attempt and
            # already journaled the terminal state; that record wins over
            # whatever the session went on to report.
            pass
        elif error is None:
            extra = {}
            door.breaker.record_success()
            if resume:
                self._m_rec_resumed.add()
                extra["resumed_from"] = resumed_from  # (e)
            elif self.overload is not None:
                self.overload.note_success(job.tenant)  # (d)
            metrics["files_finished"].add()
            metrics["bytes_finished"].add(task.size)
            metrics["latency"].observe(now - task.submitted_at)
            self._transition("finish", door=door.name, **ident, **extra)
            self.engine.trace(
                "sched", "file_resumed" if resume else "file_finished",  # (e)
                **where, **extra,
            )
        else:
            kind = type(error).__name__
            if resume:
                self._m_rec_resume_failed.add()
            else:
                door.breaker.record_failure(now)  # (a)
            cursor = task.alt_cursor if resume else next(
                c for c, name in self._alternatives(task) if name == door.name
            )
            self._transition(
                "attempt_fail", **ident,
                alt_cursor=cursor + 1,  # orderly: the next alternative
                attempts=task.attempts, error=kind,
            )
            self.engine.trace(
                "sched", "resume_failed" if resume else "file_attempt_failed",
                error=kind, **where,
            )
            budget_ok = (
                resume  # (b)
                or self.overload is None
                or self.overload.allow_retry(job.tenant)
            )
            state = self._tenant(job.tenant)
            if task.attempts >= self.config.max_attempts or not budget_ok:
                reason = f"{kind}: {error}"
                if not budget_ok:
                    # Retry budget dry: the tenant's failure burst must
                    # not amplify into a parked-retry storm — fail NOW.
                    reason += " (retry budget exhausted)"
                    self.engine.trace(
                        "sched", "retry_budget_denied",
                        tenant=job.tenant, **where,
                    )
                metrics["files_failed"].add()
                self._transition("file_failed", **ident, error=reason)
            elif resume:
                self._enqueue(task)  # (c) a fresh attempt, through dispatch
            else:
                self._park(task, self._retry_delay(task), state)
        self._notify_drain()

    def _watchdog(self, task: FileTask, door: RftpDoor, session_id: int):
        """Kill an attempt that stops making delivered-byte progress.

        Polls the link-level job at a cadence bounded below by
        ``watchdog_min_interval`` and scaled by the adaptive RTO; two
        consecutive polls with an identical progress vector (restart
        marker, completed blocks, fallback blocks, start seq) abort the
        session with :class:`StuckTransfer` — the failure then flows
        through the normal retry path (journal, alternatives cursor,
        backoff) instead of wedging a worker slot forever."""
        cfg = self.config
        link = door.link
        last = None
        while not self._dead:
            rto = cfg.watchdog_min_interval
            if link is not None and link.health is not None:
                rto = link.health.rtt.rto
            interval = max(cfg.watchdog_min_interval, cfg.watchdog_rto_multiplier * rto)
            yield self.engine.timeout(interval)
            if (
                self._dead
                or task.state is not FileState.ACTIVE
                or task.last_session != session_id
                or link is None
            ):
                return
            job = link.jobs.get(session_id)
            if job is None:
                return  # attempt settled between polls
            progress = (
                job.start_seq, job.marker, job.completed_blocks,
                job.fallback_blocks, job.started_at is not None,
            )
            if progress == last:
                self._m_watchdog_kills.add()
                self.engine.trace(
                    "sched", "watchdog_kill", job=task.job.job_id,
                    path=task.path, session=session_id, interval=interval,
                )
                link.abort_session(session_id, StuckTransfer(
                    session_id,
                    f"no delivered-byte progress within {interval:.3f}s",
                ))
                return
            last = progress

    # -- crash / drain / recovery ------------------------------------------------
    def crash(self) -> None:
        """Kill this broker incarnation: every door's link crashes (live
        sessions die with ``EndpointCrashed``, volatile source state is
        lost) and the incarnation stops journaling and touching state —
        a crash writes nothing, by definition.  The journal object
        survives for :meth:`recover`."""
        if self._dead:
            return
        self._dead = True
        self.engine.trace("sched", "broker_crash")
        for door in self.doors.values():
            if door.link is not None:
                door.link.crash()

    def drain(self):
        """Graceful shutdown: stop admissions and dispatch, let in-flight
        transfers finish, then write a clean journal checkpoint.  Process
        event resolving to the journal.  Queued/parked files stay
        SUBMITTED in the journal — a later ``recover`` continues them."""
        self._draining = True
        self.engine.trace("sched", "drain_begin", active=self._active)

        def _wait():
            while self._active > 0:
                self._drain_wake = Event(self.engine)
                yield self._drain_wake
            self._checkpoint()
            self.engine.trace("sched", "drain_done")
            return self.journal

        return self.engine.process(_wait())

    def _notify_drain(self) -> None:
        if (
            self._draining
            and self._active == 0
            and self._drain_wake is not None
            and not self._drain_wake.triggered
        ):
            self._drain_wake.succeed(None)

    def _checkpoint(self) -> None:
        counts = {"finished": 0, "failed": 0, "canceled": 0, "pending": 0}
        for job in self.jobs:
            for task in job.files:
                key = task.state.value.lower()
                counts[key if key in counts else "pending"] += 1
        self._transition(
            "checkpoint", t=self.engine.now, clean=True,
            state={
                "jobs": {job.job_id: job.state.value for job in self.jobs},
                "files": counts,
            },
            snapshot=snapshot_jobs(self.jobs),
        )
        if self.config.checkpoint_compact and not self._dead:
            self.journal.compact()

    @classmethod
    def recover(
        cls,
        engine: Any,
        doors: Sequence[RftpDoor],
        journal: Journal,
        config: Optional[SchedulerConfig] = None,
        tenants: Optional[Dict[str, TenantPolicy]] = None,
        seed: int = 0,
        overload: Optional[OverloadConfig] = None,
    ) -> "TransferBroker":
        """Build a new incarnation from a journal replay.

        Terminal files keep their journaled outcome (FINISHED files are
        never re-transferred), SUBMITTED files re-enter the queue in
        original order (dedupe decisions replay exactly), and each file
        ACTIVE at the journal's end gets one attempt whose door call is
        SESSION_RESUME on its journaled door/session — only the suffix
        past the sink's restart marker moves.  The resume pass runs them
        one at a time and holds dispatch until it completes (resume
        flushes the link's shared credit ledger, so it must not race
        fresh sessions)."""
        state = replay(journal.records)
        broker = cls(engine, doors, config, tenants,
                     journal=journal, seed=seed, overload=overload)
        broker.recovered = True
        if broker.overload is not None:
            # Per-base-id shed counts survive the crash: a job shed
            # before the crash keeps doubling its RETRY_AFTER after it,
            # and replayed hints stay byte-identical.
            for rec in journal.select("shed"):
                broker.overload.count_shed(str(rec["job_id"]))
        for door in broker.doors.values():
            door.active = 0  # the dead incarnation's slots are gone
        # Adopt the replayed table whole (resubmission and destination
        # dedupe indexes and the next auto id included).
        broker.table = state
        now = engine.now
        overdue: List[Job] = []
        for job in state.jobs:
            job.done = Event(engine)
            broker._m_rec_jobs.add()
            broker._m_rec_files.add(len(job.files))
            if job.state.terminal:
                job.done.succeed(job)
                continue
            broker._metrics(job.tenant)
            for task in job.files:
                # Replay leaves no file READY; an ACTIVE one is resumed.
                if task.duplicate_of is None and task.state is FileState.SUBMITTED:
                    broker._enqueue(task)
                    broker._m_rec_requeued.add()
            if job.deadline is not None:
                remaining = job.submitted_at + job.deadline - now
                if remaining <= 0:
                    overdue.append(job)
                else:
                    engine.process(broker._deadline_watch(job, remaining))
        resume = state.resume
        mode = "checkpoint" if state.clean else "crash"
        broker._transition("recover", t=now, mode=mode, resumed=len(resume))
        engine.trace(
            "sched", "broker_recover", mode=mode,
            jobs=len(state.jobs), resume=len(resume),
        )
        for job in overdue:
            broker._m_deadline_cancels.add()
            broker.cancel_job(job, reason=f"deadline exceeded after {job.deadline}s")
        if resume:
            broker._recovering = True
            engine.process(broker._resume_pass(resume))
        else:
            broker._kick()
        return broker

    def _resume_pass(self, tasks: List[FileTask]):
        """Run each interrupted file's resume attempt, one at a time
        (resume flushes the shared credit ledger — see
        ``SourceLink.resume`` — so the pass is serialised and dispatch is
        held until it finishes)."""
        for task in tasks:
            if self._dead:
                return
            if task.state.terminal:
                continue  # e.g. an overdue deadline canceled it above
            state = self._tenant(task.job.tenant)
            door = self.doors.get(task.last_door or "")
            session_id = task.last_session
            if door is None or door.link is None or session_id is None:
                self._settle(task, door, TransferError(
                    session_id or 0, "no door to resume on"), 0)
                continue
            if door.link.data.alive_count == 0:
                yield door.middleware.reopen_channel(
                    door.link, door.remote_dev, door.port
                )
                if self._dead:
                    return
            self._take_slot(state, door)
            yield from self._attempt(task, state, door, session_id, resume=True)
        self._recovering = False
        self._kick()
