"""Wire a job-mix spec onto a testbed and run it to completion.

Besides the happy path, the runner owns the durability harness:

- every run journals its state transitions (``journal_path`` mirrors the
  records to disk as flushed JSON lines);
- :class:`BrokerSupervisor` restarts a crashed broker from the journal
  (``faults.broker_crashes`` in the spec schedules the crashes), so a
  run survives its scheduler dying mid-flight;
- ``recover=<journal file>`` with no spec restarts a *previous* run from
  its journal — the spec is embedded in the journal's first record;
- ``audit=True`` swaps in a verifiable pattern source and a collecting
  sink, and :func:`audit_delivery` then asserts zero lost files, zero
  divergent duplicate bytes, and byte-identical content per finished
  file even across broker crashes and session resumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.io import CollectingSink, PatternSource, ZeroSource
from repro.apps.rftp import RftpServer
from repro.core import ProtocolConfig, RdmaMiddleware
from repro.faults.plan import FaultPlan
from repro.sched.broker import (
    RftpDoor,
    SchedulerConfig,
    TenantPolicy,
    TransferBroker,
)
from repro.sched.jobs import FileState, Job, TransferSpec
from repro.sched.journal import Journal
from repro.sched.overload import OverloadConfig
from repro.sched.spec import validate_spec
from repro.testbeds import TESTBEDS, Testbed

__all__ = [
    "SchedResult", "BrokerSupervisor", "run_sched", "audit_delivery",
    "quiescence_leaks",
]

_PORT = 2811

class BrokerSupervisor:
    """Restarts a crashed broker from its journal.

    The process-supervisor role a real deployment gives systemd: when
    :meth:`crash` kills the current incarnation, a restart fires after
    ``restart_delay`` seconds and the next incarnation is built with
    :meth:`TransferBroker.recover` from the (surviving) journal.  With
    ``recover_path`` set, the journal takes a full durability round trip
    through that file first — recovery then sees exactly what would have
    reached disk, not in-process state.  Submissions arriving while the
    broker is down are queued and replayed, in order, on the new
    incarnation.
    """

    def __init__(
        self,
        engine: Any,
        doors: List[RftpDoor],
        config: Optional[SchedulerConfig] = None,
        tenants: Optional[Dict[str, TenantPolicy]] = None,
        journal: Optional[Journal] = None,
        seed: int = 0,
        restart_delay: float = 0.5,
        recover_path: Optional[str] = None,
        overload: Optional[OverloadConfig] = None,
    ) -> None:
        if restart_delay <= 0:
            raise ValueError("restart_delay must be positive")
        self.engine = engine
        self.doors = doors
        self.config = config
        self.tenants = tenants
        self.seed = seed
        self.restart_delay = restart_delay
        self.recover_path = recover_path
        self.overload = overload
        #: Chaos seam carried across incarnations: re-installed on every
        #: recovered broker so a retry storm survives its own crash.
        self.attempt_fault_hook = None
        self.broker = TransferBroker(
            engine, doors, config, tenants, journal=journal, seed=seed,
            overload=overload,
        )
        self.recoveries = 0
        self._pending: List[Tuple[Any, ...]] = []

    def submit(self, tenant: str, files: List[TransferSpec],
               priority: int = 0, job_id: Optional[str] = None,
               deadline: Optional[float] = None) -> Optional[Job]:
        """Submit through the current incarnation; while the broker is
        down, the submission queues for the next one (returns None)."""
        if self.broker._dead:
            self._pending.append((tenant, files, priority, job_id, deadline))
            return None
        return self.broker.submit(
            tenant, files, priority=priority, job_id=job_id,
            deadline=deadline,
        )

    def crash(self) -> None:
        """Kill the current incarnation and schedule its restart."""
        if self.broker._dead:
            return
        journal = self.broker.journal
        self.broker.crash()
        self.engine.process(self._restart(journal))

    def _restart(self, journal: Journal):
        yield self.engine.timeout(self.restart_delay)
        if self.recover_path is not None:
            # Durability round trip: recovery must see what reached the
            # file, not the dead incarnation's in-memory journal.
            journal.close()
            journal.sync(self.recover_path)
            journal = Journal.load(self.recover_path, mirror=True)
        self.recover(journal)
        self.recoveries += 1
        pending, self._pending = self._pending, []
        for tenant, files, priority, job_id, deadline in pending:
            self.broker.submit(
                tenant, files, priority=priority, job_id=job_id,
                deadline=deadline,
            )

    def recover(self, journal: Journal) -> None:
        """Replace the current incarnation with one replayed from
        ``journal``, the chaos seam re-installed."""
        self.broker = TransferBroker.recover(
            self.engine, self.doors, journal,
            config=self.config, tenants=self.tenants, seed=self.seed,
            overload=self.overload,
        )
        self.broker.attempt_fault_hook = self.attempt_fault_hook


@dataclass
class SchedResult:
    """One completed broker run."""

    jobs: List[Job]
    broker: TransferBroker
    testbed: Testbed
    header: Dict[str, Any]
    #: The run's journal (in-memory; mirrored to disk when asked).
    journal: Optional[Journal] = None
    #: Broker restarts the supervisor performed (crash recoveries).
    recoveries: int = 0
    #: True when the run ended through ``drain_at`` with a checkpoint.
    drained: bool = False
    #: Wired only under ``audit=True``.
    source: Any = None
    sink: Any = None
    block_size: int = 0
    audit_ok: Optional[bool] = None
    audit_problems: List[str] = field(default_factory=list)
    #: Bytes a block delivered more than once contributed beyond its
    #: first copy (identical-content overlap across a session resume).
    overlap_bytes: int = 0
    #: Bytes moved after crash recovery by resumed sessions (the suffix
    #: past each sink restart marker).
    recovered_suffix_bytes: int = 0
    #: The run's server (for quiescence leak audits of the sink side).
    server: Any = None
    #: Post-run quiescence problems (see :func:`quiescence_leaks`).
    leaks: List[str] = field(default_factory=list)
    #: Jobs (and their files) the overload layer load-shed whole.
    shed_jobs: int = 0
    shed_files: int = 0

    @property
    def all_finished(self) -> bool:
        return all(j.state.value == "FINISHED" for j in self.jobs)

    @property
    def unresolved(self) -> List[Job]:
        """Jobs that neither finished nor were cooperatively shed — the
        set an operator actually has to chase after an overload run."""
        return [
            j for j in self.jobs
            if j.state.value != "FINISHED" and not j.shed
        ]

    @property
    def all_resolved(self) -> bool:
        """Every job finished or was shed with a RETRY_AFTER hint (shed
        work is *reported*, not lost — that counts as resolved)."""
        return not self.unresolved


def audit_delivery(
    jobs: List[Job],
    sink: CollectingSink,
    source: PatternSource,
    block_size: int,
) -> Tuple[bool, List[str], int, int]:
    """Byte-exactness audit over a collecting sink's delivery log.

    For every FINISHED primary file, the blocks delivered under its
    successful session id must pass :meth:`CollectingSink.audit_blocks`;
    a block may repeat only when the file was recovered across a crash
    (``task.recovered``).  Returns ``(ok, problems, overlap_bytes,
    recovered_suffix_bytes)``.
    """
    sessions = sink.session_rows()
    problems: List[str] = []
    overlap_bytes = 0
    recovered_suffix_bytes = 0
    for job in jobs:
        for task in job.files:
            if task.duplicate_of is not None or task.state is not FileState.FINISHED:
                continue
            label = f"{job.job_id}:{task.path}"
            sid = task.last_session
            rows = sessions.get(sid or -1)
            if rows is None:
                problems.append(f"{label}: no deliveries for session {sid}")
                continue
            found, overlap = sink.audit_blocks(
                label, rows, task.size, block_size, source.tag, task.recovered
            )
            problems += found
            overlap_bytes += overlap
            if task.resumed_from > 0:
                recovered_suffix_bytes += max(
                    0, task.size - task.resumed_from * block_size
                )
    return not problems, problems, overlap_bytes, recovered_suffix_bytes


def quiescence_leaks(result: "SchedResult") -> List[str]:
    """Post-run leak audit: after a shed-heavy campaign every transient
    structure must be back at baseline.

    Shedding rejects work at admission, so nothing it touches may linger:
    broker worker slots, parked files, tenant queues and stride
    bookkeeping, destination ownership, host-pool leases, every door
    link (:meth:`SourceLink.audit`) and — on the server side — every sink
    engine (:meth:`SinkEngine.audit`) must all be empty/terminal/idle.
    Returns a list of problems (empty means quiescent).
    """
    leaks: List[str] = []
    broker = result.broker
    if broker._active:
        leaks.append(f"{broker._active} broker worker slots still active")
    if broker.table.outstanding:
        leaks.append(f"{broker.table.outstanding} primary files still outstanding")
    if broker._parked:
        leaks.append(f"{len(broker._parked)} files still parked")
    for name, state in sorted(broker._tenants.items()):
        if state.queued or state.inflight or state.parked:
            leaks.append(
                f"tenant {name!r} not at baseline: queued={state.queued} "
                f"inflight={state.inflight} parked={state.parked}"
            )
    for path, task in sorted(broker.table.dest_owner.items()):
        if not task.state.terminal:
            leaks.append(
                f"dest owner for {path!r} non-terminal ({task.state.value})"
            )
    seen_pools: set = set()
    for name, door in sorted(broker.doors.items()):
        if door.link is not None:
            leaks.extend(f"{name} link: {leak}" for leak in door.link.audit())
        leases = door.leases
        if leases is None or id(leases) in seen_pools:
            continue  # a private channel set, or a pool already audited
        # Doors to the same (host, port) share one pool: audit it once.
        seen_pools.add(id(leases))
        if not leases.balanced:
            leaks.append(
                f"host pool via {name}: {leases.leased} channel "
                f"leases never returned"
            )
    server = result.server
    if server is not None:
        for client_id, eng in sorted(server.middleware.sink_engines.items()):
            leaks.extend(f"sink engine {client_id}: {leak}" for leak in eng.audit())
    return leaks


def run_sched(
    spec: Optional[Dict[str, Any]] = None,
    config: Optional[ProtocolConfig] = None,
    horizon: Optional[float] = None,
    journal_path: Optional[str] = None,
    recover: Optional[str] = None,
    audit: bool = False,
    restart_delay: float = 0.5,
) -> SchedResult:
    """Run one job-mix spec; returns once the engine drains (or hits
    ``horizon``).  Deterministic: the same spec (and seed) produces the
    same schedule, the same job states, and the same report bytes.

    ``spec=None`` with ``recover=<journal file>`` restarts a previous run
    from its journal instead: jobs come back by replay (no submissions),
    and interrupted files continue.  ``journal_path`` mirrors a fresh
    run's journal to disk; ``recover`` together with a spec makes every
    in-run broker restart round-trip its journal through that file.
    """
    recovering = spec is None
    if recovering:
        if recover is None:
            raise ValueError("run_sched needs a spec or a journal to recover")
        journal = Journal.load(recover, mirror=True)
        spec = journal.spec()
        if spec is None:
            raise ValueError(
                f"journal {recover!r} has no embedded spec record"
            )
    else:
        journal = Journal(path=journal_path)
        journal.append("spec", spec=spec)
    validate_spec(spec)
    testbed_name = spec.get("testbed", "ani-wan")
    if testbed_name not in TESTBEDS:
        raise ValueError(f"unknown testbed {testbed_name!r}")
    seed = int(spec.get("seed", 0))
    testbed = TESTBEDS[testbed_name](seed=seed)
    engine = testbed.engine
    cfg = config or ProtocolConfig()
    if config is None and bool(spec.get("use_srq", False)):
        # The spec's sharing-scope key only fills in when the caller
        # didn't hand us an explicit ProtocolConfig.
        cfg = replace(cfg, use_srq=True)

    injector = None
    if not recovering and spec.get("faults"):
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(FaultPlan.from_spec(spec["faults"]))
        injector.arm_network(testbed)

    sink = CollectingSink(testbed.dst) if audit else None
    server = RftpServer(testbed, cfg, sink)
    server.start(_PORT)
    client_mw = RdmaMiddleware(testbed.src, testbed.src_dev, testbed.cm, cfg)
    if audit:
        source: Any = PatternSource(testbed.src, tag="sched")
    else:
        source = ZeroSource(testbed.src)

    n_doors = int(spec.get("doors", 1))
    door_sessions = int(spec.get("door_sessions", 4))
    doors = [
        RftpDoor(
            f"door-{i}",
            client_mw,
            testbed.dst_dev,
            _PORT,
            source,
            max_sessions=door_sessions,
            tcp_factory=testbed.tcp_connection,
            # Chaos kills land on door 0's connection set: the broker
            # must fail the mid-job transfers over to the other doors.
            fault_injector=injector if i == 0 else None,
        )
        for i in range(n_doors)
    ]
    broker_cfg = SchedulerConfig(
        max_active=int(spec.get("max_active", 8)),
        watchdog=bool(spec.get("watchdog", False)),
        checkpoint_compact=bool(spec.get("checkpoint_compact", False)),
    )
    tenants = {
        name: TenantPolicy(
            weight=float(t.get("weight", 1.0)),
            max_inflight=int(t.get("max_inflight", broker_cfg.max_active)),
            max_queued=int(t.get("max_queued", 100_000)),
        )
        for name, t in spec.get("tenants", {}).items()
    }
    overload_cfg = None
    if spec.get("overload"):
        overload_cfg = OverloadConfig.from_spec(spec["overload"])
    supervisor = BrokerSupervisor(
        engine, doors, broker_cfg, tenants,
        journal=None if recovering else journal,
        seed=seed, restart_delay=restart_delay,
        recover_path=None if recovering else recover,
        overload=overload_cfg,
    )
    if injector is not None:
        injector.arm_broker(supervisor)
        injector.arm_scheduler(supervisor)

    job_specs = spec["jobs"]
    drain_at = spec.get("drain_at")
    status = {"drained": False}

    def _main():
        for door in doors:
            yield door.open()
        if injector is not None:
            injector.arm_source(doors[0].link)
        if recovering:
            # Jobs come back by journal replay, not submission; replace
            # the supervisor's fresh (empty) incarnation.
            supervisor.recover(journal)
            return
        for i, js in enumerate(job_specs):
            engine.process(_submit(i, js))

    resubmit_limit = int(spec.get("resubmit_limit", 0))

    def _submit(index: int, js: Dict[str, Any], attempt: int = 0):
        if attempt == 0:
            yield engine.timeout(float(js.get("submit_at", 0.0)))
        files = [
            TransferSpec(
                path=f["path"],
                size=int(f["size"]),
                sources=tuple(f.get("sources", ())),
            )
            for f in js["files"]
        ]
        base_id = js.get("job_id", f"job-{index + 1:04d}")
        job = supervisor.submit(
            js.get("tenant", "default"),
            files,
            priority=int(js.get("priority", 0)),
            job_id=base_id if attempt == 0 else f"{base_id}~r{attempt}",
            deadline=js.get("deadline"),
        )
        if job is not None and job.shed and attempt < resubmit_limit:
            # Cooperative client: honour the broker's RETRY_AFTER hint,
            # then resubmit under a fresh incarnation id (so recovery
            # dedupes each incarnation against its own journal record).
            yield engine.timeout(max(job.retry_after or 0.0, 1e-6))
            yield from _submit(index, js, attempt + 1)

    def _drain():
        yield engine.timeout(float(drain_at))
        if not supervisor.broker._dead:
            yield supervisor.broker.drain()
            status["drained"] = True

    engine.process(_main())
    if not recovering and drain_at is not None:
        # Absolute sim time, like ``broker_crashes`` — NOT relative to
        # door opening the way per-job ``submit_at`` delays are.
        engine.process(_drain())
    engine.run(until=horizon)

    broker = supervisor.broker
    header = {
        "testbed": testbed_name,
        "seed": seed,
        "max_active": broker_cfg.max_active,
        "doors": n_doors,
        "door_sessions": door_sessions,
        "tenants": {
            name: {"weight": t.policy.weight,
                   "max_inflight": t.policy.max_inflight,
                   "max_queued": t.policy.max_queued}
            for name, t in sorted(broker._tenants.items())
        },
        "faults": bool(injector is not None),
        "recovered": bool(recovering or supervisor.recoveries > 0),
        "drained": status["drained"],
        "overload": overload_cfg is not None,
        "resubmit_limit": resubmit_limit,
    }
    result = SchedResult(
        jobs=broker.jobs, broker=broker, testbed=testbed, header=header,
        journal=broker.journal, recoveries=supervisor.recoveries,
        drained=status["drained"], source=source, sink=sink,
        block_size=cfg.block_size, server=server,
        shed_jobs=sum(1 for j in broker.jobs if j.shed),
        shed_files=sum(len(j.files) for j in broker.jobs if j.shed),
    )
    result.leaks = quiescence_leaks(result)
    if audit and sink is not None:
        ok, problems, overlap, suffix = audit_delivery(
            broker.jobs, sink, source, cfg.block_size
        )
        result.audit_ok = ok
        result.audit_problems = problems
        result.overlap_bytes = overlap
        result.recovered_suffix_bytes = suffix
    return result
