"""FTS-style multi-tenant transfer scheduler.

The fleet-scale front door over the single-transfer middleware: a
:class:`~repro.sched.broker.TransferBroker` accepts bulk *jobs* (many
files, priority, tenant, ordered source alternatives) and multiplexes
them onto a bounded pool of reused transfer sessions with weighted
per-tenant fair share, admission control, per-destination dedupe, and
``orderly`` multi-source failover guarded by circuit breakers.  Every
state transition is journaled, so a crashed broker recovers from its
write-ahead log with nothing lost and nothing transferred twice.

- :mod:`repro.sched.jobs` — the FTS-mirroring job/file state model
- :mod:`repro.sched.broker` — the scheduler itself (+ doors)
- :mod:`repro.sched.journal` — the replayable write-ahead journal
- :mod:`repro.sched.overload` — backpressure, load shedding, retry
  budgets, and brownout degradation under fleet-scale overload
- :mod:`repro.sched.spec` — job-mix spec format and synthetic generator
- :mod:`repro.sched.report` — deterministic JSONL job reports
- :mod:`repro.sched.runner` — one-call spec → testbed → result harness
  (including the crash-restart supervisor and the delivery audit)
"""

from repro.sched.broker import (
    RftpDoor,
    SchedulerConfig,
    TenantPolicy,
    TransferBroker,
)
from repro.sched.jobs import FileState, FileTask, Job, JobState, TransferSpec
from repro.sched.journal import (
    Journal,
    replay,
    restore_jobs,
    snapshot_jobs,
)
from repro.sched.overload import OverloadConfig, OverloadController
from repro.sched.report import (
    report_lines,
    summarize,
    write_report,
)
from repro.sched.runner import (
    BrokerSupervisor,
    SchedResult,
    audit_delivery,
    quiescence_leaks,
    run_sched,
)
from repro.sched.spec import (
    load_spec,
    overload_spec,
    synthetic_spec,
    validate_spec,
)

__all__ = [
    "BrokerSupervisor",
    "FileState",
    "FileTask",
    "Job",
    "JobState",
    "Journal",
    "OverloadConfig",
    "OverloadController",
    "RftpDoor",
    "SchedResult",
    "SchedulerConfig",
    "TenantPolicy",
    "TransferBroker",
    "TransferSpec",
    "audit_delivery",
    "load_spec",
    "overload_spec",
    "quiescence_leaks",
    "replay",
    "report_lines",
    "restore_jobs",
    "run_sched",
    "snapshot_jobs",
    "summarize",
    "synthetic_spec",
    "validate_spec",
    "write_report",
]
