"""One-call chaos harness: transfer under faults, audit the wreckage.

``run_chaos`` drives a memory-to-memory RFTP transfer over a testbed with
a :class:`FaultPlan` armed, then checks the only two acceptable endings:

- the transfer **completes** — delivery must be byte-exact (every block
  exactly once, payloads intact, in order per session);
- the transfer **aborts** — the error must be a typed
  :class:`~repro.core.errors.TransferError` raised within the configured
  retry budgets, not a hang.

Either way the middleware must come out clean — :meth:`SourceLink.audit`
and :meth:`SinkEngine.audit` both empty — and, on a completed run, the
delivery must pass :func:`~repro.apps.io.audit_blocks`.  Any violation
is reported in :attr:`ChaosResult.leaks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.apps.io import CollectingSink, PatternSource, audit_blocks
from repro.core import ProtocolConfig, RdmaMiddleware, TransferOutcome
from repro.core.blocks import SinkBlockState
from repro.core.errors import TransferError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.testbeds import TESTBEDS, Testbed

__all__ = ["ChaosResult", "run_chaos"]


@dataclass
class ChaosResult:
    """Outcome and post-mortem of one chaos run."""

    testbed: str
    plan: FaultPlan
    completed: bool
    #: Typed error class name when the transfer aborted, else None.
    error: Optional[str]
    outcome: Optional[TransferOutcome]
    #: Simulated instant at which the client run settled (completed or
    #: aborted), in seconds.
    sim_time: float
    byte_exact: Optional[bool]
    #: Human-readable invariant violations; empty means a clean run.
    leaks: Tuple[str, ...]
    #: Injected-fault counters.
    write_faults: int = 0
    ctrl_drops: int = 0
    ctrl_delays: int = 0
    latency_spikes: int = 0
    flaps_fired: int = 0
    payload_corruptions: int = 0
    source_crashes_fired: int = 0
    sink_crashes_fired: int = 0
    qp_kills_fired: int = 0
    #: Recovery-path counters.
    resends: int = 0
    ctrl_retries: int = 0
    stray_source: int = 0
    stray_sink: int = 0
    sessions_reclaimed: int = 0
    duplicates: int = 0
    #: Integrity / repair / resume counters.
    checksum_mismatches: int = 0
    repairs: int = 0
    markers_sent: int = 0
    #: SESSION_RESUME attempts the harness made after typed aborts.
    resume_attempts_used: int = 0
    #: First block the final (completed) incarnation re-sent; 0 when the
    #: transfer never needed a resume.
    resumed_from: int = 0
    #: Payload bytes the data QPs actually pushed, across every
    #: incarnation, repair and re-send — the bytes-on-wire a resume is
    #: supposed to keep strictly below a full restart's.
    data_bytes_sent: int = 0
    #: Degraded-mode counters.
    fallbacks: int = 0
    fallback_blocks: int = 0
    repromotions: int = 0
    breaker_trips: int = 0
    heartbeat_drops: int = 0
    fallback_denials: int = 0

    @property
    def clean(self) -> bool:
        """Did the run end in one of the two acceptable states, leak-free?"""
        if self.leaks:
            return False
        if self.completed:
            return bool(self.byte_exact)
        return self.error is not None


def _count(owner: object, counter: str) -> int:
    """``owner``'s named counter as an int; 0 when there is no owner."""
    return int(getattr(owner, counter).total) if owner is not None else 0


def run_chaos(
    testbed: Union[str, Testbed],
    total_bytes: int = 256 * 1024 * 1024,
    plan: Optional[FaultPlan] = None,
    config: Optional[ProtocolConfig] = None,
    port: int = 2811,
    horizon: float = 300.0,
    resume_attempts: int = 0,
    resume_backoff: float = 1.0,
) -> ChaosResult:
    """Run one m2m transfer under ``plan`` and audit the middleware.

    ``horizon`` bounds the simulation (seconds) so a recovery bug cannot
    spin forever; hitting it is reported as a leak.  With
    ``resume_attempts > 0`` the harness reacts to a typed abort the way a
    production mover would: wait ``resume_backoff`` seconds, re-establish
    a data channel if none survived, and SESSION_RESUME from the sink's
    restart marker — so a hard mid-transfer death can still end in a
    byte-exact (overlap-tolerant) delivery.
    """
    if isinstance(testbed, str):
        testbed = TESTBEDS[testbed]()
    plan = plan or FaultPlan()
    cfg = config or ProtocolConfig()
    injector = FaultInjector(plan)
    injector.arm_network(testbed)

    source = PatternSource(testbed.src, tag="chaos")
    sink = CollectingSink(testbed.dst)
    server = RdmaMiddleware(testbed.dst, testbed.dst_dev, testbed.cm, cfg)
    server.serve(port, sink)
    client = RdmaMiddleware(testbed.src, testbed.src_dev, testbed.cm, cfg)

    holder: dict = {}

    def _run():
        link = yield client.open_link(
            testbed.dst_dev, port, injector, testbed.tcp_connection
        )
        holder["link"] = link
        injector.arm_source(link)
        sink_eng = next(iter(server.sink_engines.values()), None)
        if sink_eng is not None:
            injector.arm_sink(sink_eng)
        try:
            holder["outcome"] = yield client.transfer(
                testbed.dst_dev, port, source, total_bytes, link=link
            )
        except TransferError as exc:
            holder["error"] = exc
        attempts = 0
        while holder.get("outcome") is None and attempts < resume_attempts:
            attempts += 1
            holder["resume_attempts_used"] = attempts
            yield testbed.engine.timeout(resume_backoff)
            if link.data.alive_count == 0:
                yield client.reopen_channel(link, testbed.dst_dev, port)
            sid = holder["error"].session_id
            try:
                holder["outcome"] = yield client.resume(
                    testbed.dst_dev, port, source, total_bytes, sid, link=link
                )
                holder["error"] = None
            except TransferError as exc:
                holder["error"] = exc

    engine = testbed.engine
    proc = engine.process(_run())
    # run(until=...) pins the clock to the horizon; stamp the instant the
    # run actually settled so sim_time reports something meaningful.
    proc.add_callback(lambda _ev: holder.setdefault("settled_at", engine.now))
    engine.run(until=horizon)

    leaks: List[str] = []
    if not proc.triggered:
        leaks.append(
            f"run did not settle within {horizon}s sim horizon (hang/deadlock)"
        )

    outcome: Optional[TransferOutcome] = holder.get("outcome")
    error: Optional[TransferError] = holder.get("error")
    completed = outcome is not None

    link = holder.get("link")
    if link is not None:
        leaks.extend(link.audit())
    sink_engine = next(iter(server.sink_engines.values()), None)
    if sink_engine is not None:
        # Sessions never retired, blocks outside their idle states,
        # parked / READY blocks left behind, history over its cap,
        # restart-marker state outliving an acked session.
        leaks.extend(sink_engine.audit())
        # An endpoint crash legitimately de-synchronises the two credit
        # ledgers (the dead side's view is gone); only a resume reconciles
        # them, and whether one ran after the *last* crash is
        # timing-dependent — so the two audits below apply to crash-free
        # runs only.
        crash_free = not injector.sink_crashes_fired and not injector.source_crashes_fired
        if completed and crash_free and link is not None and sink_engine.pool is not None:
            waiting = sum(
                blk.state is SinkBlockState.WAITING
                for blk in sink_engine.pool.blocks.values()
            )
            if link.ledger.balance != waiting:
                leaks.append(
                    f"credit imbalance: source holds {link.ledger.balance},"
                    f" sink advertises {waiting}"
                )
        # Every injected corruption must be *detected*.  When nothing
        # raced the accounting (no GC reclaim, no stray BLOCK_DONE) the
        # counters must agree exactly; otherwise byte-exactness below is
        # the backstop.
        if (
            crash_free
            and not sink_engine.sessions_reclaimed.total
            and not sink_engine.stray_messages.total
            and sink_engine.checksum_mismatches.total != injector.payload_corruptions
        ):
            leaks.append(
                f"{injector.payload_corruptions} corruptions injected but only"
                f" {int(sink_engine.checksum_mismatches.total)} detected"
            )

    byte_exact: Optional[bool] = None
    if completed:
        sid = outcome.session_id
        sessions = sink.by_session()
        problems, _overlap = audit_blocks(
            f"session {sid}", sessions.pop(sid, {}), total_bytes, cfg.block_size,
            source.tag,
            overlap_ok=holder.get("resume_attempts_used", 0) > 0
            or outcome.fallbacks > 0
            or outcome.repromotions > 0,
        )
        problems += [f"blocks delivered under foreign session {other}" for other in sessions]
        byte_exact = not problems
        leaks.extend(problems)

    data_bytes_sent = 0
    if link is not None:
        data_bytes_sent = sum(qp.bytes_sent.total for qp in link._all_data_qps)

    return ChaosResult(
        testbed=testbed.name,
        plan=plan,
        completed=completed,
        error=type(error).__name__ if error is not None else None,
        outcome=outcome,
        sim_time=holder.get("settled_at", engine.now),
        byte_exact=byte_exact,
        leaks=tuple(leaks),
        write_faults=injector.write_faults,
        ctrl_drops=injector.ctrl_drops,
        ctrl_delays=injector.ctrl_delays,
        latency_spikes=injector.latency_spikes,
        flaps_fired=injector.flaps_fired,
        payload_corruptions=injector.payload_corruptions,
        source_crashes_fired=injector.source_crashes_fired,
        sink_crashes_fired=injector.sink_crashes_fired,
        qp_kills_fired=injector.qp_kills_fired,
        resends=outcome.resends if outcome else 0,
        ctrl_retries=outcome.ctrl_retries if outcome else 0,
        stray_source=_count(link, "stray_messages"),
        stray_sink=_count(sink_engine, "stray_messages"),
        sessions_reclaimed=_count(sink_engine, "sessions_reclaimed"),
        duplicates=_count(sink_engine and sink_engine.reassembly, "duplicates"),
        checksum_mismatches=_count(sink_engine, "checksum_mismatches"),
        repairs=outcome.repairs if outcome else 0,
        markers_sent=_count(sink_engine, "markers_sent"),
        resume_attempts_used=holder.get("resume_attempts_used", 0),
        resumed_from=outcome.resumed_from if outcome else 0,
        data_bytes_sent=data_bytes_sent,
        fallbacks=_count(link, "fallbacks"),
        fallback_blocks=_count(sink_engine, "fallback_blocks"),
        repromotions=_count(link, "repromotions"),
        breaker_trips=_count(link, "breaker_trips"),
        heartbeat_drops=injector.heartbeat_drops,
        fallback_denials=injector.fallback_denials,
    )
