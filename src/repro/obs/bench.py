"""Deterministic benchmark harness over the simulated experiment suite.

``python -m repro bench`` runs a fixed set of cases — RFTP on the LAN
and WAN testbeds, GridFTP on the WAN, fio against the RDMA block
device, and a chaos-recovery transfer — and records, per case:

* ``gbps`` — application goodput,
* ``p50_us`` / ``p99_us`` — block (or I/O) latency percentiles where
  the workload produces them (``None`` where it does not; never NaN,
  which is not valid JSON),
* ``events_per_sec`` — simulator engine throughput (processed events
  over wall-clock seconds), the health metric for the sim itself,
* ``sim_time`` / ``events`` — determinism anchors: these must be
  bit-identical run to run, so drift flags a behaviour change.

Results are written as ``BENCH_<date>.json`` and gated against the
committed ``benchmarks/BENCH_baseline.json`` by :mod:`repro.obs.compare`.
"""

from __future__ import annotations

import datetime as _dt
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchCase",
    "BENCH_CASES",
    "run_bench",
    "write_bench",
    "validate_bench",
    "bench_filename",
]

BENCH_SCHEMA_VERSION = 1

#: Required per-case result keys (values may be ``None`` where a case
#: has no meaningful measurement, e.g. GridFTP latency).
RESULT_KEYS = ("gbps", "p50_us", "p99_us", "events_per_sec", "sim_time", "events")


def _rftp_latency_us(engine) -> tuple:
    """Merge block-latency buckets across every session histogram."""
    from repro.obs.registry import HistogramMetric

    merged = HistogramMetric.merged(
        engine.metrics.family("source.block_latency_seconds")
    )
    if merged.count == 0:
        return None, None
    return merged.percentile(50) * 1e6, merged.percentile(99) * 1e6


def _run_rftp_case(testbed_name: str, total_bytes: int) -> dict:
    from repro.apps.rftp import run_rftp
    from repro.testbeds import TESTBEDS

    tb = TESTBEDS[testbed_name]()
    result = run_rftp(tb, total_bytes=total_bytes)
    p50, p99 = _rftp_latency_us(tb.engine)
    return {
        "gbps": result.gbps,
        "p50_us": p50,
        "p99_us": p99,
        "sim_time": tb.engine.now,
        "events": tb.engine.events_processed,
    }


def _run_gridftp_case(testbed_name: str, total_bytes: int, streams: int) -> dict:
    from repro.apps.gridftp import run_gridftp
    from repro.testbeds import TESTBEDS

    tb = TESTBEDS[testbed_name]()
    result = run_gridftp(tb, total_bytes=total_bytes, streams=streams)
    return {
        "gbps": result.gbps,
        "p50_us": None,  # GridFTP reports goodput only, no per-block latency
        "p99_us": None,
        "sim_time": tb.engine.now,
        "events": tb.engine.events_processed,
    }


def _run_fio_case(testbed_name: str, total_blocks: int) -> dict:
    from repro.apps.fio import FioJob, run_fio
    from repro.testbeds import TESTBEDS

    tb = TESTBEDS[testbed_name]()
    job = FioJob(semantics="write", block_size=128 * 1024, iodepth=16,
                 total_blocks=total_blocks)
    result = run_fio(tb, job)
    return {
        "gbps": result.gbps,
        "p50_us": result.lat_p50_us,
        "p99_us": result.lat_p99_us,
        "sim_time": tb.engine.now,
        "events": tb.engine.events_processed,
    }


def _run_chaos_case(testbed_name: str, total_bytes: int) -> dict:
    from repro.faults.chaos import run_chaos
    from repro.faults.plan import FaultPlan
    from repro.testbeds import TESTBEDS

    tb = TESTBEDS[testbed_name]()
    plan = FaultPlan(seed=7, write_fault_rate=0.02, ctrl_drop_rate=0.01)
    result = run_chaos(tb, total_bytes=total_bytes, plan=plan)
    gbps = None
    if result.completed and result.sim_time > 0:
        gbps = total_bytes * 8 / result.sim_time / 1e9
    p50, p99 = _rftp_latency_us(tb.engine)
    return {
        "gbps": gbps,
        "p50_us": p50,
        "p99_us": p99,
        "sim_time": tb.engine.now,
        "events": tb.engine.events_processed,
    }


def _run_fallback_case(testbed_name: str, total_bytes: int) -> dict:
    """Graceful-degradation case: every data QP is killed mid-transfer,
    the session carries on over the TCP fallback path through the same
    fabric (repromotion off so the whole tail measures degraded-mode
    throughput), and the run must still end byte-exact and leak-free."""
    from repro.core import ProtocolConfig
    from repro.faults.chaos import run_chaos
    from repro.faults.plan import FaultPlan
    from repro.testbeds import TESTBEDS

    tb = TESTBEDS[testbed_name]()
    cfg = ProtocolConfig(fallback_repromote=False)
    plan = FaultPlan(
        seed=11, qp_kills=tuple((0.25, i) for i in range(cfg.num_channels))
    )
    result = run_chaos(tb, total_bytes=total_bytes, plan=plan, config=cfg)
    if not result.clean or not result.completed:
        raise RuntimeError(
            "fallback bench case did not complete cleanly: "
            f"error={result.error} leaks={result.leaks}"
        )
    gbps = None
    if result.sim_time > 0:
        gbps = total_bytes * 8 / result.sim_time / 1e9
    p50, p99 = _rftp_latency_us(tb.engine)
    return {
        "gbps": gbps,
        "p50_us": p50,
        "p99_us": p99,
        "sim_time": tb.engine.now,
        "events": tb.engine.events_processed,
    }


def _makespan(jobs) -> float:
    """Sim time at which the last file finished: the goodput divisor.
    ``engine.now`` would also count the cancelled-timer deadlines and
    idle ticks the engine drains after it."""
    return max(
        (task.finished_at for job in jobs for task in job.files
         if task.state.value == "FINISHED"),
        default=0.0,
    )


def _run_sched_case(total_files: int) -> dict:
    """Broker-scheduled many-file job mix on the WAN testbed.

    Two tenants (3:1 weights) across two doors with session reuse — the
    scheduler-layer counterpart of the single-transfer WAN cases.  Goodput
    aggregates every finished file; latency percentiles come from the
    per-tenant submit-to-finish histograms.
    """
    from repro.obs.registry import HistogramMetric
    from repro.sched import run_sched, synthetic_spec

    spec = synthetic_spec(seed=0, total_files=total_files, doors=2)
    result = run_sched(spec)
    if not result.all_finished:
        raise RuntimeError("sched bench case did not finish every job")
    engine = result.testbed.engine
    total_bytes = sum(
        task.size for job in result.jobs for task in job.files
        if task.state.value == "FINISHED"
    )
    makespan = _makespan(result.jobs)
    gbps = None
    if makespan > 0:
        gbps = total_bytes * 8 / makespan / 1e9
    merged = HistogramMetric.merged(
        engine.metrics.family("sched.file_latency_seconds")
    )
    p50 = p99 = None
    if merged.count:
        p50, p99 = merged.percentile(50) * 1e6, merged.percentile(99) * 1e6
    return {
        "gbps": gbps,
        "p50_us": p50,
        "p99_us": p99,
        "sim_time": engine.now,
        "events": engine.events_processed,
    }


#: Un-overloaded per-file service rate the overload case holds admitted
#: goodput against: the ``sched_10k`` quick case moves 1500 files in
#: ~31s of sim time (≈48 files/s).  Kept as a constant rather than
#: re-running that case inside this one — the bench gate on
#: ``sched_10k`` itself pins the reference.
_SCHED_QUICK_FILES_PER_SEC = 48.4


def _run_sched_overload_case(total_files: int) -> dict:
    """Open-loop 10× arrival spike against the armed overload controls.

    The broker must shed its way through the spike — every shed job
    reported with a reason and a RETRY_AFTER hint, zero lost or
    duplicate bytes for admitted work, no state leaked after the
    shed-heavy campaign — while goodput for the work it *did* admit
    stays within 80% of the un-overloaded service rate.  Guards the
    overload layer against both kinds of regression: collapsing under
    the spike, and shedding so eagerly the pipe idles.
    """
    from repro.obs.registry import HistogramMetric
    from repro.sched import overload_spec, run_sched

    spec = overload_spec(seed=0, total_files=total_files)
    result = run_sched(spec, audit=True)
    if not result.all_resolved:
        raise RuntimeError(
            f"{len(result.unresolved)} jobs neither finished nor shed"
        )
    if result.audit_ok is False:
        raise RuntimeError(
            f"delivery audit failed: {result.audit_problems[:3]}"
        )
    if result.leaks:
        raise RuntimeError(f"post-run leaks: {result.leaks[:3]}")
    if not result.shed_jobs:
        raise RuntimeError("overload case shed nothing — spike too small")
    for job in result.jobs:
        if job.shed and (not job.shed_reason or job.retry_after is None):
            raise RuntimeError(
                f"shed job {job.job_id} missing reason/RETRY_AFTER"
            )
    engine = result.testbed.engine
    finished = [
        task for job in result.jobs for task in job.files
        if task.state.value == "FINISHED"
    ]
    total_bytes = sum(task.size for task in finished)
    makespan = _makespan(result.jobs)
    gbps = None
    if makespan > 0:
        gbps = total_bytes * 8 / makespan / 1e9
        admitted_rate = len(finished) / makespan
        if admitted_rate < 0.8 * _SCHED_QUICK_FILES_PER_SEC:
            raise RuntimeError(
                f"admitted goodput {admitted_rate:.1f} files/s below 80% "
                f"of the un-overloaded rate "
                f"({_SCHED_QUICK_FILES_PER_SEC} files/s)"
            )
    merged = HistogramMetric.merged(
        engine.metrics.family("sched.file_latency_seconds")
    )
    p50 = p99 = None
    if merged.count:
        p50, p99 = merged.percentile(50) * 1e6, merged.percentile(99) * 1e6
    return {
        "gbps": gbps,
        "p50_us": p50,
        "p99_us": p99,
        "sim_time": engine.now,
        "events": engine.events_processed,
    }


def _run_sessions_per_host_case(total_files: int) -> dict:
    """Connection-scaling A/B: dedicated QPs vs the shared per-host pool.

    Runs the same small-file job mix twice on the WAN testbed — once with
    each door opening its own ``num_channels`` QPs and block pool
    (``use_srq=False``), once with every session leasing channels from
    one shared :class:`HostChannelPool` whose receive side is an SRQ and
    whose small blocks ride the eager SEND path.  The gate asserts the
    scaling claims, then reports the pooled run's numbers as anchors:

    - peak concurrent sessions per pinned source byte must improve >= 4x
      (the door cap derives from real pool capacity, 32, instead of the
      config constant 4 — at a *lower* total pinned footprint);
    - small-file goodput must improve >= 1.3x (no credit round trip per
      eager block on a long path).
    """
    from repro.core import ProtocolConfig
    from repro.core.messages import HEADER_BYTES
    from repro.obs.registry import HistogramMetric
    from repro.sched import run_sched, synthetic_spec

    def one_run(config):
        spec = synthetic_spec(
            seed=0, total_files=total_files, doors=2, max_active=64,
        )
        result = run_sched(spec, config=config)
        if not result.all_finished:
            raise RuntimeError("sessions_per_host run left unfinished jobs")
        if result.leaks:
            raise RuntimeError(f"post-run leaks: {result.leaks[:3]}")
        broker = result.broker
        pools = {}
        for door in broker.doors.values():
            pools[id(door.link.pool)] = door.link.pool
        pinned = sum(
            len(p.blocks) * (p.block_size + HEADER_BYTES)
            for p in pools.values()
        )
        srq = result.server.middleware._srq
        if srq is not None:
            # The pooled mode's extra cost: the shared receive ring is
            # pinned for the host pair, not per connection.
            pinned += config.srq_depth * (config.block_size + HEADER_BYTES)
        engine = result.testbed.engine
        total_bytes = sum(
            task.size for job in result.jobs for task in job.files
        )
        gbps = total_bytes * 8 / _makespan(result.jobs) / 1e9
        return result, engine, gbps, pinned

    base_cfg = ProtocolConfig()
    # SRQ sized for aggregate arrival, not per-connection: 24 shared
    # 4 MiB WQEs serve all 32 leases (the dedicated baseline pins a
    # 32-block pool *per door* for 4 sessions each).  Starved arrivals
    # RNR-NAK and retry, which is the backpressure working as designed.
    pool_cfg = ProtocolConfig(
        use_srq=True, eager_threshold=4 * MiB, srq_depth=24,
    )
    base_res, _, base_gbps, base_pinned = one_run(base_cfg)
    pool_res, engine, pool_gbps, pool_pinned = one_run(pool_cfg)

    base_density = base_res.broker.peak_active / base_pinned
    pool_density = pool_res.broker.peak_active / pool_pinned
    if pool_density < 4.0 * base_density:
        raise RuntimeError(
            "session density gate failed: "
            f"pooled {pool_res.broker.peak_active} sessions / "
            f"{pool_pinned} pinned B vs dedicated "
            f"{base_res.broker.peak_active} / {base_pinned} B "
            f"({pool_density / base_density:.2f}x < 4x)"
        )
    if pool_gbps < 1.3 * base_gbps:
        raise RuntimeError(
            "goodput gate failed: pooled "
            f"{pool_gbps:.2f} gbps < 1.3x dedicated {base_gbps:.2f} gbps"
        )
    merged = HistogramMetric.merged(
        engine.metrics.family("sched.file_latency_seconds")
    )
    p50 = p99 = None
    if merged.count:
        p50, p99 = merged.percentile(50) * 1e6, merged.percentile(99) * 1e6
    return {
        "gbps": pool_gbps,
        "p50_us": p50,
        "p99_us": p99,
        "sim_time": engine.now,
        "events": engine.events_processed,
    }


def _run_sim_kernel_case(workers: int, rounds: int) -> dict:
    """Pure timer/event churn — no protocol, no hardware models.

    Exercises exactly the kernel hot paths the protocol cases sit on:
    request/reply races against an RTO (the winner cancels the loser),
    short periodic timers (churn at the top of the heap), and
    half-second sleepers (entries that stay deep in it), so kernel-level
    regressions show up undiluted by protocol work.
    """
    from repro.sim.engine import Engine
    from repro.sim.events import AnyOf

    engine = Engine()

    def requester(i: int):
        for k in range(rounds):
            reply = engine.event()
            timer = engine.timeout(50e-6)
            if (k + i) % 5:
                reply.succeed(k)  # reply beats the timer 4 rounds in 5
            yield AnyOf(engine, [reply, timer])
            if reply.triggered:
                timer.cancel()

    def heartbeat(i: int):
        for _ in range(rounds):
            yield engine.timeout(97e-6 + i * 1e-6)

    def long_sleeper(i: int):
        for _ in range(rounds // 8):
            yield engine.timeout(0.5 + i * 1e-3)

    for i in range(workers):
        engine.process(requester(i))
        engine.process(heartbeat(i))
    for i in range(4):
        engine.process(long_sleeper(i))
    engine.run()
    return {
        "gbps": None,
        "p50_us": None,
        "p99_us": None,
        "sim_time": engine.now,
        "events": engine.events_processed,
    }


def _run_fluid_pipeline(
    use_fluid: bool, flows: int, blocks: int, unit: int, packets: int
) -> dict:
    """Steady-state WAN bulk pipeline: cpu -> wqe -> dma -> packetized
    burst -> dma -> cpu -> ack, per block, per flow.

    The kernel-dominated workload behind the ``sim_fluid`` case: each
    block's burst is ``packets`` wire units, which discrete mode carries
    as per-packet transmit processes and fluid mode books as one timer.
    """
    from repro.hardware.cpu import CpuScheduler, CpuThread
    from repro.hardware.nic import Nic, NicProfile
    from repro.hardware.pci import PcieBus
    from repro.network.fabric import wan_path
    from repro.sim.engine import Engine

    engine = Engine(use_fluid=use_fluid)
    duplex = wan_path(engine, 10.0, 0.098)
    src_pcie = PcieBus(engine, 25.0)
    snk_pcie = PcieBus(engine, 25.0)
    src_cpu = CpuScheduler(engine, cores=12)
    snk_cpu = CpuScheduler(engine, cores=12)

    class _Host:
        pcie = src_pcie
        name = "src"

    nic = Nic(engine, _Host(), NicProfile(gbps=10.0), "nic0")
    block_bytes = unit * packets

    def pump(i: int):
        t_src = CpuThread(src_cpu, f"s{i}", "app")
        t_snk = CpuThread(snk_cpu, f"k{i}", "app")
        forward, backward = duplex.forward, duplex.backward
        for _ in range(blocks):
            yield t_src.exec(2e-6)
            yield from nic.process_wqe()
            yield from src_pcie.dma(block_bytes)
            yield from forward.transmit_burst(unit, packets)
            yield from snk_pcie.dma(block_bytes)
            yield t_snk.exec(2e-6)
            yield from backward.deliver_latency(64)

    for i in range(flows):
        engine.process(pump(i))
    t0 = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - t0
    return {"sim_time": engine.now, "events": engine.events_processed,
            "wall": wall}


def _run_sim_fluid_case(flows: int, blocks: int) -> dict:
    """Fluid fast-forward acceptance case.

    Runs the same pipeline twice — discrete (``use_fluid=False``) and
    fluid — and refuses to report unless the simulated clocks agree
    bit-for-bit, so the case gates fluid correctness, not just speed.
    ``events_per_sec`` is the *discrete* event count over the *fluid*
    wall clock: the rate at which fast-forward retires what discrete
    execution would have dispatched one event at a time.
    """
    unit, packets = 1 << 16, 16
    discrete = _run_fluid_pipeline(False, flows, blocks, unit, packets)
    fluid = _run_fluid_pipeline(True, flows, blocks, unit, packets)
    if fluid["sim_time"] != discrete["sim_time"]:
        raise RuntimeError(
            "fluid fast-forward diverged from discrete execution: "
            f"{fluid['sim_time']!r} != {discrete['sim_time']!r}"
        )
    total_bytes = flows * blocks * unit * packets
    return {
        "gbps": total_bytes * 8 / fluid["sim_time"] / 1e9,
        "p50_us": None,
        "p99_us": None,
        "sim_time": fluid["sim_time"],
        "events": fluid["events"],
        "events_per_sec": (
            discrete["events"] / fluid["wall"] if fluid["wall"] > 0 else None
        ),
    }


@dataclass(frozen=True)
class BenchCase:
    """One named benchmark: a runner closure per mode."""

    name: str
    #: ``mode -> zero-arg runner`` returning the raw result dict.
    runners: Dict[str, Callable[[], dict]]

    def run(self, mode: str) -> dict:
        runner = self.runners[mode]
        t0 = time.perf_counter()
        result = runner()
        wall = time.perf_counter() - t0
        if "events_per_sec" not in result:
            # A runner that measures its own throughput (sim_fluid times
            # each mode separately) keeps its number; everyone else gets
            # events over the whole-runner wall clock.
            events = result.get("events") or 0
            result["events_per_sec"] = (events / wall) if wall > 0 else None
        return result


MiB = 1024 * 1024

BENCH_CASES: Sequence[BenchCase] = (
    BenchCase(
        "rftp_roce_lan",
        {
            "quick": lambda: _run_rftp_case("roce-lan", 64 * MiB),
            "full": lambda: _run_rftp_case("roce-lan", 1024 * MiB),
        },
    ),
    BenchCase(
        "rftp_ani_wan",
        {
            "quick": lambda: _run_rftp_case("ani-wan", 256 * MiB),
            "full": lambda: _run_rftp_case("ani-wan", 4096 * MiB),
        },
    ),
    BenchCase(
        "gridftp_ani_wan",
        {
            "quick": lambda: _run_gridftp_case("ani-wan", 64 * MiB, streams=4),
            "full": lambda: _run_gridftp_case("ani-wan", 1024 * MiB, streams=4),
        },
    ),
    BenchCase(
        "fio_write_roce",
        {
            "quick": lambda: _run_fio_case("roce-lan", total_blocks=512),
            "full": lambda: _run_fio_case("roce-lan", total_blocks=8192),
        },
    ),
    BenchCase(
        "chaos_recovery_roce",
        {
            "quick": lambda: _run_chaos_case("roce-lan", 32 * MiB),
            "full": lambda: _run_chaos_case("roce-lan", 256 * MiB),
        },
    ),
    BenchCase(
        "rftp_wan_fallback",
        {
            "quick": lambda: _run_fallback_case("ani-wan", 32 * MiB),
            "full": lambda: _run_fallback_case("ani-wan", 256 * MiB),
        },
    ),
    BenchCase(
        "sched_10k",
        {
            "quick": lambda: _run_sched_case(total_files=1500),
            "full": lambda: _run_sched_case(total_files=10_000),
        },
    ),
    BenchCase(
        "sched_overload",
        {
            "quick": lambda: _run_sched_overload_case(total_files=600),
            "full": lambda: _run_sched_overload_case(total_files=2400),
        },
    ),
    BenchCase(
        "sessions_per_host",
        {
            "quick": lambda: _run_sessions_per_host_case(total_files=400),
            "full": lambda: _run_sessions_per_host_case(total_files=2000),
        },
    ),
    BenchCase(
        "sim_kernel",
        {
            "quick": lambda: _run_sim_kernel_case(workers=32, rounds=60),
            "full": lambda: _run_sim_kernel_case(workers=64, rounds=400),
        },
    ),
    BenchCase(
        "sim_fluid",
        {
            "quick": lambda: _run_sim_fluid_case(flows=4, blocks=24),
            "full": lambda: _run_sim_fluid_case(flows=8, blocks=96),
        },
    ),
)


def _warm_suite() -> None:
    """Import every subsystem the runners use before any case is timed.

    ``events_per_sec`` is the engine-throughput health metric; without
    this warm-up the first case to touch a subsystem was also charged
    its one-time import cost, so a case's number depended on suite order
    (and on ``--only`` selections) rather than on the simulator.
    """
    import repro.apps.fio  # noqa: F401
    import repro.apps.gridftp  # noqa: F401
    import repro.apps.rftp  # noqa: F401
    import repro.faults.chaos  # noqa: F401
    import repro.sched  # noqa: F401
    import repro.sim.engine  # noqa: F401
    import repro.testbeds  # noqa: F401

    # numpy defers its ``random`` subpackage to first attribute access;
    # the first Testbed.tcp_bottleneck() (the only numpy generator left;
    # fault streams are pure-Python PCG64) would otherwise pay the
    # ~10 ms subimport inside whichever TCP case runs first.
    import numpy.random  # noqa: F401

    numpy.random.default_rng(0).random()


def run_bench(
    mode: str = "quick",
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str, dict], None]] = None,
    date: Optional[str] = None,
) -> dict:
    """Run the suite; return the ``BENCH_*.json`` document as a dict."""
    if mode not in ("quick", "full"):
        raise ValueError(f"unknown bench mode {mode!r}")
    if date is None:
        date = _dt.date.today().isoformat()
    selected = [c for c in BENCH_CASES if only is None or c.name in only]
    if only is not None:
        unknown = set(only) - {c.name for c in BENCH_CASES}
        if unknown:
            raise ValueError(f"unknown bench case(s): {sorted(unknown)}")
    _warm_suite()
    results: Dict[str, dict] = {}
    for case in selected:
        result = case.run(mode)
        results[case.name] = result
        if progress is not None:
            progress(case.name, result)
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": "repro-bench",
        "date": date,
        "mode": mode,
        "results": results,
    }


def bench_filename(date: str) -> str:
    return f"BENCH_{date}.json"


def write_bench(doc: dict, path: str) -> None:
    validate_bench(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def validate_bench(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed bench document."""
    if not isinstance(doc, dict):
        raise ValueError("bench document must be a JSON object")
    if doc.get("kind") != "repro-bench":
        raise ValueError(f"not a repro-bench document (kind={doc.get('kind')!r})")
    if doc.get("schema") != BENCH_SCHEMA_VERSION:
        raise ValueError(f"unsupported bench schema {doc.get('schema')!r}")
    if doc.get("mode") not in ("quick", "full"):
        raise ValueError(f"invalid bench mode {doc.get('mode')!r}")
    if not isinstance(doc.get("date"), str):
        raise ValueError("bench document needs a string 'date'")
    results = doc.get("results")
    if not isinstance(results, dict) or not results:
        raise ValueError("bench document has no results")
    for name, result in results.items():
        if not isinstance(result, dict):
            raise ValueError(f"case {name!r}: result must be an object")
        for key in RESULT_KEYS:
            if key not in result:
                raise ValueError(f"case {name!r}: missing key {key!r}")
            value = result[key]
            if value is not None and not isinstance(value, (int, float)):
                raise ValueError(f"case {name!r}: {key} must be numeric or null")
            if isinstance(value, float) and value != value:
                raise ValueError(f"case {name!r}: {key} is NaN")
