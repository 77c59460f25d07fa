"""The seven seeded workloads of the repo benchmark.

Each workload is four plain functions the harness (``run.py``) calls in
order, once per repetition:

``inputs(seed, scale)``
    Generate the inputs from the seed alone.  The program under test
    only ever receives these.
``prepare(inputs)``
    Untimed: whatever must exist before the timed call (a fresh testbed
    for ``bulk_*``/``fio_verbs``; nothing for ``sched_*``, whose
    ``run_sched`` builds its own testbed inside the timed call).
``run(inputs, prepared)``
    The timed call — one public entry point of ``repro``.
``observe(inputs, prepared, result)``
    Untimed: the correctness gate, the simulated results, and the layer
    counters read from public state (result objects, ``engine.metrics``).

An *op* is a block for ``bulk_*``, a file for ``sched_*``/``pool_*``,
an I/O for ``fio_verbs``.  ``scale`` shrinks the input for the smoke
tests; results at ``scale != 1`` are marked not comparable.
"""

from __future__ import annotations

import os
import random
from functools import partial
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.fio import FioJob, run_fio
from repro.apps.rftp import run_rftp
from repro.core import ProtocolConfig
from repro.faults import FaultPlan, run_chaos
from repro.obs import runtime as obs_runtime
from repro.obs.export import write_metrics_jsonl, write_trace_jsonl
from repro.obs.registry import HistogramMetric
from repro.sched import (
    audit_delivery,
    overload_spec,
    report_lines,
    run_sched,
    synthetic_spec,
)
from repro.sim.trace import Tracer
from repro.testbeds import TESTBEDS

KiB = 1024
MiB = 1024 * KiB

#: Scratch space for the files the obs exporters write; inside the
#: checkout (the benchmark may write nowhere else) and git-ignored.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass
class Observation:
    """What one repetition produced, read after the clock stopped."""

    #: Every engine the repetition ran on (three for ``fio_verbs``).
    engines: List[Any]
    ops_attempted: int
    ops_completed: int
    #: Ops that ended in a state the workload does not expect (not
    #: delivered and not cooperatively shed); 0 on a healthy run.
    ops_broken: int
    payload_bytes: int
    #: Simulated seconds the payload took to move.
    sim_seconds: float
    latency_p50_s: float
    latency_p99_s: float
    latency_samples: int
    #: Correctness-gate violations; empty means the outputs are right.
    problems: List[str] = field(default_factory=list)
    #: The ``SchedResult`` of a ``sched_*`` run (journal, jobs, audit).
    sched: Any = None

    @property
    def sim_goodput_gbps(self) -> float:
        if self.sim_seconds <= 0:
            return 0.0
        return self.payload_bytes * 8.0 / self.sim_seconds / 1e9

    @property
    def ops_failed_share(self) -> float:
        return 1.0 - self.ops_completed / self.ops_attempted

    def simulated(self) -> Dict[str, float]:
        """The simulated results a user of the modelled system sees."""
        return {
            "sim_goodput_gbps": self.sim_goodput_gbps,
            "sim_latency_p50_ms": self.latency_p50_s * 1e3,
            "sim_latency_p99_ms": self.latency_p99_s * 1e3,
            "ops_failed_share": self.ops_failed_share,
        }

    def exact(self) -> Dict[str, float]:
        """Everything that must repeat bit for bit at one seed."""
        return {
            **self.simulated(),
            "sim_time_s": sum(e.now for e in self.engines),
            "sim.events": sum(e.events_processed for e in self.engines),
        }


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line for ``BENCHMARK.json``; the long form is in README.md.
    why: str
    op: str
    #: ``closed`` (next op issued when one completes) or ``open``
    #: (arrivals on a fixed simulated-time schedule).
    loop: str
    inputs: Callable[[int, float], Dict[str, Any]]
    prepare: Callable[[Dict[str, Any]], Any]
    run: Callable[[Dict[str, Any], Any], Any]
    observe: Callable[[Dict[str, Any], Any, Any], Observation]
    cleanup: Callable[[Any], None] = lambda prepared: None
    #: Name of the workload that runs the same inputs with obs off; the
    #: traced run times one repetition of it for ``obs.on_off_wall_ratio``.
    obs_off_twin: Optional[str] = None


def family_sum(engines: List[Any], name: str) -> float:
    """Sum of one metric family over every series on every engine."""
    return sum(m.value for e in engines for m in e.metrics.family(name))


def _merged_latency(engines: List[Any], name: str) -> HistogramMetric:
    return HistogramMetric.merged(
        m for e in engines for m in e.metrics.family(name)
    )


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(round(count * scale)))


# -- bulk_*: one large memory-to-memory transfer ---------------------------

_BULK_BLOCKS = 9_216  # 36 GiB of default 4 MiB blocks


def _bulk_inputs(testbed: str, seed: int, scale: float) -> Dict[str, Any]:
    config = ProtocolConfig()
    blocks = _scaled(_BULK_BLOCKS, scale, 64)
    # Real files are not block-aligned: the seed picks the length of the
    # (short) last block.
    tail = random.Random(seed).randrange(1, config.block_size + 1)
    return {
        "testbed": testbed,
        "seed": seed,
        "config": config,
        "blocks": blocks,
        "total_bytes": (blocks - 1) * config.block_size + tail,
    }


def _bulk_prepare(inputs: Dict[str, Any]) -> Any:
    return TESTBEDS[inputs["testbed"]](seed=inputs["seed"])


def _observe_bulk(inputs, testbed, outcome, sim_seconds, problems) -> Observation:
    engines = [testbed.engine]
    blocks = inputs["blocks"]
    delivered = int(family_sum(engines, "sink.blocks_delivered"))
    if outcome is None:
        problems.append("transfer did not complete")
    elif outcome.bytes != inputs["total_bytes"]:
        problems.append(
            f"delivered {outcome.bytes} bytes, requested {inputs['total_bytes']}"
        )
    if delivered < blocks:
        problems.append(f"sink delivered {delivered}/{blocks} blocks")
    latency = _merged_latency(engines, "source.block_latency_seconds")
    completed = min(delivered, blocks)
    return Observation(
        engines=engines,
        ops_attempted=blocks,
        ops_completed=completed,
        ops_broken=blocks - completed,
        payload_bytes=outcome.bytes if outcome is not None else 0,
        sim_seconds=sim_seconds,
        latency_p50_s=latency.percentile(50) if latency.count else 0.0,
        latency_p99_s=latency.percentile(99) if latency.count else 0.0,
        latency_samples=latency.count,
        problems=problems,
    )


def _run_wan(inputs, testbed):
    return run_rftp(testbed, inputs["total_bytes"], config=inputs["config"])


def _observe_wan(inputs, testbed, result) -> Observation:
    return _observe_bulk(
        inputs, testbed, result.outcome, result.outcome.elapsed, []
    )


def _prepare_wan_obs(inputs):
    # The hooks must be live before the engine exists: an engine takes
    # its tracer from the factory at construction.
    obs_runtime.install_tracer_factory(Tracer)
    obs_runtime.start_collection()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="obs-", dir=OUT_DIR)
    return _bulk_prepare(inputs), tmp


def _run_wan_obs(inputs, prepared):
    testbed, tmp = prepared
    result = _run_wan(inputs, testbed)
    engines = obs_runtime.collected_engines()
    write_metrics_jsonl(os.path.join(tmp, "metrics.jsonl"), engines)
    write_trace_jsonl(os.path.join(tmp, "trace.jsonl"), engines)
    return result


def _observe_wan_obs(inputs, prepared, result) -> Observation:
    testbed, tmp = prepared
    obs = _observe_wan(inputs, testbed, result)
    for name in ("metrics.jsonl", "trace.jsonl"):
        path = os.path.join(tmp, name)
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            obs.problems.append(f"obs export {name} missing or empty")
    if obs_runtime.collected_engines() != [testbed.engine]:
        obs.problems.append("obs collection did not track the run's engine")
    return obs


def _cleanup_wan_obs(prepared) -> None:
    obs_runtime.stop_collection()
    obs_runtime.install_tracer_factory(None)
    shutil.rmtree(prepared[1], ignore_errors=True)


def _lan_faults_inputs(seed: int, scale: float) -> Dict[str, Any]:
    inputs = _bulk_inputs("roce-lan", seed, scale)
    inputs["plan"] = FaultPlan(
        seed=seed,
        write_fault_rate=0.10,
        payload_corrupt_rate=0.05,
        ctrl_drop_rate=0.05,
    )
    return inputs


def _run_lan_faults(inputs, testbed):
    return run_chaos(
        testbed,
        total_bytes=inputs["total_bytes"],
        plan=inputs["plan"],
        config=inputs["config"],
    )


def _observe_lan_faults(inputs, testbed, result) -> Observation:
    problems = [f"leak: {leak}" for leak in result.leaks]
    if not result.completed:
        problems.append(f"transfer aborted: {result.error}")
    elif not result.byte_exact:
        problems.append("delivery is not byte-exact")
    if not result.clean:
        problems.append("chaos run did not end clean")
    return _observe_bulk(
        inputs, testbed, result.outcome, result.sim_time, problems
    )


# -- sched_* / pool_*: many small files through the broker -----------------


def _sched_prepare(inputs):
    return None


def _run_sched(inputs, prepared):
    return run_sched(
        inputs["spec"], config=inputs.get("config"), audit=inputs["audit"]
    )


def _observe_sched(inputs, prepared, result) -> Observation:
    engines = [result.testbed.engine]
    tasks = [task for job in result.jobs for task in job.files]
    finished = [t for t in tasks if t.state.value == "FINISHED"]
    unresolved_files = sum(len(job.files) for job in result.unresolved)
    problems = [f"leak: {leak}" for leak in result.leaks]
    if "overload" in inputs["spec"]:  # shedding is an expected outcome
        if not result.all_resolved:
            problems.append(
                f"{len(result.unresolved)} jobs neither finished nor shed"
            )
        if result.audit_ok is not True:
            problems.append(
                f"delivery audit failed: {result.audit_problems[:3]}"
            )
        for job in result.jobs:
            if job.shed and (not job.shed_reason or job.retry_after is None):
                problems.append(
                    f"shed job {job.job_id} lacks reason/RETRY_AFTER"
                )
        if inputs["scale"] >= 1.0 and not result.shed_jobs:
            problems.append("spike shed nothing: the workload is degenerate")
    elif not result.all_finished:
        problems.append("not every job finished")
    latency = _merged_latency(engines, "sched.file_latency_seconds")
    makespan = max((t.finished_at or 0.0 for t in finished), default=0.0)
    return Observation(
        engines=engines,
        ops_attempted=len(tasks),
        ops_completed=len(finished),
        ops_broken=unresolved_files,
        payload_bytes=sum(t.size for t in finished if t.duplicate_of is None),
        sim_seconds=makespan,
        latency_p50_s=latency.percentile(50) if latency.count else 0.0,
        latency_p99_s=latency.percentile(99) if latency.count else 0.0,
        latency_samples=latency.count,
        problems=problems,
        sched=result,
    )


def _sched_mix_inputs(seed: int, scale: float) -> Dict[str, Any]:
    files = _scaled(3000, scale, 40)
    return {
        "spec": synthetic_spec(seed=seed, total_files=files, doors=2),
        "audit": False,
        "scale": scale,
    }


def _pool_inputs(seed: int, scale: float) -> Dict[str, Any]:
    files = _scaled(2000, scale, 40)
    return {
        "spec": synthetic_spec(
            seed=seed, total_files=files, doors=2, max_active=64
        ),
        # The pooled half of ``sessions_per_host``: 24 shared receive
        # WQEs serve every lease; 4 MiB blocks ride the eager SEND path.
        "config": ProtocolConfig(
            use_srq=True, eager_threshold=4 * MiB, srq_depth=24
        ),
        "audit": False,
        "scale": scale,
    }


def _spike_inputs(seed: int, scale: float) -> Dict[str, Any]:
    files = _scaled(4000, scale, 200)
    spec = overload_spec(seed=seed, total_files=files, spike_duration=4.0)
    last_arrival = spec["jobs"][-1]["submit_at"]
    spec["faults"] = {
        "seed": seed,
        "write_fault_rate": 0.05,
        "payload_corrupt_rate": 0.02,
        "ctrl_drop_rate": 0.02,
        # Both crashes land in the steady tail (~83 % utilisation, so
        # sessions are ACTIVE and files queued when the broker dies) and
        # scale with the arrival schedule so small runs crash too.  Not
        # inside or right after the spike: a crash there leaves resumed
        # sessions credit-starved until the sink's idle GC, the run
        # flips between two regimes by seed (300 k vs 410 k events), and
        # on some seeds files fail with CreditStarvation — a workload
        # needs every seed to pass and to do the same work.
        "broker_crashes": [
            round(0.45 * last_arrival, 6),
            round(0.7 * last_arrival, 6),
        ],
    }
    return {"spec": spec, "audit": True, "scale": scale}


# -- fio_verbs: raw verbs, no middleware, no broker ------------------------


def _fio_inputs(seed: int, scale: float) -> Dict[str, Any]:
    ios = _scaled(8_192, scale, 256)
    return {
        "seed": seed,
        "jobs": [
            FioJob(semantics=semantics, block_size=128 * KiB, iodepth=16,
                   total_blocks=ios)
            for semantics in ("write", "read", "send")
        ],
    }


def _fio_prepare(inputs):
    return [TESTBEDS["roce-lan"](seed=inputs["seed"]) for _ in inputs["jobs"]]


def _run_fio(inputs, testbeds):
    return [run_fio(tb, job) for tb, job in zip(testbeds, inputs["jobs"])]


def _observe_fio(inputs, testbeds, results) -> Observation:
    problems: List[str] = []
    attempted = completed = 0
    for job, result in zip(inputs["jobs"], results):
        attempted += job.total_blocks
        done = result.bytes // job.block_size
        completed += done
        if done != job.total_blocks:
            problems.append(
                f"fio {job.semantics}: {done}/{job.total_blocks} I/Os completed"
            )
    return Observation(
        engines=[tb.engine for tb in testbeds],
        ops_attempted=attempted,
        ops_completed=completed,
        ops_broken=attempted - completed,
        payload_bytes=sum(r.bytes for r in results),
        sim_seconds=sum(r.elapsed for r in results),
        # The slowest of the three semantics is the one a user waits for.
        latency_p50_s=max(r.lat_p50_us for r in results) * 1e-6,
        latency_p99_s=max(r.lat_p99_us for r in results) * 1e-6,
        latency_samples=min(job.total_blocks for job in inputs["jobs"]),
        problems=problems,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="bulk_wan",
            why="36 GiB m2m on ani-wan: steady-state core+verbs rendezvous "
                "WRITE path, the paper's headline; sched/faults/obs idle",
            op="block", loop="closed",
            inputs=partial(_bulk_inputs, "ani-wan"), prepare=_bulk_prepare,
            run=_run_wan, observe=_observe_wan,
        ),
        Workload(
            name="bulk_wan_obs",
            why="bulk_wan with tracer, collection and JSONL export on: the "
                "obs-on half of the on/off pair, same core code",
            op="block", loop="closed",
            inputs=partial(_bulk_inputs, "ani-wan"), prepare=_prepare_wan_obs,
            run=_run_wan_obs, observe=_observe_wan_obs,
            cleanup=_cleanup_wan_obs, obs_off_twin="bulk_wan",
        ),
        Workload(
            name="bulk_lan_faults",
            why="36 GiB on roce-lan under write faults, corruption and ctrl "
                "drops: ~16% of blocks leave the fast path; only LAN profile",
            op="block", loop="closed",
            inputs=_lan_faults_inputs, prepare=_bulk_prepare,
            run=_run_lan_faults, observe=_observe_lan_faults,
        ),
        Workload(
            name="sched_mix",
            why="3000 files of 1-2 blocks through the broker on dedicated "
                "QPs: session setup, dispatch and journal append dominate",
            op="file", loop="closed",
            inputs=_sched_mix_inputs, prepare=_sched_prepare,
            run=_run_sched, observe=_observe_sched,
        ),
        Workload(
            name="sched_spike",
            why="open-loop 10x arrival spike with faults, two broker crashes "
                "and audit: admission, shed, resubmit, journal replay",
            op="file", loop="open",
            inputs=_spike_inputs, prepare=_sched_prepare,
            run=_run_sched, observe=_observe_sched,
        ),
        Workload(
            name="pool_smallfiles",
            why="2000 small files over the shared per-host QP pool: leases, "
                "SRQ and eager SEND; slowest path, largest sched share",
            op="file", loop="closed",
            inputs=_pool_inputs, prepare=_sched_prepare,
            run=_run_sched, observe=_observe_sched,
        ),
        Workload(
            name="fio_verbs",
            why="fio write/read/send at 128 KiB on roce-lan: bypasses core "
                "and sched entirely; per-WQE cost of sim+hardware+verbs",
            op="io", loop="closed",
            inputs=_fio_inputs, prepare=_fio_prepare,
            run=_run_fio, observe=_observe_fio,
        ),
    )
}


# -- layer metrics read from public state ----------------------------------


def state_metrics(w: Workload, obs: Observation, wall: float,
                  prof: Dict[str, float]) -> Dict[str, float]:
    """Layer metrics from public state after a repetition (engine,
    ``engine.metrics``, result objects), plus the ratios that divide the
    profile's call counts ``prof`` by the ops done.  ``wall`` is the
    untraced host time of the same call."""
    engines = obs.engines

    def fam(name: str) -> float:
        return family_sum(engines, name)

    def per(total: float, count: float) -> float:
        return total / count if count else 0.0

    ops = obs.ops_attempted
    events = sum(e.events_processed for e in engines)
    blocks = fam("source.blocks_completed")
    resends = fam("source.block_resends")
    repairs = fam("source.block_repairs")
    ctrl_sent = fam("ctrl.sent")
    tracers = [e.tracer for e in engines if e.tracer is not None]
    emitted = sum(t.emitted for t in tracers)
    sched = obs.sched
    recoveries = sched.recoveries if sched is not None else 0
    files = ops if w.op == "file" else 0
    ios = ops if w.op == "io" else 0
    queue_wait = _merged_latency(engines, "sched.queue_wait_seconds")
    wqes = prof["verbs.post_send_calls"] + prof["verbs.post_recv_calls"]
    return {
        **obs.simulated(),
        "sim.events": events,
        "sim.events_per_op": per(events, ops),
        "sim.events_per_wall_s": events / wall,
        "sim.sim_s_per_wall_s": sum(e.now for e in engines) / wall,
        "core.blocks": blocks,
        "core.wall_us_per_block": per(wall * 1e6, blocks),
        "core.calls_per_block": per(prof["core.calls"], blocks),
        "core.sessions": sum(
            len(e.metrics.family("source.blocks_completed")) for e in engines
        ),
        "core.ctrl_sent": ctrl_sent,
        "core.ctrl_per_block": per(ctrl_sent, blocks),
        "core.credits_granted": fam("credits.granted_total"),
        "core.block_resends": resends,
        "core.block_repairs": repairs,
        "core.ctrl_retries": fam("source.ctrl_retries"),
        "core.nacks_sent": fam("sink.nacks_sent"),
        "core.markers_sent": fam("sink.markers_sent"),
        # Share of blocks that needed neither a re-send nor a repair.
        "core.fast_path_share": (
            max(0.0, 1.0 - (resends + repairs) / blocks) if blocks else 0.0
        ),
        "core.leases": fam("qp_pool.leases"),
        "verbs.wqes_per_op": per(wqes, ops),
        "verbs.rnr_naks": fam("qp.rnr_naks"),
        "verbs.srq_posted": fam("srq.posted"),
        "verbs.srq_empty_naks": fam("srq.empty_naks"),
        "verbs.cq_overflow": fam("cq.overflow"),
        "verbs.bytes_sent": fam("qp.bytes_sent"),
        "network.link_bytes": fam("link.bytes_sent"),
        "network.ctrl_datagrams": fam("path.ctrl_datagrams"),
        "sched.files_finished": fam("sched.files_finished"),
        "sched.files_failed": fam("sched.files_failed"),
        "sched.jobs_submitted": fam("sched.jobs_submitted"),
        "sched.retries": fam("sched.retries"),
        "sched.dedup_hits": fam("sched.dedup_hits"),
        "sched.dispatch_blocked": fam("sched.dispatch_blocked"),
        "sched.shed_files": fam("sched.overload.shed_files"),
        "sched.shed_jobs": fam("sched.overload.shed_jobs"),
        "sched.retry_denied": fam("sched.overload.retry_denied"),
        "sched.recoveries": recoveries,
        "sched.peak_active": sched.broker.peak_active if sched else 0,
        "sched.journal_records": len(sched.journal.records) if sched else 0,
        "sched.queue_wait_p50_s": (
            queue_wait.percentile(50) if queue_wait.count else 0.0
        ),
        "sched.queue_wait_p99_s": (
            queue_wait.percentile(99) if queue_wait.count else 0.0
        ),
        "sched.wall_us_per_file": per(wall * 1e6, files),
        "obs.registry_series": sum(len(e.metrics) for e in engines),
        "obs.trace_emitted": emitted,
        "obs.trace_dropped": sum(t.dropped for t in tracers),
        "obs.trace_per_block": per(emitted, blocks),
        # Faults that took effect, each counted where it is detected.
        "faults.injected": (
            resends + fam("sink.checksum_mismatches") + fam("ctrl.dropped")
            + fam("ctrl.delayed") + fam("link.latency_spikes")
            + fam("link.flap_stalls") + recoveries
        ),
        "apps.fio_ios": ios,
        "apps.wall_us_per_io": per(wall * 1e6, ios),
    }


#: Metrics that are host timings of one direct call each (0 where the
#: workload has no such state to call on).
POST_RUN_METRICS = (
    "sched.journal_replay_s", "sched.report_s", "sched.audit_s",
    "obs.snapshot_s", "obs.export_metrics_s", "obs.export_trace_s",
)


def post_run_calls(
    obs: Observation, tmp: str
) -> List[Tuple[str, str, Callable[[], Any]]]:
    """``(metric, span name, call)`` for each public post-run function
    the harness times directly; files go under ``tmp``."""
    calls: List[Tuple[str, str, Callable[[], Any]]] = []
    result = obs.sched
    if result is not None:
        engine = result.testbed.engine
        calls.append(("sched.journal_replay_s", "post.journal_replay",
                      result.journal.replay))
        calls.append(("sched.report_s", "post.report",
                      lambda: report_lines(result.jobs, engine, result.header)))
        if result.sink is not None:
            calls.append(("sched.audit_s", "post.audit",
                          lambda: audit_delivery(result.jobs, result.sink,
                                                 result.source,
                                                 result.block_size)))
    calls.append(("obs.snapshot_s", "post.obs_snapshot",
                  lambda: [e.metrics.snapshot() for e in obs.engines]))
    calls.append(("obs.export_metrics_s", "post.obs_export_metrics",
                  lambda: write_metrics_jsonl(
                      os.path.join(tmp, "metrics.jsonl"), obs.engines)))
    calls.append(("obs.export_trace_s", "post.obs_export_trace",
                  lambda: write_trace_jsonl(
                      os.path.join(tmp, "trace.jsonl"), obs.engines)))
    return calls
