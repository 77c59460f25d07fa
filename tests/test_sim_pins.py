"""Pinned simulated results: the oracle for kernel / verbs hop removals.

Eight small end-to-end scenarios, each reduced to a fingerprint — the
final clock, the bytes delivered, a sha256 of every block (or file)
latency in the order it was observed and, for the broker runs, a sha256
of the journal bytes and of ``stable_report_lines``.  The values were
recorded at the commit *before* the hot-path hops were removed
(``python tests/test_sim_pins.py`` prints them); a change that only
removes events which neither advance time nor wake someone not already
runnable must reproduce every one of them bit for bit, on the fluid and
on the discrete engine.  ``fallback_repromote_lan`` and
``crash_resume_lan`` were added later, before the source session's exit
paths were folded into one, and pin the TCP fallback / re-promotion and
crash / resume endings the other six never reach.  Do not edit a pinned value to make a kernel
change pass — a moved value is a model change and needs its own anchors.

``QUICK_ANCHORS`` is the second table: goodput, p50 / p99 latency and
final clock of the nine quick protocol cases (RFTP on the LAN and WAN,
GridFTP, fio, chaos recovery, the WAN TCP fallback, the 1500-file broker
mix, the 10x overload spike and the connection-scaling A/B), each run
once on the default engine and the testbed's default seed.  The values
were copied verbatim from the quick-mode baseline of the retired
stand-alone benchmark harness, as committed at 42a8f80, which gated them
at ±10 %; here they are compared exactly.  They are not to be edited to
make a change pass either: a moved anchor is a declared model change.
"""

from __future__ import annotations

import hashlib
import json
import pytest

from repro.apps.fio import FioJob, run_fio
from repro.apps.gridftp import run_gridftp
from repro.apps.rftp import run_rftp
from repro.core import ProtocolConfig
from repro.core.messages import HEADER_BYTES
from repro.faults import FaultPlan, run_chaos
from repro.obs.registry import HistogramMetric
from repro.sched import overload_spec, run_sched, runner, stable_report_lines, synthetic_spec
from repro.testbeds import TESTBEDS

MiB = 1024 * 1024


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _Latencies:
    """Every histogram observation of one run, in observation order."""

    def __init__(self, monkeypatch) -> None:
        self.seen = []
        observe = HistogramMetric.observe

        def recording(metric, value):
            self.seen.append((metric.name, value))
            observe(metric, value)

        monkeypatch.setattr(HistogramMetric, "observe", recording)

    def sha(self, family: str) -> str:
        values = [v for name, v in self.seen if name == family]
        assert values, f"no {family} observations"
        return _sha(repr(values))


def _bulk(testbed, fluid, latencies, chaos_plan=None, total=256 * MiB + 12345,
          counters=(), seed=3, **chaos):
    """One transfer on a ``seed``-ed testbed, plain or under ``chaos_plan``;
    ``chaos`` passes ``config`` / ``resume_attempts`` / ... through to
    ``run_chaos`` and ``counters`` names the ``ChaosResult`` fields the
    fingerprint adds.  Returns the fingerprint and the testbed."""
    tb = TESTBEDS[testbed](seed=seed)
    tb.engine.use_fluid = fluid  # before any traffic: one mode per wire
    extra = {}
    if chaos_plan is None:
        outcome = run_rftp(tb, total).outcome
        sim_time = tb.engine.now
    else:
        result = run_chaos(tb, total_bytes=total, plan=chaos_plan, **chaos)
        assert result.completed and result.byte_exact and result.clean
        outcome = result.outcome
        sim_time = result.sim_time  # engine.now is the chaos horizon
        extra = {name: getattr(result, name) for name in counters}
    return {
        "sim_time": sim_time,
        "elapsed": outcome.elapsed,
        "bytes": outcome.bytes,
        "block_latency": latencies.sha("source.block_latency_seconds"),
        **extra,
    }, tb


def _discrete(build):
    """``build`` with its engine switched to the discrete oracle."""

    def wrapped(*args, **kwargs):
        tb = build(*args, **kwargs)
        tb.engine.use_fluid = False
        return tb

    return wrapped


def _sched(spec, fluid, latencies, monkeypatch, **kwargs):
    if not fluid:
        monkeypatch.setattr(runner, "TESTBEDS", {
            name: _discrete(build) for name, build in TESTBEDS.items()
        })
    result = run_sched(spec, **kwargs)
    assert not result.leaks
    finished = [t for job in result.jobs for t in job.files
                if t.state.value == "FINISHED"]
    journal = "\n".join(
        json.dumps(rec, sort_keys=True) for rec in result.journal.records
    )
    return {
        "sim_time": result.testbed.engine.now,
        "recoveries": result.recoveries,
        "shed_files": result.shed_files,
        "bytes": sum(t.size for t in finished if t.duplicate_of is None),
        "file_latency": latencies.sha("sched.file_latency_seconds"),
        "journal": _sha(journal),
        "stable_report": _sha("\n".join(stable_report_lines(result.jobs))),
    }, result


def _rftp_wan(fluid, latencies, monkeypatch):
    return _bulk("ani-wan", fluid, latencies)


def _rftp_lan(fluid, latencies, monkeypatch):
    return _bulk("roce-lan", fluid, latencies)


def _chaos_lan(fluid, latencies, monkeypatch):
    plan = FaultPlan(seed=3, write_fault_rate=0.10, payload_corrupt_rate=0.05,
                     ctrl_drop_rate=0.05)
    return _bulk("roce-lan", fluid, latencies, plan)


_DEGRADED = ("fallbacks", "repromotions", "fallback_blocks")


def _fallback_repromote_lan(fluid, latencies, monkeypatch):
    # Every data QP dies at 2 ms: the session degrades to the TCP pump,
    # a short breaker cooldown lets the re-promotion watchdog reopen a
    # channel, and the tail goes back over RDMA.
    plan = FaultPlan(seed=3, qp_kills=tuple((0.002, i) for i in range(4)))
    return _bulk("roce-lan", fluid, latencies, plan, total=64 * MiB + 12345,
                 counters=_DEGRADED,
                 config=ProtocolConfig(breaker_cooldown_min=0.01))


def _crash_resume_lan(fluid, latencies, monkeypatch):
    # The source process dies mid-transfer; the harness resumes the
    # session from the sink's restart marker.
    plan = FaultPlan(seed=3, source_crashes=(0.0015,))
    return _bulk("roce-lan", fluid, latencies, plan, total=64 * MiB + 12345,
                 counters=_DEGRADED, resume_attempts=3, resume_backoff=0.5,
                 horizon=120)


def _sched_dedicated(fluid, latencies, monkeypatch):
    spec = synthetic_spec(seed=3, total_files=120, doors=2)
    return _sched(spec, fluid, latencies, monkeypatch)


#: The shared per-host pool: SRQ receive side, eager SEND for blocks up
#: to 4 MiB, and 24 shared 4 MiB WQEs for all leases (starved arrivals
#: RNR-NAK and retry).
_POOLED = ProtocolConfig(use_srq=True, eager_threshold=4 * MiB, srq_depth=24)


def _sched_pooled(fluid, latencies, monkeypatch):
    spec = synthetic_spec(seed=3, total_files=120, doors=2, max_active=16)
    return _sched(spec, fluid, latencies, monkeypatch, config=_POOLED)


def _overload_crash(fluid, latencies, monkeypatch):
    spec = overload_spec(seed=3, total_files=400, spike_duration=2.0)
    spec["faults"] = {"seed": 3, "broker_crashes": [5.0]}
    return _sched(spec, fluid, latencies, monkeypatch, audit=True)


SCENARIOS = {
    "rftp_wan": _rftp_wan,
    "rftp_lan": _rftp_lan,
    "chaos_lan": _chaos_lan,
    "fallback_repromote_lan": _fallback_repromote_lan,
    "crash_resume_lan": _crash_resume_lan,
    "sched_dedicated": _sched_dedicated,
    "sched_pooled": _sched_pooled,
    "overload_crash": _overload_crash,
}

#: Recorded at commit 8c293fa (the parent of the hop removals); the two
#: degraded-mode scenarios at 44107b0.  ``sched_dedicated``,
#: ``sched_pooled`` and ``overload_crash`` were re-recorded by the declared
#: model change that hands a released slot to the next waiting file and
#: keeps a timed-out control request's backed-off RTO (Karn).  The fluid
#: and the discrete engine agree on every value, so one entry pins both.
PINS = {
    "chaos_lan": {
        "sim_time": 0.05905083211692305,
        "elapsed": 0.058746545163076896,
        "bytes": 268447801,
        "block_latency": "c930e947106a10f5",
    },
    "crash_resume_lan": {
        "sim_time": 0.5185183298707685,
        "elapsed": 0.0167917728861533,
        "bytes": 67121209,
        "block_latency": "7ef432a1f13073fe",
        "fallbacks": 0,
        "repromotions": 0,
        "fallback_blocks": 0,
    },
    "fallback_repromote_lan": {
        "sim_time": 0.2799990756923082,
        "elapsed": 0.27969478873846204,
        "bytes": 67121209,
        "block_latency": "e9f729af304da0e9",
        "fallbacks": 1,
        "repromotions": 1,
        "fallback_blocks": 4,
    },
    "overload_crash": {
        "sim_time": 9.857554493599999,
        "recoveries": 1,
        "shed_files": 80,
        "bytes": 1233125376,
        "file_latency": "91fa1ccb13c0582f",
        "journal": "1e247ea290c99311",
        "stable_report": "05445c06879f2cbd",
    },
    "rftp_lan": {
        "sim_time": 2.000187692,
        "elapsed": 0.05706842383999997,
        "bytes": 268447801,
        "block_latency": "43f19434adcebfbe",
    },
    "rftp_wan": {
        "sim_time": 2.367500768,
        "elapsed": 0.5048256278599961,
        "bytes": 268447801,
        "block_latency": "184e8e8f5cc881f1",
    },
    "sched_dedicated": {
        "sim_time": 3.5228223214174483,
        "recoveries": 0,
        "shed_files": 0,
        "bytes": 500170752,
        "file_latency": "a537d0b3375de7ba",
        "journal": "ec7b306ebc53edfc",
        "stable_report": "7b62a6b226525195",
    },
    "sched_pooled": {
        "sim_time": 2.4410009216,
        "recoveries": 0,
        "shed_files": 0,
        "bytes": 500170752,
        "file_latency": "1af79c8efa70d5bc",
        "journal": "861dd9902b140940",
        "stable_report": "7b62a6b226525195",
    },
}


@pytest.mark.parametrize("fluid", [True, False], ids=["fluid", "discrete"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_simulated_results_match_the_pinned_parent(scenario, fluid, monkeypatch):
    got, _ = SCENARIOS[scenario](fluid, _Latencies(monkeypatch), monkeypatch)
    assert got == PINS[scenario]


def _percentiles_us(engine, family):
    """p50 / p99 in µs over every histogram of ``family``."""
    merged = HistogramMetric.merged(engine.metrics.family(family))
    return {"p50_us": merged.percentile(50) * 1e6,
            "p99_us": merged.percentile(99) * 1e6}


def _bulk_anchor(monkeypatch, testbed, total, chaos_plan=None, **chaos):
    got, tb = _bulk(testbed, True, _Latencies(monkeypatch), chaos_plan,
                    total, seed=0, **chaos)
    if chaos_plan is None:
        gbps = got["bytes"] * 8.0 / got["elapsed"] / 1e9  # RftpResult.gbps
    else:
        gbps = total * 8 / got["sim_time"] / 1e9  # setup included
    return {
        "gbps": gbps,
        **_percentiles_us(tb.engine, "source.block_latency_seconds"),
        "sim_time": tb.engine.now,  # a chaos run drains to its horizon
    }


def _finished(result):
    """The finished files and the makespan: the last one's finish, not
    the drained clock."""
    finished = [t for job in result.jobs for t in job.files
                if t.state.value == "FINISHED"]
    return finished, max(t.finished_at for t in finished)


def _sched_anchor(result):
    """Goodput over the makespan and the submit-to-finish latency of
    every file."""
    finished, makespan = _finished(result)
    engine = result.testbed.engine
    return {
        "gbps": sum(t.size for t in finished) * 8 / makespan / 1e9,
        **_percentiles_us(engine, "sched.file_latency_seconds"),
        "sim_time": engine.now,
    }


def _quick_rftp_roce_lan(monkeypatch):
    return _bulk_anchor(monkeypatch, "roce-lan", 64 * MiB)


def _quick_rftp_ani_wan(monkeypatch):
    return _bulk_anchor(monkeypatch, "ani-wan", 256 * MiB)


def _quick_gridftp_ani_wan(monkeypatch):
    tb = TESTBEDS["ani-wan"]()
    result = run_gridftp(tb, total_bytes=64 * MiB, streams=4)
    # GridFTP reports goodput only, no per-block latency.
    return {"gbps": result.gbps, "p50_us": None, "p99_us": None,
            "sim_time": tb.engine.now}


def _quick_fio_write_roce(monkeypatch):
    tb = TESTBEDS["roce-lan"]()
    result = run_fio(tb, FioJob(semantics="write", block_size=128 * 1024,
                                iodepth=16, total_blocks=512))
    return {"gbps": result.gbps, "p50_us": result.lat_p50_us,
            "p99_us": result.lat_p99_us, "sim_time": tb.engine.now}


def _quick_chaos_recovery_roce(monkeypatch):
    plan = FaultPlan(seed=7, write_fault_rate=0.02, ctrl_drop_rate=0.01)
    return _bulk_anchor(monkeypatch, "roce-lan", 32 * MiB, plan)


def _quick_rftp_wan_fallback(monkeypatch):
    # Every data QP dies at 0.25 s on the 49 ms path and re-promotion is
    # off, so the whole tail measures degraded-mode (TCP) throughput.
    # _bulk asserts the run completed byte-exact and clean.
    config = ProtocolConfig(fallback_repromote=False)
    plan = FaultPlan(seed=11, qp_kills=tuple(
        (0.25, i) for i in range(config.num_channels)))
    return _bulk_anchor(monkeypatch, "ani-wan", 32 * MiB, plan, config=config)


def _quick_sched_10k(monkeypatch):
    spec = synthetic_spec(seed=0, total_files=1500, doors=2)
    _, result = _sched(spec, True, _Latencies(monkeypatch), monkeypatch)
    assert result.all_finished
    return _sched_anchor(result)


#: The un-overloaded service rate, files per second: ``sched_10k`` moves
#: 1500 files in ~31 s of sim time.
_SCHED_FILES_PER_SEC = 48.4


def _quick_sched_overload(monkeypatch):
    # An open-loop 10x arrival spike: the broker must shed its way
    # through it, every shed job reported with a reason and a RETRY_AFTER,
    # admitted work delivered byte-exact and nothing leaked (_sched
    # asserts that), while the admitted rate stays within 80 % of the
    # un-overloaded one.
    spec = overload_spec(seed=0, total_files=600)
    _, result = _sched(spec, True, _Latencies(monkeypatch), monkeypatch,
                       audit=True)
    assert result.all_resolved, result.unresolved[:3]
    assert result.audit_ok, result.audit_problems[:3]
    assert result.shed_jobs > 0
    for job in result.jobs:
        if job.shed:
            assert job.shed_reason and job.retry_after is not None, job.job_id
    finished, makespan = _finished(result)
    assert len(finished) / makespan >= 0.8 * _SCHED_FILES_PER_SEC
    return _sched_anchor(result)


def _pinned_bytes(result, config):
    """Source block-pool bytes plus, when pooled, the shared SRQ ring."""
    pools = {id(door.link.pool): door.link.pool
             for door in result.broker.doors.values()}
    pinned = sum(len(p.blocks) * (p.block_size + HEADER_BYTES)
                 for p in pools.values())
    if result.server.middleware._srq is not None:
        pinned += config.srq_depth * (config.block_size + HEADER_BYTES)
    return pinned


def _quick_sessions_per_host(monkeypatch):
    # The same small-file mix on dedicated QPs (one pool per door) and on
    # the shared per-host pool; the pooled run is the anchor.
    configs = {"dedicated": ProtocolConfig(), "pooled": _POOLED}
    density, anchors = {}, {}
    for name, config in configs.items():
        spec = synthetic_spec(seed=0, total_files=400, doors=2, max_active=64)
        _, result = _sched(spec, True, _Latencies(monkeypatch), monkeypatch,
                           config=config)
        assert result.all_finished
        density[name] = result.broker.peak_active / _pinned_bytes(result, config)
        anchors[name] = _sched_anchor(result)
    # Peak sessions per pinned source byte >= 4x, small-file goodput >= 1.3x.
    assert density["pooled"] >= 4.0 * density["dedicated"]
    assert anchors["pooled"]["gbps"] >= 1.3 * anchors["dedicated"]["gbps"]
    return anchors["pooled"]


QUICK_RUNS = {
    "rftp_roce_lan": _quick_rftp_roce_lan,
    "rftp_ani_wan": _quick_rftp_ani_wan,
    "gridftp_ani_wan": _quick_gridftp_ani_wan,
    "fio_write_roce": _quick_fio_write_roce,
    "chaos_recovery_roce": _quick_chaos_recovery_roce,
    "rftp_wan_fallback": _quick_rftp_wan_fallback,
    "sched_10k": _quick_sched_10k,
    "sched_overload": _quick_sched_overload,
    "sessions_per_host": _quick_sessions_per_host,
}

#: Copied verbatim from the retired harness's quick baseline (42a8f80).
QUICK_ANCHORS = {
    "chaos_recovery_roce": {
        "gbps": 25.851908178939507,
        "p50_us": 3064.990243485146,
        "p99_us": 5450.579069131528,
        "sim_time": 300.0,
    },
    "fio_write_roce": {
        "gbps": 39.7873270418218,
        "p50_us": 423.2304000000029,
        "p99_us": 423.2304000000055,
        "sim_time": 0.013493515446153919,
    },
    "gridftp_ani_wan": {
        "gbps": 0.9960499294990726,
        "p50_us": None,
        "p99_us": None,
        "sim_time": 0.5389999999999999,
    },
    "rftp_ani_wan": {
        "gbps": 4.253968033978052,
        "p50_us": 70635.1777485469,
        "p99_us": 89926.3367063645,
        "sim_time": 2.367500768,
    },
    "rftp_roce_lan": {
        "gbps": 31.974163169267744,
        "p50_us": 4069.2608587341133,
        "p99_us": 7394.071902800723,
        "sim_time": 2.000187692,
    },
    "rftp_wan_fallback": {
        "gbps": 0.23514261918565077,
        "p50_us": 61924.63143999988,
        "p99_us": 63568.46501599987,
        "sim_time": 300.0,
    },
    "sched_10k": {
        "gbps": 1.5380431436741007,
        "p50_us": 15036475.20135014,
        "p99_us": 29658223.389479097,
        "sim_time": 31.04781209178154,
    },
    "sched_overload": {
        "gbps": 1.3163649446029466,
        "p50_us": 594805.3433383438,
        "p99_us": 5353980.511643696,
        "sim_time": 11.485910263531796,
    },
    "sessions_per_host": {
        "gbps": 4.308779507334294,
        "p50_us": 1333195.3812955657,
        "p99_us": 2378935.511873074,
        "sim_time": 3.09066121739182,
    },
}


@pytest.mark.parametrize("case", sorted(QUICK_ANCHORS))
def test_quick_anchors_match_the_recorded_baseline(case, monkeypatch):
    assert QUICK_RUNS[case](monkeypatch) == QUICK_ANCHORS[case]


if __name__ == "__main__":  # pragma: no cover - records the pins
    import pprint

    recorded = {}
    for name, scenario in sorted(SCENARIOS.items()):
        for fluid_mode in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                got, _ = scenario(fluid_mode, _Latencies(mp), mp)
            assert recorded.setdefault(name, got) == got, (name, fluid_mode)
    for name, run in sorted(QUICK_RUNS.items()):
        with pytest.MonkeyPatch.context() as mp:
            recorded[name] = run(mp)
    pprint.pprint(recorded, sort_dicts=False)
