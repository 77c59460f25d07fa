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
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pytest

from repro.apps.rftp import run_rftp
from repro.core import ProtocolConfig, middleware
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
          counters=(), **chaos):
    """One transfer, plain or under ``chaos_plan``; ``chaos`` passes
    ``config`` / ``resume_attempts`` / ... through to ``run_chaos`` and
    ``counters`` names the ``ChaosResult`` fields the fingerprint adds."""
    tb = TESTBEDS[testbed](seed=3)
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
    }


def _discrete(build):
    """``build`` with its engine switched to the discrete oracle."""

    def wrapped(*args, **kwargs):
        tb = build(*args, **kwargs)
        tb.engine.use_fluid = False
        return tb

    return wrapped


def _sched(spec, fluid, latencies, monkeypatch, **kwargs):
    # Attempt records carry session ids, which come from a process-wide
    # counter: start it afresh so the journal does not depend on which
    # tests ran before this one.
    monkeypatch.setattr(middleware, "_session_ids", itertools.count(1))
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
    }


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


def _sched_pooled(fluid, latencies, monkeypatch):
    spec = synthetic_spec(seed=3, total_files=120, doors=2, max_active=16)
    config = ProtocolConfig(use_srq=True, eager_threshold=4 * MiB, srq_depth=24)
    return _sched(spec, fluid, latencies, monkeypatch, config=config)


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
    got = SCENARIOS[scenario](fluid, _Latencies(monkeypatch), monkeypatch)
    assert got == PINS[scenario]


if __name__ == "__main__":  # pragma: no cover - records the pins
    import pprint

    recorded = {}
    for name, scenario in sorted(SCENARIOS.items()):
        for fluid_mode in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                got = scenario(fluid_mode, _Latencies(mp), mp)
            assert recorded.setdefault(name, got) == got, (name, fluid_mode)
    pprint.pprint(recorded, sort_dicts=False)
