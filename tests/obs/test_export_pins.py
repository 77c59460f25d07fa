"""Pinned bytes of the obs exports: the oracle for exporter / tracer changes.

``bulk_wan_obs`` at its smallest scale (64 blocks on ``ani-wan``, seed 0)
with the tracer, collection and both JSONL exporters on, reduced to the
sha256 of ``metrics.jsonl`` and ``trace.jsonl``.  The values were recorded
before the tracer ring and the exporters were touched; a change to how
records are stored, encoded or written must reproduce them byte for byte.
The 256-record ring covers the drop path (the header's ``dropped`` /
``retained`` and which records survive).

Two more pins (recorded before the ring was packed into positional rows)
cover what those are blind to: a category-filtered tracer, and a 64-block
``roce-lan`` run under write faults, payload corruption and control drops,
which reaches ``ctrl/drop``, the repair-path keyword sites in
``sink_engine`` / ``source_link`` and field values that are not ``str`` /
``int`` / ``float``.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.apps.rftp import run_rftp
from repro.core import ProtocolConfig
from repro.faults import FaultPlan, run_chaos
from repro.obs import runtime
from repro.sched.jobs import JobState
from repro.obs.export import write_metrics_jsonl, write_trace_jsonl
from repro.sim.trace import Tracer
from repro.testbeds import TESTBEDS
from repro.verbs.wr import WcStatus

METRICS_SHA = "7ed9a99e5a85dc836a605b602e46769c56407311529feb62a96167504d102b73"
PINS = {
    100_000: (743, "4ca79be1f2c6ed5c5bd258cf44c6b1d33038de81caf43e87fc83d52cfda9cf5b"),
    256: (257, "7b1f63b085bc764259b0c00486b2e5794a0ea6867ed8631b247c642effd1163e"),
}
FILTERED_PIN = (565, "9ca4535b11a1fd942c8213efd7e6bd92c5016e2c26fbfb779e1877eb70bc2359")
FAULTS_PIN = (761, "4bd54b4066ace7d60428b7445352e3087b2e811a979a0934b3e674538fb7ca52")


@pytest.fixture(autouse=True)
def _clean_runtime():
    yield
    runtime.stop_collection()
    runtime.install_tracer_factory(None)


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _traced_testbed(name, tracer_factory):
    """A seed-0 testbed born under collection with ``tracer_factory``'s
    tracer, and the byte count of ``bulk_*``'s smallest scale (64 blocks
    with a seeded short tail)."""
    runtime.install_tracer_factory(tracer_factory)
    runtime.start_collection()
    config = ProtocolConfig()
    tail = random.Random(0).randrange(1, config.block_size + 1)
    return TESTBEDS[name](seed=0), config, 63 * config.block_size + tail


@pytest.mark.parametrize("capacity", sorted(PINS))
def test_bulk_wan_obs_exports_are_byte_identical(capacity, tmp_path):
    testbed, config, total = _traced_testbed(
        "ani-wan", lambda: Tracer(capacity=capacity)
    )
    run_rftp(testbed, total, config=config)
    engines = runtime.collected_engines()
    assert engines == [testbed.engine]

    metrics, trace = tmp_path / "metrics.jsonl", tmp_path / "trace.jsonl"
    assert write_metrics_jsonl(str(metrics), engines) == 109
    assert _sha(metrics) == METRICS_SHA
    lines, sha = PINS[capacity]
    assert write_trace_jsonl(str(trace), engines) == lines
    assert _sha(trace) == sha


def test_category_filtered_trace_export_is_byte_identical(tmp_path):
    testbed, config, total = _traced_testbed(
        "ani-wan", lambda: Tracer(categories={"qp", "credits"})
    )
    run_rftp(testbed, total, config=config)
    trace = tmp_path / "trace.jsonl"
    lines, sha = FILTERED_PIN
    assert write_trace_jsonl(str(trace), [testbed.engine]) == lines
    assert _sha(trace) == sha


def test_faulted_lan_trace_export_is_byte_identical(tmp_path):
    testbed, config, total = _traced_testbed("roce-lan", Tracer)
    # Plan seed 21 is the first whose 64 blocks reach a control drop, a
    # checksum repair and a breaker trip in one run.
    plan = FaultPlan(
        seed=21, write_fault_rate=0.10, payload_corrupt_rate=0.05, ctrl_drop_rate=0.05
    )
    result = run_chaos(testbed, total_bytes=total, plan=plan, config=config)
    assert result.completed and result.byte_exact
    messages = {(r.category, r.message) for r in testbed.engine.tracer.query()}
    assert messages >= {
        ("ctrl", "drop"), ("sink", "checksum_mismatch"),
        ("link", "repair"), ("link", "breaker_trip"),
    }
    # The run's own values are all ``str`` / ``int``; pin the rest of what a
    # site may pass (enums with and without a ``str`` base, ``bool``,
    # ``None``, floats finite and not, containers, text that needs escapes).
    testbed.engine.trace(
        "pin", "values",
        status=WcStatus.SUCCESS, state=JobState.FINISHED, flag=True, none=None,
        ratio=0.1, big=1e22, inf=float("inf"), neg=-(1 << 70),
        pair=(1, "a"), text='q"\\\n\x7f\u00e9\u2028',
    )
    trace = tmp_path / "trace.jsonl"
    lines, sha = FAULTS_PIN
    assert write_trace_jsonl(str(trace), [testbed.engine]) == lines
    assert _sha(trace) == sha
