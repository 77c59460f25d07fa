"""Pinned bytes of the obs exports: the oracle for exporter / tracer changes.

``bulk_wan_obs`` at its smallest scale (64 blocks on ``ani-wan``, seed 0)
with the tracer, collection and both JSONL exporters on, reduced to the
sha256 of ``metrics.jsonl`` and ``trace.jsonl``.  The values were recorded
before the tracer ring and the exporters were touched; a change to how
records are stored, encoded or written must reproduce them byte for byte.
The 256-record ring covers the drop path (the header's ``dropped`` /
``retained`` and which records survive).
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from repro.apps.rftp import run_rftp
from repro.core import ProtocolConfig, middleware
from repro.obs import runtime
from repro.obs.export import write_metrics_jsonl, write_trace_jsonl
from repro.sim.trace import Tracer
from repro.testbeds import TESTBEDS

METRICS_SHA = "ef3bc7dcdde713315922d0df4efc5ae6b49459d91b491a7e414d1190ea3fc687"
PINS = {
    100_000: (743, "4ca79be1f2c6ed5c5bd258cf44c6b1d33038de81caf43e87fc83d52cfda9cf5b"),
    256: (257, "7b1f63b085bc764259b0c00486b2e5794a0ea6867ed8631b247c642effd1163e"),
}


@pytest.fixture(autouse=True)
def _clean_runtime():
    yield
    runtime.stop_collection()
    runtime.install_tracer_factory(None)


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("capacity", sorted(PINS))
def test_bulk_wan_obs_exports_are_byte_identical(capacity, tmp_path, monkeypatch):
    # Session ids come from a process-wide counter and label metrics.
    monkeypatch.setattr(middleware, "_session_ids", itertools.count(1))
    runtime.install_tracer_factory(lambda: Tracer(capacity=capacity))
    runtime.start_collection()
    config = ProtocolConfig()
    tail = random.Random(0).randrange(1, config.block_size + 1)
    testbed = TESTBEDS["ani-wan"](seed=0)
    run_rftp(testbed, 63 * config.block_size + tail, config=config)
    engines = runtime.collected_engines()
    assert engines == [testbed.engine]

    metrics, trace = tmp_path / "metrics.jsonl", tmp_path / "trace.jsonl"
    assert write_metrics_jsonl(str(metrics), engines) == 119
    assert _sha(metrics) == METRICS_SHA
    lines, sha = PINS[capacity]
    assert write_trace_jsonl(str(trace), engines) == lines
    assert _sha(trace) == sha
