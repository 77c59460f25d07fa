"""Deterministic named random streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomStreams
from repro.sim.rng import Pcg64

#: The stream names :class:`~repro.faults.injector.FaultInjector` draws.
INJECTOR_STREAMS = ("data", "ctrl", "link", "corrupt", "hb", "sched")
EDGE_SEEDS = (0, 1, 2**63, 2**64 - 1)


def draws(gen, n):
    return [gen.random() for _ in range(n)]


def test_same_seed_same_draws():
    a = RandomStreams(7).stream("x")
    b = RandomStreams(7).stream("x")
    assert draws(a, 5) == draws(b, 5)


def test_different_names_independent():
    rs = RandomStreams(7)
    assert draws(rs.stream("a"), 5) != draws(rs.stream("b"), 5)


def test_stream_identity_cached():
    rs = RandomStreams(0)
    assert rs.stream("x") is rs.stream("x")


def test_creation_order_does_not_matter():
    rs1 = RandomStreams(3)
    rs1.stream("first")
    x1 = draws(rs1.stream("second"), 4)
    rs2 = RandomStreams(3)
    x2 = draws(rs2.stream("second"), 4)
    assert x1 == x2


def test_spawn_children_independent():
    parent = RandomStreams(5)
    child_a = parent.spawn("host-a")
    child_b = parent.spawn("host-b")
    assert child_a.root != child_b.root
    assert draws(child_a.stream("s"), 3) != draws(child_b.stream("s"), 3)


def test_spawn_deterministic():
    assert RandomStreams(5).spawn("x").root == RandomStreams(5).spawn("x").root


# -- numpy as the oracle ------------------------------------------------------------


def _assert_matches_numpy(seed, n=64):
    oracle = np.random.default_rng(seed)
    ours = Pcg64(seed)
    for i in range(n):
        assert ours.random() == oracle.random(), (seed, i)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_pcg64_matches_default_rng_on_edge_seeds(seed):
    _assert_matches_numpy(seed)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_pcg64_matches_default_rng(seed):
    _assert_matches_numpy(seed)


@pytest.mark.parametrize("root", (0, 1, 4242))
def test_injector_streams_match_default_rng(root):
    streams = RandomStreams(root).spawn("faults")
    for name in INJECTOR_STREAMS:
        oracle = np.random.default_rng(streams.seed(name))
        assert draws(streams.stream(name), 64) == [
            oracle.random() for _ in range(64)
        ], name


def test_pcg64_rejects_negative_seed():
    with pytest.raises(ValueError):
        Pcg64(-1)
    # A seed wider than the 128-bit entropy pool mixes its extra words in.
    _assert_matches_numpy(2**200 + 12345)


def test_fault_runs_never_import_numpy():
    # Only the TCP fluid bottleneck still draws numpy arrays; every
    # fault-injecting RDMA or broker run must stay off numpy.  A fresh
    # interpreter keeps other tests' imports out of the answer.
    import os
    import subprocess
    import sys

    import repro

    code = (
        "import sys\n"
        "from repro.faults import FaultPlan, run_chaos\n"
        "from repro.faults.injector import FaultInjector\n"
        "from repro.sched import overload_spec, run_sched\n"
        "rates = dict(write_fault_rate=0.1, ctrl_drop_rate=0.1,\n"
        "             ctrl_delay_rate=0.1, latency_spike_rate=0.1,\n"
        "             payload_corrupt_rate=0.1, heartbeat_drop_rate=0.1,\n"
        "             attempt_fault_rate=0.1)\n"
        "inj = FaultInjector(FaultPlan(seed=1, **rates))\n"
        "for name in ('data', 'ctrl', 'link', 'corrupt', 'hb', 'sched'):\n"
        "    getattr(inj, '_%s_rng' % name).random()\n"
        "r = run_chaos('roce-lan', total_bytes=64 << 20, plan=FaultPlan(\n"
        "    seed=3, write_fault_rate=0.1, ctrl_drop_rate=0.1,\n"
        "    payload_corrupt_rate=0.1, latency_spike_rate=0.01))\n"
        "assert r.clean and r.write_faults + r.ctrl_drops > 0\n"
        "spec = overload_spec(seed=0, total_files=60)\n"
        "spec['faults'] = dict(seed=2, write_fault_rate=0.1,\n"
        "                      ctrl_drop_rate=0.1, attempt_fault_rate=0.3)\n"
        "assert sum(j.retries for j in run_sched(spec).jobs) > 0\n"
        "assert 'numpy' not in sys.modules, 'a fault run imported numpy'\n"
        "from repro.testbeds import ani_wan\n"
        "ani_wan().tcp_bottleneck()\n"
        "assert 'numpy' in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
