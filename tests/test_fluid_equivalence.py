"""Fluid fast-forward must be invisible in results — only in event counts.

Every application workload is run twice, on a testbed whose engine runs
fluid (the default) and one switched to ``engine.use_fluid = False``
before any traffic, and the
simulated outcomes — goodput and final clock — must agree **exactly**
(float equality, not approx): the fluid paths are constructed to
evaluate the same float expressions the discrete event chains would.
The payoff shows up as a strictly lower event count.
"""

from __future__ import annotations

import pytest

from repro.testbeds import TESTBEDS
from tests.oracles import transmit_burst

MiB = 1024 * 1024


def _testbed(testbed_name, fluid):
    tb = TESTBEDS[testbed_name]()
    tb.engine.use_fluid = fluid  # before any traffic: one mode per wire
    return tb


def _rftp(testbed_name, fluid):
    from repro.apps.rftp import run_rftp

    tb = _testbed(testbed_name, fluid)
    result = run_rftp(tb, total_bytes=16 * MiB)
    return result.gbps, tb.engine.now, tb.engine.events_processed


def _gridftp(testbed_name, fluid):
    from repro.apps.gridftp import run_gridftp

    tb = _testbed(testbed_name, fluid)
    result = run_gridftp(tb, total_bytes=16 * MiB, streams=4)
    return result.gbps, tb.engine.now, tb.engine.events_processed


def _fio(testbed_name, fluid):
    """A 200-block WRITE run, then every semantics with and without
    busy polling, and a SEND run on single-core hosts.  There the
    submitter and the reaper share the one core, and 64 posts outlast
    the first round trip, so chunks queue for the core and some CQ wakes
    are chunk processes.  Beyond goodput and the clock, each run's
    per-I/O latencies, clock and per-group busy seconds on both hosts
    must agree."""
    from repro.apps.fio import FioJob, run_fio
    from repro.hardware.cpu import CpuScheduler

    runs = [("write", False, 128 * 1024, 16, 200, None)]
    runs += [(s, poll, 128 * 1024, 16, 24, None)
             for s in ("write", "read", "send") for poll in (False, True)]
    runs.append(("send", False, 4096, 64, 72, 1))
    gbps, events, seen = None, 0, []
    for semantics, busy_poll, block_size, iodepth, blocks, cores in runs:
        tb = _testbed(testbed_name, fluid)
        hosts = (tb.src, tb.dst)
        if cores is not None:
            for host in hosts:
                host.cpu = CpuScheduler(tb.engine, cores)
        job = FioJob(semantics=semantics, block_size=block_size,
                     iodepth=iodepth, total_blocks=blocks, busy_poll=busy_poll)
        result = run_fio(tb, job)
        gbps = result.gbps if gbps is None else gbps
        events += tb.engine.events_processed
        seen.append((result._latencies, tb.engine.now,
                     [{g: h.cpu.busy_seconds(g) for g in h.cpu._group_busy}
                      for h in hosts]))
    return gbps, seen, events


@pytest.mark.parametrize(
    "runner,testbed",
    [
        (_rftp, "roce-lan"),
        (_rftp, "ani-wan"),
        (_gridftp, "ani-wan"),
        (_fio, "roce-lan"),
    ],
    ids=["rftp-roce", "rftp-wan", "gridftp-wan", "fio-roce"],
)
def test_fluid_matches_discrete_exactly(runner, testbed):
    gbps_f, now_f, events_f = runner(testbed, True)
    gbps_d, now_d, events_d = runner(testbed, False)
    assert gbps_f == gbps_d
    assert now_f == now_d
    assert events_f < events_d


def _run_fluid_pipeline(use_fluid, flows, blocks, unit, packets):
    """Steady-state WAN bulk pipeline: cpu -> wqe -> dma -> packetized
    burst -> dma -> cpu -> ack, per block, per flow.

    Kernel-dominated: each block's burst is ``packets`` wire units, which
    discrete mode carries as per-packet transmit processes and fluid mode
    books as one timer.  Returns the final clock and the event count.
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

    def pump(i):
        t_src = CpuThread(src_cpu, f"s{i}", "app")
        t_snk = CpuThread(snk_cpu, f"k{i}", "app")
        forward, backward = duplex.forward, duplex.backward
        for _ in range(blocks):
            yield t_src.exec(2e-6)
            yield from nic.process_wqe()
            yield from src_pcie.dma(block_bytes)
            yield from transmit_burst(forward, unit, packets)
            yield from snk_pcie.dma(block_bytes)
            yield t_snk.exec(2e-6)
            yield from backward.deliver_latency(64)

    for i in range(flows):
        engine.process(pump(i))
    engine.run()
    return engine.now, engine.events_processed


def test_burst_workload_event_ratio_exceeds_three():
    """The acceptance floor: ≥3× fewer kernel events on the steady-state
    WAN bulk pipeline, on a clock pinned to the value the retired quick
    benchmark suite recorded for it."""
    discrete_time, discrete_events = _run_fluid_pipeline(
        False, flows=4, blocks=24, unit=1 << 16, packets=16)
    fluid_time, fluid_events = _run_fluid_pipeline(
        True, flows=4, blocks=24, unit=1 << 16, packets=16)
    assert fluid_time == discrete_time == 2.3922655180799905
    assert discrete_events >= 3 * fluid_events


def test_fault_armed_links_auto_pin_to_discrete():
    """Arming flaps or spikes must arm a fault hook on every path link,
    which keeps it off chain booking (a spike is drawn per hop), and the
    chaos run must still end clean and byte-exact."""
    from repro.faults.chaos import run_chaos
    from repro.faults.plan import FaultPlan

    tb = TESTBEDS["ani-wan"]()
    plan = FaultPlan(seed=3, latency_spike_rate=0.05,
                     link_flaps=((0.2, 0.05),))
    result = run_chaos(tb, total_bytes=8 * MiB, plan=plan)
    links = list(tb.duplex.forward.links) + list(tb.duplex.backward.links)
    assert all(link.fault_hook is not None for link in links)
    assert result.completed and result.clean and result.byte_exact
    assert result.flaps_fired == 1


def test_clean_chaos_leaves_links_fluid():
    """A plan with no link-level faults must arm no link hook."""
    from repro.faults.chaos import run_chaos
    from repro.faults.plan import FaultPlan

    tb = TESTBEDS["ani-wan"]()
    plan = FaultPlan(seed=5, write_fault_rate=0.02)
    result = run_chaos(tb, total_bytes=8 * MiB, plan=plan)
    links = list(tb.duplex.forward.links) + list(tb.duplex.backward.links)
    assert all(link.fault_hook is None for link in links)
    assert result.completed and result.clean


def test_chaos_with_link_faults_matches_discrete_engine():
    """With armed links hooked, a fluid-engine chaos run must land on the
    same clock as a fully discrete one."""
    from repro.faults.chaos import run_chaos
    from repro.faults.plan import FaultPlan

    outcomes = {}
    for fluid in (True, False):
        tb = _testbed("ani-wan", fluid)
        plan = FaultPlan(seed=3, latency_spike_rate=0.05,
                         link_flaps=((0.2, 0.05),))
        result = run_chaos(tb, total_bytes=8 * MiB, plan=plan)
        assert result.completed and result.clean
        outcomes[fluid] = (result.sim_time, result.latency_spikes,
                          result.flaps_fired)
    assert outcomes[True] == outcomes[False]
