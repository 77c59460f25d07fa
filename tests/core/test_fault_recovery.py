"""Fault injection: the WAITING → LOADED re-send path of Figure 6."""

from repro.apps.io import CollectingSink, PatternSource
from repro.core import ProtocolConfig, RdmaMiddleware
from repro.testbeds import roce_lan
from repro.verbs import Opcode, SendWR, WcStatus
from tests.conftest import make_fabric


def cfg(**over):
    base = dict(
        block_size=256 * 1024,
        num_channels=2,
        source_blocks=8,
        sink_blocks=8,
    )
    base.update(over)
    return ProtocolConfig(**base)


# -- verbs-level behaviour ----------------------------------------------------------
def test_sim_fault_fails_wr_but_keeps_qp():
    f = make_fabric()
    qa, _ = f.qp_pair()
    _, buf, mr = f.remote_mr()
    hits = []
    qa.fault_injector = lambda wr: hits.append(wr.wr_id) is None and len(hits) == 1

    for i in range(2):
        qa.post_send(
            SendWR(
                opcode=Opcode.RDMA_WRITE,
                length=4096,
                wr_id=i,
                remote_addr=buf.addr,
                rkey=mr.rkey,
                payload=f"p{i}",
            )
        )
    f.engine.run()
    wcs = qa.send_cq._reap(16)
    assert wcs[0].status is WcStatus.SIM_FAULT
    assert wcs[1].status is WcStatus.SUCCESS
    from repro.verbs import QpState

    assert qa.state is QpState.RTS  # QP survived the injected fault
    assert mr.fetch(buf.addr) == "p1"  # faulted payload was discarded


# -- middleware-level recovery ---------------------------------------------------------
class EveryNth:
    """Fail every n-th WRITE exactly once (deterministic injector)."""

    def __init__(self, n: int):
        self.n = n
        self.count = 0
        self.failed = set()

    def __call__(self, wr) -> bool:
        self.count += 1
        if self.count % self.n == 0 and wr.wr_id not in self.failed:
            self.failed.add(wr.wr_id)
            return True
        return False


def run_with_faults(injector, total=16 << 20):
    tb = roce_lan()
    c = cfg()
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, c)
    sink = CollectingSink(tb.dst)
    server.serve(4000, sink)
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, c)
    done = client.transfer(
        tb.dst_dev, 4000, PatternSource(tb.src), total, fault_injector=injector
    )
    tb.engine.run()
    assert done.triggered and done.ok, "transfer deadlocked under faults"
    return done.value, sink


def test_transfer_survives_sporadic_faults():
    injector = EveryNth(7)
    outcome, sink = run_with_faults(injector)
    assert outcome.resends == len(injector.failed) > 0
    # Despite the faults: complete, in-order, correct payloads.
    assert len(list(sink.rows())) == outcome.blocks
    assert [h.seq for h, _ in sink.rows()] == list(range(outcome.blocks))
    for h, payload in sink.rows():
        assert payload == ("blk", h.seq, h.length)


def test_heavy_fault_rate_still_completes():
    injector = EveryNth(2)  # half of all first attempts fail
    outcome, sink = run_with_faults(injector, total=8 << 20)
    assert outcome.resends >= outcome.blocks // 2 - 1
    assert len(list(sink.rows())) == outcome.blocks


def test_faults_do_not_leak_credits():
    """Failed WRITEs return their credit; the sink pool never strands a
    WAITING block."""
    injector = EveryNth(5)
    outcome, _ = run_with_faults(injector)
    # Every block eventually delivered exactly once == no credit lost.
    assert outcome.blocks * 1 == len(set(range(outcome.blocks)))
    assert outcome.resends > 0
