#!/usr/bin/env python3
"""Watching the protocol work: trace the credit slow-start on the WAN.

Attaches the structured tracer to the ANI WAN testbed, runs a short RFTP
transfer, and prints (a) the first control messages on the wire — the
three-phase negotiation of §IV-C — and (b) the credit ledger's balance
over the first round trips, showing the exponential grant ramp that
fills the 61 MB bandwidth-delay product without a single request RTT.

Run:
    python examples/protocol_trace.py
"""

from repro.apps.io import CollectingSink, PatternSource
from repro.core import ProtocolConfig, RdmaMiddleware
from repro.sim.trace import Tracer
from repro.testbeds import ani_wan


def main() -> None:
    tb = ani_wan()
    tb.engine.tracer = Tracer(categories={"ctrl", "credits"})
    config = ProtocolConfig(
        block_size=4 << 20,
        num_channels=4,
        source_blocks=48,
        sink_blocks=48,
        initial_credits=2,
        credit_grant_ratio=2,
    )

    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, config)
    server.serve(2811, CollectingSink(tb.dst))
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, config)

    done = client.transfer(tb.dst_dev, 2811, PatternSource(tb.src), 2 << 30)
    tb.engine.run()

    tracer = tb.engine.tracer
    print("--- first 12 control messages (3-phase protocol, §IV-C) ---")
    for i, rec in enumerate(tracer.query(category="ctrl")):
        if i >= 12:
            break
        print(f"  t={rec.time * 1e3:8.3f} ms  {rec.fields['type']}")

    print("\n--- credit ramp (cumulative grants vs round trips) ---")
    # Each deposit row carries the cumulative count received so far.
    history = [(rec.time, rec.fields["total"])
               for rec in tracer.query(category="credits")
               if rec.message == "deposit"]
    t0 = history[0][0]
    for rtts in (1, 2, 3, 4, 5, 6, 8):
        cutoff = t0 + rtts * tb.rtt
        totals = [total for ts, total in history if ts <= cutoff]
        total = totals[-1] if totals else 0
        bar = "#" * total
        print(f"  {rtts:>2} RTT: {total:>3} credits  {bar}")

    outcome = done.value
    print(f"\ntransfer: {outcome.gbps:.2f} Gbps, "
          f"{outcome.mr_requests} explicit credit requests, "
          f"peak balance {outcome.peak_credits}")


if __name__ == "__main__":
    main()
