"""Deterministic fault injection for the RDMA middleware.

The paper's protocol is *designed around* failure — RNR NAKs motivate
credit flow control, Figure 6 specifies the WAITING → LOADED re-send on a
failed RDMA WRITE — but a simulator that never fails anything leaves
those paths dead.  This package makes failure a first-class, reproducible
input:

- :class:`FaultPlan` — a frozen description of what to break (WC error
  rates, control-message drop/delay, link flaps, latency spikes, payload
  bit-rot, scheduled endpoint crashes and QP kills), seeded;
- :class:`FaultInjector` — hooks the plan into the existing seams
  (``verbs.qp.fault_injector``, ``core.channels`` control hook,
  ``network.link`` flap/spike hooks) using one pure-Python
  :class:`~repro.sim.rng.Pcg64` stream per seam (from
  :class:`~repro.sim.rng.RandomStreams`, draw-for-draw equal to numpy's
  ``default_rng``), so every chaos run replays exactly without numpy;
- :func:`run_chaos` — one-call harness: run an RFTP transfer under a
  plan, verify byte-exact delivery or a clean typed abort, and audit the
  middleware for leaked blocks, credits, and reassembly state.
"""

from repro.faults.chaos import ChaosResult, run_chaos
from repro.faults.injector import FaultInjector
from repro.faults.plan import DEFAULT_DROPPABLE, FaultPlan

__all__ = [
    "ChaosResult",
    "DEFAULT_DROPPABLE",
    "FaultInjector",
    "FaultPlan",
    "run_chaos",
]
