"""Protocol configuration knobs (and the ablation switches).

Only what a run may vary lives here.  Fixed implementation constants
sit beside the code that reads them: the control-plane timeout ladder
and RTO multipliers in :mod:`repro.core.health`, the per-block resend
budget in :mod:`repro.core.source_link`, the QP queue depths in
:mod:`repro.core.middleware`.  Block checksums are always stamped and
verified, and the sink always accepts SESSION_RESUME.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ProtocolConfig"]


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunable parameters of the middleware protocol.

    Defaults follow the paper's recommendations: large blocks, several
    parallel data channels, a deep pool of in-flight blocks, proactive
    credits with the ×2 "slow-start" grant ramp.
    """

    #: Negotiated payload block size in bytes.
    block_size: int = 4 * 1024 * 1024
    #: Number of parallel data-channel queue pairs.
    num_channels: int = 4
    #: Source-side registered block pool size (bounds blocks in flight).
    source_blocks: int = 32
    #: Sink-side registered block pool size (bounds outstanding credits).
    sink_blocks: int = 32
    #: Max credits the sink grants per BLOCK_DONE notification (2 gives the
    #: exponential ramp of §IV-C; 1 gives a linear, ablation-only ramp).
    credit_grant_ratio: int = 2
    #: Credits pushed unprompted right after session setup.
    initial_credits: int = 2
    #: Proactive feedback (the paper's design).  False reproduces the
    #: request/response credit scheme of Tian et al. [19]: the source must
    #: spend an RTT asking whenever it runs dry.
    proactive_credits: bool = True
    #: Number of data-loading threads at the source.
    reader_threads: int = 2
    #: Number of consumer threads at the sink.
    writer_threads: int = 2
    #: Sink-side: a session with no traffic for this long is reclaimed.
    session_idle_timeout: float = 5.0
    #: Sink-side garbage-collector sweep period.
    gc_interval: float = 0.5
    #: Repair corrupt blocks via BLOCK_NACK selective re-send from the
    #: source's still-WAITING copy.  When False a detected mismatch is counted and the block withheld, so
    #: the session dies with a typed error instead of delivering garbage.
    block_repair: bool = True
    #: Sink-side restart-marker cadence: one BLOCK_MARKER (cumulative
    #: consumed-prefix ack) per this many consumed blocks.  Markers both
    #: release the source's repair copies and anchor SESSION_RESUME.
    marker_interval_blocks: int = 4
    #: Control-channel PING/PONG liveness probes on both engines, so an
    #: idle peer's death is detected in bounded time instead of at the
    #: next request.
    heartbeats: bool = True
    #: Clamp band for the adaptive heartbeat cadence.
    heartbeat_interval_min: float = 0.05
    heartbeat_interval_max: float = 2.0
    #: Consecutive unanswered heartbeat intervals tolerated before the
    #: peer is declared dead (typed PeerDead abort / sink reclaim).
    heartbeat_misses: int = 3
    #: Consecutive completion errors that trip a data channel's circuit
    #: breaker OPEN (quarantined from the send rotation).
    breaker_failures: int = 3
    #: Floor on the breaker's quarantine cooldown, seconds.
    breaker_cooldown_min: float = 0.1
    #: Sink-side idle GC patience in RTOs; the configured
    #: session_idle_timeout stays the floor, so on a long path sessions
    #: are reclaimed later, never sooner.
    idle_rto_multiplier: float = 64.0
    #: Degrade to a TCP connection through the same fabric when every
    #: data channel is dead (instead of the DataChannelsLost abort),
    #: resuming from the restart marker with checksums still verified.
    tcp_fallback: bool = True
    #: While degraded, periodically try to re-establish a data channel
    #: and promote the session back to RDMA (half-open probe WRITE).
    fallback_repromote: bool = True
    #: Sink-side cap on per-session bookkeeping retained after a session
    #: finishes or is reclaimed (the idempotent-ack ledger, restart-marker
    #: anchors, accounting epochs).  On a long-lived link multiplexing
    #: many short sessions this history previously grew without bound;
    #: the oldest retired session's state is evicted beyond the cap.
    sink_session_history: int = 4096
    #: Sharing scope of a link's channel set (``HostChannelPool``).
    #: False: each link rides a private set of ``num_channels`` QPs and
    #: its own block pool.  True: every link to one (host, port) rides
    #: one shared set of ``qp_pool_size`` QPs with ``pool_sessions``
    #: leases, the server's receive side is a shared receive queue, and
    #: small sessions may ride eager SENDs.  Both scopes run the same
    #: link and reaper code.
    use_srq: bool = False
    #: Shared receive-WQE budget per host pool (``use_srq`` only).  Sized
    #: for aggregate arrival rate, not per-connection: this bounds pinned
    #: receive memory regardless of how many sessions are multiplexed.
    srq_depth: int = 256
    #: Data QPs in the shared per-host pool (``use_srq`` only).  Replaces
    #: per-link ``num_channels`` fan-out: every session on the host pair
    #: stripes over these.
    qp_pool_size: int = 4
    #: Concurrent session leases one host pool hands out (``use_srq``
    #: only).  This is what the scheduler's door caps derive from — real
    #: pool capacity, not a config constant.
    pool_sessions: int = 32
    #: Eager/rendezvous switch (``use_srq`` only): a session whose block
    #: payloads fit under this many bytes rides SEND/RECV on the shared
    #: channels — one shared WQE per block, no MR exchange, no credit
    #: round trips.  Larger sessions keep the rendezvous path: credits
    #: carrying (addr, rkey) and dedicated RDMA WRITEs.  0 disables the
    #: eager path entirely.
    eager_threshold: int = 1024 * 1024

    def __post_init__(self) -> None:
        if self.block_size < 4096:
            raise ValueError("block size below 4 KiB is not supported")
        if self.num_channels < 1:
            raise ValueError("need at least one data channel")
        if self.source_blocks < 2 or self.sink_blocks < 2:
            raise ValueError("pools need at least two blocks")
        if self.credit_grant_ratio < 1:
            raise ValueError("credit_grant_ratio must be >= 1")
        if self.initial_credits < 1:
            raise ValueError("initial_credits must be >= 1")
        if self.initial_credits > self.sink_blocks:
            raise ValueError("initial_credits cannot exceed the sink pool")
        if self.reader_threads < 1 or self.writer_threads < 1:
            raise ValueError("need at least one reader and one writer thread")
        if self.session_idle_timeout <= 0 or self.gc_interval <= 0:
            raise ValueError("GC timings must be positive")
        if self.marker_interval_blocks < 1:
            raise ValueError("marker_interval_blocks must be >= 1")
        if self.heartbeat_interval_min <= 0:
            raise ValueError("heartbeat_interval_min must be positive")
        if self.heartbeat_interval_max < self.heartbeat_interval_min:
            raise ValueError(
                "heartbeat_interval_max must be >= heartbeat_interval_min"
            )
        if self.heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be >= 1")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")
        if self.breaker_cooldown_min <= 0:
            raise ValueError("breaker_cooldown_min must be positive")
        if self.idle_rto_multiplier <= 0:
            raise ValueError("idle_rto_multiplier must be positive")
        if self.sink_session_history < 1:
            raise ValueError("sink_session_history must be >= 1")
        if self.srq_depth < 1:
            raise ValueError("srq_depth must be >= 1")
        if self.qp_pool_size < 1:
            raise ValueError("qp_pool_size must be >= 1")
        if self.pool_sessions < 1:
            raise ValueError("pool_sessions must be >= 1")
        if self.eager_threshold < 0:
            raise ValueError("eager_threshold must be >= 0")
