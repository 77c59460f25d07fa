"""Adaptive failure detection: RTT estimation, heartbeats, breakers.

The paper's middleware must behave on radically different paths — a
13 µs-RTT InfiniBand LAN and the 49 ms ANI WAN (Table I) — yet a fixed
``CTRL_TIMEOUT`` is wrong on both: orders of magnitude too patient on
the LAN, potentially too eager on a congested WAN.  This module gives
both engines the three classic self-tuning mechanisms:

- :class:`RttEstimator` — Jacobson/Karels SRTT/RTTVAR smoothing with
  Karn's algorithm (callers only feed unambiguous, first-attempt
  samples, and a timed-out first attempt backs the RTO off until the
  next one) and floor/ceiling clamps, exactly TCP's RTO recipe
  (RFC 6298);
- :class:`HealthMonitor` — per-endpoint liveness bookkeeping: last time
  the peer was heard, adaptive heartbeat cadence, consecutive-miss
  accounting behind the typed ``PeerDead`` abort, and the timeout
  derivations every watchdog uses instead of raw config constants;
- :class:`ChannelBreaker` — a per-data-QP circuit breaker
  (CLOSED → OPEN on consecutive losses → HALF_OPEN single probe) so a
  flapping channel is quarantined from the send rotation instead of
  eating a retry budget per round trip.

Timeout policy: synchronous request/reply exchanges use the pure RTO
(the sink answers immediately, so µs convergence on the LAN is safe);
*patience* paths — credit waits, the DATASET_DONE ack, the marker
watchdog, the sink's idle GC — use ``max(static base, k·rto)`` so they
can only adapt *upwards* on a long path, never below the static
behaviour that slow disks and queued grants legitimately need.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.core.config import ProtocolConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = ["RttEstimator", "HealthMonitor", "ChannelBreaker", "BreakerState"]

#: Base timeout for control-plane request/reply exchanges (negotiation,
#: MR_INFO_REQ when starved, DATASET_DONE_ACK).  Once the RTT estimator
#: has samples it replaces this as the per-attempt base; before any
#: sample, adaptive paths degrade to it.
CTRL_TIMEOUT = 0.25
#: Multiplier applied to the timeout after each failed attempt.
BACKOFF_FACTOR = 2.0
#: Retries (beyond the first attempt) before a control exchange aborts
#: the session with a typed error.
CTRL_RETRIES = 5
#: Ceiling on any single control-plane timeout step: the exponential
#: backoff and the adaptive RTO both clamp here.  It equals
#: ``CTRL_TIMEOUT · BACKOFF_FACTOR^CTRL_RETRIES``, the last step of the
#: static ladder, so the cap never clips that ladder.
CTRL_TIMEOUT_MAX = 8.0
#: Floor under the adaptive RTO, so a µs-RTT LAN estimate can never
#: collapse a timeout below the scheduler/processing noise floor.
CTRL_TIMEOUT_MIN = 100e-6
#: Heartbeat cadence in RTOs (clamped to the configured band).
HEARTBEAT_RTO_MULTIPLIER = 8.0
#: Adaptive breaker cooldown in RTOs (the configured floor wins if larger).
BREAKER_RTO_MULTIPLIER = 8.0


class RttEstimator:
    """SRTT/RTTVAR smoothing with clamps (RFC 6298 constants).

    ``observe`` must only be fed unambiguous samples — Karn's rule:
    never time a reply that may answer a retransmitted request.  Before
    the first sample :attr:`rto` returns the initial timeout, so
    an estimator-driven path degrades to exactly the static behaviour.

    Karn's rule discards exactly the slow samples a loaded path
    produces, so the other half of the algorithm (RFC 6298 §5.5) keeps
    the timeout that expired: :meth:`expired` multiplies :attr:`backoff`
    and the next valid sample resets it to 1.0.  ``level`` counts the
    back-offs since that sample; a request remembers the level it was
    sent at and only an expiry at the current level backs off again, so
    a burst of concurrent expiries doubles the timeout once, not once
    per request.
    """

    ALPHA = 1.0 / 8.0
    BETA = 1.0 / 4.0
    K = 4.0

    def __init__(self, initial: float, floor: float, ceiling: float) -> None:
        if not 0 < floor <= initial <= ceiling:
            raise ValueError("need 0 < floor <= initial <= ceiling")
        self.initial = initial
        self.floor = floor
        self.ceiling = ceiling
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.samples = 0
        self.backoff = 1.0
        self.level = 0

    def observe(self, sample: float) -> None:
        """Fold one round-trip sample into the smoothed estimate (and
        drop any backoff: the path has answered in time again)."""
        if sample < 0:
            return
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar = (
                (1.0 - self.BETA) * self.rttvar + self.BETA * abs(self.srtt - sample)
            )
            self.srtt = (1.0 - self.ALPHA) * self.srtt + self.ALPHA * sample
        self.samples += 1
        self.backoff = 1.0
        self.level = 0

    def expired(self, level: int, factor: float) -> None:
        """A first attempt sent at ``level`` timed out: back off by
        ``factor`` if that is still the current level (a concurrent
        expiry has not already) and the ceiling is not yet reached."""
        if level != self.level or self.rto * self.backoff >= self.ceiling:
            return
        self.backoff *= factor
        self.level += 1

    @property
    def rto(self) -> float:
        """Current retransmission timeout, clamped to [floor, ceiling]."""
        if self.srtt is None:
            return min(max(self.initial, self.floor), self.ceiling)
        assert self.rttvar is not None
        return min(max(self.srtt + self.K * self.rttvar, self.floor), self.ceiling)


class HealthMonitor:
    """One endpoint's view of its peer: RTT estimate plus liveness.

    Owned by :class:`~repro.core.source_link.SourceLink` and
    :class:`~repro.core.sink_engine.SinkEngine`; every inbound control
    message calls :meth:`heard`, every unambiguous request/reply or
    PING/PONG round trip feeds :meth:`rtt`.
    """

    def __init__(self, engine: "Engine", config: ProtocolConfig) -> None:
        self.engine = engine
        self.config = config
        self.rtt = RttEstimator(
            initial=CTRL_TIMEOUT, floor=CTRL_TIMEOUT_MIN, ceiling=CTRL_TIMEOUT_MAX
        )
        self.last_heard: float = engine.now
        #: Consecutive heartbeat intervals that elapsed with nothing
        #: inbound (a PING was sent for each).  Reset by :meth:`heard`.
        self.misses = 0
        #: Nonce and send time of the single outstanding PING; replies
        #: to a stale nonce are ignored (Karn's rule for heartbeats).
        self._ping_nonce = 0
        self._ping_sent_at: Optional[float] = None
        self._ping_pending: Optional[int] = None

    # -- liveness ---------------------------------------------------------------
    def heard(self) -> None:
        """Any inbound control traffic proves the peer alive."""
        self.last_heard = self.engine.now
        self.misses = 0

    def next_ping(self) -> int:
        """Mint the nonce for a new PING and start its RTT clock."""
        self._ping_nonce += 1
        self._ping_pending = self._ping_nonce
        self._ping_sent_at = self.engine.now
        return self._ping_nonce

    def on_pong(self, nonce: int) -> None:
        """Fold a PONG for the outstanding PING into the RTT estimate."""
        if nonce == self._ping_pending and self._ping_sent_at is not None:
            self.rtt.observe(self.engine.now - self._ping_sent_at)
        self._ping_pending = None
        self._ping_sent_at = None

    # -- derived timeouts -------------------------------------------------------
    def _capped(self, base: float, attempt: int) -> float:
        return min(base * BACKOFF_FACTOR ** attempt, CTRL_TIMEOUT_MAX)

    def request_timeout(self, attempt: int = 0) -> float:
        """Timeout for attempt N of a synchronous request/reply exchange.

        Attempt 0 is the adaptive RTO times Karn's backoff — a fast
        first retransmit (microseconds on a converged LAN) that stays
        backed off after an expiry until a valid sample arrives.
        Retries back off but are floored by the static ``CTRL_TIMEOUT``
        ladder shifted one slot: a sharp estimate must not shrink the
        *total* patience budget, or a single delayed-but-delivered reply
        (queueing spike, injected delay fault) would exhaust all retries
        before it lands.  Every attempt is capped at ``CTRL_TIMEOUT_MAX``
        — the satellite fix for the previously unbounded doubling."""
        if attempt == 0:
            return min(self.rtt.rto * self.rtt.backoff, CTRL_TIMEOUT_MAX)
        floor = CTRL_TIMEOUT * BACKOFF_FACTOR ** (attempt - 1)
        return min(
            max(self.rtt.rto * BACKOFF_FACTOR ** attempt, floor), CTRL_TIMEOUT_MAX
        )

    def patience_timeout(self, attempt: int = 0) -> float:
        """Timeout for waits whose reply is legitimately slow (credit
        grants behind a full pool, the final ack behind disk writes, the
        marker watchdog).  Never shrinks below ``CTRL_TIMEOUT`` — the
        estimator can only make these *more* patient on a long path."""
        base = max(CTRL_TIMEOUT, self.rtt.rto)
        return self._capped(base, attempt)

    def heartbeat_interval(self) -> float:
        """Adaptive PING cadence: a few RTOs, clamped to a sane band."""
        return min(
            max(
                HEARTBEAT_RTO_MULTIPLIER * self.rtt.rto,
                self.config.heartbeat_interval_min,
            ),
            self.config.heartbeat_interval_max,
        )

    def idle_timeout(self) -> float:
        """Sink-side session-idle threshold: the configured floor or a
        large RTO multiple, whichever is more patient."""
        return max(
            self.config.session_idle_timeout,
            self.config.idle_rto_multiplier * self.rtt.rto,
        )

    def breaker_cooldown(self) -> float:
        """How long an OPEN channel breaker stays quarantined."""
        return max(
            self.config.breaker_cooldown_min,
            BREAKER_RTO_MULTIPLIER * self.rtt.rto,
        )


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class ChannelBreaker:
    """Per-data-QP circuit breaker.

    CLOSED: WRITEs flow.  ``breaker_failures`` *consecutive* completion
    errors trip it OPEN: the QP leaves the send rotation for a cooldown
    (adaptive, from :meth:`HealthMonitor.breaker_cooldown`).  After the
    cooldown the first admission request transitions to HALF_OPEN and
    admits exactly one probe WRITE; its completion closes the breaker
    (success) or re-opens it for another cooldown (failure).
    """

    def __init__(self, qp_num: int, failures: int, cooldown_fn) -> None:
        self.qp_num = qp_num
        self.failure_threshold = failures
        self._cooldown_fn = cooldown_fn
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.open_until = 0.0
        self.trips = 0
        self.probes = 0
        self._probe_inflight = False

    def peek_admit(self, now: float) -> bool:
        """Would a WRITE be admitted right now?  No side effects."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.HALF_OPEN:
            return not self._probe_inflight
        return now >= self.open_until  # OPEN: cooldown elapsed -> probe-able

    def note_post(self, now: float) -> None:
        """Record that a WRITE was posted on this channel; transitions
        OPEN → HALF_OPEN and marks the single probe in flight."""
        if self.state is BreakerState.OPEN and now >= self.open_until:
            self.state = BreakerState.HALF_OPEN
            self._probe_inflight = False
        if self.state is BreakerState.HALF_OPEN and not self._probe_inflight:
            self._probe_inflight = True
            self.probes += 1

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self._probe_inflight = False
        self.state = BreakerState.CLOSED

    def record_failure(self, now: float) -> bool:
        """Record a completion error; returns True when this trips (or
        re-trips) the breaker OPEN."""
        self.consecutive_failures += 1
        tripping = (
            self.state is BreakerState.HALF_OPEN
            or (
                self.state is BreakerState.CLOSED
                and self.consecutive_failures >= self.failure_threshold
            )
        )
        if tripping:
            self.state = BreakerState.OPEN
            self.open_until = now + self._cooldown_fn()
            self._probe_inflight = False
            self.trips += 1
        return tripping
