"""Congestion-control interface and the Reno reference algorithm.

Window arithmetic is done in *segments* (floats) internally and exposed in
bytes, matching how the kernel algorithms are specified.  Updates happen
once per round (≈ one RTT), the granularity of the fluid simulation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = ["CongestionControl", "Reno"]

#: Linux's default initial congestion window (RFC 6928).
INITIAL_CWND_SEGMENTS = 10.0


class CongestionControl(ABC):
    """Per-connection congestion state updated once per RTT round."""

    name = "base"

    def __init__(self, mss: int = 8948) -> None:
        if mss <= 0:
            raise ValueError("MSS must be positive")
        self.mss = mss
        self.cwnd_seg = INITIAL_CWND_SEGMENTS
        self.ssthresh_seg = float("inf")
        self.losses = 0

    # -- byte-facing API --------------------------------------------------------
    @property
    def cwnd_bytes(self) -> float:
        return self.cwnd_seg * self.mss

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd_seg < self.ssthresh_seg

    #: Rounds that used less than this fraction of cwnd are application-
    #: or receive-window-limited; growing cwnd then would let it inflate
    #: arbitrarily beyond what the path has validated (RFC 7661).
    _CWND_USED_THRESHOLD = 0.85

    def on_round_acked(self, acked_bytes: float, now: float, rtt: float) -> None:
        """All data of the last round was acknowledged."""
        if acked_bytes < 0:
            raise ValueError("acked bytes must be non-negative")
        if acked_bytes < self._CWND_USED_THRESHOLD * self.cwnd_bytes:
            return  # window not the constraint: do not grow an unvalidated cwnd
        acked_seg = acked_bytes / self.mss
        if self.in_slow_start:
            # Exponential growth: one extra segment per segment acked,
            # clamped at ssthresh.
            self.cwnd_seg = min(self.cwnd_seg + acked_seg, max(self.ssthresh_seg, self.cwnd_seg))
            return
        self._avoid(acked_seg, now, rtt)

    def on_loss(self, now: float) -> None:
        """A loss (triple-dupack equivalent) was detected this round."""
        self.losses += 1
        self._backoff(now)
        self.cwnd_seg = max(self.cwnd_seg, 2.0)
        self.ssthresh_seg = max(self.cwnd_seg, 2.0)

    # -- algorithm hooks ------------------------------------------------------------
    @abstractmethod
    def _avoid(self, acked_seg: float, now: float, rtt: float) -> None:
        """Congestion-avoidance window update for one acked round."""

    @abstractmethod
    def _backoff(self, now: float) -> None:
        """Multiplicative decrease on loss; must shrink ``cwnd_seg``."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} cwnd={self.cwnd_seg:.1f}seg losses={self.losses}>"


class Reno(CongestionControl):
    """Classic AIMD: +1 segment per RTT, halve on loss."""

    name = "reno"

    def _avoid(self, acked_seg: float, now: float, rtt: float) -> None:
        # +1 MSS per cwnd's worth of acks == +1 MSS per RTT when the
        # window is fully used; scale by utilisation of the round.
        self.cwnd_seg += min(acked_seg / self.cwnd_seg, 1.0)

    def _backoff(self, now: float) -> None:
        self.cwnd_seg *= 0.5
