"""CUBIC congestion control (Ha, Rhee, Xu — as standardised in RFC 8312).

The window follows a cubic function of time since the last loss,

    W_cubic(t) = C * (t - K)^3 + W_max,   K = cbrt(W_max * (1-beta) / C)

which plateaus near the previous saturation point ``W_max`` and then
probes aggressively — giving the high-BDP friendliness the ANL testbed
hosts were configured with (Table I lists ``cubic`` at both ANL and the
Stony Brook hosts).
"""

from __future__ import annotations

from repro.tcp.congestion import CongestionControl

__all__ = ["Cubic"]


class Cubic(CongestionControl):
    name = "cubic"

    #: RFC 8312 constants.
    C = 0.4
    BETA = 0.7

    def __init__(self, mss: int = 8948) -> None:
        super().__init__(mss)
        self.w_max = 0.0
        self._epoch_start: float | None = None
        self._k = 0.0

    def _begin_epoch(self, now: float) -> None:
        self._epoch_start = now
        self._k = ((self.w_max * (1.0 - self.BETA)) / self.C) ** (1.0 / 3.0)

    def _avoid(self, acked_seg: float, now: float, rtt: float) -> None:
        if self._epoch_start is None:
            self._begin_epoch(now)
        t = now - self._epoch_start + rtt
        target = self.C * (t - self._k) ** 3 + self.w_max
        # TCP-friendly region (RFC 8312 §4.2): never slower than AIMD with
        # the equivalent average rate.
        elapsed = now - self._epoch_start
        w_est = (
            self.w_max * self.BETA
            + (3.0 * (1.0 - self.BETA) / (1.0 + self.BETA)) * (elapsed / max(rtt, 1e-9))
        )
        target = max(target, w_est)
        if target > self.cwnd_seg:
            # At most a 50% increase per round (RFC 8312 §4.1 clamp).
            self.cwnd_seg = min(target, self.cwnd_seg * 1.5)
        else:
            # Plateau region: creep forward slowly.
            self.cwnd_seg += 0.01 * acked_seg / max(self.cwnd_seg, 1.0)

    def _backoff(self, now: float) -> None:
        self.w_max = self.cwnd_seg
        self.cwnd_seg *= self.BETA
        self._epoch_start = None
