"""A label-aware metrics registry for the simulation.

Every :class:`~repro.sim.engine.Engine` owns one
:class:`MetricsRegistry`; instrumented components register counters,
gauges, and histograms on it instead of growing ad-hoc ``int``
attributes.  Metrics are keyed by ``(name, sorted(labels))`` so the
same call site is a get-or-create: two components asking for the same
name+labels share one metric, and label-partitioned families
(per-session, per-QP, per-link) fall out of passing different labels.

The registry is the one metrics API: a component either registers its
series here or keeps a plain ``int`` attribute that nothing exports.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "MetricsRegistry",
    "CounterMetric",
    "GaugeMetric",
    "CallbackGauge",
    "HistogramMetric",
]

LabelKey = Tuple[Tuple[str, Any], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class _Metric:
    """Common base: a name plus an immutable label set.  Slotted, since a
    run holds six series per source session (DESIGN.md §10)."""

    __slots__ = ("name", "key")
    kind = "metric"

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        #: Sorted ``(label, value)`` pairs; the registry swaps in its
        #: interned copy so equal label sets share one tuple.
        self.key: LabelKey = _label_key(labels)

    @property
    def labels(self) -> Dict[str, Any]:
        """A fresh dict of the label set; mutating it changes nothing."""
        return dict(self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lbl = ",".join(f"{k}={v}" for k, v in self.key)
        return f"<{type(self).__name__} {self.name}{{{lbl}}}>"


class CounterMetric(_Metric):
    """A monotonically increasing sum plus an event count.

    ``add(amount)`` adds ``amount`` to :attr:`total` and bumps
    :attr:`count` by one, so byte counters track both the byte total
    and the number of additions.
    """

    __slots__ = ("total", "count")
    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        super().__init__(name, labels)
        self.total: float = 0.0
        self.count: int = 0

    def add(self, amount: float = 1.0) -> None:
        self.total += amount
        self.count += 1

    @property
    def value(self) -> float:
        return self.total


class GaugeMetric(_Metric):
    """A point-in-time value that can move both ways."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        super().__init__(name, labels)
        self.value: float = 0.0

    def set_max(self, value: float) -> None:
        """Retain the high-water mark of everything ``set_max`` saw."""
        if value > self.value:
            self.value = value


class CallbackGauge(_Metric):
    """A gauge whose value is read from a callback at snapshot time.

    Zero hot-path cost: the instrumented component never writes to it;
    the registry calls ``fn()`` only when a snapshot is taken.
    """

    __slots__ = ("_fn",)
    kind = "gauge"

    def __init__(
        self, name: str, labels: Dict[str, Any], fn: Callable[[], float]
    ) -> None:
        super().__init__(name, labels)
        self._fn = fn

    @property
    def value(self) -> float:
        try:
            return float(self._fn())
        except Exception:
            return float("nan")


class HistogramMetric(_Metric):
    """Streaming fixed-bucket histogram with percentile summaries.

    Observations land in log-spaced buckets (:attr:`BUCKETS_PER_DECADE`
    per decade over ``[1e-9, 1e3)``, with under/overflow clamped to the
    edge buckets), so ``observe`` is O(1) and memory is bounded no matter
    how long a run is; only touched buckets are stored, and a per-session
    latency series touches a handful of the 768.  ``count``/``total``/
    ``min``/``max`` stay exact; percentiles are interpolated inside the
    containing bucket and are therefore accurate to one bucket width (a
    factor of :attr:`BUCKET_WIDTH` ≈ 1.037, i.e. < 4 %).
    """

    __slots__ = ("count", "total", "_min", "_max", "_counts")
    kind = "histogram"

    BUCKETS_PER_DECADE = 64
    _MIN_EXP = -9  # lowest bucket edge: 1e-9 (seconds scale: one ns)
    _DECADES = 12  # up to 1e3
    _NBUCKETS = BUCKETS_PER_DECADE * _DECADES
    _FLOOR = 10.0 ** _MIN_EXP
    #: Multiplicative width of one bucket — the resolution bound the
    #: percentile contract is stated in.
    BUCKET_WIDTH = 10.0 ** (1.0 / BUCKETS_PER_DECADE)

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        super().__init__(name, labels)
        self.count: int = 0
        self.total: float = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: ``{bucket index: observations}``, touched buckets only.
        self._counts: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= self._FLOOR:
            index = 0
        else:
            index = int(
                (math.log10(value) - self._MIN_EXP) * self.BUCKETS_PER_DECADE
            )
            if index >= self._NBUCKETS:
                index = self._NBUCKETS - 1
        counts = self._counts
        counts[index] = counts.get(index, 0) + 1

    def _bucket_edge(self, index: int) -> float:
        return 10.0 ** (self._MIN_EXP + index / self.BUCKETS_PER_DECADE)

    def _order_stat(self, j: int) -> float:
        """Estimate of the ``j``-th (0-indexed) ordered observation.

        The endpoints are exact (tracked min/max); interior positions
        are placed inside their containing bucket (bucket 0 starts at
        the minimum), clamped to the exact observed ``[min, max]``, so
        the estimate is off by at most one bucket width.
        """
        if j <= 0:
            return self._min
        if j >= self.count - 1:
            return self._max
        cum = 0
        for index, c in sorted(self._counts.items()):
            if j < cum + c:
                lo = self._bucket_edge(index) if index else self._min
                hi = self._bucket_edge(index + 1)
                if lo < self._min:
                    lo = self._min
                if hi > self._max:
                    hi = self._max
                if hi < lo:
                    hi = lo
                return lo + (hi - lo) * ((j - cum + 0.5) / c)
            cum += c

    def percentile(self, q: float) -> float:
        """Value at quantile ``q`` (0–100), to one bucket width.

        Follows the linearly-interpolated order-statistic convention
        (rank ``(count - 1) * q / 100``, interpolating between the two
        bracketing observations).  Each bracketing observation is
        estimated to one bucket width, so the result tracks the exact
        sample percentile to one bucket width even where the tail is
        sparse and adjacent observations sit buckets apart.  A ``q``
        outside [0, 100] raises :class:`ValueError`, as
        :func:`repro.obs.stats.exact_percentile` does.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
        n = self.count
        if n == 0:
            return float("nan")
        if self._min == self._max:
            return self._min
        rank = (n - 1) * q / 100.0
        k = int(rank)
        frac = rank - k
        value = self._order_stat(k)
        if frac > 0.0:
            value += (self._order_stat(k + 1) - value) * frac
        return value

    def merge(self, other: "HistogramMetric") -> None:
        """Fold another histogram's buckets into this one (same layout)."""
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        counts = self._counts
        for index, c in other._counts.items():
            counts[index] = counts.get(index, 0) + c

    @staticmethod
    def merged(metrics: Iterable["HistogramMetric"]) -> "HistogramMetric":
        """A fresh histogram holding the union of ``metrics``' buckets."""
        out = HistogramMetric("merged", {})
        for metric in metrics:
            out.merge(metric)
        return out

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {
                "count": 0,
                "mean": float("nan"),
                "p50": float("nan"),
                "p90": float("nan"),
                "p99": float("nan"),
                "max": float("nan"),
            }
        return {
            "count": self.count,
            "mean": self.total / self.count,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self._max,
        }


class MetricsRegistry:
    """Get-or-create store of metrics keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], _Metric] = {}
        self._sequences: Dict[str, int] = {}
        #: Interned label keys: ``{key: [shared key, series holding it]}``.
        #: The count lets :meth:`remove` forget a key with its last series,
        #: so pruning per-session series also prunes their key.
        self._keys: Dict[LabelKey, List[Any]] = {}

    # -- get-or-create constructors -----------------------------------------
    def _get(self, cls, name: str, labels: Dict[str, Any], *args: Any) -> _Metric:
        metric = self._metrics.get((name, _label_key(labels)))
        if metric is None:
            metric = cls(name, labels, *args)
            entry = self._keys.get(metric.key)
            if entry is None:
                entry = self._keys[metric.key] = [metric.key, 0]
            entry[1] += 1
            metric.key = entry[0]
            self._metrics[(name, metric.key)] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r}{labels!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> CounterMetric:
        return self._get(CounterMetric, name, labels)

    def gauge(self, name: str, **labels: Any) -> GaugeMetric:
        return self._get(GaugeMetric, name, labels)

    def histogram(self, name: str, **labels: Any) -> HistogramMetric:
        return self._get(HistogramMetric, name, labels)

    def gauge_fn(self, name: str, fn: Callable[[], float], **labels: Any) -> CallbackGauge:
        metric = self._get(CallbackGauge, name, labels, fn)
        # Re-registration rebinds the callback: a component restarted
        # on the same engine (e.g. a recovered broker) must report its
        # NEW incarnation's state, not a closure over the dead one's.
        metric._fn = fn
        return metric

    # -- instance numbering ---------------------------------------------------
    def sequence(self, name: str) -> int:
        """Next instance number for ``name`` (0, 1, 2, ...).

        Used to give each component instance a deterministic, unique
        label (creation order is deterministic in the simulation).
        """
        n = self._sequences.get(name, 0)
        self._sequences[name] = n + 1
        return n

    # -- removal (pruned sessions etc.) --------------------------------------
    def remove(self, name: str, **labels: Any) -> bool:
        """Drop one metric; returns whether it existed."""
        metric = self._metrics.pop((name, _label_key(labels)), None)
        if metric is None:
            return False
        entry = self._keys[metric.key]
        entry[1] -= 1
        if not entry[1]:
            del self._keys[metric.key]
        return True

    # -- queries --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str, **labels: Any) -> Optional[_Metric]:
        return self._metrics.get((name, _label_key(labels)))

    def family(self, name: str) -> List[_Metric]:
        """All metrics sharing ``name``, in registration order."""
        return [m for (n, _), m in self._metrics.items() if n == name]

    # -- snapshots -------------------------------------------------------------
    def snapshot(self) -> List[Dict[str, Any]]:
        """Flatten every metric to a JSON-friendly record."""
        records: List[Dict[str, Any]] = []
        for metric in self._metrics.values():
            rec: Dict[str, Any] = {
                "metric": metric.name,
                "kind": metric.kind,
                "labels": metric.labels,
            }
            if isinstance(metric, CounterMetric):
                rec["value"] = metric.total
                rec["count"] = metric.count
            elif isinstance(metric, HistogramMetric):
                rec["summary"] = metric.summary()
            else:
                rec["value"] = metric.value
            records.append(rec)
        return records
