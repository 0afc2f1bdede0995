"""Counters, gauges, and histograms for pipeline-wide accounting.

The registry is the single home for the quantities the paper's analysis
leans on — kernel launches, h2d/d2h bytes, scratch-pool hits/misses,
candidate pairs kept/dropped, shingle dedup ratios, peak host RSS and peak
device bytes — with one ``snapshot()`` producing the whole picture as a
plain dict (JSON-ready).

Like the tracer, disabled mode is allocation-free: :data:`NULL_METRICS`
hands out shared no-op instrument singletons.
"""

from __future__ import annotations

import sys
import threading


class Counter:
    """A monotonically-increasing sum (int or float increments)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def add(self, amount=1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A last-written (or maximum-tracked) value."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def set(self, value) -> None:
        with self._lock:
            self.value = value

    def set_max(self, value) -> None:
        """Keep the largest value seen (peak tracking)."""
        with self._lock:
            if value > self.value:
                self.value = value


class Histogram:
    """Streaming count/sum/min/max of observed values.

    A full bucketed histogram is overkill for the pipeline's per-stage
    distributions; count/sum/min/max answer the questions the benches ask
    (how many, how big on average, how skewed) without unbounded state.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._lock = threading.Lock()

    def observe(self, value) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def as_dict(self) -> dict:
        with self._lock:
            mean = self.total / self.count if self.count else 0.0
            return {"count": self.count, "total": self.total,
                    "mean": mean, "min": self.min, "max": self.max}


class MetricsRegistry:
    """Create-on-first-use instrument registry with one ``snapshot()``."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name)
            return inst

    def snapshot(self) -> dict:
        """Every instrument's current value as one plain dict."""
        with self._lock:
            counters = {name: c.value
                        for name, c in sorted(self._counters.items())}
            gauges = {name: g.value
                      for name, g in sorted(self._gauges.items())}
            histograms = {name: h.as_dict()
                          for name, h in sorted(self._histograms.items())}
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}


class _NullInstrument:
    """Shared no-op counter/gauge/histogram."""

    __slots__ = ()
    name = None
    value = 0
    count = 0
    total = 0.0
    min = None
    max = None

    def add(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def set_max(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def as_dict(self) -> dict:
        return {"count": 0, "total": 0.0, "mean": 0.0,
                "min": None, "max": None}


NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The disabled registry: every lookup returns the shared no-op."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_METRICS = NullMetrics()


def peak_rss_bytes(children: bool = False) -> int:
    """Peak resident set size of this process, in bytes (0 if unknown).

    With ``children``, the peak of its largest terminated and waited-for
    child instead (``RUSAGE_CHILDREN``) — where forked workers' memory
    shows, since ``RUSAGE_SELF`` never counts it.  ``ru_maxrss`` is
    kilobytes on Linux and bytes on macOS.
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    peak = resource.getrusage(who).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024
