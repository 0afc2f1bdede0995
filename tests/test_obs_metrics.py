"""Unit tests for the metrics registry and its disabled mode."""

import subprocess
import sys

from repro.obs import NULL_METRICS, MetricsRegistry, peak_rss_bytes
from repro.obs.metrics import NULL_INSTRUMENT


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("hits").add()
        reg.counter("hits").add(4)
        assert reg.counter("hits").value == 5

    def test_gauge_set_and_set_max(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("peak")
        gauge.set(10)
        gauge.set_max(3)       # smaller: ignored
        gauge.set_max(20)
        assert gauge.value == 20

    def test_histogram_statistics(self):
        reg = MetricsRegistry()
        hist = reg.histogram("sizes")
        for value in (4, 1, 7):
            hist.observe(value)
        stats = hist.as_dict()
        assert stats["count"] == 3
        assert stats["total"] == 12
        assert stats["mean"] == 4.0
        assert stats["min"] == 1 and stats["max"] == 7

    def test_create_on_use_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("y") is reg.gauge("y")
        assert reg.histogram("z") is reg.histogram("z")

    def test_counter_thread_safety(self):
        import threading

        reg = MetricsRegistry()
        counter = reg.counter("shared")

        def bump():
            for _ in range(1000):
                counter.add()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 4000


class TestSnapshot:
    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a.count").add(2)
        reg.gauge("b.level").set(1.5)
        reg.histogram("c.sizes").observe(3)
        snap = reg.snapshot()
        assert snap["counters"] == {"a.count": 2}
        assert snap["gauges"] == {"b.level": 1.5}
        assert snap["histograms"]["c.sizes"]["count"] == 1

    def test_snapshot_sorted_keys(self):
        reg = MetricsRegistry()
        for name in ("z", "a", "m"):
            reg.counter(name).add()
        assert list(reg.snapshot()["counters"]) == ["a", "m", "z"]

    def test_empty_snapshot(self):
        assert MetricsRegistry().snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}


class TestNullMetrics:
    def test_lookups_return_shared_singleton(self):
        """Disabled metrics allocate nothing: every instrument lookup hands
        back the same no-op object."""
        assert NULL_METRICS.counter("a") is NULL_INSTRUMENT
        assert NULL_METRICS.gauge("b") is NULL_INSTRUMENT
        assert NULL_METRICS.histogram("c") is NULL_INSTRUMENT
        assert not NULL_METRICS.enabled

    def test_noop_operations(self):
        NULL_METRICS.counter("a").add(5)
        NULL_METRICS.gauge("b").set_max(10)
        NULL_METRICS.histogram("c").observe(1)
        assert NULL_METRICS.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}
        assert NULL_INSTRUMENT.value == 0


class TestPeakRss:
    def test_reports_positive_on_posix(self):
        peak = peak_rss_bytes()
        # A running CPython interpreter occupies at least a few MB.
        assert peak > 1 << 20

    def test_children_peak_counts_a_waited_child(self):
        # RUSAGE_SELF never sees a child's memory; RUSAGE_CHILDREN keeps
        # the largest terminated, waited-for child's peak.
        subprocess.run([sys.executable, "-c", "b = b'x' * (64 << 20)"],
                       check=True)
        assert peak_rss_bytes(children=True) >= 64 << 20
