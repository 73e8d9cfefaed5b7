"""Unit tests of the metrics registry (repro.obs.metrics)."""

import json

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collecting,
    get_metrics,
    set_metrics,
)


class TestInstruments:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5.0

    def test_gauge_keeps_last(self):
        g = Gauge()
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_summary(self):
        h = Histogram()
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.mean == 2.0
        assert h.min == 1.0 and h.max == 3.0

    def test_empty_histogram_to_dict(self):
        assert Histogram().to_dict() == {
            "count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
        }


class TestRegistry:
    def test_get_or_create_is_stable(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.gauge("g") is r.gauge("g")
        assert r.histogram("h") is r.histogram("h")

    def test_shorthand_updates(self):
        r = MetricsRegistry()
        r.inc("n", 2)
        r.set_gauge("g", 7)
        r.observe("h", 1.0)
        snap = r.snapshot()
        assert snap["counters"]["n"] == 2.0
        assert snap["gauges"]["g"] == 7.0
        assert snap["histograms"]["h"]["count"] == 1

    def test_disabled_registry_drops_updates(self):
        r = MetricsRegistry(enabled=False)
        r.inc("n")
        r.set_gauge("g", 1)
        r.observe("h", 1.0)
        snap = r.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_snapshot_is_json_and_sorted(self):
        r = MetricsRegistry()
        r.inc("z")
        r.inc("a")
        snap = r.snapshot()
        json.dumps(snap)
        assert list(snap["counters"]) == ["a", "z"]

    def test_clear(self):
        r = MetricsRegistry()
        r.inc("a")
        r.clear()
        assert r.snapshot()["counters"] == {}


class TestGlobalRegistry:
    def test_default_global_disabled(self):
        assert get_metrics().enabled is False

    def test_collecting_installs_and_restores(self):
        prev = get_metrics()
        mine = MetricsRegistry()
        with collecting(mine) as r:
            assert r is mine                 # not silently replaced
            assert get_metrics() is mine
            get_metrics().inc("x")
        assert get_metrics() is prev
        assert mine.snapshot()["counters"]["x"] == 1.0

    def test_collecting_default_registry(self):
        with collecting() as r:
            assert r.enabled
            get_metrics().inc("y", 3)
        assert r.snapshot()["counters"]["y"] == 3.0

    def test_set_metrics_returns_previous(self):
        prev = get_metrics()
        mine = MetricsRegistry()
        old = set_metrics(mine)
        try:
            assert old is prev
        finally:
            set_metrics(prev)

    def test_restored_after_exception(self):
        prev = get_metrics()
        with pytest.raises(RuntimeError):
            with collecting():
                raise RuntimeError("boom")
        assert get_metrics() is prev


class TestSubstrateFeeds:
    """The instrumented layers publish into an enabled registry."""

    def test_comm_stats_feed(self):
        import numpy as np

        from repro.comm.message import Communicator

        comm = Communicator(2)
        with collecting() as r:
            comm.send(0, 1, np.zeros(4))
            comm.recv(0, 1)
        snap = r.snapshot()
        assert snap["counters"]["comm.messages"] == 1.0
        assert snap["counters"]["comm.bytes"] == 32.0

    def test_ldcache_feed(self):
        import numpy as np

        from repro.sunway.ldcache import LDCache

        cache = LDCache(size_bytes=8 * 1024, ways=2, line_bytes=64)
        with collecting() as r:
            cache.run(np.arange(0, 4096, 8))
        snap = r.snapshot()
        assert snap["counters"]["ldcache.accesses"] == 512.0
        assert (
            snap["counters"]["ldcache.hits"]
            + snap["counters"]["ldcache.misses"]
            == 512.0
        )
        assert snap["gauges"]["ldcache.occupancy_lines"] == cache.occupancy()

    def test_swgomp_feed(self):
        from repro.sunway.arch import CoreGroup
        from repro.sunway.swgomp import JobServer, TargetRegion

        server = JobServer(CoreGroup(n_cpes=4))
        server.init_from_mpe()
        with collecting() as r:
            TargetRegion(server).parallel_for(lambda s, e: None, 16,
                                              cost_per_elem=1e-6)
        snap = r.snapshot()
        assert snap["counters"]["swgomp.launches"] == 1.0
        assert snap["counters"]["swgomp.chunks"] == 4.0
        assert snap["histograms"]["swgomp.region_sim_seconds"]["count"] == 1


class TestThreadSafety:
    """The registry is hammered from serving worker threads; the
    shorthand mutators must hold one lock across lookup-and-mutate so
    concurrent first-touches of a name never lose updates."""

    def test_concurrent_inc_loses_nothing(self):
        from concurrent.futures import ThreadPoolExecutor

        r = MetricsRegistry()

        def worker(_):
            for _ in range(1000):
                r.inc("shared")
                r.inc("shared", 2)

        with ThreadPoolExecutor(max_workers=8) as ex:
            list(ex.map(worker, range(8)))
        assert r.snapshot()["counters"]["shared"] == 8 * 1000 * 3.0

    def test_concurrent_first_touch_single_instrument(self):
        """All threads racing to create the same names end up sharing
        one instrument per name (the get-or-create race)."""
        import threading
        from concurrent.futures import ThreadPoolExecutor

        r = MetricsRegistry()
        barrier = threading.Barrier(8)

        def worker(_):
            barrier.wait()
            for i in range(50):
                r.inc(f"c{i}")
                r.observe(f"h{i}", 1.0)
                r.set_gauge(f"g{i}", float(i))

        with ThreadPoolExecutor(max_workers=8) as ex:
            list(ex.map(worker, range(8)))
        snap = r.snapshot()
        for i in range(50):
            assert snap["counters"][f"c{i}"] == 8.0
            assert snap["histograms"][f"h{i}"]["count"] == 8
            assert snap["gauges"][f"g{i}"] == float(i)

    def test_concurrent_observe_and_snapshot(self):
        """Snapshots taken mid-storm are internally consistent and never
        raise (RuntimeError: dict changed size) against creations."""
        import threading
        from concurrent.futures import ThreadPoolExecutor

        r = MetricsRegistry()
        stop = threading.Event()

        def writer(k):
            i = 0
            while not stop.is_set():
                r.observe(f"h{k}.{i % 20}", float(i))
                i += 1

        def reader():
            while not stop.is_set():
                snap = r.snapshot()
                for h in snap["histograms"].values():
                    assert h["count"] >= 1

        with ThreadPoolExecutor(max_workers=6) as ex:
            futs = [ex.submit(writer, k) for k in range(4)]
            futs += [ex.submit(reader) for _ in range(2)]
            import time
            time.sleep(0.3)
            stop.set()
            for f in futs:
                f.result(timeout=10)
