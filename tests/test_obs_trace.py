"""Unit tests of the span tracer (repro.obs.trace)."""

import json
import sys
import threading

import pytest

from repro.obs import Span, SpanKind, Tracer, get_tracer, set_tracer, tracing
from repro.obs.trace import _NULL_SPAN


class TestSpanRecording:
    def test_span_records_on_close(self):
        t = Tracer()
        with t.span("work", SpanKind.KERNEL_LAUNCH):
            assert len(t) == 0       # open spans are not yet events
        assert len(t) == 1
        sp = t.events[0]
        assert sp.name == "work"
        assert sp.kind is SpanKind.KERNEL_LAUNCH
        assert sp.t1 >= sp.t0
        assert sp.wall_seconds >= 0.0

    def test_set_attaches_sim_seconds_and_args(self):
        t = Tracer()
        with t.span("k", SpanKind.CHUNK, cpe=3) as sp:
            sp.set(sim_seconds=1.5e-6, start=0, end=10)
        sp = t.events[0]
        assert sp.sim_seconds == 1.5e-6
        assert sp.cpe == 3
        assert sp.args == {"start": 0, "end": 10}

    def test_instant_has_zero_like_duration(self):
        t = Tracer()
        t.instant("launch", SpanKind.KERNEL_LAUNCH, sim_seconds=30e-6)
        assert len(t) == 1
        assert t.events[0].sim_seconds == 30e-6

    def test_seq_preserves_open_order_under_nesting(self):
        t = Tracer()
        with t.span("outer", SpanKind.DYN_STEP):
            with t.span("inner", SpanKind.RK_STAGE):
                pass
        # Close order is inner-first; open (seq) order is outer-first.
        assert [s.name for s in t.events] == ["inner", "outer"]
        assert t.span_sequence() == [
            ("dyn_step", "outer"), ("rk_stage", "inner"),
        ]

    def test_span_sequence_kind_filter(self):
        t = Tracer()
        with t.span("a", SpanKind.DYN_STEP):
            pass
        with t.span("b", SpanKind.CHUNK):
            pass
        assert t.span_sequence(kinds={SpanKind.CHUNK}) == [("chunk", "b")]

    def test_clear(self):
        t = Tracer()
        with t.span("a", SpanKind.DYN_STEP):
            pass
        t.clear()
        assert len(t) == 0
        assert t.span_sequence() == []

    def test_seq_unique_across_threads(self):
        """Threads sharing one tracer (serve's schedulers, a dycore
        step's helper lane) each draw a distinct seq, even when the
        interpreter switches threads between reading and bumping it."""
        t = Tracer()
        n_threads, n_spans = 4, 20_000

        def emit():
            for _ in range(n_spans):
                with t.span("s", SpanKind.CHUNK):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=emit) for _ in range(n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        seqs = sorted(s.seq for s in t.events)
        assert seqs == list(range(n_threads * n_spans))


class TestDisabledTracer:
    def test_returns_shared_null_span(self):
        t = Tracer(enabled=False)
        sp = t.span("x", SpanKind.CHUNK)
        assert sp is _NULL_SPAN
        assert sp.set(sim_seconds=1.0, foo=2) is sp
        with sp:
            pass
        assert len(t) == 0

    def test_instant_noop(self):
        t = Tracer(enabled=False)
        t.instant("x")
        assert len(t) == 0

    def test_empty_tracer_is_truthy(self):
        # Tracer defines __len__; an empty tracer must still be truthy or
        # `tracing(tracer)` would silently swap in a fresh one.
        assert bool(Tracer()) is True


class TestListeners:
    def test_listener_sees_open_and_close(self):
        opened, closed = [], []

        class L:
            def on_span_open(self, sp):
                opened.append(sp.name)

            def on_span_close(self, sp):
                closed.append(sp.name)

        t = Tracer(record=False)
        t.add_listener(L())
        with t.span("outer", SpanKind.DYN_STEP):
            with t.span("inner", SpanKind.RK_STAGE):
                pass
        assert opened == ["outer", "inner"]
        assert closed == ["inner", "outer"]
        assert len(t) == 0           # record=False retains nothing

    def test_partial_listener_tolerated(self):
        class OnlyClose:
            def on_span_close(self, sp):
                self.seen = sp.name

        lis = OnlyClose()
        t = Tracer()
        t.add_listener(lis)
        with t.span("a", SpanKind.CHUNK):
            pass
        assert lis.seen == "a"


class TestAggregate:
    def test_aggregate_sums_by_kind_and_name(self):
        t = Tracer()
        for _ in range(3):
            with t.span("k", SpanKind.CHUNK) as sp:
                sp.set(sim_seconds=2.0)
        agg = t.aggregate()
        st = agg[("chunk", "k")]
        assert st.count == 3
        assert st.sim_seconds == pytest.approx(6.0)
        assert st.wall_seconds >= 0.0
        d = st.to_dict()
        assert d["count"] == 3 and d["sim_seconds"] == pytest.approx(6.0)


class TestChromeTrace:
    def test_export_structure(self, tmp_path):
        t = Tracer()
        with t.span("region", SpanKind.KERNEL_LAUNCH, rank=2, cpe=7) as sp:
            sp.set(sim_seconds=1e-5, n_elems=100)
        path = t.write_chrome_trace(str(tmp_path / "trace.json"))
        doc = json.load(open(path))
        assert doc["displayTimeUnit"] == "ms"
        (ev,) = doc["traceEvents"]
        assert ev["ph"] == "X"
        assert ev["name"] == "region"
        assert ev["cat"] == "sunway"
        assert ev["pid"] == 2 and ev["tid"] == 7
        assert ev["ts"] >= 0.0 and ev["dur"] >= 0.0
        assert ev["args"]["sim_seconds"] == 1e-5
        assert ev["args"]["n_elems"] == 100

    def test_empty_trace_loads(self):
        doc = Tracer().to_chrome_trace()
        assert doc["traceEvents"] == []
        json.loads(json.dumps(doc))

    def test_events_sorted_by_open_order(self):
        t = Tracer()
        with t.span("outer", SpanKind.DYN_STEP):
            with t.span("inner", SpanKind.RK_STAGE):
                pass
        names = [e["name"] for e in t.to_chrome_trace()["traceEvents"]]
        assert names == ["outer", "inner"]


class TestGlobalTracer:
    def test_default_global_disabled(self):
        assert get_tracer().enabled is False

    def test_tracing_installs_and_restores(self):
        prev = get_tracer()
        mine = Tracer()
        with tracing(mine) as t:
            assert t is mine                  # not silently replaced
            assert get_tracer() is mine
        assert get_tracer() is prev

    def test_tracing_default_tracer(self):
        with tracing() as t:
            assert t.enabled
            with get_tracer().span("x", SpanKind.CHUNK):
                pass
        assert len(t) == 1

    def test_set_tracer_returns_previous(self):
        prev = get_tracer()
        mine = Tracer()
        old = set_tracer(mine)
        try:
            assert old is prev
            assert get_tracer() is mine
        finally:
            set_tracer(prev)

    def test_restored_after_exception(self):
        prev = get_tracer()
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError("boom")
        assert get_tracer() is prev


def test_span_dataclass_defaults():
    sp = Span(name="x", kind=SpanKind.INSTANT, seq=0, t0=1.0)
    assert sp.t1 is None
    assert sp.wall_seconds == 0.0
    assert sp.args == {}
