"""Structured span tracing for the simulated Sunway substrate.

Every substrate layer — the SWGOMP job server, omnicopy/DMA, the
LDCache, the halo exchangers, the dycore timestep — reports what it did
as *typed span events* through one :class:`Tracer`.  A span carries two
clocks: the host wall time (``perf_counter``, what the Python actually
cost) and the *simulated* seconds the substrate's cost models charged
for the same work.  Keeping both on the same event is what makes the
predicted-vs-traced reconciliation (:mod:`repro.perf.reconcile`)
possible: the perf model predicts simulated seconds, the trace records
what the substrate actually charged.

The default global tracer is disabled: ``span()`` returns a shared
no-op context manager and nothing is recorded, so instrumented code
paths cost one attribute check when tracing is off.  ``repro profile``
(and any test) installs an enabled tracer with :func:`tracing`.

Export formats:

* :meth:`Tracer.to_chrome_trace` — the Chrome trace-event JSON format
  (load in ``chrome://tracing`` or Perfetto); spans become ``"X"``
  (complete) events with the simulated cost attached in ``args``.
* :meth:`Tracer.aggregate` — the per-(kind, name) metrics table the
  profile report prints.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum


class SpanKind(Enum):
    """Span taxonomy — one kind per instrumented substrate activity."""

    # sunway substrate
    KERNEL_LAUNCH = "kernel_launch"   # one target region on the CPE array
    CHUNK = "chunk"                   # one chunk body on one CPE
    DMA = "dma"                       # omnicopy crossing MAIN <-> LDM
    MEMCPY = "memcpy"                 # omnicopy within one space
    CACHE = "cache"                   # one LDCache address-stream replay
    # communication
    HALO_PACK = "halo_pack"
    HALO_EXCHANGE = "halo_exchange"
    HALO_UNPACK = "halo_unpack"
    # parallel layer (rank executors)
    EXEC_ROUND = "exec_round"     # one broadcast/reply barrier round
    # model timestep hierarchy
    DYN_STEP = "dyn_step"
    RK_STAGE = "rk_stage"
    VERTICAL_SOLVE = "vertical_solve"
    SPONGE = "sponge"
    TRACER_STEP = "tracer_step"
    PHYSICS_STEP = "physics_step"
    LANE = "lane"                     # a step's work on its helper lane (cpe=1)
    # resilience (fault injection & recovery ladder)
    FAULT = "fault"
    RECOVERY = "recovery"
    CHECKPOINT = "checkpoint"
    # serving layer (forecast-as-a-service)
    SERVE_REQUEST = "serve_request"   # one forecast request, submit->result
    # misc
    INSTANT = "instant"


#: Chrome-trace category per kind (the trace viewer's colour grouping).
_CATEGORY = {
    SpanKind.KERNEL_LAUNCH: "sunway",
    SpanKind.CHUNK: "sunway",
    SpanKind.DMA: "sunway",
    SpanKind.MEMCPY: "sunway",
    SpanKind.CACHE: "sunway",
    SpanKind.HALO_PACK: "comm",
    SpanKind.HALO_EXCHANGE: "comm",
    SpanKind.HALO_UNPACK: "comm",
    SpanKind.EXEC_ROUND: "parallel",
    SpanKind.DYN_STEP: "model",
    SpanKind.RK_STAGE: "model",
    SpanKind.VERTICAL_SOLVE: "model",
    SpanKind.SPONGE: "model",
    SpanKind.TRACER_STEP: "model",
    SpanKind.PHYSICS_STEP: "model",
    SpanKind.LANE: "model",
    SpanKind.FAULT: "resilience",
    SpanKind.RECOVERY: "resilience",
    SpanKind.CHECKPOINT: "resilience",
    SpanKind.SERVE_REQUEST: "serve",
    SpanKind.INSTANT: "misc",
}


@dataclass
class Span:
    """One traced interval (or instant, when ``t1 == t0``)."""

    name: str
    kind: SpanKind
    seq: int                       # open order, stable across clock jitter
    t0: float                      # wall clock at open [s, perf_counter]
    t1: float | None = None        # wall clock at close
    sim_seconds: float | None = None   # simulated substrate cost
    rank: int | None = None
    cpe: int | None = None
    args: dict = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    def set(self, sim_seconds: float | None = None, **args) -> "Span":
        """Attach the simulated cost and/or extra args mid-span."""
        if sim_seconds is not None:
            self.sim_seconds = sim_seconds
        self.args.update(args)
        return self

    # context-manager protocol: closed by the owning tracer -------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._close(self)  # type: ignore[attr-defined]


class _NullSpan:
    """Shared no-op span handed out by a disabled tracer."""

    __slots__ = ()

    def set(self, sim_seconds=None, **args) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


@dataclass
class SpanStats:
    """Aggregate of every span sharing a (kind, name) key."""

    count: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0

    def add(self, span: Span) -> None:
        self.count += 1
        self.wall_seconds += span.wall_seconds
        self.sim_seconds += span.sim_seconds or 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
        }


class Tracer:
    """Low-overhead span recorder with listener dispatch.

    Parameters
    ----------
    enabled : bool
        Disabled tracers return the shared no-op span.
    record : bool
        Keep completed spans in :attr:`events`.  Listener-only consumers
        (the sanitizer) pass ``record=False`` so long runs don't grow a
        list nobody reads.
    """

    def __init__(self, enabled: bool = True, record: bool = True, clock=time.perf_counter):
        self.enabled = enabled
        self.record = record
        self.events: list[Span] = []      # completed spans, close order
        self.listeners: list = []
        self._clock = clock
        # next() on a count is one C call, so threads that share the
        # tracer (serve's schedulers, a dycore step's helper lane) never
        # draw the same seq; a read-then-increment of an int could.
        self._seq = itertools.count()

    # -- recording -------------------------------------------------------
    def span(
        self,
        name: str,
        kind: SpanKind,
        sim_seconds: float | None = None,
        rank: int | None = None,
        cpe: int | None = None,
        **args,
    ):
        """Open a span; close it by exiting the returned context manager."""
        if not self.enabled:
            return _NULL_SPAN
        sp = Span(
            name=name, kind=kind, seq=next(self._seq), t0=self._clock(),
            sim_seconds=sim_seconds, rank=rank, cpe=cpe, args=args,
        )
        sp._tracer = self  # type: ignore[attr-defined]
        for lis in self.listeners:
            open_cb = getattr(lis, "on_span_open", None)
            if open_cb is not None:
                open_cb(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.t1 = self._clock()
        if self.record:
            self.events.append(sp)
        for lis in self.listeners:
            close_cb = getattr(lis, "on_span_close", None)
            if close_cb is not None:
                close_cb(sp)

    def instant(
        self,
        name: str,
        kind: SpanKind = SpanKind.INSTANT,
        sim_seconds: float | None = None,
        rank: int | None = None,
        cpe: int | None = None,
        **args,
    ) -> None:
        """Record a zero-wall-duration event (e.g. a launch overhead)."""
        if not self.enabled:
            return
        with self.span(name, kind, sim_seconds=sim_seconds, rank=rank, cpe=cpe, **args):
            pass

    # -- listeners -------------------------------------------------------
    def add_listener(self, listener) -> None:
        self.listeners.append(listener)

    def remove_listener(self, listener) -> None:
        self.listeners.remove(listener)

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        # A tracer with no events yet must not be falsy (see tracing()).
        return True

    def clear(self) -> None:
        self.events.clear()
        self._seq = itertools.count()

    def span_sequence(self, kinds: set[SpanKind] | None = None) -> list[tuple[str, str]]:
        """(kind value, name) pairs in *open* order — the golden-trace view."""
        spans = sorted(self.events, key=lambda s: s.seq)
        return [
            (s.kind.value, s.name)
            for s in spans
            if kinds is None or s.kind in kinds
        ]

    def aggregate(self) -> dict[tuple[str, str], SpanStats]:
        """Per-(kind value, name) totals over all completed spans."""
        out: dict[tuple[str, str], SpanStats] = {}
        for sp in self.events:
            out.setdefault((sp.kind.value, sp.name), SpanStats()).add(sp)
        return out

    # -- export ----------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """The Chrome trace-event JSON object (``{"traceEvents": [...]}``)."""
        if self.events:
            t_origin = min(s.t0 for s in self.events)
        else:
            t_origin = 0.0
        trace_events = []
        for sp in sorted(self.events, key=lambda s: s.seq):
            args = dict(sp.args)
            if sp.sim_seconds is not None:
                args["sim_seconds"] = sp.sim_seconds
            trace_events.append({
                "name": sp.name,
                "cat": _CATEGORY.get(sp.kind, "misc"),
                "ph": "X",
                "ts": (sp.t0 - t_origin) * 1e6,        # microseconds
                "dur": sp.wall_seconds * 1e6,
                "pid": sp.rank if sp.rank is not None else 0,
                "tid": sp.cpe if sp.cpe is not None else 0,
                "args": args,
            })
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh)
        return path


#: The process-wide tracer instrumented code resolves at call time.
_GLOBAL_TRACER = Tracer(enabled=False, record=False)


def get_tracer() -> Tracer:
    """The active global tracer (disabled no-op by default)."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` globally; returns the previous one."""
    global _GLOBAL_TRACER
    prev = _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer
    return prev


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Temporarily install an (enabled) tracer; yields it.

    >>> with tracing() as tr:
    ...     model.step(state)
    >>> tr.write_chrome_trace("trace.json")
    """
    if tracer is None:
        tracer = Tracer(enabled=True)
    prev = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(prev)
