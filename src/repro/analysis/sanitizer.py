"""Runtime sanitizers: observe what really ran and stamp the verdicts.

The static passes can only *suspect* a hazard: an indirect scatter
might happen to be disjoint, a conservatively declared whole-array
write might touch half the array.  This module observes, in two ways,
and :func:`verify` — the one verdict stamper — marks each diagnostic
``CONFIRMED`` when an observed :class:`RaceEvent` has its identity
(rule, op set, resource) and ``FALSE_POSITIVE`` when the run could
have observed it but did not.

* **Offload launches** (:class:`Sanitizer`): each runnable loop body
  runs chunk by chunk through the real
  :class:`~repro.sunway.swgomp.JobServer`, with every array wrapped in
  a :class:`ShadowArray` that records per-chunk read/write index sets.
  Chunks are bracketed by the job server's CHUNK spans
  (:mod:`repro.obs.trace`).  The executed chunks go through the same
  view the static pass uses (:func:`~repro.analysis.access.chunk_plan`)
  and the same conflict pass, so an observed SW001 race is two chunks
  touching one element, at least one writing.  SW003 is observed by
  launching on a cold job server, SW006 from the live dtypes.
* **The parallel layer** (:class:`RaceReplay`): the RD conflict pass
  over a :class:`ParallelPlan`'s observed index sets
  (:meth:`Access.runtime_indices`), then one walk of the schedule for
  the checks that need state: halo freshness (RD002), pack-buffer
  content epochs (RD003, even when fully ordered) and both-ways
  reduction evaluation (RD005).  :func:`sanitize_run` rebuilds the
  observed plan of a **real**
  :class:`~repro.parallel.driver.DistributedDycore` run from its span
  stream, out of the declared step plan's own op constructors, and
  replays it; a chaos-free ``workers=2`` run must replay clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.access import OffloadPlan, PlannedLoop, chunk_plan, loop_conflicts
from repro.analysis.diagnostics import CONFIRMED, FALSE_POSITIVE
from repro.analysis.parallel_plan import Access, HappensBefore, OpKind, ParallelPlan
from repro.analysis.races import (
    driver_plan,
    pack_op,
    round_ops,
    unordered_conflicts,
    unpack_op,
)
from repro.obs import SpanKind, Tracer, set_tracer
from repro.precision.policy import is_sensitive
from repro.sunway.arch import CoreGroup
from repro.sunway.swgomp import JobServer, SWGOMPError, TargetRegion


def _flat_indices(key, length: int) -> np.ndarray:
    """Normalise a first-axis index key to a flat int64 index array."""
    if isinstance(key, tuple):
        key = key[0] if key else slice(None)
    if isinstance(key, slice):
        return np.arange(*key.indices(length), dtype=np.int64)
    flat = np.asarray(key).ravel()
    if flat.dtype == bool:
        return np.nonzero(flat)[0].astype(np.int64)
    flat = flat.astype(np.int64)
    return np.where(flat < 0, flat + length, flat)   # NumPy's wrap-around


class ShadowArray:
    """NumPy array wrapper recording first-axis read/write indices.

    Only plain ``__getitem__`` / ``__setitem__`` go through the recorder
    — exactly the operations loop bodies written against the index
    mini-language use.  ``data`` exposes the raw array for unrecorded
    access.
    """

    def __init__(self, name: str, data: np.ndarray, recorder: "_Recorder"):
        self.name = name
        self.data = np.asarray(data)
        self._recorder = recorder

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __array__(self, dtype=None, copy=None):
        self._recorder.record_read(self.name, np.arange(len(self.data)))
        if copy is None:    # NumPy < 2 never passes ``copy``
            return np.asarray(self.data, dtype=dtype)
        return np.asarray(self.data, dtype=dtype, copy=copy)

    def __getitem__(self, key):
        self._recorder.record_read(self.name, _flat_indices(key, len(self.data)))
        return self.data[key]

    def __setitem__(self, key, value) -> None:
        self._recorder.record_write(self.name, _flat_indices(key, len(self.data)))
        self.data[key] = value


@dataclass
class ChunkLog:
    """Observed accesses of one executed chunk."""

    cpe: int
    start: int
    end: int
    reads: dict = field(default_factory=dict)     # name -> set[int]
    writes: dict = field(default_factory=dict)

    def accesses(self) -> list:
        """The recorded touches as plan accesses, one per array and mode."""
        return [
            Access(name, mode, list(idx))
            for mode, touched in (("r", self.reads), ("w", self.writes))
            for name, idx in touched.items()
        ]


class _Recorder:
    """Chunk bracketer wired into the runtime during a loop run.

    A tracer listener: the job server's CHUNK spans open and close the
    current :class:`ChunkLog` through ``begin_chunk``/``end_chunk``.
    """

    def __init__(self) -> None:
        self.chunks: list = []
        self._current: ChunkLog | None = None

    # Tracer-listener protocol (CHUNK spans from the job server) ----------
    def on_span_open(self, span) -> None:
        if span.kind is SpanKind.CHUNK:
            self.begin_chunk(span.cpe, span.args["start"], span.args["end"])

    def on_span_close(self, span) -> None:
        if span.kind is SpanKind.CHUNK:
            self.end_chunk(span.cpe, span.args["start"], span.args["end"])

    def begin_chunk(self, cpe: int, start: int, end: int) -> None:
        self._current = ChunkLog(cpe=cpe, start=start, end=end)

    def end_chunk(self, cpe: int, start: int, end: int) -> None:
        if self._current is not None:
            self.chunks.append(self._current)
        self._current = None

    # ShadowArray recording hooks -----------------------------------------
    def record_read(self, name: str, idx: np.ndarray) -> None:
        if self._current is not None:
            self._current.reads.setdefault(name, set()).update(idx.tolist())

    def record_write(self, name: str, idx: np.ndarray) -> None:
        if self._current is not None:
            self._current.writes.setdefault(name, set()).update(idx.tolist())


@dataclass
class LoopObservation:
    """All chunk logs of one executed loop."""

    loop: str
    chunks: list

    def races(self) -> dict:
        """``{array: elements}`` two chunks touch, at least one writing.

        The chunks of one loop run concurrently on the CPE array: the
        loop's view (:func:`~repro.analysis.access.chunk_plan`) puts each
        on a lane of its own with no barrier, and the one conflict pass
        over the recorded index sets does the rest.
        """
        view = chunk_plan(self.loop, [
            (self.loop, [log.accesses() for log in self.chunks], False)
        ])
        return loop_conflicts(view).get((self.loop, self.loop), {})


@dataclass(frozen=True)
class RaceEvent:
    """One observed hazard, identified like the diagnostic it confirms."""

    rule: str
    ops: frozenset          # one or two op (or loop) names
    resource: str
    detail: str = ""
    indices: frozenset = frozenset()    # SW001: the elements raced on


def _identity(d) -> tuple:
    """The op set and candidate resources a diagnostic names."""
    det = d.details
    if "ops" in det:
        return frozenset(det["ops"]), (det["resource"],)
    if "op" in det:
        return frozenset((det["op"],)), (det.get("resource"), d.array)
    return frozenset((d.loop,)), (d.array,)


def verify(diagnostics: list, events: list, covered) -> list:
    """Stamp verdicts onto ``diagnostics`` from observed ``events``.

    The one verdict stamper of both rule families.  A diagnostic the
    observation ``covered`` is CONFIRMED when an event has its rule,
    op set and resource, and FALSE_POSITIVE otherwise; the rest keep
    their ``None`` verdict (statically suspected, dynamically
    unchecked).  SW001 verdicts record the observed race indices, RD
    verdicts the number of events the replay observed.
    """
    seen = {(ev.rule, ev.ops, ev.resource): ev for ev in events}
    for d in diagnostics:
        if not covered(d):
            continue
        ops, resources = _identity(d)
        hit = next(
            (seen[k] for k in ((d.rule, ops, r) for r in resources) if k in seen),
            None,
        )
        d.verdict = FALSE_POSITIVE if hit is None else CONFIRMED
        if d.rule == "SW001":
            races = sorted(hit.indices) if hit else []
            d.details["observed_race_indices"] = races[:16]
            d.details["observed_race_count"] = len(races)
        elif d.rule.startswith("RD"):
            d.details["observed_events"] = len(events)
    return diagnostics


class Sanitizer:
    """Execute a plan's runnable loops on the simulated CPE array."""

    def __init__(self, n_cpes: int = 64):
        self.server = JobServer(CoreGroup(n_cpes=n_cpes))
        self.server.init_from_mpe()

    def run_loop(self, lp: PlannedLoop, arrays: dict) -> LoopObservation:
        """Run one loop body chunk-by-chunk, recording access sets."""
        if lp.body is None:
            raise ValueError(f"loop {lp.name!r} has no runnable body")
        recorder = _Recorder()
        shadows = {
            name: ShadowArray(name, data, recorder)
            for name, data in arrays.items()
        }
        # Subscribe to CHUNK spans via a non-recording tracer local to the
        # job server: events stream to the recorder, nothing is retained.
        tracer = Tracer(enabled=True, record=False)
        tracer.add_listener(recorder)
        saved = self.server.tracer
        self.server.tracer = tracer
        try:
            region = TargetRegion(self.server)
            region.parallel_for(
                lambda s, e: lp.body(shadows, s, e), lp.n_iters,
                name=lp.name,
            )
        finally:
            self.server.tracer = saved
        return LoopObservation(loop=lp.name, chunks=recorder.chunks)

    def run_plan(self, plan: OffloadPlan, arrays: dict) -> dict:
        """Run every runnable loop; returns ``{loop name: observation}``."""
        return {
            lp.name: self.run_loop(lp, arrays)
            for lp in plan.loops
            if lp.body is not None
        }

    def observe(self, plan: OffloadPlan, arrays: dict) -> tuple:
        """Run ``plan``'s runnable loops; return ``(events, covered)``.

        The events come from three sources: each executed loop's chunk
        view (SW001), a launch on a cold job server (SW003) and the live
        dtypes of ``arrays`` (SW006).  ``covered`` tells :func:`verify`
        which diagnostics they settle: SW001 of a loop that ran, SW003,
        and SW006 of an array passed in.
        """
        runs = self.run_plan(plan, arrays)
        events = [
            RaceEvent("SW001", frozenset((name,)), array, indices=frozenset(idx))
            for name, obs in runs.items() for array, idx in obs.races().items()
        ]
        if not plan.server_initialized and plan.loops and _cold_launch_raises():
            events.append(RaceEvent("SW003", frozenset((plan.loops[0].name,)), ""))
        events += [
            RaceEvent("SW006", frozenset((lp.name,)), acc.name)
            for lp in plan.loops for acc in lp.access.arrays
            if acc.term is not None and acc.name in arrays
            and np.asarray(arrays[acc.name]).dtype.itemsize < 8
            and is_sensitive(acc.term)
        ]

        def covered(d) -> bool:
            return (d.rule == "SW003" or (d.rule == "SW001" and d.loop in runs)
                    or (d.rule == "SW006" and d.array in arrays))

        return events, covered


def _cold_launch_raises() -> bool:
    """Does the runtime refuse a launch before ``init_from_mpe``?"""
    try:
        TargetRegion(JobServer(CoreGroup(n_cpes=8)))
    except SWGOMPError:
        return True
    return False


def _linear_sum(values) -> float:
    total = 0.0
    for v in values:
        total = total + v
    return total


def _tree_sum(values) -> float:
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        vals = [
            vals[i] + vals[i + 1] if i + 1 < len(vals) else vals[i]
            for i in range(0, len(vals), 2)
        ]
    return vals[0]


class RaceReplay:
    """Replay a plan's schedule over its observed index sets."""

    def __init__(self, plan: ParallelPlan):
        self.plan = plan
        self._events: dict = {}          # (rule, ops, resource) -> first event

    def _emit(self, rule, ops, resource, detail="") -> None:
        ops = frozenset(ops)
        self._events.setdefault((rule, ops, resource), RaceEvent(rule, ops, resource, detail))

    def observe(self) -> tuple:
        """``(events, covered)`` for :func:`verify`; a replay covers
        every RD rule."""
        return self.run(), lambda d: d.rule.startswith("RD")

    def run(self) -> list:
        plan = self.plan
        for rule, resource, writer, other, _, _ in unordered_conflicts(
            plan, HappensBefore(plan), lambda acc: acc.runtime_indices()
        ):
            self._emit(
                rule, (writer.name, other.name), resource,
                "unordered conflicting access observed",
            )

        halo = {r: set(idx) for r, idx in plan.halo_recv.items()}
        fresh: dict = {r: set() for r in halo}
        buf_epoch: dict = {}             # buffer resource -> (epoch, pack op)
        for op in plan.ops:
            if op.kind is OpKind.REDUCE or (
                op.kind is OpKind.COMPUTE and op.order_sensitive
            ):
                self._replay_reduce(op)
            for acc in op.accesses:
                rt = acc.runtime_indices()
                idx = None if rt is None else set(rt)
                self._replay_halo_freshness(op, acc, idx, halo, fresh)
                self._replay_buffer_epoch(op, acc, buf_epoch)
        return list(self._events.values())

    # -- stateful checks ---------------------------------------------------
    def _replay_halo_freshness(self, op, acc, idx, halo, fresh) -> None:
        res = acc.resource
        if res not in halo:
            return
        h = halo[res]
        if acc.writes:
            written = h if idx is None else (idx & h)
            if op.kind is OpKind.UNPACK:
                fresh[res] |= written
            else:
                fresh[res] -= written
        if acc.reads and op.kind is OpKind.COMPUTE:
            read = h if idx is None else (idx & h)
            stale = read - fresh[res]
            if stale:
                self._emit(
                    "RD002", (op.name,), res,
                    f"{len(stale)} halo indices read stale "
                    f"(e.g. {sorted(stale)[:4]})",
                )

    def _replay_buffer_epoch(self, op, acc, buf_epoch) -> None:
        if op.kind is OpKind.PACK and acc.writes:
            buf_epoch[acc.resource] = (op.epoch, op.name)
        elif op.kind is OpKind.UNPACK and acc.reads:
            content = buf_epoch.get(acc.resource)
            if content is not None and content[0] != op.epoch:
                self._emit(
                    "RD003", (content[1], op.name), acc.resource,
                    f"unpack of epoch {op.epoch} drained epoch "
                    f"{content[0]} content",
                )

    def _replay_reduce(self, op) -> None:
        if not op.order_sensitive or op.tolerance is not None:
            return
        resource = ",".join(a.resource for a in op.accesses)
        if not op.values:
            # Declared order-sensitive with nothing to evaluate: the
            # declaration stands, the hazard is real.
            self._emit("RD005", (op.name,), resource,
                       "order-sensitive op, no tolerance contract")
            return
        lin, tree = _linear_sum(op.values), _tree_sum(op.values)
        if lin != tree:
            self._emit(
                "RD005", (op.name,), resource,
                f"linear={lin!r} != tree={tree!r} "
                "(summation order changes the bits)",
            )


# ---------------------------------------------------------------------------
# Real-run sanitizing: observed plan from the span stream
# ---------------------------------------------------------------------------

class RunObserver:
    """Tracer listener rebuilding the observed plan of a driver run.

    Turns the per-pair pack/unpack instants (clock edges with their
    exchange epoch) and the executors' EXEC_ROUND spans (the barrier
    rounds bracketing the concurrent per-rank stages and sponges) into
    plan ops, in emission order, through the declared step plan's own
    op constructors.
    """

    def __init__(self, driver):
        self.driver = driver
        self._ann = driver._exchanger.access_annotations()
        self._fields = list(driver._exchanger.registered_fields())
        self._ops: list = []
        self._edges: list = []
        self._rounds = 0

    def on_span_open(self, span) -> None:
        ann, fields, nranks = self._ann, self._fields, self.driver.nparts
        args = span.args
        if span.kind in (SpanKind.HALO_PACK, SpanKind.HALO_UNPACK):
            pair = (span.rank, args.get("neighbor"))
            if not span.name.endswith(".pair") or pair not in ann:
                return
            if span.kind is SpanKind.HALO_PACK:
                self._ops.append(pack_op(ann, *pair, args["epoch"]))
            elif pair[::-1] in ann:
                op, edge = unpack_op(ann, *pair, args["epoch"])
                self._ops.append(op)
                if any(o.name == edge[0] for o in self._ops):
                    self._edges.append(edge)
        elif span.kind is SpanKind.EXEC_ROUND:
            self._rounds += 1
            self._ops.extend(round_ops(
                f"round{self._rounds}.{args.get('op')}", nranks, fields,
                args.get("stage", 0),
            ))

    def to_plan(self, name: str = "observed_run") -> ParallelPlan:
        return driver_plan(self.driver, name, self._ops, self._edges)


@dataclass
class RunSanitizeReport:
    """Outcome of sanitizing a real driver run."""

    plan: ParallelPlan
    events: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.events

    def to_dict(self) -> dict:
        return {
            "plan": self.plan.name,
            "ops": len(self.plan.ops),
            "clean": self.clean,
            "events": [
                {
                    "rule": ev.rule,
                    "ops": sorted(ev.ops),
                    "resource": ev.resource,
                    "detail": ev.detail,
                }
                for ev in self.events
            ],
        }


def sanitize_run(driver, steps: int = 1) -> RunSanitizeReport:
    """Step a scattered driver under the observer and replay the result.

    Installs a listener-only tracer (nothing is retained) for the run,
    rebuilds the observed :class:`ParallelPlan` from the span stream and
    replays it.  A chaos-free run on the current lockstep
    implementation must report ``clean``.
    """
    if driver._exchanger is None:
        raise RuntimeError("scatter a state first")
    observer = RunObserver(driver)
    tracer = Tracer(enabled=True, record=False)
    tracer.add_listener(observer)
    prev = set_tracer(tracer)
    try:
        driver.run(steps)
    finally:
        set_tracer(prev)
    plan = observer.to_plan()
    return RunSanitizeReport(plan=plan, events=RaceReplay(plan).run())
