"""Runtime sanitizer: execute a plan's loops and verify static verdicts.

The static analyzer can only *suspect* a cross-chunk race (an indirect
scatter might happen to be disjoint).  The sanitizer settles it: it runs
each loop's body chunk-by-chunk through the real
:class:`~repro.sunway.swgomp.JobServer`, with every array wrapped in a
lightweight :class:`ShadowArray` that records the per-chunk read/write
index sets.  Chunk boundaries come from the runtime's own trace stream:
the sanitizer subscribes to the job server's CHUNK spans
(:mod:`repro.obs.trace`), so it brackets exactly what the tracer says
executed.  Two chunks writing the same element — or one writing what
another reads — is an *observed* race, found by the RD analyzer's
conflict pass (:func:`repro.analysis.races.unordered_conflicts`) with
one lane per executed chunk; a suspected race with disjoint observed
sets is a false positive.  :func:`verify` stamps each diagnostic's ``verdict``
accordingly, closing the static/dynamic feedback loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.access import OffloadPlan, PlannedLoop
from repro.analysis.diagnostics import CONFIRMED, FALSE_POSITIVE
from repro.analysis.parallel_plan import (
    Access,
    HappensBefore,
    OpKind,
    ParallelPlan,
    PlanOp,
)
from repro.analysis.races import unordered_conflicts
from repro.obs import SpanKind, Tracer
from repro.precision.policy import is_sensitive
from repro.sunway.arch import CoreGroup
from repro.sunway.swgomp import JobServer, SWGOMPError, TargetRegion


def _flat_indices(key, length: int) -> np.ndarray:
    """Normalise a first-axis index key to a flat int64 index array."""
    if isinstance(key, tuple):
        key = key[0] if key else slice(None)
    if isinstance(key, (int, np.integer)):
        k = int(key)
        return np.array([k % length if k < 0 else k], dtype=np.int64)
    if isinstance(key, slice):
        return np.arange(*key.indices(length), dtype=np.int64)
    arr = np.asarray(key)
    if arr.dtype == bool:
        return np.nonzero(arr.ravel())[0].astype(np.int64)
    return arr.ravel().astype(np.int64)


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
        return np.asarray(self.data, dtype=dtype)

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

    def race_indices(self, name: str) -> set:
        """Elements of ``name`` two chunks touch, at least one writing.

        The chunks of one loop run concurrently on the CPE array, so each
        is one op on a lane of its own — no barrier, no edge — and the
        RD conflict pass over the observed index sets does the rest.
        """
        plan = ParallelPlan(name=self.loop, ops=[
            PlanOp(name=f"chunk{c}", kind=OpKind.COMPUTE, lane=c, accesses=[
                Access(name, mode=mode, indices=sorted(touched.get(name, ())))
                for mode, touched in (("r", log.reads), ("w", log.writes))
            ])
            for c, log in enumerate(self.chunks)
        ])
        races: set = set()
        for *_, shared in unordered_conflicts(
            plan, HappensBefore(plan), lambda acc: acc.indices
        ):
            races |= shared
        return races


class Sanitizer:
    """Execute a plan's runnable loops on the simulated CPE array."""

    def __init__(self, n_cpes: int = 64, server: JobServer | None = None):
        if server is None:
            server = JobServer(CoreGroup(n_cpes=n_cpes))
            server.init_from_mpe()
        self.server = server

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

    # -- verdict stamping --------------------------------------------------
    def verify(self, plan: OffloadPlan, arrays: dict, diagnostics: list) -> list:
        """Stamp CONFIRMED/FALSE_POSITIVE verdicts onto ``diagnostics``.

        * SW001 — confirmed iff the observed per-chunk index sets of the
          flagged array actually overlap across chunks;
        * SW003 — confirmed by attempting the launch on an uninitialised
          job server and catching :class:`SWGOMPError`;
        * SW006 — confirmed iff the live array really is narrower than
          float64 for a sensitive term.

        Diagnostics for loops without a runnable body keep a ``None``
        verdict (statically suspected, dynamically unchecked).
        """
        observations = self.run_plan(plan, arrays)
        for d in diagnostics:
            if d.rule == "SW001":
                obs = observations.get(d.loop)
                if obs is None:
                    continue
                races = obs.race_indices(d.array)
                d.verdict = CONFIRMED if races else FALSE_POSITIVE
                d.details["observed_race_indices"] = sorted(races)[:16]
                d.details["observed_race_count"] = len(races)
            elif d.rule == "SW003":
                d.verdict = (
                    CONFIRMED if self._confirm_uninitialised_launch()
                    else FALSE_POSITIVE
                )
            elif d.rule == "SW006":
                arr = arrays.get(d.array)
                if arr is None:
                    continue
                demoted = np.asarray(arr).dtype.itemsize < 8
                d.verdict = (
                    CONFIRMED
                    if demoted and is_sensitive(d.details.get("term", ""))
                    else FALSE_POSITIVE
                )
        return diagnostics

    @staticmethod
    def _confirm_uninitialised_launch() -> bool:
        cold = JobServer(CoreGroup(n_cpes=8))
        try:
            TargetRegion(cold)
        except SWGOMPError:
            return True
        return False
