"""Cross-request ML inference batching with a bitwise-safety probe.

Co-scheduled requests (and lockstep ensemble members) hit their ML
physics at the same cadence; the :class:`InferenceBatcher` coalesces
those per-request ``predict`` calls into one stacked forward pass
through the shared network (float32 under a MIX scheme's
``compile_inference``, float64 otherwise), amortising the per-call
Python and BLAS dispatch overhead across requests.

The catch: a stacked GEMM is *not* guaranteed to produce the same bits
per row as a solo call (BLAS picks different blocking for different
shapes — measured on the one-GEMM-per-layer ``Conv1D``: the tendency
CNN stacks bit-for-bit at 642 and 162 columns, nlev 8 width 16 and
nlev 10 width 128, in both dtypes; the radiation MLP does not at
float64 width 16 or float32 width 128).  The serving layer's contract
is bitwise identity with a serial run, so the batcher **probes** the
wrapped forward at its first real input: it stacks k copies of the
input for every batch size it may form and compares each row block
against the solo output.  Only if every probe matches bit-for-bit does
stacking switch on; otherwise the batcher degrades to executing the
coalesced items back-to-back — same scheduling, zero numerical change.

Leader/follower protocol: the first thread to arrive becomes the batch
leader, waits up to ``window_seconds`` for co-scheduled submissions
(bounded by ``max_batch``), executes the batch outside the lock, and
hands each follower its row block.  Followers just block on their item.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.obs import SpanKind, get_metrics, get_tracer


class _Item:
    __slots__ = ("x", "out", "error", "done")

    def __init__(self, x):
        self.x = x
        self.out = None
        self.error = None
        self.done = False


class InferenceBatcher:
    """Coalesce concurrent ``forward(x)`` calls into stacked passes."""

    def __init__(
        self,
        forward,
        max_batch: int = 4,
        window_seconds: float = 1e-3,
        name: str = "net",
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.forward = forward
        self.max_batch = max_batch
        self.window_seconds = window_seconds
        self.name = name
        self._cond = threading.Condition()
        self._queue: list[_Item] = []
        self._leader: _Item | None = None
        #: None until the first probe; then True (stacking is bitwise
        #: safe at this workload's shapes) or False (sequential mode).
        self.stacking: bool | None = None
        self.batches = 0
        self.items = 0
        self.stacked_items = 0
        self.max_batch_seen = 0

    # -- bitwise probe ---------------------------------------------------
    def _probe(self, x: np.ndarray) -> np.ndarray:
        """Decide stacking safety at this input's exact shape.

        Returns the solo forward of ``x`` (reused as the first answer so
        the probe costs no extra solo pass).  BLAS kernel selection
        depends on shape, not values, so probing with the live input
        covers the shapes every later batch of this workload will have
        (one model config -> one column count per call).
        """
        solo = self.forward(x)
        n = x.shape[0]
        safe = True
        for k in range(2, self.max_batch + 1):
            stacked = self.forward(np.concatenate([x] * k, axis=0))
            for i in range(k):
                if not np.array_equal(stacked[i * n:(i + 1) * n], solo):
                    safe = False
                    break
            if not safe:
                break
        self.stacking = safe
        get_metrics().set_gauge(f"serve.batch.{self.name}.stacking", float(safe))
        return solo

    # -- execution -------------------------------------------------------
    def _execute(self, batch: list[_Item]) -> None:
        try:
            if self.stacking is None:
                # First ever batch: probe on the leader's input, then
                # fall through for any followers collected meanwhile.
                batch[0].out = self._probe(batch[0].x)
                rest = batch[1:]
            else:
                rest = batch
            if rest:
                if self.stacking and len(rest) > 1:
                    rows = [it.x.shape[0] for it in rest]
                    with get_tracer().span(
                        f"serve.batch.{self.name}", SpanKind.SERVE_BATCH,
                        items=len(rest), rows=sum(rows),
                    ):
                        out = self.forward(
                            np.concatenate([it.x for it in rest], axis=0)
                        )
                    off = 0
                    for it, n in zip(rest, rows):
                        it.out = out[off:off + n].copy()
                        off += n
                    self.stacked_items += len(rest)
                else:
                    for it in rest:
                        it.out = self.forward(it.x)
            self.batches += 1
            self.items += len(batch)
            self.max_batch_seen = max(self.max_batch_seen, len(batch))
            m = get_metrics()
            if m.enabled:
                m.observe("serve.batch.size", float(len(batch)))
        except BaseException as exc:   # propagate to every waiter
            for it in batch:
                it.error = exc
        finally:
            with self._cond:
                for it in batch:
                    it.done = True
                self._leader = None
                self._cond.notify_all()

    def submit(self, x: np.ndarray) -> np.ndarray:
        """Run ``forward`` on ``x``, possibly coalesced with co-scheduled
        submissions; returns exactly the rows for ``x``."""
        item = _Item(np.asarray(x))
        batch: list[_Item] | None = None
        with self._cond:
            self._queue.append(item)
            self._cond.notify_all()
            while True:
                if item.done:
                    break
                if self._leader is None and item in self._queue:
                    self._leader = item
                if self._leader is item:
                    deadline = time.monotonic() + self.window_seconds
                    while len(self._queue) < self.max_batch:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
                    # Take up to max_batch items, always including ours.
                    others = [i for i in self._queue if i is not item]
                    batch = [item] + others[: self.max_batch - 1]
                    for it in batch:
                        self._queue.remove(it)
                    break
                self._cond.wait()
        if batch is not None:
            self._execute(batch)
        if item.error is not None:
            raise item.error
        return item.out

    def stats(self) -> dict:
        return {
            "name": self.name,
            "stacking": self.stacking,
            "batches": self.batches,
            "items": self.items,
            "stacked_items": self.stacked_items,
            "max_batch_seen": self.max_batch_seen,
            "mean_batch_size": self.items / self.batches if self.batches else 0.0,
        }


class _BatchedNet:
    """Base proxy: route ``predict`` through a batcher, delegate the rest
    (normalizers, ``net``, ``nlev``, spread attributes) to the shared net."""

    def __init__(self, net, batcher: InferenceBatcher):
        # Bypass __setattr__-less simplicity: plain attributes.
        self._net = net
        self._batcher = batcher

    def __getattr__(self, name):
        return getattr(self._net, name)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._batcher.submit(x)


class BatchedTendencyNet(_BatchedNet):
    """`TendencyCNN` facade whose forwards coalesce across requests."""

    def predict_q1q2(self, u, v, t, q, p):
        out = self.predict(self._net.pack_inputs(u, v, t, q, p))
        return out[:, 0, :], out[:, 1, :]


class BatchedRadiationNet(_BatchedNet):
    """`RadiationMLP` facade whose forwards coalesce across requests."""

    def predict_gsw_glw(self, t, q, tskin, coszr):
        out = self.predict(self._net.pack_inputs(t, q, tskin, coszr))
        return out[:, 0], out[:, 1]
