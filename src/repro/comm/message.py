"""Simulated ranked message passing.

All ranks live in one Python process; the :class:`Communicator` provides
buffer-based point-to-point operations in the style of
mpi4py's uppercase (buffer) API, plus accounting of message counts and
bytes.  The accounting feeds the network model in
:mod:`repro.comm.topology` and lets tests assert on the aggregation
optimisation (one message per neighbour instead of one per variable).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import get_metrics
from repro.resilience.faults import FaultKind, get_injector
from repro.resilience.recovery import corrupt_buffer


@dataclass
class CommStats:
    """Message/byte counters for one communicator.

    The per-instance view tests assert on; every record also feeds the
    global :class:`~repro.obs.MetricsRegistry` when one is collecting.
    """

    messages: int = 0
    bytes_sent: int = 0
    per_pair: dict = field(default_factory=dict)  # (src, dst) -> bytes

    def record(self, src: int, dst: int, nbytes: int) -> None:
        self.messages += 1
        self.bytes_sent += nbytes
        key = (src, dst)
        self.per_pair[key] = self.per_pair.get(key, 0) + nbytes
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("comm.messages")
            metrics.inc("comm.bytes", nbytes)

    def reset(self) -> None:
        self.messages = 0
        self.bytes_sent = 0
        self.per_pair.clear()


class Communicator:
    """An in-process stand-in for ``MPI_COMM_WORLD``.

    Because every rank shares the process, "communication" is a copy
    between per-rank mailboxes executed when both sides have posted.
    The API is deliberately synchronous-bulk: the model's halo exchange
    posts all sends then drains all receives, matching the paper's
    single-call aggregated exchange.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("communicator size must be >= 1")
        self._size = size
        self._mailbox: dict[tuple[int, int, int], np.ndarray] = {}
        self.stats = CommStats()

    @property
    def size(self) -> int:
        return self._size

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self._size):
            raise ValueError(f"rank {rank} out of range [0, {self._size})")

    # -- point to point ---------------------------------------------------
    def send(
        self, src: int, dst: int, buf: np.ndarray, tag: int = 0,
        copy: bool = True,
    ) -> None:
        """Post a buffer from ``src`` to ``dst``; delivered on ``recv``.

        ``copy=False`` is the zero-copy handoff for persistent-buffer
        senders (the compiled halo-exchange plans): the mailbox keeps a
        reference instead of a copy — the MPI rendezvous-protocol
        analogue — and the caller promises not to mutate ``buf`` until
        the matching :meth:`recv` has drained it.

        When a fault injector is active the message may be dropped
        (never delivered — the receiver detects the gap with
        :meth:`probe` and requests a retransmit), corrupted (a
        deterministically-flipped *copy* is delivered, so the sender's
        persistent buffer stays intact and a retransmit carries clean
        bytes), or delayed (delivered normally; the synchronous recv
        absorbs the lateness, which is only accounted).
        """
        self._check_rank(src)
        self._check_rank(dst)
        key = (src, dst, tag)
        if key in self._mailbox:
            raise RuntimeError(f"unreceived message already pending for {key}")
        payload = np.array(buf, copy=True) if copy else buf
        injector = get_injector()
        if injector is not None and injector.active:
            site = f"{src}->{dst}"
            ev = injector.fire(FaultKind.MSG_DROP, site=site)
            if ev is not None:
                # The network ate it: bytes left the NIC but never land.
                self.stats.record(src, dst, payload.nbytes)
                metrics = get_metrics()
                if metrics.enabled:
                    metrics.inc("comm.dropped")
                return
            ev = injector.fire(FaultKind.MSG_CORRUPT, site=site)
            if ev is not None:
                corrupted = np.array(payload, copy=True)
                corrupt_buffer(
                    corrupted, ev.payload_seed,
                    int(ev.params.get("corrupt_bytes", 8)),
                )
                payload = corrupted
                metrics = get_metrics()
                if metrics.enabled:
                    metrics.inc("comm.corrupted")
            ev = injector.fire(FaultKind.MSG_DELAY, site=site)
            if ev is not None:
                delay = float(ev.params.get("delay_seconds", 0.0))
                metrics = get_metrics()
                if metrics.enabled:
                    metrics.inc("comm.delayed")
                    metrics.observe("comm.delay_seconds", delay)
                injector.recover(FaultKind.MSG_DELAY, "delay_tolerated", site=site)
        self._mailbox[key] = payload
        self.stats.record(src, dst, self._mailbox[key].nbytes)

    def recv(self, src: int, dst: int, tag: int = 0) -> np.ndarray:
        """Receive the buffer posted by ``src`` for ``dst``."""
        key = (src, dst, tag)
        if key not in self._mailbox:
            raise RuntimeError(f"recv before matching send: {key}")
        return self._mailbox.pop(key)

    def probe(self, src: int, dst: int, tag: int = 0) -> bool:
        """Is a message from ``src`` to ``dst`` deliverable right now?
        (``False`` after a dropped send — the receiver's cue to request
        a retransmit.)"""
        return (src, dst, tag) in self._mailbox

    def pending(self) -> int:
        """Number of posted-but-unreceived messages (0 after a clean step)."""
        return len(self._mailbox)

