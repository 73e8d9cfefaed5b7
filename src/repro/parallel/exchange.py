"""Aggregated exchange of cell- AND edge-indexed fields.

The dycore's halo update needs both mass-point fields (ps, theta,
tracers at cells) and the prognostic normal velocity (at edges).  In the
spirit of section 3.1.3's linked-list aggregation, *all* registered
variables of both kinds are packed into a single buffer per neighbour
pair and shipped with one communication call.

Exchange plans
--------------
The per-step work is compiled once into per-(rank, neighbour)
:class:`ExchangePlan` objects: the neighbour sets, the send/recv index
arrays, every field's (offset, width, dtype) slot in the wire buffer,
and the contiguous pack buffer itself are all precomputed, so
:meth:`EdgeCellExchanger.exchange` is a pure gather-into-buffer /
scatter-from-buffer loop with zero per-step array allocation on the
pack side.  This is the halo-exchange analogue of hoisting index
computation out of the timestep loop that Python weather stacks rely on
to close the performance gap.

The wire format preserves every field's dtype: the buffer is raw bytes
with per-field dtype views (widest itemsize first, so every slot stays
naturally aligned with zero padding), a float32 field travels as 4
bytes per element next to float64 neighbours, and unpack writes each
block back through a view of the same dtype — no silent up- or
downcasts anywhere in the payload path, and ``bytes_sent`` counts true
on-the-wire bytes under ``PrecisionPolicy(mixed=True)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.comm.message import Communicator
from repro.obs import SpanKind, get_metrics, get_tracer
from repro.parallel.localmesh import LocalMesh
from repro.resilience.faults import FaultKind, get_injector
from repro.resilience.recovery import RetryExhausted, RetryPolicy, payload_crc


@dataclass
class _SendSlot:
    """One field's gather program: indices plus a reusable buffer view."""

    name: str
    idx: np.ndarray      # local entity indices to gather
    offset: int          # byte offset into the pack buffer
    view: np.ndarray     # dtype-typed view into the pack buffer


@dataclass
class _RecvSlot:
    """One field's scatter program: indices plus the payload layout."""

    name: str
    idx: np.ndarray
    offset: int          # byte offset into the payload
    nbytes: int
    dtype: np.dtype
    trailing: tuple      # trailing (non-entity) shape of the field


@dataclass
class ExchangePlan:
    """Compiled pack/unpack program for one (rank, neighbour) pair.

    ``send_buffer`` is allocated once at compile time and reused on
    every exchange; its total size is the exact on-the-wire byte count
    of the aggregated message (per-field dtypes, no padding).

    Because the exchange posts sends zero-copy from persistent buffers,
    the payload received from the neighbour is its equally persistent
    ``send_buffer`` — so the unpack views (``recv_views``) are compiled
    once against ``peer_buffer`` and unpacking is a pure
    scatter-from-view loop.  ``recv_slots`` keeps the explicit layout
    for introspection/tests and as the fallback when a communicator
    delivers a copy instead of the peer's buffer.
    """

    rank: int
    neighbor: int
    send_buffer: np.ndarray          # raw uint8 wire buffer, reused
    send_slots: list[_SendSlot]
    recv_slots: list[_RecvSlot]
    recv_nbytes: int
    peer_buffer: np.ndarray | None = None
    #: (name, idx, dtype-typed view into peer_buffer) per field.
    recv_views: list[tuple] | None = None

    @property
    def send_nbytes(self) -> int:
        return self.send_buffer.nbytes


class EdgeCellExchanger:
    """One aggregated halo exchange across all ranks' local meshes."""

    def __init__(self, locals_: list[LocalMesh], comm: Communicator | None = None):
        self.locals = locals_
        self.comm = comm or Communicator(len(locals_))
        if self.comm.size != len(locals_):
            raise ValueError(
                f"communicator size {self.comm.size} must match the "
                f"{len(locals_)} local meshes"
            )
        #: Retransmission policy when a fault injector is active: lost
        #: or CRC-failed payloads are re-sent from the (persistent,
        #: still-packed) plan buffer up to ``retry.max_attempts`` times.
        self.retry = RetryPolicy()
        #: CRC32 of every pair's last-packed wire buffer, kept only
        #: while an injector is active (the integrity side channel an
        #: MPI implementation carries in its envelope).
        self._send_crcs: dict[tuple[int, int], int] = {}
        self.crc_failures = 0
        self.retransmits = 0
        # name -> ("cell"|"edge", [per-rank arrays])
        self._registry: dict[str, tuple[str, list[np.ndarray]]] = {}
        self._plans: dict[tuple[int, int], ExchangePlan] | None = None
        self._rank_plans: list[list[ExchangePlan]] | None = None
        self._neighbor_lists: list[list[int]] | None = None
        #: Number of plan compilations (tests assert it stays at 1
        #: across repeated exchanges).
        self.plan_compilations = 0
        #: Completed exchange rounds — the epoch the race analyzer's
        #: pack/unpack clock edges are keyed on.
        self.exchange_epochs = 0
        #: Cumulative wall seconds split by phase, so ``comm_stats`` can
        #: report pack vs wire vs unpack instead of one conflated total.
        self.seconds_total = 0.0
        self.seconds_pack = 0.0
        self.seconds_unpack = 0.0

    def register_cell(self, name: str, per_rank: list[np.ndarray]) -> None:
        self._check(per_rank, "cell")
        self._registry[name] = ("cell", per_rank)
        self._plans = None

    def register_edge(self, name: str, per_rank: list[np.ndarray]) -> None:
        self._check(per_rank, "edge")
        self._registry[name] = ("edge", per_rank)
        self._plans = None

    def _check(self, per_rank: list[np.ndarray], kind: str) -> None:
        if len(per_rank) != len(self.locals):
            raise ValueError("one array per rank required")
        for lm, arr in zip(self.locals, per_rank):
            n = lm.n_cells if kind == "cell" else lm.n_edges
            if arr.shape[0] != n:
                raise ValueError(
                    f"rank {lm.rank}: leading dim {arr.shape[0]} != local "
                    f"{kind} count {n}"
                )
        # A coherent wire format needs one dtype and one trailing shape
        # per field across ranks.
        ref = per_rank[0]
        for lm, arr in zip(self.locals, per_rank):
            if arr.dtype != ref.dtype or arr.shape[1:] != ref.shape[1:]:
                raise ValueError(
                    f"rank {lm.rank}: dtype/trailing shape "
                    f"{arr.dtype}/{arr.shape[1:]} differs from rank 0's "
                    f"{ref.dtype}/{ref.shape[1:]}"
                )

    def _neighbors(self, lm: LocalMesh) -> list[int]:
        return sorted(
            set(lm.cell_send) | set(lm.cell_recv)
            | set(lm.edge_send) | set(lm.edge_recv)
        )

    # -- plan compilation --------------------------------------------------
    def _field_order(self) -> list[str]:
        """Wire order of the registered fields: widest itemsize first
        (keeps every slot offset naturally aligned without padding),
        stable registration order within equal itemsizes."""
        return sorted(
            self._registry,
            key=lambda n: -self._registry[n][1][0].dtype.itemsize,
        )

    def _compile_plans(self) -> None:
        names = self._field_order()
        self._neighbor_lists = [self._neighbors(lm) for lm in self.locals]
        plans: dict[tuple[int, int], ExchangePlan] = {}
        for lm, nbrs in zip(self.locals, self._neighbor_lists):
            for nbr in nbrs:
                # (name, idx, offset, nbytes, dtype, trailing) per field.
                send_layout: list[tuple] = []
                recv_layout: list[_RecvSlot] = []
                send_nbytes = 0
                recv_nbytes = 0
                for name in names:
                    kind, arrays = self._registry[name]
                    arr = arrays[lm.rank]
                    trailing = arr.shape[1:]
                    width = int(np.prod(trailing, dtype=np.int64)) or 1
                    itemsize = arr.dtype.itemsize
                    sidx = (
                        lm.cell_send if kind == "cell" else lm.edge_send
                    ).get(nbr)
                    if sidx is not None and sidx.size:
                        nb = sidx.size * width * itemsize
                        send_layout.append(
                            (name, sidx, send_nbytes, nb, arr.dtype, trailing)
                        )
                        send_nbytes += nb
                    ridx = (
                        lm.cell_recv if kind == "cell" else lm.edge_recv
                    ).get(nbr)
                    if ridx is not None and ridx.size:
                        nb = ridx.size * width * itemsize
                        recv_layout.append(
                            _RecvSlot(name, ridx, recv_nbytes, nb,
                                      arr.dtype, trailing)
                        )
                        recv_nbytes += nb
                buffer = np.empty(send_nbytes, dtype=np.uint8)
                send_slots = [
                    _SendSlot(
                        name, sidx, off,
                        buffer[off: off + nb]
                        .view(dtype)
                        .reshape((sidx.size,) + trailing),
                    )
                    for name, sidx, off, nb, dtype, trailing in send_layout
                ]
                plans[(lm.rank, nbr)] = ExchangePlan(
                    rank=lm.rank,
                    neighbor=nbr,
                    send_buffer=buffer,
                    send_slots=send_slots,
                    recv_slots=recv_layout,
                    recv_nbytes=recv_nbytes,
                )
        # Link each plan to its mirror: with zero-copy sends the payload
        # recv() returns IS the neighbour's persistent send_buffer, so
        # the unpack views can be compiled now instead of sliced per
        # exchange.  A size mismatch (inconsistent decomposition) leaves
        # peer_buffer unset and the runtime fallback raises.
        for (rank, nbr), plan in plans.items():
            peer = plans.get((nbr, rank))
            if peer is None or peer.send_nbytes != plan.recv_nbytes:
                continue
            plan.peer_buffer = peer.send_buffer
            plan.recv_views = [
                (
                    slot.name, slot.idx,
                    peer.send_buffer[slot.offset: slot.offset + slot.nbytes]
                    .view(slot.dtype)
                    .reshape((slot.idx.size,) + slot.trailing),
                )
                for slot in plan.recv_slots
            ]
        self._plans = plans
        self._rank_plans = [
            [plans[(lm.rank, nbr)] for nbr in nbrs]
            for lm, nbrs in zip(self.locals, self._neighbor_lists)
        ]
        self.plan_compilations += 1

    @property
    def plans(self) -> dict[tuple[int, int], ExchangePlan]:
        """The compiled plans (compiling first if needed)."""
        if self._plans is None:
            self._compile_plans()
        return self._plans

    # -- declarative annotations for the race analyzer ---------------------
    def registered_fields(self) -> list[str]:
        """Registered field names in wire order."""
        return self._field_order()

    def access_annotations(self) -> dict:
        """Declared accesses of one exchange, per (rank, neighbour) pair.

        Each entry names the persistent zero-copy wire buffer
        (``xbuf.{rank}.{nbr}``) the pack writes and the matching unpack
        on the neighbour reads, plus the per-field send (read) and recv
        (write) first-axis index sets from the compiled plans.  This is
        the ground truth :func:`repro.analysis.races.build_step_plan`
        turns into PACK/UNPACK ops.
        """
        out: dict = {}
        for (rank, nbr), plan in self.plans.items():
            out[(rank, nbr)] = {
                "buffer": f"xbuf.{rank}.{nbr}",
                "sends": {s.name: s.idx.copy() for s in plan.send_slots},
                "recvs": {s.name: s.idx.copy() for s in plan.recv_slots},
            }
        return out

    def halo_recv_union(self) -> dict:
        """Per (rank, field): the union of recv indices over neighbours."""
        union: dict = {}
        for (rank, _nbr), pair in self.access_annotations().items():
            for name, idx in pair["recvs"].items():
                union.setdefault((rank, name), set()).update(
                    int(i) for i in idx
                )
        return {
            key: np.array(sorted(s), dtype=np.int64)
            for key, s in union.items()
        }

    # -- the exchange ------------------------------------------------------
    def exchange(self) -> None:
        """One aggregated exchange: a single message per neighbour pair."""
        if not self._registry:
            return
        if self._plans is None:
            self._compile_plans()
        registry = self._registry
        tracer = get_tracer()
        injector = get_injector()
        verify = injector is not None and injector.active
        n_vars = len(registry)
        self.exchange_epochs += 1
        epoch = self.exchange_epochs
        msgs0, bytes0 = self.comm.stats.messages, self.comm.stats.bytes_sent
        t_start = time.perf_counter()
        with tracer.span(
            "exchange.edge_cell", SpanKind.HALO_EXCHANGE,
            n_vars=n_vars, epoch=epoch,
        ) as ex_span:
            # Pack & post: gather straight into the reusable wire buffer.
            with tracer.span(
                "exchange.pack", SpanKind.HALO_PACK, n_vars=n_vars, epoch=epoch
            ):
                for rank, plan_list in enumerate(self._rank_plans):
                    for plan in plan_list:
                        for slot in plan.send_slots:
                            np.take(
                                registry[slot.name][1][rank], slot.idx,
                                axis=0, out=slot.view,
                            )
                        if verify:
                            self._send_crcs[(rank, plan.neighbor)] = payload_crc(
                                plan.send_buffer
                            )
                        if tracer.enabled:
                            # Per-pair clock edge for the race sanitizer:
                            # this pack happens-before the neighbour's
                            # same-epoch unpack.
                            tracer.instant(
                                "exchange.pack.pair", SpanKind.HALO_PACK,
                                rank=rank, neighbor=plan.neighbor,
                                epoch=epoch,
                            )
                        # Zero-copy handoff: the per-pair wire buffer is
                        # not repacked until after the matching recv of
                        # this same exchange has drained it.
                        self.comm.send(
                            rank, plan.neighbor, plan.send_buffer,
                            tag=7, copy=False,
                        )
            t_packed = time.perf_counter()
            # Drain & unpack: scatter each dtype-typed block in place.
            with tracer.span(
                "exchange.unpack", SpanKind.HALO_UNPACK,
                n_vars=n_vars, epoch=epoch,
            ):
                for rank, plan_list in enumerate(self._rank_plans):
                    for plan in plan_list:
                        if tracer.enabled:
                            tracer.instant(
                                "exchange.unpack.pair", SpanKind.HALO_UNPACK,
                                rank=rank, neighbor=plan.neighbor,
                                epoch=epoch,
                            )
                        if verify:
                            payload = self._recv_verified(plan, injector)
                        else:
                            payload = self.comm.recv(plan.neighbor, rank, tag=7)
                        if payload is plan.peer_buffer:
                            # Fast path: payload is the neighbour's
                            # persistent buffer; the views were compiled
                            # with the plan.
                            for name, idx, view in plan.recv_views:
                                registry[name][1][rank][idx] = view
                            continue
                        if payload.nbytes != plan.recv_nbytes:
                            raise RuntimeError("exchange payload size mismatch")
                        for slot in plan.recv_slots:
                            block = (
                                payload[slot.offset: slot.offset + slot.nbytes]
                                .view(slot.dtype)
                                .reshape((slot.idx.size,) + slot.trailing)
                            )
                            registry[slot.name][1][rank][slot.idx] = block
            t_end = time.perf_counter()
            self.seconds_pack += t_packed - t_start
            self.seconds_unpack += t_end - t_packed
            self.seconds_total += t_end - t_start
            ex_span.set(
                messages=self.comm.stats.messages - msgs0,
                bytes=self.comm.stats.bytes_sent - bytes0,
            )

    def _recv_verified(self, plan: ExchangePlan, injector) -> np.ndarray:
        """Receive ``plan``'s payload under the retransmit ladder.

        A dropped message shows up as a probe miss; a corrupted one as a
        CRC mismatch against the sender-side checksum recorded at pack
        time.  Either way the fix is the same: re-send the neighbour's
        persistent (still-packed) wire buffer and try again, up to
        ``retry.max_attempts`` receives.  A validated receive drains the
        pending drop/corrupt events for this pair.
        """
        src, dst = plan.neighbor, plan.rank
        site = f"{src}->{dst}"
        expected = self._send_crcs.get((src, dst))
        peer = self._plans[(src, dst)]
        metrics = get_metrics()

        def retransmit() -> None:
            self.retransmits += 1
            if metrics.enabled:
                metrics.inc("exchange.retransmits")
            self.comm.send(src, dst, peer.send_buffer, tag=7, copy=False)

        for _ in range(self.retry.max_attempts):
            if not self.comm.probe(src, dst, tag=7):
                retransmit()
                continue
            payload = self.comm.recv(src, dst, tag=7)
            if expected is not None and payload_crc(payload) != expected:
                self.crc_failures += 1
                if metrics.enabled:
                    metrics.inc("exchange.crc_failures")
                retransmit()
                continue
            injector.drain(
                (FaultKind.MSG_DROP, FaultKind.MSG_CORRUPT),
                "retransmit", site=site,
            )
            return payload
        raise RetryExhausted(
            f"halo payload {site} failed verification after "
            f"{self.retry.max_attempts} attempts "
            f"({self.crc_failures} CRC failures, {self.retransmits} "
            "retransmits this run)"
        )

    def messages_per_exchange(self) -> int:
        """Total messages of one exchange (the aggregation metric)."""
        return sum(len(self._neighbors(lm)) for lm in self.locals)

    def bytes_per_exchange(self) -> int:
        """True on-the-wire bytes of one aggregated exchange."""
        return sum(plan.send_nbytes for plan in self.plans.values())
