"""``omnicopy``: the cross-platform memcpy/DMA shim (section 3.3.2).

    "we implement a cross-platform omnicopy function as a replacement for
    memcpy.  This function can determine whether data transfer occurs
    between main memory and LDM, utilizing DMA automatically when
    feasible.  On non-Sunway platforms, omnicopy functions identically to
    memcpy."

Here the two address spaces are explicit (:class:`MemorySpace`), the copy
is a real NumPy copy either way, and the returned record says which engine
a Sunway build would have used and what it would have cost — consumed by
the kernel timing model when a kernel stages arrays into LDM to break
cache thrashing (section 3.3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.obs import SpanKind, get_metrics, get_tracer
from repro.resilience.faults import FaultKind, get_injector
from repro.resilience.recovery import RetryPolicy
from repro.sunway.arch import CPESpec

#: Re-issue policy for failed DMA transfers (simulated time only).
DMA_RETRY = RetryPolicy(max_attempts=3)


class MemorySpace(Enum):
    MAIN = "main"    # per-CG DDR4
    LDM = "ldm"      # per-CPE local device memory


@dataclass(frozen=True)
class CopyRecord:
    """What a copy did and what it costs on the simulated hardware."""

    nbytes: int
    engine: str           # "dma" or "memcpy"
    seconds: float        # simulated transfer time


def omnicopy(
    dst: np.ndarray,
    src: np.ndarray,
    dst_space: MemorySpace = MemorySpace.MAIN,
    src_space: MemorySpace = MemorySpace.MAIN,
    cpe: CPESpec | None = None,
) -> CopyRecord:
    """Copy ``src`` into ``dst``, modelling DMA when crossing spaces.

    Raises if the destination "LDM" buffer would not fit in the LDM's
    user-programmable half (128 KB) — the same constraint the real code
    faces when staging arrays onto the CPE stack.
    """
    if dst.shape != src.shape:
        raise ValueError("omnicopy requires matching shapes")
    cpe = cpe or CPESpec()
    nbytes = src.nbytes
    crossing = dst_space != src_space
    if MemorySpace.LDM in (dst_space, src_space):
        ldm_user_bytes = cpe.ldm_bytes // 2
        if nbytes > ldm_user_bytes:
            raise MemoryError(
                f"buffer of {nbytes} B exceeds the {ldm_user_bytes} B "
                "user-programmable LDM half"
            )
    np.copyto(dst, src)
    if crossing:
        seconds = nbytes / cpe.dma_peak
        injector = get_injector()
        if injector is not None:
            ev = injector.fire(FaultKind.DMA_ERROR, site=f"{src_space.value}->{dst_space.value}")
            if ev is not None:
                # The DMA engine re-issues the transfer: one wasted
                # transfer plus a backoff, after which the (re-executed)
                # copy lands the same bytes — only the clock moves.
                seconds += seconds + DMA_RETRY.backoff(1)
                get_metrics().inc("dma.retries")
                injector.recover(FaultKind.DMA_ERROR, "dma_retry", site=ev.site)
        rec = CopyRecord(nbytes=nbytes, engine="dma", seconds=seconds)
    else:
        rec = CopyRecord(
            nbytes=nbytes, engine="memcpy", seconds=nbytes / cpe.ldm_bandwidth
        )
    tracer = get_tracer()
    if tracer.enabled:
        tracer.instant(
            "omnicopy",
            SpanKind.DMA if rec.engine == "dma" else SpanKind.MEMCPY,
            sim_seconds=rec.seconds,
            nbytes=nbytes,
            src=src_space.value,
            dst=dst_space.value,
        )
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc(f"{rec.engine}.transfers")
        metrics.inc(f"{rec.engine}.bytes", nbytes)
    return rec
