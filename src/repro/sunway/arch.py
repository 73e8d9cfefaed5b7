"""SW26010P architecture description.

Numbers follow the paper (section 3.3 and 4.1) and public SW26010P
documentation: 6 core groups per processor, each with one management
processing element (MPE) and 64 computing processing elements (CPEs) in an
8x8 array — 390 cores per processor; per-CG DDR4 main memory of 16 GB at
51.2 GB/s; per-CPE 256 KB local device memory (LDM), half of which can be
configured as a 4-way group-associative cache (LDCache).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CPESpec:
    """One computing processing element."""

    clock_hz: float = 2.1e9
    #: Peak FLOP/s in double precision (512-bit vector FMA).
    flops_dp: float = 16.0 * 2.1e9
    #: Peak FLOP/s in single precision.  The paper: "the Sunway
    #: architecture generally does not exhibit higher calculation
    #: performance in single precision compared to double precision,
    #: except for division and elemental functions."
    flops_sp: float = 16.0 * 2.1e9
    #: Cycles for one scalar division / elemental function call.
    div_cycles_dp: float = 34.0
    div_cycles_sp: float = 17.0
    special_cycles_dp: float = 60.0
    special_cycles_sp: float = 28.0
    #: LDM size in bytes (256 KB).
    ldm_bytes: int = 256 * 1024
    #: LDM bandwidth (B/s) — on-chip, very fast.
    ldm_bandwidth: float = 120.0e9
    #: DMA bandwidth between main memory and LDM per CPE (B/s); the 64
    #: CPEs share the CG's 51.2 GB/s, so per-CPE sustained DMA is bounded
    #: by the share below when all stream at once.
    dma_peak: float = 10.0e9


@dataclass(frozen=True)
class MPESpec:
    """The management processing element: a modest general-purpose core."""

    clock_hz: float = 2.1e9
    flops_dp: float = 2.0 * 2.1e9   # scalar FMA pipeline
    flops_sp: float = 2.0 * 2.1e9
    div_cycles_dp: float = 34.0
    div_cycles_sp: float = 17.0
    special_cycles_dp: float = 60.0
    special_cycles_sp: float = 28.0
    #: Effective memory bandwidth achievable by the single MPE (B/s).
    bandwidth: float = 8.0e9
    cache_bytes: int = 512 * 1024


@dataclass(frozen=True)
class CoreGroup:
    """One CG: an MPE plus an 8x8 CPE array and 16 GB of DDR4."""

    mpe: MPESpec = field(default_factory=MPESpec)
    cpe: CPESpec = field(default_factory=CPESpec)
    n_cpes: int = 64
    main_memory_bytes: int = 16 * 1024**3
    #: Shared DDR4 bandwidth of the CG (B/s): 51.2 GB/s.
    memory_bandwidth: float = 51.2e9

    @property
    def cores(self) -> int:
        return self.n_cpes + 1

    @property
    def peak_flops_dp(self) -> float:
        return self.mpe.flops_dp + self.n_cpes * self.cpe.flops_dp


@dataclass(frozen=True)
class SW26010P:
    """The full processor: 6 CGs, 390 cores."""

    cg: CoreGroup = field(default_factory=CoreGroup)
    n_cgs: int = 6

    @property
    def cores(self) -> int:
        return self.n_cgs * self.cg.cores   # 390

    @property
    def peak_flops_dp(self) -> float:
        return self.n_cgs * self.cg.peak_flops_dp


#: Machine constants of the full system (section 4.1).
SYSTEM_NODES = 107_520
CORES_PER_NODE = SW26010P().cores  # 390
SYSTEM_CORES = SYSTEM_NODES * CORES_PER_NODE  # 41,932,800
#: Largest power-of-two CG count used in the paper's scaling runs.
MAX_SCALING_CGS = 524_288
CORES_PER_CG = CoreGroup().cores  # 65
MAX_SCALING_CORES = MAX_SCALING_CGS * CORES_PER_CG  # 34,078,720 ("34M cores")
