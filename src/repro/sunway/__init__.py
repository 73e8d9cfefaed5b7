"""Simulated SW26010P processor and SWGOMP runtime (paper section 3.3).

The paper's hardware — the next-generation Sunway supercomputer — is not
publicly accessible, so this package models the pieces of it the paper's
optimisations act on:

* :mod:`repro.sunway.arch` — the SW26010P spec: 6 core groups (CGs) per
  processor, each 1 MPE + 64 CPEs, 256 KB LDM per CPE (half configurable
  as a 4-way set-associative LDCache), 16 GB DDR4 at 51.2 GB/s per CG;
* :mod:`repro.sunway.ldcache` — a faithful set-associative LDCache
  simulator (the mechanism behind Fig. 6's cache thrashing);
* :mod:`repro.sunway.allocator` — the pool-based memory allocator with
  memory-address distribution (section 3.3.3);
* :mod:`repro.sunway.dma` — ``omnicopy``: DMA when crossing the
  LDM/main-memory boundary, plain memcpy otherwise (section 3.3.2);
* :mod:`repro.sunway.swgomp` — the SWGOMP job server: MPE spawns
  team-head CPEs, team heads spawn team members (Fig. 5), with
  static/dynamic parallel-for scheduling;
* :mod:`repro.sunway.kernel` — a roofline kernel-timing model with
  cache-hit feedback, used by Fig. 9 and the scaling model;
* :mod:`repro.sunway.execution` — the registered dycore kernels run as
  SWGOMP target regions over the simulated CPEs (section 3.3.4).

Offload plans are declared as access specs (:mod:`repro.analysis.access`)
and checked by ``repro lint``.
"""

from repro.sunway.allocator import PoolAllocator
from repro.sunway.arch import SW26010P, CoreGroup
from repro.sunway.dma import MemorySpace, omnicopy
from repro.sunway.execution import SWGOMPExecutor
from repro.sunway.kernel import Engine, KernelSpec, KernelTimer, Precision
from repro.sunway.ldcache import LDCache, loop_access_stream
from repro.sunway.swgomp import JobServer, SWGOMPError, TargetRegion

__all__ = [
    "SW26010P",
    "CoreGroup",
    "LDCache",
    "loop_access_stream",
    "PoolAllocator",
    "omnicopy",
    "MemorySpace",
    "JobServer",
    "SWGOMPError",
    "TargetRegion",
    "KernelSpec",
    "KernelTimer",
    "Engine",
    "Precision",
    "SWGOMPExecutor",
]
