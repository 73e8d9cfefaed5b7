"""The one program model both analyzers read.

A :class:`ParallelPlan` is a declared description of *what runs where
and in what order* that the static checkers reason over and the
sanitizers replay.  It models one (or a few) timestep(s) of the
parallel layer, and an offload launch enters it through one view
(:meth:`~repro.analysis.access.OffloadPlan.as_parallel_plan`, each
chunk a COMPUTE op on a lane of its own):

* **ops** (:class:`PlanOp`) — pack/unpack of a compiled exchange plan,
  a rank's RK stage, a barrier, a collective reduction — each on an
  execution *lane* (a rank/worker, or :data:`DRIVER` for the sequential
  driver process);
* **accesses** (:class:`Access`) — which named resource each op reads
  or writes, optionally restricted to a first-axis index set (the
  compiled send/recv index arrays of an
  :class:`~repro.parallel.exchange.ExchangePlan`, for instance);
* **sync** — program order within a lane, :data:`OpKind.BARRIER` ops
  that order *every* lane, and explicit ``edges`` (message delivery:
  a pack happens-before the matching unpack);
* **arena** — the byte extents of shared-memory slots
  (:class:`~repro.parallel.executor._ShmArena` carving), so two
  *differently named* resources that alias overlapping bytes still
  conflict;
* **halo_recv** — per resource, the index set an exchange refreshes
  (the union of recv indices); reads of these indices are only fresh
  when their latest writer is an unpack.

:class:`HappensBefore` builds the program-order x synchronization-order
DAG over the ops and answers reachability queries; the RD rule checks
in :mod:`repro.analysis.races` are phrased entirely against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

#: Lane id of the sequential driver process (program order across all
#: driver-side ops: in the current lockstep implementation, the exchange
#: pack/unpack loops).
DRIVER = -1


class OpKind(Enum):
    """What one op of a parallel plan does."""

    COMPUTE = "compute"    # a rank's RK stage or sponge
    PACK = "pack"          # gather into a persistent wire buffer
    UNPACK = "unpack"      # scatter a received payload into halo entities
    APPLY = "apply"        # RK apply: rewrite prognostics from tendencies
    BARRIER = "barrier"    # synchronises every lane (broadcast/reply round)
    REDUCE = "reduce"      # collective reduction across ranks


def _as_index_tuple(indices) -> tuple | None:
    """Normalise an index collection to a sorted tuple (None = whole)."""
    if indices is None:
        return None
    arr = np.asarray(indices, dtype=np.int64).ravel()
    return tuple(np.unique(arr).tolist())


@dataclass(frozen=True)
class Access:
    """One resource touched by an op.

    ``indices`` is the *declared* first-axis index set (``None`` = the
    whole resource, the conservative default).  ``observed`` — when it
    differs from the declaration — is what the op really touches; the
    dynamic sanitizer replays with it, which is how a conservatively
    declared overlap gets demoted to FALSE_POSITIVE.
    """

    resource: str
    mode: str = "r"                 # "r", "w" or "rw"
    indices: tuple | None = None    # sorted first-axis indices; None = all
    observed: tuple | None = None   # runtime index set; None = as declared

    def __post_init__(self) -> None:
        if self.mode not in ("r", "w", "rw"):
            raise ValueError(f"mode must be 'r', 'w' or 'rw', got {self.mode!r}")
        object.__setattr__(self, "indices", _as_index_tuple(self.indices))
        object.__setattr__(self, "observed", _as_index_tuple(self.observed))

    @property
    def reads(self) -> bool:
        return "r" in self.mode

    @property
    def writes(self) -> bool:
        return "w" in self.mode

    def runtime_indices(self) -> tuple | None:
        """The index set the dynamic replay charges (observed wins)."""
        return self.observed if self.observed is not None else self.indices


def indices_intersect(a: tuple | None, b: tuple | None) -> bool:
    """Do two first-axis index sets overlap?  ``None`` = whole resource."""
    if a is None or b is None:
        return True
    if not a or not b:
        return False
    return bool(set(a) & set(b))


@dataclass(frozen=True)
class PlanOp:
    """One operation of a parallel plan.

    ``lane`` places the op in a program-order sequence (a rank id, or
    :data:`DRIVER`).  ``epoch`` counts exchange rounds (RD003 matches a
    pack against the unpack of the same epoch); ``stage`` labels the RK
    stage for RD004 messages.  REDUCE ops carry the determinism
    contract: ``order_sensitive`` means the float summation order
    changes with the rank count, and ``tolerance`` is the declared
    acceptance band (``None`` = bitwise reproducibility claimed).
    ``values`` optionally carries the per-rank contributions so the
    sanitizer can evaluate the reduction both ways.
    """

    name: str
    kind: OpKind
    lane: int = DRIVER
    accesses: tuple = ()            # tuple[Access, ...]
    stage: int = 0
    epoch: int = 0
    order_sensitive: bool = False
    tolerance: float | None = None
    values: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "accesses", tuple(self.accesses))


@dataclass
class ParallelPlan:
    """A declared parallel step: ops in schedule order plus sync/layout.

    The op list order is the serialized schedule the dynamic sanitizer
    replays (and must be a topological order of the sync edges — the
    builder raises otherwise).  It does *not* imply happens-before:
    only program order, barriers and explicit edges do.
    """

    name: str
    ops: list = field(default_factory=list)       # list[PlanOp]
    edges: list = field(default_factory=list)     # [(from_name, to_name)]
    #: resource -> (byte offset, byte length) in the shared arena; two
    #: resources with overlapping extents alias the same memory.
    arena: dict = field(default_factory=dict)
    #: resource -> index tuple refreshed by halo exchange (recv set).
    halo_recv: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [op.name for op in self.ops]
        dup = {n for n in names if names.count(n) > 1}
        if dup:
            raise ValueError(f"duplicate op names {sorted(dup)!r}")
        self.halo_recv = {
            r: _as_index_tuple(idx) for r, idx in self.halo_recv.items()
        }

    def aliased_resources(self) -> list:
        """Pairs of distinct resources whose arena byte extents overlap."""
        items = sorted(self.arena.items())
        out = []
        for i, (ra, (oa, la)) in enumerate(items):
            for rb, (ob, lb) in items[i + 1:]:
                if oa < ob + lb and ob < oa + la:
                    out.append((ra, rb))
        return out


class HappensBefore:
    """Program-order x synchronization-order reachability over a plan.

    Edges:

    * consecutive ops of the same lane (program order);
    * a BARRIER op receives an edge from the latest op of *every* lane
      and every later op receives one from the barrier (modelling the
      executor's broadcast/reply round and the driver's lockstep);
    * each explicit ``plan.edges`` entry (message delivery).

    Reachability is computed once with per-op ancestor bitmasks, so
    queries are O(1).
    """

    def __init__(self, plan: ParallelPlan):
        self.plan = plan
        ops = plan.ops
        self.index = {op.name: i for i, op in enumerate(ops)}
        n = len(ops)
        preds: list[list[int]] = [[] for _ in range(n)]
        last_in_lane: dict[int, int] = {}
        last_barrier: int | None = None
        for i, op in enumerate(ops):
            if op.kind is OpKind.BARRIER:
                preds[i].extend(last_in_lane.values())
                if last_barrier is not None:
                    preds[i].append(last_barrier)
                last_barrier = i
                last_in_lane = {}
            else:
                if op.lane in last_in_lane:
                    preds[i].append(last_in_lane[op.lane])
                if last_barrier is not None:
                    preds[i].append(last_barrier)
                last_in_lane[op.lane] = i
        for a, b in plan.edges:
            ia, ib = self.index[a], self.index[b]
            if ia >= ib:
                raise ValueError(
                    f"sync edge {a!r} -> {b!r} goes backwards in the "
                    "schedule; the op list must be a topological order"
                )
            preds[ib].append(ia)
        reach = [0] * n
        for i in range(n):
            m = 0
            for j in preds[i]:
                m |= reach[j] | (1 << j)
            reach[i] = m
        self._reach = reach

    def before(self, a: str, b: str) -> bool:
        """Does op ``a`` happen-before op ``b``?"""
        ia, ib = self.index[a], self.index[b]
        return bool((self._reach[ib] >> ia) & 1)

    def ordered(self, a: str, b: str) -> bool:
        """Are the two ops ordered either way?"""
        return self.before(a, b) or self.before(b, a)
