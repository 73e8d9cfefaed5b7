"""Kernel access descriptors: what a loop reads and writes, and how.

Every offloaded loop in the repo can be annotated with an
:class:`AccessSpec` — the static-analysis counterpart of the roofline
:class:`~repro.sunway.kernel.KernelSpec`.  Where the roofline spec counts
*how much* data moves, the access spec says *which* arrays are touched,
at *which index expression* relative to the distributed loop variable,
in *which mode* (read/write), at *which element width*, and (optionally)
under *which precision-classified term name*.

The index mini-language mirrors the patterns that actually occur in
GRIST's offloaded loops:

``"i"``
    the chunk-local running index (conflict-free by construction);
``"i+1"`` / ``"i-2"``
    a constant offset from the running index (spills one chunk over);
``"nbr(i)"`` / ``"nbr(i,2)"``
    an indirect gather/scatter through a neighbour table, reaching the
    given ring of the mesh halo (default ring 1);
``"all"``
    the whole array — reductions, accumulations, broadcast reads.

These four shapes are enough to express every kernel in
:mod:`repro.dycore.kernels` and every hazard in the paper's sections
3.3.1/3.3.3/3.4.2.

:meth:`OffloadPlan.as_parallel_plan` is the one place an offload launch
becomes a :class:`~repro.analysis.parallel_plan.ParallelPlan`, so the
SW race rules and the sanitizer's observed chunks go through the same
conflict pass as the RD rules (:func:`chunk_plan`,
:func:`loop_conflicts`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from repro.analysis.parallel_plan import Access, HappensBefore, OpKind, ParallelPlan, PlanOp
from repro.analysis.races import unordered_conflicts


class IndexKind(Enum):
    """Shape of an index expression relative to the distributed loop."""

    LOCAL = "local"          # a[i]
    OFFSET = "offset"        # a[i+k], k != 0
    INDIRECT = "indirect"    # a[nbr(i)] — neighbour-table gather/scatter
    GLOBAL = "global"        # a[:] / reductions — touches the whole array


@dataclass(frozen=True)
class IndexExpr:
    """Parsed form of one index expression."""

    kind: IndexKind
    offset: int = 0          # for OFFSET: the constant displacement
    ring: int = 0            # for INDIRECT: halo rings reached

    @property
    def chunk_local(self) -> bool:
        """True when every iteration touches only its own index."""
        return self.kind is IndexKind.LOCAL

    @property
    def reach(self) -> int:
        """How far past the owned range the access can land (halo rings
        for indirect accesses, |offset| elements for offset accesses)."""
        if self.kind is IndexKind.INDIRECT:
            return self.ring
        if self.kind is IndexKind.OFFSET:
            return abs(self.offset)
        return 0


_OFFSET_RE = re.compile(r"^i\s*([+-])\s*(\d+)$")
_INDIRECT_RE = re.compile(r"^nbr\(\s*i\s*(?:,\s*(\d+)\s*)?\)$")


def parse_index(expr: str) -> IndexExpr:
    """Parse an index expression of the mini-language into an
    :class:`IndexExpr`.  Raises :class:`ValueError` on anything else."""
    text = expr.strip().lower()
    if text == "i":
        return IndexExpr(IndexKind.LOCAL)
    if text in ("all", "*", ":"):
        return IndexExpr(IndexKind.GLOBAL)
    m = _OFFSET_RE.match(text)
    if m:
        off = int(m.group(2)) * (1 if m.group(1) == "+" else -1)
        if off == 0:
            return IndexExpr(IndexKind.LOCAL)
        return IndexExpr(IndexKind.OFFSET, offset=off)
    m = _INDIRECT_RE.match(text)
    if m:
        ring = int(m.group(1)) if m.group(1) else 1
        return IndexExpr(IndexKind.INDIRECT, ring=ring)
    raise ValueError(
        f"unparseable index expression {expr!r} "
        "(expected 'i', 'i+K', 'i-K', 'nbr(i)', 'nbr(i,R)' or 'all')"
    )


@dataclass(frozen=True)
class ArrayAccess:
    """One array touched by a loop iteration."""

    name: str
    mode: str = "r"              # "r", "w" or "rw"
    index: str = "i"             # index mini-language, see module docs
    bytes_per_elem: int = 8      # 8 = float64, 4 = float32
    term: str | None = None      # precision-classification name, if any

    def __post_init__(self) -> None:
        if self.mode not in ("r", "w", "rw"):
            raise ValueError(f"mode must be 'r', 'w' or 'rw', got {self.mode!r}")
        if self.bytes_per_elem <= 0:
            raise ValueError("bytes_per_elem must be positive")
        parse_index(self.index)     # validate eagerly

    @property
    def expr(self) -> IndexExpr:
        return parse_index(self.index)

    @property
    def reads(self) -> bool:
        return "r" in self.mode

    @property
    def writes(self) -> bool:
        return "w" in self.mode


@dataclass(frozen=True)
class AccessSpec:
    """Declared access pattern of one offloaded loop."""

    arrays: tuple = ()           # tuple[ArrayAccess, ...]
    loop_var: str = "i"

    def __post_init__(self) -> None:
        names = [a.name for a in self.arrays]
        dup = {n for n in names if names.count(n) > 1}
        if dup:
            raise ValueError(
                f"array {sorted(dup)!r} declared more than once; merge the "
                "modes into a single ArrayAccess (e.g. mode='rw')"
            )

    @classmethod
    def of(cls, *accesses: ArrayAccess, loop_var: str = "i") -> AccessSpec:
        return cls(arrays=tuple(accesses), loop_var=loop_var)

    # -- derived views ----------------------------------------------------
    @property
    def reads(self) -> tuple:
        return tuple(a for a in self.arrays if a.reads)

    @property
    def writes(self) -> tuple:
        return tuple(a for a in self.arrays if a.writes)

    @property
    def arrays_per_iteration(self) -> int:
        """Arrays walked once per iteration — the LDCache working set.

        GLOBAL accesses (whole-array reductions) stream too; every kind
        of per-iteration touch occupies cache ways.
        """
        return len(self.arrays)

    def bytes_per_iteration(self) -> int:
        return sum(a.bytes_per_elem for a in self.arrays)


@dataclass(frozen=True)
class PlannedLoop:
    """One distributed loop of an offload plan, ready for analysis.

    ``body``, when supplied, is a callable ``body(arrays, start, end)``
    over a dict of named NumPy arrays — the sanitizer executes it chunk
    by chunk through the real job server to verify the static verdicts.
    """

    name: str
    access: AccessSpec
    n_iters: int
    nowait: bool = False
    region: int = 0              # target region the loop belongs to
    ldm_staged: bool = False     # stages its chunk into LDM via omnicopy
    body: object = None          # Callable[[dict, int, int], None] | None


@dataclass
class OffloadPlan:
    """Everything the static analyzer needs about one launch.

    The distributed loops of one SWGOMP launch in program order with
    their declared access specs, plus the substrate context
    (CPE count, LDCache geometry defaults live in the analyzer; array
    base addresses come from the pool allocator; the halo width comes
    from the partition).
    """

    loops: list = field(default_factory=list)     # list[PlannedLoop]
    name: str = "plan"
    server_initialized: bool = True
    n_cpes: int = 64
    #: base byte address per array name (from the pool allocator); used
    #: by the LDCache thrash lint.  None = addresses unknown.
    array_bases: dict | None = None
    #: declared halo width of the partition, in rings (see
    #: ``Subdomain.halo_rings``).
    halo_width: int = 1

    def as_parallel_plan(self) -> ParallelPlan:
        """The one view of this launch as a :class:`ParallelPlan`.

        Each loop is two chunk ops on lanes of their own.  A ``LOCAL``
        (``"i"``) access charges the chunk's own index, every other
        index shape the whole array.  A loop without ``nowait`` ends in
        a BARRIER, and so does a change of ``region`` (the end-target
        barrier), so :func:`loop_conflicts` reads SW001 and SW002 off
        the same conflict pass the RD rules use.
        """
        loops = []
        for lp, nxt in zip(self.loops, self.loops[1:] + [None]):
            chunks = [
                [Access(a.name, a.mode, (c,) if a.expr.chunk_local else None)
                 for a in lp.access.arrays]
                for c in (0, 1)
            ]
            barrier = not lp.nowait or (nxt is not None and nxt.region != lp.region)
            loops.append((lp.name, chunks, barrier))
        return chunk_plan(self.name, loops)


def chunk_plan(name: str, loops) -> ParallelPlan:
    """Offload loops as a :class:`ParallelPlan`, one op per chunk.

    ``loops`` lists ``(loop name, accesses of each chunk, ends in a
    barrier)`` in program order.  Every chunk is a COMPUTE op named
    ``loop#c`` on a lane of its own: chunks of one loop run
    concurrently on the CPE array, and only barriers order loops.
    :meth:`OffloadPlan.as_parallel_plan` feeds it declared chunks, the
    sanitizer's :class:`~repro.analysis.sanitizer.LoopObservation` the
    executed ones with their recorded index sets.
    """
    ops = []
    for loop, chunks, barrier in loops:
        ops += [
            PlanOp(f"{loop}#{c}", OpKind.COMPUTE, lane=len(ops) + c, accesses=acc)
            for c, acc in enumerate(chunks)
        ]
        if barrier:
            ops.append(PlanOp(f"{loop}#end", OpKind.BARRIER))
    return ParallelPlan(name=name, ops=ops)


def loop_conflicts(view: ParallelPlan) -> dict:
    """SW001 and SW002 read off the one conflict pass over a chunk view.

    Returns ``{(first loop, later loop): {array: shared indices}}``: a
    pair of one loop is a cross-chunk race (SW001), a pair of two loops
    a dependence the missing barrier leaves unordered (SW002).  Shared
    indices are empty where an access charges the whole array.
    """
    hb = HappensBefore(view)
    out: dict = {}
    for _, array, a, b, _, shared in unordered_conflicts(
        view, hb, lambda acc: acc.indices
    ):
        first, later = sorted((a.name, b.name), key=hb.index.get)
        pair = (first.rpartition("#")[0], later.rpartition("#")[0])
        out.setdefault(pair, {}).setdefault(array, set()).update(shared or ())
    return out
