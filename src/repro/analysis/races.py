"""The one conflict pass, and the RD001-RD005 checker built on it.

:func:`unordered_conflicts` finds every pair of accesses that conflict
with no happens-before path between their ops.  It is the core both
rule families read: :func:`analyze_parallel_plan` with declared
indices, the replay with observed ones, and the SW rules through the
chunk view of an offload launch
(:meth:`~repro.analysis.access.OffloadPlan.as_parallel_plan`).

The RD family checks the *parallel layer*: a
:class:`~repro.analysis.parallel_plan.ParallelPlan` of rank-step
phases, compiled exchange-plan index sets, shared-arena slots and
barriers.  The rules:

* **RD001** — write-write conflict on overlapping arena slots: two ops
  write intersecting index sets of one resource (or byte-aliased arena
  slots) with no happens-before path between them;
* **RD002** — halo read-before-recv: an op reads indices a compiled
  exchange plan delivers (the recv set) either concurrently with the
  unpack that writes them, or with no completed exchange between the
  last non-exchange write and the read (stale halo);
* **RD003** — in-flight pack-buffer reuse: a zero-copy send buffer is
  rewritten by a later pack before (or concurrently with) the unpack
  that drains the previous epoch's payload;
* **RD004** — missing inter-stage barrier: dependent RK phases (a
  rank's stage and the exchange or next stage that reads what it
  wrote) are not ordered;
* **RD005** — order-sensitive reduction: a collective whose float
  summation order differs across rank counts, declared without a
  tolerance contract.

:func:`build_step_plan` derives the plan for one RK step of a real
:class:`~repro.parallel.driver.DistributedDycore` from the components'
own declarative annotations (exchange plans, arena layout, executor
rounds); the lockstep implementation must — and does — analyze clean.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.parallel_plan import (
    DRIVER,
    Access,
    HappensBefore,
    OpKind,
    ParallelPlan,
    PlanOp,
    indices_intersect,
)

def classify_conflict(writer: PlanOp, other: PlanOp, other_writes: bool) -> str:
    """RD rule id for one unordered conflicting access pair."""
    if other_writes:
        return "RD001"
    if writer.kind is OpKind.PACK and other.kind is OpKind.UNPACK:
        return "RD003"
    if writer.kind is OpKind.UNPACK:
        return "RD002"
    return "RD004"


def unordered_conflicts(plan: ParallelPlan, hb: HappensBefore, index_set):
    """The one conflict pass: every unordered conflicting access pair.

    Two accesses of different ops conflict when at least one writes,
    their index sets — ``index_set(access)``, ``None`` = the whole
    resource — overlap on one resource, and ``hb`` orders the ops
    neither way.  Accesses of two *different* resources whose arena
    byte extents overlap conflict the same way, whatever their indices,
    as RD001 on ``"ra~rb"``.  Yields ``(rule, resource, writer, other,
    other_writes, shared)`` per pair, ``shared`` being the overlapping
    indices (``None`` = unbounded); callers dedupe by rule, op pair and
    resource.

    The static checker calls it with the declared indices, the replay
    with :meth:`Access.runtime_indices`, and the SW001 verdict with one
    lane per executed chunk.
    """
    by_res: dict = {}
    for op in plan.ops:
        for acc in op.accesses:
            idx = index_set(acc)
            by_res.setdefault(acc.resource, []).append(
                (op, acc.writes, None if idx is None else frozenset(idx))
            )

    def candidates():
        for resource, touches in by_res.items():
            for i, a in enumerate(touches):
                for b in touches[i + 1:]:
                    yield resource, a, b, False
        for ra, rb in plan.aliased_resources():
            for a in by_res.get(ra, ()):
                for b in by_res.get(rb, ()):
                    yield f"{ra}~{rb}", a, b, True

    for resource, (op_a, w_a, idx_a), (op_b, w_b, idx_b), aliased in candidates():
        if op_a.name == op_b.name or not (w_a or w_b):
            continue
        shared = (
            None if aliased or idx_a is None or idx_b is None
            else idx_a & idx_b
        )
        if shared is not None and not shared:
            continue
        if hb.ordered(op_a.name, op_b.name):
            continue
        writer, other, o_writes = (
            (op_a, op_b, w_b) if w_a else (op_b, op_a, w_a)
        )
        rule = "RD001" if aliased else classify_conflict(writer, other, o_writes)
        yield rule, resource, writer, other, o_writes, shared


def analyze_parallel_plan(plan: ParallelPlan) -> list:
    """Run the full RD001-RD005 pass over a :class:`ParallelPlan`."""
    hb = HappensBefore(plan)
    seen: set = set()
    by_res: dict = {}
    for op in plan.ops:
        for acc in op.accesses:
            by_res.setdefault(acc.resource, []).append((op, acc))
    return (
        _check_conflicts(plan, hb, seen)
        + _check_stale_halo(plan, hb, seen, by_res)
        + _check_pack_reuse(plan, hb, seen, by_res)
        + _check_reductions(plan)
    )


# -- unordered conflicts over declared indices (RD001-RD004) ----------
def _check_conflicts(plan, hb, seen) -> list:
    diags = []
    for rule, resource, writer, other, other_writes, _ in unordered_conflicts(
        plan, hb, lambda acc: acc.indices
    ):
        key = (rule, frozenset((writer.name, other.name)), resource)
        if key in seen:
            continue
        seen.add(key)
        diags.append(   # byte-aliased pairs come back on "ra~rb"
            _alias_diag(plan, resource, writer, other)
            if "~" in resource else
            _conflict_diag(
                plan, rule, resource, writer, other, other_writes
            )
        )
    return diags


def _conflict_diag(plan, rule, resource, writer, other, other_writes):
    what = {
        "RD001": "both write it with no happens-before path",
        "RD002": "the read can run before the unpack delivers "
                 "the halo payload",
        "RD003": "the pack can rewrite the zero-copy send buffer "
                 "while the previous unpack still reads it",
        "RD004": "the phases are dependent but unordered (missing "
                 "inter-stage barrier)",
    }[rule]
    return Diagnostic(
        rule=rule,
        plan=plan.name,
        loop=f"{writer.name}|{other.name}",
        array=resource,
        message=(
            f"ops {writer.name!r} ({writer.kind.value}, lane "
            f"{writer.lane}) and {other.name!r} ({other.kind.value}, "
            f"lane {other.lane}) conflict on {resource!r}: {what}"
        ),
        details={
            "ops": sorted((writer.name, other.name)),
            "resource": resource,
            "writer": writer.name,
            "kinds": sorted((writer.kind.value, other.kind.value)),
            "write_write": other_writes,
            "fix": {
                "RD001": "give each writer a private slot, or order "
                         "them with a barrier/sync edge",
                "RD002": "add a sync edge from the unpack to the "
                         "consumer (complete the exchange first)",
                "RD003": "double-buffer the pack buffer or delay the "
                         "repack until the matching unpack drained it",
                "RD004": "insert the inter-stage barrier (executor "
                         "round) between the dependent phases",
            }[rule],
        },
    )


def _alias_diag(plan, resource, op_a, op_b):
    ra, rb = resource.split("~")
    oa, la = plan.arena[ra]
    ob, lb = plan.arena[rb]
    return Diagnostic(
        rule="RD001",
        plan=plan.name,
        loop=f"{op_a.name}|{op_b.name}",
        array=resource,
        message=(
            f"arena slots {ra!r} [{oa}:{oa + la}) and "
            f"{rb!r} [{ob}:{ob + lb}) alias overlapping "
            f"bytes and ops {op_a.name!r}/{op_b.name!r} "
            "touch them unordered (at least one writes)"
        ),
        details={
            "ops": sorted((op_a.name, op_b.name)),
            "resource": resource,
            "extents": {ra: [oa, la], rb: [ob, lb]},
            "fix": "re-carve the arena so slots are "
                   "disjoint (one take() per slot, no "
                   "manual offsets)",
        },
    )


# -- RD002: stale halo (no completed exchange before the read) --------
def _check_stale_halo(plan, hb, seen, by_res) -> list:
    diags = []
    for resource, halo_idx in plan.halo_recv.items():
        touches = by_res.get(resource, ())
        writers = [
            (op, acc) for op, acc in touches
            if acc.writes and indices_intersect(acc.indices, halo_idx)
        ]
        for op_r, acc_r in touches:
            if not acc_r.reads or op_r.kind is not OpKind.COMPUTE:
                # Only stencil consumers (stage/sponge rounds)
                # need fresh halos.  Packs read the send (owned)
                # set, and driver-side applies merely transport
                # values that a later unpack refreshes before any
                # compute reads them.
                continue
            if not indices_intersect(acc_r.indices, halo_idx):
                continue
            if any(
                op_w.kind is OpKind.UNPACK
                and not hb.ordered(op_w.name, op_r.name)
                for op_w, _ in writers
            ):
                # An unpack exists but races the read: that is the
                # pairwise RD002 conflict's territory, not a
                # missing/overwritten exchange.
                continue
            before = [
                (op_w, acc_w) for op_w, acc_w in writers
                if op_w.name != op_r.name
                and hb.before(op_w.name, op_r.name)
            ]
            # Maximal happens-before writers: not overwritten by a
            # later happens-before writer.
            maximal = [
                (op_w, acc_w) for op_w, acc_w in before
                if not any(
                    hb.before(op_w.name, op_v.name)
                    for op_v, _ in before
                    if op_v.name != op_w.name
                )
            ]
            stale = [op_w for op_w, _ in maximal
                     if op_w.kind is not OpKind.UNPACK]
            if before and not stale:
                continue
            key = ("RD002-stale", op_r.name, resource)
            if key in seen:
                continue
            seen.add(key)
            reason = (
                f"the freshest happens-before writers "
                f"({sorted(op.name for op in stale)!r}) are not "
                "exchange unpacks — the halo is stale"
                if before else
                "no exchange unpack happens-before it at all"
            )
            diags.append(Diagnostic(
                rule="RD002",
                plan=plan.name,
                loop=op_r.name,
                array=resource,
                message=(
                    f"op {op_r.name!r} reads halo indices of "
                    f"{resource!r} but {reason}"
                ),
                details={
                    "op": op_r.name,
                    "resource": resource,
                    "stale_writers": sorted(op.name for op in stale),
                    "fix": "exchange (pack/send/recv/unpack) this "
                           "field before the consuming phase",
                },
            ))
    return diags


# -- RD003: pack overwrites a payload the unpack has not drained ------
def _check_pack_reuse(plan, hb, seen, by_res) -> list:
    diags = []
    for resource, touches in by_res.items():
        unpacks = [(op, acc) for op, acc in touches
                   if op.kind is OpKind.UNPACK and acc.reads]
        packs = [(op, acc) for op, acc in touches
                 if op.kind is OpKind.PACK and acc.writes]
        for op_u, _ in unpacks:
            for op_p, _ in packs:
                if op_p.epoch <= op_u.epoch:
                    continue   # the producer or an earlier epoch
                if hb.before(op_u.name, op_p.name):
                    continue   # drained before the repack: safe
                key = ("RD003", frozenset((op_u.name, op_p.name)), resource)
                if key in seen:
                    continue
                seen.add(key)
                diags.append(Diagnostic(
                    rule="RD003",
                    plan=plan.name,
                    loop=f"{op_p.name}|{op_u.name}",
                    array=resource,
                    message=(
                        f"pack {op_p.name!r} (epoch {op_p.epoch}) "
                        f"rewrites {resource!r} before unpack "
                        f"{op_u.name!r} (epoch {op_u.epoch}) drains "
                        "the in-flight zero-copy payload"
                    ),
                    details={
                        "ops": sorted((op_p.name, op_u.name)),
                        "resource": resource,
                        "pack_epoch": op_p.epoch,
                        "unpack_epoch": op_u.epoch,
                        "fix": "order the repack after the matching "
                               "unpack, or double-buffer",
                    },
                ))
    return diags


# -- RD005: order-sensitive ops without a tolerance contract ----------
def _check_reductions(plan) -> list:
    """Any op *declared* order-sensitive — a collective reduction, or
    a compute pass whose scatter-accumulate order changes under
    renumbering — must carry an explicit tolerance contract."""
    diags = []
    for op in plan.ops:
        if op.kind not in (OpKind.REDUCE, OpKind.COMPUTE):
            continue
        if not op.order_sensitive or op.tolerance is not None:
            continue
        what = (
            "reduction" if op.kind is OpKind.REDUCE
            else "compute pass"
        )
        diags.append(Diagnostic(
            rule="RD005",
            plan=plan.name,
            loop=op.name,
            array=",".join(a.resource for a in op.accesses),
            message=(
                f"{what} {op.name!r} is order-sensitive (float "
                "summation order differs across rank counts or mesh "
                "renumberings) but declares no tolerance contract — "
                "results are not reproducible across decompositions"
            ),
            details={
                "op": op.name,
                "fix": "declare tolerance=... (the explicit contract) "
                       "or use an order-invariant evaluation "
                       "(reference backend / fixed-order summation)",
            },
        ))
    return diags


# ---------------------------------------------------------------------------
# The step plan of a real DistributedDycore: one op vocabulary
# ---------------------------------------------------------------------------
# What each driver phase reads and writes is stated here once;
# :func:`build_step_plan` (declared, from the schedule table) and
# :meth:`repro.analysis.sanitizer.RunObserver.to_plan` (observed,
# from the span stream) both assemble their plans from these.


def _rank_fields(rank: int, fields, mode: str) -> list:
    return [Access(f"rank{rank}.{f}", mode=mode) for f in fields]


def pack_op(ann: dict, rank: int, nbr: int, epoch: int) -> PlanOp:
    """The driver gathers ``rank``'s send sets into the pair's buffer."""
    pair = ann[(rank, nbr)]
    return PlanOp(
        name=f"e{epoch}.pack.{rank}to{nbr}", kind=OpKind.PACK, lane=DRIVER,
        epoch=epoch,
        accesses=[Access(pair["buffer"], mode="w")] + [
            Access(f"rank{rank}.{f}", mode="r", indices=idx)
            for f, idx in pair["sends"].items()
        ],
    )


def unpack_op(ann: dict, rank: int, nbr: int, epoch: int) -> tuple:
    """The driver scatters ``nbr``'s payload into ``rank``'s recv sets.

    Returns the op and its message-delivery edge (matching pack -> it).
    """
    op = PlanOp(
        name=f"e{epoch}.unpack.{rank}from{nbr}", kind=OpKind.UNPACK,
        lane=DRIVER, epoch=epoch,
        accesses=[Access(ann[(nbr, rank)]["buffer"], mode="r")] + [
            Access(f"rank{rank}.{f}", mode="w", indices=idx)
            for f, idx in ann[(rank, nbr)]["recvs"].items()
        ],
    )
    return op, (f"e{epoch}.pack.{nbr}to{rank}", op.name)


def round_ops(label: str, nranks: int, fields: list, stage: int = 0) -> list:
    """One executor round: barrier, a COMPUTE per rank lane, barrier.

    Every rank reads its prognostics and ``phi_surface`` and rewrites
    its prognostics in place: an RK stage (its base and tendencies are
    private to the rank) or the sponge.
    """
    ops = [PlanOp(name=f"{label}.begin", kind=OpKind.BARRIER, stage=stage)]
    for r in range(nranks):
        ops.append(PlanOp(
            name=f"{label}.rank{r}", kind=OpKind.COMPUTE, lane=r, stage=stage,
            accesses=_rank_fields(r, fields + ["phi_surface"], "r")
            + _rank_fields(r, fields, "w"),
        ))
    ops.append(PlanOp(name=f"{label}.end", kind=OpKind.BARRIER, stage=stage))
    return ops


def driver_plan(driver, name: str, ops: list, edges: list) -> ParallelPlan:
    """``ops``/``edges`` plus the live driver's arena layout and halo
    recv sets."""
    return ParallelPlan(
        name=name, ops=ops, edges=edges, arena=driver.arena_layout(),
        halo_recv={
            f"rank{rank}.{fname}": idx for (rank, fname), idx
            in driver._exchanger.halo_recv_union().items()
        },
    )


def build_step_plan(driver, name: str = "rk_step") -> ParallelPlan:
    """Derive the :class:`ParallelPlan` of one RK step of ``driver``.

    Exchange pack/unpack loops run on the :data:`DRIVER` lane; the RK
    stages (and the sponge) run on rank lanes bracketed by the
    executor's broadcast/reply barriers.  The stage sequence is
    :data:`repro.dycore.solver.SSP_RK3` — the table the driver itself
    steps through: stage ``k`` exchanges, then runs one round.

    Index sets come from the compiled
    :class:`~repro.parallel.exchange.ExchangePlan`\\ s; arena byte
    extents from :meth:`DistributedDycore.arena_layout`.
    """
    # Imported lazily: repro.dycore.kernels imports repro.analysis.access.
    from repro.dycore.solver import SSP_RK3

    if driver._exchanger is None:
        raise RuntimeError("scatter a state first (no exchanger compiled)")
    ann = driver._exchanger.access_annotations()
    fields = list(driver._exchanger.registered_fields())
    nranks = driver.nparts
    ops: list[PlanOp] = []
    edges: list[tuple] = []

    def add_exchange(epoch: int) -> None:
        ops.extend(pack_op(ann, rank, nbr, epoch) for rank, nbr in sorted(ann))
        for rank, nbr in sorted(ann):
            op, edge = unpack_op(ann, rank, nbr, epoch)
            ops.append(op)
            edges.append(edge)

    for stage in range(1, len(SSP_RK3) + 1):
        add_exchange(epoch=stage)
        ops.extend(round_ops(f"stage.s{stage}", nranks, fields, stage))
    if driver.config.sponge_levels > 0:
        add_exchange(epoch=len(SSP_RK3) + 1)
        ops.extend(round_ops("sponge", nranks, fields, len(SSP_RK3) + 1))
    return driver_plan(driver, name, ops, edges)
