"""Dynamic race sanitizer: vector-clock replay of a parallel plan.

The static RD checker (:mod:`repro.analysis.races`) can only *suspect*
a race — a conservatively declared whole-array write might really touch
a disjoint index set.  This module settles it, the same static/dynamic
split as the SWGOMP sanitizer:

* :class:`RaceReplay` replays a :class:`ParallelPlan` op by op with a
  **vector clock per lane** (rank, worker, or the driver).  Each op's
  clock is the join of its predecessors' (program order, barriers,
  message-delivery edges) plus its own lane tick; two accesses race iff
  neither clock dominates the other and their *observed* index sets
  (:meth:`Access.runtime_indices`) intersect.  On top of the pairwise
  engine it replays three stateful checks: halo freshness (an unpack
  refreshes recv indices, any other write stales them — a COMPUTE
  reading a stale halo index is RD002), pack-buffer content epochs (an
  unpack draining a buffer whose content epoch is not its own is RD003,
  even when fully ordered), and both-ways reduction evaluation (linear
  vs tree summation of a REDUCE op's contributions — a bitwise
  difference without a tolerance contract is RD005).
* :meth:`RaceSanitizer.verify` stamps each static RD diagnostic
  ``CONFIRMED`` when the replay observed the same (rule, ops, resource)
  event and ``FALSE_POSITIVE`` otherwise.
* :func:`sanitize_run` attaches a tracer listener to a **real**
  :class:`~repro.parallel.driver.DistributedDycore` run, rebuilds the
  observed plan from the span stream (per-pair pack/unpack instants,
  executor EXEC_ROUND barriers, driver save/apply spans) with the live
  components' declared index sets, and replays it — the chaos-free
  ``workers=2`` CI run must come back with zero race events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostics import CONFIRMED, FALSE_POSITIVE
from repro.analysis.parallel_plan import (
    DRIVER,
    Access,
    HappensBefore,
    OpKind,
    ParallelPlan,
    PlanOp,
)
from repro.analysis.races import SLOT_COMPONENTS, classify_conflict
from repro.obs import SpanKind, Tracer, set_tracer


@dataclass(frozen=True)
class RaceEvent:
    """One dynamically observed race/determinism violation."""

    rule: str
    ops: frozenset          # one or two op names
    resource: str
    detail: str = ""


def _linear_sum(values) -> float:
    total = 0.0
    for v in values:
        total = total + v
    return total


def _tree_sum(values) -> float:
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        vals = [
            vals[i] + vals[i + 1] if i + 1 < len(vals) else vals[i]
            for i in range(0, len(vals), 2)
        ]
    return vals[0]


class RaceReplay:
    """Replay a plan's schedule with per-lane vector clocks."""

    def __init__(self, plan: ParallelPlan):
        self.plan = plan
        self.events: list[RaceEvent] = []
        self._keys: set = set()

    def _emit(self, rule, ops, resource, detail="") -> None:
        ev = RaceEvent(rule, frozenset(ops), resource, detail)
        key = (ev.rule, ev.ops, ev.resource)
        if key not in self._keys:
            self._keys.add(key)
            self.events.append(ev)

    def run(self) -> list:
        plan = self.plan
        # Predecessor lists encode the same sync structure the static
        # checker reasons over; the replay derives clocks from them.
        preds = HappensBefore(plan).preds
        clocks: list[dict] = []          # per-op vector clock
        lane_tick: dict = {}             # lane -> ticks so far

        alias: dict = {}
        for ra, rb in plan.aliased_resources():
            alias.setdefault(ra, []).append(rb)
            alias.setdefault(rb, []).append(ra)

        # resource -> [(op index, op, access, write?, idx set or None)]
        history: dict = {}
        halo = {r: set(idx) for r, idx in plan.halo_recv.items()}
        fresh: dict = {r: set() for r in halo}
        buf_epoch: dict = {}             # buffer resource -> (epoch, pack op)

        def hb(i: int, j: int) -> bool:
            """Did op i happen-before op j (i earlier in the schedule)?"""
            op_i = plan.ops[i]
            return clocks[j].get(op_i.lane, 0) >= clocks[i][op_i.lane]

        def idx_set(acc: Access):
            rt = acc.runtime_indices()
            return None if rt is None else set(rt)

        def overlap(a, b) -> bool:
            if a is None or b is None:
                return True
            return bool(a & b)

        for i, op in enumerate(plan.ops):
            vc: dict = {}
            for j in preds[i]:
                for lane, t in clocks[j].items():
                    if t > vc.get(lane, 0):
                        vc[lane] = t
            lane_tick[op.lane] = lane_tick.get(op.lane, 0) + 1
            vc[op.lane] = lane_tick[op.lane]
            clocks.append(vc)
            if op.kind is OpKind.BARRIER:
                continue

            if op.kind is OpKind.REDUCE or (
                op.kind is OpKind.COMPUTE and op.order_sensitive
            ):
                self._replay_reduce(op)

            for acc in op.accesses:
                idx = idx_set(acc)
                # Pairwise engine over this resource and its aliases.
                for res, aliased in [(acc.resource, False)] + [
                    (rb, True) for rb in alias.get(acc.resource, ())
                ]:
                    for jprev, op_p, acc_p, w_p, idx_p in history.get(res, ()):
                        if op_p.name == op.name:
                            continue
                        if not (w_p or acc.writes):
                            continue
                        if not aliased and not overlap(idx_p, idx):
                            continue
                        if hb(jprev, i):
                            continue
                        if aliased:
                            ra, rb = sorted((acc.resource, res))
                            self._emit(
                                "RD001", (op_p.name, op.name), f"{ra}~{rb}",
                                "aliased arena extents touched unordered",
                            )
                            continue
                        writer, other, o_writes = (
                            (op, op_p, w_p) if acc.writes
                            else (op_p, op, acc.writes)
                        )
                        self._emit(
                            classify_conflict(writer, other, o_writes),
                            (op_p.name, op.name), res,
                            "unordered conflicting access observed",
                        )
                    if not aliased:
                        history.setdefault(res, []).append(
                            (i, op, acc, acc.writes, idx)
                        )

                self._replay_halo_freshness(op, acc, idx, halo, fresh)
                self._replay_buffer_epoch(op, acc, buf_epoch)
        return self.events

    # -- stateful checks ---------------------------------------------------
    def _replay_halo_freshness(self, op, acc, idx, halo, fresh) -> None:
        res = acc.resource
        if res not in halo:
            return
        h = halo[res]
        if acc.writes:
            written = h if idx is None else (idx & h)
            if op.kind is OpKind.UNPACK:
                fresh[res] |= written
            else:
                fresh[res] -= written
        if acc.reads and op.kind is OpKind.COMPUTE:
            read = h if idx is None else (idx & h)
            stale = read - fresh[res]
            if stale:
                self._emit(
                    "RD002", (op.name,), res,
                    f"{len(stale)} halo indices read stale "
                    f"(e.g. {sorted(stale)[:4]})",
                )

    def _replay_buffer_epoch(self, op, acc, buf_epoch) -> None:
        if op.kind is OpKind.PACK and acc.writes:
            buf_epoch[acc.resource] = (op.epoch, op.name)
        elif op.kind is OpKind.UNPACK and acc.reads:
            content = buf_epoch.get(acc.resource)
            if content is not None and content[0] != op.epoch:
                self._emit(
                    "RD003", (content[1], op.name), acc.resource,
                    f"unpack of epoch {op.epoch} drained epoch "
                    f"{content[0]} content",
                )

    def _replay_reduce(self, op) -> None:
        if not op.order_sensitive or op.tolerance is not None:
            return
        resource = ",".join(a.resource for a in op.accesses)
        if not op.values:
            # Declared order-sensitive with nothing to evaluate: the
            # declaration stands, the hazard is real.
            self._emit("RD005", (op.name,), resource,
                       "order-sensitive op, no tolerance contract")
            return
        lin, tree = _linear_sum(op.values), _tree_sum(op.values)
        if lin != tree:
            self._emit(
                "RD005", (op.name,), resource,
                f"linear={lin!r} != tree={tree!r} "
                "(summation order changes the bits)",
            )


class RaceSanitizer:
    """Replay plans and stamp verdicts onto static RD diagnostics."""

    def replay(self, plan: ParallelPlan) -> list:
        return RaceReplay(plan).run()

    def verify(self, plan: ParallelPlan, diagnostics: list) -> list:
        """CONFIRMED iff the replay observed the same event.

        Matching is on (rule, op set, resource) — the same identity the
        static checker writes into ``details`` — so a conservative
        static suspect whose observed index sets never overlap demotes
        to FALSE_POSITIVE.  Non-RD diagnostics pass through untouched.
        """
        events = self.replay(plan)
        pair_keys, single_keys = set(), set()
        for ev in events:
            if len(ev.ops) == 2:
                pair_keys.add((ev.rule, ev.ops, ev.resource))
            else:
                (op,) = ev.ops
                single_keys.add((ev.rule, op, ev.resource))
        for d in diagnostics:
            if not d.rule.startswith("RD"):
                continue
            det = d.details
            if "ops" in det:
                hit = (
                    d.rule, frozenset(det["ops"]), det.get("resource", "")
                ) in pair_keys
            elif "op" in det:
                hit = (
                    (d.rule, det["op"], det.get("resource")) in single_keys
                    or (d.rule, det["op"], d.array) in single_keys
                )
            else:  # pragma: no cover - RD details always carry op names
                continue
            d.verdict = CONFIRMED if hit else FALSE_POSITIVE
            d.details["observed_events"] = len(events)
        return diagnostics


# ---------------------------------------------------------------------------
# Real-run sanitizing: observed plan from the span stream
# ---------------------------------------------------------------------------

class RunObserver:
    """Tracer listener rebuilding the observed plan of a driver run.

    Consumes the per-pair pack/unpack instants (clock edges with their
    exchange epoch), the executors' EXEC_ROUND spans (the barrier
    rounds bracketing the concurrent per-rank evaluations) and the
    driver's save/apply spans, in emission order.
    """

    def __init__(self, driver):
        self.driver = driver
        self._records: list[tuple] = []
        self._counts = {"save": 0, "apply": 0, "round": 0}

    # Tracer-listener protocol --------------------------------------------
    def on_span_open(self, span) -> None:
        if span.kind is SpanKind.HALO_PACK and span.name.endswith(".pair"):
            self._records.append(
                ("pack", span.rank, span.args["neighbor"], span.args["epoch"])
            )
        elif span.kind is SpanKind.HALO_UNPACK and span.name.endswith(".pair"):
            self._records.append(
                ("unpack", span.rank, span.args["neighbor"], span.args["epoch"])
            )
        elif span.kind is SpanKind.EXEC_ROUND:
            self._records.append(
                ("round", span.args.get("op"), span.args.get("slot"))
            )
        elif span.kind is SpanKind.RK_STAGE:
            op = span.args.get("op")
            if op == "save":
                self._records.append(("save",))
            elif op == "apply":
                self._records.append(("apply", span.args.get("slots", ())))

    # Plan reconstruction --------------------------------------------------
    def to_plan(self, name: str = "observed_run") -> ParallelPlan:
        drv = self.driver
        ann = drv._exchanger.access_annotations()
        fields = list(drv._exchanger.registered_fields())
        read_fields = fields + ["phi_surface"]
        nranks = drv.nparts
        ops: list[PlanOp] = []
        edges: list[tuple] = []
        counts = {"round": 0, "save": 0, "apply": 0}
        for rec in self._records:
            tag = rec[0]
            if tag == "pack":
                _, rank, nbr, epoch = rec
                pair = ann.get((rank, nbr))
                if pair is None:
                    continue
                ops.append(PlanOp(
                    name=f"e{epoch}.pack.{rank}to{nbr}", kind=OpKind.PACK,
                    lane=DRIVER, epoch=epoch,
                    accesses=[Access(pair["buffer"], mode="w")] + [
                        Access(f"rank{rank}.{f}", mode="r", indices=idx)
                        for f, idx in pair["sends"].items()
                    ],
                ))
            elif tag == "unpack":
                _, rank, nbr, epoch = rec
                pair = ann.get((rank, nbr))
                peer = ann.get((nbr, rank))
                if pair is None or peer is None:
                    continue
                uname = f"e{epoch}.unpack.{rank}from{nbr}"
                ops.append(PlanOp(
                    name=uname, kind=OpKind.UNPACK, lane=DRIVER, epoch=epoch,
                    accesses=[Access(peer["buffer"], mode="r")] + [
                        Access(f"rank{rank}.{f}", mode="w", indices=idx)
                        for f, idx in pair["recvs"].items()
                    ],
                ))
                pname = f"e{epoch}.pack.{nbr}to{rank}"
                if any(op.name == pname for op in ops):
                    edges.append((pname, uname))
            elif tag == "round":
                _, kind, slot = rec
                counts["round"] += 1
                label = f"round{counts['round']}.{kind}"
                ops.append(PlanOp(name=f"{label}.begin", kind=OpKind.BARRIER))
                for r in range(nranks):
                    accesses = [
                        Access(f"rank{r}.{f}", mode="r") for f in read_fields
                    ]
                    if kind == "tend" and slot is not None:
                        accesses += [
                            Access(f"rank{r}.slot{slot}.{c}", mode="w")
                            for c in SLOT_COMPONENTS
                        ]
                    else:
                        accesses += [
                            Access(f"rank{r}.{f}", mode="w") for f in fields
                        ]
                    ops.append(PlanOp(
                        name=f"{label}.rank{r}", kind=OpKind.COMPUTE, lane=r,
                        accesses=accesses,
                    ))
                ops.append(PlanOp(name=f"{label}.end", kind=OpKind.BARRIER))
            elif tag == "save":
                counts["save"] += 1
                ops.append(PlanOp(
                    name=f"save{counts['save']}", kind=OpKind.APPLY,
                    lane=DRIVER,
                    accesses=[
                        Access(f"rank{r}.{f}", mode="r")
                        for r in range(nranks) for f in fields
                    ] + [
                        Access(f"rank{r}.saved", mode="w")
                        for r in range(nranks)
                    ],
                ))
            elif tag == "apply":
                _, slots = rec
                counts["apply"] += 1
                accesses = []
                for r in range(nranks):
                    accesses.append(Access(f"rank{r}.saved", mode="r"))
                    for s in slots:
                        accesses += [
                            Access(f"rank{r}.slot{s}.{c}", mode="r")
                            for c in SLOT_COMPONENTS
                        ]
                    accesses += [
                        Access(f"rank{r}.{f}", mode="w") for f in fields
                    ]
                ops.append(PlanOp(
                    name=f"apply{counts['apply']}", kind=OpKind.APPLY,
                    lane=DRIVER, accesses=accesses,
                ))

        halo_recv: dict = {}
        for (rank, fname), idx in drv._exchanger.halo_recv_union().items():
            halo_recv[f"rank{rank}.{fname}"] = tuple(int(i) for i in idx)
        return ParallelPlan(
            name=name, ops=ops, edges=edges,
            arena=drv.arena_layout(), halo_recv=halo_recv,
        )


@dataclass
class RunSanitizeReport:
    """Outcome of sanitizing a real driver run."""

    plan: ParallelPlan
    events: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.events

    def to_dict(self) -> dict:
        return {
            "plan": self.plan.name,
            "ops": len(self.plan.ops),
            "clean": self.clean,
            "events": [
                {
                    "rule": ev.rule,
                    "ops": sorted(ev.ops),
                    "resource": ev.resource,
                    "detail": ev.detail,
                }
                for ev in self.events
            ],
        }


def sanitize_run(driver, steps: int = 1) -> RunSanitizeReport:
    """Step a scattered driver under the observer and replay the result.

    Installs a listener-only tracer (nothing is retained) for the run,
    rebuilds the observed :class:`ParallelPlan` from the span stream and
    vector-clock replays it.  A chaos-free run on the current lockstep
    implementation must report ``clean``.
    """
    if driver._exchanger is None:
        raise RuntimeError("scatter a state first")
    observer = RunObserver(driver)
    tracer = Tracer(enabled=True, record=False)
    tracer.add_listener(observer)
    prev = set_tracer(tracer)
    try:
        driver.run(steps)
    finally:
        set_tracer(prev)
    plan = observer.to_plan()
    return RunSanitizeReport(plan=plan, events=RaceReplay(plan).run())
