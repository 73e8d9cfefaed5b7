"""Dynamic race sanitizer: replay of a parallel plan's observed accesses.

The static RD checker (:mod:`repro.analysis.races`) can only *suspect*
a race — a conservatively declared whole-array write might really touch
a disjoint index set.  This module settles it, the same static/dynamic
split as the SWGOMP sanitizer:

* :class:`RaceReplay` runs the static checker's own conflict pass
  (:func:`~repro.analysis.races.unordered_conflicts`, ordering from the
  same :class:`HappensBefore`) over the *observed* index sets
  (:meth:`Access.runtime_indices`), then walks the schedule once for
  the three checks that need state: halo freshness (an unpack
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
  executor EXEC_ROUND barriers, driver save/apply spans) out of the same
  op constructors the declared step plan uses, and replays it — the
  chaos-free ``workers=2`` CI run must come back with zero race events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostics import CONFIRMED, FALSE_POSITIVE
from repro.analysis.parallel_plan import HappensBefore, OpKind, ParallelPlan
from repro.analysis.races import (
    apply_op,
    driver_plan,
    pack_op,
    round_ops,
    save_op,
    unordered_conflicts,
    unpack_op,
)
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
    """Replay a plan's schedule over its observed index sets."""

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
        for rule, resource, writer, other, _, _ in unordered_conflicts(
            plan, HappensBefore(plan), lambda acc: acc.runtime_indices()
        ):
            self._emit(
                rule, (writer.name, other.name), resource,
                "unordered conflicting access observed",
            )

        halo = {r: set(idx) for r, idx in plan.halo_recv.items()}
        fresh: dict = {r: set() for r in halo}
        buf_epoch: dict = {}             # buffer resource -> (epoch, pack op)
        for op in plan.ops:
            if op.kind is OpKind.REDUCE or (
                op.kind is OpKind.COMPUTE and op.order_sensitive
            ):
                self._replay_reduce(op)
            for acc in op.accesses:
                rt = acc.runtime_indices()
                idx = None if rt is None else set(rt)
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
        keys = {(ev.rule, ev.ops, ev.resource) for ev in events}
        for d in diagnostics:
            if not d.rule.startswith("RD"):
                continue
            det = d.details
            if "ops" in det:
                hit = (
                    d.rule, frozenset(det["ops"]), det.get("resource", "")
                ) in keys
            elif "op" in det:
                hit = any(
                    (d.rule, frozenset((det["op"],)), res) in keys
                    for res in (det.get("resource"), d.array)
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

    Turns the per-pair pack/unpack instants (clock edges with their
    exchange epoch), the executors' EXEC_ROUND spans (the barrier
    rounds bracketing the concurrent per-rank evaluations) and the
    driver's save/apply spans into plan ops, in emission order, through
    the declared step plan's own op constructors.
    """

    def __init__(self, driver):
        self.driver = driver
        self._ann = driver._exchanger.access_annotations()
        self._fields = list(driver._exchanger.registered_fields())
        self._ops: list = []
        self._edges: list = []
        self._counts = {"round": 0, "save": 0, "apply": 0}

    def _label(self, what: str) -> str:
        self._counts[what] += 1
        return f"{what}{self._counts[what]}"

    def on_span_open(self, span) -> None:
        ann, fields, nranks = self._ann, self._fields, self.driver.nparts
        args = span.args
        if span.kind in (SpanKind.HALO_PACK, SpanKind.HALO_UNPACK):
            pair = (span.rank, args.get("neighbor"))
            if not span.name.endswith(".pair") or pair not in ann:
                return
            if span.kind is SpanKind.HALO_PACK:
                self._ops.append(pack_op(ann, *pair, args["epoch"]))
            elif pair[::-1] in ann:
                op, edge = unpack_op(ann, *pair, args["epoch"])
                self._ops.append(op)
                if any(o.name == edge[0] for o in self._ops):
                    self._edges.append(edge)
        elif span.kind is SpanKind.EXEC_ROUND:
            kind = args.get("op")
            self._ops.extend(round_ops(
                f"{self._label('round')}.{kind}", nranks, fields,
                args.get("slot") if kind == "tend" else None,
            ))
        elif span.kind is SpanKind.RK_STAGE and args.get("op") == "save":
            self._ops.append(save_op(self._label("save"), nranks, fields))
        elif span.kind is SpanKind.RK_STAGE and args.get("op") == "apply":
            self._ops.append(apply_op(
                self._label("apply"), nranks, fields, args.get("slots", ()),
            ))

    def to_plan(self, name: str = "observed_run") -> ParallelPlan:
        return driver_plan(self.driver, name, self._ops, self._edges)


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
    replays it.  A chaos-free run on the current lockstep
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
