"""Property-based tests of the compiled ExchangePlan wire format.

Seeded randomised properties in the style of
``test_ldcache_properties.py``: each case draws a random mix of field
dtypes, trailing shapes and registration orders, stales the
exchange-listed entries, and checks the invariants any aggregated
exchange must satisfy:

* **Exact round-trip** — every recv-listed entry is restored bit-exactly
  in its own dtype (no up/downcasts anywhere in the payload path);
* **Byte accounting** — ``bytes_sent`` equals the sum of per-field
  ``itemsize x width x index-count`` over all (rank, neighbour) pairs;
* **Plan reuse** — repeated exchanges never recompile nor reallocate
  the wire buffers.
"""

import numpy as np
import pytest

from repro.comm.message import Communicator
from repro.parallel.exchange import EdgeCellExchanger
from repro.parallel.localmesh import build_local_meshes
from repro.partition.decomposition import decompose
from repro.partition.graph import mesh_cell_graph
from repro.partition.metis import partition_graph

DTYPES = [np.float64, np.float32, np.int64, np.int32]
TRAILINGS = [(), (5,), (2, 3)]


def _locals(mesh, nparts, seed=0):
    part = partition_graph(mesh_cell_graph(mesh), nparts, seed=seed)
    return build_local_meshes(mesh, decompose(mesh, nparts, part=part), part)


def _random_fields(rng, n_fields):
    """Draw (name, kind, dtype, trailing) specs in random order."""
    fields = []
    for i in range(n_fields):
        fields.append((
            f"f{i}",
            "cell" if rng.random() < 0.7 else "edge",
            DTYPES[int(rng.integers(len(DTYPES)))],
            TRAILINGS[int(rng.integers(len(TRAILINGS)))],
        ))
    rng.shuffle(fields)
    return fields


def _build(mesh, locals_, fields, rng):
    """Register random-valued per-rank arrays; returns (ex, arrays, refs)."""
    ex = EdgeCellExchanger(locals_, Communicator(len(locals_)))
    arrays, refs = {}, {}
    for name, kind, dtype, trailing in fields:
        n = mesh.nc if kind == "cell" else mesh.ne
        if np.issubdtype(dtype, np.floating):
            g = rng.normal(size=(n,) + trailing).astype(dtype)
        else:
            g = rng.integers(-1000, 1000, size=(n,) + trailing).astype(dtype)
        per_rank = [
            (lm.scatter_cell_field(g) if kind == "cell"
             else lm.scatter_edge_field(g))
            for lm in locals_
        ]
        (ex.register_cell if kind == "cell" else ex.register_edge)(
            name, per_rank
        )
        arrays[name] = (kind, per_rank)
        refs[name] = [a.copy() for a in per_rank]
    return ex, arrays, refs


def _stale_recv_entries(locals_, arrays, fill=-99):
    """Overwrite every recv-listed entry so the exchange must restore it."""
    for lm in locals_:
        for name, (kind, per_rank) in arrays.items():
            recv = lm.cell_recv if kind == "cell" else lm.edge_recv
            for idx in recv.values():
                per_rank[lm.rank][idx] = fill


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("nparts", [2, 3])
def test_random_field_mix_round_trips_exactly(mesh_g1, seed, nparts):
    rng = np.random.default_rng([seed, nparts])
    locals_ = _locals(mesh_g1, nparts)
    fields = _random_fields(rng, n_fields=int(rng.integers(1, 6)))
    ex, arrays, refs = _build(mesh_g1, locals_, fields, rng)
    _stale_recv_entries(locals_, arrays)
    ex.exchange()
    for name, (kind, per_rank) in arrays.items():
        for got, ref in zip(per_rank, refs[name]):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref), name


@pytest.mark.parametrize("seed", range(4))
def test_bytes_sent_equals_per_field_itemsize_sum(mesh_g1, seed):
    rng = np.random.default_rng(seed)
    locals_ = _locals(mesh_g1, 2)
    fields = _random_fields(rng, n_fields=4)
    ex, arrays, _ = _build(mesh_g1, locals_, fields, rng)
    ex.exchange()

    expected = 0
    for lm in locals_:
        for name, (kind, per_rank) in arrays.items():
            arr = per_rank[lm.rank]
            width = int(np.prod(arr.shape[1:], dtype=np.int64)) or 1
            send = lm.cell_send if kind == "cell" else lm.edge_send
            for idx in send.values():
                expected += idx.size * width * arr.dtype.itemsize
    assert ex.comm.stats.bytes_sent == expected
    assert ex.bytes_per_exchange() == expected
    # One aggregated message per (rank, neighbour) pair, regardless of
    # the number of registered fields.
    assert ex.comm.stats.messages == ex.messages_per_exchange()


@pytest.mark.parametrize("seed", range(4))
def test_plan_reuse_never_recompiles_nor_reallocates(mesh_g1, seed):
    rng = np.random.default_rng(seed)
    locals_ = _locals(mesh_g1, 2)
    fields = _random_fields(rng, n_fields=3)
    ex, arrays, _ = _build(mesh_g1, locals_, fields, rng)
    ex.exchange()
    assert ex.plan_compilations == 1
    buffer_ids = {k: id(p.send_buffer) for k, p in ex.plans.items()}
    for _ in range(5):
        ex.exchange()
    assert ex.plan_compilations == 1
    assert {k: id(p.send_buffer) for k, p in ex.plans.items()} == buffer_ids

    # New values written in place keep the compiled plans valid...
    name, (kind, per_rank) = next(iter(arrays.items()))
    for a in per_rank:
        a[...] = rng.normal(size=a.shape).astype(a.dtype)
    ex.exchange()
    assert ex.plan_compilations == 1
    # ...while re-registering with another dtype forces exactly one
    # recompile.
    if per_rank[0].dtype != np.float64:
        register = ex.register_cell if kind == "cell" else ex.register_edge
        register(name, [a.astype(np.float64) for a in per_rank])
        ex.exchange()
        assert ex.plan_compilations == 2


@pytest.mark.parametrize("seed", range(2))
def test_replace_keeps_race_annotations_and_verdicts_stable(mesh_g1, seed):
    """Race-annotation property: replacing a field's values mid-run
    (in place, as the driver's re-scatter does) must recompile nothing,
    leave ``access_annotations()`` (the index sets the RD analyzer
    reasons over) byte-identical, and therefore keep the RD002/RD003
    verdicts of a plan built from them unchanged."""
    from repro.analysis.parallel_plan import (
        DRIVER,
        Access,
        OpKind,
        ParallelPlan,
        PlanOp,
    )
    from repro.analysis.races import analyze_parallel_plan
    from repro.analysis.sanitizer import RaceReplay, verify

    def snapshot(ex):
        out = {}
        for pair, ann in ex.access_annotations().items():
            out[pair] = (
                ann["buffer"],
                {f: tuple(idx) for f, idx in ann["sends"].items()},
                {f: tuple(idx) for f, idx in ann["recvs"].items()},
            )
        return out

    def racy_plan(ex):
        """A halo read racing its unpack plus an in-flight repack, built
        from the exchanger's own annotations."""
        (rank, nbr), ann = sorted(ex.access_annotations().items())[0]
        peer = ex.access_annotations()[(nbr, rank)]
        fname = sorted(ann["recvs"])[0]
        recv_idx = ann["recvs"][fname]
        ops = [
            PlanOp(name="e1.pack", kind=OpKind.PACK, lane=DRIVER, epoch=1,
                   accesses=[Access(peer["buffer"], mode="w")]),
            PlanOp(name="e1.unpack", kind=OpKind.UNPACK, lane=DRIVER,
                   epoch=1,
                   accesses=[Access(peer["buffer"], mode="r"),
                             Access(f"rank{rank}.{fname}", mode="w",
                                    indices=recv_idx)]),
            # Concurrent consumer: no barrier separates it.
            PlanOp(name="tend", kind=OpKind.COMPUTE, lane=rank,
                   accesses=[Access(f"rank{rank}.{fname}", mode="r")]),
            # Next epoch's repack with no drain edge.
            PlanOp(name="e2.pack", kind=OpKind.PACK, lane=0, epoch=2,
                   accesses=[Access(peer["buffer"], mode="w")]),
        ]
        return ParallelPlan(
            name="mid_run", ops=ops, edges=[("e1.pack", "e1.unpack")],
            halo_recv={f"rank{rank}.{fname}": recv_idx},
        )

    def verdicts(ex):
        plan = racy_plan(ex)
        diags = verify(analyze_parallel_plan(plan), *RaceReplay(plan).observe())
        return sorted((d.rule, d.verdict) for d in diags)

    rng = np.random.default_rng(seed)
    locals_ = _locals(mesh_g1, 2)
    fields = _random_fields(rng, n_fields=3)
    ex, arrays, _ = _build(mesh_g1, locals_, fields, rng)
    ex.exchange()

    before_ann = snapshot(ex)
    before = verdicts(ex)
    rules = {r for r, _ in before}
    assert {"RD002", "RD003"} <= rules
    assert all(v == "CONFIRMED" for _, v in before)

    # Mid-run in-place replacement: nothing recompiles, the
    # annotations and the verdicts are bitwise stable.
    compilations = ex.plan_compilations
    name, (kind, per_rank) = next(iter(arrays.items()))
    for a in per_rank:
        a[...] = rng.normal(size=a.shape).astype(a.dtype)
    ex.exchange()
    assert ex.plan_compilations == compilations
    assert snapshot(ex) == before_ann
    assert verdicts(ex) == before
