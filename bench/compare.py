"""Compare two result files of ``bench/run.py``.

    python3 bench/compare.py A.json B.json

Prints one row per (metric, workload) with B's value as a ratio of A's
(the base is always A).  Exits 1 if any end-to-end metric differs by
more than its bound in ``BENCHMARK.json`` — in either direction: two
runs of the same code must *agree* — or if anything that should repeat
exactly (digests, message/byte counts per step, plan compilations,
request class counts) does not.  Per-layer rows are printed when both
files have them and are never gated: they have no bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def compare(a: dict, b: dict, bounds: dict[str, float]) -> tuple[list[str], list[str]]:
    """(report lines, disagreements)."""
    lines = [f"{'metric':<44s} {'workload':<18s} {'A':>14s} {'B':>14s} {'B/A':>8s}  verdict"]
    bad = []
    same_seed = a.get("seed") == b.get("seed")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for table, gated in (("end_to_end", True), ("per_layer", False)):
            for metric, va in wa[table].items():
                vb = wb[table].get(metric)
                if vb is None:
                    continue
                x, y = va["value"], vb["value"]
                ratio = y / x if x else float("nan")
                verdict = ""
                if gated:
                    bound = bounds[metric]
                    ok = abs(ratio - 1.0) <= bound
                    verdict = f"{'ok' if ok else 'DISAGREE'} (bound {bound:g})"
                    if not ok:
                        bad.append(f"{name} {metric}: B/A = {ratio:.4f}, bound {bound:g}")
                lines.append(
                    f"{metric:<44s} {name:<18s} {x:>14.6g} {y:>14.6g} {ratio:>8.4f}  {verdict}")
        if wa["failed"] or wb["failed"]:
            bad.append(f"{name} failed samples: A {wa['failed']}, B {wb['failed']}")
        for key, va in wa["exact"].items():
            if key == "digest" and not same_seed:
                continue        # other inputs, other bits
            vb = wb["exact"].get(key)
            ok = va == vb
            lines.append(f"{key:<44s} {name:<18s} {str(va)[:14]:>14s} {str(vb)[:14]:>14s} "
                         f"{'':>8s}  {'equal' if ok else 'DIFFERENT'}")
            if not ok:
                bad.append(f"{name} {key}: A {va} != B {vb}")
    return lines, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    lines, bad = compare(a, b, load_bounds())
    print("\n".join(lines))
    if bad:
        print("\nresult sets disagree:")
        for msg in bad:
            print(f"  {msg}")
        return 1
    print("\nresult sets agree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
