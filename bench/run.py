"""The one end-to-end benchmark.

    python3 bench/run.py [--workload NAME] [--seed N] [--rounds R | --seconds S]
                         [--trace [0|1]] [--quick] [--out FILE]

(equivalently ``PYTHONPATH=src python -m bench.run``).  Sets up the
selected workloads (all four by default), runs them round-robin — one
sample of each per round, so every workload's samples span the whole run
— checks every output, prints every metric by name with its unit, and
writes the results.  End-to-end timings are the *best round*; see
``bench/README.md`` for why.

``--trace`` adds a separate traced pass: two more rounds with
``bench/spans.py`` recording a span around each call into a layer, then
the isolated layer probes.  It fills the per-layer table and writes the
spans as Chrome trace-event JSON beside the results.  End-to-end metrics
always come from the untraced rounds.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``); with
more than one workload selected the metric keys read ``workload:name``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _bootstrap() -> None:
    """Put this checkout's ``src`` (and root, for ``bench``) first on the
    path; refuse to run against any other copy of the program."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing\n")
        raise SystemExit(2)
    for p in (str(ROOT), str(ROOT / "src")):
        if p in sys.path:
            sys.path.remove(p)
        sys.path.insert(0, p)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run only this workload (default: all four)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, help="untraced rounds (default 6; 2 with --quick)")
    ap.add_argument("--seconds", type=float,
                    help="stop the untraced rounds once they have sampled this long")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--quick", action="store_true",
                    help="smoke sizes: 2 rounds, G3 everywhere, small net, 2 s serve rounds")
    ap.add_argument("--out", type=Path, default=BENCH_DIR / "out" / "results.json")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _bootstrap()
    from bench.driver import run_benchmark

    return run_benchmark(args)


if __name__ == "__main__":
    raise SystemExit(main())
