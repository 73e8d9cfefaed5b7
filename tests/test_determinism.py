"""Seeded-determinism regression tests.

The paper's year-scale runs are restartable and auditable only because
the whole stack replays bit-identically from a seed.  These tests pin
that contract at three levels: the coupled model and the chaos harness
(fault-injected *and* zero-fault) — the ``replay`` and ``observer`` rows
of ``tests/contracts.py`` — and the codebase itself (no unseeded RNG
anywhere).
"""

import re
from pathlib import Path

import pytest

from tests import contracts

REPO = Path(__file__).resolve().parent.parent


#: The ``replay`` row's rerun case: state arrays and metrics counters
#: (and a different seed gives a different state).
test_coupled_run_bitwise_deterministic = contracts.collect("replay", replay="rerun")


@pytest.mark.slow
@pytest.mark.chaos
def test_chaos_smoke_recovers_everything_and_replays():
    """The acceptance run: a G3 integration under the smoke plan fires
    one fault of every class, recovers them all, survives, drifts zero
    bits from the fault-free twin, and replays identically."""
    from repro.resilience.chaos import run_chaos

    r1 = run_chaos(plan="smoke", level=3, nlev=8, steps=24, seed=0)
    assert r1["survived"]
    assert r1["rollbacks"] == 0
    assert r1["faults"]["n_unrecovered"] == 0
    # Every fault class of the acceptance criterion fired at least once.
    for kind in ("straggler", "cpe_fail", "dma_error", "msg_drop",
                 "msg_corrupt", "msg_delay", "ml_blowup"):
        assert r1["faults"]["fired"].get(kind, 0) >= 1, kind
    # Every recovery rung that should engage did.
    rec = r1["faults"]["recovered_by_action"]
    assert rec.get("retransmit", 0) >= 1
    assert rec.get("physics_fallback", 0) == 1
    # Bit-exact recovery: zero drift against the fault-free twin.
    assert r1["bitwise_identical"]
    assert r1["drift"] == {
        "ps_max_abs": 0.0, "u_max_abs": 0.0, "theta_max_abs": 0.0,
    }

    r2 = run_chaos(
        plan="smoke", level=3, nlev=8, steps=24, seed=0,
        include_baseline=False,
    )
    assert r2 == {k: r1[k] for k in r2}      # rerun-deterministic report


#: The chaos harness under the empty plan — shadow substrate,
#: checkpoints and all — does not perturb the model by a single bit.
test_zero_fault_chaos_bitwise_identical_to_plain_run = contracts.collect(
    "observer", pytest.mark.slow, pytest.mark.chaos, observer="chaos")

#: Checkpoint -> advance -> restore reproduces the checkpointed
#: trajectory bit-exactly (counters, surface slab, history included).
test_rollback_restores_bitwise = contracts.collect("replay", pytest.mark.chaos,
                                                   replay="rollback")


UNSEEDED_PATTERNS = [
    re.compile(r"default_rng\(\s*\)"),
    re.compile(r"np\.random\.(seed|rand|randn|random|normal|randint)\("),
    re.compile(r"\brandom\.(seed|random|randint|choice|shuffle)\("),
]


def test_no_unseeded_rng_anywhere():
    """Audit pin: every RNG in the codebase takes an explicit seed.

    ``default_rng`` with no argument, the legacy numpy global-state API
    and stdlib ``random`` calls are all process-order dependent; any of
    them silently breaks the replay contract the resilience layer
    depends on.
    """
    offenders = []
    for sub in ("src", "tests", "benchmarks", "examples"):
        root = REPO / sub
        if not root.exists():
            continue
        for path in root.rglob("*.py"):
            text = path.read_text()
            for i, line in enumerate(text.splitlines(), 1):
                for pat in UNSEEDED_PATTERNS:
                    if pat.search(line):
                        offenders.append(f"{path.relative_to(REPO)}:{i}: {line.strip()}")
    assert not offenders, "unseeded RNG found:\n" + "\n".join(offenders)
