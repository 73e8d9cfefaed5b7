"""The recovery ladder layered over the fault injector.

Four rungs, cheapest first — mirroring how an exascale run actually
stays alive:

1. **Retry with backoff** (:class:`RetryPolicy`) — failed CPE chunks
   re-execute, DMA transfers re-issue, dropped/corrupted halo messages
   retransmit from the sender's persistent plan buffer.  Payload
   integrity is checked with a CRC32 over the wire buffer
   (:func:`payload_crc`).
2. **Graceful degradation** (:class:`ResilientPhysics`) — when the ML
   physics returns non-finite tendencies, or the tendency ensemble's
   member spread exceeds its trust threshold, the step falls back to
   the conventional column suite (the paper's coexistence of both
   suites is exactly what makes this ladder possible).
3. **Checkpoint/rollback** (:class:`CheckpointStore`) — periodic model
   snapshots; an unrecoverable step failure (:class:`StepFailure`)
   rolls back and re-integrates.
4. **Abort** (:class:`RetryExhausted`) — bounded retries keep a truly
   broken substrate from spinning forever.

Everything here is deterministic: retries re-execute the same pure
computation, retransmits resend the same bytes, and rollback restores
bit-exact state, so a faulted run is reproducible end to end.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from repro.obs import SpanKind, get_metrics, get_tracer
from repro.resilience.faults import FaultKind, get_injector


class StepFailure(RuntimeError):
    """A model step produced an unusable state (non-finite fields, or a
    physics failure with no fallback) — recoverable only by rollback."""


class RetryExhausted(RuntimeError):
    """A retry loop hit its attempt bound without succeeding."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff (simulated seconds)."""

    max_attempts: int = 4
    backoff_seconds: float = 1.0e-4
    backoff_factor: float = 2.0

    def backoff(self, attempt: int) -> float:
        """Simulated wait before retry ``attempt`` (1-based)."""
        return self.backoff_seconds * self.backoff_factor ** max(attempt - 1, 0)


def payload_crc(buf: np.ndarray) -> int:
    """CRC32 of a wire buffer (the exchange plans' integrity check)."""
    return zlib.crc32(np.ascontiguousarray(buf).view(np.uint8))


def corrupt_buffer(buf: np.ndarray, payload_seed: int, n_bytes: int) -> None:
    """Flip ``n_bytes`` deterministically chosen bytes of ``buf`` in place
    (the injector's model of an in-flight corruption)."""
    flat = buf.reshape(-1).view(np.uint8)
    if flat.size == 0:
        return
    rng = np.random.default_rng(payload_seed)
    pos = rng.integers(0, flat.size, size=min(n_bytes, flat.size))
    flat[pos] ^= 0xFF


def state_is_finite(state) -> bool:
    """All prognostic fields of a :class:`ModelState` are finite."""
    arrays = [state.ps, state.u, state.theta, state.w, state.phi]
    arrays.extend(state.tracers.values())
    return all(np.isfinite(a).all() for a in arrays)


class CheckpointStore:
    """Rolling in-memory checkpoints for rollback-on-failure.

    Payloads are opaque (the chaos harness snapshots the model state
    plus every mutable side store: surface slab temperature, run
    history lengths, the step counter).  ``keep`` bounds memory the way
    a real run bounds checkpoint storage.
    """

    def __init__(self, keep: int = 3):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.keep = keep
        self._checkpoints: list[tuple[int, dict]] = []
        self.saves = 0
        self.restores = 0

    def __len__(self) -> int:
        return len(self._checkpoints)

    def save(self, step: int, payload: dict) -> None:
        self._checkpoints.append((step, payload))
        del self._checkpoints[: -self.keep]
        self.saves += 1
        get_metrics().inc("resilience.checkpoints")
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant("resilience.checkpoint", SpanKind.CHECKPOINT, step=step)

    def latest(self) -> tuple[int, dict]:
        if not self._checkpoints:
            raise StepFailure("rollback requested but no checkpoint exists")
        self.restores += 1
        get_metrics().inc("recovery.rollback")
        step, payload = self._checkpoints[-1]
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "recovery.rollback", SpanKind.RECOVERY, step=step,
            )
        return step, payload


def _tendencies_finite(tend) -> bool:
    return bool(
        np.isfinite(tend.dtheta).all()
        and np.isfinite(tend.dqv).all()
        and np.isfinite(tend.gsw).all()
        and np.isfinite(tend.glw).all()
    )


#: Member spread-to-signal ratio of the primary's tendency ensemble above
#: which a step degrades to the fallback.
SPREAD_THRESHOLD = 10.0


class ResilientPhysics:
    """The model's physics slot: one suite plus the per-run hooks.

    Wraps a primary suite and an optional fallback suite.  A step
    degrades to the fallback when:

    * the primary's tendencies go non-finite (including an injected
      ``ML_BLOWUP`` fault), or
    * the primary's tendency ensemble reports a member spread-to-signal
      ratio above :data:`SPREAD_THRESHOLD` (ensemble disagreement = the
      extrapolation regime Han et al. 2023 identify as the blow-up
      precursor).

    Before the primary runs, the wrapper snapshots the primary's surface
    slab and the primary itself.  On degradation it restores the slab,
    and hands the primary's snapshot to a fallback of the same class
    (the radiation cadence), so a degraded step is exactly the step the
    fallback suite alone would have taken.

    Three per-run attributes, each set and cleared by its caller:
    ``fallback``; ``injector``, which scopes fault injection to *this*
    suite instance (the serving layer's per-request isolation: a
    poisoned request's injector fires only inside that request's model;
    ``None`` consults the process-wide injector); and ``factors``,
    SPPT-style per-cell multipliers of the thermodynamic and moisture
    tendencies (the ensemble's physics perturbation), applied last,
    after the health check or fallback.  Diagnostics (precip,
    radiation, skin temperature) are reported unscaled.
    """

    def __init__(self, primary, fallback=None, injector=None):
        self.primary = primary
        self.fallback = fallback
        self.injector = injector
        self.factors = None
        self.fallbacks = 0

    def compute_from_coupler(self, state, fields):
        surface = self.primary.surface
        surface_snap, primary_snap = surface.snapshot(), self.primary.snapshot()
        tend = self.primary.compute_from_coupler(state, fields)

        injector = self.injector if self.injector is not None else get_injector()
        blowup = None
        if injector is not None:
            blowup = injector.fire(FaultKind.ML_BLOWUP, site="physics")
            if blowup is not None:
                poisoned = tend.dtheta.copy()
                poisoned[: max(1, poisoned.shape[0] // 16)] = np.nan
                tend = replace(tend, dtheta=poisoned)

        spread = getattr(
            getattr(self.primary, "tendency_net", None),
            "last_max_spread_ratio", 0.0,
        ) or 0.0
        if not (_tendencies_finite(tend) and spread <= SPREAD_THRESHOLD):
            if self.fallback is None:
                raise StepFailure(
                    "physics produced unusable tendencies "
                    f"(finite={_tendencies_finite(tend)}, spread={spread:.2f}) "
                    "and no fallback suite is configured"
                )
            surface.restore(surface_snap)
            if type(self.fallback) is type(self.primary):
                self.fallback.restore(primary_snap)
            tend = self.fallback.compute_from_coupler(state, fields)
            self.fallbacks += 1
            if injector is not None and blowup is not None:
                # recover() publishes the recovery.physics_fallback counter
                # and RECOVERY span itself.
                injector.recover(FaultKind.ML_BLOWUP, "physics_fallback", site="physics")
            else:
                get_metrics().inc("recovery.physics_fallback")
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.instant(
                        "recovery.physics_fallback", SpanKind.RECOVERY,
                        spread=spread,
                    )
            if not _tendencies_finite(tend):
                raise StepFailure("fallback physics also produced non-finite tendencies")
        if self.factors is None:
            return tend
        f = self.factors[:, None]
        return replace(
            tend, dtheta=tend.dtheta * f, dqv=tend.dqv * f,
            dqc=tend.dqc * f, dqr=tend.dqr * f,
        )
