"""Retry/backoff policies and the fault-containment configuration.

A sweep's failure behaviour is one immutable object:
:class:`ResiliencePolicy` bundles a per-scenario :class:`RetryPolicy`
(attempts, capped exponential backoff with *deterministic* jitter,
retryable-vs-fatal classification) with the containment mode
(``on_error``), the per-scenario soft timeout the parallel watchdog
enforces, and the pool-respawn budget.

Determinism is a design constraint, not an afterthought: backoff jitter
is derived from a seeded hash of ``(seed, scenario key, attempt)``, so
two runs of the same sweep with the same policy retry at identical
delays — the chaos test suite depends on this to reproduce failures
bit-for-bit.

This module imports nothing from the estimator stack, so policies are
cheap to construct and to ship to worker processes.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Optional, Tuple, Type


class TransientSweepError(RuntimeError):
    """A failure worth retrying (infrastructure flake, injected fault)."""


class FatalSweepError(RuntimeError):
    """A failure retrying cannot fix; never retried regardless of policy."""


class WorkerLostError(TransientSweepError):
    """A pool worker died or hung while evaluating the scenario."""

    sweep_error_code = "worker-lost"


class ScenarioTimeoutError(TransientSweepError):
    """The scenario's group exceeded its soft deadline."""

    sweep_error_code = "timeout"


#: Containment modes: record structured error rows, or re-raise (legacy).
ON_ERROR_MODES = ("record", "raise")


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) a failed scenario evaluation is retried.

    Attributes:
        max_attempts: Total attempts per scenario (``1`` = no retries).
        backoff_base_s: Delay before the first retry.
        backoff_factor: Multiplier applied per further retry.
        backoff_max_s: Cap on the un-jittered delay.
        jitter: Maximum extra delay as a fraction of the base delay
            (``0.1`` = up to +10 %), derived deterministically from
            ``seed``/key/attempt — not from a live RNG.
        seed: Jitter seed; two runs with equal seeds back off identically.
        retryable: Extra exception types treated as transient.  When
            non-empty, *only* these (plus :class:`TransientSweepError`)
            are retried; when empty, everything non-fatal is.
        fatal: Exception types never retried (checked before
            ``retryable``; :class:`FatalSweepError` is always fatal).
    """

    max_attempts: int = 1
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    retryable: Tuple[Type[BaseException], ...] = ()
    fatal: Tuple[Type[BaseException], ...] = ()

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def classify(self, exc: BaseException) -> bool:
        """True when ``exc`` is worth another attempt under this policy."""
        if isinstance(exc, FatalSweepError) or isinstance(exc, self.fatal):
            return False
        if isinstance(exc, TransientSweepError):
            return True
        if self.retryable:
            return isinstance(exc, self.retryable)
        return True

    def delay_s(self, attempt: int, key: str = "") -> float:
        """Backoff before retrying after failed attempt number ``attempt``.

        Capped exponential plus a deterministic jitter fraction hashed
        from ``(seed, key, attempt)`` — typically ``key`` is the scenario
        id, so each scenario jitters differently but reproducibly.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter <= 0 or base <= 0:
            return base
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + self.jitter * fraction)


@dataclasses.dataclass(frozen=True)
class ResiliencePolicy:
    """Fault-containment configuration of a sweep run.

    Attributes:
        retry: Per-scenario retry/backoff policy.
        on_error: ``"record"`` captures a raising scenario as a structured
            error record in the result store and continues; ``"raise"``
            propagates the exception (aborting the sweep, after retries
            are exhausted).
        scenario_timeout_s: Soft per-scenario deadline.  Enforced by the
            parallel watchdog (``jobs > 1``): a scenario *group* whose
            wall-clock exceeds ``timeout x group size + grace`` has its
            pool declared hung, its in-flight groups requeued and the
            pool respawned.  Ignored on serial runs (nothing can
            interrupt an in-process evaluation safely).
        max_pool_respawns: How many times a dead/hung worker pool is
            rebuilt before the still-unevaluated scenarios are given up
            as ``worker-lost`` error records (or raised, per
            ``on_error``) — a crash-looping plugin degrades the sweep
            instead of wedging it forever.
        timeout_grace_s: Slack added to every group deadline to absorb
            scheduling and pickling overhead.
    """

    retry: RetryPolicy = RetryPolicy()
    on_error: str = "record"
    scenario_timeout_s: Optional[float] = None
    max_pool_respawns: int = 2
    timeout_grace_s: float = 5.0

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {self.on_error!r}"
            )
        if self.scenario_timeout_s is not None and self.scenario_timeout_s <= 0:
            raise ValueError(
                f"scenario_timeout_s must be > 0, got {self.scenario_timeout_s}"
            )
        if self.max_pool_respawns < 0:
            raise ValueError(
                f"max_pool_respawns must be >= 0, got {self.max_pool_respawns}"
            )
        if self.timeout_grace_s < 0:
            raise ValueError(
                f"timeout_grace_s must be >= 0, got {self.timeout_grace_s}"
            )
