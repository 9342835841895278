"""Retry policies: bounded attempts, exponential backoff, deadlines.

A :class:`RetryPolicy` answers two questions for a job that just failed in
a *transient* way (a worker crash, an injected fault, an I/O error):

* **may it run again?** -- ``allows_retry(attempts, age_seconds)``: attempts
  are bounded by ``max_attempts`` (counting every execution start), and the
  job's total wall-clock age is bounded by ``deadline_seconds`` so a job
  cannot retry forever even if each attempt is cheap.  The deadline is
  enforced at retry-decision time (a running attempt is never interrupted):
  it bounds when the *next* attempt may start, not how long one may run.
* **when?** -- ``backoff_delay(attempt, token=...)``: exponential in the
  attempt number, capped at ``max_delay``, with *deterministic jitter*: the
  jitter fraction is derived from ``sha256(token:attempt)``, so two jobs
  retrying after the same crash spread out (no thundering herd) while any
  single job's schedule is exactly reproducible -- the property the seeded
  chaos suite asserts on.

Per-kind defaults live in :data:`~repro.service.scheduler.JOB_TABLE`.  The
policy a job was admitted under is recorded on the job (and therefore in
the journal), so a restarted service honors the budget the job started with
rather than whatever the defaults have become since.
"""

from __future__ import annotations

import hashlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Mapping

from repro.exceptions import ConfigurationError

__all__ = [
    "RetryPolicy",
    "is_transient",
    "transient_reason",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry parameters for one job."""

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError(
                "backoff delays must be >= 0, got "
                f"base={self.base_delay!r} max={self.max_delay!r}"
            )
        if self.max_delay < self.base_delay:
            raise ConfigurationError(
                f"max_delay {self.max_delay!r} < base_delay {self.base_delay!r}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds!r}"
            )

    def allows_retry(self, attempts: int, age_seconds: float) -> bool:
        """May a job that has started ``attempts`` times start once more?"""
        if attempts >= self.max_attempts:
            return False
        if self.deadline_seconds is not None and age_seconds >= self.deadline_seconds:
            return False
        return True

    def backoff_delay(self, attempt: int, *, token: str = "") -> float:
        """Seconds to hold a job back before retry number ``attempt``.

        ``attempt`` counts completed attempts (1 after the first failure).
        The jitter fraction in ``[0.5, 1.0]`` comes from
        ``sha256(token:attempt)``, not a live RNG: deterministic per
        (token, attempt), decorrelated across tokens.
        """
        if attempt < 1:
            attempt = 1
        base = min(self.max_delay, self.base_delay * (2.0 ** (attempt - 1)))
        digest = hashlib.sha256(f"{token}:{attempt}".encode()).hexdigest()
        fraction = int(digest[:8], 16) / 0xFFFFFFFF
        return base * (0.5 + 0.5 * fraction)

    def as_dict(self) -> dict[str, Any]:
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "max_delay": self.max_delay,
            "deadline_seconds": self.deadline_seconds,
        }

    @classmethod
    def from_dict(cls, fields: Mapping[str, Any]) -> "RetryPolicy":
        return cls(
            max_attempts=int(fields.get("max_attempts", 3)),
            base_delay=float(fields.get("base_delay", 0.05)),
            max_delay=float(fields.get("max_delay", 2.0)),
            deadline_seconds=(
                None
                if fields.get("deadline_seconds") is None
                else float(fields["deadline_seconds"])
            ),
        )


# ---------------------------------------------------------------------------
# Transient-failure classification.
# ---------------------------------------------------------------------------

#: Failure shapes worth a retry: environmental, not deterministic.  A job
#: that raises ``ConfigurationError`` (bad params) or a numerical error will
#: fail identically on every attempt and is failed immediately instead.  A
#: task pool child that died breaks its pool; the next batch forks a new one.
_TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    OSError,
    TimeoutError,
    ConnectionError,
    BrokenProcessPool,
)


def is_transient(exc: BaseException) -> bool:
    """Would retrying plausibly change the outcome of this failure?"""
    from repro.faults.injector import InjectedFaultError

    return isinstance(exc, (*_TRANSIENT_TYPES, InjectedFaultError))


def transient_reason(exc: BaseException) -> str:
    """A low-cardinality reason label for the retry metrics."""
    from repro.faults.injector import InjectedFaultError

    if isinstance(exc, InjectedFaultError):
        return "injected-fault"
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, ConnectionError):
        return "connection-error"
    if isinstance(exc, OSError):
        return "os-error"
    if isinstance(exc, BrokenProcessPool):
        return "task-pool-broken"
    return type(exc).__name__
