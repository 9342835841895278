"""The fault injector: seeded rules, a process-global switch, injection points.

A chaos run is described by a *spec string* -- rules separated by ``;``,
each ``kind:option=value,option=value`` -- for example::

    task-crash:count=2;slow-task:rate=0.3,delay=0.05;journal-torn-write:count=1

Options per rule:

``rate``
    Probability in ``[0, 1]`` that an eligible hit fires, drawn from the
    rule's own seeded RNG (default ``1.0``: every eligible hit fires).
``count``
    Maximum number of fires, process-wide (default unlimited).  ``rate=1``
    plus ``count=N`` fires on exactly the first N eligible hits regardless
    of thread interleaving -- the most reproducible shape.
``after``
    Skip the first N eligible hits before firing becomes possible
    (default 0); lets a chaos run warm up before breaking things.
``delay``
    Seconds to stall for ``slow-task`` rules (default 0.05).
``site``
    Substring filter on the injection-point label; a hit whose site does
    not contain it is not eligible for this rule.

Determinism: each rule draws from ``random.Random(f"{seed}:{index}:{kind}")``
under the injector's lock, so a single-threaded hit sequence is exactly
reproducible and a multi-threaded one is reproducible in *counts* whenever
``rate`` is 0 or 1 (the recommended chaos-suite configuration).
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.exceptions import ConfigurationError, ReproError
from repro.obs.metrics import REGISTRY

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultRule",
    "InjectedFaultError",
    "InjectedWorkerCrash",
    "active",
    "install",
    "install_from_env",
    "maybe_inject",
    "parse_fault_spec",
    "torn_write_armed",
    "uninstall",
]

#: The injection points the stack exposes (see the package docstring).
FAULT_KINDS = (
    "task-crash",
    "slow-task",
    "cache-write-failure",
    "journal-torn-write",
    "manifest-torn-write",
)

ENV_SPEC = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"

_METRIC_INJECTED = REGISTRY.counter(
    "repro_faults_injected_total",
    "Faults fired by the chaos injector, by kind.",
    labelnames=("kind",),
)


class InjectedFaultError(ReproError):
    """A transient failure manufactured by the fault injector.

    Raised for injected I/O-shaped faults; classified as retryable by the
    service's retry policy, exactly like the real ``OSError`` it stands for.
    """


class InjectedWorkerCrash(BaseException):
    """An injected worker-thread death.

    Deliberately **not** an :class:`Exception`: the worker loop's
    job-must-never-kill-a-worker guard catches ``Exception``, and this fault
    exists precisely to kill the worker thread mid-job so the supervisor's
    detect/requeue/respawn path runs.  Only the pool's thread entry point
    catches it (to keep the death quiet on stderr).
    """


@dataclass(frozen=True)
class FaultRule:
    """One armed fault: what fires, how often, and with what parameters."""

    kind: str
    rate: float = 1.0
    count: int | None = None
    after: int = 0
    delay: float = 0.05
    site: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            known = ", ".join(FAULT_KINDS)
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known kinds: {known}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(
                f"fault rate must be in [0, 1], got {self.rate!r}"
            )
        if self.count is not None and self.count < 0:
            raise ConfigurationError(
                f"fault count must be >= 0, got {self.count!r}"
            )
        if self.after < 0:
            raise ConfigurationError(
                f"fault 'after' must be >= 0, got {self.after!r}"
            )
        if self.delay < 0:
            raise ConfigurationError(
                f"fault delay must be >= 0, got {self.delay!r}"
            )


def parse_fault_spec(spec: str) -> list[FaultRule]:
    """Parse a ``kind:opt=val,...;kind:...`` spec string into rules."""
    rules = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, _, option_text = chunk.partition(":")
        kind = kind.strip()
        options: dict[str, Any] = {}
        for pair in option_text.split(","):
            pair = pair.strip()
            if not pair:
                continue
            name, sep, value = pair.partition("=")
            name = name.strip()
            if not sep or not name:
                raise ConfigurationError(
                    f"fault option {pair!r} is not name=value (in {chunk!r})"
                )
            value = value.strip()
            try:
                if name in ("rate", "delay"):
                    options[name] = float(value)
                elif name in ("count", "after"):
                    options[name] = int(value)
                elif name == "site":
                    options[name] = value
                else:
                    raise ConfigurationError(
                        f"unknown fault option {name!r} (in {chunk!r}); "
                        "known: rate, count, after, delay, site"
                    )
            except ValueError as exc:
                raise ConfigurationError(
                    f"fault option {pair!r} has a bad value (in {chunk!r})"
                ) from exc
        rules.append(FaultRule(kind=kind, **options))
    if not rules:
        raise ConfigurationError(f"fault spec {spec!r} contains no rules")
    return rules


class FaultInjector:
    """Seeded decision engine over a set of :class:`FaultRule` instances."""

    def __init__(
        self, rules: Iterable[FaultRule], *, seed: int = 0
    ) -> None:
        self.rules = tuple(rules)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._rngs = [
            random.Random(f"{self.seed}:{index}:{rule.kind}")
            for index, rule in enumerate(self.rules)
        ]
        self._hits = [0] * len(self.rules)
        self._fires = [0] * len(self.rules)

    @classmethod
    def from_spec(cls, spec: str, *, seed: int = 0) -> "FaultInjector":
        return cls(parse_fault_spec(spec), seed=seed)

    def decide(self, kind: str, site: str = "") -> FaultRule | None:
        """Return the first rule of ``kind`` that fires for this hit."""
        with self._lock:
            for index, rule in enumerate(self.rules):
                if rule.kind != kind:
                    continue
                if rule.site is not None and rule.site not in site:
                    continue
                self._hits[index] += 1
                if self._hits[index] <= rule.after:
                    continue
                if rule.count is not None and self._fires[index] >= rule.count:
                    continue
                if rule.rate < 1.0 and self._rngs[index].random() >= rule.rate:
                    continue
                self._fires[index] += 1
                return rule
        return None


# ---------------------------------------------------------------------------
# The process-global switch and the injection-point API.
# ---------------------------------------------------------------------------

_INJECTOR: FaultInjector | None = None


def install(injector: FaultInjector) -> FaultInjector:
    """Arm ``injector`` process-wide; returns it for chaining."""
    global _INJECTOR
    _INJECTOR = injector
    return injector


def uninstall() -> None:
    """Disarm fault injection (injection points become no-ops again)."""
    global _INJECTOR
    _INJECTOR = None


def active() -> bool:
    return _INJECTOR is not None


def install_from_env(environ: Mapping[str, str] | None = None) -> FaultInjector | None:
    """Arm the injector from ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED``.

    Returns the installed injector, or ``None`` when the spec variable is
    unset or empty (nothing is armed).
    """
    environ = os.environ if environ is None else environ
    spec = environ.get(ENV_SPEC, "").strip()
    if not spec:
        return None
    seed_text = environ.get(ENV_SEED, "0").strip() or "0"
    try:
        seed = int(seed_text)
    except ValueError as exc:
        raise ConfigurationError(
            f"{ENV_SEED} must be an integer, got {seed_text!r}"
        ) from exc
    return install(FaultInjector.from_spec(spec, seed=seed))


def maybe_inject(kind: str, site: str = "") -> None:
    """The injection point: act out ``kind`` if a rule fires, else return.

    * ``slow-task`` sleeps for the rule's ``delay`` and returns;
    * ``task-crash`` raises :class:`InjectedWorkerCrash`;
    * ``cache-write-failure`` raises :class:`OSError`;
    * ``journal-torn-write`` and ``manifest-torn-write`` never fire here --
      they need the caller to write partial data, so journal and store
      manifest writers use :func:`torn_write_armed`.
    """
    injector = _INJECTOR
    if injector is None:
        return
    rule = injector.decide(kind, site)
    if rule is None:
        return
    _METRIC_INJECTED.labels(kind=kind).inc()
    if kind == "slow-task":
        time.sleep(rule.delay)
        return
    if kind == "task-crash":
        raise InjectedWorkerCrash(f"injected worker crash at {site or 'job'}")
    if kind == "cache-write-failure":
        raise OSError(f"injected cache write failure at {site or 'cache'}")


def torn_write_armed(site: str = "", kind: str = "journal-torn-write") -> bool:
    """True when a torn-write rule of ``kind`` fires for this append.

    ``kind`` is ``journal-torn-write`` (the job journal) or
    ``manifest-torn-write`` (the result store's manifest).  The caller then
    persists only a prefix of its line -- the artifact an interrupted
    ``write(2)`` leaves -- instead of raising.
    """
    injector = _INJECTOR
    if injector is None:
        return False
    if injector.decide(kind, site) is None:
        return False
    _METRIC_INJECTED.labels(kind=kind).inc()
    return True
