"""``repro.faults`` -- deterministic fault injection for chaos testing.

The resilience layer (retries, worker supervision, admission control,
journal recovery) only earns trust when its failure paths are *exercised*,
not just written.  This package provides seeded, reproducible injection
points that the service stack calls at the moments real systems break:

* ``task-crash`` -- kill the worker thread that claimed a job, mid-job
  (exercises the supervisor requeue + respawn path);
* ``slow-task`` -- stall a job's execution by a configured delay
  (exercises timeouts, client result long-polls and stuck-job detection);
* ``cache-write-failure`` -- fail an atomic cache/store write with
  ``OSError`` (exercises the best-effort cache contract: a full disk must
  cost a future cache miss, never a failed job);
* ``journal-torn-write`` -- persist only a prefix of one journal line, the
  artifact a crash mid-append leaves (exercises torn-tail repair, replay
  skipping and ``repro doctor``'s torn-line classification);
* ``manifest-torn-write`` -- the same for one line of the result store's
  manifest (exercises the store's rebuild of its index from the segments).

Injection is **off by default and free when off**: every injection point is
a module-global ``None`` check.  Chaos runs activate it via
:func:`repro.faults.injector.install` (tests), the ``REPRO_FAULTS`` /
``REPRO_FAULTS_SEED`` environment variables, or ``repro serve --faults``.
Decisions are drawn from per-rule seeded RNGs, so a chaos run is
reproducible: the same spec, seed and hit sequence fires the same faults.

This package sits *below* the runtime and service layers (they import it;
it imports only :mod:`repro.exceptions` and :mod:`repro.obs.metrics`).
"""

from repro.faults.injector import (
    FAULT_KINDS,
    FaultInjector,
    FaultRule,
    InjectedFaultError,
    InjectedWorkerCrash,
    active,
    install,
    install_from_env,
    maybe_inject,
    parse_fault_spec,
    torn_write_armed,
    uninstall,
)

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
