"""Unit tests for the deterministic fault injector and the retry policies."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.faults import (
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
from repro.service.jobs import Job
from repro.service.retry import RetryPolicy, is_transient, transient_reason
from repro.service.scheduler import JOB_TABLE, retry_policy


@pytest.fixture(autouse=True)
def _clean_injector():
    """Every test starts and ends with fault injection disarmed."""
    uninstall()
    yield
    uninstall()


class TestSpecParsing:
    def test_full_spec(self):
        rules = parse_fault_spec(
            "task-crash:count=2;slow-task:rate=0.3,delay=0.01,after=5;"
            "journal-torn-write:count=1,site=journal"
        )
        assert [rule.kind for rule in rules] == [
            "task-crash", "slow-task", "journal-torn-write",
        ]
        assert rules[0].count == 2 and rules[0].rate == 1.0
        assert rules[1].rate == 0.3 and rules[1].delay == 0.01
        assert rules[1].after == 5
        assert rules[2].site == "journal"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            parse_fault_spec("disk-on-fire:count=1")

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault option"):
            parse_fault_spec("task-crash:boom=1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError, match="bad value"):
            parse_fault_spec("slow-task:delay=soon")

    def test_malformed_pair_rejected(self):
        with pytest.raises(ConfigurationError, match="not name=value"):
            parse_fault_spec("task-crash:count")

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="no rules"):
            parse_fault_spec(" ; ")

    def test_rule_validation(self):
        with pytest.raises(ConfigurationError, match="rate"):
            FaultRule(kind="task-crash", rate=1.5)
        with pytest.raises(ConfigurationError, match="count"):
            FaultRule(kind="task-crash", count=-1)
        with pytest.raises(ConfigurationError, match="delay"):
            FaultRule(kind="slow-task", delay=-0.1)


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        decisions = []
        for _ in range(2):
            injector = FaultInjector.from_spec("task-crash:rate=0.5", seed=42)
            decisions.append(
                [injector.decide("task-crash") is not None for _ in range(50)]
            )
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_different_seed_different_decisions(self):
        first = FaultInjector.from_spec("task-crash:rate=0.5", seed=1)
        second = FaultInjector.from_spec("task-crash:rate=0.5", seed=2)
        assert [first.decide("task-crash") is not None for _ in range(64)] != [
            second.decide("task-crash") is not None for _ in range(64)
        ]

    def test_count_caps_fires(self):
        injector = FaultInjector.from_spec("task-crash:count=2")
        fired = [injector.decide("task-crash") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_after_skips_warmup_hits(self):
        injector = FaultInjector.from_spec("task-crash:after=3,count=1")
        fired = [injector.decide("task-crash") is not None for _ in range(5)]
        assert fired == [False, False, False, True, False]

    def test_site_filter(self):
        injector = FaultInjector.from_spec("task-crash:site=worker-1")
        assert injector.decide("task-crash", "repro-worker-0:sweep") is None
        assert injector.decide("task-crash", "repro-worker-1:sweep") is not None

    def test_kind_isolation(self):
        injector = FaultInjector.from_spec("task-crash:count=1")
        assert injector.decide("slow-task") is None
        # The other kind's hit left the rule's one fire unspent.
        assert injector.decide("task-crash") is not None


class TestGlobalSwitch:
    def test_off_by_default(self):
        assert not active()
        maybe_inject("task-crash")  # no injector: must be a no-op
        assert not torn_write_armed()

    def test_install_uninstall(self):
        injector = FaultInjector.from_spec("task-crash:count=1")
        assert install(injector) is injector and active()
        uninstall()
        assert not active()
        maybe_inject("task-crash")  # disarmed: a no-op

    def test_task_crash_raises_worker_crash(self):
        install(FaultInjector.from_spec("task-crash:count=1"))
        with pytest.raises(InjectedWorkerCrash):
            maybe_inject("task-crash", site="test")
        maybe_inject("task-crash", site="test")  # count exhausted

    def test_injected_worker_crash_evades_exception_guard(self):
        # The whole point of the BaseException subclass: a worker loop's
        # `except Exception` job guard must NOT swallow the crash.
        assert not issubclass(InjectedWorkerCrash, Exception)

    def test_cache_write_failure_raises_oserror(self):
        install(FaultInjector.from_spec("cache-write-failure:count=1"))
        with pytest.raises(OSError, match="injected cache write failure"):
            maybe_inject("cache-write-failure", site="test")

    def test_slow_task_sleeps_and_returns(self):
        install(FaultInjector.from_spec("slow-task:count=1,delay=0.01"))
        maybe_inject("slow-task", site="test")  # must not raise

    def test_torn_write_armed(self):
        install(FaultInjector.from_spec("journal-torn-write:count=1"))
        assert torn_write_armed(site="journal:a") is True
        assert torn_write_armed(site="journal:b") is False

    def test_install_from_env(self):
        injector = install_from_env(
            {"REPRO_FAULTS": "task-crash:count=3", "REPRO_FAULTS_SEED": "7"}
        )
        assert injector is not None and injector.seed == 7
        assert active() and [rule.count for rule in injector.rules] == [3]

    def test_install_from_env_empty_is_noop(self):
        assert install_from_env({}) is None
        assert not active()

    def test_install_from_env_bad_seed(self):
        with pytest.raises(ConfigurationError, match="REPRO_FAULTS_SEED"):
            install_from_env(
                {"REPRO_FAULTS": "task-crash:count=1", "REPRO_FAULTS_SEED": "x"}
            )


class TestRetryPolicy:
    def test_attempt_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows_retry(1, 0.0) and policy.allows_retry(2, 0.0)
        assert not policy.allows_retry(3, 0.0)

    def test_deadline(self):
        policy = RetryPolicy(max_attempts=10, deadline_seconds=60.0)
        assert policy.allows_retry(1, 59.0)
        assert not policy.allows_retry(1, 60.0)

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0)
        delays = [policy.backoff_delay(n, token="job-1") for n in (1, 2, 3, 10)]
        # Jitter keeps each delay within [0.5, 1.0] x the uncapped base.
        assert 0.05 <= delays[0] <= 0.1
        assert 0.1 <= delays[1] <= 0.2
        assert 0.2 <= delays[2] <= 0.4
        assert delays[3] <= 1.0  # capped

    def test_backoff_deterministic_per_token(self):
        policy = RetryPolicy()
        assert policy.backoff_delay(2, token="a") == policy.backoff_delay(
            2, token="a"
        )
        assert policy.backoff_delay(2, token="a") != policy.backoff_delay(
            2, token="b"
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=0.5, max_delay=0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(deadline_seconds=0.0)

    def test_round_trips_through_dict(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.2, max_delay=3.0, deadline_seconds=120.0
        )
        assert RetryPolicy.from_dict(policy.as_dict()) == policy

    def test_per_kind_defaults(self):
        # Suites are the heavy kind: fewest attempts, widest deadline.
        assert {kind: entry.retry for kind, entry in JOB_TABLE.items()} == {
            "sweep": RetryPolicy(3, 0.05, 2.0, 300.0),
            "experiment": RetryPolicy(3, 0.1, 5.0, 600.0),
            "suite": RetryPolicy(2, 0.25, 10.0, 1800.0),
        }
        assert JOB_TABLE["sweep"].analytic.retry is JOB_TABLE["sweep"].retry
        unknown = Job(id="j1", kind="unknown-kind", params={})
        assert retry_policy(unknown) == RetryPolicy()

    def test_transient_classification(self):
        assert is_transient(OSError("disk"))
        assert is_transient(TimeoutError())
        assert is_transient(ConnectionResetError())
        assert is_transient(InjectedFaultError("chaos"))
        assert not is_transient(ValueError("bad params"))
        assert transient_reason(InjectedFaultError("x")) == "injected-fault"
        assert transient_reason(TimeoutError()) == "timeout"
        assert transient_reason(ConnectionResetError()) == "connection-error"
        assert transient_reason(OSError()) == "os-error"
        assert transient_reason(ValueError()) == "ValueError"
