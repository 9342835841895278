"""Tests for the job-kind table, job content addressing and dedup."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.registry import get as registry_get
from repro.exceptions import ConfigurationError
from repro.kernels.base import Kernel
from repro.runtime.vectorized import cost_grid
from repro.service.jobs import DONE, FAILED, QUEUED, RUNNING, JobStore
from repro.service.scheduler import (
    JobScheduler,
    analytic_sweep_payload,
    job_key,
    normalize_job_params,
)


class TestNormalizeParams:
    def test_suite_params_reduce_to_the_name(self):
        assert normalize_job_params("suite", {"suite": "quick", "junk": 1}) == {
            "suite": "quick"
        }

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_job_params("suite", {"suite": "nope"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_job_params("compile", {})

    def test_experiment_requires_known_kind(self):
        with pytest.raises(ConfigurationError):
            normalize_job_params("experiment", {"experiment": "alchemy"})

    def test_experiment_keeps_driver_params(self):
        params = normalize_job_params(
            "experiment", {"experiment": "figure2", "params": {"n_points": 32}}
        )
        assert params == {"experiment": "figure2", "params": {"n_points": 32}}

    def test_measured_sweep_needs_scale(self):
        with pytest.raises(ConfigurationError):
            normalize_job_params(
                "sweep", {"kernel": "fft", "memory_sizes": [4, 8]}
            )

    def test_sweep_needs_memory_sizes(self):
        with pytest.raises(ConfigurationError):
            normalize_job_params("sweep", {"kernel": "fft", "scale": 8})

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_job_params(
                "sweep", {"kernel": "nope", "memory_sizes": [4], "scale": 8}
            )

    def test_analytic_sweep_defaults_problem_size(self):
        params = normalize_job_params(
            "sweep", {"kernel": "matmul", "memory_sizes": [16, 64], "analytic": True}
        )
        assert params["problem_size"] == 4096 and params["analytic"] is True


class TestJobKey:
    def test_identical_params_share_a_key(self):
        spec = {"kernel": "fft", "memory_sizes": [4, 8, 16], "scale": 8}
        a = job_key("sweep", normalize_job_params("sweep", spec))
        b = job_key("sweep", normalize_job_params("sweep", dict(spec)))
        assert a == b

    def test_different_grids_differ(self):
        a = job_key(
            "sweep",
            normalize_job_params(
                "sweep", {"kernel": "fft", "memory_sizes": [4, 8], "scale": 8}
            ),
        )
        b = job_key(
            "sweep",
            normalize_job_params(
                "sweep", {"kernel": "fft", "memory_sizes": [4, 16], "scale": 8}
            ),
        )
        assert a != b

    def test_experiment_keys_depend_on_driver_params(self):
        base = normalize_job_params("experiment", {"experiment": "figure2"})
        bigger = normalize_job_params(
            "experiment", {"experiment": "figure2", "params": {"n_points": 64}}
        )
        assert job_key("experiment", base) != job_key("experiment", bigger)

    def test_suite_keys_differ_by_name(self):
        quick = normalize_job_params("suite", {"suite": "quick"})
        mixed = normalize_job_params("suite", {"suite": "mixed"})
        assert job_key("suite", quick) != job_key("suite", mixed)

    def test_analytic_and_measured_sweeps_never_collide(self):
        analytic = normalize_job_params(
            "sweep",
            {"kernel": "matmul", "memory_sizes": [16], "analytic": True},
        )
        measured = normalize_job_params(
            "sweep", {"kernel": "matmul", "memory_sizes": [16], "scale": 12}
        )
        assert job_key("sweep", analytic) != job_key("sweep", measured)


class TestDedup:
    def test_identical_submissions_attach_to_the_primary(self):
        scheduler = JobScheduler(JobStore())
        spec = {"experiment": "warp", "params": {}}
        primary = scheduler.submit("experiment", spec)
        follower = scheduler.submit("experiment", spec)
        assert follower.deduped_into == primary.id
        assert scheduler.stats.deduped == 1
        assert scheduler.queue_depth == 1  # the follower never queues

        claimed = scheduler.claim()
        assert claimed.id == primary.id
        assert claimed.state == RUNNING and follower.state == QUEUED

        scheduler.finish(claimed, {"answer": 42})
        assert primary.state == DONE and follower.state == DONE
        assert follower.result == {"answer": 42}

    def test_failures_propagate_to_followers(self):
        scheduler = JobScheduler(JobStore())
        spec = {"experiment": "warp", "params": {}}
        primary = scheduler.submit("experiment", spec)
        follower = scheduler.submit("experiment", spec)
        claimed = scheduler.claim()
        scheduler.fail(claimed, "worker died")
        assert primary.state == FAILED and follower.state == FAILED
        assert follower.error == "worker died"
        assert scheduler.stats.failed == 2

    def test_completed_keys_run_again(self):
        scheduler = JobScheduler(JobStore())
        spec = {"experiment": "warp", "params": {}}
        first = scheduler.submit("experiment", spec)
        claimed = scheduler.claim()
        scheduler.finish(claimed, {})
        second = scheduler.submit("experiment", spec)
        assert second.deduped_into is None
        assert first.key == second.key

    def test_different_params_do_not_dedup(self):
        scheduler = JobScheduler(JobStore())
        a = scheduler.submit("experiment", {"experiment": "warp"})
        b = scheduler.submit(
            "experiment",
            {"experiment": "warp", "params": {"array_lengths": [2, 4]}},
        )
        assert b.deduped_into is None and a.key != b.key

    def test_requeue_restores_interrupted_jobs(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        scheduler = JobScheduler(store)
        job = scheduler.submit("experiment", {"experiment": "warp"})
        claimed = scheduler.claim()
        assert claimed.state == RUNNING
        store.close()  # the crash: the journal still says running

        recovered_store = JobStore(path)
        recovered_scheduler = JobScheduler(recovered_store)
        (interrupted,) = recovered_store.interrupted()
        recovered_scheduler.requeue(interrupted)
        assert interrupted.state == QUEUED
        assert interrupted.id == job.id
        reclaimed = recovered_scheduler.claim()
        assert reclaimed.id == job.id
        recovered_store.close()


class TestClaim:
    def test_claim_times_out_empty(self):
        assert JobScheduler(JobStore()).claim(timeout=0.01) is None

    def test_close_wakes_waiters(self):
        scheduler = JobScheduler(JobStore())
        scheduler.close()
        assert scheduler.claim(timeout=10.0) is None


class TestJobKindTable:
    MEASURED = {"kernel": "matvec", "memory_sizes": [16, 64, 256], "scale": 48}

    def test_measured_admission_never_generates_problems(self, monkeypatch):
        def refuse(self, memory_words, scale):
            raise AssertionError("admission generated a problem instance")

        monkeypatch.setattr(Kernel, "problem_for_memory", refuse)
        job = JobScheduler(JobStore()).submit("sweep", dict(self.MEASURED))
        assert job.state == QUEUED and job.key is not None

    def test_identical_measured_specs_dedup(self):
        scheduler = JobScheduler(JobStore())
        primary = scheduler.submit("sweep", dict(self.MEASURED))
        follower = scheduler.submit("sweep", dict(self.MEASURED))
        assert follower.deduped_into == primary.id
        assert follower.key == primary.key

    def test_too_small_memory_still_rejected_at_admission(self):
        scheduler = JobScheduler(JobStore())
        with pytest.raises(ConfigurationError, match="requires at least"):
            scheduler.submit(
                "sweep", {"kernel": "matmul", "memory_sizes": [1, 48], "scale": 12}
            )
        assert scheduler.queue_depth == 0


class TestVectorizedBatch:
    def test_rows_match_the_vectorized_module_directly(self):
        payload = analytic_sweep_payload("matmul", [16, 64, 256], 4096)
        spec = registry_get("matmul")
        costs = cost_grid(spec, [4096], [16, 64, 256])
        intensities = spec.batch_intensity(np.array([16.0, 64.0, 256.0]))
        for j, row in enumerate(payload["rows"]):
            assert row["compute_ops"] == float(costs.compute_ops[0, j])
            assert row["io_words"] == float(costs.io_words[0, j])
            assert row["cost_intensity"] == float(costs.intensity[0, j])
            assert row["model_intensity"] == float(intensities[j])


class TestBadNumericParams:
    def test_non_numeric_scale_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            normalize_job_params(
                "sweep", {"kernel": "fft", "memory_sizes": [4, 8], "scale": "abc"}
            )

    def test_non_numeric_problem_size_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            normalize_job_params(
                "sweep",
                {
                    "kernel": "fft",
                    "memory_sizes": [4, 8],
                    "analytic": True,
                    "problem_size": "big",
                },
            )

    def test_string_memory_sizes_rejected_not_split_into_digits(self):
        with pytest.raises(ConfigurationError):
            normalize_job_params(
                "sweep", {"kernel": "fft", "memory_sizes": "48", "scale": 8}
            )

    def test_non_numeric_memory_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_job_params(
                "sweep", {"kernel": "fft", "memory_sizes": [4, "big"], "scale": 8}
            )
