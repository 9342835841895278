"""Tests for the repro doctor diagnostics (repro.obs.doctor)."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.cli import main
from repro.kernels.matmul import BlockedMatrixMultiply
from repro.obs.doctor import (
    FAIL,
    PASS,
    WARN,
    DoctorReport,
    Finding,
    check_cache_integrity,
    check_environment,
    check_jobs,
    check_journal,
    check_spans,
    run_doctor,
)
from repro.runtime.cache import MISS, ResultCache, TaskCache
from repro.service.jobs import RECORD_SCHEMA, JobStore


def _write_result_entry(root, key):
    """One real sweep-point entry, written by the result cache itself."""
    kernel = BlockedMatrixMultiply()
    cache = ResultCache(root)
    cache.store(key, kernel.execute(27, **kernel.problem_for_memory(27, 4)))
    return cache._path(key)


def _write_task_entry(root, key):
    """One real task entry, written by the task cache itself."""
    cache = TaskCache(root / "tasks")
    cache.store(key, {"answer": 42}, label="test")
    return cache._path(key)


def _tree(root):
    return sorted(
        (str(path.relative_to(root)), path.stat().st_size if path.is_file() else None)
        for path in root.rglob("*")
    )


def _by_check(findings):
    return {finding.check: finding for finding in findings}


class TestCacheIntegrity:
    def test_missing_dir_is_a_warning_not_a_failure(self, tmp_path):
        findings = check_cache_integrity(tmp_path / "never-created")
        assert [f.status for f in findings] == [WARN]

    def test_clean_cache_passes(self, tmp_path):
        _write_result_entry(tmp_path, "aa11")
        _write_task_entry(tmp_path, "bb22")
        statuses = _by_check(check_cache_integrity(tmp_path))
        assert statuses["cache.results"].status == PASS
        assert statuses["cache.tasks"].status == PASS
        assert statuses["cache.disk"].status == PASS

    def test_corrupt_entry_fails(self, tmp_path):
        path = _write_result_entry(tmp_path, "aa11")
        path.write_text("{ not json")
        finding = _by_check(check_cache_integrity(tmp_path))["cache.results"]
        assert finding.status == FAIL
        assert finding.data["corrupt"] == 1
        assert str(path) in finding.data["bad_paths"]

    def test_truncated_entry_fails(self, tmp_path):
        path = _write_result_entry(tmp_path, "aa11")
        path.write_bytes(b"")
        finding = _by_check(check_cache_integrity(tmp_path))["cache.results"]
        assert finding.status == FAIL
        assert finding.data["truncated"] == 1

    def test_corrupt_task_pickle_fails(self, tmp_path):
        path = _write_task_entry(tmp_path, "bb22")
        path.write_bytes(b"\x80not a pickle")
        finding = _by_check(check_cache_integrity(tmp_path))["cache.tasks"]
        assert finding.status == FAIL

    def test_entry_the_result_cache_drops_fails(self, tmp_path):
        # Schema-tagged, but not a sweep point: the cache's own decoder
        # rejects it, so the doctor must not call it readable.
        path = tmp_path / "ab" / "abcd.json"
        path.parent.mkdir()
        path.write_text(json.dumps({"schema": 1}))
        finding = _by_check(check_cache_integrity(tmp_path))["cache.results"]
        assert finding.status == FAIL
        assert finding.data["corrupt"] == 1
        assert ResultCache(tmp_path).load("abcd") is MISS
        assert not path.exists()

    def test_task_entry_of_another_schema_fails(self, tmp_path):
        path = _write_task_entry(tmp_path, "bb22")
        path.write_bytes(pickle.dumps({"schema": 999, "label": None, "value": 1}))
        finding = _by_check(check_cache_integrity(tmp_path))["cache.tasks"]
        assert finding.status == FAIL
        assert finding.data["corrupt"] == 1

    def test_doctor_only_reads_the_cache_root(self, tmp_path, capsys):
        root = tmp_path / "cache"
        _write_result_entry(root, "aa11")
        before = _tree(root)
        assert main(["doctor", "--cache-dir", str(root), "--json"]) == 0
        capsys.readouterr()
        assert _tree(root) == before

    def test_orphaned_tmp_files_warn(self, tmp_path):
        _write_result_entry(tmp_path, "aa11")
        (tmp_path / "aa" / "aa11-x.tmp").write_text("partial write")
        statuses = _by_check(check_cache_integrity(tmp_path))
        assert statuses["cache.results.orphans"].status == WARN
        assert statuses["cache.disk"].status == WARN  # unaccounted bytes

    def test_misplaced_entry_warns(self, tmp_path):
        path = tmp_path / "zz" / "aa11.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": "x"}))
        finding = _by_check(check_cache_integrity(tmp_path))["cache.results"]
        assert finding.status == WARN
        assert finding.data["misplaced"] == 1


class TestStoreIntegrity:
    def _store_with_run(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "store")
        receipt = store.append_run(
            [{"experiment": "sweep", "x": 1.0}], source="test"
        )
        return store.root / "runs" / receipt.run_key[:2] / f"{receipt.run_key}.json"

    def test_absent_store_passes(self, tmp_path):
        finding = _by_check(check_cache_integrity(tmp_path))["cache.store"]
        assert finding.status == PASS
        assert "no result store yet" in finding.detail

    def test_healthy_store_passes_and_its_bytes_are_accounted(self, tmp_path):
        self._store_with_run(tmp_path)
        statuses = _by_check(check_cache_integrity(tmp_path))
        assert statuses["cache.store"].status == PASS
        assert statuses["cache.store"].data["entries"] == 1
        # Store segments are accounted disk usage, not stray bytes.
        assert statuses["cache.disk"].status == PASS

    def test_unparseable_segment_fails(self, tmp_path):
        path = self._store_with_run(tmp_path)
        path.write_text("{ not json")
        finding = _by_check(check_cache_integrity(tmp_path))["cache.store"]
        assert finding.status == FAIL
        assert finding.data["corrupt"] == 1

    def test_record_count_mismatch_fails(self, tmp_path):
        path = self._store_with_run(tmp_path)
        segment = json.loads(path.read_text())
        segment["run"]["record_count"] = 99
        path.write_text(json.dumps(segment))
        finding = _by_check(check_cache_integrity(tmp_path))["cache.store"]
        assert finding.status == FAIL

    def test_non_object_record_fails(self, tmp_path):
        # The record count agrees, but the store's reads skip the segment.
        path = self._store_with_run(tmp_path)
        segment = json.loads(path.read_text())
        segment["records"] = [{"experiment": "sweep", "kernel": "fft"}, 7]
        segment["run"]["record_count"] = 2
        path.write_text(json.dumps(segment))
        finding = _by_check(check_cache_integrity(tmp_path))["cache.store"]
        assert finding.status == FAIL
        assert finding.data["corrupt"] == 1

    def test_wrong_schema_fails(self, tmp_path):
        path = self._store_with_run(tmp_path)
        segment = json.loads(path.read_text())
        segment["schema"] = "somebody-elses/v1"
        path.write_text(json.dumps(segment))
        finding = _by_check(check_cache_integrity(tmp_path))["cache.store"]
        assert finding.status == FAIL

    def test_manifest_without_a_segment_line_warns(self, tmp_path):
        path = self._store_with_run(tmp_path)
        (tmp_path / "store" / "manifest.jsonl").write_bytes(b"")
        statuses = _by_check(check_cache_integrity(tmp_path))
        finding = statuses["cache.store"]
        assert finding.status == WARN and "1 segments without lines" in finding.detail
        assert finding.data["segments_without_lines"] == 1
        # The manifest is accounted disk usage, not stray bytes.
        assert statuses["cache.disk"].status == PASS
        assert path.exists()

    def test_manifest_line_without_a_segment_warns(self, tmp_path):
        self._store_with_run(tmp_path).unlink()
        finding = _by_check(check_cache_integrity(tmp_path))["cache.store"]
        assert finding.status == WARN
        assert finding.data["lines_without_segments"] == 1

    def test_torn_manifest_line_warns_and_the_next_read_repairs_it(self, tmp_path):
        from repro.store import ResultStore

        self._store_with_run(tmp_path)
        manifest = tmp_path / "store" / "manifest.jsonl"
        with manifest.open("ab") as handle:
            handle.write(b'{"run": {"run_key"')
        finding = _by_check(check_cache_integrity(tmp_path))["cache.store"]
        assert finding.status == WARN and finding.data["torn_lines"] == 1
        assert ResultStore(tmp_path / "store").run_count() == 1
        statuses = _by_check(check_cache_integrity(tmp_path))
        assert statuses["cache.store"].status == PASS
        assert statuses["cache.disk"].status == PASS

    def test_store_tmp_orphans_not_double_reported(self, tmp_path):
        path = self._store_with_run(tmp_path)
        (path.parent / "leftover.tmp").write_text("partial")
        statuses = _by_check(check_cache_integrity(tmp_path))
        assert statuses["cache.store.orphans"].status == WARN
        assert "cache.results.orphans" not in statuses


def _open_one_job(path):
    store = JobStore(path)
    store.create("suite", {"suite": "quick"})
    store.close()


class TestJournal:
    def _journal_with_jobs(self, tmp_path, *, finish=True):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        job = store.create("suite", {"suite": "quick"})
        store.mark_running(job)
        if finish:
            store.mark_done(job, {"ok": True})
        store.close()
        return path

    def test_clean_journal_passes(self, tmp_path):
        path = self._journal_with_jobs(tmp_path)
        statuses = _by_check(check_journal(path))
        assert statuses["journal"].status == PASS
        assert statuses["journal.replay"].status == PASS

    def test_truncated_tail_is_a_warning(self, tmp_path):
        path = self._journal_with_jobs(tmp_path)
        with path.open("a") as handle:
            handle.write('{"attempts": 0, "deduped_into": null, "i')  # torn append
        finding = _by_check(check_journal(path))["journal"]
        assert finding.status == WARN
        assert "truncated tail" in finding.detail

    def test_mid_file_garbage_is_a_failure(self, tmp_path):
        path = self._journal_with_jobs(tmp_path)
        lines = path.read_text().splitlines()
        lines.insert(1, "not a record at all")
        path.write_text("\n".join(lines) + "\n")
        finding = _by_check(check_journal(path))["journal"]
        assert finding.status == FAIL
        assert finding.data["bad_lines"] == [2]

    @pytest.mark.parametrize(
        "malformed",
        [
            lambda record: {**record, "id": None},
            lambda record: {**record, "kind": None},
            lambda record: {**record, "state": "bogus"},
            # A snapshot line of the journal format before records.
            lambda record: {"schema": "repro-service-job/v1", "job": record},
        ],
        ids=["no-id", "no-kind", "unknown-state", "v1-snapshot"],
    )
    def test_malformed_record_is_a_bad_line(self, tmp_path, malformed):
        path = self._journal_with_jobs(tmp_path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        assert record["schema"] == RECORD_SCHEMA
        lines.insert(1, json.dumps(malformed(record)))
        path.write_text("\n".join(lines) + "\n")
        statuses = _by_check(run_doctor(state_path=path).findings)
        assert statuses["journal"].status == FAIL
        assert statuses["journal"].data["bad_lines"] == [2]
        assert statuses["journal.replay"].status == PASS
        assert statuses["journal.replay"].data["jobs"] == 1
        assert statuses["jobs.progress"].status == PASS

    def test_interrupted_jobs_reported_on_replay(self, tmp_path):
        path = self._journal_with_jobs(tmp_path, finish=False)
        finding = _by_check(check_journal(path))["journal.replay"]
        assert finding.status == WARN
        assert "requeue" in finding.detail

    def test_missing_journal_is_a_warning(self, tmp_path):
        findings = check_journal(tmp_path / "never-written.jsonl")
        assert [f.status for f in findings] == [WARN]

    def test_mid_file_torn_artifact_is_a_warning(self, tmp_path):
        # A repaired torn write: a truncated record prefix that ended up
        # newline-terminated mid-file.  Recognisably record-shaped, so a
        # WARN -- unlike arbitrary mid-file garbage, which stays a FAIL.
        path = self._journal_with_jobs(tmp_path)
        lines = path.read_text().splitlines()
        lines.insert(1, lines[0][: len(lines[0]) // 2])
        path.write_text("\n".join(lines) + "\n")
        finding = _by_check(check_journal(path))["journal"]
        assert finding.status == WARN
        assert "torn" in finding.detail
        assert finding.data["torn_lines"] == [2]


class TestJobProgress:
    def test_no_journal_configured_warns(self):
        (finding,) = check_jobs(None)
        assert finding.status == WARN

    def test_missing_journal_warns(self, tmp_path):
        (finding,) = check_jobs(tmp_path / "never-written.jsonl")
        assert finding.status == WARN

    def test_all_terminal_passes(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        job = store.create("suite", {"suite": "quick"})
        store.mark_running(job)
        store.mark_done(job, {"ok": True})
        store.close()
        (finding,) = check_jobs(path)
        assert finding.status == PASS
        assert finding.data["open_jobs"] == 0

    def test_fresh_open_job_passes(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        _open_one_job(path)
        (finding,) = check_jobs(path, max_job_age=300.0)
        assert finding.status == PASS
        assert finding.data["open_jobs"] == 1

    def test_stale_open_job_warns(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        _open_one_job(path)
        (finding,) = check_jobs(path, max_job_age=0.0)
        assert finding.status == WARN
        assert finding.data["stuck"][0]["state"] == "queued"

    def test_attempts_past_budget_fails(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        job = store.create("suite", {"suite": "quick"})
        # Burn past the suite policy's 2-attempt budget without ever
        # reaching a terminal state: the retry machinery lost this job.
        for _ in range(3):
            store.mark_running(job)
            store.requeue(job, reason="worker-crash")
        store.close()
        (finding,) = check_jobs(path)
        assert finding.status == FAIL
        assert finding.data["over_budget"][0]["attempts"] == 3


class TestEnvironment:
    def test_numpy_reported(self):
        statuses = _by_check(check_environment())
        assert statuses["env.numpy"].status == PASS
        assert "numpy" in statuses["env.numpy"].data

    def test_blas_finding_names_each_openblas_and_the_task_threads(self):
        from repro.runtime.tasks import openblas_threads

        threads = openblas_threads()
        if not threads:
            pytest.skip("no OpenBLAS loaded in this process")
        findings = _by_check(check_environment())
        finding = findings["env.blas"]
        assert finding.status == PASS
        assert finding.data == {"openblas_threads": threads, "task_threads": 1}
        for name, count in threads.items():
            assert f"{name} runs {count} threads" in finding.detail
        assert "every task runs on 1 thread, serial runs included" in finding.detail
        workers = findings["env.affinity"].data["worker_count"]
        assert f"on a {workers}-CPU" in finding.detail

    def test_blas_finding_without_openblas(self, monkeypatch):
        import repro.runtime.tasks as tasks

        monkeypatch.setattr(tasks, "loaded_openblas", lambda: [])
        finding = _by_check(check_environment())["env.blas"]
        assert finding.status == PASS
        assert finding.data == {"openblas_threads": {}, "task_threads": None}
        assert "no OpenBLAS loaded" in finding.detail

    def test_oversubscribed_jobs_warn(self):
        import os

        affinity = len(os.sched_getaffinity(0))
        finding = _by_check(check_environment(jobs=affinity + 8))["env.affinity"]
        assert finding.status == WARN
        assert "oversubscribes" in finding.detail

    def test_affinity_finding_names_its_source(self):
        """The data block says where the worker count came from."""
        finding = _by_check(check_environment())["env.affinity"]
        assert finding.data["worker_count_source"] in (
            "sched_getaffinity",
            "os.cpu_count",
        )
        assert finding.data["worker_count"] >= 1

    def test_cpu_count_fallback_not_reported_as_affinity(self, monkeypatch):
        """Without ``sched_getaffinity`` the count is not an affinity mask.

        Platforms lacking the syscall (macOS, Windows) fall back to
        ``os.cpu_count()``; the old finding still said "affinity mask" and
        could fabricate a container-limit warning from a number that knows
        nothing about containers.
        """
        import os

        import repro.runtime.tasks as tasks

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        workers, source = tasks.worker_count_source()
        assert source == "os.cpu_count"
        assert workers == (os.cpu_count() or 1)
        finding = _by_check(check_environment())["env.affinity"]
        assert finding.data["worker_count_source"] == "os.cpu_count"
        # The fallback can never be smaller than cpu_count, so the
        # container-limit warning must not fire.
        assert finding.status == PASS
        assert "affinity mask" not in finding.detail

    def test_oversubscription_warning_without_affinity_syscall(self, monkeypatch):
        import os

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        cpus = os.cpu_count() or 1
        finding = _by_check(check_environment(jobs=cpus + 8))["env.affinity"]
        assert finding.status == WARN
        assert "oversubscribes" in finding.detail
        assert "CPU count" in finding.detail
        assert "affinity mask" not in finding.detail


class TestReport:
    def test_worst_finding_wins(self):
        report = DoctorReport(
            [
                Finding("a", PASS, "ok"),
                Finding("b", WARN, "meh"),
                Finding("c", FAIL, "bad"),
            ]
        )
        assert report.status == FAIL
        assert report.ok is False
        assert report.exit_code == 1

    def test_warnings_alone_still_ok(self):
        report = DoctorReport([Finding("a", WARN, "meh")])
        assert report.ok is True
        assert report.exit_code == 0

    def test_as_dict_schema_and_counts(self):
        report = DoctorReport(
            [Finding("a", PASS, "ok"), Finding("b", FAIL, "bad", {"k": 1})]
        )
        document = json.loads(json.dumps(report.as_dict()))
        assert document["schema"] == "repro-doctor/v1"
        assert document["counts"] == {"pass": 1, "warn": 0, "fail": 1}
        assert document["findings"][1]["data"] == {"k": 1}

    def test_table_renders(self):
        report = DoctorReport([Finding("a", PASS, "ok")])
        text = report.table().render_ascii()
        assert "repro doctor" in text
        assert "PASS" in text


class TestRunDoctor:
    def test_detects_corruption_end_to_end(self, tmp_path):
        _write_result_entry(tmp_path / "cache", "aa11").write_text("garbage")
        journal = tmp_path / "jobs.jsonl"
        store = JobStore(journal)
        store.mark_done(store.create("suite", {"suite": "quick"}), {"ok": 1})
        store.close()
        report = run_doctor(cache_dir=tmp_path / "cache", state_path=journal)
        assert report.exit_code == 1
        failed = [f.check for f in report.findings if f.status == FAIL]
        assert failed == ["cache.results"]

    def test_skips_liveness_without_port(self):
        report = run_doctor()
        assert not any(f.check.startswith("service") for f in report.findings)


class TestDoctorCli:
    def test_json_to_stdout_and_exit_codes(self, tmp_path, capsys):
        _write_result_entry(tmp_path / "cache", "aa11")
        code = main(
            ["doctor", "--cache-dir", str(tmp_path / "cache"), "--json"]
        )
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-doctor/v1"
        assert code == 0

        # Corrupt the entry: same invocation now fails.
        (tmp_path / "cache" / "aa" / "aa11.json").write_text("garbage")
        code = main(
            ["doctor", "--cache-dir", str(tmp_path / "cache"), "--json"]
        )
        document = json.loads(capsys.readouterr().out)
        assert document["status"] == "fail"
        assert code == 1

    def test_table_output_and_json_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["doctor", "--no-cache", "--json", str(out_path)])
        assert code == 0
        assert "repro doctor" in capsys.readouterr().out
        assert json.loads(out_path.read_text())["schema"] == "repro-doctor/v1"


class TestSpanBuffer:
    def test_disabled_collector_is_an_explicit_pass(self):
        from repro.obs import spans as obs_spans

        saved = obs_spans.collector()
        obs_spans.disable()
        try:
            (finding,) = check_spans()
            assert finding.check == "spans" and finding.status == PASS
            assert "not enabled" in finding.detail
        finally:
            obs_spans._COLLECTOR = saved

    def test_evictions_warn_with_the_dropped_count(self):
        from repro.obs import spans as obs_spans

        saved = obs_spans.collector()
        obs_spans.disable()
        try:
            # build_info={} skips the git probe and stamps nothing.
            obs_spans.enable(2, build_info={})
            for index in range(5):
                obs_spans.record_span(
                    f"s{index}", "task", trace_id="doctor-t",
                    parent_id=None, start_wall=1.0, duration=0.1,
                )
            (finding,) = check_spans()
            assert finding.status == WARN
            assert "3 spans evicted" in finding.detail
            assert finding.data["dropped"] == 3
        finally:
            obs_spans._COLLECTOR = saved

    def test_healthy_buffer_reports_occupancy(self):
        from repro.obs import spans as obs_spans

        saved = obs_spans.collector()
        obs_spans.disable()
        try:
            obs_spans.enable(8, build_info={})
            obs_spans.record_span(
                "only", "task", trace_id="doctor-h",
                parent_id=None, start_wall=1.0, duration=0.1,
            )
            (finding,) = check_spans()
            assert finding.status == PASS
            assert "1 of 8" in finding.detail
        finally:
            obs_spans._COLLECTOR = saved
