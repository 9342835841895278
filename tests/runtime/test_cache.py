"""Tests for the content-addressed result cache."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.kernels.grid import GridRelaxation
from repro.kernels.matmul import BlockedMatrixMultiply
from repro.kernels.triangularization import BlockedLUTriangularization
from repro.runtime.cache import MISS, ResultCache, TaskCache, _atomic_write, _fingerprint
from repro.runtime.engine import execution_key


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache")


def _one_execution(kernel=None, memory=27, scale=12):
    kernel = kernel or BlockedMatrixMultiply()
    problem = kernel.problem_for_memory(memory, scale)
    return kernel, problem, kernel.execute(memory, **problem)


class TestExecutionKey:
    """A scaled point is keyed by its recipe; a fixed problem by its arrays."""

    def test_key_is_deterministic_across_instances(self):
        assert execution_key(BlockedMatrixMultiply(), 27, scale=12) == execution_key(
            BlockedMatrixMultiply(), 27, scale=12
        )
        assert execution_key(GridRelaxation(3), 64, scale=4) == execution_key(
            GridRelaxation(3), 64, scale=4
        )

    def test_key_depends_on_memory_size(self):
        kernel = BlockedMatrixMultiply()
        assert execution_key(kernel, 27, scale=12) != execution_key(kernel, 48, scale=12)

    def test_key_depends_on_scale(self):
        kernel = BlockedMatrixMultiply()
        assert execution_key(kernel, 27, scale=12) != execution_key(kernel, 27, scale=16)

    def test_key_depends_on_kernel_configuration(self):
        """Two GridRelaxation instances share source but not configuration."""
        grid2 = GridRelaxation(dimension=2)
        grid3 = GridRelaxation(dimension=3)
        assert execution_key(grid2, 512, scale=8) != execution_key(grid3, 512, scale=8)

    def test_key_differs_between_kernel_classes(self):
        assert execution_key(BlockedMatrixMultiply(), 27, scale=12) != execution_key(
            BlockedLUTriangularization(), 27, scale=12
        )

    def test_scaled_key_builds_and_hashes_no_problem(
        self, refuse_problem_builders, fingerprinted_arrays
    ):
        refuse_problem_builders()
        assert execution_key(GridRelaxation(2), 64, scale=12)
        assert fingerprinted_arrays == []

    def test_key_depends_on_problem_contents(self):
        """A fixed problem has no recipe, so its key hashes its arrays."""
        kernel = BlockedMatrixMultiply()
        problem_small = kernel.problem_for_memory(27, 12)
        problem_large = kernel.problem_for_memory(27, 16)
        assert execution_key(kernel, 27, problem=problem_small) != execution_key(
            kernel, 27, problem=problem_large
        )
        assert execution_key(kernel, 27, problem=problem_small) == execution_key(
            kernel, 27, problem=kernel.problem_for_memory(27, 12)
        )


class Config:
    def __init__(self) -> None:
        self.order = 4


class TestFingerprint:
    def test_canonical_structure(self):
        value = {
            "f": np.arange(3),
            "b": [1, 2.5, True, None, "s", (7,)],
            "a": np.int64(3),
            "c": np.float64(0.5),
            "d": 1 + 2j,
            "e": Config(),
        }
        fingerprint = _fingerprint(value)
        assert list(fingerprint) == ["a", "b", "c", "d", "e", "f"]
        assert fingerprint["a"] == 3 and type(fingerprint["a"]) is int
        assert fingerprint["b"] == [1, 2.5, True, None, "s", [7]]
        assert fingerprint["c"] == 0.5 and type(fingerprint["c"]) is float
        assert fingerprint["d"] == ["complex", 1.0, 2.0]
        assert fingerprint["e"] == ["object", "Config", {"order": 4}]
        assert fingerprint["f"][:3] == ["ndarray", np.arange(3).dtype.str, [3]]
        # Equal contents, equal digest, whatever the memory layout.
        grid = np.arange(12.0).reshape(3, 4)
        assert _fingerprint(grid.T) == _fingerprint(np.ascontiguousarray(grid.T))


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, cache):
        kernel, problem, execution = _one_execution()
        key = cache.key_for(kernel, 27, scale=12)
        assert cache.load(key) is MISS
        cache.store(key, execution)
        cached = cache.load(key)
        assert cached is not MISS
        assert cached.from_cache
        assert cached.output is None
        assert cached.cost.compute_ops == execution.cost.compute_ops
        assert cached.cost.io_words == execution.cost.io_words
        assert cached.intensity == execution.intensity
        assert cached.peak_memory_words == execution.peak_memory_words
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_len_and_clear_invalidate_everything(self, cache):
        kernel, problem, execution = _one_execution()
        for memory in (12, 27, 48):
            run = kernel.execute(memory, **problem)
            cache.store(cache.key_for(kernel, memory, scale=12), run)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0
        assert cache.load(cache.key_for(kernel, 12, scale=12)) is MISS

    def test_corrupt_entry_is_a_miss_and_removed(self, cache):
        kernel, problem, execution = _one_execution()
        key = cache.key_for(kernel, 27, scale=12)
        cache.store(key, execution)
        path = cache._path(key)
        path.write_text("{not json")
        assert cache.load(key) is MISS
        assert not path.exists()

    def test_wrong_schema_is_a_miss(self, cache):
        kernel, problem, execution = _one_execution()
        key = cache.key_for(kernel, 27, scale=12)
        cache.store(key, execution)
        path = cache._path(key)
        entry = json.loads(path.read_text())
        entry["schema"] = 999
        path.write_text(json.dumps(entry))
        assert cache.load(key) is MISS

    def test_refuses_to_store_cached_replay_without_output(self, cache):
        kernel, problem, execution = _one_execution()
        key = cache.key_for(kernel, 27, scale=12)
        cache.store(key, execution)
        replay = cache.load(key)
        fake = type(replay)(
            kernel_name=replay.kernel_name,
            memory_words=replay.memory_words,
            problem=replay.problem,
            output=None,
            cost=replay.cost,
            peak_memory_words=replay.peak_memory_words,
            phases=replay.phases,
            from_cache=False,
        )
        with pytest.raises(ConfigurationError):
            cache.store(key, fake)


class TestDiskUsage:
    def test_result_cache_reports_entry_bytes(self, cache):
        assert cache.disk_usage_bytes() == 0
        kernel, problem, execution = _one_execution()
        key = cache.key_for(kernel, 27, scale=12)
        cache.store(key, execution)
        usage = cache.disk_usage_bytes()
        assert usage == cache._path(key).stat().st_size > 0

    def test_task_cache_reports_entry_bytes(self, tmp_path):
        store = TaskCache(tmp_path / "tasks")
        assert store.disk_usage_bytes() == 0
        store.store("ab" * 32, list(range(100)))
        assert store.disk_usage_bytes() > 0
        store.clear()
        assert store.disk_usage_bytes() == 0

    def test_task_cache_usage_ignores_foreign_files(self, tmp_path):
        store = TaskCache(tmp_path / "tasks")
        store.store("ab" * 32, "value")
        (store.root / "ab" / "scratch.tmp").write_bytes(b"x" * 4096)
        assert store.disk_usage_bytes() == store._path("ab" * 32).stat().st_size


class TestAtomicWrite:
    def test_existing_shard_makes_no_mkdir_and_a_missing_one_is_created(
        self, tmp_path, monkeypatch
    ):
        made = []
        mkdir = type(tmp_path).mkdir

        def counting_mkdir(path, *args, **kwargs):
            made.append(path)
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(type(tmp_path), "mkdir", counting_mkdir)
        shard = tmp_path / "ab"
        _atomic_write(shard / "abc.json", b"first")
        assert made == [shard] and (shard / "abc.json").read_bytes() == b"first"
        inode = _atomic_write(shard / "abd.json", b"second")
        assert made == [shard] and (shard / "abd.json").read_bytes() == b"second"
        assert inode == (shard / "abd.json").stat().st_ino
        assert not list(shard.glob("*.tmp"))


class TestConcurrentWriters:
    """Two writers storing the same key must both succeed via ``_atomic_write``
    with no torn reads: a concurrent ``load`` sees a complete entry or a miss,
    never a truncated one."""

    def test_racing_task_stores_and_loads_never_tear(self, tmp_path):
        store = TaskCache(tmp_path / "tasks")
        key = "cd" * 32
        # A value whose pickle is large enough that a torn write would be
        # visible, and whose content the readers can fully validate.
        value = {"grid": np.arange(20_000, dtype=np.float64), "label": "x" * 4096}
        errors: list[str] = []
        start = threading.Barrier(6)

        def write() -> None:
            start.wait()
            for _ in range(25):
                store.store(key, value)

        def read() -> None:
            start.wait()
            for _ in range(50):
                loaded = store.load(key)
                if loaded is MISS:
                    continue
                if loaded["label"] != value["label"] or not np.array_equal(
                    loaded["grid"], value["grid"]
                ):
                    errors.append("torn read")  # pragma: no cover - failure path

        threads = [threading.Thread(target=write) for _ in range(2)]
        threads += [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert store.stats.stores == 50
        final = store.load(key)
        assert np.array_equal(final["grid"], value["grid"])
        # Both writers published complete entries; exactly one file remains.
        assert len(store) == 1

    def test_racing_result_stores_agree(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kernel, problem, execution = _one_execution()
        key = cache.key_for(kernel, 27, scale=12)
        start = threading.Barrier(4)
        misses_before = cache.stats.misses

        def write() -> None:
            start.wait()
            for _ in range(20):
                cache.store(key, execution)

        loaded: list[object] = []

        def read() -> None:
            start.wait()
            for _ in range(40):
                entry = cache.load(key)
                if entry is not MISS:
                    loaded.append(entry)

        threads = [threading.Thread(target=write) for _ in range(2)]
        threads += [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert cache.stats.stores == 40
        # Every successful load reconstructed the same measured numbers.
        for entry in loaded:
            assert entry.cost == execution.cost
            assert entry.peak_memory_words == execution.peak_memory_words
        assert misses_before <= cache.stats.misses <= misses_before + 80
        assert len(cache) == 1
