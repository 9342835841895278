"""Tests for trace-ID minting and propagation through spans (repro.obs.spans)."""

from __future__ import annotations

import re
import threading

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import spans as obs_spans
from repro.obs.spans import (
    current_trace_id,
    new_trace_id,
    normalize_trace_id,
    span,
)


@pytest.fixture
def _collecting():
    """Span collection on for one test, then back to the previous state."""
    saved = obs_spans.collector()
    obs_spans.enable(build_info={})
    yield
    obs_spans._COLLECTOR = saved


class TestMinting:
    def test_minted_ids_are_16_hex_and_unique(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(re.fullmatch(r"[0-9a-f]{16}", t) for t in ids)

    def test_normalize_accepts_common_shapes(self):
        for value in ("abcd", "a" * 64, "req.1-2_3", new_trace_id()):
            assert normalize_trace_id(value) == value

    @pytest.mark.parametrize(
        "bad", ["abc", "a" * 65, "has space", "semi;colon", "", None, 7]
    )
    def test_normalize_rejects_unusable_values(self, bad):
        with pytest.raises(ConfigurationError):
            normalize_trace_id(bad)


@pytest.mark.usefixtures("_collecting")
class TestBinding:
    """Entering a span binds its trace as the current one for the block."""

    def test_bind_scopes_the_current_trace(self):
        assert current_trace_id() is None
        with span("outer", parent=("trace-1234", None)):
            assert current_trace_id() == "trace-1234"
            with span("child"):
                assert current_trace_id() == "trace-1234"
            with span("other", parent=("trace-5678", None)):
                assert current_trace_id() == "trace-5678"
            assert current_trace_id() == "trace-1234"
        assert current_trace_id() is None

    def test_bind_is_per_thread(self):
        seen = {}

        def worker(name: str) -> None:
            with span("work", parent=(name, None)):
                seen[name] = current_trace_id()

        threads = [
            threading.Thread(target=worker, args=(f"trace-{i:04d}",))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        assert seen == {f"trace-{i:04d}": f"trace-{i:04d}" for i in range(4)}
