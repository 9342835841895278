"""Fixtures shared by the runtime tests."""

from __future__ import annotations

import os
from typing import Callable

import numpy as np
import pytest

from repro.kernels.base import Kernel
from repro.runtime import cache, tasks


@pytest.fixture
def fingerprinted_arrays(monkeypatch) -> list[tuple[int, ...]]:
    """The shape of every ndarray a key's fingerprint visits from here on."""
    seen: list[tuple[int, ...]] = []
    original = cache._fingerprint

    def recording(value):
        if isinstance(value, np.ndarray):
            seen.append(value.shape)
        return original(value)

    # The recursion looks the name up in ``cache``, the first call in ``tasks``.
    monkeypatch.setattr(cache, "_fingerprint", recording)
    monkeypatch.setattr(tasks, "_fingerprint", recording)
    return seen


@pytest.fixture
def refuse_problem_builders(monkeypatch) -> Callable[..., None]:
    """Make every kernel's ``default_problem`` and ``problem_for_memory`` raise.

    Called with ``here_only=True``, they raise only in this process: pool
    children forked afterwards inherit builders that still work.
    """

    def refuse(*, here_only: bool = False) -> None:
        parent = os.getpid()

        def refusing(original):
            def build(self, *args, **kwargs):
                if not here_only or os.getpid() == parent:
                    raise AssertionError(f"{type(self).__name__} built a problem")
                return original(self, *args, **kwargs)

            return build

        classes, pending = [], [Kernel]
        while pending:
            klass = pending.pop()
            classes.append(klass)
            pending.extend(klass.__subclasses__())
        for klass in classes:
            for method in ("default_problem", "problem_for_memory"):
                if method in vars(klass):
                    monkeypatch.setattr(klass, method, refusing(vars(klass)[method]))

    return refuse
