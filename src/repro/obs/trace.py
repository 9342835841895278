"""Trace IDs: minted at submission, carried client -> scheduler -> worker.

A trace ID is a short opaque token (16 lowercase hex characters when minted
here; clients may supply their own, 4..64 characters of ``[A-Za-z0-9._-]``)
that follows one submission through the whole stack:

* the HTTP API accepts one via the ``X-Repro-Trace`` header (or a ``trace``
  field in the submission body) and mints one otherwise;
* the scheduler stamps it on the :class:`~repro.service.jobs.Job`, so every
  journal line and every ``GET /jobs/{id}`` payload carries it;
* the executor binds it for the duration of the job
  (:func:`bind` / :func:`current_trace_id`); the job's spans, task spans
  included, carry it too.
"""

from __future__ import annotations

import re
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

from repro.exceptions import ConfigurationError

__all__ = [
    "TRACE_HEADER",
    "new_trace_id",
    "normalize_trace_id",
    "bind",
    "current_trace_id",
]

#: The HTTP request header a client uses to supply its own trace ID.
TRACE_HEADER = "X-Repro-Trace"

_TRACE_RE = re.compile(r"^[A-Za-z0-9._-]{4,64}$")

_current: ContextVar[str | None] = ContextVar("repro_trace_id", default=None)


def new_trace_id() -> str:
    """Mint a fresh trace ID (16 hex characters)."""
    return uuid.uuid4().hex[:16]


def normalize_trace_id(value: Any) -> str:
    """Validate a caller-supplied trace ID; raise on anything unusable.

    Accepts 4..64 characters of ``[A-Za-z0-9._-]`` -- wide enough for UUIDs,
    ULIDs and dotted request IDs from upstream proxies, narrow enough to be
    safe in log lines, filenames and HTTP headers.
    """
    if not isinstance(value, str) or not _TRACE_RE.match(value):
        raise ConfigurationError(
            f"invalid trace id {value!r}: expected 4..64 characters of "
            "[A-Za-z0-9._-]"
        )
    return value


def current_trace_id() -> str | None:
    """The trace bound to the current thread/context, if any."""
    return _current.get()


@contextmanager
def bind(trace_id: str | None) -> Iterator[str | None]:
    """Bind ``trace_id`` as the current trace for the enclosed block."""
    token = _current.set(trace_id)
    try:
        yield trace_id
    finally:
        _current.reset(token)
