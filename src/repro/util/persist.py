"""Durable, corruption-tolerant persistence primitives.

Both on-disk caches (trace ``.rtrace`` files in :mod:`repro.harness.runner`
and experiment-result JSON in :mod:`repro.harness.results`) share the same
failure model: a write torn by a crash, a truncated download, or a stale
schema must read back as a *cache miss*, never as an exception that takes
down an experiment sweep.  This module centralizes the mechanisms that
make that true:

* **Atomic writes** — payloads are written to a temporary sibling file and
  moved into place with :func:`os.replace`, which is atomic on POSIX and
  Windows.  A reader can therefore never observe a half-written cache file;
  at worst it observes the previous version or nothing.  (The streaming
  :class:`~repro.trace.interchange.TraceWriter` keeps the same contract.)
* **Shared schema versioning** — :data:`CACHE_SCHEMA` is a single version
  number embedded in every cache payload.  Bumping it invalidates *all*
  derived caches at once (traces and results together), which is the only
  safe response to a change in shared semantics such as trace scoring.

Corruption is reported via :class:`CacheCorruptionError` so callers can
distinguish "the cache is bad, regenerate" from genuine programming errors.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Union

from repro.telemetry import get_telemetry

logger = logging.getLogger("repro.persist")

#: Version shared by *all* on-disk caches (trace ``.rtrace`` footer stats
#: and result JSON).  Bump to invalidate every derived cache at once when cross-cache
#: semantics change; per-cache schemas (``TRACE_SCHEMA``, ``RESULT_SCHEMA``)
#: still exist for changes local to one cache.
CACHE_SCHEMA = 1


class CacheCorruptionError(Exception):
    """An on-disk cache entry is unreadable, truncated, or schema-stale.

    Callers should treat this as a cache miss: log, remove the offending
    file, and regenerate.
    """


def atomic_write_bytes(path: Union[str, os.PathLike], payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (tmp file + ``os.replace``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.count("cache.writes")
        telemetry.count("cache.bytes_written", len(payload))
    handle, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(handle, "wb") as tmp:
            tmp.write(payload)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_json(path: Union[str, os.PathLike], payload: dict) -> None:
    """Serialize ``payload`` and write it atomically as UTF-8 JSON."""
    atomic_write_bytes(path, json.dumps(payload, indent=1).encode("utf-8"))


def load_json_checked(path: Union[str, os.PathLike]) -> dict:
    """Load a JSON cache file, mapping every failure to corruption.

    Raises:
        CacheCorruptionError: the file is unreadable, not valid JSON, or
            not a JSON object.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        raise CacheCorruptionError(f"unreadable cache file {path}: {error}") from error
    if not isinstance(data, dict):
        raise CacheCorruptionError(
            f"cache file {path} holds {type(data).__name__}, expected object"
        )
    return data


def discard_corrupt(path: Union[str, os.PathLike], reason: str) -> None:
    """Log and delete a cache file that failed validation.

    Deletion failures are swallowed (another process may have already
    repaired the entry); regeneration will overwrite atomically either way.
    """
    logger.warning("discarding corrupt cache file %s: %s", path, reason)
    get_telemetry().count("cache.corrupt_discards")
    try:
        os.unlink(path)
    except OSError:
        pass
