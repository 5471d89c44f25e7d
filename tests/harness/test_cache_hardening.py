"""Cache-layer fault tolerance: corruption, torn writes, schema staleness.

Every failure mode of the two on-disk caches (``.rtrace`` trace files with
their footer stats, experiment-result JSON) must read back as a cache miss
that regenerates, never as an exception that kills a sweep.
"""

import json
import os

import pytest

from repro.harness.results import RESULT_SCHEMA, ExperimentResult, cached_result
from repro.harness.runner import TRACE_SCHEMA, TraceSet
from repro.telemetry import Telemetry, set_telemetry
from repro.trace.interchange import TraceReader, TraceWriter, import_text, load_trace
from repro.trace.io import TraceFormatError, dump_text
from repro.trace.source import CHUNK_FIELDS
from repro.util.persist import (
    CACHE_SCHEMA,
    CacheCorruptionError,
    atomic_write_bytes,
    load_json_checked,
)


@pytest.fixture
def trace_set(tmp_path):
    return TraceSet(benchmarks=["ocean"], cache_dir=tmp_path)


def _cache_file(trace_set):
    (path,) = trace_set.cache_dir.glob("ocean-*.rtrace")
    return path


def _rewrite(path, stats, mutate=None):
    """Rewrite a cache file (CRC-valid) with ``stats`` in its footer.

    ``mutate(columns)`` may edit the event columns first.
    """
    trace = load_trace(path)
    columns = {field: getattr(trace, field).copy() for field in CHUNK_FIELDS}
    if mutate is not None:
        mutate(columns)
    writer = TraceWriter(path, trace.num_nodes, name=trace.name)
    writer.write_columns(**columns)
    writer.close(stats=stats)


def _regenerated(trace_set, caplog):
    """Load ocean through a cold TraceSet; assert the file was regenerated."""
    fresh = TraceSet(benchmarks=["ocean"], cache_dir=trace_set.cache_dir)
    sink = Telemetry()
    previous = set_telemetry(sink)
    try:
        with caplog.at_level("WARNING"):
            trace = fresh.trace("ocean")
    finally:
        set_telemetry(previous)
    assert sink.counters.get("cache.trace.corrupt_regenerations") == 1
    assert "cache.trace.disk_hits" not in sink.counters
    assert any("discarding corrupt cache" in r.message for r in caplog.records)
    # the repaired file is a stamped, valid cache entry again
    path = _cache_file(trace_set)
    assert TraceReader(path).stats == fresh.protocol_summary("ocean")
    assert len(load_trace(path)) == len(trace)
    return trace


class TestCorruptTraceRecovery:
    def test_garbage_rtrace_regenerates(self, trace_set, caplog):
        original = trace_set.trace("ocean")
        _cache_file(trace_set).write_bytes(b"this is not a trace file")
        assert (_regenerated(trace_set, caplog).truth == original.truth).all()

    def test_truncated_rtrace_regenerates(self, trace_set, caplog):
        original = trace_set.trace("ocean")
        path = _cache_file(trace_set)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        assert (_regenerated(trace_set, caplog).truth == original.truth).all()

    def test_empty_rtrace_regenerates(self, trace_set, caplog):
        trace_set.trace("ocean")
        _cache_file(trace_set).write_bytes(b"")
        assert len(_regenerated(trace_set, caplog)) > 0

    def test_flipped_payload_byte_regenerates(self, trace_set, caplog):
        original = trace_set.trace("ocean")
        path = _cache_file(trace_set)
        content = bytearray(path.read_bytes())
        content[len(content) // 2] ^= 0xFF
        path.write_bytes(bytes(content))
        assert (_regenerated(trace_set, caplog).truth == original.truth).all()

    def test_inconsistent_trace_regenerates(self, trace_set, caplog):
        """A CRC-valid file whose epochs do not link up is still corrupt."""
        original = trace_set.trace("ocean")
        path = _cache_file(trace_set)
        summary = trace_set.protocol_summary("ocean")

        def break_linkage(columns):
            columns["close"][0] = 0

        _rewrite(path, summary, break_linkage)
        with pytest.raises(TraceFormatError, match="invariants"):
            load_trace(path)
        assert (_regenerated(trace_set, caplog).close == original.close).all()

    def test_load_trace_raises_typed_error(self, tmp_path):
        path = tmp_path / "bad.rtrace"
        path.write_bytes(b"#rtrace1\n truncated nonsense")
        with pytest.raises(TraceFormatError):
            load_trace(path)
        # TraceFormatError doubles as both taxonomy roots
        assert issubclass(TraceFormatError, ValueError)
        assert issubclass(TraceFormatError, CacheCorruptionError)


class TestAtomicWrites:
    def test_failed_replace_preserves_original(self, tmp_path, monkeypatch):
        target = tmp_path / "data.json"
        atomic_write_bytes(target, b'{"ok": 1}')

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            atomic_write_bytes(target, b'{"ok": 2}')
        monkeypatch.undo()
        assert json.loads(target.read_text()) == {"ok": 1}
        # no tmp litter left behind
        assert list(tmp_path.iterdir()) == [target]

    def test_save_trace_never_leaves_partial_file(self, trace_set, monkeypatch):
        """Generation streams into a temporary file; a failed move leaves
        neither a cache entry nor temporary litter."""
        monkeypatch.setattr(
            os, "replace", lambda *a: (_ for _ in ()).throw(OSError("torn"))
        )
        with pytest.raises(OSError):
            trace_set.trace("ocean")
        monkeypatch.undo()
        assert list(trace_set.cache_dir.iterdir()) == []


class TestStatsSidecarPairing:
    """The stats sidecar rides in the trace file's footer, so trace and
    stats are written, read and discarded as one.  A file whose stats are
    absent, malformed, or schema-stale regenerates."""

    def test_missing_stats_regenerates_pair(self, trace_set, tmp_path, caplog):
        """A ``repro-trace import`` output has no stats: not a cache hit."""
        original = trace_set.trace("ocean")
        text = tmp_path / "ocean.txt"
        dump_text(original, text)
        path = _cache_file(trace_set)
        import_text(text, path)
        text.unlink()
        assert TraceReader(path).stats is None
        refreshed = _regenerated(trace_set, caplog)
        assert (refreshed.truth == original.truth).all()

    def test_corrupt_stats_regenerates(self, trace_set, caplog):
        trace_set.trace("ocean")
        path = _cache_file(trace_set)
        _rewrite(path, stats="{not json")
        assert _regenerated(trace_set, caplog) is not None

    def test_stale_schema_stats_regenerates(self, trace_set, caplog):
        summary = dict(trace_set.protocol_summary("ocean"))
        summary["schema"] = [TRACE_SCHEMA - 1, CACHE_SCHEMA]
        _rewrite(_cache_file(trace_set), summary)
        _regenerated(trace_set, caplog)
        assert any("schema" in r.message for r in caplog.records)

    def test_legacy_stats_without_schema_regenerate(self, trace_set, caplog):
        """Stats with no schema stamp count as stale."""
        summary = dict(trace_set.protocol_summary("ocean"))
        del summary["schema"]
        _rewrite(_cache_file(trace_set), summary)
        _regenerated(trace_set, caplog)


def _result():
    return ExperimentResult(
        name="demo", title="Demo", columns=["a"], rows=[{"a": 1}]
    )


class TestResultCacheHardening:
    def test_corrupt_json_recomputes(self, tmp_path, caplog):
        calls = []

        def compute():
            calls.append(1)
            return _result()

        cached_result("demo", "fp", compute, results_dir=tmp_path)
        (path,) = tmp_path.glob("demo-*.json")
        path.write_text("{truncated")
        with caplog.at_level("WARNING"):
            result = cached_result("demo", "fp", compute, results_dir=tmp_path)
        assert len(calls) == 2
        assert result.rows == [{"a": 1}]
        # the rewritten entry is valid and schema-stamped
        assert load_json_checked(path)["schema"] == [RESULT_SCHEMA, CACHE_SCHEMA]

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        calls = []

        def compute():
            calls.append(1)
            return _result()

        cached_result("demo", "fp", compute, results_dir=tmp_path)
        monkeypatch.setattr("repro.harness.results.CACHE_SCHEMA", CACHE_SCHEMA + 1)
        cached_result("demo", "fp", compute, results_dir=tmp_path)
        assert len(calls) == 2

    def test_legacy_payload_without_schema_recomputes(self, tmp_path):
        calls = []

        def compute():
            calls.append(1)
            return _result()

        cached_result("demo", "fp", compute, results_dir=tmp_path)
        (path,) = tmp_path.glob("demo-*.json")
        payload = json.loads(path.read_text())
        del payload["schema"]
        path.write_text(json.dumps(payload))
        cached_result("demo", "fp", compute, results_dir=tmp_path)
        assert len(calls) == 2

    def test_valid_cache_still_hits(self, tmp_path):
        calls = []

        def compute():
            calls.append(1)
            return _result()

        for _ in range(3):
            cached_result("demo", "fp", compute, results_dir=tmp_path)
        assert len(calls) == 1
