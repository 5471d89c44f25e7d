"""Shared-memory trace transport: publish/attach round-trips, fingerprints,
lifecycle, and the environment gate.

These tests run in a single process (attaching to a segment published by the
same process is valid and exercises the exact same mapping path workers use);
the cross-process path is covered by the parallel-engine golden tests, which
run the full pool with the SHM transport both on and off.
"""

import numpy as np
import pytest

from repro.telemetry import Telemetry, set_telemetry
from repro.trace.shm import (
    attach_trace,
    publish_traces,
    shm_available,
    shm_enabled,
)
from repro.trace.source import CHUNK_FIELDS, stream_fingerprint
from tests.conftest import make_random_trace

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)


@pytest.fixture
def traces():
    return [
        make_random_trace(num_nodes=8, num_events=120, num_blocks=10, seed="shm-a"),
        make_random_trace(num_nodes=16, num_events=90, num_blocks=6, seed="shm-b"),
    ]


class TestFingerprint:
    def test_stable_across_calls(self, traces):
        assert stream_fingerprint(traces[0]) == stream_fingerprint(traces[0])

    def test_distinct_traces_distinct_fingerprints(self, traces):
        assert stream_fingerprint(traces[0]) != stream_fingerprint(traces[1])

    def test_sensitive_to_array_contents(self, traces):
        trace = traces[0]
        before = stream_fingerprint(trace)
        mutated = trace.writer.copy()
        mutated[0] = (mutated[0] + 1) % trace.num_nodes
        clone = type(trace)(
            num_nodes=trace.num_nodes,
            name=trace.name,
            **{
                field: (mutated if field == "writer" else getattr(trace, field))
                for field in CHUNK_FIELDS
            },
        )
        assert stream_fingerprint(clone) != before


class TestPublishAttach:
    def test_round_trip_is_bit_identical(self, traces):
        with publish_traces(traces) as published:
            assert len(published.descriptors) == len(traces)
            for descriptor, original in zip(published.descriptors, traces):
                attached = attach_trace(descriptor)
                try:
                    assert attached.trace.name == original.name
                    assert attached.trace.num_nodes == original.num_nodes
                    assert len(attached.trace) == len(original)
                    for field in CHUNK_FIELDS:
                        np.testing.assert_array_equal(
                            getattr(attached.trace, field), getattr(original, field)
                        )
                finally:
                    attached.close()

    def test_attached_views_are_zero_copy(self, traces):
        """The worker-side arrays alias the shared buffer, not copies."""
        with publish_traces(traces[:1]) as published:
            attached = attach_trace(published.descriptors[0])
            try:
                for field in CHUNK_FIELDS:
                    array = getattr(attached.trace, field)
                    assert not array.flags["OWNDATA"], field
            finally:
                attached.close()

    def test_descriptors_are_pickle_flat(self, traces):
        import pickle

        with publish_traces(traces) as published:
            blob = pickle.dumps(published.descriptors)
            # descriptors must stay tiny regardless of trace size
            assert len(blob) < 4096
            restored = pickle.loads(blob)
            assert restored[0].fingerprint == published.descriptors[0].fingerprint

    def test_fingerprint_mismatch_rejected(self, traces):
        from dataclasses import replace

        with publish_traces(traces[:1]) as published:
            forged = replace(published.descriptors[0], fingerprint="0" * 16)
            with pytest.raises(ValueError, match="fingerprint mismatch"):
                attach_trace(forged)

    def test_close_unlinks_segments(self, traces):
        published = publish_traces(traces[:1])
        descriptor = published.descriptors[0]
        published.close()
        with pytest.raises((FileNotFoundError, OSError)):
            attach_trace(descriptor)

    def test_close_is_idempotent(self, traces):
        published = publish_traces(traces[:1])
        published.close()
        published.close()  # must not raise

    def test_publish_telemetry(self, traces):
        sink = Telemetry()
        previous = set_telemetry(sink)
        try:
            published = publish_traces(traces)
            published.close()
        finally:
            set_telemetry(previous)
        assert sink.counters["shm.publishes"] == len(traces)
        assert sink.counters["shm.unlinks"] == len(traces)
        expected_bytes = sum(
            np.ascontiguousarray(getattr(trace, field)).nbytes
            for trace in traces
            for field in CHUNK_FIELDS
        )
        assert sink.counters["shm.bytes_published"] == expected_bytes


class TestEnvironmentGate:
    @pytest.mark.parametrize("raw", ["0", "false", "off", "no", " OFF "])
    def test_disabling_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SHM", raw)
        assert shm_enabled() is False

    @pytest.mark.parametrize("raw", ["1", "true", "on", "yes", ""])
    def test_enabling_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SHM", raw)
        assert shm_enabled() is True

    def test_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHM", raising=False)
        assert shm_enabled() is True
