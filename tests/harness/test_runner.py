"""TraceSet: generation, disk caching, fingerprints."""

import pytest

from repro.harness.runner import TraceSet, generate_trace
from repro.trace.interchange import TraceReader, write_source
from repro.trace.source import stream_fingerprint

SMALL = {
    "ocean": {"grid_size": 32, "iterations": 2},
    "mp3d": {"molecules_per_thread": 12, "steps": 3},
}


@pytest.fixture
def cached_set(tmp_path):
    return TraceSet(benchmarks=["ocean"], cache_dir=tmp_path)


class TestGenerateTrace:
    def test_returns_trace_and_stats(self):
        trace, stats = generate_trace("ocean", workload_params={"grid_size": 32, "iterations": 2})
        assert len(trace) > 0
        assert stats.writes > 0
        assert trace.name == "ocean"

    def test_deterministic(self):
        params = {"grid_size": 32, "iterations": 2}
        a, _ = generate_trace("ocean", workload_params=params)
        b, _ = generate_trace("ocean", workload_params=params)
        assert (a.truth == b.truth).all()
        assert (a.block == b.block).all()

    def test_seed_matters(self):
        params = {"molecules_per_thread": 12, "steps": 3}
        a, _ = generate_trace("mp3d", seed=0, workload_params=params)
        b, _ = generate_trace("mp3d", seed=1, workload_params=params)
        assert len(a) != len(b) or not (a.truth == b.truth).all()


class TestTraceSet:
    def test_generates_and_caches(self, cached_set, tmp_path):
        trace = cached_set.trace("ocean")
        assert len(list(tmp_path.glob("ocean-*.rtrace"))) == 1
        # second TraceSet over the same dir loads from disk
        reloaded = TraceSet(benchmarks=["ocean"], cache_dir=tmp_path).trace("ocean")
        assert (trace.truth == reloaded.truth).all()

    def test_memory_cache(self, cached_set):
        assert cached_set.trace("ocean") is cached_set.trace("ocean")

    def test_stats_sidecar(self, cached_set, tmp_path):
        """The protocol stats live in the cache file's footer."""
        summary = cached_set.protocol_summary("ocean")
        assert summary["writes"] > 0
        assert "max_static_stores_per_node" in summary
        (path,) = tmp_path.glob("ocean-*.rtrace")
        assert TraceReader(path).stats == summary

    def test_stats_regenerated_if_missing(self, cached_set, tmp_path):
        trace = cached_set.trace("ocean")
        (path,) = tmp_path.glob("ocean-*.rtrace")
        write_source(trace, path)  # same events, no footer stats
        fresh = TraceSet(benchmarks=["ocean"], cache_dir=tmp_path)
        assert fresh.protocol_summary("ocean")["writes"] > 0
        assert TraceReader(path).stats is not None

    def test_cold_set_writes_one_file_per_benchmark(self, tmp_path):
        trace_set = TraceSet(
            benchmarks=["ocean", "mp3d"], cache_dir=tmp_path, workload_params=SMALL
        )
        trace_set.traces()
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names == sorted(
            f"{name}-{trace_set._fingerprint(name)}.rtrace" for name in SMALL
        )

    def test_cached_trace_matches_generate_trace(self, tmp_path):
        cold = TraceSet(
            benchmarks=["mp3d"], seed=1, cache_dir=tmp_path, workload_params=SMALL
        )
        generated, stats = generate_trace(
            "mp3d", seed=1, workload_params=SMALL["mp3d"]
        )
        expected = stream_fingerprint(generated)
        assert stream_fingerprint(cold.trace("mp3d")) == expected
        warm = TraceSet(
            benchmarks=["mp3d"], seed=1, cache_dir=tmp_path, workload_params=SMALL
        )
        assert stream_fingerprint(warm.trace("mp3d")) == expected
        assert warm.protocol_summary("mp3d")["writes"] == stats.writes

    def test_fingerprint_stability(self, tmp_path):
        a = TraceSet(benchmarks=["ocean"], cache_dir=tmp_path)
        b = TraceSet(benchmarks=["ocean"], cache_dir=tmp_path)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_depends_on_seed(self, tmp_path):
        a = TraceSet(benchmarks=["ocean"], seed=0, cache_dir=tmp_path)
        b = TraceSet(benchmarks=["ocean"], seed=1, cache_dir=tmp_path)
        assert a.fingerprint() != b.fingerprint()

    def test_traces_in_suite_order(self, tmp_path):
        trace_set = TraceSet(benchmarks=["water", "ocean"], cache_dir=tmp_path)
        assert [trace.name for trace in trace_set.traces()] == ["water", "ocean"]
