"""The checked-in trace cache: every ``data/traces`` file is a disk hit.

Opens each committed ``.rtrace`` through the cache loader (reader, footer
stats stamp, trace invariants) and asserts that nothing regenerates.  The
files are copied first, so a damaged one fails this test instead of being
replaced in the working tree.
"""

import shutil
from pathlib import Path

import pytest

from repro.harness.runner import TraceSet
from repro.telemetry import Telemetry, set_telemetry

CACHE = Path(__file__).resolve().parents[2] / "data" / "traces"
SEEDS = (0, 1, 2)


def test_cache_holds_exactly_the_suites_rtrace_files():
    expected = {
        f"{name}-{trace_set._fingerprint(name)}.rtrace"
        for trace_set in (TraceSet(seed=seed, cache_dir=CACHE) for seed in SEEDS)
        for name in trace_set.benchmarks
    }
    assert {path.name for path in CACHE.iterdir()} == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_every_checked_in_trace_is_a_disk_hit(seed, tmp_path):
    trace_set = TraceSet(seed=seed, cache_dir=tmp_path)
    for name in trace_set.benchmarks:
        path = trace_set._cache_path(name)
        shutil.copyfile(CACHE / path.name, path)
    sink = Telemetry()
    previous = set_telemetry(sink)
    try:
        traces = trace_set.traces()
        summaries = [trace_set.protocol_summary(name) for name in trace_set.benchmarks]
    finally:
        set_telemetry(previous)
    counters = {
        key: value for key, value in sink.counters.items() if key.startswith("cache.trace.")
    }
    assert counters == {
        "cache.trace.disk_hits": len(trace_set.benchmarks),
        "cache.trace.memory_hits": len(trace_set.benchmarks),
    }
    assert all(len(trace) > 0 for trace in traces)
    assert all(summary["accesses"] > 0 for summary in summaries)
