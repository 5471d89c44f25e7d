"""Span tracing for the benchmark's traced run, installed from outside ``src/``.

Every wrapper is patched onto the name the program looks the function up
by (a module global or a class attribute), so the program itself carries
no instrumentation.  A span records its name, start, end, parent and the
run id; spans stay in memory and are written out once, at exit.  A span's
self time is its duration minus the time its child spans cover.

Targets that a later refactor removed are skipped and listed, so the
traced run keeps working while the per-layer figure it fed reads 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

#: (span name, module, attribute path) -- attribute paths with a dot are
#: class attributes; each entry is patched where the program looks it up
TARGETS = (
    ("workloads.accesses", "repro.workloads.base", "Workload.accesses"),
    ("memory.run", "repro.memory.system", "MultiprocessorSystem.run"),
    ("trace.finalize", "repro.memory.system", "MultiprocessorSystem.finalize_trace"),
    ("trace.save", "repro.harness.runner", "save_trace"),
    ("trace.load", "repro.harness.runner", "load_trace"),
    ("trace.read", "repro.trace.interchange", "FileTraceSource.chunks"),
    ("core.key_stream", "repro.core.plan", "KeyCache.key_stream"),
    ("core.compute_keys", "repro.core.plan", "compute_keys"),
    ("core.compute_keys", "repro.core.vectorized", "compute_keys"),
    ("core.compute_keys", "repro.core.windowed", "compute_keys"),
    ("core.kernel", "repro.core.plan", "kernel_evaluate"),
    ("core.kernel", "repro.core.vectorized", "kernel_evaluate"),
    # streamed per-event families run the pure-Python kernel here, outside
    # the kernel registry and its counters, so this private name is the
    # only boundary that shows them
    ("core.kernel_oracle", "repro.core.windowed", "_KernelSchemeState.feed"),
    ("core.score", "repro.core.vectorized", "score_predictions"),
    ("core.score", "repro.core.windowed", "score_predictions"),
    ("core.evaluate_plan", "repro.engine.backends", "evaluate_plan"),
    ("core.streamed_feed", "repro.core.windowed", "StreamedSweep.feed"),
    ("engine.evaluate_batch", "repro.engine.base", "EvaluationEngine.evaluate_batch"),
    ("engine.evaluate_traffic", "repro.engine.base", "EvaluationEngine.evaluate_traffic"),
    ("forwarding.predict", "repro.core.vectorized", "predict_scheme_fast"),
    ("forwarding.replay", "repro.forwarding.simulator", "TrafficReplayState.feed"),
    ("forwarding.replay", "repro.forwarding.simulator", "TrafficReplayState.finish"),
    ("harness.journal_record", "repro.harness.runner", "SweepJournal.record"),
    ("harness.cached_result", "repro.harness.experiments.sweeps", "cached_result"),
)

#: span name of the benchmark's own per-pass root; its self time is the
#: wall time no layer span covers
ROOT = "pass"


class Tracer:
    """In-memory span recorder; only records while ``active``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.active = False
        #: [name, start, end, parent index]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.missing: List[str] = []
        #: accesses drained from workload generators while tracing
        self.accesses = 0
        #: items the traced iterators yielded while tracing
        self.chunks = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, function):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = function(*args, **kwargs)
                if name == "workloads.accesses":
                    # drain the access generator here so thread programs and
                    # the interleaver are timed apart from the protocol
                    result = list(result)
                    tracer.accesses += len(result)
                return result
            finally:
                tracer.close(index)

        return traced

    def wrap_iterator(self, name: str, function):
        """Time each ``next()`` of the iterator ``function`` returns."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            iterator = iter(function(*args, **kwargs))
            while tracer.active:
                index = tracer.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                tracer.chunks += 1
                yield item
            yield from iterator

        return traced

    def install(self) -> None:
        """Patch every target that exists; remember the ones that do not."""
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            try:
                for part in owners:
                    owner = getattr(owner, part)
                function = getattr(owner, attribute)
            except AttributeError:
                self.missing.append(f"{module_name}.{path}")
                continue
            if name == "trace.read":
                setattr(owner, attribute, self.wrap_iterator(name, function))
            else:
                setattr(owner, attribute, self.wrap(name, function))

    def self_times(self, start: int = 0, stop: Optional[int] = None) -> Dict[str, List[float]]:
        """``name -> [self seconds, calls]`` over spans ``start:stop``."""
        selected = self.spans[start:stop]
        child_time = defaultdict(float)
        for name, begin, end, parent in selected:
            if parent >= 0:
                child_time[parent] += end - begin
        totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for offset, (name, begin, end, _parent) in enumerate(selected):
            entry = totals[name]
            entry[0] += (end - begin) - child_time[start + offset]
            entry[1] += 1
        return dict(totals)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (at exit, never while timing)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, begin, end, parent in self.spans:
                record = {
                    "run": self.run_id,
                    "name": name,
                    "start": begin,
                    "end": end,
                    "parent": parent,
                }
                handle.write(json.dumps(record) + "\n")
            if self.missing:
                handle.write(json.dumps({"run": self.run_id, "missing": self.missing}) + "\n")


def layer_metrics(
    times: Dict[str, List[float]],
    counters: Dict[str, int],
    passes: int,
    schemes_x_traces: Optional[int],
    replay_events_per_pass: int,
) -> Dict[str, float]:
    """Per-pass layer figures from span self times and a telemetry snapshot."""

    def seconds(*names: str) -> float:
        return sum(times.get(name, (0.0, 0))[0] for name in names) / passes

    def calls(name: str) -> float:
        return times.get(name, (0.0, 0))[1] / passes

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    hits = counters.get("plan.key_cache.hits", 0)
    misses = counters.get("plan.key_cache.misses", 0)
    native = counters.get("kernel.backend.native", 0)
    kernel_calls = sum(
        value for key, value in counters.items() if key.startswith("kernel.backend.")
    )
    replay_s = seconds("forwarding.replay")
    return {
        "workloads.busy_s": seconds("workloads.accesses"),
        "memory.busy_s": seconds("memory.run"),
        "trace.finalize_s": seconds("trace.finalize"),
        "trace.save_s": seconds("trace.save"),
        "trace.read_s": seconds("trace.read"),
        "core.keys_s": seconds("core.key_stream", "core.compute_keys"),
        "core.key_cache_hit_ratio": ratio(hits, hits + misses),
        "core.bitmap_s": seconds("core.evaluate_plan", "core.streamed_feed"),
        "core.score_s": seconds("core.score"),
        "core.kernel_s": seconds("core.kernel", "core.kernel_oracle"),
        "core.kernel_native_ratio": ratio(
            native, kernel_calls + times.get("core.kernel_oracle", (0.0, 0))[1]
        ),
        "core.kernel_fallbacks": counters.get("kernel.fallbacks", 0) / passes,
        "core.trace_passes_per_scheme": ratio(
            counters.get("plan.trace_passes", 0) / passes, schemes_x_traces or 0
        ),
        "engine.batches": calls("engine.evaluate_batch"),
        "engine.self_s": seconds("engine.evaluate_batch", "engine.evaluate_traffic"),
        "engine.materializations": counters.get("engine.stream.materializations", 0)
        / passes,
        "forwarding.predict_s": seconds("forwarding.predict"),
        "forwarding.replay_s": replay_s,
        "forwarding.replay_events_per_s": ratio(replay_events_per_pass, replay_s),
        "harness.journal_s": seconds("harness.journal_record"),
        "harness.journal_records": calls("harness.journal_record"),
        "harness.result_s": seconds("harness.cached_result"),
        "harness.result_writes": calls("harness.cached_result"),
        "unattributed_s": seconds(ROOT),
    }
