"""Kernel speedup benchmark: compiled backend vs the pure-Python oracle.

Builds the 64-scheme PAs slice of the design-space sweep -- the family
whose per-event loop cannot be vectorized and therefore pays full
Python-interpreter cost per event in the oracle -- and runs the same
(scheme, trace) grid through both registered kernel backends:

* **python**: :class:`~repro.core.kernel.PredictorKernel` driving
  ``PasOps`` entries, one interpreted iteration per event;
* **native**: :class:`~repro.core.kernel_native.NativeKernelBackend`, the
  compiled C loop over dense int32 key/block ids and flat counter arrays.

Each backend opens one stream per (scheme, trace) and is fed the whole
trace as one chunk -- exactly how a sweep runs a resident trace -- and
every prediction column is scored by the one normative
:func:`~repro.core.kernel_backends.score_predictions`.  Every confusion quad is asserted bit-identical before any number is
reported, so the emitted JSON can never describe a speedup bought with a
semantics change.  Emits ``BENCH_kernel.json`` (the CI artifact) and, by
default, fails if the compiled path is not at least 5x faster::

    PYTHONPATH=src python benchmarks/bench_kernel.py [--out PATH] [--no-strict]

On a machine with no compiler the native backend is unavailable; the
artifact records that and the floor is not enforced (there is nothing to
measure) -- CI runs this on a toolchain image, so the floor is real there.

Not a pytest file on purpose: wall-clock ratios belong in an artifact a
human (or the perf trajectory) reads, not in a test that flakes under CI
load.  The bit-identicality half *is* separately pinned by fast tests
(``tests/core/test_kernel_conformance.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.kernel_backends import get_kernel_backend, score_predictions
from repro.core.schemes import parse_scheme
from repro.core.vectorized import compute_keys
from repro.harness.runner import TraceSet

#: 8 index groups x 4 history depths x 2 update modes = 64 PAs schemes
SPECS = ("pid", "pc8", "add8", "pid+pc4", "pid+add6", "dir+add6", "pc4+add4", "dir")
DEPTHS = (1, 2, 4, 6)
MODES = ("direct", "forwarded")

MIN_SPEEDUP = 5.0
REPEATS = 3


def build_schemes():
    return [
        parse_scheme(f"pas({spec}){depth}[{mode}]")
        for spec in SPECS
        for depth in DEPTHS
        for mode in MODES
    ]


def best_of(repeats, run):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_kernel.json", help="artifact path (JSON)"
    )
    parser.add_argument(
        "--no-strict",
        action="store_true",
        help=f"report the speedup without enforcing the {MIN_SPEEDUP}x floor",
    )
    args = parser.parse_args(argv)

    schemes = build_schemes()
    assert len(schemes) == 64, len(schemes)
    traces = TraceSet(benchmarks=["water", "em3d"]).traces()

    python = get_kernel_backend("python")
    native = get_kernel_backend("native")
    native_available = native.available()

    # keys are index-group shared state, not kernel work: compute once so
    # both backends time exactly the per-event loop plus scoring
    key_streams = [
        [compute_keys(scheme.index, trace) for trace in traces]
        for scheme in schemes
    ]

    def evaluate(backend, scheme, trace, keys):
        stream = backend.stream(scheme, trace.num_nodes, trace.layout)
        return score_predictions(stream.feed(trace, keys), trace, True)

    def sweep(backend):
        return [
            [
                evaluate(backend, scheme, trace, keys)
                for trace, keys in zip(traces, per_trace_keys)
            ]
            for scheme, per_trace_keys in zip(schemes, key_streams)
        ]

    python_seconds, baseline = best_of(REPEATS, lambda: sweep(python))

    artifact = {
        "benchmark": "kernel-native-vs-python",
        "num_schemes": len(schemes),
        "num_traces": len(traces),
        "total_events": sum(len(trace) for trace in traces),
        "python_seconds": round(python_seconds, 4),
        "min_speedup": MIN_SPEEDUP,
        "native_available": native_available,
    }

    if not native_available:
        artifact["speedup"] = None
        Path(args.out).write_text(
            json.dumps(artifact, indent=2) + "\n", encoding="utf-8"
        )
        print(json.dumps(artifact, indent=2))
        print(
            "NOTE: native kernel backend unavailable (no compiler); "
            "nothing to enforce",
            file=sys.stderr,
        )
        return 0

    native_seconds, compiled = best_of(REPEATS, lambda: sweep(native))
    if compiled != baseline:
        print("FATAL: native results differ from python results", file=sys.stderr)
        return 2
    speedup = python_seconds / native_seconds

    artifact.update(
        {
            "native_seconds": round(native_seconds, 4),
            "speedup": round(speedup, 2),
            "results_identical": True,
        }
    )
    Path(args.out).write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(artifact, indent=2))

    if speedup < MIN_SPEEDUP and not args.no_strict:
        print(
            f"FAIL: kernel speedup {speedup:.2f}x below the {MIN_SPEEDUP}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
