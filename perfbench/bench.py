"""The benchmark's workloads: set-up, one timed pass, and output checks.

Each workload drives the program only through its public entry points,
over the trace suite of one ``--seed``.  A pass is one unit of work the
user waits for; the runner repeats passes for ``--seconds`` and reports
medians.  Checks run between passes or after the last one, outside the
timed region; every generated trace and every (scheme, trace) result is
one attempted operation.

No ``repro`` import happens at module level: set-up time counts them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: suite sizes.  ``full`` is the paper suite at default scale; ``tiny``
#: keeps the self-test to seconds.
SUITES = {
    "full": {"benchmarks": None, "params": {}},
    "tiny": {
        "benchmarks": ["ocean", "water"],
        "params": {
            "ocean": {"grid_size": 32, "iterations": 2},
            "water": {"molecules_per_thread": 2, "neighbors_per_molecule": 4, "steps": 2},
        },
    },
}

#: ``sweep`` scores every scheme of every Nth index group of the Tables
#: 8/10 design space.  Slicing by index group (not by scheme) keeps each
#: group's shared key stream and bitmap pass intact, so a pass costs the
#: same per scheme as the full sweep -- one eighth of it.
SWEEP_GROUP_STRIDE = {"full": 8, "tiny": 60}

#: ``pipeline`` replays two of the eight canonical schemes: a union and an
#: intersection, direct and forwarded update, so both a forward-heavy and
#: a forward-light replay show.
TRAFFIC_SLICE = ("union(dir+add14)4[direct]", "inter(pid+pc8)2[forwarded]")

#: ``pipeline`` streams the bitmap schemes of every Nth index group of the
#: forwarded sweep (offset from the ``sweep`` slice) plus its first few
#: PAs schemes, chunk by chunk off ``.rtrace`` files.
STREAM_GROUP_STRIDE = {"full": 12, "tiny": 80}
STREAM_GROUP_OFFSET = 5
STREAM_PAS = {"full": 2, "tiny": 1}
#: ``.rtrace`` chunk length: well below every trace's length (4k-19k
#: events), so streamed windows carry state across chunk boundaries
STREAM_CHUNK = {"full": 2048, "tiny": 256}

#: schemes whose sweep rows are recomputed on the ``reference`` engine
SWEEP_REFERENCE_FAMILIES = ("union", "inter", "pas")


class Context:
    """Where one run's inputs live and how large they are."""

    def __init__(self, seed: int, size: str, build_dir: Path, work_dir: Path,
                 inject_fault: bool = False):
        self.seed = seed
        self.size = size
        self.seed_dir = build_dir / f"seed-{size}-{seed}"
        self.work_dir = work_dir
        self.inject_fault = inject_fault

    @property
    def trace_dir(self) -> Path:
        return self.seed_dir / "traces"

    def rtrace_path(self, benchmark: str) -> Path:
        return self.seed_dir / "rtrace" / f"{benchmark}.rtrace"

    def trace_set(self, cache_dir: Optional[Path] = None):
        from repro.harness.runner import TraceSet

        suite = SUITES[self.size]
        return TraceSet(
            benchmarks=suite["benchmarks"],
            seed=self.seed,
            cache_dir=cache_dir if cache_dir is not None else self.trace_dir,
            workload_params=suite["params"],
        )

    def expected(self) -> dict:
        return json.loads((self.seed_dir / "expected.json").read_text())

    def prepared(self) -> bool:
        return (self.seed_dir / "READY").exists()


def prepare(ctx: Context) -> None:
    """Generate the seed's traces, ``.rtrace`` copies and expected results.

    Runs once per seed, in its own process, before any timing.  The
    expected results are the trace digests and the ``reference`` engine's
    answers for the sampled sweep rows and traffic report: the slow oracle
    runs here once instead of in every run.
    """
    from repro.core.kernel_backends import resolve_kernel_backend
    from repro.core.schemes import parse_scheme
    from repro.engine.backends import ReferenceEngine
    from repro.harness.experiments.base import scheme_row, screening_summary
    from repro.harness.experiments.traffic import DEFAULT_TRAFFIC_CONFIG
    from repro.trace.interchange import write_source
    from repro.trace.source import stream_fingerprint

    resolve_kernel_backend()  # builds the native kernel into the build dir
    trace_set = ctx.trace_set()
    traces = trace_set.traces()
    expected = {"fingerprints": {}, "accesses": {}}
    (ctx.seed_dir / "rtrace").mkdir(parents=True, exist_ok=True)
    for name, trace in zip(trace_set.benchmarks, traces):
        write_source(trace, ctx.rtrace_path(name), chunk_events=STREAM_CHUNK[ctx.size])
        expected["fingerprints"][name] = stream_fingerprint(trace)
        expected["accesses"][name] = trace_set.protocol_summary(name)["accesses"]

    reference = ReferenceEngine()
    sample = sweep_reference_sample(ctx.size, trace_set.num_nodes)
    expected["sweep_rows"] = [
        scheme_row(scheme, screening_summary(counts), trace_set.num_nodes)
        for scheme, counts in zip(sample, reference.evaluate_batch(sample, traces))
    ]
    smallest = min(range(len(traces)), key=lambda position: len(traces[position]))
    expected["traffic_trace"] = smallest
    expected["traffic_report"] = reference.simulate_traffic(
        parse_scheme(TRAFFIC_SLICE[0]), traces[smallest], config=DEFAULT_TRAFFIC_CONFIG
    ).to_json()
    (ctx.seed_dir / "expected.json").write_text(json.dumps(expected, indent=1))
    (ctx.seed_dir / "READY").write_text("ok\n")


def sweep_slice(size: str, update, num_nodes: int, original=None) -> List:
    """The ``sweep`` workload's schemes for one update mode."""
    if original is None:
        from repro.harness.experiments.sweeps import sweep_schemes as original
    return _group_slice(original(update, num_nodes), SWEEP_GROUP_STRIDE[size])


def sweep_reference_sample(size: str, num_nodes: int) -> List:
    """The middle direct-update scheme of each sampled family in the slice
    (the first ones use the empty index, which predicts trivially)."""
    from repro.core.update import UpdateMode

    schemes = sweep_slice(size, UpdateMode.DIRECT, num_nodes)
    sample = []
    for family in SWEEP_REFERENCE_FAMILIES:
        members = [scheme for scheme in schemes if scheme.function == family]
        sample.append(members[len(members) // 2])
    return sample


def prevalence_error_pp(traces) -> float:
    """Mean |simulated - paper Table 6 prevalence| in percentage points."""
    from repro.harness.experiments import PAPER_PREVALENCE
    from repro.trace.stats import compute_trace_stats

    errors = [
        abs(100 * compute_trace_stats(trace).prevalence - PAPER_PREVALENCE[trace.name])
        for trace in traces
    ]
    return sum(errors) / len(errors)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _group_slice(schemes: Sequence, stride: int, offset: int = 0) -> List:
    """Every scheme of every ``stride``-th index group, enumeration order."""
    specs = list(dict.fromkeys(scheme.index for scheme in schemes))
    keep = set(specs[offset::stride])
    return [scheme for scheme in schemes if scheme.index in keep]


class Workload:
    """One workload: ``setup`` once, ``run_pass`` timed, checks untimed."""

    name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        #: (scheme, trace) pairs one pass plans: the denominator of
        #: ``core.trace_passes_per_scheme``
        self.schemes_x_traces: Optional[int] = None
        #: events one pass replays through the forwarding simulator
        self.replay_events = 0

    def tally(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def setup(self, before_load=None) -> Dict[str, float]:
        """Import, load the kernel, build the engine, load inputs.

        ``before_load`` (untimed) runs once the program is imported: the
        traced run installs its wrappers there.
        """
        started = time.perf_counter()
        import repro.engine  # noqa: F401
        import repro.harness.experiments  # noqa: F401
        import repro.trace.interchange  # noqa: F401

        imported = time.perf_counter()
        from repro.core.kernel_backends import resolve_kernel_backend
        from repro.engine import make_engine

        resolve_kernel_backend()
        self.engine = make_engine()
        kernel = time.perf_counter()
        if before_load is not None:
            before_load()
        kernel_and_hook = time.perf_counter()
        self.load()
        loaded = time.perf_counter()
        return {
            "setup.import_s": imported - started,
            "setup.kernel_s": kernel - imported,
            "setup.trace_load_s": loaded - kernel_and_hook,
        }

    def load(self) -> None:
        self.trace_set = self.ctx.trace_set()
        self.traces = self.trace_set.traces()

    def run_pass(self, index: int) -> int:
        """One timed unit of work; returns the work units it did."""
        raise NotImplementedError

    def check_pass(self, index: int) -> None:
        """Check the outputs of the pass just run (untimed)."""

    def finish(self) -> None:
        """Checks over all passes (untimed)."""

    def prevalence_err_pp(self) -> float:
        return prevalence_error_pp(self.traces)

    def simulated_counts(self) -> Dict[str, float]:
        """Protocol statistics of the simulated machine (``pipeline`` only)."""
        return {"memory.read_hit_ratio": 0.0, "memory.invalidations": 0}


class Pipeline(Workload):
    """Cold trace generation, forwarding replay and streamed evaluation.

    One pass is ``TraceSet(seed=...).traces()`` into an empty trace cache,
    ``run_traffic_sweep`` over the traces just generated, then
    ``evaluate_batch`` over the seed's ``.rtrace`` copies.  Work units are
    simulated memory accesses: the generation drives the pass.
    """

    name = "pipeline"

    def load(self) -> None:
        from repro.core.update import UpdateMode
        from repro.harness.experiments.sweeps import sweep_schemes
        from repro.trace.interchange import FileTraceSource

        self.expected = self.ctx.expected()
        self.accesses = sum(self.expected["accesses"].values())
        self.sources = [
            FileTraceSource(self.ctx.rtrace_path(name)) for name in self.expected["accesses"]
        ]
        size = self.ctx.size
        forwarded = sweep_schemes(UpdateMode.FORWARDED, self.sources[0].num_nodes)
        bitmap = [scheme for scheme in forwarded if scheme.function != "pas"]
        pas = [scheme for scheme in forwarded if scheme.function == "pas"]
        self.stream_schemes = (
            _group_slice(bitmap, STREAM_GROUP_STRIDE[size], STREAM_GROUP_OFFSET)
            + pas[: STREAM_PAS[size]]
        )
        self.replay_events = len(TRAFFIC_SLICE) * sum(len(source) for source in self.sources)
        self.traces = []
        self.grids: List[list] = []
        self.streamed: List[list] = []

    def run_pass(self, index: int) -> int:
        from repro.harness.experiments.traffic import run_traffic_sweep

        self.cache_dir = self.ctx.work_dir / f"pipeline-{index}"
        self.generated = self.ctx.trace_set(cache_dir=self.cache_dir)
        self.generated.traces()
        self.traffic_schemes, grid = run_traffic_sweep(self.generated, schemes=TRAFFIC_SLICE)
        self.grids.append(grid)
        self.streamed.append(self.engine.evaluate_batch(self.stream_schemes, self.sources))
        return self.accesses

    def check_pass(self, index: int) -> None:
        from repro.trace.source import StreamingConsistencyChecker, as_source, stream_fingerprint

        fingerprints = dict(self.expected["fingerprints"])
        if self.ctx.inject_fault:
            fingerprints[self.generated.benchmarks[0]] = "0" * 16
        summaries = {}
        for name in self.generated.benchmarks:
            trace = self.generated.trace(name)
            summaries[name] = self.generated.protocol_summary(name)
            ok = stream_fingerprint(trace) == fingerprints[name]
            ok = ok and summaries[name]["accesses"] == self.expected["accesses"][name]
            checker = StreamingConsistencyChecker(trace.num_nodes)
            try:
                for chunk in as_source(trace).chunks():
                    checker.feed(chunk)
                checker.finish()
            except ValueError:
                ok = False
            self.tally(1, 0 if ok else 1)
        if not self.traces:
            self.traces = self.generated.traces()
            self.summaries = summaries
        self.generated = None
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def finish(self) -> None:
        self._check_traffic()
        self._check_stream()

    def _check_traffic(self) -> None:
        """Each report's quad equals ``evaluate_batch``'s, every pass equals
        the first, and one report equals the ``reference`` engine's."""
        counts = self.engine.evaluate_batch(self.traffic_schemes, self.traces)
        first = [[report.to_json() for report in row] for row in self.grids[0]]
        for grid in self.grids:
            for scheme_counts, reports, first_reports in zip(counts, grid, first):
                for expected, report, first_report in zip(
                    scheme_counts, reports, first_reports
                ):
                    quad = (report.true_positive, report.false_positive,
                            report.false_negative, report.true_negative)
                    ok = quad == (expected.true_positive, expected.false_positive,
                                  expected.false_negative, expected.true_negative)
                    ok = ok and report.to_json() == first_report
                    self.tally(1, 0 if ok else 1)
        reference = self.expected["traffic_report"]
        if self.ctx.inject_fault:
            reference["counts"][0] += 1
        ok = reference == first[0][self.expected["traffic_trace"]]
        self.tally(1, 0 if ok else 1)

    def _check_stream(self) -> None:
        """Streamed counts equal resident ``evaluate_batch`` counts."""
        resident = self.engine.evaluate_batch(self.stream_schemes, self.traces)
        if self.ctx.inject_fault:
            resident[0][0].true_positive += 1
        for streamed in self.streamed:
            for per_scheme, expected in zip(streamed, resident):
                for counts, reference in zip(per_scheme, expected):
                    self.tally(1, 0 if counts == reference else 1)

    def simulated_counts(self) -> Dict[str, float]:
        reads = sum(summary["reads"] for summary in self.summaries.values())
        misses = sum(summary["read_misses"] for summary in self.summaries.values())
        return {
            "memory.read_hit_ratio": 1.0 - misses / reads if reads else 0.0,
            "memory.invalidations": sum(
                summary["invalidations_sent"] for summary in self.summaries.values()
            ),
        }


class Sweep(Workload):
    """``repro-bench table8 table10 --no-cache`` over a design-space slice."""

    name = "sweep"

    def load(self) -> None:
        from repro.core.update import UpdateMode
        from repro.harness.experiments import sweeps

        super().load()
        original = sweeps.sweep_schemes
        size = self.ctx.size

        def sliced(update, num_nodes):
            return sweep_slice(size, update, num_nodes, original)

        sweeps.sweep_schemes = sliced
        self.schemes = sliced(UpdateMode.DIRECT, self.trace_set.num_nodes)
        self.events = sum(len(trace) for trace in self.traces)
        self.schemes_x_traces = 2 * len(self.schemes) * len(self.traces)
        self.rows: List[list] = []

    def _results_dir(self, table: str) -> Path:
        return self.ctx.work_dir / table

    def run_pass(self, index: int) -> int:
        from repro.harness.experiments import run_experiment

        for table in ("table8", "table10"):
            # one results directory per table, so both tables' sweep rows
            # can be checked; the sweep never reads them (--no-cache)
            os.environ["REPRO_CACHE_DIR"] = str(self._results_dir(table))
            run_experiment(table, self.trace_set, use_cache=False)
        return 2 * len(self.schemes) * self.events

    def check_pass(self, index: int) -> None:
        for table in ("table8", "table10"):
            (path,) = (self._results_dir(table) / "results").glob("sweep-direct-*.json")
            self.rows.append(json.loads(path.read_text())["rows"])
            path.unlink()

    def finish(self) -> None:
        per_table = len(self.schemes) * len(self.traces)
        first = self.rows[0]
        for rows in self.rows:
            self.tally(per_table, 0 if rows == first else per_table)
        # rows must also match every earlier run at this seed
        digest_path = self.ctx.seed_dir / "sweep_rows.sha256"
        digest = _digest(first)
        if not digest_path.exists():
            digest_path.write_text(digest + "\n")
        elif digest_path.read_text().strip() != digest:
            self.tally(per_table, per_table)
        by_name = {row["scheme"]: row for row in first}
        for expected in self.ctx.expected()["sweep_rows"]:
            if self.ctx.inject_fault:
                expected["pooled_tp"] += 1
            ok = by_name.get(expected["scheme"]) == expected
            self.tally(len(self.traces), 0 if ok else len(self.traces))


WORKLOADS = {cls.name: cls for cls in (Pipeline, Sweep)}
