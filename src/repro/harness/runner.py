"""Trace generation/caching and sweep checkpointing for the harness.

Generating a benchmark trace means running the full protocol simulation
over a few hundred thousand memory references, so traces are cached as
``.rtrace`` files keyed by a fingerprint of everything that determines them
(benchmark, seed, node count, cache geometry, scheduler quantum, and the
package's trace-format version).  Generation streams the simulation
straight into the cache file, and the protocol statistics ride in its
footer.  Delete the cache directory (default ``<repo>/data/traces``,
override with ``REPRO_CACHE_DIR``) to force regeneration.

This module also owns **sweep checkpointing**: the design-space sweeps
evaluate thousands of schemes and used to restart from scratch if the run
was killed.  :class:`SweepJournal` appends each completed scheme's
per-trace confusion counts to a schema-versioned JSONL journal as the
engine reports them (via the ``on_result`` batch callback), and a later
run started with ``repro-bench --resume`` replays the journal instead of
re-evaluating the finished schemes -- the replayed counts are the recorded
integers, so a resumed sweep is bit-identical to an uninterrupted one.
Engines may report schemes in any order (the planner batches by index
group and the parallel backend journals per completed chunk); the journal
is keyed by scheme name, so resume is order-independent by construction.
:class:`CheckpointPolicy` (installed by the CLI, queried by the sweep
experiments) decides whether journals are written, read, or skipped.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.machine import MachineSpec
from repro.metrics.confusion import ConfusionCounts
from repro.telemetry import get_telemetry
from repro.trace.builder import ColumnSink
from repro.trace.events import SharingTrace
from repro.trace.interchange import TraceReader, TraceWriter, load_trace
from repro.util.persist import CACHE_SCHEMA, CacheCorruptionError, discard_corrupt
from repro.workloads.registry import BENCHMARK_NAMES, make_workload

logger = logging.getLogger("repro.harness.runner")

#: bump when trace semantics change, to invalidate caches
TRACE_SCHEMA = 7

#: bump when the sweep-journal line format changes; old journals are
#: discarded, never misread
JOURNAL_SCHEMA = 1


def default_cache_dir() -> Path:
    """The trace cache directory (created on demand)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "data" / "traces"


def generate_trace(
    benchmark: str,
    num_nodes: int = 16,
    seed: int = 0,
    quantum: int = 4,
    workload_params: Optional[dict] = None,
    machine: Optional[MachineSpec] = None,
    forward=None,
):
    """Run one benchmark through the protocol and return (trace, stats).

    The system is the workload's :meth:`~repro.workloads.base.Workload.system_config`:
    its suggested (scaled) cache geometry, or the whole of ``machine``
    when one is given (the resulting trace then carries the spec).
    ``forward`` (a column sink such as a
    :class:`~repro.trace.interchange.TraceWriter`) also receives every
    batch of settled events as the simulation runs.
    """
    workload = make_workload(
        benchmark,
        num_nodes=num_nodes,
        seed=seed,
        machine=machine,
        **(workload_params or {}),
    )
    sink = ColumnSink(
        workload.num_nodes, name=benchmark, machine=machine, forward=forward
    )
    stats = workload.stream_trace(sink, quantum=quantum)
    return sink.trace(), stats


def _stats_summary(stats) -> dict:
    """The schema-stamped protocol statistics stored in a cache footer."""
    return {
        "schema": [TRACE_SCHEMA, CACHE_SCHEMA],
        "accesses": stats.reads + stats.writes,
        "reads": stats.reads,
        "writes": stats.writes,
        "read_misses": stats.read_misses,
        "write_misses": stats.write_misses,
        "write_upgrades": stats.write_upgrades,
        "silent_writes": stats.silent_writes,
        "invalidations_sent": stats.invalidations_sent,
        "writebacks": stats.writebacks,
        "replacements": stats.replacements,
        "max_static_stores_per_node": stats.max_static_stores_per_node(),
        "max_predicted_stores_per_node": stats.max_predicted_stores_per_node(),
    }


class TraceSet:
    """The benchmark suite's traces, generated lazily and cached on disk."""

    def __init__(
        self,
        benchmarks: Optional[List[str]] = None,
        num_nodes: int = 16,
        seed: int = 0,
        quantum: int = 4,
        cache_dir: Optional[Path] = None,
        machine: Optional[MachineSpec] = None,
        workload_params: Optional[Dict[str, dict]] = None,
    ):
        self.benchmarks = list(benchmarks) if benchmarks is not None else list(BENCHMARK_NAMES)
        self.machine = machine
        self.num_nodes = machine.num_nodes if machine is not None else num_nodes
        self.seed = seed
        self.quantum = quantum
        self.cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
        #: optional per-benchmark constructor overrides (scenario grids use
        #: these to shrink per-thread work on big machines)
        self.workload_params = dict(workload_params or {})
        self._traces: Dict[str, SharingTrace] = {}
        self._summaries: Dict[str, dict] = {}

    def _fingerprint(self, benchmark: str) -> str:
        key = (
            f"schema={TRACE_SCHEMA};bench={benchmark};nodes={self.num_nodes};"
            f"seed={self.seed};quantum={self.quantum}"
        )
        # Only non-default machines and explicit workload overrides extend
        # the key: the bare 16-node suite keeps its historical fingerprints,
        # so every pre-existing cache and golden fixture stays valid.
        if self.machine is not None:
            key += f";machine={self.machine.trace_label()}"
        params = self.workload_params.get(benchmark)
        if params:
            encoded = json.dumps(params, separators=(",", ":"), sort_keys=True)
            key += f";params={encoded}"
        return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]

    def _cache_path(self, benchmark: str) -> Path:
        return self.cache_dir / f"{benchmark}-{self._fingerprint(benchmark)}.rtrace"

    def trace(self, benchmark: str) -> SharingTrace:
        """The benchmark's trace: memory, then disk cache, then generation.

        A cached file that is unreadable (truncated download, torn write,
        failed checksum, broken invariants), has no stats, or carries a
        stale schema stamp is logged, deleted, and regenerated --
        corruption is a cache miss, never a crash.
        """
        telemetry = get_telemetry()
        cached = self._traces.get(benchmark)
        if cached is not None:
            telemetry.count("cache.trace.memory_hits")
            return cached
        path = self._cache_path(benchmark)
        trace: Optional[SharingTrace] = None
        if path.exists():
            try:
                trace = load_trace(path)
                summary = self._read_summary(path)
                telemetry.count("cache.trace.disk_hits")
            except CacheCorruptionError as error:
                discard_corrupt(path, str(error))
                telemetry.count("cache.trace.corrupt_regenerations")
                trace = None
        else:
            telemetry.count("cache.trace.misses")
        if trace is None:
            trace, summary = self._generate(benchmark, path)
        self._traces[benchmark] = trace
        self._summaries[benchmark] = summary
        return trace

    @staticmethod
    def _read_summary(path: Path) -> dict:
        """The footer stats of a cache file; stale or absent is corruption."""
        summary = TraceReader(path).stats
        expected = [TRACE_SCHEMA, CACHE_SCHEMA]
        if summary is None or summary.get("schema") != expected:
            stamp = None if summary is None else summary.get("schema")
            raise CacheCorruptionError(
                f"trace stats schema {stamp!r} != {expected!r}"
            )
        return summary

    def _generate(self, benchmark: str, path: Path):
        """Stream one benchmark's simulation into its cache file.

        The trace and its stats are written together through one
        :class:`~repro.trace.interchange.TraceWriter`, which appears at
        ``path`` atomically on close, while :func:`generate_trace` keeps
        the resident copy.  Returns ``(trace, stats summary)``.
        """
        telemetry = get_telemetry()
        telemetry.count("cache.trace.regenerations")
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        with telemetry.timer("cache.trace.generate_seconds"):
            writer = TraceWriter(
                path, self.num_nodes, name=benchmark, machine=self.machine
            )
            try:
                trace, stats = generate_trace(
                    benchmark,
                    num_nodes=self.num_nodes,
                    seed=self.seed,
                    quantum=self.quantum,
                    workload_params=self.workload_params.get(benchmark),
                    machine=self.machine,
                    forward=writer,
                )
            except BaseException:
                writer.abort()
                raise
            summary = _stats_summary(stats)
            writer.close(stats=summary)
        return trace, summary

    def protocol_summary(self, benchmark: str) -> dict:
        """Protocol statistics recorded when the trace was generated.

        They come from the same cache file as :meth:`trace`'s events, so
        the summary always describes the trace :meth:`trace` returns.
        """
        self.trace(benchmark)
        return self._summaries[benchmark]

    def traces(self) -> List[SharingTrace]:
        """All benchmark traces, in suite order."""
        return [self.trace(name) for name in self.benchmarks]

    def fingerprint(self) -> str:
        """A stable id for this trace set (used to key derived result caches)."""
        parts = ";".join(
            f"{name}:{self._fingerprint(name)}" for name in self.benchmarks
        )
        return hashlib.sha256(parts.encode("utf-8")).hexdigest()[:16]


def default_trace_set() -> TraceSet:
    """The suite at default scale -- what all paper experiments run on."""
    return TraceSet()


class FileTraceSet:
    """A suite of on-disk ``.rtrace`` files with the :class:`TraceSet` surface.

    What sweep experiments receive when the user points them at imported
    trace files (``--trace-file``): ``benchmarks`` / :meth:`trace` /
    :meth:`traces` / :meth:`fingerprint` behave like :class:`TraceSet`, but
    each entry is a streaming
    :class:`~repro.trace.interchange.FileTraceSource` -- engines consume it
    chunk-wise and peak memory stays one window, not one trace.  Names
    come from the file headers; duplicates are disambiguated by suffix so
    per-benchmark result tables stay well-keyed.
    """

    def __init__(self, paths: Sequence[Union[str, os.PathLike]]):
        from repro.trace.interchange import FileTraceSource

        if not paths:
            raise ValueError("FileTraceSet needs at least one .rtrace path")
        self._sources = []
        names: List[str] = []
        for path in paths:
            source = FileTraceSource(path)
            name = source.name
            if name in names:
                name = f"{name}#{names.count(name) + 1}"
            names.append(source.name)
            self._sources.append((name, source))
        self.benchmarks = [name for name, _source in self._sources]
        self.num_nodes = self._sources[0][1].num_nodes
        self.machine = self._sources[0][1].machine

    def trace(self, benchmark: str):
        for name, source in self._sources:
            if name == benchmark:
                return source
        raise KeyError(f"no trace named {benchmark!r} in this file set")

    def traces(self) -> list:
        return [source for _name, source in self._sources]

    def fingerprint(self) -> str:
        """Content-addressed suite id (stable across file moves/renames)."""
        parts = ";".join(
            f"{name}:{source.fingerprint()}" for name, source in self._sources
        )
        return hashlib.sha256(parts.encode("utf-8")).hexdigest()[:16]

    def protocol_summary(self, benchmark: str) -> dict:
        raise ValueError(
            "protocol statistics are recorded when a trace is generated; an "
            f"imported .rtrace file carries none (requested {benchmark!r}). "
            "Run the experiment on a generated suite instead."
        )


# ----------------------------------------------------------------------
# Sweep checkpoint journal
# ----------------------------------------------------------------------


def default_checkpoint_dir() -> Path:
    """Where sweep journals live (``REPRO_CHECKPOINT_DIR`` overrides)."""
    override = os.environ.get("REPRO_CHECKPOINT_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "data" / "checkpoints"


@dataclass(frozen=True)
class CheckpointPolicy:
    """How sweep experiments use checkpoint journals.

    Attributes:
        enabled: write a journal while sweeping (``--no-journal`` clears it).
        resume: replay an existing compatible journal instead of starting
            fresh (``--resume``); without it a stale journal is discarded.
        directory: journal directory (default :func:`default_checkpoint_dir`).
    """

    enabled: bool = True
    resume: bool = False
    directory: Optional[Path] = None

    def journal_dir(self) -> Path:
        return self.directory if self.directory is not None else default_checkpoint_dir()


_CHECKPOINT_POLICY = CheckpointPolicy()


def get_checkpoint_policy() -> CheckpointPolicy:
    """The process-wide checkpoint policy sweeps consult."""
    return _CHECKPOINT_POLICY


def set_checkpoint_policy(policy: CheckpointPolicy) -> CheckpointPolicy:
    """Install a new policy; returns the previous one for restoration."""
    global _CHECKPOINT_POLICY
    previous = _CHECKPOINT_POLICY
    _CHECKPOINT_POLICY = policy
    return previous


class SweepJournal:
    """Append-only JSONL checkpoint of completed sweep evaluations.

    Line 1 is a header binding the journal to one exact computation:
    journal schema, sweep name, trace-set fingerprint, and the benchmark
    suite order.  Every following line is one completed scheme::

        {"scheme": "<full name>", "counts": [[tp, fp, fn, tn], ...]}

    with one count quadruple per benchmark, in suite order.  Appends are
    flushed per record, so a killed process loses at most the scheme it was
    mid-evaluating; a torn final line (the kill landed mid-write) is
    silently dropped on replay.  A journal whose header does not match the
    requested computation is discarded -- resuming can change wall-clock,
    never results.

    Subclasses journal other per-scheme payloads by overriding :data:`KIND`
    and the :meth:`_encode_payload` / :meth:`_decode_payload` pair
    (:class:`TrafficJournal` checkpoints traffic reports this way); the
    header discipline, torn-tail handling, and resume semantics are shared.
    """

    #: header tag binding a journal file to one payload format
    KIND = "sweep-journal"

    def __init__(
        self,
        path: Path,
        *,
        name: str,
        fingerprint: str,
        trace_names: Sequence[str],
        resume: bool = False,
    ):
        self.path = Path(path)
        self.name = name
        self.fingerprint = fingerprint
        self.trace_names = list(trace_names)
        self._completed: Dict[str, list] = {}
        self._handle = None
        if resume and self.path.exists():
            self._completed = self._replay()
        elif self.path.exists():
            logger.info(
                "discarding existing sweep journal %s (resume not requested)",
                self.path,
            )
            self.path.unlink()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists()
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._write_line(self._header())
        telemetry = get_telemetry()
        if self._completed:
            telemetry.count("journal.resumed_schemes", len(self._completed))

    def _header(self) -> dict:
        return {
            "schema": JOURNAL_SCHEMA,
            "kind": self.KIND,
            "name": self.name,
            "fingerprint": self.fingerprint,
            "traces": self.trace_names,
        }

    def _encode_payload(self, payload: list) -> dict:
        """Payload hook: one completed scheme's per-trace data as JSON fields."""
        return {
            "counts": [
                [c.true_positive, c.false_positive, c.false_negative, c.true_negative]
                for c in payload
            ]
        }

    def _decode_payload(self, record: dict) -> list:
        """Payload hook: invert :meth:`_encode_payload`.

        Must raise ``ValueError`` / ``KeyError`` / ``TypeError`` on any
        malformed record -- that is how the replay loop detects a torn tail.
        """
        return [
            ConfusionCounts(
                true_positive=tp,
                false_positive=fp,
                false_negative=fn,
                true_negative=tn,
            )
            for tp, fp, fn, tn in record["counts"]
        ]

    def _replay(self) -> Dict[str, list]:
        """Parse an existing journal; incompatible or corrupt -> start over.

        Only a *verified* header admits records; any undecodable line after
        it ends the replay (a torn tail from the killed writer), keeping
        every record before it.
        """
        telemetry = get_telemetry()
        completed: Dict[str, list] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as error:
            discard_corrupt(self.path, f"unreadable sweep journal: {error}")
            telemetry.count("journal.discards")
            return {}
        if not lines:
            self.path.unlink()
            return {}
        try:
            header = json.loads(lines[0])
        except ValueError:
            header = None
        if header != self._header():
            discard_corrupt(
                self.path,
                f"sweep journal header {header!r} does not match this sweep",
            )
            telemetry.count("journal.discards")
            return {}
        for line in lines[1:]:
            try:
                record = json.loads(line)
                scheme = record["scheme"]
                payload = self._decode_payload(record)
            except (ValueError, KeyError, TypeError):
                logger.warning(
                    "sweep journal %s has a torn trailing record; dropping it",
                    self.path,
                )
                telemetry.count("journal.torn_records")
                break
            if len(payload) != len(self.trace_names):
                telemetry.count("journal.torn_records")
                break
            completed[scheme] = payload
        return completed

    def _write_line(self, payload: dict) -> None:
        self._handle.write(json.dumps(payload, separators=(",", ":")) + "\n")
        self._handle.flush()

    def get(self, scheme_name: str) -> Optional[list]:
        """The journaled per-trace payload for a scheme, if completed."""
        return self._completed.get(scheme_name)

    def __len__(self) -> int:
        return len(self._completed)

    def record(self, scheme_name: str, payload: Sequence) -> None:
        """Append one completed scheme's per-trace payload (flushed)."""
        line = {"scheme": scheme_name}
        line.update(self._encode_payload(list(payload)))
        self._write_line(line)
        self._completed[scheme_name] = list(payload)
        get_telemetry().count("journal.records")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def discard(self) -> None:
        """Close and delete the journal (the sweep finished and was cached)."""
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_sweep_journal(
    name: str, fingerprint: str, trace_names: Sequence[str]
) -> Optional[SweepJournal]:
    """A journal for one sweep under the installed policy (None = disabled)."""
    policy = get_checkpoint_policy()
    if not policy.enabled:
        return None
    path = policy.journal_dir() / f"{name}-{fingerprint}.jsonl"
    return SweepJournal(
        path,
        name=name,
        fingerprint=fingerprint,
        trace_names=trace_names,
        resume=policy.resume,
    )


class TrafficJournal(SweepJournal):
    """Checkpoint journal for traffic sweeps: one TrafficReport per trace.

    Same header/torn-tail/resume discipline as :class:`SweepJournal`; each
    record line is ``{"scheme": ..., "reports": [TrafficReport.to_json()]}``
    so a resumed sweep rehydrates bit-identical reports without re-running
    the simulator.
    """

    KIND = "traffic-journal"

    def _encode_payload(self, payload: list) -> dict:
        return {"reports": [report.to_json() for report in payload]}

    def _decode_payload(self, record: dict) -> list:
        from repro.metrics.traffic import TrafficReport

        reports = record["reports"]
        if not isinstance(reports, list):
            raise TypeError("reports must be a list")
        return [TrafficReport.from_json(entry) for entry in reports]


def open_job_journal(
    kind: str,
    directory: Path,
    *,
    name: str,
    fingerprint: str,
    trace_names: Sequence[str],
) -> SweepJournal:
    """A journal for one *service job*, always opened in resume mode.

    The sweep service checkpoints every job it runs -- not just CLI sweeps
    -- so a killed server replays finished work on restart.  Unlike
    :func:`open_sweep_journal`, this bypasses the process-wide
    :class:`CheckpointPolicy`: the service owns its state directory and its
    jobs are always resumable (that is the restart contract), so policy
    plumbing would only add a way to break it.  ``kind`` selects the
    payload format: ``"traffic"`` journals :class:`TrafficJournal` report
    records, anything else the confusion-count :class:`SweepJournal`.

    The journal file is keyed by ``fingerprint`` (the job fingerprint,
    which already binds the exact trace set, schemes, and parameters), so
    two different jobs can never share -- or clobber -- a checkpoint file.
    """
    journal_cls = TrafficJournal if kind == "traffic" else SweepJournal
    path = Path(directory) / f"{name}-{fingerprint}.jsonl"
    return journal_cls(
        path,
        name=name,
        fingerprint=fingerprint,
        trace_names=trace_names,
        resume=True,
    )


def open_traffic_journal(
    name: str, fingerprint: str, trace_names: Sequence[str]
) -> Optional[TrafficJournal]:
    """A journal for one traffic sweep (None when journaling is disabled).

    The journal class is resolved through the module global at call time so
    tests can substitute a fault-injecting subclass.
    """
    policy = get_checkpoint_policy()
    if not policy.enabled:
        return None
    path = policy.journal_dir() / f"{name}-{fingerprint}.jsonl"
    return TrafficJournal(
        path,
        name=name,
        fingerprint=fingerprint,
        trace_names=trace_names,
        resume=policy.resume,
    )
