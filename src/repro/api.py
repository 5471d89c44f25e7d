"""The stable public API: the only supported import surface.

Downstream callers -- notebooks, scripts, other packages -- should import
from :mod:`repro.api` and nothing deeper.  Internal modules
(``repro.core.*``, ``repro.engine.*``, ``repro.harness.*``) reorganize
freely between releases; this facade does not.  Its exact surface is
snapshot-tested (``tests/api/test_surface.py``), so any change here is a
deliberate, reviewed API change.

**Jobs are the common currency.**  Every computation -- a confusion
evaluation, a scheme sweep, a forwarding-traffic run, a scenario cell --
is a fingerprinted job: :func:`submit` returns a :class:`JobHandle` whose
``status()`` / ``result()`` / ``stream_progress()`` work identically
whether the job runs in this process or on a ``repro-serve`` instance
reached through :func:`connect`.  Identical jobs submitted concurrently
coalesce onto one computation; engines are bit-identical by contract, so a
deduplicated result is *the* result::

    from repro.api import TraceSuiteSpec, connect, submit

    handle = submit("sweep", ["last()1[direct]", "union(dir+add6)2[direct]"])
    rows = handle.result()                     # in-process

    client = connect(port=7707)                # same job, served
    remote = client.submit(handle_spec)        # bit-identical rows

The classic one-shot helpers remain as thin synchronous conveniences over
the job path::

    from repro.api import ScreeningStats, default_trace_set, evaluate

    trace = default_trace_set().trace("barnes")
    counts = evaluate("inter(pid+add6)4[direct]", trace)
    print(ScreeningStats.from_counts(counts))

Scheme arguments accept either a parsed :class:`Scheme` or its string form
(``"inter(pid+add6)4[direct]"``); evaluation routes through the configured
engine (``REPRO_BACKEND`` / ``REPRO_JOBS`` or :func:`make_engine`), so the
same call runs vectorized in a notebook and sharded across workers in a
batch job.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.core.schemes import Scheme, parse_scheme
from repro.core.update import UpdateMode
from repro.engine import EvaluationEngine, make_engine
from repro.forwarding.simulator import ForwardingConfig
from repro.machine import PAPER_MACHINE, MachineSpec
from repro.metrics.confusion import ConfusionCounts
from repro.metrics.screening import ScreeningStats
from repro.metrics.traffic import TrafficModel, TrafficReport
from repro.service.client import ServiceClient
from repro.service.handles import JobHandle, JobStatus, LocalJobHandle
from repro.service.jobs import JobSpec, TraceFileSpec, TraceSuiteSpec, inline_traces
from repro.trace.events import SharingTrace

__all__ = [
    "ConfusionCounts",
    "ForwardingConfig",
    "JobHandle",
    "JobSpec",
    "JobStatus",
    "MachineSpec",
    "PAPER_MACHINE",
    "Scheme",
    "ScreeningStats",
    "ServiceClient",
    "SharingTrace",
    "TraceFileSpec",
    "TraceSuiteSpec",
    "TrafficModel",
    "TrafficReport",
    "UpdateMode",
    "connect",
    "default_trace_set",
    "evaluate",
    "evaluate_suite",
    "make_engine",
    "parse_scheme",
    "simulate_forwarding",
    "submit",
    "sweep",
]

#: a scheme, or its textual form per the paper's naming convention
SchemeLike = Union[Scheme, str]

#: trace input for :func:`submit`: live traces, a re-materializable suite
#: description, or ``None`` for the paper-scale default suite
TracesLike = Union[Sequence[SharingTrace], TraceSuiteSpec, TraceFileSpec, None]


def _as_scheme(scheme: SchemeLike) -> Scheme:
    return parse_scheme(scheme) if isinstance(scheme, str) else scheme


def _resolve_engine(engine: Optional[EvaluationEngine]) -> EvaluationEngine:
    if engine is not None:
        return engine
    from repro.engine import get_default_engine

    return get_default_engine()


def default_trace_set():
    """The benchmark suite at paper scale (lazily generated, disk-cached)."""
    from repro.harness.runner import default_trace_set as _default_trace_set

    return _default_trace_set()


# ----------------------------------------------------------------------
# The job path: submit / connect
# ----------------------------------------------------------------------


def submit(
    kind: str,
    schemes: Sequence[SchemeLike] = (),
    traces: TracesLike = None,
    *,
    exclude_writer: bool = True,
    config: Optional[ForwardingConfig] = None,
    grid: Optional[dict] = None,
    engine: Optional[EvaluationEngine] = None,
    hosts: Union[str, Sequence[str], None] = None,
) -> JobHandle:
    """Submit one job to this process's registry; returns its handle.

    ``kind`` is ``"evaluate"`` (per-scheme/per-trace
    :class:`ConfusionCounts`), ``"sweep"`` (per-scheme screening-summary
    dicts), ``"traffic"`` (per-scheme/per-trace :class:`TrafficReport`), or
    ``"scenario"`` (scenario-grid rows; pass ``grid``, no schemes/traces).
    ``traces`` may be live :class:`SharingTrace` objects, a
    :class:`TraceSuiteSpec` naming a re-materializable suite, a
    :class:`TraceFileSpec` naming on-disk ``.rtrace`` files (the job then
    streams them chunk-wise), or ``None`` for the paper-scale default
    suite.  ``config`` prices ``traffic`` jobs
    (topology + message costs).

    The job is fingerprinted over its canonical spec and exact trace
    identity: a second submission of the same work while the first is in
    flight returns a handle onto the *same* computation
    (``service.dedup.coalesced`` in telemetry), and both handles decode the
    identical result bits.  The same spec submitted to a ``repro-serve``
    instance (:func:`connect`) is the same fingerprint -- and, engines
    being bit-identical by contract, the same result.

    ``hosts`` (``host:port`` addresses of running ``repro-worker``
    processes, sequence or comma-separated string) runs the job on the
    socket transport across those machines.  It is an execution hint:
    transports are bit-identical by contract, so ``hosts`` does not enter
    the fingerprint and the job dedups against local runs of the same work.
    """
    from repro.service.registry import get_default_registry

    config = config if config is not None else ForwardingConfig()
    live_traces: Optional[Sequence[SharingTrace]] = None
    if kind == "scenario":
        trace_ref = None
    elif isinstance(traces, (TraceSuiteSpec, TraceFileSpec)):
        trace_ref = traces
    elif traces is None:
        trace_ref = TraceSuiteSpec()
    else:
        live_traces = list(traces)
        trace_ref = inline_traces(live_traces)
    spec = JobSpec.make(
        kind,
        schemes=[_as_scheme(scheme) for scheme in schemes],
        traces=trace_ref,
        exclude_writer=exclude_writer,
        topology=config.topology,
        model=config.model,
        grid=grid,
        hosts=hosts,
    )
    record, dedup = get_default_registry().submit(
        spec, traces=live_traces, engine=engine
    )
    return LocalJobHandle(record, dedup)


def connect(
    host: str = "127.0.0.1", port: int = 7707, *, timeout: Optional[float] = 60.0
) -> ServiceClient:
    """A client for a running ``repro-serve`` instance.

    The returned :class:`ServiceClient` submits :class:`JobSpec` objects
    and hands back handles with the same ``status()`` / ``result()`` /
    ``stream_progress()`` interface as :func:`submit`; served results
    decode to objects bit-identical to in-process computation (the CI smoke
    job asserts this end to end).  Raises
    :class:`repro.service.client.ServiceError` on connection problems.
    """
    client = ServiceClient(host=host, port=port, timeout=timeout)
    client.ping()
    return client


# ----------------------------------------------------------------------
# Synchronous conveniences (thin wrappers over the job path)
# ----------------------------------------------------------------------


def evaluate(
    scheme: SchemeLike,
    trace: SharingTrace,
    *,
    exclude_writer: bool = True,
    engine: Optional[EvaluationEngine] = None,
) -> ConfusionCounts:
    """Score one scheme on one trace.

    A synchronous convenience over :func:`submit`: one ``evaluate`` job,
    result awaited inline.

    Args:
        scheme: a :class:`Scheme` or its string form.
        trace: the sharing trace to score against.
        exclude_writer: drop the writing node from predicted/actual reader
            sets (the paper's convention).
        engine: evaluation backend; default per environment configuration.
    """
    handle = submit(
        "evaluate", [scheme], [trace],
        exclude_writer=exclude_writer, engine=engine,
    )
    return handle.result()[0][0]


def evaluate_suite(
    scheme: SchemeLike,
    traces: Sequence[SharingTrace],
    *,
    exclude_writer: bool = True,
    engine: Optional[EvaluationEngine] = None,
) -> List[ConfusionCounts]:
    """Score one scheme on each trace, fresh predictor state per trace."""
    handle = submit(
        "evaluate", [scheme], traces,
        exclude_writer=exclude_writer, engine=engine,
    )
    return handle.result()[0]


def simulate_forwarding(
    scheme: SchemeLike,
    trace: SharingTrace,
    *,
    config: Optional[ForwardingConfig] = None,
    engine: Optional[EvaluationEngine] = None,
) -> TrafficReport:
    """Simulate prediction-driven forwarding on one trace.

    Replays the trace through the epoch-level directory protocol twice --
    the invalidate/request baseline and the forwarding run driven by
    ``scheme``'s predictions -- and returns the
    :class:`TrafficReport` comparing their message ledgers and hop-weighted
    latency.  The report's confusion quad is bit-identical to
    :func:`evaluate` on the same inputs.  A synchronous convenience over a
    single-scheme ``traffic`` job.

    Args:
        scheme: a :class:`Scheme` or its string form.
        trace: the sharing trace to replay.
        config: interconnect topology plus message cost model (default:
            mesh topology, paper cost model).
        engine: evaluation backend; default per environment configuration.
    """
    handle = submit("traffic", [scheme], [trace], config=config, engine=engine)
    return handle.result()[0][0]


def sweep(
    schemes: Sequence[SchemeLike],
    traces: TracesLike = None,
    *,
    exclude_writer: bool = True,
    engine: Optional[EvaluationEngine] = None,
) -> List[Dict[str, float]]:
    """Score many schemes across the suite as one engine batch.

    Returns one summary dict per scheme (input order) with the paper's
    screening statistics: suite-average ``prev``, ``sens``, ``pvp`` and the
    suite-pooled ``pooled_tp`` / ``pooled_fp`` counts.  A synchronous
    convenience over one ``sweep`` job: the batch is handed to the engine
    whole, so it flows through the sweep planner (:mod:`repro.core.plan`)
    -- schemes sharing an index spec compute their key stream once per
    trace, bitmap schemes sharing an update mode share one feedback pass,
    and the parallel backend steals plan-ordered chunks across workers
    (with the shared-memory transport publishing each trace once).
    Planning never changes numbers -- results are bit-identical to scoring
    each scheme alone, and (the job path being fingerprint-deduplicated) to
    the same sweep served by ``repro-serve``.
    """
    handle = submit(
        "sweep", schemes, traces, exclude_writer=exclude_writer, engine=engine
    )
    return handle.result()
