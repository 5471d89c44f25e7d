"""The evaluation-engine contract.

An :class:`EvaluationEngine` is the single entry point for scoring
prediction schemes against sharing traces.  Everything above the core
evaluators -- experiments, sweeps, extensions, the CLI -- goes through this
interface, so the execution strategy (reference interpreter, vectorized
numpy, multi-process sharding) is a deployment choice rather than a code
path baked into each experiment.

The contract has three granularities, each the natural unit for one layer:

* :meth:`~EvaluationEngine.evaluate` -- one scheme on one trace (unit
  tests, ad-hoc analysis);
* :meth:`~EvaluationEngine.evaluate_suite` -- one scheme across the
  benchmark suite, returning *per-trace* counts so callers can compute both
  pooled and per-benchmark statistics;
* :meth:`~EvaluationEngine.evaluate_batch` -- many schemes across the
  suite, the design-space-sweep shape and the only method worth
  parallelizing.

Options on all three methods are **keyword-only**: ``exclude_writer`` used
to be accepted positionally at some call sites and not others, which made
it easy to pass a stray boolean into the wrong slot.  The one-release
:class:`DeprecationWarning` shim for positional calls has completed its
cycle and is gone; a positional ``exclude_writer`` is now a ``TypeError``.

``evaluate_batch`` additionally accepts ``on_result``, a callback invoked
with ``(scheme_index, per_trace_counts)`` as each scheme's suite completes.
Results may arrive out of order (the parallel backend reports chunks as
workers finish them); the returned list is always in input order.  This is
the hook sweep checkpointing uses to journal completed work incrementally
-- see :mod:`repro.harness.runner`.

Backends override the :meth:`~EvaluationEngine._evaluate_one` and
(optionally) :meth:`~EvaluationEngine._evaluate_batch` hooks; the public
methods own instrumentation and argument normalization, so telemetry and
deprecation behave identically regardless of backend.

All backends must be bit-identical: for any scheme and trace, every engine
returns the same :class:`~repro.metrics.confusion.ConfusionCounts` (this is
property-tested in ``tests/engine`` and frozen against golden fixtures in
``tests/golden``).  Backends differ only in wall-clock.

Every engine also self-reports into the process telemetry sink
(:mod:`repro.telemetry`): per-evaluation and per-batch wall-clock, event
counts, and a derived events/sec gauge, all under ``engine.<name>.*``.
When telemetry is disabled (the default) the instrumentation reduces to one
global read and an ``enabled`` check per *trace*, never per event, so the
measured overhead is below noise.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Sequence, Union

from repro.core.schemes import Scheme
from repro.forwarding.simulator import (
    DEFAULT_FORWARDING_CONFIG,
    ForwardingConfig,
    simulate_traffic_streamed,
)
from repro.metrics.confusion import ConfusionCounts
from repro.metrics.traffic import TrafficReport
from repro.telemetry import get_telemetry
from repro.trace.events import SharingTrace
from repro.trace.source import TraceSource

#: what every engine method accepts where it used to take a resident trace:
#: a :class:`SharingTrace` or any :class:`~repro.trace.source.TraceSource`
#: (``len`` works on both).  The fast engines evaluate both as chunk
#: streams (a resident trace is one chunk); the reference engine
#: materializes sources itself.
TraceLike = Union[SharingTrace, TraceSource]

#: callback signature for incremental batch results:
#: ``on_result(scheme_index, per_trace_counts)``
ResultCallback = Callable[[int, List[ConfusionCounts]], None]

#: callback signature for incremental traffic results:
#: ``on_result(scheme_index, per_trace_reports)``
TrafficCallback = Callable[[int, List[TrafficReport]], None]


class EvaluationEngine(ABC):
    """Strategy interface for evaluating schemes over traces."""

    #: short identifier used by ``REPRO_BACKEND`` and diagnostics
    name: str = "abstract"

    @abstractmethod
    def _evaluate_one(
        self, scheme: Scheme, trace: TraceLike, exclude_writer: bool
    ) -> ConfusionCounts:
        """Backend hook: score one scheme on one trace, uninstrumented."""

    def evaluate(
        self,
        scheme: Scheme,
        trace: TraceLike,
        *,
        exclude_writer: bool = True,
    ) -> ConfusionCounts:
        """Score one scheme on one trace (or streamed source)."""
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return self._evaluate_one(scheme, trace, exclude_writer)
        started = time.perf_counter()
        counts = self._evaluate_one(scheme, trace, exclude_writer)
        telemetry.timer_add(
            f"engine.{self.name}.evaluate_seconds", time.perf_counter() - started
        )
        telemetry.count(f"engine.{self.name}.evaluations")
        telemetry.count(f"engine.{self.name}.events", len(trace))
        return counts

    def evaluate_suite(
        self,
        scheme: Scheme,
        traces: Sequence[TraceLike],
        *,
        exclude_writer: bool = True,
    ) -> List[ConfusionCounts]:
        """Score one scheme on each trace, with fresh predictor state per trace."""
        return [
            self.evaluate(scheme, trace, exclude_writer=exclude_writer)
            for trace in traces
        ]

    def _kernel_backend_name(self) -> str:
        """The kernel backend this engine's per-event loops select.

        The default asks the kernel-backend registry (what the vectorized
        and parallel engines actually run); the reference engine overrides
        it -- its per-event loop is always the pure-Python oracle,
        regardless of ``REPRO_KERNEL``.
        """
        from repro.core.kernel_backends import active_kernel_name

        return active_kernel_name()

    def evaluate_batch(
        self,
        schemes: Sequence[Scheme],
        traces: Sequence[TraceLike],
        *,
        exclude_writer: bool = True,
        on_result: Optional[ResultCallback] = None,
    ) -> List[List[ConfusionCounts]]:
        """Score every scheme on every trace.

        Returns one list per scheme, ordered like ``schemes``, each holding
        one :class:`ConfusionCounts` per trace, ordered like ``traces``.
        Backends are free to reorder execution but not results; when
        ``on_result`` is given it fires once per scheme as its suite
        completes (possibly out of input order).
        """
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return self._evaluate_batch(
                schemes, traces, exclude_writer=exclude_writer, on_result=on_result
            )
        started = time.perf_counter()
        results = self._evaluate_batch(
            schemes, traces, exclude_writer=exclude_writer, on_result=on_result
        )
        # One selection record per batch; the kernel registry additionally
        # counts every routed call under the same kernel.backend.* namespace
        # (including inside parallel workers, whose snapshots merge home).
        telemetry.count(f"kernel.backend.{self._kernel_backend_name()}")
        record_batch(
            telemetry,
            self.name,
            time.perf_counter() - started,
            num_schemes=len(schemes),
            num_events=sum(len(trace) for trace in traces),
        )
        return results

    def _evaluate_batch(
        self,
        schemes: Sequence[Scheme],
        traces: Sequence[TraceLike],
        *,
        exclude_writer: bool,
        on_result: Optional[ResultCallback],
    ) -> List[List[ConfusionCounts]]:
        """Backend hook: the serial scheme-by-scheme batch strategy."""
        results: List[List[ConfusionCounts]] = []
        for index, scheme in enumerate(schemes):
            per_trace = self.evaluate_suite(
                scheme, traces, exclude_writer=exclude_writer
            )
            if on_result is not None:
                on_result(index, per_trace)
            results.append(per_trace)
        return results

    # ------------------------------------------------------------------
    # Traffic simulation
    # ------------------------------------------------------------------

    def _simulate_one(
        self, scheme: Scheme, trace: TraceLike, config: ForwardingConfig
    ) -> TrafficReport:
        """Backend hook: predict and replay one trace, chunk by chunk.

        The default streams predictions into the replay window by window
        (a resident trace is one window), so the full-length prediction
        column never exists for a source.  The reference engine overrides
        it to replay its own predictions, keeping its traffic reports as
        independently derived as its confusion counts.
        """
        return simulate_traffic_streamed(
            scheme, trace, topology=config.topology, model=config.model
        )

    def simulate_traffic(
        self,
        scheme: Scheme,
        trace: TraceLike,
        *,
        config: Optional[ForwardingConfig] = None,
    ) -> TrafficReport:
        """Predict over one trace and replay it through the directory.

        Returns the :class:`~repro.metrics.traffic.TrafficReport` comparing
        the baseline invalidate protocol against prediction-driven
        forwarding under ``config``'s topology and cost model.  The report's
        confusion quad is bit-identical to :meth:`evaluate` on the same
        inputs (the simulator scores the very prediction stream it replays).
        """
        if config is None:
            config = DEFAULT_FORWARDING_CONFIG
        return self._simulate_one(scheme, trace, config)

    def evaluate_traffic(
        self,
        schemes: Sequence[Scheme],
        traces: Sequence[TraceLike],
        *,
        config: Optional[ForwardingConfig] = None,
        on_result: Optional[TrafficCallback] = None,
    ) -> List[List[TrafficReport]]:
        """Simulate forwarding traffic for every scheme on every trace.

        The traffic analogue of :meth:`evaluate_batch`: one report list per
        scheme (input order), one report per trace; ``on_result`` fires per
        scheme as its suite completes, possibly out of input order, which is
        what the traffic-sweep journal checkpoints on.
        """
        if config is None:
            config = DEFAULT_FORWARDING_CONFIG
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return self._evaluate_traffic_batch(
                schemes, traces, config=config, on_result=on_result
            )
        started = time.perf_counter()
        results = self._evaluate_traffic_batch(
            schemes, traces, config=config, on_result=on_result
        )
        telemetry.timer_add(
            f"engine.{self.name}.traffic_seconds", time.perf_counter() - started
        )
        telemetry.count(f"engine.{self.name}.traffic_batches")
        telemetry.count(f"engine.{self.name}.traffic_schemes", len(schemes))
        return results

    def _evaluate_traffic_batch(
        self,
        schemes: Sequence[Scheme],
        traces: Sequence[TraceLike],
        *,
        config: ForwardingConfig,
        on_result: Optional[TrafficCallback],
    ) -> List[List[TrafficReport]]:
        """Backend hook: the serial scheme-by-scheme traffic strategy."""
        results: List[List[TrafficReport]] = []
        for index, scheme in enumerate(schemes):
            per_trace = [
                self.simulate_traffic(scheme, trace, config=config)
                for trace in traces
            ]
            if on_result is not None:
                on_result(index, per_trace)
            results.append(per_trace)
        return results


def record_batch(
    telemetry,
    backend: str,
    elapsed: float,
    num_schemes: int,
    num_events: int,
) -> None:
    """Fold one batch's shape and wall-clock into ``engine.<backend>.*``.

    ``num_events`` is the event count of the trace suite; the total scoring
    work of the batch is ``num_schemes * num_events`` decisions-per-node,
    which is what the events/sec throughput gauge is computed over.
    """
    scored = num_schemes * num_events
    telemetry.timer_add(f"engine.{backend}.batch_seconds", elapsed)
    telemetry.count(f"engine.{backend}.batches")
    telemetry.count(f"engine.{backend}.batch_schemes", num_schemes)
    telemetry.count(f"engine.{backend}.batch_events", scored)
    if elapsed > 0:
        telemetry.gauge(f"engine.{backend}.events_per_sec", scored / elapsed)


def pooled(counts_per_trace: Sequence[ConfusionCounts]) -> ConfusionCounts:
    """Merge per-trace counts into one suite-pooled accumulator."""
    total = ConfusionCounts()
    for counts in counts_per_trace:
        total.merge(counts)
    return total
