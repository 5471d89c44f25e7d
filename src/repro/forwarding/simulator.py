"""The end-to-end forwarding-traffic simulator.

:func:`replay_traffic` replays one sharing trace through the epoch-level
directory protocol twice -- the baseline invalidate/request run and the
prediction-driven forwarding run -- and tallies every coherence message
into a :class:`~repro.metrics.traffic.TrafficReport`.  The per-event
message model (all legs skipped when source == destination, i.e. the
transaction is node-local):

* **write transaction** (both runs): request ``writer -> home`` plus a
  data grant ``home -> writer``.
* **epoch close** (both runs, identical by construction): invalidation
  ``home -> copy`` and ack ``copy -> home`` for every legitimate copy of
  the previous epoch; staged-but-unread forwards expire silently.
* **demand read** by reader *r* (every true reader in the baseline; only
  uncovered readers in the forwarding run): request ``r -> home``, an
  intervention ``home -> owner`` *only when the home is not the owner*
  (charging it when the writer is already the block's home double-counts
  the directory-to-owner hop), and a data response ``owner -> r``.
* **forward** (forwarding run only): one pushed data message
  ``writer -> p`` per predicted reader *p*; tallied as ``forwards`` when
  *p* really reads this epoch (a true positive) and ``useless_forwards``
  otherwise -- so the useless-forward count *is* the evaluator's FP count.

Latency: each message costs its payload (:meth:`TrafficModel.payload_cost`)
plus ``hop_cost`` times the topology distance between its endpoints.  A
consumed forward hides the reader's whole demand-read latency, credited to
``latency_hidden`` (per node and in aggregate).

Everything is derived from the same prediction arrays the evaluation
engines score, so the report's confusion quad is bit-identical to the
golden-fixture counts (``tests/golden/test_traffic_differential.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.forwarding.topology import Topology, make_topology
from repro.memory.protocol import EpochProtocol
from repro.metrics.confusion import ConfusionCounts
from repro.metrics.traffic import MESSAGE_CLASSES, TrafficModel, TrafficReport
from repro.telemetry import get_telemetry
from repro.trace.events import SharingTrace
from repro.util.bitmaps import bitmap_mask, iter_set_bits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.schemes import Scheme
    from repro.machine import MachineSpec
    from repro.trace.source import TraceSource


@dataclass(frozen=True)
class ForwardingConfig:
    """The simulator's knobs: network shape and message cost model."""

    topology: str = "mesh"
    model: TrafficModel = field(default_factory=TrafficModel)

    @classmethod
    def for_machine(
        cls, machine: "MachineSpec", model: TrafficModel = None
    ) -> "ForwardingConfig":
        """The simulator configuration for one scenario cell's machine."""
        return cls(
            topology=machine.topology,
            model=model if model is not None else TrafficModel(),
        )


#: the default 16-node configuration (a 4x4 mesh, paper machine size)
DEFAULT_FORWARDING_CONFIG = ForwardingConfig()


def demand_read_cost(
    reader: int,
    writer: int,
    home: int,
    topology: Topology,
    model: TrafficModel,
) -> "tuple[int, float]":
    """Messages and latency of one demand read in the three-leg protocol.

    The intervention leg exists only when the home is not the owner; a
    local leg (source == destination) is free.  Returns ``(messages,
    latency)``.
    """
    messages = 1
    latency = model.data_cost + model.hop_cost * topology.hops(writer, reader)
    if reader != home:
        messages += 1
        latency += model.request_cost + model.hop_cost * topology.hops(reader, home)
    if home != writer:
        messages += 1
        latency += model.request_cost + model.hop_cost * topology.hops(home, writer)
    return messages, latency


class TrafficReplayState:
    """The replay loop's cross-event state, feedable one event window at a time.

    Both protocol replicas, the confusion quad, the message tallies, and
    the latency accumulators live on the instance; :meth:`feed` runs the
    per-event loop over one window and :meth:`finish` assembles the
    :class:`TrafficReport`.  Feeding a trace as N chunks is *bit-identical*
    (floats included) to feeding it whole, because the loop body and its
    accumulation order are unchanged -- chunking only moves where the
    columns are sliced.  :func:`replay_traffic` is now this state fed one
    whole-trace window; :func:`simulate_traffic_streamed` feeds it the
    prediction windows of :func:`repro.core.windowed.predict_stream`.
    """

    def __init__(self, num_nodes: int, topology: Topology, model: TrafficModel):
        if topology.num_nodes != num_nodes:
            raise ValueError(
                f"topology is for {topology.num_nodes} nodes, trace for {num_nodes}"
            )
        self.num_nodes = num_nodes
        self.topology = topology
        self.model = model
        self.mask = bitmap_mask(num_nodes)
        self.baseline = EpochProtocol(num_nodes)
        self.forwarding = EpochProtocol(num_nodes)
        self.counts = ConfusionCounts()
        self.base_msgs = dict.fromkeys(MESSAGE_CLASSES, 0)
        self.fwd_msgs = dict.fromkeys(MESSAGE_CLASSES, 0)
        self.base_latency = 0.0
        self.fwd_latency = 0.0
        self.saved_per_node = [0] * num_nodes
        self.hidden_per_node = [0.0] * num_nodes
        self.events = 0

    def feed(self, chunk, predictions: Sequence[int]) -> None:
        """Replay one event window (a trace chunk or a whole trace).

        ``chunk`` is anything with the trace column surface --
        ``writer``/``home``/``block``/``has_inval`` arrays,
        ``truth_ints()``/``inval_ints()`` views, and ``layout`` -- so both
        :class:`~repro.trace.source.TraceChunk` and a whole
        :class:`SharingTrace` qualify.  ``predictions`` holds one raw
        forwarding bitmap per event in the window.
        """
        writers = chunk.writer.tolist()
        homes = chunk.home.tolist()
        blocks = chunk.block.tolist()
        truths = chunk.truth_ints()
        invals = chunk.inval_ints()
        has_invals = chunk.has_inval.tolist()
        if len(predictions) != len(writers):
            raise ValueError(
                f"got {len(predictions)} predictions for {len(writers)} events"
            )
        # Packed prediction columns (>64-node machines) arrive as 2-D word
        # arrays from the evaluators; flatten them to Python ints up front
        # so the replay loop is width-agnostic.
        if isinstance(predictions, np.ndarray) and predictions.ndim > 1:
            predictions = chunk.layout.to_int_list(predictions)
        self.events += len(writers)

        mask = self.mask
        hops = self.topology.matrix
        request_cost = self.model.request_cost
        data_cost = self.model.data_cost
        hop_cost = self.model.hop_cost
        baseline = self.baseline
        forwarding = self.forwarding
        counts = self.counts
        base_msgs = self.base_msgs
        fwd_msgs = self.fwd_msgs
        base_latency = self.base_latency
        fwd_latency = self.fwd_latency
        saved_per_node = self.saved_per_node
        hidden_per_node = self.hidden_per_node

        for position in range(len(writers)):
            writer = writers[position]
            home = homes[position]
            block = blocks[position]
            truth = truths[position]
            inval = invals[position]
            has_inval = has_invals[position]
            # Forwarding to the writer is meaningless (it holds the line), so
            # its bit is masked out of the prediction; like the evaluation
            # engines, the bit still counts as a decision (a guaranteed true
            # negative), keeping this quad bit-identical to theirs.
            predicted = int(predictions[position]) & mask & ~(1 << writer)
            counts.record(predicted, truth, mask)

            base_transition = baseline.apply_event(
                writer, block, truth, 0, inval, has_inval
            )
            forwarding.apply_event(writer, block, truth, predicted, inval, has_inval)

            # Write transaction: request + data grant, in both runs.
            if writer != home:
                cost = (
                    request_cost
                    + data_cost
                    + hop_cost * (hops[writer][home] + hops[home][writer])
                )
                base_msgs["requests"] += 1
                base_msgs["responses"] += 1
                fwd_msgs["requests"] += 1
                fwd_msgs["responses"] += 1
                base_latency += cost
                fwd_latency += cost

            # Epoch close: identical in both runs (staged copies expire free).
            home_row = hops[home]
            for copy in iter_set_bits(base_transition.invalidated):
                if copy == home:
                    continue
                cost = 2 * request_cost + hop_cost * (home_row[copy] + hops[copy][home])
                base_msgs["invalidations"] += 1
                base_msgs["acks"] += 1
                fwd_msgs["invalidations"] += 1
                fwd_msgs["acks"] += 1
                base_latency += cost
                fwd_latency += cost

            # Demand reads: the baseline serves every true reader; the
            # forwarding run only those the predictor missed.  A consumed
            # forward saves the whole three-leg read and hides its latency.
            writer_row = hops[writer]
            for reader in iter_set_bits(truth):
                messages = 1
                latency = data_cost + hop_cost * writer_row[reader]
                if reader != home:
                    messages += 1
                    latency += request_cost + hop_cost * hops[reader][home]
                if home != writer:
                    messages += 1
                    latency += request_cost + hop_cost * home_row[writer]
                base_msgs["requests"] += reader != home
                base_msgs["interventions"] += home != writer
                base_msgs["responses"] += 1
                base_latency += latency
                if (predicted >> reader) & 1:
                    saved_per_node[reader] += messages - 1
                    hidden_per_node[reader] += latency
                else:
                    fwd_msgs["requests"] += reader != home
                    fwd_msgs["interventions"] += home != writer
                    fwd_msgs["responses"] += 1
                    fwd_latency += latency

            # Forwards: one pushed data message per predicted reader.
            for target in iter_set_bits(predicted):
                if (truth >> target) & 1:
                    fwd_msgs["forwards"] += 1
                else:
                    fwd_msgs["useless_forwards"] += 1
                fwd_latency += data_cost + hop_cost * writer_row[target]

        self.base_latency = base_latency
        self.fwd_latency = fwd_latency

    def finish(self, scheme: str = "", trace_name: str = "") -> TrafficReport:
        """Assemble the report over everything fed so far."""
        return TrafficReport(
            scheme=scheme,
            trace=trace_name,
            num_nodes=self.num_nodes,
            topology=self.topology.name,
            model=self.model,
            true_positive=self.counts.true_positive,
            false_positive=self.counts.false_positive,
            false_negative=self.counts.false_negative,
            true_negative=self.counts.true_negative,
            baseline_messages=self.base_msgs,
            forwarding_messages=self.fwd_msgs,
            baseline_latency=self.base_latency,
            forwarding_latency=self.fwd_latency,
            messages_saved=sum(self.saved_per_node),
            latency_hidden=sum(self.hidden_per_node),
            per_node_messages_saved=tuple(self.saved_per_node),
            per_node_latency_hidden=tuple(self.hidden_per_node),
        )


def _report_telemetry(report: TrafficReport, events: int, started: float) -> None:
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.count("forwarding.reports")
        telemetry.count("forwarding.events", events)
        telemetry.count("forwarding.messages_saved", report.messages_saved)
        telemetry.count("forwarding.useless_forwards", report.useless_forwards)
        telemetry.timer_add(
            "forwarding.simulate_seconds", time.perf_counter() - started
        )


def replay_traffic(
    trace: SharingTrace,
    predictions: Sequence[int],
    scheme: str = "",
    topology: Union[str, Topology] = "mesh",
    model: TrafficModel = TrafficModel(),
) -> TrafficReport:
    """Simulate baseline and forwarding runs of one trace; return the report.

    ``predictions`` holds one forwarding bitmap per event -- whatever the
    predictor emitted (any residual writer bit is masked off, matching the
    evaluators' ``exclude_writer`` convention).
    """
    started = time.perf_counter()
    num_nodes = trace.num_nodes
    if not isinstance(topology, Topology):
        topology = make_topology(topology, num_nodes)
    if len(predictions) != len(trace):
        raise ValueError(
            f"got {len(predictions)} predictions for {len(trace)} events"
        )
    state = TrafficReplayState(num_nodes, topology, model)
    state.feed(trace, predictions)
    report = state.finish(scheme=scheme, trace_name=trace.name)
    _report_telemetry(report, len(trace), started)
    return report


def simulate_traffic_streamed(
    scheme: "Scheme",
    source: "Union[SharingTrace, TraceSource]",
    topology: Union[str, Topology] = "mesh",
    model: TrafficModel = TrafficModel(),
    chunk_events: Optional[int] = None,
) -> TrafficReport:
    """Predict and replay one scheme over a trace or source.

    Couples :func:`repro.core.windowed.predict_stream` (prediction windows;
    a resident trace is one window, a source never has a full-length
    column) to :class:`TrafficReplayState`.  Both halves are
    chunk-order-invariant, so the report is bit-identical to
    ``replay_traffic(trace, predict_scheme_fast(...))`` on the materialized
    trace.  This is the fast engines' traffic path; the reference engine
    keeps :func:`replay_traffic` over its own predictions as the oracle.
    """
    # Imported here, not at module top: core.windowed is the heavy
    # vectorized-evaluator layer, and forwarding must stay importable
    # without it (the engines import both packages).
    from repro.core.windowed import predict_stream

    started = time.perf_counter()
    if not isinstance(topology, Topology):
        topology = make_topology(topology, source.num_nodes)
    state = TrafficReplayState(source.num_nodes, topology, model)
    for chunk, predictions in predict_stream(
        scheme, source, exclude_writer=True, chunk_events=chunk_events
    ):
        state.feed(chunk, predictions)
    report = state.finish(scheme=scheme.full_name, trace_name=source.name)
    _report_telemetry(report, state.events, started)
    return report
