"""Prediction-driven forwarding: protocol replay plus a traffic cost model.

The package answers the paper's bottom-line question -- *how much coherence
traffic and miss latency does a communication predictor actually save?* --
by replaying each sharing trace through the epoch-level directory protocol
twice (baseline invalidate/request vs. prediction-driven forwarding) and
pricing every message against a topology hop table.

:func:`simulate_forwarding` is the self-contained entry point (parse a
scheme, predict, replay); the engine layer exposes the same simulation with
batching, journaling, and parallel backends via
``EvaluationEngine.evaluate_traffic``.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.forwarding.simulator import (
    DEFAULT_FORWARDING_CONFIG,
    ForwardingConfig,
    demand_read_cost,
    replay_traffic,
    simulate_traffic_streamed,
)
from repro.forwarding.topology import (
    TOPOLOGY_NAMES,
    Topology,
    crossbar,
    hypercube,
    make_topology,
    mesh,
    ring,
)
from repro.metrics.traffic import TrafficModel, TrafficReport
from repro.trace.events import SharingTrace

__all__ = [
    "DEFAULT_FORWARDING_CONFIG",
    "ForwardingConfig",
    "TOPOLOGY_NAMES",
    "Topology",
    "TrafficModel",
    "TrafficReport",
    "crossbar",
    "demand_read_cost",
    "hypercube",
    "make_topology",
    "mesh",
    "replay_traffic",
    "ring",
    "simulate_forwarding",
]


def simulate_forwarding(
    scheme,
    trace: SharingTrace,
    topology: Union[str, Topology] = "mesh",
    model: Optional[TrafficModel] = None,
) -> TrafficReport:
    """Predict with ``scheme`` over ``trace`` and simulate the traffic.

    ``scheme`` is a scheme string (``"union(dir+add14)4[direct]"``) or an
    already-parsed :class:`~repro.predictors.schemes.PredictionScheme`.
    This is the one-trace, no-engine path; for suites or parallel backends
    use ``repro.api.simulate_forwarding``.
    """
    from repro.core.schemes import Scheme, parse_scheme

    if not isinstance(scheme, Scheme):
        scheme = parse_scheme(str(scheme))
    return simulate_traffic_streamed(
        scheme,
        trace,
        topology=topology,
        model=model if model is not None else TrafficModel(),
    )
