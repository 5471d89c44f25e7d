"""The sweep planner: group a scheme batch so every pass is shared.

A design-space sweep evaluates hundreds of schemes that differ only along
one axis at a time, so most of the per-scheme work is redundant: every
scheme with the same :class:`IndexSpec` (including its pc/addr truncation
-- truncation is part of the spec) reads a byte-identical key stream, and
every bitmap-family scheme sharing ``(IndexSpec, update mode)`` folds the
same sorted feedback stream.

:class:`SweepPlan` makes that sharing explicit and deterministic: it groups
a scheme list by ``IndexSpec`` (first-appearance order), sub-groups each
index group by prediction-function family (``bitmap`` / ``pas`` /
``sequential``), and records each scheme's original position so results --
and the per-scheme ``on_result`` checkpoint callbacks that sweep journaling
depends on -- are always reported against the caller's order.  The family
batches are the units the parallel scheduler cuts chunks inside.

:func:`evaluate_plan` feeds each index group, all its families at once,
to one :class:`~repro.core.windowed.StreamedSweep` per trace: keys once
per (trace, index group), one bitmap pass per (index group, mode).
Grouping is pure scheduling: :func:`evaluate_plan` is bit-identical to
evaluating each scheme independently (frozen against the golden fixtures
on every backend), so planner changes can never move a published number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.indexing import IndexSpec
from repro.core.schemes import Scheme
from repro.core.vectorized import _BITMAP_FUNCTIONS
from repro.core.windowed import evaluate_batch_streamed
from repro.metrics.confusion import ConfusionCounts
from repro.trace.events import SharingTrace
from repro.trace.source import TraceSource

#: family names, in deterministic batch order within an index group
FAMILY_BITMAP = "bitmap"
FAMILY_PAS = "pas"
FAMILY_SEQUENTIAL = "sequential"


def scheme_family(scheme: Scheme) -> str:
    """The shared-pass family a scheme's prediction function belongs to."""
    if scheme.function in _BITMAP_FUNCTIONS:
        return FAMILY_BITMAP
    if scheme.function == "pas":
        return FAMILY_PAS
    return FAMILY_SEQUENTIAL


@dataclass(frozen=True)
class PlanMember:
    """One scheme and its position in the caller's original batch order."""

    position: int
    scheme: Scheme


@dataclass(frozen=True)
class FamilyBatch:
    """Schemes of one family within one index group.

    A bitmap batch is scored with one shared pass per update mode present;
    pas/sequential batches still run one kernel stream per scheme but
    share the group's key stream.
    """

    family: str
    members: Tuple[PlanMember, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class IndexGroup:
    """All schemes sharing one :class:`IndexSpec` (hence one key stream)."""

    spec: IndexSpec
    batches: Tuple[FamilyBatch, ...]

    def __len__(self) -> int:
        return sum(len(batch) for batch in self.batches)


class SweepPlan:
    """A deterministic shared-pass execution plan for a scheme batch.

    Construction is pure bookkeeping (no trace access); the same scheme
    list always yields the same plan.  Iterate ``plan.groups`` for the
    grouped view, or :meth:`order` / :meth:`batch_boundaries` for the flat
    plan-ordered permutation the parallel scheduler chunks over.
    """

    def __init__(self, schemes: Sequence[Scheme]) -> None:
        self.schemes: List[Scheme] = list(schemes)
        by_spec: Dict[IndexSpec, Dict[str, List[PlanMember]]] = {}
        for position, scheme in enumerate(self.schemes):
            families = by_spec.setdefault(scheme.index, {})
            families.setdefault(scheme_family(scheme), []).append(
                PlanMember(position, scheme)
            )
        self.groups: Tuple[IndexGroup, ...] = tuple(
            IndexGroup(
                spec=spec,
                batches=tuple(
                    FamilyBatch(family, tuple(members))
                    for family, members in families.items()
                ),
            )
            for spec, families in by_spec.items()
        )

    @property
    def num_schemes(self) -> int:
        return len(self.schemes)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def order(self) -> List[int]:
        """Original positions in plan order (a permutation of ``range(n)``)."""
        return [
            member.position
            for group in self.groups
            for batch in group.batches
            for member in batch.members
        ]

    def batch_boundaries(self) -> List[int]:
        """Cumulative batch end offsets in plan order; last == num_schemes.

        Chunks cut strictly inside these boundaries contain schemes of one
        ``(IndexSpec, family)``, so a worker evaluating the chunk shares its
        key stream and bitmap passes at full efficiency.

        Runs of *adjacent singleton batches* are merged into one segment: a
        one-scheme batch has no pass sharing to protect, so clamping chunks
        to its boundary (as the parallel scheduler does) would only shrink
        every chunk of a many-unique-index sweep to a single scheme.  A
        chunk spanning merged singletons evaluates each scheme standalone,
        exactly as the un-merged plan would have -- grouping remains pure
        scheduling, never semantics.
        """
        raw: List[int] = []
        total = 0
        for group in self.groups:
            for batch in group.batches:
                total += len(batch)
                raw.append(total)
        boundaries: List[int] = []
        previous = 0
        singleton_run_end: Optional[int] = None
        for boundary in raw:
            if boundary - previous == 1:
                singleton_run_end = boundary
            else:
                if singleton_run_end is not None:
                    boundaries.append(singleton_run_end)
                    singleton_run_end = None
                boundaries.append(boundary)
            previous = boundary
        if singleton_run_end is not None:
            boundaries.append(singleton_run_end)
        return boundaries

    def record_telemetry(self, telemetry) -> None:
        """Surface the plan's shape under ``plan.*`` (batch-level, once)."""
        telemetry.count("plan.batches")
        telemetry.count("plan.schemes", self.num_schemes)
        telemetry.count("plan.index_groups", self.num_groups)
        if self.groups:
            telemetry.gauge(
                "plan.group_size", max(len(group) for group in self.groups)
            )


def evaluate_plan(
    plan: SweepPlan,
    traces: Sequence[Union[SharingTrace, TraceSource]],
    *,
    exclude_writer: bool = True,
    on_result: Optional[Callable[[int, List[ConfusionCounts]], None]] = None,
) -> List[List[ConfusionCounts]]:
    """Execute a plan: per-trace confusion counts for every scheme.

    Returns the same shape, in the same caller order, as
    ``EvaluationEngine.evaluate_batch`` -- one list per scheme, one
    :class:`ConfusionCounts` per trace -- and fires ``on_result`` once per
    scheme as its index group finishes the suite (group-ordered, so
    possibly out of the caller's order; journaling already handles that).
    """
    results: List[Optional[List[ConfusionCounts]]] = [None] * plan.num_schemes
    for group in plan.groups:
        members = [member for batch in group.batches for member in batch.members]
        schemes = [member.scheme for member in members]
        columns = [
            evaluate_batch_streamed(schemes, trace, exclude_writer=exclude_writer)
            for trace in traces
        ]
        for offset, member in enumerate(members):
            per_trace = [column[offset] for column in columns]
            results[member.position] = per_trace
            if on_result is not None:
                on_result(member.position, per_trace)
    return results  # type: ignore[return-value]
