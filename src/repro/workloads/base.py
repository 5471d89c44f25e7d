"""Workload building blocks: reference items, pc sites, and the ABC.

A workload is a set of per-thread *programs*: generators yielding
:class:`Access` (one memory reference), :class:`Barrier` (rendezvous of all
threads), or :class:`Atomic` (a lock-protected burst the scheduler must not
interleave -- how migratory read-modify-write sequences are expressed).

Static store sites are modelled by :class:`PcAllocator`: each call site in a
workload's inner loops registers a named pc once and stores through it, so
instruction-indexed predictors see the small, stable static-store working
sets the paper measures in its Table 5.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

from repro.util.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine import MachineSpec


@dataclass(frozen=True)
class Access:
    """One memory reference: ``op`` is ``"R"`` or ``"W"``.

    ``pc`` identifies the static instruction (word-granular; only store pcs
    are meaningful to predictors, reads default to pc 0).
    """

    op: str
    address: int
    pc: int = 0

    def __post_init__(self) -> None:
        if self.op not in ("R", "W"):
            raise ValueError(f"op must be 'R' or 'W', got {self.op!r}")
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")


class Barrier:
    """All-thread rendezvous marker."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Barrier()"


@dataclass(frozen=True)
class Atomic:
    """A lock-protected burst of references, emitted without interleaving."""

    accesses: Tuple[Access, ...]

    def __init__(self, accesses):
        object.__setattr__(self, "accesses", tuple(accesses))


ThreadItem = Union[Access, Barrier, Atomic]


class PcAllocator:
    """Hands out stable pc values for named static store sites.

    Site ids start at 1 (0 is the anonymous read pc) and are assigned in
    registration order, so the same workload parameters always produce the
    same pcs.
    """

    def __init__(self):
        self._sites: Dict[str, int] = {}

    def site(self, name: str) -> int:
        pc = self._sites.get(name)
        if pc is None:
            pc = len(self._sites) + 1
            self._sites[name] = pc
        return pc

    @property
    def num_sites(self) -> int:
        return len(self._sites)

    def sites(self) -> Dict[str, int]:
        """Name -> pc mapping (for docs and tests)."""
        return dict(self._sites)


class Workload(ABC):
    """Base class for benchmark models.

    Subclasses define :meth:`thread_programs`; everything downstream
    (scheduler, system, harness) works through this interface.
    """

    #: benchmark name as used by the paper's tables
    name: str = ""

    def __init__(
        self,
        num_nodes: int = 16,
        seed: int = 0,
        machine: Optional["MachineSpec"] = None,
    ):
        # A machine spec, when given, *is* the machine: its node count wins
        # over the bare num_nodes default (subclasses re-read
        # ``self.num_nodes`` after delegating here).
        if machine is not None:
            num_nodes = machine.num_nodes
        if num_nodes < 2:
            raise ValueError(f"workloads need at least 2 nodes, got {num_nodes}")
        self.num_nodes = num_nodes
        self.machine = machine
        self.seed = seed
        self.pcs = PcAllocator()
        self.rng = DeterministicRng(f"{self.name}:{seed}")

    @abstractmethod
    def thread_programs(self) -> List[Iterator[ThreadItem]]:
        """One reference-stream generator per thread (len == num_nodes)."""

    def accesses(self, quantum: int = 4) -> Iterator[Tuple[int, str, int, int]]:
        """The workload's interleaved global reference stream.

        Yields ``(node, op, address, pc)`` in the machine's memory order, as
        consumed by :meth:`repro.memory.system.MultiprocessorSystem.run`.
        """
        from repro.workloads.scheduler import interleave

        return interleave(self.thread_programs(), quantum=quantum)

    def system_config(self):
        """The :class:`~repro.memory.system.SystemConfig` this model runs on.

        A machine spec defines the whole system; otherwise the workload's
        suggested (scaled) cache geometry applies -- see EXPERIMENTS.md for
        the scaling rationale.
        """
        from repro.memory.cache import CacheConfig
        from repro.memory.system import SystemConfig

        if self.machine is not None:
            return self.machine.system_config()
        cache_bytes = getattr(self, "suggested_cache_bytes", 32 * 1024)
        associativity = getattr(self, "suggested_cache_associativity", 4)
        return SystemConfig(
            num_nodes=self.num_nodes,
            cache=CacheConfig(
                size_bytes=cache_bytes, associativity=associativity, line_size=64
            ),
        )

    def stream_trace(self, sink, quantum: int = 4):
        """Run the protocol simulation, emitting trace events into ``sink``.

        ``sink`` is any ``write_columns`` column consumer -- a
        :class:`~repro.trace.interchange.TraceWriter` (generate to disk,
        never materializing the trace) or a
        :class:`~repro.trace.builder.ColumnSink` (a resident trace).
        Returns the run's :class:`~repro.memory.protocol.ProtocolStats`;
        sealing the sink stays the caller's job.
        """
        from repro.memory.system import MultiprocessorSystem

        system = MultiprocessorSystem(
            self.system_config(),
            trace_name=self.name,
            machine=self.machine,
            trace_sink=sink,
        )
        system.run(self.accesses(quantum=quantum))
        system.finalize_trace()
        return system.stats


@dataclass
class WorkloadScale:
    """Shared scale knobs used by several benchmark models."""

    timesteps: int = 4
    size_factor: float = 1.0

    def scaled(self, base: int) -> int:
        value = int(round(base * self.size_factor))
        return max(1, value)
