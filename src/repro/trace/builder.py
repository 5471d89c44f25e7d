"""Incremental construction of sharing traces from protocol activity.

The protocol engine reports two things as it runs: "node W wrote block B
under pc P (a coherence store)" and "node R read block B".  The
:class:`StreamingTraceBuilder` threads these into per-block epoch chains
-- truth bitmaps, invalidation bitmaps, close indices -- and pushes every
settled event into a column sink: a
:class:`~repro.trace.interchange.TraceWriter` for traces that go to disk,
or a :class:`ColumnSink` for a resident
:class:`~repro.trace.events.SharingTrace`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.trace.events import SharingTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine import MachineSpec


class ColumnSink:
    """In-memory column sink: collects flushed columns into a resident trace.

    Give it to a :class:`StreamingTraceBuilder`; once the builder is
    finalized, :meth:`trace` yields the verified
    :class:`~repro.trace.events.SharingTrace`.  With ``forward`` (another
    sink, e.g. a :class:`~repro.trace.interchange.TraceWriter`) every
    batch is also passed on, so one run both writes and keeps the trace.
    """

    def __init__(
        self,
        num_nodes: int,
        name: str = "trace",
        machine: Optional["MachineSpec"] = None,
        forward=None,
    ):
        self.num_nodes = num_nodes
        self.name = name
        self.machine = machine
        self.forward = forward
        self._columns: List[list] = [[] for _ in range(8)]

    def write_columns(self, *columns) -> None:
        """Append one batch: writer, pc, home, block, truth, inval,
        has_inval and close columns, in that order."""
        if self.forward is not None:
            self.forward.write_columns(*columns)
        for column, values in zip(self._columns, columns):
            column.extend(values)

    def trace(self) -> SharingTrace:
        """The collected events as a consistency-checked trace."""
        writer, pc, home, block, truth, inval, has_inval, close = self._columns
        trace = SharingTrace(
            num_nodes=self.num_nodes,
            writer=writer,
            pc=pc,
            home=home,
            block=block,
            truth=truth,
            inval=inval,
            has_inval=has_inval,
            close=close,
            name=self.name,
            machine=self.machine,
        )
        trace.check_consistency()
        return trace


class StreamingTraceBuilder:
    """Accumulates prediction events and flushes finished ones into a sink.

    Instead of materializing the whole trace it pushes every *closed
    prefix* -- events whose truth and close index can no longer change --
    into ``sink.write_columns(...)`` (a
    :class:`~repro.trace.interchange.TraceWriter` or a
    :class:`ColumnSink`).  An event is final exactly when it precedes
    every still-open epoch, so the in-memory buffer spans from the oldest
    open epoch to the present: bounded by block-reuse distance, not trace
    length.  (A block written once and never again pins its suffix
    resident -- the worst case degrades to holding the whole trace, never
    to wrong output.)  ``machine`` (optional) rides along for sinks that
    stamp it on the trace.

    ``finalize`` closes the remaining epochs at end-of-trace, flushes the
    tail, and returns the total event count; sealing the sink (e.g.
    ``TraceWriter.close``) stays the caller's job.
    """

    def __init__(
        self,
        num_nodes: int,
        sink,
        name: str = "trace",
        machine: Optional["MachineSpec"] = None,
        flush_events: int = 65536,
    ):
        if flush_events < 1:
            raise ValueError(f"flush_events must be positive, got {flush_events}")
        self.num_nodes = num_nodes
        self.name = name
        self.machine = machine
        self.sink = sink
        self.flush_events = flush_events
        #: buffer length that triggers the next flush attempt; it moves
        #: past a pinned prefix so an old open epoch cannot make every
        #: later event rescan the open-epoch table
        self._flush_at = flush_events
        self._base = 0  # absolute index of the first buffered event
        self._writer: List[int] = []
        self._pc: List[int] = []
        self._home: List[int] = []
        self._block: List[int] = []
        self._truth: List[int] = []
        self._inval: List[int] = []
        self._has_inval: List[bool] = []
        self._close: List[int] = []
        #: block -> absolute index of its open event (always >= _base:
        #: open events are never flushed)
        self._open_event_by_block: Dict[int, int] = {}

    def __len__(self) -> int:
        """Total events recorded so far (flushed + buffered)."""
        return self._base + len(self._writer)

    def add_event(self, writer: int, pc: int, home: int, block: int) -> int:
        """Record a coherence store: closes the block's open epoch, opens a new one.

        Returns the new event's index.
        """
        index = self._base + len(self._writer)
        previous = self._open_event_by_block.get(block)
        if previous is None:
            inval, has_inval = 0, False
        else:
            slot = previous - self._base
            inval, has_inval = self._truth[slot], True
            self._close[slot] = index
        self._writer.append(writer)
        self._pc.append(pc)
        self._home.append(home)
        self._block.append(block)
        self._truth.append(0)
        self._inval.append(inval)
        self._has_inval.append(has_inval)
        self._close.append(-1)
        self._open_event_by_block[block] = index
        if len(self._writer) >= self._flush_at:
            self._flush()
            self._flush_at = len(self._writer) + self.flush_events
        return index

    def add_reader(self, block: int, node: int) -> None:
        """Record that ``node`` truly read ``block`` during its open epoch.

        Reads before the block's first coherence store (cold data) have no
        epoch to credit and are ignored -- see DESIGN.md on why pre-write
        reader sets are excluded from predictor feedback.
        """
        event = self._open_event_by_block.get(block)
        if event is None:
            return
        slot = event - self._base
        if node == self._writer[slot]:
            return  # the producer re-reading its own data is not sharing
        self._truth[slot] |= 1 << node

    def _flush(self, boundary: Optional[int] = None) -> None:
        """Emit buffered events below ``boundary`` (default: oldest open)."""
        if boundary is None:
            boundary = min(
                self._open_event_by_block.values(),
                default=self._base + len(self._writer),
            )
        count = boundary - self._base
        if count <= 0:
            return
        self.sink.write_columns(
            self._writer[:count],
            self._pc[:count],
            self._home[:count],
            self._block[:count],
            self._truth[:count],
            self._inval[:count],
            self._has_inval[:count],
            self._close[:count],
        )
        del self._writer[:count]
        del self._pc[:count]
        del self._home[:count]
        del self._block[:count]
        del self._truth[:count]
        del self._inval[:count]
        del self._has_inval[:count]
        del self._close[:count]
        self._base += count

    def finalize(self) -> int:
        """Close open epochs at end-of-trace, flush everything; event count.

        Mirrors the paper's use of "the final state of the memory" to
        resolve sharing information for epochs still open when the program
        ends (Section 5.1).
        """
        length = self._base + len(self._writer)
        for slot in range(len(self._close)):
            if self._close[slot] < 0:
                self._close[slot] = length
        self._open_event_by_block.clear()
        self._flush(boundary=length)
        return length
