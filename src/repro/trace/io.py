"""The v1 text trace format and the trace-file error type.

Traces are stored on disk as ``.rtrace`` files
(:mod:`repro.trace.interchange`).  This module holds the human-readable
text format, for debugging and for importing traces produced by other
tools, and :class:`TraceFormatError`, which every trace reader raises.
"""

from __future__ import annotations

import os
from typing import IO, Iterator, Optional, Union

import numpy as np

from repro.machine import MachineSpec
from repro.trace.events import SharingTrace
from repro.trace.source import (
    CHUNK_FIELDS,
    DEFAULT_CHUNK_EVENTS,
    StreamingConsistencyChecker,
    TraceChunk,
    TraceSource,
    as_source,
)
from repro.util.bitmaps import bitmap_layout
from repro.util.persist import CacheCorruptionError


class TraceFormatError(CacheCorruptionError, ValueError):
    """A trace file is truncated, malformed, or schema-stale.

    Doubles as a :class:`ValueError` for callers that validate formats and
    as a :class:`~repro.util.persist.CacheCorruptionError` for the cache
    layer, which treats it as a miss and regenerates.
    """


def dump_text(
    trace: Union[SharingTrace, TraceSource], path: Union[str, os.PathLike]
) -> None:
    """Write a trace (or source) as one whitespace-separated line per event.

    Columns: writer pc home block truth inval has_inval close (bitmaps in
    hex).  Meant for eyeballing and cross-tool exchange, not bulk storage.
    Streams chunk by chunk, so a file-backed source exports at O(chunk)
    memory.
    """
    source = as_source(trace)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# sharing-trace v1 nodes={source.num_nodes} "
                     f"name={source.name}\n")
        if source.machine is not None:
            handle.write(f"# machine={source.machine.to_json()}\n")
        handle.write("# writer pc home block truth inval has_inval close\n")
        for chunk in source.chunks():
            writers = chunk.writer.tolist()
            pcs = chunk.pc.tolist()
            homes = chunk.home.tolist()
            blocks = chunk.block.tolist()
            truths = chunk.truth_ints()
            invals = chunk.inval_ints()
            has_invals = chunk.has_inval.tolist()
            closes = chunk.close.tolist()
            for index in range(len(writers)):
                handle.write(
                    f"{writers[index]} {pcs[index]} {homes[index]} "
                    f"{blocks[index]} {truths[index]:#x} {invals[index]:#x} "
                    f"{int(has_invals[index])} {closes[index]}\n"
                )


class TextTraceReader:
    """Single-pass streaming reader for the v1 text trace format.

    Consumes header lines up front (so ``num_nodes``/``name``/``machine``
    are available before any data is read), then yields the event rows as
    columnar :class:`~repro.trace.source.TraceChunk` windows.  Malformed
    lines raise :class:`TraceFormatError` -- a :class:`ValueError`
    subclass, so callers of the old materializing parser keep working --
    as does a missing ``nodes=`` header.
    """

    def __init__(self, handle: IO[str], path: Union[str, os.PathLike] = "<text>"):
        self._handle = handle
        self._path = os.fspath(path)
        self.num_nodes: Optional[int] = None
        self.name = "trace"
        self.machine: Optional[MachineSpec] = None
        self._first_row: Optional[str] = None
        for line in handle:
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                for token in text[1:].split():
                    if token.startswith("nodes="):
                        self.num_nodes = int(token.split("=", 1)[1])
                    elif token.startswith("name="):
                        self.name = token.split("=", 1)[1]
                    elif token.startswith("machine="):
                        # compact JSON is whitespace-free, so one token
                        self.machine = MachineSpec.from_json(
                            token.split("=", 1)[1]
                        )
                continue
            self._first_row = text
            break
        if self.num_nodes is None:
            raise TraceFormatError("trace text is missing the 'nodes=' header")
        self.layout = bitmap_layout(self.num_nodes)

    def chunks(
        self, chunk_events: int = DEFAULT_CHUNK_EVENTS
    ) -> Iterator[TraceChunk]:
        """Yield the data rows as column chunks (single pass)."""
        if chunk_events < 1:
            raise ValueError(f"chunk_events must be positive, got {chunk_events}")
        columns: list = [[] for _ in CHUNK_FIELDS]
        start = 0

        def build() -> TraceChunk:
            assert self.num_nodes is not None
            chunk = TraceChunk(
                num_nodes=self.num_nodes,
                start=start,
                writer=np.asarray(columns[0], dtype=np.int64),
                pc=np.asarray(columns[1], dtype=np.int64),
                home=np.asarray(columns[2], dtype=np.int64),
                block=np.asarray(columns[3], dtype=np.int64),
                truth=self.layout.asarray(columns[4]),
                inval=self.layout.asarray(columns[5]),
                has_inval=np.asarray(columns[6], dtype=bool),
                close=np.asarray(columns[7], dtype=np.int64),
                name=self.name,
                machine=self.machine,
            )
            return chunk

        def rows() -> Iterator[str]:
            if self._first_row is not None:
                yield self._first_row
                self._first_row = None
            for line in self._handle:
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                yield text

        for text in rows():
            fields = text.split()
            if len(fields) != 8:
                raise TraceFormatError(f"malformed trace line: {text!r}")
            try:
                columns[0].append(int(fields[0]))
                columns[1].append(int(fields[1]))
                columns[2].append(int(fields[2]))
                columns[3].append(int(fields[3]))
                columns[4].append(int(fields[4], 16))
                columns[5].append(int(fields[5], 16))
                columns[6].append(bool(int(fields[6])))
                columns[7].append(int(fields[7]))
            except ValueError as error:
                raise TraceFormatError(
                    f"malformed trace line: {text!r}"
                ) from error
            if len(columns[0]) == chunk_events:
                yield build()
                start += chunk_events
                columns = [[] for _ in CHUNK_FIELDS]
        if columns[0]:
            yield build()


def parse_text(path: Union[str, os.PathLike]) -> SharingTrace:
    """Read a trace written by :func:`dump_text`.

    Streams line-by-line through :class:`TextTraceReader` -- rows land
    directly in columnar chunks (never a per-row tuple list), and the
    trace invariants are verified by the single-pass streaming checker
    as chunks arrive.
    """
    parts: dict = {field: [] for field in CHUNK_FIELDS}
    with open(path, "r", encoding="utf-8") as handle:
        reader = TextTraceReader(handle, path=path)
        checker = StreamingConsistencyChecker(reader.num_nodes)
        try:
            for chunk in reader.chunks():
                checker.feed(chunk)
                for field in CHUNK_FIELDS:
                    parts[field].append(getattr(chunk, field))
            checker.finish()
        except TraceFormatError:
            raise
        except ValueError as error:
            raise TraceFormatError(
                f"trace text {path} violates trace invariants: {error}"
            ) from error
    layout = reader.layout
    if parts["writer"]:
        columns = {field: np.concatenate(parts[field]) for field in CHUNK_FIELDS}
    else:
        columns = {
            field: (
                layout.zeros(0)
                if field in ("truth", "inval")
                else np.zeros(0, dtype=bool if field == "has_inval" else np.int64)
            )
            for field in CHUNK_FIELDS
        }
    return SharingTrace(
        num_nodes=reader.num_nodes,
        name=reader.name,
        machine=reader.machine,
        **columns,
    )
