"""Shared-memory trace transport: publish once, map everywhere.

The parallel engine's unit of work is tiny (a scheme description) but its
working set is not: every worker needs the full benchmark trace suite.  The
original transport pickled each :class:`~repro.trace.events.SharingTrace`
into every worker's initializer, copying tens of megabytes per worker per
batch.  This module moves the *metadata* instead, the way directory-based
predictors move sharing bitmaps rather than cache lines:

* :func:`publish_traces` copies each trace's numpy arrays once into a
  ``multiprocessing.shared_memory`` segment and returns pickle-flat
  :class:`TraceDescriptor` records (segment name, per-field offsets/dtypes,
  and a content fingerprint);
* :func:`attach_trace` maps the segment in a worker and rebuilds the trace
  as **zero-copy** numpy views over the shared buffer -- no per-worker
  copies, no deserialization, attachment keyed and verified by the trace
  fingerprint;
* the publisher owns the segment's lifetime: :meth:`PublishedTraces.close`
  unlinks every segment after the worker pool has drained.

Shared memory is an optimization, never a requirement.  :func:`shm_enabled`
gates the transport behind the ``REPRO_SHM`` environment variable (set
``REPRO_SHM=0`` to force the pickle path), and any ``OSError`` while
publishing (no ``/dev/shm``, exhausted segment quota, sandboxed platform)
is reported to the caller so it can fall back to pickling the traces --
the two transports are bit-identical by construction and both are exercised
against the golden fixtures in ``tests/golden``.

Telemetry: the publisher records ``shm.publishes``, ``shm.bytes_published``
and ``shm.unlinks``; transport selection records ``shm.fallbacks`` at the
call site that degrades.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.machine import MachineSpec
from repro.telemetry import get_telemetry
from repro.trace.events import SharingTrace

try:  # pragma: no cover - present on every supported CPython
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic minimal builds
    _shared_memory = None

#: the array fields of a SharingTrace, in serialization order
TRACE_FIELDS: Tuple[str, ...] = (
    "writer",
    "pc",
    "home",
    "block",
    "truth",
    "inval",
    "has_inval",
    "close",
)


def shm_available() -> bool:
    """True when the interpreter ships ``multiprocessing.shared_memory``."""
    return _shared_memory is not None


def shm_enabled() -> bool:
    """Whether the shared-memory transport is switched on.

    Controlled by ``REPRO_SHM``: unset or truthy means on, any of
    ``0/false/off/no`` (case-insensitive) means off.  Availability of the
    underlying primitive is checked separately (:func:`shm_available`).
    """
    raw = os.environ.get("REPRO_SHM", "").strip().lower()
    if raw in ("0", "false", "off", "no"):
        return False
    return True


def trace_fingerprint(trace: SharingTrace) -> str:
    """A content hash identifying a trace's exact arrays and shape.

    Workers verify it after attaching, so a stale or recycled segment name
    can never silently feed a different trace into an evaluation.
    """
    digest = hashlib.sha256()
    digest.update(f"nodes={trace.num_nodes};name={trace.name};".encode("utf-8"))
    # Traces generated without a spec (the paper-default machine) keep the
    # historical fingerprint so pre-existing caches and fixtures stay valid.
    if trace.machine is not None:
        digest.update(f"machine={trace.machine.trace_label()};".encode("utf-8"))
    for field in TRACE_FIELDS:
        array = np.ascontiguousarray(getattr(trace, field))
        digest.update(field.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def content_key(trace) -> str:
    """The content identity of a resident trace or a streaming source.

    Sources key on their streaming fingerprint (prefixed so the two
    fingerprint algebras can never collide), residents on the historical
    resident :func:`trace_fingerprint` -- so every existing transport-reuse
    key stays exactly what it was.
    """
    from repro.trace.source import TraceSource

    if isinstance(trace, TraceSource):
        return f"stream:{trace.fingerprint()}"
    return trace_fingerprint(trace)


@dataclass(frozen=True)
class _FieldLayout:
    """Where one trace array lives inside its shared segment.

    ``words`` is 0 for 1-D fields; packed bitmap columns on >64-node
    machines are 2-D ``(length, words)`` arrays.
    """

    offset: int
    length: int
    dtype: str
    words: int = 0


@dataclass(frozen=True)
class TraceDescriptor:
    """Everything a worker needs to map one published trace.

    Pickle-flat (strings and ints only), a few hundred bytes regardless of
    trace size -- this is what crosses the process boundary instead of the
    arrays themselves.
    """

    segment: str
    trace_name: str
    num_nodes: int
    num_events: int
    fingerprint: str
    fields: Dict[str, _FieldLayout]
    machine: str = ""  # MachineSpec JSON, "" when the trace carries none


class PublishedTraces:
    """Owner of the shared segments backing one batch's trace suite."""

    def __init__(self) -> None:
        self.descriptors: List[TraceDescriptor] = []
        self._segments: List["_shared_memory.SharedMemory"] = []
        self._closed = False

    def close(self) -> None:
        """Close and unlink every segment (idempotent).

        Call only after the consuming worker pool has shut down; on POSIX
        an unlink while workers still hold mappings is also safe (the
        segment disappears when the last mapping closes).
        """
        if self._closed:
            return
        self._closed = True
        telemetry = get_telemetry()
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
                telemetry.count("shm.unlinks")
            except (FileNotFoundError, OSError):  # already reclaimed
                pass
        self._segments.clear()

    def __enter__(self) -> "PublishedTraces":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort leak guard
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


def _field_specs(num_events: int, num_nodes: int) -> Dict[str, Tuple[tuple, np.dtype]]:
    """Canonical ``field -> (shape, dtype)`` for a trace of known size.

    What lets a publisher size a segment before seeing any data -- the
    shapes depend only on event count and machine width.
    """
    from repro.util.bitmaps import bitmap_layout

    layout = bitmap_layout(num_nodes)
    bitmap_shape = (
        (num_events, layout.n_words) if layout.packed else (num_events,)
    )
    int_col = ((num_events,), np.dtype(np.int64))
    return {
        "writer": int_col,
        "pc": int_col,
        "home": int_col,
        "block": int_col,
        "truth": (bitmap_shape, np.dtype(layout.dtype)),
        "inval": (bitmap_shape, np.dtype(layout.dtype)),
        "has_inval": ((num_events,), np.dtype(bool)),
        "close": int_col,
    }


def _publish_one(published: PublishedTraces, trace) -> int:
    """Publish one trace (resident or source) into a fresh segment.

    A :class:`~repro.trace.source.TraceSource` is copied **chunk-wise**:
    the segment is sized from the source's header, each chunk's columns
    land directly in their shared-memory slots, and the descriptor
    fingerprint is computed over zero-copy views of the filled segment --
    the trace never materializes in the publisher's heap.  Returns the
    published byte count.
    """
    from repro.trace.source import TraceSource

    streaming = isinstance(trace, TraceSource)
    num_events = len(trace)
    specs = _field_specs(num_events, trace.num_nodes)
    if not streaming:
        for field, (shape, dtype) in specs.items():
            array = np.ascontiguousarray(getattr(trace, field))
            if array.shape != shape or array.dtype != dtype:
                specs[field] = (array.shape, array.dtype)
    total = sum(
        int(np.prod(shape)) * dtype.itemsize for shape, dtype in specs.values()
    )
    segment = _shared_memory.SharedMemory(create=True, size=max(1, total))
    published._segments.append(segment)
    fields: Dict[str, _FieldLayout] = {}
    views: Dict[str, np.ndarray] = {}
    offset = 0
    for field, (shape, dtype) in specs.items():
        views[field] = np.ndarray(
            shape, dtype=dtype, buffer=segment.buf, offset=offset
        )
        fields[field] = _FieldLayout(
            offset=offset,
            length=shape[0],
            dtype=str(dtype),
            words=shape[1] if len(shape) == 2 else 0,
        )
        offset += views[field].nbytes
    if streaming:
        filled = 0
        for chunk in trace.chunks():
            stop = filled + len(chunk)
            for field in TRACE_FIELDS:
                views[field][filled:stop] = getattr(chunk, field)
            filled = stop
        if filled != num_events:
            raise ValueError(
                f"source {trace.name!r} yielded {filled} events, "
                f"header promised {num_events}"
            )
    else:
        for field in TRACE_FIELDS:
            views[field][:] = getattr(trace, field)
    # Fingerprint the shared buffer itself (zero-copy views) so streamed
    # and resident publishes of the same content produce the same
    # descriptor -- workers verify against it after attaching.
    shared_trace = SharingTrace(
        num_nodes=trace.num_nodes,
        name=trace.name,
        machine=trace.machine,
        **views,
    )
    published.descriptors.append(
        TraceDescriptor(
            segment=segment.name,
            trace_name=trace.name,
            num_nodes=trace.num_nodes,
            num_events=num_events,
            fingerprint=trace_fingerprint(shared_trace),
            fields=fields,
            machine=(
                trace.machine.to_json() if trace.machine is not None else ""
            ),
        )
    )
    return total


def publish_traces(traces: Sequence) -> PublishedTraces:
    """Copy each trace's arrays into one shared segment per trace.

    Accepts resident :class:`SharingTrace` objects and streaming
    :class:`~repro.trace.source.TraceSource` instances; sources fill their
    segment chunk by chunk, so publishing a file-backed trace peaks at one
    chunk of heap, not one trace.  Returns a :class:`PublishedTraces`
    whose ``descriptors`` parallel the input order.  The caller owns
    cleanup via :meth:`PublishedTraces.close`.

    Raises:
        RuntimeError: shared memory is unavailable on this interpreter.
        OSError: the platform refused a segment (no ``/dev/shm``, quota) --
            callers should fall back to the pickle transport.
    """
    if _shared_memory is None:
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    telemetry = get_telemetry()
    published = PublishedTraces()
    try:
        for trace in traces:
            total = _publish_one(published, trace)
            telemetry.count("shm.publishes")
            telemetry.count("shm.bytes_published", total)
    except BaseException:
        published.close()
        raise
    return published


class AttachedTrace:
    """A worker-side zero-copy view of one published trace.

    Holds the :class:`SharedMemory` mapping open for as long as the trace
    views are alive; :meth:`close` drops the mapping (views become invalid).

    On CPython < 3.13 attaching re-registers the segment with the resource
    tracker; that is harmless here because pool workers share the parent's
    tracker process (registration is idempotent and the publisher's unlink
    clears the one entry), and it doubles as a leak guard if the publisher
    is killed before unlinking.
    """

    def __init__(self, descriptor: TraceDescriptor):
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self.descriptor = descriptor
        self._segment = _shared_memory.SharedMemory(name=descriptor.segment)
        arrays = {}
        for field in TRACE_FIELDS:
            layout = descriptor.fields[field]
            shape = (
                (layout.length, layout.words) if layout.words else (layout.length,)
            )
            arrays[field] = np.ndarray(
                shape,
                dtype=np.dtype(layout.dtype),
                buffer=self._segment.buf,
                offset=layout.offset,
            )
        # SharingTrace's asarray calls are no-ops for same-dtype arrays, so
        # the constructed trace aliases the shared buffer directly.
        self.trace = SharingTrace(
            num_nodes=descriptor.num_nodes,
            name=descriptor.trace_name,
            machine=(
                MachineSpec.from_json(descriptor.machine)
                if descriptor.machine
                else None
            ),
            **arrays,
        )
        actual = trace_fingerprint(self.trace)
        if actual != descriptor.fingerprint:
            self.close()
            raise ValueError(
                f"shared trace {descriptor.segment} fingerprint mismatch: "
                f"{actual} != {descriptor.fingerprint}"
            )

    def close(self) -> None:
        try:
            self._segment.close()
        except OSError:  # pragma: no cover - double close
            pass


def attach_trace(descriptor: TraceDescriptor) -> AttachedTrace:
    """Map one published trace into this process, zero-copy and verified."""
    return AttachedTrace(descriptor)
