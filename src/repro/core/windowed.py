"""The one evaluation path: vectorized scheme evaluation over chunk streams.

Every fast evaluation in the system -- a resident
:class:`~repro.trace.events.SharingTrace` or a multi-gigabyte ``.rtrace``
:class:`~repro.trace.source.TraceSource` -- runs here.  A resident trace
is simply a one-chunk stream; a file-backed source is many chunks, and
evaluates at O(chunk + carried state) memory with **bit-identical**
results (asserted over the golden fixtures by
``tests/engine/test_stream_equivalence.py``).  The math is the
*(delivery time, feedback value)* labelling documented in
:mod:`repro.core.vectorized`, run per :class:`~repro.trace.source.TraceChunk`
with exactly the state a predictor needs between windows carried along.

Carried-history construction
----------------------------

For a chunk covering absolute events ``[s, e)`` (length ``L``) and a
pass window ``W`` (the batch-max history depth), local feedback and
prediction times are expressed as ``absolute - s + W``, which leaves the
band ``[0, W)`` free *below* every real event.  Into that band we inject
each key's carried history -- its up-to-``W`` most recent feedback
values from previous chunks, the *k*-th most recent at time ``W-1-k``.
Then one sort + ``searchsorted`` + gather over (carried + local) feedback
reproduces a whole-trace pass exactly, because

* slot *k* of the gather is the *(k+1)*-th most recent feedback, and the
  most recent ``min(W, true count)`` values are all present;
* ``available`` (carried, capped at ``W``, plus locally delivered) agrees
  with the true count on every comparison the reductions make
  (``> slot`` for ``slot < W``, ``== 0``, ``>= 2``): if the true count
  exceeds ``W``, both sides exceed every threshold; below ``W`` they are
  equal.  (Chunk-size invariance is property-tested against the
  reference evaluator in ``tests/core/test_vectorized_equivalence.py``.)

After the pass, each key's new carried history is read off the sorted
feedback (the per-key tail of carried + locally delivered values), so
the state is self-renewing.  FORWARDED deliveries whose closing event
falls beyond the chunk wait in a pending queue keyed by absolute
delivery time; entries whose epoch never closes (``close == len``) are
simply never released.

Per-event families (PAs counters, confidence-gated functions) carry
their state in a resumable kernel-backend stream
(:func:`repro.core.kernel_backends.kernel_stream`): the compiled
``native`` loop when one is available, else the pure-Python oracle --
bit-identically at any chunking, by the registry's conformance contract.

:class:`StreamedSweep` is the batch shape: keys once per index group per
chunk, one bitmap pass per (index, mode) group at the group's maximum
window, one kernel stream per per-event scheme, and the one normative
scorer for every family.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.kernel_backends import kernel_stream, score_predictions
from repro.core.schemes import Scheme
from repro.core.update import UpdateMode
from repro.core.vectorized import (
    _BITMAP_FUNCTIONS,
    _bitmap_window,
    _reduce_bitmap,
    compute_keys,
)
from repro.metrics.confusion import ConfusionCounts
from repro.telemetry import get_telemetry
from repro.trace.events import SharingTrace
from repro.trace.source import TraceChunk, TraceSource, as_source
from repro.util.bitmaps import BitmapLayout


def _chunks(
    trace: Union[SharingTrace, TraceSource], chunk_events: Optional[int]
) -> Iterator[TraceChunk]:
    """A trace's chunk stream; a resident trace is one chunk by default."""
    if chunk_events is None and isinstance(trace, SharingTrace):
        chunk_events = max(1, len(trace))
    return as_source(trace).chunks(chunk_events)


class _WindowView:
    """One chunk's history gather, as :func:`_reduce_bitmap` reads it."""

    __slots__ = ("length", "layout", "available", "gathered")

    def __init__(self, length, layout, available, gathered):
        self.length = length
        self.layout = layout
        self.available = available
        self.gathered = gathered


class StreamedBitmapGroup:
    """Carried state for all bitmap schemes sharing one (index, mode).

    One feedback sort + gather per chunk at the group's maximum window
    serves every depth in the group (smaller windows reduce over a slot
    prefix).  State between chunks is ``(keys, counts, values)`` -- for
    each key with history, its up-to-``window`` most recent feedback
    bitmaps -- plus, for FORWARDED, the pending not-yet-closed deliveries.
    """

    def __init__(self, mode: UpdateMode, layout: BitmapLayout, window: int):
        self.mode = mode
        self.layout = layout
        self.window = window
        # carried per-key history: sorted unique keys, per-key feedback
        # counts saturated at `window`, and values[slot, key_pos] = the
        # (slot+1)-th most recent feedback bitmap for that key
        self._keys = np.zeros(0, dtype=np.int64)
        self._counts = np.zeros(0, dtype=np.int64)
        self._values = layout.gather_zeros(window, 0)
        # FORWARDED deliveries waiting for their closing event (absolute
        # delivery times); epochs that never close (time == len) simply
        # stay queued, matching the resident `close < length` selector
        self._pending_keys = np.zeros(0, dtype=np.int64)
        self._pending_times = np.zeros(0, dtype=np.int64)
        self._pending_values = layout.zeros(0)

    def _local_feedback(
        self, chunk: TraceChunk, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, str]:
        """This chunk's feedback stream in local time (absolute - s + W)."""
        window = self.window
        start = chunk.start
        end = chunk.end
        if self.mode is UpdateMode.DIRECT:
            selector = chunk.has_inval
            return (
                keys[selector],
                chunk.inval[selector],
                np.nonzero(selector)[0].astype(np.int64) + window,
                "right",
            )
        if self.mode is UpdateMode.ORDERED:
            return (
                keys,
                chunk.truth,
                np.arange(len(chunk), dtype=np.int64) + window,
                "left",
            )
        if self.mode is not UpdateMode.FORWARDED:  # pragma: no cover
            raise AssertionError(f"unhandled update mode {self.mode}")
        # FORWARDED: epochs opened in this chunk that close within it
        # deliver locally; ones closing later queue as pending.  Queued
        # epochs from earlier chunks whose close falls in [start, end)
        # are released now.
        closes = chunk.close
        local = closes < end
        parts_keys = [keys[local]]
        parts_values = [chunk.truth[local]]
        parts_times = [closes[local] - start + window]
        due = self._pending_times < end
        if due.any():
            parts_keys.append(self._pending_keys[due])
            parts_values.append(self._pending_values[due])
            parts_times.append(self._pending_times[due] - start + window)
            keep = ~due
            self._pending_keys = self._pending_keys[keep]
            self._pending_times = self._pending_times[keep]
            self._pending_values = self._pending_values[keep]
        queued = ~local
        if queued.any():
            self._pending_keys = np.concatenate(
                [self._pending_keys, keys[queued]]
            )
            self._pending_times = np.concatenate(
                [self._pending_times, closes[queued]]
            )
            self._pending_values = np.concatenate(
                [self._pending_values, chunk.truth[queued]]
            )
        return (
            np.concatenate(parts_keys),
            np.concatenate(parts_values),
            np.concatenate(parts_times),
            "right",
        )

    def feed(self, chunk: TraceChunk, keys: np.ndarray) -> _WindowView:
        """One windowed pass: gather each event's history, renew the carry."""
        layout = self.layout
        window = self.window
        length = len(chunk)
        fb_keys, fb_values, fb_times, side = self._local_feedback(chunk, keys)
        fb_values = layout.asarray(fb_values).astype(layout.dtype)

        # inject carried history below the chunk's time band: the k-th
        # most recent carried value for a key sits at time window-1-k,
        # strictly before every local time (>= window)
        inject_keys: List[np.ndarray] = [fb_keys]
        inject_values: List[np.ndarray] = [fb_values]
        inject_times: List[np.ndarray] = [fb_times]
        for slot in range(window):
            held = self._counts > slot
            if not held.any():
                break
            inject_keys.append(self._keys[held])
            inject_values.append(self._values[slot][held])
            inject_times.append(
                np.full(int(held.sum()), window - 1 - slot, dtype=np.int64)
            )
        if len(inject_keys) > 1:
            fb_keys = np.concatenate(inject_keys)
            fb_values = np.concatenate(inject_values)
            fb_times = np.concatenate(inject_times)

        # the labelled-feedback pass in local time: times span [0, L + W),
        # so L + W + 1 separates keys into disjoint composite ranges
        stride = np.int64(length + window + 1)
        fb_composite = fb_keys * stride + fb_times
        order = np.argsort(fb_composite, kind="stable")
        fb_composite = fb_composite[order]
        fb_sorted_keys = fb_keys[order]
        fb_values = fb_values[order]

        use_times = np.arange(length, dtype=np.int64) + window
        use_composite = keys * stride + use_times
        positions = np.searchsorted(fb_composite, use_composite, side=side)
        group_starts = np.searchsorted(fb_composite, keys * stride, side="left")

        available = positions - group_starts
        gathered = layout.gather_zeros(window, length)
        for slot in range(1, window + 1):
            indices = positions - slot
            in_window = indices >= group_starts
            gathered[slot - 1, in_window] = fb_values[indices[in_window]]

        # renew the carry: each key's tail (newest `window` values) of the
        # sorted carried+delivered stream becomes the next chunk's history
        # (the stream is sorted by key, so runs of equal keys are groups)
        first = np.ones(len(fb_sorted_keys), dtype=bool)
        first[1:] = fb_sorted_keys[1:] != fb_sorted_keys[:-1]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(fb_sorted_keys))[: len(starts)]
        unique_keys = fb_sorted_keys[starts]
        new_values = layout.gather_zeros(window, len(unique_keys))
        for slot in range(window):
            tail = ends - 1 - slot
            held = tail >= starts
            if not held.any():
                break
            new_values[slot, held] = fb_values[tail[held]]
        self._keys = unique_keys
        self._counts = np.minimum(ends - starts, window)
        self._values = new_values

        return _WindowView(length, layout, available, gathered)


class _KernelSchemeState:
    """Carried per-event-family state: one kernel-backend stream.

    A named boundary around the stream so per-event kernel time stays
    attributable apart from the bitmap passes (the benchmark's traced run
    in ``perfbench/`` times ``_KernelSchemeState.feed``).
    """

    def __init__(self, scheme: Scheme, num_nodes: int, layout: BitmapLayout):
        self.stream = kernel_stream(scheme, num_nodes, layout)

    def feed(self, chunk: TraceChunk, keys: np.ndarray) -> np.ndarray:
        return self.stream.feed(chunk, keys)


class StreamedSweep:
    """Evaluate a batch of schemes over one chunk stream in a single pass.

    Keys are computed once per index group per chunk, bitmap schemes share
    one windowed pass per (index, mode) group at the group's maximum
    window, and per-event schemes carry their kernel streams -- so adding
    schemes to a sweep costs reductions, not passes.  The passes a sweep
    makes over its trace are counted under ``plan.trace_passes``.  Feed
    every chunk in order, then :meth:`finish`.
    """

    def __init__(
        self,
        schemes: Sequence[Scheme],
        num_nodes: int,
        layout: BitmapLayout,
        exclude_writer: bool = True,
    ):
        self.schemes = list(schemes)
        self.layout = layout
        self.exclude_writer = exclude_writer
        self.counts = [ConfusionCounts() for _ in self.schemes]
        self._index_by_label: Dict[str, object] = {}
        # (index label, mode) -> (shared pass state, member positions)
        self._bitmap_groups: Dict[
            Tuple[str, UpdateMode], Tuple[StreamedBitmapGroup, List[int]]
        ] = {}
        self._kernel_states: Dict[int, _KernelSchemeState] = {}
        members: Dict[Tuple[str, UpdateMode], List[int]] = {}
        for position, scheme in enumerate(self.schemes):
            self._index_by_label.setdefault(scheme.index.label, scheme.index)
            if scheme.function in _BITMAP_FUNCTIONS:
                members.setdefault((scheme.index.label, scheme.update), []).append(
                    position
                )
            else:
                self._kernel_states[position] = _KernelSchemeState(
                    scheme, num_nodes, layout
                )
        for group, positions in members.items():
            window = max(_bitmap_window(self.schemes[p]) for p in positions)
            self._bitmap_groups[group] = (
                StreamedBitmapGroup(group[1], layout, window),
                positions,
            )
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.count(
                "plan.trace_passes", len(self._bitmap_groups) + len(self._kernel_states)
            )

    def feed(self, chunk: TraceChunk) -> None:
        if len(chunk) == 0:
            return
        keys_by_label = {
            label: compute_keys(spec, chunk)
            for label, spec in self._index_by_label.items()
        }
        writer_mask = (
            ~self.layout.writer_bits(chunk.writer) if self.exclude_writer else None
        )
        for (label, _mode), (state, positions) in self._bitmap_groups.items():
            view = state.feed(chunk, keys_by_label[label])
            for position in positions:
                scheme = self.schemes[position]
                predictions = _reduce_bitmap(
                    scheme.function, _bitmap_window(scheme), view
                )
                self._score(position, predictions, chunk, writer_mask)
            del view
        for position, state in self._kernel_states.items():
            predictions = state.feed(
                chunk, keys_by_label[self.schemes[position].index.label]
            )
            self._score(position, predictions, chunk, writer_mask)

    def _score(self, position, predictions, chunk, writer_mask) -> None:
        if writer_mask is not None:
            predictions = predictions & writer_mask
        quad = score_predictions(predictions, chunk, exclude_writer=False)
        counts = self.counts[position]
        counts.true_positive += quad[0]
        counts.false_positive += quad[1]
        counts.false_negative += quad[2]
        counts.true_negative += quad[3]

    def finish(self) -> List[ConfusionCounts]:
        return self.counts


def evaluate_batch_streamed(
    schemes: Sequence[Scheme],
    source: Union[SharingTrace, TraceSource],
    exclude_writer: bool = True,
    chunk_events: Optional[int] = None,
) -> List[ConfusionCounts]:
    """Confusion counts for each scheme over one trace, single chunk pass."""
    sweep = StreamedSweep(
        schemes, source.num_nodes, source.layout, exclude_writer=exclude_writer
    )
    for chunk in _chunks(source, chunk_events):
        sweep.feed(chunk)
    return sweep.finish()


def predict_stream(
    scheme: Scheme,
    source: Union[SharingTrace, TraceSource],
    exclude_writer: bool = True,
    chunk_events: Optional[int] = None,
) -> Iterator[Tuple[TraceChunk, np.ndarray]]:
    """Yield ``(chunk, predictions)`` pairs for one scheme over a trace.

    Concatenating the prediction windows gives the full-length column
    (:func:`predict_column`).  This is what the traffic replayer consumes
    -- over a file-backed source, predictions never exist at full trace
    length.
    """
    layout = source.layout
    if scheme.function in _BITMAP_FUNCTIONS:
        window = _bitmap_window(scheme)
        group = StreamedBitmapGroup(scheme.update, layout, window)
        kernel_state = None
    else:
        group = None
        kernel_state = _KernelSchemeState(scheme, source.num_nodes, layout)
    for chunk in _chunks(source, chunk_events):
        if len(chunk) == 0:
            continue
        keys = compute_keys(scheme.index, chunk)
        if group is not None:
            predictions = _reduce_bitmap(
                scheme.function, window, group.feed(chunk, keys)
            )
        else:
            predictions = kernel_state.feed(chunk, keys)
        if exclude_writer:
            predictions = predictions & ~layout.writer_bits(chunk.writer)
        yield chunk, predictions


def predict_column(
    scheme: Scheme,
    source: Union[SharingTrace, TraceSource],
    exclude_writer: bool = True,
) -> np.ndarray:
    """One scheme's full-length prediction column over a trace."""
    parts = [predictions for _, predictions in predict_stream(
        scheme, source, exclude_writer=exclude_writer
    )]
    if not parts:
        return source.layout.zeros(0)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
