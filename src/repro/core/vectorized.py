"""Fast trace evaluation: numpy passes instead of a per-event interpreter.

The design-space sweeps of paper Section 5.4 evaluate thousands of schemes
over every benchmark trace, so the per-scheme cost must be a handful of
vectorized passes.  The key observation is that for bitmap-history functions
(last/union/intersection/overlap-last) the history an entry holds at event
*i* is simply the last ``depth`` feedback values delivered to ``key[i]``
before the prediction -- and every update mode reduces to a different
*(delivery time, feedback value)* labelling of the same event stream:

==========  =======================  ==================  ==================
mode        feedback source          value               delivery time
==========  =======================  ==================  ==================
DIRECT      events with ``has_inval``  ``inval[j]``        ``j`` (inclusive)
FORWARDED   events with ``close<E``    ``truth[j]``        ``close[j]`` (inclusive)
ORDERED     all events                 ``truth[j]``        ``j`` (exclusive)
==========  =======================  ==================  ==================

"Inclusive" means a feedback delivered *at* event *i* is visible to event
*i*'s own prediction (direct update happens at the consulting event;
forwarded feedback is processed by the directory before the closing event
predicts); "exclusive" means it becomes visible only to later predictions.
Delivery times are unique within a mode (an event closes at most one epoch),
so one ``searchsorted`` over a composite ``(key, time)`` ordering recovers
each prediction's history window exactly.

This module holds the pieces of that math that do not depend on how the
trace is chunked -- :func:`compute_keys` (a property of the
:class:`IndexSpec`, so every scheme in an index group reads the same key
stream) and :func:`_reduce_bitmap` (folding one prediction function over a
gathered history window) -- plus the public per-scheme entry points.  The
pass itself runs in :mod:`repro.core.windowed`, which evaluates every
trace as a chunk stream (a resident trace is one chunk); PAs and the
confidence-gated extensions run the per-event loop through the kernel
backend registry (:mod:`repro.core.kernel_backends`).

``evaluate_scheme_fast`` is property-tested against the reference evaluator
in ``tests/core/test_vectorized_equivalence.py``.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.indexing import IndexSpec
from repro.core.schemes import Scheme
from repro.metrics.confusion import ConfusionCounts
from repro.trace.events import SharingTrace
from repro.trace.source import TraceSource

_BITMAP_FUNCTIONS = ("last", "union", "inter", "overlap")


def predict_scheme_fast(
    scheme: Scheme,
    trace: Union[SharingTrace, TraceSource],
    exclude_writer: bool = True,
) -> np.ndarray:
    """The per-event prediction bitmaps ``scheme`` emits over ``trace``.

    One forwarding bitmap per event, in the trace's
    :class:`~repro.util.bitmaps.BitmapLayout` representation (``uint32``
    for paper-sized machines) -- the fast-path counterpart of
    :func:`repro.core.evaluator.predict_scheme`, and the array
    :func:`repro.forwarding.replay_traffic` consumes.
    """
    from repro.core.windowed import predict_column

    return predict_column(scheme, trace, exclude_writer=exclude_writer)


def evaluate_scheme_fast(
    scheme: Scheme,
    trace: Union[SharingTrace, TraceSource],
    exclude_writer: bool = True,
    counts: Optional[ConfusionCounts] = None,
) -> ConfusionCounts:
    """Drop-in fast replacement for :func:`repro.core.evaluator.evaluate_scheme`.

    Accepts a resident trace or any :class:`~repro.trace.source.TraceSource`.
    """
    from repro.core.windowed import evaluate_batch_streamed

    result = evaluate_batch_streamed([scheme], trace, exclude_writer=exclude_writer)[0]
    if counts is None:
        return result
    counts.merge(result)
    return counts


# ----------------------------------------------------------------------
# Key streams (shared per IndexSpec)
# ----------------------------------------------------------------------


def compute_keys(spec: IndexSpec, trace: SharingTrace) -> np.ndarray:
    """Vectorized mirror of :meth:`IndexSpec.key` over the whole trace.

    Takes the :class:`IndexSpec` rather than a scheme: the key stream is a
    property of the index group, which is exactly what lets a sweep
    compute it once and share it across every scheme in the group.
    ``trace`` may be a trace chunk.
    """
    num_nodes = trace.num_nodes
    node_bits = spec.node_bits(num_nodes)
    node_mask = (1 << node_bits) - 1
    keys = np.zeros(len(trace), dtype=np.int64)
    if spec.use_pid:
        keys = (keys << node_bits) | (trace.writer & node_mask)
    if spec.pc_bits:
        keys = (keys << spec.pc_bits) | (trace.pc & ((1 << spec.pc_bits) - 1))
    if spec.use_dir:
        keys = (keys << node_bits) | (trace.home & node_mask)
    if spec.addr_bits:
        keys = (keys << spec.addr_bits) | (trace.block & ((1 << spec.addr_bits) - 1))
    return keys


# ----------------------------------------------------------------------
# Bitmap-history schemes
# ----------------------------------------------------------------------


def _bitmap_window(scheme: Scheme) -> int:
    """History slots a bitmap scheme actually reads.

    Overlap-last keeps two bitmaps regardless of nominal depth.
    """
    return 2 if scheme.function == "overlap" else scheme.depth


def _reduce_bitmap(function: str, window: int, shared) -> np.ndarray:
    """Fold one scheme's prediction function over a shared history gather.

    ``shared`` carries ``length``, ``layout``, ``available`` (feedback
    values delivered to each event's entry so far) and ``gathered`` (slot
    *s* is each event's *(s+1)*-th most recent feedback, zero outside the
    window).  ``window`` is the scheme's own slot count and may be smaller
    than the gather width (a batch gathers once at its maximum window).
    """
    length = shared.length
    layout = shared.layout
    available = shared.available
    gathered = shared.gathered
    if function in ("union", "last"):
        predictions = layout.zeros(length)
        for slot in range(window):
            predictions |= gathered[slot]
    elif function == "inter":
        predictions = layout.full(length)
        for slot in range(window):
            active = available > slot
            predictions[active] &= gathered[slot, active]
        predictions[available == 0] = 0
    else:  # overlap-last
        newest = gathered[0]
        previous = gathered[1]
        overlaps = layout.any_set(newest & previous)
        predictions = layout.select(
            available >= 2,
            layout.select(overlaps, newest, layout.zeros(length)),
            newest,  # 0 or 1 bitmaps stored: predict what is there (0 if none)
        )
    return predictions
