"""Kernel-backend registry: pure-Python oracle vs. compiled fast path.

The per-event predictor loop has exactly one semantic definition --
:class:`~repro.core.kernel.PredictorKernel` -- and, as of this module, more
than one *implementation*.  A kernel backend is an object that opens a
resumable per-scheme stream over a trace's chunks and hands back each
chunk's raw prediction column; the registry decides which implementation a
given evaluation uses, mirroring the evaluation-engine registry in
:mod:`repro.engine`:

* explicit :func:`set_kernel_backend` override (the CLI's ``--kernel``),
* else the ``REPRO_KERNEL`` environment variable,
* else ``auto``: the native backend when a C toolchain is present and its
  build passes the oracle self-check, otherwise pure Python.

The backend contract is one method besides ``available``/``supports``:
``stream(scheme, num_nodes, layout)`` returns an object whose
``feed(chunk, keys)`` returns the chunk's raw predictions.  A stream owns
all predictor state between chunks, so a resident trace is simply one
chunk and a file-backed source is many.  Every backend must honor -- and
the conformance suite (``tests/core/test_kernel_conformance.py``) enforces
over every *registered* backend, at several chunkings, so a new backend is
covered by registration alone:

* **The pure-Python backend is normative.**  Its predictions define
  correctness; a fast backend must reproduce them bit for bit on every
  trace and every chunking, or decline the scheme via ``supports`` and let
  the registry fall through to Python (counted under ``kernel.fallbacks``).
* **Degradation is silent-safe.**  Requesting ``native`` on a machine with
  no compiler warns once and runs pure Python -- results cannot change,
  only speed.  Requesting an unregistered name is an error.
* Raw predictions are *unmasked* (writer-bit exclusion is a scoring
  concern) and delivered in the trace's
  :class:`~repro.util.bitmaps.BitmapLayout` representation.  Scoring is
  never a backend's business: :func:`score_predictions` is the one scorer.

Evaluations open their streams through :func:`kernel_stream`, which also
records the chosen backend under ``kernel.backend.<name>`` telemetry --
including inside parallel-engine workers, whose counters merge home with
the rest of the worker snapshot.
"""

from __future__ import annotations

import hashlib
import logging
import os
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.kernel import KernelStream, PasOps
from repro.core.schemes import Scheme, parse_scheme
from repro.core.vectorized import compute_keys
from repro.telemetry import get_telemetry
from repro.trace.events import SharingTrace
from repro.trace.source import ResidentTraceSource
from repro.util.bitmaps import BitmapLayout
from repro.util.rng import DeterministicRng

logger = logging.getLogger("repro.core.kernel_backends")

#: registry resolution order under ``auto``
_AUTO_ORDER = ("native", "python")

#: the names ``REPRO_KERNEL`` / ``--kernel`` accept besides registered backends
AUTO = "auto"


def score_predictions(
    predictions: np.ndarray, trace: SharingTrace, exclude_writer: bool = True
) -> Tuple[int, int, int, int]:
    """Confusion quad ``(tp, fp, fn, tn)`` for a raw prediction column.

    The one normative scoring definition (popcount over the trace layout's
    words), for every family and every backend; ``trace`` may be a trace
    chunk.  ``exclude_writer`` masks each event's writer bit out of the
    predictions before counting, matching the evaluators' default.
    """
    layout = trace.layout
    if exclude_writer and len(trace):
        predictions = predictions & ~layout.writer_bits(trace.writer)
    full_mask = layout.mask
    truth = trace.truth
    true_positive = int(layout.popcount(predictions & truth).sum())
    false_positive = int(layout.popcount(predictions & ~truth & full_mask).sum())
    false_negative = int(layout.popcount(~predictions & truth & full_mask).sum())
    total = len(trace) * trace.num_nodes
    return (
        true_positive,
        false_positive,
        false_negative,
        total - true_positive - false_positive - false_negative,
    )


class PythonKernelStream:
    """The oracle's resumable loop: a :class:`KernelStream` over chunks."""

    def __init__(self, scheme: Scheme, num_nodes: int, layout: BitmapLayout):
        if scheme.function == "pas":
            ops = PasOps(num_nodes, scheme.depth)
        else:
            ops = scheme.make_function(num_nodes)
        self._stream = KernelStream(scheme.update, ops)
        self._layout = layout

    def feed(self, chunk, keys: np.ndarray) -> np.ndarray:
        """Raw (unmasked) predictions for one chunk, in the layout."""
        # drain the generator with list() before packing: np.fromiter
        # stops *at* the n-th yield, which would leave ORDERED mode's
        # post-yield update of the chunk's last event unexecuted
        values = list(self._stream.feed_chunk(chunk, np.asarray(keys).tolist()))
        return self._layout.from_int_iter(values, count=len(chunk))


class PythonKernelBackend:
    """The normative backend: :class:`PredictorKernel` over entry objects.

    PAs schemes run on the flat-state :class:`~repro.core.kernel.PasOps`;
    everything else gets its real
    :class:`~repro.core.functions.PredictionFunction` object.  Supports
    every scheme by construction -- this is the implementation the others
    are defined against.
    """

    name = "python"

    def available(self) -> bool:
        return True

    def supports(self, scheme: Scheme) -> bool:
        return True

    def stream(
        self, scheme: Scheme, num_nodes: int, layout: BitmapLayout
    ) -> PythonKernelStream:
        """A fresh resumable oracle loop for one (scheme, trace)."""
        return PythonKernelStream(scheme, num_nodes, layout)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, object] = {}
_override: Optional[str] = None
_warned_unavailable: set = set()


def register_kernel_backend(backend) -> None:
    """Register a backend instance under ``backend.name``.

    Registration is the *entire* integration surface: the conformance
    suite parametrizes over :func:`kernel_backend_names`, so a newly
    registered backend is differentially tested against the Python oracle
    with no further wiring.
    """
    _REGISTRY[backend.name] = backend


def kernel_backend_names() -> List[str]:
    """Registered backend names, registration order."""
    return list(_REGISTRY)


def get_kernel_backend(name: str):
    """The registered backend instance for ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: {kernel_backend_names()}"
        ) from None


def set_kernel_backend(name: Optional[str]) -> Optional[str]:
    """Process-wide kernel selection override; returns the previous value.

    ``None`` clears the override (resolution falls back to ``REPRO_KERNEL``
    / ``auto``).  The parallel engine calls this in worker initializers so
    every worker runs the backend the parent resolved.
    """
    global _override
    if name is not None:
        normalized = name.strip().lower()
        if normalized != AUTO:
            get_kernel_backend(normalized)  # validate eagerly
        name = normalized
    previous = _override
    _override = name
    return previous


def resolve_kernel_backend(choice: Optional[str] = None):
    """The backend the next evaluation will use.

    Precedence: explicit ``choice`` > :func:`set_kernel_backend` override >
    ``REPRO_KERNEL`` env var > ``auto``.  ``auto`` picks the first
    *available* backend in preference order (native, then python).  Naming
    an unavailable backend degrades to pure Python with a single warning --
    never an error, never a semantic change.
    """
    name = choice or _override or os.environ.get("REPRO_KERNEL") or AUTO
    name = name.strip().lower()
    if name == AUTO:
        for candidate in _AUTO_ORDER:
            backend = _REGISTRY.get(candidate)
            if backend is not None and backend.available():
                return backend
        return _REGISTRY["python"]
    backend = get_kernel_backend(name)
    if not backend.available():
        if name not in _warned_unavailable:
            _warned_unavailable.add(name)
            logger.warning(
                "kernel backend %r is unavailable on this machine "
                "(no compiler, or its self-check failed); falling back to "
                "the pure-Python kernel -- results are identical, only slower",
                name,
            )
        return _REGISTRY["python"]
    return backend


def active_kernel_name() -> str:
    """The resolved backend's name (what telemetry and the CLI report)."""
    return resolve_kernel_backend().name


# ----------------------------------------------------------------------
# Routed entry point
# ----------------------------------------------------------------------


def _backend_for(scheme: Scheme):
    """Resolve, then fall through to Python for unsupported schemes."""
    backend = resolve_kernel_backend()
    telemetry = get_telemetry()
    if backend.name != "python" and not backend.supports(scheme):
        if telemetry.enabled:
            telemetry.count("kernel.fallbacks")
        backend = _REGISTRY["python"]
    if telemetry.enabled:
        telemetry.count(f"kernel.backend.{backend.name}")
    return backend


def kernel_stream(scheme: Scheme, num_nodes: int, layout: BitmapLayout):
    """A resumable prediction stream for one (scheme, trace).

    Opened on the active kernel backend (Python for schemes it declines);
    its ``feed(chunk, keys)`` returns the chunk's raw predictions,
    bit-identical across backends and chunkings by the registry contract.
    """
    return _backend_for(scheme).stream(scheme, num_nodes, layout)


# ----------------------------------------------------------------------
# Probe battery: the self-check every fast backend must pass
# ----------------------------------------------------------------------

#: schemes the probe battery runs -- all three update modes, the four
#: bitmap functions, PAs, and a confidence-gated sequential scheme (which
#: native backends decline, exercising the fall-through path)
PROBE_SCHEMES: Tuple[str, ...] = (
    "last()1[direct]",
    "last(dir+add4)1[forwarded]",
    "union(pid+add4)3[ordered]",
    "union(dir+add6)2[forwarded]",
    "inter(pid+pc4)2[direct]",
    "inter(add5)3[forwarded]",
    "overlap(dir+add4)1[direct]",
    "overlap(pc3)1[ordered]",
    "pas(pid+add4)2[direct]",
    "pas(pc4)1[forwarded]",
    "pas(dir+add4)3[ordered]",
    "cunion(pid+add4)2[forwarded]",
)


def _probe_trace(num_nodes: int, num_events: int, seed: str) -> SharingTrace:
    """A deterministic structured trace (valid epochs, mixed sharing)."""
    rng = DeterministicRng(seed)
    num_blocks = max(4, num_events // 12)
    epochs = []
    for _ in range(num_events):
        writer = rng.integers(0, num_nodes)
        pc = rng.integers(1, 8)
        block = rng.integers(0, num_blocks)
        home = block % num_nodes
        truth = 0
        for node in range(num_nodes):
            if node != writer and rng.random() < 0.2:
                truth |= 1 << node
        epochs.append((writer, pc, home, block, truth))
    return SharingTrace.from_epochs(num_nodes, epochs, name=f"kernel-probe-{seed}")


@lru_cache(maxsize=None)
def probe_traces() -> Tuple[SharingTrace, ...]:
    """The fixed probe traces: a paper-width machine and a packed-wide one."""
    return (
        _probe_trace(num_nodes=16, num_events=240, seed="kernel-probe-16"),
        _probe_trace(num_nodes=80, num_events=64, seed="kernel-probe-80"),
    )


#: the small chunk size the self-check also feeds the battery in, so a
#: backend that resumes wrongly between chunks fails its gate
PROBE_CHUNK_EVENTS = 16


def _probe_predictions(backend, scheme: Scheme, trace: SharingTrace, chunk_events: int):
    """``backend``'s raw predictions for ``scheme``, fed ``chunk_events`` at a time."""
    stream = backend.stream(scheme, trace.num_nodes, trace.layout)
    keys = compute_keys(scheme.index, trace)
    values: List[int] = []
    for chunk in ResidentTraceSource(trace, chunk_events).chunks():
        predictions = stream.feed(chunk, keys[chunk.start : chunk.end])
        values.extend(trace.layout.to_int_list(predictions))
    return values


def kernel_probe_fingerprint(backend) -> str:
    """A 16-hex-digit digest of ``backend``'s probe prediction streams.

    Hashes the raw per-event prediction bitmaps of every probe scheme over
    every probe trace, each fed whole (schemes the backend declines run on
    the Python oracle, exactly as :func:`kernel_stream` would route them).
    Two backends agree on the fingerprint iff they agree bit for bit on the
    battery; the Python oracle's value is pinned in
    ``tests/golden/test_golden.py``.
    """
    python = _REGISTRY["python"]
    digest = hashlib.sha256()
    for trace in probe_traces():
        for scheme_text in PROBE_SCHEMES:
            scheme = parse_scheme(scheme_text)
            chosen = backend if backend.supports(scheme) else python
            values = _probe_predictions(chosen, scheme, trace, max(1, len(trace)))
            stream = ",".join(str(v) for v in values)
            record = f"{trace.name}|{scheme_text}|{stream}\n"
            digest.update(record.encode("ascii"))
    return digest.hexdigest()[:16]


def kernel_selfcheck(backend) -> bool:
    """Does ``backend`` reproduce the Python oracle's probe battery exactly?

    Every probe scheme the backend supports is fed each probe trace twice,
    whole and in :data:`PROBE_CHUNK_EVENTS`-event chunks, and both
    prediction streams must equal the oracle's whole-trace stream (declined
    schemes run on the oracle itself, so they cannot differ).  This is the
    gate :meth:`NativeKernelBackend.available` runs before a compiled
    engine is allowed to serve evaluations.
    """
    python = _REGISTRY["python"]
    for trace in probe_traces():
        for scheme_text in PROBE_SCHEMES:
            scheme = parse_scheme(scheme_text)
            if not backend.supports(scheme):
                continue
            want = _probe_predictions(python, scheme, trace, max(1, len(trace)))
            for chunk_events in (max(1, len(trace)), PROBE_CHUNK_EVENTS):
                if _probe_predictions(backend, scheme, trace, chunk_events) != want:
                    return False
    return True


# ----------------------------------------------------------------------
# Default registrations
# ----------------------------------------------------------------------

register_kernel_backend(PythonKernelBackend())

from repro.core.kernel_native import NativeKernelBackend  # noqa: E402

register_kernel_backend(NativeKernelBackend())
