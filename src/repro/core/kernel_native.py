"""Compiled per-event predictor loop: the ``native`` kernel backend.

The design-space sweeps of paper Section 5.4 evaluate thousands of schemes
per trace.  Bitmap-history schemes share vectorized passes
(:mod:`repro.core.windowed`), but the PAs family carries counter state
that depends on the full feedback sequence, so it needs the per-event loop
-- :class:`~repro.core.kernel.PredictorKernel` driving entry ops one event
at a time.  This module compiles that loop: the embedded C source below is
built once with the system C compiler into a cached shared library and
driven via ``ctypes``.

The compiled loop never sees Python objects.  A
:class:`NativeKernelStream` maps predictor keys and block ids to dense
entry indices that stay stable across chunks (:class:`DenseIds`), bitmaps
travel as bit-packed 64-bit word rows in the trace's
:class:`~repro.util.bitmaps.BitmapLayout` sense, and entry state is flat
arrays in a :class:`NativeState` that grows as new keys appear: a ring
buffer of feedback words per entry for the bitmap-history family,
per-(entry, node) history registers and 2-bit saturating counters for PAs,
and the FORWARDED ``pending`` array naming each open epoch's predicting
entry.  Because all of that lives on the stream, the unchanged C loop
resumes exactly where the previous chunk stopped.  Scoring is not done
here: every family is scored by the one normative
:func:`~repro.core.kernel_backends.score_predictions`.

Semantics are *defined elsewhere*: the pure-Python
:class:`~repro.core.kernel.PredictorKernel` remains the normative oracle,
and this backend refuses to activate until it reproduces the oracle's
prediction stream bit for bit on the probe battery, fed both whole and in
small chunks (:func:`repro.core.kernel_backends.kernel_selfcheck`) -- a
build that fails the self-check leaves the pure-Python backend serving.
The full proof is the kernel conformance suite
(``tests/core/test_kernel_conformance.py``).

Build artifacts land in ``REPRO_KERNEL_CACHE`` (default: a per-user
directory under the system temp dir), keyed by a hash of the C source, so
one compile serves every process -- including the parallel engine's
workers -- and editing the kernel source can never load a stale library.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.schemes import Scheme
from repro.core.update import UpdateMode
from repro.util.bitmaps import BitmapLayout

logger = logging.getLogger("repro.core.kernel_native")

#: update-mode codes of the C loop
_MODE_CODES = {UpdateMode.DIRECT: 0, UpdateMode.FORWARDED: 1, UpdateMode.ORDERED: 2}

#: prediction-function codes of the C loop
_FUNC_CODES = {"last": 0, "union": 1, "inter": 2, "overlap": 3, "pas": 4}

#: widest bitmap-history ring the native state layout supports (uint8 ring
#: cursors); deeper schemes fall back to the pure-Python kernel
MAX_NATIVE_WINDOW = 255

#: deepest PAs history the native layout supports (counters are indexed by
#: ``node << depth | history``; 2**12 counters/node is already far past the
#: paper's design space)
MAX_NATIVE_PAS_DEPTH = 12

C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define MODE_DIRECT 0
#define MODE_FORWARDED 1
#define MODE_ORDERED 2

#define FUNC_LAST 0
#define FUNC_UNION 1
#define FUNC_INTER 2
#define FUNC_OVERLAP 3
#define FUNC_PAS 4

/* ---- bitmap-history family: ring buffer of feedback word-rows ---- */

static void bitmap_update(uint64_t *hist, uint8_t *ring_len, uint8_t *ring_pos,
                          int64_t entry, int32_t window, int64_t n_words,
                          const uint64_t *feedback)
{
    uint64_t *slot = hist + ((int64_t)entry * window + ring_pos[entry]) * n_words;
    memcpy(slot, feedback, (size_t)n_words * sizeof(uint64_t));
    ring_pos[entry] = (uint8_t)((ring_pos[entry] + 1) % window);
    if (ring_len[entry] < window)
        ring_len[entry] += 1;
}

static void bitmap_predict(const uint64_t *hist, const uint8_t *ring_len,
                           const uint8_t *ring_pos, int64_t entry,
                           int32_t function, int32_t window, int64_t n_words,
                           uint64_t *out)
{
    const uint64_t *base = hist + (int64_t)entry * window * n_words;
    int32_t len = ring_len[entry];
    int64_t w;
    int32_t slot;

    if (function == FUNC_OVERLAP) {
        /* window == 2: predict the newest bitmap only when it overlaps the
           one before it; with a single bitmap stored, predict it. */
        int32_t newest, prev;
        uint64_t overlap = 0;
        if (len == 0) {
            memset(out, 0, (size_t)n_words * sizeof(uint64_t));
            return;
        }
        newest = (ring_pos[entry] + window - 1) % window;
        if (len == 1) {
            memcpy(out, base + (int64_t)newest * n_words,
                   (size_t)n_words * sizeof(uint64_t));
            return;
        }
        prev = (ring_pos[entry] + window - 2) % window;
        for (w = 0; w < n_words; w++)
            overlap |= base[(int64_t)newest * n_words + w]
                     & base[(int64_t)prev * n_words + w];
        if (overlap)
            memcpy(out, base + (int64_t)newest * n_words,
                   (size_t)n_words * sizeof(uint64_t));
        else
            memset(out, 0, (size_t)n_words * sizeof(uint64_t));
        return;
    }

    if (function == FUNC_INTER) {
        if (len == 0) {
            memset(out, 0, (size_t)n_words * sizeof(uint64_t));
            return;
        }
        /* filled slots are always 0..len-1 (writes are sequential until the
           ring wraps, at which point every slot is live) */
        memcpy(out, base, (size_t)n_words * sizeof(uint64_t));
        for (slot = 1; slot < len; slot++)
            for (w = 0; w < n_words; w++)
                out[w] &= base[(int64_t)slot * n_words + w];
        return;
    }

    /* FUNC_LAST / FUNC_UNION: the OR of every stored bitmap (last is
       union at window 1) */
    memset(out, 0, (size_t)n_words * sizeof(uint64_t));
    for (slot = 0; slot < len; slot++)
        for (w = 0; w < n_words; w++)
            out[w] |= base[(int64_t)slot * n_words + w];
}

/* ---- PAs family: per-(entry, node) two-level adaptive state ---- */

static void pas_update(uint32_t *pas_hist, uint8_t *pas_counters, int64_t entry,
                       int64_t num_nodes, int32_t depth, const uint64_t *feedback)
{
    uint32_t *hist = pas_hist + entry * num_nodes;
    uint8_t *counters = pas_counters + entry * (num_nodes << depth);
    uint32_t mask = (uint32_t)((1u << depth) - 1u);
    int64_t node;
    for (node = 0; node < num_nodes; node++) {
        uint32_t history = hist[node];
        int64_t slot = ((int64_t)node << depth) | history;
        if ((feedback[node >> 6] >> (node & 63)) & 1u) {
            if (counters[slot] < 3)
                counters[slot] += 1;
            hist[node] = ((history << 1) | 1u) & mask;
        } else {
            if (counters[slot] > 0)
                counters[slot] -= 1;
            hist[node] = (history << 1) & mask;
        }
    }
}

static void pas_predict(const uint32_t *pas_hist, const uint8_t *pas_counters,
                        int64_t entry, int64_t num_nodes, int32_t depth,
                        int64_t n_words, uint64_t *out)
{
    const uint32_t *hist = pas_hist + entry * num_nodes;
    const uint8_t *counters = pas_counters + entry * (num_nodes << depth);
    int64_t node;
    memset(out, 0, (size_t)n_words * sizeof(uint64_t));
    for (node = 0; node < num_nodes; node++)
        if (counters[((int64_t)node << depth) | hist[node]] >= 2)
            out[node >> 6] |= 1ull << (node & 63);
}

/* ---- the per-event loop: PredictorKernel.run, compiled ---- */

int repro_kernel_run(int64_t n_events, int64_t n_words, int64_t num_nodes,
                     int32_t mode, int32_t function, int32_t window,
                     int32_t depth,
                     const int32_t *entries, const int32_t *blocks,
                     const uint8_t *has_inval,
                     const uint64_t *inval, const uint64_t *truth,
                     uint64_t *bitmap_hist, uint8_t *ring_len, uint8_t *ring_pos,
                     uint32_t *pas_hist, uint8_t *pas_counters,
                     int32_t *pending, uint64_t *pred)
{
    int64_t i;
    int is_pas = (function == FUNC_PAS);
    for (i = 0; i < n_events; i++) {
        int64_t entry = entries[i];
        if (mode == MODE_DIRECT) {
            if (has_inval[i]) {
                if (is_pas)
                    pas_update(pas_hist, pas_counters, entry, num_nodes, depth,
                               inval + i * n_words);
                else
                    bitmap_update(bitmap_hist, ring_len, ring_pos, entry,
                                  window, n_words, inval + i * n_words);
            }
        } else if (mode == MODE_FORWARDED) {
            int32_t block = blocks[i];
            if (has_inval[i]) {
                /* deliver the closed epoch's truth to the entry that
                   predicted it (the pending key for this block) */
                int32_t predictor = pending[block];
                if (predictor < 0)
                    return 1; /* inconsistent trace: inval with no open epoch */
                if (is_pas)
                    pas_update(pas_hist, pas_counters, predictor, num_nodes,
                               depth, inval + i * n_words);
                else
                    bitmap_update(bitmap_hist, ring_len, ring_pos, predictor,
                                  window, n_words, inval + i * n_words);
            }
            pending[block] = (int32_t)entry;
        }
        if (is_pas)
            pas_predict(pas_hist, pas_counters, entry, num_nodes, depth,
                        n_words, pred + i * n_words);
        else
            bitmap_predict(bitmap_hist, ring_len, ring_pos, entry, function,
                           window, n_words, pred + i * n_words);
        if (mode == MODE_ORDERED) {
            if (is_pas)
                pas_update(pas_hist, pas_counters, entry, num_nodes, depth,
                           truth + i * n_words);
            else
                bitmap_update(bitmap_hist, ring_len, ring_pos, entry, window,
                              n_words, truth + i * n_words);
        }
    }
    return 0;
}
"""

#: compilers tried in order when building the C engine
_COMPILERS = ("cc", "gcc", "clang")


def kernel_cache_dir() -> Path:
    """Where compiled kernel libraries live (override: ``REPRO_KERNEL_CACHE``)."""
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    tag = f"repro-kernel-{os.getuid()}" if hasattr(os, "getuid") else "repro-kernel"
    return Path(tempfile.gettempdir()) / tag


def _source_hash() -> str:
    return hashlib.sha256(C_SOURCE.encode("utf-8")).hexdigest()[:16]


def _compile_library() -> Path:
    """Compile :data:`C_SOURCE` into the cache dir, atomically, once.

    The library file is keyed by the source hash, so a cached build can
    never be stale, and concurrent builders (e.g. spawned workers racing on
    a cold cache) converge via ``os.replace``.
    """
    cache = kernel_cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    library = cache / f"libreprokernel-{_source_hash()}.so"
    if library.exists():
        return library
    source = cache / f"reprokernel-{_source_hash()}.c"
    source.write_text(C_SOURCE, encoding="utf-8")
    last_error: Optional[Exception] = None
    for compiler in _COMPILERS:
        scratch = cache / f".build-{os.getpid()}-{compiler}.so"
        command = [
            compiler, "-O2", "-shared", "-fPIC", "-std=c99",
            "-o", str(scratch), str(source),
        ]
        try:
            subprocess.run(
                command, check=True, capture_output=True, text=True, timeout=120
            )
        except (OSError, subprocess.SubprocessError) as error:
            last_error = error
            continue
        os.replace(scratch, library)
        return library
    raise RuntimeError(f"no working C compiler among {_COMPILERS}: {last_error}")


class _CEngine:
    """ctypes bindings over the compiled library (one instance per process).

    Scalars and array addresses are declared once in ``argtypes``, so a
    call passes plain ints: per-chunk overhead stays small even at tiny
    chunk sizes.
    """

    def __init__(self) -> None:
        self._lib = ctypes.CDLL(str(_compile_library()))
        self._run = self._lib.repro_kernel_run
        self._run.restype = ctypes.c_int
        self._run.argtypes = (
            [ctypes.c_int64] * 3 + [ctypes.c_int32] * 4 + [ctypes.c_void_p] * 12
        )

    def run(
        self,
        mode: int,
        function: int,
        window: int,
        depth: int,
        num_nodes: int,
        n_words: int,
        entries: np.ndarray,
        blocks: np.ndarray,
        has_inval: np.ndarray,
        inval: np.ndarray,
        truth: np.ndarray,
        state: "NativeState",
        pred: np.ndarray,
    ) -> int:
        return self._run(
            len(entries), n_words, num_nodes, mode, function, window, depth,
            entries.ctypes.data,
            blocks.ctypes.data,
            has_inval.ctypes.data,
            inval.ctypes.data,
            truth.ctypes.data,
            state.bitmap_hist.ctypes.data,
            state.ring_len.ctypes.data,
            state.ring_pos.ctypes.data,
            state.pas_hist.ctypes.data,
            state.pas_counters.ctypes.data,
            state.pending.ctypes.data,
            pred.ctypes.data,
        )


class DenseIds:
    """Stable dense ids for int64 values, learned chunk by chunk.

    The compiled loop indexes its flat state arrays by dense entry and
    block ids.  A stream meets its keys chunk by chunk, so the id map
    lives across chunks: a value keeps its id for the stream's life, and
    values new in a chunk take the next free ids.  The map is a sorted
    value array plus the id of each value, so a chunk costs one
    ``searchsorted`` (and one ``np.insert`` when it brings new values).
    """

    __slots__ = ("_values", "_ids")

    def __init__(self) -> None:
        self._values = np.zeros(0, dtype=np.int64)
        self._ids = np.zeros(0, dtype=np.int32)

    def __len__(self) -> int:
        return len(self._values)

    def lookup(self, values: np.ndarray) -> np.ndarray:
        """The id of every value (int32, contiguous), learning new ones."""
        values = np.asarray(values, dtype=np.int64)
        known = self._values
        if not len(known):
            unique, inverse = np.unique(values, return_inverse=True)
            self._values = unique
            self._ids = np.arange(len(unique), dtype=np.int32)
            return np.ascontiguousarray(inverse.reshape(-1), dtype=np.int32)
        positions = np.searchsorted(known, values)
        found = positions < len(known)
        found[found] = known[positions[found]] == values[found]
        if not found.all():
            fresh = np.unique(values[~found])
            slots = np.searchsorted(known, fresh)
            next_ids = np.arange(len(known), len(known) + len(fresh), dtype=np.int32)
            self._values = np.insert(known, slots, fresh)
            self._ids = np.insert(self._ids, slots, next_ids)
            positions = np.searchsorted(self._values, values)
        return self._ids[positions]


class NativeState:
    """Flat predictor state of one stream, allocated numpy-side.

    One instance per (scheme, trace) stream -- predictor tables never carry
    over between traces.  The arrays are entry-major, so :meth:`reserve`
    grows them by appending fresh entries (and fresh FORWARDED ``pending``
    slots) as a stream meets new keys and blocks.  Unused family arrays
    stay zero-length (the C side only dereferences the family it was asked
    to run).
    """

    __slots__ = ("is_pas", "window", "depth", "num_nodes", "n_words",
                 "entries", "blocks", "bitmap_hist", "ring_len", "ring_pos",
                 "pas_hist", "pas_counters", "pending")

    def __init__(
        self, is_pas: bool, window: int, depth: int, num_nodes: int, n_words: int
    ) -> None:
        self.is_pas = is_pas
        self.window = window
        self.depth = depth
        self.num_nodes = num_nodes
        self.n_words = n_words
        self.entries = 0
        self.blocks = 0
        self.bitmap_hist = np.zeros(0, dtype=np.uint64)
        self.ring_len = np.zeros(0, dtype=np.uint8)
        self.ring_pos = np.zeros(0, dtype=np.uint8)
        self.pas_hist = np.zeros(0, dtype=np.uint32)
        self.pas_counters = np.zeros(0, dtype=np.uint8)
        self.pending = np.full(1, -1, dtype=np.int32)

    def reserve(self, entries: int, blocks: int) -> None:
        """Make room for ``entries`` entries and ``blocks`` pending slots.

        Capacity at least doubles on growth, so a long stream reallocates
        O(log n) times; the first reservation is exact.
        """
        if entries > self.entries:
            grow = max(entries, 2 * self.entries) - self.entries
            if self.is_pas:
                self.pas_hist = _grown(self.pas_hist, grow * self.num_nodes, 0)
                # counters start weakly-not-shared (twolevel._COUNTER_INIT)
                self.pas_counters = _grown(
                    self.pas_counters, grow * (self.num_nodes << self.depth), 1
                )
            else:
                self.bitmap_hist = _grown(
                    self.bitmap_hist, grow * self.window * self.n_words, 0
                )
                self.ring_len = _grown(self.ring_len, grow, 0)
                self.ring_pos = _grown(self.ring_pos, grow, 0)
            self.entries += grow
        if blocks > self.blocks:
            grow = max(blocks, 2 * self.blocks) - self.blocks
            tail = self.pending[: self.blocks]
            self.pending = _grown(tail, grow, -1)
            self.blocks += grow


def _grown(array: np.ndarray, extra: int, fill: int) -> np.ndarray:
    """``array`` followed by ``extra`` elements of ``fill``."""
    return np.concatenate([array, np.full(extra, fill, dtype=array.dtype)])


def _to_word_rows(column: np.ndarray, layout: BitmapLayout) -> np.ndarray:
    """A bitmap column as a C-contiguous ``(events, n_words)`` uint64 array."""
    if layout.packed:
        return np.ascontiguousarray(column, dtype=np.uint64)
    return np.ascontiguousarray(
        column.astype(np.uint64, copy=False).reshape(-1, 1)
    )


def _from_word_rows(words: np.ndarray, layout: BitmapLayout) -> np.ndarray:
    """Word rows back into the layout's canonical column representation."""
    if layout.packed:
        return words
    return words.reshape(-1).astype(layout.dtype)


#: stand-in for a column the chosen update mode never reads (the C loop
#: takes every pointer but only dereferences the ones its mode uses)
_UNUSED_IDS = np.zeros(1, dtype=np.int32)
_UNUSED_ROWS = np.zeros((1, 1), dtype=np.uint64)


class NativeKernelStream:
    """One scheme's compiled predictor loop, resumable across chunks.

    Holds the dense key and block id maps and the :class:`NativeState`
    between :meth:`feed` calls, so feeding a trace in any chunking is
    bit-identical to feeding it whole -- the FORWARDED ``pending`` array
    carries each open epoch's predicting entry across chunk boundaries.
    """

    def __init__(self, engine: _CEngine, scheme: Scheme, num_nodes: int,
                 layout: BitmapLayout) -> None:
        self._engine = engine
        self._layout = layout
        self._num_nodes = num_nodes
        self._mode = _MODE_CODES[scheme.update]
        self._forwarded = scheme.update is UpdateMode.FORWARDED
        self._ordered = scheme.update is UpdateMode.ORDERED
        self._function = _FUNC_CODES[scheme.function]
        self._window = _window(scheme)
        self._depth = scheme.depth
        self._keys = DenseIds()
        self._blocks = DenseIds()
        self._state = NativeState(
            is_pas=scheme.function == "pas",
            window=self._window,
            depth=scheme.depth,
            num_nodes=num_nodes,
            n_words=layout.n_words,
        )

    def feed(self, chunk, keys: np.ndarray) -> np.ndarray:
        """Raw (unmasked) predictions for one chunk, in the layout."""
        layout = self._layout
        if len(keys) != len(chunk):
            raise ValueError(f"got {len(keys)} keys for {len(chunk)} events")
        if len(chunk) == 0:
            return layout.zeros(0)
        ordered = self._ordered
        entries = self._keys.lookup(keys)
        blocks = self._blocks.lookup(chunk.block) if self._forwarded else _UNUSED_IDS
        self._state.reserve(len(self._keys), len(self._blocks))
        pred = np.empty((len(chunk), layout.n_words), dtype=np.uint64)
        status = self._engine.run(
            self._mode,
            self._function,
            self._window,
            self._depth,
            self._num_nodes,
            layout.n_words,
            entries,
            blocks,
            np.ascontiguousarray(chunk.has_inval, dtype=np.uint8),
            _UNUSED_ROWS if ordered else _to_word_rows(chunk.inval, layout),
            _to_word_rows(chunk.truth, layout) if ordered else _UNUSED_ROWS,
            self._state,
            pred,
        )
        if status != 0:
            raise ValueError(
                "native kernel: has_inval set on an event whose block has no "
                "open epoch (inconsistent trace)"
            )
        return _from_word_rows(pred, layout)


def _window(scheme: Scheme) -> int:
    """History slots a scheme's ring holds (overlap-last keeps two)."""
    return 2 if scheme.function == "overlap" else scheme.depth


class NativeKernelBackend:
    """The compiled kernel backend (registry name: ``native``).

    Covers the PAs and bitmap-history families at every machine width and
    all three update modes; arbitrary :class:`~repro.core.functions
    .PredictionFunction` objects (the confidence-gated extensions) are
    declined via :meth:`supports`, which the registry resolves as a
    per-scheme fall-through to the pure-Python backend.
    """

    name = "native"

    def __init__(self) -> None:
        self._engine: Optional[_CEngine] = None
        self._checked = False

    def available(self) -> bool:
        """Build the C engine and gate it behind the oracle self-check.

        The result is cached for the process lifetime.
        """
        if self._checked:
            return self._engine is not None
        self._checked = True
        from repro.core.kernel_backends import kernel_selfcheck

        try:
            self._engine = _CEngine()
        except (OSError, RuntimeError) as error:
            logger.warning(
                "C kernel engine unavailable (%s: %s)", type(error).__name__, error
            )
            return False
        try:
            if kernel_selfcheck(self):
                logger.debug("native kernel engine passed self-check")
                return True
            logger.warning("native kernel engine failed the oracle self-check")
        except Exception as error:  # noqa: BLE001 - any engine failure disables it
            logger.warning(
                "native kernel engine raised during self-check (%s: %s)",
                type(error).__name__, error,
            )
        self._engine = None
        return False

    def supports(self, scheme: Scheme) -> bool:
        function = scheme.function
        if function == "pas":
            return scheme.depth <= MAX_NATIVE_PAS_DEPTH
        if function in ("last", "union", "inter", "overlap"):
            return _window(scheme) <= MAX_NATIVE_WINDOW
        return False

    def stream(
        self, scheme: Scheme, num_nodes: int, layout: BitmapLayout
    ) -> NativeKernelStream:
        """A fresh resumable compiled loop for one (scheme, trace)."""
        if self._engine is None and not self.available():
            raise RuntimeError(
                "native kernel backend is unavailable on this machine; "
                "route through repro.core.kernel_backends.kernel_stream, "
                "which falls back to the pure-Python backend"
            )
        return NativeKernelStream(self._engine, scheme, num_nodes, layout)
