"""Kernel-backend conformance: every registered backend vs. the Python oracle.

The registry contract (:mod:`repro.core.kernel_backends`) says the
pure-Python :class:`PredictorKernel` backend is normative and every other
backend's resumable stream must reproduce its prediction streams bit for
bit at any chunking -- or decline the scheme via ``supports`` and let the
registry fall through.  This suite is the enforcement mechanism: it
parametrizes over :func:`kernel_backend_names`, so a future backend is
covered by registration alone, with no edits here.

Coverage axes:

* every registered backend (unavailable ones skip, matching the degraded
  environments they'd degrade in);
* chunk sizes 1, 7 and whole-trace, against the oracle fed whole --
  including a FORWARDED epoch that opens in one chunk and closes several
  chunks later, and keys first seen in the last chunk;
* all three update modes and every function family (bitmap, PAs, and the
  confidence-gated sequential schemes native backends decline);
* bitmap widths 8 / 16 / 32 / 64 (scalar-word layouts and both word-size
  boundaries) and 256 / 1024 (packed multi-word layouts);
* arbitrary Hypothesis-generated traces and schemes on top of the
  structured deterministic ones.

Registry *behavior* (resolution precedence, degradation, telemetry
attribution) is tested at the bottom; pure kernel-loop edge semantics live
in ``tests/core/test_kernel.py``.
"""

from __future__ import annotations

import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.kernel_backends as kb
from repro.core.indexing import IndexSpec
from repro.core.kernel_backends import (
    PROBE_SCHEMES,
    get_kernel_backend,
    kernel_backend_names,
    kernel_probe_fingerprint,
    kernel_stream,
    register_kernel_backend,
    resolve_kernel_backend,
    set_kernel_backend,
)
from repro.core.schemes import Scheme, parse_scheme
from repro.core.update import UpdateMode
from repro.core.vectorized import compute_keys
from repro.engine.backends import VectorizedEngine
from repro.telemetry import Telemetry, set_telemetry
from repro.trace.events import SharingTrace
from repro.trace.interchange import FileTraceSource, write_source
from repro.trace.source import CHUNK_FIELDS, ResidentTraceSource, TraceChunk
from tests.conftest import make_random_trace

#: the scalar-word layouts, both word-size boundaries, and two packed widths
WIDTHS = (8, 16, 32, 64, 256, 1024)

#: events per width -- wide machines pay per-node Python cost in the oracle,
#: so the packed widths run shorter traces (still multiple epochs per block)
_EVENTS = {8: 240, 16: 240, 32: 160, 64: 120, 256: 48, 1024: 16}

#: every function family x every update mode, with mixed index specs
CONFORMANCE_SCHEMES = (
    "last()1[direct]",
    "last(dir+add4)1[ordered]",
    "union(pid+add4)3[forwarded]",
    "union(pc4)2[ordered]",
    "inter(add5)2[direct]",
    "inter(pid+pc4)3[forwarded]",
    "overlap(dir+add4)1[direct]",
    "overlap(pc3)1[ordered]",
    "pas(pid+add4)2[direct]",
    "pas(pc4)1[forwarded]",
    "pas(add4)2[ordered]",
    "cunion(pid+add4)2[direct]",
    "cinter(pc4)2[forwarded]",
)


#: chunk sizes every backend's stream is fed at (``None``: whole trace)
CHUNK_SIZES = (1, 7, None)


def stream_predictions(backend, scheme, trace, chunk_events=None):
    """``backend``'s raw predictions over ``trace`` as ints, fed in chunks."""
    stream = backend.stream(scheme, trace.num_nodes, trace.layout)
    values = []
    source = ResidentTraceSource(trace, chunk_events or max(1, len(trace)))
    for chunk in source.chunks():
        keys = compute_keys(scheme.index, chunk)
        values.extend(trace.layout.to_int_list(stream.feed(chunk, keys)))
    return values


def assert_backend_conforms(
    backend, trace, scheme_texts=CONFORMANCE_SCHEMES, chunk_sizes=CHUNK_SIZES
):
    """Assert ``backend`` reproduces the oracle on every scheme over ``trace``.

    Mirrors the routed path exactly: schemes the backend declines run on
    the Python oracle (a trivially passing comparison, which is the point
    -- declining is a *correct* outcome, silently wrong results are not).
    Each chunking of the backend's stream must equal the oracle fed the
    whole trace.
    """
    oracle = get_kernel_backend("python")
    for text in scheme_texts:
        scheme = parse_scheme(text)
        chosen = backend if backend.supports(scheme) else oracle
        want = stream_predictions(oracle, scheme, trace)
        for chunk_events in chunk_sizes:
            got = stream_predictions(chosen, scheme, trace, chunk_events)
            assert got == want, (
                f"backend {backend.name!r} diverged from the python oracle on "
                f"{text} over {trace.name} ({trace.num_nodes} nodes, chunks of "
                f"{chunk_events or 'the whole trace'}): first mismatch at event "
                f"{next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)}"
            )


def _resumption_trace():
    """An 8-node trace built to stress carried state across chunk edges.

    Block 0's first epoch opens at event 0 and closes at event 13, so at
    chunk sizes 1 and 7 the FORWARDED delivery crosses several chunk
    boundaries; the last event brings a pc and a block never seen before,
    so its key first appears in the last chunk.
    """
    epochs = [(1, 1, 0, 0, 0b00000100)]
    for i in range(12):
        writer = 2 + i % 3
        truth = ((1 << ((i + 4) % 8)) | 0b1) & ~(1 << writer)
        epochs.append((writer, 2 + i % 2, 1, 1 + i % 3, truth))
    epochs.append((3, 1, 0, 0, 0b00010001))
    epochs.append((5, 9, 2, 7, 0b00000011))
    return SharingTrace.from_epochs(8, epochs, name="kernel-resumption")


#: schemes the resumption trace runs -- FORWARDED in every family the
#: native loop covers, plus the other modes keyed so the last event's key
#: is new
RESUMPTION_SCHEMES = (
    "pas(pc4)1[forwarded]",
    "pas(add4)2[forwarded]",
    "union(pc4)2[forwarded]",
    "last(add4)1[forwarded]",
    "inter(pid+pc4)2[forwarded]",
    "overlap(add4)1[forwarded]",
    "pas(pc4)2[direct]",
    "union(add4)3[ordered]",
    "cunion(pc4)2[forwarded]",
)


@pytest.fixture(scope="module", params=kernel_backend_names())
def backend(request):
    """Every registered kernel backend; unavailable ones skip.

    Skipping (not failing) mirrors the degraded environments the registry
    is designed for: a machine with no compiler runs the python rows and
    skips the native ones, exactly like the CI ``REPRO_KERNEL=python`` leg.
    """
    instance = get_kernel_backend(request.param)
    if not instance.available():
        pytest.skip(f"kernel backend {request.param!r} unavailable here")
    return instance


class TestBackendConformance:
    @pytest.mark.parametrize("num_nodes", WIDTHS)
    def test_all_widths_all_families_all_modes(self, backend, num_nodes):
        trace = make_random_trace(
            num_nodes=num_nodes,
            num_events=_EVENTS[num_nodes],
            num_blocks=max(6, _EVENTS[num_nodes] // 12),
            seed=f"kernel-conformance-{num_nodes}",
        )
        assert_backend_conforms(backend, trace)

    def test_empty_trace(self, backend):
        trace = make_random_trace(num_nodes=16, num_events=0, seed="conf-empty")
        scheme = parse_scheme("pas(pid+add4)2[direct]")
        chunk = TraceChunk(
            num_nodes=16,
            start=0,
            **{field: getattr(trace, field) for field in CHUNK_FIELDS},
        )
        stream = backend.stream(scheme, trace.num_nodes, trace.layout)
        assert len(stream.feed(chunk, compute_keys(scheme.index, chunk))) == 0

    def test_probe_fingerprint_matches_oracle(self, backend):
        # The same gate available() applies to compiled engines, asserted
        # here for every backend so the probe battery itself is exercised,
        # whole and in the self-check's small chunks.
        assert kernel_probe_fingerprint(backend) == kernel_probe_fingerprint(
            get_kernel_backend("python")
        )
        assert kb.kernel_selfcheck(backend)

    def test_state_carries_across_chunk_boundaries(self, backend):
        assert_backend_conforms(backend, _resumption_trace(), RESUMPTION_SCHEMES)


# ----------------------------------------------------------------------
# Hypothesis: arbitrary traces and schemes, every backend
# ----------------------------------------------------------------------

# writer/pc/home/block/truth tuples on an 8-node machine (idiom shared with
# tests/core/test_vectorized_equivalence.py)
epoch_strategy = st.tuples(
    st.integers(0, 7),
    st.integers(0, 50),
    st.integers(0, 7),
    st.integers(0, 12),
    st.integers(0, 0xFF),
)

index_strategy = st.builds(
    IndexSpec,
    use_pid=st.booleans(),
    pc_bits=st.integers(0, 4),
    use_dir=st.booleans(),
    addr_bits=st.integers(0, 4),
)


@st.composite
def scheme_strategy(draw):
    function = draw(st.sampled_from(["last", "union", "inter", "overlap", "pas"]))
    # last-prediction and overlap-last have depth 1 by definition
    depth = 1 if function in ("last", "overlap") else draw(st.integers(1, 3))
    return Scheme(
        function=function,
        index=draw(index_strategy),
        depth=depth,
        update=draw(st.sampled_from(list(UpdateMode))),
    )


def _trace_from_epochs(epochs):
    cleaned = [
        (writer, pc, home, block, truth & 0xFF & ~(1 << writer))
        for writer, pc, home, block, truth in epochs
    ]
    return SharingTrace.from_epochs(8, cleaned, name="kernel-conformance-hyp")


class TestHypothesisConformance:
    @given(
        epochs=st.lists(epoch_strategy, max_size=40),
        scheme=scheme_strategy(),
        chunk_events=st.sampled_from(CHUNK_SIZES),
    )
    def test_prediction_stream_bit_identical(self, backend, epochs, scheme, chunk_events):
        trace = _trace_from_epochs(epochs)
        chosen = backend if backend.supports(scheme) else (
            get_kernel_backend("python")
        )
        oracle = get_kernel_backend("python")
        assert stream_predictions(chosen, scheme, trace, chunk_events) == (
            stream_predictions(oracle, scheme, trace)
        )


# ----------------------------------------------------------------------
# Registration alone brings a backend under test
# ----------------------------------------------------------------------


class _BitFlippingBackend:
    """A deliberately nonconforming backend: flips node 0 of every event."""

    name = "bitflip-test"

    def available(self):
        return True

    def supports(self, scheme):
        return True

    def stream(self, scheme, num_nodes, layout):
        return _BitFlippingStream(
            get_kernel_backend("python").stream(scheme, num_nodes, layout), layout
        )


class _BitFlippingStream:
    def __init__(self, inner, layout):
        self.inner = inner
        self.layout = layout

    def feed(self, chunk, keys):
        predictions = self.inner.feed(chunk, keys)
        return self.layout.from_int_iter(
            (value ^ 1 for value in self.layout.to_int_list(predictions)),
            count=len(chunk),
        )


@pytest.fixture
def scratch_registration():
    """Register a backend for one test, guaranteed unregistered after."""
    added = []

    def _register(instance):
        added.append(instance.name)
        register_kernel_backend(instance)
        return instance

    try:
        yield _register
    finally:
        for name in added:
            kb._REGISTRY.pop(name, None)
            kb._warned_unavailable.discard(name)


class TestHarnessCatchesNonconformance:
    def test_registered_backend_is_enumerated(self, scratch_registration):
        scratch_registration(_BitFlippingBackend())
        assert "bitflip-test" in kernel_backend_names()

    def test_conformance_harness_flags_bit_divergence(self, scratch_registration):
        backend = scratch_registration(_BitFlippingBackend())
        trace = make_random_trace(num_nodes=8, num_events=60, seed="bitflip")
        with pytest.raises(AssertionError, match="diverged from the python oracle"):
            assert_backend_conforms(backend, trace)

    def test_probe_fingerprint_flags_bit_divergence(self, scratch_registration):
        backend = scratch_registration(_BitFlippingBackend())
        assert not kb.kernel_selfcheck(backend)


# ----------------------------------------------------------------------
# Registry behavior: resolution, degradation, telemetry
# ----------------------------------------------------------------------


class _UnavailableBackend:
    name = "unavailable-test"

    def available(self):
        return False

    def supports(self, scheme):  # pragma: no cover - must never be reached
        raise AssertionError("unavailable backend must not serve evaluations")

    stream = supports


@pytest.fixture
def clean_selection(monkeypatch):
    """No env var, no override -- and both restored afterwards."""
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    previous = set_kernel_backend(None)
    try:
        yield monkeypatch
    finally:
        set_kernel_backend(previous)


class TestRegistryResolution:
    def test_unknown_backend_name_is_an_error(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_kernel_backend("no-such-backend")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_kernel_backend("no-such-backend")

    def test_auto_prefers_native_when_available(self, clean_selection):
        resolved = resolve_kernel_backend()
        native = get_kernel_backend("native")
        assert resolved.name == ("native" if native.available() else "python")

    def test_env_var_beats_auto(self, clean_selection):
        clean_selection.setenv("REPRO_KERNEL", "python")
        assert resolve_kernel_backend().name == "python"

    def test_override_beats_env_var(self, clean_selection):
        if not get_kernel_backend("native").available():
            pytest.skip("needs a second available backend to distinguish")
        clean_selection.setenv("REPRO_KERNEL", "python")
        previous = set_kernel_backend("native")
        try:
            assert resolve_kernel_backend().name == "native"
            # an explicit choice beats both the override and the env var
            assert resolve_kernel_backend("python").name == "python"
        finally:
            set_kernel_backend(previous)

    def test_set_kernel_backend_returns_previous(self, clean_selection):
        first = set_kernel_backend("python")
        assert first is None
        second = set_kernel_backend(None)
        assert second == "python"

    def test_case_and_whitespace_normalized(self, clean_selection):
        clean_selection.setenv("REPRO_KERNEL", "  PYTHON ")
        assert resolve_kernel_backend().name == "python"

    def test_unavailable_named_backend_degrades_to_python(
        self, clean_selection, scratch_registration, caplog
    ):
        scratch_registration(_UnavailableBackend())
        clean_selection.setenv("REPRO_KERNEL", "unavailable-test")
        with caplog.at_level(logging.WARNING, logger="repro.core.kernel_backends"):
            assert resolve_kernel_backend().name == "python"
            warned = [
                record
                for record in caplog.records
                if "unavailable" in record.getMessage()
            ]
            assert len(warned) == 1
            # second resolution: same degradation, no second warning
            assert resolve_kernel_backend().name == "python"
            warned = [
                record
                for record in caplog.records
                if "unavailable" in record.getMessage()
            ]
            assert len(warned) == 1


class TestRoutedEntryPoints:
    def test_unsupported_scheme_falls_through_to_python(self, clean_selection):
        native = get_kernel_backend("native")
        if not native.available():
            pytest.skip("native kernel backend unavailable here")
        set_kernel_backend("native")
        telemetry = Telemetry()
        previous = set_telemetry(telemetry)
        try:
            # cunion is sequential-family: native declines it, the routed
            # call runs the oracle, and the fallback is counted.
            scheme = parse_scheme("cunion(pid+add4)2[forwarded]")
            assert not native.supports(scheme)
            trace = make_random_trace(num_nodes=8, num_events=80, seed="fallback")
            keys = compute_keys(scheme.index, trace)
            routed = kernel_stream(scheme, trace.num_nodes, trace.layout)
            python = get_kernel_backend("python")
            assert trace.layout.to_int_list(
                routed.feed(trace, keys)
            ) == stream_predictions(python, scheme, trace)
            assert telemetry.counters.get("kernel.fallbacks", 0) == 1
            assert telemetry.counters.get("kernel.backend.python", 0) == 1
        finally:
            set_telemetry(previous)
            set_kernel_backend(None)

    def test_routed_calls_attribute_backend_in_telemetry(self, clean_selection):
        set_kernel_backend("python")
        telemetry = Telemetry()
        previous = set_telemetry(telemetry)
        try:
            scheme = parse_scheme("pas(pid+add4)2[direct]")
            trace = make_random_trace(num_nodes=8, num_events=40, seed="telemetry")
            kernel_stream(scheme, trace.num_nodes, trace.layout)
            kernel_stream(scheme, trace.num_nodes, trace.layout)
            assert telemetry.counters["kernel.backend.python"] == 2
        finally:
            set_telemetry(previous)
            set_kernel_backend(None)

    def test_streamed_pas_batch_runs_natively(self, clean_selection, tmp_path):
        native = get_kernel_backend("native")
        if not native.available():
            pytest.skip("native kernel backend unavailable here")
        trace = make_random_trace(num_nodes=8, num_events=200, seed="streamed-pas")
        path = tmp_path / "pas.rtrace"
        write_source(trace, path, chunk_events=16)
        schemes = [parse_scheme("pas(pid+add4)2[forwarded]"), parse_scheme("pas(pc4)1")]
        set_kernel_backend("native")
        telemetry = Telemetry()
        previous = set_telemetry(telemetry)
        try:
            streamed = VectorizedEngine().evaluate_batch(schemes, [FileTraceSource(path)])
        finally:
            set_telemetry(previous)
            set_kernel_backend(None)
        assert telemetry.counters["kernel.backend.native"] >= len(schemes)
        assert "kernel.backend.python" not in telemetry.counters
        assert "kernel.fallbacks" not in telemetry.counters
        assert streamed == VectorizedEngine().evaluate_batch(schemes, [trace])

    def test_probe_schemes_cover_all_modes_and_families(self):
        # Guard the probe battery itself: if it ever shrinks, available()'s
        # self-check gate weakens silently.
        parsed = [parse_scheme(text) for text in PROBE_SCHEMES]
        assert {scheme.update for scheme in parsed} == set(UpdateMode)
        functions = {scheme.function for scheme in parsed}
        assert {"last", "union", "inter", "overlap", "pas"} <= functions
        assert functions & {"cunion", "cinter"}, (
            "the battery must include a scheme native backends decline"
        )
