"""The fast numpy engine is exactly equivalent to the reference evaluator.

These are the load-bearing tests of the repository: every experiment runs
on ``evaluate_scheme_fast``, whose correctness is defined by
``evaluate_scheme``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluator import evaluate_scheme
from repro.core.schemes import Scheme, parse_scheme
from repro.core.update import UpdateMode
from repro.core.vectorized import evaluate_scheme_fast
from repro.core.windowed import evaluate_batch_streamed
from repro.core.indexing import IndexSpec
from repro.trace.events import SharingTrace
from tests.conftest import make_random_trace

ALL_MODES = ["direct", "forwarded", "ordered"]

SCHEME_TEXTS = [
    "last()1",
    "last(pid)1",
    "last(pid+pc8)1",
    "last(dir+add8)1",
    "union(pid+pc4)2",
    "union(dir+add6)4",
    "union(add2)3",
    "inter(pid+pc8)2",
    "inter(pid+add6)4",
    "inter(dir)2",
    "inter(pc2+add4)3",
    "overlap(pid+pc8)1",
    "overlap(add4)1",
    "pas()1",
    "pas(pid)2",
    "pas(pc4+add4)2",
    "pas(pid+dir+add2)4",
]


@pytest.mark.parametrize("text", SCHEME_TEXTS)
@pytest.mark.parametrize("mode", ALL_MODES)
def test_fast_matches_reference_on_random_trace(text, mode):
    trace = make_random_trace(num_events=500, num_blocks=40, seed=f"{text}-{mode}")
    scheme = parse_scheme(f"{text}[{mode}]")
    assert evaluate_scheme_fast(scheme, trace) == evaluate_scheme(scheme, trace)


@pytest.mark.parametrize("mode", ALL_MODES)
def test_fast_matches_reference_unmasked(mode):
    trace = make_random_trace(num_events=300, seed=f"unmasked-{mode}")
    scheme = parse_scheme(f"union(pid+add4)2[{mode}]")
    assert evaluate_scheme_fast(scheme, trace, exclude_writer=False) == evaluate_scheme(
        scheme, trace, exclude_writer=False
    )


def test_fast_empty_trace():
    trace = SharingTrace.from_epochs(8, [], name="empty")
    counts = evaluate_scheme_fast(parse_scheme("last()1"), trace)
    assert counts.total == 0


# ----------------------------------------------------------------------
# Hypothesis: arbitrary structured traces, arbitrary schemes
# ----------------------------------------------------------------------

epoch_strategy = st.tuples(
    st.integers(min_value=0, max_value=7),  # writer
    st.integers(min_value=0, max_value=50),  # pc
    st.integers(min_value=0, max_value=7),  # home
    st.integers(min_value=0, max_value=12),  # block
    st.integers(min_value=0, max_value=0xFF),  # truth (masked below)
)

scheme_strategy = st.builds(
    Scheme,
    function=st.sampled_from(["last", "union", "inter", "overlap", "pas"]),
    index=st.builds(
        IndexSpec,
        use_pid=st.booleans(),
        pc_bits=st.integers(min_value=0, max_value=6),
        use_dir=st.booleans(),
        addr_bits=st.integers(min_value=0, max_value=6),
    ),
    depth=st.just(1),
    update=st.sampled_from(list(UpdateMode)),
)


def _with_depth(scheme: Scheme, depth: int) -> Scheme:
    if scheme.function in ("last", "overlap"):
        return scheme
    return Scheme(
        function=scheme.function, index=scheme.index, depth=depth, update=scheme.update
    )


@settings(max_examples=120, deadline=None)
@given(
    epochs=st.lists(epoch_strategy, max_size=120),
    scheme=scheme_strategy,
    depth=st.integers(min_value=1, max_value=4),
)
def test_fast_matches_reference_property(epochs, scheme, depth):
    cleaned = [
        (writer, pc, home, block, truth & 0xFF & ~(1 << writer))
        for writer, pc, home, block, truth in epochs
    ]
    trace = SharingTrace.from_epochs(8, cleaned, name="prop")
    scheme = _with_depth(scheme, depth)
    assert evaluate_scheme_fast(scheme, trace) == evaluate_scheme(scheme, trace)


@settings(max_examples=80, deadline=None)
@given(
    epochs=st.lists(epoch_strategy, max_size=80),
    scheme=scheme_strategy,
    depth=st.integers(min_value=1, max_value=4),
    chunk_events=st.sampled_from([1, 3, 7]),
)
def test_chunked_stream_matches_reference_property(epochs, scheme, depth, chunk_events):
    # a resident trace is one chunk; any other chunking must carry bitmap
    # histories, FORWARDED deliveries and kernel state across chunk edges
    cleaned = [
        (writer, pc, home, block, truth & 0xFF & ~(1 << writer))
        for writer, pc, home, block, truth in epochs
    ]
    trace = SharingTrace.from_epochs(8, cleaned, name="prop-chunked")
    scheme = _with_depth(scheme, depth)
    (streamed,) = evaluate_batch_streamed([scheme], trace, chunk_events=chunk_events)
    assert streamed == evaluate_scheme(scheme, trace)


# ----------------------------------------------------------------------
# The paper's equivalence: direct == forwarded == ordered for pure
# dir/addr indexing (Section 3.4).
#
# The equivalence requires the entry <-> block mapping to be injective:
# once addr truncation aliases two concurrently-live blocks into one
# entry, ordered update can see a still-open epoch's truth that direct
# update never receives.  Blocks here are 0..12, so addr_bits >= 4 keeps
# the mapping alias-free, which is the setting the paper's claim assumes
# (it states the equivalence for untruncated dir/addr indexing).
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    epochs=st.lists(epoch_strategy, max_size=120),
    function=st.sampled_from(["last", "union", "inter", "pas"]),
    depth=st.integers(min_value=1, max_value=3),
    use_dir=st.booleans(),
    addr_bits=st.integers(min_value=4, max_value=8),
)
def test_update_modes_equivalent_for_pure_address_indexing(
    epochs, function, depth, use_dir, addr_bits
):
    # A block's home directory is a fixed property, so derive it from the
    # block (the free-form `home` column would let one block change homes,
    # which no real machine produces).
    cleaned = [
        (writer, pc, block % 8, block, truth & 0xFF & ~(1 << writer))
        for writer, pc, home, block, truth in epochs
    ]
    trace = SharingTrace.from_epochs(8, cleaned, name="equiv")
    if function == "last":
        depth = 1
    index = IndexSpec(use_dir=use_dir, addr_bits=addr_bits)
    results = [
        evaluate_scheme(
            Scheme(function=function, index=index, depth=depth, update=mode), trace
        )
        for mode in UpdateMode
    ]
    assert results[0] == results[1] == results[2]


def test_update_modes_differ_for_instruction_indexing():
    """Sanity: the equivalence is specific to address indexing."""
    trace = make_random_trace(num_events=600, num_blocks=10, seed="modes-differ")
    results = {
        mode: evaluate_scheme(parse_scheme(f"last(pid+pc8)1[{mode}]"), trace)
        for mode in ALL_MODES
    }
    assert len({str(counts) for counts in results.values()}) > 1
