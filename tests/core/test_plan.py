"""The sweep planner: grouping, shared passes, and bit-identicality.

The planner's load-bearing promises, each pinned here:

* grouping is deterministic bookkeeping -- same schemes in, same plan out,
  results always in caller order;
* bitmap schemes share one pass per (index group, mode, trace), which is
  observable from the ``plan.trace_passes`` counter;
* shared bitmap passes change wall-clock only: :func:`evaluate_plan` is
  bit-identical to per-scheme :func:`evaluate_scheme_fast` across every
  function family and update mode.
"""

import pytest

from repro.core.indexing import IndexSpec
from repro.core.plan import (
    FAMILY_BITMAP,
    FAMILY_PAS,
    FAMILY_SEQUENTIAL,
    SweepPlan,
    evaluate_plan,
    scheme_family,
)
from repro.core.schemes import parse_scheme
from repro.core.vectorized import evaluate_scheme_fast
from repro.telemetry import Telemetry, set_telemetry
from tests.conftest import make_random_trace

#: every function family and every update mode, spread over three specs
ALL_FAMILY_SCHEMES = [
    "last(pid+pc4)1[direct]",
    "union(pid+pc4)4[ordered]",
    "inter(pid+pc4)2[direct]",
    "overlap(pid+pc4)1[forwarded]",
    "pas(pid+pc4)2[direct]",
    "cunion(pid+pc4)2[direct]",
    "last(add6)1[direct]",
    "union(add6)3[forwarded]",
    "cinter(add6)2[forwarded]",
    "inter(dir)2[ordered]",
]


@pytest.fixture(scope="module")
def traces():
    return [
        make_random_trace(num_nodes=8, num_events=160, num_blocks=12, seed="plan-a"),
        make_random_trace(num_nodes=8, num_events=110, num_blocks=9, seed="plan-b"),
    ]


@pytest.fixture()
def sink():
    telemetry = Telemetry()
    previous = set_telemetry(telemetry)
    yield telemetry
    set_telemetry(previous)


class TestSchemeFamily:
    @pytest.mark.parametrize(
        "text,family",
        [
            ("last()1", FAMILY_BITMAP),
            ("union(add4)2", FAMILY_BITMAP),
            ("inter(pc4)2", FAMILY_BITMAP),
            ("overlap(pid)1", FAMILY_BITMAP),
            ("pas(pid+pc2)2", FAMILY_PAS),
            ("cunion(add4)2", FAMILY_SEQUENTIAL),
            ("cinter(add4)2", FAMILY_SEQUENTIAL),
        ],
    )
    def test_families(self, text, family):
        assert scheme_family(parse_scheme(text)) == family


class TestSweepPlanGrouping:
    def test_groups_by_spec_in_first_appearance_order(self):
        schemes = [parse_scheme(text) for text in ALL_FAMILY_SCHEMES]
        plan = SweepPlan(schemes)
        assert plan.num_schemes == len(schemes)
        assert plan.num_groups == 3
        assert [group.spec for group in plan.groups] == [
            IndexSpec(use_pid=True, pc_bits=4),
            IndexSpec(addr_bits=6),
            IndexSpec(use_dir=True),
        ]

    def test_truncation_is_part_of_the_spec(self):
        # pc4 and pc8 read different key streams; they must not share a group
        plan = SweepPlan(
            [parse_scheme("last(pc4)1"), parse_scheme("last(pc8)1")]
        )
        assert plan.num_groups == 2

    def test_batches_split_by_family_within_a_group(self):
        schemes = [
            parse_scheme(text)
            for text in [
                "last(add6)1",
                "pas(add6)2",
                "union(add6)2",
                "cunion(add6)2",
            ]
        ]
        plan = SweepPlan(schemes)
        assert plan.num_groups == 1
        (group,) = plan.groups
        families = [batch.family for batch in group.batches]
        assert sorted(families) == [FAMILY_BITMAP, FAMILY_PAS, FAMILY_SEQUENTIAL]
        # the two bitmap schemes share one batch
        by_family = {batch.family: batch for batch in group.batches}
        assert len(by_family[FAMILY_BITMAP]) == 2
        assert len(group) == 4

    def test_order_is_a_permutation_of_caller_positions(self):
        schemes = [parse_scheme(text) for text in ALL_FAMILY_SCHEMES]
        plan = SweepPlan(schemes)
        assert sorted(plan.order()) == list(range(len(schemes)))

    def test_batch_boundaries_cover_the_plan(self):
        schemes = [parse_scheme(text) for text in ALL_FAMILY_SCHEMES]
        plan = SweepPlan(schemes)
        boundaries = plan.batch_boundaries()
        assert boundaries == sorted(boundaries)
        assert boundaries[-1] == plan.num_schemes

    def test_same_schemes_same_plan(self):
        schemes = [parse_scheme(text) for text in ALL_FAMILY_SCHEMES]
        assert SweepPlan(schemes).order() == SweepPlan(schemes).order()
        assert (
            SweepPlan(schemes).batch_boundaries()
            == SweepPlan(schemes).batch_boundaries()
        )

    def test_record_telemetry_surfaces_shape(self, sink):
        schemes = [parse_scheme(text) for text in ALL_FAMILY_SCHEMES]
        plan = SweepPlan(schemes)
        plan.record_telemetry(sink)
        assert sink.counters["plan.schemes"] == len(schemes)
        assert sink.counters["plan.index_groups"] == 3
        assert sink.gauges["plan.group_size"] == max(
            len(group) for group in plan.groups
        )


class TestKeySharing:
    def test_exactly_one_key_computation_per_trace_and_group(self, traces, monkeypatch):
        """Every family of an index group reads one key stream per trace
        (a resident trace is one chunk)."""
        import repro.core.windowed as windowed

        calls = []
        original = windowed.compute_keys

        def counting(spec, chunk):
            calls.append(spec)
            return original(spec, chunk)

        monkeypatch.setattr(windowed, "compute_keys", counting)
        plan = SweepPlan([parse_scheme(text) for text in ALL_FAMILY_SCHEMES])
        evaluate_plan(plan, traces)
        assert len(calls) == len(traces) * plan.num_groups
        assert set(calls) == {group.spec for group in plan.groups}


class TestEvaluatePlanBitIdentical:
    @pytest.mark.parametrize("exclude_writer", [True, False], ids=["excl", "incl"])
    def test_matches_per_scheme_evaluation(self, traces, exclude_writer):
        schemes = [parse_scheme(text) for text in ALL_FAMILY_SCHEMES]
        planned = evaluate_plan(
            SweepPlan(schemes), traces, exclude_writer=exclude_writer
        )
        for scheme, per_trace in zip(schemes, planned):
            expected = [
                evaluate_scheme_fast(scheme, trace, exclude_writer=exclude_writer)
                for trace in traces
            ]
            assert per_trace == expected, scheme.full_name

    def test_results_in_caller_order_regardless_of_grouping(self, traces):
        # interleave specs so plan order differs from caller order
        texts = [
            "last(add6)1",
            "last(pid)1",
            "union(add6)2",
            "union(pid)2",
            "inter(add6)2",
        ]
        schemes = [parse_scheme(text) for text in texts]
        plan = SweepPlan(schemes)
        assert plan.order() != list(range(len(schemes)))
        planned = evaluate_plan(plan, traces)
        for scheme, per_trace in zip(schemes, planned):
            assert per_trace == [
                evaluate_scheme_fast(scheme, trace) for trace in traces
            ]

    def test_on_result_fires_once_per_scheme_with_final_counts(self, traces):
        schemes = [parse_scheme(text) for text in ALL_FAMILY_SCHEMES]
        seen = {}
        results = evaluate_plan(
            SweepPlan(schemes),
            traces,
            on_result=lambda i, counts: seen.setdefault(i, counts),
        )
        assert sorted(seen) == list(range(len(schemes)))
        for position, counts in seen.items():
            assert counts == results[position]

    def test_empty_plan(self, traces):
        assert evaluate_plan(SweepPlan([]), traces) == []


class TestSharedPasses:
    def test_one_bitmap_pass_per_mode_per_trace(self, traces, sink):
        # four bitmap schemes on one spec in two modes: the whole batch
        # costs one feedback pass per (mode, trace), not one per scheme
        schemes = [
            parse_scheme(text)
            for text in [
                "last(add6)1[direct]",
                "union(add6)4[direct]",
                "inter(add6)2[direct]",
                "union(add6)2[forwarded]",
            ]
        ]
        evaluate_plan(SweepPlan(schemes), traces)
        assert sink.counters["plan.trace_passes"] == 2 * len(traces)

    def test_pas_and_sequential_pass_per_scheme(self, traces, sink):
        schemes = [
            parse_scheme(text)
            for text in ["pas(add6)2[direct]", "cunion(add6)2[direct]"]
        ]
        evaluate_plan(SweepPlan(schemes), traces)
        assert sink.counters["plan.trace_passes"] == len(schemes) * len(traces)

    def test_shared_window_gather_is_exact_for_mixed_depths(self, traces):
        # the union(add6)4 member forces the shared gather window to 4;
        # the depth-1 and depth-2 members must still reduce over exactly
        # their own prefix -- compare against isolated evaluation
        schemes = [
            parse_scheme(text)
            for text in [
                "last(add6)1[direct]",
                "union(add6)2[direct]",
                "union(add6)4[direct]",
                "overlap(add6)1[direct]",
            ]
        ]
        planned = evaluate_plan(SweepPlan(schemes), traces)
        for scheme, per_trace in zip(schemes, planned):
            assert per_trace == [
                evaluate_scheme_fast(scheme, trace) for trace in traces
            ], scheme.full_name
