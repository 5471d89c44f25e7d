"""End-to-end: workload -> protocol -> trace -> predictor -> metrics."""

import pytest

from repro.core.evaluator import evaluate_scheme
from repro.core.schemes import parse_scheme
from repro.core.vectorized import evaluate_scheme_fast
from repro.harness.runner import generate_trace
from repro.metrics.screening import ScreeningStats
from repro.trace.interchange import load_trace, write_source
from repro.trace.stats import compute_trace_stats, oracle_counts


@pytest.fixture(scope="module")
def ocean_trace():
    trace, _stats = generate_trace(
        "ocean", workload_params={"grid_size": 32, "iterations": 3}
    )
    return trace


@pytest.fixture(scope="module")
def water_trace():
    trace, _stats = generate_trace(
        "water", workload_params={"molecules_per_thread": 8, "steps": 4}
    )
    return trace


class TestFullPipeline:
    def test_trace_is_consistent(self, ocean_trace):
        ocean_trace.check_consistency()

    def test_fast_matches_reference_on_real_workload(self, water_trace):
        for text in (
            "last(pid+pc8)1[direct]",
            "inter(pid+add6)4[forwarded]",
            "union(dir+add8)2[ordered]",
            "pas(pid+pc2)2[direct]",
            "overlap(pid+pc4)1[forwarded]",
        ):
            scheme = parse_scheme(text)
            assert evaluate_scheme_fast(scheme, water_trace) == evaluate_scheme(
                scheme, water_trace
            ), text

    def test_persistence_roundtrip_preserves_evaluation(self, water_trace, tmp_path):
        path = tmp_path / "water.rtrace"
        write_source(water_trace, path)
        reloaded = load_trace(path)
        scheme = parse_scheme("union(pid+add4)2[direct]")
        assert evaluate_scheme_fast(scheme, reloaded) == evaluate_scheme_fast(
            scheme, water_trace
        )

    def test_predictor_between_baseline_and_oracle(self, water_trace):
        """A learned predictor lands between chance and the oracle."""
        oracle = ScreeningStats.from_counts(oracle_counts(water_trace))
        learned = ScreeningStats.from_counts(
            evaluate_scheme_fast(parse_scheme("union(add8)2[ordered]"), water_trace)
        )
        assert oracle.sensitivity == 1.0
        assert 0.0 < learned.sensitivity < 1.0
        assert learned.pvp is not None and learned.pvp > oracle.prevalence

    def test_ordered_at_least_as_informed_as_forwarded(self, water_trace):
        """Ordered update is the information upper bound (paper Section 3.4):
        for stable patterns it should not lose sensitivity."""
        forwarded = ScreeningStats.from_counts(
            evaluate_scheme_fast(parse_scheme("last(pid+pc4)1[forwarded]"), water_trace)
        )
        ordered = ScreeningStats.from_counts(
            evaluate_scheme_fast(parse_scheme("last(pid+pc4)1[ordered]"), water_trace)
        )
        assert ordered.sensitivity >= forwarded.sensitivity - 0.02


class TestCrossWorkloadShapes:
    def test_union_more_sensitive_than_intersection(self, ocean_trace, water_trace):
        """Union >= intersection in sensitivity on every trace (same index)."""
        for trace in (ocean_trace, water_trace):
            union = ScreeningStats.from_counts(
                evaluate_scheme_fast(parse_scheme("union(dir+add8)4[direct]"), trace)
            )
            inter = ScreeningStats.from_counts(
                evaluate_scheme_fast(parse_scheme("inter(dir+add8)4[direct]"), trace)
            )
            assert union.sensitivity >= inter.sensitivity

    def test_intersection_buys_pvp_on_stable_sharing(self, water_trace):
        union = ScreeningStats.from_counts(
            evaluate_scheme_fast(parse_scheme("union(add8)4[direct]"), water_trace)
        )
        inter = ScreeningStats.from_counts(
            evaluate_scheme_fast(parse_scheme("inter(add8)4[direct]"), water_trace)
        )
        assert inter.pvp > union.pvp
