"""Deprecation lifecycle: completed cycles are hard errors, live ones warn.

The positional ``exclude_writer`` shim in ``engine/base.py`` and the
monolith import shim in ``harness/experiments/__init__.py`` each had their
one warning release; this file pins the removal (``TypeError`` /
``AttributeError``), as does the ``mem8`` index-field spelling, the
zero-hop ``traffic_report`` helper, and the
``repro.api.simulate_forwarding(topology=, model=)`` arguments, whose
warning releases are complete (``ValueError`` / ``ImportError`` /
``TypeError``).
"""

import warnings

import pytest

from repro.core.indexing import IndexSpec
from repro.core.schemes import parse_scheme
from repro.engine.backends import VectorizedEngine
from tests.conftest import make_random_trace


@pytest.fixture(scope="module")
def trace():
    return make_random_trace(num_nodes=8, num_events=120, num_blocks=10, seed="dep")


class TestMonolithShimRemoved:
    @pytest.mark.parametrize(
        "name",
        [
            "_scheme_row",
            "_sweep_rows",
            "_top10",
            "_combo_spec",
            "_figure_sweep",
            "_ALL_MODES",
        ],
    )
    def test_legacy_private_name_is_gone(self, name):
        import repro.harness.experiments as experiments

        with pytest.raises(AttributeError, match=name):
            getattr(experiments, name)

    def test_scheme_row_alias_removed_from_base_too(self):
        # the monolith's _scheme_row alias was a real function in base; the
        # canonical scheme_row(stats) spelling is the only survivor
        import repro.harness.experiments.base as base

        assert not hasattr(base, "_scheme_row")
        assert callable(base.scheme_row)

    def test_public_surface_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.harness.experiments import (  # noqa: F401
                EXPERIMENTS,
                batch_scheme_stats,
                run_experiment,
                suite_average,
            )


class TestPositionalExcludeWriterRemoved:
    def test_evaluate_positional_is_a_type_error(self, trace):
        engine = VectorizedEngine()
        with pytest.raises(TypeError):
            engine.evaluate(parse_scheme("last(pid)1"), trace, False)

    def test_evaluate_suite_positional_is_a_type_error(self, trace):
        engine = VectorizedEngine()
        with pytest.raises(TypeError):
            engine.evaluate_suite(parse_scheme("last()1"), [trace], True)

    def test_evaluate_batch_positional_is_a_type_error(self, trace):
        engine = VectorizedEngine()
        schemes = [parse_scheme("last()1"), parse_scheme("union(add4)2")]
        with pytest.raises(TypeError):
            engine.evaluate_batch(schemes, [trace], False)

    def test_keyword_calls_warn_nothing(self, trace):
        engine = VectorizedEngine()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine.evaluate(parse_scheme("last()1"), trace, exclude_writer=False)


class TestMem8SpellingRemoved:
    def test_mem_field_is_a_value_error(self):
        with pytest.raises(ValueError, match="mem8"):
            IndexSpec.parse("pid+mem8")

    def test_mem_scheme_text_is_a_value_error(self):
        with pytest.raises(ValueError, match="mem6"):
            parse_scheme("union(mem6)2")

    def test_add_spelling_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            IndexSpec.parse("pid+add8")


class TestTrafficReportRemoved:
    def test_zero_hop_helper_is_gone(self):
        import repro.metrics.traffic as traffic

        assert not hasattr(traffic, "traffic_report")
        with pytest.raises(ImportError):
            from repro.metrics.traffic import traffic_report  # noqa: F401

    def test_simulator_surface_survives(self):
        from repro.metrics.traffic import (  # noqa: F401
            TrafficModel,
            TrafficReport,
            breakeven_pvp,
            merge_reports,
        )


class TestSimulateForwardingKwargsRemoved:
    @pytest.mark.parametrize("kwarg", ["topology", "model"])
    def test_topology_and_model_are_a_type_error(self, trace, kwarg):
        import repro.api as api

        value = "ring" if kwarg == "topology" else api.TrafficModel()
        with pytest.raises(TypeError, match=kwarg):
            api.simulate_forwarding("last()1", trace, **{kwarg: value})

    def test_config_spelling_warns_nothing(self, trace):
        import repro.api as api

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = api.simulate_forwarding(
                "last()1", trace, config=api.ForwardingConfig(topology="ring")
            )
        assert report.topology == "ring"
