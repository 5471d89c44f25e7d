"""The big-system scenario registry: grids, journaled resume, wide machines.

The acceptance bar for the machine-scaling refactor lives here: a 256-node
(workload x topology x protocol) scenario sweep must run end-to-end on all
three engine backends with bit-identical results, and resuming a partially
journaled run must replay recorded integers instead of recomputing.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import ParallelEngine, ReferenceEngine, VectorizedEngine
from repro.harness.experiments import all_experiments
from repro.harness.experiments.scenarios import (
    BIG_GRID,
    SCENARIO_GRIDS,
    SMOKE_GRID,
    ScenarioGrid,
    run_scenario_grid,
    workload_params_for,
)
from repro.harness.runner import CheckpointPolicy, set_checkpoint_policy
from repro.machine import PAPER_MACHINE, MachineSpec


@pytest.fixture()
def scenario_env(tmp_path, monkeypatch):
    """Isolated trace cache + enabled journaling for one test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "traces"))
    previous = set_checkpoint_policy(
        CheckpointPolicy(enabled=True, resume=False, directory=tmp_path / "ckpt")
    )
    yield tmp_path
    set_checkpoint_policy(previous)


#: one 256-node cell, small enough for CI but exercising the packed layout,
#: a non-trivial topology, and the MESI variant
TINY_256_GRID = ScenarioGrid(
    name="scenarios-test-256",
    title="256-node acceptance cell",
    workloads=("water",),
    node_counts=(256,),
    topologies=("mesh", "hypercube"),
    protocols=("msi", "mesi"),
    seeds=(0, 1),
    schemes=("last()1[direct]", "union(dir+add8)2[direct]"),
)


class TestGridDefinition:
    def test_registered_grids_are_wired_into_experiments(self):
        experiments = all_experiments()
        for name in SCENARIO_GRIDS:
            assert name in experiments

    def test_big_grid_reaches_256_nodes(self):
        assert 256 in BIG_GRID.node_counts
        assert len(BIG_GRID.topologies) > 1
        assert set(BIG_GRID.protocols) == {"msi", "mesi"}
        assert len(BIG_GRID.seeds) > 1

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty axis"):
            ScenarioGrid(name="bad", title="", workloads=(), node_counts=(16,))

    def test_invalid_axis_combination_rejected(self):
        # hypercubes need power-of-two machines; validated at definition time
        with pytest.raises(ValueError):
            ScenarioGrid(
                name="bad",
                title="",
                workloads=("water",),
                node_counts=(48,),
                topologies=("hypercube",),
            )

    def test_fingerprint_tracks_definition(self):
        assert SMOKE_GRID.fingerprint() != BIG_GRID.fingerprint()
        clone = ScenarioGrid(
            name="other-name",
            title="other title",
            workloads=SMOKE_GRID.workloads,
            node_counts=SMOKE_GRID.node_counts,
            topologies=SMOKE_GRID.topologies,
            protocols=SMOKE_GRID.protocols,
            seeds=SMOKE_GRID.seeds,
            schemes=SMOKE_GRID.schemes,
        )
        # identity is the computation, not the display name
        assert clone.fingerprint() == SMOKE_GRID.fingerprint()

    def test_big_machine_params_shrink_per_thread_work(self):
        assert workload_params_for("water", 16) is None
        params = workload_params_for("water", 256)
        assert params["molecules_per_thread"] < 18
        assert workload_params_for("gauss", 256)["size"] == 256

    def test_machine_spec_validation(self):
        with pytest.raises(ValueError):
            MachineSpec(protocol="mosi")
        with pytest.raises(ValueError):
            MachineSpec(topology="torus")
        assert PAPER_MACHINE.num_nodes == 16
        round_trip = MachineSpec.from_json(PAPER_MACHINE.to_json())
        assert round_trip == PAPER_MACHINE


class Test256NodeAcceptance:
    """The headline criterion: 256 nodes, three backends, resumable."""

    def _rows(self, engine, scenario_env):
        result = run_scenario_grid(TINY_256_GRID, engine=engine)
        return result.rows

    def test_all_three_backends_bit_identical(self, scenario_env):
        reference = self._rows(ReferenceEngine(), scenario_env)
        assert len(reference) == TINY_256_GRID.num_cells() * len(
            TINY_256_GRID.schemes
        )
        for engine in (VectorizedEngine(), ParallelEngine(jobs=2)):
            # fresh journals per backend so each run computes from scratch
            policy = set_checkpoint_policy(
                CheckpointPolicy(enabled=False, resume=False)
            )
            try:
                assert self._rows(engine, scenario_env) == reference
            finally:
                set_checkpoint_policy(policy)

    def test_resume_replays_bit_identically(self, scenario_env):
        first = self._rows(VectorizedEngine(), scenario_env)

        # simulate a kill: tear the tail off both journals
        ckpt = scenario_env / "ckpt"
        journals = sorted(ckpt.glob("*.jsonl"))
        assert journals, "journaling was enabled; files must exist"
        for path in journals:
            lines = path.read_text().splitlines()
            assert len(lines) > 2
            path.write_text("\n".join(lines[:-2]) + "\n")

        set_checkpoint_policy(
            CheckpointPolicy(
                enabled=True, resume=True, directory=scenario_env / "ckpt"
            )
        )
        resumed = self._rows(VectorizedEngine(), scenario_env)
        assert resumed == first

    def test_resume_without_flag_discards_journal(self, scenario_env):
        first = self._rows(VectorizedEngine(), scenario_env)
        # same policy (resume=False): journals are discarded, rows identical
        assert self._rows(VectorizedEngine(), scenario_env) == first


class TestSmokeGrid:
    def test_smoke_grid_runs_and_shapes(self, scenario_env):
        result = run_scenario_grid(SMOKE_GRID, engine=VectorizedEngine())
        assert len(result.rows) == SMOKE_GRID.num_cells() * len(SMOKE_GRID.schemes)
        nodes_seen = {row["nodes"] for row in result.rows}
        assert nodes_seen == {16, 64}
        for row in result.rows:
            assert 0.0 <= row["sens"] <= 1.0
            assert 0.0 <= row["pvp"] <= 1.0
            assert row["saved"] >= 0

    def test_topology_cells_share_cached_traces(self, scenario_env):
        grid = ScenarioGrid(
            name="scenarios-test-topology-alias",
            title="",
            workloads=("em3d",),
            node_counts=(64,),
            topologies=("mesh", "hypercube"),
            seeds=(0,),
            schemes=("last()1[direct]",),
        )
        run_scenario_grid(grid, engine=VectorizedEngine())
        cache = scenario_env / "traces"
        # one trace file despite two topology cells
        assert len(list(cache.iterdir())) == 1
        assert len(list(cache.glob("em3d-*.rtrace"))) == 1

    def test_journal_keys_cover_cells_and_schemes(self, scenario_env):
        run_scenario_grid(SMOKE_GRID, engine=VectorizedEngine())
        ckpt = scenario_env / "ckpt"
        sweep = ckpt / f"scenarios-smoke-{SMOKE_GRID.fingerprint()}.jsonl"
        lines = sweep.read_text().splitlines()
        keys = {json.loads(line)["scheme"] for line in lines[1:]}
        assert len(keys) == SMOKE_GRID.num_cells() * len(SMOKE_GRID.schemes)
        assert any("water|n64-" in key for key in keys)
