"""Tests for the keyspace sweep axis: byte-identity, pooling, shapes."""

import hashlib
import json

import pytest

from repro.analysis import (
    KeyspaceSweepResult,
    keyspace_advantage_ratios,
    keyspace_grid,
    keyspace_shape_violations,
    run_keyspace_sweep,
)

#: The reference crossover grid: small enough for CI, skewed enough that
#: hotspot (2 hot keys over 16 shards) concentrates real concurrency.
CELLS = keyspace_grid(
    skews=("uniform", "hotspot"),
    registers=("coded-only", "adaptive"),
    keys=(512,),
    shards=(16,),
    waves=3,
    wave_size=48,
    reads_per_wave=4,
    hot_keys=2,
    hot_weight=0.95,
    vnodes=16,
    seed=0,
)


#: sha256 of ``run_keyspace_sweep(CELLS)`` stripped JSON, computed at the
#: parent of the one-engine refactor (commit dd59c39).
GOLDEN_KEYSPACE_SHA256 = (
    "7aa248d0d33171657d6c5ca49d014b9cce518c7eff01a36338a44b8a6a91aba4"
)


@pytest.fixture(scope="module")
def serial_reference():
    """The in-process reference: ``workers=1`` is a plain cell loop."""
    return run_keyspace_sweep(CELLS, workers=1)


class TestGrid:
    def test_cartesian_and_deduplicated(self):
        assert len(CELLS) == 4
        assert len(set(CELLS)) == 4
        assert {c.skew for c in CELLS} == {"uniform", "hotspot"}
        assert {c.register for c in CELLS} == {"coded-only", "adaptive"}


class TestByteIdentity:
    def test_same_cells_same_bytes(self, serial_reference):
        """Same-seed sweeps serialize byte-identically, timing stripped."""
        again = run_keyspace_sweep(CELLS)
        assert again.to_json(include_timing=False) == \
            serial_reference.to_json(include_timing=False)

    def test_reference_matches_golden_hash(self, serial_reference):
        stripped = serial_reference.to_json(include_timing=False)
        assert hashlib.sha256(stripped.encode()).hexdigest() == \
            GOLDEN_KEYSPACE_SHA256

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pooled_matches_serial(self, serial_reference, workers):
        pooled = run_keyspace_sweep(CELLS, workers=workers)
        assert pooled.to_json(include_timing=False) == \
            serial_reference.to_json(include_timing=False)

    def test_roundtrip_through_json(self, serial_reference, tmp_path):
        path = tmp_path / "keyspace.json"
        serial_reference.save(path)
        loaded = KeyspaceSweepResult.load(path)
        assert loaded.to_json(include_timing=False) == \
            serial_reference.to_json(include_timing=False)
        document = json.loads(path.read_text())
        assert document["version"] == 2


class TestShapes:
    def test_floors_hold_on_every_record(self, serial_reference):
        assert all(r.floor_violations == 0 for r in serial_reference.records)

    def test_hotspot_advantage_exceeds_uniform(self, serial_reference):
        """The headline crossover: concentrating concurrency widens the
        coded-only/adaptive peak-storage gap."""
        ratios = keyspace_advantage_ratios(serial_reference)
        assert set(ratios) == {"uniform", "hotspot"}
        assert ratios["hotspot"] > ratios["uniform"]
        assert ratios["uniform"] > 1.0

    def test_shape_checker_passes_the_reference(self, serial_reference):
        assert keyspace_shape_violations(serial_reference) == []

    def test_table_renders_every_record(self, serial_reference):
        table = serial_reference.table()
        assert table.count("\n") >= len(serial_reference.records)
        assert "aggregate_peak_bo_state_bits" in table


class TestSelection:
    def test_select_filters_by_axis(self, serial_reference):
        hot = serial_reference.select(skew="hotspot")
        assert len(hot) == 2
        assert {r.register for r in hot} == {"coded-only", "adaptive"}
