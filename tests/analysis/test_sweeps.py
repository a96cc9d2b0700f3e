"""Tests for the regime-sweep engine, its scenario axis, and overlays."""

import json
from dataclasses import fields
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    RECORD_METADATA_FIELDS,
    KeyspaceSweepResult,
    Scenario,
    SweepGrid,
    SweepPoint,
    SweepResult,
    adaptive_upper_bound_bits,
    crossover_shape_violations,
    disintegrated_bound_bits,
    lrc_max_dimension,
    lrc_storage_floor_bits,
    run_sweep,
    theorem1_bound_bits,
)
from repro.errors import ParameterError


@pytest.fixture(scope="module")
def small_result():
    grid = SweepGrid.cartesian(
        registers=("abd", "coded-only", "adaptive"),
        fs=(1, 2),
        ks=(2,),
        cs=(1, 2, 4),
        data_sizes=(48,),
        seed=5,
    )
    return run_sweep(grid)


class TestBounds:
    def test_theorem1_min_of_two_arms(self):
        # f-arm: (f+1) D/2; c-arm: c (D/2 + 1).
        assert theorem1_bound_bits(f=3, c=100, data_bits=384) == 4 * 192
        assert theorem1_bound_bits(f=100, c=2, data_bits=384) == 2 * 193

    def test_theorem1_is_defined_once(self):
        """Every Theorem 1 figure comes from the one closed form."""
        sources = Path(repro.__file__).parent.rglob("*.py")
        assert sum(
            path.read_text().count("def theorem1_bound_bits")
            for path in sources
        ) == 1

    def test_disintegrated_strengthens_theorem1(self):
        for f in range(1, 8):
            for c in range(1, 16):
                assert disintegrated_bound_bits(f, c, 384) >= \
                    theorem1_bound_bits(f, c, 384)

    def test_adaptive_bound_matches_paper_formula(self):
        # (min(f, c) + 1) * (n / k) * D with n = 2f + k.
        assert adaptive_upper_bound_bits(f=3, k=3, c=8, data_bits=384) == \
            4 * 9 * 384 // 3

    def test_lrc_max_dimension_distance_corollary(self):
        # n=10, f=2, r=2: largest k with k + ceil(k/2) <= 9 is k = 6.
        assert lrc_max_dimension(n=10, f=2, locality=2) == 6
        # Unbounded locality recovers the Singleton bound k = n - f.
        assert lrc_max_dimension(n=10, f=2, locality=100) == 8

    def test_lrc_floor_between_mds_and_replication(self):
        for n, f in ((5, 1), (9, 3), (14, 5)):
            floor = lrc_storage_floor_bits(n, f, 384, locality=2)
            assert -(-n * 384 // (n - f)) <= floor <= n * 384

    def test_lrc_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            lrc_max_dimension(n=0, f=1, locality=2)


class TestGrid:
    def test_cartesian_size_and_order(self):
        grid = SweepGrid.cartesian(
            registers=("abd", "adaptive"), fs=(1, 2), ks=(2,),
            cs=(1, 3), data_sizes=(48,),
        )
        assert len(grid) == 8
        assert grid.points[0].register == "abd"

    def test_where_filters_points(self):
        grid = SweepGrid.cartesian(
            registers=("adaptive",), fs=(1, 2, 3), ks=(2,), cs=(1, 2),
            data_sizes=(48,), where=lambda p: p.c <= p.f,
        )
        assert all(point.c <= point.f for point in grid)
        assert len(grid) == 5

    def test_explicit_deduplicates_preserving_order(self):
        point = SweepPoint("adaptive", f=1, k=2, c=1, data_size_bytes=48)
        other = SweepPoint("coded-only", f=1, k=2, c=1, data_size_bytes=48)
        grid = SweepGrid.explicit([point, other, point])
        assert grid.points == (point, other)

    def test_abd_canonicalised_to_k1_and_deduplicated(self):
        # ABD's setup ignores k: one run per (f, c), not one per grid k.
        grid = SweepGrid.cartesian(
            registers=("abd", "adaptive"), fs=(2,), ks=(2, 3, 4), cs=(1,),
            data_sizes=(48,),
        )
        abd_points = [p for p in grid if p.register == "abd"]
        assert abd_points == [
            SweepPoint("abd", f=2, k=1, c=1, data_size_bytes=48)
        ]
        assert len([p for p in grid if p.register == "adaptive"]) == 3

    def test_unknown_register_rejected_at_build_time(self):
        with pytest.raises(ParameterError, match="unknown register"):
            SweepGrid.explicit(
                [SweepPoint("paxos", f=1, k=2, c=1, data_size_bytes=48)]
            )

    def test_indivisible_data_size_rejected_at_build_time(self):
        with pytest.raises(ParameterError):
            SweepGrid.cartesian(
                registers=("adaptive",), fs=(1,), ks=(5,), cs=(1,),
                data_sizes=(48,),
            )

    def test_nk_points_derived_from_setups(self):
        grid = SweepGrid.cartesian(
            registers=("adaptive",), fs=(1, 3), ks=(2, 4), cs=(1,),
            data_sizes=(48,),
        )
        assert grid.nk_points() == [(4, 2), (6, 4), (8, 2), (10, 4)]


class TestRunSweep:
    def test_one_record_per_point_in_grid_order(self, small_result):
        assert len(small_result) == 18
        assert [r.register for r in small_result.records[:3]] == ["abd"] * 3

    def test_deterministic_given_fixed_seed(self, small_result):
        grid = SweepGrid.cartesian(
            registers=("abd", "coded-only", "adaptive"),
            fs=(1, 2), ks=(2,), cs=(1, 2, 4), data_sizes=(48,), seed=5,
        )
        again = run_sweep(grid)
        # Every measured field is deterministic; wall_clock_s is metadata.
        assert again.to_json(include_timing=False) == \
            small_result.to_json(include_timing=False)

    def test_measured_curves_have_paper_shapes(self, small_result):
        for f in (1, 2):
            abd = [y for _, y in small_result.series(f=f, register="abd")]
            coded = [
                y for _, y in small_result.series(f=f, register="coded-only")
            ]
            assert len(set(abd)) == 1
            assert coded == sorted(coded)

    def test_records_sit_above_lower_bound_overlays(self, small_result):
        for record in small_result.records:
            if record.register in ("coded-only", "adaptive"):
                assert record.peak_bo_state_bits >= record.thm1_bits

    def test_progress_callback_sees_every_point(self):
        grid = SweepGrid.cartesian(
            registers=("abd",), fs=(1,), ks=(2,), cs=(1, 2),
            data_sizes=(48,),
        )
        seen = []
        run_sweep(grid, progress=lambda done, total, point: seen.append(
            (done, total, point.c)
        ))
        assert seen == [(1, 2, 1), (2, 2, 2)]


SCENARIO_GRID = SweepGrid.cartesian(
    registers=("abd", "coded-only", "adaptive"),
    fs=(2,), ks=(2,), cs=(1, 2, 4), data_sizes=(48,), seed=11,
)

SCENARIOS = (
    Scenario("uniform"),
    Scenario("churn+crash", pattern="churn", ops_per_client=2,
             bo_crashes=1, client_crashes=1),
    Scenario("read-heavy", pattern="read-heavy", readers=4,
             reads_per_reader=2),
)


@pytest.fixture(scope="module")
def scenario_result():
    return run_sweep(SCENARIO_GRID, scenarios=SCENARIOS,
                     audit_storage_every=1)


class TestScenario:
    def test_unknown_pattern_rejected(self):
        with pytest.raises(ParameterError, match="pattern"):
            Scenario("bad", pattern="zigzag")

    def test_read_heavy_needs_readers(self):
        with pytest.raises(ParameterError, match="readers"):
            Scenario("rh", pattern="read-heavy", readers=0)

    @pytest.mark.parametrize("pattern,unused", [
        ("staggered", dict(readers=5, reads_per_reader=3)),
        ("staggered", dict(reads_per_reader=3)),
        ("read-heavy", dict(readers=2, ops_per_client=7)),
        ("churn", dict(readers=2)),
        ("churn", dict(reads_per_reader=2)),
    ])
    def test_field_the_pattern_ignores_rejected(self, pattern, unused):
        with pytest.raises(ParameterError, match="does not use"):
            Scenario("x", pattern=pattern, **unused)

    def test_crash_schedule_clamped_to_f_budget(self):
        scenario = Scenario("crashy", bo_crashes=5, client_crashes=5)
        point = SweepPoint("adaptive", f=1, k=2, c=2, data_size_bytes=48)
        schedule = scenario.crash_schedule(
            point, n=point.n, clients=("w0", "w1", "r0"),
        )
        assert len(schedule.bo_victims) == 1  # clamped to f = 1
        assert len(schedule.client_victims) == 2  # clamped to the first c
        assert {name for name, _ in schedule.client_victims} == {"w0", "w1"}

    def test_crash_schedule_deterministic_per_seed(self):
        scenario = Scenario("crashy", bo_crashes=1, client_crashes=1)
        point = SweepPoint("adaptive", f=2, k=2, c=3, data_size_bytes=48,
                           seed=9)
        clients = ("w0", "w1", "w2")
        assert scenario.crash_schedule(point, 6, clients) == \
            scenario.crash_schedule(point, 6, clients)
        other = SweepPoint("adaptive", f=2, k=2, c=3, data_size_bytes=48,
                           seed=10)
        assert scenario.crash_schedule(point, 6, clients) != \
            scenario.crash_schedule(other, 6, clients)


class TestScenarioSweep:
    def test_one_record_per_cell_scenario_major(self, scenario_result):
        assert len(scenario_result) == len(SCENARIO_GRID) * len(SCENARIOS)
        names = [r.scenario for r in scenario_result.records]
        per_scenario = len(SCENARIO_GRID)
        assert names == (
            ["uniform"] * per_scenario
            + ["churn+crash"] * per_scenario
            + ["read-heavy"] * per_scenario
        )
        assert scenario_result.scenarios() == [
            "uniform", "churn+crash", "read-heavy",
        ]

    def test_crash_scenarios_really_fire(self, scenario_result):
        crashed = scenario_result.select(scenario="churn+crash")
        assert all(r.bo_crashes == 1 for r in crashed)
        assert all(r.client_crashes == 1 for r in crashed)
        clean = scenario_result.select(scenario="uniform")
        assert all(r.bo_crashes == r.client_crashes == 0 for r in clean)

    @pytest.mark.parametrize("pattern,extra", [
        ("uniform", {}),
        ("staggered", {}),
        ("read-heavy", dict(readers=2)),
        ("churn", {}),
    ])
    def test_every_pattern_crashes_its_first_c_clients(self, pattern, extra):
        """With client_crashes >= c, each of the first c clients the
        builder created is killed: exactly c fired client crashes."""
        grid = SweepGrid.cartesian(
            registers=("adaptive",), fs=(2,), ks=(2,), cs=(1, 2, 4),
            data_sizes=(48,), seed=3,
        )
        scenario = Scenario("crashy", pattern=pattern, client_crashes=4,
                            **extra)
        result = run_sweep(grid, scenarios=(scenario,))
        assert [(r.c, r.client_crashes) for r in result.records] == \
            [(1, 1), (2, 2), (4, 4)]

    def test_read_heavy_records_completed_reads(self, scenario_result):
        for record in scenario_result.select(scenario="read-heavy"):
            assert record.completed_reads == 4 * 2

    def test_shapes_hold_across_scenarios(self, scenario_result):
        assert crossover_shape_violations(scenario_result) == []

    def test_crash_peaks_respect_lower_bounds(self, scenario_result):
        """Theorem 1 / the adaptive bound are adversarial lower bounds;
        crashing <= f objects must not drop measured peaks below them."""
        for record in scenario_result.records:
            if record.register in ("coded-only", "adaptive"):
                assert record.peak_bo_state_bits >= record.thm1_bits
            if record.register == "adaptive":
                assert record.peak_bo_state_bits <= \
                    2 * record.adaptive_bound_bits

    def test_same_seed_scenario_sweep_is_byte_identical(self):
        """The determinism contract extends to crash scenarios: same grid,
        same scenarios, same seeds => byte-identical JSON, crash victims
        and firing order included."""
        again = run_sweep(SCENARIO_GRID, scenarios=SCENARIOS)
        reference = run_sweep(SCENARIO_GRID, scenarios=SCENARIOS)
        assert again.to_json(include_timing=False) == \
            reference.to_json(include_timing=False)

    def test_duplicate_scenario_names_rejected(self):
        with pytest.raises(ParameterError, match="duplicate"):
            run_sweep(SCENARIO_GRID,
                      scenarios=(Scenario("x"), Scenario("x")))

    def test_bad_crash_timing_rejected(self):
        with pytest.raises(ParameterError, match="crash_"):
            Scenario("x", bo_crashes=1, crash_spacing=0)


class TestPaddedDAxis:
    def test_pad_lifts_divisibility_requirement(self):
        grid = SweepGrid.cartesian(
            registers=("adaptive",), fs=(1,), ks=(5,), cs=(1,),
            data_sizes=(48,), pad=True,
        )
        assert len(grid) == 1
        assert grid.points[0].padded

    def test_abd_points_canonicalised_unpadded(self):
        grid = SweepGrid.cartesian(
            registers=("abd", "adaptive"), fs=(1,), ks=(4,), cs=(1,),
            data_sizes=(6,), pad=True,
        )
        abd = [p for p in grid if p.register == "abd"]
        assert abd == [SweepPoint("abd", f=1, k=1, c=1, data_size_bytes=6)]

    def test_padding_overhead_shows_at_small_d(self):
        """The bounds are linear in D; padding's 4-byte prefix and block
        rounding are additive constants that dominate at small D and
        vanish (relatively) at large D."""
        grid = SweepGrid.cartesian(
            registers=("coded-only",), fs=(1,), ks=(4,), cs=(2,),
            data_sizes=(6, 12, 96, 192), pad=True, seed=1,
        )
        result = run_sweep(grid)
        overheads = {
            record.data_bits: record.peak_bo_state_bits / record.data_bits
            for record in result.records
        }
        # Measured on this grid: ~9.0 bits/bit at D = 48 bits vs ~4.6 at
        # D = 1536 — the additive prefix/rounding terms roughly double the
        # relative cost at the small end.
        assert overheads[6 * 8] > 1.8 * overheads[192 * 8]
        assert overheads[6 * 8] > overheads[12 * 8] > overheads[192 * 8]

    def test_padded_records_round_trip(self):
        grid = SweepGrid.cartesian(
            registers=("coded-only",), fs=(1,), ks=(4,), cs=(1,),
            data_sizes=(6,), pad=True,
        )
        result = run_sweep(grid)
        assert result.records[0].padded
        again = SweepResult.from_json(result.to_json())
        assert again.records == result.records


class TestSweepResultIO:
    def test_json_roundtrip(self, small_result):
        assert SweepResult.from_json(small_result.to_json()).records == \
            small_result.records

    def test_save_and_load(self, small_result, tmp_path):
        path = small_result.save(tmp_path / "nested" / "sweep.json")
        assert SweepResult.load(path).records == small_result.records

    def test_version_guard(self):
        with pytest.raises(ParameterError, match="version"):
            SweepResult.from_json('{"version": 99, "records": []}')

    def test_table_renders_all_records(self, small_result):
        table = small_result.table()
        assert table.count("\n") == len(small_result) + 1
        assert "disintegrated_bits" in table

    def test_select_and_series(self, small_result):
        rows = small_result.select(register="adaptive", f=2)
        assert {row.c for row in rows} == {1, 2, 4}
        series = small_result.series(register="adaptive", f=2)
        assert [x for x, _ in series] == [1, 2, 4]


@pytest.mark.parametrize("table", [SweepResult, KeyspaceSweepResult],
                         ids=["sweep", "keyspace"])
class TestRecordFieldGuard:
    """A current-version document whose records do not match the record
    type is refused with a :class:`ParameterError` naming the fields."""

    @staticmethod
    def document(table, record):
        return json.dumps({"version": table.VERSION, "records": [record]})

    @staticmethod
    def full_record(table):
        return {field.name: 0 for field in fields(table.RECORD)}

    def test_record_with_coding_backend_is_refused(self, table):
        """Full documents saved while the kernel registry existed carry
        a ``coding_backend`` key."""
        record = dict(self.full_record(table), coding_backend="numpy-nibble")
        with pytest.raises(
            ParameterError,
            match=r"unexpected fields \['coding_backend'\], "
                  r"missing fields \[\]",
        ):
            table.from_json(self.document(table, record))

    def test_record_missing_a_field_is_refused(self, table):
        record = self.full_record(table)
        del record["seed"]
        with pytest.raises(
            ParameterError,
            match=r"unexpected fields \[\], missing fields \['seed'\]",
        ):
            table.from_json(self.document(table, record))

    def test_timing_stripped_record_loads(self, table):
        record = self.full_record(table)
        for name in RECORD_METADATA_FIELDS:
            del record[name]
        [loaded] = table.from_json(self.document(table, record)).records
        assert loaded.worker == 0

