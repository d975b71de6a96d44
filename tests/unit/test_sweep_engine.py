"""Unit tests for repro.sweep.engine (serial path, memoisation, sharding)."""

from __future__ import annotations

import pytest

from repro.core.estimator import EcoChip, EstimatorConfig
from repro.sweep.engine import (
    KernelCacheStats,
    SweepEngine,
    derive_scenario_config,
    install_kernel_cache,
    make_record,
    shard,
)
from repro.sweep.spec import Scenario, SweepSpec
from repro.sweep.store import JsonlResultStore
from repro.testcases import ga102

QUICK = SweepSpec.preset("ga102-quick")


class TestKernelCache:
    def test_cached_results_are_bit_identical(self, ga102_3chiplet):
        plain = EcoChip().estimate(ga102_3chiplet)
        cached_estimator = EcoChip()
        install_kernel_cache(cached_estimator)
        first = cached_estimator.estimate(ga102_3chiplet)
        second = cached_estimator.estimate(ga102_3chiplet)
        assert first == plain
        assert second == plain

    def test_repeated_estimates_hit_the_cache(self, ga102_3chiplet):
        estimator = EcoChip()
        stats = install_kernel_cache(estimator)
        estimator.estimate(ga102_3chiplet)
        misses = stats.misses
        assert misses > 0 and stats.hits == 0
        estimator.estimate(ga102_3chiplet)
        assert stats.misses == misses  # nothing new to compute
        assert stats.hits > 0

    def test_shared_kernels_across_node_configs(self):
        # Two configs that share the analog chiplet's node: its kernels are
        # computed once.
        estimator = EcoChip()
        stats = install_kernel_cache(estimator)
        estimator.estimate(ga102.three_chiplet((7, 14, 10)))
        estimator.estimate(ga102.three_chiplet((7, 14, 14)))
        assert stats.hits > 0

    def test_install_is_idempotent(self):
        estimator = EcoChip()
        stats = install_kernel_cache(estimator)
        assert install_kernel_cache(estimator) is stats

    def test_cache_respects_name_argument(self):
        estimator = EcoChip()
        install_kernel_cache(estimator)
        a = estimator.manufacturing.cfp_for_area(100.0, 7, "logic", name="alpha")
        b = estimator.manufacturing.cfp_for_area(100.0, 7, "logic", name="beta")
        assert a.name == "alpha" and b.name == "beta"
        assert a.total_g == b.total_g


class TestKernelCacheStatsAccounting:
    """Exact hit/miss bookkeeping of the memoised kernels."""

    def test_first_estimate_counts_one_miss_per_distinct_kernel_input(self, ga102_3chiplet):
        estimator = EcoChip()
        stats = install_kernel_cache(estimator)
        estimator.estimate(ga102_3chiplet)
        # Three chiplets with distinct (area, node, type) and distinct
        # (transistors, node) keys: one manufacturing and one design miss
        # each, and no hits yet.
        assert stats.manufacturing_misses == 3
        assert stats.design_misses == 3
        assert stats.manufacturing_hits == 0
        assert stats.design_hits == 0

    def test_repeat_estimate_counts_one_hit_per_kernel_call(self, ga102_3chiplet):
        estimator = EcoChip()
        stats = install_kernel_cache(estimator)
        estimator.estimate(ga102_3chiplet)
        estimator.estimate(ga102_3chiplet)
        assert stats.manufacturing_hits == 3
        assert stats.design_hits == 3
        assert stats.manufacturing_misses == 3
        assert stats.design_misses == 3

    def test_totals_sum_both_kernels(self):
        stats = KernelCacheStats(
            manufacturing_hits=2,
            manufacturing_misses=3,
            design_hits=5,
            design_misses=7,
        )
        assert stats.hits == 7
        assert stats.misses == 10

    def test_manufacturing_cache_keyed_on_value_inputs_only(self):
        estimator = EcoChip()
        stats = install_kernel_cache(estimator)
        estimator.manufacturing.cfp_for_area(100.0, 7, "logic", name="a")
        estimator.manufacturing.cfp_for_area(100.0, 7, "logic", name="b")
        assert (stats.manufacturing_misses, stats.manufacturing_hits) == (1, 1)
        # a different area is a genuinely new kernel input
        estimator.manufacturing.cfp_for_area(101.0, 7, "logic")
        assert (stats.manufacturing_misses, stats.manufacturing_hits) == (2, 1)

    def test_design_cache_distinguishes_volume_and_reuse(self):
        estimator = EcoChip()
        stats = install_kernel_cache(estimator)
        estimator.design_model.chiplet_design_cfp(1e9, 7, manufactured_volume=10.0)
        estimator.design_model.chiplet_design_cfp(1e9, 7, manufactured_volume=10.0)
        assert (stats.design_misses, stats.design_hits) == (1, 1)
        estimator.design_model.chiplet_design_cfp(1e9, 7, manufactured_volume=20.0)
        estimator.design_model.chiplet_design_cfp(1e9, 7, manufactured_volume=10.0, reused=True)
        assert (stats.design_misses, stats.design_hits) == (3, 1)


class TestSerialEngine:
    def test_run_counts_and_best(self, tmp_path):
        engine = SweepEngine(jobs=1)
        with JsonlResultStore(tmp_path / "out.jsonl") as store:
            summary = engine.run(QUICK, store=store)
        assert summary.scenario_count == QUICK.count()
        assert summary.jobs == 1
        assert summary.store_path == str(tmp_path / "out.jsonl")
        assert summary.best is not None
        assert summary.best["total_carbon_g"] > 0
        assert store.count == summary.scenario_count

    def test_memoisation_does_not_change_results(self):
        # The engine always memoises its kernels (and the dollar cost); every
        # record must equal the plain, un-memoised EcoChip.estimate pipeline.
        from repro.cost.model import ChipletCostModel

        scenarios = QUICK.expand()
        memoized = list(SweepEngine(jobs=1).iter_records(scenarios))
        assert len(memoized) == len(scenarios)
        for scenario, record in zip(scenarios, memoized):
            system = scenario.build_system()
            config = derive_scenario_config(
                EstimatorConfig(), scenario.fab_source, scenario.overrides
            )
            plain = make_record(
                scenario,
                system,
                EcoChip(config=config).estimate(system),
                scenario.fab_source or config.fab_carbon_source.value,
                cost_usd=ChipletCostModel().estimate(system).total_cost_usd,
            )
            assert record == plain

    def test_serial_cache_stats_are_reported(self):
        engine = SweepEngine(jobs=1)
        summary = engine.run(QUICK)
        assert isinstance(summary.cache_stats, KernelCacheStats)
        assert summary.cache_stats.hits > 0  # the grid repeats many kernels

    def test_records_match_direct_estimation(self):
        scenario = Scenario(
            index=0, base_kind="testcase", base_ref="ga102-3chiplet", nodes=(7.0, 14.0, 10.0)
        )
        [record] = list(SweepEngine(jobs=1).iter_records([scenario]))
        direct = EcoChip().estimate(ga102.three_chiplet((7, 14, 10)))
        assert record["total_carbon_g"] == direct.total_cfp_g
        assert record["embodied_carbon_g"] == direct.embodied_cfp_g
        assert record["silicon_area_mm2"] == direct.total_silicon_area_mm2

    def test_fab_source_override_matches_configured_estimator(self):
        scenario = Scenario(
            index=0, base_kind="testcase", base_ref="ga102-3chiplet", fab_source="wind"
        )
        [record] = list(SweepEngine(jobs=1).iter_records([scenario]))
        config = EstimatorConfig(
            fab_carbon_source="wind", package_carbon_source="wind", design_carbon_source="wind"
        )
        from repro.testcases.registry import get_testcase

        direct = EcoChip(config=config).estimate(get_testcase("ga102-3chiplet"))
        assert record["total_carbon_g"] == direct.total_cfp_g
        assert record["fab_source"] == "wind"

    def test_progress_callback(self):
        calls = []
        SweepEngine(jobs=1).run(QUICK, progress=lambda done, total: calls.append((done, total)))
        total = QUICK.count()
        assert calls == [(i, total) for i in range(1, total + 1)]

    def test_empty_scenario_list(self):
        summary = SweepEngine(jobs=1).run([])
        assert summary.scenario_count == 0
        assert summary.best is None

    def test_empty_run_does_not_report_stale_cache_stats(self):
        engine = SweepEngine(jobs=1)
        engine.run(QUICK)  # populates last_cache_stats
        summary = engine.run([])
        assert summary.cache_stats is None

    def test_record_metric_keys_match_objectives(self):
        from repro.core.explorer import OBJECTIVES

        [record] = list(
            SweepEngine(jobs=1).iter_records(
                [Scenario(index=0, base_kind="testcase", base_ref="ga102-3chiplet")]
            )
        )
        for name in OBJECTIVES:
            assert name in record, f"record is missing objective field {name}"


class TestValidation:
    def test_invalid_jobs_and_chunk_size(self):
        with pytest.raises(ValueError):
            SweepEngine(jobs=0)
        with pytest.raises(ValueError):
            shard([1, 2, 3], 0)

    def test_shard_covers_all_items_in_order(self):
        chunks = shard(list(range(10)), 3)
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_make_record_round_trips_scenario_fields(self, estimator, ga102_3chiplet):
        scenario = Scenario(
            index=7, base_kind="testcase", base_ref="ga102-3chiplet", fab_source="coal"
        )
        report = estimator.estimate(ga102_3chiplet)
        record = make_record(scenario, ga102_3chiplet, report, "coal")
        assert record["scenario"] == 7
        assert record["packaging"] == report.packaging.architecture
        assert record["lifetime_years"] == report.operational.lifetime_years
