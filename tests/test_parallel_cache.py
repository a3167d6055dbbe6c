"""Tests for the parallel execution layer and the persistent result cache.

The two hard guarantees under test (see DESIGN.md §5):

* **Determinism under fan-out** — ``n_jobs=1`` and ``n_jobs=2`` produce
  bit-identical :class:`EvaluationRecord` metrics at both grain levels
  (whole configurations in ``evaluate_many``, replicates inside one
  ``evaluate``, fixed-count and adaptive protocols alike), because every
  replicate draws from disjoint ``(seed, replicate)`` RNG streams and
  aggregation happens in replicate-index order.
* **Warm-cache equivalence** — a cold-start oracle pointed at a warm disk
  cache returns records identical to the originals (floats survive the
  JSON round trip exactly) while running zero new simulations.
"""

import dataclasses

import pytest

from repro.core.design_space import Configuration, DesignSpace, PlacementConstraints
from repro.core.evaluator import SimulationOracle
from repro.core.parallel import (
    WorkerPool,
    adaptive_stop_count,
    resolve_jobs,
    run_adaptive_replicates,
)
from repro.core.problem import ScenarioParameters
from repro.core.result_cache import (
    ResultCache,
    record_from_dict,
    record_to_dict,
    scenario_fingerprint,
)
from repro.library.mac_options import MacKind, RoutingKind


def tiny_scenario(**overrides) -> ScenarioParameters:
    defaults = dict(tsim_s=2.0, replicates=1, seed=0)
    defaults.update(overrides)
    return ScenarioParameters(**defaults)


def tiny_space() -> DesignSpace:
    return DesignSpace(
        constraints=PlacementConstraints(max_nodes=4),
        tx_levels_dbm=(-10.0, 0.0),
    )


REFERENCE_CONFIG = Configuration((0, 1, 3, 5), 0.0, MacKind.TDMA, RoutingKind.STAR)


def assert_records_identical(a, b, compare_wall: bool = False):
    """Bit-for-bit equality of everything except (optionally) wall time,
    which legitimately differs between serial/parallel/cached runs."""
    assert a.config.key() == b.config.key()
    assert a.pdr == b.pdr
    assert a.power_mw == b.power_mw
    assert a.nlt_days == b.nlt_days
    oa, ob = a.outcome, b.outcome
    assert oa.pdr == ob.pdr
    assert oa.node_pdrs == ob.node_pdrs
    assert oa.node_powers_mw == ob.node_powers_mw
    assert oa.worst_power_mw == ob.worst_power_mw
    assert oa.nlt_days == ob.nlt_days
    assert oa.horizon_s == ob.horizon_s
    assert oa.totals == ob.totals
    assert oa.events_executed == ob.events_executed
    assert oa.replicates == ob.replicates
    assert oa.mean_latency_s == ob.mean_latency_s
    if compare_wall:
        assert a.wall_seconds == b.wall_seconds


class TestResolveJobs:
    def test_serial_defaults(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3

    def test_all_cores_and_joblib_negatives(self):
        import os

        cores = os.cpu_count() or 1
        assert resolve_jobs(0) == max(1, cores)
        assert resolve_jobs(-1) == max(1, cores)
        assert resolve_jobs(-cores - 5) == 1  # never below one worker

    def test_pool_serial_never_forks(self):
        pool = WorkerPool(1)
        assert not pool.parallel
        assert pool.map_ordered(abs, [-1, -2]) == [1, 2]
        assert pool._executor is None


class TestParallelDeterminism:
    def test_evaluate_many_bit_identical_across_n_jobs(self):
        scenario = tiny_scenario()
        configs = list(tiny_space().feasible_configurations())[:6]
        serial = SimulationOracle(scenario, n_jobs=1).evaluate_many(configs)
        with SimulationOracle(scenario, n_jobs=2) as oracle:
            parallel = oracle.evaluate_many(configs)
        assert len(serial) == len(parallel) == 6
        for a, b in zip(serial, parallel):
            assert_records_identical(a, b)

    def test_replicate_grain_fixed_protocol_bit_identical(self):
        scenario = tiny_scenario(replicates=3)
        serial = SimulationOracle(scenario, n_jobs=1).evaluate(REFERENCE_CONFIG)
        with SimulationOracle(scenario, n_jobs=2) as oracle:
            parallel = oracle.evaluate(REFERENCE_CONFIG)
        assert serial.outcome.replicates == 3
        assert_records_identical(serial, parallel)

    def test_replicate_grain_adaptive_protocol_bit_identical(self):
        scenario = tiny_scenario(
            replicates=2,
            adaptive_replicates=True,
            pdr_epsilon=0.02,
            max_replicates=6,
        )
        serial = SimulationOracle(scenario, n_jobs=1).evaluate(REFERENCE_CONFIG)
        with SimulationOracle(scenario, n_jobs=2) as oracle:
            parallel = oracle.evaluate(REFERENCE_CONFIG)
        assert_records_identical(serial, parallel)

    def test_parallel_counters_match_serial(self):
        scenario = tiny_scenario()
        configs = list(tiny_space().feasible_configurations())[:4]
        batch = configs + [configs[0], configs[2]]  # duplicates hit cache
        serial = SimulationOracle(scenario, n_jobs=1)
        serial.evaluate_many(batch)
        with SimulationOracle(scenario, n_jobs=2) as parallel:
            parallel.evaluate_many(batch)
        assert parallel.simulations_run == serial.simulations_run == 4
        assert parallel.cache_hits == serial.cache_hits == 2


class TestAdaptiveAggregation:
    """Satellite fix: the averaged adaptive outcome must be a pure
    function of the replicate indices used, not of callback order."""

    def test_stop_count_is_prefix_rule(self):
        # Converges exactly at the first prefix whose CI is narrow enough.
        assert adaptive_stop_count([0.5, 0.5], epsilon=0.01, min_replicates=2) == 2
        assert adaptive_stop_count([0.4, 0.6], epsilon=0.01, min_replicates=2) is None
        # A later wave does not "unstop" an already-converged prefix.
        assert (
            adaptive_stop_count([0.5, 0.5, 0.1, 0.9], epsilon=0.01, min_replicates=2)
            == 2
        )

    def test_wave_size_does_not_change_outcome(self):
        scenario = tiny_scenario(
            replicates=2,
            adaptive_replicates=True,
            pdr_epsilon=0.02,
            max_replicates=6,
        )
        outcomes = [
            run_adaptive_replicates(scenario, REFERENCE_CONFIG, wave=w)
            for w in (1, 2, 5)
        ]
        for other in outcomes[1:]:
            assert other.pdr == outcomes[0].pdr
            assert other.worst_power_mw == outcomes[0].worst_power_mw
            assert other.replicates == outcomes[0].replicates
            assert other.node_pdrs == outcomes[0].node_pdrs

    def test_matches_legacy_sequential_protocol(self):
        """The explicit-outcome implementation reproduces what the old
        closure-based accumulator computed in its sequential call order."""
        from repro.analysis.convergence import estimate_pdr_with_tolerance
        from repro.core.parallel import replicate_job
        from repro.net.network import average_outcomes

        scenario = tiny_scenario(
            replicates=2,
            adaptive_replicates=True,
            pdr_epsilon=0.02,
            max_replicates=6,
        )
        collected = []

        def one_replicate(index):
            outcome = replicate_job(scenario, REFERENCE_CONFIG, index).run()
            collected.append(outcome)
            return outcome.pdr

        estimate_pdr_with_tolerance(
            one_replicate,
            epsilon=scenario.pdr_epsilon,
            min_replicates=max(2, scenario.replicates),
            max_replicates=scenario.max_replicates,
        )
        legacy = average_outcomes(collected, scenario.battery)
        current = run_adaptive_replicates(scenario, REFERENCE_CONFIG)
        assert current.pdr == legacy.pdr
        assert current.worst_power_mw == legacy.worst_power_mw
        assert current.replicates == legacy.replicates


class TestDiskCache:
    def test_warm_start_runs_zero_simulations(self, tmp_path):
        scenario = tiny_scenario(cache_dir=str(tmp_path))
        configs = list(tiny_space().feasible_configurations())[:4]

        cold = SimulationOracle(scenario)
        cold_records = cold.evaluate_many(configs)
        assert cold.simulations_run == 4

        warm = SimulationOracle(scenario)
        warm_records = warm.evaluate_many(configs)
        assert warm.simulations_run == 0
        assert warm.cache_hits == 4
        assert warm.disk_hits == 4
        for a, b in zip(cold_records, warm_records):
            assert_records_identical(a, b, compare_wall=True)

    def test_warm_start_parallel_also_zero_simulations(self, tmp_path):
        scenario = tiny_scenario(cache_dir=str(tmp_path))
        configs = list(tiny_space().feasible_configurations())[:4]
        SimulationOracle(scenario).evaluate_many(configs)
        with SimulationOracle(scenario, n_jobs=2) as warm:
            warm.evaluate_many(configs)
            assert warm.simulations_run == 0
            assert warm.disk_hits == 4

    def test_fingerprint_separates_scenarios(self, tmp_path):
        base = tiny_scenario(cache_dir=str(tmp_path))
        longer = dataclasses.replace(base, tsim_s=3.0)
        assert scenario_fingerprint(base) != scenario_fingerprint(longer)

        SimulationOracle(base).evaluate(REFERENCE_CONFIG)
        other = SimulationOracle(longer)
        other.evaluate(REFERENCE_CONFIG)
        assert other.simulations_run == 1  # no cross-contamination
        assert other.disk_hits == 0

    def test_fingerprint_ignores_execution_knobs(self, tmp_path):
        base = tiny_scenario()
        assert scenario_fingerprint(base) == scenario_fingerprint(
            dataclasses.replace(base, n_jobs=8, cache_dir=str(tmp_path))
        )

    def test_record_json_round_trip_is_lossless(self):
        scenario = tiny_scenario()
        record = SimulationOracle(scenario).evaluate(REFERENCE_CONFIG)
        clone = record_from_dict(record_to_dict(record))
        assert_records_identical(record, clone, compare_wall=True)

    def test_invalidate_clears_disk_and_memory(self, tmp_path):
        scenario = tiny_scenario(cache_dir=str(tmp_path))
        oracle = SimulationOracle(scenario)
        oracle.evaluate(REFERENCE_CONFIG)
        path = oracle.disk_cache.path
        assert path.exists()
        oracle.invalidate_cache()
        assert not path.exists()
        assert oracle.all_records == []
        oracle.evaluate(REFERENCE_CONFIG)
        assert oracle.simulations_run == 2  # re-simulated after invalidate

    def test_attach_cache_persists_existing_records(self, tmp_path):
        oracle = SimulationOracle(tiny_scenario())
        oracle.evaluate(REFERENCE_CONFIG)
        oracle.attach_cache(str(tmp_path))
        warm = SimulationOracle(tiny_scenario(cache_dir=str(tmp_path)))
        warm.evaluate(REFERENCE_CONFIG)
        assert warm.simulations_run == 0
        assert warm.disk_hits == 1

    def test_corrupt_lines_are_skipped(self, tmp_path):
        scenario = tiny_scenario(cache_dir=str(tmp_path))
        oracle = SimulationOracle(scenario)
        oracle.evaluate(REFERENCE_CONFIG)
        path = oracle.disk_cache.path
        with open(path, "a") as fh:
            fh.write("{not json\n")
            fh.write('{"valid_json": "but not a record"}\n')
        warm = SimulationOracle(scenario)
        warm.evaluate(REFERENCE_CONFIG)
        assert warm.simulations_run == 0
        assert warm.disk_hits == 1


class TestInsertionOrder:
    """``all_records`` lists distinct evaluations in first-request order,
    regardless of cache temperature or n_jobs — the Fig. 3 scatter must be
    stable across reruns."""

    def test_memory_hits_do_not_reorder(self):
        scenario = tiny_scenario()
        configs = list(tiny_space().feasible_configurations())[:3]
        oracle = SimulationOracle(scenario)
        oracle.evaluate_many(configs)
        oracle.evaluate(configs[2])
        oracle.evaluate(configs[0])
        assert [r.config.key() for r in oracle.all_records] == [
            c.key() for c in configs
        ]

    def test_disk_hits_enter_in_request_order(self, tmp_path):
        scenario = tiny_scenario(cache_dir=str(tmp_path))
        configs = list(tiny_space().feasible_configurations())[:3]
        SimulationOracle(scenario).evaluate_many(configs)

        warm = SimulationOracle(scenario)
        request_order = [configs[2], configs[0], configs[1]]
        for config in request_order:
            warm.evaluate(config)
        assert [r.config.key() for r in warm.all_records] == [
            c.key() for c in request_order
        ]

    def test_warm_cache_does_not_inject_foreign_records(self, tmp_path):
        scenario = tiny_scenario(cache_dir=str(tmp_path))
        configs = list(tiny_space().feasible_configurations())[:4]
        SimulationOracle(scenario).evaluate_many(configs)

        warm = SimulationOracle(scenario)
        warm.evaluate(configs[1])
        assert len(warm.all_records) == 1  # only what was requested

    def test_order_identical_serial_vs_parallel(self, tmp_path):
        scenario = tiny_scenario()
        configs = list(tiny_space().feasible_configurations())[:5]
        serial = SimulationOracle(scenario, n_jobs=1)
        serial.evaluate_many(configs)
        with SimulationOracle(scenario, n_jobs=2) as parallel:
            parallel.evaluate_many(configs)
        assert [r.config.key() for r in serial.all_records] == [
            r.config.key() for r in parallel.all_records
        ]


class TestTelemetry:
    def test_stats_shape_and_hit_rate(self):
        scenario = tiny_scenario()
        oracle = SimulationOracle(scenario)
        configs = list(tiny_space().feasible_configurations())[:2]
        oracle.evaluate_many(configs)
        oracle.evaluate(configs[0])
        oracle.evaluate(configs[1])
        stats = oracle.stats()
        assert stats["simulations_run"] == 2
        assert stats["cache_hits"] == 2
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["disk_hits"] == 0
        assert 0.0 < stats["p50_wall_seconds"] <= stats["p95_wall_seconds"]
        assert stats["total_wall_seconds"] > 0
        assert stats["n_jobs"] == 1
        assert stats["speedup_vs_serial_estimate"] > 0
        line = oracle.format_stats()
        assert "2 simulations" in line and "hit rate" in line

    def test_reset_counters_clears_telemetry(self):
        oracle = SimulationOracle(tiny_scenario())
        oracle.evaluate(REFERENCE_CONFIG)
        oracle.reset_counters()
        stats = oracle.stats()
        assert stats["simulations_run"] == 0
        assert stats["total_wall_seconds"] == 0.0
        assert stats["p95_wall_seconds"] == 0.0

    def test_explorer_result_carries_oracle_stats(self):
        from repro.core.explorer import HumanIntranetExplorer
        from repro.core.problem import DesignProblem

        problem = DesignProblem(
            pdr_min=0.5, scenario=tiny_scenario(), space=tiny_space()
        )
        result = HumanIntranetExplorer(problem).explore()
        assert result.oracle_stats is not None
        assert result.oracle_stats["simulations_run"] == result.simulations_run
        assert "oracle_stats" in result.to_dict()


class TestScenarioAndCliKnobs:
    def test_scenario_carries_execution_knobs(self, tmp_path):
        scenario = tiny_scenario(n_jobs=2, cache_dir=str(tmp_path))
        with SimulationOracle(scenario) as oracle:
            assert oracle.n_jobs == 2
            assert oracle.disk_cache is not None

    def test_make_scenario_threads_knobs(self, tmp_path):
        from repro.experiments.scenario import make_problem, make_scenario

        scenario = make_scenario("smoke", n_jobs=2, cache_dir=str(tmp_path))
        assert scenario.n_jobs == 2
        assert scenario.cache_dir == str(tmp_path)
        problem = make_problem(0.5, "smoke", n_jobs=2, cache_dir=str(tmp_path))
        assert problem.scenario.n_jobs == 2

    def test_cli_accepts_jobs_and_cache_dir(self, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["solve", "--pdr-min", "90", "--jobs", "2",
             "--cache-dir", str(tmp_path)]
        )
        assert args.jobs == 2
        assert args.cache_dir == str(tmp_path)


class TestSelfHealingCache:
    """Regression (DESIGN.md §9): cache damage is survivable.

    Torn tails, bit rot, and lines in superseded formats are quarantined
    to a sidecar and healed by atomic compaction — never fatal, and
    never silently wrong (the per-record CRC catches damage that still
    parses as JSON)."""

    def _warm_records(self, n=2):
        scenario = tiny_scenario()
        configs = list(tiny_space().feasible_configurations())[:n]
        return SimulationOracle(scenario).evaluate_many(configs)

    def test_frame_unframe_round_trip(self):
        from repro.core.journal import frame, unframe

        record = self._warm_records(1)[0]
        clone = record_from_dict(unframe(frame(record_to_dict(record))))
        assert_records_identical(record, clone, compare_wall=True)

    def test_truncation_at_every_byte_recovers_intact_prefix(self, tmp_path):
        """The satellite sweep: truncate a two-record cache file at every
        byte offset and assert lossless recovery of whatever prefix is
        still intact — the second record survives iff its line (sans the
        cosmetic trailing newline) survives, and loading never raises."""
        records = self._warm_records(2)
        reference = ResultCache(tmp_path / "ref", "fp")
        for record in records:
            reference.put(record)
        data = reference.path.read_bytes()
        first_len = data.index(b"\n") + 1

        for cut in range(len(data)):
            cache = ResultCache(tmp_path / f"cut{cut}", "fp")
            cache.path.parent.mkdir(exist_ok=True)
            cache.path.write_bytes(data[:cut])
            cache.load()
            if cut < first_len - 1:
                expected = 0
            elif cut < len(data) - 1:
                expected = 1
            else:
                expected = 2
            assert len(cache) == expected, f"truncation at byte {cut}"
            for original, recovered in zip(records, list(cache)):
                assert_records_identical(original, recovered, compare_wall=True)

    def test_bit_rot_is_quarantined_and_compacted(self, tmp_path):
        import json as _json

        records = self._warm_records(2)
        cache = ResultCache(tmp_path, "fp")
        for record in records:
            cache.put(record)
        lines = cache.path.read_text().splitlines()
        # valid JSON, wrong content: only the CRC can catch this
        lines[0] = lines[0].replace('"pdr"', '"qdr"', 1)
        cache.path.write_text("\n".join(lines) + "\n")

        healed = ResultCache(tmp_path, "fp")
        healed.load()
        assert len(healed) == 1
        assert healed.quarantined_lines == 1
        assert healed.compacted
        assert_records_identical(records[1], next(iter(healed)), compare_wall=True)
        sidecar = [
            _json.loads(line)
            for line in healed.quarantine_path.read_text().splitlines()
        ]
        assert len(sidecar) == 1
        assert sidecar[0]["line_number"] == 1
        assert sidecar[0]["reason"]
        assert sidecar[0]["line"] == lines[0]

        # the compacted file is clean: a reload quarantines nothing
        again = ResultCache(tmp_path, "fp")
        again.load()
        assert len(again) == 1
        assert again.quarantined_lines == 0
        assert not again.compacted

    def test_old_format_lines_are_quarantined_and_compacted(self, tmp_path):
        """Lines written before the cache shared the journal's framing —
        a bare v1 record and a ``{"v": 2, "crc", "record"}`` envelope —
        are damage like any other: each is quarantined with a reason
        (one re-simulation, never a wrong answer), and compaction
        rewrites the survivors as framed lines."""
        import json as _json

        from repro.core.journal import frame, payload_crc

        records = self._warm_records(3)
        bodies = [record_to_dict(record) for record in records]
        v1 = _json.dumps(bodies[0])
        v2 = _json.dumps(
            {"v": 2, "crc": payload_crc(bodies[1]), "record": bodies[1]}
        )
        cache = ResultCache(tmp_path, "fp")
        cache.path.write_text(f"{v1}\n{v2}\n{frame(bodies[2])}\n")
        cache.load()
        assert len(cache) == 1
        assert cache.quarantined_lines == 2
        assert cache.compacted
        sidecar = [
            _json.loads(line)
            for line in cache.quarantine_path.read_text().splitlines()
        ]
        assert [item["line"] for item in sidecar] == [v1, v2]
        assert [item["line_number"] for item in sidecar] == [1, 2]
        assert all(item["reason"] for item in sidecar)
        assert cache.path.read_text() == frame(bodies[2]) + "\n"
        assert_records_identical(
            records[2], next(iter(cache)), compare_wall=True
        )

    def test_oracle_survives_damaged_warm_cache(self, tmp_path):
        """End to end: a warm oracle pointed at a damaged cache re-runs
        only the lost record and never aborts."""
        scenario = tiny_scenario(cache_dir=str(tmp_path))
        configs = list(tiny_space().feasible_configurations())[:2]
        cold = SimulationOracle(scenario)
        cold_records = cold.evaluate_many(configs)
        path = cold.disk_cache.path
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-15]  # torn mid-file line
        path.write_text("\n".join(lines) + "\n")

        warm = SimulationOracle(scenario)
        warm_records = warm.evaluate_many(configs)
        assert warm.simulations_run == 1
        assert warm.disk_hits == 1
        for a, b in zip(cold_records, warm_records):
            assert_records_identical(a, b)


class TestResultCacheUnit:
    def test_put_is_idempotent_on_disk(self, tmp_path):
        scenario = tiny_scenario()
        record = SimulationOracle(scenario).evaluate(REFERENCE_CONFIG)
        cache = ResultCache(tmp_path, scenario_fingerprint(scenario))
        cache.put(record)
        cache.put(record)
        with open(cache.path) as fh:
            assert len(fh.readlines()) == 1
        assert len(cache) == 1

    def test_missing_directory_is_created_lazily(self, tmp_path):
        target = tmp_path / "nested" / "cache"
        scenario = tiny_scenario(cache_dir=str(target))
        assert not target.exists()
        SimulationOracle(scenario).evaluate(REFERENCE_CONFIG)
        assert target.exists()
