"""Tests of the declarative job layer: validation and JSON round-trips."""

import json

import pytest

from repro.api.jobs import (
    JOB_TYPES,
    CalibrateJob,
    CharacterizeJob,
    ExploreJob,
    FaultSweepJob,
    Fig5Job,
    MonteCarloJob,
    SpeculateJob,
    StoreMigrateJob,
    StorePruneJob,
    StoreStatsJob,
    StoreVerifyJob,
    SynthesizeJob,
    Table4Job,
    job_from_json,
    job_to_json,
    job_type_name,
    jobs_from_document,
)
from repro.api.options import PatternOptions, StoreOptions, SweepOptions


def _round_trip(job):
    """json-module round trip: exactly what the batch file format does."""
    document = json.loads(json.dumps(job_to_json(job), sort_keys=True))
    return job_from_json(document)


ALL_JOBS = [
    SynthesizeJob(operators=("rca8", "spa16w4")),
    CharacterizeJob(operator="bka8", pattern=PatternOptions(vectors=500), output="x.json"),
    Table4Job(datasets=("rca8", "some.json"), vectors=600, seed=3),
    Fig5Job(operator="rca8", supply_voltages=(0.8, 0.5), vectors=700),
    CalibrateJob(operator="rca8", tclk_ns=0.28, vdd=0.6, metric="hamming"),
    SpeculateJob(dataset="char.json", margin=0.2),
    ExploreJob(architectures=("rca",), widths=(8,), windows=("none", 4),
               clock_scales=(1.0,), supply_voltages=(0.5,), body_bias_voltages=(2.0,),
               strategy="exhaustive", budget=2, sweep=SweepOptions(jobs=2)),
    MonteCarloJob(operator="rca8", samples=8, corner="SS", supply_voltages=(0.8, 0.5)),
    FaultSweepJob(operator="rca8", pattern=PatternOptions(vectors=128)),
    StoreStatsJob(),
    StoreVerifyJob(),
    StoreMigrateJob(),
    StorePruneJob(max_entries=5),
]


class TestJsonRoundTrip:
    @pytest.mark.parametrize("job", ALL_JOBS, ids=lambda job: type(job).__name__)
    def test_round_trip_is_identity(self, job):
        assert _round_trip(job) == job

    def test_every_job_type_is_registered(self):
        assert {type(job) for job in ALL_JOBS} == set(JOB_TYPES.values())

    def test_type_tag_round_trips(self):
        for job in ALL_JOBS:
            assert JOB_TYPES[job_type_name(job)] is type(job)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown job type"):
            job_from_json({"type": "frobnicate"})

    def test_missing_type_rejected(self):
        with pytest.raises(ValueError, match="'type' tag"):
            job_from_json({"operator": "rca8"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown CharacterizeJob field"):
            job_from_json({"type": "characterize", "operand": "rca8"})
        with pytest.raises(ValueError, match="unknown SweepOptions field"):
            job_from_json(
                {
                    "type": "characterize",
                    "operator": "rca8",
                    "sweep": {"shared_memory": False},
                }
            )

    def test_document_forms(self):
        entry = {"type": "characterize", "operator": "rca8"}
        assert jobs_from_document([entry]) == [CharacterizeJob(operator="rca8")]
        assert jobs_from_document({"jobs": [entry]}) == [CharacterizeJob(operator="rca8")]

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError, match="no jobs"):
            jobs_from_document({"jobs": []})
        with pytest.raises(ValueError, match="list of jobs"):
            jobs_from_document("characterize")


class TestJobValidation:
    def test_malformed_operator_fails_at_construction(self):
        with pytest.raises(ValueError):
            CharacterizeJob(operator="fancy99x")
        with pytest.raises(ValueError, match="spa<width>w<window>"):
            CharacterizeJob(operator="spa16")
        with pytest.raises(ValueError, match="window"):
            Fig5Job(operator="spa8w8")

    def test_pattern_validated_against_operator_width(self):
        with pytest.raises(ValueError, match="n_vectors must be positive"):
            CharacterizeJob(operator="rca8", pattern=PatternOptions(vectors=0))
        with pytest.raises(ValueError, match="unknown pattern kind"):
            MonteCarloJob(operator="rca8", pattern=PatternOptions(kind="fancy"))

    def test_synthesize_needs_operators(self):
        with pytest.raises(ValueError, match="operators"):
            SynthesizeJob(operators=())

    def test_table4_needs_datasets(self):
        with pytest.raises(ValueError, match="datasets"):
            Table4Job(datasets=())

    def test_fig5_rejects_bad_supplies(self):
        with pytest.raises(ValueError, match="vdd must be positive"):
            Fig5Job(operator="rca8", supply_voltages=(0.8, -0.5))
        with pytest.raises(ValueError, match="supply_voltages"):
            Fig5Job(operator="rca8", supply_voltages=())

    def test_calibrate_validates_triad_and_metric(self):
        with pytest.raises(ValueError, match="vdd must be positive"):
            CalibrateJob(operator="rca8", tclk_ns=0.28, vdd=-1.0)
        with pytest.raises(ValueError, match="body-bias"):
            CalibrateJob(operator="rca8", tclk_ns=0.28, vdd=0.6, vbb=9.0)
        with pytest.raises(ValueError, match="unknown calibration metric"):
            CalibrateJob(operator="rca8", tclk_ns=0.28, vdd=0.6, metric="cosine")

    def test_speculate_margin_range(self):
        with pytest.raises(ValueError, match="margin"):
            SpeculateJob(dataset="x.json", margin=1.5)

    def test_explore_validation(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            ExploreJob(strategy="simulated-annealing")
        with pytest.raises(ValueError, match="budget must be positive"):
            ExploreJob(budget=0)
        with pytest.raises(ValueError, match="requires --robust-quantile"):
            ExploreJob(robust_samples=8)
        with pytest.raises(ValueError, match="robust-quantile"):
            ExploreJob(robust_quantile=1.0)
        with pytest.raises(ValueError, match="clock-scales"):
            ExploreJob(supply_voltages=(0.6,))
        with pytest.raises(ValueError, match="no candidates"):
            ExploreJob(architectures=("rca",), widths=(8,), windows=(8,))
        # the error explains *why* the space is empty (the old CLI printed
        # this as a note before failing)
        with pytest.raises(ValueError, match="window 8 does not fit width 8"):
            ExploreJob(architectures=("rca",), widths=(8,), windows=(8,))
        with pytest.raises(ValueError, match="invalid speculation window"):
            ExploreJob(windows=("sometimes",))

    def test_montecarlo_validation(self):
        with pytest.raises(ValueError, match="samples must be positive"):
            MonteCarloJob(operator="rca8", samples=0)
        with pytest.raises(ValueError, match="margin"):
            MonteCarloJob(operator="rca8", margin=-0.1)
        with pytest.raises(ValueError, match="sigma_vt"):
            MonteCarloJob(operator="rca8", sigma_vt=-0.01)
        with pytest.raises(ValueError, match="vdd must be positive"):
            MonteCarloJob(operator="rca8", supply_voltages=(-0.5,))
        with pytest.raises(ValueError):
            MonteCarloJob(operator="rca8", corner="XT")

    def test_store_prune_validation(self):
        with pytest.raises(ValueError, match="conflicts"):
            StorePruneJob(max_entries=3, prune_all=True)
        with pytest.raises(ValueError, match="prune needs"):
            StorePruneJob()

    def test_sweep_options_validated(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            CharacterizeJob(operator="rca8", sweep=SweepOptions(jobs=0))


class TestStoreOptions:
    def test_conflicting_flags_rejected(self):
        with pytest.raises(ValueError, match="conflicts"):
            StoreOptions(cache_dir="/tmp/x", no_cache=True)

    def test_resolution(self, tmp_path):
        assert StoreOptions(no_cache=True).resolve() is None
        store = StoreOptions(cache_dir=str(tmp_path / "c")).resolve()
        assert store is not None and str(store.root).endswith("c")

    def test_json_round_trip(self):
        options = StoreOptions(cache_dir="/tmp/x")
        assert StoreOptions.from_json(options.to_json()) == options
        with pytest.raises(ValueError, match="unknown StoreOptions field"):
            StoreOptions.from_json({"cachedir": "/tmp/x"})


class TestSweepOptionsPolicy:
    def test_all_defaults_inherit_instead_of_overriding(self):
        assert SweepOptions(jobs=4).policy() is None

    def test_any_resilience_field_builds_a_policy(self):
        from repro.core.resilience import ExecutionPolicy

        policy = SweepOptions(shard_timeout=7.5).policy()
        assert isinstance(policy, ExecutionPolicy)
        assert policy.shard_timeout_s == 7.5
        # Unset fields take the engine defaults.
        defaults = ExecutionPolicy()
        assert policy.max_retries == defaults.max_retries
        assert policy.on_failure == defaults.on_failure

    def test_full_policy_round_trips_every_field(self):
        policy = SweepOptions(
            shard_timeout=30.0, max_retries=5, on_worker_failure="split-and-retry"
        ).policy()
        assert policy.shard_timeout_s == 30.0
        assert policy.max_retries == 5
        assert policy.on_failure == "split-and-retry"

    def test_resilience_fields_validated(self):
        with pytest.raises(ValueError, match="shard_timeout"):
            SweepOptions(shard_timeout=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            SweepOptions(max_retries=-1)
        with pytest.raises(ValueError, match="unknown failure action"):
            SweepOptions(on_worker_failure="panic")

    def test_json_round_trip_keeps_resilience_fields(self):
        options = SweepOptions(
            jobs=2, shard_timeout=10.0, max_retries=1, on_worker_failure="retry"
        )
        assert SweepOptions.from_json(options.to_json()) == options
