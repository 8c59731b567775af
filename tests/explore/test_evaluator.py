"""Tests of the cached, sharded candidate evaluator."""

import pytest

from repro.circuits.operators import OperatorSpec
from repro.core.characterization import CharacterizationFlow
from repro.core.store import SweepResultStore
from repro.explore import CandidateEvaluator, DesignSpace, TriadSpec
from repro.simulation.patterns import PatternConfig

SMALL_TRIADS = TriadSpec(
    clock_scales=(1.0, 0.6),
    supply_voltages=(1.0, 0.5),
    body_bias_voltages=(0.0,),
)


@pytest.fixture(scope="module")
def small_space():
    return DesignSpace.from_axes(("rca", "bka"), (8,), (None, 4), triads=SMALL_TRIADS)


class TestCandidateEvaluator:
    def test_points_cover_the_grid_in_order(self, small_space):
        evaluator = CandidateEvaluator(small_space)
        candidate = OperatorSpec("rca", 8)
        evaluation = evaluator.evaluate(candidate, 300)
        flow = CharacterizationFlow(candidate.build())
        grid = SMALL_TRIADS.grid_for(flow)
        assert [p.triad for p in evaluation.points] == list(grid)
        assert all(p.n_vectors == 300 for p in evaluation.points)
        assert evaluation.reference_energy > 0

    def test_speculative_candidate_has_functional_error_floor(self, small_space):
        evaluator = CandidateEvaluator(small_space)
        evaluation = evaluator.evaluate(OperatorSpec("spa", 8, 4), 400)
        nominal = max(
            evaluation.points,
            key=lambda p: (p.triad.vdd, p.triad.tclk),
        )
        # Even the relaxed nominal triad keeps the design-time error floor.
        assert nominal.ber > 0

    def test_stats_track_fidelities(self, small_space):
        evaluator = CandidateEvaluator(small_space)
        evaluator.evaluate(OperatorSpec("rca", 8), 200)
        evaluator.evaluate(OperatorSpec("rca", 8), 400)
        evaluator.evaluate(OperatorSpec("bka", 8), 400)
        assert evaluator.stats.candidate_evaluations == 3
        assert evaluator.evaluations_at(200) == 1
        assert evaluator.evaluations_at(400) == 2
        assert evaluator.stats.triad_evaluations == 3 * 4

    def test_results_identical_across_jobs_and_cache(self, small_space, tmp_path):
        candidate = OperatorSpec("rca", 8)
        cold = CandidateEvaluator(small_space)
        warm_store = SweepResultStore(tmp_path / "store")
        warm_writer = CandidateEvaluator(small_space, store=warm_store, jobs=2)
        warm_reader = CandidateEvaluator(small_space, store=warm_store)
        reference = cold.evaluate(candidate, 500)
        sharded = warm_writer.evaluate(candidate, 500)
        cached = warm_reader.evaluate(candidate, 500)
        for other in (sharded, cached):
            assert [p.ber for p in other.points] == [p.ber for p in reference.points]
            assert [p.energy_per_operation for p in other.points] == [
                p.energy_per_operation for p in reference.points
            ]
        # the third run answered entirely from the store
        assert warm_store.stats.hits >= len(reference.points)

    def test_exploration_shares_keys_with_characterization(self, tmp_path):
        """`repro characterize` warm entries satisfy explore lookups."""
        store = SweepResultStore(tmp_path / "store")
        flow = CharacterizationFlow.for_benchmark("rca", 8)
        config = PatternConfig(n_vectors=300, width=8, seed=2017, kind="uniform")
        flow.run(pattern=config, keep_measurements=False, store=store)
        stored = store.stats.stores
        assert stored > 0

        space = DesignSpace.from_axes(("rca",), (8,), (None,))  # Table III triads
        evaluator = CandidateEvaluator(space, store=store, seed=2017)
        evaluation = evaluator.evaluate(OperatorSpec("rca", 8), 300)
        assert store.stats.stores == stored  # nothing new was simulated
        assert store.stats.hits >= len(evaluation.points)

    def test_input_validation(self, small_space):
        with pytest.raises(ValueError):
            CandidateEvaluator(small_space, jobs=0)
        evaluator = CandidateEvaluator(small_space)
        with pytest.raises(ValueError):
            evaluator.evaluate(OperatorSpec("rca", 8), 0)

    def test_seed_changes_the_stimulus(self, small_space):
        one = CandidateEvaluator(small_space, seed=1)
        two = CandidateEvaluator(small_space, seed=2)
        candidate = OperatorSpec("rca", 8)
        bers_one = [p.ber for p in one.evaluate(candidate, 400).points]
        bers_two = [p.ber for p in two.evaluate(candidate, 400).points]
        assert bers_one != bers_two


class TestRobustScoring:
    def test_robust_quantile_replaces_nominal_ber(self, small_space):
        from repro.variation import MonteCarloConfig

        candidate = OperatorSpec("rca", 8)
        nominal = CandidateEvaluator(small_space, seed=2017).evaluate(candidate, 400)
        robust = CandidateEvaluator(
            small_space,
            seed=2017,
            variation=MonteCarloConfig(n_samples=8, seed=2017),
            robust_quantile=0.95,
        ).evaluate(candidate, 400)
        by_triad_nominal = {p.triad: p for p in nominal.points}
        faulty = [p for p in robust.points if p.ber > 0]
        assert faulty, "expected faulty triads on the over-scaled grid"
        # The 95th-percentile BER over variation can only be >= the per-die
        # spread's lower tail; on faulty triads it differs from nominal.
        assert any(
            p.ber != by_triad_nominal[p.triad].ber for p in faulty
        )
        # Error-free triads stay error-free across sampled variation at the
        # relaxed nominal point.
        relaxed = max(robust.points, key=lambda p: (p.triad.vdd, p.triad.tclk))
        assert relaxed.ber == by_triad_nominal[relaxed.triad].ber == 0.0

    def test_robust_scoring_is_deterministic_and_cached(self, tmp_path, small_space):
        from repro.variation import MonteCarloConfig

        store = SweepResultStore(tmp_path / "store")
        candidate = OperatorSpec("rca", 8)

        def build():
            return CandidateEvaluator(
                small_space,
                seed=2017,
                store=store,
                variation=MonteCarloConfig(n_samples=6, seed=3),
                robust_quantile=0.9,
            )

        first = build().evaluate(candidate, 300)
        stored = store.stats.stores
        second = build().evaluate(candidate, 300)
        assert store.stats.stores == stored  # fully answered from the store
        assert [p.ber for p in first.points] == [p.ber for p in second.points]
        assert [p.energy_per_operation for p in first.points] == [
            p.energy_per_operation for p in second.points
        ]

    def test_invalid_robust_quantile_rejected(self, small_space):
        with pytest.raises(ValueError):
            CandidateEvaluator(small_space, robust_quantile=1.5)
