"""Tests of the event-driven reference simulator, its per-gate variability
model and its cross-check with the vectorised engine."""

import numpy as np
import pytest

from repro.circuits.adders import build_adder
from repro.simulation.timing_sim import VosTimingSimulator
from _spice_like import EventDrivenSimulator, VariabilityModel


@pytest.fixture(scope="module")
def rca4():
    return build_adder("rca", 4)


def _scalar_inputs(adder, a, b):
    assignment = adder.input_assignment(np.array([a]), np.array([b]))
    return {port: bool(values[0]) for port, values in assignment.items()}


class TestEventDrivenSimulator:
    def test_settled_values_are_exact(self, rca4):
        simulator = EventDrivenSimulator(rca4.netlist)
        result = simulator.run_cycle(
            _scalar_inputs(rca4, 0, 0), _scalar_inputs(rca4, 7, 9), tclk=5e-9, vdd=1.0
        )
        settled = sum(result.settled[f"s{i}"] << i for i in range(5))
        assert settled == 16

    def test_generous_clock_latches_exact_result(self, rca4):
        simulator = EventDrivenSimulator(rca4.netlist)
        result = simulator.run_cycle(
            _scalar_inputs(rca4, 3, 4), _scalar_inputs(rca4, 15, 1), tclk=5e-9, vdd=1.0
        )
        latched = sum(result.latched[f"s{i}"] << i for i in range(5))
        assert latched == 16

    def test_tiny_clock_latches_stale_result(self, rca4):
        simulator = EventDrivenSimulator(rca4.netlist)
        result = simulator.run_cycle(
            _scalar_inputs(rca4, 0, 0), _scalar_inputs(rca4, 15, 1), tclk=1e-13, vdd=1.0
        )
        latched = sum(result.latched[f"s{i}"] << i for i in range(5))
        assert latched == 0  # previous (0 + 0) result

    def test_settle_time_and_transitions_positive_for_long_carry(self, rca4):
        simulator = EventDrivenSimulator(rca4.netlist)
        result = simulator.run_cycle(
            _scalar_inputs(rca4, 0, 0), _scalar_inputs(rca4, 15, 1), tclk=5e-9, vdd=1.0
        )
        assert result.settle_time > 0.0
        assert result.transition_count >= 5

    def test_variability_requires_rng(self, rca4):
        with pytest.raises(ValueError, match="random generator"):
            EventDrivenSimulator(rca4.netlist, variability=VariabilityModel(0.1))

    def test_variability_changes_latched_outcome_distribution(self, rca4):
        # With large per-gate variation and a clock right at the typical
        # critical path, some seeds fail and some pass.
        model = VariabilityModel(sigma_fraction=0.4)
        outcomes = set()
        from repro.simulation.timing_sim import TimingAnnotation

        tclk = TimingAnnotation.annotate(rca4.netlist, 1.0, 0.0).critical_path_delay
        for seed in range(12):
            simulator = EventDrivenSimulator(
                rca4.netlist, variability=model, rng=np.random.default_rng(seed)
            )
            result = simulator.run_cycle(
                _scalar_inputs(rca4, 0, 0),
                _scalar_inputs(rca4, 15, 1),
                tclk=tclk,
                vdd=1.0,
            )
            outcomes.add(sum(result.latched[f"s{i}"] << i for i in range(5)))
        assert len(outcomes) >= 2

    def test_invalid_tclk_rejected(self, rca4):
        simulator = EventDrivenSimulator(rca4.netlist)
        with pytest.raises(ValueError):
            simulator.run_cycle(
                _scalar_inputs(rca4, 0, 0), _scalar_inputs(rca4, 1, 1), tclk=0.0, vdd=1.0
            )

    def test_missing_input_rejected(self, rca4):
        simulator = EventDrivenSimulator(rca4.netlist)
        with pytest.raises(ValueError, match="missing"):
            simulator.run_cycle({"a0": True}, _scalar_inputs(rca4, 1, 1), tclk=1e-9, vdd=1.0)


class TestCrossCheckWithVectorisedEngine:
    def _run_pair(self, rca4, vectorised, event_driven, prev, cur, tclk, vdd):
        prev_a, prev_b = prev
        cur_a, cur_b = cur
        vec_result = vectorised.run(
            rca4.input_assignment(np.array([cur_a]), np.array([cur_b])),
            tclk=tclk,
            vdd=vdd,
            previous_inputs=rca4.input_assignment(np.array([prev_a]), np.array([prev_b])),
        )
        ed_result = event_driven.run_cycle(
            _scalar_inputs(rca4, prev_a, prev_b),
            _scalar_inputs(rca4, cur_a, cur_b),
            tclk=tclk,
            vdd=vdd,
        )
        ed_word = sum(ed_result.latched[f"s{i}"] << i for i in range(5))
        return int(vec_result.latched_words[0]), ed_word

    def test_both_engines_exact_with_generous_clock(self, rca4):
        vectorised = VosTimingSimulator(rca4.netlist, output_ports=rca4.output_ports())
        event_driven = EventDrivenSimulator(rca4.netlist)
        tclk = vectorised.annotation(1.0, 0.0).critical_path_delay * 1.2
        rng = np.random.default_rng(23)
        for _ in range(25):
            prev = (int(rng.integers(0, 16)), int(rng.integers(0, 16)))
            cur = (int(rng.integers(0, 16)), int(rng.integers(0, 16)))
            vec_word, ed_word = self._run_pair(
                rca4, vectorised, event_driven, prev, cur, tclk, 1.0
            )
            assert vec_word == ed_word == cur[0] + cur[1]

    @pytest.mark.parametrize("vdd", [1.0, 0.7, 0.5])
    def test_engines_report_similar_error_rates(self, rca4, vdd):
        """The two engines must see a similar amount of timing failures.

        The engines differ in the fine structure (the vectorised engine is
        pessimistic about late non-controlling inputs, the event-driven one
        models glitches that can settle after the clock edge), so individual
        faulty words may differ; the fraction of faulty words over a batch of
        random vector pairs has to agree within a coarse tolerance.
        """
        vectorised = VosTimingSimulator(rca4.netlist, output_ports=rca4.output_ports())
        event_driven = EventDrivenSimulator(rca4.netlist)
        tclk = vectorised.annotation(1.0, 0.0).critical_path_delay * 0.8
        rng = np.random.default_rng(31)
        vec_faulty = 0
        ed_faulty = 0
        trials = 40
        for _ in range(trials):
            prev = (int(rng.integers(0, 16)), int(rng.integers(0, 16)))
            cur = (int(rng.integers(0, 16)), int(rng.integers(0, 16)))
            vec_word, ed_word = self._run_pair(
                rca4, vectorised, event_driven, prev, cur, tclk, vdd
            )
            exact = cur[0] + cur[1]
            vec_faulty += vec_word != exact
            ed_faulty += ed_word != exact
        assert abs(vec_faulty - ed_faulty) <= trials // 4
        if vdd <= 0.5:
            # Deep over-scaling: both engines must see widespread failures.
            assert vec_faulty > trials // 4
            assert ed_faulty > trials // 4


class TestVariabilityModel:
    def test_zero_sigma_gives_unit_multipliers(self):
        model = VariabilityModel(sigma_fraction=0.0)
        multipliers = model.sample_multipliers(10, 1.0, np.random.default_rng(0))
        assert np.allclose(multipliers, 1.0)

    def test_sigma_amplified_at_low_voltage(self):
        model = VariabilityModel(sigma_fraction=0.05)
        assert model.sigma_at(0.4) > model.sigma_at(1.0)

    def test_sigma_not_reduced_above_reference(self):
        model = VariabilityModel(sigma_fraction=0.05, reference_vdd=1.0)
        assert model.sigma_at(1.2) == pytest.approx(model.sigma_at(1.0))

    def test_multipliers_have_unit_median(self):
        model = VariabilityModel(sigma_fraction=0.08)
        multipliers = model.sample_multipliers(20000, 1.0, np.random.default_rng(1))
        assert np.median(multipliers) == pytest.approx(1.0, rel=0.05)
        assert np.all(multipliers > 0.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            VariabilityModel(sigma_fraction=-0.1)
        with pytest.raises(ValueError):
            VariabilityModel(reference_vdd=0.0)
        with pytest.raises(ValueError):
            VariabilityModel().sample_multipliers(-1, 1.0, np.random.default_rng(0))
