"""Tests of the dynamic speculation controller."""

import pytest

from repro.core.energy import pareto_front
from repro.core.speculation import DynamicSpeculationController


class TestControllerConstruction:
    def test_initial_triad_honours_margin(self, rca8_characterization):
        controller = DynamicSpeculationController(rca8_characterization, error_margin=0.10)
        assert controller.current_entry().ber <= 0.10

    def test_zero_margin_starts_error_free(self, rca8_characterization):
        controller = DynamicSpeculationController(rca8_characterization, error_margin=0.0)
        assert controller.current_entry().ber == 0.0

    def test_invalid_parameters_rejected(self, rca8_characterization):
        with pytest.raises(ValueError):
            DynamicSpeculationController(rca8_characterization, error_margin=1.5)
        with pytest.raises(ValueError):
            DynamicSpeculationController(rca8_characterization, 0.1, smoothing=0.0)
        with pytest.raises(ValueError):
            DynamicSpeculationController(rca8_characterization, 0.1, headroom=1.0)

    def test_modes_exposed(self, rca8_characterization):
        controller = DynamicSpeculationController(rca8_characterization, error_margin=0.10)
        accurate = controller.accurate_mode()
        approximate = controller.approximate_mode()
        assert accurate.ber == 0.0
        assert approximate.ber <= 0.10
        assert rca8_characterization.energy_efficiency_of(
            approximate
        ) >= rca8_characterization.energy_efficiency_of(accurate)

    def test_accurate_to_approximate_mode_gains_energy(self, rca8_characterization):
        """The paper's headline: switching from accurate to approximate mode
        buys a double-digit energy-efficiency jump at bounded BER."""
        controller = DynamicSpeculationController(rca8_characterization, error_margin=0.10)
        gain = rca8_characterization.energy_efficiency_of(
            controller.approximate_mode()
        ) - rca8_characterization.energy_efficiency_of(controller.accurate_mode())
        assert gain > 0.05


class TestControlLoop:
    def test_margin_violation_backs_off(self, rca8_characterization):
        controller = DynamicSpeculationController(
            rca8_characterization, error_margin=0.10, smoothing=1.0
        )
        start_ber = controller.current_entry().ber
        decision = controller.observe(0.5)
        assert decision.estimated_ber == pytest.approx(0.5)
        assert controller.current_entry().ber <= start_ber

    def test_headroom_allows_speed_up(self, rca8_characterization):
        controller = DynamicSpeculationController(
            rca8_characterization, error_margin=0.10, smoothing=1.0
        )
        # Force the controller to the accurate end, then feed zero errors.
        for _ in range(len(pareto_front(rca8_characterization))):
            controller.observe(1.0)
        assert controller.current_entry().ber == 0.0
        for _ in range(len(pareto_front(rca8_characterization))):
            controller.observe(0.0)
        assert controller.current_entry().ber <= 0.10
        assert rca8_characterization.energy_efficiency_of(
            controller.current_entry()
        ) >= rca8_characterization.energy_efficiency_of(controller.accurate_mode())

    def test_never_selects_triad_above_margin_offline_ber(self, rca8_characterization):
        controller = DynamicSpeculationController(
            rca8_characterization, error_margin=0.05, smoothing=0.5
        )
        for observation in [0.0, 0.01, 0.0, 0.02, 0.0, 0.0, 0.01, 0.0]:
            decision = controller.observe(observation)
            assert decision.triad in {
                entry.triad for entry in pareto_front(rca8_characterization)
            }
            assert controller.current_entry().ber <= 0.05

    def test_run_trace_returns_one_decision_per_window(self, rca8_characterization):
        controller = DynamicSpeculationController(rca8_characterization, error_margin=0.10)
        decisions = controller.run_trace([0.0, 0.05, 0.2, 0.0])
        assert len(decisions) == 4
        assert all(0.0 <= d.estimated_ber <= 1.0 for d in decisions)

    def test_invalid_observation_rejected(self, rca8_characterization):
        controller = DynamicSpeculationController(rca8_characterization, error_margin=0.10)
        with pytest.raises(ValueError):
            controller.observe(1.5)

    def test_smoothing_filters_spikes(self, rca8_characterization):
        controller = DynamicSpeculationController(
            rca8_characterization, error_margin=0.10, smoothing=0.1
        )
        baseline = controller.estimated_ber
        controller.observe(1.0)
        assert controller.estimated_ber < 1.0
        assert controller.estimated_ber > baseline


class TestControllerEdgeCases:
    def _single_triad_characterization(self, rca8_characterization):
        from repro.core.characterization import AdderCharacterization

        entry = rca8_characterization.results[0]
        return AdderCharacterization(
            adder_name=rca8_characterization.adder_name,
            width=rca8_characterization.width,
            results=[entry],
            reference_triad=entry.triad,
        )

    def test_empty_characterization_rejected(self, rca8_characterization):
        from repro.core.characterization import AdderCharacterization

        empty = AdderCharacterization(
            adder_name="rca8",
            width=8,
            results=[],
            reference_triad=rca8_characterization.reference_triad,
        )
        with pytest.raises(ValueError, match="no Pareto-optimal triads"):
            DynamicSpeculationController(empty, error_margin=0.10)

    def test_single_triad_front_never_switches(self, rca8_characterization):
        characterization = self._single_triad_characterization(rca8_characterization)
        controller = DynamicSpeculationController(characterization, error_margin=0.10)
        assert len(pareto_front(characterization)) == 1
        decisions = controller.run_trace([0.0, 0.5, 1.0, 0.0])
        assert all(not decision.switched for decision in decisions)
        assert all(
            decision.triad == characterization.results[0].triad
            for decision in decisions
        )

    def test_single_triad_front_modes_collapse(self, rca8_characterization):
        characterization = self._single_triad_characterization(rca8_characterization)
        controller = DynamicSpeculationController(characterization, error_margin=0.10)
        only = characterization.results[0]
        assert controller.accurate_mode() == only
        assert controller.approximate_mode() == only

    def test_margin_exactly_met_is_honoured(self, rca8_characterization):
        """A triad whose offline BER equals the margin exactly is eligible."""
        controller = DynamicSpeculationController(rca8_characterization, error_margin=0.10)
        front = pareto_front(rca8_characterization)
        exact_margin = front[len(front) // 2].ber
        if exact_margin == 0.0:
            pytest.skip("characterized front has no faulty mid entry")
        exact = DynamicSpeculationController(
            rca8_characterization, error_margin=exact_margin
        )
        assert exact.approximate_mode().ber <= exact_margin
        # the boundary triad itself is selectable, not excluded
        eligible = [entry for entry in front if entry.ber <= exact_margin]
        assert any(entry.ber == exact_margin for entry in eligible)

    def test_estimate_exactly_at_margin_does_not_back_off(self, rca8_characterization):
        controller = DynamicSpeculationController(
            rca8_characterization, error_margin=0.10, smoothing=1.0, headroom=0.1
        )
        start = controller.current_entry()
        decision = controller.observe(0.10)  # estimate == margin exactly
        assert decision.estimated_ber == pytest.approx(0.10)
        # margin not violated (strict >), headroom not satisfied: stay put
        assert not decision.switched
        assert controller.current_entry() == start
