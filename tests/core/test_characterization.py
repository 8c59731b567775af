"""Tests of the characterization flow (Fig. 4)."""

import numpy as np
import pytest

from repro.core.characterization import CharacterizationFlow
from repro.core.triad import OperatingTriad, TriadGrid
from repro.simulation.patterns import PatternConfig


class TestCharacterizationFlow:
    def test_default_grid_has_43_triads_for_benchmarks(self, rca8_characterization):
        assert len(rca8_characterization.results) == 43

    def test_reference_triad_is_error_free(self, rca8_characterization):
        reference = rca8_characterization.find(rca8_characterization.reference_triad)
        assert reference.ber == 0.0
        assert reference.energy_per_operation > 0

    def test_nominal_supply_triads_are_error_free_unless_overclocked(
        self, rca8_characterization
    ):
        clocks = sorted({entry.triad.tclk for entry in rca8_characterization.results})
        nominal_clock = clocks[-2]  # the matched Table III "critical path" clock
        for entry in rca8_characterization.results:
            if entry.triad.vdd >= 0.95 and entry.triad.tclk >= nominal_clock:
                assert entry.ber == 0.0, entry.label()

    def test_deep_over_scaling_produces_errors(self, rca8_characterization):
        deep = [
            entry
            for entry in rca8_characterization.results
            if entry.triad.vdd <= 0.45 and entry.triad.vbb == 0.0
        ]
        assert deep
        assert all(entry.ber > 0.05 for entry in deep)

    def test_energy_decreases_with_supply_at_fixed_clock_and_bias(
        self, rca8_characterization
    ):
        clocks = {entry.triad.tclk for entry in rca8_characterization.results}
        chosen_clock = sorted(clocks)[1]
        entries = [
            entry
            for entry in rca8_characterization.results
            if entry.triad.tclk == chosen_clock and entry.triad.vbb == 0.0
        ]
        entries.sort(key=lambda entry: -entry.triad.vdd)
        energies = [entry.energy_per_operation for entry in entries]
        assert all(later < earlier for earlier, later in zip(energies, energies[1:]))

    def test_bitwise_error_has_output_width_entries(self, rca8_characterization):
        for entry in rca8_characterization.results:
            assert entry.bitwise_error.shape == (9,)

    def test_entry_unit_properties(self, rca8_characterization):
        entry = rca8_characterization.results[0]
        assert entry.ber_percent == pytest.approx(entry.ber * 100)
        assert entry.energy_per_operation_pj == pytest.approx(
            entry.energy_per_operation * 1e12
        )
        assert "," in entry.label()

    def test_find_unknown_triad_raises(self, rca8_characterization):
        with pytest.raises(KeyError):
            rca8_characterization.find(OperatingTriad(1e-9, 0.99, 0.0))

    def test_measurement_lookup(self, rca8_characterization):
        entry = rca8_characterization.results[0]
        measurement = rca8_characterization.measurement_for(entry.triad)
        assert measurement.tclk == pytest.approx(entry.triad.tclk)
        with pytest.raises(KeyError):
            rca8_characterization.measurement_for(OperatingTriad(1e-9, 0.99, 0.0))

    def test_within_ber_and_sorted_by_energy(self, rca8_characterization):
        within = rca8_characterization.within_ber(0.10)
        assert all(entry.ber <= 0.10 for entry in within)
        ordered = rca8_characterization.sorted_by_energy()
        energies = [entry.energy_per_operation for entry in ordered]
        assert energies == sorted(energies, reverse=True)
        with pytest.raises(ValueError):
            rca8_characterization.within_ber(-0.1)

    def test_energy_efficiency_of_reference_is_zero(self, rca8_characterization):
        reference = rca8_characterization.find(rca8_characterization.reference_triad)
        assert rca8_characterization.energy_efficiency_of(reference) == pytest.approx(0.0)

    def test_explicit_triads_and_operands(self, rca8):
        flow = CharacterizationFlow(rca8)
        triad = OperatingTriad(tclk=1e-9, vdd=1.0, vbb=0.0)
        rng = np.random.default_rng(0)
        operands = (rng.integers(0, 256, 300), rng.integers(0, 256, 300))
        characterization = flow.run(triads=[triad], operands=operands)
        assert len(characterization.results) == 1
        assert characterization.pattern_kind == "explicit"
        assert characterization.n_vectors == 300

    def test_triad_grid_instance_accepted(self, rca8):
        flow = CharacterizationFlow(rca8)
        grid = TriadGrid.from_product((1.0,), (1.0, 0.8), (0.0,))
        characterization = flow.run(
            triads=grid, pattern=PatternConfig(n_vectors=200, width=8)
        )
        assert len(characterization.results) == 2

    def test_pattern_width_mismatch_rejected(self, rca8):
        flow = CharacterizationFlow(rca8)
        with pytest.raises(ValueError, match="does not match adder width"):
            flow.run(pattern=PatternConfig(n_vectors=100, width=4))

    def test_keep_measurements_false_drops_raw_data(self, rca8):
        flow = CharacterizationFlow(rca8)
        triad = OperatingTriad(tclk=1e-9, vdd=1.0, vbb=0.0)
        characterization = flow.run(
            triads=[triad],
            pattern=PatternConfig(n_vectors=100, width=8),
            keep_measurements=False,
        )
        assert characterization.measurements == []

    def test_invalid_sta_margin_rejected(self, rca8):
        with pytest.raises(ValueError):
            CharacterizationFlow(rca8, sta_margin=0.5)

    def test_for_benchmark_constructor(self):
        flow = CharacterizationFlow.for_benchmark("bka", 8)
        assert flow.adder.name == "bka8"

    def test_non_benchmark_adder_gets_derived_grid(self):
        flow = CharacterizationFlow.for_benchmark("ksa", 8)
        grid = flow.default_triad_grid()
        assert len(grid) > 20


class TestTriadIndex:
    """The triad-keyed lookup survives post-construction list mutation."""

    def test_find_after_same_length_mutation(self, rca8_characterization):
        import dataclasses

        characterization = dataclasses.replace(
            rca8_characterization, results=list(rca8_characterization.results)
        )
        original = characterization.results[0]
        new_triad = OperatingTriad(tclk=9.9e-9, vdd=1.0, vbb=0.0)
        characterization.results[0] = dataclasses.replace(original, triad=new_triad)
        # The stale lookup comes first: a hit on the removed triad must not
        # serve the old entry out of the outdated index.
        with pytest.raises(KeyError):
            characterization.find(original.triad)
        assert characterization.find(new_triad).triad == new_triad

    def test_find_after_append(self, rca8_characterization):
        import dataclasses

        characterization = dataclasses.replace(rca8_characterization)
        extra = dataclasses.replace(
            characterization.results[0],
            triad=OperatingTriad(tclk=8.8e-9, vdd=0.95, vbb=0.0),
        )
        characterization.results = list(characterization.results) + [extra]
        assert characterization.find(extra.triad) is extra
