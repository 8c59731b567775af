"""Tests of the JSON serialisation layer."""

import json

import numpy as np
import pytest

from repro.core.carry_model import CarryProbabilityTable
from repro.core.dataset import (
    characterization_from_dict,
    characterization_to_dict,
    load_characterization,
    save_characterization,
    save_probability_table,
)


class TestCharacterizationSerialisation:
    def test_roundtrip_preserves_results(self, rca8_characterization, tmp_path):
        path = tmp_path / "rca8.json"
        save_characterization(rca8_characterization, path)
        loaded = load_characterization(path)
        assert loaded.adder_name == rca8_characterization.adder_name
        assert loaded.width == rca8_characterization.width
        assert len(loaded.results) == len(rca8_characterization.results)
        assert loaded.reference_triad == rca8_characterization.reference_triad
        for original, restored in zip(rca8_characterization.results, loaded.results):
            assert restored.triad == original.triad
            assert restored.ber == pytest.approx(original.ber)
            assert restored.energy_per_operation == pytest.approx(
                original.energy_per_operation
            )
            assert np.allclose(restored.bitwise_error, original.bitwise_error)

    def test_raw_measurements_not_serialised(self, rca8_characterization, tmp_path):
        path = tmp_path / "rca8.json"
        save_characterization(rca8_characterization, path)
        loaded = load_characterization(path)
        assert loaded.measurements == []

    def test_loaded_characterization_supports_analysis(
        self, rca8_characterization, tmp_path
    ):
        from repro.core.energy import summarize_by_ber_range

        path = tmp_path / "rca8.json"
        save_characterization(rca8_characterization, path)
        loaded = load_characterization(path)
        summaries = summarize_by_ber_range(loaded)
        assert len(summaries) == 4

    def test_unsupported_version_rejected(self, rca8_characterization):
        data = characterization_to_dict(rca8_characterization)
        data["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            characterization_from_dict(data)


class TestProbabilityTableSerialisation:
    def test_roundtrip(self, tmp_path):
        """The file ``repro calibrate --output`` writes holds the whole table."""
        counts = np.zeros((9, 9))
        for length in range(9):
            counts[max(length - 2, 0), length] = 3
            counts[length, length] = 1
        table = CarryProbabilityTable.from_counts(8, counts)
        path = tmp_path / "table.json"
        save_probability_table(table, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["format_version"] == 1
        loaded = CarryProbabilityTable(
            width=int(payload["width"]),
            probabilities=np.asarray(payload["matrix"], dtype=float),
        )
        assert loaded == table
