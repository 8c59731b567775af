"""Tests of the incremental Pareto frontier and its persistence."""

import json

import pytest

from repro.core.triad import OperatingTriad
from repro.explore import FrontierPoint, ParetoFrontier


def point(ber, energy, name="rca", width=8, window=None, vdd=1.0):
    return FrontierPoint(
        ber=ber,
        energy_per_operation=energy,
        architecture=name,
        width=width,
        window=window,
        triad=OperatingTriad(tclk=1e-9, vdd=vdd, vbb=0.0),
        mse=0.0,
        n_vectors=1000,
    )


class TestFrontierPoint:
    def test_dominance(self):
        assert point(0.0, 1.0).dominates(point(0.1, 1.0))
        assert point(0.1, 0.5).dominates(point(0.1, 1.0))
        assert not point(0.0, 1.0).dominates(point(0.1, 0.5))
        assert not point(0.1, 1.0).dominates(point(0.1, 1.0))  # equal: no

    def test_validation(self):
        with pytest.raises(ValueError):
            point(1.5, 1.0)
        with pytest.raises(ValueError):
            point(0.1, 0.0)

    def test_operator_name(self):
        assert point(0.0, 1.0).operator_name == "rca8"
        assert point(0.0, 1.0, name="spa", window=4).operator_name == "spa8w4"

    def test_json_round_trip(self):
        original = point(0.25, 3.5e-15, name="spa", window=3)
        assert FrontierPoint.from_json(original.to_json()) == original


class TestParetoFrontier:
    def test_dominated_offer_rejected(self):
        frontier = ParetoFrontier([point(0.0, 1.0)])
        assert not frontier.add(point(0.1, 1.5))
        assert len(frontier) == 1

    def test_accepted_offer_evicts_dominated_points(self):
        frontier = ParetoFrontier([point(0.1, 1.0), point(0.2, 0.8)])
        assert frontier.add(point(0.05, 0.5))
        assert [p.ber for p in frontier] == [0.05]

    def test_incomparable_points_coexist_sorted(self):
        frontier = ParetoFrontier()
        frontier.add_all([point(0.2, 0.5), point(0.0, 1.0), point(0.1, 0.7)])
        assert [p.ber for p in frontier.points] == [0.0, 0.1, 0.2]
        energies = [p.energy_per_operation for p in frontier.points]
        assert energies == sorted(energies, reverse=True)

    def test_exact_duplicate_rejected_but_ties_kept(self):
        frontier = ParetoFrontier([point(0.1, 1.0)])
        assert not frontier.add(point(0.1, 1.0))  # identical
        assert frontier.add(point(0.1, 1.0, name="bka"))  # tie, different config
        assert len(frontier) == 2

    def test_save_load_round_trip(self, tmp_path):
        frontier = ParetoFrontier([point(0.0, 1.0), point(0.2, 0.4, name="spa", window=2)])
        path = tmp_path / "frontier.json"
        frontier.save(path)
        assert ParetoFrontier.load(path) == frontier
        # the file is plain JSON with a format marker
        document = json.loads(path.read_text())
        assert document["format"] == 1
        assert len(document["points"]) == 2

    def test_load_or_empty(self, tmp_path):
        missing = tmp_path / "absent.json"
        assert len(ParetoFrontier.load_or_empty(missing)) == 0
        frontier = ParetoFrontier([point(0.1, 1.0)])
        frontier.save(missing)
        assert ParetoFrontier.load_or_empty(missing) == frontier

    def test_unsupported_format_rejected(self, tmp_path):
        path = tmp_path / "frontier.json"
        path.write_text(json.dumps({"format": 99, "points": []}, sort_keys=True))
        with pytest.raises(ValueError, match="unsupported frontier format"):
            ParetoFrontier.load(path)

    def test_resume_is_idempotent(self, tmp_path):
        frontier = ParetoFrontier([point(0.0, 1.0), point(0.2, 0.4)])
        path = tmp_path / "frontier.json"
        frontier.save(path)
        resumed = ParetoFrontier.load(path)
        assert resumed.add_all(frontier.points) == 0
        assert resumed == frontier
