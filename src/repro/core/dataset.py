"""JSON serialisation of characterization results and trained models.

Characterizing an adder over the full Table III grid with 20 K vectors takes
a while; applications and benchmarks therefore persist the results.  The
format is plain JSON so it stays inspectable and diff-able: a top-level
object with the adder identity, the stimulus configuration, and one record
per triad.  Probability tables are stored as nested lists.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

import numpy as np

from repro.core.carry_model import CarryProbabilityTable
from repro.core.characterization import AdderCharacterization, TriadCharacterization
from repro.core.triad import OperatingTriad

_FORMAT_VERSION = 1


def characterization_to_dict(characterization: AdderCharacterization) -> dict[str, Any]:
    """Convert a characterization (without raw measurements) to plain data."""
    return {
        "format_version": _FORMAT_VERSION,
        "adder_name": characterization.adder_name,
        "width": characterization.width,
        "pattern_kind": characterization.pattern_kind,
        "n_vectors": characterization.n_vectors,
        "seed": characterization.seed,
        "reference_triad": _triad_to_dict(characterization.reference_triad),
        "results": [_entry_to_dict(entry) for entry in characterization.results],
    }


def characterization_from_dict(data: dict[str, Any]) -> AdderCharacterization:
    """Rebuild a characterization from :func:`characterization_to_dict` data."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported characterization format version: {version!r}")
    return AdderCharacterization(
        adder_name=data["adder_name"],
        width=int(data["width"]),
        results=[_entry_from_dict(entry) for entry in data["results"]],
        reference_triad=_triad_from_dict(data["reference_triad"]),
        measurements=[],
        pattern_kind=data.get("pattern_kind", "uniform"),
        n_vectors=int(data.get("n_vectors", 0)),
        seed=int(data.get("seed", 0)),
    )


def save_characterization(
    characterization: AdderCharacterization, path: str | pathlib.Path
) -> None:
    """Write a characterization to a JSON file."""
    payload = characterization_to_dict(characterization)
    pathlib.Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
    )


def load_characterization(path: str | pathlib.Path) -> AdderCharacterization:
    """Read a characterization from a JSON file."""
    payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    return characterization_from_dict(payload)


def save_probability_table(
    table: CarryProbabilityTable, path: str | pathlib.Path
) -> None:
    """Write a carry probability table to a JSON file."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "width": table.width,
        "matrix": table.matrix.tolist(),
    }
    pathlib.Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
    )


# -- helpers -------------------------------------------------------------------


def _triad_to_dict(triad: OperatingTriad) -> dict[str, float]:
    return {"tclk": triad.tclk, "vdd": triad.vdd, "vbb": triad.vbb}


def _triad_from_dict(data: dict[str, float]) -> OperatingTriad:
    return OperatingTriad(
        tclk=float(data["tclk"]), vdd=float(data["vdd"]), vbb=float(data["vbb"])
    )


def _entry_to_dict(entry: TriadCharacterization) -> dict[str, Any]:
    return {
        "triad": _triad_to_dict(entry.triad),
        "ber": entry.ber,
        "mse": entry.mse,
        "bitwise_error": np.asarray(entry.bitwise_error).tolist(),
        "energy_per_operation": entry.energy_per_operation,
        "dynamic_energy_per_operation": entry.dynamic_energy_per_operation,
        "static_energy_per_operation": entry.static_energy_per_operation,
        "faulty_vector_fraction": entry.faulty_vector_fraction,
    }


def _entry_from_dict(data: dict[str, Any]) -> TriadCharacterization:
    return TriadCharacterization(
        triad=_triad_from_dict(data["triad"]),
        ber=float(data["ber"]),
        mse=float(data["mse"]),
        bitwise_error=np.asarray(data["bitwise_error"], dtype=float),
        energy_per_operation=float(data["energy_per_operation"]),
        dynamic_energy_per_operation=float(data["dynamic_energy_per_operation"]),
        static_energy_per_operation=float(data["static_energy_per_operation"]),
        faulty_vector_fraction=float(data["faulty_vector_fraction"]),
    )
