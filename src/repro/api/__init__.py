"""Typed Session/Job API: the programmatic facade over every workflow.

Quickstart::

    from repro.api import CharacterizeJob, PatternOptions, Session

    session = Session(store=None)           # store="default" persists sweeps
    result = session.run(
        CharacterizeJob(operator="rca8", pattern=PatternOptions(vectors=2000))
    )
    for entry in result.characterization.sorted_by_energy():
        print(entry.label(), entry.ber_percent, entry.energy_per_operation_pj)

Batch execution with cross-job dedup::

    batch = session.run_batch([
        CharacterizeJob(operator="rca8"),
        Fig5Job(operator="rca8"),           # shares the rca8 sweep units
    ])
    print(batch.report.render())

The package is import-light: submodules load lazily, so the low layers
(e.g. :mod:`repro.explore.space`) can import :mod:`repro.api.spec` -- the
single source of operator-name parsing -- without a circular import.
"""

from __future__ import annotations

from typing import Any

_EXPORTS = {
    # spec
    "OperatorSpec": "repro.api.spec",
    "parse_circuit_spec": "repro.api.spec",
    "parse_windows": "repro.api.spec",
    # options
    "PatternOptions": "repro.api.options",
    "StoreOptions": "repro.api.options",
    "SweepOptions": "repro.api.options",
    # jobs
    "CalibrateJob": "repro.api.jobs",
    "CharacterizeJob": "repro.api.jobs",
    "ExploreJob": "repro.api.jobs",
    "FaultSweepJob": "repro.api.jobs",
    "Fig5Job": "repro.api.jobs",
    "Job": "repro.api.jobs",
    "JOB_TYPES": "repro.api.jobs",
    "MonteCarloJob": "repro.api.jobs",
    "SpeculateJob": "repro.api.jobs",
    "StorePruneJob": "repro.api.jobs",
    "StoreStatsJob": "repro.api.jobs",
    "StoreVerifyJob": "repro.api.jobs",
    "SynthesizeJob": "repro.api.jobs",
    "Table4Job": "repro.api.jobs",
    "job_from_json": "repro.api.jobs",
    "job_to_json": "repro.api.jobs",
    "job_type_name": "repro.api.jobs",
    "jobs_from_document": "repro.api.jobs",
    # results
    "CalibrateResult": "repro.api.results",
    "CharacterizeResult": "repro.api.results",
    "ExploreResult": "repro.api.results",
    "FaultSweepResult": "repro.api.results",
    "Fig5Result": "repro.api.results",
    "MonteCarloResult": "repro.api.results",
    "SpeculateResult": "repro.api.results",
    "StorePruneResult": "repro.api.results",
    "StoreStatsResult": "repro.api.results",
    "StoreVerifyResult": "repro.api.results",
    "SynthesizeResult": "repro.api.results",
    "Table4Result": "repro.api.results",
    # session
    "BatchReport": "repro.api.session",
    "BatchResult": "repro.api.session",
    "DEFAULT_STORE": "repro.api.session",
    "Session": "repro.api.session",
    "SessionError": "repro.api.session",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
