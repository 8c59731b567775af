"""Typed result objects returned by :meth:`Session.run`.

Each workflow returns structured data -- characterizations, series, frontier
points, distribution statistics -- never printed text.  The ``render()``
methods lower a result to exactly the text the CLI has always printed (the
CLI is a thin adapter: parse args, build job, ``session.run``, print
``result.render()``), and ``to_json()`` serialises the structured data for
downstream tooling (the CLI's ``--json`` mode), so nothing ever needs to
scrape the tables.

Results of sweep-running jobs additionally carry an optional
:class:`~repro.core.resilience.ExecutionReport` in their ``execution``
field -- the fault-recovery accounting of the run (retries, requeues,
fallbacks, recovered shards, wall time lost).  It is deliberately *not*
part of ``render()``: rendered tables stay byte-identical whether or not
faults were recovered (the CLI prints a faulted report to stderr instead).

Every result also carries an optional :class:`~repro.obs.report.RunReport`
in its ``run`` field -- the work accounting :meth:`Session.run` attaches
(simulated units, the execution report, store counter deltas).  It *is*
part of ``to_json()`` under the ``"run"`` key: the report holds counters
only (never wall-clock values or trace paths), so JSON documents stay
byte-identical between traced and untraced runs, and identical between
fault-free and fault-recovered runs of the same work.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from repro.analysis.faults import FaultCoverageSummary, render_fault_summary
from repro.analysis.figures import (
    Fig5Series,
    fig8_ber_energy_series,
    frontier_series,
    render_fig5,
    render_fig8,
    render_frontier,
)
from repro.analysis.tables import (
    RankedConfiguration,
    render_ranked_configurations,
    render_table4,
)
from repro.analysis.variation import (
    render_variation_table,
    render_yield_series,
    yield_vs_vdd_series,
)
from repro.core.carry_model import CarryProbabilityTable
from repro.core.characterization import AdderCharacterization, TriadCharacterization
from repro.core.dataset import characterization_to_dict
from repro.core.energy import EfficiencySummary
from repro.core.resilience import ExecutionReport
from repro.core.store import StoreDiskStats, StoreVerifyReport
from repro.core.triad import OperatingTriad
from repro.explore.search import SearchResult
from repro.obs.report import RunReport
from repro.simulation.fault_injection import FaultSimulationResult
from repro.synthesis.report import render_synthesis_table
from repro.synthesis.synthesize import SynthesisReport
from repro.variation.montecarlo import MonteCarloConfig
from repro.variation.stats import TriadVariationResult


def _triad_json(triad: OperatingTriad) -> dict[str, float]:
    return {"tclk": triad.tclk, "vdd": triad.vdd, "vbb": triad.vbb}


def _run_json(run: RunReport | None) -> dict[str, Any] | None:
    """The ``"run"`` value every result's ``to_json()`` carries."""
    return run.to_json() if run is not None else None


@dataclasses.dataclass(frozen=True)
class SynthesizeResult:
    """Table II style synthesis reports."""

    reports: tuple[SynthesisReport, ...]
    run: RunReport | None = None

    def render(self) -> str:
        """The Table II text table."""
        return render_synthesis_table(self.reports)

    def to_json(self) -> dict[str, Any]:
        """Structured reports (one record per operator)."""
        return {
            "reports": [dataclasses.asdict(report) for report in self.reports],
            "run": _run_json(self.run),
        }


@dataclasses.dataclass(frozen=True)
class CharacterizeResult:
    """One operator's characterization over its triad grid."""

    characterization: AdderCharacterization
    output: str | None = None
    execution: ExecutionReport | None = None
    run: RunReport | None = None

    def render(self) -> str:
        """The Fig. 8 series table (plus the save note when persisted)."""
        text = render_fig8(fig8_ber_energy_series(self.characterization))
        if self.output:
            text += f"\n\nsaved characterization to {self.output}"
        return text

    def to_json(self) -> dict[str, Any]:
        """The characterization dataset document plus the ``"run"`` report.

        The dataset part is exactly the ``--output`` file format; the
        ``"run"`` key rides on top (and is absent from saved datasets).
        """
        document = characterization_to_dict(self.characterization)
        document["run"] = _run_json(self.run)
        return document


def _efficiency_summary_json(entry: EfficiencySummary) -> dict[str, Any]:
    return dataclasses.asdict(entry)


@dataclasses.dataclass(frozen=True)
class Table4Result:
    """Table IV aggregation over one or more characterizations."""

    characterizations: dict[str, AdderCharacterization]
    summaries: dict[str, list[EfficiencySummary]]
    execution: ExecutionReport | None = None
    run: RunReport | None = None

    def render(self) -> str:
        """The Table IV text table."""
        return render_table4(self.summaries)

    def to_json(self) -> dict[str, Any]:
        """Structured per-benchmark BER-range summaries."""
        return {
            "summaries": {
                name: [_efficiency_summary_json(entry) for entry in rows]
                for name, rows in self.summaries.items()
            },
            "run": _run_json(self.run),
        }


@dataclasses.dataclass(frozen=True)
class Fig5Result:
    """Per-bit BER profile of one operator under supply scaling."""

    operator: str
    width: int
    series: tuple[Fig5Series, ...]
    execution: ExecutionReport | None = None
    run: RunReport | None = None

    def render(self) -> str:
        """The per-bit BER text table (one row per supply voltage)."""
        return render_fig5(self.series, self.width)

    def to_json(self) -> dict[str, Any]:
        """Structured series (BER fractions per output bit, LSB first)."""
        return {
            "operator": self.operator,
            "width": self.width,
            "series": [
                {
                    "vdd": entry.vdd,
                    "ber_per_bit": [float(v) for v in np.asarray(entry.ber_per_bit)],
                }
                for entry in self.series
            ],
            "run": _run_json(self.run),
        }


@dataclasses.dataclass(frozen=True)
class CalibrateResult:
    """Algorithm 1 calibration outcome at one operating triad."""

    entry: TriadCharacterization
    table: CarryProbabilityTable
    mean_best_distance: float
    output: str | None = None
    execution: ExecutionReport | None = None
    run: RunReport | None = None

    def render(self) -> str:
        """The calibration summary line (plus the save note when persisted)."""
        lines = [
            f"triad {self.entry.label()}: hardware BER "
            f"{self.entry.ber_percent:.2f}%, "
            f"mean best distance {self.mean_best_distance:.3f}"
        ]
        if self.output:
            lines.append(f"saved probability table to {self.output}")
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        """Structured calibration outcome including the probability table."""
        return {
            "triad": _triad_json(self.entry.triad),
            "ber": self.entry.ber,
            "mean_best_distance": self.mean_best_distance,
            "width": self.table.width,
            "matrix": np.asarray(self.table.matrix).tolist(),
            "run": _run_json(self.run),
        }


@dataclasses.dataclass(frozen=True)
class SpeculateResult:
    """Accurate/approximate operating modes under an error margin."""

    characterization: AdderCharacterization
    margin: float
    accurate: TriadCharacterization
    approximate: TriadCharacterization
    run: RunReport | None = None

    def _saving(self, entry: TriadCharacterization) -> float:
        return self.characterization.energy_efficiency_of(entry)

    def render(self) -> str:
        """The two-mode report."""
        return "\n".join(
            [
                f"error margin: {self.margin * 100:.1f}% BER",
                f"accurate mode   : {self.accurate.label():<24} "
                f"BER {self.accurate.ber_percent:6.2f}% "
                f"saving {self._saving(self.accurate) * 100:6.1f}%",
                f"approximate mode: {self.approximate.label():<24} "
                f"BER {self.approximate.ber_percent:6.2f}% "
                f"saving {self._saving(self.approximate) * 100:6.1f}%",
            ]
        )

    def to_json(self) -> dict[str, Any]:
        """Structured mode selection."""

        def mode(entry: TriadCharacterization) -> dict[str, Any]:
            return {
                "triad": _triad_json(entry.triad),
                "ber": entry.ber,
                "energy_saving": self._saving(entry),
            }

        return {
            "margin": self.margin,
            "accurate": mode(self.accurate),
            "approximate": mode(self.approximate),
            "run": _run_json(self.run),
        }


@dataclasses.dataclass(frozen=True)
class ExploreResult:
    """Design-space search outcome: frontier, ranking, and run notes."""

    search: SearchResult
    ranked: tuple[RankedConfiguration, ...]
    notes: tuple[str, ...] = ()
    frontier_path: str | None = None
    execution: ExecutionReport | None = None
    run: RunReport | None = None

    def render(self) -> str:
        """Notes, run summary, frontier table and ranked-configuration table."""
        result = self.search
        lines = list(self.notes)
        lines.append(
            f"strategy {result.strategy}: {result.total_candidates} candidates, "
            f"{result.screening_evaluations} screened at "
            f"{result.screen_vectors} vectors, "
            f"{result.full_evaluations} evaluated at {result.full_vectors} vectors"
        )
        if result.evaluated_candidates:
            lines.append(
                "paper-fidelity evaluations: "
                + ", ".join(result.evaluated_candidates)
            )
        lines.append("")
        lines.append(render_frontier(frontier_series(result.frontier)))
        lines.append("")
        lines.append(render_ranked_configurations(self.ranked))
        if self.frontier_path:
            lines.append("")
            lines.append(f"saved frontier to {self.frontier_path}")
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        """Structured search outcome (frontier document plus ranking)."""
        result = self.search
        return {
            "strategy": result.strategy,
            "seed": result.seed,
            "total_candidates": result.total_candidates,
            "screened_candidates": list(result.screened_candidates),
            "evaluated_candidates": list(result.evaluated_candidates),
            "full_vectors": result.full_vectors,
            "screen_vectors": result.screen_vectors,
            "frontier": result.frontier.to_json(),
            "ranked": [dataclasses.asdict(row) for row in self.ranked],
            "run": _run_json(self.run),
        }


@dataclasses.dataclass(frozen=True)
class MonteCarloResult:
    """Monte Carlo variation characterization over a supply sweep."""

    operator: str
    config: MonteCarloConfig
    n_vectors: int
    margin: float
    results: tuple[TriadVariationResult, ...]
    execution: ExecutionReport | None = None
    run: RunReport | None = None

    def render(self) -> str:
        """Run header, distribution table, and yield-vs-Vdd series."""
        model = self.config.model
        return "\n".join(
            [
                f"{self.operator} @ corner {self.config.corner.value}: "
                f"{self.config.n_samples} samples, seed {self.config.seed}, "
                f"sigma_vt {model.sigma_vt * 1e3:g} mV, "
                f"sigma_k {model.sigma_current_factor * 100:g}%, "
                f"{self.n_vectors} vectors",
                "",
                render_variation_table(self.results, self.margin),
                "",
                render_yield_series(
                    yield_vs_vdd_series(self.results, self.margin), self.margin
                ),
            ]
        )

    def to_json(self) -> dict[str, Any]:
        """Structured distribution/yield statistics per triad."""
        model = self.config.model
        return {
            "operator": self.operator,
            "corner": self.config.corner.value,
            "samples": self.config.n_samples,
            "seed": self.config.seed,
            "sigma_vt": model.sigma_vt,
            "sigma_current": model.sigma_current_factor,
            "n_vectors": self.n_vectors,
            "margin": self.margin,
            "triads": [
                {
                    "triad": _triad_json(result.triad),
                    "ber": dataclasses.asdict(result.ber),
                    "energy": dataclasses.asdict(result.energy),
                    "yield": result.yield_at(self.margin),
                }
                for result in self.results
            ],
            "run": _run_json(self.run),
        }


@dataclasses.dataclass(frozen=True)
class FaultSweepResult:
    """Stuck-at fault campaign outcome."""

    operator: str
    n_vectors: int
    results: tuple[FaultSimulationResult, ...]
    summary: FaultCoverageSummary
    execution: ExecutionReport | None = None
    run: RunReport | None = None

    def render(self) -> str:
        """The campaign coverage report."""
        return render_fault_summary(self.operator, self.n_vectors, self.summary)

    def to_json(self) -> dict[str, Any]:
        """Structured per-fault outcomes plus the coverage summary."""
        return {
            "operator": self.operator,
            "n_vectors": self.n_vectors,
            "coverage": self.summary.coverage,
            "detected": self.summary.detected,
            "n_faults": self.summary.n_faults,
            "undetected": list(self.summary.undetected),
            "faults": [
                {
                    "fault": result.fault.label(),
                    "detected": result.detected,
                    "ber": result.ber,
                    "faulty_vector_fraction": result.faulty_vector_fraction,
                }
                for result in self.results
            ],
            "run": _run_json(self.run),
        }


@dataclasses.dataclass(frozen=True)
class StoreStatsResult:
    """Entry count and on-disk footprint of the result store."""

    root: str
    stats: StoreDiskStats
    io_errors: int = 0
    run: RunReport | None = None

    def render(self) -> str:
        """The ``repro store stats`` report."""
        lines = [
            f"store root : {self.root}",
            f"entries    : {self.stats.entries}",
            f"total bytes: {self.stats.total_bytes}",
        ]
        if self.stats.entries:
            span = (self.stats.newest_mtime or 0.0) - (self.stats.oldest_mtime or 0.0)
            lines.append(f"age span   : {span:.0f} s between oldest and newest entry")
        if self.stats.quarantined:
            lines.append(f"quarantined: {self.stats.quarantined} corrupt entries")
        if self.io_errors:
            lines.append(f"io errors  : {self.io_errors}")
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        """Structured store statistics."""
        return {
            "root": self.root,
            **dataclasses.asdict(self.stats),
            "io_errors": self.io_errors,
            "run": _run_json(self.run),
        }


@dataclasses.dataclass(frozen=True)
class StoreVerifyResult:
    """Outcome of an fsck pass over the result store."""

    root: str
    report: StoreVerifyReport
    run: RunReport | None = None

    def render(self) -> str:
        """The ``repro store verify`` report."""
        lines = [
            f"store root : {self.root}",
            f"scanned    : {self.report.scanned}",
            f"valid      : {self.report.valid}",
            f"quarantined: {self.report.quarantined}",
        ]
        if self.report.io_errors:
            lines.append(f"io errors  : {self.report.io_errors}")
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        """Structured verification outcome."""
        return {
            "root": self.root,
            **dataclasses.asdict(self.report),
            "run": _run_json(self.run),
        }


@dataclasses.dataclass(frozen=True)
class StorePruneResult:
    """Outcome of bounding the result store."""

    root: str
    removed: int
    stats: StoreDiskStats
    run: RunReport | None = None

    def render(self) -> str:
        """The ``repro store prune`` report line."""
        return (
            f"pruned {self.removed} entries; {self.stats.entries} entries "
            f"({self.stats.total_bytes} bytes) remain in {self.root}"
        )

    def to_json(self) -> dict[str, Any]:
        """Structured prune outcome."""
        return {
            "root": self.root,
            "removed": self.removed,
            **dataclasses.asdict(self.stats),
            "run": _run_json(self.run),
        }
