"""Reports of structural stuck-at fault campaigns.

A fault campaign (the ``repro faults`` job, planned through
:func:`repro.core.sweep.fault_request`) produces one
:class:`~repro.simulation.fault_injection.FaultSimulationResult` per fault
site; this module condenses a campaign into the numbers a test-coverage
review reads -- coverage, undetected sites, highest-impact faults -- and
renders them as a text table like the other analysis generators.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.simulation.fault_injection import FaultSimulationResult, fault_coverage
from repro.synthesis.report import format_table


@dataclasses.dataclass(frozen=True)
class FaultCoverageSummary:
    """Condensed outcome of one stuck-at fault campaign.

    Attributes
    ----------
    n_faults:
        Number of simulated fault sites.
    detected:
        Faults propagated to an observed output by at least one pattern.
    coverage:
        ``detected / n_faults`` (0..1).
    undetected:
        Labels of the untestable faults, in fault order.
    worst:
        The highest-BER detected faults, most severe first.
    """

    n_faults: int
    detected: int
    coverage: float
    undetected: tuple[str, ...]
    worst: tuple[FaultSimulationResult, ...]


def summarize_fault_results(
    results: Sequence[FaultSimulationResult], top_n: int = 10
) -> FaultCoverageSummary:
    """Summarise a fault campaign (coverage plus the ``top_n`` worst faults)."""
    if not results:
        raise ValueError("a fault campaign produced no results")
    if top_n < 0:
        raise ValueError("top_n must be non-negative")
    detected = [result for result in results if result.detected]
    worst = sorted(
        detected, key=lambda result: (-result.ber, result.fault)
    )[:top_n]
    return FaultCoverageSummary(
        n_faults=len(results),
        detected=len(detected),
        coverage=fault_coverage(results),
        undetected=tuple(
            result.fault.label() for result in results if not result.detected
        ),
        worst=tuple(worst),
    )


def render_fault_summary(
    circuit_name: str, n_vectors: int, summary: FaultCoverageSummary
) -> str:
    """Render a fault-campaign summary as a text report."""
    lines = [
        f"{circuit_name}: {summary.n_faults} stuck-at faults, "
        f"{n_vectors} vectors",
        f"coverage: {summary.detected}/{summary.n_faults} detected "
        f"({summary.coverage * 100:.1f}%)",
    ]
    if summary.undetected:
        lines.append("undetected: " + ", ".join(summary.undetected))
    if summary.worst:
        lines.append("")
        lines.append("highest-impact faults")
        rows = [
            (
                result.fault.label(),
                f"{result.ber * 100:.2f}",
                f"{result.faulty_vector_fraction * 100:.1f}",
            )
            for result in summary.worst
        ]
        lines.append(format_table(("Fault", "BER %", "Faulty vectors %"), rows))
    return "\n".join(lines)
