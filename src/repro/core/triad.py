"""Operating triads: (clock period, supply voltage, body-bias voltage).

The paper controls the energy/accuracy trade-off exclusively through the
*operating triad* ``(Tclk, Vdd, Vbb)`` of the hardware operator.  Table III
lists the triads simulated per adder: four clock periods (taken from the
synthesis timing reports), supply voltages from 1.0 V down to 0.4 V in 0.1 V
steps, and body-bias voltages of -2 V, 0 V and +2 V.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator, Sequence

from repro.technology.library import SUPPORTED_BODY_BIAS_RANGE


@dataclasses.dataclass(frozen=True, order=True)
class OperatingTriad:
    """One operating point of a VOS-scaled operator.

    Attributes
    ----------
    tclk:
        Clock period in seconds.
    vdd:
        Supply voltage in volts.
    vbb:
        Body-bias voltage in volts (signed; positive = forward body bias).
    """

    tclk: float
    vdd: float
    vbb: float

    def __post_init__(self) -> None:
        if self.tclk <= 0:
            raise ValueError("tclk must be positive")
        if self.vdd <= 0:
            raise ValueError("vdd must be positive")
        low, high = SUPPORTED_BODY_BIAS_RANGE
        if not low <= self.vbb <= high:
            # Reject unsupported body bias here instead of letting the delay
            # lookup silently clamp the threshold voltage much later.
            raise ValueError(
                f"vbb {self.vbb:g} V is outside the library's supported "
                f"body-bias range [{low:g}, {high:g}] V"
            )

    @property
    def tclk_ns(self) -> float:
        """Clock period in nanoseconds (the unit used in the paper's labels)."""
        return self.tclk * 1e9

    def label(self) -> str:
        """The paper's x-axis label format: ``Tclk(ns),Vdd(V),Vbb(V)``."""
        vbb_text = "±2" if abs(self.vbb) == 2.0 else f"{self.vbb:g}"
        return f"{self.tclk_ns:g},{self.vdd:g},{vbb_text}"

    def replace(self, **changes: float) -> "OperatingTriad":
        """Return a copy with selected fields replaced."""
        return dataclasses.replace(self, **changes)


#: Clock periods (ns) per benchmark, from the paper's Table III.  The first
#: entry of each list is the relaxed clock, the second the synthesis-reported
#: critical path at 1.0 V, the remaining ones are over-clocked periods.
PAPER_CLOCK_PERIODS_NS: dict[str, tuple[float, ...]] = {
    "rca8": (0.5, 0.28, 0.19, 0.13),
    "bka8": (0.5, 0.19, 0.13, 0.064),
    "rca16": (0.7, 0.53, 0.25, 0.20),
    "bka16": (0.7, 0.25, 0.20, 0.15),
}

#: Supply voltages (V) swept by the paper: 1.0 V down to 0.4 V in 0.1 V steps.
PAPER_SUPPLY_VOLTAGES: tuple[float, ...] = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4)

#: Body-bias voltages (V) swept by the paper.
PAPER_BODY_BIAS_VOLTAGES: tuple[float, ...] = (-2.0, 0.0, 2.0)

#: Critical path (ns) reported by the paper's synthesis (Table II).  Each
#: benchmark's second Table III clock equals its critical path.
PAPER_CRITICAL_PATHS_NS: dict[str, float] = {
    "rca8": 0.28,
    "bka8": 0.19,
    "rca16": 0.53,
    "bka16": 0.25,
}


class TriadGrid:
    """An ordered collection of operating triads.

    The grid is the Cartesian product of clock periods, supply voltages and
    body-bias voltages, optionally filtered.  Iteration order is
    deterministic (sorted by clock period descending, then Vdd descending,
    then Vbb ascending) so experiment outputs are reproducible.
    """

    def __init__(self, triads: Sequence[OperatingTriad]) -> None:
        if not triads:
            raise ValueError("a triad grid needs at least one triad")
        unique = sorted(set(triads), key=lambda t: (-t.tclk, -t.vdd, t.vbb))
        self._triads: tuple[OperatingTriad, ...] = tuple(unique)

    @classmethod
    def from_product(
        cls,
        clock_periods_ns: Sequence[float],
        supply_voltages: Sequence[float] = PAPER_SUPPLY_VOLTAGES,
        body_bias_voltages: Sequence[float] = PAPER_BODY_BIAS_VOLTAGES,
    ) -> "TriadGrid":
        """Build the Cartesian-product grid (Table III style)."""
        triads = [
            OperatingTriad(tclk=tclk_ns * 1e-9, vdd=vdd, vbb=vbb)
            for tclk_ns, vdd, vbb in itertools.product(
                clock_periods_ns, supply_voltages, body_bias_voltages
            )
        ]
        return cls(triads)

    def __iter__(self) -> Iterator[OperatingTriad]:
        return iter(self._triads)

    def __len__(self) -> int:
        return len(self._triads)

    def __getitem__(self, index: int) -> OperatingTriad:
        return self._triads[index]

    @property
    def triads(self) -> tuple[OperatingTriad, ...]:
        """All triads in deterministic order."""
        return self._triads

    def filter(
        self,
        min_vdd: float | None = None,
        max_vdd: float | None = None,
        vbb_values: Sequence[float] | None = None,
    ) -> "TriadGrid":
        """Return a sub-grid restricted by supply / body-bias constraints."""
        selected = [
            triad
            for triad in self._triads
            if (min_vdd is None or triad.vdd >= min_vdd)
            and (max_vdd is None or triad.vdd <= max_vdd)
            and (vbb_values is None or triad.vbb in set(vbb_values))
        ]
        return TriadGrid(selected)

    def nominal(self) -> OperatingTriad:
        """The reference (ideal) triad: slowest clock, highest Vdd, no body bias.

        The paper computes energy efficiency "compared to the ideal test
        case", which is the relaxed clock at nominal supply without body
        bias.
        """
        candidates = [t for t in self._triads if t.vbb == 0.0]
        pool = candidates or list(self._triads)
        return max(pool, key=lambda t: (t.vdd, t.tclk))


def benchmark_triad_grid(clock_periods_ns: Sequence[float]) -> TriadGrid:
    """Build the paper's 43-triad structure from a benchmark's clock list.

    Reading the labels of Fig. 8 shows the evaluation does not sweep the full
    Cartesian product of Table III: the *relaxed* clock (the first entry of
    the benchmark's clock list) is only run at the nominal supply without
    body bias -- it is the "ideal test case" energy reference -- while the
    remaining three clocks are swept over all supply voltages with either no
    body bias or the symmetric +/-2 V forward body-bias scheme.  That yields
    ``1 + 3 * 7 * 2 = 43`` operating triads per adder, matching the paper's
    "43 operating triads".
    """
    if len(clock_periods_ns) < 2:
        raise ValueError("a benchmark clock list needs at least two periods")
    relaxed, *aggressive = clock_periods_ns
    triads = [OperatingTriad(tclk=relaxed * 1e-9, vdd=PAPER_SUPPLY_VOLTAGES[0], vbb=0.0)]
    for tclk_ns, vdd, vbb in itertools.product(
        aggressive, PAPER_SUPPLY_VOLTAGES, (0.0, 2.0)
    ):
        triads.append(OperatingTriad(tclk=tclk_ns * 1e-9, vdd=vdd, vbb=vbb))
    return TriadGrid(triads)


def matched_triad_grid(adder_name: str, measured_critical_path: float) -> TriadGrid:
    """Table III grid rescaled to this substrate's own critical path.

    The paper picks its clock periods from *its* synthesis timing report.
    Because the analytical library of this reproduction does not land on
    exactly the same absolute delays, using the paper's nanosecond values
    verbatim would shift every triad's over-/under-clocking ratio.  This
    helper preserves the paper's ratios instead: each Table III clock period
    is scaled by ``measured_critical_path / paper_critical_path``, so "the
    nominal clock", "1.8x relaxed", "30% over-clocked" and so on mean the
    same thing for this substrate as they do in the paper.

    Parameters
    ----------
    adder_name:
        One of the paper's benchmarks (``"rca8"`` ...).
    measured_critical_path:
        This substrate's synthesised critical path of the same adder, in
        seconds (e.g. from
        :class:`repro.synthesis.StaticTimingAnalysis`).
    """
    if measured_critical_path <= 0:
        raise ValueError("measured_critical_path must be positive")
    name = adder_name.lower()
    try:
        periods = PAPER_CLOCK_PERIODS_NS[name]
        paper_critical = PAPER_CRITICAL_PATHS_NS[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {adder_name!r}; "
            f"available: {', '.join(sorted(PAPER_CLOCK_PERIODS_NS))}"
        ) from None
    scale = (measured_critical_path * 1e9) / paper_critical
    scaled = tuple(round(period * scale, 4) for period in periods)
    return benchmark_triad_grid(scaled)
