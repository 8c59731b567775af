"""Declarative design spaces over operator configuration and triad ranges.

A *candidate* is one operator configuration, an
:class:`~repro.circuits.operators.OperatorSpec`: an adder architecture, an
operand bit-width, and optionally a carry-speculation window.  A *design
point* is a candidate evaluated at one operating triad; the triad axes are
part of the space too, either as the paper's matched Table III grid or as
dense clock-scale x supply x body-bias ranges beyond it.

The space is purely declarative: iteration order is deterministic, nothing
is simulated here.  Lowering a candidate to a circuit is
:meth:`OperatorSpec.build`; lowering the triad axes to a concrete grid (which
depends on the candidate's own critical path) is :meth:`TriadSpec.grid_for`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator, Sequence

from repro.circuits.adders import ADDER_GENERATORS, SPECULATIVE_ARCHITECTURE
from repro.circuits.operators import OperatorSpec
from repro.core.characterization import CharacterizationFlow
from repro.core.triad import (
    PAPER_BODY_BIAS_VOLTAGES,
    PAPER_SUPPLY_VOLTAGES,
    TriadGrid,
)
from repro.technology.library import SUPPORTED_BODY_BIAS_RANGE


@dataclasses.dataclass(frozen=True)
class TriadSpec:
    """The triad axes of a design space.

    With ``clock_scales=None`` (the default) every candidate uses its
    benchmark's matched Table III grid
    (:meth:`repro.core.characterization.CharacterizationFlow.default_triad_grid`),
    which is exactly what ``repro characterize`` sweeps -- exploration and
    characterization then share warm result-store entries.

    With explicit ``clock_scales`` the grid is the dense Cartesian product of
    ``clock_scales`` (relative to the candidate's guard-banded critical path,
    so "0.7" means 30 % over-clocked for *every* candidate regardless of its
    absolute speed) with the supply and body-bias ranges.
    """

    clock_scales: tuple[float, ...] | None = None
    supply_voltages: tuple[float, ...] = PAPER_SUPPLY_VOLTAGES
    body_bias_voltages: tuple[float, ...] = PAPER_BODY_BIAS_VOLTAGES

    def __post_init__(self) -> None:
        if self.clock_scales is not None:
            if not self.clock_scales:
                raise ValueError("clock_scales must not be empty")
            if any(scale <= 0 for scale in self.clock_scales):
                raise ValueError("clock scales must be positive")
        if not self.supply_voltages or any(v <= 0 for v in self.supply_voltages):
            raise ValueError("supply_voltages must be positive and non-empty")
        if not self.body_bias_voltages:
            raise ValueError("body_bias_voltages must not be empty")
        low, high = SUPPORTED_BODY_BIAS_RANGE
        for vbb in self.body_bias_voltages:
            # Fail at declaration time with the same contract OperatingTriad
            # enforces, not deep inside the first candidate's grid.
            if not low <= vbb <= high:
                raise ValueError(
                    f"body bias {vbb:g} V is outside the library's supported "
                    f"range [{low:g}, {high:g}] V"
                )

    def grid_for(self, flow: CharacterizationFlow) -> TriadGrid:
        """Concrete triad grid of one candidate's characterization flow."""
        if self.clock_scales is None:
            return flow.default_triad_grid()
        critical_ns = flow.guard_banded_critical_path() * 1e9
        periods = tuple(
            round(critical_ns * scale, 4) for scale in sorted(set(self.clock_scales))
        )
        return TriadGrid.from_product(
            periods, self.supply_voltages, self.body_bias_voltages
        )


@dataclasses.dataclass(frozen=True)
class DesignSpace:
    """A declarative operator design space.

    The candidate set is the product ``architectures x widths`` for the
    non-speculative axis plus ``widths x speculation_windows`` for the
    speculative family (the window-bounded carry structure replaces the base
    prefix network, so speculative candidates collapse the architecture
    axis).  Windows that do not fit a width (``window >= width``) are
    skipped.

    Attributes
    ----------
    architectures:
        Adder architecture tags drawn from
        :data:`repro.circuits.adders.ADDER_GENERATORS`.
    widths:
        Operand widths (the paper uses 8/16; wider ones stress the
        generators, up to the 61-bit limit of
        :func:`~repro.circuits.operators.check_result_width`).
    speculation_windows:
        ``None`` entries select the plain architectures; integer entries add
        the speculative operator with that carry window.
    triads:
        The triad axes, shared by every candidate.
    """

    architectures: tuple[str, ...] = ("rca", "bka")
    widths: tuple[int, ...] = (8, 16)
    speculation_windows: tuple[int | None, ...] = (None,)
    triads: TriadSpec = dataclasses.field(default_factory=TriadSpec)

    def __post_init__(self) -> None:
        if not self.architectures:
            raise ValueError("architectures must not be empty")
        for architecture in self.architectures:
            if architecture not in ADDER_GENERATORS:
                raise ValueError(
                    f"unknown adder architecture {architecture!r}; "
                    f"available: {', '.join(sorted(ADDER_GENERATORS))}"
                )
        if not self.widths or any(width <= 0 for width in self.widths):
            raise ValueError("widths must be positive and non-empty")
        if not self.speculation_windows:
            raise ValueError("speculation_windows must not be empty")
        for window in self.speculation_windows:
            if window is not None and window <= 0:
                raise ValueError("speculation windows must be positive (or None)")

    def candidates(self) -> tuple[OperatorSpec, ...]:
        """All candidates in deterministic (sorted, deduplicated) order."""
        seen: set[OperatorSpec] = set()
        for architecture, width, window in itertools.product(
            sorted(set(self.architectures)),
            sorted(set(self.widths)),
            sorted(set(self.speculation_windows), key=lambda w: (w is not None, w or 0)),
        ):
            if window is None:
                seen.add(OperatorSpec(architecture, width))
            elif window < width:
                seen.add(OperatorSpec(SPECULATIVE_ARCHITECTURE, width, window))
        return tuple(sorted(seen))

    def skipped_windows(self) -> tuple[tuple[int, int], ...]:
        """``(width, window)`` pairs dropped because the window does not fit.

        Exposed so front-ends can tell the user which speculative
        configurations the declared axes did *not* produce instead of
        silently shrinking the space.
        """
        skipped = [
            (width, window)
            for width in sorted(set(self.widths))
            for window in sorted({w for w in self.speculation_windows if w})
            if window >= width
        ]
        return tuple(skipped)

    def __len__(self) -> int:
        return len(self.candidates())

    def __iter__(self) -> Iterator[OperatorSpec]:
        return iter(self.candidates())

    @classmethod
    def table3_subspace(cls, triads: TriadSpec | None = None) -> "DesignSpace":
        """The paper's Table III configurations (RCA/BKA at 8 and 16 bits)."""
        return cls(
            architectures=("rca", "bka"),
            widths=(8, 16),
            speculation_windows=(None,),
            triads=triads or TriadSpec(),
        )

    @classmethod
    def from_axes(
        cls,
        architectures: Sequence[str],
        widths: Sequence[int],
        speculation_windows: Sequence[int | None] = (None,),
        triads: TriadSpec | None = None,
    ) -> "DesignSpace":
        """Convenience constructor from plain sequences (CLI entry point)."""
        return cls(
            architectures=tuple(architectures),
            widths=tuple(widths),
            speculation_windows=tuple(speculation_windows),
            triads=triads or TriadSpec(),
        )
