"""Dynamic speculation: runtime triad selection under an error margin.

The paper proposes (citing its companion ISVLSI 2016 work) to monitor the
error rate at run time and switch the operating triad dynamically so the
operator always runs at the most energy-efficient point that still honours a
user-defined error-tolerance margin.  This module implements that control
loop at the functional level:

* the controller is initialised with an :class:`AdderCharacterization`
  (the offline knowledge of which triad produces which BER/energy),
* at run time it receives per-window error observations (e.g. from a
  double-sampling shadow register or an application-level checker),
* it keeps a smoothed BER estimate and moves along the Pareto front: towards
  more aggressive triads while the margin has head-room, back towards safer
  triads when the margin is violated.
"""

from __future__ import annotations

import dataclasses

from repro.core.characterization import AdderCharacterization, TriadCharacterization
from repro.core.energy import pareto_front
from repro.core.triad import OperatingTriad


@dataclasses.dataclass(frozen=True)
class SpeculationDecision:
    """Outcome of one control-loop step.

    Attributes
    ----------
    triad:
        The operating triad selected for the next window.
    estimated_ber:
        The controller's smoothed BER estimate after the observation.
    switched:
        True when the triad changed relative to the previous window.
    energy_efficiency:
        Offline energy saving of the selected triad versus the nominal triad.
    """

    triad: OperatingTriad
    estimated_ber: float
    switched: bool
    energy_efficiency: float


class DynamicSpeculationController:
    """Runtime triad selector with hysteresis.

    Parameters
    ----------
    characterization:
        Offline characterization of the operator.
    error_margin:
        Maximum tolerated BER (fraction, e.g. ``0.10`` for 10 %).
    smoothing:
        Exponential smoothing factor of the BER estimate (0 < smoothing <= 1;
        1 uses only the latest window).
    headroom:
        Fraction of the margin kept as guard band before stepping to a more
        aggressive triad (0.1 means: only speed up while the estimate stays
        below 90 % of the margin).
    """

    def __init__(
        self,
        characterization: AdderCharacterization,
        error_margin: float,
        smoothing: float = 0.3,
        headroom: float = 0.1,
    ) -> None:
        if not 0.0 <= error_margin <= 1.0:
            raise ValueError("error_margin must be within [0, 1]")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be within (0, 1]")
        if not 0.0 <= headroom < 1.0:
            raise ValueError("headroom must be within [0, 1)")
        self._characterization = characterization
        self._margin = error_margin
        self._smoothing = smoothing
        self._headroom = headroom
        self._front = pareto_front(characterization)
        if not self._front:
            raise ValueError("the characterization has no Pareto-optimal triads")
        # Offline knowledge is static: resolve each front entry's energy
        # efficiency once instead of re-deriving it on every control step.
        self._front_efficiency = [
            characterization.energy_efficiency_of(entry) for entry in self._front
        ]
        self._index = self._initial_index()
        self._estimate = self.current_entry().ber

    def _initial_index(self) -> int:
        """Start at the most aggressive triad already satisfying the margin."""
        best = 0
        for index, entry in enumerate(self._front):
            if entry.ber <= self._margin:
                best = index
        return best

    # -- public state ------------------------------------------------------------

    @property
    def error_margin(self) -> float:
        """The user-defined BER tolerance."""
        return self._margin

    @property
    def estimated_ber(self) -> float:
        """Current smoothed BER estimate."""
        return self._estimate

    def current_entry(self) -> TriadCharacterization:
        """Characterization entry of the currently selected triad."""
        return self._front[self._index]

    # -- control loop --------------------------------------------------------------

    def observe(self, window_ber: float) -> SpeculationDecision:
        """Feed one error-rate observation and (possibly) switch triads.

        Parameters
        ----------
        window_ber:
            Measured BER over the last observation window (fraction).
        """
        if window_ber < 0 or window_ber > 1:
            raise ValueError("window_ber must be within [0, 1]")
        previous_index = self._index
        self._estimate = (
            self._smoothing * window_ber + (1.0 - self._smoothing) * self._estimate
        )

        if self._estimate > self._margin:
            # Margin violated: back off towards the accurate end of the front.
            if self._index > 0:
                self._index -= 1
        elif self._estimate <= self._margin * (1.0 - self._headroom):
            # Comfortable head-room: try the next, more aggressive triad, but
            # only if its offline BER also honours the margin.
            if (
                self._index + 1 < len(self._front)
                and self._front[self._index + 1].ber <= self._margin
            ):
                self._index += 1

        entry = self.current_entry()
        return SpeculationDecision(
            triad=entry.triad,
            estimated_ber=self._estimate,
            switched=self._index != previous_index,
            energy_efficiency=self._front_efficiency[self._index],
        )

    def run_trace(self, window_bers: list[float]) -> list[SpeculationDecision]:
        """Run the controller over a sequence of window observations."""
        return [self.observe(ber) for ber in window_bers]

    def accurate_mode(self) -> TriadCharacterization:
        """The most energy-efficient error-free entry (the paper's accurate mode)."""
        error_free = [
            index for index, entry in enumerate(self._front) if entry.ber == 0.0
        ]
        if not error_free:
            return self._front[0]
        return self._front[max(error_free, key=self._front_efficiency.__getitem__)]

    def approximate_mode(self) -> TriadCharacterization:
        """The most energy-efficient entry within the error margin."""
        within = [
            index
            for index, entry in enumerate(self._front)
            if entry.ber <= self._margin
        ]
        if not within:
            return self._front[0]
        return self._front[max(within, key=self._front_efficiency.__getitem__)]
