"""Energy and power models.

The paper's energy argument is the quadratic dependence of switching energy
on the supply voltage (``E_total = Vdd**2 * Cload``) plus the observation
that scaling the clock alone does not save energy (it only stretches the same
charge transfer over a longer period while leakage keeps integrating).  Both
effects are modelled here:

* :func:`switching_energy`        -- ``alpha * C * Vdd**2`` dynamic energy,
* :func:`leakage_power`           -- static power at the operating point,
* :func:`leakage_energy_per_cycle`-- static power integrated over ``Tclk``.
"""

from __future__ import annotations

import dataclasses
from typing import Union

import numpy as np

from repro.technology.device import subthreshold_leakage_current
from repro.technology.fdsoi28 import FDSOI28_LVT, TechnologyParameters

ArrayLike = Union[float, np.ndarray]


def switching_energy(
    capacitance: ArrayLike,
    vdd: ArrayLike,
    activity: ArrayLike = 1.0,
) -> ArrayLike:
    """Dynamic energy of (dis)charging ``capacitance`` with given activity.

    ``E = activity * C * Vdd**2`` -- the activity factor is the average number
    of output transitions per cycle (0.5 * toggle probability for a full
    rail-to-rail charge/discharge pair counted as one CV^2).
    """
    cap = np.asarray(capacitance, dtype=float)
    act = np.asarray(activity, dtype=float)
    if np.any(cap < 0):
        raise ValueError("capacitance must be non-negative")
    if np.any(act < 0):
        raise ValueError("activity must be non-negative")
    return act * cap * np.asarray(vdd, dtype=float) ** 2


def leakage_power(
    vdd: ArrayLike,
    vbb: ArrayLike = 0.0,
    tech: TechnologyParameters = FDSOI28_LVT,
    device_width: float = 1.0,
) -> ArrayLike:
    """Static power ``P = I_off * Vdd`` of a block of given total device width."""
    i_off = subthreshold_leakage_current(vdd, vbb, tech, drive_strength=device_width)
    return i_off * np.asarray(vdd, dtype=float)


def leakage_energy_per_cycle(
    vdd: ArrayLike,
    vbb: ArrayLike,
    tclk: ArrayLike,
    tech: TechnologyParameters = FDSOI28_LVT,
    device_width: float = 1.0,
) -> ArrayLike:
    """Leakage energy integrated over one clock period.

    This term is why merely slowing the clock does not improve energy per
    operation: the leakage contribution grows linearly with ``Tclk``.
    """
    tclk_arr = np.asarray(tclk, dtype=float)
    if np.any(tclk_arr < 0):
        raise ValueError("tclk must be non-negative")
    return leakage_power(vdd, vbb, tech, device_width) * tclk_arr


@dataclasses.dataclass(frozen=True)
class EnergyBreakdown:
    """Dynamic + static energy of one operation, in joules."""

    dynamic: float
    static: float

    def __post_init__(self) -> None:
        if self.dynamic < 0 or self.static < 0:
            raise ValueError("energy components must be non-negative")

    @property
    def total(self) -> float:
        """Total energy per operation in joules."""
        return self.dynamic + self.static

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            dynamic=self.dynamic + other.dynamic,
            static=self.static + other.static,
        )

    def scaled(self, factor: float) -> "EnergyBreakdown":
        """Return the breakdown multiplied by a non-negative factor."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return EnergyBreakdown(self.dynamic * factor, self.static * factor)
