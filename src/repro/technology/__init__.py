"""Analytical 28nm FDSOI technology models.

This package replaces the commercial 28nm FDSOI LVT standard-cell library and
the Eldo SPICE simulator used in the paper.  It provides:

* :mod:`repro.technology.fdsoi28` -- the technology parameter set (nominal
  threshold voltage, body-bias coefficient, capacitances, leakage constants).
* :mod:`repro.technology.device` -- transistor-level behaviour: effective
  threshold voltage under body bias, drive current over the full
  sub/near/super-threshold range (EKV-style smooth interpolation).
* :mod:`repro.technology.delay` -- gate delay model built on the drive
  current (a continuous generalisation of the alpha-power law used in the
  paper's Eq. (2)).
* :mod:`repro.technology.power` -- dynamic and leakage energy models
  (``E = C * Vdd**2`` switching energy, sub-threshold leakage).
* :mod:`repro.technology.library` -- a standard-cell library characterised
  from the above models (logical effort, parasitic delay, area, input
  capacitance per cell).
* :mod:`repro.technology.corners` -- process corners and random variability
  used for Monte-Carlo style experiments.
"""

from repro.technology.fdsoi28 import FDSOI28_LVT, TechnologyParameters
from repro.technology.device import (
    effective_threshold_voltage,
    drive_current,
    subthreshold_leakage_current,
)
from repro.technology.delay import GateDelayModel, propagation_delay
from repro.technology.power import (
    switching_energy,
    leakage_power,
    leakage_energy_per_cycle,
    EnergyBreakdown,
)
from repro.technology.library import (
    SUPPORTED_BODY_BIAS_RANGE,
    CellTimingModel,
    StandardCellLibrary,
)
from repro.technology.corners import ProcessCorner

__all__ = [
    "FDSOI28_LVT",
    "TechnologyParameters",
    "effective_threshold_voltage",
    "drive_current",
    "subthreshold_leakage_current",
    "GateDelayModel",
    "propagation_delay",
    "switching_energy",
    "leakage_power",
    "leakage_energy_per_cycle",
    "EnergyBreakdown",
    "CellTimingModel",
    "StandardCellLibrary",
    "SUPPORTED_BODY_BIAS_RANGE",
    "ProcessCorner",
]
