"""Process corners and random variability.

The paper notes that FDSOI's resistance to random dopant fluctuation is one
reason near-threshold operation becomes practical, and that any physical-level
approximation method must account for variability on top of the deliberate
approximation.  This module provides the small amount of machinery needed to
run such sensitivity experiments: fixed process corners (rescaled parameter
sets) and the per-gate local-mismatch model of the Monte Carlo runs.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.technology.library import StandardCellLibrary

from repro.technology.device import (
    effective_threshold_voltage,
    inversion_charge_factor,
)
from repro.technology.fdsoi28 import FDSOI28_LVT, TechnologyParameters


class ProcessCorner(enum.Enum):
    """Classic five-corner naming: (NMOS, PMOS) = slow/typical/fast."""

    TYPICAL = "TT"
    SLOW = "SS"
    FAST = "FF"
    SLOW_NMOS_FAST_PMOS = "SF"
    FAST_NMOS_SLOW_PMOS = "FS"


#: Multiplicative adjustments applied to (current_factor, vt offset) per corner.
_CORNER_ADJUSTMENTS: dict[ProcessCorner, tuple[float, float]] = {
    ProcessCorner.TYPICAL: (1.00, 0.000),
    ProcessCorner.SLOW: (0.85, +0.030),
    ProcessCorner.FAST: (1.15, -0.030),
    ProcessCorner.SLOW_NMOS_FAST_PMOS: (0.95, +0.010),
    ProcessCorner.FAST_NMOS_SLOW_PMOS: (1.05, -0.010),
}


def apply_corner(
    corner: ProcessCorner,
    tech: TechnologyParameters = FDSOI28_LVT,
) -> TechnologyParameters:
    """Return the technology parameter set shifted to a process corner."""
    current_scale, vt_shift = _CORNER_ADJUSTMENTS[corner]
    return tech.with_overrides(
        name=f"{tech.name}-{corner.value}",
        current_factor=tech.current_factor * current_scale,
        vt0=min(max(tech.vt0 + vt_shift, tech.vt_min), tech.vt_max),
    )


def corner_library(
    corner: ProcessCorner, library: "StandardCellLibrary | None" = None
) -> "StandardCellLibrary":
    """A :class:`~repro.technology.library.StandardCellLibrary` at a corner.

    The returned library shares the cell descriptions of ``library`` (default:
    the package default library) but binds them to the corner-shifted
    technology parameters, so every delay/energy/leakage query -- and the
    library fingerprint of the sweep result store -- reflects the corner.
    """
    from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary

    base = DEFAULT_LIBRARY if library is None else library
    return StandardCellLibrary(
        tech=apply_corner(corner, base.technology),
        cells={name: base.cell(name) for name in base.cell_names},
    )


@dataclasses.dataclass(frozen=True)
class GateVariationModel:
    """Per-gate local-mismatch model in *device parameter* space.

    Rather than perturbing delays directly (with a hand-tuned low-voltage
    amplification), this model perturbs the two physical parameters the
    corner table also adjusts -- the strong-inversion current factor and the
    threshold voltage -- and derives delay and leakage multipliers *through
    the device equations*.  The supply dependence then
    comes out of the physics: near threshold the drive current is exponential
    in Vt, so the same mV-level Vt mismatch produces far larger delay spread
    at 0.5 V than at 1.0 V, which is exactly the regime the paper's VOS sweep
    operates in.

    Attributes
    ----------
    sigma_current_factor:
        Relative (log-normal, unit-median) standard deviation of the per-gate
        current factor ``k`` -- geometry/mobility mismatch.
    sigma_vt:
        Standard deviation in volts of the per-gate threshold-voltage offset
        (Pelgrom mismatch; FDSOI's undoped channel keeps this small).
    """

    sigma_current_factor: float = 0.06
    sigma_vt: float = 0.012

    def __post_init__(self) -> None:
        if self.sigma_current_factor < 0:
            raise ValueError("sigma_current_factor must be non-negative")
        if self.sigma_vt < 0:
            raise ValueError("sigma_vt must be non-negative")

    def sample_gate_parameters(
        self, n_gates: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw one ``(current-factor multiplier, Vt offset)`` pair per gate.

        The draw order is part of the determinism contract of the Monte
        Carlo subsystem (identical seeds must give identical instances), so
        both arrays are always drawn even at zero sigma.
        """
        if n_gates < 0:
            raise ValueError("n_gates must be non-negative")
        current = rng.lognormal(
            mean=0.0, sigma=self.sigma_current_factor, size=n_gates
        )
        vt_offset = rng.normal(loc=0.0, scale=self.sigma_vt, size=n_gates)
        return current, vt_offset

    def key_components(self) -> dict[str, float]:
        """JSON-serialisable identity of the model (result-store key part)."""
        return {
            "sigma_current_factor": self.sigma_current_factor,
            "sigma_vt": self.sigma_vt,
        }


def variation_delay_multipliers(
    current_multipliers: np.ndarray,
    vt_offsets: np.ndarray,
    vdd: float,
    vbb: float = 0.0,
    tech: TechnologyParameters = FDSOI28_LVT,
) -> np.ndarray:
    """Per-gate delay multipliers of sampled device parameters.

    Delay is inversely proportional to drive current, so the multiplier of a
    gate is ``I_nominal / I_varied`` evaluated through the same EKV-style
    charge interpolation the delay model uses
    (:func:`repro.technology.device.inversion_charge_factor`).  The arrays
    broadcast: pass ``(n_instances, n_gates)`` matrices to lower a whole
    Monte Carlo batch at once.
    """
    vt_nominal = effective_threshold_voltage(vbb, tech)
    q_nominal = inversion_charge_factor(vdd, vt_nominal, tech)
    q_varied = inversion_charge_factor(
        vdd, vt_nominal + np.asarray(vt_offsets, dtype=float), tech
    )
    current = np.asarray(current_multipliers, dtype=float)
    if np.any(current <= 0):
        raise ValueError("current-factor multipliers must be positive")
    return (q_nominal / q_varied) ** tech.alpha / current


def variation_leakage_multipliers(
    current_multipliers: np.ndarray,
    vt_offsets: np.ndarray,
    tech: TechnologyParameters = FDSOI28_LVT,
) -> np.ndarray:
    """Per-gate leakage-power multipliers of sampled device parameters.

    Sub-threshold leakage scales with device width (the current-factor
    multiplier) and exponentially with the threshold offset through the
    cell-level leakage slope -- the same dependence
    :func:`repro.technology.device.subthreshold_leakage_current` applies to
    the corner-shifted ``vt0``.
    """
    current = np.asarray(current_multipliers, dtype=float)
    if np.any(current <= 0):
        raise ValueError("current-factor multipliers must be positive")
    slope = tech.leakage_slope_factor * tech.thermal_voltage
    return current * np.exp(-np.asarray(vt_offsets, dtype=float) / slope)
