"""Device-level behaviour: threshold voltage, drive current, leakage.

The paper relies on two device effects:

1. Propagation delay grows as the supply voltage approaches the threshold
   voltage (Eq. 2 in the paper), which is what creates timing errors under
   voltage over-scaling (VOS).
2. Body biasing in FDSOI shifts the threshold voltage, so a forward body bias
   recovers speed (and therefore keeps BER at 0%) at a reduced supply.

The drive-current model below is a smooth EKV-style interpolation between the
sub-threshold exponential and the strong-inversion alpha-power law, which is
required because the paper sweeps Vdd from 1.0 V down to 0.4 V -- straight
through the near-threshold region where the plain alpha-power law of Eq. (2)
diverges.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.technology.fdsoi28 import FDSOI28_LVT, TechnologyParameters

ArrayLike = Union[float, np.ndarray]


def effective_threshold_voltage(
    vbb: ArrayLike,
    tech: TechnologyParameters = FDSOI28_LVT,
) -> ArrayLike:
    """Threshold voltage under body bias.

    Forward body bias (positive ``vbb`` for the NMOS well convention used in
    the paper) lowers the threshold voltage linearly with the FDSOI
    body-bias coefficient; reverse bias raises it.  The result is clamped to
    the physically meaningful window ``[vt_min, vt_max]``.

    Parameters
    ----------
    vbb:
        Body-bias voltage in volts (scalar or array).  The paper uses the
        symmetric scheme (+Vbb on NWELL, -Vbb on PWELL) abbreviated to a
        single signed value, sweeping -2 V, 0 V, +2 V.
    tech:
        Technology parameter set.
    """
    vt = tech.vt0 - tech.body_bias_coefficient * np.asarray(vbb, dtype=float)
    return np.clip(vt, tech.vt_min, tech.vt_max)


def inversion_charge_factor(
    vdd: ArrayLike,
    vt: ArrayLike,
    tech: TechnologyParameters = FDSOI28_LVT,
) -> ArrayLike:
    """Normalised inversion-charge term of the EKV interpolation.

    ``q = ln(1 + exp((Vdd - Vt) / (2 n phi_t)))`` -- tends to
    ``(Vdd - Vt) / (2 n phi_t)`` in strong inversion and to
    ``exp((Vdd - Vt) / (2 n phi_t))`` in weak inversion, giving a single
    expression valid across the whole VOS sweep.
    """
    n_phi = 2.0 * tech.subthreshold_slope_factor * tech.thermal_voltage
    x = (np.asarray(vdd, dtype=float) - np.asarray(vt, dtype=float)) / n_phi
    # log1p(exp(x)) computed stably for large |x|.
    return np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))


def drive_current(
    vdd: ArrayLike,
    vbb: ArrayLike = 0.0,
    tech: TechnologyParameters = FDSOI28_LVT,
    drive_strength: float = 1.0,
) -> ArrayLike:
    """Saturation drive current of a unit device at the given operating point.

    The current is ``k * (2 n phi_t)**alpha * q**alpha`` where ``q`` is the
    smooth inversion charge factor.  In strong inversion this reduces to the
    paper's ``k (Vdd - Vt)**alpha``; in weak inversion it becomes the
    exponential sub-threshold current, so delay keeps growing smoothly as the
    supply is over-scaled below the threshold voltage.

    Parameters
    ----------
    vdd:
        Supply voltage (volts).
    vbb:
        Body-bias voltage (volts).
    tech:
        Technology parameters.
    drive_strength:
        Relative transistor width of the cell (1.0 = unit inverter).
    """
    if drive_strength <= 0:
        raise ValueError("drive_strength must be positive")
    vt = effective_threshold_voltage(vbb, tech)
    q = inversion_charge_factor(vdd, vt, tech)
    n_phi = 2.0 * tech.subthreshold_slope_factor * tech.thermal_voltage
    current = tech.current_factor * drive_strength * (n_phi * q) ** tech.alpha
    return current


def subthreshold_leakage_current(
    vdd: ArrayLike,
    vbb: ArrayLike = 0.0,
    tech: TechnologyParameters = FDSOI28_LVT,
    drive_strength: float = 1.0,
) -> ArrayLike:
    """Sub-threshold (off-state) leakage current of a unit device.

    ``I_off = I_0 * exp(-(Vt - Vt0)/(n phi_t)) * (1 - exp(-Vdd/phi_t))``
    scaled with a weak DIBL-like dependence on Vdd.  Reverse body bias
    (negative ``vbb``) raises Vt and therefore cuts leakage exponentially,
    which is why the paper's reverse-biased triads trade speed for leakage.
    The exponential uses the (softer) cell-level ``leakage_slope_factor``.
    """
    vt = effective_threshold_voltage(vbb, tech)
    n_phi = tech.leakage_slope_factor * tech.thermal_voltage
    vdd_arr = np.asarray(vdd, dtype=float)
    dibl = 1.0 + 0.15 * (vdd_arr - tech.vdd_nominal)
    scale = np.exp(-(vt - tech.vt0) / n_phi)
    drain_term = 1.0 - np.exp(-vdd_arr / tech.thermal_voltage)
    leak = tech.leakage_current_nominal * drive_strength * scale * drain_term * dibl
    return np.maximum(leak, 0.0)
