"""Behavioural potentiostat model (paper Fig. 1).

"A potentiostat circuit keeps the electric potential of the reference and
working electrodes — as well as the interposed fluid — to a value that can
be fixed or variable with respect to ground."

The classic realisation (Fig. 1) is a control amplifier driving the counter
electrode so that the RE tracks the setpoint while the WE is held at
virtual ground by the transimpedance stage.  The behavioural model captures
the non-idealities that matter to the acquisition chain:

- finite open-loop gain → a multiplicative regulation error,
- input offset voltage → an additive setpoint error,
- compliance limits → the CE drive clips when the cell demands more
  voltage than the supply allows (large currents through the solution
  resistance),
- finite control bandwidth → first-order settling after setpoint steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.units import ensure_finite, ensure_positive

__all__ = ["Potentiostat"]


@dataclass(frozen=True)
class Potentiostat:
    """Control-amplifier potentiostat with finite gain and compliance.

    Parameters
    ----------
    open_loop_gain:
        DC gain of the control amplifier (dimensionless, e.g. 1e5).
    input_offset:
        Input-referred offset voltage, volts.
    compliance:
        Maximum |voltage| the CE driver can deliver, volts.
    bandwidth:
        Closed-loop control bandwidth, Hz.
    solution_resistance:
        Uncompensated solution resistance between CE and RE, ohms; with
        the cell current it sets the CE drive voltage the compliance must
        cover.
    power:
        Static power draw, watts (used by the platform cost model).
    area_mm2:
        Silicon area, mm^2 (cost model).
    """

    open_loop_gain: float = 1.0e5
    input_offset: float = 0.2e-3
    compliance: float = 1.5
    bandwidth: float = 1.0e4
    solution_resistance: float = 1.0e3
    power: float = 150.0e-6
    area_mm2: float = 0.05

    def __post_init__(self) -> None:
        ensure_positive(self.open_loop_gain, "open_loop_gain")
        ensure_finite(self.input_offset, "input_offset")
        ensure_positive(self.compliance, "compliance")
        ensure_positive(self.bandwidth, "bandwidth")
        ensure_positive(self.solution_resistance, "solution_resistance")
        ensure_positive(self.power, "power")
        ensure_positive(self.area_mm2, "area_mm2")

    # -- static regulation -------------------------------------------------------

    def applied_potential(self, e_setpoint):
        """Actual WE-RE potential for a setpoint (scalar or array), volts.

        Finite gain scales the setpoint by G/(1+G); the offset adds
        through the same divider.  Values beyond what compliance can
        sustain (with zero cell current) clip.
        """
        e = np.asarray(e_setpoint, dtype=float)
        closed = self.open_loop_gain / (1.0 + self.open_loop_gain)
        out = closed * (e + self.input_offset)
        out = np.clip(out, -self.compliance, self.compliance)
        return float(out) if e.ndim == 0 else out

    def regulation_error(self, e_setpoint):
        """Setpoint minus actual potential, volts."""
        e = np.asarray(e_setpoint, dtype=float)
        err = e - self.applied_potential(e)
        return float(err) if e.ndim == 0 else err

    # -- compliance ---------------------------------------------------------------

    def counter_drive(self, e_setpoint: float, cell_current: float) -> float:
        """Voltage the CE driver must supply, volts.

        The drive covers the setpoint plus the IR drop through the
        solution: ``|E| + |i| * R_solution``.
        """
        ensure_finite(e_setpoint, "e_setpoint")
        ensure_finite(cell_current, "cell_current")
        return abs(e_setpoint) + abs(cell_current) * self.solution_resistance

    def max_cell_current(self, e_setpoint: float) -> float:
        """Largest |cell current| drivable at ``e_setpoint``, amperes."""
        ensure_finite(e_setpoint, "e_setpoint")
        headroom = self.compliance - abs(e_setpoint)
        if headroom <= 0.0:
            return 0.0
        return headroom / self.solution_resistance

    # -- dynamics -------------------------------------------------------------------

    @property
    def settling_time_constant(self) -> float:
        """First-order time constant of the control loop, seconds."""
        return 1.0 / (2.0 * math.pi * self.bandwidth)

    def settled_after(self, t: float, tolerance: float = 0.01) -> bool:
        """True when a step has settled to within ``tolerance`` after ``t``."""
        ensure_positive(tolerance, "tolerance")
        if t < 0.0:
            return False
        return math.exp(-t / self.settling_time_constant) <= tolerance

    def settle_time(self, tolerance: float = 0.01) -> float:
        """Time to settle within ``tolerance`` of a setpoint step, seconds."""
        ensure_positive(tolerance, "tolerance")
        if tolerance >= 1.0:
            return 0.0
        return -self.settling_time_constant * math.log(tolerance)

    def step_response(self, t, e_step: float = 1.0):
        """Normalised step response e(t) = e_step*(1 - exp(-t/tau))."""
        t_arr = np.asarray(t, dtype=float)
        out = e_step * (1.0 - np.exp(-np.clip(t_arr, 0.0, None)
                                     / self.settling_time_constant))
        return float(out) if t_arr.ndim == 0 else out
