"""Battery model.

Open-circuit voltage as a function of state of charge, plus internal
resistance producing voltage sag under load.  The paper powers devices from
a Monsoon *instead of* the battery to remove battery state as a variance
source — this model exists so that substitution is a choice the library
user makes too (and so the LG G5's battery-vs-Monsoon comparison in
Figure 10 can be reproduced).

Solving for terminal voltage under a constant-power load:

    V = OCV − I·R  and  I = P / V   ⟹   V = (OCV + sqrt(OCV² − 4·P·R)) / 2
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import BatteryError, ConfigurationError, SimulationError
from repro.units import mwh_to_joules


@dataclass(frozen=True)
class BatterySpec:
    """Static battery parameters.

    Attributes
    ----------
    capacity_mah:
        Rated capacity, milliamp-hours.
    nominal_v:
        Voltage printed on the label (the LG G5 prints 3.85 V).
    max_v:
        Fully-charged voltage (the LG G5 prints 4.4 V).
    internal_resistance_ohm:
        Series resistance producing sag under load.
    ocv_curve:
        (state-of-charge, open-circuit-voltage) anchors, SoC ascending.
    """

    capacity_mah: float
    nominal_v: float
    max_v: float
    internal_resistance_ohm: float = 0.12
    ocv_curve: Tuple[Tuple[float, float], ...] = (
        (0.00, 3.30),
        (0.05, 3.55),
        (0.20, 3.68),
        (0.50, 3.80),
        (0.80, 4.05),
        (1.00, 4.35),
    )

    def __post_init__(self) -> None:
        if self.capacity_mah <= 0:
            raise ConfigurationError("capacity_mah must be positive")
        if self.internal_resistance_ohm < 0:
            raise ConfigurationError("internal_resistance_ohm must be non-negative")
        if len(self.ocv_curve) < 2:
            raise ConfigurationError("ocv_curve needs at least two anchors")
        socs = [soc for soc, _ in self.ocv_curve]
        if socs != sorted(socs) or socs[0] != 0.0 or socs[-1] != 1.0:
            raise ConfigurationError("ocv_curve must ascend from SoC 0.0 to 1.0")

    @property
    def energy_capacity_j(self) -> float:
        """Approximate full-charge energy, joules (capacity × nominal V)."""
        return mwh_to_joules(self.capacity_mah * self.nominal_v)

    def ocv_v(self, state_of_charge: float) -> float:
        """Open-circuit voltage at a state of charge, volts."""
        if not 0.0 <= state_of_charge <= 1.0:
            raise ConfigurationError("state_of_charge must be within [0, 1]")
        curve = self.ocv_curve
        for (soc_lo, v_lo), (soc_hi, v_hi) in zip(curve, curve[1:]):
            if soc_lo <= state_of_charge <= soc_hi:
                frac = (state_of_charge - soc_lo) / (soc_hi - soc_lo)
                return v_lo + frac * (v_hi - v_lo)
        raise ConfigurationError("state_of_charge not bracketed")  # unreachable


class Battery:
    """A discharging battery implementing the PowerSupply interface."""

    def __init__(self, spec: BatterySpec, state_of_charge: float = 1.0) -> None:
        if not 0.0 < state_of_charge <= 1.0:
            raise ConfigurationError("state_of_charge must be within (0, 1]")
        self.spec = spec
        self._soc = state_of_charge
        self._last_load_w = 0.0
        self._energy_drawn_j = 0.0

    @property
    def state_of_charge(self) -> float:
        """Remaining charge fraction."""
        return self._soc

    @property
    def energy_drawn_j(self) -> float:
        """Total energy delivered since construction, joules."""
        return self._energy_drawn_j

    @property
    def output_voltage_v(self) -> float:
        """Terminal voltage under the most recent load, volts."""
        return self._terminal_voltage(self._last_load_w)

    def draw(self, power_w: float, dt: float) -> float:
        """Deliver ``power_w`` for ``dt`` seconds; returns the current, A."""
        if power_w < 0:
            raise SimulationError("drawn power must be non-negative")
        if dt <= 0:
            raise SimulationError("dt must be positive")
        if self._soc <= 0.0:
            raise BatteryError("battery_empty", "battery is empty")
        voltage = self._terminal_voltage(power_w)
        current = power_w / voltage if voltage > 0 else 0.0
        self._last_load_w = power_w
        self._energy_drawn_j += power_w * dt
        self._soc = max(0.0, self._soc - power_w * dt / self.spec.energy_capacity_j)
        return current

    def _terminal_voltage(self, power_w: float) -> float:
        ocv = self.spec.ocv_v(self._soc)
        r = self.spec.internal_resistance_ohm
        if r == 0.0 or power_w == 0.0:
            return ocv
        discriminant = ocv * ocv - 4.0 * power_w * r
        if discriminant <= 0:
            raise BatteryError(
                "battery_overload",
                f"load {power_w} W exceeds what the battery can deliver",
            )
        return 0.5 * (ocv + math.sqrt(discriminant))
