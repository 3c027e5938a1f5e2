"""Battery model."""

import pytest

from repro.device.battery import Battery, BatterySpec
from repro.errors import BatteryError, ConfigurationError, SimulationError


@pytest.fixture
def spec() -> BatterySpec:
    return BatterySpec(capacity_mah=2800.0, nominal_v=3.85, max_v=4.4)


class TestSpec:
    def test_energy_capacity(self, spec):
        # 2800 mAh x 3.85 V = 10780 mWh = 38808 J.
        assert spec.energy_capacity_j == pytest.approx(38808.0)

    def test_ocv_endpoints(self, spec):
        assert spec.ocv_v(0.0) == pytest.approx(3.30)
        assert spec.ocv_v(1.0) == pytest.approx(4.35)

    def test_ocv_interpolates(self, spec):
        mid = spec.ocv_v(0.35)
        assert spec.ocv_v(0.2) < mid < spec.ocv_v(0.5)

    def test_ocv_monotone(self, spec):
        values = [spec.ocv_v(s / 20) for s in range(21)]
        assert values == sorted(values)

    def test_out_of_range_soc_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            spec.ocv_v(1.1)

    def test_bad_curve_rejected(self):
        with pytest.raises(ConfigurationError):
            BatterySpec(
                capacity_mah=1000.0, nominal_v=3.8, max_v=4.3,
                ocv_curve=((0.5, 3.8), (1.0, 4.3)),
            )

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            BatterySpec(capacity_mah=0.0, nominal_v=3.8, max_v=4.3)


class TestBattery:
    def test_full_battery_voltage(self, spec):
        battery = Battery(spec)
        assert battery.output_voltage_v == pytest.approx(4.35)

    def test_sag_under_load(self, spec):
        battery = Battery(spec)
        no_load = battery.output_voltage_v
        battery.draw(5.0, 1.0)
        assert battery.output_voltage_v < no_load

    def test_discharge_reduces_soc(self, spec):
        battery = Battery(spec)
        battery.draw(10.0, 60.0)
        assert battery.state_of_charge < 1.0

    def test_energy_accounting(self, spec):
        battery = Battery(spec)
        battery.draw(10.0, 60.0)
        assert battery.energy_drawn_j == pytest.approx(600.0)

    def test_current_matches_power_over_voltage(self, spec):
        battery = Battery(spec)
        current = battery.draw(4.0, 1.0)
        assert current == pytest.approx(4.0 / battery.output_voltage_v, rel=0.05)

    def test_depleted_battery_refuses(self, spec):
        battery = Battery(spec, state_of_charge=0.001)
        with pytest.raises(BatteryError) as info:
            for _ in range(10000):
                battery.draw(10.0, 10.0)
        assert info.value.reason == "battery_empty"

    def test_overload_rejected(self, spec):
        battery = Battery(spec)
        with pytest.raises(BatteryError) as info:
            battery.draw(1e6, 0.1)
        assert info.value.reason == "battery_overload"

    def test_negative_power_rejected(self, spec):
        with pytest.raises(SimulationError):
            Battery(spec).draw(-1.0, 1.0)

    def test_bad_initial_soc_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            Battery(spec, state_of_charge=0.0)

    def test_voltage_drops_as_discharged(self, spec):
        battery = Battery(spec)
        v_full = battery.output_voltage_v
        # Burn ~40% of capacity.
        for _ in range(100):
            battery.draw(10.0, spec.energy_capacity_j * 0.004 / 10.0)
        battery.draw(0.0, 1.0)  # clear the load for an OCV-ish reading
        assert battery.output_voltage_v < v_full
