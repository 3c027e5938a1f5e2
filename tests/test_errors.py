"""Exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigurationError,
            errors.SimulationError,
            errors.CalibrationError,
            errors.InstrumentError,
            errors.ProtocolError,
            errors.AnalysisError,
            errors.UnknownModelError,
            errors.BatteryError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_battery_error_is_simulation_error_with_reason(self):
        err = errors.BatteryError("battery_overload", "load 33 W exceeds ...")
        assert isinstance(err, errors.SimulationError)
        assert err.reason == "battery_overload"
        assert str(err) == "load 33 W exceeds ..."

    def test_unknown_model_is_configuration_error(self):
        assert issubclass(errors.UnknownModelError, errors.ConfigurationError)


class TestUnknownModelError:
    def test_message_lists_known(self):
        err = errors.UnknownModelError("device", "iPhone", ("Nexus 5", "LG G5"))
        assert "iPhone" in str(err)
        assert "Nexus 5" in str(err)
        assert "LG G5" in str(err)

    def test_fields(self):
        err = errors.UnknownModelError("SoC", "SD-999", ("SD-800",))
        assert err.kind == "SoC"
        assert err.name == "SD-999"
        assert err.known == ("SD-800",)
