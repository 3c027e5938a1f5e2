"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class SimulationError(ReproError):
    """The simulation reached an invalid or inconsistent state."""


class BatteryError(SimulationError):
    """A battery could not deliver a draw.

    ``reason`` is a stable label: ``"battery_overload"`` when the load
    exceeds what the cell can deliver, ``"battery_empty"`` when no charge
    is left.  Crowd campaigns count it as that user's drop reason.
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class CalibrationError(ReproError):
    """A calibrated model failed to satisfy its declared constraints."""


class InstrumentError(ReproError):
    """A simulated instrument (Monsoon, THERMABOX) was misused or failed."""


class ProtocolError(ReproError):
    """The ACCUBENCH protocol was driven through an illegal transition."""


class AnalysisError(ReproError):
    """An analysis routine received data it cannot interpret."""


class ObservabilityError(ReproError):
    """The metrics/span layer was misused or fed a malformed document."""


class BackendError(ReproError):
    """An execution backend's worker pool or result transport failed."""


class CheckError(ReproError):
    """The correctness harness (:mod:`repro.check`) was misused or failed."""


class InvariantViolation(CheckError):
    """A runtime physics/accounting invariant did not hold during a run."""


class UnknownModelError(ConfigurationError):
    """A device or SoC model name was not found in the catalog."""

    def __init__(self, kind: str, name: str, known: "tuple[str, ...]") -> None:
        self.kind = kind
        self.name = name
        self.known = tuple(known)
        super().__init__(
            f"unknown {kind} {name!r}; known {kind}s: {', '.join(self.known)}"
        )
