"""Exception hierarchy for the versatile-dependability reproduction.

All library-raised exceptions derive from :class:`ReproError` so that
callers can distinguish library failures from programming errors.
"""

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly or reached a bad state."""


class NetworkError(ReproError):
    """A network-substrate operation failed (e.g. unknown host)."""


class GroupCommunicationError(ReproError):
    """A group-communication operation failed (e.g. not joined)."""


class OrbError(ReproError):
    """A mini-ORB operation failed (e.g. invoking a dead reference)."""


class ReplicationError(ReproError):
    """A replication-layer operation failed."""


class AdaptationError(ReproError):
    """A replication-style switch or adaptation action failed."""


class ClusterError(ReproError):
    """A sharding/partition-map operation failed."""


class ContractViolation(ReproError):
    """A behavioural contract can no longer be honoured.

    Raised (or reported) when no configuration satisfies the operator's
    constraints, matching the paper's requirement that the system notify
    operators when "the tuning policy can no longer be honored".
    """


class PolicyError(ReproError):
    """A knob policy was mis-specified or cannot be evaluated."""


class ConfigurationError(ReproError):
    """An invalid parameter value was supplied."""


class TelemetryOverflowError(ConfigurationError):
    """The span recorder hit its ``max_spans`` cap, so a view over the
    spans (e.g. the Fig. 3 breakdown) would cover only part of a run."""


class VerificationError(ReproError):
    """A schedule-exploration or replay step failed mechanically.

    Raised by the ``repro.check`` subsystem when verification *cannot
    run* (a replay trace drifts from the recorded decisions, an
    artifact is corrupt) — never for a protocol violation, which is
    reported as data, not raised.
    """


def require_int(name: str, value: object,
                minimum: Optional[int] = None) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is an ``int``
    of at least ``minimum``.

    A fraction, NaN, inf, string or ``bool`` is no count or seed: a
    fraction or a string fails later with a bare ``TypeError`` or
    silently mislabels a run, and NaN or inf never reaches a cap.
    """
    if (isinstance(value, bool) or not isinstance(value, int)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigurationError(
            f"{name} must be an integer{bound}, not {value!r}")
