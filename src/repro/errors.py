"""Exception hierarchy for the versatile-dependability reproduction.

All library-raised exceptions derive from :class:`ReproError` so that
callers can distinguish library failures from programming errors.
"""

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional, Tuple, Type


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


#: Plain-language name of each rule kind, for error messages.
_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "a bool",
               str: "a string", list: "a list", dict: "an object"}


@dataclass(frozen=True)
class Rule:
    """What each field in ``names`` must hold.

    ``kind`` is ``int`` (an exact integer, never a ``bool``), ``float``
    (a finite ``int`` or ``float``, never a ``bool``), ``bool``,
    ``str``, or any other type, tested with ``isinstance``.  ``gt`` /
    ``ge`` / ``lt`` / ``le`` bound a number, or the length of a string
    or collection; ``nullable`` admits ``None``.  A fraction, NaN, inf,
    string or ``bool`` where a count belongs would otherwise fail later
    with a bare ``TypeError``, or silently mislabel a run: no
    comparison with NaN is ever true.
    """

    names: Tuple[str, ...]
    kind: type
    gt: Optional[float] = None
    ge: Optional[float] = None
    lt: Optional[float] = None
    le: Optional[float] = None
    nullable: bool = False

    def admits(self, value: Any) -> bool:
        """True when ``value`` satisfies this rule."""
        if value is None:
            return self.nullable
        if self.kind is int or self.kind is float:
            if isinstance(value, bool) or not isinstance(
                    value, int if self.kind is int else (int, float)):
                return False
            if not isinstance(value, int) and not math.isfinite(value):
                return False
            size = value
        elif not isinstance(value, self.kind):
            return False
        elif self.gt is self.ge is self.lt is self.le is None:
            return True
        else:
            size = len(value)
        return ((self.gt is None or size > self.gt)
                and (self.ge is None or size >= self.ge)
                and (self.lt is None or size < self.lt)
                and (self.le is None or size <= self.le))

    @property
    def expected(self) -> str:
        """What the rule asks for, in words (``a finite number > 0``,
        ``a string of length >= 1``)."""
        bounds = " and ".join(
            f"{op} {bound}" for op, bound in (
                (">", self.gt), (">=", self.ge), ("<", self.lt),
                ("<=", self.le)) if bound is not None)
        text = _KIND_NAMES.get(self.kind, f"a {self.kind.__name__}")
        if bounds:
            numeric = self.kind is int or self.kind is float
            text += f" {bounds}" if numeric else f" of length {bounds}"
        return f"None or {text}" if self.nullable else text

    def check(self, name: str, value: Any,
              error: Type[ReproError] = ConfigurationError) -> None:
        """Raise ``error`` naming ``name`` unless ``value`` is admitted."""
        if not self.admits(value):
            raise error(f"{name} must be {self.expected}, not {value!r}")


def check_fields(values: Mapping[str, Any], rules: Iterable[Rule],
                 error: Type[ReproError] = ConfigurationError,
                 prefix: str = "") -> None:
    """Check every field the ``rules`` name in ``values`` (a parsed
    JSON object, or ``vars()`` of a dataclass), raising ``error`` on
    the first field that breaks its rule or is absent (a nullable
    field may be absent)."""
    for rule in rules:
        for name in rule.names:
            if name in values:
                rule.check(prefix + name, values[name], error)
            elif not rule.nullable:
                raise error(f"{prefix}{name} is missing "
                            f"(must be {rule.expected})")
