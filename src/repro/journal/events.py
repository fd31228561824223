"""The dependability event journal.

Section 3.1 requires the replicator to "generate warnings when the
operating conditions are about to change" and to notify the operator
when a contract can no longer be honoured.  The journal is the unified
record behind that requirement: every dependability-relevant system
event — failure-detector verdicts, membership changes, checkpoints,
Fig. 5 switch phases, adaptation decisions, contract transitions and
injected-fault ground truth — lands in one ordered, structured stream
an operator (or the campaign ranker) can audit after the fact.  The
stream keeps every event in record order, capped at ``max_events``
(overflow is counted in ``dropped``, not recorded).

Like telemetry, journaling is observation-only: recording never
schedules simulator events and never adds simulated time, so all
simulated outcomes are byte-identical with the journal on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import Rule
from repro.sim.config import JournalConfig

#: Event kind recorded for adaptation decisions; deduplicated by
#: ``switch_id`` (see :meth:`Journal.record`).
ADAPTATION_DECISION = "adaptation.decision"

#: The declared rules of an event's JSON form (:meth:`JournalEvent.to_dict`),
#: checked where a journal file is loaded, never per recorded event.
EVENT_RULES = (
    Rule(("seq",), int, ge=0),
    Rule(("t_us",), float, ge=0),
    Rule(("host", "component", "kind"), str),
    Rule(("attrs",), dict),
    Rule(("trace_id",), int, nullable=True),
    Rule(("shard",), str, nullable=True),
)

#: The declared rules of the ``attrs`` that journal readers (the
#: availability fold, the SLO fold, ``observe``) read as numbers,
#: lists or keys.  Attrs are kind-specific, so each rule applies where
#: its key is present.
ATTR_RULES = (
    Rule(("at_us", "rate_per_s"), float, ge=0),
    Rule(("until_us",), float, ge=0, nullable=True),
    Rule(("groups", "newly"), list),
    Rule(("switch_id",), str, nullable=True),
)


@dataclass
class JournalEvent:
    """One dependability event: who did what, where, when.

    ``attrs`` carries the kind-specific payload (switch ids, member
    lists, fault parameters, ...); ``trace_id`` links the event to a
    telemetry trace when both layers are on (e.g. a switch event to
    its Fig. 5 switch trace); ``shard`` attributes the event to one
    replica group in a sharded cluster (``None`` outside clusters, and
    omitted from the JSON form so pre-shard artifacts stay
    byte-identical).
    """

    seq: int
    time_us: float
    host: str
    component: str
    kind: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[int] = None
    shard: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (``trace_id``/``shard`` omitted when absent)."""
        out: Dict[str, Any] = {
            "seq": self.seq,
            "t_us": self.time_us,
            "host": self.host,
            "component": self.component,
            "kind": self.kind,
            "attrs": self.attrs,
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.shard is not None:
            out["shard"] = self.shard
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JournalEvent":
        """Inverse of :meth:`to_dict`, for ``data`` that holds to
        :data:`EVENT_RULES`."""
        return cls(seq=data["seq"], time_us=data["t_us"],
                   host=data["host"], component=data["component"],
                   kind=data["kind"], attrs=data.get("attrs", {}),
                   trace_id=data.get("trace_id"), shard=data.get("shard"))

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        return (f"[{self.time_us / 1e6:10.4f} s] {self.host:6s} "
                f"{self.component}/{self.kind} {extra}")


class Journal:
    """Enabled journal recorder: one capped, ordered event stream.

    Determinism: events are appended in simulator dispatch order and
    stamped with a private sequence counter, so two runs with the same
    seed produce identical event streams — the property the JSONL
    export and its regression tests rely on.
    """

    enabled = True

    def __init__(self, max_events: int = 100_000):
        JournalConfig(True, max_events).validate()
        self.max_events = max_events
        self.events: List[JournalEvent] = []
        self.dropped = 0
        self._seq = 0
        # Adaptation decisions keyed by switch_id: the first manager to
        # record one wins; later identical decisions become voters.
        self._decisions: Dict[str, JournalEvent] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, time_us: float, host: str, component: str,
               kind: str, trace_id: Optional[int] = None,
               shard: Optional[str] = None,
               **attrs: Any) -> Optional[JournalEvent]:
        """Append one event; returns it (or None when dropped/merged).

        ``adaptation.decision`` events are deduplicated by their
        ``switch_id`` attr: concurrent managers evaluating the same
        policy over the same replicated state produce the *same*
        decision, so the journal records one decision with N voters,
        not N decisions.  The first recorder wins; every further
        identical decision increments ``voters`` and is listed in
        ``voter_hosts``.
        """
        if kind == ADAPTATION_DECISION:
            switch_id = attrs.get("switch_id")
            if switch_id is not None and switch_id in self._decisions:
                decision = self._decisions[switch_id]
                decision.attrs["voters"] = decision.attrs.get("voters", 1) + 1
                decision.attrs.setdefault("voter_hosts", []).append(host)
                return None
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return None
        event = JournalEvent(seq=self._seq, time_us=time_us, host=host,
                             component=component, kind=kind,
                             attrs=dict(attrs), trace_id=trace_id,
                             shard=shard)
        self._seq += 1
        self.events.append(event)
        if kind == ADAPTATION_DECISION and "switch_id" in event.attrs:
            event.attrs.setdefault("voters", 1)
            event.attrs.setdefault("voter_hosts", [host])
            self._decisions[event.attrs["switch_id"]] = event
        return event

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def of_kind(self, prefix: str) -> Tuple[JournalEvent, ...]:
        """Events whose kind equals or starts with ``prefix``."""
        return tuple(e for e in self.events
                     if e.kind == prefix or e.kind.startswith(prefix + "."))

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return (f"<Journal events={len(self.events)} "
                f"dropped={self.dropped}>")
