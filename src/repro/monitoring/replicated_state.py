"""The replicated system-state object.

Section 3.1: "the replicator ... maintains (using the group
communication layer) within itself an identically replicated object
with information about the entire system ... All of the decisions to
re-tune the system parameters ... are made in a distributed manner by
a deterministic algorithm that takes this replicated state as its
input."

:class:`ReplicatedState` implements exactly that: each participant
publishes key/value updates over an AGREED multicast; because updates
are totally ordered, every participant holds an identical map after
the same prefix of updates, so a deterministic policy evaluated
locally reaches the same decision everywhere without extra agreement
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.gcs.client import GcsClient
from repro.gcs.messages import MemberId


@dataclass(frozen=True)
class StateUpdate:
    """One key/value publication."""

    key: str
    value: Any
    publisher: MemberId

    @property
    def wire_bytes(self) -> int:
        return 96


class ReplicatedState:
    """An identically-replicated key/value map over a GCS group."""

    def __init__(self, gcs: GcsClient, group: str):
        self.gcs = gcs
        self.group = group
        self._data: Dict[str, Any] = {}
        self._version = 0
        gcs.join(group, self._on_message)

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def publish(self, key: str, value: Any) -> None:
        """Publish an update; it lands in everyone's map (including
        this one) in the same totally-ordered position."""
        update = StateUpdate(key=key, value=value, publisher=self.gcs.member)
        self.gcs.multicast(self.group, update, update.wire_bytes)

    def publish_own(self, suffix: str, value: Any) -> None:
        """Publish under a per-member key (``<member>/<suffix>``)."""
        self.publish(f"{self.gcs.member}/{suffix}", value)

    # ------------------------------------------------------------------
    # Reads (local, already agreed)
    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """Read a key from the local (agreed) copy."""
        return self._data.get(key, default)

    def items_matching(self, suffix: str) -> Dict[str, Any]:
        """All per-member values published under ``suffix``."""
        out = {}
        for key, value in self._data.items():
            if key.endswith(f"/{suffix}"):
                out[key] = value
        return out

    def values_matching(self, suffix: str) -> List[Any]:
        """Values of all per-member keys with ``suffix``."""
        return list(self.items_matching(suffix).values())

    @property
    def version(self) -> int:
        """Number of updates applied (identical across members after
        the same delivery prefix)."""
        return self._version

    def snapshot(self) -> Dict[str, Any]:
        """Copy of the whole map."""
        return dict(self._data)

    # ------------------------------------------------------------------
    # Delivery (from the GCS)
    # ------------------------------------------------------------------
    def _on_message(self, group: str, sender: MemberId, payload: Any,
                    nbytes: int) -> None:
        if isinstance(payload, StateUpdate):
            self._data[payload.key] = payload.value
            self._version += 1
