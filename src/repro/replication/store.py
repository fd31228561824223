"""Stable storage for cold-passive replication.

In cold passive replication no backup process exists at fault time:
the primary persists its state to stable storage, and a replacement is
launched only after the primary crashes, restoring from the last
persisted checkpoint.  The store models a shared disk (or logging
site) with per-byte write/read costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class StoredCheckpoint:
    """One persisted snapshot, with the session table of the requests
    whose effect it holds, so a replica restored from it answers their
    retries instead of re-executing them."""

    ckpt_id: int
    state: Any
    state_bytes: int
    written_at: float
    sessions: Mapping[str, Any] = field(default_factory=dict)


class StableStore:
    """A shared, crash-surviving checkpoint store keyed by group name."""

    def __init__(self, sim: Simulator, write_fixed_us: float = 900.0,
                 write_per_byte_us: float = 0.03,
                 read_fixed_us: float = 500.0,
                 read_per_byte_us: float = 0.015):
        self.sim = sim
        self.write_fixed_us = write_fixed_us
        self.write_per_byte_us = write_per_byte_us
        self.read_fixed_us = read_fixed_us
        self.read_per_byte_us = read_per_byte_us
        self._checkpoints: Dict[str, StoredCheckpoint] = {}
        self.writes = 0
        self.reads = 0
        self.bytes_written = 0

    def write(self, group: str, ckpt_id: int, state: Any, state_bytes: int,
              on_done: Optional[Callable[[], None]] = None,
              sessions: Optional[Mapping[str, Any]] = None) -> None:
        """Persist a checkpoint asynchronously (overwrite semantics:
        only the latest snapshot matters for recovery).  Only
        ``state_bytes`` are charged: the session table rides uncharged
        (see docs/calibration.md)."""
        delay = self.write_fixed_us + self.write_per_byte_us * state_bytes

        def commit() -> None:
            self._checkpoints[group] = StoredCheckpoint(
                ckpt_id=ckpt_id, state=state, state_bytes=state_bytes,
                written_at=self.sim.now, sessions=sessions or {})
            self.writes += 1
            self.bytes_written += state_bytes
            if on_done is not None:
                on_done()

        self.sim.schedule(delay, commit)

    def read(self, group: str,
             on_done: Callable[[Optional[StoredCheckpoint]], None]) -> None:
        """Fetch the latest checkpoint asynchronously (None if absent)."""
        snapshot = self._checkpoints.get(group)
        nbytes = snapshot.state_bytes if snapshot is not None else 0
        delay = self.read_fixed_us + self.read_per_byte_us * nbytes

        def finish() -> None:
            self.reads += 1
            on_done(snapshot)

        self.sim.schedule(delay, finish)
