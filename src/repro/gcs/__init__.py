"""Group communication (the Spread-toolkit analogue).

Public surface:

- :class:`GcsDaemon` — per-host daemon (membership, ordering, flush)
- :class:`GcsClient` — per-process connection (join/watch/multicast);
  ``join(group, on_message, on_view=None)`` and ``watch(group,
  on_view)`` take the delivery handlers themselves
- :class:`MemberId`, :class:`GroupView`, :class:`DaemonView` — identities
- :data:`GCS_PORT` — the well-known daemon port
"""

from repro.gcs.client import GcsClient
from repro.gcs.failure_detector import (
    AdaptiveDetector,
    FailureDetector,
    FixedTimeoutDetector,
)
from repro.gcs.daemon import GCS_PORT, GcsDaemon
from repro.gcs.messages import DaemonView, GroupView, MemberId

__all__ = [
    "AdaptiveDetector",
    "DaemonView",
    "FailureDetector",
    "FixedTimeoutDetector",
    "GCS_PORT",
    "GcsClient",
    "GcsDaemon",
    "GroupView",
    "MemberId",
]
