"""Group communication (the Spread-toolkit analogue).

Public surface:

- :class:`GcsDaemon` — per-host daemon (membership, ordering, flush)
- :class:`GcsClient` — per-process connection (join/watch/multicast)
- :class:`GroupListener`, :class:`CallbackListener` — delivery callbacks
- :class:`MemberId`, :class:`GroupView`, :class:`DaemonView` — identities
- :data:`GCS_PORT` — the well-known daemon port
"""

from repro.gcs.client import CallbackListener, GcsClient, GroupListener
from repro.gcs.failure_detector import (
    AdaptiveDetector,
    FailureDetector,
    FixedTimeoutDetector,
)
from repro.gcs.daemon import GCS_PORT, GcsDaemon
from repro.gcs.messages import DaemonView, GroupView, MemberId

__all__ = [
    "AdaptiveDetector",
    "CallbackListener",
    "DaemonView",
    "FailureDetector",
    "FixedTimeoutDetector",
    "GCS_PORT",
    "GcsClient",
    "GcsDaemon",
    "GroupListener",
    "GroupView",
    "MemberId",
]
