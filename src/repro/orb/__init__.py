"""Miniature ORB (the TAO analogue).

Public surface:

- :class:`OrbClient`, :class:`OrbServer` — invocation endpoints
- :class:`GiopRequest`, :class:`GiopReply`, :class:`ReplyStatus`
- :class:`Servant`, :class:`ServantResult` and stock servants
- :class:`ServiceAddress`, :class:`TcpClientTransport`,
  :class:`TcpServerTransport` — the transport seam the replicator
  interposes on
"""

from repro.orb.client import OrbClient
from repro.orb.giop import GiopReply, GiopRequest, ReplyStatus
from repro.orb.marshal import marshalled_size
from repro.orb.servant import (
    BusyServant,
    CounterServant,
    EchoServant,
    KeyValueServant,
    Servant,
    ServantResult,
)
from repro.orb.server import OrbServer
from repro.orb.transport import (
    ClientTransport,
    ServerTransport,
    ServiceAddress,
    TcpClientTransport,
    TcpServerTransport,
)

__all__ = [
    "BusyServant",
    "ClientTransport",
    "CounterServant",
    "EchoServant",
    "GiopReply",
    "GiopRequest",
    "KeyValueServant",
    "OrbClient",
    "OrbServer",
    "ReplyStatus",
    "Servant",
    "ServantResult",
    "ServerTransport",
    "ServiceAddress",
    "TcpClientTransport",
    "TcpServerTransport",
    "marshalled_size",
]
