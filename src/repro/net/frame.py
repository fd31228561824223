"""Network frames.

A :class:`Frame` is what the simulated LAN actually carries: an opaque
payload plus explicit source/destination addressing and an on-wire
size.  Byte sizes are modelled explicitly (rather than serializing
real Python objects) because the paper's evaluation measures bandwidth
in MB/s — the resource axis of the design space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import NetworkError

#: Fixed Ethernet + IP + UDP framing overhead charged per frame.
FRAME_OVERHEAD_BYTES = 54


@dataclass(frozen=True, slots=True)
class Endpoint:
    """A (host, port) network address."""

    host: str
    port: int

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


class FrozenSlots:
    """Base of the immutable value types built once per frame.

    A subclass lists its fields in ``__slots__`` in constructor order
    and fills them in ``__init__`` through the setters
    :func:`slot_setters` returns, which write the slot descriptors
    directly: about half the cost of the ``object.__setattr__`` call
    per field that a frozen dataclass pays.  After construction any
    assignment or deletion raises :class:`AttributeError`, as on a
    frozen dataclass.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through the constructor; their
        # default would assign the slots one by one.
        return type(self), tuple(getattr(self, name)
                                 for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each of ``cls``'s own slots, in order."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class Frame(FrozenSlots):
    """One frame on the wire.

    ``payload_bytes`` is the application-level size; the network adds
    :data:`FRAME_OVERHEAD_BYTES` when computing transmission delay and
    bandwidth accounting.
    """

    __slots__ = ("src", "dst", "payload", "payload_bytes", "kind",
                 "frame_id")

    def __init__(self, src: Endpoint, dst: Endpoint, payload: Any,
                 payload_bytes: int = 0, kind: str = "data",
                 frame_id: int = 0):
        if payload_bytes < 0:
            raise NetworkError(f"negative payload size: {payload_bytes}")
        _set_src(self, src)
        _set_dst(self, dst)
        _set_payload(self, payload)
        _set_payload_bytes(self, payload_bytes)
        _set_kind(self, kind)
        _set_frame_id(self, frame_id)

    @property
    def wire_bytes(self) -> int:
        """Total bytes this frame occupies on the wire."""
        return self.payload_bytes + FRAME_OVERHEAD_BYTES


(_set_src, _set_dst, _set_payload, _set_payload_bytes, _set_kind,
 _set_frame_id) = slot_setters(Frame)
