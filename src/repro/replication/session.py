"""At-most-once by client session (see docs/protocols.md).

A replica keeps one :class:`Session` per issuing client, the ``host/pid``
of its ``host/pid-N`` request ids: which of its requests ran and were
answered, and the replies it may still ask for.  A shipped session is
frozen; a replica about to change one copies it first.  Replies are
kept in frozen chunks of ``CHUNK`` that copies share, so a copy costs at
most ``CHUNK`` replies and shipping a table one reference per client.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

#: Replies a session keeps below the lowest request its client still
#: awaits, for late network duplicates of answered requests.
REPLY_TAIL = 64
#: Replies gathered before they freeze into a chunk.
CHUNK = 8


def session_of(request_id: str) -> Tuple[str, int]:
    """``(client, request number)`` of a ``host/pid-N`` request id."""
    client, _, number = request_id.rpartition("-")
    return client, int(number)


class Session:
    """One client's at-most-once record at one replica: every request
    number up to ``floor`` ran and was answered here (or the client
    awaits it no more), as did those in ``above``; ``chunks`` (frozen,
    oldest first) and ``replies`` (the newest) map numbers to GIOP
    replies; ``awaited`` is the lowest number the client still
    awaits."""

    __slots__ = ("floor", "above", "chunks", "replies", "awaited",
                 "shipped")

    def __init__(self, floor: int = 0, above=frozenset(), chunks=(),
                 replies=(), awaited: int = 0):
        self.floor = floor
        self.above = frozenset(above)
        self.chunks: Tuple[Dict[int, Any], ...] = tuple(chunks)
        self.replies: Dict[int, Any] = dict(replies)
        self.awaited = awaited
        self.shipped = False

    def reply(self, number: int) -> Any:
        """The kept reply to request ``number``, or None."""
        for chunk in (self.replies, *self.chunks):
            if number in chunk:
                return chunk[number]
        return None

    def kept(self) -> Dict[int, Any]:
        """Every kept reply by request number, oldest answer first."""
        return {number: reply for chunk in (*self.chunks, self.replies)
                for number, reply in chunk.items()}

    def answer(self, number: int, reply: Any, awaited: int) -> None:
        """Request ``number`` ran and was answered ``reply``; its client
        awaited none below ``awaited`` when it sent it.  The reply is
        kept: each full chunk freezes, and the oldest chunks go once the
        newer ones hold ``REPLY_TAIL`` replies and the client awaits
        none of theirs."""
        if awaited > self.awaited:
            self.awaited = awaited
        floor = max(self.floor, self.awaited - 1)
        if number == floor + 1 and not self.above:
            self.floor = number
        else:
            self._settle(floor, self.above | {number})
        replies = self.replies
        replies[number] = reply
        if len(replies) < CHUNK:
            return
        chunks = self.chunks + (replies,)
        held = sum(map(len, chunks))
        while held - len(chunks[0]) >= REPLY_TAIL \
                and max(chunks[0]) < self.awaited:
            held -= len(chunks[0])
            chunks = chunks[1:]
        self.chunks = chunks
        self.replies = {}

    def _settle(self, floor: int, above: frozenset) -> None:
        """Raise the watermark from ``floor`` over the numbers in
        ``above`` that ran contiguously above it."""
        while floor + 1 in above:
            floor += 1
        self.floor = floor
        self.above = frozenset(n for n in above if n > floor)

    def copy(self) -> "Session":
        """An unshipped copy, safe to change."""
        return Session(self.floor, self.above, self.chunks, self.replies,
                       self.awaited)

    def merged(self, other: "Session") -> "Session":
        """Both replicas' records of one client (a migration)."""
        kept = {**self.kept(), **other.kept()}
        merged = Session(max(self.floor, other.floor), (),
                         (dict(sorted(kept.items())),) if kept else (),
                         (), max(self.awaited, other.awaited))
        merged._settle(max(merged.floor, merged.awaited - 1),
                       self.above | other.above)
        return merged


def replies_held(sessions: Mapping[str, Session]) -> int:
    """Replies a shipped table carries, over all its clients."""
    return sum(len(session.kept()) for session in sessions.values())
