"""Reliable FIFO links between daemon pairs.

All reliable GCS traffic (AGREED forwards and stamps, direct
messages, flush control) travels over a
:class:`ReliableLink`: per-destination sequence numbers, in-order
delivery with an out-of-order stash, cumulative delayed ACKs, and
timer-driven retransmission.  On a lossless run the only overhead is
the occasional ACK frame; under injected loss the link recovers
transparently, which is what lets the replication layer assume
reliable multicast exactly as the paper assumes of Spread.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.gcs.messages import LinkAck, LinkData, estimate_control_bytes
from repro.net.frame import Endpoint
from repro.net.network import Network
from repro.sim.config import GcsCalibration
from repro.sim.kernel import Simulator

#: ACKs are delayed to amortize: one cumulative ACK per this interval.
ACK_DELAY_US = 1_500.0

#: Wire size of a cumulative ACK (the estimate does not depend on the
#: sequence number it carries).
_ACK_BYTES = estimate_control_bytes(LinkAck(cum_seq=0))

#: Retransmission gives up after this many attempts (the peer is then
#: presumed dead; the membership layer will remove it soon anyway).
MAX_RETRANSMITS = 30


class ReliableLink:
    """One direction of a reliable FIFO channel between two daemons.

    A timer handle is held only while its event is pending: its
    handler clears the handle before anything else, and only
    :meth:`close` cancels one, after which nothing arms a timer again.
    """

    def __init__(self, sim: Simulator, network: Network,
                 calibration: GcsCalibration,
                 local: Endpoint, peer: Endpoint,
                 deliver: Callable[[Any, int], None],
                 on_close: Optional[Callable[[], None]] = None):
        self.sim = sim
        self.network = network
        self.cal = calibration
        self.local = local
        self.peer = peer
        self._deliver = deliver
        #: Invoked once when the link closes, so owners holding
        #: pre-bound ``send`` references (the daemon's per-target send
        #: cache) can drop them instead of sending into a dead link.
        self._on_close = on_close
        # Sender state.
        self._next_out = 1
        self._unacked: Dict[int, "_Pending"] = {}
        self._retransmit_timer: Optional[list] = None
        # Receiver state.
        self._next_in = 1
        self._stash: Dict[int, Any] = {}
        self._ack_timer: Optional[list] = None
        self.closed = False

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, inner: Any, inner_bytes: int) -> None:
        """Queue ``inner`` for reliable in-order delivery at the peer."""
        if self.closed:
            return
        seq = self._next_out
        self._next_out = seq + 1
        sim = self.sim
        self._unacked[seq] = _Pending(inner, inner_bytes, attempts=1,
                                      last_sent=sim.now)
        self.network.send(self.local, self.peer,
                          LinkData(seq, inner, inner_bytes),
                          inner_bytes + self.cal.header_bytes, "gcs.link")
        if self._retransmit_timer is None:
            self._retransmit_timer = sim.schedule(
                self.cal.retransmit_timeout_us, self._on_retransmit_timer)

    def _transmit(self, seq: int) -> None:
        pending = self._unacked.get(seq)
        if pending is None:
            return
        pending.attempts += 1
        pending.last_sent = self.sim.now
        self.network.send(
            self.local, self.peer,
            LinkData(seq, pending.inner, pending.inner_bytes),
            pending.inner_bytes + self.cal.header_bytes, "gcs.link")

    def _arm_retransmit(self) -> None:
        if self._retransmit_timer is not None:
            return
        self._retransmit_timer = self.sim.schedule(
            self.cal.retransmit_timeout_us, self._on_retransmit_timer)

    def _on_retransmit_timer(self) -> None:
        self._retransmit_timer = None
        if self.closed or not self._unacked:
            return
        # Resend only messages that have actually aged past the
        # timeout; younger ones may simply be awaiting a delayed ack.
        stale_before = self.sim.now - self.cal.retransmit_timeout_us
        for seq in sorted(self._unacked):
            pending = self._unacked[seq]
            if pending.last_sent > stale_before:
                continue
            if pending.attempts > MAX_RETRANSMITS:
                # Peer presumed dead; membership will clean up.
                self.close()
                return
            self._transmit(seq)
        self._arm_retransmit()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def on_link_data(self, link_seq: int, inner: Any, inner_bytes: int) -> None:
        """Handle an arriving LinkData frame from the peer."""
        if self.closed:
            return
        next_in = self._next_in
        if link_seq == next_in:
            # In order (the lossless common case): deliver it directly,
            # then whatever the stash holds right behind it.
            self._next_in = next_in + 1
            self._deliver(inner, inner_bytes)
            stash = self._stash
            while self._next_in in stash:
                data, nbytes = stash.pop(self._next_in)
                self._next_in += 1
                self._deliver(data, nbytes)
        elif link_seq > next_in:
            # Early: hold it until the gap before it fills.
            self._stash[link_seq] = (inner, inner_bytes)
        # else a duplicate of something already delivered: re-ack.
        if self._ack_timer is None:
            self._ack_timer = self.sim.schedule(ACK_DELAY_US, self._send_ack)

    def _send_ack(self) -> None:
        self._ack_timer = None
        if self.closed:
            return
        self.network.send(self.local, self.peer,
                          LinkAck(cum_seq=self._next_in - 1), _ACK_BYTES,
                          "gcs.ack")

    def on_ack(self, cum_seq: int) -> None:
        """Handle a cumulative ACK from the peer.  ``_unacked`` holds
        its sequence numbers in ascending insertion order, so the acked
        ones are a prefix."""
        unacked = self._unacked
        for seq in list(unacked):
            if seq > cum_seq:
                break
            del unacked[seq]

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop all timers and drop buffered state (peer dead)."""
        if self.closed:
            return
        self.closed = True
        self._unacked.clear()
        self._stash.clear()
        if self._retransmit_timer is not None:
            self.sim.cancel(self._retransmit_timer)
        if self._ack_timer is not None:
            self.sim.cancel(self._ack_timer)
        if self._on_close is not None:
            self._on_close()

    @property
    def idle(self) -> bool:
        """True when no frame awaits an ACK or a gap to fill."""
        return not self._unacked and not self._stash

    def __repr__(self) -> str:
        return (f"<ReliableLink {self.local}->{self.peer} "
                f"out={self._next_out - 1} in={self._next_in - 1} "
                f"unacked={len(self._unacked)}>")


class _Pending:
    __slots__ = ("inner", "inner_bytes", "attempts", "last_sent")

    def __init__(self, inner: Any, inner_bytes: int, attempts: int,
                 last_sent: float = 0.0):
        self.inner = inner
        self.inner_bytes = inner_bytes
        self.attempts = attempts
        self.last_sent = last_sent
