"""Client-side API of the group-communication system.

A process creates one :class:`GcsClient` connected to the daemon on
its own host (the Spread model).  The client can join groups, watch
group membership without joining (open-group semantics), multicast
in total order (Spread's AGREED grade), and exchange point-to-point
messages with any connected process.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import GroupCommunicationError
from repro.gcs.daemon import ClientPort, GcsDaemon
from repro.gcs.messages import GroupView, MemberId
from repro.sim.actor import Actor
from repro.sim.host import Process


#: ``on_message(group, sender, payload, nbytes)``: a group multicast
#: was delivered.
MessageHandler = Callable[[str, MemberId, Any, int], None]
#: ``on_view(view, joined, left, crashed)``: group membership changed;
#: ``crashed`` is True when a daemon/host failure caused the change
#: rather than a voluntary leave.
ViewHandler = Callable[[GroupView, List[MemberId], List[MemberId], bool],
                       None]


class GcsClient(Actor, ClientPort):
    """A process's connection to its local GCS daemon."""

    def __init__(self, process: Process, daemon: GcsDaemon):
        super().__init__(process, name=f"gcs:{process.name}")
        if daemon.host is not process.host:
            raise GroupCommunicationError(
                f"{process.name} must connect to the daemon on its own "
                f"host ({process.host.name}), not {daemon.host.name}")
        self.daemon = daemon
        self.member = MemberId(host=process.host.name, pid=process.pid,
                               name=process.name)
        # Handlers of the groups joined (until the own leave is
        # delivered) and watched.
        self._on_message: Dict[str, MessageHandler] = {}
        self._on_view: Dict[str, Optional[ViewHandler]] = {}
        self._watchers: Dict[str, ViewHandler] = {}
        self._direct_handler: Optional[Callable[[MemberId, Any, int], None]] = None
        daemon.connect(self)

    # ------------------------------------------------------------------
    # Group operations
    # ------------------------------------------------------------------
    def join(self, group: str, on_message: MessageHandler,
             on_view: Optional[ViewHandler] = None) -> None:
        """Join ``group``; its multicasts go to ``on_message`` and its
        view changes to ``on_view``, if given."""
        if group in self._on_message:
            raise GroupCommunicationError(
                f"{self.member} already joining/joined {group}")
        self._on_message[group] = on_message
        self._on_view[group] = on_view
        self.daemon.client_join(group, self.member)

    def leave(self, group: str) -> None:
        """Leave ``group`` (handlers dropped once the leave is
        delivered)."""
        if group not in self._on_message:
            raise GroupCommunicationError(f"{self.member} not in {group}")
        self.daemon.client_leave(group, self.member)

    def watch(self, group: str, on_view: ViewHandler) -> None:
        """Receive ``group`` view changes, at ``on_view``, without
        becoming a member."""
        self._watchers[group] = on_view
        self.daemon.client_watch(group, self.member)

    def multicast(self, group: str, payload: Any, nbytes: int) -> None:
        """Multicast to ``group`` in total order (membership not
        required: open groups)."""
        if nbytes < 0:
            raise GroupCommunicationError(f"negative payload size {nbytes}")
        self.daemon.client_multicast(group, self.member, payload, nbytes)

    def send_direct(self, dst: MemberId, payload: Any, nbytes: int) -> None:
        """Reliable point-to-point message to another connected process."""
        self.daemon.client_send_direct(self.member, dst, payload, nbytes)

    def on_direct(self, handler: Callable[[MemberId, Any, int], None]) -> None:
        """Install the handler for incoming point-to-point messages."""
        self._direct_handler = handler

    # ------------------------------------------------------------------
    # ClientPort (called by the daemon, post-IPC-delay)
    # ------------------------------------------------------------------
    def deliver_message(self, group: str, sender: MemberId, payload: Any,
                        nbytes: int) -> None:
        """ClientPort hook: hand a multicast to the group's handler."""
        if not self.alive:
            return
        on_message = self._on_message.get(group)
        if on_message is not None:
            on_message(group, sender, payload, nbytes)

    def deliver_view(self, view: GroupView, joined: List[MemberId],
                     left: List[MemberId], crashed: bool) -> None:
        """ClientPort hook: hand a view change to the member's and the
        watcher's handlers."""
        if not self.alive:
            return
        group = view.group
        if self.member in left:
            self._on_message.pop(group, None)
            on_view = self._on_view.pop(group, None)
        else:
            on_view = self._on_view.get(group)
        if on_view is not None:
            on_view(view, joined, left, crashed)
        watcher = self._watchers.get(group)
        if watcher is not None:
            watcher(view, joined, left, crashed)

    def deliver_direct(self, sender: MemberId, payload: Any,
                       nbytes: int) -> None:
        """ClientPort hook: route a point-to-point message."""
        if not self.alive:
            return
        if self._direct_handler is not None:
            self._direct_handler(sender, payload, nbytes)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_stop(self) -> None:
        """Disconnect from the daemon when the process dies."""
        self.daemon.disconnect(self.member)
