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


class GroupListener:
    """Callbacks for one group membership.

    Subclass or duck-type; default implementations ignore events.
    """

    def on_message(self, group: str, sender: MemberId, payload: Any,
                   nbytes: int) -> None:
        """A group multicast was delivered."""

    def on_view(self, view: GroupView, joined: List[MemberId],
                left: List[MemberId], crashed: bool) -> None:
        """Group membership changed.  ``crashed`` is True when the
        change was caused by a daemon/host failure rather than a
        voluntary leave."""


class CallbackListener(GroupListener):
    """Adapter building a listener from plain callables."""

    def __init__(self,
                 on_message: Optional[Callable[..., None]] = None,
                 on_view: Optional[Callable[..., None]] = None):
        self._on_message = on_message
        self._on_view = on_view

    def on_message(self, group: str, sender: MemberId, payload: Any,
                   nbytes: int) -> None:
        """Forward to the ``on_message`` callable, if given."""
        if self._on_message is not None:
            self._on_message(group, sender, payload, nbytes)

    def on_view(self, view: GroupView, joined: List[MemberId],
                left: List[MemberId], crashed: bool) -> None:
        """Forward to the ``on_view`` callable, if given."""
        if self._on_view is not None:
            self._on_view(view, joined, left, crashed)


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
        self._listeners: Dict[str, GroupListener] = {}
        self._watch_listeners: Dict[str, GroupListener] = {}
        self._direct_handler: Optional[Callable[[MemberId, Any, int], None]] = None
        self._views: Dict[str, GroupView] = {}
        daemon.connect(self)

    # ------------------------------------------------------------------
    # Group operations
    # ------------------------------------------------------------------
    def join(self, group: str, listener: GroupListener) -> None:
        """Join ``group``; deliveries flow to ``listener``."""
        if group in self._listeners:
            raise GroupCommunicationError(
                f"{self.member} already joining/joined {group}")
        self._listeners[group] = listener
        self.daemon.client_join(group, self.member)

    def leave(self, group: str) -> None:
        """Leave ``group`` (listener dropped after the leave is stamped)."""
        if group not in self._listeners:
            raise GroupCommunicationError(f"{self.member} not in {group}")
        self.daemon.client_leave(group, self.member)

    def watch(self, group: str, listener: GroupListener) -> None:
        """Receive ``group`` view changes without becoming a member."""
        self._watch_listeners[group] = listener
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
    # Introspection
    # ------------------------------------------------------------------
    def current_view(self, group: str) -> Optional[GroupView]:
        """Most recent view delivered to this client for ``group``."""
        return self._views.get(group)

    # ------------------------------------------------------------------
    # ClientPort (called by the daemon, post-IPC-delay)
    # ------------------------------------------------------------------
    def deliver_message(self, group: str, sender: MemberId, payload: Any,
                        nbytes: int) -> None:
        """ClientPort hook: route a multicast to the group's listener."""
        if not self.alive:
            return
        listener = self._listeners.get(group)
        if listener is not None:
            listener.on_message(group, sender, payload, nbytes)

    def deliver_view(self, view: GroupView, joined: List[MemberId],
                     left: List[MemberId], crashed: bool) -> None:
        """ClientPort hook: route a view change to listeners/watchers."""
        if not self.alive:
            return
        self._views[view.group] = view
        if self.member in left:
            listener = self._listeners.pop(view.group, None)
            if listener is not None:
                listener.on_view(view, joined, left, crashed)
        else:
            listener = self._listeners.get(view.group)
            if listener is not None:
                listener.on_view(view, joined, left, crashed)
        watcher = self._watch_listeners.get(view.group)
        if watcher is not None:
            watcher.on_view(view, joined, left, crashed)

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
