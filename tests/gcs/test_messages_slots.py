"""Memory-layout regression: high-churn message objects stay slotted.

The GCS creates one wrapper object per multicast hop and one Frame per
wire transmission, and every request carries a GIOP request, its
replication wrapper and a GIOP reply that replicas keep in their reply
caches; a stray ``__dict__`` on any of them (easily reintroduced by a
slotless base class or a dataclass edit) costs ~100 bytes and a dict
allocation per message.  These tests pin the layout.  A value type may
also be a ``NamedTuple`` (``MemberId``): its fields are the tuple's
items, and its only base is ``tuple``.
"""

import copy
import dataclasses
import pickle

from repro.gcs.messages import (
    DaemonView,
    Direct,
    FlushAck,
    FlushRequest,
    Forward,
    GroupView,
    Heartbeat,
    JoinRequest,
    LeaveRequest,
    LinkAck,
    LinkData,
    MemberId,
    Stamped,
    StampKind,
    ViewInstall,
)
from repro.net.frame import Endpoint, Frame
from repro.orb.giop import GiopReply, GiopRequest, ReplyStatus
from repro.replication.messages import RepReply, RepRequest
from repro.replication.styles import ReplicationStyle
from repro.sim.kernel import Simulator
from repro.telemetry.context import TraceContext

MEMBER = MemberId("s01", 1, "svc")

REQUEST = GiopRequest(request_id="c1:1", object_key="counter",
                      operation="add", payload=1, payload_bytes=32,
                      started_at=5.0)
REPLY = GiopReply(request_id="c1:1", status=ReplyStatus.OK, payload=1,
                  payload_bytes=8)

#: The frozen dataclasses made slotted for the reply cache: pickling
#: and copying them must survive the frozen ``__setattr__``.
PER_REQUEST = [
    REQUEST,
    REPLY,
    RepRequest(request=REQUEST, client=MEMBER),
    RepReply(reply=REPLY, replica=MEMBER, style=ReplicationStyle.ACTIVE,
             primary=MEMBER),
]

INSTANCES = [
    MemberId("s01", 1, "svc"),
    GroupView("g", 1, (MEMBER,)),
    DaemonView(1, ("s01", "s02")),
    Heartbeat(sender="s01", view_id=1),
    LinkData(link_seq=1, inner="x", inner_bytes=8),
    LinkAck(cum_seq=3),
    Forward(group="g", origin=MEMBER, payload="p", payload_bytes=4,
            msg_id="s01:1"),
    Stamped(group="g", seq=1, kind=StampKind.DATA, origin=MEMBER),
    JoinRequest(group="g", member=MEMBER, msg_id="s01:2"),
    LeaveRequest(group="g", member=MEMBER, msg_id="s01:3"),
    Direct(dst=MEMBER, src=MEMBER, payload="p", payload_bytes=4),
    FlushRequest(epoch=1, proposer="s01", members=("s01",)),
    FlushAck(epoch=1, sender="s01", histories={}, next_seqs={}),
    ViewInstall(epoch=1, view=DaemonView(1, ("s01",)), recovery={},
                next_seqs={}),
    Endpoint("s01", 4803),
    Frame(src=Endpoint("s01", 1), dst=Endpoint("s02", 2), payload="p"),
    *PER_REQUEST,
]


def test_no_message_instance_grows_a_dict():
    creeps = [type(obj).__name__ for obj in INSTANCES
              if hasattr(obj, "__dict__")]
    assert not creeps, f"__dict__ creep on: {creeps}"


def test_slots_declared_throughout_the_mro():
    """Every class (bar the dict-free built-ins object and tuple) on a
    message's MRO must declare __slots__ — one slotless base
    resurrects the instance dict."""
    for obj in INSTANCES:
        for klass in type(obj).__mro__:
            if klass in (object, tuple):
                continue
            assert "__slots__" in vars(klass), (
                f"{type(obj).__name__}: {klass.__name__} lacks __slots__")


def test_event_handle_stays_slotted():
    """An event handle is its plain-list heap entry: no object, no
    instance dict, no subclass."""
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    assert type(handle) is list
    assert not hasattr(handle, "__dict__")


def test_messages_still_behave_as_values():
    assert LinkAck(cum_seq=3) == LinkAck(cum_seq=3)
    assert MemberId("a", 1, "x") < MemberId("b", 1, "x")
    assert hash(Endpoint("h", 1)) == hash(Endpoint("h", 1))


def _field_names(obj):
    """A message's fields: its slots, or a NamedTuple's ``_fields``."""
    if isinstance(obj, tuple):
        return list(obj._fields)
    return [name for klass in type(obj).__mro__[:-1]
            for name in vars(klass).get("__slots__", ())]


def test_wire_messages_reject_assignment():
    """Every message, frozen dataclass, NamedTuple or hand-slotted, is
    immutable: assigning any of its fields raises AttributeError."""
    for obj in INSTANCES:
        names = _field_names(obj)
        assert names, type(obj).__name__
        for name in names:
            try:
                setattr(obj, name, getattr(obj, name))
            except AttributeError:
                continue
            raise AssertionError(
                f"{type(obj).__name__}.{name} accepted an assignment")


def _fields(obj):
    """Every field, those left out of ``==`` included."""
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


def test_per_request_messages_copy_and_pickle_whole():
    for obj in PER_REQUEST:
        for twin in (copy.copy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj)
            assert _fields(twin) == _fields(obj), type(obj).__name__


def test_giop_contexts_are_made_on_first_use():
    """A message's trace context is one field: None while untraced, no
    per-message dict; a fork and a reply start from the same context."""
    request = GiopRequest(request_id="c1:2", object_key="counter",
                          operation="add", payload=1, payload_bytes=32)
    assert request.trace is None and request.fork().trace is None
    assert not hasattr(request, "service_contexts")
    ctx = TraceContext("c1:2", 1, 1)
    object.__setattr__(request, "trace", ctx)
    assert RepRequest(request=request, client=MEMBER).trace_context is ctx
    forked = request.fork()
    assert forked.trace is ctx and forked == request
    # Moving the fork's trace leaves the original's alone.
    object.__setattr__(forked, "trace", ctx.in_transit(2))
    assert request.trace is ctx
    reply = GiopReply(request_id="c1:2", status=ReplyStatus.OK, payload=1,
                      payload_bytes=8, trace=request.trace)
    assert RepReply(reply=reply, replica=MEMBER,
                    style=ReplicationStyle.ACTIVE,
                    primary=MEMBER).trace_context is ctx
    twin = pickle.loads(pickle.dumps(request))
    assert twin.trace == ctx and type(twin.trace) is TraceContext
