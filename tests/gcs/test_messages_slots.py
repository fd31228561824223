"""Memory-layout regression: high-churn message objects stay slotted.

The GCS creates one wrapper object per multicast hop and one Frame per
wire transmission; a stray ``__dict__`` on any of them (easily
reintroduced by a slotless base class or a dataclass edit) costs ~100
bytes and a dict allocation per message.  These tests pin the layout.
"""

from repro.gcs.messages import (
    CausalData,
    DaemonView,
    Direct,
    FifoData,
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
    RawData,
    SafeAck,
    SafeRelease,
    Stamped,
    StampKind,
    ViewInstall,
)
from repro.net.frame import Endpoint, Frame
from repro.sim.kernel import EventHandle, Simulator

MEMBER = MemberId("s01", 1, "svc")

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
    SafeAck(group="g", seq=1, sender="s01"),
    SafeRelease(group="g", seq=1),
    JoinRequest(group="g", member=MEMBER, msg_id="s01:2"),
    LeaveRequest(group="g", member=MEMBER, msg_id="s01:3"),
    Direct(dst=MEMBER, src=MEMBER, payload="p", payload_bytes=4),
    FifoData(group="g", origin=MEMBER, payload="p", payload_bytes=4),
    CausalData(group="g", origin=MEMBER, clock={"s01": 1}, payload="p",
               payload_bytes=4),
    RawData(group="g", origin=MEMBER, payload="p", payload_bytes=4),
    FlushRequest(epoch=1, proposer="s01", members=("s01",)),
    FlushAck(epoch=1, sender="s01", histories={}, next_seqs={}),
    ViewInstall(epoch=1, view=DaemonView(1, ("s01",)), recovery={},
                next_seqs={}),
    Endpoint("s01", 4803),
    Frame(src=Endpoint("s01", 1), dst=Endpoint("s02", 2), payload="p"),
]


def test_no_message_instance_grows_a_dict():
    creeps = [type(obj).__name__ for obj in INSTANCES
              if hasattr(obj, "__dict__")]
    assert not creeps, f"__dict__ creep on: {creeps}"


def test_slots_declared_throughout_the_mro():
    """Every class (bar object) on a message's MRO must declare
    __slots__ — one slotless base resurrects the instance dict."""
    for obj in INSTANCES:
        for klass in type(obj).__mro__[:-1]:
            assert "__slots__" in vars(klass), (
                f"{type(obj).__name__}: {klass.__name__} lacks __slots__")


def test_event_handle_stays_slotted():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    assert isinstance(handle, EventHandle)
    assert not hasattr(handle, "__dict__")


def test_messages_still_behave_as_values():
    assert SafeAck("g", 1, "s01") == SafeAck("g", 1, "s01")
    assert MemberId("a", 1, "x") < MemberId("b", 1, "x")
    assert hash(Endpoint("h", 1)) == hash(Endpoint("h", 1))


def test_wire_messages_reject_assignment():
    """Every message, frozen dataclass or hand-slotted, is immutable:
    assigning any of its fields raises AttributeError."""
    for obj in INSTANCES:
        names = [name for klass in type(obj).__mro__[:-1]
                 for name in vars(klass).get("__slots__", ())]
        assert names, type(obj).__name__
        for name in names:
            try:
                setattr(obj, name, getattr(obj, name))
            except AttributeError:
                continue
            raise AssertionError(
                f"{type(obj).__name__}.{name} accepted an assignment")
