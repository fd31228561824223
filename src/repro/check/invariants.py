"""Protocol invariant monitors over journal events.

Each monitor walks a trial's dependability-event journal (in record
order, which is simulator dispatch order) and reports
:class:`Violation` records for the paper's safety claims:

- **view agreement** — surviving members that install a view with the
  same ``(group, view_id)`` must agree on its membership
  (view synchrony, Section 3.1's GCS requirement);
- **unique primary** — within one member's installed view, at most
  one host acts as a warm/cold-passive primary (emits periodic
  checkpoints or a failover claim);
- **switch phase safety** — the Fig. 5 protocol: a ``switch.prepare``
  must precede its ``complete``/``rollback``, a switch never both
  completes and rolls back at one host, every host agrees on the
  switch's from/to styles, and no live host is left wedged in the
  PREPARING phase at the horizon;
- **daemon view agreement** — daemons that install the same daemon
  view id must agree on the member host set (the daemon layer's
  counterpart of group-view synchrony; two partition sides installing
  concurrent views with one id is the classic split-brain signature);
- **no split brain** — under primary-partition membership, the hosts
  of a minority partition component must never install a view drawn
  from that component alone during the partition window; the ground
  truth comes from the injector's ``fault.inject`` events, whose
  ``components`` attribute records the resolved partition cover;
- **no lost acked updates / at-most-once** — checked against the
  client history and final replica states by
  :func:`check_counter_consistency` (the journal alone cannot see
  servant state).

Monitors never raise on violations; they return data the explorer
folds into its report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.check.history import Operation


@dataclass
class Violation:
    """One detected invariant violation."""

    invariant: str
    message: str
    time_us: Optional[float] = None
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (for repro artifacts)."""
        return {"invariant": self.invariant, "message": self.message,
                "time_us": self.time_us, "details": self.details}


def _member_host(member: str) -> str:
    """Host part of a rendered member id (``name#pid@host``)."""
    return member.rsplit("@", 1)[-1]


def departed_hosts(events: Sequence[Any]) -> Set[str]:
    """Hosts whose replica member left some group view.

    Includes both detected crashes (``crashed=True`` heartbeat-path
    removals) and local-disconnect leaves: a process kill surfaces as
    its daemon submitting a voluntary leave, indistinguishable in the
    journal from an intentional departure.  Either way the host is no
    longer a member and cannot be held to liveness obligations.
    """
    dead: Set[str] = set()
    for event in events:
        if event.kind != "membership.view":
            continue
        for member in event.attrs.get("left", ()):
            dead.add(_member_host(str(member)))
    return dead


def _check_view_agreement(events: Sequence[Any]) -> List[Violation]:
    seen: Dict[Tuple[str, int], Tuple[Tuple[str, ...], float]] = {}
    violations: List[Violation] = []
    for event in events:
        if event.kind != "membership.view":
            continue
        group = event.attrs.get("group")
        view_id = event.attrs.get("view_id")
        if group is None or view_id is None:
            continue
        members = tuple(str(m) for m in event.attrs.get("members", ()))
        key = (str(group), int(view_id))
        if key not in seen:
            seen[key] = (members, event.time_us)
        elif seen[key][0] != members:
            violations.append(Violation(
                invariant="view_agreement",
                message=f"view {view_id} of group {group!r} installed "
                        f"with different memberships",
                time_us=event.time_us,
                details={"group": group, "view_id": view_id,
                         "first": list(seen[key][0]),
                         "conflicting": list(members),
                         "host": event.host}))
    return violations


def _check_unique_primary(events: Sequence[Any]) -> List[Violation]:
    # Track each host's currently installed view per group; attribute
    # primary-only acts (periodic checkpoint publishes, failover
    # claims) to (group, view_id) and require a single acting host.
    host_view: Dict[Tuple[str, str], int] = {}
    acting: Dict[Tuple[str, int], Set[str]] = {}
    first_seen: Dict[Tuple[str, int], float] = {}
    violations: List[Violation] = []
    for event in events:
        if event.kind == "membership.view":
            group = event.attrs.get("group")
            view_id = event.attrs.get("view_id")
            if group is not None and view_id is not None:
                host_view[(event.host, str(group))] = int(view_id)
            continue
        is_primary_act = (
            (event.kind == "checkpoint.publish"
             and event.attrs.get("sync_for") is None)
            or event.kind == "failover")
        if not is_primary_act:
            continue
        if event.shard is not None:
            # A sharded replicator's group is its shard: a host serving
            # two shards acts in each one's view separately.
            group = event.shard
            view_id = host_view.get((event.host, group))
            if view_id is None:
                continue
        else:
            # Single-group runs: the replicator's group is the only one
            # its host has a view for.  Use the host's most recently
            # installed view of any group.
            views = [(g, v) for (h, g), v in host_view.items()
                     if h == event.host]
            if not views:
                continue
            group, view_id = views[-1]
        key = (group, view_id)
        actors = acting.setdefault(key, set())
        actors.add(event.host)
        first_seen.setdefault(key, event.time_us)
        if len(actors) > 1:
            violations.append(Violation(
                invariant="unique_primary",
                message=f"{len(actors)} hosts acted as primary of "
                        f"group {group!r} in view {view_id}",
                time_us=event.time_us,
                details={"group": group, "view_id": view_id,
                         "hosts": sorted(actors)}))
    return violations


def _check_switch_phases(events: Sequence[Any],
                         dead: Set[str]) -> List[Violation]:
    violations: List[Violation] = []
    prepared: Dict[Tuple[str, str], Any] = {}
    finished: Dict[Tuple[str, str], str] = {}
    styles: Dict[str, Tuple[str, str]] = {}
    for event in events:
        if not event.kind.startswith("switch."):
            continue
        switch_id = str(event.attrs.get("switch_id"))
        key = (event.host, switch_id)
        pair = (str(event.attrs.get("from_style")),
                str(event.attrs.get("to_style")))
        agreed = styles.setdefault(switch_id, pair)
        if agreed != pair:
            violations.append(Violation(
                invariant="switch_style_agreement",
                message=f"hosts disagree on the styles of switch "
                        f"{switch_id!r}",
                time_us=event.time_us,
                details={"switch_id": switch_id, "first": list(agreed),
                         "conflicting": list(pair),
                         "host": event.host}))
        if event.kind == "switch.prepare":
            prepared[key] = event
        elif event.kind in ("switch.complete", "switch.rollback"):
            if key not in prepared:
                violations.append(Violation(
                    invariant="switch_phase_order",
                    message=f"{event.kind} without a preceding "
                            f"switch.prepare at {event.host}",
                    time_us=event.time_us,
                    details={"switch_id": switch_id,
                             "host": event.host}))
            if key in finished:
                violations.append(Violation(
                    invariant="switch_phase_once",
                    message=f"switch {switch_id!r} finished twice at "
                            f"{event.host} ({finished[key]} then "
                            f"{event.kind})",
                    time_us=event.time_us,
                    details={"switch_id": switch_id,
                             "host": event.host}))
            finished[key] = event.kind
    for (host, switch_id), event in prepared.items():
        if (host, switch_id) in finished or host in dead:
            continue
        violations.append(Violation(
            invariant="switch_bounded_completion",
            message=f"{host} is still in the PREPARING phase of "
                    f"switch {switch_id!r} at the horizon",
            time_us=event.time_us,
            details={"switch_id": switch_id, "host": host}))
    return violations


def _check_daemon_view_agreement(events: Sequence[Any]
                                 ) -> List[Violation]:
    """Daemon-layer view synchrony: one ``view_id``, one host set."""
    seen: Dict[int, Tuple[Tuple[str, ...], float]] = {}
    violations: List[Violation] = []
    for event in events:
        if event.kind != "daemon.install":
            continue
        view_id = event.attrs.get("view_id")
        if view_id is None:
            continue
        members = tuple(str(m) for m in event.attrs.get("members", ()))
        key = int(view_id)
        if key not in seen:
            seen[key] = (members, event.time_us)
        elif seen[key][0] != members:
            violations.append(Violation(
                invariant="daemon_view_agreement",
                message=f"daemon view {view_id} installed with "
                        f"different host sets — concurrent views",
                time_us=event.time_us,
                details={"view_id": key, "first": list(seen[key][0]),
                         "conflicting": list(members),
                         "host": event.host}))
    return violations


def _partition_windows(events: Sequence[Any]
                       ) -> List[Tuple[float, float, List[Set[str]]]]:
    """(start, end, minority components) of every injected symmetric
    partition, from the injector's ground-truth journal events."""
    windows: List[Tuple[float, float, List[Set[str]]]] = []
    for event in events:
        if event.kind != "fault.inject" \
                or event.attrs.get("fault") != "partition":
            continue
        components = [set(str(h) for h in c)
                      for c in event.attrs.get("components", ())]
        if not components:
            continue
        total = sum(len(c) for c in components)
        minorities = [c for c in components if 2 * len(c) <= total]
        at = float(event.attrs.get("at_us", event.time_us))
        until = event.attrs.get("until_us")
        if until is None:
            continue
        windows.append((at, float(until), minorities))
    return windows


def _check_no_split_brain(events: Sequence[Any]) -> List[Violation]:
    """Primary-partition safety: while a symmetric partition is up, no
    minority component may install a view drawn from itself alone.

    A late install of a *pre-partition* (wider) view racing the cut is
    not flagged — the signature of a serving minority is precisely an
    install whose member hosts all sit inside one minority component.
    """
    windows = _partition_windows(events)
    if not windows:
        return []
    violations: List[Violation] = []
    for event in events:
        if event.kind != "daemon.install":
            continue
        members = set(str(m) for m in event.attrs.get("members", ()))
        if not members:
            continue
        for at, until, minorities in windows:
            if not at < event.time_us <= until:
                continue
            for component in minorities:
                if event.host in component and members <= component:
                    violations.append(Violation(
                        invariant="no_split_brain",
                        message=f"minority component "
                                f"{sorted(component)} installed its "
                                f"own view during the partition "
                                f"window",
                        time_us=event.time_us,
                        details={"host": event.host,
                                 "view_id": event.attrs.get("view_id"),
                                 "members": sorted(members),
                                 "component": sorted(component),
                                 "window": [at, until]}))
    return violations


def check_invariants(events: Sequence[Any]) -> List[Violation]:
    """Run every journal-level monitor; returns all violations."""
    dead = departed_hosts(events)
    violations: List[Violation] = []
    violations.extend(_check_view_agreement(events))
    violations.extend(_check_daemon_view_agreement(events))
    violations.extend(_check_no_split_brain(events))
    violations.extend(_check_unique_primary(events))
    violations.extend(_check_switch_phases(events, dead))
    return violations


def check_counter_consistency(operations: Sequence[Operation],
                              survivor_values: Sequence[int],
                              object_key: str = "counter"
                              ) -> List[Violation]:
    """No-lost-acked and at-most-once over final counter states.

    Every acknowledged ``add`` must be reflected in the most advanced
    survivor's state (no lost acked updates after failover), and no
    survivor's state may exceed the distinct increments ever issued
    (retries and fan-out never double-apply).
    """
    if not survivor_values:
        return []
    adds = [op for op in operations
            if op.object_key == object_key and op.operation == "add"]
    acked = sum(int(op.payload) for op in adds if not op.pending)
    issued = sum(int(op.payload) for op in adds)
    top = max(survivor_values)
    violations: List[Violation] = []
    if top < acked:
        violations.append(Violation(
            invariant="no_lost_acked_updates",
            message=f"acknowledged increments total {acked} but the "
                    f"most advanced survivor holds {top}",
            details={"acked": acked, "survivor_values":
                     list(survivor_values)}))
    if top > issued:
        violations.append(Violation(
            invariant="at_most_once",
            message=f"a survivor holds {top} but only {issued} "
                    f"increments were ever issued — work was "
                    f"double-applied",
            details={"issued": issued, "survivor_values":
                     list(survivor_values)}))
    return violations
