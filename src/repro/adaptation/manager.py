"""The adaptation loop: monitoring -> policy -> style switch.

Section 3.1: adaptation "is performed automatically, according to a
set of policies that can be either pre-defined or introduced at run
time", and decisions are "made in a distributed manner by a
deterministic algorithm that takes this replicated state as its
input".

One :class:`AdaptationManager` runs beside each server replicator.
Each manager periodically publishes its locally observed request
arrival rate into the group's :class:`ReplicatedState`; every manager
then evaluates the *same deterministic policy* over the *same agreed
state*, so all replicas reach the same decision.  Whichever manager
acts first wins; the others' concurrent switch commands are duplicates
and are discarded by the Fig. 5 protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.policies import ThresholdSwitchPolicy
from repro.errors import AdaptationError
from repro.gcs.client import GcsClient
from repro.monitoring.replicated_state import ReplicatedState
from repro.replication.server import ServerReplicator
from repro.replication.styles import ReplicationStyle
from repro.sim.actor import Actor


@dataclass(frozen=True)
class AdaptationEvent:
    """One adaptation decision taken by a manager."""

    time: float
    rate_per_s: float
    from_style: ReplicationStyle
    to_style: ReplicationStyle
    switch_id: str


class AdaptationManager(Actor):
    """Policy-driven runtime adaptation for one replica."""

    def __init__(self, replicator: ServerReplicator,
                 policy: ThresholdSwitchPolicy,
                 monitor_gcs: Optional[GcsClient] = None,
                 evaluation_interval_us: float = 100_000.0,
                 cooldown_us: float = 1_000_000.0):
        super().__init__(replicator.process,
                         name=f"adapt:{replicator.process.name}")
        if evaluation_interval_us <= 0:
            raise AdaptationError("evaluation interval must be positive")
        self.replicator = replicator
        self.policy = policy
        self.cooldown_us = cooldown_us
        self._last_switch_at = -cooldown_us
        self.events: List[AdaptationEvent] = []
        self.rate_samples: List[tuple] = []
        # The replicated system state lives in a sibling group so the
        # monitoring traffic never mixes with application requests.
        gcs = monitor_gcs or replicator.gcs
        self.state = ReplicatedState(gcs, f"{replicator.group}.mon")
        self.set_periodic_timer("adapt", evaluation_interval_us,
                                self._tick)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self.replicator.synced:
            return
        local_rate = self.replicator.arrivals.rate_per_second(self.sim.now)
        self.state.publish_own("rate", local_rate)
        group_rate = self.group_rate()
        self.rate_samples.append((self.sim.now, group_rate))
        target = self.policy.decide(self.replicator.style, group_rate)
        if target is None:
            return
        if self.replicator.switching:
            return
        if self.sim.now - self._last_switch_at < self.cooldown_us:
            return
        try:
            switch_id = self.replicator.request_switch(target)
        except AdaptationError:
            return  # lost a race with another manager; harmless
        self._last_switch_at = self.sim.now
        event = AdaptationEvent(
            time=self.sim.now, rate_per_s=group_rate,
            from_style=self.replicator.style, to_style=target,
            switch_id=switch_id)
        self.events.append(event)
        journal = self.sim.journal
        if journal.enabled:
            # The replicated-state inputs the deterministic policy saw:
            # every manager evaluates the same agreed per-member rates,
            # so concurrent initiations carry identical inputs and the
            # journal merges them into one decision with N voters.
            journal.record(
                self.sim.now, self.process.host.name, "adaptation",
                "adaptation.decision", switch_id=switch_id,
                rate_per_s=group_rate,
                from_style=event.from_style.value,
                to_style=target.value,
                inputs={str(k): v
                        for k, v in self.state.items_matching("rate").items()})

    def group_rate(self) -> float:
        """Deterministic aggregate over the replicated state: the
        maximum published per-member rate.  In passive mode only the
        primary observes the full request stream, so max (not mean)
        reflects the true offered load."""
        rates = self.state.values_matching("rate")
        return max(rates) if rates else 0.0
