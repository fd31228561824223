"""Switched-LAN network model.

Models the paper's testbed LAN: hosts attached to one switch, frame
delay = propagation + transmission (size/bandwidth) + uniform jitter,
with optional loss/delay fault models.  Frames to the same host take a
cheap loopback path.  All traffic is accounted in :class:`NetworkStats`
for the bandwidth axis of the design space.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Optional

from repro.errors import NetworkError
from repro.net.frame import FRAME_OVERHEAD_BYTES, Endpoint, Frame
from repro.net.loss import CompositeLoss, LossModel
from repro.net.topology import LinkFilter
from repro.net.stats import NetworkStats
from repro.sim.config import NetworkCalibration
from repro.sim.host import Host
from repro.sim.kernel import Simulator


class Network:
    """A single switched LAN segment connecting :class:`Host` objects."""

    def __init__(self, sim: Simulator,
                 calibration: Optional[NetworkCalibration] = None):
        self.sim = sim
        self.calibration = calibration or NetworkCalibration()
        self.calibration.validate()
        self.hosts: Dict[str, Host] = {}
        self.stats = NetworkStats()
        self.loss = CompositeLoss()
        #: Per-link topology filters (partitions, flaky links, slow
        #: hosts) judged by ``(src_host, dst_host)``; empty on the hot
        #: path, see :meth:`transmit`.
        self.topology: list = []
        self._frame_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(self, host: Host) -> Host:
        """Attach a host to this LAN."""
        if host.name in self.hosts:
            raise NetworkError(f"host name already attached: {host.name}")
        if host.network is not None:
            raise NetworkError(f"host {host.name} already on a network")
        self.hosts[host.name] = host
        host.network = self
        return host

    def host(self, name: str) -> Host:
        """Look up an attached host by name."""
        try:
            return self.hosts[name]
        except KeyError:
            raise NetworkError(f"unknown host: {name}") from None

    def add_host(self, name: str, **host_kwargs) -> Host:
        """Create a host and attach it in one step."""
        return self.attach(Host(self.sim, name, **host_kwargs))

    # ------------------------------------------------------------------
    # Fault models
    # ------------------------------------------------------------------
    def add_loss_model(self, model: LossModel) -> None:
        """Install a loss/delay fault model on the segment."""
        self.loss.add(model)

    def remove_loss_model(self, model: LossModel) -> None:
        """Uninstall a loss/delay fault model."""
        self.loss.remove(model)

    def add_link_filter(self, filt: LinkFilter) -> None:
        """Install a per-link topology filter (partition, flaky link,
        slow host)."""
        self.topology.append(filt)

    def remove_link_filter(self, filt: LinkFilter) -> None:
        """Uninstall a topology filter (no-op if absent)."""
        if filt in self.topology:
            self.topology.remove(filt)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, src: Endpoint, dst: Endpoint, payload: object,
             payload_bytes: int, kind: str = "data") -> None:
        """Transmit one frame from ``src`` to ``dst``.

        Delivery is asynchronous; frames to dead or unknown hosts are
        dropped silently (datagram semantics — reliability is the
        group-communication layer's job, as in Spread).
        """
        self.transmit(Frame(src, dst, payload, payload_bytes, kind,
                            next(self._frame_ids)))

    def send_each(self, src: Endpoint, dsts: Iterable[Endpoint],
                  payload: object, payload_bytes: int,
                  kind: str = "data") -> None:
        """Transmit one frame of ``payload`` to each of ``dsts``, in
        order: exactly ``send`` once per destination (the same frame
        ids, rng draws and deliveries) at one call per fan-out.  A
        heartbeat round is one call."""
        transmit = self.transmit
        frame_ids = self._frame_ids
        for dst in dsts:
            transmit(Frame(src, dst, payload, payload_bytes, kind,
                           next(frame_ids)))

    def transmit(self, frame: Frame) -> None:
        """Place a prepared frame on the wire."""
        sim = self.sim
        hosts = self.hosts
        src_name = frame.src.host
        dst_name = frame.dst.host
        src_host = hosts.get(src_name)
        dst_host = hosts.get(dst_name)
        if src_host is None:
            raise NetworkError(f"unknown source host: {src_name}")
        if not src_host.alive:
            # A dead host cannot transmit; this is not an error because
            # in-flight callbacks may race with a crash.
            self.stats.record_drop()
            return
        if dst_host is None or not dst_host.alive:
            self.stats.record_drop()
            return

        if self.loss.models:
            dropped, extra_delay = self.loss.judge(sim.now, sim.rng)
            if dropped:
                self.stats.record_drop()
                return
        else:
            # Fast path: with no fault models installed the composite
            # verdict is always (False, 0.0) and consumes no rng, so
            # skipping the call is behaviour-identical.
            extra_delay = 0.0

        if self.topology and src_name != dst_name:
            # Per-link topology plane.  Loopback frames never cross a
            # link, so they bypass the filters; with no filters
            # installed this branch costs one falsy check.  Filters
            # only consume rng for frames they actually randomize
            # (FlakyLink in-window on its link), keeping the stream —
            # and the journal — byte-identical otherwise.
            for filt in self.topology:
                f_dropped, f_extra = filt.judge(src_name, dst_name,
                                                sim.now, sim.rng)
                if f_dropped:
                    self.stats.record_drop()
                    return
                extra_delay += f_extra

        wire_bytes = frame.payload_bytes + FRAME_OVERHEAD_BYTES
        self.stats.record_transmit(src_name, dst_name, wire_bytes)
        policy = sim.scheduler_policy
        if policy is not None:
            # Schedule-space exploration: the checker's policy may add
            # a bounded extra delay per frame, perturbing delivery
            # interleavings the way a real LAN's queueing would.
            extra_delay += policy.message_delay(wire_bytes)
        cal = self.calibration
        if src_name == dst_name:
            delay = cal.local_loopback_us
        else:
            # jitter_us * random() is bit-identical to the old
            # uniform(0, jitter_us): the library computes a+(b-a)*random().
            delay = (cal.propagation_us
                     + wire_bytes / cal.bandwidth_bytes_per_us
                     + cal.jitter_us * sim.rng.random())
        sim.schedule(delay + extra_delay, dst_host.deliver,
                     frame.dst.port, frame)

    def __repr__(self) -> str:
        return f"<Network hosts={sorted(self.hosts)}>"
