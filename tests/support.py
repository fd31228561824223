"""Shared test helpers: a small simulated cluster with GCS daemons,
and malformed journal lines every loader must refuse."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.gcs import GcsClient, GcsDaemon
from repro.net import Network
from repro.sim import (
    Host,
    NetworkCalibration,
    Process,
    Simulator,
    SubstrateCalibration,
    default_calibration,
)

#: Journal lines that are valid JSON objects but not journal events:
#: every loader must refuse them with a typed error, never a traceback.
NON_EVENT_JOURNAL_LINES = {
    "missing-field": '{"a":1}',
    "attrs-not-a-mapping": '{"seq":0,"t_us":1.0,"host":"h",'
                           '"component":"c","kind":"k","attrs":[1]}',
    "seq-not-a-number": '{"seq":"x","t_us":1.0,"host":"h",'
                        '"component":"c","kind":"k"}',
    "shard-not-a-string": '{"seq":0,"t_us":5,"host":"s01","component":"gcs",'
                          '"kind":"request.done","attrs":{},"shard":3}',
    "time-not-finite": '{"seq":0,"t_us":NaN,"host":"h",'
                       '"component":"c","kind":"k"}',
    "attrs-a-list-of-pairs": '{"seq":0,"t_us":1.0,"host":"h",'
                             '"component":"c","kind":"k","attrs":[["a",1]]}',
}


def assert_cli_refuses_non_event_journals(argv: Sequence[str], tmp_path,
                                          capsys) -> None:
    """``repro <argv> FILE`` exits 2 with the typed one-line message,
    not a traceback, for each of :data:`NON_EVENT_JOURNAL_LINES`."""
    from repro.cli import main

    path = tmp_path / "not-events.jsonl"
    capsys.readouterr()
    for line in NON_EVENT_JOURNAL_LINES.values():
        path.write_text(line + "\n")
        assert main([*argv, str(path)]) == 2
        assert ("journal line 1 is not a journal event"
                in capsys.readouterr().err)


class Cluster:
    """A LAN of hosts, each running a GCS daemon."""

    def __init__(self, host_names: Sequence[str], seed: int = 0,
                 calibration: Optional[SubstrateCalibration] = None,
                 deterministic_network: bool = True):
        self.calibration = calibration or default_calibration()
        if deterministic_network:
            self.calibration = self.calibration.with_overrides(
                network=NetworkCalibration(jitter_us=0.0))
        self.sim = Simulator(seed=seed)
        self.network = Network(self.sim, self.calibration.network)
        self.hosts: Dict[str, Host] = {}
        self.daemons: Dict[str, GcsDaemon] = {}
        names = list(host_names)
        for name in names:
            self.hosts[name] = self.network.add_host(
                name, calibration=self.calibration.host)
        for name in names:
            proc = Process(self.hosts[name], f"gcsd-{name}")
            self.daemons[name] = GcsDaemon(proc, self.network, names,
                                           self.calibration.gcs)

    def spawn(self, host: str, name: str) -> Process:
        return Process(self.hosts[host], name)

    def client(self, host: str, name: str) -> Tuple[Process, GcsClient]:
        proc = self.spawn(host, name)
        return proc, GcsClient(proc, self.daemons[host])

    def run(self, duration_us: float) -> None:
        self.sim.run(until=self.sim.now + duration_us)


class RecordingListener:
    """GroupListener that records everything it sees."""

    def __init__(self) -> None:
        self.messages: List[Tuple[str, str, object]] = []
        self.views: List[Tuple[int, Tuple[str, ...], bool]] = []

    def on_message(self, group, sender, payload, nbytes) -> None:
        self.messages.append((group, str(sender), payload))

    def on_view(self, view, joined, left, crashed) -> None:
        self.views.append(
            (view.view_id, tuple(str(m) for m in view.members), crashed))

    @property
    def payloads(self) -> List[object]:
        return [payload for _, _, payload in self.messages]

    @property
    def member_sets(self) -> List[Tuple[str, ...]]:
        return [members for _, members, _ in self.views]
