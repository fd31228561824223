"""Declarative campaign and trial specifications.

A :class:`CampaignSpec` describes a sweep over the paper's knob
design space — replication style, replica count, checkpoint frequency
— crossed with fault-dictionary loads and seeds (DAVOS calls this the
*fault-injection campaign*).  It expands deterministically into
:class:`TrialSpec` instances: same spec, same trial list, same
per-trial seeds, on every machine and in every worker process — the
property the campaign engine's bit-identical-rerun guarantee rests on.

Both dataclasses round-trip through JSON so campaigns can live in
version control next to their results.
"""

from __future__ import annotations

import itertools
import json
import random
import zlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.campaign.dictionary import available_loads
from repro.errors import ConfigurationError, Rule, check_fields
from repro.replication.styles import ReplicationStyle
from repro.sim.config import PAPER_LATENCY_LIMIT_US

#: Bump when the expansion/seeding rules change incompatibly.
SPEC_VERSION = 1

#: The declared rules of a :class:`TrialSpec`.
TRIAL_RULES = (
    Rule(("trial_id",), str, ge=1),
    Rule(("style", "fault_load"), str),
    Rule(("n_replicas", "checkpoint_interval", "n_clients", "n_shards"), int,
         ge=1),
    Rule(("seed",), int),
    Rule(("duration_us", "rate_per_s", "deadline_us"), float, gt=0),
    Rule(("settle_us",), float, ge=0),
)
#: The declared rules of a :class:`CampaignSpec` and of each element of
#: its axis lists; its load window is checked as each trial's.
CAMPAIGN_RULES = (
    Rule(("name",), str, ge=1),
    Rule(("styles", "replica_counts", "checkpoint_intervals", "fault_loads",
          "shard_counts", "seeds"), list, ge=1),
    Rule(("sample",), int, ge=1, nullable=True),
    Rule(("base_seed", "version"), int),
)
AXIS_RULES = (
    Rule(("styles", "fault_loads"), str),
    Rule(("replica_counts", "checkpoint_intervals", "shard_counts"), int,
         ge=1),
    Rule(("seeds",), int),
)


@dataclass(frozen=True)
class TrialSpec:
    """One fully-determined trial: a knob configuration, a fault load
    and a seed, plus the workload window it runs under."""

    trial_id: str
    style: str
    n_replicas: int
    checkpoint_interval: int
    fault_load: str
    seed: int
    n_clients: int
    duration_us: float
    rate_per_s: float
    deadline_us: float
    settle_us: float
    #: Shard count; 1 = the classic single replica group.  Sharded
    #: trials (> 1) run through :func:`repro.cluster.run_cluster_trial`
    #: and support only the ``none``/``process_crash`` fault loads.
    n_shards: int = 1

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any bad field."""
        check_fields(vars(self), TRIAL_RULES)
        try:
            ReplicationStyle(self.style)
        except ValueError:
            raise ConfigurationError(
                f"unknown replication style {self.style!r}") from None
        if self.fault_load not in available_loads():
            raise ConfigurationError(
                f"unknown fault load {self.fault_load!r}; "
                f"known: {', '.join(available_loads())}")
        if self.n_shards > 1 and self.fault_load not in ("none",
                                                         "process_crash"):
            raise ConfigurationError(
                f"sharded trials support fault loads 'none' and "
                f"'process_crash', not {self.fault_load!r}")

    @property
    def replication_style(self) -> ReplicationStyle:
        return ReplicationStyle(self.style)

    @property
    def config_key(self) -> str:
        """Knob-configuration key (what scores aggregate over)."""
        style = ReplicationStyle(self.style)
        base = f"{style.short}({self.n_replicas})/k{self.checkpoint_interval}"
        if self.n_shards > 1:
            return f"{base}x{self.n_shards}"
        return base

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict (embedded verbatim in trial records).

        ``n_shards`` is omitted at its default so unsharded records
        stay byte-identical to those of earlier builds."""
        data = asdict(self)
        if self.n_shards == 1:
            del data["n_shards"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TrialSpec":
        try:
            spec = cls(**data)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ConfigurationError(f"bad trial spec: {exc}") from None
        spec.validate()
        return spec


@dataclass
class CampaignSpec:
    """A sweep: knob grid x fault loads x seeds.

    ``sample`` switches from exhaustive grid expansion to a random
    (but ``base_seed``-deterministic) subsample of that many trials —
    the DAVOS move for design spaces too big to sweep exhaustively.
    """

    name: str
    styles: List[str] = field(default_factory=lambda: [
        ReplicationStyle.ACTIVE.value,
        ReplicationStyle.WARM_PASSIVE.value])
    replica_counts: List[int] = field(default_factory=lambda: [2, 3])
    checkpoint_intervals: List[int] = field(default_factory=lambda: [1])
    fault_loads: List[str] = field(default_factory=lambda: [
        "none", "process_crash", "loss_burst"])
    #: Shard counts to sweep; the default [1] keeps campaigns (and
    #: their trial ids) identical to pre-cluster builds.
    shard_counts: List[int] = field(default_factory=lambda: [1])
    seeds: List[int] = field(default_factory=lambda: [0])
    n_clients: int = 2
    duration_us: float = 1_000_000.0
    rate_per_s: float = 150.0
    deadline_us: float = PAPER_LATENCY_LIMIT_US
    settle_us: float = 1_500_000.0
    sample: Optional[int] = None
    base_seed: int = 0
    version: int = SPEC_VERSION

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any bad field."""
        check_fields(vars(self), CAMPAIGN_RULES)
        if self.version != SPEC_VERSION:
            raise ConfigurationError(
                f"unsupported spec version {self.version} "
                f"(this build speaks {SPEC_VERSION})")
        for rule in AXIS_RULES:
            for axis in rule.names:
                values = getattr(self, axis)
                for value in values:
                    rule.check(f"each of {axis}", value)
                if len(set(values)) != len(values):
                    raise ConfigurationError(f"duplicate values in {axis}")
        for trial in self._grid():
            trial.validate()

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def _grid(self) -> List[TrialSpec]:
        trials = []
        for style, n_replicas, interval, fault, n_shards, seed in \
                itertools.product(
                    self.styles, self.replica_counts,
                    self.checkpoint_intervals, self.fault_loads,
                    self.shard_counts, self.seeds):
            if n_shards > 1 and fault not in ("none", "process_crash"):
                # The other dictionary loads assume one replica group;
                # drop those combinations rather than failing the sweep.
                continue
            trial_id = (f"{style}-r{n_replicas}-k{interval}"
                        f"-{fault}"
                        f"{f'-sh{n_shards}' if n_shards > 1 else ''}"
                        f"-s{seed}")
            trials.append(TrialSpec(
                trial_id=trial_id, style=style, n_replicas=n_replicas,
                checkpoint_interval=interval, fault_load=fault,
                seed=derive_trial_seed(self.base_seed, trial_id),
                n_clients=self.n_clients, duration_us=self.duration_us,
                rate_per_s=self.rate_per_s,
                deadline_us=self.deadline_us, settle_us=self.settle_us,
                n_shards=n_shards))
        return trials

    def expand(self) -> List[TrialSpec]:
        """The deterministic trial list (grid, or a seeded subsample)."""
        self.validate()
        trials = self._grid()
        if self.sample is not None and self.sample < len(trials):
            rng = random.Random(self.base_seed)
            keep = set(rng.sample(range(len(trials)), self.sample))
            trials = [t for i, t in enumerate(trials) if i in keep]
        return trials

    def n_trials(self) -> int:
        """Trial count after sampling."""
        return len(self.expand())

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_json(self, indent: int = 2) -> str:
        """Serialize the spec as canonical (sorted-key) JSON."""
        return json.dumps(asdict(self), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"bad campaign JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigurationError("campaign spec must be a JSON object")
        try:
            spec = cls(**data)
        except TypeError as exc:
            raise ConfigurationError(f"bad campaign spec: {exc}") from None
        spec.validate()
        return spec

    @classmethod
    def from_file(cls, path: str) -> "CampaignSpec":
        """Load a spec file; raises :class:`ConfigurationError` naming
        ``path`` when it cannot."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_json(handle.read())
        except (OSError, UnicodeDecodeError, ConfigurationError) as exc:
            raise ConfigurationError(f"bad spec {path}: {exc}") from None


def derive_trial_seed(base_seed: int, trial_id: str) -> int:
    """Deterministic per-trial seed: independent of Python's hash
    randomization and of which worker process runs the trial."""
    return zlib.crc32(f"{base_seed}|{trial_id}".encode("utf-8")) & 0x7FFFFFFF
