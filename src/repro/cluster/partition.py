"""Deterministic partition map: consistent hashing with virtual nodes.

The cluster partitions the object-key space across independent
replication groups (*shards*).  Every router and every shard admin
holds a copy of the same :class:`PartitionMap`; map changes are
multicast AGREED on the cluster control group, so all copies flip at
the same point in the control-message total order (the classic
"agreement on the routing table" move of Bortnikov et al.'s
reconfigurable-SMR construction).

Determinism requirements, all load-bearing:

- hashing uses :func:`zlib.crc32`, which is independent of Python's
  per-process hash randomization, so every process — campaign worker,
  router, admin — computes identical rings;
- the ring is sorted by ``(point, shard, replica_index)``, making
  tie-breaks total;
- :meth:`digest` hashes the canonical JSON form, so two routers can
  prove they agree byte-for-byte.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.canonical import canonical_json
from repro.errors import ConfigurationError, Rule, check_fields

#: Default virtual nodes per shard; enough to spread a handful of
#: shards evenly without bloating the ring.
DEFAULT_VNODES = 64

#: Bump when the hashing/ring rules change incompatibly.
MAP_VERSION = 1

#: The declared rules of a :class:`PartitionMap`.
MAP_RULES = (
    Rule(("shards",), tuple, ge=1),
    Rule(("overrides",), tuple),
    Rule(("epoch",), int, ge=0),
    Rule(("vnodes",), int, ge=1),
    Rule(("version",), int),
)


def _point(token: str) -> int:
    """Ring position of ``token``: crc32, hash-randomization-free."""
    return zlib.crc32(token.encode("utf-8")) & 0xFFFFFFFF


@dataclass(frozen=True)
class PartitionMap:
    """An immutable key-to-shard assignment with an epoch.

    ``shards`` are replication-group names.  ``overrides`` pin
    individual keys to a shard regardless of the ring — the mechanism
    behind operator-commanded rebalances (the ring stays put; only the
    moved keys change owner, so a rebalance migrates exactly the keys
    it names).
    """

    shards: Tuple[str, ...]
    epoch: int = 0
    vnodes: int = DEFAULT_VNODES
    overrides: Tuple[Tuple[str, str], ...] = ()
    version: int = MAP_VERSION

    def __post_init__(self) -> None:
        """Validate shape (frozen dataclass, so only checks here)."""
        check_fields(vars(self), MAP_RULES)
        if len(set(self.shards)) != len(self.shards):
            raise ConfigurationError("duplicate shard names")
        for key, shard in self.overrides:
            if shard not in self.shards:
                raise ConfigurationError(
                    f"override {key!r} -> unknown shard {shard!r}")

    # ------------------------------------------------------------------
    # Ring construction and lookup
    # ------------------------------------------------------------------
    def _ring(self) -> List[Tuple[int, str]]:
        """The sorted vnode ring: (point, shard), total order."""
        ring: List[Tuple[int, int, str]] = []
        for shard in self.shards:
            for i in range(self.vnodes):
                ring.append((_point(f"{shard}#{i}"), i, shard))
        ring.sort()
        return [(point, shard) for point, _i, shard in ring]

    def owner_of(self, key: str) -> str:
        """The shard owning ``key`` (override first, then the ring)."""
        for okey, shard in self.overrides:
            if okey == key:
                return shard
        ring = self._ring()
        point = _point(key)
        for ring_point, shard in ring:
            if ring_point >= point:
                return shard
        return ring[0][1]  # wrap around

    def assignment(self, keys: Sequence[str]) -> Dict[str, str]:
        """Owner of every key in ``keys`` (insertion-ordered dict)."""
        return {key: self.owner_of(key) for key in keys}

    # ------------------------------------------------------------------
    # Map evolution (each step returns a new map with epoch + 1)
    # ------------------------------------------------------------------
    def reassign(self, key: str, shard: str) -> "PartitionMap":
        """Pin ``key`` to ``shard`` (operator rebalance)."""
        if shard not in self.shards:
            raise ConfigurationError(f"unknown shard {shard!r}")
        overrides = tuple((k, s) for k, s in self.overrides if k != key)
        return PartitionMap(shards=self.shards, epoch=self.epoch + 1,
                            vnodes=self.vnodes,
                            overrides=overrides + ((key, shard),))

    def without_shard(self, shard: str,
                      keys: Sequence[str] = ()) -> "PartitionMap":
        """Drop a (dead) shard; ``keys`` it owned are re-pinned to the
        survivors the shrunken ring chooses, so ownership of every
        other key is untouched."""
        if shard not in self.shards:
            raise ConfigurationError(f"unknown shard {shard!r}")
        survivors = tuple(s for s in self.shards if s != shard)
        if not survivors:
            raise ConfigurationError("cannot remove the last shard")
        overrides = tuple((k, s) for k, s in self.overrides if s != shard)
        shrunk = PartitionMap(shards=survivors, epoch=self.epoch + 1,
                              vnodes=self.vnodes, overrides=overrides)
        for key in keys:
            if self.owner_of(key) == shard:
                shrunk = PartitionMap(
                    shards=survivors, epoch=self.epoch + 1,
                    vnodes=self.vnodes,
                    overrides=shrunk.overrides
                    + ((key, shrunk.owner_of(key)),))
        return shrunk

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready canonical dict."""
        return {"shards": list(self.shards), "epoch": self.epoch,
                "vnodes": self.vnodes,
                "overrides": [list(pair) for pair in self.overrides],
                "version": self.version}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PartitionMap":
        """Inverse of :meth:`to_dict`; the values are checked as they
        are, never cast."""
        try:
            return cls(shards=tuple(data["shards"]),  # type: ignore[arg-type]
                       epoch=data["epoch"],  # type: ignore[arg-type]
                       vnodes=data["vnodes"],  # type: ignore[arg-type]
                       overrides=tuple((k, s) for k, s
                                       in data["overrides"]),  # type: ignore
                       version=data["version"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad partition map: {exc}") from None

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form: two routers agree on
        the map iff their digests match."""
        canonical = canonical_json(self.to_dict())
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_map(shards: Sequence[str], vnodes: int = DEFAULT_VNODES,
              overrides: Optional[Dict[str, str]] = None) -> PartitionMap:
    """Convenience constructor from plain sequences/dicts."""
    return PartitionMap(shards=tuple(shards), vnodes=vnodes,
                        overrides=tuple(sorted((overrides or {}).items())))
