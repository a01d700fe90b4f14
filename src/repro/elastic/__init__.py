"""Elastic distributed serve tier.

Shards — by default :class:`~repro.elastic.shard.ShardServer` instances,
each a full :class:`~repro.serve.server.QueryServer` owning a subset of
segment groups, reached through the seven-member
:class:`~repro.elastic.shard.ShardTransport` seam — behind a
consistent-hash ring and an :class:`~repro.elastic.router.ElasticTier`
router that fans top-k requests to owners, merges the partials
byte-identically to the unsharded path, rebalances ownership live under
traffic (drain at an MVCC TID, transfer, re-admit), and keeps the
watermark-keyed result caches replica-coherent.
"""

from .ring import ConsistentHashRing
from .router import ElasticTier
from .shard import ShardRequest, ShardServer, ShardTransport
from .sim import SimulatedElasticServe

__all__ = [
    "ConsistentHashRing",
    "ElasticTier",
    "ShardRequest",
    "ShardServer",
    "ShardTransport",
    "SimulatedElasticServe",
]
