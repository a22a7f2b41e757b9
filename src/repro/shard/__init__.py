"""Sharded multi-worker data path (RSS-style flow-hash dispatch).

See :mod:`repro.shard.sharded` for the front end,
:mod:`repro.shard.dispatch` for the deterministic dispatch rule and the
pickle-light handoff codec, :mod:`repro.shard.mp` for the forked worker
pool, and :mod:`repro.shard.control` for the control-plane fanout.
"""

from .control import ShardedPluginLibrary
from .dispatch import decode_packet, dispatch_packets, dispatch_wire, encode_packet
from .mp import ShardWorkerPool, mp_available, usable_cpus
from .sharded import ShardedRouter

__all__ = [
    "ShardedPluginLibrary",
    "ShardedRouter",
    "ShardWorkerPool",
    "decode_packet",
    "dispatch_packets",
    "dispatch_wire",
    "encode_packet",
    "mp_available",
    "usable_cpus",
]
