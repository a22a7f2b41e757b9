"""What the control daemons share: the JSON message codec, the send
path, the DRR reservation and the soft-state age-out.

Plain functions over a :class:`~repro.core.router.Router`; each daemon
keeps its own field checks, counters and error type.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..core.gates import GATE_PACKET_SCHEDULING
from ..core.router import Router
from ..net.addresses import IPAddress
from ..net.packet import Packet
from ..sched.drr import DrrInstance


def decode(packet: Packet) -> Optional[dict]:
    """The packet's payload as a JSON object; None if it is not one."""
    try:
        message = json.loads(bytes(packet.payload).decode("utf-8"))
    except ValueError:                  # UnicodeDecodeError is one too
        return None
    return message if isinstance(message, dict) else None


def send(
    router: Router, dst: IPAddress, message: dict, protocol: int, now: float,
    iface: Optional[str] = None, **ports,
) -> str:
    """Originate ``message`` to ``dst`` as a JSON control packet, from
    ``router.source_address`` (``dst`` itself when the router has no
    address of its family); ``ports`` are the packet's ``src_port`` /
    ``dst_port``."""
    src = router.source_address(dst.width, iface) or dst
    payload = json.dumps(message).encode("utf-8")
    return router.originate(Packet(src=src, dst=dst, protocol=protocol, payload=payload,
                                   **ports), now)


def reserve(router: Router, oif: str, flowspec: str, rate_bps: float, error: type):
    """Install a reservation on ``oif``: a scheduling-gate filter bound
    to the interface's DRR scheduler, carrying ``rate_bps`` as its weight.
    Returns the filter record; raises ``error`` if ``oif`` has no DRR."""
    scheduler = router.scheduler(oif)
    if not isinstance(scheduler, DrrInstance):
        raise error(f"{router.name}/{oif} has no DRR scheduler for reservations")
    record = router.aiu.create_filter(GATE_PACKET_SCHEDULING, flowspec, instance=scheduler)
    scheduler.reserve(record, rate_bps)
    return record


def expired(states: Dict[object, object], now: float, hold: float, stamp: str) -> List[object]:
    """Pop and return the soft-state entries whose ``stamp`` attribute
    (the time they were last refreshed) is more than ``hold`` before ``now``."""
    stale = [key for key, state in states.items() if now - getattr(state, stamp) > hold]
    return [states.pop(key) for key in stale]
