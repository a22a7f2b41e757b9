"""Occupancy is an invariant, not a tendency: a bounded flow table never
holds more than ``max_flows`` records, whatever the traffic, entry
point, or overload tier does to it."""

import random

import pytest

from repro.core import Router
from repro.net.packet import make_udp

MAX_FLOWS = 48
PACKETS = 4000
BATCH = 32


def _router(governed):
    router = Router(max_flows=MAX_FLOWS)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    if governed:
        # Tight sampling so the soak crosses every tier.
        router.attach_overload_governor(
            sample_interval=32, escalate_after=2, shed_after=2, recover_after=2
        )
    return router


def _hostile(rng):
    """Mostly-fresh tuples with a recurring minority: maximum churn."""
    if rng.random() < 0.25:
        flow = rng.randrange(16)
        return make_udp(
            f"10.0.0.{flow + 1}", "20.0.0.1", 5000 + flow, 9000, iif="atm0"
        )
    return make_udp(
        f"10.{rng.randrange(64)}.{rng.randrange(256)}.{rng.randrange(1, 255)}",
        f"20.0.0.{rng.randrange(1, 255)}",
        rng.randrange(1024, 65536), 9000, iif="atm0",
    )


@pytest.mark.parametrize("governed", [False, True], ids=["bare", "governed"])
@pytest.mark.parametrize(
    "batched", [False, True], ids=["lru-receive", "lru-receive_batch"])
def test_occupancy_never_exceeds_max_flows(batched, governed):
    router = _router(governed)
    table = router.aiu.flow_table
    rng = random.Random(13)
    pending = []
    for i in range(PACKETS):
        packet = _hostile(rng)
        now = i * 0.001
        if batched:
            pending.append(packet)
            if len(pending) == BATCH:
                router.receive_batch(pending, now=now)
                pending = []
        else:
            router.receive(packet, now=now)
        assert table.active <= MAX_FLOWS
        assert table.allocated <= MAX_FLOWS
    if pending:
        router.receive_batch(pending, now=PACKETS * 0.001)
    assert table.active <= MAX_FLOWS
    # The soak actually stressed the bound.
    assert table.evictions > 0 or (governed and router._overload.bypassed > 0)
    assert table.active > 0
