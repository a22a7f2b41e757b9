"""Management counts do not depend on cache pressure: a flow evicted from
the flow table and re-created re-adopts its tuple's statistics record and
TCP-monitor state, so the per-flow totals equal the packets each
instance processed — on ``receive``, ``receive_batch`` and the metered
walk alike."""

import pytest

from repro.core import GATE_IP_OPTIONS, GATE_IP_SECURITY, Router
from repro.net.packet import make_tcp
from repro.sim.cost import CycleMeter
from repro.stats import StatisticsPlugin, TcpMonitorPlugin

FLOWS = 4
ROUNDS = 3

SENDS = {
    "receive": lambda router, packets: [router.receive(p) for p in packets],
    "receive_batch": lambda router, packets: router.receive_batch(packets),
    "metered": lambda router, packets: [
        router.receive(p, cycles=CycleMeter()) for p in packets],
}


def _churned(send):
    """Two cached flows, four tuples sent round-robin: every packet after
    the first two evicts the flow that is about to come back."""
    router = Router(max_flows=2, flow_buckets=64)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    instances = []
    for plugin, gate in ((StatisticsPlugin(), GATE_IP_SECURITY),
                         (TcpMonitorPlugin(), GATE_IP_OPTIONS)):
        router.pcu.load(plugin)
        instances.append(plugin.create_instance())
        plugin.register_instance(instances[-1], "*, *, TCP", gate=gate)
    packets = [
        make_tcp(f"10.0.0.{flow + 1}", "20.0.0.1", 5000 + flow, 80,
                 payload_size=10, seq=100 * (r + 1), iif="atm0")
        for r in range(ROUNDS) for flow in range(FLOWS)
    ]
    assert send(router, packets) == ["forwarded"] * len(packets)
    assert router.aiu.flow_table.evictions > 0
    return instances


@pytest.mark.parametrize("path", sorted(SENDS))
def test_reinstalled_flow_keeps_its_history(path):
    stats, tcpmon = _churned(SENDS[path])
    assert stats.packets_processed == tcpmon.packets_processed == FLOWS * ROUNDS
    totals = stats.totals()
    assert totals["flows"] == FLOWS
    assert totals["packets"] == stats.packets_processed
    states = tcpmon.report()
    assert len(states) == FLOWS
    assert sum(s.segments for s in states.values()) == tcpmon.packets_processed
    assert all(s.retransmissions == 0 for s in states.values())
