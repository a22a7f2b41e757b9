"""One reservation lifecycle: a scheduler's per-filter state lives on the
filter record, so removing the filter leaves the scheduler holding
nothing of it; a daemon's soft-state sweep removes every expired
reservation in one pass over the flow table; and a control call with a
stale ``now`` cannot schedule output before the loop's present."""

from collections import deque

import pytest

from repro.aiu.flow_table import FlowTable
from repro.core import GATE_PACKET_SCHEDULING, Router
from repro.daemons import RSVPDaemon, SSPDaemon
from repro.net.packet import make_udp
from repro.sched import CbqPlugin, HfscPlugin, ScfqPlugin
from repro.sched.curves import ServiceCurve

from .test_daemons import FLOWSPEC, _chain

HOPS = [("a", "ab0"), ("b", "bc0"), ("c", "lan0")]


def _holds(instance, record) -> bool:
    """Whether a dict, set, list or deque attribute of ``instance``
    contains ``record`` (as a key, a value or an element)."""
    for value in vars(instance).values():
        if isinstance(value, dict):
            items = [*value.keys(), *value.values()]
        elif isinstance(value, (list, set, deque)):
            items = value
        else:
            continue
        if any(item is record for item in items):
            return True
    return False


def _flowspec(i: int) -> str:
    return f"10.1.0.{i + 1}, 10.3.0.9, UDP, 4000, 5000"


def _ssp_chain(timeout=30.0):
    topo, schedulers = _chain()
    daemons = {
        name: SSPDaemon(topo.routers[name], topo.neighbors_of(name), timeout=timeout)
        for name in "abc"
    }
    return topo, schedulers, daemons


def _reserve(topo, daemons, k):
    """``k`` reservations along the chain; returns each hop's records."""
    for i in range(k):
        daemons["a"].request(f"flow{i}", _flowspec(i), rate_bps=2e6, dst="10.3.0.9",
                             now=topo.loop.now)
        topo.run()
    return [daemons[name].reservations[f"flow{i}"].filter_record
            for name in "abc" for i in range(k)]


# ----------------------------------------------------------------------
# Per-filter scheduler state goes with the filter
# ----------------------------------------------------------------------
def test_ssp_cycles_leave_no_record_in_any_scheduler():
    topo, schedulers, daemons = _ssp_chain()
    removed = []
    for _ in range(8):
        daemons["a"].request("flow", FLOWSPEC, rate_bps=3e6, dst="10.3.0.9",
                             now=topo.loop.now)
        topo.run()
        for name, iface in HOPS:
            record = daemons[name].reservations["flow"].filter_record
            assert schedulers[(name, iface)].weight_for(record) == 3.0
            removed.append(record)
        daemons["a"].teardown("flow", now=topo.loop.now)
        topo.run()
    for name in "abc":
        assert topo.routers[name].aiu.filter_count(GATE_PACKET_SCHEDULING) == 0
    assert len(removed) == 8 * len(HOPS)
    for scheduler in schedulers.values():
        assert not any(_holds(scheduler, record) for record in removed)


def test_expired_reservations_leave_no_record_in_any_scheduler():
    topo, schedulers, daemons = _ssp_chain(timeout=10.0)
    records = _reserve(topo, daemons, 5)
    for daemon in daemons.values():
        assert daemon.expire(now=topo.loop.now + 60.0) == 5
    assert all(not record.active for record in records)
    for scheduler in schedulers.values():
        assert not any(_holds(scheduler, record) for record in records)


def _sched_router(instance):
    router = Router(flow_buckets=256)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    router.set_scheduler("atm1", instance)
    record = router.aiu.create_filter(GATE_PACKET_SCHEDULING, "10.0.0.1, *, UDP",
                                      instance=instance)
    return router, record


def _slot_state(router):
    """The scheduling-gate soft state of the cached flow from 10.0.0.1."""
    gate = router.aiu.gate_index(GATE_PACKET_SCHEDULING)
    (flow,) = [f for f in router.aiu.flow_table if f.key.src & 0xFF == 1]
    slot = flow.slots[gate]
    return None if slot is None else slot.private


def _cbq():
    instance = CbqPlugin().create_instance()
    instance.add_class("bulk", rate_bps=1e6, default=True)
    instance.add_class("gold", rate_bps=5e6)
    return instance


def _hfsc():
    instance = HfscPlugin().create_instance()
    instance.add_class("bulk", fsc=ServiceCurve.linear(1e6), default=True)
    instance.add_class("gold", fsc=ServiceCurve.linear(5e6))
    return instance


@pytest.mark.parametrize("make, bind, applied", [
    (lambda: ScfqPlugin().create_instance(),
     lambda instance, record: instance.reserve(record, 4e6),
     lambda instance, state: state.weight == 4.0),
    (_cbq,
     lambda instance, record: instance.attach_filter(record, "gold"),
     lambda instance, state: state is instance.get_class("gold")),
    (_hfsc,
     lambda instance, record: instance.attach_filter(record, "gold"),
     lambda instance, state: state is instance.get_class("gold")),
], ids=["scfq-reserve", "cbq-attach", "hfsc-attach"])
def test_removed_filter_leaves_no_record_in_its_scheduler(make, bind, applied):
    instance = make()
    router, record = _sched_router(instance)
    bind(instance, record)
    for i in (1, 2):
        router.receive(make_udp(f"10.0.0.{i}", "20.0.0.1", 5000, 9000, iif="atm0"))
    assert applied(instance, _slot_state(router))
    assert router.aiu.remove_filter(record)
    assert not _holds(instance, record)
    # The flow re-classifies with no filter behind it.
    router.receive(make_udp("10.0.0.1", "20.0.0.1", 5000, 9000, iif="atm0"))
    assert _slot_state(router) is None


# ----------------------------------------------------------------------
# A sweep is one AIU pass
# ----------------------------------------------------------------------
def _queue_traffic(topo, k):
    """Packets of every reserved flow and of 4 unreserved ones, left
    queued in B's DRR (the loop does not run)."""
    router = topo.routers["b"]
    for i in range(k + 4):
        for _ in range(3):
            router.receive(make_udp(f"10.1.0.{i + 1}", "10.3.0.9", 4000, 5000, iif="ba0"),
                           now=topo.loop.now)


def _count_purges(monkeypatch):
    passes = []
    real_purge = FlowTable.purge

    def counting_purge(table, stale):
        passes.append(table)
        return real_purge(table, stale)

    monkeypatch.setattr(FlowTable, "purge", counting_purge)
    return passes


@pytest.mark.parametrize("k", [1, 4, 16])
def test_ssp_expire_walks_the_flow_table_once(k, monkeypatch):
    topo, _, daemons = _ssp_chain(timeout=10.0)
    _reserve(topo, daemons, k)
    _queue_traffic(topo, k)
    passes = _count_purges(monkeypatch)
    assert daemons["b"].expire(now=topo.loop.now + 60.0) == k
    assert len(passes) == 1
    assert topo.routers["b"].aiu.filter_count(GATE_PACKET_SCHEDULING) == 0


@pytest.mark.parametrize("k", [1, 4, 16])
def test_rsvp_sweep_walks_the_flow_table_once(k, monkeypatch):
    topo, _ = _chain()
    daemons = {
        name: RSVPDaemon(topo.routers[name], topo.neighbors_of(name), hold_time=30.0)
        for name in "abc"
    }
    for i in range(k):
        daemons["a"].send_path(f"s{i}", sender=f"10.1.0.{i + 1}", dst="10.3.0.9",
                               now=topo.loop.now)
        topo.run()
        daemons["c"].send_resv(f"s{i}", _flowspec(i), rate_bps=1e6, now=topo.loop.now)
        topo.run()
    _queue_traffic(topo, k)
    passes = _count_purges(monkeypatch)
    assert daemons["b"].sweep(now=topo.loop.now + 100.0) == 2 * k
    assert len(passes) == 1
    assert topo.routers["b"].aiu.filter_count(GATE_PACKET_SCHEDULING) == 0


def _state(topo, schedulers):
    router = topo.routers["b"]
    drr = schedulers[("b", "bc0")]
    return (
        sorted(str(flow.key) for flow in router.aiu.flow_table),
        sorted(str(record.filter) for record in router.aiu.filters()),
        sorted(str(q) for q in drr.queue_snapshot()),
        drr.backlog(),
    )


def test_sweep_matches_single_removals():
    k = 6
    swept, by_one = _ssp_chain(timeout=10.0), _ssp_chain(timeout=10.0)
    for topo, _, daemons in (swept, by_one):
        _reserve(topo, daemons, k)
        # One reservation is refreshed and must survive both ways.
        daemons["b"].reservations["flow0"].refreshed_at = topo.loop.now + 55.0
        _queue_traffic(topo, k)
    topo, schedulers, daemons = swept
    assert daemons["b"].expire(now=topo.loop.now + 60.0) == k - 1
    topo_one, schedulers_one, daemons_one = by_one
    for i in range(1, k):
        reservation = daemons_one["b"].reservations.pop(f"flow{i}")
        assert topo_one.routers["b"].aiu.remove_filter(reservation.filter_record)
    assert set(daemons["b"].reservations) == set(daemons_one["b"].reservations) == {"flow0"}
    assert _state(topo, schedulers) == _state(topo_one, schedulers_one)
    assert _state(topo, schedulers)[3] > 0


# ----------------------------------------------------------------------
# A stale ``now`` on the control path
# ----------------------------------------------------------------------
def test_control_call_with_stale_now_schedules_in_the_present():
    topo, _, daemons = _ssp_chain()
    daemons["a"].request("flow0", _flowspec(0), rate_bps=1e6, dst="10.3.0.9")
    topo.run()
    assert topo.loop.now > 0.0
    # Default now=0.0, behind the loop: the SETUP still goes out.
    daemons["a"].request("flow1", _flowspec(1), rate_bps=1e6, dst="10.3.0.9")
    topo.run()
    assert set(daemons["c"].reservations) == {"flow0", "flow1"}
