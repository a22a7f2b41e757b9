"""Sharded analysis sweep + analysis-cache staleness.

Pins the satellite fix: ``library.analyze()``'s freshness cache is
keyed on (plan epoch, configuration revision), so configuration ops
that never touch a filter — including ops fanned out across shards by
``ShardedPluginLibrary`` — invalidate it.  Also pins the sharded sweep
(``analyze_sharded`` / ``ShardedPluginLibrary.analyze``), its inline-
backend requirement, and the pmgr ``analyze --json`` round-trip on a
ShardedRouter."""

import json

import pytest

from repro import PluginManager, Router, ShardedRouter
from repro.analysis import analyze_sharded
from repro.core.errors import ConfigurationError
from repro.core.gates import GATE_IP_SECURITY
from repro.mgr.library import RouterPluginLibrary
from repro.net.packet import make_udp
from repro.shard.control import ShardedPluginLibrary


def _factory(index):
    router = Router(name=f"shard/{index}")
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    return router


def _sharded(nshards=2):
    sharded = ShardedRouter(nshards=nshards, factory=_factory, backend="inline")
    library = ShardedPluginLibrary(sharded)
    library.modload("firewall")
    library.create_instance("firewall", "fw0")
    library.bind("fw0", "*, *, UDP", gate=GATE_IP_SECURITY)
    return sharded, library


def _warm(sharded, count=8):
    sharded.receive_batch(
        [
            make_udp("10.0.0.1", "20.0.1.1", 5000 + i, 9000, iif="atm0")
            for i in range(count)
        ]
    )


# ----------------------------------------------------------------------
# Cache staleness (plain library)
# ----------------------------------------------------------------------
def test_analyze_cache_goes_stale_on_filterless_config_op():
    router = _factory(0)
    library = RouterPluginLibrary(router)
    library.analyze()
    assert library._analysis_status().startswith("0 findings")
    library.modload("firewall")  # no filter touched: plan epoch unmoved
    assert library._analysis_status().startswith("stale (")
    library.analyze()
    assert library._analysis_status().startswith("0 findings")


def test_analyze_cache_goes_stale_on_instance_ops():
    router = _factory(0)
    library = RouterPluginLibrary(router)
    library.modload("firewall")
    library.analyze()
    library.create_instance("firewall", "fw0")
    assert library._analysis_status().startswith("stale (")
    library.analyze()
    library.free_instance("fw0")
    assert library._analysis_status().startswith("stale (")


def test_analyze_cache_still_tracks_filter_changes():
    router = _factory(0)
    library = RouterPluginLibrary(router)
    library.modload("firewall")
    library.create_instance("firewall", "fw0")
    library.analyze()
    library.bind("fw0", "*, *, UDP", gate=GATE_IP_SECURITY)
    assert library._analysis_status().startswith("stale (")


# ----------------------------------------------------------------------
# Cache staleness under sharded fanout
# ----------------------------------------------------------------------
def test_fanout_config_op_invalidates_shard_caches():
    sharded, library = _sharded()
    library.analyze()
    for shard_library in library.libraries:
        assert shard_library._analysis_status().startswith("0 findings")
    library.modload("stats")  # fanout op, no filter touched
    for shard_library in library.libraries:
        assert shard_library._analysis_status().startswith("stale (")


# ----------------------------------------------------------------------
# The sharded sweep
# ----------------------------------------------------------------------
def test_sharded_sweep_is_clean_on_warm_router():
    sharded, library = _sharded()
    _warm(sharded)
    report = library.analyze()
    assert len(report) == 0
    # The sweep refreshed shard 0's freshness cache.
    assert library.libraries[0]._analysis_status().startswith("0 findings")


def test_analyze_sharded_covers_every_shard():
    sharded, library = _sharded(nshards=3)
    _warm(sharded, count=16)
    # Tamper shard 2's loop namespace: the sweep must catch it even
    # though shard 0 is clean.
    victim = sharded.shards[2]
    assert victim._loops
    fn = next(iter(victim._loops.values()))
    del fn.__globals__["TEXC"]
    report = analyze_sharded(sharded)
    findings = [d for d in report if d.code == "RP501"]
    assert findings
    assert all(d.subject.startswith("shard2: ") for d in findings)


def test_analyze_sharded_requires_inline_backend():
    sharded, library = _sharded()
    sharded._pool = object()  # impersonate the mp backend
    try:
        with pytest.raises(ConfigurationError, match="inline backend"):
            analyze_sharded(sharded)
        with pytest.raises(ConfigurationError, match="inline backend"):
            library.analyze()
    finally:
        sharded._pool = None


# ----------------------------------------------------------------------
# pmgr round-trip on a ShardedRouter
# ----------------------------------------------------------------------
def test_pmgr_analyze_json_round_trips_on_sharded_router():
    sharded, _ = _sharded()
    _warm(sharded)
    lines = []
    manager = PluginManager(sharded, output=lines.append)
    manager.run_command("analyze --json")
    payload = json.loads("\n".join(lines))
    assert payload["counts"]["error"] == 0
    assert payload["findings"] == []
