"""The generated loops bind router-lifetime objects once, when they are
compiled, as keyword-only defaults (``repro.core.batch.BOUND``).  That is
only sound while nothing rebinds them: after any configuration verb —
every ``VERBS`` row with the oracle's arguments, then telemetry attach
and detach, a bound scheduler, the overload governor and a quarantine —
each default of every cached loop must still *be* the live router
attribute it was bound from."""

from contextlib import contextmanager
from operator import attrgetter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.batch import BOUND
from repro.mgr import library as library_module
from repro.mgr.fanout import VERBS
from repro.mgr.pmgr import PluginManager
from repro.net.packet import make_udp
from tests.oracle.harness import PLUGINS, build_router
from tests.oracle.test_oracle import VERB_ARGS


@contextmanager
def _oracle_plugins():
    saved = dict(library_module.PLUGIN_REGISTRY)
    library_module.PLUGIN_REGISTRY.update(PLUGINS)
    try:
        yield
    finally:
        library_module.PLUGIN_REGISTRY.clear()
        library_module.PLUGIN_REGISTRY.update(saved)


def _traffic(router, now):
    """Compile (or reuse) both layouts under the current plan."""
    burst = [make_udp("10.0.0.1", f"20.0.1.{i % 5 + 1}", 5000 + i, 9000, iif="atm0")
             for i in range(12)]
    router.receive(burst[0], now=now)
    router.receive_batch(burst[1:], now=now)


def _same(bound, live):
    """``is``; for a bound method, the same function of the same object
    (each attribute load builds a fresh method object)."""
    owner = getattr(live, "__self__", None)
    if owner is not None:
        return bound.__self__ is owner and bound == live
    return bound is live


def _assert_bound_state_is_live(router, step):
    loops = [fn for cached in router._loop_cache.values() for fn in cached.values()]
    assert loops, step
    for fn in loops:
        assert fn.__kwdefaults__, step
        for name, value in fn.__kwdefaults__.items():
            assert _same(value, attrgetter(BOUND[name])(router)), (step, name)


@settings(max_examples=12, derandomize=True, database=None, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.data())
def test_loop_defaults_stay_the_live_router_state_after_every_verb(data):
    with _oracle_plugins():
        router = build_router("bound")
        library = PluginManager(router, output=lambda line: None).library
        now = 0.0
        _traffic(router, now)
        for _round in range(2):
            for verb in VERBS:
                args, kwargs = data.draw(VERB_ARGS[verb], label=verb)
                try:
                    getattr(library, verb)(*args, **kwargs)
                except Exception:           # refused in this state: still checked
                    pass
                now += 0.01
                _traffic(router, now)
                _assert_bound_state_is_live(router, verb)
        steps = (
            ("modload", ("firewall",), {}),
            ("create_instance", ("firewall", "fw"), {"action": "allow"}),
            ("bind", ("fw", "*, *, UDP"), {"gate": "ip_security"}),
            ("enable_telemetry", (), {}),
            ("disable_telemetry", (), {}),
            ("modload", ("drr",), {}),
            ("create_instance", ("drr", "d"), {"interface": "atm1", "quantum": 1500}),
            ("set_scheduler", ("atm1", "d"), {}),
            ("enable_overload", (), {}),
            # A drawn policy may say "unload"; the quarantine below must hold.
            ("set_fault_policy", ("firewall",), {"action": "drop"}),
            ("quarantine", ("firewall",), {}),
        )
        for verb, args, kwargs in steps:
            try:
                getattr(library, verb)(*args, **kwargs)
            except Exception:               # already there from the drawn verbs
                pass
            now += 0.01
            _traffic(router, now)
            _assert_bound_state_is_live(router, verb)
        assert router._quarantined and router.scheduler("atm1") is not None
