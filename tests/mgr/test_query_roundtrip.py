"""query() is the API, text is a formatter: for every show topic, the
``--json`` output re-rendered through ``render_topic`` must equal the
legacy text output, and the JSON itself must survive a dumps/loads
round-trip without changing the rendering (so ``pmgr show X --json``
piped to another tool sees exactly what the text view describes)."""

import json

import pytest

from repro.core.router import Router
from repro.mgr import (
    PluginManager,
    RouterPluginLibrary,
    get_topic,
    render_topic,
    topic_names,
)
from repro.net.packet import make_udp

TOPICS = topic_names()


@pytest.fixture
def configured():
    """A router with plugins, filters, faults, telemetry, and traffic —
    every topic has something non-trivial to report."""
    lines = []
    router = Router(name="rt")
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    mgr = PluginManager(router, output=lines.append)
    mgr.run_script("""
    modload drr
    modload firewall
    create drr drr0
    create firewall fw0 default_verdict=continue
    bind drr0 - 10.*, *, UDP
    bind fw0 ip_security 10.0.9.*, *, UDP
    telemetry on
    trace on sample=1 capacity=16
    overload on sample_interval=8
    """)
    for i in range(24):
        router.receive(
            make_udp(f"10.0.0.{i % 4 + 1}", "20.0.0.1", 1000 + i, 9000, iif="atm0"),
            now=0.001 * i,
        )
    return router, mgr, lines


def _run(mgr, lines, command):
    lines.clear()
    mgr.run_command(command)
    return list(lines)


class TestRoundTrip:
    def test_every_topic_has_a_renderer(self):
        assert TOPICS
        assert all(callable(get_topic(name).renderer) for name in TOPICS)

    @pytest.mark.parametrize("topic", TOPICS)
    def test_json_rerendered_equals_text(self, configured, topic):
        router, mgr, lines = configured
        text = _run(mgr, lines, f"show {topic}")
        blob = "\n".join(_run(mgr, lines, f"show {topic} --json"))
        data = json.loads(blob)
        assert render_topic(topic, data) == text

    def test_trace_stage_names_instance_and_verdict(self, configured):
        _router, mgr, lines = configured
        data = json.loads("\n".join(_run(mgr, lines, "show trace --json")))
        assert data["schema"] == {"topic": "trace", "version": 2}
        stage = next(s for s in data["spans"][0]["stages"]
                     if s["stage"] == "gate:packet_scheduling")
        assert (stage["instance"], stage["verdict"]) == ("drr0", "consumed")
        assert "[drr0->consumed]" in _run(mgr, lines, "show trace")[1]

    @pytest.mark.parametrize("topic", TOPICS)
    def test_query_dict_is_json_stable(self, configured, topic):
        """dumps -> loads must not change what the formatter renders
        (no non-JSON types leaking into the query dicts)."""
        router, _mgr, _lines = configured
        library = RouterPluginLibrary(router)
        data = library.query(topic)
        round_tripped = json.loads(json.dumps(data))
        assert render_topic(topic, round_tripped) == render_topic(topic, data)

    def test_show_methods_are_formatters_over_query(self, configured):
        router, _mgr, _lines = configured
        library = RouterPluginLibrary(router)
        assert library.show_plugins() == render_topic(
            "plugins", library.query("plugins")
        )
        assert library.show_aiu() == render_topic("aiu", library.query("aiu"))
        assert library.show_faults() == render_topic(
            "faults", library.query("faults")
        )

    def test_unknown_topic_rejected(self, configured):
        router, mgr, lines = configured
        library = RouterPluginLibrary(router)
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            library.query("nonsense")
        with pytest.raises(ConfigurationError, match="unknown show target"):
            mgr.run_command("show nonsense")

    def test_query_filters_by_gate(self, configured):
        router, _mgr, _lines = configured
        library = RouterPluginLibrary(router)
        everything = library.query("filters")["filters"]
        security_only = library.query("filters", gate="ip_security")["filters"]
        assert len(security_only) < len(everything)
        assert all(entry["gate"] == "ip_security" for entry in security_only)

    def test_query_faults_filter_by_plugin(self, configured):
        router, _mgr, _lines = configured
        library = RouterPluginLibrary(router)
        assert library.query("faults", plugin="not-there")["plugins"] == {}

    def test_bad_filter_rejected(self, configured):
        router, _mgr, _lines = configured
        library = RouterPluginLibrary(router)
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            library.query("plugins", bogus=1)


class TestPmgrTelemetryCommands:
    def test_telemetry_on_off_status(self, configured):
        router, mgr, lines = configured
        assert _run(mgr, lines, "telemetry status") == ["telemetry enabled"]
        _run(mgr, lines, "telemetry off")
        assert router.telemetry is None
        assert _run(mgr, lines, "telemetry status") == ["telemetry disabled"]
        out = _run(mgr, lines, "telemetry on")
        assert out == ["telemetry enabled"]
        assert router.telemetry is not None

    def test_trace_on_off(self, configured):
        router, mgr, lines = configured
        _run(mgr, lines, "trace off")
        assert router._lifecycle is None
        out = _run(mgr, lines, "trace on sample=4 capacity=32")
        assert out == ["tracing enabled sample=1/4 capacity=32"]
        assert router._lifecycle.sample == 4

    def test_trace_rejects_unknown_option(self, configured):
        router, mgr, lines = configured
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            mgr.run_command("trace on bogus=1")

    def test_show_telemetry_json_parses(self, configured):
        router, mgr, lines = configured
        data = json.loads("\n".join(_run(mgr, lines, "show telemetry --json")))
        assert data["enabled"] is True
        assert data["counters"]["router.rx"] == 24

    def test_show_usage_lists_topics(self, configured):
        router, mgr, lines = configured
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="telemetry"):
            mgr.run_command("show")
