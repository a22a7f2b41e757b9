"""The pluggable management-topic registry (satellite of the topology PR).

Pins the redesigned ``repro.mgr.format`` surface: ``register_topic``
validation and replacement, the versioned schema envelope on query
results, and the named merge strategies.
"""

import json

import pytest

import repro  # noqa: F401  (registers the topo topics on import)
from repro import PluginManager, Router, register_topic
from repro.core.errors import ConfigurationError
from repro.mgr import format as fmt

pytestmark = pytest.mark.topo


@pytest.fixture()
def scratch_topic():
    """Yield a unique topic name, unregistered on teardown."""
    name = "scratchtopic"
    yield name
    fmt._REGISTRY.pop(name, None)


def _noop_query(library, **filters):
    return {"value": 1}


def _noop_render(data):
    return [f"value: {data['value']}"]


class TestRegisterTopic:
    def test_registered_topic_is_immediately_queryable(self, scratch_topic):
        register_topic(scratch_topic, _noop_query, _noop_render,
                       schema_version=3)
        assert scratch_topic in fmt.topic_names()
        spec = fmt.get_topic(scratch_topic)
        assert spec.envelope() == {"topic": scratch_topic, "version": 3}
        assert fmt.render_topic(
            scratch_topic, fmt.attach_schema(spec, {"value": 1})
        ) == ["value: 1"]

    def test_duplicate_requires_replace(self, scratch_topic):
        register_topic(scratch_topic, _noop_query, _noop_render)
        with pytest.raises(ConfigurationError, match="already registered"):
            register_topic(scratch_topic, _noop_query, _noop_render)
        spec = register_topic(scratch_topic, _noop_query, _noop_render,
                              schema_version=2, replace=True)
        assert fmt.get_topic(scratch_topic) is spec
        assert spec.schema_version == 2

    @pytest.mark.parametrize("kwargs,match", [
        ({"merge": "no-such-strategy"}, "unknown merge strategy"),
        ({"schema_version": 0}, "positive int"),
        ({"renderer": None}, "must be callable"),
    ])
    def test_validation(self, scratch_topic, kwargs, match):
        full = {"query_fn": _noop_query, "renderer": _noop_render}
        full.update(kwargs)
        with pytest.raises(ConfigurationError, match=match):
            register_topic(scratch_topic, **full)

    def test_bad_name_rejected(self):
        with pytest.raises(ConfigurationError, match="bad topic name"):
            register_topic("no spaces!", _noop_query, _noop_render)

    def test_unknown_topic_lookup(self):
        with pytest.raises(KeyError, match="no_such"):
            fmt.get_topic("no_such")


class TestSchemaEnvelope:
    def test_query_results_are_enveloped(self):
        router = Router(name="env")
        router.add_interface("atm0", prefix="0.0.0.0/0")
        lib = PluginManager(router).library
        for topic in fmt.topic_names():
            data = lib.query(topic)
            assert data["schema"]["topic"] == topic, topic
            assert data["schema"]["version"] >= 1, topic
            json.dumps(data)

    def test_strip_schema(self):
        assert fmt.strip_schema({"a": 1, "schema": {}}) == {"a": 1}
        assert fmt.strip_schema({"a": 1}) == {"a": 1}

    def test_merge_strips_schema_first(self):
        """Version ints must never be summed across nodes."""
        spec = fmt.get_topic("flows")
        per_node = [
            fmt.attach_schema(spec, {"active": 2}),
            fmt.attach_schema(spec, {"active": 3}),
        ]
        assert fmt.merge_topic("flows", per_node) == {"active": 5}


class TestMergeStrategies:
    def test_sum(self):
        assert fmt.merge_topic("flows", [{"a": 1}, {"a": 2}]) == {"a": 3}

    def test_worst_wins(self):
        merged = fmt.merge_topic("overload", [
            {"enabled": True, "tier": "normal",
             "window": {"packets": 10, "miss_ratio": 0.1,
                        "evict_frac": 0.0, "occupancy": 0.2},
             "counters": {"dropped": 0}, "transitions": []},
            {"enabled": True, "tier": "thrash",
             "window": {"packets": 5, "miss_ratio": 0.9,
                        "evict_frac": 0.5, "occupancy": 0.8},
             "counters": {"dropped": 7}, "transitions": []},
        ])
        assert merged["tier"] == "thrash"
        assert merged["window"]["packets"] == 15
        assert merged["window"]["miss_ratio"] == 0.9
        assert merged["counters"]["dropped"] == 7

    def test_concat(self):
        strategy = fmt.MERGE_STRATEGIES["concat"]
        merged = strategy([{"paths": [1], "n": 1}, {"paths": [2], "n": 2}])
        assert merged == {"paths": [1, 2], "n": 3}

    def test_shard0(self):
        strategy = fmt.MERGE_STRATEGIES["shard0"]
        assert strategy([{"a": 1}, {"a": 9}]) == {"a": 1}
        assert strategy([]) == {}

    def test_frontend_topics_refuse_payload_merge(self):
        for topic in ("shards", "topology", "paths", "health"):
            with pytest.raises(ConfigurationError, match="front end"):
                fmt.merge_topic(topic, [{}])


class TestPlainRouterDegenerateViews:
    """show topology / show paths on a single bare router: the registry
    makes the topics available everywhere, with a one-node view."""

    def _mgr(self):
        router = Router(name="solo")
        router.add_interface("atm0", prefix="0.0.0.0/0")
        lines = []
        return PluginManager(router, output=lines.append), lines

    def test_show_topology_degenerate(self):
        mgr, lines = self._mgr()
        mgr.run_command("show topology --json")
        data = json.loads("\n".join(lines))
        assert data["schema"] == {"topic": "topology", "version": 1}
        body = fmt.strip_schema(data)
        assert [n["name"] for n in body["nodes"]] == ["solo"]
        assert body["links"] == []

    def test_show_paths_empty(self):
        mgr, lines = self._mgr()
        mgr.run_command("show paths --json")
        data = json.loads("\n".join(lines))
        assert fmt.strip_schema(data) == {"paths": []}
        lines.clear()
        mgr.run_command("show paths")
        assert any("no traced paths" in line for line in lines)
