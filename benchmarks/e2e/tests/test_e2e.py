"""Smoke-sized self-tests of the benchmark itself."""

import json
import os
import re

import pytest

import harness
import run
import spec
import workloads
from repro.core.plugin import TYPE_FIREWALL, Plugin, PluginInstance, Verdict

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(autouse=True)
def smoke_sizes(monkeypatch, tmp_path):
    """One set-up, a 500-packet scenario, and results kept out of out/."""
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads.TopoIpsec, "sizes", dict(
        warmup_packets=100, attack_packets=300, recovery_packets=100))
    monkeypatch.setattr(run, "OUT", str(tmp_path))


def result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_benchmark_json_is_the_spec_and_within_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        written = json.load(fh)
    assert written == spec.benchmark_json()
    assert set(written) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
    assert 2 <= len(written["workloads"]) <= 8
    assert 1 <= len(written["end_to_end"]) <= 16
    assert 1 <= len(written["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in written[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"]
               for entry in written["workloads"])
    for entry in written["end_to_end"] + written["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    assert all(0 < entry["bound"] <= 0.25 for entry in written["end_to_end"])
    setup = [e for e in written["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in written["end_to_end"])
    assert set(workloads.WORKLOADS) == set(spec.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_printed_names_are_the_declared_names_each_with_its_unit(workload, capsys):
    units = spec.units()
    for trace, declared in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
        code = run.main(["--workload", workload, "--seed", "5",
                         "--seconds", "0.2", "--trace", str(trace)])
        result = result_line(capsys)
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [name for name, *_ in declared]
        for name, entry in result["metrics"].items():
            assert entry["unit"] == units[name]
            assert isinstance(entry["value"], (int, float))
        if trace == 0:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", ["wire_fastpath", "control_churn", "topo_ipsec"])
def test_spans_nest_and_shares_sum_to_one(workload, tmp_path, capsys):
    run.main(["--workload", workload, "--seed", "5", "--seconds", "0.2",
              "--trace", "1"])
    metrics = result_line(capsys)["metrics"]
    with open(tmp_path / f"trace_{workload}.json") as fh:
        trace = json.load(fh)
    spans = {span[0]: span for span in trace["spans"]}
    children = {}
    for ident, name, start, end, parent in trace["spans"]:
        assert start <= end
        if parent < 0:
            assert name == "burst"
            continue
        _pid, _pname, pstart, pend, _pp = spans[parent]
        assert pstart <= start and end <= pend
        children[parent] = children.get(parent, 0) + (end - start)
    for parent, covered in children.items():
        assert covered <= spans[parent][3] - spans[parent][2]
    shares = [entry["value"] for name, entry in metrics.items()
              if name.startswith("trace.") and name.endswith("_share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.02)
    assert metrics["trace.overhead_ratio"]["value"] > 0


class _DropEvery100(PluginInstance):
    def process(self, packet, ctx):
        super().process(packet, ctx)
        return Verdict.DROP if self.packets_processed % 100 == 0 else Verdict.CONTINUE


class _DropPlugin(Plugin):
    plugin_type = TYPE_FIREWALL
    name = "dropper"
    instance_class = _DropEvery100


class _Faulty(workloads.RouterWorkload):
    """gate_chain traffic through a router that loses 1 packet in 100."""

    name = "gate_chain"
    make_bursts = workloads.GateChain.make_bursts

    @classmethod
    def build(cls):
        router, lib = super().build()
        plugin = _DropPlugin()
        router.pcu.load(plugin)
        plugin.register_instance(plugin.create_instance(), "*, *, UDP",
                                 gate="ip_security")
        return router, lib


def test_a_router_that_loses_one_packet_in_100_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "gate_chain", _Faulty)
    code = run.main(["--workload", "gate_chain", "--seed", "5",
                     "--seconds", "0.2", "--trace", "0"])
    result = result_line(capsys)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] == pytest.approx(0.01, abs=2e-4)


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_the_seed_decides_the_inputs(workload):
    def digest(seed):
        built = workloads.WORKLOADS[workload](seed)
        built.close()
        assert built.failed == 0
        return built.input_digest

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)
