"""Synthetic workloads: flow-structured traffic, filter sets, and
adversarial attack scenarios."""

from .adversarial import (
    ATTACKS,
    AttackScenario,
    run_scenario,
    scenario,
    scenario_names,
)
from .filtersets import (
    PORT_CATALOGUE,
    matching_probe,
    prefix_length_filters,
    random_filters,
    table3_filters,
)
from .pcap import PcapError, iter_pcap, read_pcap, replay_into, write_pcap
from .topo_scenarios import (
    TOPO_SCENARIOS,
    build as build_topo_scenario,
    topo_scenario,
    topo_scenario_names,
)
from .flows import (
    FlowSpec,
    TimedPacket,
    bursty_arrivals,
    heavy_tailed_train_lengths,
    pareto_on_off,
    poisson_arrivals,
    round_robin_trains,
    synthetic_flows,
    table3_flows,
    zipf_flows,
)

__all__ = [
    "ATTACKS",
    "AttackScenario",
    "run_scenario",
    "scenario",
    "scenario_names",
    "PORT_CATALOGUE",
    "matching_probe",
    "prefix_length_filters",
    "random_filters",
    "table3_filters",
    "FlowSpec",
    "TimedPacket",
    "bursty_arrivals",
    "heavy_tailed_train_lengths",
    "pareto_on_off",
    "poisson_arrivals",
    "round_robin_trains",
    "synthetic_flows",
    "table3_flows",
    "zipf_flows",
    "PcapError",
    "iter_pcap",
    "read_pcap",
    "replay_into",
    "write_pcap",
    "TOPO_SCENARIOS",
    "build_topo_scenario",
    "topo_scenario",
    "topo_scenario_names",
]
