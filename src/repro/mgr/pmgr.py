"""``pmgr`` — the Plugin Manager (§3.1, §6.1).

"The Plugin Manager is a user space utility used to configure the
system ... In most cases, the plugin manager is invoked from a
configuration script during system initialization, but it can also be
used to manually issue commands to various plugins."

Command language (one command per line; ``#`` comments allowed)::

    modload <plugin>                          # load a plugin module
    modunload <plugin>
    create <plugin> <instance> [key=value...] # create_instance message
    free <instance>
    bind <instance> <gate|-> <filter...>      # register_instance + filter
    unbind <instance>
    scheduler <interface> <instance>          # per-interface scheduler
    route <prefix> <interface> [next_hop]
    mroute <group> <oif1,oif2,...> [source|*] [expected_iif]
    msg <plugin> <type> [key=value...]        # plugin-specific message
    quarantine <plugin> [drop|bypass|unload]  # manual circuit-breaker trip
    reinstate <plugin>                        # lift a quarantine
    faultpolicy <plugin> [threshold=N] [window=S] [action=A] [cooldown=S]
    analyze [--json]                          # static analysis (repro.analysis)
    telemetry on|off|status                   # metrics registry (docs/OBSERVABILITY.md)
    trace on [sample=N] [capacity=N]          # packet-lifecycle tracer
    trace off
    trace path <src> <dst> [proto=P] [sport=N] [dport=N] [entry=node]
                                              # hop-by-hop path trace
                                              # (topology routers only;
                                              # results: show paths)
    overload on [key=value...]                # overload governor clock/budget
    overload off|status                       # (docs/ROBUSTNESS.md)
    show <topic> [--json]                     # any registered topic

``show`` accepts every topic in the :mod:`repro.mgr.format` registry
(plugins, filters, flows, aiu, faults, health, telemetry, trace,
overload, shards — plus subsystem registrations such as ``topology``
and ``paths`` from :mod:`repro.topo`).  Every ``show`` topic has a
structured twin: ``show X --json`` prints the
:meth:`RouterPluginLibrary.query` dict for the topic (with its
``schema`` version envelope), and the plain-text output is a formatter
over that same dict (``repro.mgr.format``).

Every command is a call on the library — one
:class:`~repro.mgr.library.RouterPluginLibrary`, or the
:class:`~repro.mgr.fanout.Fanout` over a sharded or topology front —
so the §6.1 example script from the paper runs verbatim through
:func:`run_script` on any of them (``tests/mgr/test_fanout.py``).  A
failing script line raises :class:`~repro.core.errors.ScriptError`
naming the line number and command; ``run_script(...,
continue_on_error=True)`` logs the error and keeps going instead.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, Dict, List, Optional

from ..core.errors import ConfigurationError, ScriptError
from ..core.router import Router
from .fanout import Fanout
from .format import render_topic, topic_names
from .library import RouterPluginLibrary, parse_config_value, split_command


class PluginManager:
    """The command interpreter over the Router Plugin Library."""

    def __init__(self, router: Router, output: Optional[Callable[[str], None]] = None):
        # Duck-typed: a Topology front end gets the per-node fanout
        # library (docs/TOPOLOGY.md); a ShardedRouter front end gets the
        # per-shard fanout library so every command broadcasts to all
        # shards and every ``show`` aggregates (docs/OBSERVABILITY.md);
        # a library is managed as it is (``library.run_script``).
        if isinstance(router, (RouterPluginLibrary, Fanout)):
            self.library = router
            router = router.router
        elif hasattr(router, "nodes") and hasattr(router, "links"):
            from ..topo.control import TopologyPluginLibrary

            self.library = TopologyPluginLibrary(router)
        elif hasattr(router, "nshards") and hasattr(router, "shards"):
            from ..shard.control import ShardedPluginLibrary

            self.library = ShardedPluginLibrary(router)
        else:
            self.library = RouterPluginLibrary(router)
        self.router = router
        self._print = output or (lambda line: None)
        self._commands: Dict[str, Callable[[List[str]], None]] = {
            "modload": self._cmd_modload,
            "modunload": self._cmd_modunload,
            "create": self._cmd_create,
            "free": self._cmd_free,
            "bind": self._cmd_bind,
            "unbind": self._cmd_unbind,
            "scheduler": self._cmd_scheduler,
            "route": self._cmd_route,
            "mroute": self._cmd_mroute,
            "msg": self._cmd_msg,
            "quarantine": self._cmd_quarantine,
            "reinstate": self._cmd_reinstate,
            "faultpolicy": self._cmd_faultpolicy,
            "analyze": self._cmd_analyze,
            "telemetry": self._cmd_telemetry,
            "trace": self._cmd_trace,
            "overload": self._cmd_overload,
            "show": self._cmd_show,
        }
        #: Errors collected by the last ``run_script(...,
        #: continue_on_error=True)`` run.
        self.script_errors: List[ScriptError] = []

    # ------------------------------------------------------------------
    def run_command(self, line: str) -> None:
        tokens = split_command(line)
        if not tokens:
            return
        # Tolerate a leading "pmgr" so the paper's script lines run as-is.
        if tokens[0] == "pmgr":
            tokens = tokens[1:]
            if not tokens:
                return
        command = tokens[0]
        handler = self._commands.get(command)
        if handler is None:
            raise ConfigurationError(
                f"unknown pmgr command {command!r}; known: {sorted(self._commands)}"
            )
        handler(tokens[1:])

    def run_script(self, text: str, continue_on_error: bool = False) -> int:
        """Execute a configuration script; returns commands executed.

        A failing command raises :class:`ScriptError` carrying the line
        number and the command text.  With ``continue_on_error`` the
        error is printed and collected in :attr:`script_errors` instead,
        and the rest of the script still runs — one bad admin command no
        longer aborts a whole boot configuration.
        """
        executed = 0
        self.script_errors = []
        for lineno, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                self.run_command(line)
            except Exception as exc:
                error = ScriptError(lineno, line, exc)
                if not continue_on_error:
                    raise error from exc
                self.script_errors.append(error)
                self._print(f"error: {error}")
                continue
            executed += 1
        return executed

    # ------------------------------------------------------------------
    # Command handlers
    # ------------------------------------------------------------------
    def _cmd_modload(self, args: List[str]) -> None:
        self._need(args, 1, "modload <plugin>")
        plugin = self.library.modload(args[0])
        # Fanout libraries (repro.shard) broadcast and return no handle.
        if plugin is None:
            self._print(f"loaded {args[0]}")
        else:
            self._print(f"loaded {plugin.name} code=0x{plugin.code:08x}")

    def _cmd_modunload(self, args: List[str]) -> None:
        self._need(args, 1, "modunload <plugin>")
        self.library.modunload(args[0])
        self._print(f"unloaded {args[0]}")

    def _cmd_create(self, args: List[str]) -> None:
        if len(args) < 2:
            raise ConfigurationError("usage: create <plugin> <instance> [key=value...]")
        config = dict(parse_config_value(token) for token in args[2:])
        instance = self.library.create_instance(args[0], args[1], **config)
        self._print(f"created {instance.name if instance else args[1]}")

    def _cmd_free(self, args: List[str]) -> None:
        self._need(args, 1, "free <instance>")
        self.library.free_instance(args[0])
        self._print(f"freed {args[0]}")

    def _cmd_bind(self, args: List[str]) -> None:
        if len(args) < 3:
            raise ConfigurationError("usage: bind <instance> <gate|-> <filter...>")
        instance_name, gate = args[0], args[1]
        filter_spec = " ".join(args[2:])
        record = self.library.bind(
            instance_name, filter_spec, gate=None if gate == "-" else gate
        )
        if record is None:
            self._print(f"bound {instance_name}: {filter_spec}")
        else:
            self._print(f"bound {instance_name} at {record.gate}: {record.filter}")

    def _cmd_unbind(self, args: List[str]) -> None:
        self._need(args, 1, "unbind <instance>")
        self.library.unbind(args[0])
        self._print(f"unbound {args[0]}")

    def _cmd_scheduler(self, args: List[str]) -> None:
        self._need(args, 2, "scheduler <interface> <instance>")
        self.library.set_scheduler(args[0], args[1])
        self._print(f"scheduler on {args[0]} = {args[1]}")

    def _cmd_route(self, args: List[str]) -> None:
        if len(args) not in (2, 3):
            raise ConfigurationError("usage: route <prefix> <interface> [next_hop]")
        self.library.add_route(args[0], args[1], args[2] if len(args) == 3 else None)
        self._print(f"route {args[0]} dev {args[1]}")

    def _cmd_mroute(self, args: List[str]) -> None:
        if len(args) not in (2, 3, 4):
            raise ConfigurationError(
                "usage: mroute <group> <oif1,oif2,...> [source|*] [expected_iif]"
            )
        group, oifs = args[0], args[1].split(",")
        source = None if len(args) < 3 or args[2] == "*" else args[2]
        expected_iif = args[3] if len(args) == 4 else None
        self.library.add_mroute(
            group, oifs, source=source, expected_iif=expected_iif
        )
        self._print(f"mroute ({source or '*'}, {group}) -> {oifs}")

    def _cmd_msg(self, args: List[str]) -> None:
        if len(args) < 2:
            raise ConfigurationError("usage: msg <plugin> <type> [key=value...]")
        msg_args = dict(parse_config_value(token) for token in args[2:])
        # Instance references travel by name; the library resolves them.
        result = self.library.send_message(args[0], args[1], **msg_args)
        self._print(f"msg {args[1]} -> {result!r}")

    def _cmd_quarantine(self, args: List[str]) -> None:
        if len(args) not in (1, 2):
            raise ConfigurationError("usage: quarantine <plugin> [drop|bypass|unload]")
        action = args[1] if len(args) == 2 else None
        domain = self.library.quarantine(args[0], action=action)
        self._print(
            f"quarantined {args[0]}"
            + (f" action={domain.policy.action}" if domain else "")
        )

    def _cmd_reinstate(self, args: List[str]) -> None:
        self._need(args, 1, "reinstate <plugin>")
        self.library.reinstate(args[0])
        self._print(f"reinstated {args[0]}")

    def _cmd_faultpolicy(self, args: List[str]) -> None:
        if len(args) < 2:
            raise ConfigurationError(
                "usage: faultpolicy <plugin> [threshold=N] [window=S] "
                "[action=drop|bypass|unload] [cooldown=S] [ring_size=N]"
            )
        config = dict(parse_config_value(token) for token in args[1:])
        domain = self.library.set_fault_policy(args[0], **config)
        self._print(f"faultpolicy {args[0]}" + (f": {domain.policy}" if domain else ""))

    def _cmd_analyze(self, args: List[str]) -> None:
        if args not in ([], ["--json"]):
            raise ConfigurationError("usage: analyze [--json]")
        report = self.library.analyze()
        if args:
            self._print(report.to_json())
        else:
            for line in report.render():
                self._print(line)

    def _cmd_telemetry(self, args: List[str]) -> None:
        if args not in (["on"], ["off"], ["status"]):
            raise ConfigurationError("usage: telemetry on|off|status")
        if args[0] == "on":
            self.library.enable_telemetry()
            self._print("telemetry enabled")
        elif args[0] == "off":
            self.library.disable_telemetry()
            self._print("telemetry disabled")
        else:
            enabled = self.library.query("telemetry")["enabled"]
            self._print(f"telemetry {'enabled' if enabled else 'disabled'}")

    def _cmd_trace(self, args: List[str]) -> None:
        if args and args[0] == "path":
            self._cmd_trace_path(args[1:])
            return
        if not args or args[0] not in ("on", "off"):
            raise ConfigurationError(
                "usage: trace on [sample=N] [capacity=N] | trace off | "
                "trace path <src> <dst> [proto=P] [sport=N] [dport=N] "
                "[entry=node]"
            )
        if args[0] == "off":
            if len(args) != 1:
                raise ConfigurationError("usage: trace off")
            self.library.stop_trace()
            self._print("tracing disabled")
            return
        config = dict(parse_config_value(token) for token in args[1:])
        unknown = set(config) - {"sample", "capacity"}
        if unknown:
            raise ConfigurationError(
                f"unknown trace options {sorted(unknown)}; known: sample, capacity"
            )
        tracer = self.library.start_trace(**config)
        if tracer is None:
            self._print("tracing enabled")
        else:
            self._print(
                f"tracing enabled sample=1/{tracer.sample} capacity={tracer.capacity}"
            )

    def _cmd_trace_path(self, args: List[str]) -> None:
        usage = (
            "usage: trace path <src> <dst> [proto=P] [sport=N] [dport=N] "
            "[entry=node]"
        )
        if len(args) < 2:
            raise ConfigurationError(usage)
        trace_path = getattr(self.library, "trace_path", None)
        if trace_path is None:
            raise ConfigurationError(
                "path tracing needs a multi-router topology "
                "(PluginManager over repro.topo.Topology)"
            )
        src, dst = args[0], args[1]
        options = dict(parse_config_value(token) for token in args[2:])
        unknown = set(options) - {"proto", "sport", "dport", "entry"}
        if unknown:
            raise ConfigurationError(
                f"unknown trace path options {sorted(unknown)}; "
                "known: proto, sport, dport, entry"
            )
        proto = options.get("proto", "udp")
        if isinstance(proto, str):
            from ..net.headers import protocol_number

            proto = protocol_number(proto)
        five_tuple = (
            src, dst, proto,
            int(options.get("sport", 5000)), int(options.get("dport", 9000)),
        )
        trace = trace_path(five_tuple, entry=options.get("entry"))
        for line in trace.render():
            self._print(line)

    def _cmd_overload(self, args: List[str]) -> None:
        usage = "usage: overload on [key=value...] | overload off | overload status"
        if not args or args[0] not in ("on", "off", "status"):
            raise ConfigurationError(usage)
        if args[0] == "off":
            if len(args) != 1:
                raise ConfigurationError(usage)
            self.library.disable_overload()
            self._print("overload governor disabled")
            return
        if args[0] == "status":
            if len(args) != 1:
                raise ConfigurationError(usage)
            status = self.library.query("overload")
            if not status["enabled"]:
                self._print("overload governor disabled")
            else:
                self._print(f"overload governor enabled tier={status['tier']}")
            return
        config = dict(parse_config_value(token) for token in args[1:])
        governor = self.library.enable_overload(**config)
        if governor is None:
            self._print("overload governor enabled")
        else:
            self._print(
                f"overload governor enabled tier={governor.tier} "
                f"sample_interval={governor.sample_interval}"
            )

    def _cmd_show(self, args: List[str]) -> None:
        json_out = "--json" in args
        args = [a for a in args if a != "--json"]
        topics = topic_names()
        usage = f"show {'|'.join(topics)} [--json]"
        self._need(args, 1, usage)
        what = args[0]
        if what not in topics:
            raise ConfigurationError(f"unknown show target {what!r}")
        data = self.library.query(what)
        if json_out:
            self._print(json.dumps(data, indent=2))
        else:
            for line in render_topic(what, data):
                self._print(line)

    @staticmethod
    def _need(args: List[str], count: int, usage: str) -> None:
        if len(args) != count:
            raise ConfigurationError(f"usage: {usage}")


def run_script(
    text: str, router: Router, output=None, continue_on_error: bool = False
) -> PluginManager:
    """Convenience: run a config script against a router; returns the
    manager for further commands."""
    manager = PluginManager(router, output=output)
    manager.run_script(text, continue_on_error=continue_on_error)
    return manager


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: ``pmgr <script-file>`` builds a demo router and
    runs the script against it (stateless across invocations — see
    README; real deployments embed :class:`PluginManager`)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    continue_on_error = False
    if argv and argv[0] in ("-k", "--continue-on-error"):
        continue_on_error = True
        argv = argv[1:]
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    router = Router(name="pmgr-router")
    router.add_interface("atm0", prefix="0.0.0.0/0")
    manager = PluginManager(router, output=print)
    with open(argv[0], "r", encoding="utf-8") as handle:
        manager.run_script(handle.read(), continue_on_error=continue_on_error)
    return 1 if manager.script_errors else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
