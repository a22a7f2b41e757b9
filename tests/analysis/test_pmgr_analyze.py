"""The operator surface: the pmgr ``analyze`` command, the epoch-keyed
``analyzed:`` status line in ``show aiu``, ``analyze_script``'s RP107
collection, and the scripts/analyze.py CLI exit codes."""

import os
import subprocess
import sys

from repro.analysis import analyze_script
from repro.core.router import Router
from repro.mgr.pmgr import PluginManager
from repro.net.packet import make_udp

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _manager():
    router = Router(name="pmgr-analyze")
    router.add_interface("atm0", prefix="0.0.0.0/0")
    out = []
    manager = PluginManager(router, output=out.append)
    return manager, out


def test_analyze_command_reports_findings():
    manager, out = _manager()
    manager.run_script(
        """
        modload drr
        create drr d1 quantum=512
        bind d1 - 10.0.0.0/8, *, TCP
        bind d1 - 10.1.0.0/16, *, TCP
        """
    )
    manager.run_command("analyze")
    text = "\n".join(out)
    assert "RP102" in text
    assert "1 findings" in text


def test_analyze_is_quiet_on_a_loop_with_no_plugin_call_to_guard():
    """No scheduling gate and no active filter: the generated loop calls
    no plugin and holds no fault handler, and ``analyze`` reports
    nothing on it."""
    router = Router(name="no-sched", gates=("ip_options", "ip_security"))
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    packet = make_udp("10.0.0.1", "20.0.0.1", 5000, 9000, iif="atm0")
    assert router.receive(packet) == "forwarded"
    assert "except" not in router._loops["packet"]._source
    out = []
    PluginManager(router, output=out.append).run_command("analyze")
    assert out == ["0 findings (0 errors, 0 warnings, 0 info)"]
    # What scripts/analyze.py exits on, for a script run on this router.
    assert len(analyze_script("modload firewall\n", router=router)) == 0


def test_analyze_json_output():
    manager, out = _manager()
    manager.run_script("modload drr\ncreate drr d1 quantum=512")
    manager.run_command("analyze --json")
    import json

    payload = json.loads("\n".join(out[out.index('{'):]) if '{' in out else out[-1])
    assert payload["counts"] == {"error": 0, "warning": 0, "info": 0}


def test_show_aiu_analyzed_line_never_fresh_stale():
    manager, out = _manager()
    manager.run_script(
        """
        modload drr
        create drr d1 quantum=512
        bind d1 - 10.0.0.0/8, *, TCP
        """
    )
    manager.run_command("show aiu")
    assert any(line == "analyzed: never" for line in out)

    out.clear()
    manager.run_command("analyze")
    manager.run_command("show aiu")
    assert any(line.startswith("analyzed: 0 findings (0 errors)") for line in out)

    out.clear()
    manager.run_command("bind d1 - 192.168.0.0/16, *, UDP")
    manager.run_command("show aiu")
    assert any(line.startswith("analyzed: stale") for line in out)


def test_analyze_script_collects_rp107_and_still_analyzes():
    report = analyze_script(
        """
        modload drr
        create drr d1 quantum=512
        bind d1 - 10.0.0.0/8, *, TCP
        bind d1 - 10.0.0.0/8, *, TCP
        frobnicate the packets
        """
    )
    assert report.by_code("RP107"), "bad line not reported"
    assert report.by_code("RP101"), "good lines not analyzed"


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "analyze.py"), *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def test_cli_self_lint_exits_zero():
    proc = _run_cli("--self-lint")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 errors" in proc.stdout


def test_cli_script_with_shadow_exits_one(tmp_path):
    script = tmp_path / "bad.pmgr"
    script.write_text(
        "modload drr\n"
        "create drr d1 quantum=512\n"
        "bind d1 - 10.0.0.0/8, *, TCP\n"
        "bind d1 - 10.0.0.0/8, *, TCP\n"
    )
    proc = _run_cli(str(script))
    assert proc.returncode == 1
    assert "RP101" in proc.stdout


def test_cli_json_mode(tmp_path):
    script = tmp_path / "ok.pmgr"
    script.write_text("modload drr\ncreate drr d1 quantum=512\n")
    proc = _run_cli("--json", str(script))
    assert proc.returncode == 0
    import json

    payload = json.loads(proc.stdout)
    assert payload["findings"] == []


def test_cli_strict_gates_on_warnings(tmp_path):
    # A script error surfaces as RP107 (warning): gate only with --strict.
    script = tmp_path / "warn.pmgr"
    script.write_text("modload no_such_plugin\n")
    import json

    proc = _run_cli("--json", str(script))
    assert proc.returncode == 0
    assert [f["code"] for f in json.loads(proc.stdout)["findings"]] == ["RP107"]
    strict = _run_cli("--json", "--strict", str(script))
    assert strict.returncode == 1
    assert json.loads(strict.stdout)["findings"]


def test_cli_usage_error_exits_two():
    proc = _run_cli()
    assert proc.returncode == 2
