"""Unit tests for the shell command layer."""

import pytest

from repro.cluster.shell import CommandError, CommandResult
from repro.cluster.hardware import ComponentKind


def test_unknown_command_127(db_host):
    res = db_host.shell.run("frobnicate --now")
    assert res.exit_code == 127


def test_empty_command_ok(db_host):
    assert db_host.shell.run("").ok


def test_parse_error(db_host):
    res = db_host.shell.run('echo "unclosed')
    assert res.exit_code == 2


def test_host_down_raises(db_host):
    db_host.crash("test")
    with pytest.raises(CommandError):
        db_host.shell.run("uptime")


def test_prtdiag_exit_reflects_health(db_host):
    assert db_host.shell.run("prtdiag").ok
    db_host.inventory.of_kind(ComponentKind.DISK)[0].fail(now=0.0)
    assert db_host.shell.run("prtdiag").exit_code == 1


def test_ping_reachable_and_not(dc):
    host = dc.host("db01")
    assert host.shell.run("ping adm01").ok
    assert host.shell.run("ping no-such-host").exit_code == 1
    dc.host("adm01").crash("x")
    assert host.shell.run("ping adm01").exit_code == 1


def test_register_custom_command(db_host):
    db_host.shell.register("hello", lambda args: CommandResult(0, ["hi"]))
    assert db_host.shell.run("hello").stdout == ["hi"]


def test_command_exception_becomes_exit_1(db_host):
    def boom(args):
        raise RuntimeError("kaput")
    db_host.shell.register("boom", boom)
    res = db_host.shell.run("boom")
    assert res.exit_code == 1
    assert "kaput" in res.stderr[0]


def test_history_records_commands(db_host):
    db_host.shell.run("uptime")
    db_host.shell.run("df -k")
    assert db_host.shell.history[-2:] == ["uptime", "df -k"]
