"""Unit tests for the shell command layer."""

import pytest

from repro.cluster.shell import CommandError, CommandResult


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


def test_ps_lists_processes(db_host):
    db_host.ptable.spawn("oracle", "ora_pmon", now=0.0)
    res = db_host.shell.run("ps -e")
    assert res.ok
    assert any("ora_pmon" in line for line in res.stdout)


def test_ps_filter_by_user(db_host):
    db_host.ptable.spawn("alice", "vi")
    res = db_host.shell.run("ps -u alice")
    assert any("vi" in l for l in res.stdout)
    assert not any("crond" in l for l in res.stdout)


def test_pgrep_exit_codes(db_host):
    assert db_host.shell.run("pgrep crond").ok
    assert db_host.shell.run("pgrep nothing").exit_code == 1
    assert db_host.shell.run("pgrep").exit_code == 2


def test_pkill(db_host):
    db_host.ptable.spawn("u", "victim")
    assert db_host.shell.run("pkill victim").ok
    assert db_host.shell.run("pgrep victim").exit_code == 1


def test_vmstat_has_header_and_numbers(db_host):
    res = db_host.shell.run("vmstat")
    assert res.ok and len(res.stdout) == 2
    assert "sr" in res.stdout[0]


def test_iostat_rows_per_disk(db_host):
    res = db_host.shell.run("iostat -x")
    assert res.ok
    assert len(res.stdout) == 1 + db_host.spec.disks


def test_df_shows_mounts(db_host):
    res = db_host.shell.run("df -k")
    assert res.ok
    assert any("/logs" in l for l in res.stdout)


def test_prtdiag_exit_reflects_health(db_host):
    assert db_host.shell.run("prtdiag").ok
    db_host.inventory.find("disk0").fail(now=0.0)
    assert db_host.shell.run("prtdiag").exit_code == 1


def test_ping_reachable_and_not(dc):
    host = dc.host("db01")
    assert host.shell.run("ping adm01").ok
    assert host.shell.run("ping no-such-host").exit_code == 1
    dc.host("adm01").crash("x")
    assert host.shell.run("ping adm01").exit_code == 1


def test_uname(db_host):
    res = db_host.shell.run("uname -a")
    assert "solaris" in res.text()


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


def test_netstat_lists_nics(dc):
    res = dc.host("db01").shell.run("netstat -i")
    assert res.ok
    assert len(res.stdout) >= 3   # header + 2 NICs


def test_sar_cpu_breakdown(db_host):
    res = db_host.shell.run("sar -u 30")
    assert res.ok
    assert "%usr" in res.stdout[0]
    fields = res.stdout[1].split()
    assert len(fields) == 4
    assert abs(sum(float(f) for f in fields) - 100.0) < 2.0


def test_nfsstat(db_host):
    db_host.nfs_calls = 7
    db_host.nfs_retrans = 1
    res = db_host.shell.run("nfsstat")
    assert res.ok
    assert "7" in res.stdout[1] and "1" in res.stdout[1]


def test_who_lists_interactive_users(db_host):
    db_host.ptable.spawn("analyst1", "sas")
    db_host.ptable.spawn("root", "cron")
    res = db_host.shell.run("who")
    assert res.stdout == ["analyst1"]


def test_history_records_commands(db_host):
    db_host.shell.run("uptime")
    db_host.shell.run("df -k")
    assert db_host.shell.history[-2:] == ["uptime", "df -k"]
